"""Exhaustive enumeration of small labeled semigroups and dimonoids,
classification up to isomorphism (optionally merging dual pairs), catalog
persistence, and the consolidated structural-theorem verification suite.

Both enumerators run on one backtracking engine, `_fill`: semigroups against
associativity, and the right tables of a left table against the axiom
bindings of `dimonoid.AXIOM_BINDINGS`.  The labeled dimonoid stream fills the
right tables once per semigroup class, for its least relabeled left table,
and relabels them onto every labeled left table of the class.  `classify`
never builds the labeled stream: `_fill` with its lex-leader prune yields
exactly those least left tables (orderly generation), and the labeled count
and automorphism order of each class are read off the orbit sizes of the
leaders and how many right tables reach its key.  Enumeration is
deterministic: tables are emitted in lexicographic order of their entry
tuples, and catalogs are sorted by canonical form, so a catalog's bytes
depend only on its order and quotient.
"""

from __future__ import annotations

import json
from collections import Counter
from itertools import product
from math import factorial
from typing import Iterator, NamedTuple, Optional

from .constructions import CONSTRUCTION_NAMES, ConstructionCase, all_cases
from .dimonoid import (
    AXIOM_BINDINGS,
    DiFlags,
    DiTable,
    _known_dimonoid,
    axioms_ok,
    di_flags,
    dual_dimonoid,
    halo,
    naive_flip,
    pair,
)
from .errors import BoundExceeded, FormatError, SizeMismatch
from .families import (
    family_sweep,
    left_zero_sg,
    null_sg,
    right_zero_sg,
)
from .morphisms import (
    _least_left,
    _left_orbit,
    _symmetric_group,
    automorphisms,
    canonical_key,
    check_morphism,
    matches_symmetric_product,
)
from .tables import (
    OpTable,
    check_size,
    dual_table,
    element_roles,
    is_associative,
    rectangular_witness,
    right_commutative_witness,
)

SEMIGROUP_ENUM_BOUND = 4
DIMONOID_ENUM_BOUND = 3
SUITE_BOUND = 6

# associativity as a `_fill` binding: the filled table in all four places
_ASSOCIATIVITY = [(None, None, None, None)]


# ---------------------------------------------------------------------------
# enumeration


class _Conflict(Exception):
    """An instance of a binding fails on the cells set so far."""


def _fill(n: int, bindings: list[tuple], leaders: bool = False) -> Iterator[OpTable]:
    """Every table t on 0..n-1 with (a q b) p c = a r (b s c) for all a, b, c
    and every binding (p, q, r, s), in lexicographic entry order; with
    `leaders`, only the lex leaders among them, the tables no relabeling
    makes lexicographically smaller.

    Each place of a binding holds a fixed row-major entry tuple, or None for t
    itself.  A binding without a None place reads only fixed tables and is
    not tested.  One whose only None place is s reads one cell of t per
    instance, so it limits up front the values each cell may take.  The
    others are grouped by the place the cell being set takes in an instance,
    q, s, p or r, and each group is checked in one loop.

    Cells are chosen row-major.  An instance whose one unset cell is its p or
    r cell forces that cell; an undo trail clears forced cells on backtrack.
    Every instance is tested when its last cell is set, chosen or forced.

    The leader prune (lex-leader symmetry breaking) runs after each cell is
    set and its forced cells propagated.  For each relabeling p other than
    the identity it walks the cells in row-major order while both p(t) and t
    are set there: the first cell where they differ decides, and p(t) smaller
    there cuts the branch, since every completion keeps those cells.  On a
    full table the walk is the whole comparison, so exactly the leaders
    remain.  It is sound only for bindings that every relabeling preserves,
    those without a fixed table, such as associativity; the labeled route
    descends without it.
    """
    size = n * n
    rng = range(n)
    rc = [divmod(j, n) for j in range(size)]
    e: list[Optional[int]] = [None] * size
    # the cells of t holding each value, as (row, column), in the order set
    pre: list[list[tuple[int, int]]] = [[] for _ in rng]
    trail: list[int] = []  # the cells set, chosen or forced, in order
    queue: list[int] = []  # set cells whose instances are still to be tested
    domain = [list(rng)] * size
    by_q, by_s, by_p, by_r = [], [], [], []
    fixed_pre: dict[tuple, list[list[tuple[int, int]]]] = {}

    def cells(t):
        # the preimage lists of a fixed table are built once per call
        if t is e:
            return pre
        fixed = fixed_pre.get(t)
        if fixed is None:
            fixed = fixed_pre[t] = [[] for _ in rng]
            for j, u in enumerate(t):
                fixed[u].append(rc[j])
        return fixed

    for binding in bindings:
        p, q, r, s = (e if t is None else t for t in binding)
        if binding.count(None) == 1 and s is e:
            # cell (b, c) = v needs r[a, v] = p[q[a, b], c] for every a:
            # column v of r against the column over a of p[q[a, b], c]
            rows = [p[u * n:u * n + n] for u in rng]
            cols = [r[v::n] for v in rng]
            targets = (t for b in rng for t in zip(*[rows[u] for u in q[b::n]]))
            domain = [[v for v in dom if cols[v] == t]
                      for dom, t in zip(domain, targets)]
            continue
        if q is e:
            by_q.append((p, r, s))
        if s is e:
            by_s.append((p, q, r))
        if p is e:
            by_p.append((cells(q), r, s))
        if r is e:
            by_r.append((p, q, cells(s)))

    def force(j: int, w: int) -> None:
        if w not in domain[j]:
            raise _Conflict
        e[j] = w
        pre[w].append(rc[j])
        trail.append(j)
        queue.append(j)

    def propagate() -> None:
        # test the instances that read each queued cell: equal sides pass, an
        # unset side is forced, two set sides that differ are a conflict
        while queue:
            j = queue.pop()
            v = e[j]
            x, y = rc[j]
            xn, yn, vn = x * n, y * n, v * n
            for p, r, s in by_q:
                for c in rng:
                    sv = s[yn + c]
                    if sv is not None:
                        lhs, rhs = p[vn + c], r[xn + sv]
                        if lhs != rhs:
                            if lhs is None:
                                force(vn + c, rhs)
                            elif rhs is None:
                                force(xn + sv, lhs)
                            else:
                                raise _Conflict
            for p, q, r in by_s:
                for a in rng:
                    qv = q[a * n + x]
                    if qv is not None:
                        lhs, rhs = p[qv * n + y], r[a * n + v]
                        if lhs != rhs:
                            if lhs is None:
                                force(qv * n + y, rhs)
                            elif rhs is None:
                                force(a * n + v, lhs)
                            else:
                                raise _Conflict
            for qcells, r, s in by_p:
                for a, b in qcells[x]:
                    sv = s[b * n + y]
                    if sv is not None:
                        rhs = r[a * n + sv]
                        if rhs != v:
                            if rhs is not None:
                                raise _Conflict
                            force(a * n + sv, v)
            for p, q, scells in by_r:
                for b, c in scells[y]:
                    qv = q[xn + b]
                    if qv is not None:
                        lhs = p[qv * n + c]
                        if lhs != v:
                            if lhs is not None:
                                raise _Conflict
                            force(qv * n + c, v)

    def undo(mark: int) -> None:
        while len(trail) > mark:
            j = trail.pop()
            pre[e[j]].pop()
            e[j] = None

    def fill(k: int) -> Iterator[OpTable]:
        while k < size and e[k] is not None:
            k += 1
        if k == size:
            yield OpTable(n, tuple(e))  # type: ignore[arg-type]
            return
        mark = len(trail)
        for v in domain[k]:
            try:
                force(k, v)
                propagate()
            except _Conflict:
                queue.clear()
            else:
                yield from descend(k + 1)
            undo(mark)

    if leaders:
        # each p other than the identity as (its images, for each cell of
        # p(t) the cell of t it reads): the gather of the cell indices
        relabelings = _symmetric_group(n).relabelings[1:]
        cell_ids = tuple(range(size))
        perms = [(tuple(map(img, rng)), gather(cell_ids)) for img, gather in relabelings]

        def leading() -> bool:
            for img, src in perms:
                for t, j in zip(e, src):
                    if t is None:
                        break
                    u = e[j]
                    if u is None:
                        break
                    u = img[u]
                    if u != t:
                        if u < t:
                            return False
                        break
            return True

        def descend(k: int) -> Iterator[OpTable]:
            return fill(k) if leading() else iter(())
    else:
        descend = fill

    yield from fill(0)


def enumerate_semigroups(n: int, max_n: int = SEMIGROUP_ENUM_BOUND) -> Iterator[OpTable]:
    """All labeled associative tables on 0..n-1, exactly once each, in
    lexicographic entry order: `_fill` with the one associativity binding,
    the filled table in all four places.

    Every instance is tested as soon as its cells are set, and an instance
    with one unset outer cell forces it, so the search never expands a prefix
    that already violates associativity.  This is what makes n = 4 (3492
    tables out of 4^16 raw ones) take a fraction of a second; n = 5 (183,732
    tables) is reachable with max_n=5.  A generator: the size checks run on
    first iteration.
    """
    check_size(n)
    if n > max_n:
        raise BoundExceeded(f"semigroup enumeration limited to n <= {max_n}")
    yield from _fill(n, _ASSOCIATIVITY)


def enumerate_semigroups_brute(n: int) -> Iterator[OpTable]:
    """Reference route: generate every n^(n*n) table and filter by
    associativity.  Only sensible for n <= 3."""
    check_size(n)
    if n > 3:
        raise BoundExceeded("brute-force table filter limited to n <= 3")
    for entries in product(range(n), repeat=n * n):
        t = OpTable(n, entries)
        if is_associative(t) is None:
            yield t


def enumerate_dimonoids(n: int, max_n: int = DIMONOID_ENUM_BOUND) -> Iterator[DiTable]:
    """All labeled dimonoids of order n: ordered pairs of labeled semigroups
    filtered through the three pairing axioms.  Deterministic order (left
    table lexicographic, then right).  The independent cross-check of
    enumerate_dimonoids_backtracking."""
    if n > max_n:
        raise BoundExceeded(f"dimonoid enumeration limited to n <= {max_n}")
    sgs = list(enumerate_semigroups(n, max_n))
    for left in sgs:
        for right in sgs:
            if axioms_ok(left, right):
                yield pair(left, right)


def _right_tables(left: OpTable) -> Iterator[OpTable]:
    """Every right table that makes a dimonoid with the associative table
    `left`, in lexicographic entry order: `_fill` with the five axiom
    bindings of AXIOM_BINDINGS, the left operation read from `left` and the
    right one filled.

    Left associativity reads no right cell, so it is not tested.  The first
    axiom (x <| y) <| z = x <| (y |> z) reads one right cell per instance, so
    it limits up front the values each cell may take.
    """
    t = {"l": left.entries, "r": None}
    return _fill(left.n, [(t[p], t[q], t[r], t[s]) for p, q, r, s in AXIOM_BINDINGS])


def enumerate_dimonoids_backtracking(n: int, max_n: int = DIMONOID_ENUM_BOUND
                                     ) -> Iterator[DiTable]:
    """All labeled dimonoids of order n, each labeled semigroup on the left
    with its right tables in lexicographic entry order.  The primary route;
    yields exactly the sequence of enumerate_dimonoids.

    A relabeling p is an isomorphism from (L, R) to (p(L), p(R)), so the right
    tables of a left table L are p^-1 applied to those of p(L).  The right
    tables are filled (see `_right_tables`) once per semigroup class, for its
    least relabeled left table L0, and each labeled L takes them relabeled by
    the inverse of a p with p(L) = L0.  L0 and p come from the orbit index of
    `morphisms`, which scans the relabelings of one left table per class, so
    the canonical_key of a streamed dimonoid finds its left table indexed.
    """
    if n > max_n:
        raise BoundExceeded(f"dimonoid enumeration limited to n <= {max_n}")
    filled: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for left in enumerate_semigroups(n, max_n):
        least, back = _least_left(n, left.entries)
        rights = filled.get(least)
        if rights is None:
            rights = filled[least] = [r.entries for r in _right_tables(OpTable(n, least))]
        # built in one batch, so that each later next() costs only a pair()
        for right in [OpTable(n, r) for r in sorted(map(back, rights))]:
            yield pair(left, right)


# ---------------------------------------------------------------------------
# classification


class CatalogEntry(NamedTuple):
    """One isomorphism class: its canonical representative plus the
    invariants recorded in the catalog file."""

    canonical: DiTable
    flags: DiFlags
    halo_size: int
    aut_order: int
    labeled_count: int
    dual_class_id: int

    def to_json(self) -> dict:
        return {
            "canonical": self.canonical.to_json(),
            "flags": self.flags.to_json(),
            "halo_size": self.halo_size,
            "aut_order": self.aut_order,
            "labeled_count": self.labeled_count,
            "dual_class": self.dual_class_id,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "CatalogEntry":
        for name in ("halo_size", "aut_order", "labeled_count", "dual_class"):
            if type(doc[name]) is not int:
                raise FormatError(f"{name!r} must be a JSON integer, got {doc[name]!r}")
        return cls(
            canonical=DiTable.from_json(doc["canonical"]),
            flags=DiFlags.from_json(doc["flags"]),
            halo_size=doc["halo_size"],
            aut_order=doc["aut_order"],
            labeled_count=doc["labeled_count"],
            dual_class_id=doc["dual_class"],
        )


QUOTIENTS = ("iso", "iso_and_duality")


def classify(n: int, quotient: str = "iso", workers: int = 1,
             max_n: int = DIMONOID_ENUM_BOUND) -> list[CatalogEntry]:
    """Classify all labeled dimonoids of order n up to isomorphism, or up to
    isomorphism-or-duality.  `workers` is ignored; it is kept so that
    positional callers still work.

    Every class has a member whose left table is the canonical (least
    relabeled) left table of its semigroup class: relabel any member by a
    permutation that minimizes its left table.  Those tables are the lex
    leaders that `_fill` yields under associativity with its leader prune,
    one per semigroup class, so the class keys are the canonical keys of the
    dimonoids over the leaders, and no other labeled table is visited.

    The same pass counts each class.  The labeled members of the class of
    d = (L0, R) are its relabelings; their left tables are the
    lefts[L0] = n!/|Aut(L0)| labeled tables of L0's semigroup class, with
    Aut(L0) read off the orbit index entry that canonical_key reads anyway,
    and those whose left table is L0 itself are the (L0, g(R)) for g in
    Aut(L0), rights[key] of them, since the right part of the key is the
    least g(R).  So labeled_count is lefts[L0] * rights[key], and aut_order
    is n!/labeled_count by orbit-stabilizer; no automorphism search runs
    (the tests reconcile both against direct counting and the search).

    The representatives carry an all-ok axiom report instead of rebuilding
    one for di_flags and halo: L0 was filled against associativity, each R
    against the other four axioms, and relabeling preserves both.

    Entries are sorted by their canonical tables.  Under the iso_and_duality
    quotient, each nonabelian class is merged with its dual class and every
    entry is its own dual class.
    """
    if quotient not in QUOTIENTS:
        raise ValueError(f"quotient must be one of {QUOTIENTS}")
    check_size(n)
    if n > max_n:
        raise BoundExceeded(f"classification limited to n <= {max_n}")
    fact = factorial(n)
    lefts: dict[tuple[int, ...], int] = {}
    rights: Counter = Counter()
    for left in _fill(n, _ASSOCIATIVITY, leaders=True):
        rights.update(canonical_key(pair(left, right)) for right in _right_tables(left))
        # the orbit entry canonical_key has just read: left is its own least
        # relabeled table, and its class has n!/|Aut(left)| labeled tables
        (_, aut), _ = _left_orbit(n, left.entries)
        lefts[left.entries] = fact // len(aut)
    keys = sorted(rights)
    index = {key: i for i, key in enumerate(keys)}
    reps = [_known_dimonoid(OpTable(n, kl), OpTable(n, kr)) for kl, kr in keys]
    dual_of = [index[canonical_key(dual_dimonoid(d))] for d in reps]
    counts = [lefts[kl] * rights[kl, kr] for kl, kr in keys]
    entries = [CatalogEntry(d, di_flags(d), len(halo(d)), fact // count, count, dual)
               for d, count, dual in zip(reps, counts, dual_of)]
    if quotient == "iso":
        return entries
    merged: list[CatalogEntry] = []
    for i, entry in enumerate(entries):
        j = entry.dual_class_id
        if j < i:
            continue  # merged into the entry of its dual class j
        labeled = entry.labeled_count + (entries[j].labeled_count if j != i else 0)
        merged.append(entry._replace(labeled_count=labeled, dual_class_id=len(merged)))
    return merged


# ---------------------------------------------------------------------------
# persistence


def dumps_catalog(entries: list[CatalogEntry]) -> str:
    """Line-delimited JSON, one class per line, byte-stable."""
    return "".join(
        json.dumps(entry.to_json(), sort_keys=True, separators=(",", ":")) + "\n"
        for entry in entries
    )


def loads_catalog(text: str) -> list[CatalogEntry]:
    entries = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            doc = json.loads(line)
            entries.append(CatalogEntry.from_json(doc))
        except Exception as exc:
            raise FormatError(str(exc), line=lineno) from exc
    return entries


def save_catalog(entries: list[CatalogEntry], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_catalog(entries))


def load_catalog(path) -> list[CatalogEntry]:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_catalog(fh.read())


# ---------------------------------------------------------------------------
# the consolidated verification suite


class TheoremRecord(NamedTuple):
    """Outcome of one swept claim; failures carry a reproducible witness."""

    id: str
    description: str
    passed: bool
    counterexample: Optional[str] = None
    details: Optional[str] = None

    def to_json(self) -> dict:
        return self._asdict()


class SuiteReport(NamedTuple):
    n_max: int
    records: tuple[TheoremRecord, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    def lines(self) -> list[str]:
        out = []
        for r in self.records:
            status = "PASS" if r.passed else "FAIL"
            line = f"{status} {r.id}: {r.description}"
            if r.counterexample:
                line += f" [counterexample: {r.counterexample}]"
            if r.details:
                line += f" ({r.details})"
            out.append(line)
        return out

    def to_json(self) -> dict:
        return {
            "n_max": self.n_max,
            "passed": self.passed,
            "records": [r.to_json() for r in self.records],
        }


def _record(rid: str, desc: str, failures: list[str],
            details: Optional[str] = None) -> TheoremRecord:
    return TheoremRecord(rid, desc, not failures,
                         failures[0] if failures else None, details)


def check_construction_case(case: ConstructionCase) -> Optional[str]:
    """Full per-case check used by the suite: axioms, halo, automorphism
    shape, and predicate flags, honoring the case's asserted fields.  Returns
    None or a failure description."""
    d = case.dimonoid
    if not d.is_dimonoid:
        return f"{case.describe()}: axioms fail {d.axiom_status.failures()}"
    if case.expected_halo is not None and halo(d) != case.expected_halo:
        return (f"{case.describe()}: halo {sorted(halo(d))} != "
                f"expected {sorted(case.expected_halo)}")
    if case.aut_spec is not None:
        if not matches_symmetric_product(automorphisms(d), case.aut_spec):
            return f"{case.describe()}: automorphism group does not match its shape"
    flags = di_flags(d)
    for attr, expected in (("abelian", case.expected_abelian),
                           ("commutative", case.expected_commutative),
                           ("rectangular", case.expected_rectangular)):
        if expected is not None and getattr(flags, attr) != expected:
            return f"{case.describe()}: {attr}={getattr(flags, attr)}, expected {expected}"
    return None


def run_theorem_suite(n_max: int) -> SuiteReport:
    """Re-verify, by exhaustive sweep, every structural claim this package is
    built on: associativity of the families, right commutativity where stated,
    the axioms/halos/automorphism groups/flags of the named constructions, the
    duality propositions over the complete order <= 3 catalog, the three
    pairing criteria, and the flipped-pair counterexample.

    Failures are data, not exceptions: each record carries the first
    counterexample found.
    """
    if type(n_max) is not int:
        raise SizeMismatch(f"n_max must be an int, got {n_max!r}")
    if not 1 <= n_max <= SUITE_BOUND:
        raise BoundExceeded(f"suite sweeps limited to 1 <= n_max <= {SUITE_BOUND}")
    records: list[TheoremRecord] = []

    # family associativity
    sweep = list(family_sweep(n_max))
    failures = [f"{p.to_json()}: witness {w}"
                for p, t in sweep if (w := is_associative(t)) is not None]
    records.append(_record(
        "families-associative",
        f"every family table with n <= {n_max} is associative", failures))

    # right commutativity of the four stated families, and not of RO
    for rid, family, desc in (
            ("rc-lo-arrow", "LO_arrow", "anchored partial left-zero tables"),
            ("rc-lo-tilde0", "LO_tilde0", "zero-extended partial left-zero tables"),
            ("rc-lob", "LOB", "left-zero bands"),
            ("rc-lo-plus0", "plus_zero", "zero-adjoined left-zero tables")):
        failures = [f"table {t.rows()}" for p, t in sweep
                    if p.family == family and right_commutative_witness(t) is not None]
        records.append(_record(rid, f"{desc}, n <= {n_max} are right commutative",
                               failures))
    failures = [f"n={p.n}" for p, t in sweep
                if p.family == "RO" and p.n >= 2
                and right_commutative_witness(t) is None]
    records.append(_record(
        "rc-ro-negative",
        f"right-zero tables with 2 <= n <= {n_max} are not right commutative",
        failures))

    # the nine constructions
    for name in CONSTRUCTION_NAMES:
        case_list = list(all_cases(n_max, (name,)))
        failures = [msg for case in case_list
                    if (msg := check_construction_case(case)) is not None]
        details = None
        if name == "lo_arrow*o":
            small = [f"{c.describe()}: halo={sorted(halo(c.dimonoid))}"
                     for c in case_list
                     if c.expected_halo is None and c.dimonoid.is_dimonoid]
            if small:
                details = "computed, not asserted: " + "; ".join(small)
        records.append(_record(
            f"construction-{name}",
            f"axioms, halo, automorphism shape and flags for n <= {n_max}",
            failures, details))

    # duality propositions over the complete small catalog
    k_max = min(n_max, DIMONOID_ENUM_BOUND)
    catalogs = {k: classify(k) for k in range(1, k_max + 1)}
    records.extend(_duality_records(catalogs))
    records.append(TheoremRecord(
        "catalog-counts",
        f"labeled/class counts of the order <= {k_max} catalogs",
        True, None,
        "; ".join(
            f"n={k}: {len(cat)} classes, {sum(e.labeled_count for e in cat)} labeled"
            for k, cat in catalogs.items()),
    ))

    # pairing criteria over all labeled semigroups
    records.extend(_pairing_records(k_max))

    # the flipped-pair counterexample
    failures = []
    for n in range(2, n_max + 1):
        flipped = naive_flip(pair(left_zero_sg(n), right_zero_sg(n)))
        w = flipped.axiom_status.d1
        if w is None:
            failures.append(f"n={n}: first axiom unexpectedly holds")
            continue
        x, y, z = w
        le = flipped.left.entries
        re_ = flipped.right.entries
        lhs = le[le[x * n + y] * n + z]
        rhs = le[x * n + re_[y * n + z]]
        if lhs != z or rhs != y:
            failures.append(f"n={n}: witness {w} evaluates to {lhs}/{rhs}, want z/y")
    records.append(_record(
        "naive-flip-counterexample",
        f"transposing both operations of the left/right-zero pair breaks the "
        f"first axiom with lhs=z, rhs=y, for 2 <= n <= {n_max}",
        failures))

    return SuiteReport(n_max, tuple(records))


def _duality_records(catalogs: dict[int, list[CatalogEntry]]) -> list[TheoremRecord]:
    k_max = max(catalogs)
    inv_failures = []
    equiv_failures = []
    comm_failures = []
    pairing_failures = []
    haloid_failures = []
    self_paired: list[str] = []
    for k, cat in catalogs.items():
        for idx, entry in enumerate(cat):
            d = entry.canonical
            dual = dual_dimonoid(d)
            if halo(dual) != halo(d):
                inv_failures.append(f"n={k} class {idx}: halo changes under duality")
            # the searched Aut(dual) has the order classify counted for d and
            # is generated inside Aut(d): the two groups are equal
            dual_auts = automorphisms(dual)
            if (dual_auts.order != entry.aut_order
                    or not all(check_morphism(d, d, g).isomorphism
                               for g in dual_auts.generators)):
                inv_failures.append(f"n={k} class {idx}: Aut changes under duality")
            flags = di_flags(d)
            dual_pairish = d.right == dual_table(d.left)
            if not (flags.abelian == flags.self_dual == dual_pairish):
                equiv_failures.append(
                    f"n={k} class {idx}: abelian={flags.abelian}, "
                    f"self_dual={flags.self_dual}, dual_pair={dual_pairish}")
            if flags.commutative != di_flags(dual).commutative:
                comm_failures.append(f"n={k} class {idx}: commutativity not preserved")
            # the pairing statement is about labeled structures: a nonabelian
            # dimonoid is never equal to its dual, so duality is a
            # fixed-point-free involution on labeled nonabelian dimonoids
            if not flags.abelian and (dual.left == d.left and dual.right == d.right):
                pairing_failures.append(
                    f"n={k} class {idx}: nonabelian but equal to its dual")
            if flags.abelian and entry.dual_class_id != idx:
                pairing_failures.append(
                    f"n={k} class {idx}: abelian but dual_class={entry.dual_class_id}")
            if cat[entry.dual_class_id].dual_class_id != idx:
                pairing_failures.append(f"n={k} class {idx}: duality not involutive")
            if not flags.abelian and entry.dual_class_id == idx:
                # a class can be isomorphic to its dual without any labeled
                # dimonoid equaling its own dual; recorded, not a failure
                self_paired.append(f"n={k} class {idx}")
            if flags.abelian:
                h = halo(d)
                if (h != element_roles(d.left).right_identities
                        or h != element_roles(d.right).left_identities):
                    haloid_failures.append(
                        f"n={k} class {idx}: halo differs from the one-sided identities")
    return [
        _record("duality-invariance",
                f"halo and Aut are unchanged under duality, order <= {k_max}",
                inv_failures),
        _record("abelian-selfdual-equivalence",
                "abelian = self-dual = (right table is the dual of the left)",
                equiv_failures),
        _record("commutativity-duality",
                "commutativity is preserved by duality", comm_failures),
        _record("nonabelian-dual-pairing",
                "duality is a fixed-point-free involution on labeled nonabelian "
                "dimonoids; abelian classes are their own dual class",
                pairing_failures,
                details=("nonabelian classes isomorphic to their dual class: "
                         + ", ".join(self_paired)) if self_paired else None),
        _record("abelian-halo-identities",
                "for abelian dimonoids the halo is the right identities of the "
                "left table and the left identities of the right table",
                haloid_failures),
    ]


def _pairing_records(k_max: int) -> list[TheoremRecord]:
    rc_failures = []
    lrec_failures = []
    lnull_failures = []
    for k in range(1, k_max + 1):
        lo_table = left_zero_sg(k)
        rng = range(k)
        for t in enumerate_semigroups(k):
            rc = right_commutative_witness(t) is None
            if axioms_ok(t, dual_table(t)) != rc:
                rc_failures.append(f"n={k} table {t.rows()}: pairs-with-dual != {rc}")
            rect = rectangular_witness(t) is None
            if axioms_ok(lo_table, t) != rect:
                lrec_failures.append(f"n={k} table {t.rows()}: left-zero pairing != {rect}")
            e = t.entries
            left_zeros = element_roles(t).left_zeros
            for z in rng:
                cond = (z in left_zeros
                        and all(e[e[x * k + y] * k + w] == e[x * k + z]
                                for x in rng for y in rng for w in rng))
                if axioms_ok(t, null_sg(k, z)) != cond:
                    lnull_failures.append(
                        f"n={k} table {t.rows()}, zero {z}: null pairing != {cond}")
    return [
        _record("rc-pairing-iff",
                f"a table pairs with its dual iff it is right commutative "
                f"(all labeled semigroups, n <= {k_max})", rc_failures),
        _record("left-zero-pairing-iff",
                f"the left-zero table pairs with t iff t is rectangular "
                f"(all labeled semigroups, n <= {k_max})", lrec_failures),
        _record("null-pairing-iff",
                f"t pairs with the null table on z iff z is a left zero of t "
                f"and x*y*w = x*z identically (n <= {k_max})", lnull_failures),
    ]
