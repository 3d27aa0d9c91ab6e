"""Exhaustive enumeration of small labeled semigroups and dimonoids,
classification up to isomorphism (optionally merging dual pairs), catalog
persistence, and the consolidated structural-theorem verification suite.

Both enumerators run on one backtracking engine, `_fill`: semigroups against
associativity, and the right tables of a left table against the axiom
bindings of `dimonoid.AXIOM_BINDINGS`.  Given a group of relabelings that
keeps the bindings, its lex-leader prune yields exactly the least table of
each orbit (orderly generation), together with its stabilizer: the
relabelings the prune found still tied with it.  Under S_n and associativity
these are the least relabeled left table L0 of each semigroup class and its
automorphisms.  Both labeled streams expand each leader into the labeled
tables of its class by relabeling it by every member of S_n, and hold all
labeled tables of order n, sorted, before their first yield (183,732 at
order 5).  The semigroup stream yields them; the dimonoid stream takes them
as left tables, fills the right tables once per class, for the leader, and
relabels them along with it.  `classify` never builds a labeled stream: it
fills the right tables of each leader under the prune with Aut(L0), so each
one is the right table of a class key, and reads the class's automorphism
order and labeled count off the ties carried to it.

Each process keeps what these depend on and never changes: the leaders of
each order with their automorphisms, read by both streams, `classify` and
the pairing records (188 at order 4, 1,915 at order 5); the unpruned right
tables of each leader, read by the dimonoid stream (1,000 at order 4, 71,623
at order 5); and `classify`'s iso catalog itself, which the pruned right
fill of each leader builds (734 classes at order 4, 55,883 at order 5).
Neither route reads the other's right tables, so they stay independent.
The sorted labeled tables and the iso_and_duality merge are built again on
every call.  Enumeration is deterministic: tables are emitted in
lexicographic order of their entry tuples, and catalogs are sorted by
canonical form, so a catalog's bytes depend only on its order and quotient.

A catalog line is json.dumps of its entry's document, keys sorted and no
spaces.  `dumps_catalog` writes those bytes without the encoder: it fills
one %-template per order (`_line_template`), which holds the sorted keys,
the n x n rows of both tables and the flags as true/false, with the entry's
counts and cells, and refuses with FormatError an entry whose line the
template would write otherwise (a count, cell or order that is not an int,
a flag that is not a bool, a table of the wrong shape).  The catalog
writers open their files with "\n" line ends on every platform.

Each engine has one size bound, checked before any fill or memo read: the
labeled streams take n <= SEMIGROUP_ENUM_BOUND (5), the dimonoid stream
also at most its caller's max_n, and `classify` takes n <=
morphisms.CANONICAL_BOUND (5).
"""

from __future__ import annotations

import json
from functools import lru_cache
from itertools import product
from math import factorial
from typing import Iterator, NamedTuple, Optional, Sequence

from .constructions import CONSTRUCTION_NAMES, ConstructionCase, _normal_form, all_cases
from .dimonoid import (
    AXIOM_BINDINGS,
    DiFlags,
    DiTable,
    _di_flags,
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
    CANONICAL_BOUND,
    Relabeling,
    _symmetric_group,
    automorphisms,
    canonical_key,
    check_morphism,
    matches_symmetric_product,
)
from .tables import (
    OpTable,
    _check_keys,
    assoc_witness,
    check_size,
    dual_table,
    element_roles,
    is_associative,
    rectangular_witness,
    right_commutative_witness,
)

SEMIGROUP_ENUM_BOUND = 5
DIMONOID_ENUM_BOUND = 3
SUITE_BOUND = 6

# associativity as a `_fill` binding: the filled table in all four places
_ASSOCIATIVITY = [(None, None, None, None)]


# ---------------------------------------------------------------------------
# enumeration


class _Conflict(Exception):
    """An instance of a binding fails on the cells set so far."""


def _fill(n: int, bindings: list[tuple], group: Sequence[Relabeling] = ()
          ) -> Iterator[tuple[OpTable, list[Relabeling]]]:
    """Every table t on 0..n-1 with (a q b) p c = a r (b s c) for all a, b, c
    and every binding (p, q, r, s), in lexicographic entry order, each as
    (t, the members of `group` that fix t).  A nonempty `group`, the
    relabelings other than the identity of a group that keeps every binding,
    leaves only the lex leaders among them, the tables no member of the
    group makes lexicographically smaller, one per orbit; the empty group
    leaves every table, each with an empty list.

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
    set and its forced cells propagated.  For each relabeling p in `group` it
    walks the cells in row-major order while both p(t) and t are set there:
    the first cell where they differ decides, and p(t) smaller there cuts the
    branch, since every completion keeps those cells.  The walk is
    incremental: each node keeps the relabelings still tied with the cell
    where each walk stopped, and its children resume from there; one found
    greater is dropped for the whole subtree.  On a full table the walk is
    the whole comparison, so exactly the leaders remain, and the relabelings
    still tied with a leader are its stabilizer in the group, less the
    identity.  It is sound only for a group that maps the tables filled onto
    themselves: S_n for bindings without a fixed table, such as
    associativity, and for the right tables of a left table L0, the
    automorphisms of L0, which fix the one fixed table of the axiom bindings.
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

    def fill(k: int) -> Iterator[tuple[OpTable, list[Relabeling]]]:
        while k < size and e[k] is not None:
            k += 1
        if k == size:
            table = OpTable(n, tuple(e))  # type: ignore[arg-type]
            # a full table is tied only with the members of the group fixing it
            yield table, [tie[3] for tie in ties[-1]]
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

    # the relabelings p of the group still tied with t, one list per
    # depth: each as (its images, for each cell of p(t) the cell of t it
    # reads, the first cell its walk has not passed, p itself)
    cell_ids = tuple(range(size))
    ties = [[(p[0], p[1](cell_ids), 0, p) for p in group]]

    def prune(k: int) -> Iterator[tuple[OpTable, list[Relabeling]]]:
        tied = []
        for tie in ties[-1]:
            img, src, start, p = tie
            j = start
            while j < size:
                t = e[j]
                u = e[src[j]]
                if t is None or u is None:
                    tied.append(tie if j == start else (img, src, j, p))
                    break
                u = img[u]
                if u != t:
                    if u < t:
                        return
                    break  # p(t) is greater in every completion: dropped
                j += 1
            else:
                tied.append((img, src, j, p))  # an automorphism of the full table
        ties.append(tied)
        try:
            yield from fill(k)
        finally:
            ties.pop()

    # the empty group skips the walk and its per-node generator
    descend = prune if group else fill
    yield from fill(0)


@lru_cache(maxsize=8)
def _semigroup_leaders(n: int) -> tuple[tuple[OpTable, tuple[Relabeling, ...]], ...]:
    """The lex leaders of `_fill` under associativity and S_n, in
    lexicographic entry order: the least relabeled table L0 of each semigroup
    class (188 at order 4, 1,915 at order 5), each with Aut(L0) less the
    identity.  Filled once per order and process; callers check n and their
    bound before the first read."""
    fill = _fill(n, _ASSOCIATIVITY, _symmetric_group(n)[1:])
    return tuple((t, tuple(auts)) for t, auts in fill)


def _labeled_semigroups(n: int) -> Iterator[tuple[tuple[int, ...], OpTable, Relabeling]]:
    """Every labeled associative table T on 0..n-1, exactly once, in
    lexicographic entry order, as (T, the lex leader L0 of its class, the
    first relabeling p of _symmetric_group(n) with p(L0) = T).

    Relabeling each lex leader L0 of `_semigroup_leaders` by every member of
    S_n gives every labeled table of its class; the classes' tables are
    disjoint.  All of them are built and sorted before the first yield, each
    as one bytes key: its entries, then the index of (L0, p) among all leader
    and relabeling pairs in decimal, which the sort never reaches since no
    two tables are equal.  At order 5 a key takes about a quarter of the
    memory of an entry tuple; each becomes one as it is yielded.  The keys
    are built again on every call, since at order 5 they take about 14 MB.
    """
    relabelings = _symmetric_group(n)
    leaders = [t for t, _ in _semigroup_leaders(n)]
    fact = len(relabelings)
    made = []
    for i, least in enumerate(leaders):
        source = bytes(least.entries)
        orbit: dict[bytes, int] = {}
        for k, (table, cells) in enumerate(relabelings):
            orbit.setdefault(bytes(cells(source.translate(table))), i * fact + k)
        made += [entries + b"%d" % code for entries, code in orbit.items()]
    made.sort()
    for key in made:
        i, k = divmod(int(key[n * n:]), fact)
        yield tuple(key[:n * n]), leaders[i], relabelings[k]


def enumerate_semigroups(n: int) -> Iterator[OpTable]:
    """All labeled associative tables on 0..n-1, exactly once each, in
    lexicographic entry order: the lex leaders of `_fill` under S_n, one per
    semigroup class, each relabeled by every member of S_n (see
    `_labeled_semigroups`, which the dimonoid stream reads too).

    All labeled tables of order n are held before the first yield: 3,492 at
    n = 4, and 183,732 at n = SEMIGROUP_ENUM_BOUND = 5, the largest order
    taken (order 6 has 17,061,118).  A generator: the size checks run on
    first iteration, before any fill or memo read.
    """
    check_size(n)
    if n > SEMIGROUP_ENUM_BOUND:
        raise BoundExceeded(f"semigroup enumeration limited to n <= {SEMIGROUP_ENUM_BOUND}")
    for entries, _, _ in _labeled_semigroups(n):
        yield OpTable(n, entries)


def _right_tables(left: OpTable, group: Sequence[Relabeling] = ()
                  ) -> Iterator[tuple[OpTable, list[Relabeling]]]:
    """Every right table that makes a dimonoid with the associative table
    `left`, in lexicographic entry order: `_fill` with the five axiom
    bindings of AXIOM_BINDINGS, the left operation read from `left` and the
    right one filled, each with its stabilizer: a `group` of automorphisms
    of `left` goes to `_fill`'s prune, and the empty one prunes nothing.

    Left associativity reads no right cell, so it is not tested.  The first
    axiom (x <| y) <| z = x <| (y |> z) reads one right cell per instance, so
    it limits up front the values each cell may take.
    """
    t = {"l": left.entries, "r": None}
    return _fill(left.n, [(t[p], t[q], t[r], t[s]) for p, q, r, s in AXIOM_BINDINGS],
                 group)


@lru_cache(maxsize=1 << 12)
def _leader_right_tables(least: OpTable) -> tuple[bytes, ...]:
    """The right tables of the lex leader `least`, unpruned, in lexicographic
    entry order, each as the bytes of its entries: filled once per leader and
    process for the dimonoid stream (1,000 over the 188 leaders of order 4,
    71,623 over the 1,915 of order 5, which the bound keeps whole)."""
    return tuple(bytes(r.entries) for r, _ in _right_tables(least))


def enumerate_dimonoids_backtracking(n: int, max_n: int = DIMONOID_ENUM_BOUND
                                     ) -> Iterator[DiTable]:
    """All labeled dimonoids of order n, each labeled semigroup on the left
    with its right tables in lexicographic entry order: exactly the sequence
    of the pair filter in tests/reference.py.

    The labeled left tables T come from `_labeled_semigroups`, as
    `enumerate_semigroups` does, without calling it: each with the lex leader
    L0 of its class and the first relabeling p of S_n with p(L0) = T, all
    built before the first yield.

    A relabeling p is an isomorphism from (L0, R) to (p(L0), p(R)), so the
    right tables of T are those of L0 relabeled by p.  They are filled (see
    `_right_tables`) once per class, for L0, and sorted for each T; any p with
    p(L0) = T gives the same sorted tables, since Aut(L0) maps the right
    tables of L0 onto themselves.  The right tables of each L0 are kept for
    the process (`_leader_right_tables`), so a second stream of the same
    order fills none.

    The left tables are the labeled semigroups, so n is refused above
    SEMIGROUP_ENUM_BOUND whatever max_n allows.  A generator: the size
    checks run on first iteration, before any fill or memo read.
    """
    check_size(n)
    bound = min(max_n, SEMIGROUP_ENUM_BOUND)
    if n > bound:
        raise BoundExceeded(f"dimonoid enumeration limited to n <= {bound}")
    for entries, least, (table, cells) in _labeled_semigroups(n):
        left = OpTable(n, entries)
        # built in one batch, so that each later next() costs only a pair()
        images = sorted(cells(r.translate(table)) for r in _leader_right_tables(least))
        for right in [OpTable(n, r) for r in images]:
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
        counts = ("halo_size", "aut_order", "labeled_count", "dual_class")
        _check_keys(doc, ("canonical", "flags") + counts)
        for name in counts:
            if type(doc[name]) is not int:
                raise FormatError(f"{name!r} must be a JSON integer, got {doc[name]!r}")
        return cls(DiTable.from_json(doc["canonical"]), DiFlags.from_json(doc["flags"]),
                   *(doc[name] for name in counts))


QUOTIENTS = ("iso", "iso_and_duality")


@lru_cache(maxsize=8)
def _iso_catalog(n: int) -> tuple[CatalogEntry, ...]:
    """`classify`'s catalog of order n under the iso quotient, built once per
    order and process (734 classes at order 4, 55,883 at order 5); callers
    check n and their bound before the first read.  The dimonoid stream
    never reads it, nor this the stream's `_leader_right_tables`, so the two
    stay independent routes.

    Every class has a member whose left table is the canonical (least
    relabeled) left table of its semigroup class: relabel any member by a
    permutation that minimizes its left table.  Those tables are the lex
    leaders that `_fill` yields under associativity with its leader prune,
    one per semigroup class, so the class keys are the canonical keys of the
    dimonoids over the leaders, and no other labeled table is visited.

    The same pass keys and counts each class.  The leader fill hands out
    Aut(L0) with each L0, and the right fill of L0 prunes under it, so each
    right table R it yields is the least of its Aut(L0)-orbit: the
    relabelings that make L0 least are exactly its automorphisms, so (L0, R)
    is the key canonical_key gives.  The ties the prune carries to R are
    Aut(L0, R) less the identity, which gives aut_order, and labeled_count is
    n!/aut_order by orbit-stabilizer; no automorphism search runs (the tests
    reconcile both against direct counting and the search), and
    canonical_key runs once per class, for its dual.  The keys arrive in lex
    order, leaders first, then each leader's right tables, so the entries
    are sorted by their canonical tables.

    The representatives carry an all-ok axiom report instead of rebuilding
    one for di_flags and halo: L0 was filled against associativity, each R
    against the other four axioms, and relabeling preserves both.
    """
    fact = factorial(n)
    found = []  # (the dimonoid (L0, R), |Aut(L0, R)|, whether L0 is rectangular)
    for left, auts in _semigroup_leaders(n):
        rectangular = rectangular_witness(left) is None
        for right, stab in _right_tables(left, auts):
            found.append((_known_dimonoid(left, right), len(stab) + 1, rectangular))
    index = {(d.left.entries, d.right.entries): i for i, (d, _, _) in enumerate(found)}
    entries = []
    for d, order, rectangular in found:
        dual = dual_dimonoid(d)  # built once, for the dual class and the flags
        entries.append(CatalogEntry(d, _di_flags(d, dual, rectangular), len(halo(d)),
                                    order, fact // order, index[canonical_key(dual)]))
    return tuple(entries)


def classify(n: int, quotient: str = "iso", workers: int = 1) -> list[CatalogEntry]:
    """Classify all labeled dimonoids of order n up to isomorphism, or up to
    isomorphism-or-duality, as a new list on each call.  `workers` is
    ignored; it is kept so that positional callers still work.

    The iso catalog depends only on n, so it is built once per order and
    process (`_iso_catalog`, which says how): a later call, under either
    quotient, fills no table and keys no class.  canonical_key takes orders
    up to CANONICAL_BOUND (5: 55,883 classes, a few seconds cold), so a
    larger n is refused before any fill or memo read.

    Entries are sorted by their canonical tables.  Under the iso_and_duality
    quotient, built from the iso catalog on each call, each nonabelian class
    is merged with its dual class and every entry is its own dual class.
    """
    if quotient not in QUOTIENTS:
        raise ValueError(f"quotient must be one of {QUOTIENTS}")
    check_size(n)
    if n > CANONICAL_BOUND:
        raise BoundExceeded(f"classification limited to n <= {CANONICAL_BOUND}")
    entries = _iso_catalog(n)
    if quotient == "iso":
        return list(entries)
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


_FLAG_TYPES = (bool,) * len(DiFlags._fields)


@lru_cache(maxsize=8)
def _line_template(n: int) -> tuple[str, tuple[type, ...], dict[tuple[bool, ...], str]]:
    """The catalog line of an order-n entry as a %-template, keys sorted,
    with the type each of its values must have, and the text of its "flags"
    object for each value of DiFlags.  The values are, in the line's order:
    aut_order, the n*n cells of the left table, n, the n*n cells of the
    right table, dual_class, the flags text, halo_size and labeled_count."""
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise FormatError(f"the order of a catalog entry must be a positive int, got {n!r}")
    rows = "[" + ",".join(["[" + ",".join(["%d"] * n) + "]"] * n) + "]"
    template = ('{"aut_order":%d,"canonical":{"left":' + rows + ',"n":%d,"right":' + rows
                + '},"dual_class":%d,"flags":%s,"halo_size":%d,"labeled_count":%d}\n')
    flags_json = {
        flags: "{" + ",".join(f'"{name}":{"true" if value else "false"}'
                              for name, value in sorted(zip(DiFlags._fields, flags))) + "}"
        for flags in product((False, True), repeat=len(DiFlags._fields))
    }
    return template, (int,) * (2 * n * n + 3) + (str, int, int), flags_json


def _check_line(values: tuple, types: tuple, flags) -> None:
    """Raise FormatError for the values of a catalog line that `dumps_catalog`
    cannot write as json.dumps would.  An int subclass other than bool
    passes where an int belongs: %d writes it as JSON does."""
    if tuple(map(type, flags)) != _FLAG_TYPES:
        raise FormatError(f"catalog flags must be booleans, got {tuple(flags)!r}")
    for value, kind in zip(values, types):
        if kind is int and (not isinstance(value, int) or isinstance(value, bool)):
            raise FormatError(f"a catalog entry holds {value!r} where an integer belongs")


def dumps_catalog(entries: list[CatalogEntry]) -> str:
    """Line-delimited JSON, one class per line, byte-stable: each line is
    json.dumps(entry.to_json(), sort_keys=True, separators=(",", ":")) and a
    newline, byte for byte, rendered by %-formatting the template of its
    order (`_line_template`) with the entry's values, so no document is
    built and no encoder runs per entry.

    What the template cannot write as json.dumps does is refused with
    FormatError, and no text is returned: a count, a cell or n that is not
    an int (a bool is not one), a flag that is not a bool, and a right
    table of another order or a table without n*n cells.  tests/reference.py
    keeps the json.dumps route, and the tests compare the two line by line.
    """
    lines = []
    # CatalogEntry and OpTable unpack in their field order
    for canonical, flags, halo_size, aut_order, labeled_count, dual_class in entries:
        n, left = canonical.left
        right_n, right = canonical.right
        if right_n != n or len(left) != n * n or len(right) != n * n:
            raise FormatError(f"the tables of an order-{n!r} catalog entry "
                              f"need {n!r} x {n!r} cells each")
        template, types, flags_json = _line_template(n)
        values = (aut_order, *left, n, *right, dual_class, flags_json.get(flags),
                  halo_size, labeled_count)
        if tuple(map(type, values)) != types or tuple(map(type, flags)) != _FLAG_TYPES:
            _check_line(values, types, flags)
        lines.append(template % values)
    return "".join(lines)


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
    # "\n" line ends on every platform, so the file has dumps_catalog's bytes
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
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


def _case_verdicts(case_list: list[ConstructionCase]) -> list[Optional[str]]:
    """check_construction_case of each case, with one full check per
    normal form that passed.

    A case C whose normal form (constructions._normal_form) is that of a
    case R that passed its full check takes None: sigma = tau_C^-1 . tau_R
    is an isomorphism from R onto C, so C is a dimonoid, halo(C) =
    sigma(halo(R)), Aut(C) = sigma Aut(R) sigma^-1 and the flags of C are
    those of R, and C passes too.  Any other case is checked in full, and
    its form joins the passed ones only if it passes.  A failing case adds
    no form, so every case sharing it is checked in full until one passes,
    and the verdicts equal the per-case ones.  The forms live for one call."""
    passed: set[tuple] = set()
    verdicts = []
    for case in case_list:
        form = _normal_form(case)
        if form in passed:
            msg = None
        elif (msg := check_construction_case(case)) is None:
            passed.add(form)
        verdicts.append(msg)
    return verdicts


def run_theorem_suite(n_max: int) -> SuiteReport:
    """Re-verify, by exhaustive sweep, every structural claim this package is
    built on: associativity of the families, right commutativity where stated,
    the axioms/halos/automorphism groups/flags of the named constructions, the
    duality propositions over the complete order <= 3 catalog, the three
    pairing criteria, and the flipped-pair counterexample.

    Every claim about a construction case is invariant under relabeling: the
    axioms, the halo as a set, the automorphism group as a product of
    symmetric groups on named points, and the abelian, commutative and
    rectangular flags.  So the cases whose parameters differ by a
    permutation of D make one claim, moved along it.  The construction
    sweep moves each case onto its normal form: its tables, asserted halo
    and shape relabeled by the permutation that sends its parameters to one
    chosen choice of their orbit, and its asserted flags.  A case takes the
    verdict None when a case with its normal form has passed a full check,
    which is then a proof for it; any other case is checked in full, so the
    failures are those of a per-case sweep (see _case_verdicts).  The
    pairing criteria are decided the same way, on one semigroup per class.

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

    # the nine constructions, one full check per passing normal form
    for name in CONSTRUCTION_NAMES:
        case_list = list(all_cases(n_max, (name,)))
        failures = [msg for msg in _case_verdicts(case_list) if msg is not None]
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
    """The three pairing criteria, each decided on the lex leaders, one
    semigroup per class.  Each statement about t holds for every relabeling
    of t once it holds for t: the left-zero table is fixed by every
    relabeling, the dual commutes with relabeling, and relabeling permutes
    the null tables among themselves, each of which is tried.  The records
    claim every labeled semigroup, so their texts and digests stay."""
    rc_failures = []
    lrec_failures = []
    lnull_failures = []
    for k in range(1, k_max + 1):
        lo_table, nulls = left_zero_sg(k), [null_sg(k, z) for z in range(k)]
        for t, _ in _semigroup_leaders(k):
            rc = right_commutative_witness(t) is None
            if axioms_ok(t, dual_table(t)) != rc:
                rc_failures.append(f"n={k} table {t.rows()}: pairs-with-dual != {rc}")
            rect = rectangular_witness(t) is None
            if axioms_ok(lo_table, t) != rect:
                lrec_failures.append(f"n={k} table {t.rows()}: left-zero pairing != {rect}")
            e = t.entries
            left_zeros = element_roles(t).left_zeros
            for z, null in enumerate(nulls):
                # x*y*w = x*z is associativity with the null table in the s place
                cond = z in left_zeros and assoc_witness(e, e, e, null.entries, k) is None
                if axioms_ok(t, null) != cond:
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
