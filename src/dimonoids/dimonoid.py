"""Pairs of Cayley tables as dimonoid candidates.

A dimonoid is a carrier with two associative operations (written <| and |>
here) tied together by three axioms:

    (x <| y) <| z = x <| (y |> z)          (inner/outer left)
    (x |> y) <| z = x |> (y <| z)          (mixed)
    (x <| y) |> z = x |> (y |> z)          (inner/outer right)

`pair` never rejects a failing pair: the axiom report is data, so enumerators
can count failures and counterexamples are first-class test objects.  The
predicate functions (`di_flags`, `halo`) refuse to run on pairs whose report
has failures, to keep classification meaningful.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple, Optional, Union

from .errors import (
    EmptySubset,
    FormatError,
    NotADimonoid,
    NotAssociative,
    NotRightCommutative,
    SizeMismatch,
)
from .tables import (
    OpTable,
    Witness,
    _check_index,
    _check_keys,
    adjoin_zero,
    assoc_witness,
    dual_table,
    element_roles,
    is_associative,
    rectangular_witness,
    right_commutative_witness,
)

# The five axioms in the field order of AxiomReport, as the places
# (p, q, r, s) of the identity (x q y) p z = x r (y s z) of
# tables.assoc_witness: "l" is <| and "r" is |>.  The axiom report and the
# right-table enumerator both read it.
AXIOM_BINDINGS = ("llll", "rrrr", "lllr", "lrrl", "rlrr")


class AxiomReport(NamedTuple):
    """Per-axiom outcome: None means the axiom holds; otherwise the first
    violating triple in scan order x, then y, then z."""

    assoc_left: Optional[Witness]
    assoc_right: Optional[Witness]
    d1: Optional[Witness]
    d2: Optional[Witness]
    d3: Optional[Witness]

    @property
    def all_ok(self) -> bool:
        return all(w is None for w in self)

    def failures(self) -> dict[str, Witness]:
        """Every failing axiom with its witness."""
        return {name: w for name, w in self._asdict().items() if w is not None}

    def to_json(self) -> dict:
        return {name: "ok" if w is None else {"witness": list(w)}
                for name, w in self._asdict().items()}


def _axiom_witnesses(left: OpTable, right: OpTable) -> Iterator[Optional[Witness]]:
    """The five axiom witnesses, each computed on demand: the three pairing
    axioms first, then the two associativities.  The enumerators pair
    semigroups, whose associativities hold, so a failing pair fails on one
    of the first three.  When the two tables are one, as for a bare table
    read as the trivial dimonoid, all five bindings read the same identity,
    so its one witness is computed once and given for each."""
    if left.entries == right.entries:
        e = left.entries
        yield from (assoc_witness(e, e, e, e, left.n),) * len(AXIOM_BINDINGS)
        return
    t = {"l": left.entries, "r": right.entries}
    for p, q, r, s in AXIOM_BINDINGS[2:] + AXIOM_BINDINGS[:2]:
        yield assoc_witness(t[p], t[q], t[r], t[s], left.n)


def _axiom_report(left: OpTable, right: OpTable) -> AxiomReport:
    d1, d2, d3, *associativities = _axiom_witnesses(left, right)
    return AxiomReport(*associativities, d1, d2, d3)


def axioms_ok(left: OpTable, right: OpTable) -> bool:
    """Fast all-or-nothing axiom check used by the enumerators; equivalent to
    building the full report and asking all_ok, but stops at the first
    failing axiom (a witness is a nonempty tuple, so any() stops there)."""
    return not any(_axiom_witnesses(left, right))


# DiTable writes its slots past its own __setattr__; the labeled stream
# builds one DiTable per dimonoid, so the lookup is bound once
_set = object.__setattr__


class DiTable:
    """An ordered pair of same-size tables (left operation, right operation)
    with its axiom report.  The report is derived data: it is computed on
    first access and cached, and equality and hashing ignore it.  The fields
    are read-only; assigning to one raises AttributeError."""

    __slots__ = ("left", "right", "_report")

    def __init__(self, left: OpTable, right: OpTable) -> None:
        _set(self, "left", left)
        _set(self, "right", right)
        _set(self, "_report", None)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other) -> bool:
        if other.__class__ is not DiTable:
            return NotImplemented
        return self.left == other.left and self.right == other.right

    def __hash__(self) -> int:
        return hash((self.left, self.right))

    def __repr__(self) -> str:
        return f"DiTable(left={self.left!r}, right={self.right!r})"

    def __reduce__(self):
        # rebuild through __init__: the default slot restore assigns fields
        return DiTable, (self.left, self.right)

    @property
    def n(self) -> int:
        return self.left.n

    @property
    def axiom_status(self) -> AxiomReport:
        report = self._report
        if report is None:
            report = _axiom_report(self.left, self.right)
            _set(self, "_report", report)
        return report

    @property
    def is_dimonoid(self) -> bool:
        return self.axiom_status.all_ok

    def to_json(self) -> dict:
        return {"n": self.n, "left": self.left.rows(), "right": self.right.rows()}

    @classmethod
    def from_json(cls, doc: dict) -> "DiTable":
        if not isinstance(doc, dict) or not {"n", "left", "right"} <= set(doc):
            raise SizeMismatch("dimonoid document needs 'n', 'left' and 'right' keys")
        _check_keys(doc, ("n", "left", "right"))
        left = OpTable.from_json({"n": doc["n"], "table": doc["left"]})
        right = OpTable.from_json({"n": doc["n"], "table": doc["right"]})
        return pair(left, right)


def pair(left: OpTable, right: OpTable) -> DiTable:
    """Pair two tables.  Non-dimonoids are not rejected; inspect
    ``DiTable.is_dimonoid`` or the axiom report, computed on first access."""
    if left.n != right.n:
        raise SizeMismatch(f"carrier sizes differ: {left.n} vs {right.n}")
    return DiTable(left, right)


_ALL_OK = AxiomReport(None, None, None, None, None)


def _known_dimonoid(left: OpTable, right: OpTable) -> DiTable:
    """Pair two same-size tables already known to satisfy every axiom, with
    the all-ok report preset instead of recomputed: a left table filled
    against associativity and a right table filled against the other four
    bindings, or a relabeling of such a pair, which preserves both."""
    d = DiTable(left, right)
    _set(d, "_report", _ALL_OK)
    return d


def as_ditable(s: Union[OpTable, DiTable]) -> DiTable:
    """Wrap a bare table as the trivial dimonoid; pass dimonoids through."""
    return s if isinstance(s, DiTable) else pair(s, s)


def check_axioms(d: DiTable) -> AxiomReport:
    """Recompute the axiom report from the tables."""
    return _axiom_report(d.left, d.right)


def dual_dimonoid(d: DiTable) -> DiTable:
    """Swap-and-transpose duality: the new left operation is x, y -> y |> x and
    the new right operation is x, y -> y <| x.  Involutive, and the result is
    a dimonoid exactly when the input is."""
    return pair(dual_table(d.right), dual_table(d.left))


def naive_flip(d: DiTable) -> DiTable:
    """Transpose both tables independently.  Unlike dual_dimonoid this does
    not generally preserve the axioms; see the flipped left/right-zero pair,
    which fails the first axiom."""
    return pair(dual_table(d.left), dual_table(d.right))


class DiFlags(NamedTuple):
    """Predicate flags of a verified dimonoid.

    trivial: the two operations coincide.
    commutative: both operations are commutative.
    abelian: x <| y = y |> x everywhere (equivalently the right table is the
        dual of the left one, equivalently the dimonoid is self-dual).
    self_dual: equal to its dual as a labeled structure.
    rectangular: both operations satisfy x*y*z = x*z.
    """

    trivial: bool
    commutative: bool
    abelian: bool
    self_dual: bool
    rectangular: bool

    def to_json(self) -> dict:
        return self._asdict()

    @classmethod
    def from_json(cls, doc: dict) -> "DiFlags":
        _check_keys(doc, cls._fields)
        for name in cls._fields:
            if not isinstance(doc[name], bool):
                raise FormatError(f"flag {name!r} must be a JSON boolean, got {doc[name]!r}")
        return cls._make(doc[name] for name in cls._fields)


def _require_dimonoid(d: DiTable) -> None:
    if not d.is_dimonoid:
        raise NotADimonoid(f"axioms fail: {d.axiom_status.failures()}")


def di_flags(d: DiTable) -> DiFlags:
    """Compute the predicate flags of a verified dimonoid by exhaustive check.

    abelian and self_dual are computed independently (pointwise identity vs.
    comparison with the constructed dual); they must agree on dimonoids, and
    the test suite asserts that they do.
    """
    _require_dimonoid(d)
    return _di_flags(d, dual_dimonoid(d), rectangular_witness(d.left) is None)


def _di_flags(d: DiTable, dual: DiTable, left_rectangular: bool) -> DiFlags:
    """di_flags of the dimonoid d, given its dual and whether its left table
    is rectangular, for callers that know them already."""
    n, le, re_ = d.n, d.left.entries, d.right.entries
    rng = range(n)
    abelian = all(le[x * n + y] == re_[y * n + x] for x in rng for y in rng)
    return DiFlags(
        trivial=d.left == d.right,
        # each table equals its transpose; the dual holds both transposes, swapped
        commutative=dual.left == d.right and dual.right == d.left,
        abelian=abelian,
        self_dual=dual.left == d.left and dual.right == d.right,
        rectangular=left_rectangular and rectangular_witness(d.right) is None,
    )


def halo(d: DiTable) -> frozenset[int]:
    """The set of bar-units: elements e with e |> x = x and x <| e = x for all
    x.  Nonempty halos are closed under both operations."""
    _require_dimonoid(d)
    n, le, re_ = d.n, d.left.entries, d.right.entries
    rng = range(n)
    return frozenset(
        e for e in rng
        if all(re_[e * n + x] == x for x in rng)
        and all(le[x * n + e] == x for x in rng)
    )


def di_zero(d: DiTable) -> Optional[int]:
    """The element that is a zero of both tables, if one exists."""
    zl = element_roles(d.left).zero
    if zl is None:
        return None
    zr = element_roles(d.right).zero
    return zl if zl == zr else None


def adjoin_zero_di(d: DiTable) -> DiTable:
    """Adjoin one fresh element absorbing under both operations, at index n.
    Preserves the axioms, the halo, and the automorphism group."""
    return pair(adjoin_zero(d.left), adjoin_zero(d.right))


def is_subdimonoid(d: DiTable, B: Iterable[int]) -> bool:
    """True when the nonempty subset B is closed under both operations."""
    sub = frozenset(B)
    if not sub:
        raise EmptySubset("subdimonoid candidates must be nonempty")
    n, le, re_ = d.n, d.left.entries, d.right.entries
    for v in sub:
        _check_index(v, n, "element")
    return all(le[a * n + b] in sub and re_[a * n + b] in sub
               for a in sub for b in sub)


def from_right_commutative(t: OpTable, strict: bool = False) -> DiTable:
    """Pair an associative table with its dual.

    The result satisfies the dimonoid axioms exactly when t is right
    commutative, and is then abelian.  With strict=True a table that is not
    right commutative is rejected instead of returned with a failing report.
    """
    w = is_associative(t)
    if w is not None:
        raise NotAssociative(f"not associative, witness {w}")
    if strict and (w := right_commutative_witness(t)) is not None:
        raise NotRightCommutative(f"witness {w}")
    return pair(t, dual_table(t))
