"""Constructors for the named semigroup families.

Left-handed forms are built directly from their case-split definitions.  Each
family is one row of a private table: its left-handed constructor, the
parameters that takes, whether the family is the dual of that table, how far
its carrier exceeds n, and its valid parameter choices at n.  `build`,
`family_sweep` and `FAMILIES` all read that table, and every right-handed
family (RO, RO_tilde0, ROB, RO_arrow) is the row of its left-handed twin
marked dual, so `build` makes it with `dual_table` and the two can never
drift apart.  `right_zero_sg` stays as a direct constructor for callers.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from .errors import (
    ANotContainingA,
    BadFamilyParams,
    BoundExceeded,
    CarrierTooSmall,
    EmptyA,
    EqualDistinguished,
    SizeMismatch,
    ZeroInA,
)
from .tables import OpTable, _check_index, adjoin_zero, check_size, dual_table

# The largest carrier `build` constructs: a table holds carrier^2 entries, so
# a larger request is refused before anything is allocated.
BUILD_BOUND = 256


def null_sg(n: int, zero: int) -> OpTable:
    """x*y = zero for all x, y."""
    check_size(n)
    _check_index(zero, n, "zero")
    return OpTable(n, (zero,) * (n * n))


def o_with_fixed(n: int, zero: int, A: Iterable[int]) -> OpTable:
    """x*y = x when y = x is in A, otherwise zero.

    Commutative with zero `zero`; a semilattice when A is everything but the
    zero, and the plain null table when A is empty.
    """
    check_size(n)
    _check_index(zero, n, "zero")
    fixed = frozenset(A)
    for v in fixed:
        _check_index(v, n, "A element")
    if zero in fixed:
        raise ZeroInA(f"zero {zero} may not be a fixed point")
    ent = [zero] * (n * n)
    for x in fixed:
        ent[x * n + x] = x
    return OpTable(n, tuple(ent))


def left_zero_sg(n: int) -> OpTable:
    """x*y = x."""
    check_size(n)
    return OpTable(n, tuple(x for x in range(n) for _ in range(n)))


def right_zero_sg(n: int) -> OpTable:
    """x*y = y; the dual of the left-zero table."""
    check_size(n)
    return OpTable(n, tuple(y for _ in range(n) for y in range(n)))


def lo_tilde0(n: int, A: Iterable[int]) -> OpTable:
    """Partial left-zero table with an adjoined zero.

    `n` is the size of the base set; the carrier is 0..n with the zero at
    index n, and x*y = x when y is in A (a subset of 0..n-1), else the zero.
    With A = 0..n-1 this coincides with adjoin_zero(left_zero_sg(n)); with
    A empty it is the null table on n+1 elements.
    """
    check_size(n)
    sel = frozenset(A)
    for v in sel:
        _check_index(v, n, "A element")
    m = n + 1
    ent = [n] * (m * m)
    for x in range(m):
        xm = x * m
        for y in sel:
            ent[xm + y] = x
    return OpTable(m, tuple(ent))


def lob(n: int, a: int, c: int) -> OpTable:
    """Left-zero band with distinguished pair (a, c): a*a = a, a*y = c for
    y != a, and x*y = x for x != a.  All choices of (a, c) give isomorphic
    tables."""
    # a parameter that is not an int is left to _check_index, as a bad index
    if type(a) is int and type(c) is int and a == c:
        raise EqualDistinguished("a and c must be distinct elements")
    check_size(n)
    if n < 2:
        raise CarrierTooSmall("left-zero band needs at least 2 elements")
    _check_index(a, n, "a")
    _check_index(c, n, "c")
    ent = [0] * (n * n)
    for x in range(n):
        xn = x * n
        if x == a:
            for y in range(n):
                ent[xn + y] = a if y == a else c
        else:
            for y in range(n):
                ent[xn + y] = x
    return OpTable(n, tuple(ent))


def lo_arrow(n: int, A: Iterable[int], a: int) -> OpTable:
    """Partial left-zero table anchored at a: x*y = x for x in A and = a for x
    outside A.  Coincides with the null table (zero a) when A = {a} and with
    the left-zero table when A is everything."""
    check_size(n)
    sel = frozenset(A)
    if not sel:
        raise EmptyA("A must be nonempty")
    for v in sel:
        _check_index(v, n, "A element")
    # True equals 1 and a list cannot be hashed, so test the type before `in`
    if not isinstance(a, int) or isinstance(a, bool) or a not in sel:
        raise ANotContainingA(f"a={a!r} must lie in A")
    ent = [a] * (n * n)
    for x in sel:
        ent[x * n:(x + 1) * n] = [x] * n
    return OpTable(n, tuple(ent))


def plus_zero_lo(n: int) -> OpTable:
    """Left-zero table with a fresh zero adjoined at index n."""
    return adjoin_zero(left_zero_sg(n))


class FamilyParams(NamedTuple):
    """Parameter record for :func:`build`; fields must be present exactly when
    the family uses them."""

    family: str
    n: int
    A: Optional[frozenset[int]] = None
    a: Optional[int] = None
    c: Optional[int] = None
    zero: Optional[int] = None

    def to_json(self) -> dict:
        doc: dict = {"family": self.family, "n": self.n}
        if self.A is not None:
            doc["A"] = sorted(self.A)
        if self.a is not None:
            doc["a"] = self.a
        if self.c is not None:
            doc["c"] = self.c
        if self.zero is not None:
            doc["zero"] = self.zero
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "FamilyParams":
        if not isinstance(doc, dict) or "family" not in doc or "n" not in doc:
            raise BadFamilyParams("family document needs 'family' and 'n' keys")
        unknown = set(doc) - {"family", "n", "A", "a", "c", "zero"}
        if unknown:
            raise BadFamilyParams(f"unknown keys {sorted(unknown)}")
        family, A = doc["family"], doc.get("A")
        if not isinstance(family, str):
            raise BadFamilyParams(f"'family' must be a string, got {family!r}")
        if A is not None and (not isinstance(A, list)
                              or any(isinstance(v, (list, dict)) for v in A)):
            raise BadFamilyParams(f"'A' must be a list of indices, got {A!r}")
        return cls(
            family=family,
            n=doc["n"],
            A=None if A is None else frozenset(A),
            a=doc.get("a"),
            c=doc.get("c"),
            zero=doc.get("zero"),
        )


def make_params(family: str, n: int, A: Optional[Iterable[int]] = None,
                a: Optional[int] = None, c: Optional[int] = None,
                zero: Optional[int] = None) -> FamilyParams:
    return FamilyParams(family, n, None if A is None else frozenset(A), a, c, zero)


def subsets(universe: Iterable[int]) -> Iterator[frozenset[int]]:
    """All subsets of a finite index set, in deterministic bitmask order."""
    items = sorted(universe)
    for mask in range(1 << len(items)):
        yield frozenset(items[i] for i in range(len(items)) if mask >> i & 1)


class _Family(NamedTuple):
    make: Callable[..., OpTable]  # the left-handed constructor, called with n first
    params: tuple[str, ...]  # the FamilyParams fields it takes after n, in call order
    dual: bool  # the family is the dual of the constructed table
    extra: int  # carrier size minus n: 1 where a zero is adjoined at index n
    choices: Callable[[int], Iterable[tuple]]  # every valid value tuple at n


def _no_params(n: int) -> list[tuple]:
    return [()]


def _all_subsets(n: int) -> Iterator[tuple]:
    return ((A,) for A in subsets(range(n)))


def _distinct_pairs(n: int) -> Iterator[tuple]:
    return ((a, c) for a in range(n) for c in range(n) if a != c)


def _anchored_subsets(n: int) -> Iterator[tuple]:
    return ((A, a) for A in subsets(range(n)) for a in sorted(A))


_FAMILY_ROWS = {
    "O": _Family(null_sg, ("zero",), False, 0, lambda n: ((z,) for z in range(n))),
    "O_A": _Family(o_with_fixed, ("zero", "A"), False, 0, lambda n: (
        (z, A) for z in range(n) for A in subsets(set(range(n)) - {z}))),
    "LO": _Family(left_zero_sg, (), False, 0, _no_params),
    "RO": _Family(left_zero_sg, (), True, 0, _no_params),
    "LO_tilde0": _Family(lo_tilde0, ("A",), False, 1, _all_subsets),
    "RO_tilde0": _Family(lo_tilde0, ("A",), True, 1, _all_subsets),
    "LOB": _Family(lob, ("a", "c"), False, 0, _distinct_pairs),
    "ROB": _Family(lob, ("a", "c"), True, 0, _distinct_pairs),
    "LO_arrow": _Family(lo_arrow, ("A", "a"), False, 0, _anchored_subsets),
    "RO_arrow": _Family(lo_arrow, ("A", "a"), True, 0, _anchored_subsets),
    "plus_zero": _Family(plus_zero_lo, (), False, 1, _no_params),
}
FAMILIES = tuple(_FAMILY_ROWS)


def build(params: FamilyParams) -> OpTable:
    """Dispatch a parameter record to its family constructor.

    Every table this returns is associative; the test suite verifies that
    exhaustively rather than assuming it.  A carrier above BUILD_BOUND is
    refused with BoundExceeded before any table is built.
    """
    fam = params.family
    row = _FAMILY_ROWS.get(fam)
    if row is None:
        raise BadFamilyParams(f"unknown family {fam!r}; known: {', '.join(FAMILIES)}")
    present = {k for k in ("A", "a", "c", "zero") if getattr(params, k) is not None}
    if present != set(row.params):
        raise BadFamilyParams(
            f"family {fam} takes exactly {sorted(row.params)}, got {sorted(present)}"
        )
    n = params.n
    if isinstance(n, int) and n + row.extra > BUILD_BOUND:
        raise BoundExceeded(f"build limited to carriers of at most {BUILD_BOUND} elements")
    table = row.make(n, *[getattr(params, k) for k in row.params])
    return dual_table(table) if row.dual else table


def family_sweep(n_max: int) -> Iterator[tuple[FamilyParams, OpTable]]:
    """Every valid parameter choice for every family with 1 <= n <= n_max,
    each n in FAMILIES order, built through the dispatcher."""
    if type(n_max) is not int:
        raise SizeMismatch(f"n_max must be an int, got {n_max!r}")
    for n in range(1, n_max + 1):
        for fam, row in _FAMILY_ROWS.items():
            for values in row.choices(n):
                p = FamilyParams(fam, n, **dict(zip(row.params, values)))
                yield p, build(p)
