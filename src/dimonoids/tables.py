"""Finite binary operations as Cayley tables, plus the single-operation
predicates and element roles everything else is built on.

Elements are the indices 0..n-1.  A table stores its entries row-major, so
``entries[x * n + y]`` is x * y with x the left operand.  All values are
immutable after construction and every function here is pure, so a table can
be shared freely, for example as a cache key or a fixed place of an identity.
"""

from __future__ import annotations

from itertools import chain, compress
from typing import NamedTuple, Optional, Sequence

from .errors import EmptyCarrier, IndexOutOfRange, SizeMismatch

Witness = tuple[int, int, int]


class OpTable(NamedTuple):
    """Row-major n x n operation table.  Build through :func:`make_table` (or
    :func:`from_rows`), which validate; the raw constructor is for internal
    hot paths that produce entries already known to be in range."""

    n: int
    entries: tuple[int, ...]

    def entry(self, x: int, y: int) -> int:
        """x * y."""
        return self.entries[x * self.n + y]

    def rows(self) -> list[list[int]]:
        n = self.n
        return [list(self.entries[i * n:(i + 1) * n]) for i in range(n)]

    def to_json(self) -> dict:
        return {"n": self.n, "table": self.rows()}

    @classmethod
    def from_json(cls, doc: dict) -> "OpTable":
        if not isinstance(doc, dict) or "n" not in doc or "table" not in doc:
            raise SizeMismatch("operation-table document needs 'n' and 'table' keys")
        n = doc["n"]
        rows = doc["table"]
        if not isinstance(n, int) or isinstance(n, bool) or not isinstance(rows, list):
            raise SizeMismatch("'n' must be an int and 'table' a list of rows")
        if len(rows) != n or any(not isinstance(r, list) or len(r) != n for r in rows):
            raise SizeMismatch(f"expected {n} rows of length {n}")
        return make_table(n, [v for row in rows for v in row])


def check_size(n: int) -> None:
    """Reject a carrier size that is not a positive int (a bool is not one)."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise SizeMismatch(f"carrier size must be an int, got {n!r}")
    if n <= 0:
        raise EmptyCarrier("carrier size must be at least 1")


def make_table(n: int, entries: Sequence[int]) -> OpTable:
    """Validate and build an OpTable from a row-major entry sequence.

    No algebraic law is assumed; only the shape and the index range are
    checked.
    """
    check_size(n)
    ent = tuple(entries)
    if len(ent) != n * n:
        raise SizeMismatch(f"need {n * n} entries for n={n}, got {len(ent)}")
    for v in ent:
        if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n:
            raise IndexOutOfRange(f"entry {v!r} outside 0..{n - 1}")
    return OpTable(n, ent)


def from_rows(rows: Sequence[Sequence[int]]) -> OpTable:
    """Build a validated table from a square list of rows."""
    return make_table(len(rows), [v for row in rows for v in row])


def assoc_witness(p: Sequence[int], q: Sequence[int], r: Sequence[int],
                  s: Sequence[int], n: int) -> Optional[Witness]:
    """None when (x q y) p z = x r (y s z) holds for every triple of row-major
    entry tuples on 0..n-1, else the first violating (x, y, z) in scan order x,
    then y, then z.  Associativity binds one table to all four places; the
    dimonoid axioms bind the two operations of a pair."""
    rng = range(n)
    for x in rng:
        xn = x * n
        for y in rng:
            xyn = q[xn + y] * n
            yn = y * n
            for z in rng:
                if p[xyn + z] != r[xn + s[yn + z]]:
                    return (x, y, z)
    return None


def is_associative(t: OpTable) -> Optional[Witness]:
    """Return None when (x*y)*z = x*(y*z) holds for every triple, else the
    lexicographically first violating (x, y, z) in scan order x, then y, then z."""
    e = t.entries
    return assoc_witness(e, e, e, e, t.n)


def right_commutative_witness(t: OpTable) -> Optional[Witness]:
    """None when s*x*y = s*y*x (left-to-right bracketing) for every triple,
    else the first violating (s, x, y) in scan order s, then x, then y."""
    n, e = t.n, t.entries
    rng = range(n)
    for s in rng:
        sn = s * n
        for x in rng:
            sxn = e[sn + x] * n
            for y in rng:
                if e[sxn + y] != e[e[sn + y] * n + x]:
                    return (s, x, y)
    return None


def rectangular_witness(t: OpTable) -> Optional[Witness]:
    """None when x*y*z = x*z (left-to-right bracketing) for every triple,
    else the first violating (x, y, z) in scan order x, then y, then z."""
    n, e = t.n, t.entries
    rng = range(n)
    for x in rng:
        xn = x * n
        for y in rng:
            xyn = e[xn + y] * n
            for z in rng:
                if e[xyn + z] != e[xn + z]:
                    return (x, y, z)
    return None


class RoleReport(NamedTuple):
    """Element roles of one table.  The zero is the unique element that is
    both a left and a right zero, when such an element exists."""

    left_zeros: frozenset[int]
    right_zeros: frozenset[int]
    zero: Optional[int]
    left_identities: frozenset[int]
    right_identities: frozenset[int]
    identities: frozenset[int]
    idempotents: frozenset[int]

    def to_json(self) -> dict:
        return {
            "left_zeros": sorted(self.left_zeros),
            "right_zeros": sorted(self.right_zeros),
            "zero": self.zero,
            "left_identities": sorted(self.left_identities),
            "right_identities": sorted(self.right_identities),
            "identities": sorted(self.identities),
            "idempotents": sorted(self.idempotents),
        }


def _role_scan(t: OpTable) -> list[tuple[bool, bool, bool, bool, bool]]:
    """Per element x: whether x is a left zero, a right zero, a left identity,
    a right identity and an idempotent, read off x's row and column.  The one
    reader of element roles; element_roles and the isomorphism search's role
    profiles are built from it."""
    n, e = t.n, t.entries
    identity = tuple(range(n))
    scan = []
    for x in identity:
        constant = (x,) * n
        row, column = e[x * n:(x + 1) * n], e[x::n]
        scan.append((row == constant, column == constant,
                     row == identity, column == identity, row[x] == x))
    return scan


def element_roles(t: OpTable) -> RoleReport:
    """Left/right zeros, left/right identities, two-sided identities, the zero
    if present, and the idempotents of a table."""
    left_zeros, right_zeros, left_ids, right_ids, idempotents = (
        frozenset(compress(range(t.n), flags)) for flags in zip(*_role_scan(t)))
    both = left_zeros & right_zeros
    # an element that is a zero on both sides is unique when it exists
    zero = min(both) if both else None
    return RoleReport(
        left_zeros=left_zeros,
        right_zeros=right_zeros,
        zero=zero,
        left_identities=left_ids,
        right_identities=right_ids,
        identities=left_ids & right_ids,
        idempotents=idempotents,
    )


class ClassFlags(NamedTuple):
    """Which defining identities a single table satisfies.  On non-associative
    tables the three-factor identities are read with left-to-right bracketing."""

    associative: bool
    commutative: bool
    band: bool
    semilattice: bool
    null: bool
    left_zero_sg: bool
    right_zero_sg: bool
    rectangular: bool
    right_commutative: bool

    def to_json(self) -> dict:
        return self._asdict()


def semigroup_class(t: OpTable) -> ClassFlags:
    """Decide every flag by exhaustive quantifier check over the table.

    A band is all idempotents and a left (right) zero semigroup is all left
    (right) zeros, read from element_roles; rectangular means x*y*z = x*z for
    all triples; right commutative means s*x*y = s*y*x for all triples; a
    semilattice is a commutative band; null means every product equals one
    fixed element.
    """
    n = t.n
    roles = element_roles(t)
    commutative = t == dual_table(t)
    band = len(roles.idempotents) == n
    return ClassFlags(
        associative=is_associative(t) is None,
        commutative=commutative,
        band=band,
        semilattice=band and commutative,
        null=len(set(t.entries)) == 1,
        left_zero_sg=len(roles.left_zeros) == n,
        right_zero_sg=len(roles.right_zeros) == n,
        rectangular=rectangular_witness(t) is None,
        right_commutative=right_commutative_witness(t) is None,
    )


def dual_table(t: OpTable) -> OpTable:
    """Same carrier with the arguments swapped: entry(x, y) of the result is
    entry(y, x) of the input.  Involutive."""
    n, e = t.n, t.entries
    # row x of the result is column x of the input
    return OpTable(n, tuple(chain.from_iterable([e[x::n] for x in range(n)])))


def adjoin_zero(t: OpTable) -> OpTable:
    """Extend the table by a fresh absorbing element placed at index n;
    original entries are preserved."""
    n, e = t.n, t.entries
    m = n + 1
    ent = [n] * (m * m)
    for x in range(n):
        ent[x * m:x * m + n] = e[x * n:(x + 1) * n]
    return OpTable(m, tuple(ent))
