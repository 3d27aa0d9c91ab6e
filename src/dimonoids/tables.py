"""Finite binary operations as Cayley tables, plus the single-operation
predicates and element roles everything else is built on.

Elements are the indices 0..n-1.  A table stores its entries row-major, so
``entries[x * n + y]`` is x * y with x the left operand.  All values are
immutable after construction and every function here is pure, so a table can
be shared freely, for example as a cache key or a fixed place of an identity.

The identity checks (associativity, the three pairing axioms, rectangularity,
right commutativity) compare the two sides of an identity over its n**3
triples in scan order, a tile of whole n x n blocks at a time: a table of up
to 40 elements in one tile, a larger one in tiles of at most 2**16 cells, or
one block when a block is larger.  Each side of a tile is built as one
encoded string by C-level joins and translates, so Python makes O(n**2)
steps, not n**3, and holds O(n**2) cells.  One comparison decides a tile;
the first differing cell of a failing tile is its first violating triple,
the witness a cell-by-cell scan returns.  Cells are bytes up to 256 elements
and chr codes in a str above, where bytes cannot hold them.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, compress
from typing import NamedTuple, Optional, Sequence

from .errors import EmptyCarrier, FormatError, IndexOutOfRange, SizeMismatch

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
        _check_keys(doc, ("n", "table"))
        n = doc["n"]
        rows = doc["table"]
        if not isinstance(n, int) or isinstance(n, bool) or not isinstance(rows, list):
            raise SizeMismatch("'n' must be an int and 'table' a list of rows")
        if len(rows) != n or any(not isinstance(r, list) or len(r) != n for r in rows):
            raise SizeMismatch(f"expected {n} rows of length {n}")
        return make_table(n, [v for row in rows for v in row])


def _check_keys(doc: dict, known: Sequence[str]) -> None:
    """Reject a JSON document holding a key its reader does not know, which
    would otherwise be dropped unread.  Every caller refuses a document that
    lacks one of `known`, so a document holds an unknown key exactly when it
    holds more keys than `known` (one length test on a catalog load's hot
    path, five per line)."""
    if len(doc) > len(known):
        raise FormatError(f"unknown keys {sorted(set(doc).difference(known), key=str)}")


def check_size(n: int) -> None:
    """Reject a carrier size that is not a positive int (a bool is not one)."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise SizeMismatch(f"carrier size must be an int, got {n!r}")
    if n <= 0:
        raise EmptyCarrier("carrier size must be at least 1")


def _check_index(v: int, n: int, what: str) -> None:
    """Reject an element of 0..n-1 that is out of range or not an int (a bool
    is not one)."""
    if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n:
        raise IndexOutOfRange(f"{what} {v!r} outside 0..{n - 1}")


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
        _check_index(v, n, "entry")
    return OpTable(n, ent)


def from_rows(rows: Sequence[Sequence[int]]) -> OpTable:
    """Build a validated table from a square list of rows."""
    return make_table(len(rows), [v for row in rows for v in row])


# A sweep reads the same few tables again and again (an axiom report reads
# two tables five times), so the last 64 are kept, keyed by their entries.
# The kernels compare the two sides of an identity one tile of whole n x n
# blocks of the scan at a time, a tile holding at most 2**16 cells where n**2
# allows: a small table is compared whole, a large one block by block, so
# memory stays O(n**2) and a failure stops at its first failing block
@lru_cache(maxsize=64)
def _prepared(t: Sequence[int], n: int) -> tuple:
    """The table with entry tuple t encoded one character a cell, with its
    rows, which the left side of an identity gathers, and its tiles: for
    each, its first x and one translate table per row x, which maps a table
    through that row.  bytes.translate takes a 256-entry table, so a bytes
    row is padded to 256 with its first cell; a str row is one as it is.
    Shared by every caller: read only."""
    enc = bytes(t) if n <= 256 else "".join(map(chr, t))
    rows, k = [enc[i:i + n] for i in range(0, n * n, n)], (1 << 16) // (n * n) or 1
    return enc, rows, [(x, [r.ljust(256, r[:1]) for r in rows[x:x + k]]) for x in range(0, n, k)]


def _first_mismatch(left, right, n: int, x: int) -> Witness:
    """The triple of the first cell where two unequal scan-order tiles of
    triples, the first of them (x, 0, 0), differ."""
    i = 0
    # every cell before i matches: skip n cells at once while they all match
    while left[i] == right[i]:
        i += n if left[i:i + n] == right[i:i + n] else 1
    return (x + i // (n * n), i // n % n, i % n)


def assoc_witness(p: Sequence[int], q: Sequence[int], r: Sequence[int],
                  s: Sequence[int], n: int) -> Optional[Witness]:
    """None when (x q y) p z = x r (y s z) holds for every triple of row-major
    entry tuples on 0..n-1, else the first violating (x, y, z) in scan order x,
    then y, then z.  Associativity binds one table to all four places; the
    dimonoid axioms bind the two operations of a pair.

    Both sides are built a tile at a time, in scan order, as encoded strings:
    the left side, (x q y) p z, joins row x q y of p for each cell of row x
    of q, and the right side, x r (y s z), joins s translated through row x
    of r, for each x of the tile.  Equal tiles pass; otherwise the first cell
    where they differ is the witness, the same first violating triple, in
    the same scan order, as a cell-by-cell loop finds.  Python makes
    O(n**2) steps, not n**3."""
    rows, tiles, s = _prepared(p, n)[1], _prepared(r, n)[2], _prepared(s, n)[0]
    for x, maps in tiles:
        left = s[:0].join([rows[a] for a in q[x * n:(x + len(maps)) * n]])
        if left != (right := s[:0].join(map(s.translate, maps))):
            return _first_mismatch(left, right, n, x)
    return None


def is_associative(t: OpTable) -> Optional[Witness]:
    """Return None when (x*y)*z = x*(y*z) holds for every triple, else the
    lexicographically first violating (x, y, z) in scan order x, then y, then z."""
    e = t.entries
    return assoc_witness(e, e, e, e, t.n)


def right_commutative_witness(t: OpTable) -> Optional[Witness]:
    """None when s*x*y = s*y*x (left-to-right bracketing) for every triple,
    else the first violating (s, x, y) in scan order s, then x, then y."""
    n, nn, e = t.n, t.n * t.n, t.entries
    enc, rows, tiles = _prepared(e, n)
    for s, maps in tiles:
        # s*x*y is the left side of associativity; s*y*x is the same tile
        # with each n x n block transposed
        left = enc[:0].join([rows[a] for a in e[s * n:(s + len(maps)) * n]])
        if left != (right := enc[:0].join([left[i + x:i + nn:n] for i in range(0, len(left), nn)
                                           for x in range(n)])):
            return _first_mismatch(left, right, n, s)
    return None


def rectangular_witness(t: OpTable) -> Optional[Witness]:
    """None when x*y*z = x*z (left-to-right bracketing) for every triple,
    else the first violating (x, y, z) in scan order x, then y, then z."""
    n, e = t.n, t.entries
    # y * z = z is the right-zero table in the s place of associativity
    return assoc_witness(e, e, e, tuple(range(n)) * n, n)


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
