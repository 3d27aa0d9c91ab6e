"""The named dimonoid constructions assembled from the semigroup families,
bundled with the halo, automorphism-group shape, and predicate flags they are
supposed to have, so the verification suite and the acceptance tests can sweep
them uniformly.

Each construction is one row of a private table: its public builder, the
parameter names it takes after n, its valid parameter choices at n, and one
function from (n, D, *values) to the five expected fields.  `cases` and
`CONSTRUCTION_NAMES` read that table.  The choices reuse the parameter
generators of `families` (distinct pairs, anchored subsets, all subsets), so
a construction and the families it is built from enumerate their parameters
alike.

Expected fields set to None are not asserted for that parameter choice (the
claim's hypotheses exclude it); the sweep still computes and records the
actual value.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from .dimonoid import DiTable, adjoin_zero_di, pair
from .errors import SizeMismatch
from .families import (
    _all_subsets,
    _anchored_subsets,
    _distinct_pairs,
    _no_params,
    left_zero_sg,
    lo_arrow,
    lo_tilde0,
    lob,
    null_sg,
    o_with_fixed,
    right_zero_sg,
    subsets,
)
from .morphisms import SymmetricProductSpec
from .tables import check_size, dual_table


# the three right commutative families are associative by construction (the
# suite sweeps them), so their pairs skip from_right_commutative's re-check
def lo_arrow_pair(n: int, A, a: int) -> DiTable:
    """Anchored partial left-zero table paired with its dual."""
    return pair(t := lo_arrow(n, A, a), dual_table(t))


def lo_tilde0_pair(n: int, A) -> DiTable:
    """Zero-extended partial left-zero table paired with its dual; carrier n+1."""
    return pair(t := lo_tilde0(n, A), dual_table(t))


def lob_pair(n: int, a: int, c: int) -> DiTable:
    """Left-zero band paired with its dual."""
    return pair(t := lob(n, a, c), dual_table(t))


def lo_ro_plus_zero(n: int) -> DiTable:
    """Left-zero/right-zero pair with one fresh zero adjoined; carrier n+1."""
    return adjoin_zero_di(pair(left_zero_sg(n), right_zero_sg(n)))


def lob_with_fixed_null(n: int, a: int, c: int) -> DiTable:
    """Left-zero band together with the fixed-point-null table whose only
    fixed point is a and whose zero is c."""
    return pair(lob(n, a, c), o_with_fixed(n, c, {a}))


def lo_tilde0_with_fixed_null(n: int, a: int) -> DiTable:
    """Zero-extended partial left-zero table anchored at {a} together with the
    fixed-point-null table fixing a; carrier n+1, adjoined zero at index n."""
    return pair(lo_tilde0(n, {a}), o_with_fixed(n + 1, n, {a}))


def lo_with_lo_arrow(n: int, A, a: int) -> DiTable:
    """Left-zero table with an anchored partial left-zero table."""
    return pair(left_zero_sg(n), lo_arrow(n, A, a))


def lo_with_ro_arrow(n: int, A, a: int) -> DiTable:
    """Left-zero table with the dual of an anchored partial left-zero table."""
    return pair(left_zero_sg(n), dual_table(lo_arrow(n, A, a)))


def lo_arrow_with_null(n: int, A, zero: int) -> DiTable:
    """Anchored partial left-zero table (anchor = zero) with a null table on
    the same zero."""
    return pair(lo_arrow(n, A, zero), null_sg(n, zero))


class ConstructionCase(NamedTuple):
    """One parameter choice of one construction, with its asserted outcomes."""

    name: str
    params: dict
    dimonoid: DiTable
    expected_halo: Optional[frozenset[int]]
    aut_spec: Optional[SymmetricProductSpec]
    expected_abelian: Optional[bool]
    expected_commutative: Optional[bool]
    expected_rectangular: Optional[bool]

    def describe(self) -> str:
        inner = ", ".join(f"{k}={sorted(v) if isinstance(v, frozenset) else v}"
                          for k, v in self.params.items())
        return f"{self.name}({inner})"


class _Construction(NamedTuple):
    build: Callable[..., DiTable]  # the public builder, called with n first
    params: tuple[str, ...]  # its parameters after n, in `params` key order
    choices: Callable[[int], Iterable[tuple]]  # every valid value tuple at n
    # (n, D, *values) -> halo, aut_spec, abelian, commutative, rectangular
    expect: Callable[..., tuple]


def _anchored_spec(D: frozenset[int], A: frozenset[int], a: int) -> SymmetricProductSpec:
    return SymmetricProductSpec.of({a}, [A - {a}, D - A])


def _lo_with_arrow(n: int, D: frozenset[int], A: frozenset[int], a: int,
                   nonab: bool) -> tuple:
    # the halo/automorphism statements assume A proper; the dimonoid itself
    # only needs A nonempty
    proper = len(A) < n
    return (frozenset() if proper else None, _anchored_spec(D, A, a) if proper else None,
            False if nonab else None, False if nonab else None, True)


_ROWS = {
    # hypotheses: A nonempty proper, anchor in A
    "lo_arrow*ro_arrow": _Construction(
        lo_arrow_pair, ("A", "a"),
        lambda n: ((A, a) for A, a in _anchored_subsets(n) if len(A) < n),
        lambda n, D, A, a: (frozenset(), _anchored_spec(D, A, a), True, len(A) == 1, True)),
    "lo_tilde0*ro_tilde0": _Construction(
        lo_tilde0_pair, ("A",), _all_subsets,
        lambda n, D, A: (A, SymmetricProductSpec.of({n}, [A, D - A]), True,
                         not A or n == 1, None)),
    "lob*rob": _Construction(
        lob_pair, ("a", "c"), _distinct_pairs,
        lambda n, D, a, c: (frozenset({a}), SymmetricProductSpec.of({a, c}, [D - {a, c}]),
                            True, n == 2, None)),
    "lo*ro+0": _Construction(
        lo_ro_plus_zero, (), _no_params,
        lambda n, D: (D, SymmetricProductSpec.of({n}, [D]), True, n == 1, None)),
    # nonabelian noncommutative only claimed for carriers above 2
    "lob*o_fixed": _Construction(
        lob_with_fixed_null, ("a", "c"), lambda n: _distinct_pairs(n) if n > 2 else (),
        lambda n, D, a, c: (frozenset(), SymmetricProductSpec.of({a, c}, [D - {a, c}]),
                            False, False, None)),
    "lo_tilde0*o_fixed": _Construction(
        lo_tilde0_with_fixed_null, ("a",), lambda n: ((a,) for a in range(n)) if n > 1 else (),
        lambda n, D, a: (frozenset(), SymmetricProductSpec.of({a, n}, [D - {a}]),
                         False, False, None)),
    # nonabelian/noncommutative is claimed for any nonempty A on the left-left
    # form once there is more than one element, but only for proper A on the
    # left-right form (A = D gives the abelian left-zero/right-zero pair)
    "lo*lo_arrow": _Construction(
        lo_with_lo_arrow, ("A", "a"), _anchored_subsets,
        lambda n, D, A, a: _lo_with_arrow(n, D, A, a, n > 1)),
    "lo*ro_arrow": _Construction(
        lo_with_ro_arrow, ("A", "a"), _anchored_subsets,
        lambda n, D, A, a: _lo_with_arrow(n, D, A, a, len(A) < n)),
    # the empty-halo claim assumes more than two elements; smaller carriers
    # are computed and recorded, not asserted
    "lo_arrow*o": _Construction(
        lo_arrow_with_null, ("A", "zero"),
        lambda n: ((A, z) for z in range(n) for A in subsets(range(n)) if z in A),
        lambda n, D, A, z: (frozenset() if n > 2 else None, _anchored_spec(D, A, z),
                            len(A) == 1, len(A) == 1, True)),
}
CONSTRUCTION_NAMES = tuple(_ROWS)


def cases(name: str, n: int) -> Iterator[ConstructionCase]:
    """All parameter choices of one construction at base-set size n (the
    carrier is n+1 for the zero-extended constructions)."""
    check_size(n)
    row = _ROWS.get(name)
    if row is None:
        raise ValueError(f"unknown construction {name!r}")
    D = frozenset(range(n))
    keys = ("n", *row.params)
    for values in row.choices(n):
        yield ConstructionCase(name, dict(zip(keys, (n, *values))),
                               row.build(n, *values), *row.expect(n, D, *values))


def _normal_form(case: ConstructionCase) -> tuple:
    """The case moved onto one chosen choice of its parameter orbit, as
    plain data.

    A permutation of D = 0..n-1 moves each parameter, a subset A or a point
    a, c or zero, to its image, and fixes the elements at indices >= n (an
    adjoined zero).  Colour each x in D by the parameters in row order:
    whether x lies in a subset, whether x equals a point.  tau maps each x
    in D to its rank in the colour order, ties by x, and every other element
    to itself.  The normal form is the case moved along tau: the entries of
    its two tables relabeled, its asserted halo moved point by point, its
    asserted automorphism shape as its moved fixed points and the set of its
    moved blocks, and its asserted flags, which relabeling keeps.

    Two cases R and C have equal normal forms iff sigma = tau_C^-1 . tau_R
    is an isomorphism from R's dimonoid onto C's that maps R's asserted halo
    and shape onto C's, with equal asserted flags; then every claim checked
    for R holds for C, moved along sigma."""
    n, *values = case.params.values()
    parts = [v if isinstance(v, frozenset) else (v,) for v in values]
    colours = [tuple(x in part for part in parts) for x in range(n)]
    d, halo, spec = case.dimonoid, case.expected_halo, case.aut_spec
    # inv[r] is the element tau sends to rank r, and tau is its inverse
    inv = sorted(range(n), key=colours.__getitem__) + list(range(n, d.n))
    tau = sorted(range(d.n), key=inv.__getitem__)

    def image(points: frozenset[int]) -> frozenset[int]:
        return frozenset(tau[x] for x in points)

    def moved(e: tuple[int, ...]) -> tuple[int, ...]:
        # new(tau(x), tau(y)) = tau(old(x, y)), gathered row-major
        return tuple([tau[e[xm + y]] for xm in [x * d.n for x in inv] for y in inv])

    return (moved(d.left.entries), moved(d.right.entries),
            None if halo is None else image(halo),
            None if spec is None else (image(spec.fixed), frozenset(map(image, spec.blocks))),
            case.expected_abelian, case.expected_commutative, case.expected_rectangular)


def all_cases(n_max: int, names: tuple[str, ...] = CONSTRUCTION_NAMES
              ) -> Iterator[ConstructionCase]:
    """Every case of every requested construction for 1 <= n <= n_max."""
    if type(n_max) is not int:
        raise SizeMismatch(f"n_max must be an int, got {n_max!r}")
    for name in names:
        for n in range(1, n_max + 1):
            yield from cases(name, n)
