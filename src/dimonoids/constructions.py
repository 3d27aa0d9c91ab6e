"""The named dimonoid constructions assembled from the semigroup families,
bundled with the halo, automorphism-group shape, and predicate flags they are
supposed to have, so the verification suite and the acceptance tests can sweep
them uniformly.

Expected fields set to None are not asserted for that parameter choice (the
claim's hypotheses exclude it); the sweep still computes and records the
actual value.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Optional

from .dimonoid import DiTable, adjoin_zero_di, from_right_commutative, pair
from .families import (
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
from .tables import dual_table


def lo_arrow_pair(n: int, A, a: int) -> DiTable:
    """Anchored partial left-zero table paired with its dual."""
    return from_right_commutative(lo_arrow(n, A, a))


def lo_tilde0_pair(n: int, A) -> DiTable:
    """Zero-extended partial left-zero table paired with its dual; carrier n+1."""
    return from_right_commutative(lo_tilde0(n, A))


def lob_pair(n: int, a: int, c: int) -> DiTable:
    """Left-zero band paired with its dual."""
    return from_right_commutative(lob(n, a, c))


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


CONSTRUCTION_NAMES = (
    "lo_arrow*ro_arrow",
    "lo_tilde0*ro_tilde0",
    "lob*rob",
    "lo*ro+0",
    "lob*o_fixed",
    "lo_tilde0*o_fixed",
    "lo*lo_arrow",
    "lo*ro_arrow",
    "lo_arrow*o",
)


def _proper_nonempty_with_anchor(n: int) -> Iterator[tuple[frozenset[int], int]]:
    for A in subsets(range(n)):
        if A and len(A) < n:
            for a in sorted(A):
                yield A, a


def cases(name: str, n: int) -> Iterator[ConstructionCase]:
    """All parameter choices of one construction at base-set size n (the
    carrier is n+1 for the zero-extended constructions)."""
    carrier = frozenset(range(n))
    if name == "lo_arrow*ro_arrow":
        # hypotheses: A nonempty proper, anchor in A
        if n < 2:
            return
        for A, a in _proper_nonempty_with_anchor(n):
            yield ConstructionCase(
                name, {"n": n, "A": A, "a": a}, lo_arrow_pair(n, A, a),
                expected_halo=frozenset(),
                aut_spec=SymmetricProductSpec.of({a}, [A - {a}, carrier - A]),
                expected_abelian=True,
                expected_commutative=(len(A) == 1),
                expected_rectangular=True,
            )
    elif name == "lo_tilde0*ro_tilde0":
        for A in subsets(range(n)):
            yield ConstructionCase(
                name, {"n": n, "A": A}, lo_tilde0_pair(n, A),
                expected_halo=A,
                aut_spec=SymmetricProductSpec.of({n}, [A, carrier - A]),
                expected_abelian=True,
                expected_commutative=(not A or n == 1),
                expected_rectangular=None,
            )
    elif name == "lob*rob":
        if n < 2:
            return
        for a in range(n):
            for c in range(n):
                if a != c:
                    yield ConstructionCase(
                        name, {"n": n, "a": a, "c": c}, lob_pair(n, a, c),
                        expected_halo=frozenset({a}),
                        aut_spec=SymmetricProductSpec.of({a, c}, [carrier - {a, c}]),
                        expected_abelian=True,
                        expected_commutative=(n == 2),
                        expected_rectangular=None,
                    )
    elif name == "lo*ro+0":
        yield ConstructionCase(
            name, {"n": n}, lo_ro_plus_zero(n),
            expected_halo=carrier,
            aut_spec=SymmetricProductSpec.of({n}, [carrier]),
            expected_abelian=True,
            expected_commutative=(n == 1),
            expected_rectangular=None,
        )
    elif name == "lob*o_fixed":
        # nonabelian noncommutative only claimed for carriers above 2
        if n < 3:
            return
        for a in range(n):
            for c in range(n):
                if a != c:
                    yield ConstructionCase(
                        name, {"n": n, "a": a, "c": c}, lob_with_fixed_null(n, a, c),
                        expected_halo=frozenset(),
                        aut_spec=SymmetricProductSpec.of({a, c}, [carrier - {a, c}]),
                        expected_abelian=False,
                        expected_commutative=False,
                        expected_rectangular=None,
                    )
    elif name == "lo_tilde0*o_fixed":
        if n < 2:
            return
        for a in range(n):
            yield ConstructionCase(
                name, {"n": n, "a": a}, lo_tilde0_with_fixed_null(n, a),
                expected_halo=frozenset(),
                aut_spec=SymmetricProductSpec.of({a, n}, [carrier - {a}]),
                expected_abelian=False,
                expected_commutative=False,
                expected_rectangular=None,
            )
    elif name in ("lo*lo_arrow", "lo*ro_arrow"):
        builder = lo_with_lo_arrow if name == "lo*lo_arrow" else lo_with_ro_arrow
        for A in subsets(range(n)):
            if not A:
                continue
            proper = len(A) < n
            # nonabelian/noncommutative is claimed for any nonempty A on the
            # left-left form once there is more than one element, but only for
            # proper A on the left-right form (A = D gives the abelian
            # left-zero/right-zero pair)
            nonab = proper or (name == "lo*lo_arrow" and n > 1)
            for a in sorted(A):
                # the halo/automorphism statements assume A proper; the
                # dimonoid itself only needs A nonempty
                yield ConstructionCase(
                    name, {"n": n, "A": A, "a": a}, builder(n, A, a),
                    expected_halo=frozenset() if proper else None,
                    aut_spec=SymmetricProductSpec.of({a}, [A - {a}, carrier - A])
                    if proper else None,
                    expected_abelian=False if nonab else None,
                    expected_commutative=False if nonab else None,
                    expected_rectangular=True,
                )
    elif name == "lo_arrow*o":
        for zero in range(n):
            for A in subsets(range(n)):
                if zero not in A:
                    continue
                yield ConstructionCase(
                    name, {"n": n, "A": A, "zero": zero},
                    lo_arrow_with_null(n, A, zero),
                    # the empty-halo claim assumes more than two elements;
                    # smaller carriers are computed and recorded, not asserted
                    expected_halo=frozenset() if n > 2 else None,
                    aut_spec=SymmetricProductSpec.of({zero}, [A - {zero}, carrier - A]),
                    expected_abelian=(len(A) == 1),
                    expected_commutative=(len(A) == 1),
                    expected_rectangular=True,
                )
    else:
        raise ValueError(f"unknown construction {name!r}")


def all_cases(n_max: int, names: tuple[str, ...] = CONSTRUCTION_NAMES
              ) -> Iterator[ConstructionCase]:
    """Every case of every requested construction for 1 <= n <= n_max."""
    for name in names:
        for n in range(1, n_max + 1):
            yield from cases(name, n)
