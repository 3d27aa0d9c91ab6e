from collections import defaultdict

import pytest

from dimonoids import (
    FAMILIES,
    ANotContainingA,
    BadFamilyParams,
    CarrierTooSmall,
    EmptyA,
    EmptyCarrier,
    EqualDistinguished,
    FamilyParams,
    IndexOutOfRange,
    SizeMismatch,
    ZeroInA,
    adjoin_zero,
    build,
    canonical_key,
    dual_table,
    family_sweep,
    is_associative,
    left_zero_sg,
    lo_arrow,
    lo_tilde0,
    lob,
    make_params,
    null_sg,
    o_with_fixed,
    plus_zero_lo,
    right_zero_sg,
    semigroup_class,
    subsets,
)


def test_null_sg():
    assert null_sg(1, 0).rows() == [[0]]
    t = null_sg(3, 0)
    assert set(t.entries) == {0}
    flags = semigroup_class(t)
    assert flags.associative and flags.commutative and flags.null
    with pytest.raises(IndexOutOfRange):
        null_sg(2, 2)
    # a bool is an int to Python, but not a carrier size
    with pytest.raises(SizeMismatch):
        null_sg(True, 0)
    with pytest.raises(EmptyCarrier):
        null_sg(0, 0)


def test_o_with_fixed_examples():
    assert o_with_fixed(3, 0, {1}).rows() == [[0, 0, 0], [0, 1, 0], [0, 0, 0]]
    assert o_with_fixed(3, 0, set()) == null_sg(3, 0)
    two_elt = o_with_fixed(2, 0, {1})
    assert semigroup_class(two_elt).semilattice
    with pytest.raises(ZeroInA):
        o_with_fixed(3, 0, {0, 1})
    with pytest.raises(IndexOutOfRange):
        o_with_fixed(3, 0, {5})


def test_o_with_fixed_full_complement_is_semilattice():
    for n in range(1, 5):
        for zero in range(n):
            t = o_with_fixed(n, zero, set(range(n)) - {zero})
            assert semigroup_class(t).semilattice


def test_zero_semigroups():
    assert left_zero_sg(2).rows() == [[0, 0], [1, 1]]
    assert right_zero_sg(2).rows() == [[0, 1], [0, 1]]
    assert dual_table(left_zero_sg(3)) == right_zero_sg(3)
    with pytest.raises(EmptyCarrier):
        left_zero_sg(0)


def test_lo_tilde0_examples():
    assert lo_tilde0(2, {0}).rows() == [[0, 2, 2], [1, 2, 2], [2, 2, 2]]
    assert lo_tilde0(2, set()) == null_sg(3, 2)
    assert lo_tilde0(2, {0, 1}) == adjoin_zero(left_zero_sg(2))
    with pytest.raises(IndexOutOfRange):
        lo_tilde0(2, {2})


def test_lob_examples():
    assert lob(3, 0, 1).rows() == [[0, 1, 1], [1, 1, 1], [2, 2, 2]]
    flags = semigroup_class(lob(3, 0, 1))
    assert flags.band and not flags.commutative
    with pytest.raises(EqualDistinguished):
        lob(3, 1, 1)
    with pytest.raises(CarrierTooSmall):
        lob(1, 0, 1)
    with pytest.raises(EqualDistinguished):
        lob(1, 0, 0)
    with pytest.raises(IndexOutOfRange):
        lob(3, 0, 3)


def test_lob_names_a_parameter_that_is_not_an_int_as_a_bad_index():
    # True == 1, but a bool is no element, so it is not equal to c = 1
    for a, c in ((True, 1), (1, True), ("x", 1), (1.0, 1)):
        with pytest.raises(IndexOutOfRange):
            lob(3, a, c)


def test_lob_choices_are_isomorphic():
    assert canonical_key(lob(3, 0, 1)) == canonical_key(lob(3, 2, 1))
    assert canonical_key(lob(4, 0, 1)) == canonical_key(lob(4, 3, 2))


def test_lo_arrow_examples():
    assert lo_arrow(3, {0, 1}, 0).rows() == [[0, 0, 0], [1, 1, 1], [0, 0, 0]]
    assert lo_arrow(3, {0}, 0) == null_sg(3, 0)
    assert lo_arrow(2, {0, 1}, 0) == left_zero_sg(2)
    with pytest.raises(EmptyA):
        lo_arrow(3, set(), 0)
    with pytest.raises(ANotContainingA):
        lo_arrow(3, {1, 2}, 0)
    with pytest.raises(IndexOutOfRange):
        lo_arrow(3, {0, 4}, 0)


def test_build_dispatch():
    assert build(make_params("ROB", 3, a=0, c=1)) == dual_table(lob(3, 0, 1))
    assert build(make_params("plus_zero", 2)) == adjoin_zero(left_zero_sg(2))
    assert build(make_params("RO_arrow", 3, A={0, 1}, a=0)) == dual_table(
        lo_arrow(3, {0, 1}, 0))
    with pytest.raises(EqualDistinguished):
        build(make_params("LOB", 1, a=0, c=0))


def test_build_validates_parameter_presence():
    with pytest.raises(BadFamilyParams):
        build(make_params("NOPE", 2))
    with pytest.raises(BadFamilyParams):
        build(make_params("O", 2))  # missing zero
    with pytest.raises(BadFamilyParams):
        build(make_params("LO", 2, a=0))  # superfluous


def test_family_params_json_round_trip():
    p = make_params("LO_arrow", 4, A={0, 2}, a=2)
    assert FamilyParams.from_json(p.to_json()) == p
    with pytest.raises(BadFamilyParams):
        FamilyParams.from_json({"family": "LO", "n": 2, "bogus": 1})


def test_family_params_are_immutable_values():
    p = make_params("O_A", 3, A=[1, 2], zero=0)
    q = FamilyParams("O_A", 3, frozenset({2, 1}), zero=0)
    assert p == q and hash(p) == hash(q)
    with pytest.raises(AttributeError):
        p.n = 4


# each family's table, from its constructor called directly
_DIRECT = {
    "O": lambda p: null_sg(p.n, p.zero),
    "O_A": lambda p: o_with_fixed(p.n, p.zero, p.A),
    "LO": lambda p: left_zero_sg(p.n),
    "RO": lambda p: right_zero_sg(p.n),
    "LO_tilde0": lambda p: lo_tilde0(p.n, p.A),
    "RO_tilde0": lambda p: dual_table(lo_tilde0(p.n, p.A)),
    "LOB": lambda p: lob(p.n, p.a, p.c),
    "ROB": lambda p: dual_table(lob(p.n, p.a, p.c)),
    "LO_arrow": lambda p: lo_arrow(p.n, p.A, p.a),
    "RO_arrow": lambda p: dual_table(lo_arrow(p.n, p.A, p.a)),
    "plus_zero": lambda p: plus_zero_lo(p.n),
}


def _valid_params(n):
    """Every valid parameter choice of every family at n, loop by loop."""
    out = {make_params(fam, n) for fam in ("LO", "RO", "plus_zero")}
    for zero in range(n):
        out.add(make_params("O", n, zero=zero))
        for A in subsets(set(range(n)) - {zero}):
            out.add(make_params("O_A", n, A=A, zero=zero))
    for A in subsets(range(n)):
        for fam in ("LO_tilde0", "RO_tilde0"):
            out.add(make_params(fam, n, A=A))
        for a in sorted(A):
            for fam in ("LO_arrow", "RO_arrow"):
                out.add(make_params(fam, n, A=A, a=a))
    for a in range(n):
        for c in range(n):
            if a != c:
                for fam in ("LOB", "ROB"):
                    out.add(make_params(fam, n, a=a, c=c))
    return out


def test_families_keep_their_order():
    # the benchmark's CLI workload draws a family by its position here
    assert FAMILIES == ("O", "O_A", "LO", "RO", "LO_tilde0", "RO_tilde0",
                        "LOB", "ROB", "LO_arrow", "RO_arrow", "plus_zero")


def test_family_sweep_matches_the_constructors_up_to_five():
    swept = defaultdict(list)
    for params, table in family_sweep(5):
        assert table == _DIRECT[params.family](params), params
        swept[params.n].append(params)
    assert sorted(swept) == [1, 2, 3, 4, 5]
    assert sum(map(len, swept.values())) == 621
    for n, params in swept.items():
        assert len(set(params)) == len(params)
        assert set(params) == _valid_params(n), n


def test_family_sweep_rejects_non_int_bounds():
    # as all_cases does: a bool or a float is not a bound, and an error comes
    # before anything is built
    for n_max in (True, 2.0, "3", None):
        with pytest.raises(SizeMismatch):
            list(family_sweep(n_max))


def test_every_family_table_is_associative_up_to_four():
    count = 0
    for params, table in family_sweep(4):
        assert is_associative(table) is None, params
        count += 1
    assert count > 200


def test_right_commutative_families_up_to_four():
    for n in range(1, 5):
        for A in subsets(range(n)):
            assert semigroup_class(lo_tilde0(n, A)).right_commutative
            if A:
                for a in sorted(A):
                    assert semigroup_class(lo_arrow(n, A, a)).right_commutative
        assert semigroup_class(plus_zero_lo(n)).right_commutative
        if n >= 2:
            for a in range(n):
                for c in range(n):
                    if a != c:
                        assert semigroup_class(lob(n, a, c)).right_commutative
            assert not semigroup_class(right_zero_sg(n)).right_commutative


def _iso_partition_matches_sizes(keys_by_params):
    params = list(keys_by_params)
    for i in params:
        for j in params:
            same_size = len(i[0]) == len(j[0])
            assert (keys_by_params[i] == keys_by_params[j]) == same_size, (i, j)


def test_lo_arrow_iso_criterion_up_to_four():
    # two anchored partial left-zero tables on equal carriers are isomorphic
    # exactly when their subsets have equal size, whatever the anchors are
    for n in range(1, 5):
        keys = {}
        for A in subsets(range(n)):
            if A:
                for a in sorted(A):
                    keys[(tuple(sorted(A)), a)] = canonical_key(lo_arrow(n, A, a))
        _iso_partition_matches_sizes(keys)


def test_o_with_fixed_iso_criterion_up_to_four():
    for n in range(1, 5):
        keys = {}
        for zero in range(n):
            for A in subsets(set(range(n)) - {zero}):
                keys[(tuple(sorted(A)), zero)] = canonical_key(o_with_fixed(n, zero, A))
        _iso_partition_matches_sizes(keys)


def test_lo_tilde0_iso_criterion_up_to_four():
    # carrier is n+1, within the canonicalization bound for n <= 4
    for n in range(1, 5):
        keys = {}
        for A in subsets(range(n)):
            keys[(tuple(sorted(A)), 0)] = canonical_key(lo_tilde0(n, A))
        _iso_partition_matches_sizes(keys)
