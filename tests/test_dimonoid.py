import pickle

import pytest

from dimonoids import (
    DiFlags,
    DiTable,
    EmptySubset,
    FormatError,
    IndexOutOfRange,
    NotADimonoid,
    NotAssociative,
    NotRightCommutative,
    SizeMismatch,
    adjoin_zero_di,
    all_cases,
    axioms_ok,
    check_axioms,
    di_flags,
    di_zero,
    dual_dimonoid,
    dual_table,
    from_right_commutative,
    halo,
    is_subdimonoid,
    left_zero_sg,
    lo_arrow,
    lo_arrow_pair,
    lo_ro_plus_zero,
    lo_tilde0_pair,
    lo_tilde0_with_fixed_null,
    lob_pair,
    lob_with_fixed_null,
    make_table,
    naive_flip,
    null_sg,
    pair,
    right_zero_sg,
)
from dimonoids import dimonoid


def lo_ro(n=2):
    return pair(left_zero_sg(n), right_zero_sg(n))


def test_pair_left_right_zero_is_a_dimonoid():
    d = lo_ro()
    assert d.is_dimonoid
    assert d.axiom_status.to_json() == {name: "ok" for name in
                                        ("assoc_left", "assoc_right", "d1", "d2", "d3")}


def test_pair_trivial_is_a_dimonoid():
    t = left_zero_sg(2)
    assert pair(t, t).is_dimonoid


def test_pair_swapped_zero_tables_fails_first_axiom():
    d = pair(right_zero_sg(2), left_zero_sg(2))
    assert not d.is_dimonoid
    assert d.axiom_status.d1 == (0, 0, 1)


def test_pair_size_mismatch():
    with pytest.raises(SizeMismatch):
        pair(left_zero_sg(2), left_zero_sg(3))


def test_single_element_pairs_always_pass():
    t = make_table(1, [0])
    assert pair(t, t).is_dimonoid


def test_check_axioms_matches_stored_report():
    for d in (lo_ro(), pair(right_zero_sg(2), left_zero_sg(2)), lob_pair(3, 0, 1)):
        assert check_axioms(d) == d.axiom_status


def test_axioms_ok_agrees_with_report(semigroups):
    for left in semigroups[2]:
        for right in semigroups[2]:
            assert axioms_ok(left, right) == pair(left, right).is_dimonoid


def test_di_table_json_round_trip():
    d = lob_with_fixed_null(3, 0, 1)
    again = DiTable.from_json(d.to_json())
    assert again == d and again.is_dimonoid


def test_di_table_json_rejects_unknown_keys():
    doc = lob_with_fixed_null(3, 0, 1).to_json()
    for extra in ({"extra": 1}, {"table": doc["left"]}):
        with pytest.raises(FormatError, match="unknown keys"):
            DiTable.from_json(dict(doc, **extra))


def test_di_table_is_a_value_whose_report_is_computed_once(monkeypatch):
    reports = []

    def counted(left, right):
        reports.append((left, right))
        return real(left, right)

    real = dimonoid._axiom_report
    monkeypatch.setattr(dimonoid, "_axiom_report", counted)
    read, fresh = lo_ro(), lo_ro()
    assert read.axiom_status is read.axiom_status and read.is_dimonoid
    assert reports == [(read.left, read.right)]
    # equality and hashing ignore the cached report
    assert read == fresh and hash(read) == hash(fresh)
    assert read != pair(right_zero_sg(2), left_zero_sg(2))
    for field in ("left", "right", "axiom_status"):
        with pytest.raises(AttributeError):
            setattr(read, field, read.left)
    again = pickle.loads(pickle.dumps(read))
    assert again == read and again.is_dimonoid


def test_di_flags_are_values_with_a_stable_document():
    flags, same = di_flags(lo_ro()), di_flags(lo_ro())
    assert flags == same and hash(flags) == hash(same)
    with pytest.raises(AttributeError):
        flags.abelian = False
    doc = flags.to_json()
    assert list(doc) == ["trivial", "commutative", "abelian", "self_dual", "rectangular"]
    assert DiFlags.from_json(doc) == flags
    with pytest.raises(FormatError, match="unknown keys"):
        DiFlags.from_json(dict(doc, halo=True))


def test_dual_of_left_right_zero_pair_is_itself():
    d = lo_ro()
    dual = dual_dimonoid(d)
    assert dual.left == d.left and dual.right == d.right


def test_dual_dimonoid_is_involutive():
    d = lob_with_fixed_null(3, 0, 1)
    again = dual_dimonoid(dual_dimonoid(d))
    assert again.left == d.left and again.right == d.right


def test_dual_of_trivial_commutative_is_itself():
    t = null_sg(3, 1)
    d = pair(t, t)
    dual = dual_dimonoid(d)
    assert dual.left == d.left and dual.right == d.right


def test_dual_preserves_dimonoidness_both_ways():
    good = lo_ro()
    bad = pair(right_zero_sg(2), left_zero_sg(2))
    assert dual_dimonoid(good).is_dimonoid
    assert not dual_dimonoid(bad).is_dimonoid


def test_naive_flip_witness_is_frozen():
    flipped = naive_flip(lo_ro())
    assert flipped.axiom_status.d1 == (0, 0, 1)
    # the flipped pair evaluates to z on the left and y on the right
    x, y, z = 0, 0, 1
    le, re_ = flipped.left, flipped.right
    assert le.entry(le.entry(x, y), z) == z
    assert le.entry(x, re_.entry(y, z)) == y


def test_naive_flip_fixes_commutative_pairs():
    t = null_sg(2, 0)
    d = pair(t, t)
    flipped = naive_flip(d)
    assert flipped.left == d.left and flipped.right == d.right
    assert flipped.is_dimonoid


def test_naive_flip_is_involutive():
    d = lob_with_fixed_null(3, 0, 1)
    again = naive_flip(naive_flip(d))
    assert again.left == d.left and again.right == d.right


def test_flags_left_right_zero_pair():
    flags = di_flags(lo_ro())
    assert flags.abelian and not flags.commutative and flags.rectangular
    assert flags.self_dual and not flags.trivial


def test_flags_band_pair_is_abelian_noncommutative():
    flags = di_flags(lob_pair(3, 0, 1))
    assert flags.abelian and not flags.commutative


def test_flags_band_with_null_is_nonabelian():
    flags = di_flags(lob_with_fixed_null(3, 0, 1))
    assert not flags.abelian and not flags.commutative


def test_flags_refuse_non_dimonoids():
    bad = naive_flip(lo_ro())
    with pytest.raises(NotADimonoid):
        di_flags(bad)
    with pytest.raises(NotADimonoid):
        halo(bad)


def test_halo_examples():
    assert halo(lo_ro()) == frozenset({0, 1})
    assert halo(lob_pair(3, 0, 1)) == frozenset({0})
    assert halo(lo_tilde0_pair(3, {0, 1})) == frozenset({0, 1})


def test_halo_closure_over_constructions():
    for case in all_cases(4):
        h = halo(case.dimonoid)
        if h:
            assert is_subdimonoid(case.dimonoid, h)


def test_abelian_halo_equals_one_sided_identities():
    from dimonoids import element_roles
    for d in (lob_pair(4, 0, 1), lo_tilde0_pair(3, {0, 1}),
              lo_arrow_pair(4, {0, 1}, 0), lo_ro_plus_zero(2)):
        assert di_flags(d).abelian
        h = halo(d)
        assert h == element_roles(d.left).right_identities
        assert h == element_roles(d.right).left_identities


def test_adjoin_zero_di_examples():
    d = adjoin_zero_di(lo_ro())
    assert d.is_dimonoid
    assert halo(d) == frozenset({0, 1})
    assert di_zero(d) == 2
    tiny = adjoin_zero_di(pair(make_table(1, [0]), make_table(1, [0])))
    assert tiny.n == 2 and di_zero(tiny) == 1


def test_adjoin_zero_di_preserves_axioms_and_halo_up_to_five():
    for case in all_cases(5):
        bigger = adjoin_zero_di(case.dimonoid)
        assert bigger.is_dimonoid
        assert halo(bigger) == halo(case.dimonoid)


def test_from_right_commutative_builds_abelian_dimonoids():
    d = from_right_commutative(lo_arrow(4, {0, 1}, 0))
    assert d.is_dimonoid
    assert di_flags(d).abelian
    assert halo(d) == frozenset()


def test_from_right_commutative_reports_failure_without_strict():
    d = from_right_commutative(right_zero_sg(2))
    assert not d.is_dimonoid


def test_from_right_commutative_strict_raises():
    with pytest.raises(NotRightCommutative, match=r"witness \(0, 0, 1\)"):
        from_right_commutative(right_zero_sg(2), strict=True)
    with pytest.raises(NotAssociative):
        from_right_commutative(make_table(2, [1, 0, 0, 0]))


def test_from_right_commutative_on_commutative_is_trivial():
    t = null_sg(3, 0)
    d = from_right_commutative(t)
    assert d.left == d.right == t and di_flags(d).trivial


def test_pairing_with_dual_iff_right_commutative_small(semigroups):
    from dimonoids import semigroup_class
    for n in (1, 2):
        for t in semigroups[n]:
            assert axioms_ok(t, dual_table(t)) == semigroup_class(t).right_commutative


def test_subdimonoid_examples():
    d = lob_with_fixed_null(3, 0, 1)
    assert is_subdimonoid(d, {0, 1, 2})
    assert not is_subdimonoid(d, {2})  # 2 |> 2 = 1 escapes
    assert d.right.entry(2, 2) == 1
    with pytest.raises(EmptySubset):
        is_subdimonoid(d, set())
    with pytest.raises(IndexOutOfRange):
        is_subdimonoid(d, {0, 7})
    # a bool is not taken as the element 0 or 1
    for elements in ([True], [0, True], [1.0]):
        with pytest.raises(IndexOutOfRange):
            is_subdimonoid(d, elements)


def test_di_zero_examples():
    assert di_zero(adjoin_zero_di(lo_ro())) == 2
    assert di_zero(lo_ro()) is None
    assert di_zero(lo_tilde0_with_fixed_null(2, 0)) == 2


def test_zero_adjunction_keeps_halo_for_plus_zero_construction():
    d = lo_ro_plus_zero(2)
    assert halo(d) == frozenset({0, 1})
    assert di_zero(d) == 2
