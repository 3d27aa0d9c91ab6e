import pytest

from dimonoids import (
    EmptyCarrier,
    FormatError,
    IndexOutOfRange,
    SizeMismatch,
    OpTable,
    adjoin_zero,
    dual_table,
    element_roles,
    enumerate_semigroups,
    from_rows,
    is_associative,
    left_zero_sg,
    lo_arrow,
    lob,
    make_table,
    null_sg,
    right_zero_sg,
    semigroup_class,
)
from reference import reference_assoc, reference_rect


def test_make_table_left_and_right_zero():
    assert make_table(2, [0, 0, 1, 1]).rows() == [[0, 0], [1, 1]]
    assert make_table(2, [0, 1, 0, 1]).rows() == [[0, 1], [0, 1]]


def test_make_table_errors():
    with pytest.raises(SizeMismatch):
        make_table(2, [0, 0, 1])
    with pytest.raises(IndexOutOfRange):
        make_table(2, [0, 0, 1, 2])
    with pytest.raises(EmptyCarrier):
        make_table(0, [])
    with pytest.raises(IndexOutOfRange):
        make_table(2, [0, 0, 1, -1])
    with pytest.raises(SizeMismatch):
        make_table(True, [0])


def test_from_rows_round_trip():
    t = from_rows([[0, 1, 1], [1, 1, 1], [2, 2, 2]])
    assert t == lob(3, 0, 1)
    assert OpTable.from_json(t.to_json()) == t


def test_from_json_rejects_bad_shapes():
    with pytest.raises(SizeMismatch):
        OpTable.from_json({"n": 2, "table": [[0, 0]]})
    with pytest.raises(SizeMismatch):
        OpTable.from_json({"n": True, "table": [[0]]})
    with pytest.raises(SizeMismatch):
        OpTable.from_json({"table": [[0]]})


def test_from_json_rejects_unknown_keys():
    # a key the reader does not know is refused, not dropped unread
    doc = left_zero_sg(2).to_json()
    for extra in ({"x": 1}, {"left": doc["table"]}, {"right": doc["table"]}):
        with pytest.raises(FormatError, match="unknown keys"):
            OpTable.from_json(dict(doc, **extra))


def test_associativity_of_defining_families():
    assert is_associative(left_zero_sg(3)) is None
    assert is_associative(null_sg(4, 0)) is None


def test_first_nonassociative_witness_is_frozen():
    # 0*0=1, 0*1=0, 1*0=0, 1*1=0: checking triples in scan order, (0,0,0)
    # gives 0 on both sides and (0,0,1) gives (0*0)*1 = 0 vs 0*(0*1) = 1
    t = make_table(2, [1, 0, 0, 0])
    assert is_associative(t) == (0, 0, 1)


def test_witness_matches_exhaustive_oracle():
    t = make_table(2, [1, 0, 0, 0])
    violation = reference_assoc(t)
    assert violation is not None and is_associative(t) == violation


def test_element_roles_left_zero():
    roles = element_roles(left_zero_sg(3))
    assert roles.left_zeros == frozenset({0, 1, 2})
    assert roles.right_identities == frozenset({0, 1, 2})
    assert roles.zero is None
    assert roles.identities == frozenset()


def test_element_roles_null():
    roles = element_roles(null_sg(3, 0))
    assert roles.zero == 0
    assert roles.left_zeros == roles.right_zeros == frozenset({0})
    assert roles.identities == frozenset()
    assert roles.idempotents == frozenset({0})


def test_element_roles_left_zero_band():
    roles = element_roles(lob(3, 0, 1))
    assert roles.right_identities == frozenset({0})
    assert roles.left_zeros == frozenset({1, 2})
    assert roles.idempotents == frozenset({0, 1, 2})


def test_roles_report_json_is_sorted():
    doc = element_roles(left_zero_sg(2)).to_json()
    assert doc["left_zeros"] == [0, 1] and doc["zero"] is None


def test_class_flags_right_zero_not_right_commutative():
    flags = semigroup_class(right_zero_sg(2))
    assert not flags.right_commutative
    assert flags.right_zero_sg and flags.rectangular and flags.band


def test_table_records_are_immutable_values():
    t, u = make_table(2, [0, 0, 1, 1]), from_rows([[0, 0], [1, 1]])
    for a, b, field in ((t, u, "n"),
                        (element_roles(t), element_roles(u), "zero"),
                        (semigroup_class(t), semigroup_class(u), "band")):
        assert a == b and hash(a) == hash(b)
        with pytest.raises(AttributeError):
            setattr(a, field, getattr(a, field))
    assert t != dual_table(t)
    # the flags document lists every flag, in declaration order
    assert list(semigroup_class(t).to_json()) == [
        "associative", "commutative", "band", "semilattice", "null",
        "left_zero_sg", "right_zero_sg", "rectangular", "right_commutative"]


def test_class_flags_lo_arrow_right_commutative():
    flags = semigroup_class(lo_arrow(3, [0, 1], 0))
    assert flags.right_commutative and flags.associative and flags.rectangular


def test_class_flags_left_zero_band():
    flags = semigroup_class(lob(3, 0, 1))
    assert flags.right_commutative and flags.band and not flags.commutative
    assert not flags.semilattice


def test_single_element_table_is_everything_at_once():
    flags = semigroup_class(make_table(1, [0]))
    assert flags.associative and flags.commutative and flags.null and flags.band
    assert flags.semilattice and flags.left_zero_sg and flags.right_zero_sg


def test_dual_table_examples():
    assert dual_table(left_zero_sg(2)) == right_zero_sg(2)
    assert dual_table(left_zero_sg(3)) == right_zero_sg(3)
    assert dual_table(lob(3, 0, 1)).rows() == [[0, 1, 2], [1, 1, 2], [1, 1, 2]]
    commutative = null_sg(3, 1)
    assert dual_table(commutative) == commutative


def test_adjoin_zero_single_idempotent():
    assert adjoin_zero(make_table(1, [0])).rows() == [[0, 1], [1, 1]]


def test_adjoin_zero_left_zero():
    t = adjoin_zero(left_zero_sg(2))
    assert t.rows() == [[0, 0, 2], [1, 1, 2], [2, 2, 2]]
    assert element_roles(t).zero == 2
    assert semigroup_class(t).right_commutative


def test_adjoin_zero_twice_only_newest_is_zero():
    t = adjoin_zero(adjoin_zero(make_table(1, [0])))
    assert t.rows() == [[0, 1, 2], [1, 1, 2], [2, 2, 2]]
    roles = element_roles(t)
    assert roles.zero == 2
    assert roles.left_zeros == roles.right_zeros == frozenset({2})


def test_adjoin_zero_transfers_laws_exhaustively(semigroups):
    # associativity and right commutativity both survive zero adjunction,
    # exhaustively over every labeled semigroup of order <= 3
    for n, tables in semigroups.items():
        for t in tables:
            bigger = adjoin_zero(t)
            assert is_associative(bigger) is None
            if semigroup_class(t).right_commutative:
                assert semigroup_class(bigger).right_commutative


def test_adjoin_zero_transfers_laws_order_four():
    for t in enumerate_semigroups(4):
        bigger = adjoin_zero(t)
        assert is_associative(bigger) is None
        if semigroup_class(t).right_commutative:
            assert semigroup_class(bigger).right_commutative


def test_rectangular_flag_matches_brute_force(semigroups):
    for t in semigroups[3][::7]:
        assert semigroup_class(t).rectangular == (reference_rect(t) is None)
