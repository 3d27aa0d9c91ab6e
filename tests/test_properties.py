"""Law-level properties checked on randomly drawn tables and permutations."""

import random
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from dimonoids import (
    OpTable,
    Permutation,
    adjoin_zero,
    all_cases,
    as_ditable,
    automorphisms,
    axioms_ok,
    canonical_key,
    check_axioms,
    dual_table,
    element_roles,
    enumerate_dimonoids_backtracking,
    enumerate_semigroups,
    family_sweep,
    is_associative,
    lob,
    naive_flip,
    pair,
    relabel_dimonoid,
    relabel_table,
    semigroup_class,
)
from dimonoids import dimonoid
from dimonoids.catalog import _right_tables
from dimonoids.morphisms import _element_signatures
from dimonoids.tables import (
    RoleReport,
    _role_scan,
    rectangular_witness,
    right_commutative_witness,
)
from reference import (
    reference_assoc,
    reference_rc,
    reference_rect,
    reference_report,
    reference_roles,
)


@st.composite
def op_tables(draw, max_n=5):
    n = draw(st.integers(min_value=1, max_value=max_n))
    entries = draw(st.lists(st.integers(0, n - 1), min_size=n * n, max_size=n * n))
    return OpTable(n, tuple(entries))


@st.composite
def table_pairs(draw, max_n=4):
    n = draw(st.integers(min_value=1, max_value=max_n))
    cells = st.lists(st.integers(0, n - 1), min_size=n * n, max_size=n * n)
    return (OpTable(n, tuple(draw(cells))), OpTable(n, tuple(draw(cells))))


@given(op_tables())
def test_dual_is_involutive(t):
    assert dual_table(dual_table(t)) == t


@given(op_tables())
def test_dual_preserves_associativity_status(t):
    assert (is_associative(t) is None) == (is_associative(dual_table(t)) is None)


@given(op_tables())
def test_roles_swap_under_duality(t):
    roles = element_roles(t)
    dual_roles = element_roles(dual_table(t))
    assert roles.left_zeros == dual_roles.right_zeros
    assert roles.right_zeros == dual_roles.left_zeros
    assert roles.left_identities == dual_roles.right_identities
    assert roles.right_identities == dual_roles.left_identities
    assert roles.zero == dual_roles.zero
    assert roles.idempotents == dual_roles.idempotents


@given(op_tables())
def test_adjoin_zero_places_the_zero_last(t):
    bigger = adjoin_zero(t)
    assert bigger.n == t.n + 1
    roles = element_roles(bigger)
    assert roles.zero == t.n
    for x in range(t.n):
        for y in range(t.n):
            assert bigger.entry(x, y) == t.entry(x, y)


@given(op_tables(max_n=4))
def test_commutative_associative_implies_right_commutative(t):
    flags = semigroup_class(t)
    if flags.semilattice:
        assert flags.band and flags.commutative
    if flags.left_zero_sg or flags.right_zero_sg or flags.null:
        assert flags.rectangular
    if flags.commutative and flags.associative:
        assert flags.right_commutative


@given(op_tables(max_n=4))
def test_rectangular_flag_equals_brute_force(t):
    assert semigroup_class(t).rectangular == (reference_rect(t) is None)


@given(table_pairs())
def test_flip_and_dual_are_involutive_on_pairs(tables):
    left, right = tables
    d = pair(left, right)
    flipped_twice = naive_flip(naive_flip(d))
    assert flipped_twice.left == d.left and flipped_twice.right == d.right
    from dimonoids import dual_dimonoid
    dualed_twice = dual_dimonoid(dual_dimonoid(d))
    assert dualed_twice.left == d.left and dualed_twice.right == d.right


@given(table_pairs(max_n=4), st.randoms(use_true_random=False))
def test_canonical_key_is_relabeling_invariant(tables, rnd):
    left, right = tables
    d = pair(left, right)
    images = list(range(d.n))
    rnd.shuffle(images)
    p = Permutation.of(images)
    assert canonical_key(relabel_dimonoid(d, p)) == canonical_key(d)


@given(table_pairs(max_n=4))
def test_axiom_witnesses_are_real_violations(tables):
    left, right = tables
    d = pair(left, right)
    report = d.axiom_status
    le, re_ = d.left, d.right
    if report.d1 is not None:
        x, y, z = report.d1
        assert le.entry(le.entry(x, y), z) != le.entry(x, re_.entry(y, z))
    if report.d2 is not None:
        x, y, z = report.d2
        assert le.entry(re_.entry(x, y), z) != re_.entry(x, le.entry(y, z))
    if report.d3 is not None:
        x, y, z = report.d3
        assert re_.entry(le.entry(x, y), z) != re_.entry(x, re_.entry(y, z))


@given(table_pairs(max_n=4))
def test_axiom_report_equals_cellwise_reference(tables):
    left, right = tables
    report = check_axioms(pair(left, right))
    assert (report.assoc_left, report.assoc_right, report.d1, report.d2,
            report.d3) == reference_report(left, right)
    assert axioms_ok(left, right) == report.all_ok


@given(op_tables(max_n=4))
def test_commutativity_flags_equal_cellwise_reference(t):
    # the rectangular flag has its own brute-force test above
    n = t.n
    flags = semigroup_class(t)
    assert flags.commutative == all(t.entry(x, y) == t.entry(y, x)
                                    for x in range(n) for y in range(n))
    assert flags.right_commutative == (reference_rc(t) is None)


@given(op_tables(max_n=4))
def test_identity_witnesses_equal_cellwise_reference(t):
    assert right_commutative_witness(t) == reference_rc(t)
    assert rectangular_witness(t) == reference_rect(t)


def _mutated(t, rnd):
    """t with one cell, drawn by rnd, set to another value (t itself on one
    element)."""
    entries = list(t.entries)
    i = rnd.randrange(len(entries))
    entries[i] = (entries[i] + rnd.randrange(1, t.n)) % t.n if t.n > 1 else 0
    return OpTable(t.n, tuple(entries))


def test_witnesses_deep_in_the_scan_equal_cellwise_reference():
    # drawn tables fail in their first cells; the family tables and the
    # construction cases up to seven elements hold or fail late, and one
    # seeded one-cell mutation of each fails anywhere in the scan
    rnd = random.Random(23)
    tables = sorted({t for _, t in family_sweep(6)})
    tables += [_mutated(t, rnd) for t in tables]
    pairs = sorted({(c.dimonoid.left, c.dimonoid.right) for c in all_cases(6)})
    pairs += [(_mutated(left, rnd), right) if rnd.random() < 0.5
              else (left, _mutated(right, rnd)) for left, right in pairs]
    assert max(t.n for t in tables) == max(left.n for left, _ in pairs) == 7
    witnesses = []
    for t in tables:
        witnesses += [is_associative(t), rectangular_witness(t), right_commutative_witness(t)]
        assert witnesses[-3:] == [reference_assoc(t), reference_rect(t), reference_rc(t)]
    for left, right in pairs:
        report = check_axioms(pair(left, right))
        assert tuple(report) == reference_report(left, right)
        assert axioms_ok(left, right) == report.all_ok
        witnesses += report
    # witnesses turn up in every block of the scan, not only in its first cells
    assert {w[0] for w in witnesses if w is not None} == set(range(7))


def test_a_bare_table_runs_the_kernel_once(monkeypatch):
    # a bare table is the trivial dimonoid on it: its five axioms are one
    # identity, computed once and reported in every field
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    real = dimonoid.assoc_witness
    monkeypatch.setattr(dimonoid, "assoc_witness", counted)
    rnd = random.Random(5)
    tables = sorted({t for _, t in family_sweep(4)})
    tables += [_mutated(t, rnd) for t in tables]
    assert any(is_associative(t) is not None for t in tables)
    for t in tables:
        calls.clear()
        report = check_axioms(as_ditable(t))
        assert len(calls) == 1
        assert tuple(report) == reference_report(t, t)
        assert axioms_ok(t, t) == report.all_ok
    # two different tables still run all five
    left, right = lob(3, 0, 1), _mutated(lob(3, 0, 1), rnd)
    calls.clear()
    assert tuple(check_axioms(pair(left, right))) == reference_report(left, right)
    assert len(calls) == 5


@pytest.mark.parametrize("n", [256, 257])
def test_witness_at_the_byte_encoding_boundary(n):
    # bytes hold cells up to 256 elements; above, the kernels run over str
    t = lob(n, 0, 1)
    assert is_associative(t) is None
    entries = list(t.entries)
    entries[2 * n + n - 1] = 3  # 2 * (n-1) = 3, not 2: the first failure is in block x = 2
    t = OpTable(n, tuple(entries))
    assert is_associative(t) == reference_assoc(t) == (2, 0, n - 1)
    assert rectangular_witness(t) == reference_rect(t)


def test_large_tables_that_fail_early_stop_at_their_first_block():
    # 300 elements: the scan holds 27,000,000 triples, one n x n block 90,000
    n = 300
    shift = OpTable(n, tuple((x + 1) % n for x in range(n) for _ in range(n)))
    right_zero = OpTable(n, tuple(range(n)) * n)
    tracemalloc.start()
    try:
        # x*y = x+1: (0*0)*0 = 2 but 0*(0*0) = 1, and 0*0*0 = 2 but 0*0 = 1
        assert is_associative(shift) == reference_assoc(shift) == (0, 0, 0)
        assert rectangular_witness(shift) == reference_rect(shift) == (0, 0, 0)
        # x*y = y: 0*0*1 = 1 but 0*1*0 = 0
        assert right_commutative_witness(right_zero) == reference_rc(right_zero) == (0, 0, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the encoded tables and one block of each side take about 3 MB; both
    # sides built whole would take 54 MB each
    assert peak < 16 * 2**20


@st.composite
def role_tables(draw, n):
    """A random n x n table, associative or not, in which some rows are
    constant or the identity row, transposed half the time, so that every
    element role turns up."""
    rows = []
    for x in range(n):
        kind = draw(st.sampled_from(("cells", "constant", "identity")))
        if kind == "cells":
            rows.append(draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)))
        else:
            rows.append([x] * n if kind == "constant" else list(range(n)))
    t = OpTable(n, tuple(v for row in rows for v in row))
    return dual_table(t) if draw(st.booleans()) else t


@st.composite
def role_table_pairs(draw, max_n=5):
    n = draw(st.integers(min_value=1, max_value=max_n))
    return draw(role_tables(n)), draw(role_tables(n))


@given(role_table_pairs())
def test_element_roles_equal_cellwise_reference(tables):
    t, u = tables
    rng = range(t.n)
    ref = reference_roles(t)
    assert _role_scan(t) == ref
    left_zeros, right_zeros, left_ids, right_ids, idempotents = (
        frozenset(x for x in rng if ref[x][k]) for k in range(5))
    zeros = [z for z in rng if all(t.entry(z, a) == z == t.entry(a, z) for a in rng)]
    assert len(zeros) <= 1
    assert element_roles(t) == RoleReport(
        left_zeros=left_zeros, right_zeros=right_zeros,
        zero=zeros[0] if zeros else None,
        left_identities=left_ids, right_identities=right_ids,
        identities=frozenset(x for x in rng if ref[x][2] and ref[x][3]),
        idempotents=idempotents)
    flags = semigroup_class(t)
    assert flags.band == all(t.entry(x, x) == x for x in rng)
    assert flags.left_zero_sg == all(t.entry(x, y) == x for x in rng for y in rng)
    assert flags.right_zero_sg == all(t.entry(x, y) == y for x in rng for y in rng)
    ref_u = reference_roles(u)
    assert _element_signatures(pair(t, u)) == [ref[x] + ref_u[x] for x in rng]


# construction cases with carriers up to 5, and every labeled dimonoid of order 3
SMALL_DIMONOIDS = ([case.dimonoid for case in all_cases(4)]
                   + list(enumerate_dimonoids_backtracking(3)))


@given(st.sampled_from(SMALL_DIMONOIDS), st.randoms(use_true_random=False))
def test_relabeling_conjugates_the_automorphism_group(d, rnd):
    images = list(range(d.n))
    rnd.shuffle(images)
    p = Permutation.of(images)
    auts = automorphisms(d)
    moved = automorphisms(relabel_dimonoid(d, p))
    assert moved.order == auts.order
    assert moved.perms == {p.compose(g).compose(p.inverse()) for g in auts.perms}


# every labeled semigroup of order <= 4
SMALL_SEMIGROUPS = [t for n in (1, 2, 3, 4) for t in enumerate_semigroups(n)]


@given(st.sampled_from(SMALL_SEMIGROUPS), st.randoms(use_true_random=False))
def test_right_tables_are_relabeling_covariant(left, rnd):
    # a relabeling is an isomorphism of dimonoids, so it carries the right
    # tables of a left table onto those of the relabeled left table
    images = list(range(left.n))
    rnd.shuffle(images)
    p = Permutation.of(images)
    assert {relabel_table(r, p) for r, _ in _right_tables(left)} == \
        {r for r, _ in _right_tables(relabel_table(left, p))}
