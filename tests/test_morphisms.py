import random
from itertools import groupby
from math import factorial

import pytest

from dimonoids import (
    BadPartition,
    BoundExceeded,
    IndexOutOfRange,
    Permutation,
    SizeMismatch,
    SymmetricProductSpec,
    adjoin_zero_di,
    all_cases,
    all_permutations,
    as_ditable,
    are_isomorphic,
    automorphisms,
    automorphisms_brute,
    canonical_form,
    canonical_key,
    cases,
    check_morphism,
    classify,
    di_flags,
    dual_dimonoid,
    enumerate_dimonoids_backtracking,
    enumerate_semigroups,
    left_zero_sg,
    lo_arrow,
    lo_arrow_pair,
    lo_ro_plus_zero,
    lo_tilde0_pair,
    lob,
    lob_pair,
    make_table,
    matches_symmetric_product,
    null_sg,
    pair,
    relabel_dimonoid,
    relabel_table,
    right_zero_sg,
)
from dimonoids import morphisms
from dimonoids.morphisms import SEARCH_BOUND


def test_permutation_basics():
    p = Permutation.of([2, 0, 1])
    assert p(0) == 2 and p.inverse()(2) == 0
    assert p.compose(p.inverse()) == Permutation.identity(3)
    assert Permutation.from_json(p.to_json()) == p
    with pytest.raises(IndexOutOfRange):
        Permutation.of([0, 0, 1])


def test_permutation_images_must_be_ints():
    for images in ([True, False], [0.0, 1], [1, 0.0], [False]):
        with pytest.raises(IndexOutOfRange):
            Permutation.of(images)
    with pytest.raises(IndexOutOfRange):
        Permutation.from_json({"images": [True, False]})
    assert Permutation.of([1, 0]).images == (1, 0)


def test_identity_is_an_isomorphism():
    d = lob_pair(3, 0, 1)
    assert check_morphism(d, d, Permutation.identity(3)).isomorphism


def test_swapping_a_distinguished_point_breaks_the_band_pair():
    d = lob_pair(3, 0, 1)
    swap12 = Permutation.of([0, 2, 1])
    result = check_morphism(d, d, swap12)
    assert not result.homomorphism and not result.isomorphism


def test_swapping_undistinguished_points_is_an_automorphism():
    d = lob_pair(4, 0, 1)
    swap23 = Permutation.of([0, 1, 3, 2])
    assert check_morphism(d, d, swap23).isomorphism


def test_check_morphism_accepts_callables_and_sequences():
    src = pair(left_zero_sg(2), left_zero_sg(2))
    dst = pair(make_table(1, [0]), make_table(1, [0]))
    collapse = check_morphism(src, dst, lambda x: 0)
    assert collapse.homomorphism and not collapse.isomorphism
    assert check_morphism(src, src, [0, 1]).isomorphism
    assert not check_morphism(src, src, [0, 0]).isomorphism


def test_check_morphism_size_rules():
    small = pair(left_zero_sg(2), left_zero_sg(2))
    big = pair(left_zero_sg(3), left_zero_sg(3))
    with pytest.raises(SizeMismatch):
        check_morphism(small, big, Permutation.identity(2))
    with pytest.raises(SizeMismatch):
        check_morphism(small, small, [0])
    with pytest.raises(IndexOutOfRange):
        check_morphism(small, small, [0, 5])


def test_automorphism_orders_of_named_structures():
    assert automorphisms(lo_ro_plus_zero(3)).order == 6
    assert automorphisms(lo_arrow_pair(4, {0, 1}, 0)).order == 2
    assert automorphisms(pair(null_sg(2, 0), null_sg(2, 0))).order == 1


def test_automorphisms_accept_bare_tables():
    # a bare table is read as the trivial dimonoid on itself
    assert automorphisms(left_zero_sg(3)).order == 6
    assert automorphisms(lob(4, 0, 1)).order == 2


def test_automorphisms_reject_non_dimonoids():
    from dimonoids import NotADimonoid, naive_flip
    with pytest.raises(NotADimonoid):
        automorphisms(naive_flip(pair(left_zero_sg(2), right_zero_sg(2))))


def _assorted_structures(max_n=5):
    yield pair(left_zero_sg(2), right_zero_sg(2))
    yield lo_ro_plus_zero(3)
    yield lob_pair(4, 1, 3)
    yield lo_arrow_pair(4, {0, 2}, 2)
    yield lo_tilde0_pair(3, {1, 2})
    yield pair(null_sg(4, 1), null_sg(4, 1))
    if max_n >= 5:
        yield lob_pair(5, 0, 1)
        yield lo_arrow_pair(5, {0, 1, 2}, 1)
        yield pair(left_zero_sg(5), lo_arrow(5, {0, 4}, 4))


def test_pruned_search_equals_brute_force(catalogs):
    for d in _assorted_structures():
        assert automorphisms(d).perms == automorphisms_brute(d).perms
    for entry in catalogs[3]:
        d = entry.canonical
        assert automorphisms(d).perms == automorphisms_brute(d).perms


def _chain_matches_brute_force(d):
    chain, brute = automorphisms(d), automorphisms_brute(d)
    return chain.order == len(brute.perms) and chain.perms == brute.perms


def test_chain_equals_brute_force_on_class_representatives(catalogs):
    reps = [e.canonical for n in (1, 2, 3) for e in catalogs[n]]
    four = [e.canonical for e in classify(4, max_n=4)]
    assert (len(reps), len(four)) == (61, 734)
    for d in reps + four:
        assert _chain_matches_brute_force(d), d.to_json()


def test_chain_equals_brute_force_on_construction_cases():
    checked = [case for case in all_cases(5) if case.dimonoid.n <= 5]
    assert len(checked) > 500
    for case in checked:
        assert _chain_matches_brute_force(case.dimonoid), case.describe()


def _closure(n, gens):
    """The group generated by gens, by closing under composition."""
    members = {Permutation.identity(n)}
    frontier = list(members)
    while frontier:
        p = frontier.pop()
        for g in gens:
            q = g.compose(p)
            if q not in members:
                members.add(q)
                frontier.append(q)
    return members


def test_chain_generators_generate_the_group():
    for d in _assorted_structures():
        auts = automorphisms(d)
        assert Permutation.identity(d.n) not in auts.generators
        assert _closure(d.n, auts.generators) == auts.perms


def test_chain_of_the_full_symmetric_group_is_small():
    auts = automorphisms(left_zero_sg(8))
    assert auts.order == factorial(8)
    assert len(auts.generators) <= 28
    assert matches_symmetric_product(auts, SymmetricProductSpec.of((), [range(8)]))
    # neither the order nor the shape check lists the 40,320 members
    assert auts._perms is None


def test_autsets_are_groups():
    for d in _assorted_structures(max_n=4):
        assert automorphisms(d).is_group()


def test_autset_json_shape():
    doc = automorphisms(pair(left_zero_sg(2), right_zero_sg(2))).to_json()
    assert doc["order"] == 2
    assert doc["generators"][0] == {"images": [0, 1]}


def test_matches_symmetric_product_examples():
    auts = automorphisms(lob_pair(5, 0, 1))
    assert matches_symmetric_product(
        auts, SymmetricProductSpec.of({0, 1}, [{2, 3, 4}]))
    auts2 = automorphisms(lo_tilde0_pair(3, {0, 1}))
    assert matches_symmetric_product(
        auts2, SymmetricProductSpec.of({3}, [{0, 1}, {2}]))


def test_matches_symmetric_product_rejects_wrong_blocks():
    auts = automorphisms(lo_arrow_pair(4, {0, 1}, 0))
    merged = SymmetricProductSpec.of({0}, [{1, 2, 3}])
    assert not matches_symmetric_product(auts, merged)
    # right shape: fix the anchor, permute the rest of A and the complement
    assert matches_symmetric_product(
        auts, SymmetricProductSpec.of({0}, [{1}, {2, 3}]))
    # Aut = <(2 3)>: specs of the right order whose generator check fails, one
    # on a fixed point it moves and one on a block it does not keep
    auts = automorphisms(lob_pair(4, 0, 1))
    assert auts.order == 2
    for spec in (SymmetricProductSpec.of({0, 2}, [{1, 3}]),
                 SymmetricProductSpec.of({0}, [{1, 2}, {3}])):
        assert spec.order == 2
        assert not matches_symmetric_product(auts, spec)
    assert matches_symmetric_product(auts, SymmetricProductSpec.of({0, 1}, [{2, 3}]))


def test_matches_symmetric_product_validates_partition():
    auts = automorphisms(pair(left_zero_sg(2), right_zero_sg(2)))
    with pytest.raises(BadPartition):
        matches_symmetric_product(auts, SymmetricProductSpec.of({0}, [{0, 1}]))
    with pytest.raises(BadPartition):
        matches_symmetric_product(auts, SymmetricProductSpec.of({0}, [{2}]))


def test_matches_symmetric_product_refuses_a_spec_of_another_size():
    auts = automorphisms(pair(left_zero_sg(2), right_zero_sg(2)))
    for spec in (SymmetricProductSpec.of({0, 1, 2}, []),
                 SymmetricProductSpec.of((), [{0, 1, 2}])):
        with pytest.raises(SizeMismatch):
            matches_symmetric_product(auts, spec)


def test_canonical_form_of_left_right_zero_pair_is_fixed():
    d = pair(left_zero_sg(2), right_zero_sg(2))
    c = canonical_form(d)
    assert c.left == d.left and c.right == d.right


def test_canonical_form_identifies_band_labelings():
    a = canonical_form(lob_pair(3, 0, 1))
    b = canonical_form(lob_pair(3, 2, 1))
    assert a.left == b.left and a.right == b.right


def test_canonical_form_single_element():
    d = pair(make_table(1, [0]), make_table(1, [0]))
    c = canonical_form(d)
    assert c.left == d.left and c.right == d.right


def test_canonical_form_bound():
    d = lob_pair(6, 0, 1)
    with pytest.raises(BoundExceeded):
        canonical_form(d)
    assert canonical_form(lob_pair(5, 0, 1)).n == 5


def test_canonical_key_invariant_under_relabeling(catalogs):
    from dimonoids import all_permutations
    for entry in catalogs[2]:
        d = entry.canonical
        for p in all_permutations(d.n):
            assert canonical_key(relabel_dimonoid(d, p)) == canonical_key(d)


def test_are_isomorphic_examples():
    assert are_isomorphic(lo_arrow_pair(4, {0, 1}, 0), lo_arrow_pair(4, {0, 3}, 3))
    assert not are_isomorphic(lo_arrow_pair(4, {0, 1}, 0), lo_arrow_pair(4, {0}, 0))
    d = lob_pair(3, 0, 1)  # abelian, so self-dual
    assert are_isomorphic(d, dual_dimonoid(d))
    assert not are_isomorphic(lob_pair(3, 0, 1), lob_pair(4, 0, 1))
    assert are_isomorphic(lob_pair(7, 0, 1), lob_pair(7, 5, 2))
    # |Aut| is 1!4! against 2!3!
    assert not are_isomorphic(lo_arrow_pair(6, {0, 1}, 0), lo_arrow_pair(6, {0, 1, 2}, 0))


def brute_isomorphic(a, b):
    """are_isomorphic by its definition: some permutation is an isomorphism."""
    return any(check_morphism(a, b, p).isomorphism for p in all_permutations(a.n))


def test_are_isomorphic_matches_brute_force_scan(catalogs, order_four):
    rng = random.Random(6)
    dimonoids = {n: [e.canonical for e in catalogs[n]] for n in (1, 2, 3)}
    dimonoids[4] = order_four
    # runs of labeled order-4 dimonoids that share their left table
    runs = (list(run) for _, run in groupby(order_four, key=lambda d: d.left))
    shared_left = [run for run in runs if len(run) > 1]

    def random_perm(n):
        images = list(range(n))
        rng.shuffle(images)
        return Permutation(tuple(images))

    def random_pair(n):
        return pair(make_table(n, [rng.randrange(n) for _ in range(n * n)]),
                    make_table(n, [rng.randrange(n) for _ in range(n * n)]))

    samples = []
    for _ in range(150):
        n = rng.randint(1, 4)
        a, b = rng.choice(dimonoids[n]), rng.choice(dimonoids[n])
        samples += [(a, b), (a, relabel_dimonoid(b, random_perm(n))),
                    (a, relabel_dimonoid(a, random_perm(n)))]
        samples.append(tuple(rng.sample(rng.choice(shared_left), 2)))
        # tables that need not be associative
        c = random_pair(n)
        samples += [(c, random_pair(n)), (c, relabel_dimonoid(c, random_perm(n)))]
        # bare tables, read as trivial dimonoids
        samples += [(a.left, relabel_table(a.left, random_perm(n))),
                    (a.left, relabel_table(b.left, random_perm(n)))]
    answers = [are_isomorphic(a, b) for a, b in samples]
    assert answers == [brute_isomorphic(as_ditable(a), as_ditable(b)) for a, b in samples]
    assert 0 < sum(answers) < len(answers)


def test_search_bound():
    big = null_sg(SEARCH_BOUND + 1, 0)
    with pytest.raises(BoundExceeded):
        automorphisms(big)
    with pytest.raises(BoundExceeded):
        are_isomorphic(big, big)
    # different sizes are told apart without a search
    assert not are_isomorphic(big, null_sg(3, 0))


def test_aut_invariant_under_duality():
    for d in (lo_arrow_pair(4, {0, 1}, 0),
              lo_tilde0_pair(3, {0, 1}),
              pair(left_zero_sg(3), lo_arrow(3, {0, 1}, 0))):
        assert automorphisms(dual_dimonoid(d)).perms == automorphisms(d).perms


def test_abelian_aut_equals_single_table_aut():
    for d in (lob_pair(4, 0, 1), lo_arrow_pair(4, {0, 1}, 0),
              lo_tilde0_pair(3, {0, 2})):
        assert di_flags(d).abelian
        auts = automorphisms(d).perms
        assert auts == automorphisms(d.left).perms
        assert auts == automorphisms(d.right).perms


def test_aut_unchanged_by_zero_adjunction():
    for d in (pair(left_zero_sg(2), right_zero_sg(2)), lob_pair(3, 0, 1),
              lo_arrow_pair(4, {0, 1}, 0), lo_tilde0_pair(3, {0})):
        auts = automorphisms(d)
        bigger = automorphisms(adjoin_zero_di(d))
        assert bigger.order == auts.order
        # the enlarged automorphisms fix the new zero and restrict to the old set
        n = d.n
        restricted = {Permutation(p.images[:n]) for p in bigger.perms}
        assert all(p.images[n] == n for p in bigger.perms)
        assert restricted == auts.perms


def test_theorem_order_formulas_for_sample_sizes():
    # spot values of the product-of-factorials answers
    assert automorphisms(lo_arrow_pair(6, {0, 1, 2}, 0)).order == \
        factorial(2) * factorial(3)
    assert automorphisms(lo_tilde0_pair(4, {0, 1})).order == \
        factorial(2) * factorial(2)
    assert automorphisms(lob_pair(6, 0, 1)).order == factorial(4)
    assert automorphisms(lo_ro_plus_zero(4)).order == factorial(4)


def test_construction_cases_pass_their_aut_specs_at_small_sizes():
    for name in ("lo_arrow*ro_arrow", "lob*o_fixed", "lo_arrow*o"):
        for n in range(1, 5):
            for case in cases(name, n):
                if case.aut_spec is not None:
                    assert matches_symmetric_product(
                        automorphisms(case.dimonoid), case.aut_spec), case.describe()


def reference_key(d):
    """canonical_key by its definition: the least relabeled table pair."""
    d = as_ditable(d)
    return min((relabel_table(d.left, p).entries, relabel_table(d.right, p).entries)
               for p in all_permutations(d.n))


def test_canonical_key_matches_reference_up_to_order_three():
    for n in (1, 2, 3):
        for d in enumerate_dimonoids_backtracking(n):
            assert canonical_key(d) == reference_key(d)


def test_canonical_key_matches_reference_on_order_four_semigroups(order_four):
    tables = [d.left for d in order_four if d.left == d.right]
    assert len(tables) == 3492
    for t in tables:
        assert canonical_key(t) == reference_key(t)


def count_scans(monkeypatch):
    """Start from an empty orbit index and list the tables it scans."""
    scans = []
    scan = morphisms._scan_left_orbit

    def counted(n, left):
        scans.append(left)
        return scan(n, left)

    monkeypatch.setattr(morphisms, "_orbit_index", {})
    monkeypatch.setattr(morphisms, "_scan_left_orbit", counted)
    return scans


def test_canonical_key_matches_reference_on_order_four_sample(order_four, monkeypatch):
    # whole runs of one left table, in stream order; the orbit index scans
    # one left table per semigroup class and serves every other from it
    runs = [list(run) for _, run in groupby(order_four, key=lambda d: d.left)]
    assert len(runs) == 3492
    picked = sorted(random.Random(4).sample(range(len(runs)), 300))
    scans = count_scans(monkeypatch)
    sample = [d for i in picked for d in runs[i]]
    for d in sample:
        assert canonical_key(d) == reference_key(d)
    classes = {reference_key(runs[i][0].left)[0] for i in picked}
    assert len(scans) == len(classes) < len(picked)


def reference_minimizers(t):
    """The least relabeled table and every permutation reaching it, in
    lexicographic order, by the n! scan."""
    parts = [(relabel_table(t, p).entries, p) for p in all_permutations(t.n)]
    least = min(part for part, _ in parts)
    return least, [p for part, p in parts if part == least]


def test_orbit_index_matches_the_scan_of_every_semigroup(monkeypatch):
    # one scan per semigroup class (A027851); every other labeled table's
    # entry is filled from the scan of another member of its class
    scans = count_scans(monkeypatch)
    for n, classes, labeled in ((1, 1, 1), (2, 5, 8), (3, 24, 113), (4, 188, 3492)):
        members = list(all_permutations(n))
        after = morphisms._symmetric_group(n).after
        records = set()
        for t in enumerate_semigroups(n, max_n=4):
            record, first = morphisms._left_orbit(n, t.entries)
            least, aut = record
            ref_least, ref_minimizers = reference_minimizers(t)
            assert least == ref_least
            assert sorted(members[after[first][g]] for g in aut) == ref_minimizers
            assert members[first] == ref_minimizers[0]
            records.add(record)
        assert len(records) == classes
        assert len(scans) == classes
        # orbit-stabilizer: the classes hold n!/|Aut(L0)| labeled tables each
        assert sum(factorial(n) // len(aut) for _, aut in records) == labeled
        scans.clear()


@pytest.mark.parametrize("bound", [10, 60])
def test_orbit_index_stays_within_its_bound(order_four, bound, monkeypatch):
    # orbits of up to 24 tables: a bound of 10 cuts them, one of 60 clears
    # the index every few scans
    monkeypatch.setattr(morphisms, "ORBIT_INDEX_BOUND", bound)
    scans = count_scans(monkeypatch)
    sizes = []
    for d in order_four[::40]:
        assert canonical_key(d) == reference_key(d)
        sizes.append(len(morphisms._orbit_index))
    assert max(sizes) <= bound
    assert any(later < earlier for earlier, later in zip(sizes, sizes[1:]))
    assert len(scans) > 188


def left_ties(t):
    """How many relabelings reach the least relabeled table."""
    parts = [relabel_table(t, p).entries for p in all_permutations(t.n)]
    return parts.count(min(parts))


def test_canonical_key_alternating_left_tables(order_four):
    # switching between left tables must never serve another table's
    # minimizers: take the first left table with each number of left ties
    # (1, 2, 4, 6, 24) that has several right tables, and cycle through them
    runs = {}
    for left, run in groupby(order_four, key=lambda d: d.left):
        run = list(run)
        if len(run) >= 3:
            runs.setdefault(left_ties(left), run)
    assert sorted(runs) == [1, 2, 4, 6, 24]
    for i in range(max(len(run) for run in runs.values())):
        for run in runs.values():
            d = run[i % len(run)]
            assert canonical_key(d) == reference_key(d)


def test_canonical_key_matches_reference_with_many_left_ties():
    for d in (null_sg(5, 0), lob_pair(5, 0, 1)):
        assert canonical_key(d) == reference_key(d)
    with pytest.raises(BoundExceeded):
        canonical_key(lob_pair(6, 0, 1))
