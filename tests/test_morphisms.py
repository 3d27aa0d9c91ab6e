import hashlib
import json
import random
from collections import Counter
from functools import lru_cache
from itertools import groupby
from math import factorial

import pytest

from dimonoids import (
    BadPartition,
    BoundExceeded,
    FormatError,
    IndexOutOfRange,
    Permutation,
    SizeMismatch,
    SymmetricProductSpec,
    adjoin_zero_di,
    all_cases,
    are_isomorphic,
    automorphisms,
    canonical_form,
    canonical_key,
    cases,
    check_morphism,
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
from reference import (
    all_permutations,
    isomorphisms_by_scan,
    reference_key,
    reference_minimizers,
    relabel_by_cells,
)


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


def test_permutation_json_refuses_other_documents():
    # an unknown key, a missing 'images' and a document that is not an object
    for doc in ({"images": [1, 0], "x": 1}, {}, [1, 0], None):
        with pytest.raises(FormatError):
            Permutation.from_json(doc)


def test_permutations_and_specs_are_ordered_immutable_values():
    p, q = Permutation.of([2, 0, 1]), Permutation.of((2, 0, 1))
    assert p == q and hash(p) == hash(q)
    perms = list(all_permutations(3))
    shuffled = random.Random(7).sample(perms, len(perms))
    # permutations sort by their image tuples
    assert sorted(shuffled) == sorted(perms, key=lambda r: r.images) == perms
    spec = SymmetricProductSpec.of([0], [[1, 2], []])
    same = SymmetricProductSpec.of({0}, [{2, 1}])
    assert spec == same and hash(spec) == hash(same)
    for record, field in ((p, "images"), (spec, "fixed"), (spec, "blocks")):
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))


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


def test_relabeling_checks_the_permutation_size():
    # too many points, too many with an image out of range, and too few
    for t, images in ((left_zero_sg(2), (0, 1, 2)), (left_zero_sg(2), (2, 0, 1)),
                      (lob(3, 0, 1), (1, 0))):
        p = Permutation.of(images)
        with pytest.raises(SizeMismatch):
            relabel_table(t, p)
        with pytest.raises(SizeMismatch):
            relabel_dimonoid(pair(t, t), p)


def test_relabeling_gathers_the_tables_of_the_cell_route():
    # both tables of every construction case, by seeded random permutations
    rng = random.Random(31)
    tables = sorted({t for case in all_cases(6)
                     for t in (case.dimonoid.left, case.dimonoid.right)})
    assert len(tables) > 1000
    for t in tables:
        for _ in range(4):
            images = list(range(t.n))
            rng.shuffle(images)
            p = Permutation(tuple(images))
            assert relabel_table(t, p) == relabel_by_cells(t, p), (t, p)


def test_check_morphism_rejects_non_int_images():
    # a float or string image would otherwise fail the table lookup with a
    # bare TypeError, and a bool would pass as 0 or 1
    d = pair(left_zero_sg(3), left_zero_sg(3))
    for images in ([0.0, 1, 2], ["a", 1, 2], [True, False, 2]):
        with pytest.raises(IndexOutOfRange):
            check_morphism(d, d, images)
        with pytest.raises(IndexOutOfRange):
            check_morphism(d, d, images.__getitem__)
    assert check_morphism(d, d, [1, 0, 2]).isomorphism


def test_check_morphism_names_the_first_bad_image():
    d = pair(left_zero_sg(3), left_zero_sg(3))
    for images, message in (([0, 3, -1], "image 3 outside 0..2"),
                            ([0, -1, 3], "image -1 outside 0..2"),
                            ([1, True, 7], "image True outside 0..2"),
                            ([0, 1, 2.0], "image 2.0 outside 0..2"),
                            (["a", 1, 2], "image 'a' outside 0..2")):
        with pytest.raises(IndexOutOfRange) as exc:
            check_morphism(d, d, images)
        assert str(exc.value) == message

    # int subclasses other than bool are still taken as their values
    class Point(int):
        pass

    assert check_morphism(d, d, [Point(1), Point(0), 2]).isomorphism


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
        assert automorphisms(d).perms == set(isomorphisms_by_scan(d, d))
    for entry in catalogs[3]:
        d = entry.canonical
        assert automorphisms(d).perms == set(isomorphisms_by_scan(d, d))


def _chain_matches_brute_force(d):
    """The chain's order and every listing of its members (iteration, the
    member set sorted, the JSON document) agree member for member with the
    sorted n! filter, and the chain equals the one searched for the dual
    dimonoid, which has the same automorphisms."""
    chain, members = automorphisms(d), list(isomorphisms_by_scan(d, d))
    return (chain.order == len(members) and list(chain) == members
            and sorted(chain.perms) == members and chain == automorphisms(dual_dimonoid(d))
            and chain.to_json() == {"order": len(members),
                                    "generators": [p.to_json() for p in members]})


def test_chain_equals_brute_force_on_class_representatives(catalogs, classes_four):
    reps = [e.canonical for n in (1, 2, 3) for e in catalogs[n]]
    assert (len(reps), len(classes_four)) == (61, 734)
    for d in reps + classes_four:
        assert _chain_matches_brute_force(d), d.to_json()


def test_chain_equals_brute_force_on_construction_cases():
    checked = [case for case in all_cases(5) if case.dimonoid.n <= 5]
    assert len(checked) > 500
    for case in checked:
        assert _chain_matches_brute_force(case.dimonoid), case.describe()


def test_transversal_representatives_fix_the_base_prefix(classes_four):
    # level k's representative for v fixes b_0..b_{k-1}, takes b_k to v and
    # is an automorphism
    structures = [case.dimonoid for case in all_cases(6)] + classes_four
    assert len(structures) > 2000
    for d in structures:
        auts = automorphisms(d)
        for k, reps in enumerate(auts.transversals):
            prefix = auts.base[:k]
            for v, t in reps.items():
                assert [t[b] for b in prefix] == list(prefix), d.to_json()
                assert t[auts.base[k]] == v, d.to_json()
                assert check_morphism(d, d, t).isomorphism, d.to_json()


# SHA-256 over every construction case of all_cases(5) that has an aut_spec,
# one line per case: the AutSet document, and the image lists of its
# generators, which depend on the order the search tries images in
AUT_DIGESTS = {
    "to_json": "2379affc5233ede26869a42b4a0300f6f203d564b7f48305feeea092c96cec00",
    "generators": "4a0178a0b1839a0bf8378adddb9d20686a1df911e2df807172008c83bfdb9cba",
}


def test_automorphism_documents_and_generators_are_pinned():
    docs, gens = hashlib.sha256(), hashlib.sha256()
    checked = [case for case in all_cases(5) if case.aut_spec is not None]
    assert len(checked) == 630
    for case in checked:
        auts = automorphisms(case.dimonoid)
        docs.update(json.dumps(auts.to_json(), sort_keys=True).encode() + b"\n")
        gens.update(json.dumps([list(g.images) for g in auts.generators]).encode() + b"\n")
    assert {"to_json": docs.hexdigest(), "generators": gens.hexdigest()} == AUT_DIGESTS


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
    # the closure of the generators is a group: it holds the identity and,
    # finite and closed under composition, every inverse; so is the member
    # set that equals it
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
    assert auts._members is None and auts._perms is None


def test_groups_of_different_orders_compare_unequal_unlisted():
    full, fixing_zero = automorphisms(left_zero_sg(8)), automorphisms(lo_ro_plus_zero(7))
    assert (full.n, fixing_zero.n) == (8, 8)
    assert (full.order, fixing_zero.order) == (factorial(8), factorial(7))
    assert full != fixing_zero and fixing_zero != full
    for auts in (full, fixing_zero):
        assert auts._members is None and auts._perms is None


def test_groups_of_one_order_compare_by_their_members():
    # <(2 3)> and <(0 1)>: the same n and order, different members
    swap23, swap01 = automorphisms(lob_pair(4, 0, 1)), automorphisms(lob_pair(4, 2, 3))
    assert (swap23.order, swap01.order) == (2, 2)
    assert swap23 != swap01 and swap01 != swap23


def test_trivial_group_lists_the_identity():
    auts = automorphisms(make_table(1, [0]))
    assert auts.to_json() == {"order": 1, "generators": [{"images": [0]}]}
    assert list(auts) == [Permutation((0,))] and auts.perms == {Permutation((0,))}


def test_autset_json_shape():
    doc = automorphisms(pair(left_zero_sg(2), right_zero_sg(2))).to_json()
    assert doc["order"] == 2
    assert doc["generators"][0] == {"images": [0, 1]}


def test_json_text_equals_the_indented_encoder():
    # groups on 1..8 points: the full symmetric groups up to 7!, and the
    # groups of lob_pair, trivial at n = 2 and 3, S_6 at n = 8
    structures = [left_zero_sg(n) for n in range(1, 8)]
    structures += [lob_pair(n, 0, 1) for n in range(2, 9)]
    orders = []
    for d in structures:
        auts = automorphisms(d)
        orders.append(auts.order)
        for fields in ({}, {"order": auts.order},
                       {"order": auts.order, "matches_spec": True},
                       {"order": auts.order, "matches_spec": False}):
            assert auts.to_json_text(**fields) == json.dumps(
                {**auts.to_json(), **fields}, indent=2, sort_keys=True), (d.n, fields)
    assert orders == [1, 2, 6, 24, 120, 720, 5040, 1, 1, 2, 6, 24, 120, 720]


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
    assert answers == [any(isomorphisms_by_scan(a, b)) for a, b in samples]
    assert 0 < sum(answers) < len(answers)


def test_pair_code_keeps_the_two_tables_apart(catalogs, order_four):
    # the search checks each cell once, against the pair code of both
    # products; swapping the two tables, or changing one of them, must be
    # told apart exactly as the scan of S_n tells them
    rng = random.Random(24)
    dimonoids = [e.canonical for n in (1, 2, 3) for e in catalogs[n]]
    dimonoids += rng.sample(order_four, 100)
    samples = [(d, pair(d.right, d.left)) for d in dimonoids]
    for n in (1, 2, 3, 4):
        perms = list(all_permutations(n))
        for _ in range(40):
            # tables that need not be associative
            a, b = (make_table(n, [rng.randrange(n) for _ in range(n * n)]) for _ in range(2))
            p = rng.choice(perms)
            samples += [(pair(a, b), pair(b, a)),
                        (pair(a, b), pair(a, relabel_table(b, p))),
                        (pair(a, b), pair(relabel_table(a, p), b)),
                        (pair(a, a), pair(a, relabel_table(a, p))),
                        (pair(a, b), relabel_dimonoid(pair(a, b), p))]
    answers = [are_isomorphic(a, b) for a, b in samples]
    assert answers == [any(isomorphisms_by_scan(a, b)) for a, b in samples]
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


def test_canonical_key_matches_reference_up_to_order_three():
    for n in (1, 2, 3):
        for d in enumerate_dimonoids_backtracking(n):
            assert canonical_key(d) == reference_key(d)


def test_canonical_key_matches_reference_on_order_four_semigroups(order_four):
    tables = [d.left for d in order_four if d.left == d.right]
    assert len(tables) == 3492
    for t in tables:
        assert canonical_key(t) == reference_key(t)


def test_canonical_key_matches_reference_on_order_four_sample(order_four):
    # whole runs of one left table, in stream order; the memo scans each
    # distinct left table once and serves a second pass without a scan
    runs = [list(run) for _, run in groupby(order_four, key=lambda d: d.left)]
    assert len(runs) == 3492
    picked = sorted(random.Random(4).sample(range(len(runs)), 300))
    sample = [d for i in picked for d in runs[i]]
    memo = morphisms._left_minimizers
    memo.cache_clear()
    keys = [canonical_key(d) for d in sample]
    assert keys == [reference_key(d) for d in sample]
    assert memo.cache_info().misses == len(picked)
    assert [canonical_key(d) for d in sample] == keys
    assert memo.cache_info().misses == len(picked)


def test_left_minimizers_match_the_scan_of_every_semigroup():
    # every labeled semigroup against the n! reference, its relabelings read
    # as permutations by their position in _symmetric_group(n); the least
    # tables are the semigroup classes (A027851)
    for n, classes, labeled in ((1, 1, 1), (2, 5, 8), (3, 24, 113), (4, 188, 3492)):
        members = list(all_permutations(n))
        position = {s: i for i, s in enumerate(morphisms._symmetric_group(n))}
        shared, ties = Counter(), {}
        for t in enumerate_semigroups(n):
            least, minimizers = morphisms._left_minimizers(n, t.entries)
            assert (least, [members[position[s]] for s in minimizers]) == \
                reference_minimizers(t)
            shared[least] += 1
            assert ties.setdefault(least, len(minimizers)) == len(minimizers)
        assert len(shared) == classes and sum(shared.values()) == labeled
        # orbit-stabilizer: n!/|Aut(L0)| labeled tables share each least table
        # L0, and each of them reaches L0 by |Aut(L0)| relabelings
        assert all(count == factorial(n) // ties[least] for least, count in shared.items())


@pytest.mark.parametrize("maxsize", [10, 60])
def test_left_minimizers_evict_within_their_bound(order_four, maxsize, monkeypatch):
    # the stream sample meets hundreds of left tables, so a memo of 10 or 60
    # evicts all the way through; the keys must not change
    shipped = morphisms._left_minimizers
    memo = lru_cache(maxsize=maxsize)(shipped.__wrapped__)
    monkeypatch.setattr(morphisms, "_left_minimizers", memo)
    sizes = []
    for d in order_four[::40]:
        assert canonical_key(d) == reference_key(d)
        sizes.append(memo.cache_info().currsize)
    assert max(sizes) == maxsize
    assert memo.cache_info().misses > 2 * maxsize
    # the shipped memo holds every left table classify(5) keys duals for
    assert shipped.cache_info().maxsize >= 4549


def test_canonical_key_alternating_left_tables(order_four):
    # switching between left tables must never serve another table's
    # minimizers: take the first left table with each number of left ties
    # (1, 2, 4, 6, 24) that has several right tables, and cycle through them
    runs = {}
    for left, run in groupby(order_four, key=lambda d: d.left):
        run = list(run)
        if len(run) >= 3:
            runs.setdefault(len(reference_minimizers(left)[1]), run)
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
