import hashlib
import json
from collections import Counter
from itertools import groupby, pairwise, product
from math import factorial
from operator import attrgetter

import pytest

import dimonoids.catalog as catalog
import dimonoids.cli as cli
import dimonoids.constructions as constructions
import dimonoids.dimonoid as dimonoid
import dimonoids.morphisms as morphisms
from dimonoids import (
    BoundExceeded,
    CatalogEntry,
    EmptyCarrier,
    FormatError,
    OpTable,
    SizeMismatch,
    SymmetricProductSpec,
    all_cases,
    are_isomorphic,
    automorphisms,
    axioms_ok,
    canonical_key,
    cases,
    check_axioms,
    classify,
    dual_table,
    dumps_catalog,
    enumerate_dimonoids_backtracking,
    enumerate_semigroups,
    from_right_commutative,
    load_catalog,
    loads_catalog,
    pair,
    run_theorem_suite,
    save_catalog,
    semigroup_class,
)
from dimonoids.catalog import _case_verdicts, _fill, _right_tables, check_construction_case
from dimonoids.constructions import CONSTRUCTION_NAMES
from dimonoids.dimonoid import AXIOM_BINDINGS, DiFlags, DiTable
from dimonoids.morphisms import _symmetric_group
from dimonoids.tables import rectangular_witness
from reference import (
    dumps_catalog_json,
    enumerate_dimonoids_by_pairs,
    enumerate_semigroups_brute,
    first_failure,
    parameter_orbit,
)

# counts produced by this package's own enumerators and cross-checked by the
# routes of reference.py; the order <= 3 numbers are frozen here on purpose
SEMIGROUP_COUNTS = {1: 1, 2: 8, 3: 113}
DIMONOID_COUNTS = {1: 1, 2: 13, 3: 267}
CLASS_COUNTS = {1: 1, 2: 8, 3: 52}
CLASS_COUNTS_MOD_DUALITY = {1: 1, 2: 6, 3: 35}
# SHA-256 over the entries of the left then right table of each labeled
# dimonoid of order 4, in the order the stream yields them
ORDER_FOUR_STREAM_SHA256 = "9df06a0f08e42fb299b799f4e7c82d8e2726515b12d4288969891d4f714465f6"


def test_semigroup_counts_and_brute_agreement(semigroups):
    for n, expected in SEMIGROUP_COUNTS.items():
        assert len(semigroups[n]) == expected
        assert semigroups[n] == list(enumerate_semigroups_brute(n))


def test_semigroup_enumeration_is_sorted_and_unique(semigroups):
    for tables in semigroups.values():
        entry_lists = [t.entries for t in tables]
        assert entry_lists == sorted(entry_lists)
        assert len(set(entry_lists)) == len(entry_lists)


def _filled_past_the_bound(*args, **kwargs):
    raise AssertionError("filled past the bound")


def test_order_four_semigroup_count():
    assert sum(1 for _ in enumerate_semigroups(4)) == 3492


def test_enumeration_bounds(monkeypatch):
    # the size checks run on first iteration, not on the call; nothing is
    # filled past a bound, so a lost check fails here instead of starting
    # the order-6 fill
    monkeypatch.setattr(catalog, "_fill", _filled_past_the_bound)
    stream = enumerate_semigroups(6)
    with pytest.raises(BoundExceeded):
        next(stream)
    with pytest.raises(BoundExceeded):
        list(enumerate_dimonoids_by_pairs(4))
    with pytest.raises(BoundExceeded):
        classify(6)
    with pytest.raises(EmptyCarrier):
        list(enumerate_semigroups(0))
    with pytest.raises(EmptyCarrier):
        list(enumerate_dimonoids_backtracking(0))
    with pytest.raises(BoundExceeded):
        run_theorem_suite(7)
    with pytest.raises(BoundExceeded):
        run_theorem_suite(0)


def test_max_n_reaches_the_semigroup_stream(monkeypatch):
    # the dimonoid stream's max_n bounds the lex-leader fill under it, up to
    # the semigroup bound, so order 5 needs no other setting: the stream
    # reaches the fill at n = 5
    class Reached(Exception):
        pass

    reached = []

    def stop(n, *args):
        reached.append(n)
        raise Reached

    with monkeypatch.context() as m:
        m.setattr(catalog, "_fill", stop)
        with pytest.raises(Reached):
            next(enumerate_dimonoids_backtracking(5, max_n=5))
    assert reached == [5]

    # the pair filter keeps a bound of its own and reads no stream past it
    with monkeypatch.context() as m:
        m.setattr(catalog, "enumerate_semigroups", _filled_past_the_bound)
        with pytest.raises(BoundExceeded, match="n <= 3"):
            list(enumerate_dimonoids_by_pairs(4))
    # each engine's one bound is checked before any fill or memo read:
    # canonical_key keys no dimonoid past order 5, and the labeled streams
    # hold no semigroups past it, whatever max_n the dimonoid stream is given
    for name in ("_fill", "_semigroup_leaders", "_iso_catalog"):
        monkeypatch.setattr(catalog, name, _filled_past_the_bound)
    with pytest.raises(BoundExceeded, match="n <= 5"):
        classify(6)
    with pytest.raises(BoundExceeded, match="n <= 5"):
        next(enumerate_semigroups(6))
    with pytest.raises(BoundExceeded, match="n <= 5"):
        next(enumerate_dimonoids_backtracking(6, max_n=6))
    # a smaller max_n still bounds the dimonoid stream
    with pytest.raises(BoundExceeded, match="n <= 3"):
        next(enumerate_dimonoids_backtracking(4, max_n=3))


def test_enumeration_rejects_non_int_sizes():
    # a bool size would otherwise reach the catalog as "n": true, and a
    # string or None would fail the bound comparison with a bare TypeError
    for n in (True, 2.0, "x", None):
        with pytest.raises(SizeMismatch):
            list(enumerate_semigroups(n))
        with pytest.raises(SizeMismatch):
            list(enumerate_semigroups_brute(n))
        with pytest.raises(SizeMismatch):
            list(enumerate_dimonoids_by_pairs(n))
        with pytest.raises(SizeMismatch):
            list(enumerate_dimonoids_backtracking(n))
        with pytest.raises(SizeMismatch):
            classify(n)
        with pytest.raises(SizeMismatch):
            run_theorem_suite(n)


def test_dimonoid_counts_and_route_agreement():
    # the backtracking route yields the pair filter's sequence, item by item
    for n, expected in DIMONOID_COUNTS.items():
        route_a = list(enumerate_dimonoids_by_pairs(n))
        assert len(route_a) == expected
        route_b = list(enumerate_dimonoids_backtracking(n))
        assert [(d.left, d.right) for d in route_a] == \
            [(d.left, d.right) for d in route_b]
        assert Counter(canonical_key(d) for d in route_a) == \
            Counter(canonical_key(d) for d in route_b)


def test_order_four_dimonoid_counts(order_four):
    assert len(order_four) == 15277
    assert all(d.is_dimonoid for d in order_four)
    per_key = Counter(canonical_key(d) for d in order_four)
    assert len(per_key) == 734
    # orbit-stabilizer, class by class: labeled copies = 4!/|Aut|
    for (kl, kr), count in per_key.items():
        rep = pair(OpTable(4, kl), OpTable(4, kr))
        assert count * automorphisms(rep).order == 24
    # classify visits only the canonical left tables; the labeled route must
    # give exactly its classes and counts
    cat = classify(4)
    assert {canonical_key(e.canonical): e.labeled_count for e in cat} == per_key
    # classify counts |Aut| without searching; the search must agree
    assert all(e.aut_order == automorphisms(e.canonical).order for e in cat)
    # the labeled duality pairing at order 4
    nonabelian = [i for i, e in enumerate(cat) if not e.flags.abelian]
    assert (len(cat) - len(nonabelian), len(nonabelian)) == (103, 631)
    assert sum(cat[i].dual_class_id == i for i in nonabelian) == 23


def test_order_four_yield_order_is_pinned(order_four):
    # SHA-256 over the entries of each table (or left then right table), in
    # yield order
    semigroups = b"".join(bytes(t.entries) for t in enumerate_semigroups(4))
    assert hashlib.sha256(semigroups).hexdigest() == \
        "d9c1e89ffd5eda52106e05031849e10dd19e0d50e181db6b0ad0986bb98e4f64"
    dimonoids = b"".join(bytes(d.left.entries + d.right.entries) for d in order_four)
    assert hashlib.sha256(dimonoids).hexdigest() == ORDER_FOUR_STREAM_SHA256


def test_order_four_stream_reads_no_semigroup_stream(monkeypatch):
    # the stream expands the lex leaders over their orbits instead of
    # enumerating the labeled semigroups, and relabels them itself instead of
    # scanning for canonical keys; its yield order is the pinned one
    def refuse(*args, **kwargs):
        raise AssertionError("the stream enumerated the labeled semigroups")

    def refuse_scan(*args, **kwargs):
        raise AssertionError("the stream scanned for a least left table")

    monkeypatch.setattr(catalog, "enumerate_semigroups", refuse)
    monkeypatch.setattr(morphisms, "_left_minimizers", refuse_scan)
    stream = b"".join(bytes(d.left.entries + d.right.entries)
                      for d in enumerate_dimonoids_backtracking(4, max_n=4))
    assert hashlib.sha256(stream).hexdigest() == ORDER_FOUR_STREAM_SHA256


def test_order_four_stream_equals_the_direct_fill(order_four):
    # the direct route: fill the right tables of every labeled left table;
    # the stream fills them per semigroup class and relabels
    by_left = [(left, [d.right for d in group])
               for left, group in groupby(order_four, key=attrgetter("left"))]
    assert [left for left, _ in by_left] == list(enumerate_semigroups(4))
    for left, rights in by_left:
        assert [(r, []) for r in rights] == list(_right_tables(left))


def test_stream_fills_right_tables_once_per_semigroup_class(monkeypatch):
    filled = []

    def counted(left):
        filled.append(left)
        return _right_tables(left)

    monkeypatch.setattr(catalog, "_right_tables", counted)
    for n, classes in ((3, 24), (4, 188)):
        filled.clear()
        for _ in enumerate_dimonoids_backtracking(n, max_n=4):
            pass
        assert len(filled) == len(set(filled)) == classes
        # each is the least relabeled left table of its class
        assert all(canonical_key(t)[0] == t.entries for t in filled)
    # the right tables are kept for the process: a second stream fills none
    filled.clear()
    stream = b"".join(bytes(d.left.entries + d.right.entries)
                      for d in enumerate_dimonoids_backtracking(4, max_n=4))
    assert filled == []
    assert hashlib.sha256(stream).hexdigest() == ORDER_FOUR_STREAM_SHA256


def test_each_order_fills_its_leaders_once_per_process(monkeypatch):
    # every reader of the lex leaders shares one fill per order
    fills = Counter()

    def counted(n, bindings, *args):
        if bindings is catalog._ASSOCIATIVITY:
            fills[n] += 1
        return _fill(n, bindings, *args)

    monkeypatch.setattr(catalog, "_fill", counted)
    for quotient, classes in (("iso", CLASS_COUNTS),
                              ("iso_and_duality", CLASS_COUNTS_MOD_DUALITY)):
        assert len(classify(3, quotient)) == classes[3]
    assert all(r.passed for r in catalog._pairing_records(3))
    assert sum(1 for _ in enumerate_semigroups(3)) == SEMIGROUP_COUNTS[3]
    assert sum(1 for _ in enumerate_dimonoids_backtracking(3)) == DIMONOID_COUNTS[3]
    assert fills == {1: 1, 2: 1, 3: 1}


def test_a_warm_memo_keeps_every_bound(monkeypatch):
    # the order-5 leaders, the order-4 right tables and the order-4 catalog
    # are kept, yet the dimonoid stream's max_n is still checked before the
    # memo is read, and no engine takes order 6
    assert sum(1 for _ in enumerate_semigroups(5)) == 183732
    assert sum(1 for _ in enumerate_dimonoids_backtracking(4, max_n=4)) == 15277
    assert len(classify(4)) == 734

    monkeypatch.setattr(catalog, "_fill", _filled_past_the_bound)
    with pytest.raises(BoundExceeded):
        next(enumerate_dimonoids_backtracking(4))
    with pytest.raises(BoundExceeded):
        next(enumerate_dimonoids_backtracking(5, max_n=4))
    with pytest.raises(BoundExceeded):
        next(enumerate_semigroups(6))
    with pytest.raises(BoundExceeded):
        classify(6)
    # and the kept order-4 catalog still answers under either quotient
    assert len(classify(4, "iso_and_duality")) == 430


def test_each_order_fills_its_class_keys_once_per_process(monkeypatch):
    # classify under one quotient builds the iso catalog, and a later call
    # under either quotient reads it from the memo: it fills no right table
    # and keys no class
    filled, keyed = [], []

    def counted_fill(left, *args):
        filled.append(left)
        return _right_tables(left, *args)

    def counted_key(d):
        keyed.append(d)
        return canonical_key(d)

    monkeypatch.setattr(catalog, "_right_tables", counted_fill)
    monkeypatch.setattr(catalog, "canonical_key", counted_key)
    for n, leaders, classes in ((3, 24, 52), (4, 188, 734)):
        for first in catalog.QUOTIENTS:
            catalog._iso_catalog.cache_clear()
            filled.clear()
            keyed.clear()
            classify(n, first)
            assert len(filled) == len(set(filled)) == leaders
            assert len(keyed) == classes
            for second in catalog.QUOTIENTS:
                filled.clear()
                keyed.clear()
                text = dumps_catalog(classify(n, second))
                assert filled == [] and keyed == []
                assert hashlib.sha256(text.encode()).hexdigest() == CATALOG_DIGESTS[n, second]


def test_changing_a_returned_catalog_leaves_the_memo_whole():
    # each call returns a new list, so a caller that empties or extends it
    # changes no later call's catalog
    for n in (3, 4):
        for quotient in catalog.QUOTIENTS:
            entries = classify(n, quotient)
            extra = entries[0]
            entries.clear()
            classify(n, quotient).append(extra)
            text = dumps_catalog(classify(n, quotient))
            assert hashlib.sha256(text.encode()).hexdigest() == CATALOG_DIGESTS[n, quotient]


def test_classify_and_the_stream_share_no_right_tables(monkeypatch):
    # classify keeps the pruned fill and the stream the unpruned one, so
    # neither reads the other's memo
    def refuse(least):
        raise AssertionError("classify read the stream's right tables")

    with monkeypatch.context() as m:
        m.setattr(catalog, "_leader_right_tables", refuse)
        for (n, quotient), digest in CATALOG_DIGESTS.items():
            text = dumps_catalog(classify(n, quotient))
            assert hashlib.sha256(text.encode()).hexdigest() == digest, (n, quotient)
    catalog._iso_catalog.cache_clear()
    stream = b"".join(bytes(d.left.entries + d.right.entries)
                      for d in enumerate_dimonoids_backtracking(4, max_n=4))
    assert hashlib.sha256(stream).hexdigest() == ORDER_FOUR_STREAM_SHA256
    assert catalog._iso_catalog.cache_info().currsize == 0


def test_fill_reads_any_binding_shape(semigroups):
    # the left tables that pair with a fixed right table bind the filled
    # table to other places than the right-table enumerator does
    for n in (2, 3):
        for right in semigroups[n]:
            places = {"l": None, "r": right.entries}
            lefts = _fill(n, [tuple(places[t] for t in b) for b in AXIOM_BINDINGS])
            assert list(lefts) == [(t, []) for t in semigroups[n] if axioms_ok(t, right)]
    # every left table at n = 2, associative or not, against the four bindings
    # that read the right table; a forced value can then fall outside the
    # domain that the first axiom leaves a cell
    tables = [OpTable(2, e) for e in product(range(2), repeat=4)]
    bindings = [b for b in AXIOM_BINDINGS if "r" in b]
    for left in tables:
        places = {"l": left.entries, "r": None}
        rights = _fill(2, [tuple(places[t] for t in b) for b in bindings])

        def holds(right):
            t = {"l": left.entries, "r": right.entries}
            return all(first_failure(2, lambda a, b, c: t[p][t[q][a * 2 + b] * 2 + c]
                                     == t[r][a * 2 + t[s][b * 2 + c]]) is None
                       for p, q, r, s in bindings)

        assert list(rights) == [(t, []) for t in tables if holds(t)]


def test_order_four_trivial_dimonoids_are_the_semigroups(order_four):
    trivial = [d.left for d in order_four if d.left == d.right]
    assert trivial == list(enumerate_semigroups(4))
    assert len(trivial) == 3492


def test_semigroup_counts_match_published_sequences():
    # labeled: OEIS A023814; up to isomorphism: A027851; up to isomorphism
    # or anti-isomorphism: A001423
    labeled, iso, iso_or_anti = [], [], []
    for n in (1, 2, 3, 4):
        tables = list(enumerate_semigroups(n))
        labeled.append(len(tables))
        iso.append(len({canonical_key(t) for t in tables}))
        iso_or_anti.append(len({min(canonical_key(t), canonical_key(dual_table(t)))
                                for t in tables}))
    assert labeled == [1, 8, 113, 3492]
    assert iso == [1, 5, 24, 188]
    assert iso_or_anti == [1, 4, 18, 126]


def leaders(n):
    """The lex leaders among the associative tables of order n, each with the
    automorphisms the fill carries for it."""
    fill = _fill(n, [(None, None, None, None)], _symmetric_group(n)[1:])
    return [(t.entries, auts) for t, auts in fill]


def test_leaders_are_the_least_left_tables_of_the_stream():
    # against the unpruned fill, since the stream is built from these leaders
    for n, count in ((1, 1), (2, 5), (3, 24), (4, 188)):
        lead = [t for t, _ in leaders(n)]
        unpruned = _fill(n, catalog._ASSOCIATIVITY)
        assert lead == sorted({canonical_key(t)[0] for t, _ in unpruned})
        assert len(lead) == count


def test_semigroup_stream_equals_the_unpruned_fill():
    # the stream relabels the lex leaders; the unpruned fill runs neither the
    # prune nor the S_n expansion
    for n in (1, 2, 3, 4):
        assert [(t, []) for t in enumerate_semigroups(n)] == \
            list(_fill(n, catalog._ASSOCIATIVITY))


def test_order_five_semigroup_stream():
    # labeled semigroups of order 5: OEIS A023814; read as it streams, so the
    # test holds no second copy of the tables
    seen = Counter()

    def entries():
        for t in enumerate_semigroups(5):
            seen[t.n] += 1
            yield t.entries

    assert all(a < b for a, b in pairwise(entries()))
    assert seen == {5: 183732}


def test_leaders_match_published_semigroup_counts():
    # by full scans of S_n, not the canonical-key memo: each leader is its
    # own least relabeling and carries exactly its automorphisms other than
    # the identity, the orbit sizes n!/|Aut L| add up to the labeled semigroups
    # (OEIS A023814), and merging each leader with the least relabeling of its
    # transpose counts classes up to isomorphism or anti-isomorphism (A001423)
    labeled, iso_or_anti = [], []
    for n in (1, 2, 3, 4, 5):
        lead = leaders(n)
        relabelings = _symmetric_group(n)
        total, merged = 0, set()
        for t, auts in lead:
            images = [gather(bytes(t).translate(table)) for table, gather in relabelings]
            assert min(images) == t
            fixing = [p for p, image in zip(relabelings, images) if image == t]
            assert [relabelings[0], *auts] == fixing
            total += factorial(n) // images.count(t)
            u = dual_table(OpTable(n, t)).entries
            merged.add(min(t, *(gather(bytes(u).translate(table))
                                for table, gather in relabelings)))
        labeled.append(total)
        iso_or_anti.append(len(merged))
    lead = [t for t, _ in lead]
    assert len(lead) == 1915 and lead == sorted(set(lead))
    assert labeled == [1, 8, 113, 3492, 183732]
    assert iso_or_anti == [1, 4, 18, 126, 1160]


def test_orderly_right_fill_yields_the_least_of_each_automorphism_orbit():
    # by the minimization classify used to run: for each leader L0, the pruned
    # right fill yields exactly the least image under Aut(L0) of every right
    # table the unpruned fill yields, each with the members of Aut(L0) that
    # fix it; the orbit sizes add up to the labeled dimonoids, and the class
    # keys (L0, R) arrive sorted, leaders first
    def image(p, r):
        return p[1](bytes(r).translate(p[0]))

    for n, labeled in ((1, 1), (2, 13), (3, 267), (4, 15277)):
        identity = _symmetric_group(n)[0]
        total, keys = 0, []
        for t, auts in leaders(n):
            left = OpTable(n, t)
            group = [identity, *auts]
            least = {min(image(p, r.entries) for p in group) for r, _ in _right_tables(left)}
            pruned = [(r.entries, stab) for r, stab in _right_tables(left, auts)]
            assert [r for r, _ in pruned] == sorted(least)
            for r, stab in pruned:
                assert [identity, *stab] == [p for p in group if image(p, r) == r]
                total += factorial(n) // (len(stab) + 1)
                keys.append((t, r))
        assert total == labeled
        assert keys == sorted(keys)


def test_classify_reads_each_leaders_rectangularity_once(monkeypatch):
    calls = []

    def counted(t):
        calls.append(t)
        return rectangular_witness(t)

    monkeypatch.setattr(catalog, "rectangular_witness", counted)
    for n, lead, digest in ((3, 24, CATALOG_DIGESTS[3, "iso"]),
                            (4, 188, CATALOG_DIGESTS[4, "iso"])):
        calls.clear()
        text = dumps_catalog(classify(n))
        assert hashlib.sha256(text.encode()).hexdigest() == digest
        assert len(calls) == len(set(calls)) == lead


def test_every_commutative_trivial_pair_is_enumerated(semigroups):
    commutative = [t for t in semigroups[2] if semigroup_class(t).commutative]
    found = {(d.left, d.right) for d in enumerate_dimonoids_by_pairs(2)}
    for t in commutative:
        assert (t, t) in found


def test_classify_single_element():
    cat = classify(1)
    assert len(cat) == 1
    assert cat[0].labeled_count == 1 and cat[0].flags.trivial


def test_classify_counts(catalogs):
    for n, cat in catalogs.items():
        assert len(cat) == CLASS_COUNTS[n]
        assert sum(e.labeled_count for e in cat) == DIMONOID_COUNTS[n]
        merged = classify(n, quotient="iso_and_duality")
        assert len(merged) == CLASS_COUNTS_MOD_DUALITY[n]
        assert sum(e.labeled_count for e in merged) == DIMONOID_COUNTS[n]
        assert all(e.dual_class_id == i for i, e in enumerate(merged))


def test_classify_rejects_unknown_quotient():
    with pytest.raises(ValueError):
        classify(2, quotient="nope")


def test_catalog_entries_are_sorted_canonical_fixed_points(catalogs):
    for cat in catalogs.values():
        keys = [canonical_key(e.canonical) for e in cat]
        assert keys == sorted(keys)
        for e in cat:
            assert canonical_key(e.canonical) == (e.canonical.left.entries,
                                                  e.canonical.right.entries)


def test_dual_class_ids_resolve_and_are_involutive(catalogs):
    for cat in catalogs.values():
        for i, e in enumerate(cat):
            assert 0 <= e.dual_class_id < len(cat)
            assert cat[e.dual_class_id].dual_class_id == i
            if e.flags.abelian:
                assert e.dual_class_id == i


def test_class_statistics_are_duality_symmetric(catalogs):
    for cat in catalogs.values():
        stats = Counter((e.flags, e.halo_size, e.aut_order) for e in cat)
        dual_stats = Counter(
            (cat[e.dual_class_id].flags, cat[e.dual_class_id].halo_size,
             cat[e.dual_class_id].aut_order) for e in cat)
        assert stats == dual_stats


def test_abelian_representatives_match_their_pairing(catalogs):
    for cat in catalogs.values():
        for e in cat:
            if e.flags.abelian:
                assert are_isomorphic(e.canonical,
                                      from_right_commutative(e.canonical.left))


def test_orbit_stabilizer_reconciles_with_direct_counting():
    for n in (1, 2, 3):
        direct = Counter(canonical_key(d) for d in enumerate_dimonoids_by_pairs(n))
        cat = classify(n)
        assert len(direct) == len(cat)
        for e in cat:
            assert e.labeled_count == direct[canonical_key(e.canonical)]


def test_worker_parallelism_is_invisible():
    solo = dumps_catalog(classify(2, workers=1))
    duo = dumps_catalog(classify(2, workers=2))
    assert solo == duo


# SHA-256 of dumps_catalog(classify(n, quotient)); the catalog format must be
# versioned if these bytes ever change
CATALOG_DIGESTS = {
    (1, "iso"): "168a649913e04ea7ee2d6c029c1745555a37d9fd3f81739eae10b8ae71a195e3",
    (1, "iso_and_duality"): "168a649913e04ea7ee2d6c029c1745555a37d9fd3f81739eae10b8ae71a195e3",
    (2, "iso"): "6c9a41eab95aa5840dfb07b64b8ff636e36254cd83de95c807a270f11e609848",
    (2, "iso_and_duality"): "0aa14b4809f52770cabe70b342848c45ecc0c568e8a55ebad4438e2a28a0e961",
    (3, "iso"): "f57c3fa8ef9bed1a70d5d78fb90d6cf4ecb7fde1701f453d20df2aa1fb65e63b",
    (3, "iso_and_duality"): "2b9567515bc6997b9da4202b0ef021f4855ce72554e5136829aa4b7a84295ca8",
    (4, "iso"): "c42e8fd780bce487f6708020d044931ae2411ea6871ce910439be69e5f38e432",
    (4, "iso_and_duality"): "68f7c573303b4f5a31b87876c46cdf0e2d5fc415bec940589d86b9d20e411b37",
}


def test_catalog_bytes_are_pinned():
    for (n, quotient), digest in CATALOG_DIGESTS.items():
        text = dumps_catalog(classify(n, quotient))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (n, quotient)


# the order-5 catalogs, pinned in one test, not in CATALOG_DIGESTS: each
# test starts with cold memos, so each would pay the cold classify(5) again
ORDER_FIVE = {
    "iso": (55883, "ec4c1ab9c6cff49e2f2a99f15d907aabfeb9fcb07eb5ab702cfb45307be0a995"),
    "iso_and_duality": (
        28587, "116f0979d473c9370674f811811259d2c36910b9468fcb1218a857d296783585"),
}


def test_order_five_catalogs_and_the_cli_bounds(capsys, monkeypatch, tmp_path):
    # the library and the CLI classify orders 4 and 5 and refuse order 6;
    # the CLI writes dumps_catalog(classify(5, quotient)), so its bytes pin
    # the library's without a second dump of 18 MB
    for quotient, (classes, digest) in ORDER_FIVE.items():
        entries = classify(5, quotient)
        assert len(entries) == classes
        assert sum(e.labeled_count for e in entries) == 6488383
        path = tmp_path / f"catalog5-{quotient}.jsonl"
        flag = "iso" if quotient == "iso" else "iso-dual"
        argv = ["classify", "--n", "5", "--quotient", flag, "--out", str(path)]
        assert cli.main(argv) == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
        assert capsys.readouterr().err == f"classes: {classes}, labeled: 6488383\n"
        assert cli.main(["classify", "--n", "4", "--quotient", flag]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == CATALOG_DIGESTS[4, quotient]

    monkeypatch.setattr(catalog, "_fill", _filled_past_the_bound)
    assert cli.main(["classify", "--n", "6"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and json.loads(err)["error"]["code"] == "BoundExceeded"


def test_warm_memos_give_the_cold_catalogs():
    # the memos hand out tuples, bytes, ints and read-only records, which no
    # caller can change, so a catalog built on warm memos has the bytes of
    # one built cold
    colds = {}
    for quotient in catalog.QUOTIENTS:
        catalog._semigroup_leaders.cache_clear()
        catalog._iso_catalog.cache_clear()
        cold, warm = (classify(4, quotient) for _ in range(2))
        colds[quotient] = cold
        assert dumps_catalog(cold) == dumps_catalog(warm)
        text = dumps_catalog(warm)
        assert hashlib.sha256(text.encode()).hexdigest() == CATALOG_DIGESTS[4, quotient]
    leaders = catalog._semigroup_leaders(4)
    assert type(leaders) is tuple and len(leaders) == 188
    for left, auts in leaders:
        assert type(left) is OpTable and type(left.entries) is tuple
        assert type(auts) is tuple and all(type(p) is tuple for p in auts)
        rights = catalog._leader_right_tables(left)
        assert type(rights) is tuple and all(type(r) is bytes for r in rights)
    kept = catalog._iso_catalog(4)
    assert type(kept) is tuple and len(kept) == 734
    assert all(type(entry) is CatalogEntry for entry in kept)
    assert list(kept) == colds["iso"]


def test_classify_calls_canonical_key_once_per_class(monkeypatch):
    # the leaders carry their automorphisms, so classify keys each dimonoid
    # itself and calls canonical_key once per class, for its dual
    calls = []

    def counted(d):
        calls.append(d)
        return canonical_key(d)

    monkeypatch.setattr(catalog, "canonical_key", counted)
    for n, classes in ((2, 8), (3, 52), (4, 734)):
        calls.clear()
        assert len(classify(n)) == classes
        assert len(calls) == classes


def test_classify_runs_no_automorphism_search(monkeypatch):
    # |Aut| and the labeled counts come from counting the classify pass
    def refuse(structure):
        raise AssertionError("classify searched for automorphisms")

    monkeypatch.setattr(catalog, "automorphisms", refuse)
    for (n, quotient), digest in CATALOG_DIGESTS.items():
        text = dumps_catalog(classify(n, quotient))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (n, quotient)


def test_classify_trusts_the_axioms_the_fill_enforced(monkeypatch):
    # the representatives carry an all-ok report, so no report is rebuilt
    def refuse(left, right):
        raise AssertionError("classify rebuilt an axiom report")

    monkeypatch.setattr(dimonoid, "_axiom_report", refuse)
    for (n, quotient), digest in CATALOG_DIGESTS.items():
        text = dumps_catalog(classify(n, quotient))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (n, quotient)


def test_carried_reports_equal_the_recomputed_ones():
    for n in (1, 2, 3, 4):
        for e in classify(n):
            rep = e.canonical
            assert rep.axiom_status == check_axioms(rep)
            twin = pair(rep.left, rep.right)
            assert rep == twin and hash(rep) == hash(twin)


def test_save_load_round_trip(tmp_path, catalogs):
    for n, cat in catalogs.items():
        path = tmp_path / f"catalog{n}.jsonl"
        save_catalog(cat, path)
        assert load_catalog(path) == cat
        # byte stability across repeated saves
        first = path.read_bytes()
        save_catalog(cat, path)
        assert path.read_bytes() == first


def test_catalog_writers_pass_unix_newlines(monkeypatch, tmp_path, capsys, catalogs):
    # the default newline handling writes "\r\n" on Windows, which would
    # change the pinned bytes; Linux cannot show the translation, so the
    # test records what each writer asks open for
    asked = []

    def recording_open(*args, **kwargs):
        asked.append(kwargs.get("newline"))
        return open(*args, **kwargs)

    monkeypatch.setattr(catalog, "open", recording_open, raising=False)
    monkeypatch.setattr(cli, "open", recording_open, raising=False)
    save_catalog(catalogs[2], tmp_path / "saved.jsonl")
    assert cli.main(["classify", "--n", "2", "--out", str(tmp_path / "cli.jsonl")]) == 0
    capsys.readouterr()
    assert asked == ["\n", "\n"]
    for name in ("saved.jsonl", "cli.jsonl"):
        assert (tmp_path / name).read_bytes() == dumps_catalog(catalogs[2]).encode()


def test_catalog_lines_are_the_json_dumps_lines():
    for n in (1, 2, 3, 4):
        for quotient in catalog.QUOTIENTS:
            entries = classify(n, quotient)
            lines = dumps_catalog(entries).splitlines(keepends=True)
            assert lines == [dumps_catalog_json([e]) for e in entries], (n, quotient)


def _synthetic_base(n):
    # left zero (x * y = x) and right zero (x * y = y): every row and every
    # column differs, so a transposed or swapped table shows
    left = OpTable(n, tuple(x for x in range(n) for _ in range(n)))
    right = OpTable(n, tuple(range(n)) * n)
    return pair(left, right)


def test_catalog_lines_of_every_flag_combination():
    counts = ((0, 1, 1, 0), (3, 120, 54, 7), (5, 1, 6488383, 55882))
    for n in (1, 5):
        canonical = _synthetic_base(n)
        entries = [CatalogEntry(canonical, DiFlags(*flags), *four)
                   for flags in product((False, True), repeat=5) for four in counts]
        text = dumps_catalog(entries)
        assert text.splitlines(keepends=True) == [dumps_catalog_json([e]) for e in entries]
        assert loads_catalog(text) == entries


class OddReprInt(int):
    """An int subclass whose repr and str are not its digits."""

    def __repr__(self):
        return "OddReprInt"

    __str__ = __repr__


def _written_alike_or_refused(entry):
    """dumps_catalog writes the json.dumps bytes of the entry or refuses it,
    never other bytes; returns whether it refused."""
    try:
        text = dumps_catalog([entry])
    except FormatError:
        return True
    assert text == dumps_catalog_json([entry]), entry
    return False


def test_refused_entries_are_written_alike_or_not_at_all():
    base = CatalogEntry(_synthetic_base(5), DiFlags(False, False, False, False, True),
                        3, 120, 1, 0)
    bad = []
    for field in ("halo_size", "aut_order", "labeled_count", "dual_class_id"):
        bad += [base._replace(**{field: v}) for v in (True, False, 1.0, 2.5, None, "3")]
    for i in range(5):
        for v in (0, 1, 1.0, None, "true"):
            flags = list(base.flags)
            flags[i] = v
            bad.append(base._replace(flags=DiFlags(*flags)))
    left, right = base.canonical.left, base.canonical.right
    for v in (True, False, 1.0, None, "1"):
        cells = (v,) + right.entries[1:]
        bad.append(base._replace(canonical=DiTable(left, OpTable(5, cells))))
        bad.append(base._replace(canonical=DiTable(OpTable(5, cells), right)))
    one = OpTable(1, (0,))
    bad.append(base._replace(canonical=DiTable(left, one)))
    bad.append(base._replace(canonical=DiTable(OpTable(True, (0,)), one)))
    for entry in bad:
        # each is refused by the reader, and refused by the writer
        with pytest.raises(FormatError):
            loads_catalog(dumps_catalog_json([entry]))
        assert _written_alike_or_refused(entry), entry
    # an order True is refused whether or not the order-1 template is kept
    for warm in (False, True):
        catalog._line_template.cache_clear()
        if warm:
            dumps_catalog([base._replace(canonical=pair(one, one))])
        with pytest.raises(FormatError):
            dumps_catalog([bad[-1]])
    # a table with a cell past n * n, which json.dumps's rows drop, is refused
    longer = OpTable(5, right.entries + (0,))
    with pytest.raises(FormatError):
        dumps_catalog([base._replace(canonical=DiTable(left, longer))])
    # out-of-range cells, which the reader refuses, and int subclasses other
    # than bool are ints, which %d writes as json.dumps does
    for cell in (-1, 5, OddReprInt(2)):
        cells = (cell,) + right.entries[1:]
        entry = base._replace(canonical=DiTable(left, OpTable(5, cells)))
        assert not _written_alike_or_refused(entry)
        if type(cell) is int:
            with pytest.raises(FormatError):
                loads_catalog(dumps_catalog([entry]))
    assert not _written_alike_or_refused(base._replace(aut_order=OddReprInt(120)))


def test_load_truncated_file_reports_line(tmp_path, catalogs):
    path = tmp_path / "broken.jsonl"
    text = dumps_catalog(catalogs[2])
    path.write_text(text[:len(text) // 2].rsplit("\n", 1)[0] + "\n{\"canonical\":")
    with pytest.raises(FormatError) as err:
        load_catalog(path)
    assert err.value.line is not None and err.value.line > 1


def test_load_rejects_wrong_documents():
    with pytest.raises(FormatError) as err:
        loads_catalog('{"not": "a catalog line"}\n')
    assert err.value.line == 1
    assert loads_catalog("") == []


def test_load_rejects_non_boolean_flags(catalogs):
    doc = catalogs[2][0].to_json()
    for value in ("false", 0, 1, None):
        bad = dict(doc, flags=dict(doc["flags"], abelian=value))
        with pytest.raises(FormatError) as err:
            loads_catalog(dumps_catalog(catalogs[1]) + json.dumps(bad) + "\n")
        assert err.value.line == 2


def test_load_rejects_non_integer_counts(catalogs):
    doc = catalogs[2][0].to_json()
    for field in ("halo_size", "aut_order", "labeled_count", "dual_class"):
        for value in (str(doc[field]), True, 1.0, None):
            bad = dict(doc, **{field: value})
            with pytest.raises(FormatError) as err:
                loads_catalog(json.dumps(bad) + "\n")
            assert err.value.line == 1


def test_catalog_entry_json_round_trip(catalogs):
    e = catalogs[2][0]
    assert CatalogEntry.from_json(e.to_json()) == e


def test_load_rejects_unknown_keys_by_line(catalogs):
    # an unknown key in an entry, its canonical table or its flags is
    # refused, and the error names the line that holds it
    doc = catalogs[2][0].to_json()
    good = dumps_catalog(catalogs[1])
    for bad in (dict(doc, extra=1),
                dict(doc, canonical=dict(doc["canonical"], table=doc["canonical"]["left"])),
                dict(doc, flags=dict(doc["flags"], halo=True))):
        with pytest.raises(FormatError, match="unknown keys") as err:
            loads_catalog(good + json.dumps(bad) + "\n")
        assert err.value.line == 2
        assert str(err.value).startswith("line 2: ")


def test_suite_passes_at_small_bound():
    report = run_theorem_suite(2)
    assert report.passed
    ids = [r.id for r in report.records]
    assert "rc-pairing-iff" in ids and "naive-flip-counterexample" in ids
    assert any(line.startswith("PASS") for line in report.lines())
    doc = report.to_json()
    assert doc["passed"] is True and len(doc["records"]) == len(ids)


def test_suite_passes_over_full_order_three_catalog():
    # the duality propositions (halo/Aut invariance, the abelian equivalence,
    # commutativity preservation, labeled-structure pairing) all hold over the
    # complete order <= 3 catalog; the one nonabelian class isomorphic to its
    # own dual class is surfaced as a detail, not a failure
    report = run_theorem_suite(3)
    assert report.passed
    by_id = {r.id: r for r in report.records}
    assert by_id["duality-invariance"].passed
    assert by_id["abelian-selfdual-equivalence"].passed
    assert by_id["commutativity-duality"].passed
    pairing = by_id["nonabelian-dual-pairing"]
    assert pairing.passed
    assert pairing.details == "nonabelian classes isomorphic to their dual class: n=3 class 14"
    assert "n=3: 52 classes, 267 labeled" in by_id["catalog-counts"].details


def test_corrupting_a_table_is_detected():
    # mutation hook: flip one cell of a verified construction and the case
    # checker must report a failure with a witness
    case = next(iter(cases("lob*rob", 3)))
    assert check_construction_case(case) is None
    left = list(case.dimonoid.left.entries)
    left[4] = (left[4] + 1) % 3
    case = case._replace(dimonoid=pair(OpTable(3, tuple(left)), case.dimonoid.right))
    message = check_construction_case(case)
    assert message is not None and "axioms fail" in message


# the parameter orbits of all_cases(6), one full check each in the suite
SUITE_N6_ORBITS = 125


def test_orbit_verdicts_equal_the_per_case_checks():
    for name in CONSTRUCTION_NAMES:
        case_list = list(all_cases(6, (name,)))
        assert _case_verdicts(case_list) == [check_construction_case(c) for c in case_list]


def _counted_checks(monkeypatch) -> list:
    calls = []

    def counted(case):
        calls.append(case)
        return check_construction_case(case)

    monkeypatch.setattr(catalog, "check_construction_case", counted)
    return calls


def _orbits(case_list) -> set:
    """The parameter orbits the cases lie in, as (name, orbit) pairs, each
    computed once."""
    found = set()
    for c in case_list:
        params = tuple(c.params.items())
        if not any(name == c.name and params in orbit for name, orbit in found):
            found.add((c.name, parameter_orbit(c.params)))
    return found


def test_suite_checks_one_case_per_parameter_orbit_on_every_call(monkeypatch):
    orbits = _orbits(all_cases(6))
    assert len(orbits) == SUITE_N6_ORBITS
    calls = _counted_checks(monkeypatch)
    # a second call in the same process repeats the work: nothing is carried
    # from one call to the next
    for _ in range(2):
        calls.clear()
        assert run_theorem_suite(6).passed
        assert len(calls) == SUITE_N6_ORBITS
        assert _orbits(calls) == orbits


def _construction_record(n_max: int, name: str):
    return {r.id: r for r in run_theorem_suite(n_max).records}[f"construction-{name}"]


def _at(n, a, c):
    # the lob*rob row's hook: mutate only the choice (n, a, c)
    return lambda n_, a_, c_: (n_, a_, c_) == (n, a, c)


def _corrupt_cell(d):
    left = list(d.left.entries)
    left[5] = (left[5] + 1) % d.n
    return pair(OpTable(d.n, tuple(left)), d.right)


def _mutated_row(row, hit, mode):
    if mode == "cell":
        return row._replace(build=lambda n, a, c: (
            _corrupt_cell(row.build(n, a, c)) if hit(n, a, c) else row.build(n, a, c)))
    if mode == "swapped":
        # a valid dimonoid, but the one of the swapped parameters
        return row._replace(build=lambda n, a, c: row.build(n, *((c, a) if hit(n, a, c)
                                                                 else (a, c))))
    if mode == "halo":
        return row._replace(expect=lambda n, D, a, c: (
            (frozenset({c}), *row.expect(n, D, a, c)[1:]) if hit(n, a, c)
            else row.expect(n, D, a, c)))
    if mode == "spec":
        return row._replace(expect=lambda n, D, a, c: (
            (row.expect(n, D, a, c)[0], SymmetricProductSpec.of({a}, [D - {a}]),
             *row.expect(n, D, a, c)[2:]) if hit(n, a, c) else row.expect(n, D, a, c)))
    assert mode == "flag"
    return row._replace(expect=lambda n, D, a, c: (
        (*row.expect(n, D, a, c)[:2], False, *row.expect(n, D, a, c)[3:])
        if hit(n, a, c) else row.expect(n, D, a, c)))


@pytest.mark.parametrize("mode", ["cell", "swapped", "halo", "spec", "flag"])
def test_a_fault_off_the_orbit_leader_is_reported_as_the_per_case_check_does(
        monkeypatch, mode):
    name = "lob*rob"
    monkeypatch.setitem(constructions._ROWS, name,
                        _mutated_row(constructions._ROWS[name], _at(4, 2, 1), mode))
    case_list = list(cases(name, 4))
    # every distinct pair is in one orbit, led by (0, 1), not by (2, 1)
    assert len({parameter_orbit(c.params) for c in case_list}) == 1
    assert (case_list[0].params["a"], case_list[0].params["c"]) == (0, 1)
    expected = [check_construction_case(c) for c in case_list]
    failed = [m for m in expected if m is not None]
    assert len(failed) == 1 and failed[0].startswith("lob*rob(n=4, a=2, c=1): ")
    assert _case_verdicts(case_list) == expected
    record = _construction_record(4, name)
    assert not record.passed and record.counterexample == failed[0]


def test_a_failing_orbit_leader_adds_no_form_so_the_next_case_is_checked_in_full(
        monkeypatch):
    name = "lob*rob"
    monkeypatch.setitem(constructions._ROWS, name,
                        _mutated_row(constructions._ROWS[name], _at(4, 0, 1), "cell"))
    case_list = list(cases(name, 4))
    expected = [check_construction_case(c) for c in case_list]
    assert expected[0] is not None and expected[1:] == [None] * (len(case_list) - 1)
    calls = _counted_checks(monkeypatch)
    assert _case_verdicts(case_list) == expected
    # (0, 2) passes in full, and the rest of the orbit shares its form
    assert [(c.params["a"], c.params["c"]) for c in calls] == [(0, 1), (0, 2)]
    record = _construction_record(4, name)
    assert not record.passed and record.counterexample == expected[0]


def test_an_orbit_that_fails_throughout_reports_every_case(monkeypatch):
    # every case asserts a wrong flag, so all share one normal form and all
    # fail: a failed form must not decide the next case
    name = "lob*rob"
    monkeypatch.setitem(constructions._ROWS, name, _mutated_row(
        constructions._ROWS[name], lambda n, a, c: n == 4, "flag"))
    case_list = list(cases(name, 4))
    assert len({constructions._normal_form(c) for c in case_list}) == 1
    calls = _counted_checks(monkeypatch)
    verdicts = _case_verdicts(case_list)
    assert [c.params for c in calls] == [c.params for c in case_list]
    assert len(verdicts) == 12
    for case, msg in zip(case_list, verdicts):
        assert msg == f"{case.describe()}: abelian=True, expected False"


def test_pairing_records_read_one_semigroup_per_class(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the labeled semigroup stream was read")

    visited = []

    def counted(t):
        visited.append(t.n)
        return rectangular_witness(t)

    monkeypatch.setattr(catalog, "enumerate_semigroups", refuse)
    monkeypatch.setattr(catalog, "rectangular_witness", counted)
    records = catalog._pairing_records(3)
    assert [r.passed for r in records] == [True] * 3
    # the semigroup classes of orders 1, 2 and 3 (A027851)
    assert Counter(visited) == {1: 1, 2: 5, 3: 24}


def test_rc_pairing_iff_over_all_order_three(semigroups):
    from dimonoids import axioms_ok, dual_table
    assert len(semigroups[3]) == 113
    for t in semigroups[3]:
        assert axioms_ok(t, dual_table(t)) == semigroup_class(t).right_commutative
