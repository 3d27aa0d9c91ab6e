import hashlib
import json
from collections import Counter
from itertools import groupby, product
from math import factorial
from operator import attrgetter

import pytest

import dimonoids.catalog as catalog
import dimonoids.dimonoid as dimonoid
from dimonoids import (
    BoundExceeded,
    CatalogEntry,
    EmptyCarrier,
    FormatError,
    OpTable,
    SizeMismatch,
    are_isomorphic,
    automorphisms,
    axioms_ok,
    canonical_key,
    cases,
    check_axioms,
    classify,
    dual_table,
    dumps_catalog,
    enumerate_dimonoids,
    enumerate_dimonoids_backtracking,
    enumerate_semigroups,
    enumerate_semigroups_brute,
    from_right_commutative,
    load_catalog,
    loads_catalog,
    pair,
    run_theorem_suite,
    save_catalog,
    semigroup_class,
)
from dimonoids.catalog import _fill, _right_tables, check_construction_case
from dimonoids.dimonoid import AXIOM_BINDINGS
from dimonoids.morphisms import _least_left, _symmetric_group

# counts produced by this package's own enumerators and cross-checked by the
# brute-force route below; the order <= 3 numbers are frozen here on purpose
SEMIGROUP_COUNTS = {1: 1, 2: 8, 3: 113}
DIMONOID_COUNTS = {1: 1, 2: 13, 3: 267}
CLASS_COUNTS = {1: 1, 2: 8, 3: 52}
CLASS_COUNTS_MOD_DUALITY = {1: 1, 2: 6, 3: 35}


def test_semigroup_counts_and_brute_agreement(semigroups):
    for n, expected in SEMIGROUP_COUNTS.items():
        assert len(semigroups[n]) == expected
        assert semigroups[n] == list(enumerate_semigroups_brute(n))


def test_semigroup_enumeration_is_sorted_and_unique(semigroups):
    for tables in semigroups.values():
        entry_lists = [t.entries for t in tables]
        assert entry_lists == sorted(entry_lists)
        assert len(set(entry_lists)) == len(entry_lists)


def test_order_four_semigroup_count():
    assert sum(1 for _ in enumerate_semigroups(4)) == 3492


def test_enumeration_bounds():
    # the size checks run on first iteration, not on the call
    stream = enumerate_semigroups(5)
    with pytest.raises(BoundExceeded):
        next(stream)
    with pytest.raises(BoundExceeded):
        list(enumerate_semigroups_brute(4))
    with pytest.raises(BoundExceeded):
        list(enumerate_dimonoids(4))
    with pytest.raises(BoundExceeded):
        classify(4)
    with pytest.raises(EmptyCarrier):
        list(enumerate_semigroups(0))
    with pytest.raises(BoundExceeded):
        run_theorem_suite(7)
    with pytest.raises(BoundExceeded):
        run_theorem_suite(0)


def test_max_n_reaches_the_semigroup_stream(monkeypatch):
    # a caller's max_n bounds the semigroups under the dimonoids too, so
    # order 5 needs no other setting
    d = next(enumerate_dimonoids_backtracking(5, max_n=5))
    assert d.n == 5 and d.is_dimonoid
    bounds = []
    stream = catalog.enumerate_semigroups

    def recorded(n, max_n):
        bounds.append(max_n)
        return stream(n, max_n)

    monkeypatch.setattr(catalog, "enumerate_semigroups", recorded)
    list(enumerate_dimonoids(2, max_n=2))
    # classify fills the lex leaders itself and checks its bound before that
    classify(2, max_n=2)
    assert bounds == [2]

    def refuse(*args, **kwargs):
        raise AssertionError("classify filled past its bound")

    monkeypatch.setattr(catalog, "_fill", refuse)
    with pytest.raises(BoundExceeded):
        classify(3, max_n=2)


def test_enumeration_rejects_non_int_sizes():
    # a bool size would otherwise reach the catalog as "n": true
    for n in (True, 2.0):
        with pytest.raises(SizeMismatch):
            list(enumerate_semigroups(n))
        with pytest.raises(SizeMismatch):
            list(enumerate_semigroups_brute(n))
        with pytest.raises(SizeMismatch):
            classify(n)
        with pytest.raises(SizeMismatch):
            run_theorem_suite(n)


def test_dimonoid_counts_and_route_agreement():
    # the backtracking route yields the pair filter's sequence, item by item
    for n, expected in DIMONOID_COUNTS.items():
        route_a = list(enumerate_dimonoids(n))
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
    cat = classify(4, max_n=4)
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
    assert hashlib.sha256(dimonoids).hexdigest() == \
        "9df06a0f08e42fb299b799f4e7c82d8e2726515b12d4288969891d4f714465f6"


def test_order_four_stream_equals_the_direct_fill(order_four):
    # the direct route: fill the right tables of every labeled left table;
    # the stream fills them per semigroup class and relabels
    by_left = [(left, [d.right for d in group])
               for left, group in groupby(order_four, key=attrgetter("left"))]
    assert [left for left, _ in by_left] == list(enumerate_semigroups(4))
    for left, rights in by_left:
        assert rights == list(_right_tables(left))


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


def test_fill_reads_any_binding_shape(semigroups):
    # the left tables that pair with a fixed right table bind the filled
    # table to other places than the right-table enumerator does
    for n in (2, 3):
        for right in semigroups[n]:
            places = {"l": None, "r": right.entries}
            lefts = _fill(n, [tuple(places[t] for t in b) for b in AXIOM_BINDINGS])
            assert list(lefts) == [t for t in semigroups[n] if axioms_ok(t, right)]
    # every left table at n = 2, associative or not, against the four bindings
    # that read the right table; a forced value can then fall outside the
    # domain that the first axiom leaves a cell
    tables = [OpTable(2, e) for e in product(range(2), repeat=4)]
    bindings = [b for b in AXIOM_BINDINGS if "r" in b]
    rng = range(2)
    for left in tables:
        places = {"l": left.entries, "r": None}
        rights = _fill(2, [tuple(places[t] for t in b) for b in bindings])

        def holds(right):
            t = {"l": left.entries, "r": right.entries}
            return all(t[p][t[q][a * 2 + b] * 2 + c] == t[r][a * 2 + t[s][b * 2 + c]]
                       for p, q, r, s in bindings
                       for a in rng for b in rng for c in rng)

        assert list(rights) == [t for t in tables if holds(t)]


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
    """The lex leaders among the associative tables of order n."""
    return [t.entries for t in _fill(n, [(None, None, None, None)], leaders=True)]


def test_leaders_are_the_least_left_tables_of_the_stream():
    for n, count in ((1, 1), (2, 5), (3, 24), (4, 188)):
        lead = leaders(n)
        assert lead == sorted({_least_left(n, t.entries)[0] for t in enumerate_semigroups(n)})
        assert len(lead) == count


def test_leaders_match_published_semigroup_counts():
    # by full scans of S_n, no orbit index: each leader is its own least
    # relabeling, the orbit sizes n!/|Aut L| add up to the labeled semigroups
    # (OEIS A023814), and merging each leader with the least relabeling of its
    # transpose counts classes up to isomorphism or anti-isomorphism (A001423)
    labeled, iso_or_anti = [], []
    for n in (1, 2, 3, 4, 5):
        lead = leaders(n)
        relabelings = _symmetric_group(n).relabelings
        total, merged = 0, set()
        for t in lead:
            images = [tuple(map(img, gather(t))) for img, gather in relabelings]
            assert min(images) == t
            total += factorial(n) // images.count(t)
            u = dual_table(OpTable(n, t)).entries
            merged.add(min(t, *(tuple(map(img, gather(u))) for img, gather in relabelings)))
        labeled.append(total)
        iso_or_anti.append(len(merged))
    assert len(lead) == 1915 and lead == sorted(set(lead))
    assert labeled == [1, 8, 113, 3492, 183732]
    assert iso_or_anti == [1, 4, 18, 126, 1160]


def test_every_commutative_trivial_pair_is_enumerated(semigroups):
    commutative = [t for t in semigroups[2] if semigroup_class(t).commutative]
    found = {(d.left, d.right) for d in enumerate_dimonoids(2)}
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
        direct = Counter(canonical_key(d) for d in enumerate_dimonoids(n))
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
        text = dumps_catalog(classify(n, quotient, max_n=4))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (n, quotient)


def test_classify_runs_no_automorphism_search(monkeypatch):
    # |Aut| and the labeled counts come from counting the classify pass
    def refuse(structure):
        raise AssertionError("classify searched for automorphisms")

    monkeypatch.setattr(catalog, "automorphisms", refuse)
    for (n, quotient), digest in CATALOG_DIGESTS.items():
        text = dumps_catalog(classify(n, quotient, max_n=4))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (n, quotient)


def test_classify_trusts_the_axioms_the_fill_enforced(monkeypatch):
    # the representatives carry an all-ok report, so no report is rebuilt
    def refuse(left, right):
        raise AssertionError("classify rebuilt an axiom report")

    monkeypatch.setattr(dimonoid, "_axiom_report", refuse)
    for (n, quotient), digest in CATALOG_DIGESTS.items():
        text = dumps_catalog(classify(n, quotient, max_n=4))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (n, quotient)


def test_carried_reports_equal_the_recomputed_ones():
    for n in (1, 2, 3, 4):
        for e in classify(n, max_n=4):
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


def test_rc_pairing_iff_over_all_order_three(semigroups):
    from dimonoids import axioms_ok, dual_table
    assert len(semigroups[3]) == 113
    for t in semigroups[3]:
        assert axioms_ok(t, dual_table(t)) == semigroup_class(t).right_commutative
