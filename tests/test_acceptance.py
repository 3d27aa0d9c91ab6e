"""Acceptance gate: one test per criterion, swept at the stated bounds.

Criterion 6 checks the duality pairing for labeled dimonoids: a nonabelian
dimonoid never equals its dual.  Between isomorphism classes the pairing is
not fixed-point free: order 3 has 35 nonabelian classes, an odd number, and
exactly one of them is isomorphic to its own dual.  The test pins that class
and the one isomorphism onto its dual, found by a brute-force permutation
scan that does not use canonical forms.
"""

import os
import time
from collections import Counter
from math import factorial

import pytest

from dimonoids import (
    all_cases,
    automorphisms,
    axioms_ok,
    canonical_key,
    classify,
    di_flags,
    dual_dimonoid,
    dual_table,
    dumps_catalog,
    enumerate_dimonoids_backtracking,
    enumerate_semigroups,
    family_sweep,
    halo,
    is_associative,
    left_zero_sg,
    lo_arrow,
    lo_tilde0,
    lob,
    loads_catalog,
    matches_symmetric_product,
    naive_flip,
    null_sg,
    pair,
    plus_zero_lo,
    right_zero_sg,
    semigroup_class,
    subsets,
)
from reference import (
    enumerate_dimonoids_by_pairs,
    enumerate_semigroups_brute,
    first_failure,
    isomorphisms_by_scan,
)

N_MAX = 6


@pytest.fixture(scope="module")
def sweep_cases():
    return list(all_cases(N_MAX))


def _rc(t):
    return semigroup_class(t).right_commutative


def test_criterion_01_family_soundness():
    start = time.monotonic()
    count = 0
    for params, table in family_sweep(N_MAX):
        assert is_associative(table) is None, params.to_json()
        count += 1
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(f"criterion 01 PASS: {count} family tables associative "
          f"(n <= {N_MAX}) in {elapsed:.2f}s")


def test_criterion_02_right_commutativity():
    checked = 0
    for n in range(1, N_MAX + 1):
        for A in subsets(range(n)):
            assert _rc(lo_tilde0(n, A))
            checked += 1
            if A:
                for a in sorted(A):
                    assert _rc(lo_arrow(n, A, a))
                    checked += 1
        assert _rc(plus_zero_lo(n))
        checked += 1
        if n >= 2:
            for a in range(n):
                for c in range(n):
                    if a != c:
                        assert _rc(lob(n, a, c))
                        checked += 1
            assert not _rc(right_zero_sg(n))
            checked += 1
    print(f"criterion 02 PASS: right commutativity exact on {checked} tables")


def test_criterion_03_construction_axioms(sweep_cases):
    for case in sweep_cases:
        report = case.dimonoid.axiom_status
        assert report.all_ok, f"{case.describe()}: {report.failures()}"
    print(f"criterion 03 PASS: {len(sweep_cases)} construction instances "
          f"satisfy every axiom (n <= {N_MAX})")


def _expected_halo(case):
    p = case.params
    name = case.name
    if name == "lo_tilde0*ro_tilde0":
        return p["A"]
    if name == "lob*rob":
        return frozenset({p["a"]})
    if name == "lo*ro+0":
        return frozenset(range(p["n"]))
    return frozenset()


def test_criterion_04_halos(sweep_cases):
    asserted = 0
    recorded = []
    for case in sweep_cases:
        computed = halo(case.dimonoid)
        if case.expected_halo is None:
            recorded.append(f"{case.describe()}: halo={sorted(computed)}")
            continue
        expected = _expected_halo(case)
        assert case.expected_halo == expected, case.describe()
        assert computed == expected, (
            f"{case.describe()}: halo {sorted(computed)} != {sorted(expected)}")
        asserted += 1
    # the small-carrier cases of the anchored-null construction are recorded,
    # not asserted; print them so the boundary values are on the run log
    boundary = [line for line in recorded if "lo_arrow*o" in line]
    print(f"criterion 04 PASS: {asserted} halos exact; recorded boundary "
          f"values: {'; '.join(boundary)}")


def _expected_aut_order(case):
    p = case.params
    n = p["n"]
    name = case.name
    if name in ("lo_arrow*ro_arrow", "lo*lo_arrow", "lo*ro_arrow"):
        return factorial(len(p["A"]) - 1) * factorial(n - len(p["A"]))
    if name == "lo_arrow*o":
        return factorial(len(p["A"]) - 1) * factorial(n - len(p["A"]))
    if name == "lo_tilde0*ro_tilde0":
        return factorial(len(p["A"])) * factorial(n - len(p["A"]))
    if name in ("lob*rob", "lob*o_fixed"):
        return factorial(n - 2)
    if name == "lo*ro+0":
        return factorial(n)
    if name == "lo_tilde0*o_fixed":
        return factorial(n - 1)
    raise AssertionError(name)


def test_criterion_05_automorphism_groups(sweep_cases):
    start = time.monotonic()
    checked = 0
    for case in sweep_cases:
        if case.aut_spec is None:
            continue
        auts = automorphisms(case.dimonoid)
        assert matches_symmetric_product(auts, case.aut_spec), case.describe()
        assert auts.order == _expected_aut_order(case), case.describe()
        checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"criterion 05 PASS: {checked} automorphism groups match their "
          f"symmetric-product shapes in {elapsed:.2f}s")


# The nonabelian classes of order <= 3 that are isomorphic to their own dual,
# keyed by (left rows, right rows), with the images of every isomorphism onto
# the dual.
SELF_DUAL_NONABELIAN = {
    (((0, 0, 0), (0, 0, 0), (2, 2, 2)), ((0, 1, 0), (0, 1, 0), (0, 1, 0))):
        [(0, 2, 1)],
}


def _rows(t):
    return tuple(tuple(row) for row in t.rows())


def test_criterion_06_duality_propositions(catalogs):
    failures = []
    self_dual_nonabelian = {}
    for n, cat in catalogs.items():
        self_paired = 0
        for idx, entry in enumerate(cat):
            d = entry.canonical
            dual = dual_dimonoid(d)
            if halo(dual) != halo(d):
                failures.append(f"n={n} class {idx}: halo not duality-invariant")
            if automorphisms(dual).perms != automorphisms(d).perms:
                failures.append(f"n={n} class {idx}: Aut not duality-invariant")
            flags = di_flags(d)
            dual_pair = d.right == dual_table(d.left)
            if not (flags.abelian == flags.self_dual == dual_pair):
                failures.append(f"n={n} class {idx}: equivalence broken")
            if flags.commutative != di_flags(dual).commutative:
                failures.append(f"n={n} class {idx}: commutativity not preserved")
            if cat[entry.dual_class_id].dual_class_id != idx:
                failures.append(f"n={n} class {idx}: dual pairing not involutive")
            # the pairing is fixed-point free on labeled nonabelian dimonoids
            if not flags.abelian and dual == d:
                failures.append(f"n={n} class {idx}: nonabelian but equal to its dual")
            if entry.dual_class_id == idx:
                self_paired += 1
            if flags.abelian:
                if entry.dual_class_id != idx:
                    failures.append(
                        f"n={n} class {idx}: abelian but dual class is "
                        f"{entry.dual_class_id}")
                continue
            # second route, without canonical forms: scan all n! permutations
            isos = [p.images for p in isomorphisms_by_scan(d, dual)]
            if bool(isos) != (entry.dual_class_id == idx):
                failures.append(
                    f"n={n} class {idx}: dual class is {entry.dual_class_id} but "
                    f"{len(isos)} isomorphism(s) onto the dual by brute force")
            if isos:
                self_dual_nonabelian[(_rows(d.left), _rows(d.right))] = isos
        merged = len(classify(n, quotient="iso_and_duality"))
        orbits = (len(cat) + self_paired) // 2
        if merged != orbits:
            failures.append(
                f"n={n}: {merged} classes up to duality, but {len(cat)} classes "
                f"with {self_paired} self-paired give {orbits}")
    if self_dual_nonabelian != SELF_DUAL_NONABELIAN:
        failures.append(
            f"nonabelian classes isomorphic to their dual: {self_dual_nonabelian}")
    assert not failures, (
        "duality propositions: "
        f"{len(failures)} failure(s): " + " | ".join(failures))


def test_criterion_07_right_commutative_pairing_lemma(semigroups):
    counts = {}
    for n in (1, 2, 3):
        tables = semigroups[n]
        counts[n] = len(tables)
        # both directions of the iff, over every labeled associative table
        for t in tables:
            assert axioms_ok(t, dual_table(t)) == _rc(t), t.rows()
    assert counts == {1: 1, 2: 8, 3: 113}
    # the order-3 count itself is cross-checked by two independent generators
    assert sum(1 for _ in enumerate_semigroups_brute(3)) == 113
    print("criterion 07 PASS: pairing-with-dual iff right-commutative over "
          f"{sum(counts.values())} tables; count 113 cross-checked")


def test_criterion_07_slow_order_four():
    count = 0
    for t in enumerate_semigroups(4):
        assert axioms_ok(t, dual_table(t)) == _rc(t)
        count += 1
    assert count == 3492
    print(f"criterion 07 (slow) PASS: lemma verified over {count} tables of order 4")


def test_criterion_08_left_zero_and_null_pairings(semigroups):
    for n in (1, 2, 3):
        lo_table = left_zero_sg(n)
        rng = range(n)
        for t in semigroups[n]:
            rect = semigroup_class(t).rectangular
            assert axioms_ok(lo_table, t) == rect, t.rows()
            e = t.entries
            for z in rng:
                cond = (all(e[z * n + u] == z for u in rng)
                        and first_failure(n, lambda x, y, w: e[e[x * n + y] * n + w]
                                          == e[x * n + z]) is None)
                assert axioms_ok(t, null_sg(n, z)) == cond, (t.rows(), z)
    print("criterion 08 PASS: left-zero and null pairing criteria exact "
          "over all labeled semigroups of order <= 3")


def test_criterion_09_naive_flip_counterexample():
    for n in range(2, N_MAX + 1):
        flipped = naive_flip(pair(left_zero_sg(n), right_zero_sg(n)))
        w = flipped.axiom_status.d1
        assert w is not None, f"n={n}"
        le, re_ = flipped.left, flipped.right
        # the flipped operations satisfy (x <|' y) <|' z = z and
        # x <|' (y |>' z) = y identically; check globally and at the witness
        for x in range(n):
            for y in range(n):
                for z in range(n):
                    assert le.entry(le.entry(x, y), z) == z
                    assert le.entry(x, re_.entry(y, z)) == y
        x, y, z = w
        assert z != y and le.entry(le.entry(x, y), z) == z \
            and le.entry(x, re_.entry(y, z)) == y
    print(f"criterion 09 PASS: flipped pair fails the first axiom with the "
          f"derived witness shape for every 2 <= n <= {N_MAX}")


def test_criterion_10_classification_determinism(catalogs):
    start = time.monotonic()
    texts = {w: dumps_catalog(classify(3, workers=w))
             for w in (1, 2, 3, os.cpu_count() or 1)}
    assert len(set(texts.values())) == 1
    elapsed = time.monotonic() - start
    assert elapsed < 120.0

    for n in (1, 2, 3):
        count_a = sum(1 for _ in enumerate_dimonoids_by_pairs(n))
        count_b = sum(1 for _ in enumerate_dimonoids_backtracking(n))
        assert count_a == count_b

    for n in (1, 2):
        direct = Counter(canonical_key(d) for d in enumerate_dimonoids_by_pairs(n))
        for entry in catalogs[n]:
            assert entry.labeled_count == direct[canonical_key(entry.canonical)]
    print(f"criterion 10 PASS: byte-identical catalogs across worker counts "
          f"{sorted(texts)}, route agreement at n <= 3, orbit-stabilizer "
          f"reconciled at n <= 2; classify(3) x{len(texts)} in {elapsed:.1f}s")


def test_criterion_11_round_trip_persistence(tmp_path, catalogs):
    for n, cat in catalogs.items():
        for quotient in ("iso", "iso_and_duality"):
            entries = cat if quotient == "iso" else classify(n, quotient=quotient)
            text = dumps_catalog(entries)
            assert dumps_catalog(entries) == text
            assert loads_catalog(text) == entries
            path = tmp_path / f"catalog-{n}-{quotient}.jsonl"
            path.write_text(text)
            assert path.read_text() == text
            assert loads_catalog(path.read_text()) == entries
    print("criterion 11 PASS: every catalog round-trips byte-stable and "
          "value-identical")
