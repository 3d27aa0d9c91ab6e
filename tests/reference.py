"""Reference routes: the second route behind every count and search the tests
check, each by its definition.

- The n! scan of S_n: the isomorphisms between two structures (behind
  `automorphisms`, `are_isomorphic` and the duality pairing) and the
  relabelings of a table (behind `canonical_key` and its left-table memo).
- The table filters: every n^(n*n) table filtered by associativity (behind
  `enumerate_semigroups`), and every ordered pair of semigroups filtered by
  the pairing axioms (behind `enumerate_dimonoids_backtracking`).
- The cell-by-cell scan of triples (behind the identity kernels), of
  element roles (behind the role scan) and of a relabeled table (behind
  `relabel_table`).
- The n! scan of a construction's parameters: their relabeling orbit
  (behind the suite's normal forms).
- The json.dumps catalog writer: one encoder call per entry document
  (behind `dumps_catalog`'s line template).

They read the package's data types and single-map checks (`OpTable`,
`pair`, `Permutation`, `check_morphism`, `relabel_table`, `axioms_ok`,
`CatalogEntry.to_json`), never an engine they check;
tests/test_reference.py parses this file to hold it to that.  The pair filter reads `catalog.enumerate_semigroups` at
call time, so a test can patch the stream under it.
"""

import json
from itertools import permutations, product

import dimonoids.catalog as catalog
from dimonoids import (
    BoundExceeded,
    OpTable,
    Permutation,
    as_ditable,
    axioms_ok,
    check_morphism,
    pair,
    relabel_table,
)
from dimonoids.tables import check_size


def all_permutations(n):
    """Every member of S_n, in lexicographic order of its images."""
    return map(Permutation, permutations(range(n)))


def relabel_by_cells(t, p):
    """relabel_table by its definition, one cell at a time:
    new(p(x), p(y)) = p(old(x, y))."""
    n, img = t.n, p.images
    out = [None] * (n * n)
    for x, y in product(range(n), repeat=2):
        out[img[x] * n + img[y]] = img[t.entries[x * n + y]]
    return OpTable(n, tuple(out))


def isomorphisms_by_scan(a, b):
    """Every p in S_n with check_morphism(a, b, p).isomorphism, in
    lexicographic order, yielded as the scan reaches it."""
    for p in all_permutations(a.n):
        if check_morphism(a, b, p).isomorphism:
            yield p


def relabelings_by_scan(t):
    """(p(t).entries, p) for every p in S_n, in lexicographic order of p."""
    return [(relabel_table(t, p).entries, p) for p in all_permutations(t.n)]


def reference_key(d):
    """canonical_key by its definition: the least relabeled table pair."""
    d = as_ditable(d)
    return min((left, relabel_table(d.right, p).entries)
               for left, p in relabelings_by_scan(d.left))


def reference_minimizers(t):
    """The least relabeled table and every permutation reaching it, in
    lexicographic order."""
    parts = relabelings_by_scan(t)
    least = min(part for part, _ in parts)
    return least, [p for part, p in parts if part == least]


def first_failure(n, holds):
    """The first triple, in lexicographic scan order, where `holds` is false."""
    return next((w for w in product(range(n), repeat=3) if not holds(*w)), None)


def reference_assoc(t):
    n, e = t.n, t.entries
    return first_failure(n, lambda x, y, z: e[e[x * n + y] * n + z] == e[x * n + e[y * n + z]])


def reference_rect(t):
    n, e = t.n, t.entries
    return first_failure(n, lambda x, y, z: e[e[x * n + y] * n + z] == e[x * n + z])


def reference_rc(t):
    n, e = t.n, t.entries
    return first_failure(n, lambda s, x, y: e[e[s * n + x] * n + y] == e[e[s * n + y] * n + x])


def reference_report(le, re_):
    """The five axioms evaluated cell by cell, in AxiomReport field order."""
    n, l, r = le.n, le.entries, re_.entries
    return (
        first_failure(n, lambda x, y, z: l[l[x * n + y] * n + z] == l[x * n + l[y * n + z]]),
        first_failure(n, lambda x, y, z: r[r[x * n + y] * n + z] == r[x * n + r[y * n + z]]),
        first_failure(n, lambda x, y, z: l[l[x * n + y] * n + z] == l[x * n + r[y * n + z]]),
        first_failure(n, lambda x, y, z: l[r[x * n + y] * n + z] == r[x * n + l[y * n + z]]),
        first_failure(n, lambda x, y, z: r[l[x * n + y] * n + z] == r[x * n + r[y * n + z]]),
    )


def reference_roles(t):
    """Per element, cell by cell: left zero, right zero, left identity, right
    identity, idempotent."""
    rng = range(t.n)
    return [(all(t.entry(x, a) == x for a in rng), all(t.entry(a, x) == x for a in rng),
             all(t.entry(x, a) == a for a in rng), all(t.entry(a, x) == a for a in rng),
             t.entry(x, x) == x)
            for x in rng]


def moved_params(params, p):
    """A construction's parameters moved along p in S_n: a subset element by
    element, a point to its image; n stays."""
    return {k: v if k == "n" else frozenset(map(p, v)) if isinstance(v, frozenset) else p(v)
            for k, v in params.items()}


def parameter_orbit(params):
    """The relabeling orbit of a construction's parameters: their images
    under every member of S_n, each as its tuple of (name, value) items."""
    return frozenset(tuple(moved_params(params, p).items())
                     for p in all_permutations(params["n"]))


def enumerate_semigroups_brute(n):
    """Every associative table on 0..n-1, in lexicographic entry order, by
    filtering all n^(n*n) tables: 19,683 at n = 3, about 4.3e9 at n = 4."""
    check_size(n)
    for entries in product(range(n), repeat=n * n):
        t = OpTable(n, entries)
        if reference_assoc(t) is None:
            yield t


def enumerate_dimonoids_by_pairs(n):
    """Every labeled dimonoid of order n: the ordered pairs of labeled
    semigroups that pass the pairing axioms, left table lexicographic, then
    right.  It tests every pair, 12.2 million at order 4, so n is refused
    above catalog.DIMONOID_ENUM_BOUND before the stream is read."""
    check_size(n)
    if n > catalog.DIMONOID_ENUM_BOUND:
        raise BoundExceeded(f"pair filter limited to n <= {catalog.DIMONOID_ENUM_BOUND}")
    semigroups = list(catalog.enumerate_semigroups(n))
    for left in semigroups:
        for right in semigroups:
            if axioms_ok(left, right):
                yield pair(left, right)


def dumps_catalog_json(entries):
    """dumps_catalog by its definition: each entry's document by json.dumps,
    keys sorted and no spaces, one line each."""
    return "".join(json.dumps(entry.to_json(), sort_keys=True, separators=(",", ":")) + "\n"
                   for entry in entries)
