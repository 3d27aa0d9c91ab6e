"""Permutation actions on dimonoids: homomorphism/isomorphism checking,
automorphism sets matched against products of symmetric groups, and
lexicographic canonical forms.

One backtracking search, _IsoSearch, finds the first isomorphism between two
structures of at most SEARCH_BOUND elements that extends a fixed prefix of
images.  are_isomorphic runs it once from the empty prefix.  automorphisms
runs it once per orbit of each level of a stabilizer chain and returns the
group as an AutSet: one coset representative per orbit point and level, the
order as the product of the transversal sizes, and the member set expanded
only when asked for.  matches_symmetric_product checks the order and the
generators, never the members.

canonical_key is an n! scan up to CANONICAL_BOUND, done once per semigroup
class: the scan of one left table relabels it onto every table of its class,
and an orbit index keeps, for each of them, the least table L0 of the class
with Aut(L0) and one relabeling onto L0.  The labeled dimonoid stream and
classify read the same index.

Every function here also accepts a bare OpTable where a dimonoid is expected,
treating it as the trivial dimonoid whose two operations coincide; that makes
the same machinery usable for plain semigroups.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import islice, permutations as _permutations
from math import factorial, prod
from operator import itemgetter
from typing import Callable, Iterator, NamedTuple, Optional, Sequence, Union

from .dimonoid import DiTable, _require_dimonoid, as_ditable, pair
from .errors import BadPartition, BoundExceeded, IndexOutOfRange, SizeMismatch
from .tables import OpTable

CANONICAL_BOUND = 5
# largest carrier the isomorphism search (automorphisms, are_isomorphic) takes
SEARCH_BOUND = 8


@dataclass(frozen=True, order=True)
class Permutation:
    """A bijection of 0..n-1 stored as its image tuple."""

    images: tuple[int, ...]

    @classmethod
    def of(cls, images: Sequence[int]) -> "Permutation":
        imgs = tuple(images)
        if any(not isinstance(v, int) or isinstance(v, bool) for v in imgs):
            raise IndexOutOfRange(f"images must be ints, not bools: {imgs!r}")
        if sorted(imgs) != list(range(len(imgs))):
            raise IndexOutOfRange(f"{imgs!r} is not a bijection of 0..{len(imgs) - 1}")
        return cls(imgs)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(n)))

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        return self.images[x]

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self . other)(x) = self(other(x))."""
        return Permutation(tuple(self.images[v] for v in other.images))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, v in enumerate(self.images):
            inv[v] = i
        return Permutation(tuple(inv))

    def to_json(self) -> dict:
        return {"images": list(self.images)}

    @classmethod
    def from_json(cls, doc: dict) -> "Permutation":
        return cls.of(doc["images"])


def all_permutations(n: int) -> Iterator[Permutation]:
    for images in _permutations(range(n)):
        yield Permutation(images)


def relabel_table(t: OpTable, p: Permutation) -> OpTable:
    """Transport the table along p: new(p(x), p(y)) = p(old(x, y))."""
    n, e, img = t.n, t.entries, p.images
    out = [0] * (n * n)
    for x in range(n):
        xn = x * n
        px_n = img[x] * n
        for y in range(n):
            out[px_n + img[y]] = img[e[xn + y]]
    return OpTable(n, tuple(out))


def relabel_dimonoid(d: DiTable, p: Permutation) -> DiTable:
    return pair(relabel_table(d.left, p), relabel_table(d.right, p))


class MorphismCheck(NamedTuple):
    homomorphism: bool
    isomorphism: bool


Mapping = Union[Permutation, Sequence[int], Callable[[int], int]]


def check_morphism(src: Union[OpTable, DiTable], dst: Union[OpTable, DiTable],
                   mapping: Mapping) -> MorphismCheck:
    """Check whether a total map src -> dst respects both operations, and
    whether it is additionally an isomorphism (bijective, equal carriers).

    Passing a Permutation across carriers of different sizes is a usage error
    and raises SizeMismatch; arbitrary maps between different carriers are
    fine and simply can never be isomorphisms.
    """
    src = as_ditable(src)
    dst = as_ditable(dst)
    if isinstance(mapping, Permutation):
        if src.n != dst.n or mapping.n != src.n:
            raise SizeMismatch("permutations only map a carrier to itself-sized carrier")
        images = mapping.images
    elif callable(mapping):
        images = tuple(mapping(x) for x in range(src.n))
    else:
        images = tuple(mapping)
        if len(images) != src.n:
            raise SizeMismatch(f"map must be total on 0..{src.n - 1}")
    for v in images:
        if not 0 <= v < dst.n:
            raise IndexOutOfRange(f"image {v!r} outside 0..{dst.n - 1}")

    n, m = src.n, dst.n
    sl, sr = src.left.entries, src.right.entries
    dl, dr = dst.left.entries, dst.right.entries
    hom = True
    for x in range(n):
        xn = x * n
        ix_m = images[x] * m
        for y in range(n):
            if (images[sl[xn + y]] != dl[ix_m + images[y]]
                    or images[sr[xn + y]] != dr[ix_m + images[y]]):
                hom = False
                break
        if not hom:
            break
    iso = hom and n == m and len(set(images)) == n
    return MorphismCheck(hom, iso)


class AutSet:
    """An automorphism group as a stabilizer chain (Seress, Permutation Group
    Algorithms, 2003) along a base b_0..b_{n-1}.

    transversals[k] maps each point v of the orbit of b_k under G_k, the
    subgroup that fixes b_0..b_{k-1} pointwise, to one member of G_k taking
    b_k to v: one representative per coset of G_{k+1} in G_k.  Every member is
    exactly one product t_0 . t_1 . ... . t_{n-1} of representatives, one per
    level, so the order is the product of the transversal sizes and the
    non-identity representatives generate the group.  The member set `perms`
    is expanded from those products on first access; iteration is in sorted
    order, so downstream output is deterministic.
    """

    __slots__ = ("n", "base", "transversals", "_perms")

    def __init__(self, n: int, base: Sequence[int],
                 transversals: Sequence[dict[int, Permutation]],
                 perms: Optional[frozenset[Permutation]] = None):
        self.n = n
        self.base = tuple(base)
        self.transversals = tuple(transversals)
        # the member set, expanded on first access unless already listed
        self._perms = perms

    @property
    def order(self) -> int:
        out = 1
        for reps in self.transversals:
            out *= len(reps)
        return out

    @property
    def generators(self) -> tuple[Permutation, ...]:
        """The non-identity coset representatives, level by level."""
        identity = Permutation.identity(self.n)
        return tuple(t for reps in self.transversals
                     for _, t in sorted(reps.items()) if t != identity)

    @property
    def perms(self) -> frozenset[Permutation]:
        if self._perms is None:
            members = [tuple(range(self.n))]
            for reps in reversed(self.transversals):
                if len(reps) > 1:
                    members = [tuple(map(t.images.__getitem__, h))
                               for t in reps.values() for h in members]
            self._perms = frozenset(map(Permutation, members))
        return self._perms

    def __iter__(self) -> Iterator[Permutation]:
        return iter(sorted(self.perms))

    def __contains__(self, p: Permutation) -> bool:
        return p in self.perms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AutSet):
            return NotImplemented
        return self.n == other.n and self.perms == other.perms

    def __hash__(self) -> int:
        return hash(self.perms)

    def __repr__(self) -> str:
        return f"AutSet(n={self.n}, order={self.order})"

    def is_group(self) -> bool:
        """Identity present, closed under composition and inverse."""
        if not self.perms:
            return False
        n = next(iter(self.perms)).n
        if Permutation.identity(n) not in self.perms:
            return False
        return all(p.inverse() in self.perms for p in self.perms) and all(
            p.compose(q) in self.perms for p in self.perms for q in self.perms
        )

    def to_json(self) -> dict:
        # wire format: "generators" lists every member, sorted, not the
        # generating set of the property of that name
        return {"order": self.order, "generators": [p.to_json() for p in self]}


def _element_signatures(d: DiTable) -> list[tuple]:
    """Per-element role profile preserved by every automorphism: left/right
    zero-ness, left/right identity-ness and idempotency in each table (the
    roles of tables.element_roles, read straight from the entries)."""
    n = d.n
    identity = tuple(range(n))
    sigs = []
    for x in identity:
        constant = (x,) * n
        sig = ()
        for e in (d.left.entries, d.right.entries):
            row, column = e[x * n:(x + 1) * n], e[x::n]
            sig += (row == constant, column == constant,
                    row == identity, column == identity, row[x] == x)
        sigs.append(sig)
    return sigs


class _IsoSearch:
    """The isomorphism search from d1 to d2, two structures of equal size,
    planned once and then run from any fixed prefix.

    Individualize-and-check backtracking: the elements of d1 take images in
    the order of `base`, those with the fewest candidates first, and each
    element's candidates are the elements of d2 with the same role profile.
    Each product x*y = p of either table is checked exactly once, at the level
    where the last of x, y, p gets its image, so a node checks only what it
    newly decides and a leaf is a full isomorphism.
    """

    def __init__(self, d1: DiTable, d2: DiTable):
        n = self.n = d1.n
        if n > SEARCH_BOUND:
            raise BoundExceeded(f"isomorphism search limited to n <= {SEARCH_BOUND}, got {n}")
        sig1 = _element_signatures(d1)
        sig2 = sig1 if d2 is d1 else _element_signatures(d2)
        if sorted(sig1) == sorted(sig2):
            self.candidates = [[v for v in range(n) if sig2[v] == s] for s in sig1]
        else:
            self.candidates = [[] for _ in range(n)]
        self.base = sorted(range(n), key=lambda x: len(self.candidates[x]))
        # level[x]: the position of x in base
        self.level = level = [0] * n
        for k, x in enumerate(self.base):
            level[x] = k
        # checks[k]: (target rows, x, y, x*y) for the products decided at level k;
        # conditional expressions, not max(), since this runs 2n^2 times a plan
        self.checks: list[list] = [[] for _ in range(n)]
        cells = [(x, y, lx if lx > ly else ly)
                 for x, lx in enumerate(level) for y, ly in enumerate(level)]
        for src, dst in ((d1.left, d2.left), (d1.right, d2.right)):
            rows = dst.rows()
            for (x, y, k), p in zip(cells, src.entries):
                lp = level[p]
                self.checks[k if k > lp else lp].append((rows, x, y, p))

    def first(self, prefix: Sequence[int]) -> Optional[Permutation]:
        """The first isomorphism, in search order, that maps base[k] to
        prefix[k] for every k < len(prefix); None if there is none."""
        n, base, candidates, checks = self.n, self.base, self.candidates, self.checks
        images = [-1] * n
        used = [False] * n
        for x, v in zip(base, prefix):
            if used[v] or v not in candidates[x]:
                return None
            images[x] = v
            used[v] = True
        for decided in checks[:len(prefix)]:
            for rows, a, b, p in decided:
                if rows[images[a]][images[b]] != images[p]:
                    return None

        def extend(k: int) -> bool:
            if k == n:
                return True
            x = base[k]
            for v in candidates[x]:
                if used[v]:
                    continue
                images[x] = v
                for rows, a, b, p in checks[k]:
                    if rows[images[a]][images[b]] != images[p]:
                        break
                else:
                    used[v] = True
                    if extend(k + 1):
                        return True
                    used[v] = False
            return False

        return Permutation(tuple(images)) if extend(len(prefix)) else None


def _join_orbits(orbit: list[int], g: Permutation) -> None:
    """Merge the orbit labels of every point and its image under g."""
    for x, y in enumerate(g.images):
        keep, drop = orbit[x], orbit[y]
        if keep != drop:
            for i, label in enumerate(orbit):
                if label == drop:
                    orbit[i] = keep


def automorphisms(structure: Union[OpTable, DiTable]) -> AutSet:
    """The automorphism group as a stabilizer chain along the search's base.

    Levels are filled from the deepest up, so on reaching level k the
    automorphisms found so far generate G_{k+1}.  With b_0..b_{k-1} fixed,
    one search runs per candidate image v of b_k, and only while these
    generators (with those level k has added) put v neither in the orbit of
    b_k nor in an orbit known to fail: a generator taking v to w turns a
    member of G_k taking b_k to one of them into one taking b_k to the other,
    so an orbit succeeds or fails as a whole (McKay & Piperno, "Practical
    graph isomorphism, II", 2014).  The transversal of level k is read off
    the generators from b_k.  The result equals the full n!-scan of
    automorphisms_brute (asserted in the tests).  Limited to
    n <= SEARCH_BOUND."""
    d = as_ditable(structure)
    _require_dimonoid(d)
    search = _IsoSearch(d, d)
    n, base = d.n, search.base
    identity = Permutation.identity(n)
    gens: list[Permutation] = []
    orbit = list(range(n))  # orbit label of each point under gens
    transversals: list[dict[int, Permutation]] = []  # deepest level first
    for k in reversed(range(n)):
        b = base[k]
        failed: list[int] = []
        for v in search.candidates[b]:
            if (search.level[v] < k or orbit[v] == orbit[b]
                    or any(orbit[v] == orbit[f] for f in failed)):
                continue  # v is fixed, reached already, or known to fail
            g = search.first([*base[:k], v])
            if g is None:
                failed.append(v)
            else:
                gens.append(g)
                _join_orbits(orbit, g)
        reps = {b: identity}
        reached = [b]
        for u in reached:
            for g in gens:
                w = g.images[u]
                if w not in reps:
                    reps[w] = g.compose(reps[u])
                    reached.append(w)
        transversals.append(reps)
    return AutSet(n, base, transversals[::-1])


def automorphisms_brute(structure: Union[OpTable, DiTable]) -> AutSet:
    """Reference implementation: filter all n! permutations.  The chain is
    read off the listed members along the base 0..n-1."""
    d = as_ditable(structure)
    _require_dimonoid(d)
    n = d.n
    perms = frozenset(
        p for p in all_permutations(n) if check_morphism(d, d, p).isomorphism
    )
    members = sorted(perms)
    transversals = []
    for k in range(n):
        reps: dict[int, Permutation] = {}
        for p in members:
            if p.images[:k] == tuple(range(k)):
                reps.setdefault(p.images[k], p)
        transversals.append(reps)
    return AutSet(n, range(n), transversals, perms)


@dataclass(frozen=True)
class SymmetricProductSpec:
    """Shape of an automorphism group acting naturally: every listed fixed
    point is held pointwise and each block may be permuted freely within
    itself.  Empty blocks are dropped on construction."""

    fixed: frozenset[int]
    blocks: tuple[frozenset[int], ...]

    @classmethod
    def of(cls, fixed: Sequence[int] | frozenset[int],
           blocks: Sequence[Sequence[int] | frozenset[int]]) -> "SymmetricProductSpec":
        blks = tuple(sorted((frozenset(b) for b in blocks if b), key=min))
        return cls(frozenset(fixed), blks)

    def carrier_size(self) -> int:
        """Validate that fixed points and blocks partition 0..n-1; return n."""
        parts = [self.fixed, *self.blocks]
        total = sum(len(p) for p in parts)
        union = frozenset().union(*parts) if parts else frozenset()
        if len(union) != total or union != frozenset(range(total)):
            raise BadPartition("fixed points and blocks must partition 0..n-1")
        return total

    @property
    def order(self) -> int:
        return prod(factorial(len(b)) for b in self.blocks)


def matches_symmetric_product(auts: AutSet, spec: SymmetricProductSpec) -> bool:
    """True iff the automorphism group is exactly the block-preserving group:
    its order equals the product of the block factorials and each of its
    generators fixes the fixed points and maps each block onto itself.  The
    block-preserving permutations form a group of exactly that order, so a
    generating set inside it with the same order generates all of it.  A
    spec that partitions a carrier of another size raises SizeMismatch."""
    n = spec.carrier_size()
    if n != auts.n:
        raise SizeMismatch(f"spec partitions 0..{n - 1}, the structure has {auts.n} elements")
    if auts.order != spec.order:
        return False
    for p in auts.generators:
        img = p.images
        if any(img[f] != f for f in spec.fixed):
            return False
        if any(frozenset(img[b] for b in block) != block for block in spec.blocks):
            return False
    return True


# a relabeling p as (image lookup x -> p(x), gather of the source cells)
Relabeling = tuple[Callable[[int], int], Callable[[tuple[int, ...]], tuple[int, ...]]]


class _SymmetricGroup(NamedTuple):
    """S_n with its members numbered in the lexicographic order of their image
    tuples, the order of itertools.permutations, so index 0 is the identity."""

    # every member p as a relabeling: the gather reads the old cells in the
    # relabeled table's cell order, so the relabeled entries are
    # tuple(map(image, gather(entries))), as relabel_table would build them
    relabelings: tuple[Relabeling, ...]
    # after[s][g]: the index of g . s, the relabeling by s and then by g
    after: tuple[tuple[int, ...], ...]
    # inverse[s]: the index of s^-1
    inverse: tuple[int, ...]


@lru_cache(maxsize=CANONICAL_BOUND)
def _symmetric_group(n: int) -> _SymmetricGroup:
    """S_n as relabelings, product table and inverses; built once per n on
    first use."""
    rng = range(n)
    members = list(_permutations(rng))
    index = {img: i for i, img in enumerate(members)}
    relabelings = []
    inverse = []
    for img in members:
        inv = [0] * n
        for x, v in enumerate(img):
            inv[v] = x
        inverse.append(index[tuple(inv)])
        cells = [inv[i] * n + inv[j] for i in rng for j in rng]
        # itemgetter of a single index returns the entry, not a 1-tuple
        relabelings.append((img.__getitem__, itemgetter(*cells) if n > 1 else tuple))
    after = tuple(tuple(index[tuple(g[v] for v in s)] for g in members) for s in members)
    return _SymmetricGroup(tuple(relabelings), after, tuple(inverse))


# The orbit index: each left table T met so far, mapped to its class record
# (L0, Aut(L0)) and the first s with s(T) = L0.  L0 is the least relabeled
# table of T's class and Aut(L0) lists the indices g with g(L0) = L0 into
# _symmetric_group(n); the relabelings s with s(T) = L0 are then exactly the
# g . s for g in Aut(L0).  One n! scan fills the entries of a whole class.
# The bound, counted in tables, is above the 183,732 labeled semigroups of
# order 5, so a stream or classify at order <= 5 never clears the index.
ORBIT_INDEX_BOUND = 1 << 18
# ((L0, Aut(L0)), s): the class record, shared by the class, and s
_OrbitEntry = tuple[tuple[tuple[int, ...], tuple[int, ...]], int]
_orbit_index: dict[tuple[int, ...], _OrbitEntry] = {}


def _scan_left_orbit(n: int, left: tuple[int, ...]) -> _OrbitEntry:
    """Relabel `left` by every member of S_n and index every image it takes,
    clearing the index first when the images would not fit under
    ORBIT_INDEX_BOUND.  Returns the entry of `left`."""
    relabelings, after, inverse = _symmetric_group(n)
    parts = [tuple(map(img, cells(left))) for img, cells in relabelings]
    least = min(parts)
    minimizers = [s for s, part in enumerate(parts) if part == least]
    after_first_inv = after[inverse[minimizers[0]]]
    record = (least, tuple(after_first_inv[m] for m in minimizers))
    # T = s(left) is taken to L0 by m . s^-1 for each minimizer m of left;
    # the identity comes first, so the entry of `left` leads the orbit
    orbit: dict[tuple[int, ...], _OrbitEntry] = {}
    for s, part in enumerate(parts):
        if part not in orbit:
            after_s_inv = after[inverse[s]]
            orbit[part] = (record, min(after_s_inv[m] for m in minimizers))
    if len(_orbit_index) + len(orbit) > ORBIT_INDEX_BOUND:
        _orbit_index.clear()
    _orbit_index.update(islice(orbit.items(), ORBIT_INDEX_BOUND))
    return orbit[left]


def _left_orbit(n: int, left: tuple[int, ...]) -> _OrbitEntry:
    """((L0, Aut(L0)), s) for the left table `left`: its least relabeled table,
    the automorphisms of that as indices into _symmetric_group(n), and the
    index of the first relabeling s, in lexicographic order, with
    s(left) = L0.  Read from the orbit index, scanning on a miss."""
    entry = _orbit_index.get(left)
    return _scan_left_orbit(n, left) if entry is None else entry


def _least_left(n: int, left: tuple[int, ...]
                ) -> tuple[tuple[int, ...], Callable[[tuple[int, ...]], tuple[int, ...]]]:
    """The least relabeled table L0 of the left table `left`, and the
    relabeling of entry tuples by s^-1 for the first s with s(left) = L0: it
    carries the right tables of L0 onto those of `left`."""
    (least, _), first = _left_orbit(n, left)
    group = _symmetric_group(n)
    img, cells = group.relabelings[group.inverse[first]]
    return least, lambda entries: tuple(map(img, cells(entries)))


def canonical_key(d: Union[OpTable, DiTable]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The lexicographically least (left entries, right entries) over all
    relabelings; the comparison key behind canonical_form.  The left part
    decides first, so the right part is minimized only over the relabelings
    that give the least left part L0: the g . s for g in Aut(L0), with s and
    Aut(L0) read from the orbit index, which scans all n! relabelings only
    for the first left table it meets of each semigroup class.  Limited to
    n <= CANONICAL_BOUND."""
    d = as_ditable(d)
    n = d.n
    if n > CANONICAL_BOUND:
        raise BoundExceeded(f"canonical form limited to n <= {CANONICAL_BOUND}, got {n}")
    (best_left, aut), first = _left_orbit(n, d.left.entries)
    relabelings, after, _ = _symmetric_group(n)
    after_first = after[first]
    re_ = d.right.entries
    # a plain loop: min() over a comprehension costs about 0.5 us more a call
    best_right = None
    for g in aut:
        img, cells = relabelings[after_first[g]]
        right = tuple(map(img, cells(re_)))
        if best_right is None or right < best_right:
            best_right = right
    return best_left, best_right


def canonical_form(d: Union[OpTable, DiTable]) -> DiTable:
    """The canonical representative of the isomorphism class: relabel by every
    permutation and keep the lexicographically least concatenated table pair.
    Stable under relabeling: canonical_form(relabel(d, p)) = canonical_form(d)."""
    d = as_ditable(d)
    key_l, key_r = canonical_key(d)
    return pair(OpTable(d.n, key_l), OpTable(d.n, key_r))


def are_isomorphic(d1: Union[OpTable, DiTable], d2: Union[OpTable, DiTable]) -> bool:
    """Whether some permutation maps one structure onto the other, found by
    the isomorphism search; the tables need not be associative.  Different
    carrier sizes give False, not an error.  Limited to n <= SEARCH_BOUND."""
    d1 = as_ditable(d1)
    d2 = as_ditable(d2)
    if d1.n != d2.n:
        return False
    return _IsoSearch(d1, d2).first(()) is not None
