"""Permutation actions on dimonoids: homomorphism/isomorphism checking,
automorphism sets matched against products of symmetric groups, and
lexicographic canonical forms.

One backtracking search, _IsoSearch, finds the first isomorphism between two
structures of at most SEARCH_BOUND elements; its plan checks each product
cell once, against a code of the pair of products in both tables.
are_isomorphic runs it once from the first level.  automorphisms runs it in
place once per orbit of each level of a stabilizer chain, with the levels
above mapped to themselves, and returns the group as an AutSet: one coset
representative per orbit point and level, the order as the product of the
transversal sizes, and the members expanded from the chain into one sorted
list only when asked for.
matches_symmetric_product checks the order and the representatives, never
the members.

canonical_key is an n! scan up to CANONICAL_BOUND.  The scan of a left table
finds its least relabeled table L0 and every relabeling onto L0; a bounded
memo keeps that result per distinct left table, so the right table of each
dimonoid is relabeled only by those few.

Every function here also accepts a bare OpTable where a dimonoid is expected,
treating it as the trivial dimonoid whose two operations coincide; that makes
the same machinery usable for plain semigroups.
"""

from __future__ import annotations

import json
from functools import lru_cache
from itertools import permutations as _permutations
from math import factorial, prod
from operator import itemgetter
from typing import Callable, Iterator, NamedTuple, Optional, Sequence, Union

from .dimonoid import DiTable, _require_dimonoid, as_ditable, pair
from .errors import BadPartition, BoundExceeded, FormatError, IndexOutOfRange, SizeMismatch
from .tables import OpTable, _check_index, _check_keys, _role_scan

CANONICAL_BOUND = 5
# largest carrier the isomorphism search (automorphisms, are_isomorphic) takes
SEARCH_BOUND = 8


class Permutation(NamedTuple):
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
        if not isinstance(doc, dict) or "images" not in doc:
            raise FormatError("permutation document needs an 'images' key")
        _check_keys(doc, ("images",))
        return cls.of(doc["images"])


def relabel_table(t: OpTable, p: Permutation) -> OpTable:
    """Transport the table along p: new(p(x), p(y)) = p(old(x, y)).  A
    permutation of another size raises SizeMismatch."""
    n, e, img = t.n, t.entries, p.images
    if len(img) != n:
        raise SizeMismatch(f"a permutation of {len(img)} points cannot relabel {n} elements")
    # new(u, v) = p(old(p^-1(u), p^-1(v))), gathered row-major; the inverse
    # is built inline, as Permutation.inverse() costs about a tenth more here
    inv = [0] * n
    for x, v in enumerate(img):
        inv[v] = x
    return OpTable(n, tuple([img[e[xn + y]] for xn in [x * n for x in inv] for y in inv]))


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
    n, m = src.n, dst.n
    for v in images:
        # inline for plain ints in range; _check_index words the error for
        # the first bad image and passes int subclasses other than bool
        if type(v) is not int or not 0 <= v < m:
            _check_index(v, m, "image")

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
    subgroup that fixes b_0..b_{k-1} pointwise, to the image tuple of one
    member of G_k taking b_k to v: one representative per coset of G_{k+1}
    in G_k.  Every member is exactly one product t_0 . t_1 . ... . t_{n-1} of
    representatives, one per level, so the order is the product of the
    transversal sizes and the non-identity representatives generate the
    group.

    The members are listed only when a reader needs them: iteration,
    `perms`, membership, hashing, `to_json` and `to_json_text`, and equality
    of two groups of the same n and order.  The first such reader expands
    them once from the chain into one sorted list of image tuples, which
    every reader then shares; iteration follows that list, so downstream
    output is deterministic.  The order, the generators and
    matches_symmetric_product read only the chain.
    """

    __slots__ = ("n", "base", "transversals", "_members", "_perms")

    def __init__(self, n: int, base: Sequence[int],
                 transversals: Sequence[dict[int, tuple[int, ...]]]):
        self.n = n
        self.base = tuple(base)
        self.transversals = tuple(transversals)
        # the sorted image tuples of the members, expanded from the chain on
        # first use
        self._members: Optional[list[tuple[int, ...]]] = None
        self._perms: Optional[frozenset[Permutation]] = None

    def _member_list(self) -> list[tuple[int, ...]]:
        if self._members is None:
            members = [tuple(range(self.n))]
            # level by level from the deepest, each representative t after
            # each member h of the levels below: itemgetter(*h)(t) is t . h,
            # a tuple since n >= 2 wherever a level has two representatives
            for reps in reversed(self.transversals):
                if len(reps) > 1:
                    members = [itemgetter(*h)(t) for t in reps.values() for h in members]
            members.sort()
            self._members = members
        return self._members

    @property
    def order(self) -> int:
        out = 1
        for reps in self.transversals:
            out *= len(reps)
        return out

    @property
    def generators(self) -> tuple[Permutation, ...]:
        """The non-identity coset representatives, level by level."""
        identity = tuple(range(self.n))
        return tuple(Permutation(t) for reps in self.transversals
                     for _, t in sorted(reps.items()) if t != identity)

    @property
    def perms(self) -> frozenset[Permutation]:
        if self._perms is None:
            self._perms = frozenset(self)
        return self._perms

    def __iter__(self) -> Iterator[Permutation]:
        return map(Permutation, self._member_list())

    def __contains__(self, p: Permutation) -> bool:
        return p in self.perms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AutSet):
            return NotImplemented
        # the order is read off the chain, so groups of different orders
        # compare unequal without listing a member
        return (self.n == other.n and self.order == other.order
                and self._member_list() == other._member_list())

    def __hash__(self) -> int:
        return hash(self.perms)

    def __repr__(self) -> str:
        return f"AutSet(n={self.n}, order={self.order})"

    def to_json(self) -> dict:
        # wire format: "generators" lists every member, sorted, not the
        # generating set of the property of that name
        return {"order": self.order,
                "generators": [{"images": m} for m in map(list, self._member_list())]}

    def to_json_text(self, **fields) -> str:
        """json.dumps({**self.to_json(), **fields}, indent=2, sort_keys=True),
        byte for byte, for scalar fields.  The members are rendered by
        %-formatting one block template, built once for n, per member, not
        by the pure-Python encoder that indent selects."""
        member = ('    {\n      "images": [\n        '
                  + ",\n        ".join(["%d"] * self.n) + "\n      ]\n    }")
        values = {key: json.dumps(v) for key, v in {"order": self.order, **fields}.items()}
        values["generators"] = ("[\n" + ",\n".join([member % m for m in self._member_list()])
                                + "\n  ]")
        return "{\n" + ",\n".join(f"  {json.dumps(key)}: {values[key]}"
                                   for key in sorted(values)) + "\n}"


def _element_signatures(d: DiTable) -> list[tuple]:
    """Per-element role profile preserved by every automorphism: the five
    roles of tables._role_scan (left/right zero, left/right identity,
    idempotent) in the left table, then in the right table."""
    return [x_left + x_right
            for x_left, x_right in zip(_role_scan(d.left), _role_scan(d.right))]


class _IsoSearch:
    """The isomorphism search from d1 to d2, two structures of equal size,
    planned once.

    Individualize-and-check backtracking: the elements of d1 take images in
    the order of `base`, those with the fewest candidates first, and each
    element's candidates are the elements of d2 with the same role profile.
    Each cell x, y of d1 is checked exactly once, at the level where the last
    of x, y, x<|y and x|>y gets its image, against the pair code
    (x<|y)*n + (x|>y) of d2.  Both products are below n, so the code is
    collision-free and one comparison checks both tables.  A node checks only
    what it newly decides and a leaf is a full isomorphism.

    `images` and `used` are the search state, shared by every search run on
    this plan: the image of each element decided so far, and which elements
    of d2 those images take.  `extend(k, choices)` needs base[:k] decided and
    passing their checks; it tries the choices for base[k] in order and
    returns whether one extends to an isomorphism.  On success `images` holds
    the first one found and `used` marks all of it; on failure `used` is as
    it was.
    """

    def __init__(self, d1: DiTable, d2: DiTable):
        n = self.n = d1.n
        if n > SEARCH_BOUND:
            raise BoundExceeded(f"isomorphism search limited to n <= {SEARCH_BOUND}, got {n}")
        sig1 = _element_signatures(d1)
        sig2 = sig1 if d2 is d1 else _element_signatures(d2)
        if d2 is d1 or sorted(sig1) == sorted(sig2):
            # elements of one profile share one candidate list
            groups: dict[tuple, list[int]] = {}
            for v, s in enumerate(sig2):
                groups.setdefault(s, []).append(v)
            candidates = [groups[s] for s in sig1]
        else:
            candidates = [[] for _ in range(n)]
        self.candidates = candidates
        base = self.base = sorted(range(n), key=lambda x: len(candidates[x]))
        # level[x]: the position of x in base
        self.level = level = [0] * n
        for k, x in enumerate(base):
            level[x] = k
        # checks[k]: (x, y, x<|y, x|>y) for the cells decided at level k;
        # conditional expressions, not max(), since this runs n^2 times a plan
        checks: list[list] = [[] for _ in range(n)]
        cells = [(x, y, lx if lx > ly else ly)
                 for x, lx in enumerate(level) for y, ly in enumerate(level)]
        for (x, y, k), p, q in zip(cells, d1.left.entries, d1.right.entries):
            lp, lq = level[p], level[q]
            if lp > k:
                k = lp
            checks[k if k > lq else lq].append((x, y, p, q))
        codes = [p * n + q for p, q in zip(d2.left.entries, d2.right.entries)]
        code = [codes[i:i + n] for i in range(0, n * n, n)]
        self.images = images = [-1] * n
        self.used = used = [False] * n

        def extend(k: int, choices: Sequence[int]) -> bool:
            x, decided = base[k], checks[k]
            for v in choices:
                if used[v]:
                    continue
                images[x] = v
                for a, b, p, q in decided:
                    if code[images[a]][images[b]] != images[p] * n + images[q]:
                        break
                else:
                    used[v] = True
                    if k + 1 == n or extend(k + 1, candidates[base[k + 1]]):
                        return True
                    used[v] = False
            return False

        self.extend = extend

    def first(self) -> Optional[Permutation]:
        """The first isomorphism in search order, searched from level 0 with
        nothing decided; None if there is none."""
        self.used[:] = [False] * self.n
        if self.extend(0, self.candidates[self.base[0]]):
            return Permutation(tuple(self.images))
        return None


def _join_orbits(orbit: list[int], g: tuple[int, ...]) -> None:
    """Merge the orbit labels of every point and its image under g."""
    for x, y in enumerate(g):
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
    graph isomorphism, II", 2014).  Each search runs in place on the search
    state from level k, with base[:k] mapped to itself: the identity passes
    every check below level k, so that prefix is not checked again.  The
    transversal of level k is read off the generators from b_k.  The result
    equals the full n! scan of tests/reference.py (asserted in the tests).
    Limited to n <= SEARCH_BOUND."""
    d = as_ditable(structure)
    _require_dimonoid(d)
    search = _IsoSearch(d, d)
    n, base, level, candidates = d.n, search.base, search.level, search.candidates
    images, used, extend = search.images, search.used, search.extend
    # the identity, all of it decided; level k frees b_k before its searches
    images[:] = range(n)
    used[:] = [True] * n
    identity = tuple(range(n))
    gens: list[tuple[int, ...]] = []
    orbit = list(range(n))  # orbit label of each point under gens
    transversals: list[dict[int, tuple[int, ...]]] = []  # deepest level first
    for k in reversed(range(n)):
        b = base[k]
        used[b] = False
        failed: list[int] = []
        for v in candidates[b]:
            if (level[v] < k or orbit[v] == orbit[b]
                    or any(orbit[v] == orbit[f] for f in failed)):
                continue  # v is fixed, reached already, or known to fail
            if extend(k, (v,)):
                g = tuple(images)
                gens.append(g)
                _join_orbits(orbit, g)
                # g maps base[k:] onto itself, so those are the images it took
                for x in base[k:]:
                    used[x] = False
            else:
                failed.append(v)
        reps = {b: identity}
        reached = [b]
        for u in reached:
            for g in gens:
                w = g[u]
                if w not in reps:
                    reps[w] = tuple(map(g.__getitem__, reps[u]))
                    reached.append(w)
        transversals.append(reps)
    return AutSet(n, base, transversals[::-1])


class SymmetricProductSpec(NamedTuple):
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
    generating set inside it with the same order generates all of it.  Each
    point gets one part label, its own for a fixed point and its block's
    otherwise; a permutation keeps every label exactly when it fixes the
    fixed points and maps each block into, hence onto, itself.  A spec that
    partitions a carrier of another size raises SizeMismatch."""
    n = spec.carrier_size()
    if n != auts.n:
        covered = f"partitions 0..{n - 1}" if n else "covers no element"
        raise SizeMismatch(f"spec {covered}, the structure has {auts.n} elements")
    if auts.order != spec.order:
        return False
    # blocks take the labels n, n+1, ...; a fixed point f keeps the label f
    label = list(range(n))
    for i, block in enumerate(spec.blocks, n):
        for x in block:
            label[x] = i
    # the generators are the coset representatives other than the identity,
    # which keeps every label
    return all(list(map(label.__getitem__, t)) == label
               for reps in auts.transversals for t in reps.values())


# a relabeling p as (the images p(x) as a bytes.translate table, the gather of
# the source cells): the gather reads the old cells in the relabeled table's
# cell order, so the relabeled entries are gather(bytes(entries).translate(
# table)), as relabel_table would build them, with no Python call per cell
Relabeling = tuple[bytes, Callable[[bytes], tuple[int, ...]]]


@lru_cache(maxsize=CANONICAL_BOUND)
def _symmetric_group(n: int) -> tuple[Relabeling, ...]:
    """Every member of S_n as a relabeling, in the lexicographic order of
    their image tuples, the order of itertools.permutations, so the identity
    comes first; built once per n on first use."""
    rng = range(n)
    relabelings = []
    for img in _permutations(rng):
        inv = Permutation(img).inverse().images
        cells = [inv[i] * n + inv[j] for i in rng for j in rng]
        # itemgetter of a single index returns the entry, not a 1-tuple
        relabelings.append((bytes(img) + bytes(range(n, 256)),
                            itemgetter(*cells) if n > 1 else tuple))
    return tuple(relabelings)


# One entry per distinct left table; the bound is above the 3,492 left tables
# of the order-4 stream and the 4,549 of the duals that classify(5) keys.
@lru_cache(maxsize=1 << 16)
def _left_minimizers(n: int, left: tuple[int, ...]
                     ) -> tuple[tuple[int, ...], tuple[Relabeling, ...]]:
    """The least relabeled table L0 of the left table `left` and every
    relabeling s with s(left) = L0, in the order of _symmetric_group(n): one
    scan of all n! relabelings per distinct left table."""
    relabelings = _symmetric_group(n)
    source = bytes(left)
    parts = [cells(source.translate(table)) for table, cells in relabelings]
    least = min(parts)
    return least, tuple(s for s, part in zip(relabelings, parts) if part == least)


def canonical_key(d: Union[OpTable, DiTable]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The lexicographically least (left entries, right entries) over all
    relabelings; the comparison key behind canonical_form.  The left part
    decides first, so the right part is minimized only over the relabelings
    that give the least left part L0.  Those and L0 come from a bounded memo
    that scans all n! relabelings once per distinct left table.  Limited to
    n <= CANONICAL_BOUND."""
    d = as_ditable(d)
    n = d.n
    if n > CANONICAL_BOUND:
        raise BoundExceeded(f"canonical form limited to n <= {CANONICAL_BOUND}, got {n}")
    best_left, minimizers = _left_minimizers(n, d.left.entries)
    source = bytes(d.right.entries)
    # a plain loop: min() over a comprehension costs about 0.4 us more a call
    best_right = None
    for table, cells in minimizers:
        right = cells(source.translate(table))
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
    return _IsoSearch(d1, d2).first() is not None
