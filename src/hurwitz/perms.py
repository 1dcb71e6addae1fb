"""Permutations of {1, ..., d} as tuples of images.

A permutation is stored in one-line notation: a tuple ``p`` of length d
with ``p[i-1]`` the image of the point i.  Points are 1-based and the
degree is capped at 16, which keeps every value hashable, compact and
cheap to compare.

Composition is left-to-right everywhere in this package:
``compose(p, q)`` applies p first, then q.  Conjugation follows the same
convention, ``conjugate(t, s) == s^-1 t s``.
"""

from __future__ import annotations

import math
from functools import lru_cache, reduce
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

Perm = tuple[int, ...]

MAX_DEGREE = 16


def check_perm(p: Sequence[int]) -> Perm:
    """Validate one-line images and return them as a tuple.

    >>> check_perm([2, 1, 3])
    (2, 1, 3)
    """
    t = tuple(p)
    if not 0 < len(t) <= MAX_DEGREE:
        raise ValueError("degree must be between 1 and %d, got %d" % (MAX_DEGREE, len(t)))
    if sorted(t) != list(range(1, len(t) + 1)):
        raise ValueError("not a permutation of 1..%d: %r" % (len(t), t))
    return t


def identity(d: int) -> Perm:
    return tuple(range(1, d + 1))


def compose(p: Perm, q: Perm) -> Perm:
    """Left-to-right product: apply p, then q, as one C-level gather.
    q may be any sequence; the result is always a tuple.

    >>> compose((2, 1, 3), (1, 3, 2))   # (1 2) then (2 3)
    (3, 1, 2)
    """
    if len(p) != len(q):
        raise ValueError("degree mismatch: %d vs %d" % (len(p), len(q)))
    image = itemgetter(*p)((0, *q))
    return image if len(p) > 1 else (image,)  # one index gathers a bare int


def inverse(p: Sequence[int]) -> Perm:
    """The inverse permutation.  Memoized on tuple(p) in a bounded
    cache, so a list inverts too.

    >>> inverse((2, 3, 1))
    (3, 1, 2)
    """
    return _inverse(tuple(p))


@lru_cache(maxsize=1024)
def _inverse(p: Perm) -> Perm:
    inv = [0] * len(p)
    for i, j in enumerate(p, start=1):
        inv[j - 1] = i
    return tuple(inv)


def conjugate(t: Perm, s: Perm) -> Perm:
    """Return s^-1 t s (apply s^-1, then t, then s).

    >>> conjugate((2, 1, 3), (1, 3, 2))   # (1 2) conjugated by (2 3)
    (3, 2, 1)
    """
    return compose(compose(inverse(s), t), s)


def product(perms: Iterable[Perm], d: int) -> Perm:
    """Left-to-right product from the first factor, one compose per
    further factor; the identity of degree d when there is none.

    >>> product([(2, 1, 3), (1, 3, 2), (2, 1, 3)], 3)
    (3, 2, 1)
    """
    perms = iter(perms)
    acc = next(perms, None)
    if acc is None:
        return identity(d)
    return reduce(compose, perms, acc)


@lru_cache(maxsize=None)
def transposition(d: int, i: int, j: int) -> Perm:
    assert 1 <= i <= d and 1 <= j <= d and i != j
    images = list(range(1, d + 1))
    images[i - 1], images[j - 1] = j, i
    return tuple(images)


def is_transposition(p: Sequence[int]) -> bool:
    """Is p a transposition of its degree?  A table lookup, so images
    that are not a permutation, such as (2, 3, 3), read False."""
    return 0 < len(p) <= MAX_DEGREE and tuple(p) in transposition_points(len(p))


@lru_cache(maxsize=None)
def transposition_points(d: int) -> dict[Perm, tuple[int, int]]:
    """Each transposition of S_d mapped to its two points, the lesser
    first, in the order of all_transpositions.  One shared table per
    degree: read it, never change it."""
    return {transposition(d, i, j): (i, j)
            for i in range(1, d + 1) for j in range(i + 1, d + 1)}


def point_pairs(ts: Sequence[Sequence[int]], d: int) -> list[tuple[int, int]] | None:
    """The two points of each entry of ts, or None when an entry is not
    a transposition of degree d.

    >>> point_pairs([(2, 1, 3), (1, 3, 2)], 3)
    [(1, 2), (2, 3)]
    """
    pairs = list(map(transposition_points(d).get, map(tuple, ts)))
    return None if None in pairs else pairs


def pair_product(pairs: Sequence[tuple[int, int]], d: int) -> Perm:
    """The left-to-right product of the transpositions with these point
    pairs, by swaps: t_1 t_2 ... t_k applies t_1 first, so its images
    are those of t_2 ... t_k with the places of t_1's two points
    swapped.

    >>> pair_product([(1, 2), (2, 3)], 3) == product([(2, 1, 3), (1, 3, 2)], 3)
    True
    """
    images = list(range(d + 1))
    for a, b in reversed(pairs):
        images[a], images[b] = images[b], images[a]
    return tuple(images[1:])


def cycles(p: Perm) -> list[tuple[int, ...]]:
    """Cycle decomposition including fixed points, each cycle starting at
    its least element, cycles sorted by least element.

    >>> cycles((2, 3, 1, 4))
    [(1, 2, 3), (4,)]
    """
    return _cycles(p)


def _cycles(p: Perm) -> list[tuple[int, ...]]:
    # the walk of cycles, uncounted: the memo bodies that read cycles call this
    seen = [False] * len(p)
    out = []
    for start in range(1, len(p) + 1):
        if seen[start - 1]:
            continue
        cyc = [start]
        seen[start - 1] = True
        nxt = p[start - 1]
        while nxt != start:
            cyc.append(nxt)
            seen[nxt - 1] = True
            nxt = p[nxt - 1]
        out.append(tuple(cyc))
    return out


def cycle_type(p: Perm) -> tuple[int, ...]:
    """Multiset of cycle lengths, descending, fixed points included.

    >>> cycle_type((2, 3, 1, 4))
    (3, 1)
    """
    return tuple(sorted((len(c) for c in cycles(p)), reverse=True))


def weight(p: Sequence[int]) -> int:
    """Minimal number of transpositions with product p: d minus the
    number of cycles, as cycles walks them.  Drops by exactly one under
    a well-chosen transposition multiplier; the induction metric of the
    handle trivialization.  Memoized on tuple(p) in a bounded cache, so
    a list weighs too.

    >>> weight((2, 3, 1, 4))
    2
    """
    return _weight(tuple(p))


@lru_cache(maxsize=1024)
def _weight(p: Perm) -> int:
    return len(p) - len(_cycles(p))


def sign(p: Perm) -> int:
    return -1 if weight(p) % 2 else 1


def support(p: Perm) -> tuple[int, ...]:
    return tuple(i for i, j in enumerate(p, start=1) if i != j)


def from_cycles(d: int, cycs: Iterable[Sequence[int]]) -> Perm:
    images = list(range(1, d + 1))
    for cyc in cycs:
        for a, b in zip(cyc, list(cyc[1:]) + [cyc[0]]):
            images[a - 1] = b
    return check_perm(images)


@lru_cache(maxsize=256)
def parse_perm(text: str) -> Perm:
    """Parse one-line comma-separated images, e.g. "2,1,3", in the one
    spelling format_perm writes.  Memoized on the text in a bounded
    cache; a malformed text raises every time."""
    try:
        images = [int(s) for s in text.split(",")]
        # int() also reads signs, spaces, "_", leading zeros and other digits
        if ",".join(map(str, images)) != text:
            raise ValueError(text)
    except ValueError:
        raise ValueError("bad permutation text: %r" % text) from None
    return check_perm(images)


def format_perm(p: Sequence[int]) -> str:
    """One-line text of the images, e.g. "2,1,3".  Memoized on tuple(p)
    in a bounded cache, so a list formats too."""
    return _format(tuple(p))


@lru_cache(maxsize=1024)
def _format(p: Perm) -> str:
    return ",".join(map(str, p))


def all_transpositions(d: int) -> list[Perm]:
    """All transpositions of S_d in lexicographic order of their points."""
    return list(transposition_points(d))


def orbit_blocks(gens: Sequence[Perm], d: int) -> list[tuple[int, ...]]:
    """Orbits of <gens> on {1..d}, as sorted tuples sorted by least element.

    A breadth-first walk: each point not yet reached, in increasing
    order, starts a block, which grows by the images of its points under
    every generator until it is closed.  With no generators every point
    is its own block.

    >>> orbit_blocks([transposition(5, 1, 3), transposition(5, 4, 5)], 5)
    [(1, 3), (2,), (4, 5)]
    """
    reached = [False] * (d + 1)
    blocks = []
    for start in range(1, d + 1):
        if reached[start]:
            continue
        reached[start] = True
        block = [start]
        for pt in block:  # the walk appends to the list it reads
            for g in gens:
                img = g[pt - 1]
                if not reached[img]:
                    reached[img] = True
                    block.append(img)
        blocks.append(tuple(sorted(block)))
    return blocks


class PermGroup:
    """Permutation group via a stabilizer chain (deterministic
    Schreier-Sims).  Good to degree 16; orders are exact ints."""

    def __init__(self, gens: Sequence[Perm], d: int):
        self.d = d
        self.gens = [check_perm(g) for g in gens]
        for g in self.gens:
            if len(g) != d:
                raise ValueError("generator degree %d does not match d=%d" % (len(g), d))
        # chain[k] = (base point, {point: transversal element mapping base->point}, gens of stabilizer)
        self._chain: list[tuple[int, dict[int, Perm], list[Perm]]] = []
        self._build(self.gens, list(range(1, d + 1)))

    def _build(self, gens: list[Perm], candidates: list[int]) -> None:
        gens = [g for g in gens if g != identity(self.d)]
        if not gens:
            return
        base = next(b for b in candidates if any(g[b - 1] != b for g in gens))
        transversal = {base: identity(self.d)}
        frontier = [base]
        while frontier:
            pt = frontier.pop(0)
            for g in gens:
                img = g[pt - 1]
                if img not in transversal:
                    transversal[img] = compose(transversal[pt], g)
                    frontier.append(img)
        # Sims filter: one kept generator per (first moved point, image);
        # a Schreier generator that meets one is divided by it, which
        # fixes that point, until it is kept or is the identity
        kept: dict[tuple[int, int], Perm] = {}
        for pt, rep in transversal.items():
            for g in gens:
                schreier = compose(compose(rep, g), inverse(transversal[g[pt - 1]]))
                for x in range(1, self.d + 1):
                    y = schreier[x - 1]
                    if y == x:
                        continue
                    if (x, y) not in kept:
                        kept[x, y] = schreier
                        break
                    schreier = compose(schreier, inverse(kept[x, y]))
        self._chain.append((base, transversal, gens))
        self._build(list(kept.values()), [c for c in candidates if c != base])

    def order(self) -> int:
        n = 1
        for _, transversal, _ in self._chain:
            n *= len(transversal)
        return n

    def __contains__(self, p: Perm) -> bool:
        if len(p) != self.d:
            return False
        for base, transversal, _ in self._chain:
            img = p[base - 1]
            if img not in transversal:
                return False
            p = compose(p, inverse(transversal[img]))
        return p == identity(self.d)

    def elements(self) -> Iterator[Perm]:
        """All elements; only sensible for small orders."""

        def rec(k: int, prefix: Perm) -> Iterator[Perm]:
            if k < 0:
                yield prefix
                return
            _, transversal, _ = self._chain[k]
            for rep in transversal.values():
                yield from rec(k - 1, compose(prefix, rep))

        yield from rec(len(self._chain) - 1, identity(self.d))


def group_order(gens: Sequence[Perm], d: int) -> int:
    if not gens:
        return 1
    return PermGroup(gens, d).order()


def is_symmetric(gens: Sequence[Sequence[int]], d: int) -> bool:
    """Does <gens> equal the full S_d?  Entries are read as tuples, so
    lists are fine.

    Shortcut: transpositions whose supports link all d points generate
    S_d, so when the degree-d transpositions among gens form one orbit
    the answer is yes without a stabilizer chain.  The classical fact is
    checked on every transposition set of degree at most 5 by
    tests/test_perms.py::test_transpositions_generate_the_block_product.
    When gens are all transpositions, their orbits decide alone.

    Otherwise, if gens hold a transposition, close the point pairs of
    those transpositions under every generator, {a, b} -> {g(a), g(b)},
    and ask whether the closed pairs link all d points.  This is exact:
    the closed set is the union of the G-conjugacy classes of those
    transpositions, so it generates a normal subgroup N of G = <gens>,
    and N is the product of the symmetric groups on the components of
    the pairs.  One component makes N = S_d, so G = S_d; and if
    G = S_d, the closed set is every transposition, one component.
    With no transposition among gens, <gens> must be transitive and
    have order d!, by a stabilizer chain.
    """
    if d == 1:
        return True
    table = transposition_points(d)
    try:
        linking = table.keys() & gens
    except TypeError:  # list entries
        gens = [tuple(g) for g in gens]
        linking = table.keys() & gens
    if linking:
        if len(orbit_blocks(linking, d)) == 1:
            return True
        if linking.issuperset(gens):
            return False
        pairs = {table[t] for t in linking}
        todo = list(pairs)
        for a, b in todo:  # the walk appends to the list it reads
            for g in gens:
                x, y = g[a - 1], g[b - 1]
                pair = (x, y) if x < y else (y, x)
                if pair not in pairs:
                    pairs.add(pair)
                    todo.append(pair)
        return len(orbit_blocks([transposition(d, a, b) for a, b in pairs], d)) == 1
    if len(orbit_blocks(gens, d)) != 1:
        return False
    return group_order(gens, d) == math.factorial(d)


def transposition_blocks(ts: Sequence[Perm], d: int) -> list[tuple[int, ...]]:
    """Orbit partition of {1..d} under a list of transpositions, by the
    breadth-first walk of orbit_blocks: each block is a connected
    component of the graph whose edges are the transpositions' supports.

    The group they generate is the direct product of the full symmetric
    groups on the blocks (a classical theorem; tests/test_perms.py checks
    it on every transposition set of degree at most 5).
    """
    for t in ts:
        if not is_transposition(t):
            raise ValueError("not a transposition: %r" % (t,))
    return orbit_blocks(ts, d)
