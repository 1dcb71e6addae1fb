"""Permutation layer: composition order, cycle bookkeeping, groups."""

import random
from itertools import combinations
from math import factorial, prod

import pytest

from hurwitz.perms import (PermGroup, all_transpositions, check_perm, compose,
                           conjugate, cycle_type, cycles, from_cycles,
                           format_perm, group_order, identity, inverse,
                           is_symmetric, is_transposition, orbit_blocks,
                           parse_perm, product, sign, support, transposition,
                           transposition_blocks, weight)


def rand_perm(rng, d):
    pts = list(range(1, d + 1))
    rng.shuffle(pts)
    return tuple(pts)


class TestComposition:
    def test_left_to_right(self):
        # compose(p, q) applies p first: 1 -(12)-> 2 -(23)-> 3
        p = transposition(3, 1, 2)
        q = transposition(3, 2, 3)
        assert compose(p, q) == (3, 1, 2)
        assert compose(q, p) == (2, 3, 1)

    def test_inverse_law(self):
        rng = random.Random(1)
        for _ in range(200):
            d = rng.randrange(1, 9)
            p, q = rand_perm(rng, d), rand_perm(rng, d)
            assert compose(compose(p, q), inverse(compose(p, q))) == identity(d)
            assert inverse(compose(p, q)) == compose(inverse(q), inverse(p))

    def test_conjugate_relabels_cycles(self):
        rng = random.Random(2)
        for _ in range(100):
            d = rng.randrange(2, 9)
            t, s = rand_perm(rng, d), rand_perm(rng, d)
            assert cycle_type(conjugate(t, s)) == cycle_type(t)
        # conjugate(t, s) = s^-1 t s moves points of t through s
        t = transposition(4, 1, 2)
        s = parse_perm("2,3,1,4")  # 1->2, 2->3
        assert conjugate(t, s) == transposition(4, 2, 3)

    def test_product_empty_and_order(self):
        assert product([], 3) == identity(3)
        a, b = transposition(3, 1, 2), transposition(3, 2, 3)
        assert product([a, b], 3) == compose(a, b)

    def test_check_perm_rejects(self):
        with pytest.raises(ValueError):
            check_perm((1, 1, 3))
        with pytest.raises(ValueError):
            check_perm((0, 1))
        with pytest.raises(ValueError):
            check_perm(tuple(range(1, 18)))  # above the degree cap


class TestCycles:
    def test_cycles_cover_fixed_points(self):
        p = parse_perm("2,1,3,5,4")
        assert cycles(p) == [(1, 2), (3,), (4, 5)]
        assert cycle_type(p) == (2, 2, 1)
        assert weight(p) == 2
        assert support(p) == (1, 2, 4, 5)

    def test_from_cycles_round_trip(self):
        rng = random.Random(3)
        for _ in range(100):
            d = rng.randrange(1, 10)
            p = rand_perm(rng, d)
            assert from_cycles(d, cycles(p)) == p

    def test_sign_multiplicative(self):
        rng = random.Random(4)
        for _ in range(100):
            d = rng.randrange(1, 9)
            p, q = rand_perm(rng, d), rand_perm(rng, d)
            assert sign(compose(p, q)) == sign(p) * sign(q)

    def test_transpositions(self):
        assert all_transpositions(3) == [(2, 1, 3), (3, 2, 1), (1, 3, 2)]
        t = transposition(5, 4, 2)
        assert is_transposition(t)
        assert not is_transposition(identity(5))
        assert not is_transposition(parse_perm("2,3,1"))

    def test_format_parse(self):
        rng = random.Random(5)
        for _ in range(50):
            p = rand_perm(rng, rng.randrange(1, 10))
            assert parse_perm(format_perm(p)) == p


class TestGroups:
    def test_symmetric_order(self):
        for d in range(1, 6):
            gens = all_transpositions(d)
            assert group_order(gens, d) == [1, 1, 2, 6, 24, 120][d]
            assert is_symmetric(gens, d) == (True if d <= 2 else True)

    def test_schreier_sims_vs_enumeration(self):
        rng = random.Random(6)
        for _ in range(30):
            d = rng.randrange(2, 7)
            gens = [rand_perm(rng, d) for _ in range(rng.randrange(1, 4))]
            grp = PermGroup(gens, d)
            elements = set(grp.elements())
            assert len(elements) == grp.order()
            # closure under composition on a sample
            sample = rng.sample(sorted(elements), min(8, len(elements)))
            for x in sample:
                for y in sample:
                    assert compose(x, y) in grp

    def test_membership(self):
        grp = PermGroup([parse_perm("2,3,1,4")], 4)
        assert parse_perm("3,1,2,4") in grp
        assert transposition(4, 1, 2) not in grp

    def test_orbit_blocks(self):
        gens = [transposition(5, 1, 3), transposition(5, 4, 5)]
        assert orbit_blocks(gens, 5) == [(1, 3), (2,), (4, 5)]
        assert orbit_blocks([], 3) == [(1,), (2,), (3,)]

    def test_orbit_blocks_matches_set_closure(self):
        # reference: grow each point's orbit as a set until no generator
        # adds a point, then sort the distinct orbits by least element
        def closure_blocks(gens, d):
            orbits = set()
            for start in range(1, d + 1):
                orbit = {start}
                while True:
                    grown = orbit | {g[p - 1] for g in gens for p in orbit}
                    if grown == orbit:
                        break
                    orbit = grown
                orbits.add(tuple(sorted(orbit)))
            return sorted(orbits)

        rng = random.Random("orbit-blocks")
        for d in range(1, 17):
            assert orbit_blocks([], d) == closure_blocks([], d)
            for _ in range(20):
                gens = []
                for _ in range(rng.randrange(1, 5)):
                    if d > 1 and rng.random() < 0.5:
                        gens.append(transposition(d, *rng.sample(range(1, d + 1), 2)))
                    else:
                        # a permutation of a few points, rarely a transposition
                        pts = rng.sample(range(1, d + 1), rng.randrange(1, min(d, 4) + 1))
                        gens.append(from_cycles(d, [pts]))
                assert orbit_blocks(gens, d) == closure_blocks(gens, d)

    @pytest.mark.parametrize("handles", [0, 1])
    def test_is_symmetric_matches_group_order(self, handles):
        rng = random.Random("is-symmetric:%d" % handles)
        for d in range(1, 6):
            ts = all_transpositions(d)
            for k in range(len(ts) + 1):
                for subset in combinations(ts, k):
                    gens = [rand_perm(rng, d) for _ in range(2 * handles)] + list(subset)
                    assert is_symmetric(gens, d) == (group_order(gens, d) == factorial(d))

    def test_is_symmetric_walks_transpositions_once(self, monkeypatch):
        import hurwitz.perms as perms_module
        calls = []

        def counted(gens, d):
            calls.append(len(gens))
            return orbit_blocks(gens, d)
        monkeypatch.setattr(perms_module, "orbit_blocks", counted)
        split = [transposition(5, 1, 2), transposition(5, 3, 4), transposition(5, 1, 2)]
        linked = split + [transposition(5, 2, 5), transposition(5, 4, 5)]
        for gens, expected in ((split, False), (linked, True), ([], False)):
            calls.clear()
            assert is_symmetric(gens, 5) is expected
            assert len(calls) == 1
        # a handle that is not a transposition still needs the walk over all of gens
        calls.clear()
        assert is_symmetric(split + [(2, 3, 4, 5, 1)], 5)
        assert len(calls) == 2

    def test_transposition_blocks(self):
        ts = [transposition(4, 1, 2), transposition(4, 3, 4)]
        assert transposition_blocks(ts, 4) == [(1, 2), (3, 4)]

    def test_transpositions_generate_the_block_product(self):
        # transposition_blocks relies on this without checking it: a set of
        # transpositions generates the product of the symmetric groups on
        # its orbits.  A list generates the same group as its set, so every
        # subset at d <= 5 covers every input of those degrees.
        sets = 0
        for d in range(1, 6):
            ts = all_transpositions(d)
            for k in range(len(ts) + 1):
                for gens in combinations(ts, k):
                    blocks = orbit_blocks(gens, d)
                    assert group_order(gens, d) == prod(factorial(len(b)) for b in blocks)
                    sets += 1
        assert sets == 1099
