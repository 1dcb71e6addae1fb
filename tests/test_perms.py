"""Permutation layer: composition order, cycle bookkeeping, groups."""

import random
import time
from functools import reduce
from itertools import combinations, permutations
from math import factorial, prod

import pytest

from hurwitz.perms import (PermGroup, all_transpositions, check_perm, compose,
                           conjugate, cycle_type, cycles, from_cycles,
                           format_perm, group_order, identity, inverse,
                           is_symmetric, is_transposition, orbit_blocks,
                           pair_product, parse_perm, point_pairs, product,
                           sign, support, transposition, transposition_blocks,
                           transposition_points, weight)


def rand_perm(rng, d):
    pts = list(range(1, d + 1))
    rng.shuffle(pts)
    return tuple(pts)


class UnfilteredGroup(PermGroup):
    """PermGroup as it was before its Sims filter: every distinct
    Schreier generator is kept.  The oracle of orders and membership."""

    def _build(self, gens, candidates):
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
        stab_gens, seen = [], set()
        for pt, rep in transversal.items():
            for g in gens:
                schreier = compose(compose(rep, g), inverse(transversal[g[pt - 1]]))
                if schreier not in seen:
                    seen.add(schreier)
                    stab_gens.append(schreier)
        self._chain.append((base, transversal, gens))
        self._build(stab_gens, [c for c in candidates if c != base])


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


def reference_compose(p, q):
    """compose as the package first defined it, kept as the oracle."""
    return tuple(q[i - 1] for i in p)


class TestComposeOracle:
    @pytest.mark.parametrize("d", range(1, 5))
    def test_every_pair_up_to_degree_4(self, d):
        group = list(permutations(range(1, d + 1)))
        for p in group:
            for q in group:
                assert compose(p, q) == reference_compose(p, q)

    @pytest.mark.parametrize("d", range(5, 17))
    def test_random_pairs(self, d):
        rng = random.Random("compose:%d" % d)
        for _ in range(500):
            p, q = rand_perm(rng, d), rand_perm(rng, d)
            assert compose(p, q) == reference_compose(p, q)

    def test_degree_one_is_a_tuple(self):
        assert compose((1,), (1,)) == (1,)
        assert type(compose((1,), [1])) is tuple

    def test_list_inputs(self):
        assert compose([2, 1, 3], [1, 3, 2]) == (3, 1, 2)
        assert compose((2, 3, 1), [3, 1, 2]) == reference_compose((2, 3, 1), [3, 1, 2])

    def test_degree_mismatch(self):
        with pytest.raises(ValueError, match="degree mismatch"):
            compose((2, 1), (1, 2, 3))


def reference_product(perms, d):
    """product as a compose fold from the first factor, over a list:
    the oracle of product, which folds any iterable."""
    perms = list(perms)
    return reduce(compose, perms[1:], perms[0]) if perms else identity(d)


def outcome(fn, *args):
    """fn's result with its type, or the ValueError message it raised."""
    try:
        result = fn(*args)
    except ValueError as exc:
        return "raised", str(exc)
    return type(result), result


class TestProductOracle:
    @pytest.mark.parametrize("d", range(1, 17))
    def test_random_words(self, d):
        rng = random.Random("product:%d" % d)
        for k in range(8):
            for _ in range(25):
                factors = [rand_perm(rng, d) for _ in range(k)]
                assert outcome(product, factors, d) == outcome(reference_product, factors, d)
                # a generator is read once, as the list is
                assert product((p for p in factors), d) == product(factors, d)

    @pytest.mark.parametrize("d", range(1, 17))
    def test_a_mismatch_at_every_position(self, d):
        rng = random.Random("product-mismatch:%d" % d)
        for k in range(1, 6):
            for at in range(k):
                for other in {max(d - 1, 1), d + 1} - {d}:
                    factors = [rand_perm(rng, d) for _ in range(k)]
                    factors[at] = rand_perm(rng, other)
                    want = outcome(reference_product, factors, d)
                    assert outcome(product, factors, d) == want
                    assert outcome(product, iter(factors), d) == want
                    if k > 1:
                        assert want[0] == "raised"

    def test_degree_one_is_a_tuple(self):
        assert outcome(product, [(1,)] * 3, 1) == (tuple, (1,))
        assert outcome(product, [(1,), [1]], 1) == (tuple, (1,))


class TestTranspositionPoints:
    @pytest.mark.parametrize("d", range(1, 17))
    def test_table_names_every_transposition(self, d):
        table = transposition_points(d)
        assert list(table) == all_transpositions(d)
        assert all(table[t] == support(t) for t in table)
        assert len(table) == d * (d - 1) // 2

    @pytest.mark.parametrize("d", range(2, 17))
    def test_pair_product_is_the_product(self, d):
        rng = random.Random("pairs:%d" % d)
        ts = all_transpositions(d)
        for k in range(10):
            window = [rng.choice(ts) for _ in range(k)]
            pairs = point_pairs(window, d)
            assert pairs == [support(t) for t in window]
            assert pair_product(pairs, d) == reference_product(window, d)

    def test_point_pairs_reject_other_entries(self):
        t = transposition(3, 1, 2)
        assert point_pairs([t, [1, 3, 2]], 3) == [(1, 2), (2, 3)]
        for other in (identity(3), (2, 3, 1), (2, 1), transposition(4, 1, 2), (2, 3, 3)):
            assert point_pairs([t, other], 3) is None


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

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_is_transposition_is_two_moved_points(self, d):
        # the set lookup against the definition: exactly two points moved
        for p in permutations(range(1, d + 1)):
            assert is_transposition(p) == (len(support(p)) == 2)

    def test_is_transposition_outside_the_permutations(self):
        assert is_transposition([2, 1, 3])
        # moves two points, but is no permutation
        assert not is_transposition((2, 3, 3))
        # over the maximum degree
        assert not is_transposition((2, 1) + tuple(range(3, 18)))

    def test_format_parse(self):
        rng = random.Random(5)
        for _ in range(50):
            p = rand_perm(rng, rng.randrange(1, 10))
            assert parse_perm(format_perm(p)) == p
            # the memo is keyed on the images, so a list reads the same
            assert format_perm(list(p)) == format_perm(p) == ",".join(map(str, p))

    @pytest.mark.parametrize("text", ["2,x,1", "1,1,2", ""])
    def test_malformed_text_raises_every_time(self, text):
        # the parse memo must not keep a failure as a result
        for _ in range(2):
            with pytest.raises(ValueError):
                parse_perm(text)


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

    @pytest.mark.parametrize("d", range(2, 11))
    def test_sims_filter_keeps_orders_and_membership(self, d):
        rng = random.Random("sims:%d" % d)
        for k in range(6):
            gens = [rand_perm(rng, d) for _ in range(1 + k % 3)]
            if k % 2:  # a proper subgroup: the generators fix the first point
                gens = [(1,) + tuple(x + 1 for x in rand_perm(rng, d - 1))
                        for _ in range(2)] if d > 2 else [identity(d)]
            if k == 4:
                gens.append(transposition(d, 1, 2))
            grp, oracle = PermGroup(gens, d), UnfilteredGroup(gens, d)
            assert grp.order() == oracle.order()
            words = [product([rng.choice(gens) for _ in range(5)], d) for _ in range(20)]
            for p in words + [rand_perm(rng, d) for _ in range(20)]:
                assert (p in grp) == (p in oracle), (gens, p)
            assert all(p in grp for p in words)

    def test_sims_filter_keeps_chains_small_to_degree_16(self):
        # unfiltered, these chains took seconds at d = 14 and over a
        # minute at d = 16
        for d in range(9, 17):
            rng = random.Random(3)
            gens = [transposition(d, 1, 2), rand_perm(rng, d), rand_perm(rng, d)]
            start = time.process_time()
            order = PermGroup(gens, d).order()
            assert time.process_time() - start < 1.0, d
            assert (order == factorial(d)) == is_symmetric(gens, d)
            assert order % 2 == 0 and factorial(d) % order == 0

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


# ---------------------------------------------------------------------------
# is_symmetric by transposition closure, against the stabilizer chain

def full_by_chain(gens, d):
    return PermGroup(gens, d).order() == factorial(d)


def relabel(gens, s):
    """gens conjugated by s, so a block system of consecutive points
    lands on a scattered one."""
    return [conjugate(g, s) for g in gens]


def block_preserving(rng, b, k):
    """A random permutation of b * k points that maps each block
    {(i-1)b+1 .. ib} onto a block."""
    images = []
    for target in rng.sample(range(k), k):
        inner = rng.sample(range(1, b + 1), b)
        images += [target * b + x for x in inner]
    return tuple(images)


def imprimitive_families(rng):
    """(name, gens, d) for seeded imprimitive generator sets up to d = 8:
    wreath products S_b wr S_k, the dihedral group D4 on a square, and
    transpositions inside blocks with block-preserving permutations."""
    for b, k in ((2, 2), (2, 3), (3, 2), (2, 4), (4, 2)):
        d = b * k
        s = rand_perm(rng, d)
        base = [transposition(d, 1, 2), from_cycles(d, [range(1, b + 1)]),
                tuple((x + b - 1) % d + 1 for x in range(1, d + 1)),
                tuple(x + b if x <= b else x - b if x <= 2 * b else x for x in range(1, d + 1))]
        yield "wreath", relabel(base, s), d
        for _ in range(8):
            ts = [transposition(d, i * b + x, i * b + y)
                  for i in rng.sample(range(k), rng.randrange(1, k + 1))
                  for x, y in [rng.sample(range(1, b + 1), 2)]]
            moves = [block_preserving(rng, b, k) for _ in range(rng.randrange(1, 3))]
            yield "blocks", relabel(ts + moves, s), d
    for _ in range(4):
        s = rand_perm(rng, 4)
        yield "D4", relabel([(2, 3, 4, 1), transposition(4, 1, 3)], s), 4


class TestSymmetricByClosure:
    def test_one_transposition_and_two_permutations_at_degree_4(self):
        elements = list(permutations(range(1, 5)))
        triples = 0
        for t in all_transpositions(4):
            for x in elements:
                for y in elements:
                    assert is_symmetric([x, t, y], 4) == full_by_chain([x, t, y], 4), (x, t, y)
                    triples += 1
        assert triples == 3456

    def test_imprimitive_generators_up_to_degree_8(self):
        rng = random.Random("closure:imprimitive")
        seen = set()
        for name, gens, d in imprimitive_families(rng):
            assert not full_by_chain(gens, d)
            assert not is_symmetric(gens, d), (name, gens)
            seen.add(name)
            # one more transposition between two blocks makes the group
            # S_d or keeps it imprimitive; the chain decides which
            more = gens + [transposition(d, *rng.sample(range(1, d + 1), 2))]
            assert is_symmetric(more, d) == full_by_chain(more, d), (name, more)
        assert seen == {"wreath", "blocks", "D4"}

    @pytest.mark.parametrize("d", range(2, 9))
    def test_random_generators_with_a_transposition(self, d):
        rng = random.Random("closure:random:%d" % d)
        for _ in range(25):
            gens = [transposition(d, *rng.sample(range(1, d + 1), 2))]
            gens += [rand_perm(rng, d) if rng.random() < 0.3
                     else from_cycles(d, [rng.sample(range(1, d + 1), rng.randrange(2, d + 1))])
                     for _ in range(rng.randrange(1, 3))]
            assert is_symmetric(gens, d) == full_by_chain(gens, d), gens

    def test_generators_without_a_transposition_take_the_chain(self):
        rng = random.Random("closure:no-transposition")
        for d in range(2, 8):
            for _ in range(20):
                gens = [g for g in (rand_perm(rng, d) for _ in range(rng.randrange(1, 4)))
                        if not is_transposition(g)]
                assert is_symmetric(gens, d) == (bool(gens) and full_by_chain(gens, d)), gens

    def test_list_entries_read_as_tuples(self):
        rng = random.Random("closure:lists")
        for _ in range(100):
            d = rng.randrange(2, 7)
            gens = [rand_perm(rng, d) for _ in range(rng.randrange(0, 3))]
            gens += [transposition(d, *rng.sample(range(1, d + 1), 2))
                     for _ in range(rng.randrange(0, 3))]
            assert is_symmetric([list(g) for g in gens], d) == is_symmetric(gens, d)

    def test_no_chain_when_a_transposition_is_among_the_generators(self, monkeypatch):
        import hurwitz.perms as perms_module

        def refuse(gens, d):
            raise AssertionError("built a stabilizer chain")
        rng = random.Random("closure:no-chain")
        cases = [gens for _, gens, _ in imprimitive_families(rng)
                 if any(map(is_transposition, gens))]
        cases += [[transposition(d, 1, 2), rand_perm(rng, d), rand_perm(rng, d)]
                  for d in range(2, 9) for _ in range(5)]
        answers = [full_by_chain(gens, len(gens[0])) for gens in cases]
        assert True in answers and False in answers
        monkeypatch.setattr(perms_module, "PermGroup", refuse)
        assert [is_symmetric(gens, len(gens[0])) for gens in cases] == answers
        # up to the largest degree: (1 2) with a d-cycle is S_d; so is
        # (1 2) with the shift by two at odd d, while at even d the shift
        # preserves the blocks {2i-1, 2i}
        for d in range(9, 17):
            cycle = tuple(range(2, d + 1)) + (1,)
            assert is_symmetric([transposition(d, 1, 2), cycle], d)
            shift = tuple((x + 1) % d + 1 for x in range(1, d + 1))
            assert is_symmetric([transposition(d, 1, 2), shift], d) == bool(d % 2)
        with pytest.raises(AssertionError, match="stabilizer chain"):
            is_symmetric([(2, 3, 1)], 3)
