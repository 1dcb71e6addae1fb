"""Constructive normalization: split normal form, braid realization of
window rewrites, monodromy repair, handle trivialization, and the
canonical form."""

import random
from itertools import permutations

import pytest

from hurwitz import moves, normalize
from hurwitz.moves import MoveError, apply_word
from hurwitz.normalize import (NormalizeError, OrbitMismatchError, canonical_star,
                               canonicalize, prop_split_normal_form,
                               realize_block_rewrite,
                               repair_branching_monodromy,
                               sort_standard_position, trivialize_handle)
from hurwitz.orbits import BudgetError
from hurwitz.perms import (all_transpositions, cycles, from_cycles, identity,
                           compose, conjugate, inverse, is_symmetric, pair_product,
                           point_pairs, product, support, transposition)
from hurwitz.systems import (HurwitzSystem, branching_blocks, commutator,
                             is_full_monodromy, random_system, serialize,
                             validate)


def partitions_of(n):
    def rec(rest, cap):
        if rest == 0:
            yield ()
            return
        for first in range(min(rest, cap), 0, -1):
            for tail in rec(rest - first, first):
                yield (first,) + tail
    return rec(n, n)


def perm_of_type(n, lam):
    """One permutation of {1..n} per cycle type."""
    cycs, next_pt = [], 1
    for part in lam:
        cycs.append(tuple(range(next_pt, next_pt + part)))
        next_pt += part
    return from_cycles(n, cycs)


def sample_window(rng, n, w_m, g):
    """Random transposition window on {1..n} with product g and full
    generated group, by rejection."""
    ts_all = all_transpositions(n)
    while True:
        window = [ts_all[rng.randrange(len(ts_all))] for _ in range(w_m - 1)]
        last = compose(inverse(product(window, n)), g)
        pts = [p for p in range(1, n + 1) if last[p - 1] != p]
        if len(pts) != 2:
            continue
        window.append(last)
        if is_symmetric(window, n):
            return tuple(window)


def three_block_system(rng):
    """d = 6, w = 12: transpositions inside {1,2}, {3,4} and {5,6}, one
    random handle pair and the last transposition forced by the
    relator, by rejection until there are three blocks and the
    monodromy is full."""
    pool = [transposition(6, 1, 2), transposition(6, 3, 4), transposition(6, 5, 6)]
    elems = list(permutations(range(1, 7)))
    while True:
        ts = [rng.choice(pool) for _ in range(11)]
        x, y = rng.choice(elems), rng.choice(elems)
        last = compose(inverse(product(ts, 6)), inverse(commutator(x, y)))
        hs = HurwitzSystem(6, (x, y), tuple(ts) + (last,))
        if last in pool and len(branching_blocks(hs)) == 3 and is_full_monodromy(hs):
            return hs


class TestSplitNormalForm:
    def test_full_grid(self):
        # every block size to 5, every cycle type, every admissible
        # length up to 2#A + 4
        for n in range(2, 6):
            pts = tuple(range(1, n + 1))
            tau = transposition(n, 1, 2)
            for lam in partitions_of(n):
                g = perm_of_type(n, lam)
                s = len(cycles(g))
                body = n + s - 2
                for w_m in range(2 * n, 2 * n + 5):
                    if (w_m - body) % 2 != 0:
                        with pytest.raises(NormalizeError):
                            prop_split_normal_form(pts, g, w_m, tau)
                        continue
                    out = prop_split_normal_form(pts, g, w_m, tau)
                    assert len(out) == w_m
                    assert product(out, n) == g
                    assert is_symmetric(out, n)
                    assert out[-1] == out[-2] == tau
                    assert all(set(support(t)) <= set(pts) for t in out)

    def test_subblock_of_larger_degree(self):
        # points may sit inside a larger ambient degree
        g = from_cycles(6, [(4, 5, 6)])
        out = prop_split_normal_form((4, 5, 6), g, 8, transposition(6, 4, 5))
        assert product(out, 6) == g
        assert all(set(support(t)) <= {4, 5, 6} for t in out)

    def test_rejections(self):
        tau = transposition(3, 1, 2)
        with pytest.raises(NormalizeError, match="below 2#points"):
            prop_split_normal_form((1, 2, 3), identity(3), 4, tau)
        with pytest.raises(NormalizeError, match="parity"):
            prop_split_normal_form((1, 2, 3), transposition(3, 1, 2), 6, tau)
        with pytest.raises(NormalizeError, match="outside the block"):
            prop_split_normal_form((1, 2), transposition(3, 1, 3), 4,
                                   transposition(3, 1, 2))
        with pytest.raises(NormalizeError, match="inside the block"):
            prop_split_normal_form((1, 2, 3), identity(4), 6, transposition(4, 1, 4))
        with pytest.raises(NormalizeError, match="two points"):
            prop_split_normal_form((1,), identity(1), 2, identity(1))


class TestRealizeRewrite:
    def test_known_rewrite(self):
        t12, t23 = transposition(3, 1, 2), transposition(3, 2, 3)
        host = HurwitzSystem(3, (), (t12, t23, t23, t12))
        target = (t12, t12, t23, t23)
        tokens = realize_block_rewrite(host, 1, 4, target)
        assert tokens
        out = apply_word(host, " ".join(tokens))
        assert out.transpositions == target

    def test_window_offset(self):
        # rewriting an interior window leaves the rest alone
        t12, t23 = transposition(3, 1, 2), transposition(3, 2, 3)
        host = HurwitzSystem(3, (), (t12, t12, t23, t23, t12, t12))
        target = (t23, t23)
        tokens = realize_block_rewrite(host, 3, 4, target)
        out = apply_word(host, " ".join(tokens)) if tokens else host
        assert out.transpositions == (t12, t12, t23, t23, t12, t12)
        assert all(t.startswith("B3") or not t for t in tokens)

    def test_kluitmann_transitivity(self):
        # any two generating windows with one product are braid-connected
        rng = random.Random(20)
        for n in (2, 3, 4):
            for w_m in (4, 6, 8):
                if w_m > 8 or (n == 4 and w_m == 4):
                    continue
                for _ in range(2):
                    g = product([all_transpositions(n)[rng.randrange(
                        len(all_transpositions(n)))] for _ in range(w_m)], n)
                    src = sample_window(rng, n, w_m, g)
                    dst = sample_window(rng, n, w_m, g)
                    host = HurwitzSystem(n, (), src + tuple(reversed(src)))
                    tokens = realize_block_rewrite(host, 1, w_m, dst)
                    out = apply_word(host, " ".join(tokens)) if tokens else host
                    assert out.transpositions[:w_m] == dst
                    assert out.transpositions[w_m:] == tuple(reversed(src))

    def test_mismatched_products_hard_error(self):
        t12, t13 = transposition(3, 1, 2), transposition(3, 1, 3)
        host = HurwitzSystem(3, (), (t12, t12))
        with pytest.raises(OrbitMismatchError):
            realize_block_rewrite(host, 1, 2, (t12, t13))

    def test_disconnected_windows_hard_error(self):
        # equal products, different blocks: the search must exhaust and
        # report a mismatch rather than loop
        t12, t13 = transposition(3, 1, 2), transposition(3, 1, 3)
        host = HurwitzSystem(3, (), (t12, t12))
        with pytest.raises(OrbitMismatchError):
            realize_block_rewrite(host, 1, 2, (t13, t13))

    def test_budget(self, monkeypatch):
        monkeypatch.setattr(normalize, "SEARCH_BUDGET", 3)
        rng = random.Random(21)
        g = identity(4)
        src = sample_window(rng, 4, 8, g)
        dst = sample_window(rng, 4, 8, g)
        host = HurwitzSystem(4, (), src + tuple(reversed(src)))
        if src != dst:
            with pytest.raises(BudgetError):
                realize_block_rewrite(host, 1, 8, dst)


class TestStandardPosition:
    def test_sorts_blocks_contiguously(self):
        rng = random.Random(22)
        ts_pool = [transposition(6, 1, 2), transposition(6, 3, 4),
                   transposition(6, 5, 6)]
        for _ in range(40):
            while True:
                ts = [ts_pool[rng.randrange(3)] for _ in range(6)]
                if all(ts.count(t) % 2 == 0 for t in ts_pool):
                    break
            host = HurwitzSystem(6, (), tuple(ts))
            sorted_sys, tokens = sort_standard_position(host)
            replay = apply_word(host, " ".join(tokens)) if tokens else host
            assert replay == sorted_sys
            firsts = [support(t)[0] for t in sorted_sys.transpositions]
            assert firsts == sorted(firsts)

    def test_stable_within_block(self):
        t12 = transposition(4, 1, 2)
        t34 = transposition(4, 3, 4)
        host = HurwitzSystem(4, (), (t34, t12, t34, t12))
        sorted_sys, _ = sort_standard_position(host)
        assert sorted_sys.transpositions == (t12, t12, t34, t34)


class TestRepair:
    def test_merges_to_one_block(self):
        rng = random.Random(23)
        done = 0
        while done < 25:
            hs = random_system(3, 1, 6, rng)
            if len(branching_blocks(hs)) == 1:
                continue
            if not is_full_monodromy(hs):
                continue
            out, tokens = repair_branching_monodromy(hs)
            assert len(branching_blocks(out)) == 1
            replay = apply_word(hs, " ".join(tokens)) if tokens else hs
            assert replay == out
            assert validate(out).ok
            done += 1

    def test_a_wrong_window_fails_in_the_stage(self, monkeypatch):
        # every emitted token is checked as it is played: a split normal
        # form with one entry swapped changes the window product
        real = normalize.prop_split_normal_form

        def swapped(points, g, w_m, tau):
            out = real(points, g, w_m, tau)
            return (next(t for t in all_transpositions(len(g)) if t != out[0]),) + out[1:]

        monkeypatch.setattr(normalize, "prop_split_normal_form", swapped)
        rng = random.Random(28)
        done = 0
        while done < 20:
            hs = random_system(3, 1, 6, rng)
            if len(branching_blocks(hs)) == 1 or not is_full_monodromy(hs):
                continue
            with pytest.raises(MoveError, match="window product"):
                repair_branching_monodromy(hs)
            done += 1

    def test_single_block_is_untouched(self):
        t12, t13 = transposition(3, 1, 2), transposition(3, 1, 3)
        hs = HurwitzSystem(3, (), (t12, t12, t13, t13, t12, t12))
        out, tokens = repair_branching_monodromy(hs)
        assert out == hs and tokens == []


class TestTrivializeHandle:
    def test_handles_become_identity(self):
        rng = random.Random(24)
        for _ in range(25):
            hs = random_system(3, 1, 6, rng)
            if not is_full_monodromy(hs):
                continue
            out, tokens = trivialize_handle(hs, 1)
            a1, b1 = out.handle_pair(1)
            assert a1 == identity(3) and b1 == identity(3)
            replay = apply_word(hs, " ".join(tokens)) if tokens else hs
            assert replay == out
            assert validate(out).ok


class TestRoundBookkeeping:
    """Each round of trivialize_handle stages a transposition tau read
    off V by two lookups and carries the tuple's product g from the
    round before; both are compared here, at every round, with what
    they replace: the splitter conjugated by V, and the product of the
    tuple taken anew."""

    @pytest.mark.parametrize("size", [(3, 1, 6), (4, 1, 8), (5, 2, 10), (6, 2, 12)])
    def test_every_round_stages_the_old_tau_and_product(self, monkeypatch, size):
        rounds = []
        pushed = []
        real_conjugator = normalize._push_conjugator
        real_form = normalize.prop_split_normal_form

        def conjugator(hs, i, side):
            v = real_conjugator(hs, i, side)
            pushed.append((hs, i, side, v))
            return v

        def form(points, g, w_m, tau):
            if pushed:  # a staging round: repairs call this with no push pending
                hs, i, side, v = pushed.pop()
                lam, mu = hs.handle_pair(i)
                moved = mu if side == "a" else lam
                x = support(moved)[0]
                splitter = transposition(hs.d, x, moved[x - 1])
                assert tau == conjugate(splitter, v)
                assert g == pair_product(point_pairs(hs.transpositions, hs.d), hs.d)
                rounds.append(tau)
            return real_form(points, g, w_m, tau)
        monkeypatch.setattr(normalize, "_push_conjugator", conjugator)
        monkeypatch.setattr(normalize, "prop_split_normal_form", form)
        rng = random.Random("rounds:%d:%d:%d" % size)
        for _ in range(8):
            hs = random_system(*size, rng, is_full_monodromy)
            for i in range(hs.h, 0, -1):
                hs, tokens = trivialize_handle(hs, i)
                assert hs.handle_pair(i) == (identity(hs.d), identity(hs.d))
            assert not pushed
        assert len(rounds) > 8


class TestCanonical:
    def test_star_shape(self):
        star = canonical_star(3, 2, 8)
        assert star.handles == (identity(3),) * 4
        t12, t13 = transposition(3, 1, 2), transposition(3, 1, 3)
        assert star.transpositions == (t12,) * 6 + (t13, t13)
        assert validate(star).ok and is_full_monodromy(star)
        with pytest.raises(NormalizeError):
            canonical_star(3, 1, 4)
        with pytest.raises(NormalizeError):
            canonical_star(3, 1, 7)

    def test_canonicalize_random(self):
        rng = random.Random(25)
        for d, h, w in ((2, 1, 4), (2, 2, 4), (3, 1, 6)):
            star = canonical_star(d, h, w)
            done = 0
            while done < 10:
                hs = random_system(d, h, w, rng)
                if not is_full_monodromy(hs):
                    continue
                form, cert = canonicalize(hs)
                assert form == star
                assert serialize(cert.replay()) == serialize(star)
                done += 1

    @pytest.mark.parametrize("mode", ["fast", "validate"])
    def test_list_entries_canonicalize_as_their_tuple_twin(self, mode):
        # validate passes a system built with lists; the full-monodromy
        # check and the final comparison with the star read it as tuples
        rng = random.Random("list-twin:" + mode)
        for d, h, w in ((3, 1, 6), (4, 1, 8), (3, 0, 6)):
            hs = random_system(d, h, w, rng, is_full_monodromy)
            twin = HurwitzSystem(d, [list(p) for p in hs.handles],
                                 [list(t) for t in hs.transpositions])
            assert canonicalize(twin, mode) == canonicalize(hs, mode)
        hs = HurwitzSystem(3, (), ([2, 1, 3], [2, 1, 3], [1, 3, 2], [1, 3, 2],
                                   [3, 2, 1], [3, 2, 1]))
        assert canonicalize(hs)[0] == canonical_star(3, 0, 6)

    def test_each_token_is_applied_once(self, monkeypatch):
        # fast mode plays each token once and runs no replay: one
        # apply_endo per B/P token, one check_block_rewrite per W token
        calls = {"endo": 0, "window": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(moves, "apply_endo", counted("endo", moves.apply_endo))
        monkeypatch.setattr(moves, "check_block_rewrite",
                            counted("window", moves.check_block_rewrite))
        for d, h, w in ((4, 1, 8), (5, 2, 10)):
            rng = random.Random("one-pass:%d:%d:%d" % (d, h, w))
            for _ in range(5):
                hs = random_system(d, h, w, rng, is_full_monodromy)
                calls.update(endo=0, window=0)
                form, cert = canonicalize(hs)
                kinds = [token[0] for token in cert.moves.split()]
                assert form == canonical_star(d, h, w)
                assert calls == {"endo": kinds.count("B") + kinds.count("P"),
                                 "window": kinds.count("W")}

    def test_each_stage_sets_up_its_precondition_once(self, monkeypatch):
        # canonicalize repairs once and trivialize_handle once on entry;
        # a repair sorts once however many blocks it merges
        repairs, sorts = [], []
        real_repair = normalize.repair_branching_monodromy
        real_sort = normalize.sort_standard_position

        def repair(sys):
            repairs.append(len(branching_blocks(sys)))
            sorts.append(0)
            return real_repair(sys)

        def sort(sys):
            sorts[-1] += 1
            return real_sort(sys)

        monkeypatch.setattr(normalize, "repair_branching_monodromy", repair)
        monkeypatch.setattr(normalize, "sort_standard_position", sort)
        rng = random.Random("three-blocks")
        systems = [three_block_system(rng) for _ in range(3)]
        for d, h, w in ((4, 1, 8), (5, 2, 10)):
            rng = random.Random("once:%d:%d:%d" % (d, h, w))
            systems += [random_system(d, h, w, rng, is_full_monodromy) for _ in range(5)]
        for hs in systems:
            assert validate(hs).ok
            repairs.clear()
            sorts.clear()
            form, _ = canonicalize(hs)
            assert form == canonical_star(hs.d, hs.h, hs.w)
            assert len(repairs) == 1 + hs.h
            # the first repair sorts once when it has blocks to merge,
            # three of them in the constructed systems; the rest find one
            assert sorts == [int(repairs[0] > 1)] + [0] * hs.h
            assert repairs[1:] == [1] * hs.h

    def test_idempotent(self):
        star = canonical_star(3, 1, 6)
        form, cert = canonicalize(star)
        assert form == star
        assert cert.moves == ""

    def test_validate_mode_is_elementary(self):
        rng = random.Random(26)
        done = 0
        while done < 4:
            hs = random_system(3, 1, 6, rng)
            if not is_full_monodromy(hs):
                continue
            form, cert = canonicalize(hs, mode="validate")
            assert form == canonical_star(3, 1, 6)
            for token in cert.moves.split():
                assert token[0] in ("B", "P"), token
            assert serialize(cert.replay()) == serialize(form)
            done += 1

    def test_preconditions(self):
        rng = random.Random(27)
        with pytest.raises(NormalizeError, match="2d"):
            canonicalize(random_system(3, 1, 4, rng))
        t12 = transposition(3, 1, 2)
        not_full = HurwitzSystem(3, (), (t12,) * 6)
        with pytest.raises(NormalizeError, match="full monodromy"):
            canonicalize(not_full)
        broken = HurwitzSystem(3, (), (t12,) * 5)
        with pytest.raises(NormalizeError, match="valid"):
            canonicalize(broken)
