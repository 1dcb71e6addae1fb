"""Acceptance gate.  One test per shipped claim; `pytest -v` prints one
pass or fail line for each.  Detail goes to stdout and surfaces on
failure (or with -s).  Everything here is exact: censuses are
exhaustive, counts are integer equalities, certificates are replayed
move by move."""

import random

from hurwitz.catalog import certified_braid_endo, certified_push_endo
from hurwitz.frobenius import frobenius_count
from hurwitz.moves import apply_word, braid, handle_push
from hurwitz.normalize import (canonical_star, canonicalize,
                               prop_split_normal_form, realize_block_rewrite)
from hurwitz.orbits import census, connect
from hurwitz.perms import (all_transpositions, compose, cycles, from_cycles,
                           inverse, is_symmetric, product, support,
                           transposition)
from hurwitz.systems import (HurwitzSystem, enumerate_systems, genus,
                             is_full_monodromy, monodromy, random_system,
                             serialize, validate)

ENUM_BUDGET = 400_000  # largest state space we enumerate outright


def full_census(d, h, w, selector="full"):
    return census(d, h, w, selector, is_full_monodromy, "full-monodromy")


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
    cycs, next_pt = [], 1
    for part in lam:
        cycs.append(tuple(range(next_pt, next_pt + part)))
        next_pt += part
    return from_cycles(n, cycs)


def sample_window(rng, n, w_m, g):
    """Random transposition window on {1..n} with product g, generating
    the full symmetric group, by rejection on the forced last entry."""
    ts_all = all_transpositions(n)
    while True:
        window = [ts_all[rng.randrange(len(ts_all))] for _ in range(w_m - 1)]
        last = compose(inverse(product(window, n)), g)
        if sum(1 for p in range(1, n + 1) if last[p - 1] != p) != 2:
            continue
        window.append(last)
        if is_symmetric(window, n):
            return tuple(window)


def test_criterion_1_connectivity_matrix():
    # w >= 2d: the full move set leaves a single full-monodromy orbit
    for d, h, w in [(2, 1, 4), (2, 1, 6), (2, 2, 4), (3, 1, 6), (3, 2, 6)]:
        res = full_census(d, h, w)
        assert not res.partial
        assert len(res.orbits) == 1, (d, h, w, len(res.orbits))
        print("census (%d,%d,%d): 1 orbit over %d systems" % (d, h, w, res.total))
    # stretch sizes: 200 random systems each, all must reach one form
    for d, h, w in [(3, 1, 8), (4, 1, 8)]:
        star = serialize(canonical_star(d, h, w))
        rng = random.Random(1000 + d)
        forms = set()
        for _ in range(200):
            sys = random_system(d, h, w, rng, filter=is_full_monodromy)
            canon, cert = canonicalize(sys)
            assert apply_word(sys, cert.moves) == canon
            forms.add(serialize(canon))
        assert forms == {star}, (d, h, w, sorted(forms))
        print("canonicalization (%d,%d,%d): 200 random systems, one form"
              % (d, h, w))


def test_criterion_2_sphere_baseline():
    # with no handles the braid moves alone act transitively
    for d, w in [(3, 4), (3, 6), (4, 6), (4, 8)]:
        res = full_census(d, 0, w, selector="braid")
        assert not res.partial
        assert len(res.orbits) == 1, (d, w, len(res.orbits))
        print("braid census (%d,0,%d): 1 orbit over %d systems"
              % (d, w, res.total))
    res = full_census(3, 0, 4, selector="braid")
    assert res.orbits[0].size == 24
    everything = list(enumerate_systems(3, 0, 4))
    assert len(everything) == 27
    assert sum(1 for s in everything if not is_full_monodromy(s)) == 3
    print("(3,0,4): 27 tuples, 3 intransitive, one orbit of 24")


def test_criterion_3_handle_moves_matter():
    braid_only = full_census(2, 1, 4, selector="braid")
    everything = full_census(2, 1, 4, selector="full")
    assert len(braid_only.orbits) == 4, len(braid_only.orbits)
    assert len(everything.orbits) == 1, len(everything.orbits)
    print("(2,1,4): 4 braid orbits, merged to 1 by the handle pushes")


def test_criterion_4_counting_cross_check():
    checked = skipped = 0
    for d in range(1, 5):
        for h in range(0, 3):
            for w in range(0, 9):
                expected = frobenius_count(d, h, w)
                if expected > ENUM_BUDGET:
                    skipped += 1
                    continue
                got = sum(1 for _ in enumerate_systems(d, h, w))
                assert got == expected, (d, h, w, got, expected)
                checked += 1
    print("counting: %d cases match the character sum exactly, "
          "%d skipped over the %d enumeration budget"
          % (checked, skipped, ENUM_BUDGET))


def test_criterion_5_move_soundness():
    # every catalog schema certifies (inverse composition is the
    # identity, puncture classes permuted, relator kept peripheral)
    instantiations = 0
    for h in range(0, 3):
        for w in range(1, 7):
            for j in range(1, w):
                certified_braid_endo(h, w, j)
                instantiations += 1
            for i in range(1, h + 1):
                for side in "ab":
                    certified_push_endo(h, w, i, side)
                    instantiations += 1
    print("catalog certification: %d instantiations" % instantiations)

    rng = random.Random(5)
    systems = braids = commutes = applications = 0
    for d, h, w in [(2, 1, 4), (3, 0, 4), (3, 1, 6), (3, 2, 6), (4, 1, 8)]:
        for _ in range(200):
            sys = random_system(d, h, w, rng)
            systems += 1
            # braid group relations at random positions
            j = rng.randrange(1, w - 1)
            lhs = braid(braid(braid(sys, j), j + 1), j)
            rhs = braid(braid(braid(sys, j + 1), j), j + 1)
            assert lhs == rhs, serialize(sys)
            braids += 1
            distant = [k for k in range(1, w) if abs(k - j) >= 2]
            if distant:
                k = rng.choice(distant)
                assert braid(braid(sys, j), k) == braid(braid(sys, k), j)
                commutes += 1
            # every elementary move preserves validity, genus, and the
            # exact monodromy subgroup
            group = monodromy(sys)
            order = group.order()
            g0 = genus(sys)
            images = []
            for p in range(1, w):
                images.append(braid(sys, p))
                images.append(braid(sys, p, inverse_move=True))
            for i in range(1, h + 1):
                for side in "ab":
                    images.append(handle_push(sys, i, side))
                    images.append(handle_push(sys, i, side, inverse_move=True))
            for img in images:
                assert validate(img).ok, serialize(img)
                assert genus(img) == g0
                assert monodromy(img).order() == order
                assert all(x in group for x in img.handles + img.transpositions)
                applications += 1
    assert systems >= 1000 and braids >= 1000
    print("move soundness: %d systems, %d braid relations, %d commutations, "
          "%d move applications, zero failures"
          % (systems, braids, commutes, applications))


def test_criterion_6_certificate_integrity():
    rng = random.Random(6)
    done = 0
    for d, h, w, selector, count in [(3, 0, 4, "braid", 40),
                                     (2, 1, 4, "full", 30),
                                     (3, 1, 6, "full", 30)]:
        for _ in range(count):
            src = random_system(d, h, w, rng, filter=is_full_monodromy)
            dst = random_system(d, h, w, rng, filter=is_full_monodromy)
            cert = connect(src, dst, selector)
            assert cert is not None, (serialize(src), serialize(dst))
            assert apply_word(src, cert.moves) == dst
            cert.replay()
            done += 1
    assert done == 100
    print("connect: 100 random queries, every word replays source to target")

    for d, h, w in [(2, 1, 4), (2, 2, 4), (3, 1, 6)]:
        for _ in range(10):
            sys = random_system(d, h, w, rng, filter=is_full_monodromy)
            canon, cert = canonicalize(sys)
            assert apply_word(sys, cert.moves) == canon
            again, cert2 = canonicalize(canon)
            assert again == canon
            assert cert2.moves == ""
    print("canonicalize: certificates replay, fixed point reached in one pass")


def test_criterion_7_split_normal_form():
    rng = random.Random(7)
    grid = realized = 0
    for n in range(2, 6):
        pts = tuple(range(1, n + 1))
        tau = transposition(n, 1, 2)
        for lam in partitions_of(n):
            g = perm_of_type(n, lam)
            s = len(cycles(g))
            length = sum(part - 1 for part in lam) + 2 * (s - 1)
            for w_m in range(2 * n, 2 * n + 5):
                if (w_m - length) % 2 != 0:
                    continue
                out = prop_split_normal_form(pts, g, w_m, tau)
                assert len(out) == w_m
                assert product(out, n) == g
                assert is_symmetric(out, n)
                assert out[-1] == out[-2] == tau
                assert all(set(support(t)) <= set(pts) for t in out)
                grid += 1
                if n > 4 or w_m > 8:
                    continue
                # any same-product full-monodromy window braids onto it
                src = sample_window(rng, n, w_m, g)
                host = HurwitzSystem(n, (), src + tuple(reversed(src)))
                word = realize_block_rewrite(host, 1, w_m, out)
                moved = apply_word(host, " ".join(word))
                assert moved.transpositions[:w_m] == out
                realized += 1
    print("split normal form: %d grid cases, %d braid realizations"
          % (grid, realized))


def test_criterion_8_determinism():
    for args in [(3, 1, 4, "full", None, "all"),
                 (3, 1, 6, "full", is_full_monodromy, "full-monodromy")]:
        outs = [census(*args).to_jsonl() for _ in range(3)]
        assert outs[0] == outs[1] == outs[2]
    print("census output byte-identical across 3 reruns")
