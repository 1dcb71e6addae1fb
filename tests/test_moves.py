"""System-level moves: braids, handle pushes, pair macros, move words,
and replayable certificates."""

import random
from collections import Counter
from functools import reduce
from itertools import permutations, product as tuples

import pytest

from hurwitz import catalog, moves
from hurwitz.catalog import catalog_hash, certified_braid_endo, certified_push_endo
from hurwitz.moves import (Certificate, MoveError, apply_endo, apply_move,
                           apply_word, braid, certificate, check_block_rewrite,
                           check_push_contract, evaluate_word, handle_push,
                           monodromy_change, move_program, pair_retype,
                           parse_move)
from hurwitz.perms import (MAX_DEGREE, all_transpositions, compose, conjugate,
                           from_cycles, identity, inverse, is_transposition,
                           orbit_blocks, support, transposition)
from hurwitz.systems import (HurwitzSystem, genus, is_full_monodromy,
                             monodromy, random_system, relator_product,
                             serialize, validate)
from hurwitz.words import FreeContext, relator

PARAMS = [(2, 1, 4), (3, 0, 4), (3, 1, 4), (3, 1, 6), (3, 2, 6), (4, 1, 6)]


def rand_sys(rng):
    d, h, w = PARAMS[rng.randrange(len(PARAMS))]
    return random_system(d, h, w, rng)


class TestBraid:
    def test_effect_formula(self):
        rng = random.Random(1)
        for _ in range(100):
            hs = rand_sys(rng)
            j = rng.randrange(1, hs.w)
            out = braid(hs, j)
            s, t = hs.transpositions[j - 1], hs.transpositions[j]
            assert out.transpositions[j - 1] == t
            assert out.transpositions[j] == conjugate(s, t)
            assert out.transpositions[: j - 1] == hs.transpositions[: j - 1]
            assert out.transpositions[j + 1 :] == hs.transpositions[j + 1 :]
            assert out.handles == hs.handles

    def test_inverse_both_ways(self):
        rng = random.Random(2)
        for _ in range(100):
            hs = rand_sys(rng)
            j = rng.randrange(1, hs.w)
            assert braid(braid(hs, j), j, inverse_move=True) == hs
            assert braid(braid(hs, j, inverse_move=True), j) == hs

    def test_braid_relation(self):
        rng = random.Random(3)
        for _ in range(100):
            hs = rand_sys(rng)
            if hs.w < 3:
                continue
            j = rng.randrange(1, hs.w - 1)
            lhs = braid(braid(braid(hs, j), j + 1), j)
            rhs = braid(braid(braid(hs, j + 1), j), j + 1)
            assert lhs == rhs

    def test_distant_braids_commute(self):
        rng = random.Random(4)
        for _ in range(100):
            hs = rand_sys(rng)
            if hs.w < 4:
                continue
            k = rng.randrange(3, hs.w)
            assert braid(braid(hs, 1), k) == braid(braid(hs, k), 1)

    def test_disjoint_supports_swap(self):
        # braiding disjoint transpositions is a plain exchange
        t12, t34 = transposition(4, 1, 2), transposition(4, 3, 4)
        hs = HurwitzSystem(4, (), (t12, t34, t34, t12))
        assert braid(hs, 1).transpositions == (t34, t12, t34, t12)

    def test_preserves_invariants(self):
        rng = random.Random(5)
        for _ in range(60):
            hs = rand_sys(rng)
            j = rng.randrange(1, hs.w)
            out = braid(hs, j)
            assert validate(out).ok
            assert genus(out) == genus(hs)
            old = monodromy(hs)
            assert monodromy(out).order() == old.order()
            assert all(g in old for g in out.handles + out.transpositions)

    def test_position_bounds(self):
        hs = random_system(3, 1, 4, random.Random(0))
        with pytest.raises(MoveError):
            braid(hs, 0)
        with pytest.raises(MoveError):
            braid(hs, 4)


def test_monodromy_change_names_what_changed():
    t12, t13 = transposition(3, 1, 2), transposition(3, 1, 3)
    hs = HurwitzSystem(3, (), (t12, t12))
    assert monodromy_change(hs, hs) is None
    assert monodromy_change(hs, HurwitzSystem(3, (), (t12, t13))) == \
        "changed the monodromy group order"
    # the same order, but a conjugate subgroup
    assert monodromy_change(hs, HurwitzSystem(3, (), (t13, t13))) == \
        "left the monodromy subgroup"


class TestPush:
    def test_contract(self):
        rng = random.Random(6)
        for _ in range(120):
            hs = rand_sys(rng)
            if hs.h == 0:
                continue
            i = rng.randrange(1, hs.h + 1)
            side = "ab"[rng.randrange(2)]
            check_push_contract(hs, i, side)

    def test_only_one_handle_entry_moves(self):
        rng = random.Random(7)
        for _ in range(60):
            hs = rand_sys(rng)
            if hs.h == 0:
                continue
            i = rng.randrange(1, hs.h + 1)
            side = "ab"[rng.randrange(2)]
            out = handle_push(hs, i, side)
            moved = 2 * i - 1 if side == "a" else 2 * i - 2
            for k in range(2 * hs.h):
                if k != moved:
                    assert out.handles[k] == hs.handles[k]
            assert out.transpositions[:-1] == hs.transpositions[:-1]

    def test_push_weight_change_is_one_transposition(self):
        rng = random.Random(8)
        for _ in range(60):
            hs = rand_sys(rng)
            if hs.h == 0:
                continue
            i = rng.randrange(1, hs.h + 1)
            side = "ab"[rng.randrange(2)]
            out = handle_push(hs, i, side)
            moved = 2 * i - 1 if side == "a" else 2 * i - 2
            delta = compose(inverse(hs.handles[moved]), out.handles[moved])
            pts = [p for p in range(1, hs.d + 1) if delta[p - 1] != p]
            assert len(pts) == 2

    def test_bad_arguments(self):
        hs = random_system(3, 1, 4, random.Random(0))
        with pytest.raises(MoveError):
            handle_push(hs, 0, "a")
        with pytest.raises(MoveError):
            handle_push(hs, 2, "a")
        with pytest.raises(MoveError):
            handle_push(hs, 1, "x")
        sphere = random_system(3, 0, 4, random.Random(0))
        with pytest.raises(MoveError):
            handle_push(sphere, 1, "a")


class TestEvaluate:
    def test_relator_evaluates_to_identity(self):
        rng = random.Random(9)
        for _ in range(50):
            hs = rand_sys(rng)
            ctx = FreeContext(hs.h, hs.w)
            assert evaluate_word(relator(ctx), hs) == identity(hs.d)
            assert evaluate_word(relator(ctx), hs) == relator_product(hs)

    def test_letter_layout(self):
        hs = random_system(2, 1, 4, random.Random(1))
        assert evaluate_word((1,), hs) == hs.handles[0]
        assert evaluate_word((2,), hs) == hs.handles[1]
        assert evaluate_word((3,), hs) == hs.transpositions[0]
        assert evaluate_word((-3,), hs) == inverse(hs.transpositions[0])


def reference_evaluate(word, hs):
    """evaluate_word as the package first defined it, kept as the oracle:
    one compose per letter from the identity, each inverse taken anew."""
    acc = identity(hs.d)
    for letter in word:
        k = abs(letter)
        p = hs.handles[k - 1] if k <= 2 * hs.h else hs.transpositions[k - 2 * hs.h - 1]
        acc = tuple((p if letter > 0 else inverse(p))[i - 1] for i in acc)
    return acc


def reference_apply(hs, e):
    """apply_endo as the package first defined it: each generator e
    changes takes its image word's value; the rest stay."""
    entries = list(hs.handles + hs.transpositions)
    for k, word in e.changes():
        entries[k - 1] = reference_evaluate(word, hs)
    return HurwitzSystem(hs.d, tuple(entries[: 2 * hs.h]), tuple(entries[2 * hs.h :]))


def catalog_maps(h, w):
    """(j, side, map) for every braid and push the catalog certifies at (h, w)."""
    maps = [(j, "", certified_braid_endo(h, w, j)) for j in range(1, w)]
    return maps + [(i, side, certified_push_endo(h, w, i, side))
                   for i in range(1, h + 1) for side in "ab"]


@pytest.mark.parametrize("d,h,w", [(3, 1, 6), (4, 2, 8), (5, 0, 10), (2, 3, 4)])
def test_compiled_moves_match_the_catalog_maps(d, h, w):
    rng = random.Random("compiled:%d:%d:%d" % (d, h, w))
    catalog = catalog_maps(h, w)
    for _ in range(20):
        hs = random_system(d, h, w, rng)
        assert validate(hs).ok
        for j, side, e in catalog:
            for inverse_move, f in ((False, e), (True, e.inverse())):
                got = apply_endo(hs, move_program(h, w, j, side, inverse_move))
                assert got == reference_apply(hs, f), (j, side, inverse_move)


def as_tuples(hs):
    return HurwitzSystem(hs.d, tuple(map(tuple, hs.handles)), tuple(map(tuple, hs.transpositions)))


@pytest.mark.parametrize("kind", ["transposition", "three-cycle", "any", "list"])
def test_compiled_moves_invert_every_negated_entry(kind):
    # apply_endo inverts every negated entry, a transposition and a list
    # entry included; with handle entries of each kind it must give the
    # catalog map's result
    d, h, w = 4, 2, 4
    rng = random.Random("involutions:" + kind)
    ts = all_transpositions(d)
    pool = {"transposition": ts,
            "three-cycle": [from_cycles(d, [c]) for c in ((1, 2, 3), (2, 4, 3), (1, 4, 2))],
            "any": list(permutations(range(1, d + 1)))}
    pool["list"] = [list(p) for p in pool["any"]]
    for _ in range(10):
        handles = tuple(rng.choice(pool[kind]) for _ in range(2 * h))
        entries = [rng.choice(ts) for _ in range(w)]
        hs = HurwitzSystem(d, handles, tuple(map(list, entries)) if kind == "list" else tuple(entries))
        for j, side, e in catalog_maps(h, w):
            for inverse_move, f in ((False, e), (True, e.inverse())):
                got = apply_endo(hs, move_program(h, w, j, side, inverse_move))
                assert as_tuples(got) == as_tuples(reference_apply(hs, f)), (j, side, inverse_move)


def test_moves_on_systems_that_are_not_valid():
    # S_1 has no transpositions, so this system is not valid, but a braid
    # still evaluates on it as a product fold does; entries of another
    # degree are refused as a fold refuses them
    hs = HurwitzSystem(1, (), ((1,), (1,)))
    assert braid(hs, 1) == hs and type(braid(hs, 1).transpositions[0]) is tuple
    with pytest.raises(ValueError, match="degree mismatch"):
        braid(HurwitzSystem(3, (), ((2, 1, 3), (2, 1))), 1)


def test_compiled_moves_follow_the_catalog(monkeypatch):
    # a program is compiled from the map the catalog certifies now: a
    # catalog whose braid is the inverse braid swaps B1 and B1', also
    # after both were applied, and restoring the catalog restores them
    t12, t23 = transposition(3, 1, 2), transposition(3, 2, 3)
    hs = HurwitzSystem(3, (), (t12, t23, t23, t12))
    forward, backward = braid(hs, 1), braid(hs, 1, inverse_move=True)
    assert forward != backward
    schemas = catalog.get_schemas()
    swapped = dict(schemas.sections, **{"braid": schemas.sections["braid^-1"],
                                        "braid^-1": schemas.sections["braid"]})
    monkeypatch.setattr(catalog, "get_schemas", lambda: catalog.Schemas(swapped))
    catalog.certified_braid_endo.cache_clear()
    try:
        assert (braid(hs, 1), braid(hs, 1, inverse_move=True)) == (backward, forward)
    finally:
        monkeypatch.undo()
        catalog.certified_braid_endo.cache_clear()
    assert (braid(hs, 1), braid(hs, 1, inverse_move=True)) == (forward, backward)


class TestPushContractFaults:
    """check_push_contract's raises, each reached through a handle_push
    that returns a chosen system forward and another backward."""

    def setup_method(self):
        t12, t23, e = transposition(3, 1, 2), transposition(3, 2, 3), identity(3)
        self.hs = HurwitzSystem(3, (e, e), (t12, t12, t23, t23))
        self.narrow = HurwitzSystem(3, (e, e), (t12,) * 4)  # monodromy of order 2
        self.invalid = HurwitzSystem(3, (e, e), (t12, t12, t23, t12))

    def fault(self, monkeypatch, forward, backward) -> str:
        monkeypatch.setattr(moves, "handle_push", lambda sys, i, side, inverse_move=False:
                            backward if inverse_move else forward)
        with pytest.raises(MoveError) as info:
            check_push_contract(self.hs, 1, "a")
        return str(info.value)

    def test_unpatched_contract_holds(self):
        assert validate(self.hs).ok and validate(self.narrow).ok
        assert check_push_contract(self.hs, 1, "a") == handle_push(self.hs, 1, "a")

    def test_invalid_result(self, monkeypatch):
        message = self.fault(monkeypatch, self.invalid, self.hs)
        assert message == "push left the Hurwitz space: " + validate(self.invalid).messages[0]

    def test_inverse_that_does_not_restore(self, monkeypatch):
        message = self.fault(monkeypatch, self.hs, self.narrow)
        assert message == "inverse push failed to restore the system"

    def test_changed_monodromy(self, monkeypatch):
        message = self.fault(monkeypatch, self.narrow, self.hs)
        assert message == "push changed the monodromy group order"


class TestMoveFaults:
    def test_push_needs_a_puncture(self):
        e = identity(2)
        with pytest.raises(MoveError, match="point-push needs at least one puncture"):
            handle_push(HurwitzSystem(2, (e, e), ()), 1, "a")

    def test_retype_target_is_a_transposition(self):
        t12 = transposition(3, 1, 2)
        hs = HurwitzSystem(3, (), (t12, t12, t12, t12))
        with pytest.raises(MoveError, match="retype target is not a transposition"):
            pair_retype(hs, 1, (2, 3, 1))

    def test_unknown_move_kind(self):
        t12 = transposition(2, 1, 2)
        with pytest.raises(MoveError, match="unknown move kind 'swap'"):
            apply_move(HurwitzSystem(2, (), (t12, t12)), moves.Move("swap", 1))


class TestMacros:
    def setup_method(self):
        t12 = transposition(3, 1, 2)
        t23 = transposition(3, 2, 3)
        t13 = transposition(3, 1, 3)
        self.hs = HurwitzSystem(3, (), (t12, t12, t23, t23, t13, t13))
        self.t12, self.t23, self.t13 = t12, t23, t13

    def test_retype(self):
        out = pair_retype(self.hs, 1, self.t23)
        assert out.transpositions[:2] == (self.t23, self.t23)
        assert validate(out).ok

    def test_retype_needs_equal_pair(self):
        with pytest.raises(MoveError):
            pair_retype(self.hs, 2, self.t12)

    def test_retype_needs_full_residual(self):
        # deleting the pair must leave monodromy all of S_d
        hs = HurwitzSystem(3, (), (self.t12,) * 6)
        with pytest.raises(MoveError):
            pair_retype(hs, 1, self.t23)


# ---------------------------------------------------------------------------
# window rewrites: the point-pair checks against the product and orbit walk

def reference_product(perms, d):
    """A compose fold from the first factor, the identity when empty."""
    perms = list(perms)
    return reduce(compose, perms[1:], perms[0]) if perms else identity(d)


def reference_check_block_rewrite(sys, lo, hi, target):
    """check_block_rewrite as it read before the point-pair tables, on
    product folds and orbit_blocks, kept as the oracle."""
    src = sys.transpositions[lo - 1 : hi]
    if reference_product(src, sys.d) != reference_product(target, sys.d):
        raise MoveError("rewrite changes the window product")
    for t in target:
        if not is_transposition(t):
            raise MoveError("rewrite target entry is not a transposition")
    blocks = orbit_blocks(src, sys.d)
    if blocks != orbit_blocks(target, sys.d):
        raise MoveError("rewrite changes the window block partition")
    if sum(len(b) > 1 for b in blocks) > 1:
        block_of = {p: k for k, b in enumerate(blocks) for p in b}
        if (sorted(block_of[p] for t in src for p in support(t))
                != sorted(block_of[p] for t in target for p in support(t))):
            raise MoveError("rewrite changes the number of entries in a block")


VERDICTS = {"accepted", "rewrite changes the window product",
            "rewrite target entry is not a transposition",
            "rewrite changes the window block partition",
            "rewrite changes the number of entries in a block"}


def rewrite_verdict(check, d, pad, src, target):
    """The check's verdict on rewriting src, placed after pad in a
    system, to target: "accepted" or its message."""
    sys = HurwitzSystem(d, (), tuple(pad) + tuple(src) + tuple(pad))
    try:
        check(sys, len(pad) + 1, len(pad) + len(src), tuple(target))
    except MoveError as exc:
        return str(exc)
    return "accepted"


def same_verdict(d, pad, src, target):
    got = rewrite_verdict(check_block_rewrite, d, pad, src, target)
    assert got == rewrite_verdict(reference_check_block_rewrite, d, pad, src, target), \
        (d, pad, src, target)
    return got


@pytest.mark.parametrize("d", [2, 3, 4])
def test_window_checks_match_the_oracle_on_every_small_window(d):
    # every window of length <= 4 over the transpositions, the identity,
    # a 3-cycle and a double transposition, each against partners of
    # its own product (so the later checks are reached) and one other
    pool = all_transpositions(d) + [identity(d)]
    pool += [from_cycles(d, cycs) for cycs in ([(1, 2, 3)], [(1, 2), (3, 4)]) if max(cycs[-1]) <= d]
    rng = random.Random("windows:%d" % d)
    seen = Counter()
    for k in range(1, 5):
        windows = list(tuples(pool, repeat=k))
        by_product = {}
        for window in windows:
            by_product.setdefault(reference_product(window, d), []).append(window)
        for src in windows:
            group = by_product[reference_product(src, d)]
            partners = rng.sample(group, min(4, len(group))) + [rng.choice(windows)]
            pad = [pool[0]] * rng.randrange(2)
            for target in partners:
                seen[same_verdict(d, pad, src, target)] += 1
    assert set(seen) == (VERDICTS if d == 4 else VERDICTS - {
        "rewrite changes the number of entries in a block"}), seen


def braided(window, rng, steps=20):
    """window after random braid moves (x, y) -> (y, y^-1 x y) and back."""
    out = list(window)
    for _ in range(steps):
        j = rng.randrange(len(out) - 1)
        x, y = out[j], out[j + 1]
        out[j : j + 2] = (y, conjugate(x, y)) if rng.random() < 0.5 else (conjugate(y, inverse(x)), x)
    return out


@pytest.mark.parametrize("d", [5, 6, 7, 8])
def test_window_checks_match_the_oracle_on_multi_block_windows(d):
    # two or three blocks of two or more points, each spanned by a tree
    # plus extra entries; block A also holds a doubled transposition
    # (t, t), which the variants trade for one of each failure kind
    rng = random.Random("multi-block:%d" % d)
    ts = all_transpositions(d)
    seen = Counter()
    for _ in range(200):
        points = list(range(1, d + 1))
        rng.shuffle(points)
        sizes = [rng.randrange(2, 4)]
        while d - sum(sizes) >= 2 and len(sizes) < 3:
            sizes.append(rng.randrange(2, min(4, d - sum(sizes)) + 1))
        blocks, at = [], 0
        for size in sizes:
            blocks.append(points[at : at + size])
            at += size
        window = []
        for block in blocks:
            for k in range(1, len(block)):
                window.append(transposition(d, block[k], block[rng.randrange(k)]))
            for _ in range(rng.randrange(3)):
                window.append(transposition(d, *rng.sample(block, 2)))
        rng.shuffle(window)
        a, b = blocks[0], blocks[1]
        t = transposition(d, *rng.sample(a, 2))
        src = window + [t, t]
        pad = [rng.choice(ts) for _ in range(rng.randrange(3))]
        s = transposition(d, *rng.sample(b, 2))
        link = transposition(d, a[0], b[0])
        swapped = list(src)
        j = rng.randrange(len(src) - 1)
        swapped[j], swapped[j + 1] = swapped[j + 1], swapped[j]
        cycle = from_cycles(d, [tuple(a[:3])]) if len(a) >= 3 else identity(d)
        variants = [
            (src, braided(src, rng)),
            (src, braided(window + [s, s], rng)),         # entries move between blocks
            (src, braided(window + [link, link], rng)),   # the blocks merge
            (src, braided(swapped, rng)),                 # the product, mostly
            (src, window + [identity(d), identity(d)]),   # not a transposition
            (src, window + [cycle, inverse(cycle)]),
            (window + [cycle, inverse(cycle)], braided(src, rng)),  # a source that is not valid
            (window + [identity(d)] * 2, braided(window + [s, s], rng)),
        ]
        for source, target in variants:
            seen[same_verdict(d, pad, source, target)] += 1
    assert set(seen) == VERDICTS, seen


def test_list_targets_read_as_tuples():
    # the target side is memoized on tuples; a list target, or list
    # entries, take the tuple's path to the same verdict
    t12, t23 = transposition(3, 1, 2), transposition(3, 2, 3)
    hs = HurwitzSystem(3, (), (t12, t12, t23, t23))
    for target in ([[1, 3, 2], [1, 3, 2]], ([1, 3, 2], [1, 3, 2]), [t23, t23]):
        with pytest.raises(MoveError, match="window block partition"):
            check_block_rewrite(hs, 1, 2, target)
    for target in ([list(t23), list(t23), list(t12), list(t12)], [t23, t23, t12, t12]):
        assert check_block_rewrite(hs, 1, 4, target) is None
    with pytest.raises(MoveError, match="not a transposition"):
        check_block_rewrite(hs, 1, 2, [[1, 2, 3], [1, 2, 3]])


def reference_block_labels(pairs, d):
    """_block_labels as it read before the union-find, kept as the
    oracle: the whole label list rebuilt on every merge."""
    label = list(range(d + 1))
    for a, b in pairs:
        x, y = label[a], label[b]
        if x != y:
            if x > y:
                x, y = y, x
            label = [x if k == y else k for k in label]
    return label


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_block_labels_match_the_oracle_on_every_short_list(d):
    # every list of up to four links, both orientations, repeats included
    links = [(a, b) for a in range(1, d + 1) for b in range(1, d + 1) if a != b]
    for k in range(5):
        for pairs in tuples(links, repeat=k):
            assert moves._block_labels(pairs, d) == reference_block_labels(pairs, d), pairs


def test_block_labels_match_the_oracle_up_to_the_largest_degree():
    rng = random.Random("block-labels")
    for d in range(2, MAX_DEGREE + 1):
        for _ in range(100):
            pairs = [tuple(rng.sample(range(1, d + 1), 2)) for _ in range(rng.randrange(2 * d))]
            pairs += [(b, a) for a, b in pairs[: rng.randrange(len(pairs) + 1)]]
            pairs += rng.sample(pairs, rng.randrange(len(pairs) + 1))
            rng.shuffle(pairs)
            assert moves._block_labels(pairs, d) == reference_block_labels(pairs, d), (d, pairs)


class TestMoveWords:
    def test_token_round_trip(self):
        for token in ("B3", "B11'", "Pa1", "Pb2'", "R4:2,1,3",
                      "W2-5:2,1,3;1,3,2;1,3,2;2,1,3"):
            assert parse_move(token).token() == token
        # int() reads the numbers in these, but a token has one spelling
        for token in ("B\uff11", "B01", "B+1", "B 1", " B1", "B1_1", "Pa 1", "Pb+2'", "R04:2,1,3",
                      "R4:2, 1,3", "R4:+2,1,3", "W2-\uff15:2,1,3;1,3,2;1,3,2;2,1,3",
                      "W2-05:2,1,3;1,3,2;1,3,2;2,1,3", "W2-5:2,1,3; 1,3,2;1,3,2;2,1,3"):
            with pytest.raises(MoveError, match="unreadable move token"):
                parse_move(token)

    def test_parse_rejects(self):
        for bad in ("", "B0", "Bx", "Q1", "R4", "W2:1,2", "Pa", "Pc1"):
            with pytest.raises(MoveError):
                parse_move(bad)

    def test_apply_word_composes(self):
        rng = random.Random(10)
        hs = random_system(3, 1, 6, rng)
        out = apply_word(hs, "B1 B2 Pa1 B1' Pb1'")
        step = hs
        for token in "B1 B2 Pa1 B1' Pb1'".split():
            step = apply_move(step, parse_move(token))
        assert out == step
        assert validate(out).ok

    def test_empty_word(self):
        hs = random_system(2, 1, 4, random.Random(0))
        assert apply_word(hs, "") == hs
        assert apply_word(hs, "  ") == hs


class TestCertificates:
    def test_replay(self):
        rng = random.Random(11)
        hs = random_system(3, 1, 6, rng)
        end = apply_word(hs, "B1 Pa1 B3'")
        cert = certificate(hs, "B1 Pa1 B3'", end)
        assert serialize(cert.replay()) == cert.end

    def test_wrong_end_rejected(self):
        rng = random.Random(12)
        while True:
            hs = random_system(3, 1, 6, rng)
            if braid(hs, 1) != hs:
                break
        cert = certificate(hs, "", hs)
        forged = Certificate(cert.start, "B1", cert.end, cert.catalog)
        with pytest.raises(MoveError):
            forged.replay()

    def test_foreign_catalog_rejected(self):
        hs = random_system(2, 1, 4, random.Random(13))
        cert = Certificate(serialize(hs), "", serialize(hs), "0" * 64)
        with pytest.raises(MoveError, match="catalog"):
            cert.replay()
        good = certificate(hs, "", hs)
        assert good.catalog == catalog_hash()
