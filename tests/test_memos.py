"""The memos of pure steps: each is bounded, each answers as the function
it wraps, and none skips a check.

parse_move is memoized on the token text, the target side of a window
check (moves._target_invariants) on the target and degree,
prop_split_normal_form on tuples of its arguments, perms.inverse and
perms.weight on tuple(p), and the text of a W token's body
(moves._rewrite_text) on its perms.  Each is compared
here with the unmemoized body (``__wrapped__``) on real certificate
tokens and on every small argument, errors included: lru_cache keeps no
exception, so a bad call must raise on every repeat.  Replay stays a
real re-application of each token, so a cached parse or target cannot
let a forged certificate through.  No
memo body calls a perms kernel that perfbench counts, so a pass with
cold memos makes the same kernel calls as a warm one; the test of that
empties every memo of the package it finds, not a list.  The
static test reads every lru_cache in the package and requires a finite
maxsize, apart from a short allow-list of tables keyed on a few small
ints.
"""

import ast
import importlib
import pathlib
import random
import sys
from collections import Counter
from itertools import combinations, permutations

import pytest

from hurwitz import moves, normalize, perms
from hurwitz.catalog import certified_push_endo
from hurwitz.moves import MoveError, certificate, parse_move
from hurwitz.normalize import NormalizeError, canonicalize, prop_split_normal_form
from hurwitz.perms import all_transpositions, from_cycles, identity, support, transposition
from hurwitz.systems import (HurwitzSystem, branching_blocks, deserialize,
                             is_full_monodromy, random_system, validate)

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "hurwitz"
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))

# tables keyed on a degree or on (d, h, w): a few small ints each
UNBOUNDED_ALLOWED = {
    "perms.transposition",
    "perms.transposition_points",
    "frobenius._character_table_on_transpositions",
    "frobenius.frobenius_count",
    "frobenius.transitive_count",
}

SIZES = [(3, 1, 6), (4, 1, 8), (5, 2, 10), (6, 1, 12), (7, 1, 14), (8, 2, 20)]


# ---------------------------------------------------------------------------
# every memo is bounded

def _is_memo(node: ast.AST, name: str) -> bool:
    """Is node the functools name, bare or as functools.name?"""
    return (isinstance(node, ast.Name) and node.id == name
            or isinstance(node, ast.Attribute) and node.attr == name
            and isinstance(node.value, ast.Name) and node.value.id == "functools")


def unbounded_memos(tree: ast.Module, module: str) -> list[str]:
    """module.function, or module.line for a memo made outside a
    decorator, for every functools memo with no finite maxsize:
    functools.cache, a bare lru_cache, or lru_cache whose maxsize is
    None or not a positive int literal."""
    decorated = {id(dec): node.name for node in ast.walk(tree)
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                 for dec in node.decorator_list}
    called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _is_memo(node.func, "lru_cache"):
            sizes = node.args[:1] + [kw.value for kw in node.keywords if kw.arg == "maxsize"]
            unbounded = not (len(sizes) == 1 and isinstance(sizes[0], ast.Constant)
                             and type(sizes[0].value) is int and sizes[0].value > 0)
        else:
            unbounded = (_is_memo(node, "cache")
                         or _is_memo(node, "lru_cache") and id(node) not in called)
        if unbounded:
            found.append("%s.%s" % (module, decorated.get(id(node), "line %d" % node.lineno)))
    return found


def test_every_memo_is_bounded_but_the_small_int_tables():
    found = {name for module in MODULES
             for name in unbounded_memos(ast.parse((PACKAGE / (module + ".py")).read_text(
                 encoding="utf-8")), module)}
    assert found == UNBOUNDED_ALLOWED


def test_checker_sees_every_unbounded_spelling():
    tree = ast.parse("import functools\n"
                     "from functools import cache, lru_cache\n"
                     "@lru_cache\ndef a(x): pass\n"
                     "@lru_cache(maxsize=None)\ndef b(x): pass\n"
                     "@lru_cache(None)\ndef c(x): pass\n"
                     "@functools.cache\ndef e(x): pass\n"
                     "@functools.lru_cache(maxsize=2 ** 40)\ndef f(x): pass\n"
                     "@lru_cache(maxsize=8)\ndef g(x): pass\n"
                     "@functools.lru_cache(16)\ndef h(x): pass\n"
                     "k = lru_cache(maxsize=None)(len)\n"
                     "n = cache(len)\n"
                     "self.cache = {}\n")
    assert sorted(unbounded_memos(tree, "m")) == [
        "m.a", "m.b", "m.c", "m.e", "m.f", "m.line 17", "m.line 18"]


# ---------------------------------------------------------------------------
# parse_move

def certificates(seed: int, per_size: int, sizes=SIZES, filter=is_full_monodromy):
    for d, h, w in sizes:
        rng = random.Random("memo:%d:%d:%d:%d" % (seed, d, h, w))
        for _ in range(per_size):
            yield canonicalize(random_system(d, h, w, rng, filter), mode="fast")[1]


def unsorted(sys) -> bool:
    """Full monodromy on two or more branching blocks, out of block
    order: canonicalize sorts (B tokens) and retypes (R tokens) only
    such systems."""
    where = {pt: k for k, block in enumerate(branching_blocks(sys)) for pt in block}
    keys = [where[support(t)[0]] for t in sys.transpositions]
    return keys != sorted(keys) and is_full_monodromy(sys)


def test_parse_move_memo_matches_the_parser_on_certificate_tokens():
    certs = [*certificates(23, 4), *certificates(23, 2, [(4, 1, 8), (5, 2, 10)], unsorted)]
    tokens = [token for cert in certs for token in cert.moves.split()]
    assert {token[0] for token in tokens} == {"B", "P", "R", "W"}
    for token in tokens:
        assert parse_move(token) == parse_move.__wrapped__(token), token
        assert parse_move(token).token() == token


@pytest.mark.parametrize("bad", ["", "  ", "B0", "B-1", "Bx", "Pc1", "W3-2:2,1,3;2,1,3",
                                 "W1-2:2,1,3;2,2,3", "R4:2,1,3'", "W1-2:2,1,3;2,1,3'"])
def test_a_malformed_token_raises_on_every_call(bad):
    for _ in range(2):
        with pytest.raises(MoveError):
            parse_move(bad)
    with pytest.raises(MoveError):
        parse_move.__wrapped__(bad)


def test_replay_applies_and_checks_every_token(monkeypatch):
    cert = next(certificates(29, 1))
    tokens = cert.moves.split()
    rewrites = sum(token.startswith("W") for token in tokens)
    assert rewrites
    applied, checked = [], []
    real_apply, real_check = moves.apply_move, moves.check_block_rewrite

    def counted_apply(sys, move):
        applied.append(move.token())
        return real_apply(sys, move)

    def counted_check(*args):
        checked.append(args)
        return real_check(*args)
    monkeypatch.setattr(moves, "apply_move", counted_apply)
    monkeypatch.setattr(moves, "check_block_rewrite", counted_check)
    for _ in range(2):  # the second replay parses from the memo only
        applied.clear()
        checked.clear()
        cert.replay()
        assert applied == tokens
        assert len(checked) == rewrites


def test_canonicalize_checks_every_rewrite_it_plays(monkeypatch):
    rng = random.Random(31)
    sys = random_system(5, 2, 10, rng, is_full_monodromy)
    checked = []
    real_check = moves.check_block_rewrite

    def counted_check(*args):
        checked.append(args)
        return real_check(*args)
    monkeypatch.setattr(moves, "check_block_rewrite", counted_check)
    for _ in range(2):
        checked.clear()
        _, cert = canonicalize(sys)
        assert checked
        assert len(checked) == sum(token.startswith("W") for token in cert.moves.split())


def test_a_forged_certificate_fails_after_its_tokens_are_cached():
    rng = random.Random(37)
    first, second = (canonicalize(random_system(4, 1, 8, rng, is_full_monodromy))[1]
                     for _ in range(2))
    assert first.start != second.start
    first.replay()
    second.replay()
    with pytest.raises(MoveError):
        first._replace(start=second.start).replay()
    with pytest.raises(MoveError, match="replay reached"):
        first._replace(end=first.start).replay()


# ---------------------------------------------------------------------------
# the target side of a window check

def test_target_memo_matches_the_body_on_certificate_rewrites():
    body = moves._target_invariants.__wrapped__
    count = 0
    for cert in certificates(41, 5):
        d = deserialize(cert.start).d
        for token in cert.moves.split():
            if token.startswith("W"):
                target = parse_move(token).perms
                want = body(target, d)
                assert want is not None and moves._target_invariants(target, d) == want, token
                count += 1
    assert count > 100


def window_system(*ts):
    return HurwitzSystem(len(ts[0]), (), ts)


@pytest.mark.parametrize("target, error, match", [
    ((identity(3), identity(3)), MoveError, "not a transposition"),
    ((from_cycles(3, [(1, 2, 3)]), from_cycles(3, [(1, 3, 2)])), MoveError, "not a transposition"),
    ((transposition(3, 1, 2), (2, 1)), ValueError, "degree mismatch: 3 vs 2"),
    (((2, 1, 3, 4), (2, 1, 3, 4)), MoveError, "window product"),
])
def test_a_rejected_target_raises_on_every_repeat(target, error, match):
    t = transposition(3, 1, 2)
    for _ in range(3):
        for entries in (target, [list(p) for p in target]):
            with pytest.raises(error, match=match):
                moves.check_block_rewrite(window_system(t, t), 1, 2, entries)


def test_the_source_product_comes_before_the_target_side():
    # a source window of mixed degree (a system that is not valid) fails
    # its own product first: the target memo is not read, and a target
    # of another degree does not name its own mismatch
    source = window_system(transposition(3, 1, 2), (2, 1))
    moves._target_invariants.cache_clear()
    for target in ((transposition(3, 2, 3),) * 2, (transposition(3, 2, 3), (1, 2, 4, 3))):
        with pytest.raises(ValueError, match="degree mismatch: 3 vs 2"):
            moves.check_block_rewrite(source, 1, 2, target)
    info = moves._target_invariants.cache_info()
    assert (info.hits, info.misses) == (0, 0)


def rewrite_certificate(start, token):
    """A certificate of the rewrite token on the valid system (d, *ts),
    ending where the target is spliced into the window 1..hi."""
    sys = HurwitzSystem(start[0], (), tuple(start[1:]))
    assert validate(sys).ok
    move = parse_move(token)
    return certificate(sys, token, HurwitzSystem(sys.d, (), move.perms + sys.transpositions[move.hi:]))


@pytest.mark.parametrize("start, match", [
    # t12 t13 t34 t34 t34 t34 multiplies to a 3-cycle, the target to the identity
    ((4, (2, 1, 3, 4), (3, 2, 1, 4), (1, 2, 4, 3), (1, 2, 4, 3), (1, 2, 4, 3), (1, 2, 4, 3),
      (3, 2, 1, 4), (2, 1, 3, 4)), "window product"),
    # one block {1, 2, 3} against {1, 2}, {3, 4}
    ((4, (2, 1, 3, 4), (2, 1, 3, 4), (1, 3, 2, 4), (1, 3, 2, 4), (2, 1, 3, 4), (2, 1, 3, 4),
      (1, 2, 4, 3), (1, 2, 4, 3)), "window block partition"),
    # two entries in {1, 2} and four in {3, 4}, against four and two
    ((4, (2, 1, 3, 4), (2, 1, 3, 4), (1, 2, 4, 3), (1, 2, 4, 3), (1, 2, 4, 3), (1, 2, 4, 3),
      (1, 3, 2, 4), (1, 3, 2, 4)), "number of entries in a block"),
])
def test_a_forged_rewrite_fails_with_its_target_cached(start, match):
    t12, t34, t23 = (2, 1, 3, 4), (1, 2, 4, 3), (1, 3, 2, 4)
    token = "W1-6:" + ";".join(map(perms.format_perm, (t34, t34, t12, t12, t12, t12)))
    genuine = rewrite_certificate((4, t12, t12, t12, t12, t34, t34, t23, t23), token)
    for _ in range(2):
        genuine.replay()
    cached = moves._target_invariants.cache_info().hits
    for _ in range(2):
        with pytest.raises(MoveError, match=match):
            rewrite_certificate(start, token).replay()
    assert moves._target_invariants.cache_info().hits > cached


def test_push_word_memo_matches_the_catalog_map():
    for h in range(1, 4):
        for w in (2, 4, 8):
            for i in range(1, h + 1):
                for side in "ab":
                    e = certified_push_endo(h, w, i, side)
                    want = normalize._push_word.__wrapped__(e, i, side)
                    assert normalize._push_word(e, i, side) == want
                    assert all(abs(x) <= 2 * h for x in want)  # handle letters only


# ---------------------------------------------------------------------------
# perms.inverse

def test_inverse_memo_matches_the_body_at_small_degree():
    perms._inverse.cache_clear()
    for d in range(1, 6):
        for p in permutations(range(1, d + 1)):
            want = perms._inverse.__wrapped__(p)
            assert perms.inverse(p) == perms._inverse(p) == want
            assert perms.inverse(list(p)) == want and type(perms.inverse(list(p))) is tuple
            assert perms.compose(p, want) == identity(d)


# ---------------------------------------------------------------------------
# perms.weight

def test_weight_memo_matches_the_cycle_count():
    perms._weight.cache_clear()
    for d in range(1, 7):
        for p in permutations(range(1, d + 1)):
            want = d - len(perms.cycles(p))
            assert perms.weight(p) == perms._weight.__wrapped__(p) == want
            assert perms.weight(list(p)) == want
    rng = random.Random("memo:weight")
    for d in range(7, 17):
        for _ in range(50):
            p = list(range(1, d + 1))
            rng.shuffle(p)
            want = d - len(perms.cycles(tuple(p)))
            for _ in range(2):
                assert perms.weight(p) == perms.weight(tuple(p)) == want


# ---------------------------------------------------------------------------
# the text of a rewrite token

def old_rewrite_token(move) -> str:
    """Move.token of a W token as it was before its text was memoized."""
    return "W%d-%d:%s" % (move.j, move.hi, ";".join(map(perms.format_perm, move.perms)))


def test_rewrite_text_memo_matches_the_join_on_certificate_rewrites():
    moves._rewrite_text.cache_clear()
    count = 0
    for cert in certificates(43, 3):
        for token in cert.moves.split():
            if token.startswith("W"):
                move = parse_move(token)
                listed = move._replace(perms=[list(p) for p in move.perms])
                for _ in range(2):
                    assert move.token() == old_rewrite_token(move) == token
                    assert listed.token() == old_rewrite_token(listed) == token
                    assert move._replace(perms=list(move.perms)).token() == token
                count += 1
    assert count > 50


def test_rewrite_text_of_every_small_window():
    for d in range(2, 5):
        ts = all_transpositions(d)
        for n in (1, 2, 3):
            for window in permutations(ts * 2, n):
                move = moves.Move("rewrite", 2, perms=window, hi=n + 1)
                assert move.token() == old_rewrite_token(move)
                body = old_rewrite_token(move).partition(":")[2]
                assert moves._rewrite_text.__wrapped__(window) == body


# ---------------------------------------------------------------------------
# prop_split_normal_form

def outcome(f, *args):
    try:
        return f(*args)
    except NormalizeError as exc:
        return ("raised", str(exc))


def blocks(d: int):
    """The whole point set, then every proper block of two or more
    points (at d = 5 the intervals and one spread block only)."""
    yield tuple(range(1, d + 1))
    for n in range(2, d):
        for pts in combinations(range(1, d + 1), n):
            if d < 5 or pts == tuple(range(pts[0], pts[0] + n)) or pts == (1, 3, 5):
                yield pts


def test_split_normal_form_memo_matches_the_body_at_small_degree():
    body = normalize._split_normal_form.__wrapped__
    raised = set()
    for d in range(2, 6):
        ts = all_transpositions(d)
        for pts in blocks(d):
            n = len(pts)
            for g in permutations(range(1, d + 1)):
                for tau in ts:
                    for w_m in (2 * n - 1, 2 * n, 2 * n + 1):
                        want = outcome(body, pts, g, w_m, tau)
                        for _ in range(2):
                            assert outcome(prop_split_normal_form, pts, g, w_m, tau) == want
                        if want[0] == "raised":
                            raised.add(want[1].split()[0])
    # below 2#points, parity, outside the block, the tail entry
    assert raised == {"length", "parity", "product", "tail"}


@pytest.mark.parametrize("args, match", [
    (((1, 2, 3), identity(3), 4, transposition(3, 1, 2)), "below 2#points"),
    (((1, 2, 3), transposition(3, 1, 2), 6, transposition(3, 1, 2)), "parity"),
    (((1, 2), transposition(3, 1, 3), 4, transposition(3, 1, 2)), "outside the block"),
    (((1, 2, 3), identity(4), 6, transposition(4, 1, 4)), "inside the block"),
    (((1, 2, 3), identity(3), 6, identity(3)), "inside the block"),
    (((1,), identity(1), 2, identity(1)), "two points"),
    (((0, 1, 2), identity(3), 6, transposition(3, 1, 2)), "lie in 1..3"),
    (((1, 2, 4), identity(3), 6, transposition(3, 1, 2)), "lie in 1..3"),
])
def test_each_rejection_raises_on_every_repeat(args, match):
    points, g, w_m, tau = args
    for _ in range(3):
        with pytest.raises(NormalizeError, match=match):
            prop_split_normal_form(points, g, w_m, tau)
        with pytest.raises(NormalizeError, match=match):
            prop_split_normal_form(list(points), list(g), w_m, list(tau))


def test_split_normal_form_accepts_list_points():
    g, tau = (2, 3, 1, 5, 4), transposition(5, 1, 2)
    want = prop_split_normal_form((1, 2, 3, 4, 5), g, 11, tau)
    assert prop_split_normal_form([1, 2, 3, 4, 5], g, 11, tau) == want
    sub = prop_split_normal_form([4, 5, 6], from_cycles(6, [(4, 5, 6)]), 8, transposition(6, 4, 5))
    assert sub == prop_split_normal_form((4, 5, 6), from_cycles(6, [(4, 5, 6)]), 8,
                                         transposition(6, 4, 5))


def test_split_normal_form_reads_list_permutations_as_tuples():
    # the memo keys on tuples, so a list product no longer fails the
    # closing product assert and a list tail no longer lands in the result
    g, tau = (2, 3, 1, 5, 4), transposition(5, 1, 2)
    want = prop_split_normal_form((1, 2, 3, 4, 5), g, 11, tau)
    got = prop_split_normal_form([1, 2, 3, 4, 5], list(g), 11, list(tau))
    assert got == want
    assert all(type(t) is tuple for t in got)


# ---------------------------------------------------------------------------
# kernel work outside the memos

# the perms kernels whose calls perfbench counts per layer
COUNTED_KERNELS = ("compose", "inverse", "conjugate", "format_perm", "cycles", "orbit_blocks")


def test_kernel_calls_do_not_depend_on_memo_warmth(monkeypatch):
    # a memo body that called a counted kernel would count it on a miss
    # only, so two passes over the same systems would read differently
    calls: Counter = Counter()
    for name in COUNTED_KERNELS:
        fn = getattr(perms, name)

        def counted(*args, _fn=fn, _name=name):
            calls[_name] += 1
            return _fn(*args)
        for key, module in list(sys.modules.items()):
            if key.startswith("hurwitz") and getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, counted)
    rng = random.Random("memo:warmth")
    systems = [random_system(d, h, w, rng, is_full_monodromy)
               for d, h, w in [(4, 1, 8), (5, 2, 10), (6, 1, 12)] for _ in range(3)]

    def one_pass() -> dict:
        calls.clear()
        for system in systems:
            canonicalize(system, mode="fast")[1].replay()
        return dict(calls)
    one_pass()
    found = package_memos()
    assert {moves.parse_move, moves._target_invariants, moves._rewrite_text,
            normalize._split_normal_form, normalize._push_word, perms._inverse,
            perms._weight}.issubset(found)
    for memo in found:
        memo.cache_clear()
    cold = one_pass()
    assert cold["compose"] > 0
    assert one_pass() == cold


def package_memos() -> list:
    """Every functools memo that a hurwitz module holds at its top level
    or in one of its classes: each object with cache_clear, once.  Every
    module but __main__ (which runs the CLI) is imported first."""
    found = {}
    for name in MODULES:
        if name == "__main__":
            continue
        module = importlib.import_module("hurwitz" if name == "__init__" else "hurwitz." + name)
        holders = [vars(module)] + [vars(v) for v in vars(module).values()
                                    if isinstance(v, type) and v.__module__ == module.__name__]
        for holder in holders:
            for value in holder.values():
                if callable(getattr(value, "cache_clear", None)):
                    found[id(value)] = value
    return list(found.values())


def test_package_memos_finds_every_memo_the_static_test_reads():
    names = {"%s.%s" % (memo.__module__.split(".")[-1], memo.__name__)
             for memo in package_memos()}
    decorated = {"%s.%s" % (module, node.name)
                 for module in MODULES
                 for node in ast.walk(ast.parse((PACKAGE / (module + ".py")).read_text(
                     encoding="utf-8")))
                 if isinstance(node, ast.FunctionDef)
                 and any(_is_memo(dec.func if isinstance(dec, ast.Call) else dec, name)
                         for dec in node.decorator_list for name in ("lru_cache", "cache"))}
    assert decorated and names == decorated
