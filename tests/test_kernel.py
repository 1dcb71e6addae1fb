"""The integer move kernel against the reference moves and against
outputs pinned from the string-keyed engine it replaced.

Census JSONL, predecessor logs and connect certificates must stay
byte-identical: the digests and move words below were recorded with
the previous engine, which flooded system lines and applied
moves.py-style moves directly.
"""

import hashlib
import random
import struct
from itertools import permutations
from math import factorial

import pytest

from hurwitz import catalog, orbits
from hurwitz.cli import main
from hurwitz.moves import apply_move, apply_word, parse_move
from hurwitz.orbits import (_Kernel, _Ranks, _ranks, census, compile_moves, connect,
                            orbit_bfs, read_predecessor_log,
                            write_predecessor_log)
from hurwitz.perms import conjugate, format_perm, group_order, orbit_blocks
from hurwitz.systems import (count_systems, enumerate_systems,
                             is_full_monodromy, random_system)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def pinned_seed(d, h, w, k):
    rng = random.Random("pin:%d:%d:%d:%d" % (d, h, w, k))
    return random_system(d, h, w, rng, is_full_monodromy if w >= 2 * (d - 1) else None)


# ---------------------------------------------------------------------------
# (a) every kernel move is the reference move

SMALL_CENSUSES = [(d, h, w) for d in (2, 3, 4) for h in (0, 1, 2) for w in (2, 4, 6, 8)
                  if 0 < count_systems(d, h, w) <= 10_000]


@pytest.mark.parametrize("selector", ["braid", "full"])
@pytest.mark.parametrize("d,h,w", SMALL_CENSUSES)
def test_kernel_moves_match_reference(d, h, w, selector):
    kernel = _Kernel(d, h, w, compile_moves(d, h, w, selector))
    references = [parse_move(token) for token, _ in kernel.steps]
    for sys in enumerate_systems(d, h, w):
        state = kernel.state(sys)
        assert kernel.system(state) == sys
        for (token, step), move in zip(kernel.steps, references):
            assert kernel.system(step(state)) == apply_move(sys, move), token


def test_kernel_follows_the_catalog(monkeypatch):
    # a catalog whose braid is the inverse braid: the kernel's steps must
    # change with it, as the reference moves do
    schemas = catalog.get_schemas()
    swapped = dict(schemas.sections, **{"braid": schemas.sections["braid^-1"],
                                        "braid^-1": schemas.sections["braid"]})
    monkeypatch.setattr(catalog, "get_schemas", lambda: catalog.Schemas(swapped))
    catalog.certified_braid_endo.cache_clear()
    try:
        kernel = _Kernel(3, 0, 4, compile_moves(3, 0, 4, "full"))
        for sys in enumerate_systems(3, 0, 4):
            state = kernel.state(sys)
            for token, step in kernel.steps:
                assert kernel.system(step(state)) == apply_move(sys, parse_move(token)), token
    finally:
        catalog.certified_braid_endo.cache_clear()


@pytest.mark.parametrize("d", [5, 6, 7, 8])
def test_kernel_moves_take_no_rank_product(monkeypatch, d):
    # past the degrees the censuses reach: every step, the rotation
    # included, is the reference move on seeded systems, and a fresh
    # table's move images come from moves.evaluate_program, never from
    # its products or inverses
    monkeypatch.setattr(orbits, "_ranks", _Ranks)
    rng = random.Random("evaluator:%d" % d)
    for h, w in [(0, 6), (1, 2), (1, 4), (2, 2), (2, 6)]:
        kernel = _Kernel(d, h, w, compile_moves(d, h, w, "full"))
        ranks = kernel.ranks
        steps = list(kernel.steps)
        if w >= 4:
            steps.append(("rotation", kernel.class_steps()[1]))
        for _ in range(4):
            sys = random_system(d, h, w, rng)
            state = kernel.state(sys)
            for token, step in steps:
                want = (apply_word(sys, " ".join("B%d" % j for j in range(1, w)))
                        if token == "rotation" else apply_move(sys, parse_move(token)))
                assert kernel.system(step(state)) == want, (h, w, token)
        assert len(ranks.mul) == len(ranks.inv) == 0


# ---------------------------------------------------------------------------
# (b) census JSONL

CENSUS_PINS = [
    ((2, 1, 4, "full"), {}, "b480a14b90e0a06f348852a07d8171597d1651662ad1837b1cb11706e752e9f1"),
    ((2, 2, 4, "full"), {}, "8be4fe7a716b5276f81f88393b936f1e081cfef798df77af66eb376b63097cb5"),
    ((3, 1, 4, "full"), {}, "1617eeafd0cc81b2053b657910720a9fa173c800ee219688c05f6bc6e9c6f541"),
    ((3, 0, 4, "braid"), {}, "92a139956e387213b9e70f54b9f7b6c3097b708d5c5409a00042c3cb8d1fd71e"),
    ((3, 1, 6, "full", is_full_monodromy, "full-monodromy"), {},
     "1eab148ee7b24904d2d86f958f46fbce4935104c7fb5f293e4cf8824e77b168c"),
    ((4, 0, 6, "braid", is_full_monodromy, "full-monodromy"), {},
     "0958aa983d124d5ec3846ecc045637cf5ea21c13f4db9ac8d770433acddae1f2"),
    # partial: two whole orbits, then a flood cut at a level boundary
    ((3, 1, 4, "full"), {"budget": 600},
     "01ee3235dea05f4eb46b42a360cf0a24e48282c9f5a4e01aa0cb862d7f0d7139"),
    ((3, 1, 6, "full", is_full_monodromy, "full-monodromy"), {"budget": 3000},
     "d03dcd7b752f2d6a83a9080ca454b4421cf195d0fddaea5ca573e3764a6a36fc"),
    # d = 10: "10," sorts before "2,", so text order is not numeric order
    ((10, 0, 4, "braid"), {}, "3245d7ce45d83ccdf14037a9fe7d51a7799fca3374d3bbb30fbc44e27af63c5e"),
]


@pytest.mark.parametrize("args,kwargs,digest", CENSUS_PINS)
def test_census_jsonl_pinned(args, kwargs, digest):
    res = census(*args, **kwargs)
    assert res.partial == ("budget" in kwargs)
    assert sha256(res.to_jsonl().encode()) == digest


# ---------------------------------------------------------------------------
# (c) predecessor logs and certificates

FLOOD_PINS = [
    ((3, 0, 4, "braid"), None, (24, 4, False),
     "12419f3e38b97e910399dc686627bf62dffeb6cdb067516541fa632f3abdc6f4"),
    # floods try moves in token order, which differs from compile_moves
    # order at h = 2 (Pa2 before Pb1) and at w >= 11 (B10 before B2)
    ((2, 2, 4, "full"), None, (16, 5, False),
     "80f40d047bc6c4845890dde630f1e448cea01d90bb9afea830769ac945cb6ac1"),
    ((3, 2, 6, "full"), 4000, (14726, 5, True),
     "a81f767291b711c7547eb1a517f79bdc97e90182b14240488084f15180df0770"),
    ((3, 0, 12, "braid"), 5000, (13085, 5, True),
     "61158bba171b323e4f836f998e73a32c1a476b455a1a58a988c7f4b70ae19da3"),
    ((10, 0, 4, "braid"), None, (24, 4, False),
     "217fd78925a6b33fbeddfa4c959755f9b0cb387ff3c1424a0ea823352d54ccd5"),
]


@pytest.mark.parametrize("params,budget,shape,digest", FLOOD_PINS)
def test_predecessor_log_pinned(tmp_path, params, budget, shape, digest):
    d, h, w, selector = params
    res = orbit_bfs(pinned_seed(d, h, w, 0), compile_moves(d, h, w, selector), budget=budget)
    assert (res.size, res.levels, res.partial) == shape
    path = tmp_path / "orbit.predlog"
    write_predecessor_log(str(path), res)
    assert sha256(path.read_bytes()) == digest


CONNECT_PINS = [
    ((3, 1, 6, "full"), ["Pa1 Pb1' Pb1' Pa1", "B2 B3 B4 Pb1' Pa1 Pb1 B5' B1' B2'",
                         "B1 B4 B5 Pa1 Pb1 Pb1 B3", "B1 B5' Pa1' Pb1 Pa1' Pb1' B2' B3'"]),
    ((2, 2, 4, "full"), ["Pa1 Pa2 Pb2' Pb1'", "Pb1"]),
    ((3, 2, 6, "full"), ["Pb1 Pb2 Pa1 Pa2' Pb2' B2' B3 B4",
                         "B2 Pa1 Pb2' Pa2 Pb2 B4 B5' Pb1 B1' B2"]),
    ((3, 0, 12, "braid"), ["B8 B7' B6 B7' B11 B10' B9' B4' B3",
                           "B3' B5 B8' B7 B9 B10' B11' B2'"]),
    ((10, 0, 4, "braid"), [None, None]),
    ((4, 1, 4, "full"), ["B2' Pb1' B3 Pb1 Pa1 B2 B3 B1 B2'", "B1 B2 Pa1 B3' Pb1' B2"]),
]


@pytest.mark.parametrize("params,words", CONNECT_PINS)
def test_connect_certificates_pinned(params, words):
    d, h, w, selector = params
    for k, word in enumerate(words):
        cert = connect(pinned_seed(d, h, w, 2 * k + 1), pinned_seed(d, h, w, 2 * k + 2),
                       selector, budget=400_000)
        assert (None if cert is None else cert.moves) == word


@pytest.mark.parametrize("args,digest", [
    (["--d", "3", "--h", "1", "--w", "4"],
     "693746532e5159b3af06033046c880eee56641765e7f0d224e82b667cab5f8be"),
    (["--d", "4", "--h", "0", "--w", "4", "--moves", "braid"],
     "9667729e0c2b008175ca7f48fbf50ef33ac523cbd9bf3cb3103f646745a0cc6f"),
])
def test_cli_census_log_pinned(tmp_path, capsys, args, digest):
    log = tmp_path / "orbit.predlog"
    assert main(["census"] + args + ["--out", str(tmp_path / "c.jsonl"), "--log", str(log)]) == 0
    assert sha256(log.read_bytes()) == digest


# ---------------------------------------------------------------------------
# (d) rank order is system-line order

@pytest.mark.parametrize("d", range(2, 17))
def test_rank_order_is_text_order(d):
    rng = random.Random("ranks:%d" % d)
    ranks = _Ranks(d)
    perms = set()
    for _ in range(300):
        images = list(range(1, d + 1))
        rng.shuffle(images)
        perms.add(tuple(images))
    perms = list(perms)
    by_rank = sorted(perms, key=ranks.rank.__getitem__)
    assert by_rank == sorted(perms, key=format_perm)
    assert all(ranks.perm[ranks.rank[p]] == p for p in perms)
    assert all(0 <= ranks.rank[p] < ranks.n for p in perms)


@pytest.mark.parametrize("d", [1, 3, 5])
def test_elements_are_built_once_in_permutations_order(d):
    ranks = _Ranks(d)
    elements = ranks.elements()
    assert elements == tuple(ranks.rank[p] for p in permutations(range(1, d + 1)))
    assert ranks.elements() is elements


def least_conjugators(ranks, candidates, entries):
    """Those candidates u (ranks, kept in order) making the conjugates
    of entries (ranks) least in text order, by trying each: a bare rank
    when one is left, else a tuple."""
    images = [(tuple(format_perm(conjugate(ranks.perm[x], ranks.perm[u])) for x in entries), u)
              for u in candidates]
    least = min(images)[0]
    us = tuple(u for image, u in images if image == least)
    return us[0] if len(us) == 1 else us


def drawn_ranks(ranks, rng, count):
    points = list(range(1, ranks.d + 1))
    return [ranks.rank[tuple(rng.sample(points, ranks.d))] for _ in range(count)]


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_a_settled_conjugator_is_a_bare_rank(d):
    # least and narrow hold an int exactly when one conjugator is left,
    # and a tuple of the tied ones, in elements() order, otherwise
    ranks = _Ranks(d)
    elements, one = ranks.elements(), ranks.identity
    if d <= 4:
        pairs = [(x, y) for x in elements for y in elements]
        entries = elements
    else:
        rng = random.Random("settled:%d" % d)
        drawn = drawn_ranks(ranks, rng, 40)
        # a pair with itself or the identity keeps its centralizer tied
        pairs = [(x, y) for x, other in zip(drawn[:20], drawn[20:]) for y in (other, x, one)]
        entries = drawn[:10]
    ties = set()
    for x, y in pairs:
        us = ranks.least[x * ranks.n + y]
        assert us == least_conjugators(ranks, elements, (x, y))
        if type(us) is tuple:
            ties.add(us)
    assert ties or d == 1
    for us in ties:
        for x in entries:
            assert ranks.narrow[us, x] == least_conjugators(ranks, us, (x,))


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_conjugates_read_off_the_columns(d):
    kernel = _Kernel(d, 0, 2, compile_moves(d, 0, 2, "braid"))
    ranks = kernel.ranks
    row, elements = ranks.row, ranks.elements()
    rng = random.Random("columns:%d" % d)
    for size in (1, 1, 2, 3, 4, 6):
        st = tuple(drawn_ranks(ranks, rng, size))
        assert kernel.conjugates(st) == {tuple(map(row[u].__getitem__, st)) for u in elements}
        assert all(ranks.column[x] == tuple(row[u][x] for u in elements) for x in st)
    # zip over no columns yields nothing: the empty state is its own
    # one conjugate
    assert kernel.conjugates(()) == {()}


def test_ranks_refuse_a_non_permutation():
    ranks = _Ranks(3)
    one = ranks.identity
    with pytest.raises(ValueError):
        ranks.rank[(1, 1, 2)]
    assert ranks.perm[one] == (1, 2, 3)
    assert (1, 1, 2) not in ranks.rank


def test_kernels_of_one_degree_share_one_table():
    first = _Kernel(3, 1, 4, compile_moves(3, 1, 4, "full"))
    assert _Kernel(3, 0, 6, compile_moves(3, 0, 6, "braid")).ranks is first.ranks
    other = _Kernel(4, 0, 4, compile_moves(4, 0, 4, "full"))
    assert other.ranks is not first.ranks and other.ranks.d == 4
    # only the last degree's tables are kept
    assert _ranks.cache_info().currsize == 1
    assert _Kernel(3, 1, 4, compile_moves(3, 1, 4, "full")).ranks is not first.ranks


SHARED_TABLE_CENSUSES = [((3, 0, 6, "braid"), is_full_monodromy), ((3, 1, 4, "full"), None),
                         ((3, 1, 6, "full"), is_full_monodromy),
                         ((4, 0, 6, "braid"), is_full_monodromy),
                         ((4, 1, 2, "full"), is_full_monodromy), ((2, 2, 4, "full"), None)]


def test_census_is_the_same_with_cold_and_warm_tables():
    def run(case, filter):
        return census(*case, filter, "all" if filter is None else "full-monodromy").to_jsonl()
    cold = []
    for case, filter in SHARED_TABLE_CENSUSES:
        _ranks.cache_clear()
        cold.append(run(case, filter))
    # each case twice in a row, then the list backwards: every census
    # after the first of a degree starts from tables others filled
    twice = [run(*args) for args in SHARED_TABLE_CENSUSES for _ in range(2)]
    backwards = [run(*args) for args in reversed(SHARED_TABLE_CENSUSES)][::-1]
    assert twice == [jsonl for jsonl in cold for _ in range(2)] and backwards == cold


# ---------------------------------------------------------------------------
# (e) the full-monodromy filter

@pytest.mark.parametrize("d,h,w", [(3, 1, 4), (2, 2, 4), (3, 1, 6), (4, 0, 6)])
def test_bitmask_filter_agrees(d, h, w):
    # the bitmask in the name is gone; the name stays so the test id is stable
    fallback = 0
    for sys in enumerate_systems(d, h, w):
        expected = group_order(sys.handles + sys.transpositions, d) == factorial(d)
        assert is_full_monodromy(sys) == expected
        fallback += expected and len(orbit_blocks(sys.transpositions, d)) > 1
    if (d, h, w) == (3, 1, 4):
        # full monodromy reached only with the handles' help
        assert fallback > 0


# ---------------------------------------------------------------------------
# damaged predecessor logs

@pytest.fixture
def log_bytes(tmp_path):
    res = orbit_bfs(pinned_seed(2, 2, 4, 0), compile_moves(2, 2, 4, "full"))
    path = tmp_path / "orbit.predlog"
    write_predecessor_log(str(path), res)
    return path.read_bytes()


def damaged(tmp_path, data):
    path = tmp_path / "damaged.predlog"
    path.write_bytes(data)
    return str(path)


def test_truncated_length_field(tmp_path, log_bytes):
    with pytest.raises(ValueError, match="offset 8 needs 4 bytes, 2 left"):
        read_predecessor_log(damaged(tmp_path, log_bytes[:10]))


def test_length_past_end_of_file(tmp_path, log_bytes):
    with pytest.raises(ValueError, match="truncated predecessor log: key at offset 12"):
        read_predecessor_log(damaged(tmp_path, log_bytes[:40]))


def test_invalid_utf8(tmp_path, log_bytes):
    data = bytearray(log_bytes)
    data[12] = 0xFF
    with pytest.raises(ValueError, match="not UTF-8 at offset 12"):
        read_predecessor_log(damaged(tmp_path, bytes(data)))


def test_whole_records_still_read(tmp_path, log_bytes):
    (key_len,) = struct.unpack("<I", log_bytes[8:12])
    end = 12 + key_len + 4 + 2 + 0  # the seed: empty predecessor and token
    log = read_predecessor_log(damaged(tmp_path, log_bytes[:end]))
    assert log.size == 1 and log.predecessors[log.seed] == ("", "")


@pytest.mark.parametrize("cut", [10, 40, 60])
def test_replay_of_truncated_log_is_a_usage_error(tmp_path, capsys, log_bytes, cut):
    assert main(["replay", damaged(tmp_path, log_bytes[:cut])]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and "offset" in captured.err
