"""Verifiers against forged and garbled input.

Replay must reject a forged predecessor log (chains that never reach
the seed, entries of other parameters, invalid systems, repeated
keys), macro tokens of the wrong degree, window rewrites that move
entries between blocks, tokens that change w, certificates that start
from an invalid system and system lines of a degree over the cap.
Malformed certificates and config files, parameters out of range or
over the enumeration guard, flags a subcommand does not read and
system files that do not parse end in one line on stderr and exit 2.  The
property tests at the end check that the readers raise only their
documented errors on arbitrary input.
"""

import json
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hurwitz.catalog import catalog_hash
from hurwitz.cli import main
from hurwitz.moves import MoveError, apply_word, braid, certificate, parse_move
from hurwitz.normalize import canonical_star
from hurwitz.orbits import (compile_moves, connect, orbit_bfs, read_predecessor_log,
                            write_predecessor_log)
from hurwitz import orbits, systems
from hurwitz.perms import format_perm, transposition
from hurwitz.systems import HurwitzSystem, KeyParseError, deserialize, serialize


def record(key: str, pred: str, token: str) -> bytes:
    """One predecessor-log record, laid out as write_predecessor_log does."""
    kb, pb, tb = key.encode(), pred.encode(), token.encode()
    return (struct.pack("<I", len(kb)) + kb + struct.pack("<I", len(pb)) + pb
            + struct.pack("<H", len(tb)) + tb)


def braid_orbit():
    t12, t23 = transposition(3, 1, 2), transposition(3, 2, 3)
    seed = HurwitzSystem(3, (), (t12, t12, t23, t23))
    return orbit_bfs(seed, compile_moves(3, 0, 4, "braid"))


@pytest.fixture
def log_bytes(tmp_path):
    path = tmp_path / "orbit.predlog"
    write_predecessor_log(str(path), braid_orbit())
    return path.read_bytes()


def replay(tmp_path, data: bytes, name="input"):
    path = tmp_path / name
    path.write_bytes(data)
    return main(["replay", str(path)])


def one_error_line(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")
    return captured.err


# ---------------------------------------------------------------------------
# forged predecessor logs

def test_honest_log_replays(tmp_path, capsys, log_bytes):
    assert replay(tmp_path, log_bytes) == 0
    assert "replay: OK (24 states" in capsys.readouterr().out


def test_states_naming_each_other_fail(tmp_path, capsys, log_bytes):
    # a d=2 log, plus two d=3 states that are each one legal move from
    # the other; neither reaches the seed
    tmp = tmp_path / "d2.predlog"
    t = transposition(2, 1, 2)
    torus = HurwitzSystem(2, ((1, 2), (1, 2)), (t, t, t, t))
    write_predecessor_log(str(tmp), orbit_bfs(torus, compile_moves(2, 1, 4, "full")))
    x = braid_orbit().representative()
    y = serialize(braid(deserialize(x), 2))
    forged = tmp.read_bytes() + record(x, y, "B2'") + record(y, x, "B2")
    assert replay(tmp_path, forged) == 1
    out = capsys.readouterr().out
    assert out.count("differs from the seed's d=2 h=1 w=4") == 2
    assert "replay: FAIL (2 bad entries of 6)" in out


def test_cycle_inside_the_orbit_fails(tmp_path, capsys):
    # two members of a real orbit rewired to name each other: every
    # step is a legal move, but the chains never reach the seed
    res = braid_orbit()
    x = next(key for key in sorted(res.predecessors) if key != res.seed)
    y = serialize(braid(deserialize(x), 2))
    assert y not in (x, res.seed) and y in res.predecessors
    res.predecessors[x] = (y, "B2'")
    res.predecessors[y] = (x, "B2")
    path = tmp_path / "cycle.predlog"
    write_predecessor_log(str(path), res)
    assert main(["replay", str(path)]) == 1
    out = capsys.readouterr().out
    assert "%s: predecessor chain does not reach the seed" % x in out
    assert "%s: predecessor chain does not reach the seed" % y in out


def test_invalid_entry_fails(tmp_path, capsys, log_bytes):
    t12, t13 = transposition(3, 1, 2), transposition(3, 1, 3)
    bad = serialize(HurwitzSystem(3, (), (t12, t12, t12, t13)))
    seed = braid_orbit().seed
    assert replay(tmp_path, log_bytes + record(bad, seed, "B1")) == 1
    assert "%s: not a valid system: relator product" % bad in capsys.readouterr().out


def test_repeated_records_are_a_usage_error(tmp_path, capsys, log_bytes):
    doubled = log_bytes + log_bytes[8:]
    path = tmp_path / "doubled.predlog"
    path.write_bytes(doubled)
    with pytest.raises(ValueError, match="repeats the key of an earlier record at offset %d"
                       % len(log_bytes)):
        read_predecessor_log(str(path))
    assert main(["replay", str(path)]) == 2
    assert "offset %d" % len(log_bytes) in one_error_line(capsys)


def test_log_without_records_is_a_usage_error(tmp_path, capsys, log_bytes):
    assert replay(tmp_path, log_bytes[:8]) == 2
    assert "no records" in one_error_line(capsys)


# ---------------------------------------------------------------------------
# macro tokens of the wrong degree

WRONG_DEGREE = ["W1-2:2,1;2,1", "R1:2,1", "R1:2,1,3,4"]


@pytest.mark.parametrize("token", WRONG_DEGREE)
def test_wrong_degree_macro_fails_replay(token):
    star = canonical_star(3, 0, 6)
    with pytest.raises(MoveError, match="degree"):
        certificate(star, token, star).replay()


@pytest.mark.parametrize("token", WRONG_DEGREE)
def test_wrong_degree_macro_fails_in_the_cli(tmp_path, capsys, token):
    star = serialize(canonical_star(3, 0, 6))
    cert = {"catalog": catalog_hash(), "start": star, "moves": token, "end": star}
    assert replay(tmp_path, json.dumps(cert).encode()) == 1
    assert "replay: FAIL" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# certificates that leave the orbit or the Hurwitz space

def forged_block_count():
    """(12)(12)(34)^6 and (12)^4(34)^4 share the window product and block
    partition, but a braid keeps each entry inside its block."""
    t12, t34 = transposition(4, 1, 2), transposition(4, 3, 4)
    start = HurwitzSystem(4, (), (t12,) * 2 + (t34,) * 6)
    end = HurwitzSystem(4, (), (t12,) * 4 + (t34,) * 4)
    token = "W1-8:" + ";".join(format_perm(t) for t in end.transpositions)
    return start, token, end


def test_block_count_rewrite_fails_replay():
    start, token, end = forged_block_count()
    assert connect(start, end, "full") is None
    with pytest.raises(MoveError, match="number of entries in a block"):
        certificate(start, token, end).replay()


def test_block_count_rewrite_fails_in_the_cli(tmp_path, capsys):
    start, token, end = forged_block_count()
    cert = dict(good_certificate(), start=serialize(start), moves=token, end=serialize(end))
    assert replay(tmp_path, json.dumps(cert).encode()) == 1
    assert "number of entries in a block" in capsys.readouterr().out


@pytest.mark.parametrize("token,start_w,end_w", [("C1", 8, 6), ("C2", 8, 6), ("I4:2,1,3", 6, 8)])
def test_pair_cancel_and_insert_tokens_fail_replay(tmp_path, capsys, token, start_w, end_w):
    # the certificate joins systems of different w
    cert = dict(good_certificate(), start=serialize(canonical_star(3, 0, start_w)),
                moves=token, end=serialize(canonical_star(3, 0, end_w)))
    assert replay(tmp_path, json.dumps(cert).encode()) == 1
    assert "unreadable move token" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# certificates from a start that is not a valid system

INVALID_STARTS = [
    ("d=3 h=0 w=2 | t: 2,1,3 ; 1,3,2 | ab: -", "relator product is not the identity"),
    ("d=3 h=0 w=2 | t: 2,3,1 ; 3,1,2 | ab: -", "t_1 is not a transposition"),
]


def invalid_start_certificate(start: str):
    sys = deserialize(start)
    return certificate(sys, "B1", braid(sys, 1))


@pytest.mark.parametrize("start,message", INVALID_STARTS, ids=["relator", "three-cycles"])
def test_invalid_start_fails_replay(start, message):
    with pytest.raises(MoveError, match=message):
        invalid_start_certificate(start).replay()


@pytest.mark.parametrize("start,message", INVALID_STARTS, ids=["relator", "three-cycles"])
def test_invalid_start_fails_in_the_cli(tmp_path, capsys, start, message):
    cert = invalid_start_certificate(start)._asdict()
    assert replay(tmp_path, json.dumps(cert).encode()) == 1
    out = capsys.readouterr().out
    assert out.startswith("replay: FAIL") and message in out


# ---------------------------------------------------------------------------
# malformed certificates and configs

def good_certificate() -> dict:
    star = serialize(canonical_star(3, 0, 6))
    return {"catalog": catalog_hash(), "start": star, "moves": "B1 B1'", "end": star}


@pytest.mark.parametrize("data,message", [
    (b"[1, 2]", "JSON object"),
    (json.dumps(dict(good_certificate(), moves=["B1"])).encode(), "'moves' is not a string"),
    (json.dumps(dict(good_certificate(), start=None)).encode(), "'start' is not a string"),
    (json.dumps({k: v for k, v in good_certificate().items() if k != "end"}).encode(),
     "missing field 'end'"),
    (b'{"start": "\xff"}', "position 11"),
])
def test_malformed_certificate_is_a_usage_error(tmp_path, capsys, data, message):
    assert replay(tmp_path, json.dumps(good_certificate()).encode()) == 0
    capsys.readouterr()
    assert replay(tmp_path, data) == 2
    assert message in one_error_line(capsys)


# nested past the JSON decoder's recursion limit
DEEP_JSON = b"[" * 100000 + b"]" * 100000


def test_deeply_nested_certificate_is_a_usage_error(tmp_path, capsys):
    assert replay(tmp_path, DEEP_JSON) == 2
    assert "not a certificate" in one_error_line(capsys)


def test_deeply_nested_config_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_bytes(DEEP_JSON)
    assert main(["verify", "--case", "2,1,4", "--config", str(path)]) == 2
    assert "bad config file" in one_error_line(capsys)


@pytest.mark.parametrize("config,message", [
    ({"budget": "abc"}, "config budget must be int"),
    ({"samples": True}, "config samples must be int"),
    ({"seed": 1.5}, "config seed must be int"),
    ({"moves": "all"}, "config moves must be one of braid, full"),
    ({"mode": 3}, "config mode must be str"),
    ({"budget": -3}, "budget must be non-negative"),
])
def test_bad_config_value_is_a_usage_error(tmp_path, capsys, config, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main(["verify", "--case", "2,1,4", "--config", str(path)]) == 2
    assert message in one_error_line(capsys)


def test_config_threads_key_is_ignored(tmp_path, capsys):
    assert main(["verify", "--case", "2,1,4"]) == 0
    plain = capsys.readouterr().out
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"threads": "many", "workers": 8}))
    assert main(["verify", "--case", "2,1,4", "--config", str(path)]) == 0
    assert capsys.readouterr().out == plain


def test_config_not_utf8_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_bytes(b'{"seed": "\xff"}')
    assert main(["verify", "--case", "2,1,4", "--config", str(path)]) == 2
    assert "bad config file" in one_error_line(capsys)


def test_system_file_not_utf8_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "sys.txt"
    path.write_bytes(b"d=2 h=0 w=2 | t: 2,1 ; \xff | ab: -\n")
    assert main(["canonicalize", str(path)]) == 2
    assert "cannot read" in one_error_line(capsys)


# ---------------------------------------------------------------------------
# out-of-range parameters and degrees

@pytest.mark.parametrize("argv", [
    ["count", "--h", "-1"],
    ["count", "--w", "-2"],
    ["census", "--d", "2", "--h", "0", "--w", "-2"],
    ["census", "--d", "17", "--h", "0", "--w", "2"],
    ["explore", "--d", "3", "--h", "-1", "--w", "4"],
    ["census", "--d", "2", "--h", "1", "--w", "4", "--budget", "-1"],
    ["verify", "--case", "2,1,4", "--method", "sample", "--samples", "-1"],
    ["validate-moves", "--samples", "-5"],
    ["census", "--d", "3", "--h", "0", "--w", "40"],
    ["explore", "--d", "4", "--h", "1", "--w", "12"],
    ["verify", "--case", "9,0,18", "--method", "census"],
    ["verify", "--case", "5,1,10", "--method", "census", "--budget", "10000000000000"],
    ["explore", "--d", "3", "--h", "0", "--w", "2", "--filter", "group=-1x4"],
    ["explore", "--d", "3", "--h", "0", "--w", "2", "--filter", "group=0x3"],
    # group=2x1 in any other spelling
    *(["explore", "--d", "3", "--h", "0", "--w", "2", "--filter", "group=" + sizes]
      for sizes in ("S2xS1", "S_2\u00d7S_1", "2*1", "2+1", " 2x1", "+2x1", "02x1", "1x2")),
    # refused before the range is expanded, which would exhaust memory
    ["count", "--d", "2", "--h", "0", "--w", "0..100000000000"],
    ["verify", "--d", "2", "--h", "0", "--w", "4..100000000000"],
    ["count", "--d", "2..3", "--h", "0..100", "--w", "0..100"],
])
def test_out_of_range_parameters_are_a_usage_error(capsys, argv):
    assert main(argv) == 2
    one_error_line(capsys)


@pytest.mark.parametrize("argv,flag", [
    (["census", "--d", "3", "--h", "0", "--w", "4"], "--out"),
    (["census", "--d", "3", "--h", "0", "--w", "4"], "--log"),
    (["verify", "--case", "2,1,4"], "--out"),
    (["explore", "--d", "3", "--h", "0", "--w", "4"], "--out"),
    (["count", "--d", "2", "--h", "0", "--w", "2"], "--out"),
])
def test_unwritable_output_is_a_usage_error(tmp_path, capsys, argv, flag):
    path = str(tmp_path / "missing" / "report")
    assert main(argv + [flag, path]) == 2
    # verify and explore print their table before writing the report
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: cannot write " + path)


def test_count_past_the_digit_limit_is_a_usage_error(capsys):
    # about 4,770 digits, over CPython's integer-to-string limit of 4,300
    assert main(["count", "--d", "3", "--h", "0", "--w", "10000"]) == 2
    assert "more than 4300 digits" in one_error_line(capsys)


def test_count_past_the_product_budget_is_inconclusive(capsys):
    # about 43,000 products per step over S_6 at the default budget of 400,000
    assert main(["count", "--d", "6", "--h", "0", "--w", "3000"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("inconclusive: ")


def test_count_budget_covers_the_commutator_table(monkeypatch, capsys):
    # building the table's 720² = 518,400 commutators takes seconds, so the
    # budget has to refuse before it is built
    def refuse(d):
        raise AssertionError("commutator table built")
    monkeypatch.setattr(systems, "_commutator_pairs", refuse)
    assert main(["count", "--d", "6", "--h", "1", "--w", "0", "--budget", "0"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("inconclusive: ")


@pytest.mark.parametrize("d,h,w", [("7", "1", "4"), ("8", "1", "0")])
def test_census_guard_covers_the_commutator_table(monkeypatch, capsys, d, h, w):
    # (7,1,4) holds 2,451,828,960 systems; (8,1,0) holds 887,040, but
    # enumerating them builds the table of all 8!² ≈ 1.6·10^9 pairs first
    def refuse(d):
        raise AssertionError("commutator table built")
    monkeypatch.setattr(systems, "_commutator_pairs", refuse)
    assert main(["census", "--d", d, "--h", h, "--w", w]) == 2
    assert "guard" in one_error_line(capsys)


def test_census_guard_needs_no_convolution(monkeypatch, capsys):
    # the guard reads the character sum; the convolution at w = 1000
    # would take seconds and print a 1,174-digit estimate
    def refuse(*args, **kwargs):
        raise AssertionError("count_systems called")
    monkeypatch.setattr(systems, "count_systems", refuse)
    with pytest.raises(ValueError, match="guard"):
        next(iter(systems.enumerate_systems(6, 0, 1000)))
    assert main(["census", "--d", "6", "--h", "0", "--w", "1000"]) == 2
    assert "guard" in one_error_line(capsys)


def test_census_guard_runs_before_the_kernel(monkeypatch, capsys):
    # building the kernel certifies all 999 braids at w = 1000, each in
    # O(w) generator checks: a refused census must not build one
    def refuse(*args, **kwargs):
        raise AssertionError("kernel built")
    monkeypatch.setattr(orbits, "_Kernel", refuse)
    assert main(["census", "--d", "6", "--h", "0", "--w", "1000"]) == 2
    assert "guard" in one_error_line(capsys)


HUGE_DEGREE = "d=100000 h=0 w=0 | t: - | ab: -"


def test_huge_degree_certificate_fails_replay(tmp_path, capsys):
    cert = dict(good_certificate(), start=HUGE_DEGREE, moves="", end=HUGE_DEGREE)
    assert replay(tmp_path, json.dumps(cert).encode()) == 1
    assert "over the maximum 16 (at offset 2)" in capsys.readouterr().out


def test_huge_degree_log_seed_fails_replay(tmp_path, capsys):
    assert replay(tmp_path, b"HWSPRED1" + record(HUGE_DEGREE, "", "")) == 1
    assert "replay: FAIL at seed" in capsys.readouterr().out


@pytest.mark.parametrize("line", [HUGE_DEGREE, "d=3 h=%s w=0 | t: - | ab: -" % ("9" * 5000)])
def test_out_of_range_system_file_is_a_usage_error(tmp_path, capsys, line):
    path = tmp_path / "sys.txt"
    path.write_text(line + "\n")
    assert main(["connect", str(path), str(path)]) == 2
    assert "offset" in one_error_line(capsys)


# ---------------------------------------------------------------------------
# flags a subcommand does not read

REMOVED_FLAGS = [(command, "--threads") for command in (
    "verify", "explore", "census", "connect", "replay", "count", "validate-moves",
    "canonicalize")] + [
    ("replay", "--budget"), ("replay", "--seed"), ("replay", "--out"), ("replay", "--config"),
    ("census", "--seed"), ("validate-moves", "--out"),
    ("canonicalize", "--budget"), ("canonicalize", "--seed")]


def passing_argv(tmp_path, command: str) -> list[str]:
    system = tmp_path / "sys.txt"
    system.write_text(serialize(canonical_star(3, 0, 6)) + "\n")
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(good_certificate()))
    return {"verify": ["verify", "--case", "2,1,4"],
            "explore": ["explore", "--d", "2", "--h", "1", "--w", "4"],
            "census": ["census", "--d", "2", "--h", "1", "--w", "4"],
            "connect": ["connect", str(system), str(system)],
            "replay": ["replay", str(cert)],
            "count": ["count", "--d", "2", "--h", "0", "--w", "2"],
            "validate-moves": ["validate-moves", "--samples", "5"],
            "canonicalize": ["canonicalize", str(system)]}[command]


@pytest.mark.parametrize("command,flag", REMOVED_FLAGS)
def test_flag_the_subcommand_does_not_read_is_a_usage_error(tmp_path, capsys, command, flag):
    argv = passing_argv(tmp_path, command)
    assert main(argv) == 0
    capsys.readouterr()
    config = tmp_path / "cfg.json"
    config.write_text("{}")
    value = {"--threads": "64", "--budget": "1000", "--seed": "1",
             "--out": str(tmp_path / "out"), "--config": str(config)}[flag]
    assert main(argv + [flag, value]) == 2
    assert "unrecognized arguments: %s %s" % (flag, value) in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# properties: only the documented errors, on any input

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=300)

HOSTS = [canonical_star(3, 1, 6), canonical_star(2, 0, 4), canonical_star(4, 2, 8)]
LINES = [serialize(hs) for hs in HOSTS]

perm_text = st.one_of(
    st.integers(2, 4).flatmap(lambda k: st.permutations(list(range(1, k + 1))))
    .map(lambda p: ",".join(map(str, p))),
    st.text(alphabet="0123456789,- ", max_size=8),
)
token_text = st.one_of(
    st.text(max_size=10),
    st.builds("{}{}{}".format, st.sampled_from(["B", "Pa", "Pb", "C", "P", "Pc"]),
              st.integers(-1, 9), st.sampled_from(["", "'"])),
    st.builds("{}{}:{}".format, st.sampled_from(["R", "I", "W1-", "W2-", "W"]),
              st.integers(0, 9), st.lists(perm_text, min_size=1, max_size=4).map(";".join)),
)
word_text = st.lists(token_text, max_size=8).map(" ".join)


def spliced(base: bytes | str):
    """base with a slice replaced by arbitrary content."""
    n = len(base)
    filler = st.binary(max_size=12) if isinstance(base, bytes) else st.text(max_size=12)
    return st.builds(lambda i, j, mid: base[: min(i, j)] + mid + base[max(i, j):],
                     st.integers(0, n), st.integers(0, n), filler)


@PROPERTY
@given(st.one_of(st.text(), st.text(alphabet="dhwtab=|:;,- 0123456789\u00b2", max_size=60),
                 *(spliced(line) for line in LINES)))
@example("d=\u00b2 h=0 w=0 | t: - | ab: -")  # a digit to isdigit, not to int
def test_deserialize_raises_only_key_parse_errors(text):
    try:
        deserialize(text)
    except KeyParseError:
        pass


@PROPERTY
@given(token_text)
def test_parse_move_raises_only_move_errors(text):
    try:
        parse_move(text)
    except MoveError:
        pass


@PROPERTY
@given(st.sampled_from(HOSTS), word_text)
def test_apply_word_raises_only_move_errors(host, word):
    try:
        apply_word(host, word)
    except MoveError:
        pass


def honest_log() -> bytes:
    res = braid_orbit()
    out = [b"HWSPRED1"]
    for key in [res.seed] + sorted(k for k in res.predecessors if k != res.seed):
        out.append(record(key, *res.predecessors[key]))
    return b"".join(out)


LOG = honest_log()
log_bytes_strategy = st.one_of(st.binary(max_size=64).map(b"HWSPRED1".__add__), spliced(LOG))


@PROPERTY
@given(log_bytes_strategy)
def test_read_predecessor_log_raises_only_value_errors(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("log") / "fuzz.predlog"
    path.write_bytes(data)
    try:
        read_predecessor_log(str(path))
    except ValueError:
        pass


certificate_json = st.builds(
    lambda start, moves, end, catalog: json.dumps(
        {"start": start, "moves": moves, "end": end, "catalog": catalog}).encode(),
    st.one_of(st.sampled_from(LINES), st.text(max_size=10), st.integers()),
    st.one_of(word_text, st.lists(st.text(max_size=4), max_size=2)),
    st.one_of(st.sampled_from(LINES), st.text(max_size=10), st.none()),
    st.one_of(st.just(catalog_hash()), st.text(max_size=4)),
)


@PROPERTY
@given(st.one_of(st.binary(max_size=64), log_bytes_strategy, certificate_json,
                 spliced(json.dumps(good_certificate()).encode())))
def test_replay_exits_pass_fail_or_usage(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("replay") / "fuzz.input"
    path.write_bytes(data)
    assert main(["replay", str(path)]) in (0, 1, 2)
