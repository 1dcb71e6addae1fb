"""Command line behavior: exit codes, report shape, and byte-stable
reruns."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from hurwitz import normalize, systems
from hurwitz.cli import main
from hurwitz.orbits import BudgetError, read_predecessor_log
from hurwitz.perms import identity, transposition
from hurwitz.systems import HurwitzSystem, random_system, is_full_monodromy, serialize

SRC = str(Path(__file__).resolve().parent.parent / "src")
# runs its arguments as a command and prints its exit code and peak RSS in KiB
RSS_PROBE = """import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def write_system(tmp_path, name, hs):
    path = tmp_path / name
    path.write_text(serialize(hs) + "\n")
    return str(path)


def torus(a=None, b=None):
    t = transposition(2, 1, 2)
    e = identity(2)
    return HurwitzSystem(2, (a or e, b or e), (t, t, t, t))


class TestVerify:
    def test_census_pass(self, capsys):
        assert main(["verify", "--case", "2,1,4", "--case", "2,2,4"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 3  # two cases plus the footer
        assert "# catalog" in out

    def test_rejects_w_below_2d(self, capsys):
        assert main(["verify", "--case", "2,1,2"]) == 2
        assert "w < 2d" in capsys.readouterr().err

    def test_rejects_odd_w(self, capsys):
        assert main(["verify", "--case", "3,1,7"]) == 2
        assert "even" in capsys.readouterr().err

    def test_ranges(self, capsys):
        assert main(["verify", "--d", "2", "--h", "1..2", "--w", "4"]) == 0
        out = capsys.readouterr().out
        assert "2    1    4" in out and "2    2    4" in out

    def test_sampled_method(self, capsys):
        assert main(["verify", "--case", "2,1,4", "--method", "sample",
                     "--samples", "5", "--seed", "9"]) == 0
        out = capsys.readouterr().out
        assert "sample" in out and "# seed 9" in out

    def test_csv_export(self, tmp_path, capsys):
        out_path = tmp_path / "matrix.csv"
        assert main(["verify", "--case", "2,1,4", "--out", str(out_path)]) == 0
        text = out_path.read_text()
        assert "d,h,w,method,states,orbits,result,note" in text
        assert "2,1,4,census,4,1,PASS," in text

    @pytest.mark.parametrize("case,budget", [("4,1,8", "1000"), ("5,1,10", "100000000000")])
    def test_skipped_census_is_inconclusive(self, capsys, case, budget):
        # a forced census over the budget never runs, so it decides nothing
        assert main(["verify", "--case", case, "--method", "census", "--budget", budget]) == 3
        out = capsys.readouterr().out
        assert " SKIP " in out and out.endswith("\nverify: INCONCLUSIVE\n")

    def test_no_samples_is_inconclusive(self, capsys):
        # no draw was made, so nothing is decided and nothing failed
        assert main(["verify", "--case", "3,0,6", "--method", "sample", "--samples", "0"]) == 3
        out = capsys.readouterr().out
        row = [line for line in out.splitlines() if line.startswith("3    0    6")]
        assert row == ["3    0    6    sample   0          -        INCONCLUSIVE no systems sampled"]
        assert out.endswith("\nverify: INCONCLUSIVE\n")

    def test_budget_equal_to_population_passes(self, capsys):
        # the census floods all 4 systems into one orbit: nothing is left undecided
        assert main(["verify", "--case", "2,1,4", "--budget", "4"]) == 0
        out = capsys.readouterr().out
        assert "INCONCLUSIVE" not in out and out.endswith("verify: PASS\n")

    def test_reruns_byte_identical(self, capsys):
        main(["verify", "--case", "2,1,6"])
        first = capsys.readouterr().out
        main(["verify", "--case", "2,1,6"])
        assert capsys.readouterr().out == first


class TestExploreCensus:
    def test_explore_table(self, capsys):
        assert main(["explore", "--d", "3", "--h", "0", "--w", "4",
                     "--moves", "braid"]) == 0
        out = capsys.readouterr().out
        assert "total: 4 orbits over 27 systems" in out

    def test_explore_rejects_odd_w(self, capsys):
        assert main(["explore", "--d", "3", "--h", "0", "--w", "3"]) == 2

    def test_group_filter(self, capsys):
        assert main(["explore", "--d", "3", "--h", "0", "--w", "4",
                     "--moves", "braid", "--filter", "group=2x1"]) == 0
        out = capsys.readouterr().out
        assert "total: 3 orbits over 3 systems" in out

    def test_bad_group_filter(self, capsys):
        assert main(["explore", "--d", "3", "--h", "0", "--w", "4",
                     "--filter", "group=2x2"]) == 2

    def test_census_jsonl(self, capsys):
        assert main(["census", "--d", "2", "--h", "1", "--w", "4",
                     "--filter", "full-monodromy"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1
        rec = json.loads(lines[0])
        assert rec["size"] == 4 and rec["full_monodromy"] is True
        assert rec["params"]["filter"] == "full-monodromy"

    @pytest.mark.parametrize("argv", [
        ["--d", "3", "--h", "1", "--w", "0", "--filter", "full-monodromy"],  # no orbit
        ["--d", "3", "--h", "0", "--w", "4"],
    ])
    def test_census_out_is_jsonl(self, tmp_path, argv):
        path = tmp_path / "census.jsonl"
        assert main(["census"] + argv + ["--out", str(path)]) == 0
        for line in path.read_text().splitlines(keepends=True):
            assert line.endswith("\n")
            json.loads(line)

    def test_census_budget_inconclusive(self, capsys):
        assert main(["census", "--d", "3", "--h", "0", "--w", "4",
                     "--moves", "braid", "--budget", "5"]) == 3

    @pytest.mark.parametrize("argv", [
        # by count: the full-monodromy orbit has exactly budget members
        ["explore", "--d", "3", "--h", "0", "--w", "4", "--filter", "full-monodromy",
         "--budget", "24"],
        # by enumeration: four orbits over all 27 systems
        ["explore", "--d", "3", "--h", "0", "--w", "4", "--budget", "27"],
    ])
    def test_budget_equal_to_population_is_complete(self, capsys, argv):
        assert main(argv) == 0
        total = capsys.readouterr().out.splitlines()[-1]
        assert total.startswith("total: ") and "(partial)" not in total

    def test_census_threads_byte_identical(self, tmp_path):
        paths = []
        for run in range(3):
            p = tmp_path / ("census%d.jsonl" % run)
            assert main(["census", "--d", "3", "--h", "1", "--w", "4",
                         "--out", str(p)]) == 0
            paths.append(p.read_bytes())
        assert paths[0] == paths[1] == paths[2]

    def test_predecessor_log_replays(self, tmp_path, capsys):
        log = tmp_path / "orbit.predlog"
        assert main(["census", "--d", "2", "--h", "1", "--w", "4",
                     "--out", str(tmp_path / "c.jsonl"), "--log", str(log)]) == 0
        assert main(["replay", str(log)]) == 0
        assert "replay: OK (4 states" in capsys.readouterr().out

    def test_predecessor_log_honours_the_budget(self, tmp_path, capsys):
        # the orbit holds 8,736 systems; the flood stops at the first
        # level boundary past 100 states and writes whole levels
        log = tmp_path / "orbit.predlog"
        assert main(["census", "--d", "3", "--h", "1", "--w", "6", "--filter", "full-monodromy",
                     "--budget", "100", "--out", str(tmp_path / "c.jsonl"),
                     "--log", str(log)]) == 3
        assert read_predecessor_log(str(log)).size == 129
        assert main(["replay", str(log)]) == 0
        assert "replay: OK (129 states" in capsys.readouterr().out

    def test_budgeted_census_stays_small(self):
        # a budget bounds the work: the census floods about 1,000 of the
        # 2,242,560 systems and stops, without holding the rest in memory.
        # A child's peak RSS counts the memory of the process it was forked
        # from, so a fresh interpreter starts the census and reports it
        census = [sys.executable, "-m", "hurwitz", "census", "--d", "4", "--h", "1", "--w", "6",
                  "--budget", "1000"]
        probe = subprocess.run([sys.executable, "-c", RSS_PROBE] + census, capture_output=True,
                               text=True, env=dict(os.environ, PYTHONPATH=SRC), check=True)
        code, peak_kib = map(int, probe.stdout.split())
        assert code == 3
        assert peak_kib < 100 * 1024

@pytest.mark.parametrize("argv", [["census", "--d", "2", "--h", "0", "--w", "1000"],
                                  ["verify", "--case", "2,0,1000"]])
def test_more_branch_points_than_the_recursion_limit(capsys, argv):
    # one system with 1000 transpositions: enumeration must not recurse
    # once per branch point
    assert main(argv) == 0
    assert capsys.readouterr().err == ""


class TestConnectReplay:
    def test_connected_with_certificate(self, tmp_path, capsys):
        t = transposition(2, 1, 2)
        src = write_system(tmp_path, "src.txt", torus())
        dst = write_system(tmp_path, "dst.txt", torus(t, t))
        cert_path = tmp_path / "cert.json"
        assert main(["connect", src, dst, "--out", str(cert_path)]) == 0
        assert main(["replay", str(cert_path)]) == 0
        out = capsys.readouterr().out
        assert "replay: OK" in out

    def test_identical_files_empty_word(self, tmp_path, capsys):
        src = write_system(tmp_path, "src.txt", torus())
        cert_path = tmp_path / "cert.json"
        assert main(["connect", src, src, "--out", str(cert_path)]) == 0
        assert json.loads(cert_path.read_text())["moves"] == ""

    def test_braid_disconnection(self, tmp_path, capsys):
        t = transposition(2, 1, 2)
        src = write_system(tmp_path, "src.txt", torus())
        dst = write_system(tmp_path, "dst.txt", torus(t, t))
        assert main(["connect", src, dst, "--moves", "braid"]) == 1
        out = capsys.readouterr().out
        assert "disconnected" in out and "source orbit" in out

    def test_mixed_degrees_usage_error(self, tmp_path, capsys):
        t12, t23 = transposition(3, 1, 2), transposition(3, 2, 3)
        src = write_system(tmp_path, "src.txt", torus())
        dst = write_system(tmp_path, "dst.txt",
                           HurwitzSystem(3, (), (t12, t12, t23, t23)))
        assert main(["connect", src, dst]) == 2

    def test_invalid_system_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("d=2 h=0 w=2 | t: 2,1 ; 2,1 ; 2,1 | ab: -\n")
        src = write_system(tmp_path, "src.txt", torus())
        assert main(["connect", str(bad), src]) == 2

    def test_tampered_certificate_fails(self, tmp_path, capsys):
        t = transposition(2, 1, 2)
        src = write_system(tmp_path, "src.txt", torus())
        dst = write_system(tmp_path, "dst.txt", torus(t, t))
        cert_path = tmp_path / "cert.json"
        main(["connect", src, dst, "--out", str(cert_path)])
        capsys.readouterr()
        data = json.loads(cert_path.read_text())
        # a start or token spelled otherwise than the package writes it
        # names the same system or move to int(), but only one spelling
        # is read
        start = data["start"]
        assert "ab: 1,2 ," in start
        forged = [dict(data, end=start)] + [
            dict(data, start=start.replace("ab: 1,2 ,", "ab: %s ," % spelled))
            for spelled in ("\uff11,2", "1, 2", "0_1,2", "+1,2", "01,2")] + [
            dict(data, moves=data["moves"] + " " + tokens)
            for tokens in ("B01 B1'", "B+1 B1'", "B\uff11 B1'", "W1-\uff102:2,1;2,1")]
        # the separators take one spelling too: single spaces, none at
        # either end
        word = data["moves"] + " B1 B1'"
        cert_path.write_text(json.dumps(dict(data, moves=word)))
        assert main(["replay", str(cert_path)]) == 0
        capsys.readouterr()
        forged += [dict(data, moves=spelled) for spelled in
                   (word.replace(" ", "  "), word.replace(" ", "\t"), " " + word, word + "\n")]
        for cert in forged:
            cert_path.write_text(json.dumps(cert))
            assert main(["replay", str(cert_path)]) == 1
            out = capsys.readouterr().out
            assert len(out.splitlines()) == 1 and out.startswith("replay: FAIL"), cert

    def test_unreadable_certificate(self, tmp_path):
        p = tmp_path / "junk.json"
        p.write_text("not json")
        assert main(["replay", str(p)]) == 2


class TestCount:
    def test_small_grid(self, capsys):
        assert main(["count", "--d", "2..3", "--h", "0..1", "--w", "0..4"]) == 0
        out = capsys.readouterr().out
        assert "count: PASS" in out
        assert "27" in out

    def test_degree_cap(self, capsys):
        assert main(["count", "--d", "9", "--h", "0", "--w", "2"]) == 2
        assert "unsupported" in capsys.readouterr().err

    def test_commutator_table_is_built_once(self, capsys):
        # every case convolves and enumerates over the same S_5 x S_5 table
        systems._commutator_pairs.cache_clear()
        assert main(["count", "--d", "5", "--h", "1", "--w", "0..4"]) == 0
        assert "count: PASS" in capsys.readouterr().out
        assert systems._commutator_pairs.cache_info().misses == 1


class TestValidateMoves:
    def test_passes(self, capsys):
        assert main(["validate-moves", "--samples", "20"]) == 0
        out = capsys.readouterr().out
        assert "validate-moves: PASS" in out
        assert "catalog certification" in out


class TestCanonicalize:
    def test_canonicalizes_file(self, tmp_path, capsys):
        rng = random.Random(5)
        while True:
            hs = random_system(3, 1, 6, rng)
            if is_full_monodromy(hs):
                break
        src = write_system(tmp_path, "sys.txt", hs)
        cert_path = tmp_path / "cert.json"
        assert main(["canonicalize", src, "--out", str(cert_path)]) == 0
        out = capsys.readouterr().out
        assert "canonical: d=3 h=1 w=6" in out
        assert main(["replay", str(cert_path)]) == 0

    def test_rejects_short_systems(self, tmp_path, capsys):
        src = write_system(tmp_path, "sys.txt",
                           random_system(3, 1, 4, random.Random(1)))
        assert main(["canonicalize", src]) == 2

    def test_validate_budget_is_inconclusive(self, tmp_path, capsys, monkeypatch):
        # a search that spends its budget decides nothing: exit 3, not FAIL
        rng = random.Random(5)
        while True:
            hs = random_system(3, 1, 6, rng)
            if is_full_monodromy(hs):
                break
        assert any(token[0] == "W" for token in normalize.canonicalize(hs)[1].moves.split())

        def spent(*args, **kwargs):
            raise BudgetError("connect exceeded its 3-state budget")
        monkeypatch.setattr(normalize, "connect", spent)
        src = write_system(tmp_path, "sys.txt", hs)
        assert main(["canonicalize", src, "--mode", "validate"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith("inconclusive: ")


class TestConfig:
    def test_config_fills_defaults_flags_win(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 7, "samples": 3}))
        assert main(["verify", "--case", "2,1,4", "--method", "sample",
                     "--config", str(cfg)]) == 0
        assert "# seed 7" in capsys.readouterr().out
        assert main(["verify", "--case", "2,1,4", "--method", "sample",
                     "--seed", "11", "--config", str(cfg)]) == 0
        assert "# seed 11" in capsys.readouterr().out

    def test_no_command_is_usage(self, capsys):
        assert main([]) == 2
