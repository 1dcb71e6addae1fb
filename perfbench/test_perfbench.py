"""Tests of the benchmark itself: metric names, the correctness gate,
the tracer and input generation.  Run with

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import collections
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

BENCH = Path(run.__file__).resolve().parent
ROOT = BENCH.parent


@pytest.fixture(scope="module")
def lib():
    return run.Lib()


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)


def test_census_gate_fires_on_wrong_digest(lib):
    workload = run.Census(2, 1, 4, "full")
    item = workload.inputs(lib, 0)[0]
    out = workload.run(lib, item)
    right = {"orbits": 1, "total": out.total, "jsonl_sha256": workload.fingerprint(out)}
    assert run.run_ops(lib, workload, [item], right).failures == []
    wrong = run.run_ops(lib, workload, [item], dict(right, jsonl_sha256="0" * 64))
    assert len(wrong.failures) == 1 and "sha256" in wrong.failures[0]
    assert run.run_ops(lib, workload, [item], dict(right, total=out.total + 1)).failures


def test_benchmark_exits_nonzero_on_wrong_digest(tmp_path, monkeypatch, capsys):
    expected = json.loads(run.EXPECTED.read_text())
    expected["census_genus"]["jsonl_sha256"] = "0" * 64
    tampered = tmp_path / "expected.json"
    tampered.write_text(json.dumps(expected))
    monkeypatch.setattr(run, "EXPECTED", tampered)
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    monkeypatch.setattr(run, "pin_to_one_cpu", lambda: None)
    code = run.main(["--workload", "census_genus", "--seed", "1", "--seconds", "1",
                     "--trace", "0"])
    assert code == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1


def test_exits_without_result_when_package_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "canon_batch", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_traced_passes_repeat_exact_counts_and_restore(lib):
    originals = (lib.orbits.serialize, lib.normalize.canonicalize, lib.moves.Certificate.replay)
    workload = run.CanonBatch()
    rng = random.Random(5)
    items = [run.random_full_system(lib, *workload.mix[k % 3], rng) for k in range(4)]
    first, outcome = run.traced_pass(lib, workload, items, {})
    second, _ = run.traced_pass(lib, workload, items, {})
    assert first.exact_counts() == second.exact_counts()
    assert (lib.orbits.serialize, lib.normalize.canonicalize,
            lib.moves.Certificate.replay) == originals
    assert outcome.failures == [] and outcome.attempted == 4
    metrics = run.layer_metrics(first)
    tokens = sum(r.tokens for r in outcome.records.values())
    assert metrics["moves.replay_tokens"] == tokens
    assert metrics["normalize.canonicalize_self_s"] > 0
    names = [span["name"] for span in first.span_records()]
    assert names.count("canonicalize") == names.count("Certificate.replay") == 4


def test_inputs_follow_the_seed(lib):
    rng = random.Random("x")
    lines = [run.random_full_system(lib, 3, 1, 6, rng) for _ in range(20)]
    rng = random.Random("x")
    assert lines == [run.random_full_system(lib, 3, 1, 6, rng) for _ in range(20)]
    for line in lines:
        system = lib.systems.deserialize(line)
        assert lib.systems.serialize(system) == line
        assert lib.systems.validate(system).ok and lib.systems.is_full_monodromy(system)
    rng = random.Random("y")
    assert lines != [run.random_full_system(lib, 3, 1, 6, rng) for _ in range(20)]


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(2000) == 99.0
    assert run.tail_percentile(150) == 90.0
    assert run.tail_percentile(5) == 100.0
    values = [float(v) for v in range(1, 101)]
    assert run.percentile(values, 50.0) == 50.0
    assert run.percentile(values, 90.0) == 90.0
    assert run.percentile(values, 100.0) == 100.0


def few_allocations(n: int) -> int:
    """Tuple composition with nothing kept: few live objects."""
    p, q = (2, 3, 1, 5, 4, 7, 6), (1, 3, 2, 5, 4, 7, 6)
    for _ in range(n):
        p = tuple(q[i - 1] for i in p)
    return p[0]


LIVE = collections.deque(([k], {"k": k}) for k in range(50_000))


def many_allocations(n: int) -> int:
    """Containers pushed through a window of 50,000 live ones: every
    unit allocates, and the garbage collector, the probe's collections
    too, scans a large live set."""
    for k in range(n):
        LIVE.append(([k], {"k": k}))
        LIVE.popleft()
    return len(LIVE)


class Scaled:
    """A workload whose input is a number of work units."""

    unit = "unit"

    def __init__(self, work):
        self.work = work

    def run(self, lib, item):
        return self.work(item)

    def ops(self, out):
        return 1

    def fingerprint(self, out):
        return str(out)

    def cert_tokens(self, out):
        return None

    def check(self, lib, item, out, expected):
        return None


@pytest.mark.parametrize("work, units", [(few_allocations, 20_000),
                                         (many_allocations, 40_000)])
def test_reference_speed_keeps_a_twofold_change(work, units):
    """Twice the work must read as twice the time at reference speed:
    the probe thread must not absorb a change in the program."""
    outcome = run.probed_run_ops(None, Scaled(work), [units, 2 * units], {}, seconds=3)
    single, double = (outcome.records[k] for k in (0, 1))
    assert len(single.scaled) >= 5 and outcome.failures == []
    def ratio(raw: bool) -> float:
        return outcome._seconds(double, raw) / outcome._seconds(single, raw)

    scaled, raw = ratio(False), ratio(True)
    print("%s: scaled ratio %.3f, raw ratio %.3f" % (work.__name__, scaled, raw))
    assert 1.75 < scaled < 2.25
