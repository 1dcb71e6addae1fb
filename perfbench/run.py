"""Benchmark for the hurwitz package: orbit censuses, certified
canonicalization and connect queries.

Run from the repository root:

    python3 perfbench/run.py --workload census_genus --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before
it is a JSON object with the run's details: environment, input digest,
the tail percentile used and its sample count, and any failures.
``--trace 0`` times the workload untraced and reports the end-to-end
metrics; ``--trace 1`` runs a fixed batch once untraced and twice traced
and reports the per-layer metrics and the tracing overhead.  The exit
code is 0 when every check passed, 1 when a check failed and 2 when the
package cannot be loaded from this checkout.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
EXPECTED = BENCH / "expected.json"
sys.path.insert(0, str(BENCH))

from speed import SpeedProbe  # noqa: E402
from tracer import Tracer, clock  # noqa: E402

BUDGET = 400_000
# fresh-interpreter set-ups per timed run, half before the timed loop
# and half after it, so that they meet more than one phase of the host
SETUP_SAMPLES = 30

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "orbits.flood_self_s": "s",
    "orbits.census_self_s": "s",
    "orbits.braid_apply_calls": "count",
    "orbits.braid_apply_s": "s",
    "orbits.push_apply_calls": "count",
    "orbits.push_apply_s": "s",
    "orbits.states": "count",
    "orbits.levels": "count",
    "orbits.new_state_ratio": "ratio",
    "systems.serialize_calls": "count",
    "systems.serialize_s": "s",
    "systems.deserialize_s": "s",
    "systems.enumerate_s": "s",
    "systems.enumerated": "count",
    "systems.is_full_monodromy_calls": "count",
    "systems.is_full_monodromy_s": "s",
    "systems.filter_pass_ratio": "ratio",
    "systems.validate_s": "s",
    "moves.replay_s": "s",
    "moves.replay_tokens": "count",
    "moves.handle_push_calls": "count",
    "moves.handle_push_s": "s",
    "normalize.canonicalize_self_s": "s",
    "normalize.trivialize_s": "s",
    "normalize.repair_s": "s",
    "normalize.sort_s": "s",
    "normalize.trivialize_tokens": "count",
    "normalize.repair_tokens": "count",
    "perms.compose_calls": "count",
    "perms.inverse_calls": "count",
    "perms.conjugate_calls": "count",
    "perms.format_perm_calls": "count",
    "perms.cycles_calls": "count",
    "perms.orbit_blocks_calls": "count",
    "catalog.certify_misses": "count",
    "catalog.certify_s": "s",
    "cert_moves_mean": "count",
    "trace.untraced_ops_per_s": "1/s",
    "trace.traced_ops_per_s": "1/s",
    "trace.overhead": "ratio",
}


class UsageError(Exception):
    pass


class Lib:
    """The package's modules, loaded from this checkout's src/.
    Workloads call through module attributes, so the tracer's
    wrappers take effect."""

    def __init__(self) -> None:
        if not (SRC / "hurwitz" / "__init__.py").is_file():
            raise UsageError("no hurwitz package under %s" % SRC)
        sys.path.insert(0, str(SRC))
        import hurwitz.cli  # noqa: F401  (imports every module a workload touches)
        from hurwitz import catalog, moves, normalize, orbits, perms, systems

        if not Path(hurwitz.__file__).resolve().is_relative_to(SRC):
            raise UsageError("hurwitz was imported from %s, not from %s" % (hurwitz.__file__, SRC))
        self.catalog, self.moves, self.normalize = catalog, moves, normalize
        self.orbits, self.perms, self.systems = orbits, perms, systems


# ---------------------------------------------------------------------------
# input generation, independent of the package's own sampler

def _compose(p, q):
    return tuple(q[i - 1] for i in p)


def _inverse(p):
    inv = [0] * len(p)
    for i, j in enumerate(p, start=1):
        inv[j - 1] = i
    return tuple(inv)


def _format(p) -> str:
    return ",".join(map(str, p))


def random_full_system(lib: Lib, d: int, h: int, w: int, rng: random.Random) -> str:
    """System line drawn uniformly from the valid (d, h, w) systems with
    full monodromy.  The first w-1 transpositions and the handles are
    free and the last transposition is forced by the relator, so
    rejection sampling is exact."""
    ident = tuple(range(1, d + 1))
    trans = []
    for i in range(1, d + 1):
        for j in range(i + 1, d + 1):
            t = list(ident)
            t[i - 1], t[j - 1] = j, i
            trans.append(tuple(t))
    while True:
        handles = []
        for _ in range(2 * h):
            p = list(ident)
            rng.shuffle(p)
            handles.append(tuple(p))
        ts = [rng.choice(trans) for _ in range(w - 1)]
        prod = ident
        for t in ts:
            prod = _compose(prod, t)
        comm = ident
        for i in range(h):
            x, y = handles[2 * i], handles[2 * i + 1]
            comm = _compose(comm, _compose(_compose(x, y), _compose(_inverse(x), _inverse(y))))
        last = _compose(_inverse(prod), _inverse(comm))
        if sum(1 for i, j in enumerate(last, start=1) if i != j) != 2:
            continue
        ts.append(last)
        if not lib.systems.is_full_monodromy(lib.systems.HurwitzSystem(d, tuple(handles), tuple(ts))):
            continue
        return "d=%d h=%d w=%d | t: %s | ab: %s" % (
            d, h, w, " ; ".join(map(_format, ts)), " , ".join(map(_format, handles)) or "-")


# ---------------------------------------------------------------------------
# workloads

class Census:
    """One checked unit is one census call; one op is one flooded state."""

    unit = "state"

    def __init__(self, d: int, h: int, w: int, selector: str):
        self.params = (d, h, w, selector)

    def setup_params(self):
        return [self.params]

    def inputs(self, lib: Lib, seed: int) -> list[str]:
        # a census has no input but its parameters
        return ["census d=%d h=%d w=%d moves=%s filter=full-monodromy budget=%d"
                % (self.params + (BUDGET,))]

    def trace_batch(self, items):
        # three calls per pass, so the tracing overhead is not read off one call
        return items * 3

    def run(self, lib: Lib, item):
        d, h, w, selector = self.params
        return lib.orbits.census(d, h, w, selector, lib.systems.is_full_monodromy,
                                 "full-monodromy", budget=BUDGET, threads=1)

    def ops(self, out) -> int:
        return out.total

    def fingerprint(self, out) -> str:
        return hashlib.sha256(out.to_jsonl().encode()).hexdigest()

    def cert_tokens(self, out):
        return None

    def check(self, lib: Lib, item, out, expected: dict) -> str | None:
        if out.partial:
            return "census stopped early (partial result)"
        if len(out.orbits) != expected["orbits"]:
            return "census found %d orbits, expected %d" % (len(out.orbits), expected["orbits"])
        if out.total != expected["total"]:
            return "census covered %d states, expected %d" % (out.total, expected["total"])
        digest = self.fingerprint(out)
        if digest != expected["jsonl_sha256"]:
            return "census JSONL sha256 %s, expected %s" % (digest, expected["jsonl_sha256"])
        return None


def cert_digest(cert) -> str:
    return hashlib.sha256("\n".join((cert.start, cert.moves, cert.end)).encode()).hexdigest()


class LineBatch:
    """A pool of seeded input lines, one op each.  The traced run takes
    the first `batch` of them."""

    batch = 0

    def trace_batch(self, items):
        return items[: self.batch]

    def ops(self, out) -> int:
        return 1


class CanonBatch(LineBatch):
    """One op is one system: deserialize, canonicalize, replay."""

    unit = "system"
    # Two (4,1,8) systems to each (5,2,10) one, in a fixed rotation.
    # With half of each, the median falls in the gap between the two
    # sizes' latency clusters and moves with the seed.
    mix = ((4, 1, 8), (4, 1, 8), (5, 2, 10))
    pool = 1500
    batch = 150

    def setup_params(self):
        return [size + ("full",) for size in sorted(set(self.mix))]

    def inputs(self, lib: Lib, seed: int) -> list[str]:
        rng = random.Random("canon_batch:%d" % seed)
        return [random_full_system(lib, *self.mix[k % len(self.mix)], rng)
                for k in range(self.pool)]

    def run(self, lib: Lib, item):
        system = lib.systems.deserialize(item)
        form, cert = lib.normalize.canonicalize(system, mode="fast")
        cert.replay()
        return form, cert

    def fingerprint(self, out) -> str:
        return cert_digest(out[1])

    def cert_tokens(self, out):
        return len(out[1].moves.split())

    def check(self, lib: Lib, item, out, expected: dict) -> str | None:
        form, cert = out
        system = lib.systems.deserialize(item)
        star = lib.normalize.canonical_star(system.d, system.h, system.w)
        if form != star:
            return "canonical form %s is not the canonical star" % lib.systems.serialize(form)
        if cert.start != item or cert.end != lib.systems.serialize(star):
            return "certificate endpoints do not match the query"
        return None


class ConnectPairs(LineBatch):
    """One op is one query: connect two systems, then replay."""

    unit = "query"
    size = (3, 1, 6)
    pool = 150
    batch = 30

    def setup_params(self):
        return [self.size + ("full",)]

    def inputs(self, lib: Lib, seed: int) -> list[str]:
        rng = random.Random("connect_pairs:%d" % seed)
        return ["%s\t%s" % (random_full_system(lib, *self.size, rng),
                            random_full_system(lib, *self.size, rng)) for _ in range(self.pool)]

    def run(self, lib: Lib, item):
        a, b = item.split("\t")
        cert = lib.orbits.connect(lib.systems.deserialize(a), lib.systems.deserialize(b),
                                  "full", budget=BUDGET)
        if cert is not None:
            cert.replay()
        return cert

    def fingerprint(self, out) -> str:
        return "none" if out is None else cert_digest(out)

    def cert_tokens(self, out):
        return None if out is None else len(out.moves.split())

    def check(self, lib: Lib, item, out, expected: dict) -> str | None:
        if out is None:
            return "connect reported the pair disconnected"
        a, b = item.split("\t")
        if out.start != a or out.end != b:
            return "certificate endpoints do not match the query"
        return None


WORKLOADS = {
    "census_genus": Census(3, 1, 6, "full"),
    # criterion 2's (4,6) case; a (3,0,10) census takes 6-11 s on a 2-vCPU
    # host, too few calls in a run to filter out the host's slow phases
    "census_sphere": Census(4, 0, 6, "braid"),
    "canon_batch": CanonBatch(),
    "connect_pairs": ConnectPairs(),
}


# ---------------------------------------------------------------------------
# running ops

class Record:
    """Every run of one input: its op count, the first output's
    fingerprint and certificate length, and each run's (start,
    seconds), with the seconds at reference speed once scaled."""

    __slots__ = ("ops", "fingerprint", "tokens", "runs", "scaled")

    def __init__(self, ops: int, fingerprint: str, tokens):
        self.ops, self.fingerprint, self.tokens = ops, fingerprint, tokens
        self.runs: list[tuple[float, float]] = []
        self.scaled: list[float] = []


class Outcome:
    """Runs of a list of inputs, each output checked as it arrives.
    A repeated input must give an identical output, or the program is
    nondeterministic."""

    def __init__(self) -> None:
        self.records: dict[int, Record] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, lib: Lib, workload, index: int, item, out, start: float, seconds: float,
            expected: dict) -> None:
        self.attempted += 1
        if isinstance(out, Exception):
            self.failures.append("%s: %s" % (type(out).__name__, out))
            return
        error = workload.check(lib, item, out, expected)
        fingerprint = workload.fingerprint(out)
        rec = self.records.get(index)
        if rec is None:
            rec = self.records[index] = Record(workload.ops(out), fingerprint,
                                               workload.cert_tokens(out))
        elif fingerprint != rec.fingerprint:
            error = error or "nondeterministic output on a repeated input"
        rec.runs.append((start, seconds))
        if error is not None:
            self.failures.append(error)

    def scale(self, probe: SpeedProbe) -> None:
        for rec in self.records.values():
            rec.scaled = [dt * probe.scale(t0, t0 + dt) for t0, dt in rec.runs]

    def _seconds(self, rec: Record, raw: bool) -> float:
        """An input's time: the median of its runs."""
        return statistics.median([dt for _, dt in rec.runs] if raw else rec.scaled)

    def ops_per_s(self, raw: bool = False) -> float:
        recs = self.records.values()
        return sum(r.ops for r in recs) / sum(self._seconds(r, raw) for r in recs)

    def latencies_ms(self, raw: bool = False) -> list[float]:
        """Time per op of each input.  A census is one call over many
        states, so its per-op latency is the call's time per state."""
        return sorted(1000.0 * self._seconds(r, raw) / r.ops for r in self.records.values())

    def cert_moves_mean(self) -> float:
        tokens = [r.tokens for r in self.records.values() if r.tokens is not None]
        return statistics.fmean(tokens) if tokens else 0.0


def run_ops(lib: Lib, workload, items, expected: dict, seconds: float | None = None) -> Outcome:
    """Run the items in order, cycling, and check each output outside
    the timed call.  Without a time limit every item runs once.  With
    one, every item runs at least once, and passes go on while the next
    op is expected to finish in time."""
    outcome = Outcome()
    start = clock()
    k = 0
    while True:
        index = k % len(items)
        t0 = clock()
        try:
            out = workload.run(lib, items[index])
        except Exception as exc:  # every failure is counted, the run goes on
            out = exc
        dt = clock() - t0
        outcome.add(lib, workload, index, items[index], out, t0, dt, expected)
        k += 1
        if seconds is None:
            if k == len(items):
                return outcome
        elif k >= len(items) and clock() - start + dt > seconds:
            return outcome


def probed_run_ops(lib: Lib, workload, items, expected: dict,
                   seconds: float | None = None) -> Outcome:
    with SpeedProbe() as probe:
        outcome = run_ops(lib, workload, items, expected, seconds)
    outcome.scale(probe)
    return outcome


def tail_percentile(n: int) -> float:
    """The highest of these percentiles with at least ten samples
    beyond it; with fewer than 20 samples, the maximum."""
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (100.0 - p) / 100.0 >= 10:
            return p
    return 100.0


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, -(-len(sorted_values) * p // 100))
    return sorted_values[int(rank) - 1]


def setup_times(params, samples: int) -> list[tuple[float, float]]:
    """Fresh-interpreter set-up: import hurwitz.cli, hash the catalog
    and compile (and so certify) the moves for the workload's
    parameters, timed inside the child together with the reference
    loop around it.  Returns (raw seconds, seconds at reference speed)
    per spawn; one unmeasured spawn first writes the bytecode cache."""
    code = "\n".join([
        "import statistics, sys, time",
        "sys.path[:0] = [%r, %r]" % (str(BENCH), str(SRC)),
        "from speed import REFERENCE_UNIT_S, time_reference_unit",
        "before = [time_reference_unit() for _ in range(5)]",
        "t0 = time.perf_counter()",
        "import hurwitz.cli",
        "from hurwitz.catalog import catalog_hash",
        "from hurwitz.orbits import compile_moves",
        "catalog_hash()",
        "for d, h, w, selector in %r:" % (params,),
        "    compile_moves(d, h, w, selector)",
        "dt = time.perf_counter() - t0",
        "unit = statistics.median(before + [time_reference_unit() for _ in range(5)])",
        "print(repr(dt), repr(dt * REFERENCE_UNIT_S / unit))",
    ])
    out = []
    for k in range(samples + 1):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                              text=True, timeout=120, check=True)
        if k:
            raw, scaled = proc.stdout.split()
            out.append((float(raw), float(scaled)))
    return out


def setup_in_process(lib: Lib, workload) -> None:
    lib.catalog.catalog_hash()
    for d, h, w, selector in workload.setup_params():
        lib.orbits.compile_moves(d, h, w, selector)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pin_to_one_cpu() -> int | None:
    """Keep the workload and the speed probe on one CPU, so the probe
    measures the CPU the work runs on."""
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def environment(lib: Lib) -> dict:
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": nproc, "threads": 1,
            "catalog_sha256": lib.catalog.catalog_hash()}


# ---------------------------------------------------------------------------
# tracing

def install_tracer(tracer: Tracer, lib: Lib) -> None:
    perms, systems, orbits = lib.perms, lib.systems, lib.orbits
    moves, normalize, catalog = lib.moves, lib.normalize, lib.catalog
    pkg = "hurwitz"

    def patch(original, wrapped):
        tracer.patch_function(pkg, original, wrapped)

    def add(key):
        def tally(t, args, result, parent):
            t.tallies[key] += int(result)
        return tally

    def census_states(t, args, result, parent):
        t.tallies["orbits.states"] += result.total

    def bfs_levels(t, args, result, parent):
        t.tallies["orbits.levels"] += result.levels

    # each token is counted once, with the innermost stage that emitted
    # it: repairs run inside trivialize_handle as well as after it
    nested_repair = [0]

    def trivialize_tokens(t, args, result, parent):
        t.tallies["normalize.trivialize_tokens"] += len(result[1]) - nested_repair[0]
        nested_repair[0] = 0

    def repair_tokens(t, args, result, parent):
        t.tallies["normalize.repair_tokens"] += len(result[1])
        if parent == "trivialize_handle":
            nested_repair[0] += len(result[1])

    def replay_tokens(t, args, result, parent):
        t.tallies["moves.replay_tokens"] += len(args[0].moves.split())

    for name in ("compose", "inverse", "conjugate", "format_perm", "cycles", "orbit_blocks"):
        fn = getattr(perms, name)
        patch(fn, tracer.counted("perms." + name, fn))
    for fn, name, tally in (
        (systems.serialize, "serialize", None),
        (systems.deserialize, "deserialize", None),
        (systems.validate, "validate", None),
        (systems.is_full_monodromy, "is_full_monodromy", add("systems.filter_passed")),
        (moves.handle_push, "handle_push", None),
        (normalize.sort_standard_position, "sort_standard_position", None),
        (catalog.certified_push_endo, "certify", None),
        (catalog.certified_braid_endo, "certify", None),
    ):
        patch(fn, tracer.timed(name, fn, tally))
    for fn, name, tally in (
        (orbits.census, "census", census_states),
        (orbits.orbit_bfs, "orbit_bfs", bfs_levels),
        (orbits.connect, "connect", None),
        (normalize.canonicalize, "canonicalize", None),
        (normalize.trivialize_handle, "trivialize_handle", trivialize_tokens),
        (normalize.repair_branching_monodromy, "repair_branching_monodromy", repair_tokens),
    ):
        patch(fn, tracer.span(name, fn, tally))
    patch(systems.enumerate_systems,
          tracer.generator_span("enumerate_systems", systems.enumerate_systems,
                                "systems.enumerated"))
    tracer.patch_attribute(moves.Certificate, "replay",
                           tracer.span("Certificate.replay", moves.Certificate.replay,
                                       replay_tokens))

    compile_moves, CompiledMove = orbits.compile_moves, orbits.CompiledMove

    def traced_compile_moves(*args, **kwargs):
        return tuple(
            CompiledMove(m.token, m.inverse_token,
                         tracer.timed("push_apply" if m.token.startswith("P") else "braid_apply",
                                      m.apply))
            for m in compile_moves(*args, **kwargs))
    patch(compile_moves, traced_compile_moves)


def layer_metrics(t: Tracer) -> dict:
    applications = t.calls["braid_apply"] + t.calls["push_apply"]
    filter_calls = t.calls["is_full_monodromy"]
    return {
        "orbits.flood_self_s": t.self_seconds["orbit_bfs"],
        "orbits.census_self_s": t.self_seconds["census"],
        "orbits.braid_apply_calls": t.calls["braid_apply"],
        "orbits.braid_apply_s": t.seconds["braid_apply"],
        "orbits.push_apply_calls": t.calls["push_apply"],
        "orbits.push_apply_s": t.seconds["push_apply"],
        "orbits.states": t.tallies["orbits.states"],
        "orbits.levels": t.tallies["orbits.levels"],
        "orbits.new_state_ratio": t.tallies["orbits.states"] / applications if applications else 0.0,
        "systems.serialize_calls": t.calls["serialize"],
        "systems.serialize_s": t.seconds["serialize"],
        "systems.deserialize_s": t.seconds["deserialize"],
        "systems.enumerate_s": t.seconds["enumerate_systems"],
        "systems.enumerated": t.calls["systems.enumerated"],
        "systems.is_full_monodromy_calls": filter_calls,
        "systems.is_full_monodromy_s": t.seconds["is_full_monodromy"],
        "systems.filter_pass_ratio":
            t.tallies["systems.filter_passed"] / filter_calls if filter_calls else 0.0,
        "systems.validate_s": t.seconds["validate"],
        "moves.replay_s": t.seconds["Certificate.replay"],
        "moves.replay_tokens": t.tallies["moves.replay_tokens"],
        "moves.handle_push_calls": t.calls["handle_push"],
        "moves.handle_push_s": t.seconds["handle_push"],
        "normalize.canonicalize_self_s": t.self_seconds["canonicalize"],
        "normalize.trivialize_s": t.seconds["trivialize_handle"],
        "normalize.repair_s": t.seconds["repair_branching_monodromy"],
        "normalize.sort_s": t.seconds["sort_standard_position"],
        "normalize.trivialize_tokens": t.tallies["normalize.trivialize_tokens"],
        "normalize.repair_tokens": t.tallies["normalize.repair_tokens"],
        "perms.compose_calls": t.calls["perms.compose"],
        "perms.inverse_calls": t.calls["perms.inverse"],
        "perms.conjugate_calls": t.calls["perms.conjugate"],
        "perms.format_perm_calls": t.calls["perms.format_perm"],
        "perms.cycles_calls": t.calls["perms.cycles"],
        "perms.orbit_blocks_calls": t.calls["perms.orbit_blocks"],
    }


def traced_pass(lib: Lib, workload, items, expected: dict) -> tuple[Tracer, Outcome]:
    tracer = Tracer()
    install_tracer(tracer, lib)
    try:
        outcome = probed_run_ops(lib, workload, items, expected)
    finally:
        tracer.restore()
    return tracer, outcome


# ---------------------------------------------------------------------------
# the two kinds of run

def latency_metrics(outcome: Outcome, raw: bool = False) -> dict:
    lat = outcome.latencies_ms(raw)
    return {"ops_per_s": outcome.ops_per_s(raw),
            "op_p50_ms": statistics.median(lat),
            "op_tail_ms": percentile(lat, tail_percentile(len(lat)))}


def timed_run(lib: Lib, workload, items, seconds: int, expected: dict):
    setup = setup_times(workload.setup_params(), SETUP_SAMPLES // 2)
    setup_in_process(lib, workload)
    outcome = probed_run_ops(lib, workload, items, expected, seconds)
    setup += setup_times(workload.setup_params(), SETUP_SAMPLES - SETUP_SAMPLES // 2)
    metrics = {"setup_s": statistics.median(scaled for _, scaled in setup), "ops_per_s": 0.0,
               "op_p50_ms": 0.0, "op_tail_ms": 0.0, "peak_rss_mb": peak_rss_mb()}
    runs = [len(r.runs) for r in outcome.records.values()] or [0]
    detail = {"setup_samples": len(setup), "op_samples": len(outcome.records),
              "op_tail_percentile": tail_percentile(len(outcome.records)),
              "runs_per_input": [min(runs), max(runs)],
              "cert_moves_mean": outcome.cert_moves_mean()}
    if outcome.records:
        metrics.update(latency_metrics(outcome))
        detail["raw"] = dict(latency_metrics(outcome, raw=True),
                             setup_s=statistics.median(raw for raw, _ in setup))
    return metrics, [outcome], detail


def trace_run(lib: Lib, workload, items, expected: dict, spans_path: Path):
    batch = workload.trace_batch(items)
    setup_tracer = Tracer()
    install_tracer(setup_tracer, lib)
    try:
        setup_in_process(lib, workload)
    finally:
        setup_tracer.restore()
    untraced = probed_run_ops(lib, workload, batch, expected)
    passes = [traced_pass(lib, workload, batch, expected) for _ in range(2)]

    counts = [t.exact_counts() for t, _ in passes]
    per_pass = [layer_metrics(t) for t, _ in passes]
    metrics = {}
    for name in per_pass[0]:
        values = [m[name] for m in per_pass]
        metrics[name] = values[0] if isinstance(values[0], int) else statistics.fmean(values)
    metrics["catalog.certify_misses"] = (
        lib.catalog.certified_push_endo.cache_info().misses
        + lib.catalog.certified_braid_endo.cache_info().misses)
    metrics["catalog.certify_s"] = setup_tracer.seconds["certify"]
    metrics["cert_moves_mean"] = untraced.cert_moves_mean()
    if untraced.records and all(outcome.records for _, outcome in passes):
        untraced_rate = untraced.ops_per_s()
        traced_rate = statistics.fmean(outcome.ops_per_s() for _, outcome in passes)
    else:
        untraced_rate = traced_rate = 0.0
    metrics["trace.untraced_ops_per_s"] = untraced_rate
    metrics["trace.traced_ops_per_s"] = traced_rate
    metrics["trace.overhead"] = 1.0 - traced_rate / untraced_rate if untraced_rate else 0.0

    spans_path.parent.mkdir(parents=True, exist_ok=True)
    spans_path.write_text(json.dumps({"passes": [t.span_records() for t, _ in passes]}))
    if counts[0] != counts[1]:
        passes[1][1].failures.append("exact counts differ between the two traced passes")
    detail = {"trace_batch": len(batch), "exact_counts": counts[0],
              "spans_file": str(spans_path.relative_to(ROOT))}
    if isinstance(workload, ConnectPairs):
        # only connect_pairs calls connect, so this is not a listed metric
        detail["orbits.connect_self_s"] = statistics.fmean(
            t.self_seconds["connect"] for t, _ in passes)
    return metrics, [untraced] + [outcome for _, outcome in passes], detail


# ---------------------------------------------------------------------------

def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        lib = Lib()
        expected = json.loads(EXPECTED.read_text()).get(args.workload, {})
    except (UsageError, ImportError, OSError, ValueError) as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    env = environment(lib)
    env["pinned_cpu"] = pin_to_one_cpu()
    workload = WORKLOADS[args.workload]
    if isinstance(workload, Census) and not expected:
        print("perfbench: no expected output for %s in %s" % (args.workload, EXPECTED),
              file=sys.stderr)
        return 2

    items = workload.inputs(lib, args.seed)
    inputs_sha256 = hashlib.sha256("\n".join(items).encode()).hexdigest()
    if args.trace:
        spans_path = BENCH / "out" / ("spans-%s-seed%d.json" % (args.workload, args.seed))
        metrics, outcomes, extra = trace_run(lib, workload, items, expected, spans_path)
        units = PER_LAYER
    else:
        metrics, outcomes, extra = timed_run(lib, workload, items, args.seconds, expected)
        units = END_TO_END
    attempted = sum(o.attempted for o in outcomes)
    failures = [f for o in outcomes for f in o.failures]
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "op_unit": workload.unit,
              "inputs": len(items), "inputs_sha256": inputs_sha256,
              "checked_units": attempted, "fail_ratio": len(failures) / attempted,
              "failures": failures[:10], "env": env}
    detail.update(extra)
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
