"""Command line front end.

Subcommands:
  verify          check that full-monodromy systems form one orbit (w >= 2d)
  explore         orbit census with per-orbit invariants, no judgment
  census          orbit census as JSONL for machine use
  connect         search for a move word between two systems
  replay          independently re-check a certificate or predecessor log
  count           character-sum counts against enumeration
  validate-moves  certify the move catalog and the move contracts
  canonicalize    carry one system to the canonical form

Exit codes: 0 pass, 1 fail (an expected property did not hold),
2 usage, 3 budget ran out before an answer.

Reports embed the catalog hash, the seed, and the budgets, and contain
nothing schedule- or clock-dependent, so a rerun with the same flags is
byte-identical.
"""

from __future__ import annotations

import argparse
import json
import random
import sys as _sys
from itertools import product
from math import factorial

from .catalog import CatalogError, catalog_hash, certified_braid_endo, certified_push_endo
from .frobenius import MAX_COUNT_DEGREE, frobenius_count
from .moves import (Certificate, MoveError, apply_move, braid,
                    check_push_contract, monodromy_change, parse_move)
from .normalize import NormalizeError, canonicalize
from .orbits import (LOG_MAGIC, BudgetError, census, compile_moves, connect, orbit_bfs,
                     read_predecessor_log, write_predecessor_log)
from .perms import MAX_DEGREE, group_order, orbit_blocks
from .systems import (HurwitzSystem, KeyParseError, count_systems, deserialize,
                      enumerate_systems, is_full_monodromy, random_system,
                      serialize, validate)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

DEFAULT_BUDGET = 400_000
DEFAULT_SAMPLES = 200
# values one --d/--h/--w flag may list, and verify or count cases in all
MAX_CASES = 10_000
MOVE_SETS = ("braid", "full")
MODES = ("fast", "validate")

# The options shared by several subcommands: argparse keywords and the
# fallback for an unset flag.  Those with a fallback are the keys a
# --config file may set; each subcommand lists the options it reads.
OPTIONS = {
    "budget": ({"type": int, "help": "state budget for searches (default %d)" % DEFAULT_BUDGET},
               DEFAULT_BUDGET),
    "seed": ({"type": int, "help": "random seed (default 0)"}, 0),
    "moves": ({"choices": MOVE_SETS}, "full"),
    "filter": ({"help": "all | full-monodromy | group=<sizes like 2x1>"}, "all"),
    "mode": ({"choices": MODES}, "fast"),
    "samples": ({"type": int, "help": "random systems to sample (default %d)" % DEFAULT_SAMPLES},
                DEFAULT_SAMPLES),
    "out": ({"help": "write the machine-readable report here"}, None),
    "config": ({"help": "JSON file of option defaults; explicit flags win"}, None),
}


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# flag parsing helpers

def _parse_range(text: str) -> list[int]:
    """Accept "3", "2..4", or "2,3,6"."""
    out: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if ".." in part:
            lo, _, hi = part.partition("..")
            try:
                lo_i, hi_i = int(lo), int(hi)
            except ValueError:
                raise UsageError("bad range %r" % part)
            if hi_i < lo_i:
                raise UsageError("empty range %r" % part)
            if len(out) + hi_i - lo_i + 1 > MAX_CASES:
                raise UsageError("range %r lists more than %d values" % (text, MAX_CASES))
            out.extend(range(lo_i, hi_i + 1))
        else:
            try:
                out.append(int(part))
            except ValueError:
                raise UsageError("bad integer %r" % part)
    if not out:
        raise UsageError("empty range %r" % text)
    return out


def _cases(ds: list[int], hs: list[int], ws: list[int],
           given: int = 0) -> list[tuple[int, int, int]]:
    """The d, h, w product after given cases, refused before it is built
    when there would be more than MAX_CASES in all."""
    if given + len(ds) * len(hs) * len(ws) > MAX_CASES:
        raise UsageError("more than %d cases" % MAX_CASES)
    return list(product(ds, hs, ws))


def _parse_case(text: str) -> tuple[int, int, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise UsageError("a case is d,h,w; got %r" % text)
    try:
        d, h, w = (int(p) for p in parts)
    except ValueError:
        raise UsageError("a case is three integers; got %r" % text)
    return d, h, w


def _check_case(d: int, h: int, w: int) -> None:
    """The parameter ranges every subcommand accepts; callers add their
    own narrower rules."""
    if not 1 <= d <= MAX_DEGREE:
        raise UsageError("rejected: (%d,%d,%d): d must be between 1 and %d"
                         % (d, h, w, MAX_DEGREE))
    if h < 0 or w < 0:
        raise UsageError("rejected: (%d,%d,%d): h and w must be non-negative" % (d, h, w))


def _parse_filter(text: str, d: int):
    """Return (name, predicate).  Filters must be functions of the
    monodromy subgroup, which every move preserves exactly."""
    if text == "all":
        return "all", None
    if text == "full-monodromy":
        return text, is_full_monodromy
    if text.startswith("group="):
        # one spelling: plain decimal sizes, largest first, joined by x
        parts = text[len("group="):].split("x")
        try:
            sizes = [int(part) for part in parts]
        except ValueError:
            raise UsageError("bad group filter %r" % text) from None
        if (list(map(str, sizes)) != parts or sizes != sorted(sizes, reverse=True)
                or sizes[-1] < 1):
            raise UsageError("bad group filter %r" % text)
        if sum(sizes) != d:
            raise UsageError("group filter %r does not partition %d points" % (text, d))
        want = tuple(sizes)
        order = 1
        for s in sizes:
            order *= factorial(s)

        def pred(hs: HurwitzSystem,
                 _want=want, _order=order) -> bool:
            # the subgroup is the full product of symmetric groups on
            # its orbits exactly when its order reaches the product bound
            gens = hs.handles + hs.transpositions
            got = tuple(sorted((len(b) for b in orbit_blocks(gens, hs.d)),
                               reverse=True))
            return got == _want and group_order(gens, hs.d) == _order

        return text, pred
    raise UsageError("unknown filter %r" % text)


def _load_system(path: str) -> HurwitzSystem:
    """First non-comment line of the file, parsed and validated."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh]
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError("cannot read %s: %s" % (path, exc))
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise UsageError("no system line in %s" % path)
    try:
        hs = deserialize(lines[0])
    except KeyParseError as exc:
        raise UsageError("%s: %s" % (path, exc))
    report = validate(hs)
    if not report.ok:
        raise UsageError("%s: not a valid system: %s" % (path, report.messages[0]))
    return hs


def _write_out(path: str | None, text: str) -> None:
    if path is None:
        _sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError("cannot write %s: %s" % (path, exc))


def _cert_json(cert: Certificate) -> str:
    return json.dumps({
        "format": "hurwitz-certificate/1",
        "catalog": cert.catalog,
        "start": cert.start,
        "moves": cert.moves,
        "end": cert.end,
    }, sort_keys=True, indent=2) + "\n"


def _header(args, extra: str = "") -> list[str]:
    lines = ["# catalog %s" % catalog_hash(),
             "# seed %d  budget %d" % (args.seed, args.budget)]
    if extra:
        lines.append("# " + extra)
    return lines


def _table(widths, rows) -> list[str]:
    """Fixed-width report lines, the header being the first row: every
    cell but the last is left-justified to its width.

    >>> _table((4, 6), [("d", "states", "note"), (2, 16, "")])
    ['d    states note', '2    16     ']
    """
    return ["".join("%-*s " % cell for cell in zip(widths, row)) + str(row[-1])
            for row in rows]


def _write_csv(args, extra: str, names, rows) -> None:
    """The --out CSV: the report header with `extra` on its seed line,
    the column names, then the rows; a comma inside a cell becomes ';'."""
    lines = _header(args)
    lines[-1] += extra
    lines.append(",".join(names))
    lines += [",".join(str(cell).replace(",", ";") for cell in row) for row in rows]
    _write_out(args.out, "\n".join(lines) + "\n")


def _census(*args, **kwargs):
    """orbits.census, with the enumeration guard reported as a usage error."""
    try:
        return census(*args, **kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


# ---------------------------------------------------------------------------
# verify

def _verify_row(args, d: int, h: int, w: int) -> tuple:
    """(method, states, orbits, result, note) for one case.  Sampling
    canonicalizes random full-monodromy systems and expects one form."""
    n = frobenius_count(d, h, w) if d <= MAX_COUNT_DEGREE else None
    method = args.method
    if method == "auto":
        method = "census" if n is not None and n <= args.budget else "sample"
    if method == "sample":
        rng = random.Random("verify:%d:%d:%d:%d" % (args.seed, d, h, w))
        forms: set[HurwitzSystem] = set()
        for _ in range(args.samples):
            try:
                hs = random_system(d, h, w, rng, is_full_monodromy)
            except RuntimeError:
                return ("sample", len(forms), "-", "FAIL",
                        "could not sample full-monodromy systems at d=%d h=%d w=%d" % (d, h, w))
            try:
                forms.add(canonicalize(hs, mode="fast")[0])
            except NormalizeError as exc:
                return ("sample", len(forms), "-", "FAIL",
                        "canonicalization failed on %s: %s" % (serialize(hs), exc))
        k = len(forms)
        if not k:
            return "sample", 0, "-", "INCONCLUSIVE", "no systems sampled"
        return ("sample", args.samples, k, "PASS" if k == 1 else "FAIL",
                "" if k == 1 else "%d distinct canonical forms" % k)
    if n is not None and n > args.budget:
        return "census", "-", "-", "SKIP", "%d systems exceed budget %d" % (n, args.budget)
    res = _census(d, h, w, args.moves, is_full_monodromy, "full-monodromy", budget=args.budget)
    if res.partial:
        return "census", res.total, "-", "INCONCLUSIVE", "budget %d exhausted" % args.budget
    k = len(res.orbits)
    return "census", res.total, k, "PASS" if k == 1 else "FAIL", "" if k == 1 else "%d orbits" % k


def cmd_verify(args) -> int:
    cases: list[tuple[int, int, int]] = [_parse_case(c) for c in args.case or []]
    if args.d or args.h is not None or args.w:
        if not (args.d and args.h is not None and args.w):
            raise UsageError("verify needs --case entries or all of --d/--h/--w")
        cases += _cases(_parse_range(args.d), _parse_range(args.h), _parse_range(args.w),
                        len(cases))
    if not cases:
        raise UsageError("verify needs --case d,h,w or --d/--h/--w ranges")
    for d, h, w in cases:
        _check_case(d, h, w)
        if d < 2:
            raise UsageError("rejected: (%d,%d,%d): d must be at least 2" % (d, h, w))
        if w % 2 != 0:
            raise UsageError("rejected: (%d,%d,%d): w must be even" % (d, h, w))
        if w < 2 * d:
            raise UsageError("rejected: (%d,%d,%d): w < 2d" % (d, h, w))

    columns = ("d", "h", "w", "method", "states", "orbits", "result", "note")
    rows = [(d, h, w) + _verify_row(args, d, h, w) for d, h, w in cases]
    # a failed case decides the run; a case left undecided makes it inconclusive
    results = {row[6] for row in rows}
    code = (EXIT_FAIL if "FAIL" in results
            else EXIT_BUDGET if results & {"INCONCLUSIVE", "SKIP"} else EXIT_PASS)
    lines = _header(args, "moves %s  method %s  samples %d"
                    % (args.moves, args.method, args.samples))
    lines += _table((4, 4, 4, 8, 10, 8, 12), [columns] + rows)
    lines.append("verify: %s" % {EXIT_PASS: "PASS", EXIT_FAIL: "FAIL",
                                  EXIT_BUDGET: "INCONCLUSIVE"}[code])
    print("\n".join(lines))
    if args.out:
        _write_csv(args, "  moves %s" % args.moves, columns, rows)
    return code


# ---------------------------------------------------------------------------
# explore / census

def _run_census(args):
    d, h, w = args.d, args.h, args.w
    _check_case(d, h, w)
    if w % 2 != 0:
        raise UsageError("w must be even, got %d" % w)
    filter_name, pred = _parse_filter(args.filter, d)
    return _census(d, h, w, args.moves, pred, filter_name, budget=args.budget)


def cmd_explore(args) -> int:
    res = _run_census(args)
    lines = _header(args, "d=%d h=%d w=%d  moves %s  filter %s"
                    % (args.d, args.h, args.w, args.moves, res.filter_name))
    rows = [("orbit", "size", "full", "blocks", "representative")]
    for idx, rec in enumerate(res.orbits, 1):
        blocks = "|".join(("" if args.d <= 9 else ",").join(str(p) for p in b)
                          for b in rec.blocks)
        rows.append((idx, rec.size, "yes" if rec.full_monodromy else "no", blocks, rec.rep))
    lines += _table((6, 10, 6, 22), rows)
    lines.append("total: %d orbits over %d systems%s"
                 % (len(res.orbits), res.total, " (partial)" if res.partial else ""))
    print("\n".join(lines))
    if args.out:
        _write_out(args.out, res.to_jsonl())
    return EXIT_BUDGET if res.partial else EXIT_PASS


def cmd_census(args) -> int:
    res = _run_census(args)
    _write_out(args.out, res.to_jsonl())
    if args.out:
        print("census: %d orbits over %d systems -> %s"
              % (len(res.orbits), res.total, args.out))
    if args.log:
        if not res.orbits:
            raise UsageError("no orbit to log")
        moves = compile_moves(args.d, args.h, args.w, args.moves)
        flood = orbit_bfs(deserialize(res.orbits[0].rep), moves, args.budget)
        try:
            write_predecessor_log(args.log, flood)
        except OSError as exc:
            raise UsageError("cannot write %s: %s" % (args.log, exc))
    return EXIT_BUDGET if res.partial else EXIT_PASS


# ---------------------------------------------------------------------------
# connect / replay

def cmd_connect(args) -> int:
    source = _load_system(args.source)
    target = _load_system(args.target)
    if (source.d, source.h, source.w) != (target.d, target.h, target.w):
        raise UsageError("systems have different parameters: d=%d h=%d w=%d vs d=%d h=%d w=%d"
                         % (source.d, source.h, source.w, target.d, target.h, target.w))
    try:
        cert = connect(source, target, args.moves, budget=args.budget)
    except BudgetError as exc:
        print("inconclusive: %s" % exc)
        return EXIT_BUDGET
    if cert is None:
        # both components exhausted without meeting; report each orbit
        moves = compile_moves(source.d, source.h, source.w, args.moves)
        lines = _header(args, "moves %s" % args.moves)
        lines.append("disconnected under the %s move set" % args.moves)
        for label, hs in (("source", source), ("target", target)):
            flood = orbit_bfs(hs, moves)
            lines.append("%s orbit: size %d, representative %s"
                         % (label, flood.size, flood.representative()))
        print("\n".join(lines))
        return EXIT_FAIL
    cert.replay()
    print("connected in %d moves (catalog %s)" % (len(cert.moves.split()), cert.catalog))
    _write_out(args.out, _cert_json(cert))
    return EXIT_PASS


_CERT_FIELDS = ("start", "moves", "end", "catalog")


def _replay_certificate(path: str) -> int:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except ValueError as exc:  # bad JSON or bad UTF-8
        raise UsageError("%s: not a certificate: %s" % (path, exc))
    if not isinstance(data, dict):
        raise UsageError("%s: a certificate is a JSON object" % path)
    for field in _CERT_FIELDS:
        if field not in data:
            raise UsageError("%s: certificate missing field %r" % (path, field))
        if not isinstance(data[field], str):
            raise UsageError("%s: certificate field %r is not a string" % (path, field))
    cert = Certificate(*(data[field] for field in _CERT_FIELDS))
    try:
        cert.replay()
    except (MoveError, KeyParseError) as exc:
        print("replay: FAIL: %s" % exc)
        return EXIT_FAIL
    print("replay: OK (%d moves)" % len(cert.moves.split()))
    print("start: %s" % cert.start)
    print("end:   %s" % cert.end)
    return EXIT_PASS


def _log_entry_fault(log, systems: dict, key: str, params: tuple) -> str | None:
    """Why a parsed log entry is not a valid system of the seed's
    parameters one catalog move from its predecessor, or None."""
    hs = systems[key]
    if (hs.d, hs.h, hs.w) != params:
        return "d=%d h=%d w=%d differs from the seed's d=%d h=%d w=%d" % (
            (hs.d, hs.h, hs.w) + params)
    report = validate(hs)
    if not report.ok:
        return "not a valid system: %s" % report.messages[0]
    pred, token = log.predecessors[key]
    if not pred:
        return None if key == log.seed else "rootless entry"
    if pred not in systems:
        return "predecessor %s is not a system of the log" % pred
    try:
        got = serialize(apply_move(systems[pred], parse_move(token)))
    except MoveError as exc:
        return str(exc)
    if got != key:
        return "%s %s lands on %s" % (pred, token, got)
    return None


def _unrooted(log) -> set[str]:
    """Entries whose predecessor chain runs into a cycle or off the log
    instead of reaching the seed.  One memoized pass: each entry is
    walked once."""
    reaches: dict[str, bool | None] = {log.seed: True}
    for node in log.predecessors:
        path = []
        while node in log.predecessors and node not in reaches:
            reaches[node] = None  # on the current walk
            path.append(node)
            node = log.predecessors[node][0]
        rooted = reaches.get(node) is True
        for member in path:
            reaches[member] = rooted
    return {key for key, rooted in reaches.items() if not rooted}


def _replay_predecessor_log(path: str) -> int:
    try:
        log = read_predecessor_log(path)
    except ValueError as exc:
        raise UsageError("%s: %s" % (path, exc))
    systems, faults = {}, {}
    for key in log.predecessors:
        try:
            systems[key] = deserialize(key)
        except KeyParseError as exc:
            faults[key] = str(exc)
    if log.seed in faults:
        print("replay: FAIL at seed %s: %s" % (log.seed, faults[log.seed]))
        return EXIT_FAIL
    seed = systems[log.seed]
    params = (seed.d, seed.h, seed.w)
    unrooted = _unrooted(log)
    bad = 0
    for key in sorted(log.predecessors):
        fault = faults[key] if key in faults else _log_entry_fault(log, systems, key, params)
        if fault is None and key in unrooted:
            fault = "predecessor chain does not reach the seed"
        if fault is not None:
            print("replay: FAIL at %s: %s" % (key, fault))
            bad += 1
    if bad:
        print("replay: FAIL (%d bad entries of %d)" % (bad, log.size))
        return EXIT_FAIL
    print("replay: OK (%d states, seed %s)" % (log.size, log.seed))
    return EXIT_PASS


def cmd_replay(args) -> int:
    try:
        with open(args.certificate, "rb") as fh:
            head = fh.read(len(LOG_MAGIC))
    except OSError as exc:
        raise UsageError("cannot read %s: %s" % (args.certificate, exc))
    if head == LOG_MAGIC:
        return _replay_predecessor_log(args.certificate)
    return _replay_certificate(args.certificate)


# ---------------------------------------------------------------------------
# count

def _count_row(d: int, h: int, w: int, budget: int) -> tuple:
    """(d, h, w, character sum, enumerated, match): the character sum
    against the convolution (d <= 6), then against enumeration when it
    is within budget."""
    n_char = frobenius_count(d, h, w)
    try:
        char_text = str(n_char)
    except ValueError:  # past the interpreter's integer-to-string digit limit
        raise UsageError("count at d=%d h=%d w=%d has more than %d digits"
                         % (d, h, w, _sys.get_int_max_str_digits()))
    counts = []
    if d <= 6:
        try:
            counts.append(count_systems(d, h, w, budget))
        except BudgetError as exc:
            raise BudgetError("count at d=%d h=%d w=%d: %s" % (d, h, w, exc)) from None
        if n_char <= budget:
            counts.append(sum(1 for _ in enumerate_systems(d, h, w)))
    if not counts:
        return d, h, w, char_text, "-", "-"
    return d, h, w, char_text, counts[-1], "yes" if set(counts) == {n_char} else "NO"


def cmd_count(args) -> int:
    cases = _cases(_parse_range(args.d) if args.d else [2, 3, 4],
                   _parse_range(args.h) if args.h is not None else [0, 1, 2],
                   _parse_range(args.w) if args.w else [0, 2, 4, 6, 8])
    for d, h, w in cases:
        if d > MAX_COUNT_DEGREE:
            raise UsageError("d=%d unsupported: character table is computed for d <= %d"
                             % (d, MAX_COUNT_DEGREE))
        _check_case(d, h, w)
    rows = [_count_row(d, h, w, args.budget) for d, h, w in cases]
    mismatch = any(row[-1] == "NO" for row in rows)
    lines = _header(args)
    lines += _table((4, 4, 4, 22, 22),
                    [("d", "h", "w", "character-sum", "enumerated", "match")] + rows)
    lines.append("count: %s" % ("FAIL" if mismatch else "PASS"))
    print("\n".join(lines))
    if args.out:
        _write_csv(args, "", ("d", "h", "w", "character_sum", "enumerated", "match"), rows)
    return EXIT_FAIL if mismatch else EXIT_PASS


# ---------------------------------------------------------------------------
# validate-moves

# validate-moves' sampled checks, and whether each needs at least one
# sample to pass
SAMPLED_CHECKS = {"braid relation": True, "distant braid commutation": False,
                  "braid inverse identity": False,
                  "moves preserve validity and monodromy": False,
                  "handle-push effect contract": True}


def cmd_validate_moves(args) -> int:
    # every schema instance at small parameters must certify
    try:
        for h in range(0, 3):
            for w in range(1, 7):
                for j in range(1, w):
                    certified_braid_endo(h, w, j)
                for i in range(1, h + 1):
                    certified_push_endo(h, w, i, "a")
                    certified_push_endo(h, w, i, "b")
        result = "PASS"
    except CatalogError as exc:
        result = "FAIL %s" % exc
    rows = [("catalog certification (h<=2, w<=6)", result)]

    params = [(2, 1, 4), (3, 0, 4), (3, 1, 6), (3, 2, 6), (4, 1, 8)]
    rng = random.Random("validate-moves:%d" % args.seed)
    passed = dict.fromkeys(SAMPLED_CHECKS, 0)
    failures: list[tuple[str, str]] = []

    def tally(check: str, ok: bool, message: str) -> None:
        if ok:
            passed[check] += 1
        else:
            failures.append((check, message))

    for _ in range(args.samples):
        d, h, w = params[rng.randrange(len(params))]
        hs = random_system(d, h, w, rng)
        if w >= 3:
            j = rng.randrange(1, w - 1)
            lhs = braid(braid(braid(hs, j), j + 1), j)
            rhs = braid(braid(braid(hs, j + 1), j), j + 1)
            tally("braid relation", lhs == rhs,
                  "braid relation at j=%d on %s" % (j, serialize(hs)))
        if w >= 4:
            k = rng.randrange(3, w)
            tally("distant braid commutation", braid(braid(hs, 1), k) == braid(braid(hs, k), 1),
                  "distant braids do not commute on %s" % serialize(hs))
        j = rng.randrange(1, w)
        tally("braid inverse identity", braid(braid(hs, j), j, inverse_move=True) == hs,
              "braid inverse at j=%d on %s" % (j, serialize(hs)))
        # braids must preserve validity and the exact monodromy subgroup
        moved = braid(hs, j)
        tally("moves preserve validity and monodromy",
              validate(moved).ok and monodromy_change(hs, moved) is None,
              "braid broke an invariant on %s" % serialize(hs))
        if h > 0:
            i = rng.randrange(1, h + 1)
            side = "ab"[rng.randrange(2)]
            try:
                check_push_contract(hs, i, side)
                tally("handle-push effect contract", True, "")
            except MoveError as exc:
                tally("handle-push effect contract", False, "push contract (i=%d, %s) on %s: %s"
                      % (i, side, serialize(hs), exc))

    failed = {check for check, _ in failures}
    rows += [("%s (%d samples)" % (check, passed[check]),
              "FAIL" if check in failed or (needs_one and not passed[check]) else "PASS")
             for check, needs_one in SAMPLED_CHECKS.items()]
    ok = all(result == "PASS" for _, result in rows)
    lines = _header(args, "samples %d" % args.samples) + _table((52,), rows)
    lines += ["  failure: %s" % message for _, message in failures[:10]]
    lines.append("validate-moves: %s" % ("PASS" if ok else "FAIL"))
    print("\n".join(lines))
    return EXIT_PASS if ok else EXIT_FAIL


# ---------------------------------------------------------------------------
# canonicalize

def cmd_canonicalize(args) -> int:
    hs = _load_system(args.system)
    if hs.w < 2 * hs.d or not is_full_monodromy(hs):
        raise UsageError("canonicalize needs w >= 2d and full monodromy")
    try:
        form, cert = canonicalize(hs, mode=args.mode)
    except NormalizeError as exc:
        print("canonicalize: FAIL: %s" % exc)
        return EXIT_FAIL
    print("canonical: %s" % serialize(form))
    print("moves: %d (%s mode, catalog %s)" % (len(cert.moves.split()), args.mode, cert.catalog))
    _write_out(args.out, _cert_json(cert))
    return EXIT_PASS


# ---------------------------------------------------------------------------
# wiring

def _add_options(p, names: str) -> None:
    for name in names.split():
        p.add_argument("--" + name, default=None, **OPTIONS[name][0])


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="hurwitz",
                                 description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="one full-monodromy orbit at each w >= 2d")
    p.add_argument("--case", action="append", metavar="D,H,W",
                   help="a single d,h,w case; repeatable")
    p.add_argument("--d", help="degree range, e.g. 2..4")
    p.add_argument("--h", help="genus range")
    p.add_argument("--w", help="branch point count range")
    p.add_argument("--method", choices=("auto", "census", "sample"), default="auto")
    _add_options(p, "moves samples budget seed out config")
    p.set_defaults(fn=cmd_verify)

    for name, fn, blurb, options in (
            ("explore", cmd_explore, "census with a human report",
             "moves filter budget seed out config"),
            ("census", cmd_census, "census as JSONL", "moves filter budget out config")):
        p = sub.add_parser(name, help=blurb)
        p.add_argument("--d", type=int, required=True)
        p.add_argument("--h", type=int, required=True)
        p.add_argument("--w", type=int, required=True)
        if name == "census":
            p.add_argument("--log", default=None,
                           help="write the first orbit's predecessor log here")
        _add_options(p, options)
        p.set_defaults(fn=fn)

    p = sub.add_parser("connect", help="move word between two system files")
    p.add_argument("source")
    p.add_argument("target")
    _add_options(p, "moves budget seed out config")
    p.set_defaults(fn=cmd_connect)

    p = sub.add_parser("replay", help="re-check a certificate or predecessor log")
    p.add_argument("certificate")
    p.set_defaults(fn=cmd_replay)

    p = sub.add_parser("count", help="character-sum counts vs enumeration")
    p.add_argument("--d", help="degree range (default 2..4)")
    p.add_argument("--h", help="genus range (default 0..2)")
    p.add_argument("--w", help="branch point range (default even 0..8)")
    _add_options(p, "budget seed out config")
    p.set_defaults(fn=cmd_count)

    p = sub.add_parser("validate-moves", help="certify the catalog and move contracts")
    _add_options(p, "samples budget seed config")
    p.set_defaults(fn=cmd_validate_moves)

    p = sub.add_parser("canonicalize", help="carry a system file to canonical form")
    p.add_argument("system")
    _add_options(p, "mode out config")
    p.set_defaults(fn=cmd_canonicalize)
    return ap


def _resolve_defaults(args) -> None:
    """Fill unset flags from the config file, then from the OPTIONS
    fallbacks.  Explicit flags always win."""
    config = {}
    if getattr(args, "config", None):
        try:
            with open(args.config, encoding="utf-8") as fh:
                config = json.load(fh)
        except (OSError, ValueError) as exc:  # unreadable, bad UTF-8 or bad JSON
            raise UsageError("bad config file %s: %s" % (args.config, exc))
        if not isinstance(config, dict):
            raise UsageError("config file must hold a JSON object")
    for key, (kwargs, fallback) in OPTIONS.items():
        if fallback is None:  # not a config key
            continue
        value = config.get(key, fallback)
        if type(value) is not type(fallback):  # a bool is not an int
            raise UsageError("config %s must be %s, got %s"
                             % (key, type(fallback).__name__, json.dumps(value)))
        choices = kwargs.get("choices")
        if choices and value not in choices:
            raise UsageError("config %s must be one of %s, got %r"
                             % (key, ", ".join(choices), value))
        if hasattr(args, key) and getattr(args, key) is None:
            setattr(args, key, value)
    for key in ("budget", "samples"):
        if getattr(args, key, 0) < 0:
            raise UsageError("%s must be non-negative, got %d" % (key, getattr(args, key)))


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        _resolve_defaults(args)
        return args.fn(args)
    except UsageError as exc:
        print("error: %s" % exc, file=_sys.stderr)
        return EXIT_USAGE
    except BudgetError as exc:
        print("inconclusive: %s" % exc, file=_sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    raise SystemExit(main())
