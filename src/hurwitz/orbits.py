"""Orbit enumeration over the move catalog.

Exhaustive breadth-first floods answer the connectivity questions
exactly: a census partitions every system with given parameters into
move orbits, and connect searches for an explicit path between two
systems.  A full-monodromy census first tries one flood against the
exact count of frobenius.full_monodromy_count: reaching that many
systems proves they form one orbit, with no enumeration.  All three
searches run on one integer kernel: a state is a tuple of permutation
ranks, numbered so that tuple order is system-line order, and moves
are memoized table lookups.  The kernel grows every search the same
way: expand applies each move to a frontier and links each new state
to the state and token that reached it, and flood repeats that level
by level.  census and orbit_bfs are floods, connect expands whichever
of its two sides is smaller.  System lines are written only for what a
search reports.  Everything here is deterministic by construction:
frontiers are processed in sorted order and the first discovery wins.
Budgets make long runs interruptible: a partial result is flagged,
never silently truncated.
"""

from __future__ import annotations

import heapq
import json
import struct
from dataclasses import dataclass
from math import factorial
from operator import itemgetter
from typing import Callable

from .catalog import catalog_hash, certified_push_endo
from .frobenius import full_monodromy_count
from .moves import Certificate, Move, apply_move, certificate, invert_tokens, parse_move
from .perms import Perm, compose, conjugate, identity, inverse
from .systems import (
    BudgetError,
    HurwitzSystem,
    branching_blocks,
    enumerate_systems,
    is_full_monodromy,
    serialize,
)


# ---------------------------------------------------------------------------
# compiled move sets

@dataclass(frozen=True)
class CompiledMove:
    token: str
    inverse_token: str
    apply: Callable[[HurwitzSystem], HurwitzSystem]


def _reference_apply(move: Move) -> Callable[[HurwitzSystem], HurwitzSystem]:
    def apply(sys: HurwitzSystem) -> HurwitzSystem:
        return apply_move(sys, move)
    return apply


def compile_moves(d: int, h: int, w: int, selector: str = "full") -> tuple[CompiledMove, ...]:
    """The neighbor generators for these parameters.  selector picks
    "braid" (tuple shuffles only) or "full" (braids and point-pushes).
    Every move's inverse is also in the set, so orbits are symmetric.
    Each apply is the checked reference move of moves.py; the searches
    here run the same moves on the integer kernel instead.
    """
    if selector not in ("braid", "full"):
        raise ValueError("move selector must be 'braid' or 'full', got %r" % selector)
    tokens: list[tuple[str, str]] = []
    for j in range(1, w):
        tokens += [("B%d" % j, "B%d'" % j), ("B%d'" % j, "B%d" % j)]
    if selector == "full" and w >= 1:
        for i in range(1, h + 1):
            for side in ("a", "b"):
                certified_push_endo(h, w, i, side)  # a bad catalog fails here
                tokens += [("P%s%d" % (side, i), "P%s%d'" % (side, i)),
                           ("P%s%d'" % (side, i), "P%s%d" % (side, i))]
    return tuple(CompiledMove(token, inv, _reference_apply(parse_move(token)))
                 for token, inv in tokens)


# ---------------------------------------------------------------------------
# the integer kernel

class _Memo(dict):
    """A dict that computes a missing value with fn and keeps it."""

    def __init__(self, fn: Callable):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


class _Ranks:
    """Permutations of one degree numbered in format_perm text order.

    Text order is lexicographic order of the images with each point
    read as the string "%d," (no permutation's text is a proper prefix
    of another's), so the rank is the Lehmer code of the images
    relabeled by their place in that string order.  Ranks and the
    products between them are computed on first use; nothing of size
    d! is built up front.
    """

    def __init__(self, d: int):
        self.d = d
        self.n = factorial(d)
        order = sorted(range(1, d + 1), key=lambda point: "%d," % point)
        self._place = {point: k for k, point in enumerate(order)}
        self.perm: dict[int, Perm] = {}
        self.rank = _Memo(self._lehmer)
        self.identity = self.rank[identity(d)]
        n, perm, rank = self.n, self.perm, self.rank
        self.inv = _Memo(lambda x: rank[inverse(perm[x])])
        # keyed x * n + y: the product x then y, and the conjugate y^-1 x y
        self.mul = _Memo(lambda key: rank[compose(perm[key // n], perm[key % n])])
        self.conj = _Memo(lambda key: rank[conjugate(perm[key // n], perm[key % n])])

    def _lehmer(self, p: Perm) -> int:
        if len(p) != self.d:
            raise ValueError("permutation degree %d, expected %d" % (len(p), self.d))
        labels = [self._place[x] for x in p]
        r = 0
        for i, x in enumerate(labels):
            r = r * (self.d - i) + sum(1 for y in labels[i + 1 :] if y < x)
        self.perm[r] = p
        return r


_State = tuple[int, ...]
_Step = Callable[[_State], _State]


class _Kernel:
    """The moves of one parameter set acting on rank tuples
    (t_1..t_w, a_1, b_1, ..., a_h, b_h).  steps holds (token, step)
    in the order of the given moves.  links maps each state a search
    has reached to the (state, token) it was first reached from, or None
    for a start."""

    def __init__(self, d: int, h: int, w: int, moves: tuple[CompiledMove, ...]):
        self.d, self.h, self.w = d, h, w
        self.ranks = _Ranks(d)
        self.steps: list[tuple[str, _Step]] = [
            (mv.token, self._step(parse_move(mv.token))) for mv in moves]

    def state(self, sys: HurwitzSystem) -> _State:
        return tuple(map(self.ranks.rank.__getitem__, sys.transpositions + sys.handles))

    def system(self, state: _State) -> HurwitzSystem:
        perms = tuple(map(self.ranks.perm.__getitem__, state))
        return HurwitzSystem(self.d, perms[self.w :], perms[: self.w])

    def key(self, state: _State) -> str:
        return serialize(self.system(state))

    def expand(self, frontier: list[_State], links: dict) -> list[_State]:
        """Apply every step to each frontier state in turn and link each
        state not reached before; the new states in discovery order."""
        found = []
        for st in frontier:
            for token, step in self.steps:
                new = step(st)
                if new not in links:
                    links[new] = (st, token)
                    found.append(new)
        return found

    def flood(self, start: _State, budget: int | None = None
              ) -> tuple[dict, list[list[_State]], bool]:
        """The orbit of start as (links, levels, partial), each level
        sorted.  The budget is checked at level boundaries only, so a
        partial orbit is a union of whole levels; its last level was
        never expanded."""
        links: dict = {start: None}
        levels = [[start]]
        while budget is None or len(links) < budget:
            found = self.expand(levels[-1], links)
            if not found:
                return links, levels, False
            found.sort()
            levels.append(found)
        return links, levels, True

    def _step(self, move: Move) -> _Step:
        if move.kind == "braid":
            return self._braid(move.j, move.inverse)
        return self._push(move.j, move.side, move.inverse)

    def _braid(self, j: int, inverse_move: bool) -> _Step:
        """(s, t) -> (t, t^-1 s t), or (s t s^-1, s) for the inverse,
        at positions j, j+1, as the catalog's braid schema."""
        conj, n, lo = self.ranks.conj, self.ranks.n, j - 1
        if inverse_move:
            def step(st):
                s, t = st[lo], st[j]
                return st[:lo] + (conj[t * n + s], s) + st[j + 1 :]
        else:
            def step(st):
                s, t = st[lo], st[j]
                return st[:lo] + (t, conj[s * n + t]) + st[j + 1 :]
        return step

    def _push(self, i: int, side: str, inverse_move: bool) -> _Step:
        """Evaluate the certified push's generator images that differ
        from the generator, letter by letter through memoized products.
        The new entries depend only on the entries the words read, so
        they are memoized on those."""
        e = certified_push_endo(self.h, self.w, i, side)
        if inverse_move:
            e = e.inverse()
        two_h, w = 2 * self.h, self.w

        def entry(k: int) -> int:  # state index of generator k (1-based)
            return w + k - 1 if k <= two_h else k - two_h - 1

        changes = [(entry(k), [(entry(abs(letter)), letter < 0) for letter in word])
                   for k, word in e.changes()]
        targets = [target for target, _ in changes]
        read = sorted({k for _, program in changes for k, _ in program})
        mul, inv, n, one = self.ranks.mul, self.ranks.inv, self.ranks.n, self.ranks.identity

        def evaluate(key) -> tuple[int, ...]:
            values = dict(zip(read, key))  # a push reads two entries or more
            out = []
            for _, program in changes:
                acc = one
                for k, negate in program:
                    x = inv[values[k]] if negate else values[k]
                    acc = mul[acc * n + x]
                out.append(acc)
            return tuple(out)

        images, get = _Memo(evaluate), itemgetter(*read)

        def step(st):
            new = list(st)
            for target, value in zip(targets, images[get(st)]):
                new[target] = value
            return tuple(new)
        return step


# ---------------------------------------------------------------------------
# breadth-first orbit flood

@dataclass
class OrbitResult:
    seed: str
    predecessors: dict  # key -> (predecessor key, move token); seed maps to ("", "")
    partial: bool
    levels: int

    @property
    def size(self) -> int:
        return len(self.predecessors)

    def representative(self) -> str:
        return min(self.predecessors)

    def word_to(self, key: str) -> str:
        """Move word from the seed to a member, off the predecessor log."""
        tokens: list[str] = []
        while key != self.seed:
            pred, token = self.predecessors[key]
            tokens.append(token)
            key = pred
        return " ".join(reversed(tokens))


def orbit_bfs(seed: HurwitzSystem, moves: tuple[CompiledMove, ...],
              budget: int | None = None) -> OrbitResult:
    """Flood the orbit of seed under the move set.

    Level-synchronous over a sorted frontier, moves tried in token
    order, first discovery wins: each member's predecessor is the least
    (predecessor key, token) that reaches it, so the predecessor log is
    a pure function of the seed and the move set.  With a budget, the
    flood stops at the first level boundary where the budget is used up
    and the result is marked partial.
    """
    kernel = _Kernel(seed.d, seed.h, seed.w, tuple(sorted(moves, key=lambda mv: mv.token)))
    start = kernel.state(seed)
    links, levels, partial = kernel.flood(start, budget)
    text = {st: kernel.key(st) for st in links}
    predecessors = {}
    for st, key in text.items():
        link = links[st]
        predecessors[key] = ("", "") if link is None else (text[link[0]], link[1])
    # levels counts expansions: a partial flood's last level had none
    return OrbitResult(text[start], predecessors, partial, len(levels) - partial)


# ---------------------------------------------------------------------------
# predecessor logs on disk

LOG_MAGIC = b"HWSPRED1"

# Record layout, little endian, repeated to end of file:
#   u32 key length, key bytes (UTF-8 system line)
#   u32 predecessor length, predecessor bytes (empty for the seed)
#   u16 token length, token bytes
# First record is always the seed.

def write_predecessor_log(path: str, result: OrbitResult) -> None:
    with open(path, "wb") as fh:
        fh.write(LOG_MAGIC)
        order = [result.seed] + sorted(k for k in result.predecessors if k != result.seed)
        for key in order:
            pred, token = result.predecessors[key]
            kb, pb, tb = key.encode(), pred.encode(), token.encode()
            fh.write(struct.pack("<I", len(kb)))
            fh.write(kb)
            fh.write(struct.pack("<I", len(pb)))
            fh.write(pb)
            fh.write(struct.pack("<H", len(tb)))
            fh.write(tb)


def _read_field(fh, size: int, offset: int, what: str) -> bytes:
    data = fh.read(size)
    if len(data) != size:
        raise ValueError("truncated predecessor log: %s at offset %d needs %d bytes, %d left"
                         % (what, offset, size, len(data)))
    return data


def read_predecessor_log(path: str) -> OrbitResult:
    """Inverse of write_predecessor_log.  A log cut short, a length
    running past the end of the file, text that is not UTF-8 or a key
    recorded twice raises ValueError naming the byte offset; so does a
    log with no records."""
    with open(path, "rb") as fh:
        if fh.read(len(LOG_MAGIC)) != LOG_MAGIC:
            raise ValueError("not a predecessor log: %s" % path)
        offset = len(LOG_MAGIC)
        predecessors = {}
        seed = None
        while fh.peek(1):
            record = offset
            fields = []
            for fmt, what in (("<I", "key"), ("<I", "predecessor"), ("<H", "token")):
                width = struct.calcsize(fmt)
                (size,) = struct.unpack(fmt, _read_field(fh, width, offset, what + " length"))
                offset += width
                raw = _read_field(fh, size, offset, what)
                try:
                    fields.append(raw.decode())
                except UnicodeDecodeError as exc:
                    raise ValueError("predecessor log %s is not UTF-8 at offset %d"
                                     % (what, offset + exc.start)) from None
                offset += size
            key, pred, token = fields
            if key in predecessors:
                raise ValueError("predecessor log repeats the key of an earlier record "
                                 "at offset %d" % record)
            predecessors[key] = (pred, token)
            if seed is None:
                seed = key
    if seed is None:
        raise ValueError("predecessor log has no records after its header at offset %d"
                         % offset)
    return OrbitResult(seed, predecessors, False, -1)


# ---------------------------------------------------------------------------
# census

@dataclass(frozen=True)
class OrbitRecord:
    rep: str
    size: int
    full_monodromy: bool
    samples: tuple[str, ...]
    blocks: tuple[tuple[int, ...], ...]


@dataclass
class CensusResult:
    d: int
    h: int
    w: int
    selector: str
    filter_name: str
    orbits: list[OrbitRecord]
    total: int
    partial: bool

    def to_jsonl(self) -> str:
        lines = []
        params = {"d": self.d, "h": self.h, "w": self.w,
                  "moves": self.selector, "filter": self.filter_name}
        for rec in self.orbits:
            lines.append(json.dumps({
                "rep": rec.rep,
                "size": rec.size,
                "full_monodromy": rec.full_monodromy,
                "moves": catalog_hash(),
                "params": params,
                "samples": list(rec.samples),
                "blocks": [list(b) for b in rec.blocks],
            }, sort_keys=True))
        return "\n".join(lines) + "\n"


def census(d: int, h: int, w: int, selector: str = "full",
           filter: Callable[[HurwitzSystem], bool] | None = None,
           filter_name: str = "all", budget: int | None = None,
           threads: int = 1) -> CensusResult:
    """Partition every filtered system into move orbits by repeated
    floods from the least unvisited system.  The filter must be
    invariant under the moves (monodromy-based filters are: moves
    preserve the monodromy subgroup exactly), which is checked on the
    fly.  The result is partial when the budget ran out before every
    filtered system was reached.  With the full-monodromy filter the
    population is first tried by count (see _census_by_count), which
    skips the enumeration when the systems form one orbit.  threads is
    ignored; it stays only because perfbench/run.py calls
    census(..., threads=1)."""
    kernel = _Kernel(d, h, w, compile_moves(d, h, w, selector))
    if filter is is_full_monodromy:
        orbits = _census_by_count(kernel, filter, budget)
        if orbits is not None:
            return CensusResult(d, h, w, selector, filter_name, orbits,
                                sum(rec.size for rec in orbits), False)
    remaining = {kernel.state(sys) for sys in enumerate_systems(d, h, w, filter)}
    total = 0
    orbits = []
    for start in sorted(remaining):
        if start not in remaining:
            continue
        links, _, _ = kernel.flood(start, None if budget is None else budget - total)
        members = links.keys()
        # orbits are disjoint, so a member missing from remaining was
        # never in the filtered population
        orbits.append(_orbit_record(kernel, members, members - remaining))
        remaining.difference_update(members)
        total += len(members)
        if budget is not None and total >= budget:
            break
    orbits.sort(key=lambda rec: rec.rep)
    # a flood cut by the budget leaves the rest of its orbit in remaining
    return CensusResult(d, h, w, selector, filter_name, orbits, total, bool(remaining))


def _census_by_count(kernel: _Kernel, filter: Callable[[HurwitzSystem], bool],
                     budget: int | None) -> list[OrbitRecord] | None:
    """The full-monodromy census without enumeration, or None where it
    cannot be decided this way.  A flood from one full-monodromy system
    that reaches all frobenius.full_monodromy_count of them has found
    the whole population, so it is the one orbit.  None when no count
    is known, the budget is below the count, or the flood reaches fewer
    systems (several orbits); the enumerating census decides those.
    An empty list when there is no full-monodromy system."""
    d, h, w = kernel.d, kernel.h, kernel.w
    # the first draw runs the enumeration guard before any count is made
    seed = next(enumerate_systems(d, h, w, filter), None)
    count = full_monodromy_count(d, h, w)
    if count is None or (budget is not None and budget < count):
        return None
    if seed is None:
        if count:
            raise AssertionError("no full-monodromy system at d=%d h=%d w=%d, but the count "
                                 "is %d" % (d, h, w, count))
        return []
    # one level past the count, so a count that is too small shows
    links, _, cut = kernel.flood(kernel.state(seed), count + 1)
    if cut:
        raise AssertionError("the orbit of %s has more than the %d full-monodromy systems "
                             "counted" % (serialize(seed), count))
    if len(links) < count:
        return None
    members = links.keys()
    return [_orbit_record(kernel, members,
                          [st for st in members if not filter(kernel.system(st))])]


def _orbit_record(kernel: _Kernel, members, escaped) -> OrbitRecord:
    """The census record of one orbit.  Members outside the filtered
    population (escaped) mean the filter is not invariant under the
    moves."""
    if escaped:
        raise AssertionError("orbit escaped the filter at %s" % kernel.key(min(escaped)))
    least = heapq.nsmallest(3, members)
    samples = tuple(kernel.key(st) for st in least)
    rep = kernel.system(least[0])
    return OrbitRecord(samples[0], len(members), is_full_monodromy(rep),
                       samples, tuple(branching_blocks(rep)))


# ---------------------------------------------------------------------------
# pathfinding

def connect(source: HurwitzSystem, target: HurwitzSystem,
            selector: str = "full", budget: int | None = None) -> Certificate | None:
    """Bidirectional search for a move word source -> target.  Returns
    None only when an entire component was exhausted without meeting,
    which is a proof of disconnection.  Raises BudgetError when the
    state budget runs out first (inconclusive)."""
    if (source.d, source.h, source.w) != (target.d, target.h, target.w):
        raise ValueError("connect endpoints have different parameters")
    kernel = _Kernel(source.d, source.h, source.w,
                     compile_moves(source.d, source.h, source.w, selector))
    src, dst = kernel.state(source), kernel.state(target)
    if src == dst:
        return certificate(source, "", target)
    sides: tuple[dict, dict] = ({src: None}, {dst: None})
    frontiers = [[src], [dst]]

    def path_from(side: dict, st: _State) -> list[str]:
        tokens = []
        while side[st] is not None:
            st, token = side[st]
            tokens.append(token)
        return tokens[::-1]

    while frontiers[0] and frontiers[1]:
        pick = 0 if len(frontiers[0]) <= len(frontiers[1]) else 1
        if budget is not None and len(sides[0]) + len(sides[1]) > budget:
            raise BudgetError("connect exceeded its %d-state budget" % budget)
        found = kernel.expand(frontiers[pick], sides[pick])
        meets = [st for st in found if st in sides[1 - pick]]
        if meets:
            meet = min(meets)
            word = " ".join(path_from(sides[0], meet) + invert_tokens(path_from(sides[1], meet)))
            return certificate(source, word, target)
        frontiers[pick] = sorted(found)
    return None
