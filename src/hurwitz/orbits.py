"""Orbit enumeration over the move catalog.

Exhaustive breadth-first floods answer the connectivity questions
exactly: a census partitions every system with given parameters into
move orbits, and connect searches for an explicit path between two
systems.  At d >= 3 a full-monodromy census first tries one flood,
from a constructed seed (systems.full_monodromy_seed), against the
exact count of frobenius.full_monodromy_count: reaching that many
systems proves they form one orbit, with no enumeration.  That flood
runs modulo simultaneous conjugation by S_d, which commutes with the
moves and acts freely on full-monodromy systems: it floods one key per
conjugacy class, from d!-fold fewer states, and the orbit is the whole
population when the classes times d! make the count and the orbit's
stabiliser is all of S_d.  It applies only the forward moves, and of
the braids only B1 and one rotation, applied in one pass: each inverse
move is a power of its forward move, and the rotation conjugates each
braid into the one before.  A class key is found by narrowing the
conjugators entry by entry, a step to a key that needs no conjugator
takes no product, each distinct discrepancy is multiplied once, and
the filter is decided once per set of entries among the keys, on the
least key with that set.  The permutation tables and move images of
the last degree used are kept between calls, so a census of a degree
seen before reuses them.  All three searches run on one integer
kernel: a state is a tuple of permutation ranks, numbered so that
tuple order is system-line order, and every move, braid or push, is
its certified catalog map evaluated by moves.evaluate_program, the
evaluator moves.py applies it with, and ranked once per memoized
image.  The kernel grows every search the same way:
expand applies each move to a frontier and links each new state to the
state and token that reached it, and flood repeats that level by
level.  census and orbit_bfs are floods, connect expands whichever of
its two sides is smaller.  System lines are written only for what a
search reports.  Everything here is deterministic by construction:
frontiers are processed in sorted order and the first discovery wins.
Budgets make long runs interruptible: a partial result is flagged,
never silently truncated.
"""

from __future__ import annotations

import heapq
import json
import struct
from functools import cached_property, lru_cache
from itertools import permutations
from math import factorial
from operator import itemgetter
from typing import Callable, NamedTuple

from .catalog import catalog_hash, certified_push_endo
from .frobenius import full_monodromy_count
from .moves import (Certificate, Move, apply_move, certificate, evaluate_program, invert_tokens,
                    move_program, parse_move)
from .perms import Perm, check_perm, compose, conjugate, identity, inverse, is_symmetric
from .systems import (
    BudgetError,
    HurwitzSystem,
    branching_blocks,
    enumerate_systems,
    enumeration_guard,
    full_monodromy_seed,
    is_full_monodromy,
    serialize,
)


# ---------------------------------------------------------------------------
# compiled move sets

class CompiledMove(NamedTuple):
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
    forward = [Move("braid", j) for j in range(1, w)]
    if selector == "full" and w >= 1:
        for i in range(1, h + 1):
            for side in ("a", "b"):
                certified_push_endo(h, w, i, side)  # a bad catalog fails here
                forward.append(Move("push", i, side=side))
    compiled = []
    for move in forward:
        back = Move(move.kind, move.j, move.side, inverse=True)
        token, back_token = move.token(), back.token()
        compiled += [CompiledMove(token, back_token, _reference_apply(move)),
                     CompiledMove(back_token, token, _reference_apply(back))]
    return tuple(compiled)


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
    relabeled by their place in that string order.  Ranks, and the
    products and conjugates between them, are computed on first use;
    nothing of size d! is built up front.
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
        # keyed x * n + y: the product x then y
        self.mul = _Memo(lambda key: rank[compose(perm[key // n], perm[key % n])])
        # row[y][x] = y^-1 x y, for conjugating a whole state by y
        self.row = row = _Memo(lambda y: _Memo(lambda x: rank[conjugate(perm[x], perm[y])]))
        # column[x]: x^u for every u, in elements() order
        self.column = _Memo(lambda x: tuple([row[u][x] for u in self.elements()]))
        # keyed x * n + y: the u making the pair (x^u, y^u) least, in
        # elements() order; a bare rank when one u is left, else a tuple
        self.least = _Memo(self._least_conjugators)
        # keyed (candidates tuple, x): those candidates u making x^u
        # least, in the same order, a bare rank when one is left
        self.narrow = _Memo(self._narrow)
        # keyed (pair?, negated, words): the images memo of one
        # moves.Program, shared by every step with that program; its
        # images come from moves.evaluate_program, so mul and inv serve
        # only flood_classes' voltages and discrepancies
        self.images = _Memo(lambda key: _Memo(self.evaluator(*key)))
        self._elements: tuple[int, ...] | None = None

    def elements(self) -> tuple[int, ...]:
        """The rank of every permutation of the degree, in permutations()
        order; built on first use and then kept."""
        if self._elements is None:
            self._elements = tuple(map(self.rank.__getitem__, permutations(range(1, self.d + 1))))
        return self._elements

    def _least_conjugators(self, key: int) -> int | tuple[int, ...]:
        x, y = divmod(key, self.n)
        row = self.row
        pairs = [((row[u][x], row[u][y]), u) for u in self.elements()]
        least = min(pairs)[0]
        return _settled(tuple(u for pair, u in pairs if pair == least))

    def _narrow(self, key: tuple[tuple[int, ...], int]) -> int | tuple[int, ...]:
        candidates, x = key
        images = [self.row[u][x] for u in candidates]
        least = min(images)
        return _settled(tuple(u for u, image in zip(candidates, images) if image == least))

    def evaluator(self, pair: bool, negated: tuple[int, ...], words) -> Callable:
        """A moves.Program's word values at the ranks it reads (keyed x * n
        + y if pair): moves.evaluate_program on their permutations, each
        image ranked once."""
        perm, rank, n, d = self.perm, self.rank, self.n, self.d

        def evaluate(values):
            values = divmod(values, n) if pair else values
            images = evaluate_program(negated, words, [perm[x] for x in values], d)
            return tuple([rank[p] for p in images])
        return evaluate

    def _lehmer(self, p: Perm) -> int:
        if len(p) != self.d:
            raise ValueError("permutation degree %d, expected %d" % (len(p), self.d))
        check_perm(p)
        labels = [self._place[x] for x in p]
        r = 0
        for i, x in enumerate(labels):
            r = r * (self.d - i) + sum(1 for y in labels[i + 1 :] if y < x)
        self.perm[r] = p
        return r


def _settled(us: tuple[int, ...]) -> int | tuple[int, ...]:
    """The one conjugator left as a bare rank, or the tied ones."""
    return us[0] if len(us) == 1 else us


@lru_cache(maxsize=1)
def _ranks(d: int) -> _Ranks:
    """The _Ranks of degree d, shared by every kernel of that degree.
    Only the last degree's are kept, so a census pays for its tables
    once per degree, not once per call."""
    return _Ranks(d)


_State = tuple[int, ...]
_Step = Callable[[_State], _State]


def _canonical(ranks: _Ranks) -> Callable[[_State], tuple[_State, int]]:
    """The class key function of a kernel, with the tables it reads
    bound once: canonical(st) is the least conjugate of st (its class
    key) and a u taking st to it.  The conjugators that make the first
    two entries least are narrowed entry by entry, each entry keeping
    those that make it least, until one is left (the tables hold it as
    a bare rank, a tie as a tuple) or the entries run out; ties that
    survive every entry all give the key, and u is the first of them in
    ranks.elements() order.  Only that u maps st, and not even it when
    it is the identity: then st is its own key and comes back as it
    is."""
    least, narrow, row, n, one = ranks.least, ranks.narrow, ranks.row, ranks.n, ranks.identity

    def canonical(st: _State) -> tuple[_State, int]:
        u = least[st[0] * n + st[1]]
        if type(u) is tuple:
            for x in st[2:]:
                u = narrow[u, x]
                if type(u) is not tuple:
                    break
            else:
                u = u[0]
        if u == one:
            return st, u
        return tuple(map(row[u].__getitem__, st)), u
    return canonical


class _Kernel:
    """The moves of one parameter set acting on rank tuples
    (t_1..t_w, a_1, b_1, ..., a_h, b_h).  moves holds the parsed move
    of each given move, so each token is parsed once per kernel, and
    steps its (token, step), in the same order, built on first use: the
    class flood builds only the steps of class_steps.  canonical is the
    class key function of _canonical.  links maps each state a search
    has reached to the (state, token) it was first reached from, or
    None for a start."""

    def __init__(self, d: int, h: int, w: int, moves: tuple[CompiledMove, ...]):
        self.d, self.h, self.w = d, h, w
        self.ranks = _ranks(d)
        self.tokens = [mv.token for mv in moves]
        self.moves = [parse_move(token) for token in self.tokens]
        self.canonical = _canonical(self.ranks)

    @cached_property
    def steps(self) -> list[tuple[str, _Step]]:
        return [(token, self._step(move)) for token, move in zip(self.tokens, self.moves)]

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

    def conjugates(self, st: _State) -> set[_State]:
        """Every simultaneous conjugate of st, read off the columns of
        its entries."""
        if not st:
            return {()}
        return set(zip(*map(self.ranks.column.__getitem__, st)))

    def class_steps(self) -> list[_Step]:
        """The steps flood_classes applies: the forward moves, with the
        braids B1..B_{w-1} replaced at w >= 4 by B1 and the rotation R,
        which applies B1, then B2, ..., then B_{w-1}.  The braid
        relations give R(B_{i+1}(s)) = B_i(R(s)), so B_{i+1} = R^-1 B_i R,
        and on the finite set of systems R^-1 is a positive power of R:
        B1 and R reach what the braids reach."""
        forward = [move for move in self.moves if not move.inverse]
        if self.w < 4:
            return [self._step(move) for move in forward]
        braids = {move.j: move for move in forward if move.kind == "braid"}
        rotation = self._rotation([braids[j] for j in range(1, self.w)])
        return [self._step(braids[1]), rotation] + [
            self._step(move) for move in forward if move.kind != "braid"]

    def _rotation(self, braids: list[Move]) -> _Step:
        """R = B_{w-1} ... B2 B1 in one pass over the transpositions: B_j
        writes the first image of its pair at j - 1 and carries the
        second on as the left entry of B_{j+1}'s pair.  Each braid reads
        its images from the memo its own step reads."""
        n, last = self.ranks.n, self.w - 1
        pairs = []
        for j, move in enumerate(braids, start=1):
            a, _, read, images = self._program(move)
            if read is not None or a != j - 1:
                raise AssertionError("braid %s does not change its pair alone" % move.token())
            pairs.append((j, images))

        def rotation(st: _State) -> _State:
            out = list(st)
            y = st[0]
            for j, images in pairs:
                out[j - 1], y = images[y * n + st[j]]
            out[last] = y
            return tuple(out)
        return rotation

    def flood_classes(self, start: _State, limit: int | None = None
                      ) -> tuple[dict[_State, int], set[int], bool]:
        """The orbit of start modulo simultaneous conjugation, as
        (voltages, discrepancies, cut).  The moves commute with
        conjugation, so the flood runs on class keys: voltages maps the
        key c of each class the orbit meets to a u with c^u in the
        orbit.  A step that reaches a known class with another voltage
        gives a discrepancy, an element of the orbit's stabiliser H in
        S_d; by Schreier's lemma the discrepancies generate H.  Where S_d
        acts freely, as on full-monodromy systems at d >= 3, every class
        meets the orbit in |H| systems, so the orbit has len(voltages) *
        |H| of them.  The flood is cut at the first level boundary past
        limit classes.  States need at least two entries.  A step whose
        key needs no conjugator keeps u as its voltage, with no product,
        and a discrepancy is kept as its pair of voltages (known * n +
        x) and multiplied once per distinct pair on return.

        The steps are class_steps: forward moves only, and at w >= 4 two
        braid steps instead of w - 1, so each class is canonicalized once
        per step.  Each step permutes the finite set of systems with
        these parameters, so its inverse is a positive power of it, and
        the steps generate the group the moves generate: they reach every
        class the orbit meets.  Each edge of the class graph is then
        still examined once, from its forward end, and Schreier's lemma
        for a finite group needs no inverse generators: the
        discrepancies still generate H."""
        n, inv, mul, one = self.ranks.n, self.ranks.inv, self.ranks.mul, self.ranks.identity
        steps, canonical = self.class_steps(), self.canonical
        key, v = canonical(start)
        voltages = {key: inv[v]}
        pairs: set[int] = set()
        level, cut = [key], False
        while level:
            if limit is not None and len(voltages) > limit:
                cut = True
                break
            found = []
            for c in level:
                u = voltages[c]
                for step in steps:
                    # step(c)^u is in the orbit and step(c)^v = key
                    key, v = canonical(step(c))
                    x = u if v == one else mul[inv[v] * n + u]
                    known = voltages.get(key)
                    if known is None:
                        voltages[key] = x
                        found.append(key)
                    elif known != x:
                        pairs.add(known * n + x)
            level = found
        return voltages, {mul[inv[p // n] * n + p % n] for p in pairs}, cut

    def _step(self, move: Move) -> _Step:
        """The move as a step on states, from the same compiled program of
        its certified catalog map that moves.py applies: every catalog
        move changes exactly two generators (a braid its two punctures, a
        push g_w and the opposite loop), whose images are memoized on the
        entries the words read, in one memo per distinct program and
        degree (every forward braid shares one); a braid's pair x, y keys
        x * n + y."""
        a, b, read, images = self._program(move)
        if read is None:  # a braid: slice around the pair
            n = self.ranks.n
            return lambda st: st[:a] + images[st[a] * n + st[b]] + st[b + 1 :]
        # a push: an automorphism changing two generators reads more
        get = itemgetter(*read)

        def step(st):
            new = list(st)
            new[a], new[b] = images[get(st)]
            return tuple(new)
        return step

    def _program(self, move: Move) -> tuple[int, int, list[int] | None, _Memo]:
        """The move's compiled program on states: the indices a, b of the
        two entries it changes, the indices its words read, and its
        images memo.  read is None for a braid's pair, where the words
        read just a and b = a + 1, and the memo is keyed x * n + y."""
        program = move_program(self.h, self.w, move.j, move.side, move.inverse)
        two_h, w = 2 * self.h, self.w
        # state index of each generator (0-based) the program names
        a, b = (w + k if k < two_h else k - two_h for k in program.changed)
        read = [w + k if k < two_h else k - two_h for k in program.reads]
        pair = read == [a, b] and b == a + 1
        images = self.ranks.images[pair, program.negated, program.words]
        return a, b, None if pair else read, images


# ---------------------------------------------------------------------------
# breadth-first orbit flood

class OrbitResult(NamedTuple):
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

class OrbitRecord(NamedTuple):
    rep: str
    size: int
    full_monodromy: bool
    samples: tuple[str, ...]
    blocks: tuple[tuple[int, ...], ...]


class CensusResult(NamedTuple):
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
        return "".join(line + "\n" for line in lines)


def census(d: int, h: int, w: int, selector: str = "full",
           filter: Callable[[HurwitzSystem], bool] | None = None,
           filter_name: str = "all", budget: int | None = None,
           threads: int = 1) -> CensusResult:
    """Partition every filtered system into move orbits in one pass
    over the systems in line order: each system no flood has reached
    is the least member of its orbit, so it is flooded from.  The filter
    must be invariant under the moves (monodromy-based filters are:
    moves preserve the monodromy subgroup exactly), which is checked on
    the fly; it sees each system once, and is_full_monodromy each set of
    entries once, since the group the entries generate depends only on
    their set.  The budget is checked after each flood; once it is
    spent, a filtered system no flood has reached makes the result
    partial.  With the full-monodromy filter at d >= 3 the population is
    first tried by count (see _census_by_count), which floods conjugacy
    classes, not systems, from a constructed seed, calls the filter once
    per set of entries among the class keys, on the least key with that
    set, and enumerates nothing when the systems form one orbit; at
    d <= 2 there are at most 4^h such systems and they are enumerated.
    Every census first runs the enumeration guard, before any move is
    certified, whether or not it goes on to enumerate.  threads is
    ignored; it stays only because perfbench/run.py calls census(...,
    threads=1)."""
    enumeration_guard(d, h, w)
    kernel = _Kernel(d, h, w, compile_moves(d, h, w, selector))
    if filter is is_full_monodromy and d >= 3:
        orbits = _census_by_count(kernel, budget)
        if orbits is not None:
            return CensusResult(d, h, w, selector, filter_name, orbits,
                                sum(rec.size for rec in orbits), False)
    if filter is is_full_monodromy:
        filter = _once_per_entry_set(filter)
    reached: set[_State] = set()

    def admit(sys: HurwitzSystem) -> bool:
        return kernel.state(sys) not in reached and (filter is None or filter(sys))
    total, orbits, partial = 0, [], False
    for sys in enumerate_systems(d, h, w, admit):
        if orbits and budget is not None and total >= budget:
            partial = True
            break
        start = kernel.state(sys)
        links, _, _ = kernel.flood(start, None if budget is None else budget - total)
        members = links.keys()
        # start passed the filter when it was drawn
        escaped = [] if filter is None else [
            st for st in members if st != start and not filter(kernel.system(st))]
        orbits.append(_orbit_record(kernel, len(members), heapq.nsmallest(3, members), escaped))
        reached.update(members)
        total += len(members)
    return CensusResult(d, h, w, selector, filter_name, orbits, total, partial)


def _once_per_entry_set(filter: Callable[[HurwitzSystem], bool]
                        ) -> Callable[[HurwitzSystem], bool]:
    """filter called once per distinct set of entries, for a filter
    that depends only on that set, as is_full_monodromy does: the group
    the entries generate is the same whatever their order."""
    passes: dict[frozenset[Perm], bool] = {}

    def once(sys: HurwitzSystem) -> bool:
        entries = frozenset(sys.transpositions + sys.handles)
        ok = passes.get(entries)
        if ok is None:
            ok = passes[entries] = filter(sys)
        return ok
    return once


def _census_by_count(kernel: _Kernel, budget: int | None) -> list[OrbitRecord] | None:
    """The full-monodromy census at d >= 3 without enumeration, or None
    where it cannot be decided this way.  An orbit of one full-monodromy
    system that has all frobenius.full_monodromy_count of them is the
    whole population, so it is the one orbit; that system is
    systems.full_monodromy_seed, built, not drawn.  None when no count is
    known, the budget is below the count, no seed is constructed, or the
    orbit is smaller (several orbits); the enumerating census decides
    those.  An empty list when the count is 0.

    The orbit is flooded modulo simultaneous conjugation
    (_Kernel.flood_classes), from d!-fold fewer states: S_d acts freely
    on full-monodromy systems at d >= 3, so the classes met hold
    classes * d! of them and the orbit classes * |H| for its stabiliser
    H <= S_d.  So the orbit is the population exactly when classes * d!
    is the count and the discrepancies generate S_d (is_symmetric); the
    order of H is never computed.  More classes than count // d! are an
    error.  Full monodromy is invariant under conjugation, so the filter
    is_full_monodromy is checked on one key per class, and is called
    once per distinct set of entries among the keys, on the least key
    with that set, so the outcome does not depend on the order the flood
    met the keys in: whether the group the entries generate is S_d
    depends only on their set."""
    d, h, w = kernel.d, kernel.h, kernel.w
    count = full_monodromy_count(d, h, w)
    if count is None or (budget is not None and budget < count):
        return None
    if not count:
        return []
    seed = full_monodromy_seed(d, h, w)
    if seed is None:
        return None
    # flood one level past count // d! classes, so a count that is too
    # small shows
    n = kernel.ranks.n
    voltages, discrepancies, cut = kernel.flood_classes(kernel.state(seed), count // n)
    classes = voltages.keys()
    # S_d acts freely, so the classes met hold len(classes) * d!
    # full-monodromy systems, and the orbit len(classes) * |H| of them
    if cut or len(classes) * n > count:
        raise AssertionError("the conjugates of the orbit of %s are more than the %d "
                             "full-monodromy systems counted" % (serialize(seed), count))
    if len(classes) * n < count or not is_symmetric(
            [kernel.ranks.perm[u] for u in discrepancies], d):
        return None
    # a member's class key is at most the member, and with the whole
    # population in the orbit every key is a member: the three least
    # members are conjugates of the three least keys
    least = heapq.nsmallest(3, {c for st in heapq.nsmallest(3, classes)
                                for c in kernel.conjugates(st)})
    # each set of entries is decided on its least key, whatever order
    # the flood met the keys in
    keys: dict[frozenset[int], _State] = {}
    for st in classes:
        entries = frozenset(st)
        known = keys.get(entries)
        if known is None or st < known:
            keys[entries] = st
    escaped = [st for st in sorted(keys.values()) if not is_full_monodromy(kernel.system(st))]
    return [_orbit_record(kernel, count, least, escaped)]


def _orbit_record(kernel: _Kernel, size: int, least: list[_State], escaped) -> OrbitRecord:
    """The census record of one orbit of size members, the least of
    them first.  Members outside the filtered population (escaped) mean
    the filter is not invariant under the moves."""
    if escaped:
        raise AssertionError("orbit escaped the filter at %s" % kernel.key(min(escaped)))
    samples = tuple(kernel.key(st) for st in least)
    rep = kernel.system(least[0])
    return OrbitRecord(samples[0], size, is_full_monodromy(rep),
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
