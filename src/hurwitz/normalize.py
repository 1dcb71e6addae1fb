"""Constructive normalization of Hurwitz systems.

The pipeline turns any full-monodromy system with w >= 2d into the one
canonical system of its parameters, recording a replayable move word:

  1. sort the transpositions into contiguous branching blocks, once,
  2. rewrite one block into a split normal form ending in a doubled
     transposition, retype that pair to straddle two neighbouring
     blocks, repeat until the branching monodromy is all of S_d,
  3. kill the handle entries pairwise: stage the doubled transposition
     that the next point-push will multiply into the handle, push, and
     watch the total handle weight drop by one each round,
  4. finish with a pure braid rewrite onto the star-shaped tuple.

Each stage sets up its precondition once, and the stages after it keep
it.  The word is built once, with window rewrites and pair retypes as
macro tokens.  No search is involved and step counts are uniformly
bounded, so canonicalization is linear time for fixed parameters.  The
block rewrites are justified by braid-orbit transitivity on full
blocks.  Every stage plays moves.Move values through _play, which
applies and checks each token text as it is emitted.  The pure steps
that repeat across systems are memoized in bounded caches: the split
normal form on its arguments, which covers the staging target of every
push round and of every repair, the word V of each certified push, the
weight of a handle entry (perms.weight) and the text of each staged
rewrite token (in moves).  The moves, their checks and the value of V
on a system are not.  A push round carries the product of the whole
tuple from the round before: staging keeps it and the push changes
only t_w, so two factors update it, and the next W token's check
compares it with the window it rewrites.
Validate mode walks the finished word, replacing each macro by the
elementary word orbits.connect finds from the system the macro acts
on, which must land where the macro does.  A search that proves two
orbits differ fails loudly; one that spends its budget raises
BudgetError.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache

from .catalog import certified_push_endo
from .moves import Certificate, Move, apply_move, apply_word, certificate, evaluate_word, parse_move
from .orbits import connect
from .perms import (Perm, _cycles, format_perm, identity, is_transposition, pair_product,
                    point_pairs, product, support, transposition, weight)
from .systems import HurwitzSystem, branching_blocks, is_full_monodromy, serialize, validate
from .words import EndoMap, Word, conjugate_parts


class NormalizeError(Exception):
    """Precondition failure or a counterexample to the orbit claims;
    the message carries the offending system line."""


class OrbitMismatchError(NormalizeError):
    """Two window tuples proved to lie in different braid orbits."""


# states either search of validate mode may hold before it gives up
SEARCH_BUDGET = 2_000_000


def _play(sys: HurwitzSystem, move: Move, tokens: list[str]) -> HurwitzSystem:
    """Record move.token() and apply that text as parsed, with every check of apply_move."""
    token = move.token()
    tokens.append(token)
    return apply_move(sys, parse_move(token))


# ---------------------------------------------------------------------------
# sorting into standard position

def sort_standard_position(sys: HurwitzSystem) -> tuple[HurwitzSystem, list[str]]:
    """Bubble the transpositions into contiguous blocks, ordered by the
    least point of each block, stably, using only braid moves on
    disjoint adjacent entries (which act as plain swaps)."""
    where = {pt: idx for idx, blk in enumerate(branching_blocks(sys)) for pt in blk}
    keys = [where[support(t)[0]] for t in sys.transpositions]
    tokens: list[str] = []
    changed = True
    while changed:
        changed = False
        for j in range(sys.w - 1):
            if keys[j] > keys[j + 1]:
                # different blocks, hence disjoint supports
                sys = _play(sys, Move("braid", j + 1), tokens)
                keys[j], keys[j + 1] = keys[j + 1], keys[j]
                changed = True
    return sys, tokens


# ---------------------------------------------------------------------------
# split normal form of one block

def prop_split_normal_form(points: Sequence[int], g: Sequence[int], w_m: int,
                           tau: Sequence[int]) -> tuple[Perm, ...]:
    """w_m transpositions supported on points, multiplying to g,
    generating the full symmetric group on points, ending in a run of
    tau with at least two copies.

    The body spells g cycle by cycle as reversed adjacent chains
    (longest cycle first), joins consecutive cycles by doubled
    connector transpositions between their least elements, and pads
    with copies of tau.  The body length is #points + s - 2 where s
    counts the cycles of g on points including fixed ones.  Memoized
    on tuples of the arguments in a bounded cache, so a list call
    returns the same tuple; a bad call raises on every repeat.
    """
    return _split_normal_form(tuple(points), tuple(g), w_m, tuple(tau))


@lru_cache(maxsize=1024)
def _split_normal_form(points: tuple[int, ...], g: Perm, w_m: int,
                       tau: Perm) -> tuple[Perm, ...]:
    d = len(g)
    pts = tuple(sorted(points))
    n = len(pts)
    if n < 2:
        raise NormalizeError("split normal form needs at least two points")
    if pts[0] < 1 or pts[-1] > d:
        raise NormalizeError("block points must lie in 1..%d" % d)
    pset = set(pts)
    if any(x not in pset for x in support(g)):
        raise NormalizeError("product %s moves points outside the block" % format_perm(g))
    if not is_transposition(tau) or any(x not in pset for x in support(tau)):
        raise NormalizeError("tail entry must be a transposition inside the block")
    if w_m < 2 * n:
        raise NormalizeError("length %d is below 2#points = %d" % (w_m, 2 * n))
    # the cycles of g through the block: g moves no point outside, so
    # they are the cycles whose least point is in the block
    comps = [c for c in _cycles(g) if c[0] in pset]
    comps.sort(key=lambda c: (-len(c), c[0]))
    s = len(comps)
    length = n + s - 2
    if (w_m - length) % 2 != 0:
        raise NormalizeError("parity mismatch: length %d cannot reach the body length %d"
                             % (w_m, length))
    out: list[Perm] = []
    for idx, cyc in enumerate(comps):
        # reversed chain: (c_{k-1} c_k), ..., (c_1 c_2) multiplies to the cycle
        for a, b in zip(cyc[-2::-1], cyc[:0:-1]):
            out.append(transposition(d, a, b))
        if idx + 1 < len(comps):
            conn = transposition(d, cyc[0], comps[idx + 1][0])
            out.extend((conn, conn))
    out.extend([tau] * (w_m - length))
    assert len(out) == w_m
    assert pair_product(point_pairs(out, d), d) == g
    return tuple(out)


# ---------------------------------------------------------------------------
# braid realization of a window rewrite

def realize_block_rewrite(sys: HurwitzSystem, lo: int, hi: int,
                          target: tuple[Perm, ...]) -> list[str]:
    """Braid word carrying the window lo..hi onto target, found by
    orbits.connect on the window alone; validate mode calls it for each
    W token of the finished word.  Exhausting both frontiers without
    meeting proves the tuples lie in different braid orbits, which is a
    hard counterexample.  The budget is SEARCH_BUDGET under connect's
    rule, checked at level boundaries against the states held by both
    sides together; connect's BudgetError passes through."""
    src = sys.transpositions[lo - 1 : hi]
    if len(target) != len(src):
        raise NormalizeError("rewrite target has %d entries for a %d-entry window"
                             % (len(target), len(src)))
    if product(src, sys.d) != product(target, sys.d):
        raise OrbitMismatchError("window products differ, no braid word can exist")
    cert = connect(HurwitzSystem(sys.d, (), src), HurwitzSystem(sys.d, (), target),
                   "braid", SEARCH_BUDGET)
    if cert is None:
        raise OrbitMismatchError(
            "window %d..%d of %s cannot be braided to %s" %
            (lo, hi, serialize(sys), " ; ".join(format_perm(t) for t in target)))
    return [move._replace(j=move.j + lo - 1).token()
            for move in map(parse_move, cert.moves.split())]


def _apply_rewrite(sys: HurwitzSystem, lo: int, hi: int, target: tuple[Perm, ...],
                   tokens: list[str]) -> HurwitzSystem:
    """Play the macro token that replaces the window, so
    check_block_rewrite checks it; a window already equal to the target
    emits nothing."""
    if sys.transpositions[lo - 1 : hi] == target:
        return sys
    return _play(sys, Move("rewrite", lo, perms=target, hi=hi), tokens)


# ---------------------------------------------------------------------------
# branching repair: make the transpositions generate all of S_d

def repair_branching_monodromy(sys: HurwitzSystem) -> tuple[HurwitzSystem, list[str]]:
    """Merge the branching blocks until the transpositions alone
    generate S_d, by rewriting a long enough block into split normal
    form and retyping its doubled tail across a block boundary.  Needs
    w >= 2d so that a block with w_m >= 2#A_m always exists, and full
    monodromy so the retype preconditions hold.  One block returns at
    once.  Otherwise the tuple is sorted once: a retype merges two
    neighbouring windows of a sorted tuple, so the tuple stays sorted."""
    if sys.w < 2 * sys.d:
        raise NormalizeError("branching repair needs w >= 2d, got w=%d d=%d" % (sys.w, sys.d))
    blocks = branching_blocks(sys)
    if len(blocks) == 1:
        return sys, []
    if not is_full_monodromy(sys):
        raise NormalizeError("branching repair needs full monodromy: %s" % serialize(sys))
    # the sort only swaps entries of different blocks, so it keeps the partition
    sys, tokens = sort_standard_position(sys)
    while len(blocks) > 1:
        index = {pt: bi for bi, blk in enumerate(blocks) for pt in blk}
        keys = [index[support(t)[0]] for t in sys.transpositions]
        counts = [keys.count(bi) for bi in range(len(blocks))]
        chosen = next(bi for bi, blk in enumerate(blocks)
                      if counts[bi] >= 2 * len(blk))
        lo = 1 + sum(counts[:chosen])
        hi = lo + counts[chosen] - 1
        blk = blocks[chosen]
        window_product = product(sys.transpositions[lo - 1 : hi], sys.d)
        tau = transposition(sys.d, blk[0], blk[1])
        normal = prop_split_normal_form(blk, window_product, counts[chosen], tau)
        sys = _apply_rewrite(sys, lo, hi, normal, tokens)
        partner = blocks[chosen + 1] if chosen + 1 < len(blocks) else blocks[chosen - 1]
        bridge = transposition(sys.d, blk[0], partner[0])
        sys = _play(sys, Move("retype", hi - 1, perms=(bridge,)), tokens)
        blocks = branching_blocks(sys)
    return sys, tokens


# ---------------------------------------------------------------------------
# handle trivialization by staged point-pushes

def _push_conjugator(sys: HurwitzSystem, i: int, side: str) -> Perm:
    """Monodromy image of V in the push's loop image, the loop times
    V g_w^±1 V^-1.  Certification makes V a word in handle letters, so
    its value survives staging, which never touches the handles."""
    e = certified_push_endo(sys.h, sys.w, i, side)
    return evaluate_word(_push_word(e, i, side), sys)


@lru_cache(maxsize=256)
def _push_word(e: EndoMap, i: int, side: str) -> Word:
    """The word V of the push e along side of handle i: keyed by the
    certified map itself, as moves._compile is, so it follows the
    catalog; its value is evaluated on each system."""
    moved = e.ctx.b(i) if side == "a" else e.ctx.a(i)
    v, _ = conjugate_parts(e.image(moved)[1:])
    return v


def trivialize_handle(sys: HurwitzSystem, i: int) -> tuple[HurwitzSystem, list[str]]:
    """Drive the entries of handle i to the identity.

    The branching monodromy is repaired once, on entry.  Each round
    stages the whole transposition tuple so it ends in a doubled copy
    of the right transposition, and pushes the last puncture around one
    loop of the handle.  Staging writes a split normal form whose body
    links all d points, and a push changes only t_w and one handle
    entry, so the tuple stays one block.  The staged transposition is
    chosen so the push multiplies the rewritten handle entry by a
    cycle-splitting transposition: the total handle weight, at most
    2(d-1), drops by exactly one per push or the stage raises, so at
    most 2(d-1) pushes happen.  The tuple's product g is taken once:
    the staged tuple multiplies to g and ends in tau, and the push
    changes only t_w, so g becomes g tau t_w; a wrong g would fail the
    next W token's product check."""
    sys, tokens = repair_branching_monodromy(sys)
    d, w, points = sys.d, sys.w, tuple(range(1, sys.d + 1))
    g = pair_product(point_pairs(sys.transpositions, d), d)
    lam, mu = sys.handle_pair(i)
    lam_weight, mu_weight = weight(lam), weight(mu)
    while lam_weight + mu_weight:
        total = lam_weight + mu_weight
        # side a rewrites b_i, side b rewrites a_i
        side = "a" if mu_weight > 0 else "b"
        moved_img = mu if side == "a" else lam
        x = support(moved_img)[0]
        v = _push_conjugator(sys, i, side)
        # the push multiplies the handle entry by v t_w v^-1; for it to
        # split the cycle of x, t_w is v^-1 (x x') v = (v(x) v(x'))
        tau = transposition(d, v[x - 1], v[moved_img[x - 1] - 1])
        staged = prop_split_normal_form(points, g, w, tau)
        sys = _apply_rewrite(sys, 1, w, staged, tokens)
        sys = _play(sys, Move("push", i, side=side), tokens)
        g = product((g, tau, sys.transpositions[-1]), d)
        lam, mu = sys.handle_pair(i)
        lam_weight, mu_weight = weight(lam), weight(mu)
        if lam_weight + mu_weight != total - 1:
            raise NormalizeError("staged push failed to reduce the handle weight on %s"
                                 % serialize(sys))
    return sys, tokens


# ---------------------------------------------------------------------------
# full canonicalization

def canonical_star(d: int, h: int, w: int) -> HurwitzSystem:
    """The canonical system: identity handles, w - 2(d-2) copies of
    (1 2), then a doubled copy of each (1 k) for k = 3..d."""
    if d < 2 or w % 2 != 0 or w < 2 * d:
        raise NormalizeError("no canonical system for d=%d h=%d w=%d" % (d, h, w))
    ts = [transposition(d, 1, 2)] * (w - 2 * (d - 2))
    for k in range(3, d + 1):
        t = transposition(d, 1, k)
        ts.extend((t, t))
    handles = (identity(d),) * (2 * h)
    return HurwitzSystem(d, handles, tuple(ts))


def canonicalize(sys: HurwitzSystem,
                 mode: str = "fast") -> tuple[HurwitzSystem, Certificate]:
    """Carry a full-monodromy system with w >= 2d to the canonical
    system of its parameters; the certificate replays move by move.
    The branching monodromy is repaired once, up front, and every later
    stage keeps one block.  Fast mode returns the word the stages
    played, each token applied and checked once.  Validate mode walks
    that word again and replaces every macro token by an elementary
    word, so the certificate holds braids and point-pushes only.
    Raises NormalizeError with the offending system line if any stage
    cannot make progress, which would be a counterexample to the
    single-orbit claim, and BudgetError if a validate-mode search
    spends its budget."""
    report = validate(sys)
    if not report.ok:
        raise NormalizeError("not a valid system: %s" % report.messages[0])
    # list entries read as tuples, so the end compares equal to the star
    sys = HurwitzSystem(sys.d, tuple(map(tuple, sys.handles)),
                        tuple(map(tuple, sys.transpositions)))
    if sys.d < 2:
        raise NormalizeError("canonicalization needs d >= 2")
    if sys.w < 2 * sys.d:
        raise NormalizeError("canonicalization needs w >= 2d, got w=%d d=%d" % (sys.w, sys.d))
    if not is_full_monodromy(sys):
        raise NormalizeError("canonicalization needs full monodromy: %s" % serialize(sys))
    start = sys
    sys, tokens = repair_branching_monodromy(sys)
    for i in range(sys.h, 0, -1):
        sys, more = trivialize_handle(sys, i)
        tokens.extend(more)
    star = canonical_star(sys.d, sys.h, sys.w)
    sys = _apply_rewrite(sys, 1, sys.w, star.transpositions, tokens)
    if sys != star:
        raise NormalizeError("canonicalization ended at %s, not the canonical system"
                             % serialize(sys))
    if mode != "validate":
        return sys, certificate(start, " ".join(tokens), sys)
    at, word = start, []
    for token in tokens:
        move = parse_move(token)
        new = apply_move(at, move)
        if move.kind in ("braid", "push"):
            word.append(token)
            at = new
            continue
        if move.kind == "rewrite":
            piece = realize_block_rewrite(at, move.j, move.hi, move.perms)
        else:  # a retype is justified into the full move orbit, pushes included
            cert = connect(at, new, "full", SEARCH_BUDGET)
            if cert is None:
                raise NormalizeError("retype at %d of %s is not realizable by elementary "
                                     "moves" % (move.j, serialize(at)))
            piece = cert.moves.split()
        if apply_word(at, " ".join(piece)) != new:
            raise NormalizeError("braid realization missed its target")
        word.extend(piece)
        at = new
    if at != sys:
        raise NormalizeError("canonicalization certificate failed to replay")
    return sys, certificate(start, " ".join(word), sys)
