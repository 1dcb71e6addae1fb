"""Moves on Hurwitz systems.

Every move is the permutation shadow of a certified mapping class:
braids and point-pushes both apply their catalog schema through
apply_endo.  move_program compiles each certified catalog map once,
keyed by the map, into the images it changes as letters over the
entries they read; evaluate_program evaluates those under the current
monodromy, padding each entry it reads once, inverting once each entry
a word reads negated and folding each word by gathers.  It is the one
evaluator of the programs: apply_endo runs it on a system's entries,
and the orbits kernel on the permutations of its ranks, ranking each
image once.  Braid moves only shuffle the transposition tuple; handle
point-pushes also rewrite one handle entry.
The macros stand for braid words: a pair retype needs a full residual
monodromy group, and a window rewrite must keep the braid invariants of
its window, which check_block_rewrite reads off the two points of each
transposition and compares by union-find block labels.  Both are
checked on application and again on replay.  Three pure steps are
memoized, each in a bounded cache: parse_move on the token text, the
target side of a window check (its point pairs, product and block
labels) on the target and degree, since the target is part of the
token text, and the text of a W token's body on its perms, so a
rewrite staged again is spelled by one lookup.  Applying a move and
the checks on the source window depend on the system, so apply_move
runs in full for every token.

Move words are strings of tokens separated by spaces:

    B3       braid at positions 3,4          B3'    its inverse
    Pa2      push along a_2 (rewrites b_2)   Pb1'   inverse push along b_1
    R4:1,3,2     retype the equal pair at 4,5 to the given transposition
    W2-5:...     rewrite the window 2..5 (';'-separated transpositions)
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter
from typing import NamedTuple

from .catalog import catalog_hash, certified_braid_endo, certified_push_endo
from .perms import (
    Perm,
    _format,
    format_perm,
    inverse,
    is_symmetric,
    is_transposition,
    pair_product,
    parse_perm,
    point_pairs,
    product,
    support,
)
from .systems import HurwitzSystem, deserialize, monodromy, serialize, validate
from .words import EndoMap, Word


class MoveError(ValueError):
    """Move out of range or precondition violated."""


class Program(NamedTuple):
    """A map's changed images as letters that index the entries at reads
    (the generators read, 0-based, ascending), then the inverses of
    those at the places in negated, each taken at most once per
    evaluation.  Word k is the new image of generator changed[k]."""

    changed: tuple[int, ...]
    reads: tuple[int, ...]
    negated: tuple[int, ...]
    words: tuple[tuple[int, ...], ...]


@lru_cache(maxsize=4096)
def _compile(e: EndoMap, inverse_move: bool) -> Program:
    """The program of e, or of its inverse: keyed by the certified map
    itself, so it follows the catalog and never the systems it meets."""
    changes = (e.inverse() if inverse_move else e).changes()
    words = [word for _, word in changes]
    reads = sorted({abs(x) - 1 for word in words for x in word})
    place = {k: p for p, k in enumerate(reads)}
    negated = sorted({place[-x - 1] for word in words for x in word if x < 0})
    slot = {p: len(reads) + m for m, p in enumerate(negated)}
    letters = tuple(tuple(place[x - 1] if x > 0 else slot[place[-x - 1]] for x in word)
                    for word in words)
    return Program(tuple(k - 1 for k, _ in changes), tuple(reads), tuple(negated), letters)


def move_program(h: int, w: int, j: int, side: str, inverse_move: bool) -> Program:
    """The compiled catalog move: the braid at j when side is "", else the
    push along side of handle j.  The catalog is asked every time."""
    e = certified_push_endo(h, w, j, side) if side else certified_braid_endo(h, w, j)
    return _compile(e, inverse_move)


def evaluate_word(word: Word, sys: HurwitzSystem) -> Perm:
    """Monodromy image of a free-group word, left to right."""
    entries = sys.handles + sys.transpositions
    return product((entries[x - 1] if x > 0 else inverse(entries[-x - 1]) for x in word), sys.d)


def evaluate_program(negated: tuple[int, ...], words: tuple[tuple[int, ...], ...],
                     values: list[Perm], d: int) -> list[Perm]:
    """The values of a program's words, given the values of the entries
    it reads, in order; values is extended in place.  Each negated value
    is inverted once, each value is padded once, as compose pads its
    right factor, and a word is folded from its first letter by one
    gather per further letter.  The one evaluator of compiled moves:
    apply_endo runs it on entries, the orbits kernel on the
    permutations of its ranks."""
    values += map(inverse, map(values.__getitem__, negated))
    for v in values:
        if len(v) != d:
            raise ValueError("degree mismatch: %d vs %d" % (d, len(v)))
    if d == 1:  # one index gathers a bare int
        return [product(map(values.__getitem__, word), d) for word in words]
    padded = [(0, *v) for v in values]
    out = []
    for word in words:
        letters = iter(word)
        acc = values[next(letters)]
        for x in letters:
            acc = itemgetter(*acc)(padded[x])
        out.append(acc)
    return out


def apply_endo(sys: HurwitzSystem, program: Program) -> HurwitzSystem:
    """The move of a compiled certified endomorphism: the images of the
    generators it changes, by evaluate_program; every other entry
    stays."""
    entries = list(sys.handles + sys.transpositions)
    images = evaluate_program(program.negated, program.words,
                              [entries[k] for k in program.reads], sys.d)
    for k, image in zip(program.changed, images):
        entries[k] = image
    h = len(sys.handles)
    return HurwitzSystem(sys.d, tuple(entries[:h]), tuple(entries[h:]))


# ---------------------------------------------------------------------------
# elementary moves

def braid(sys: HurwitzSystem, j: int, inverse_move: bool = False) -> HurwitzSystem:
    """Braid the punctures j, j+1 (1-based) by the catalog's braid schema."""
    if not 1 <= j <= sys.w - 1:
        raise MoveError("braid position %d out of range 1..%d" % (j, sys.w - 1))
    return apply_endo(sys, move_program(sys.h, sys.w, j, "", inverse_move))


def handle_push(sys: HurwitzSystem, i: int, side: str,
                inverse_move: bool = False) -> HurwitzSystem:
    """Push the last puncture around a loop of handle i by the catalog's
    push schema.  Its certification implies that on a valid system the
    relator still holds, t_w stays a transposition and only the opposite
    loop of handle i moves, by a conjugate of t_w; check_push_contract
    confirms the contract directly."""
    h, w = sys.h, sys.w
    if w < 1:
        raise MoveError("point-push needs at least one puncture")
    if not 1 <= i <= h:
        raise MoveError("handle index %d out of range 1..%d" % (i, h))
    if side not in ("a", "b"):
        raise MoveError("push side must be 'a' or 'b', got %r" % side)
    return apply_endo(sys, move_program(h, w, i, side, inverse_move))


def check_push_contract(sys: HurwitzSystem, i: int, side: str) -> HurwitzSystem:
    """Apply the push and confirm the full contract directly: the
    result is a valid system, the catalog inverse really undoes it and
    the monodromy subgroup is unchanged as a set, not merely up to
    isomorphism."""
    new = handle_push(sys, i, side)
    report = validate(new)
    if not report.ok:
        raise MoveError("push left the Hurwitz space: %s" % report.messages[0])
    back = handle_push(new, i, side, inverse_move=True)
    if back != sys:
        raise MoveError("inverse push failed to restore the system")
    change = monodromy_change(sys, new)
    if change:
        raise MoveError("push " + change)
    return new


def monodromy_change(old: HurwitzSystem, new: HurwitzSystem) -> str | None:
    """None when new's monodromy group equals old's as a set, not
    merely up to isomorphism; otherwise what changed."""
    old_group = monodromy(old)
    if monodromy(new).order() != old_group.order():
        return "changed the monodromy group order"
    if any(p not in old_group for p in new.handles + new.transpositions):
        return "left the monodromy subgroup"
    return None


# ---------------------------------------------------------------------------
# pair macros

def _residual_full(sys: HurwitzSystem, skip: tuple[int, ...]) -> bool:
    gens = sys.handles + tuple(t for j, t in enumerate(sys.transpositions, start=1)
                               if j not in skip)
    return is_symmetric(gens, sys.d)


def _require_equal_pair(sys: HurwitzSystem, j: int) -> Perm:
    if not 1 <= j <= sys.w - 1:
        raise MoveError("pair position %d out of range 1..%d" % (j, sys.w - 1))
    t = sys.transpositions[j - 1]
    if sys.transpositions[j] != t:
        raise MoveError("entries %d, %d are not an equal pair" % (j, j + 1))
    return t


def check_block_rewrite(sys: HurwitzSystem, lo: int, hi: int,
                        target: tuple[Perm, ...]) -> None:
    """Cheap braid-orbit invariants for a macro rewrite token, checked in
    this order: equal products, every target entry a transposition,
    equal window subgroup (same block partition) and, when two or more
    blocks have two or more points, the same number of entries in each
    block, since a braid keeps every entry inside its block.  With one
    such block the count is the window length, which the caller already
    matched.  The windows are read as the point pairs of their
    transpositions: the products by swaps (perms.pair_product), the
    partitions as each point's least block-mate.  The source window is
    read on every call; the target's pairs, product and labels are a
    pure function of the token text and come from _target_invariants,
    read after the source product, so a source window that fails to
    multiply raises first.  A source entry that is not a transposition, which only a
    system that is not valid has, links each point it moves to its
    image, as orbit_blocks reads it."""
    d = sys.d
    src = sys.transpositions[lo - 1 : hi]
    src_pairs = point_pairs(src, d)
    src_product = _window_product(src, src_pairs, d)
    try:
        invariants = _target_invariants(target, d)
    except TypeError:  # list entries: key on tuples, as format_perm does
        invariants = _target_invariants(tuple(map(tuple, target)), d)
    if invariants is None:
        if src_product != _window_product(target, None, d):
            raise MoveError("rewrite changes the window product")
        raise MoveError("rewrite target entry is not a transposition")
    target_pairs, target_product, target_label = invariants
    if src_product != target_product:
        raise MoveError("rewrite changes the window product")
    if src_pairs is None:
        # link and count every moved point on both sides, as orbit_blocks
        # and support read a window; the target's labels are unchanged
        src_pairs = [(p, t[p - 1]) for t in src for p in support(t)]
        target_pairs = [(p, t[p - 1]) for t in target for p in support(t)]
    label = _block_labels(src_pairs, d)
    if label != target_label:
        raise MoveError("rewrite changes the window block partition")
    if len({k for p, k in enumerate(label) if k != p}) > 1 and (
            sorted(label[a] for a, _ in src_pairs) != sorted(label[a] for a, _ in target_pairs)):
        raise MoveError("rewrite changes the number of entries in a block")


@lru_cache(maxsize=1024)
def _target_invariants(target: tuple[Perm, ...], d: int
                       ) -> tuple[list[tuple[int, int]], Perm, list[int]] | None:
    """The point pairs, the product and the block labels of a rewrite
    target, or None when an entry is not a transposition of degree d.
    Memoized on (target, d) in a bounded cache, as format_perm is: the
    target is part of the token text, so this never depends on the
    system.  Shared results: read them, never change them."""
    pairs = point_pairs(target, d)
    if pairs is None:
        return None
    return pairs, pair_product(pairs, d), _block_labels(pairs, d)


def _window_product(window: tuple[Perm, ...], pairs: list[tuple[int, int]] | None,
                    d: int) -> Perm:
    return tuple(product(window, d)) if pairs is None else pair_product(pairs, d)


def _block_labels(pairs: list[tuple[int, int]], d: int) -> list[int]:
    """label[p] is the least point of p's block, for p = 1..d, when each
    pair (a, b) links a and b; label[0] is 0.  A union-find that always
    links the larger root under the smaller, so every root is the least
    point of its tree and every other point's parent is less than the
    point; one pass in increasing point order then resolves each label
    through its parent's."""
    label = list(range(d + 1))
    for a, b in pairs:
        while label[a] != a:
            a = label[a]
        while label[b] != b:
            b = label[b]
        if a < b:
            label[b] = a
        elif b < a:
            label[a] = b
    for p in range(1, d + 1):
        label[p] = label[label[p]]
    return label


def pair_retype(sys: HurwitzSystem, j: int, tau: Perm) -> HurwitzSystem:
    """Replace the doubled transposition at j, j+1 by (tau, tau).

    Sound only when the remaining entries already generate the full
    symmetric group; the replacement is then realizable by braid moves
    alone, so the orbit does not change.
    """
    _require_equal_pair(sys, j)
    if not is_transposition(tau):
        raise MoveError("retype target is not a transposition")
    if not _residual_full(sys, (j, j + 1)):
        raise MoveError("pair retype needs full residual monodromy")
    ts = sys.transpositions[: j - 1] + (tau, tau) + sys.transpositions[j + 1 :]
    return HurwitzSystem(sys.d, sys.handles, ts)


# ---------------------------------------------------------------------------
# move words

class Move(NamedTuple):
    """A parsed move token."""

    kind: str  # braid | push | retype | rewrite
    j: int = 0
    side: str = ""
    inverse: bool = False
    perms: tuple[Perm, ...] = ()
    hi: int = 0

    def token(self) -> str:
        prime = "'" if self.inverse else ""
        if self.kind == "braid":
            return "B%d%s" % (self.j, prime)
        if self.kind == "push":
            return "P%s%d%s" % (self.side, self.j, prime)
        if self.kind == "retype":
            return "R%d:%s" % (self.j, format_perm(self.perms[0]))
        try:
            body = _rewrite_text(self.perms)
        except TypeError:  # list entries: key on tuples, as check_block_rewrite does
            body = _rewrite_text(tuple(map(tuple, self.perms)))
        return "W%d-%d:%s" % (self.j, self.hi, body)


@lru_cache(maxsize=1024)
def _rewrite_text(perms: tuple[Perm, ...]) -> str:
    # perms._format, not the counted format_perm: a memo body calls no counted kernel
    return ";".join(map(_format, perms))


def _move_index(text: str) -> int:
    j = int(text)
    if str(j) != text:  # int() also reads signs, spaces, "_", leading zeros and other digits
        raise ValueError(text)
    if j < 1:
        raise MoveError("move positions are 1-based, got %d" % j)
    return j


@lru_cache(maxsize=1024)
def parse_move(token: str) -> Move:
    """The Move a token text names.  Memoized on the text in a bounded
    cache, as parse_perm is, so a token parsed again costs one lookup; a
    malformed text raises MoveError on every call, and so does a text
    that is not the token's one spelling: space around it, or a number
    with a sign, a space, "_", a leading zero or other digits.
    apply_move still checks every parsed value against the system it
    meets."""
    text = token
    if not text:
        raise MoveError("empty move token")
    inverse_move = text.endswith("'")
    if inverse_move:
        text = text[:-1]
    try:
        if text.startswith("B"):
            return Move("braid", _move_index(text[1:]), inverse=inverse_move)
        if text.startswith("Pa") or text.startswith("Pb"):
            return Move("push", _move_index(text[2:]), side=text[1], inverse=inverse_move)
        if inverse_move:
            raise MoveError("macro tokens take no inverse marker")
        if text.startswith("R"):
            pos, _, perm = text[1:].partition(":")
            return Move("retype", _move_index(pos), perms=(parse_perm(perm),))
        if text.startswith("W"):
            span, _, body = text[1:].partition(":")
            lo, _, hi = span.partition("-")
            perms = tuple(parse_perm(p) for p in body.split(";"))
            j, hi = _move_index(lo), _move_index(hi)
            if hi < j:
                raise MoveError("empty rewrite window %s" % token)
            return Move("rewrite", j, perms=perms, hi=hi)
    except MoveError:
        raise
    except ValueError:
        pass
    raise MoveError("unreadable move token %r" % token)


def apply_move(sys: HurwitzSystem, move: Move) -> HurwitzSystem:
    for p in move.perms:
        if len(p) != sys.d:
            raise MoveError("%s names a permutation of degree %d in a system of degree %d"
                            % (move.token(), len(p), sys.d))
    if move.kind == "braid":
        return braid(sys, move.j, move.inverse)
    if move.kind == "push":
        return handle_push(sys, move.j, move.side, move.inverse)
    if move.kind == "retype":
        return pair_retype(sys, move.j, move.perms[0])
    if move.kind == "rewrite":
        lo, hi = move.j, move.hi
        if not (1 <= lo <= hi <= sys.w and len(move.perms) == hi - lo + 1):
            raise MoveError("rewrite window %d-%d malformed" % (lo, hi))
        check_block_rewrite(sys, lo, hi, move.perms)
        ts = sys.transpositions[: lo - 1] + move.perms + sys.transpositions[hi:]
        return HurwitzSystem(sys.d, sys.handles, ts)
    raise MoveError("unknown move kind %r" % move.kind)


def apply_word(sys: HurwitzSystem, word: str) -> HurwitzSystem:
    for token in word.split():
        sys = apply_move(sys, parse_move(token))
    return sys


def invert_tokens(tokens: list[str]) -> list[str]:
    """The inverse of a braid and push word: reversed, each token's
    prime toggled."""
    return [token[:-1] if token.endswith("'") else token + "'" for token in reversed(tokens)]


class Certificate(NamedTuple):
    """A replayable witness that two systems are connected by moves."""

    start: str  # system line
    moves: str  # space-separated move tokens
    end: str
    catalog: str  # schema file hash the moves were generated under

    def replay(self) -> HurwitzSystem:
        """Re-execute the certificate: check the catalog hash, read and
        validate the start, apply every token through apply_move (with
        check_block_rewrite on each W token and the retype checks on
        each R token) and compare the system reached with the end.  The
        word takes one spelling, its tokens joined by single spaces.  Only
        the parse of a token text is memoized; no move, check or
        verdict is."""
        if self.catalog != catalog_hash():
            raise MoveError("certificate was issued under a different move catalog")
        if self.moves != " ".join(self.moves.split()):
            raise MoveError("certificate moves are not tokens joined by single spaces")
        sys = deserialize(self.start)
        report = validate(sys)
        if not report.ok:
            raise MoveError("certificate start is not a valid system: %s" % report.messages[0])
        sys = apply_word(sys, self.moves)
        if serialize(sys) != self.end:
            raise MoveError("certificate replay reached %s, expected %s"
                            % (serialize(sys), self.end))
        return sys


def certificate(start: HurwitzSystem, moves: str, end: HurwitzSystem) -> Certificate:
    return Certificate(serialize(start), moves, serialize(end), catalog_hash())
