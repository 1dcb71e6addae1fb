"""Hurwitz systems: the permutation data of a simply branched cover.

A degree-d cover of a genus-h surface branched over w points, with the
fiber over the basepoint labeled 1..d, is the same thing as a tuple

    (a_1, b_1, ..., a_h, b_h; t_1, ..., t_w)

of permutations in S_d where every t_j is a transposition and the
surface relator holds:

    t_1 ... t_w [a_1,b_1] ... [a_h,b_h] = identity

with [x, y] = x y x^-1 y^-1 and products read left to right.  Tuples
are deliberately not quotiented by simultaneous conjugation; the
labeling is the rigidification that makes orbit enumeration exact.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import permutations
from typing import Callable, Iterator, NamedTuple

from .frobenius import MAX_COUNT_DEGREE, frobenius_count
from .perms import (
    MAX_DEGREE,
    Perm,
    all_transpositions,
    check_perm,
    compose,
    format_perm,
    identity,
    inverse,
    is_symmetric,
    is_transposition,
    parse_perm,
    PermGroup,
    product,
    transposition,
    transposition_blocks,
    transposition_points,
)

ENUMERATION_GUARD = 10**9


class BudgetError(Exception):
    """A state or product budget ran out before the answer was decided."""


class HurwitzSystem(NamedTuple):
    d: int
    handles: tuple[Perm, ...]  # a_1, b_1, a_2, b_2, ...
    transpositions: tuple[Perm, ...]

    @property
    def h(self) -> int:
        return len(self.handles) // 2

    @property
    def w(self) -> int:
        return len(self.transpositions)

    def handle_pair(self, i: int) -> tuple[Perm, Perm]:
        """(a_i, b_i), 1-based."""
        return self.handles[2 * i - 2], self.handles[2 * i - 1]


class SystemReport(NamedTuple):
    ok: bool
    messages: tuple[str, ...]


def commutator(x: Perm, y: Perm) -> Perm:
    return compose(compose(x, y), compose(inverse(x), inverse(y)))


def relator_product(sys: HurwitzSystem) -> Perm:
    acc = product(sys.transpositions, sys.d)
    for i in range(sys.h):
        acc = compose(acc, commutator(sys.handles[2 * i], sys.handles[2 * i + 1]))
    return acc


def validate(sys: HurwitzSystem) -> SystemReport:
    """Check every type invariant; report the first violation found."""
    if sys.d < 1:
        return SystemReport(False, ("degree must be at least 1, got %d" % sys.d,))
    if len(sys.handles) % 2 != 0:
        return SystemReport(False, ("handles must come in (a_i, b_i) pairs, got %d entries"
                                    % len(sys.handles),))
    # every t_j a tuple key of the transposition table is a permutation
    # of degree d and a transposition, so only the handles need the checks
    known = False
    if sys.d <= MAX_DEGREE:
        try:
            known = transposition_points(sys.d).keys() >= set(sys.transpositions)
        except TypeError:  # a list entry
            pass
    entries = [("handle", p) for p in sys.handles]
    if not known:
        entries += [("transposition", p) for p in sys.transpositions]
    for name, p in entries:
        try:
            check_perm(p)
        except ValueError as exc:
            return SystemReport(False, ("bad %s entry: %s" % (name, exc),))
        if len(p) != sys.d:
            return SystemReport(False, ("%s entry has degree %d, system has d=%d"
                                        % (name, len(p), sys.d),))
    if not known:
        for j, t in enumerate(sys.transpositions, start=1):
            if not is_transposition(t):
                return SystemReport(False, ("t_%d is not a transposition: %s"
                                            % (j, format_perm(t)),))
    if sys.w % 2 != 0:
        return SystemReport(False, ("w must be even, got %d" % sys.w,))
    if relator_product(sys) != identity(sys.d):
        return SystemReport(False, ("relator product is not the identity",))
    return SystemReport(True, ())


def genus(sys: HurwitzSystem) -> int:
    """Genus of the covering surface, by Riemann-Hurwitz with simple
    branching: g = d(h-1) + w/2 + 1."""
    return sys.d * (sys.h - 1) + sys.w // 2 + 1


def monodromy(sys: HurwitzSystem) -> PermGroup:
    return PermGroup(sys.handles + sys.transpositions, sys.d)


def is_full_monodromy(sys: HurwitzSystem) -> bool:
    return is_symmetric(sys.handles + sys.transpositions, sys.d)


def branching_blocks(sys: HurwitzSystem) -> list[tuple[int, ...]]:
    """Blocks of the branching monodromy group; the group itself is the
    direct product of symmetric groups on the blocks."""
    return transposition_blocks(sys.transpositions, sys.d)


# ---------------------------------------------------------------------------
# serialization

def serialize(sys: HurwitzSystem) -> str:
    """Canonical one-line text form; its UTF-8 bytes are the SystemKey.
    Example: d=3 h=1 w=4 | t: 2,1,3 ; 1,3,2 ; 1,3,2 ; 2,1,3 | ab: 2,3,1 , 2,1,3
    """
    t_part = " ; ".join(format_perm(t) for t in sys.transpositions) or "-"
    ab_part = " , ".join(format_perm(p) for p in sys.handles) or "-"
    return "d=%d h=%d w=%d | t: %s | ab: %s" % (sys.d, sys.h, sys.w, t_part, ab_part)


class KeyParseError(ValueError):
    """Malformed system line; carries the byte offset of the failure."""

    def __init__(self, message: str, offset: int):
        super().__init__("%s (at offset %d)" % (message, offset))
        self.offset = offset


class _Cursor:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def expect(self, token: str) -> None:
        if not self.text.startswith(token, self.pos):
            raise KeyParseError("expected %r" % token, self.pos)
        self.pos += len(token)

    def take_until(self, stop: str) -> str:
        end = self.text.find(stop, self.pos)
        if end < 0:
            end = len(self.text)
        piece = self.text[self.pos : end]
        self.pos = end
        return piece

    def take_int(self) -> int:
        start = self.pos
        while self.pos < len(self.text) and "0" <= self.text[self.pos] <= "9":
            self.pos += 1
        if self.pos == start:
            raise KeyParseError("expected an integer", start)
        if self.text[start] == "0" and self.pos - start > 1:
            raise KeyParseError("integer with a leading zero", start)
        try:
            return int(self.text[start : self.pos])
        except ValueError:  # more digits than int() converts
            raise KeyParseError("integer of %d digits" % (self.pos - start), start) from None


def _parse_perm_field(field: str, start: int, sep: str, d: int) -> list[Perm]:
    out: list[Perm] = []
    offset = 0
    for piece in field.split(sep):
        try:
            p = parse_perm(piece)
        except ValueError as exc:
            raise KeyParseError(str(exc), start + offset) from None
        if len(p) != d:
            raise KeyParseError("permutation degree %d, expected %d" % (len(p), d), start + offset)
        out.append(p)
        offset += len(piece) + len(sep)
    return out


def deserialize(key: str) -> HurwitzSystem:
    """Inverse of serialize; raises KeyParseError with a byte offset on
    malformed input, on a number serialize would spell otherwise (a
    sign, a space, "_", a leading zero or other digits) and on a degree
    over perms.MAX_DEGREE.  Structure only: run validate on the result
    to check the relator and transposition shape."""
    cur = _Cursor(key)
    cur.expect("d=")
    d = cur.take_int()
    if d > MAX_DEGREE:
        raise KeyParseError("degree %d is over the maximum %d" % (d, MAX_DEGREE), len("d="))
    cur.expect(" h=")
    h = cur.take_int()
    cur.expect(" w=")
    w = cur.take_int()
    cur.expect(" | t: ")
    t_field = cur.take_until(" | ab: ")
    ts = [] if t_field == "-" else _parse_perm_field(t_field, cur.pos - len(t_field), " ; ", d)
    cur.expect(" | ab: ")
    ab_field = cur.take_until("\n")
    handles = [] if ab_field == "-" else _parse_perm_field(ab_field, cur.pos - len(ab_field), " , ", d)
    if cur.pos != len(key):
        raise KeyParseError("trailing garbage", cur.pos)
    if len(ts) != w:
        raise KeyParseError("w=%d but %d transpositions listed" % (w, len(ts)), 0)
    if len(handles) != 2 * h:
        raise KeyParseError("h=%d but %d handle entries listed" % (h, len(handles)), 0)
    return HurwitzSystem(d, tuple(handles), tuple(ts))


# ---------------------------------------------------------------------------
# enumeration

def _all_elements(d: int) -> list[Perm]:
    return [tuple(p) for p in permutations(range(1, d + 1))]


@lru_cache(maxsize=1)
def _commutator_pairs(d: int) -> dict[Perm, list[tuple[Perm, Perm]]]:
    """All (x, y) in S_d x S_d grouped by [x, y], in lex order.  The
    last degree's table is kept, so callers must only read it."""
    table: dict[Perm, list[tuple[Perm, Perm]]] = {}
    elems = _all_elements(d)
    for x in elems:
        for y in elems:
            table.setdefault(commutator(x, y), []).append((x, y))
    return table


def _spend(spent: int, products: int, budget: float) -> int:
    """spent + products, or BudgetError when that passes budget."""
    spent += products
    if spent > budget:
        raise BudgetError("convolution needs more than %d permutation products" % budget)
    return spent


def _count_map_pow(base: dict[Perm, int], n: int, d: int,
                   spent: int, budget: float) -> tuple[dict[Perm, int], int]:
    """n-fold convolution of a count map over S_d, and the permutation
    products spent so far.  Raises BudgetError before a step would take
    the products past budget."""
    acc = {identity(d): 1}
    for _ in range(n):
        spent = _spend(spent, len(acc) * len(base), budget)
        nxt: dict[Perm, int] = {}
        for p, cp in acc.items():
            for q, cq in base.items():
                key = compose(p, q)
                nxt[key] = nxt.get(key, 0) + cp * cq
        acc = nxt
    return acc, spent


def count_systems(d: int, h: int, w: int, budget: float = math.inf) -> int:
    """Exact number of valid systems, by count-map convolution.  Cheap
    for d <= 6 and small w; the Frobenius character sum is the
    independent check.  budget bounds the permutation products."""
    if d > 6:
        raise ValueError("count_systems convolution is limited to d <= 6")
    t_map = {t: 1 for t in all_transpositions(d)}
    t_counts, spent = _count_map_pow(t_map, w, d, 0, budget)
    if h == 0:
        return t_counts.get(identity(d), 0)
    # the commutator table costs one product per pair in S_d x S_d
    spent = _spend(spent, math.factorial(d) ** 2, budget)
    comm_map = {c: len(lst) for c, lst in _commutator_pairs(d).items()}
    h_counts, _ = _count_map_pow(comm_map, h, d, spent, budget)
    # t-product times commutator product must be the identity
    return sum(n * h_counts.get(inverse(p), 0) for p, n in t_counts.items())


def _estimate_count(d: int, h: int, w: int) -> int:
    """What enumerating these systems costs: their exact number by the
    character sum for d <= MAX_COUNT_DEGREE, above it the upper bound
    C(d,2)^w d!^(2h) of free choices.  At h >= 1 enumeration also
    builds the d!^2-pair commutator table, so that is charged as well,
    as count_systems does."""
    if d <= MAX_COUNT_DEGREE:
        n = frobenius_count(d, h, w)
    else:
        n = (d * (d - 1) // 2) ** w * math.factorial(d) ** (2 * h)
    return max(n, math.factorial(d) ** 2) if h > 0 else n


def enumeration_guard(d: int, h: int, w: int) -> None:
    """Raise ValueError where enumerate_systems refuses: a negative h or
    w, or an estimated cost (systems, or commutator pairs at h >= 1)
    over the enumeration guard."""
    if h < 0 or w < 0:
        raise ValueError("h and w must be non-negative, got h=%d w=%d" % (h, w))
    if _estimate_count(d, h, w) > ENUMERATION_GUARD:
        raise ValueError("enumeration would exceed the guard of %d systems" % ENUMERATION_GUARD)


def enumerate_systems(d: int, h: int, w: int,
                      filter: Callable[[HurwitzSystem], bool] | None = None
                      ) -> Iterator[HurwitzSystem]:
    """Every valid system with these parameters that passes filter,
    exactly once, in system-line order: lex over (t_1..t_w, a_1, b_1,
    ..., a_h, b_h) with each entry ordered by its text.  filter is
    called once per system, as it comes up.  The enumeration_guard runs
    at the first draw."""
    enumeration_guard(d, h, w)
    if w % 2:
        return
    trans = sorted(all_transpositions(d), key=format_perm)
    pairs = _commutator_pairs(d) if h > 0 else {}
    # every handle pair but the last is a free choice; the pair lists are
    # in tuple order, which is text order because the guard keeps h >= 1
    # to d <= 7
    elems = _all_elements(d) if h > 1 else []
    free_pairs = [((x, y), commutator(x, y)) for x in elems for y in elems]
    # at h = 0 the last transposition is forced by the relator
    forced = h == 0 and w > 0
    free = w - 1 if forced else w
    # depth first on an explicit stack, since w may pass the recursion
    # limit; children are pushed in reverse so prefixes come out in lex
    # order
    stack = [((), (), identity(d))]
    while stack:
        ts, handles, prod = stack.pop()
        if len(ts) < free:
            stack += [(ts + (t,), handles, compose(prod, t)) for t in reversed(trans)]
            continue
        if len(handles) < 2 * h - 2:
            stack += [(ts, handles + pair, compose(prod, c)) for pair, c in reversed(free_pairs)]
            continue
        target = inverse(prod)
        if h > 0:
            found = (HurwitzSystem(d, handles + pair, ts) for pair in pairs.get(target, ()))
        elif forced:
            found = [HurwitzSystem(d, (), ts + (target,))] if is_transposition(target) else []
        else:
            found = [HurwitzSystem(d, (), ())]
        for sys in found:
            if filter is None or filter(sys):
                yield sys


def full_monodromy_seed(d: int, h: int, w: int) -> HurwitzSystem | None:
    """A full-monodromy system with these parameters by construction, or
    None where this construction does not apply.  For h >= 1 and even
    w >= 2: every t_j = (1 2), a_1 = (1 2 ... d) and every other handle
    entry the identity; the t_j cancel in pairs and [a_1, 1] = 1.  For
    h = 0 and even w >= 2(d-1): the doubled (k k+1) for k < d, padded
    with copies of (1 2).  (1 2) with a d-cycle generates S_d, and so do
    transpositions linking all d points (Hurwitz 1891; Fulton 1969,
    section 1).

    >>> serialize(full_monodromy_seed(3, 1, 2))
    'd=3 h=1 w=2 | t: 2,1,3 ; 2,1,3 | ab: 2,3,1 , 1,2,3'
    >>> print(full_monodromy_seed(3, 0, 2))
    None
    """
    if d < 2 or h < 0 or w % 2 or w < (2 if h else 2 * (d - 1)):
        return None
    swap = transposition(d, 1, 2)
    if h:
        cycle = tuple(range(2, d + 1)) + (1,)
        return HurwitzSystem(d, (cycle,) + (identity(d),) * (2 * h - 1), (swap,) * w)
    doubled = tuple(t for k in range(1, d) for t in [transposition(d, k, k + 1)] * 2)
    return HurwitzSystem(d, (), doubled + (swap,) * (w - len(doubled)))


def random_system(d: int, h: int, w: int, rng,
                  filter: Callable[[HurwitzSystem], bool] | None = None,
                  max_tries: int = 100000) -> HurwitzSystem:
    """Uniform over valid systems (each system has exactly one free
    choice of the first w-1 transpositions and the handles, so
    rejection sampling is exact), optionally conditioned on filter."""
    if w < 1 or w % 2 != 0:
        raise ValueError("need even w >= 2 to sample")
    trans = all_transpositions(d)
    elems = _all_elements(d) if h > 0 else []
    for _ in range(max_tries):
        handles = tuple(rng.choice(elems) for _ in range(2 * h))
        ts = [rng.choice(trans) for _ in range(w - 1)]
        comm = identity(d)
        for i in range(h):
            comm = compose(comm, commutator(handles[2 * i], handles[2 * i + 1]))
        # t_1..t_w * comm = id forces t_w = prefix^-1 * comm^-1
        last = compose(inverse(product(ts, d)), inverse(comm))
        if not is_transposition(last):
            continue
        sys = HurwitzSystem(d, handles, tuple(ts) + (last,))
        if filter is None or filter(sys):
            return sys
    raise RuntimeError("rejection sampling failed after %d tries" % max_tries)
