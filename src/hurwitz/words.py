"""Free group words for the punctured-surface group.

The fundamental group of a genus-h surface with w punctures is free on
2h + w letters once one boundary relation is chosen.  Generators, in
order: handle loops a_1, b_1, ..., a_h, b_h, then puncture loops
g_1, ..., g_w.  The surface relator is

    R = g_1 ... g_w [a_1,b_1] ... [a_h,b_h]

with [x,y] = x y x^-1 y^-1, all products read left to right.

A Letter is a nonzero int: +k is generator number k (1-based in the
order above), -k its inverse.  A Word is a tuple of letters, kept freely
reduced by the constructors here.  Endomorphisms are stored as the tuple
of generator images together with the images of a stored inverse map;
``inverse_fault`` is the one check that the stored map inverts it, for
the catalog's certification and the search that wrote the catalog
alike, and ``validate_peripheral`` certifies that an endomorphism is a
relator- and puncture-structure-preserving automorphism, which is the
soundness gate every elementary move must pass.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, NamedTuple

Word = tuple[int, ...]


# typing.NamedTuple refuses a __new__ in its class body, so the records
# that check their arguments do it in a subclass of their fields
class _FreeContextFields(NamedTuple):
    h: int
    w: int


class FreeContext(_FreeContextFields):
    """Generator bookkeeping for fixed (h, w)."""

    __slots__ = ()

    def __new__(cls, h: int, w: int):
        if h < 0 or w < 0:
            raise ValueError("h and w must be nonnegative")
        return super().__new__(cls, h, w)

    @property
    def rank(self) -> int:
        return 2 * self.h + self.w

    def a(self, i: int) -> int:
        assert 1 <= i <= self.h
        return 2 * i - 1

    def b(self, i: int) -> int:
        assert 1 <= i <= self.h
        return 2 * i

    def g(self, j: int) -> int:
        assert 1 <= j <= self.w
        return 2 * self.h + j

    def name(self, letter: int) -> str:
        k = abs(letter)
        assert 1 <= k <= self.rank
        if k > 2 * self.h:
            base = "g%d" % (k - 2 * self.h)
        elif k % 2:
            base = "a%d" % ((k + 1) // 2)
        else:
            base = "b%d" % (k // 2)
        return base + ("^-1" if letter < 0 else "")


def reduce_word(letters: Iterable[int]) -> Word:
    """Freely reduce: adjacent x x^-1 pairs cancel.

    >>> reduce_word([1, 2, -2, -1, 3])
    (3,)
    """
    out: list[int] = []
    for x in letters:
        assert x != 0
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def invert_word(word: Word) -> Word:
    return tuple(-x for x in reversed(word))


def concat(*parts: Iterable[int]) -> Word:
    letters: list[int] = []
    for part in parts:
        letters.extend(part)
    return reduce_word(letters)


def substitute(images: tuple[Word, ...], word: Word) -> Word:
    """The image of word under the homomorphism sending generator k to
    images[k-1]: the one substitution of words into a free group word."""
    return concat(*(images[x - 1] if x > 0 else invert_word(images[-x - 1]) for x in word))


def commutator_word(x: Word, y: Word) -> Word:
    return concat(x, y, invert_word(x), invert_word(y))


def strip_conjugate(u: Word) -> tuple[Word, Word]:
    """(V, core) with u = V . core . V^-1 letter for letter and V as
    long as possible; for a reduced u the core is cyclically reduced."""
    v = []
    while len(u) >= 2 and u[0] == -u[-1]:
        v.append(u[0])
        u = u[1:-1]
    return tuple(v), u


def cyclic_reduce(word: Word) -> Word:
    return strip_conjugate(reduce_word(word))[1]


def conjugate_parts(word: Word) -> tuple[Word, int] | None:
    """If word == V x V^-1 (reduced) for a single letter x, return (V, x).

    >>> conjugate_parts((1, 2, 3, -2, -1))
    ((1, 2), 3)
    """
    v, core = strip_conjugate(word)
    return (v, core[0]) if len(core) == 1 else None


def is_conjugate(u: Word, v: Word) -> bool:
    """Conjugacy in the free group: equal cyclic reductions up to rotation.

    >>> is_conjugate((1, 2), (2, 1))
    True
    >>> is_conjugate((1,), (2,))
    False
    """
    cu, cv = cyclic_reduce(u), cyclic_reduce(v)
    if len(cu) != len(cv):
        return False
    if not cu:
        return True
    return any(cv[k:] + cv[:k] == cu for k in range(len(cv)))


def handle_block_word(ctx: FreeContext, i: int) -> Word:
    """[a_1,b_1] ... [a_{i-1},b_{i-1}], the K token for handle i."""
    return concat(*(commutator_word((ctx.a(k),), (ctx.b(k),)) for k in range(1, i)))


def relator(ctx: FreeContext) -> Word:
    return concat(tuple(ctx.g(j) for j in range(1, ctx.w + 1)), handle_block_word(ctx, ctx.h + 1))


class _EndoMapFields(NamedTuple):
    ctx: FreeContext
    images: tuple[Word, ...]
    inverse_images: tuple[Word, ...] | None = None


class EndoMap(_EndoMapFields):
    """Endomorphism of the free group, given by generator images.

    ``images[k-1]`` is the image word of generator k.  ``inverse_images``
    are the images under the stored inverse map; peripheral validation
    refuses to certify a map without one.  No __slots__: the cached
    hash lives in the instance __dict__.
    """

    def __new__(cls, ctx: FreeContext, images: tuple[Word, ...],
                inverse_images: tuple[Word, ...] | None = None):
        if len(images) != ctx.rank:
            raise ValueError("need %d generator images, got %d" % (ctx.rank, len(images)))
        return super().__new__(cls, ctx, images, inverse_images)

    @cached_property
    def _hash(self) -> int:
        return tuple.__hash__(self)

    def __hash__(self) -> int:
        # computed once: moves._compile keys its cache on the map, and a
        # map is looked up on every move application
        return self._hash

    def image(self, letter: int) -> Word:
        word = self.images[abs(letter) - 1]
        return word if letter > 0 else invert_word(word)

    def apply(self, word: Word) -> Word:
        return substitute(self.images, word)

    def changes(self) -> tuple[tuple[int, Word], ...]:
        """(generator, image) for each generator the map does not fix."""
        return tuple((k, word) for k, word in enumerate(self.images, start=1)
                     if word != (k,))

    def inverse(self) -> "EndoMap":
        if self.inverse_images is None:
            raise ValueError("endomorphism carries no stored inverse")
        return EndoMap(self.ctx, self.inverse_images, self.images)


def identity_endo(ctx: FreeContext) -> EndoMap:
    images = tuple((k,) for k in range(1, ctx.rank + 1))
    return EndoMap(ctx, images, images)


def inverse_fault(e: EndoMap) -> str | None:
    """Why e's stored inverse f fails to invert it, or None: the first
    generator k with e(f(k)) != k or f(e(k)) != k.  None makes e an
    automorphism with inverse f.  A generator that e and f both fix
    passes as it is, so only the moved ones are worked on; a braid
    moves two of them, whatever w.  Raises ValueError (from
    EndoMap.inverse) when e carries no stored inverse."""
    f = e.inverse()
    for k in range(1, e.ctx.rank + 1):
        if e.images[k - 1] == f.images[k - 1] == (k,):
            continue
        if e.apply(f.image(k)) != (k,):
            return "e(e^-1(%s)) != %s" % (e.ctx.name(k), e.ctx.name(k))
        if f.apply(e.image(k)) != (k,):
            return "e^-1(e(%s)) != %s" % (e.ctx.name(k), e.ctx.name(k))
    return None


class PeripheralReport(NamedTuple):
    ok: bool
    messages: tuple[str, ...]
    puncture_map: tuple[int, ...] | None = None


def validate_peripheral(e: EndoMap) -> PeripheralReport:
    """Certify that e is an automorphism preserving the peripheral
    structure: (i) the stored inverse really inverts it on every
    generator (inverse_fault), (ii) each puncture generator maps to a
    conjugate of a puncture generator, the assignment being a
    bijection, (iii) the surface relator maps to a conjugate of itself,
    orientation kept (a map sending R to a conjugate of R^-1 is
    rejected).  A generator that e fixes passes (ii) as it is.

    The bijection in (ii) needs no check of its own.  Once (i) passes,
    e is an automorphism of the free group, so it acts invertibly on
    the abelianization Z^rank; there e(g_j) is g_pi(j), so pi(j) =
    pi(j') would send g_j - g_j' != 0 to 0.  Hence pi is injective on
    the w punctures, so a bijection.
    """
    ctx = e.ctx
    fault = inverse_fault(e)
    if fault:
        return PeripheralReport(False, (fault,))
    pi: list[int] = []
    for j in range(1, ctx.w + 1):
        k = ctx.g(j)
        if e.images[k - 1] == (k,):
            pi.append(j)
            continue
        core = cyclic_reduce(e.image(k))
        if len(core) != 1 or core[0] <= 2 * ctx.h:
            return PeripheralReport(
                False, ("image of g%d is not a conjugate of a puncture generator" % j,))
        pi.append(core[0] - 2 * ctx.h)
    r = relator(ctx)
    image = e.apply(r)
    if not is_conjugate(image, r):
        if is_conjugate(image, invert_word(r)):
            return PeripheralReport(
                False, ("relator maps to a conjugate of its inverse (orientation reversed)",))
        return PeripheralReport(False, ("relator image is not conjugate to the relator",))
    return PeripheralReport(True, (), tuple(pi))
