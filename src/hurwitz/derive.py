"""Bounded search for the handle point-push schemas.

A push of the last puncture around a loop of handle i acts on the
surface group by an automorphism of a constrained shape: the puncture
generator g maps to a conjugate of itself, exactly one of the two loop
generators of handle i picks up a factor conjugate to g or g^-1, and
every other generator is fixed.  Rather than trusting any closed
formula, this module finds the conjugators by exhaustive search over
short words and certifies the result exactly; the catalog file freezes
what the search found, and a test re-runs the search against the
frozen file.

The search runs in a token free group on six letters

    a, b : the loop pair of handle i
    g    : the last puncture generator
    K    : the product of the commutators of handles before i
    Q    : the product g_1 ... g_w-1 of the other puncture generators
    T    : the product of the commutators of handles after i

K, Q, T are composite words in the surface group, but they share no
letters with a, b, g or with each other, so the subgroup they generate
together with a, b, g is free on these six elements and token-level
identities specialize soundly to every handle index and every w >= 1.
The token relator, with [x, y] = x y x^-1 y^-1, is

    R = Q g K [a, b] T

and the defining condition is e(R) = R.  Equality rather than mere
conjugacy costs nothing: Q occurs exactly once in e(R), so the only
rotation that can align the cyclic words is the one fixing Q, and
conjugacy of e(R) to R collapses to equality.  Cancelling Q and T
leaves, for the side-a push (which moves b),

    e(g) . K . [a, e(b)]  =  g . K . [a, b]

so for each candidate conjugate e(g) = C g^e C^-1 the commutator
[a, e(b)] is determined and e(b) can be read off whenever the result
has commutator shape at all.  That turns the two-unknown search into
a linear scan over C. Side b is symmetric with [e(a), b].

Inverse maps are found the same way: the inverse of a push is a push
along the reversed loop, so it has the same shape but its conjugators
may involve g, and it is pinned down by words.inverse_fault, the
check the catalog's certification runs, rather than by the relator.
A schema is a words.EndoMap of the token group, a FreeContext(0, 6)
whose six generators are the tokens in the order below.  Its first four
are the catalog's push tokens in catalog order, so a schema's words
are the catalog's words as they stand, and catalog.schema_text spells
the file.
"""

from __future__ import annotations

from typing import Iterator

from .catalog import PUSH_TOKENS, schema_text
from .words import (EndoMap, FreeContext, Word, concat, identity_endo, inverse_fault,
                    invert_word, reduce_word, strip_conjugate)

A, B, G, K, Q, T = 1, 2, 3, 4, 5, 6
TOKEN_GROUP = FreeContext(0, 6)

RELATOR_TOKENS: Word = (Q, G, K, A, B, -A, -B, T)

CONJUGATOR_TOKENS = (A, B, G, K)

# the conjugator length the catalog's schemas were found within
CONJUGATOR_BOUND = 8


def words_by_length(alphabet: tuple[int, ...], max_len: int) -> Iterator[list[Word]]:
    """Reduced words over +-alphabet, one list per length, ascending."""
    letters = tuple(x for k in alphabet for x in (k, -k))
    level: list[Word] = [()]
    yield level
    for _ in range(max_len):
        level = [w + (x,) for w in level for x in letters if not w or w[-1] != -x]
        yield level


class PushSchema(EndoMap):
    """A push as a map of the token group: g and the moved loop, the one
    crossing the push path (b for side "a", a for side "b"), change and
    the rest are fixed."""

    @property
    def moved(self) -> int:
        return B if self.images[A - 1] == (A,) else A

    @property
    def g_image(self) -> Word:
        return self.images[G - 1]

    @property
    def moved_image(self) -> Word:
        return self.images[self.moved - 1]


def push_pair_from_conjugate(side: str, g_image: Word) -> Word | None:
    """Given e(g), the e(moved) word making e(R) = R, if one of the
    required ansatz shape moved . C' g^+-1 C'^-1 exists; None otherwise.
    The commutator equation pins e(moved) only up to trailing powers of
    the unmoved generator, so those powers are scanned for the one
    giving the ansatz shape."""
    # cancel Q and T:  e(g) K [a, e(b)] = g K [a, b]   (side a)
    w = concat((-K,), invert_word(g_image), (G, K, A, B, -A, -B))
    if side == "a":
        # w must be [a, Y] = a Y a^-1 Y^-1, so a^-1 w = Y a^-1 Y^-1,
        # and [a, Y t] = [a, Y] for any power t of a
        v, core = strip_conjugate(reduce_word((-A,) + w))
        if core != (-A,):
            return None
        moved, unmoved = B, A
    else:
        # w must be [Y, b] = Y b Y^-1 b^-1, so w b = Y b Y^-1
        v, core = strip_conjugate(reduce_word(w + (B,)))
        if core != (B,):
            return None
        moved, unmoved = A, B
    for k in range(-3, 4):
        y = reduce_word(v + (unmoved,) * k if k >= 0 else v + (-unmoved,) * -k)
        cp, g_core = strip_conjugate(reduce_word((-moved,) + y))
        if g_core in ((G,), (-G,)):
            return y
    return None


def search_push_family(side: str, max_len: int) -> Iterator[PushSchema]:
    """Nontrivial ansatz solutions of e(R) = R, conjugators shortest
    first; the scan order is deterministic, so so is the yield order.
    An inverse push is a push along the reversed loop, so inverses
    appear in this same family, with g in their conjugators.  No
    solution repeats: e(g) = C g^e C^-1 is reduced as written, so it
    gives back its C and e, and e(moved) is a function of e(g)."""
    moved = B if side == "a" else A
    base = identity_endo(TOKEN_GROUP).images
    for level in words_by_length(CONJUGATOR_TOKENS, max_len):
        for c in level:
            if c and abs(c[-1]) == G:
                # c g^k g^e g^-k c^-1 is c g^e c^-1: a shorter c's image
                continue
            for eps in (1, -1):
                # reduced as it stands, since c does not end in g^+-1
                g_image = c + (eps * G,) + invert_word(c)
                y = push_pair_from_conjugate(side, g_image)
                if y is None or y == (moved,):
                    continue
                images = list(base)
                images[G - 1], images[moved - 1] = g_image, y
                s = PushSchema(TOKEN_GROUP, tuple(images))
                assert s.apply(RELATOR_TOKENS) == RELATOR_TOKENS
                yield s


def solve_push_schemas() -> dict[str, tuple[PushSchema, PushSchema]]:
    """For each side: the first solution the family scan yields, paired
    with the first later member that composes with it to the identity."""
    out: dict[str, tuple[PushSchema, PushSchema]] = {}
    for side in ("a", "b"):
        fwd = inverse = None
        for s in search_push_family(side, CONJUGATOR_BOUND):
            if fwd is None:
                fwd = s
            elif inverse_fault(EndoMap(TOKEN_GROUP, fwd.images, s.images)) is None:
                inverse = s
                break
        if inverse is None:
            raise RuntimeError("no %s found for side %s within bound %d" % (
                "push schema" if fwd is None else "inverse", side, CONJUGATOR_BOUND))
        out[side] = (fwd, inverse)
    return out


def catalog_text() -> str:
    """Render the full elementary-move schema catalog: the braid
    sections over x, y = letters 1, 2, and the searched pushes."""
    sections = {"braid": {"x": (2,), "y": (-2, 1, 2)}, "braid^-1": {"x": (1, 2, -1), "y": (1,)}}
    for side, (fwd, inv) in solve_push_schemas().items():
        moved = PUSH_TOKENS[fwd.moved - 1]
        sections["push_" + side] = {"g": fwd.g_image, moved: fwd.moved_image}
        sections["push_%s^-1" % side] = {"g": inv.g_image, moved: inv.moved_image}
    return schema_text(sections)


def main() -> None:
    import pathlib

    path = pathlib.Path(__file__).parent / "data" / "catalog.txt"
    path.write_text(catalog_text())
    print("wrote %s" % path)


if __name__ == "__main__":
    main()
