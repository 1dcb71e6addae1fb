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
may involve g, and it is pinned down by e(f(g)) = g and
e(f(x)) = x rather than by the relator.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .words import Word, concat, invert_word, reduce_word, strip_conjugate

A, B, G, K, Q, T = 1, 2, 3, 4, 5, 6
TOKEN_NAMES = {A: "a", B: "b", G: "g", K: "K", Q: "Q", T: "T"}

RELATOR_TOKENS: Word = (Q, G, K, A, B, -A, -B, T)

CONJUGATOR_TOKENS = (A, B, G, K)


def token_name(letter: int) -> str:
    return TOKEN_NAMES[abs(letter)] + ("^-1" if letter < 0 else "")


def format_token_word(word: Word) -> str:
    return " ".join(token_name(x) for x in word) if word else "1"


def words_by_length(alphabet: tuple[int, ...], max_len: int) -> Iterator[list[Word]]:
    """Reduced words over +-alphabet, one list per length, ascending."""
    letters = tuple(x for k in alphabet for x in (k, -k))
    level: list[Word] = [()]
    yield level
    for _ in range(max_len):
        level = [w + (x,) for w in level for x in letters if not w or w[-1] != -x]
        yield level


class PushSchema(NamedTuple):
    """Token images of the two generators a push moves; rest are fixed."""

    side: str  # "a" or "b": the handle loop the puncture travels around
    g_image: Word
    moved: int  # B for side "a", A for side "b": the loop crossing the push path
    moved_image: Word

    def images(self) -> dict[int, Word]:
        imgs = {k: (k,) for k in (A, B, G, K, Q, T)}
        imgs[G] = self.g_image
        imgs[self.moved] = self.moved_image
        return imgs


def apply_token_images(images: dict[int, Word], word: Word) -> Word:
    parts = []
    for x in word:
        img = images[abs(x)]
        parts.append(img if x > 0 else invert_word(img))
    return concat(*parts)


def schema_relator_image(s: PushSchema) -> Word:
    return apply_token_images(s.images(), RELATOR_TOKENS)


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


def search_push_family(side: str, max_len: int = 8) -> Iterator[PushSchema]:
    """Nontrivial ansatz solutions of e(R) = R, conjugators shortest
    first; the scan order is deterministic, so so is the yield order.
    An inverse push is a push along the reversed loop, so inverses
    appear in this same family, with g in their conjugators."""
    moved = B if side == "a" else A
    seen: set[tuple[Word, Word]] = set()
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
                key = (g_image, y)
                if key in seen:
                    continue
                seen.add(key)
                s = PushSchema(side, g_image, moved, y)
                assert schema_relator_image(s) == reduce_word(RELATOR_TOKENS)
                yield s


def compose_is_identity(e: PushSchema, f: PushSchema) -> bool:
    ei, fi = e.images(), f.images()
    for k in (A, B, G, K, Q, T):
        if apply_token_images(ei, fi[k]) != (k,):
            return False
        if apply_token_images(fi, ei[k]) != (k,):
            return False
    return True


def solve_push_schemas(max_len: int = 8) -> dict[str, tuple[PushSchema, PushSchema]]:
    """For each side: the first solution the family scan yields, paired
    with the first later member that composes with it to the identity."""
    out: dict[str, tuple[PushSchema, PushSchema]] = {}
    for side in ("a", "b"):
        fwd = None
        inverse = None
        for s in search_push_family(side, max_len):
            if fwd is None:
                fwd = s
            elif compose_is_identity(fwd, s):
                inverse = s
                break
        if fwd is None:
            raise RuntimeError("no push schema found for side %s within bound %d" % (side, max_len))
        if inverse is None:
            raise RuntimeError("no inverse found for side %s within bound %d" % (side, max_len))
        out[side] = (fwd, inverse)
    return out


def catalog_text(max_len: int = 8) -> str:
    """Render the full elementary-move schema catalog."""
    schemas = solve_push_schemas(max_len)
    lines = [
        "# Elementary move schemas for Hurwitz systems.",
        "# Words are over schema tokens; unlisted generators are fixed.",
        "#   braid blocks:  x, y = the adjacent puncture generators g_j, g_j+1",
        "#   push blocks:   a, b = the loop pair of the pushed handle,",
        "#                  g = the last puncture generator,",
        "#                  K = product of commutators of all earlier handles",
        "# Push conjugators were found by bounded search and certified by the",
        "# exact relator identity on token words; do not edit by hand.",
        "",
        "[braid]",
        "x: y",
        "y: y^-1 x y",
        "",
        "[braid^-1]",
        "x: x y x^-1",
        "y: x",
        "",
    ]
    for side in ("a", "b"):
        fwd, inv = schemas[side]
        moved_name = TOKEN_NAMES[fwd.moved]
        for tag, s in (("", fwd), ("^-1", inv)):
            lines.append("[push_%s%s]" % (side, tag))
            lines.append("g: %s" % format_token_word(s.g_image))
            lines.append("%s: %s" % (moved_name, format_token_word(s.moved_image)))
            lines.append("")
    return "\n".join(lines)


def main() -> None:
    import pathlib

    path = pathlib.Path(__file__).parent / "data" / "catalog.txt"
    path.write_text(catalog_text())
    print("wrote %s" % path)


if __name__ == "__main__":
    main()
