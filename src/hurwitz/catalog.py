"""The frozen move schema catalog.

Elementary moves are stored as words over schema tokens in a data file
(``data/catalog.txt``) rather than as code: braid moves over the pair
x, y of adjacent puncture generators, handle point-pushes over the
tokens a, b (the pushed handle's loops), g (the last puncture) and K
(the commutator block of all earlier handles).  This module parses the
file, substitutes concrete generators per (h, w, position), and
certifies every instance against the peripheral contract, pushes
also against their shape, before release.  The file's SHA-256 is
stamped into reports so two runs can be compared move-for-move.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from importlib import resources
from typing import Callable, NamedTuple

from .words import (
    EndoMap,
    FreeContext,
    Word,
    concat,
    conjugate_parts,
    handle_block_word,
    invert_word,
    validate_peripheral,
)

# (token, sign) pairs; sign is +1 or -1
TokenWord = tuple[tuple[str, int], ...]

BRAID_TOKENS = ("x", "y")
PUSH_TOKENS = ("a", "b", "g", "K")

_SECTIONS = ("braid", "braid^-1", "push_a", "push_a^-1", "push_b", "push_b^-1")
_ENTRIES = {
    "braid": ("x", "y"),
    "braid^-1": ("x", "y"),
    "push_a": ("g", "b"),
    "push_a^-1": ("g", "b"),
    "push_b": ("g", "a"),
    "push_b^-1": ("g", "a"),
}


class CatalogError(Exception):
    """Schema file missing, malformed, or failing certification."""


def _parse_token(text: str, alphabet: tuple[str, ...]) -> tuple[str, int]:
    sign = 1
    if text.endswith("^-1"):
        sign, text = -1, text[:-3]
    if text not in alphabet:
        raise CatalogError("unknown schema token %r" % text)
    return text, sign


def _parse_token_word(text: str, alphabet: tuple[str, ...]) -> TokenWord:
    text = text.strip()
    if not text or text == "1":
        return ()
    return tuple(_parse_token(piece, alphabet) for piece in text.split())


class Schemas(NamedTuple):
    """Parsed schema file: section -> entry letter -> token word."""

    sections: dict

    def entry(self, section: str, letter: str) -> TokenWord:
        return self.sections[section][letter]


def parse_schemas(text: str) -> Schemas:
    sections: dict = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1]
            if name not in _SECTIONS:
                raise CatalogError("line %d: unknown section [%s]" % (lineno, name))
            if name in sections:
                raise CatalogError("line %d: duplicate section [%s]" % (lineno, name))
            current = name
            sections[name] = {}
            continue
        if current is None or ":" not in line:
            raise CatalogError("line %d: expected 'letter: word'" % lineno)
        letter, _, word = line.partition(":")
        letter = letter.strip()
        alphabet = BRAID_TOKENS if current.startswith("braid") else PUSH_TOKENS
        if letter not in _ENTRIES[current]:
            raise CatalogError("line %d: unexpected entry %r in [%s]" % (lineno, letter, current))
        if letter in sections[current]:
            raise CatalogError("line %d: duplicate entry %r" % (lineno, letter))
        sections[current][letter] = _parse_token_word(word, alphabet)
    for name in _SECTIONS:
        if name not in sections:
            raise CatalogError("missing section [%s]" % name)
        for letter in _ENTRIES[name]:
            if letter not in sections[name]:
                raise CatalogError("section [%s] is missing entry %r" % (name, letter))
    return Schemas(sections)


def catalog_bytes() -> bytes:
    return resources.files("hurwitz.data").joinpath("catalog.txt").read_bytes()


@lru_cache(maxsize=1)
def catalog_hash() -> str:
    return hashlib.sha256(catalog_bytes()).hexdigest()


@lru_cache(maxsize=1)
def get_schemas() -> Schemas:
    return parse_schemas(catalog_bytes().decode("utf-8"))


# ---------------------------------------------------------------------------
# instantiation

def _substitute(tokens: TokenWord, mapping: dict[str, Word]) -> Word:
    parts = []
    for name, sign in tokens:
        word = mapping[name]
        parts.append(word if sign > 0 else invert_word(word))
    return concat(*parts)


def _instance(ctx: FreeContext, section: str, mapping: dict[str, Word],
              schemas: Schemas | None) -> EndoMap:
    """The map a section's schemas make under mapping: each letter of
    _ENTRIES[section] names a one-generator word in mapping, and that
    generator's image and stored inverse image are the section's word
    and the ^-1 section's word; every other generator is fixed."""
    s = schemas or get_schemas()
    images = [(k,) for k in range(1, ctx.rank + 1)]
    inverse = list(images)
    for letter in _ENTRIES[section]:
        (k,) = mapping[letter]
        images[k - 1] = _substitute(s.entry(section, letter), mapping)
        inverse[k - 1] = _substitute(s.entry(section + "^-1", letter), mapping)
    return EndoMap(ctx, tuple(images), tuple(inverse))


def braid_endo(ctx: FreeContext, j: int, schemas: Schemas | None = None) -> EndoMap:
    """The braid move at punctures j, j+1 as a free group map."""
    if not 1 <= j <= ctx.w - 1:
        raise ValueError("braid position %d out of range 1..%d" % (j, ctx.w - 1))
    return _instance(ctx, "braid", {"x": (ctx.g(j),), "y": (ctx.g(j + 1),)}, schemas)


def push_endo(ctx: FreeContext, i: int, side: str, schemas: Schemas | None = None) -> EndoMap:
    """The point-push of the last puncture around a loop of handle i.

    side "a" pushes along the a_i loop and rewrites b_i; side "b"
    pushes along b_i and rewrites a_i.  Only g_w and the rewritten
    handle generator move.
    """
    if not 1 <= i <= ctx.h:
        raise ValueError("handle index %d out of range 1..%d" % (i, ctx.h))
    if ctx.w < 1:
        raise ValueError("point-push needs at least one puncture")
    if side not in ("a", "b"):
        raise ValueError("side must be 'a' or 'b', got %r" % side)
    mapping = {"a": (ctx.a(i),), "b": (ctx.b(i),), "g": (ctx.g(ctx.w),),
               "K": handle_block_word(ctx, i)}
    return _instance(ctx, "push_" + side, mapping, schemas)


# ---------------------------------------------------------------------------
# certified, cached instances

def _certified(e: EndoMap, kind: str, where: str,
               shape: Callable[[EndoMap], str | None] | None = None) -> EndoMap:
    """e, once validate_peripheral certifies it and shape, if given,
    names no fault of it; else the CatalogError of a failed
    certification at (h, w, where)."""
    report = validate_peripheral(e)
    fault = report.messages[0] if not report.ok else shape and shape(e)
    if fault:
        raise CatalogError("%s schema failed certification at (h=%d, w=%d, %s): %s"
                           % (kind, e.ctx.h, e.ctx.w, where, fault))
    return e


@lru_cache(maxsize=4096)
def certified_braid_endo(h: int, w: int, j: int) -> EndoMap:
    return _certified(braid_endo(FreeContext(h, w), j), "braid", "j=%d" % j)


def _push_shape_fault(e: EndoMap, i: int, side: str) -> str | None:
    """Why e is not a push along handle i, or None.  e and its inverse
    must each change only g_w and the loop opposite the pushed one, and
    send that loop to the loop times V g_w^±1 V^-1, V a word in handle
    letters; the loop comes first in e and last in its inverse."""
    ctx = e.ctx
    g, loop = ctx.g(ctx.w), ctx.b(i) if side == "a" else ctx.a(i)
    for f, name in ((e, "schema"), (e.inverse(), "inverse schema")):
        images = dict(f.changes())
        image = images.get(loop, ())
        end, rest = (image[:1], image[1:]) if f is e else (image[-1:], image[:-1])
        parts = conjugate_parts(rest)
        if (set(images) != {g, loop} or end != (loop,) or parts is None
                or abs(parts[1]) != g or any(abs(x) > 2 * ctx.h for x in parts[0])):
            return "the %s is not of push shape" % name
    return None


def certify_push(ctx: FreeContext, i: int, side: str,
                 schemas: Schemas | None = None) -> EndoMap:
    """push_endo, certified as a peripheral automorphism of push shape."""
    return _certified(push_endo(ctx, i, side, schemas), "push", "i=%d, side=%s" % (i, side),
                      lambda e: _push_shape_fault(e, i, side))


@lru_cache(maxsize=4096)
def certified_push_endo(h: int, w: int, i: int, side: str) -> EndoMap:
    return certify_push(FreeContext(h, w), i, side)
