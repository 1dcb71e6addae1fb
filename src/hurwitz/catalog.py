"""The frozen move schema catalog.

Elementary moves are stored as words over schema tokens in a data file
(``data/catalog.txt``) rather than as code: braid moves over the pair
x, y of adjacent puncture generators, handle point-pushes over the
tokens a, b (the pushed handle's loops), g (the last puncture) and K
(the commutator block of all earlier handles); a section's word holds
its k-th token as letter k.  This module is the one reader and writer
of that text: it parses the file, spells it back (schema_text, which
derive's search writes the file with), substitutes concrete
generators per (h, w, position) by words.substitute, and certifies
every instance against the peripheral contract, pushes also against
their shape, before release.  The file's SHA-256 is stamped into
reports so two runs can be compared move-for-move.
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
    conjugate_parts,
    handle_block_word,
    substitute,
    validate_peripheral,
)

BRAID_TOKENS = ("x", "y")
PUSH_TOKENS = ("a", "b", "g", "K")

# each section's entry tokens, sections and entries in file order
_ENTRIES = {"braid": ("x", "y"), "braid^-1": ("x", "y"), "push_a": ("g", "b"),
            "push_a^-1": ("g", "b"), "push_b": ("g", "a"), "push_b^-1": ("g", "a")}

_HEADER = """\
# Elementary move schemas for Hurwitz systems.
# Words are over schema tokens; unlisted generators are fixed.
#   braid blocks:  x, y = the adjacent puncture generators g_j, g_j+1
#   push blocks:   a, b = the loop pair of the pushed handle,
#                  g = the last puncture generator,
#                  K = product of commutators of all earlier handles
# Push conjugators were found by bounded search and certified by the
# exact relator identity on token words; do not edit by hand.
"""


class CatalogError(Exception):
    """Schema file missing, malformed, or failing certification."""


def _section_tokens(section: str) -> tuple[str, ...]:
    """The tokens a section's words are over: token k is letter k."""
    return BRAID_TOKENS if section.startswith("braid") else PUSH_TOKENS


def _parse_word(text: str, tokens: tuple[str, ...]) -> Word:
    letters = []
    for piece in [] if text.strip() == "1" else text.split():
        name = piece.removesuffix("^-1")
        if name not in tokens:
            raise CatalogError("unknown schema token %r" % name)
        letters.append((tokens.index(name) + 1) * (1 if name == piece else -1))
    return tuple(letters)


def spell_word(word: Word, tokens: tuple[str, ...]) -> str:
    """word as schema text over tokens, the empty word as 1."""
    return " ".join(tokens[abs(x) - 1] + ("^-1" if x < 0 else "") for x in word) or "1"


class Schemas(NamedTuple):
    """Parsed schema file: section -> entry token -> word, whose letter
    k is the section's token k."""

    sections: dict

    def entry(self, section: str, token: str) -> Word:
        return self.sections[section][token]


def parse_schemas(text: str) -> Schemas:
    sections: dict = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1]
            if name not in _ENTRIES:
                raise CatalogError("line %d: unknown section [%s]" % (lineno, name))
            if name in sections:
                raise CatalogError("line %d: duplicate section [%s]" % (lineno, name))
            current = name
            sections[name] = {}
            continue
        if current is None or ":" not in line:
            raise CatalogError("line %d: expected 'letter: word'" % lineno)
        token, _, word = line.partition(":")
        token = token.strip()
        if token not in _ENTRIES[current]:
            raise CatalogError("line %d: unexpected entry %r in [%s]" % (lineno, token, current))
        if token in sections[current]:
            raise CatalogError("line %d: duplicate entry %r" % (lineno, token))
        sections[current][token] = _parse_word(word, _section_tokens(current))
    for name, entries in _ENTRIES.items():
        if name not in sections:
            raise CatalogError("missing section [%s]" % name)
        for token in entries:
            if token not in sections[name]:
                raise CatalogError("section [%s] is missing entry %r" % (name, token))
    return Schemas(sections)


def schema_text(sections: dict) -> str:
    """The schema file of sections, as parse_schemas reads it: the
    header, then each section's entries in file order."""
    lines = [_HEADER]
    for name, entries in _ENTRIES.items():
        lines.append("[%s]" % name)
        lines += ["%s: %s" % (token, spell_word(sections[name][token], _section_tokens(name)))
                  for token in entries]
        lines.append("")
    return "\n".join(lines)


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

def _instance(ctx: FreeContext, section: str, mapping: tuple[Word, ...],
              schemas: Schemas | None) -> EndoMap:
    """The map a section's schemas make under mapping, the words its
    tokens stand for: each entry token names a one-generator word in
    mapping, and that generator's image and stored inverse image are
    the section's word and the ^-1 section's word; every other
    generator is fixed."""
    s = schemas or get_schemas()
    images = [(k,) for k in range(1, ctx.rank + 1)]
    inverse = list(images)
    for token in _ENTRIES[section]:
        (k,) = mapping[_section_tokens(section).index(token)]
        images[k - 1] = substitute(mapping, s.entry(section, token))
        inverse[k - 1] = substitute(mapping, s.entry(section + "^-1", token))
    return EndoMap(ctx, tuple(images), tuple(inverse))


def braid_endo(ctx: FreeContext, j: int, schemas: Schemas | None = None) -> EndoMap:
    """The braid move at punctures j, j+1 as a free group map."""
    if not 1 <= j <= ctx.w - 1:
        raise ValueError("braid position %d out of range 1..%d" % (j, ctx.w - 1))
    return _instance(ctx, "braid", ((ctx.g(j),), (ctx.g(j + 1),)), schemas)


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
    mapping = ((ctx.a(i),), (ctx.b(i),), (ctx.g(ctx.w),), handle_block_word(ctx, i))
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
