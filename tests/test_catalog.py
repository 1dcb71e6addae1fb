"""Schema catalog: parsing, certification, tamper rejection, and
agreement of the frozen file with a fresh bounded search."""

import pytest

from hurwitz import catalog
from hurwitz.catalog import (CatalogError, Schemas, braid_endo, catalog_bytes,
                             catalog_hash, certified_braid_endo,
                             certified_push_endo, certify_push, get_schemas,
                             handle_block_word, parse_schemas, push_endo)
from hurwitz.derive import format_token_word, search_push_family
from hurwitz.words import FreeContext, validate_peripheral

# the shipped file is frozen; the moves and every certificate hash it
FROZEN_HASH = "61ed0bf42abadccddf4e40c49bc3e7ffe629624e0d730386348f2e4861ea7d6f"


def fmt(entry) -> str:
    return " ".join(name + ("^-1" if sign < 0 else "") for name, sign in entry)


class TestParsing:
    def test_frozen_hash(self):
        assert catalog_hash() == FROZEN_HASH

    def test_sections_complete(self):
        s = get_schemas()
        assert fmt(s.entry("braid", "x")) == "y"
        assert fmt(s.entry("braid", "y")) == "y^-1 x y"
        assert fmt(s.entry("braid^-1", "x")) == "x y x^-1"
        assert fmt(s.entry("braid^-1", "y")) == "x"
        for section in ("push_a", "push_a^-1"):
            assert s.entry(section, "g")
            assert s.entry(section, "b")
        for section in ("push_b", "push_b^-1"):
            assert s.entry(section, "g")
            assert s.entry(section, "a")

    def test_parse_rejects_unknown_token(self):
        with pytest.raises(CatalogError, match="unknown schema token"):
            parse_schemas("[braid]\nx: z\ny: x\n")

    def test_parse_rejects_duplicate_section(self):
        text = catalog_bytes().decode() + "\n[braid]\nx: y\ny: x\n"
        with pytest.raises(CatalogError, match="duplicate section"):
            parse_schemas(text)

    def test_parse_rejects_missing_section(self):
        # deleting the braid inverse must be caught at parse time
        text = catalog_bytes().decode()
        head, _, tail = text.partition("[braid^-1]")
        tail = tail.split("\n\n", 1)[1]
        with pytest.raises(CatalogError, match="missing section"):
            parse_schemas(head + tail)

    def test_parse_rejects_stray_line(self):
        with pytest.raises(CatalogError, match="line 1"):
            parse_schemas("x: y\n")


class TestCertification:
    def test_braid_and_push_certify_on_a_grid(self):
        for h in range(0, 3):
            for w in range(1, 6):
                for j in range(1, w):
                    certified_braid_endo(h, w, j)
                for i in range(1, h + 1):
                    for side in ("a", "b"):
                        certified_push_endo(h, w, i, side)

    def test_position_bounds(self):
        ctx = FreeContext(1, 3)
        with pytest.raises(ValueError):
            braid_endo(ctx, 3)
        with pytest.raises(ValueError):
            push_endo(ctx, 2, "a")
        with pytest.raises(ValueError):
            push_endo(ctx, 1, "c")
        with pytest.raises(ValueError):
            push_endo(FreeContext(1, 0), 1, "a")

    def test_handle_block_word(self):
        ctx = FreeContext(3, 1)
        assert handle_block_word(ctx, 1) == ()
        # [a1, b1] = a1 b1 a1^-1 b1^-1
        assert handle_block_word(ctx, 2) == (1, 2, -1, -2)

    def test_puncture_action(self):
        # the push moves only the last puncture, braids swap j, j+1
        e = certified_push_endo(2, 4, 1, "a")
        assert validate_peripheral(e).puncture_map == (1, 2, 3, 4)
        e = certified_braid_endo(0, 4, 2)
        assert validate_peripheral(e).puncture_map == (1, 3, 2, 4)


class TestTampering:
    def tampered(self, section, letter, word):
        base = get_schemas().sections
        sections = {name: dict(entries) for name, entries in base.items()}
        sections[section][letter] = word
        return Schemas(sections)

    def test_tampered_push_word_fails(self):
        s = get_schemas()
        # drop the trailing K^-1 of the g image; at handle 2 the K token
        # is a real commutator, so the relator is no longer fixed
        bad = self.tampered("push_a", "g", s.entry("push_a", "g")[:-1])
        e = push_endo(FreeContext(2, 2), 2, "a", bad)
        assert not validate_peripheral(e).ok

    def test_tampered_inverse_fails(self):
        s = get_schemas()
        bad = self.tampered("push_b^-1", "a", s.entry("push_b^-1", "a")[:-1])
        e = push_endo(FreeContext(1, 2), 1, "b", bad)
        assert not validate_peripheral(e).ok

    @pytest.mark.parametrize("h,w", [(1, 2), (2, 4)])
    def test_push_composed_with_a_transvection_fails(self, h, w):
        # b -> b a keeps [a, b], so the map is still a peripheral
        # automorphism, but b no longer moves by a conjugate of g
        s = get_schemas()
        bad = self.tampered("push_a", "b", s.entry("push_a", "b") + (("a", 1),))
        inverse = s.entry("push_a^-1", "b")
        assert inverse[-1] == ("b", 1)
        bad.sections["push_a^-1"]["b"] = inverse[:-1] + (("b", 1), ("a", -1))
        assert validate_peripheral(push_endo(FreeContext(h, w), 1, "a", bad)).ok
        with pytest.raises(CatalogError, match="the schema is not of push shape"):
            certify_push(FreeContext(h, w), 1, "a", bad)

    def test_tampered_braid_fails(self):
        bad = self.tampered("braid", "x", (("x", 1),))
        e = braid_endo(FreeContext(0, 3), 1, bad)
        assert not validate_peripheral(e).ok

    def test_failed_braid_certification_text(self, monkeypatch):
        # the catalog swapped under the cached certifier
        bad = self.tampered("braid", "x", (("x", 1),))
        monkeypatch.setattr(catalog, "get_schemas", lambda: bad)
        certified_braid_endo.cache_clear()
        try:
            with pytest.raises(CatalogError) as info:
                certified_braid_endo(0, 3, 1)
        finally:
            certified_braid_endo.cache_clear()
        assert str(info.value) == (
            "braid schema failed certification at (h=0, w=3, j=1): e(e^-1(g1)) != g1")

    def test_failed_push_certification_texts(self):
        s = get_schemas()
        bad = self.tampered("push_a", "g", s.entry("push_a", "g")[:-1])
        with pytest.raises(CatalogError) as info:
            certify_push(FreeContext(2, 2), 2, "a", bad)
        assert str(info.value) == ("push schema failed certification at "
                                   "(h=2, w=2, i=2, side=a): e(e^-1(b2)) != b2")
        bad = self.tampered("push_a", "b", s.entry("push_a", "b") + (("a", 1),))
        bad.sections["push_a^-1"]["b"] = s.entry("push_a^-1", "b")[:-1] + (("b", 1), ("a", -1))
        with pytest.raises(CatalogError) as info:
            certify_push(FreeContext(1, 2), 1, "a", bad)
        assert str(info.value) == ("push schema failed certification at "
                                   "(h=1, w=2, i=1, side=a): the schema is not of push shape")


class TestRederivation:
    def test_search_reproduces_frozen_forward_schemas(self):
        # the bounded search is the schemas' origin; its first hit per
        # side must match the file byte for byte (conjugator bound 7
        # keeps this under ten seconds; the inverses need bound 8 and
        # are pinned by the certification suite instead)
        s = get_schemas()
        for side, moved in (("a", "b"), ("b", "a")):
            found = next(iter(search_push_family(side, 7)))
            assert format_token_word(found.g_image) == fmt(s.entry("push_" + side, "g"))
            assert format_token_word(found.moved_image) == fmt(
                s.entry("push_" + side, moved))
