"""Free group words, endomorphisms, and peripheral certification."""

import random

import pytest

from hurwitz.words import (EndoMap, FreeContext, commutator_word, concat,
                           conjugate_parts, cyclic_reduce, identity_endo,
                           invert_word, is_conjugate, reduce_word, relator,
                           validate_peripheral)


def rand_word(rng, rank, n):
    out = []
    for _ in range(n):
        k = rng.randrange(1, rank + 1)
        out.append(k if rng.randrange(2) else -k)
    return tuple(out)


class TestWords:
    def test_reduce(self):
        assert reduce_word((1, -1)) == ()
        assert reduce_word((1, 2, -2, -1, 3)) == (3,)
        assert reduce_word((1, 2, 3)) == (1, 2, 3)
        # reduction cascades through newly adjacent pairs
        assert reduce_word((1, 2, -2, 2, -2, -1)) == ()

    def test_invert(self):
        rng = random.Random(1)
        for _ in range(200):
            w = reduce_word(rand_word(rng, 5, rng.randrange(0, 12)))
            assert reduce_word(concat(w, invert_word(w))) == ()
            assert invert_word(invert_word(w)) == w

    def test_conjugate_and_commutator(self):
        assert concat(invert_word((1, 2)), (3,), (1, 2)) == (-2, -1, 3, 1, 2)
        assert commutator_word((1,), (2,)) == (1, 2, -1, -2)
        assert reduce_word(commutator_word((1,), (1,))) == ()

    def test_cyclic_reduce(self):
        assert cyclic_reduce((1, 2, 3, -1)) == (2, 3)
        assert cyclic_reduce((1, -1)) == ()

    def test_conjugate_parts(self):
        assert conjugate_parts((1, 2, 3, -2, -1)) == ((1, 2), 3)
        assert conjugate_parts((1, 2)) is None
        assert conjugate_parts((1, 2, -3)) is None
        assert conjugate_parts((5,)) == ((), 5)

    def test_is_conjugate(self):
        assert is_conjugate((1, 2), (2, 1))
        assert not is_conjugate((1,), (2,))
        assert not is_conjugate((1,), (-1,))
        rng = random.Random(2)
        for _ in range(100):
            w = rand_word(rng, 4, rng.randrange(1, 8))
            v = rand_word(rng, 4, rng.randrange(0, 4))
            assert is_conjugate(w, concat(invert_word(v), w, v))

    def test_relator(self):
        ctx = FreeContext(1, 2)
        # g1 g2 a1 b1 a1^-1 b1^-1
        assert relator(ctx) == (3, 4, 1, 2, -1, -2)
        assert relator(FreeContext(0, 3)) == (1, 2, 3)


class TestEndos:
    def test_identity(self):
        ctx = FreeContext(1, 2)
        e = identity_endo(ctx)
        assert e.apply((1, -3, 2)) == (1, -3, 2)
        assert validate_peripheral(e).ok

    def test_compose(self):
        ctx = FreeContext(0, 2)
        # swap of the two punctures: g2 g1 is a rotation of g1 g2, so
        # this is peripheral even though it is not the braid map
        swap = EndoMap(ctx, ((2,), (1,)), ((2,), (1,)))
        assert validate_peripheral(swap).ok

    def test_relator_breaking_swap_rejected(self):
        ctx = FreeContext(0, 3)
        # swapping g1, g2 at w=3 sends the relator to g2 g1 g3, which is
        # no rotation of g1 g2 g3
        e = EndoMap(ctx, ((2,), (1,), (3,)), ((2,), (1,), (3,)))
        rep = validate_peripheral(e)
        assert not rep.ok
        assert any("relator" in m for m in rep.messages)

    def test_inverse_required(self):
        ctx = FreeContext(0, 2)
        e = EndoMap(ctx, ((2,), (1,)))
        with pytest.raises(ValueError):
            validate_peripheral(e)

    def test_bad_inverse_rejected(self):
        ctx = FreeContext(0, 3)
        e = identity_endo(ctx)
        broken = EndoMap(ctx, e.images, ((1,), (3,), (2,)))
        rep = validate_peripheral(broken)
        assert not rep.ok

    def test_braid_style_map_certifies(self):
        ctx = FreeContext(0, 3)
        # g1 -> g2, g2 -> g2^-1 g1 g2: the standard braid generator
        images = ((2,), (-2, 1, 2), (3,))
        inverse_images = ((1, 2, -1), (1,), (3,))
        e = EndoMap(ctx, images, inverse_images)
        rep = validate_peripheral(e)
        assert rep.ok, rep.messages
        assert rep.puncture_map == (2, 1, 3)

    def test_non_peripheral_rejected(self):
        ctx = FreeContext(0, 2)
        # sends g1 to g1 g2, not a conjugate of a single generator
        e = EndoMap(ctx, ((1, 2), (-2,)), None)
        with pytest.raises(ValueError):
            validate_peripheral(e)
        e2 = EndoMap(ctx, ((1, 2), (-2,)), ((1, -2), (-2,)))
        rep = validate_peripheral(e2)
        assert not rep.ok

    def test_equal_maps_hash_equal(self):
        # the hash is kept on the map after its first use, so it must
        # still be the hash of its fields: equal maps built apart, and a
        # map rebuilt from one whose hash was already taken, hash equal
        ctx = FreeContext(0, 3)
        images, inverse_images = ((2,), (-2, 1, 2), (3,)), ((1, 2, -1), (1,), (3,))
        e = EndoMap(ctx, images, inverse_images)
        first = hash(e)
        again = EndoMap(FreeContext(0, 3), tuple(images), tuple(inverse_images))
        assert again == e and hash(again) == hash(e) == first
        assert hash(e.inverse().inverse()) == first
        assert hash(e) == hash((ctx, images, inverse_images))
        assert len({e, again, e.inverse().inverse()}) == 1
        # a map differing only in its stored inverse is another key
        assert EndoMap(ctx, images, None) != e
        assert len({e, EndoMap(ctx, images, None)}) == 2
