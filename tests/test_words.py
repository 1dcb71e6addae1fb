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


def braid_map(h, w, j, inverse_fix=None):
    """The braid moving g_j past g_{j+1} at (h, w), with its stored
    inverse; inverse_fix replaces the inverse image of one generator."""
    ctx = FreeContext(h, w)
    x, y = ctx.g(j), ctx.g(j + 1)
    images = [(k,) for k in range(1, ctx.rank + 1)]
    inverse_images = list(images)
    images[x - 1], images[y - 1] = (y,), (-y, x, y)
    inverse_images[x - 1], inverse_images[y - 1] = (x, y, -x), (x,)
    if inverse_fix is not None:
        k, word = inverse_fix
        inverse_images[k - 1] = word
    return EndoMap(ctx, tuple(images), tuple(inverse_images))


class TestCertifyingMovedGenerators:
    """validate_peripheral works only on the generators a map moves in
    its inverse and puncture checks; the rest pass as they are."""

    @pytest.mark.parametrize("k,word", [(4, (4,)), (3, (4,)), (6, (5,))])
    def test_a_wrong_stored_inverse_is_rejected(self, k, word):
        # generators 3 and 4 are the ones the braid moves; 6 is moved by
        # the broken inverse alone
        e = braid_map(0, 6, 3, inverse_fix=(k, word))
        rep = validate_peripheral(e)
        assert not rep.ok and "e^-1" in rep.messages[0]
        assert validate_peripheral(braid_map(0, 6, 3)).ok

    def test_a_moved_puncture_off_the_punctures_is_rejected(self):
        # g2 -> g2 g3 is an automorphism, but g2's image is no conjugate
        # of a puncture generator
        ctx = FreeContext(1, 5)
        g2, g3 = ctx.g(2), ctx.g(3)
        images = [(k,) for k in range(1, ctx.rank + 1)]
        inverse_images = list(images)
        images[g2 - 1], inverse_images[g2 - 1] = (g2, g3), (g2, -g3)
        rep = validate_peripheral(EndoMap(ctx, tuple(images), tuple(inverse_images)))
        assert rep.messages == ("image of g2 is not a conjugate of a puncture generator",)

    def test_inverse_check_work_does_not_grow_with_w(self, monkeypatch):
        calls = []
        apply = EndoMap.apply

        def counted(self, word):
            calls.append(word)
            return apply(self, word)
        monkeypatch.setattr(EndoMap, "apply", counted)
        per_braid = set()
        for h, w in [(0, 3), (1, 30), (0, 300)]:
            for j in (1, w // 2, w - 1):
                calls.clear()
                rep = validate_peripheral(braid_map(h, w, j))
                assert rep.ok and rep.puncture_map[j - 1 : j + 1] == (j + 1, j)
                per_braid.add(len(calls))
        # two moved generators, each checked both ways, and the relator
        assert per_braid == {5}
