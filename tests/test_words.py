"""Free group words, endomorphisms, and peripheral certification."""

import random

import pytest

from hurwitz.catalog import Schemas, braid_endo, get_schemas, push_endo
from hurwitz.words import (EndoMap, FreeContext, PeripheralReport, commutator_word,
                           concat, conjugate_parts, cyclic_reduce, identity_endo,
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


def validate_peripheral_oracle(e):
    """validate_peripheral as it was when it collected its fault in a
    message list behind guards instead of returning at the first one."""
    ctx = e.ctx
    if e.inverse_images is None:
        raise ValueError("endomorphism carries no stored inverse")
    f = e.inverse()
    msgs = []
    for k in range(1, ctx.rank + 1):
        if e.images[k - 1] == f.images[k - 1] == (k,):
            continue
        if e.apply(f.image(k)) != (k,):
            msgs.append("e(e^-1(%s)) != %s" % (ctx.name(k), ctx.name(k)))
            break
        if f.apply(e.image(k)) != (k,):
            msgs.append("e^-1(e(%s)) != %s" % (ctx.name(k), ctx.name(k)))
            break
    pi = []
    if not msgs:
        for j in range(1, ctx.w + 1):
            k = ctx.g(j)
            if e.images[k - 1] == (k,):
                pi.append(j)
                continue
            core = cyclic_reduce(e.image(k))
            if len(core) != 1 or core[0] <= 2 * ctx.h:
                msgs.append("image of g%d is not a conjugate of a puncture generator" % j)
                break
            pi.append(core[0] - 2 * ctx.h)
        if not msgs and sorted(pi) != list(range(1, ctx.w + 1)):
            msgs.append("puncture assignment %r is not a bijection" % (pi,))
    if not msgs:
        r = relator(ctx)
        if not is_conjugate(e.apply(r), r):
            if is_conjugate(e.apply(r), invert_word(r)):
                msgs.append("relator maps to a conjugate of its inverse (orientation reversed)")
            else:
                msgs.append("relator image is not conjugate to the relator")
    if msgs:
        return PeripheralReport(False, tuple(msgs), None)
    return PeripheralReport(True, (), tuple(pi))


def catalog_instances(h_max, w_max):
    """Every braid and push the catalog makes at h <= h_max, w <= w_max."""
    for h in range(h_max + 1):
        for w in range(w_max + 1):
            ctx = FreeContext(h, w)
            yield from (braid_endo(ctx, j) for j in range(1, w))
            if w:
                yield from (push_endo(ctx, i, side)
                            for i in range(1, h + 1) for side in ("a", "b"))


def tampered(section, letter, word):
    sections = {name: dict(entries) for name, entries in get_schemas().sections.items()}
    sections[section][letter] = word
    return Schemas(sections)


def tampered_maps():
    """The catalog tampering tests' maps: each breaks one schema word."""
    s = get_schemas()
    yield push_endo(FreeContext(2, 2), 2, "a",
                    tampered("push_a", "g", s.entry("push_a", "g")[:-1]))
    yield push_endo(FreeContext(1, 2), 1, "b",
                    tampered("push_b^-1", "a", s.entry("push_b^-1", "a")[:-1]))
    transvection = tampered("push_a", "b", s.entry("push_a", "b") + (("a", 1),))
    transvection.sections["push_a^-1"]["b"] = (s.entry("push_a^-1", "b")[:-1]
                                               + (("b", 1), ("a", -1)))
    for h, w in [(1, 2), (2, 4)]:
        yield push_endo(FreeContext(h, w), 1, "a", transvection)
    yield braid_endo(FreeContext(0, 3), 1, tampered("braid", "x", (("x", 1),)))


def with_images(e, changes, inverse_changes):
    """e with the given generator -> word images replaced."""
    images, inverse = list(e.images), list(e.inverse_images)
    for k, word in changes.items():
        images[k - 1] = word
    for k, word in inverse_changes.items():
        inverse[k - 1] = word
    return EndoMap(e.ctx, tuple(images), tuple(inverse))


def faulty_maps(rng):
    """(check, map) pairs: seeded maps, each failing the named check of
    validate_peripheral.  The bijection check has no family: once the
    inverse check passes, the map is an automorphism, whose action on
    the abelianization is invertible, so no two punctures go to
    conjugates of one puncture."""
    h, w = rng.randrange(3), rng.randrange(2, 7)
    ctx = FreeContext(h, w)
    # a stored inverse wrong at the first generator the braid moves
    j = rng.randrange(1, w)
    e = braid_endo(ctx, j)
    k = ctx.g(j)
    word = e.inverse_images[k - 1]
    while word == e.inverse_images[k - 1]:
        word = reduce_word(rand_word(rng, ctx.rank, rng.randrange(1, 5)))
    yield "e(e^-1(", with_images(e, {}, {k: word})
    # a stored inverse that is only a right inverse: e kills m, and the
    # inverse sends k < m to k m^+-1
    k, m = sorted(rng.sample(range(1, ctx.rank + 1), 2))
    m = rng.choice((m, -m))
    yield "e^-1(e(", with_images(identity_endo(ctx), {abs(m): ()},
                                 {k: rng.choice(((k, m), (m, k)))})
    # an automorphism moving a puncture off the punctures
    g = ctx.g(rng.randrange(1, w + 1))
    x = rng.choice([y for y in range(1, ctx.rank + 1) if y != g])
    x = rng.choice((x, -x))
    yield "image of g", with_images(identity_endo(ctx), {g: (g, x)}, {g: (g, -x)})
    yield "image of g", with_images(identity_endo(ctx), {g: (-g,)}, {g: (-g,)})
    # a puncture swap that is no rotation of the relator
    if w >= 3:
        j = rng.randrange(1, w)
        x, y = ctx.g(j), ctx.g(j + 1)
        swap = {x: (y,), y: (x,)}
        yield "relator image", with_images(identity_endo(ctx), swap, swap)
    # a handle transvection by another handle's loop or a puncture
    if h:
        i = rng.randrange(1, h + 1)
        a = ctx.a(i)
        x = rng.choice([y for y in range(1, ctx.rank + 1) if y not in (a, ctx.b(i))])
        x = rng.choice((x, -x))
        yield "relator image", with_images(identity_endo(ctx), {a: (a, x)}, {a: (a, -x)})
    # at w = 0 the handles reversed and each pair swapped: R -> R^-1
    hh = rng.randrange(1, 4)
    bare = FreeContext(hh, 0)
    flip = {bare.a(i): (bare.b(hh + 1 - i),) for i in range(1, hh + 1)}
    flip.update({bare.b(i): (bare.a(hh + 1 - i),) for i in range(1, hh + 1)})
    yield "relator maps to a conjugate of its inverse", with_images(
        identity_endo(bare), flip, {v[0]: (k,) for k, v in flip.items()})


class TestValidatePeripheralOracle:
    """validate_peripheral returns at its first fault; its reports equal
    those of the message-list version it replaced."""

    def test_catalog_instances_both_directions(self):
        count = 0
        for e in catalog_instances(2, 6):
            for f in (e, e.inverse()):
                got = validate_peripheral(f)
                assert got == validate_peripheral_oracle(f), f
                assert got.ok
                count += 1
        assert count == 2 * (3 * 15 + 2 * 6 + 4 * 6)

    def test_tampered_maps(self):
        reports = []
        for e in tampered_maps():
            got = validate_peripheral(e)
            assert got == validate_peripheral_oracle(e), e
            reports.append(got)
        # the transvections are peripheral; catalog certification stops them
        assert [r.ok for r in reports] == [False, False, True, True, False]

    def test_seeded_faults_each_fail_their_check(self):
        rng = random.Random("validate_peripheral")
        checks = set()
        for _ in range(40):
            for check, e in faulty_maps(rng):
                got = validate_peripheral(e)
                assert got == validate_peripheral_oracle(e), e
                assert not got.ok and got.messages[0].startswith(check), (check, got)
                checks.add(check)
        assert len(checks) == 5
