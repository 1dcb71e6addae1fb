"""Data model tests: validation, counts against independent formulas,
serialization round trips, enumeration exactness."""

import random

import pytest

from hurwitz import systems as S
from hurwitz.frobenius import frobenius_count
from hurwitz.orbits import _Ranks
from hurwitz.perms import (MAX_DEGREE, all_transpositions, check_perm, format_perm,
                           from_cycles, identity, is_transposition, orbit_blocks,
                           transposition)


def make(d, handles, ts):
    return S.HurwitzSystem(d, tuple(handles), tuple(ts))


class TestValidate:
    def test_trivial_degree_one(self):
        sys = make(1, [], [])
        assert S.validate(sys).ok
        assert S.genus(sys) == 0

    def test_good_sphere_system(self):
        t = transposition(2, 1, 2)
        sys = make(2, [], [t, t, t, t])
        assert S.validate(sys).ok
        assert S.genus(sys) == 1

    def test_relator_violation(self):
        t12 = transposition(3, 1, 2)
        t23 = transposition(3, 2, 3)
        sys = make(3, [], [t12, t12, t12, t23])
        rep = S.validate(sys)
        assert not rep.ok
        assert "relator" in rep.messages[0]

    def test_odd_w_rejected(self):
        # an odd number of transpositions can never multiply to an even
        # permutation, but the parity check should fire regardless
        t = transposition(2, 1, 2)
        sys = make(2, [], [t, t, t])
        rep = S.validate(sys)
        assert not rep.ok

    def test_non_transposition_entry(self):
        sys = make(3, [], [(2, 3, 1), (3, 1, 2)])
        rep = S.validate(sys)
        assert not rep.ok
        assert "transposition" in rep.messages[0]

    def test_degree_mismatch(self):
        sys = make(3, [], [transposition(2, 1, 2)] * 2)
        assert not S.validate(sys).ok

    def test_non_transposition_list_entry(self):
        # a hand-built system may hold lists: the message names the
        # entry as it names a tuple, with no TypeError from a memo
        for entry in ((2, 3, 1), [2, 3, 1]):
            rep = S.validate(make(3, [], [entry, (3, 1, 2)]))
            assert rep.messages == ("t_1 is not a transposition: 2,3,1",)


def validate_oracle(sys):
    """validate with the per-entry checks of every t_j, as it was before
    table transpositions skipped them."""
    msgs = []
    if sys.d < 1:
        msgs.append("degree must be at least 1, got %d" % sys.d)
    if not msgs and len(sys.handles) % 2 != 0:
        msgs.append("handles must come in (a_i, b_i) pairs, got %d entries" % len(sys.handles))
    if not msgs:
        entries = ([("handle", p) for p in sys.handles]
                   + [("transposition", p) for p in sys.transpositions])
        for name, p in entries:
            try:
                check_perm(p)
            except ValueError as exc:
                msgs.append("bad %s entry: %s" % (name, exc))
                break
            if len(p) != sys.d:
                msgs.append("%s entry has degree %d, system has d=%d" % (name, len(p), sys.d))
                break
    if not msgs:
        for j, t in enumerate(sys.transpositions, start=1):
            if not is_transposition(t):
                msgs.append("t_%d is not a transposition: %s" % (j, format_perm(t)))
                break
    if not msgs and sys.w % 2 != 0:
        msgs.append("w must be even, got %d" % sys.w)
    if not msgs and S.relator_product(sys) != identity(sys.d):
        msgs.append("relator product is not the identity")
    return S.SystemReport(not msgs, tuple(msgs))


def malformed(rng, sys):
    """Broken copies of a valid system, one fault (or two) each."""
    d, hs, ts = sys.d, list(sys.handles), list(sys.transpositions)
    j = rng.randrange(len(ts))
    three = tuple(from_cycles(d, [(1, 2, 3)])) if d >= 3 else None
    yield make(d, hs, ts)
    yield make(d, [list(p) for p in hs], [list(t) for t in ts])
    yield make(d, hs, ts[:j] + [list(ts[j])] + ts[j + 1:])
    yield make(d, hs, ts[:j] + [ts[j] + (d + 1,)] + ts[j + 1:])  # wrong degree
    yield make(d, hs, ts[:j] + [(1,) * d] + ts[j + 1:])  # not a permutation
    if hs:
        yield make(d, [hs[0] + (d + 1,)] + hs[1:], ts)
        yield make(d, [(2,) * d] + hs[1:], ts[:j] + [(1,) * d] + ts[j + 1:])
        yield make(d, hs[:-1], ts)  # handles not in pairs
    if three:
        yield make(d, hs, ts[:j] + [three] + ts[j + 1:])
        yield make(d, hs, ts[:j] + [list(three)] + ts[j + 1:])
    yield make(d, hs, ts[:-1])  # odd w
    other = [t for t in all_transpositions(d) if t != ts[j]]
    if other:  # another t_j changes the product
        yield make(d, hs, ts[:j] + [rng.choice(other)] + ts[j + 1:])
    yield make(d, hs, ts + ["2,1" + ",3" * (d > 2)] * 2)  # text entries
    yield make(0, hs, ts)
    yield make(-1, hs, ts)
    yield make(17, hs, ts)
    yield make(17, [], [])  # no entry to check, as before
    yield make(d + 1, hs, ts)
    big = transposition(17, 1, 2)
    yield make(17, [], [big, big])


class TestValidateOracle:
    @pytest.mark.parametrize("d,h,w", [(2, 0, 4), (3, 1, 6), (4, 1, 8), (5, 2, 10), (8, 1, 4)])
    def test_validate_matches_the_oracle_on_broken_systems(self, d, h, w):
        rng = random.Random("validate:%d:%d:%d" % (d, h, w))
        messages = set()
        for _ in range(10):
            for sys in malformed(rng, S.random_system(d, h, w, rng)):
                got = S.validate(sys)
                assert got == validate_oracle(sys), sys
                messages.add(got.messages[:1])
        if d > 2:
            assert ("relator product is not the identity",) in messages
        assert () in messages and len(messages) > 8


class TestGenus:
    def test_formula(self):
        # d (h - 1) + w/2 + 1 on a few hand-checked cases
        assert S.genus(make(2, [], [transposition(2, 1, 2)] * 2)) == 0
        i2 = identity(2)
        assert S.genus(make(2, [i2, i2], [])) == 1
        sys = make(2, [i2, i2], [transposition(2, 1, 2)] * 4)
        assert S.genus(sys) == 3


class TestMonodromy:
    def test_full_vs_not(self):
        t12 = transposition(3, 1, 2)
        t13 = transposition(3, 1, 3)
        assert S.is_full_monodromy(make(3, [], [t12, t13, t13, t12]))
        assert not S.is_full_monodromy(make(3, [], [t12, t12, t12, t12]))

    def test_handles_can_complete_monodromy(self):
        # transpositions alone span only {1,2}, the handle supplies the
        # 3-cycle, so the fast single-block path cannot answer this one
        t12 = transposition(3, 1, 2)
        c3 = (2, 3, 1)
        sys = make(3, [c3, c3], [t12, t12])
        assert S.validate(sys).ok
        assert len(orbit_blocks(sys.handles + sys.transpositions, sys.d)) == 1
        assert S.is_full_monodromy(sys)

    def test_connected_but_not_full(self):
        c3 = (2, 3, 1)
        sys = make(3, [c3, identity(3)], [])
        assert S.validate(sys).ok
        assert len(orbit_blocks(sys.handles + sys.transpositions, sys.d)) == 1
        assert not S.is_full_monodromy(sys)

    def test_three_cycles_are_not_full(self):
        # one orbit but only A_3: the transposition shortcut must not
        # read a non-transposition in the branching slots as one
        c3 = (2, 3, 1)
        sys = make(3, [], [c3, c3, c3])
        assert orbit_blocks(sys.transpositions, sys.d) == [(1, 2, 3)]
        assert not S.is_full_monodromy(sys)

    def test_branching_blocks_window(self):
        t12 = transposition(4, 1, 2)
        t34 = transposition(4, 3, 4)
        sys = make(4, [], [t12, t12, t34, t34])
        assert S.branching_blocks(sys) == [(1, 2), (3, 4)]


class TestSerialization:
    def test_exact_line(self):
        sys = make(3, [(2, 3, 1), (2, 1, 3)],
                   [(2, 1, 3), (1, 3, 2), (1, 3, 2), (2, 1, 3)])
        line = S.serialize(sys)
        assert line == "d=3 h=1 w=4 | t: 2,1,3 ; 1,3,2 ; 1,3,2 ; 2,1,3 | ab: 2,3,1 , 2,1,3"
        assert S.deserialize(line) == sys
        # deserialize checks structure only; this line fails validate
        assert not S.validate(sys).ok

    def test_empty_sections(self):
        sys = make(1, [], [])
        line = S.serialize(sys)
        assert S.deserialize(line) == sys

    def test_round_trip_random(self):
        rng = random.Random(11)
        for _ in range(100):
            sys = S.random_system(4, 1, 6, rng)
            line = S.serialize(sys)
            assert S.deserialize(line) == sys
            # one spelling per system: int() reads each of these first
            # images as the line's own, but the parser does not
            first = line.index("t: ") + 3
            head, x, tail = line[:first], line[first], line[first + 1 :]
            assert tail.startswith(",")
            for spelled in (chr(0xFF10 + int(x)), " " + x, "0_" + x, "+" + x, "0" + x):
                with pytest.raises(S.KeyParseError):
                    S.deserialize(head + spelled + tail)
            for forged in (head + x + ", " + tail[1:], line.replace(" ; ", " ;  ", 1),
                           line.replace("d=4", "d=04", 1), line.replace("w=6", "w=06", 1)):
                with pytest.raises(S.KeyParseError):
                    S.deserialize(forged)

    def test_parse_error_offsets(self):
        with pytest.raises(S.KeyParseError) as ei:
            S.deserialize("q=3 h=0 w=0 | t: - | ab: -")
        assert ei.value.offset == 0
        line = "d=3 h=0 w=2 | t: 2,1,3 ; 9,1,3 | ab: -"
        with pytest.raises(S.KeyParseError) as ei:
            S.deserialize(line)
        assert line[ei.value.offset:].startswith("9,1,3")

    def test_semantic_problems_left_to_validate(self):
        sys = S.deserialize("d=3 h=0 w=2 | t: 2,1,3 ; 1,3,2 | ab: -")
        assert not S.validate(sys).ok

    def test_trailing_garbage(self):
        good = S.serialize(make(2, [], [transposition(2, 1, 2)] * 2))
        with pytest.raises(S.KeyParseError):
            S.deserialize(good + " ")

    def test_degree_cap(self):
        top = "d=%d h=0 w=0 | t: - | ab: -" % MAX_DEGREE
        assert S.validate(S.deserialize(top)).ok
        for d in (MAX_DEGREE + 1, 100000):
            with pytest.raises(S.KeyParseError, match="over the maximum") as ei:
                S.deserialize("d=%d h=0 w=0 | t: - | ab: -" % d)
            assert ei.value.offset == len("d=")

    def test_integer_too_long_for_int(self):
        line = "d=3 h=%s w=0 | t: - | ab: -" % ("9" * 5000)
        with pytest.raises(S.KeyParseError) as ei:
            S.deserialize(line)
        assert ei.value.offset == line.index(" h=") + len(" h=")


class TestCounts:
    # frozen oracle values; the character-sum module cross-checks these
    CASES = {
        (2, 0, 4): 1,
        (3, 0, 4): 27,
        (2, 1, 4): 4,
        (4, 0, 8): 140160,
        (3, 2, 6): 314928,
    }

    def test_count_systems_stops_past_degree_six(self):
        with pytest.raises(ValueError, match="limited to d <= 6"):
            S.count_systems(7, 0, 2)

    def test_count_systems_oracles(self):
        for (d, h, w), n in self.CASES.items():
            assert S.count_systems(d, h, w) == n, (d, h, w)

    def test_enumeration_matches_counts(self):
        for (d, h, w), n in self.CASES.items():
            if n > 10000:
                continue
            lst = list(S.enumerate_systems(d, h, w))
            assert len(lst) == n
            keys = [S.serialize(x) for x in lst]
            assert len(set(keys)) == n  # no duplicates
            for x in lst[:50]:
                assert S.validate(x).ok

    def test_sphere_cubic_census_detail(self):
        lst = list(S.enumerate_systems(3, 0, 4))
        full = [x for x in lst if S.is_full_monodromy(x)]
        disconn = [x for x in lst
                   if len(orbit_blocks(x.handles + x.transpositions, x.d)) != 1]
        assert len(lst) == 27
        assert len(full) == 24
        assert len(disconn) == 3

    def test_odd_w_enumerates_empty(self):
        assert list(S.enumerate_systems(3, 0, 3)) == []

    def test_w_zero_enumerates_handles_only(self):
        for d in (1, 2, 3):
            for h in (0, 1, 2):
                lst = list(S.enumerate_systems(d, h, 0))
                assert len(lst) == S.count_systems(d, h, 0), (d, h)
                assert all(x.w == 0 and x.h == h and S.validate(x).ok for x in lst)
        assert list(S.enumerate_systems(2, 0, 0)) == [make(2, [], [])]
        assert list(S.enumerate_systems(2, 0, 0, filter=lambda x: False)) == []

    @pytest.mark.parametrize("h,w", [(0, -2), (-1, 4), (-1, 0)])
    def test_negative_parameters_raise(self, h, w):
        with pytest.raises(ValueError, match="non-negative"):
            next(iter(S.enumerate_systems(2, h, w)))

    def test_guard_refuses_huge(self):
        with pytest.raises(ValueError, match="guard"):
            next(iter(S.enumerate_systems(8, 2, 20)))

    @pytest.mark.parametrize("d,h,w", [(3, 2, 2), (2, 3, 2), (3, 2, 0), (10, 0, 2), (2, 0, 0),
                                       (1, 2, 0)])
    def test_enumeration_is_in_line_order(self, d, h, w):
        # line order is the order of the kernel's rank tuples: text order
        # entry by entry, where at d = 10 "10," sorts before "2,"
        rank = _Ranks(d).rank
        states = [tuple(map(rank.__getitem__, x.transpositions + x.handles))
                  for x in S.enumerate_systems(d, h, w)]
        assert len(states) == (45 if d == 10 else S.count_systems(d, h, w))
        assert all(a < b for a, b in zip(states, states[1:]))

    def test_sphere_enumeration_builds_no_commutator_table(self, monkeypatch):
        def refuse(d):
            raise AssertionError("commutator table built")
        monkeypatch.setattr(S, "_commutator_pairs", refuse)
        assert len(list(S.enumerate_systems(10, 0, 2))) == 45

    def test_guard_estimate_covers_the_count(self):
        # an estimate below the count lets too large an enumeration start
        for d in range(1, 9):
            for h in range(3):
                for w in range(0, 9, 2):
                    assert S._estimate_count(d, h, w) >= frobenius_count(d, h, w), (d, h, w)


@pytest.mark.parametrize("d", range(2, 9))
@pytest.mark.parametrize("h", range(4))
def test_constructed_seed_is_a_full_monodromy_system(d, h):
    # constructed for every even w from 2 (h >= 1) or 2(d-1) (h = 0) on
    covered = 2 if h else 2 * (d - 1)
    for w in range(0, covered + 7):
        seed = S.full_monodromy_seed(d, h, w)
        if w % 2 or w < covered:
            assert seed is None, w
            continue
        assert (seed.d, seed.h, seed.w) == (d, h, w)
        assert S.validate(seed).ok and S.is_full_monodromy(seed), w


def test_no_seed_is_constructed_at_degree_one():
    assert S.full_monodromy_seed(1, 0, 0) is None and S.full_monodromy_seed(1, 1, 2) is None


class TestRandom:
    @pytest.mark.parametrize("w", [0, 3])
    def test_needs_even_positive_w(self, w):
        with pytest.raises(ValueError, match="need even w >= 2 to sample"):
            S.random_system(3, 1, w, random.Random(1))

    def test_valid_and_seed_stable(self):
        a = S.random_system(4, 1, 8, random.Random(3))
        b = S.random_system(4, 1, 8, random.Random(3))
        assert a == b
        assert S.validate(a).ok

    def test_filter_condition(self):
        rng = random.Random(5)
        for _ in range(20):
            sys = S.random_system(3, 0, 6, rng, filter=S.is_full_monodromy)
            assert S.is_full_monodromy(sys)
