"""The full-monodromy census by count against the enumerating census.

census proves that the full-monodromy systems form one orbit by a flood
that reaches frobenius.full_monodromy_count of them, without
enumerating the population; at d >= 3 it floods conjugacy classes and
counts the orbit as classes * |H|.  The count, that path and the
quotient flood are checked here against the enumeration and the plain
flood they replace: a filter that is not is_full_monodromy itself (a
lambda around it) forces the enumerating census.
"""

import re
from functools import reduce
from itertools import permutations
from math import factorial

import pytest

from hurwitz import moves, orbits
from hurwitz.frobenius import frobenius_count, full_monodromy_count, transitive_count
from hurwitz.moves import parse_move
from hurwitz.orbits import _Kernel, census, compile_moves
from hurwitz.perms import conjugate, group_order, orbit_blocks
from hurwitz.systems import (HurwitzSystem, enumerate_systems, full_monodromy_seed,
                             is_full_monodromy)

CASES = [(d, h, w) for d in (1, 2, 3, 4) for h in (0, 1, 2) for w in range(0, 9, 2)
         if frobenius_count(d, h, w) <= 10_000]
COUNTED = [case for case in CASES if full_monodromy_count(*case) is not None]


def census_pair(d, h, w, selector, budget=None):
    by_count = census(d, h, w, selector, is_full_monodromy, "full-monodromy", budget=budget)
    enumerated = census(d, h, w, selector, lambda s: is_full_monodromy(s), "full-monodromy",
                        budget=budget)
    return by_count, enumerated


def assert_same(a, b):
    assert a.to_jsonl() == b.to_jsonl()
    assert (a.total, a.partial) == (b.total, b.partial)


@pytest.mark.parametrize("d,h,w", CASES)
def test_counts_match_enumeration(d, h, w):
    systems = list(enumerate_systems(d, h, w))
    transitive = sum(1 for s in systems if len(orbit_blocks(s.handles + s.transpositions, d)) == 1)
    full = sum(1 for s in systems if is_full_monodromy(s))
    assert transitive_count(d, h, w) == transitive
    count = full_monodromy_count(d, h, w)
    # unproven exactly where a transitive group need not be S_d: d = 4
    # with handles, and handles with no transposition at prime d
    assert (count is None) == (h >= 1 and (d == 4 or (d == 3 and w == 0)))
    assert count in (None, full)


def test_unproven_cases():
    assert full_monodromy_count(4, 1, 4) is None
    assert full_monodromy_count(3, 1, 0) is None
    # transitive but not S_d: the systems inside the three copies of D_4
    assert transitive_count(4, 1, 2) - 3 * 96 == 1152


@pytest.mark.parametrize("selector", ["braid", "full"])
@pytest.mark.parametrize("d,h,w", COUNTED)
def test_by_count_census_matches_enumeration(d, h, w, selector):
    assert_same(*census_pair(d, h, w, selector))


@pytest.mark.parametrize("d,h,w,selector", [(3, 0, 6, "braid"), (3, 1, 4, "full"),
                                            (2, 1, 4, "full"), (2, 1, 4, "braid")])
def test_budgets_around_the_count(d, h, w, selector):
    n = full_monodromy_count(d, h, w)
    for budget in (n - 1, n, n + 1):
        by_count, enumerated = census_pair(d, h, w, selector, budget)
        assert_same(by_count, enumerated)
        # partial means some system was never reached, whatever the budget
        assert by_count.partial == (by_count.total < n)
        assert not by_count.partial or budget < n


def test_several_orbits_fall_back_to_enumeration():
    # braids never change the handles, so the four tori are four orbits
    res = census(2, 1, 4, "braid", is_full_monodromy, "full-monodromy")
    assert [rec.size for rec in res.orbits] == [1, 1, 1, 1]


@pytest.mark.parametrize("selector", ["braid", "full"])
@pytest.mark.parametrize("d,h,w", [case for case in COUNTED if case[0] >= 3])
def test_classes_cover_the_full_monodromy_systems(d, h, w, selector):
    kernel = _Kernel(d, h, w, compile_moves(d, h, w, selector))
    full = {kernel.state(sys) for sys in enumerate_systems(d, h, w, is_full_monodromy)}
    reached = set()
    # braids alone leave several orbits at h >= 1: flood until all are met
    while full - reached:
        seed = min(full - reached)
        orbit = kernel.flood(seed)[0]
        voltages, _, cut = kernel.flood_classes(seed)
        assert not cut
        for key, u in voltages.items():
            conjugates = kernel.conjugates(key)
            # a class key is its least conjugate, S_d acts freely, and
            # the voltage conjugates the key into the orbit
            assert key == min(conjugates) and len(conjugates) == factorial(d)
            assert tuple(map(kernel.ranks.row[u].__getitem__, key)) in orbit
            reached |= conjugates
    assert reached == full


@pytest.mark.parametrize("selector", ["braid", "full"])
@pytest.mark.parametrize("d,h,w", [(3, 1, 4), (3, 0, 4), (3, 1, 6), (4, 0, 6)])
def test_classes_times_stabiliser_is_the_orbit(d, h, w, selector):
    # the full-monodromy cases of tests/test_kernel.py's census pins,
    # from the least member of every orbit
    kernel = _Kernel(d, h, w, compile_moves(d, h, w, selector))
    remaining = {kernel.state(sys) for sys in enumerate_systems(d, h, w, is_full_monodromy)}
    orders = set()
    while remaining:
        start = min(remaining)
        orbit = kernel.flood(start)[0]
        voltages, discrepancies, cut = kernel.flood_classes(start)
        # each discrepancy maps the orbit to itself
        assert all(tuple(map(kernel.ranks.row[u].__getitem__, start)) in orbit
                   for u in discrepancies)
        order = group_order([kernel.ranks.perm[u] for u in discrepancies], d)
        assert not cut and len(voltages) * order == len(orbit)
        orders.add(order)
        remaining.difference_update(orbit)
    if (h, selector) == (1, "braid"):
        # braids never change the handles, so the orbits split classes:
        # stabilisers are proper subgroups
        assert min(orders) < factorial(d)


@pytest.fixture
def draws(monkeypatch):
    """Count the systems census takes from enumerate_systems."""
    drawn = []

    def counted(*args, **kwargs):
        for sys in enumerate_systems(*args, **kwargs):
            drawn.append(sys)
            yield sys
    monkeypatch.setattr(orbits, "enumerate_systems", counted)
    return drawn


def test_by_count_draws_one_system(draws):
    # the seed is constructed, so nothing is drawn
    res = census(4, 0, 6, "braid", is_full_monodromy, "full-monodromy")
    assert len(draws) == 0
    assert (len(res.orbits), res.total, res.partial) == (1, 2880, False)


@pytest.mark.parametrize("d,h,w,selector", [(3, 1, 6, "full"), (4, 0, 6, "braid")])
def test_by_count_census_draws_nothing(draws, d, h, w, selector):
    res = census(d, h, w, selector, is_full_monodromy, "full-monodromy")
    assert draws == []
    assert (len(res.orbits), res.total) == (1, full_monodromy_count(d, h, w))


def test_the_enumeration_guard_runs_before_the_by_count_flood(monkeypatch):
    # (5,1,10) has a count and a constructed seed, but 2,402,343,995,760
    # systems: the guard refuses it before any move is certified
    def refuse(*args):
        raise AssertionError("moves compiled")
    monkeypatch.setattr(orbits, "compile_moves", refuse)
    with pytest.raises(ValueError, match="^enumeration would exceed the guard of 1000000000 "
                                         "systems$"):
        census(5, 1, 10, "full", is_full_monodromy, "full-monodromy", budget=10**13)


def test_each_move_token_is_parsed_once_per_census(monkeypatch):
    parsed = []

    def counted(token):
        parsed.append(token)
        return parse_move(token)
    monkeypatch.setattr(orbits, "parse_move", counted)
    monkeypatch.setattr(moves, "parse_move", counted)
    census(4, 0, 6, "braid", is_full_monodromy, "full-monodromy")
    assert sorted(parsed) == sorted(mv.token for mv in compile_moves(4, 0, 6, "braid"))
    assert len(parsed) == 10


def conjugates(sys):
    return {HurwitzSystem(sys.d, tuple(conjugate(p, u) for p in sys.handles),
                          tuple(conjugate(t, u) for t in sys.transpositions))
            for u in permutations(range(1, sys.d + 1))}


def test_escape_check_fires_on_the_by_count_path(monkeypatch, draws):
    # the by-count path checks one system per conjugacy class, which is
    # sound because full monodromy is conjugation-invariant; a broken
    # filter is therefore modelled as rejecting a whole class
    members = list(enumerate_systems(3, 0, 4, is_full_monodromy))
    rejected = conjugates(members[-1])

    def all_but_one_class(sys):
        return sys not in rejected and is_full_monodromy(sys)
    monkeypatch.setattr(orbits, "is_full_monodromy", all_but_one_class)
    message = "orbit escaped the filter at %s" % min(map(orbits.serialize, rejected))
    with pytest.raises(AssertionError, match="^%s$" % re.escape(message)):
        census(3, 0, 4, "full", all_but_one_class, "full-monodromy")
    assert len(draws) == 0


def test_escape_check_calls_the_filter_once_per_entry_set(monkeypatch):
    checked = []

    def counted(sys):
        checked.append(sys)
        return is_full_monodromy(sys)
    monkeypatch.setattr(orbits, "is_full_monodromy", counted)
    # the first draw uses the uncounted filter, and the count is taken
    # before _orbit_record checks its representative
    monkeypatch.setattr(orbits, "enumerate_systems",
                        lambda d, h, w, f: enumerate_systems(d, h, w, is_full_monodromy))
    record, at_record = orbits._orbit_record, []

    def recorded(*args):
        at_record.append(len(checked))
        return record(*args)
    monkeypatch.setattr(orbits, "_orbit_record", recorded)
    res = census(3, 1, 6, "full", counted, "full-monodromy")
    assert (len(res.orbits), res.total) == (1, full_monodromy_count(3, 1, 6))
    kernel = _Kernel(3, 1, 6, compile_moves(3, 1, 6, "full"))
    seed = next(enumerate_systems(3, 1, 6, is_full_monodromy))
    classes = kernel.flood_classes(kernel.state(seed))[0]
    sets = {frozenset(st) for st in classes}
    assert len(classes) > len(sets) == 17
    assert at_record == [len(sets)]
    assert {frozenset(map(kernel.ranks.rank.__getitem__, sys.transpositions + sys.handles))
            for sys in checked[: len(sets)]} == sets


def test_a_filter_rejecting_one_entry_set_escapes(monkeypatch, draws):
    # a filter that depends only on the set of entries, as full monodromy
    # does, rejecting the conjugates of one set that several classes share
    kernel = _Kernel(3, 1, 6, compile_moves(3, 1, 6, "full"))
    seed = next(enumerate_systems(3, 1, 6, is_full_monodromy))
    classes = list(kernel.flood_classes(kernel.state(seed))[0])
    entries = [frozenset(st) for st in classes]
    shared = next(s for s in entries if entries.count(s) > 1)
    perms = [kernel.ranks.perm[x] for x in shared]
    rejected = {frozenset(conjugate(p, u) for p in perms)
                for u in permutations(range(1, 4))}

    def all_but_one_set(sys):
        return (frozenset(sys.handles + sys.transpositions) not in rejected
                and is_full_monodromy(sys))
    monkeypatch.setattr(orbits, "is_full_monodromy", all_but_one_set)
    escaped = [sys for sys in enumerate_systems(3, 1, 6, is_full_monodromy)
               if not all_but_one_set(sys)]
    message = "orbit escaped the filter at %s" % min(map(orbits.serialize, escaped))
    with pytest.raises(AssertionError, match="^%s$" % re.escape(message)):
        census(3, 1, 6, "full", all_but_one_set, "full-monodromy")
    assert len(draws) == 0


def test_the_escape_check_does_not_depend_on_flood_order(monkeypatch):
    # reject the class of the least key among several with one entry set,
    # where the flood meets another class of that set first: each set
    # is decided on its least key, so reversing the moves, which reorders
    # the flood, changes neither the escape nor what the filter sees
    kernel = _Kernel(3, 1, 6, compile_moves(3, 1, 6, "full"))
    seed = next(enumerate_systems(3, 1, 6, is_full_monodromy))
    met = list(kernel.flood_classes(kernel.state(seed))[0])
    first, least_of = {}, {}
    for st in met:
        first.setdefault(frozenset(st), st)
    for st in sorted(met):
        least_of.setdefault(frozenset(st), st)
    least = min(st for entries, st in least_of.items() if first[entries] != st)
    rejected = {kernel.system(st) for st in kernel.conjugates(least)}
    seen = []

    def all_but_one_class(sys):
        seen.append(sys)
        return sys not in rejected and is_full_monodromy(sys)
    monkeypatch.setattr(orbits, "is_full_monodromy", all_but_one_class)
    message = "orbit escaped the filter at %s" % kernel.key(least)
    runs = []
    for moves in (compile_moves, lambda *args: compile_moves(*args)[::-1]):
        monkeypatch.setattr(orbits, "compile_moves", moves)
        reordered = _Kernel(3, 1, 6, moves(3, 1, 6, "full"))
        runs.append(list(reordered.flood_classes(reordered.state(seed))[0]))
        with pytest.raises(AssertionError, match="^%s$" % re.escape(message)):
            census(3, 1, 6, "full", all_but_one_class, "full-monodromy")
        runs.append(seen[:])
        seen.clear()
    flood, calls, reversed_flood, reversed_calls = runs
    assert flood != reversed_flood and sorted(flood) == sorted(reversed_flood)
    # after the draw of the seed, each set is decided on its least key
    assert calls == reversed_calls
    assert calls[-len(first):] == [kernel.system(st) for st in sorted(least_of.values())]


@pytest.mark.parametrize("d,h,w,selector", [(4, 1, 2, "full"), (4, 1, 2, "braid"),
                                            (3, 1, 0, "full"), (2, 2, 4, "full")])
def test_enumerating_census_calls_the_filter_once_per_entry_set(monkeypatch, d, h, w, selector):
    expected = census(d, h, w, selector, lambda sys: is_full_monodromy(sys), "full-monodromy")
    checked = []

    def counted(sys):
        checked.append(frozenset(sys.transpositions + sys.handles))
        return is_full_monodromy(sys)
    monkeypatch.setattr(orbits, "is_full_monodromy", counted)
    record = orbits._orbit_record

    def uncounted(*args):
        # _orbit_record checks its representative, outside the filter
        mark = len(checked)
        rec = record(*args)
        del checked[mark:]
        return rec
    monkeypatch.setattr(orbits, "_orbit_record", uncounted)
    res = census(d, h, w, selector, counted, "full-monodromy")
    assert_same(res, expected)
    sets = {frozenset(sys.transpositions + sys.handles) for sys in enumerate_systems(d, h, w)}
    assert len(checked) == len(set(checked)) == len(sets)


def test_a_flood_past_the_count_is_an_error(monkeypatch):
    monkeypatch.setattr(orbits, "full_monodromy_count", lambda d, h, w: 23)
    with pytest.raises(AssertionError, match="more than the 23 full-monodromy systems"):
        census(3, 0, 4, "full", is_full_monodromy, "full-monodromy")


@pytest.mark.parametrize("d,h,w", [(3, 0, 6), (3, 1, 4), (4, 0, 6)])
def test_canonical_is_the_least_conjugate(d, h, w):
    # every state, full monodromy or not: the key is the least conjugate
    # and the returned u takes the state to it
    kernel = _Kernel(d, h, w, compile_moves(d, h, w, "full"))
    row = kernel.ranks.row
    for sys in enumerate_systems(d, h, w):
        st = kernel.state(sys)
        key, v = kernel.canonical(st)
        assert key == min(kernel.conjugates(st))
        assert tuple(map(row[v].__getitem__, st)) == key


@pytest.mark.parametrize("d,h,w", [(4, 0, 4), (3, 1, 2)])
def test_canonical_breaks_ties_by_element_order(d, h, w):
    # narrowing entry by entry against trying every conjugator: the key
    # is the least conjugate and u the first in elements() order giving
    # it, also where the centralizer is nontrivial and ties survive
    # every entry
    kernel = _Kernel(d, h, w, compile_moves(d, h, w, "full"))
    row = kernel.ranks.row
    tied = 0
    for sys in enumerate_systems(d, h, w):
        st = kernel.state(sys)
        images = [(tuple(map(row[u].__getitem__, st)), u) for u in kernel.ranks.elements()]
        key = min(kernel.conjugates(st))
        givers = [u for image, u in images if image == key]
        assert kernel.canonical(st) == (key, givers[0])
        tied += len(givers) > 1
    assert tied


@pytest.mark.parametrize("d,h,w,selector", [(3, 1, 6, "full"), (3, 1, 4, "braid"),
                                            (4, 0, 6, "braid"), (4, 1, 2, "full")])
def test_class_flood_applies_b1_and_the_rotation_once_per_class(d, h, w, selector):
    # at w >= 4 the braid steps are B1 and the rotation R, in one pass,
    # then the forward pushes; each class is canonicalized once per step
    kernel = _Kernel(d, h, w, compile_moves(d, h, w, selector))
    steps = kernel.class_steps()
    pushes = [move for move in kernel.moves if move.kind == "push" and not move.inverse]
    assert len(steps) == min(w - 1, 2) + len(pushes)
    step_of = dict(kernel.steps)
    calls = [0] * len(steps)

    def counted(k, step):
        def step_and_count(st):
            calls[k] += 1
            return step(st)
        return step_and_count
    kernel.class_steps = lambda: [counted(k, step) for k, step in enumerate(steps)]
    canonical, keyed = kernel.canonical, []

    def canonical_and_count(st):
        keyed.append(st)
        return canonical(st)
    kernel.canonical = canonical_and_count
    seed = next(enumerate_systems(d, h, w, is_full_monodromy))
    classes = kernel.flood_classes(kernel.state(seed))[0]
    assert calls == [len(classes)] * len(steps)
    assert len(keyed) == len(classes) * len(steps) + 1
    # the first step is B1 and, at w >= 4, the second is R
    for st in classes:
        assert steps[0](st) == step_of["B1"](st)
        if w >= 4:
            assert steps[1](st) == reduce(lambda s, j: step_of["B%d" % j](s), range(1, w), st)


@pytest.mark.parametrize("d,h,w,selector,built", [
    (3, 1, 6, "full", ["B1", "Pa1", "Pb1"]), (4, 0, 6, "braid", ["B1"]),
    (3, 1, 2, "full", ["B1", "Pa1", "Pb1"])])
def test_by_count_census_builds_only_the_class_steps(monkeypatch, d, h, w, selector, built):
    # the steps of every move, inverses included, are built only when a
    # search expands; the class flood builds B1 and the forward pushes
    # (the rotation reads the braids' programs, not their steps)
    steps, real = [], _Kernel._step
    monkeypatch.setattr(_Kernel, "_step", lambda self, move: steps.append(move.token())
                        or real(self, move))
    result = census(d, h, w, selector, is_full_monodromy, "full-monodromy")
    assert len(result.orbits) == 1 and steps == built
    kernel = _Kernel(d, h, w, compile_moves(d, h, w, selector))
    steps.clear()
    assert [token for token, _ in kernel.steps] == [mv.token for mv in compile_moves(
        d, h, w, selector)] == steps


@pytest.mark.parametrize("d,h,w", [(3, 0, 6), (3, 1, 4), (4, 0, 4), (3, 1, 6)])
def test_the_rotation_conjugates_each_braid_to_the_one_before(d, h, w):
    # R(B_{i+1}(s)) == B_i(R(s)), so B_{i+1} = R^-1 B_i R: the class flood
    # reaches with B1 and R what it reaches with every braid
    kernel = _Kernel(d, h, w, compile_moves(d, h, w, "braid"))
    b1, rotation = kernel.class_steps()
    braids = [step for token, step in kernel.steps if "'" not in token]
    assert len(braids) == w - 1
    for sys in enumerate_systems(d, h, w):
        st = kernel.state(sys)
        assert b1(st) == braids[0](st)
        assert rotation(st) == reduce(lambda s, step: step(s), braids, st)
        for i in range(w - 2):
            assert rotation(braids[i + 1](st)) == braids[i](rotation(st))


def all_moves_class_flood(kernel, start):
    """The class flood over every move, forward and inverse, with each
    key found by trying all of S_d: (class keys, |H|)."""
    ranks = kernel.ranks
    n, inv, mul, row = ranks.n, ranks.inv, ranks.mul, ranks.row

    def canonical(st):
        return min((tuple(map(row[u].__getitem__, st)), u) for u in ranks.elements())
    key, v = canonical(start)
    voltages, discrepancies, level = {key: inv[v]}, set(), [key]
    while level:
        found = []
        for c in level:
            for _, step in kernel.steps:
                key, v = canonical(step(c))
                x = mul[inv[v] * n + voltages[c]]
                if key not in voltages:
                    voltages[key] = x
                    found.append(key)
                elif voltages[key] != x:
                    discrepancies.add(mul[inv[voltages[key]] * n + x])
        level = found
    return set(voltages), group_order([ranks.perm[u] for u in discrepancies], kernel.d)


@pytest.mark.parametrize("selector", ["braid", "full"])
@pytest.mark.parametrize("d,h,w", [case for case in COUNTED if case[0] >= 3])
def test_forward_class_flood_matches_the_all_moves_flood(d, h, w, selector):
    # S_d acts freely on full-monodromy systems at d >= 3, so the classes
    # and H do not depend on which voltage a flood finds first; braids
    # alone leave several orbits at h >= 1, so every orbit is compared
    kernel = _Kernel(d, h, w, compile_moves(d, h, w, selector))
    remaining = {kernel.state(sys) for sys in enumerate_systems(d, h, w, is_full_monodromy)}
    while remaining:
        start = min(remaining)
        voltages, discrepancies, cut = kernel.flood_classes(start)
        order = group_order([kernel.ranks.perm[u] for u in discrepancies], d)
        assert not cut
        assert (set(voltages), order) == all_moves_class_flood(kernel, start)
        for key in voltages:
            remaining -= kernel.conjugates(key)


def reference_flood_classes(kernel, start, limit=None):
    """_Kernel.flood_classes with every product taken on every edge: a
    voltage even on an identity step, and a discrepancy on every edge
    that meets one."""
    n, inv, mul = kernel.ranks.n, kernel.ranks.inv, kernel.ranks.mul
    steps, canonical = kernel.class_steps(), kernel.canonical
    key, v = canonical(start)
    voltages = {key: inv[v]}
    discrepancies = set()
    level = [key]
    while level:
        if limit is not None and len(voltages) > limit:
            return voltages, discrepancies, True
        found = []
        for c in level:
            u = voltages[c]
            for step in steps:
                key, v = canonical(step(c))
                x = mul[inv[v] * n + u]
                known = voltages.get(key)
                if known is None:
                    voltages[key] = x
                    found.append(key)
                elif known != x:
                    discrepancies.add(mul[inv[known] * n + x])
        level = found
    return voltages, discrepancies, False


@pytest.mark.parametrize("selector", ["braid", "full"])
@pytest.mark.parametrize("d,h,w", [case for case in COUNTED if case[0] >= 3])
def test_class_flood_matches_the_reference_flood(d, h, w, selector):
    # the same voltages in the same insertion order, discrepancies and
    # cut, from the least system and the constructed seed, run to the
    # end and cut after one class or one level short of the count
    kernel = _Kernel(d, h, w, compile_moves(d, h, w, selector))
    starts = [kernel.state(sys) for sys in (next(enumerate_systems(d, h, w)),
                                            full_monodromy_seed(d, h, w)) if sys is not None]
    # a class flood needs states of two entries or more
    for start in (st for st in starts if len(st) >= 2):
        for limit in (None, 1, full_monodromy_count(d, h, w) // factorial(d) - 1):
            voltages, discrepancies, cut = kernel.flood_classes(start, limit)
            expected, expected_discrepancies, expected_cut = reference_flood_classes(
                kernel, start, limit)
            assert list(voltages.items()) == list(expected.items())
            assert (discrepancies, cut) == (expected_discrepancies, expected_cut)
