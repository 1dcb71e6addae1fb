"""The full-monodromy census by count against the enumerating census.

census proves that the full-monodromy systems form one orbit by a flood
that reaches frobenius.full_monodromy_count of them, without
enumerating the population.  Both the count and that path are checked
here against the enumeration they replace: a filter that is not
is_full_monodromy itself (a lambda around it) forces the enumerating
census.
"""

import re

import pytest

from hurwitz import orbits
from hurwitz.frobenius import frobenius_count, full_monodromy_count, transitive_count
from hurwitz.orbits import census
from hurwitz.perms import orbit_blocks
from hurwitz.systems import enumerate_systems, is_full_monodromy

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
    res = census(4, 0, 6, "braid", is_full_monodromy, "full-monodromy")
    assert len(draws) == 1
    assert (len(res.orbits), res.total, res.partial) == (1, 2880, False)


def test_escape_check_fires_on_the_by_count_path(monkeypatch, draws):
    members = list(enumerate_systems(3, 0, 4, is_full_monodromy))
    rejected = members[-1]

    def all_but_one(sys):
        return sys != rejected and is_full_monodromy(sys)
    monkeypatch.setattr(orbits, "is_full_monodromy", all_but_one)
    message = "orbit escaped the filter at %s" % orbits.serialize(rejected)
    with pytest.raises(AssertionError, match="^%s$" % re.escape(message)):
        census(3, 0, 4, "full", all_but_one, "full-monodromy")
    assert len(draws) == 1


def test_a_flood_past_the_count_is_an_error(monkeypatch):
    monkeypatch.setattr(orbits, "full_monodromy_count", lambda d, h, w: 23)
    with pytest.raises(AssertionError, match="more than the 23 full-monodromy systems"):
        census(3, 0, 4, "full", is_full_monodromy, "full-monodromy")
