"""The one-pass census against a census that materializes its population.

census walks the systems in line order and floods from each one no
flood has reached.  The reference below does not rely on that order:
it holds the whole filtered population, floods from the least system
left, and sorts the records at the end.  Both must give the same JSONL,
total, partial flag and escape message, with and without budgets; a
lambda around is_full_monodromy keeps the census off the by-count path.
"""

import hashlib
import heapq

import pytest

from hurwitz.orbits import CensusResult, _Kernel, _orbit_record, census, compile_moves
from hurwitz.systems import enumerate_systems, is_full_monodromy, serialize


def materialized_census(d, h, w, selector, filter, filter_name, budget=None):
    kernel = _Kernel(d, h, w, compile_moves(d, h, w, selector))
    remaining = {kernel.state(sys) for sys in enumerate_systems(d, h, w, filter)}
    total, orbits = 0, []
    for start in sorted(remaining):
        if start not in remaining:
            continue
        links, _, _ = kernel.flood(start, None if budget is None else budget - total)
        members = links.keys()
        # orbits are disjoint, so a member missing from remaining was
        # never in the filtered population
        orbits.append(_orbit_record(kernel, len(members), heapq.nsmallest(3, members),
                                    members - remaining))
        remaining.difference_update(members)
        total += len(members)
        if budget is not None and total >= budget:
            break
    orbits.sort(key=lambda rec: rec.rep)
    return CensusResult(d, h, w, selector, filter_name, orbits, total, bool(remaining))


def outcome(run, *args, **kwargs):
    try:
        res = run(*args, **kwargs)
    except AssertionError as exc:
        return "escape", str(exc)
    return res.to_jsonl(), res.total, res.partial


def skewed(salt):
    """A filter that is not invariant under the moves: it drops about a
    third of the systems, by a hash of their lines."""
    def keep(sys):
        line = "%s %d" % (serialize(sys), salt)
        return hashlib.sha256(line.encode()).digest()[0] % 3 != 0
    return keep


FILTERS = {"all": None, "full-monodromy": lambda sys: is_full_monodromy(sys)}
CASES = [(2, 1, 4), (2, 2, 2), (3, 0, 4), (3, 1, 2), (3, 1, 4), (4, 0, 4)]
BUDGETS = [None, 0, 1, 7, 50]


@pytest.mark.parametrize("selector", ["braid", "full"])
@pytest.mark.parametrize("d,h,w", CASES)
def test_one_pass_census_matches_the_materialized_census(d, h, w, selector):
    for name, filter in FILTERS.items():
        for budget in BUDGETS:
            args = (d, h, w, selector, filter, name)
            assert (outcome(census, *args, budget=budget)
                    == outcome(materialized_census, *args, budget=budget)), (name, budget)


@pytest.mark.parametrize("salt", range(4))
@pytest.mark.parametrize("d,h,w,selector", [(3, 0, 4, "braid"), (3, 1, 2, "full"),
                                            (2, 2, 2, "full")])
def test_escapes_match_the_materialized_census(d, h, w, selector, salt):
    for budget in (None, 1, 50):
        args = (d, h, w, selector, skewed(salt), "skewed")
        assert (outcome(census, *args, budget=budget)
                == outcome(materialized_census, *args, budget=budget)), budget


@pytest.mark.parametrize("filter", [lambda sys: is_full_monodromy(sys), skewed(0)])
def test_the_filter_sees_each_system_once(filter):
    seen = []

    def counted(sys):
        seen.append(serialize(sys))
        return filter(sys)
    outcome(census, 3, 1, 4, "full", counted, "counted")
    assert len(seen) == len(set(seen))
