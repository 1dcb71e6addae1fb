"""Orbit engine: flood determinism, censuses against known values,
predecessor logs, and bidirectional pathfinding."""

import os
import random
import tempfile

import pytest

from hurwitz.moves import apply_word
from hurwitz.orbits import (BudgetError, census, compile_moves, connect,
                            orbit_bfs, read_predecessor_log,
                            write_predecessor_log)
from hurwitz.perms import identity, transposition
from hurwitz.systems import (HurwitzSystem, deserialize, enumerate_systems,
                             is_full_monodromy, random_system, serialize)


def sphere_seed():
    t12, t23 = transposition(3, 1, 2), transposition(3, 2, 3)
    return HurwitzSystem(3, (), (t12, t12, t23, t23))


def torus_seed(a=None, b=None):
    t = transposition(2, 1, 2)
    e = identity(2)
    return HurwitzSystem(2, (a or e, b or e), (t, t, t, t))


class TestCompile:
    def test_selectors(self):
        braids = compile_moves(3, 2, 6, "braid")
        full = compile_moves(3, 2, 6, "full")
        assert len(braids) == 10  # 5 positions, 2 directions
        assert len(full) == 18  # plus 2 handles x 2 sides x 2 directions
        assert all(m.token.startswith("B") for m in braids)
        with pytest.raises(ValueError):
            compile_moves(3, 1, 4, "macro")

    def test_compiled_matches_checked_moves(self):
        rng = random.Random(1)
        for _ in range(40):
            hs = random_system(3, 1, 6, rng)
            for mv in compile_moves(3, 1, 6, "full"):
                assert mv.apply(hs) == apply_word(hs, mv.token)

    def test_inverse_tokens_paired(self):
        for mv in compile_moves(2, 1, 4, "full"):
            assert (mv.inverse_token.rstrip("'") == mv.token.rstrip("'"))
            assert (mv.inverse_token.endswith("'")) != (mv.token.endswith("'"))


class TestBfs:
    def test_braid_orbit_of_sphere_seed(self):
        res = orbit_bfs(sphere_seed(), compile_moves(3, 0, 4, "braid"))
        assert res.size == 24
        assert not res.partial

    def test_torus_orbits(self):
        braid_only = orbit_bfs(torus_seed(), compile_moves(2, 1, 4, "braid"))
        assert braid_only.size == 1
        full = orbit_bfs(torus_seed(), compile_moves(2, 1, 4, "full"))
        assert full.size == 4

    def test_words_replay(self):
        seed = sphere_seed()
        res = orbit_bfs(seed, compile_moves(3, 0, 4, "braid"))
        for key in sorted(res.predecessors)[::5]:
            assert serialize(apply_word(seed, res.word_to(key))) == key

    def test_reruns_are_identical(self):
        seed = sphere_seed()
        base = orbit_bfs(seed, compile_moves(3, 0, 4, "braid"))
        for _ in range(3):
            other = orbit_bfs(seed, compile_moves(3, 0, 4, "braid"))
            assert other.predecessors == base.predecessors
            assert other.levels == base.levels

    def test_budget_partial(self):
        res = orbit_bfs(sphere_seed(), compile_moves(3, 0, 4, "braid"), budget=5)
        assert res.partial
        assert res.size <= 24

    def test_log_round_trip(self):
        res = orbit_bfs(torus_seed(), compile_moves(2, 1, 4, "full"))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "orbit.predlog")
            write_predecessor_log(path, res)
            back = read_predecessor_log(path)
            assert back.seed == res.seed
            assert back.predecessors == res.predecessors


class TestCensus:
    def test_sphere_braid_census(self):
        res = census(3, 0, 4, "braid")
        sizes = sorted(rec.size for rec in res.orbits)
        assert sizes == [1, 1, 1, 24]
        assert res.total == 27
        full = [rec for rec in res.orbits if rec.full_monodromy]
        assert len(full) == 1 and full[0].size == 24

    def test_filters(self):
        res = census(3, 0, 4, "braid", is_full_monodromy, "full-monodromy")
        assert [rec.size for rec in res.orbits] == [24]
        res = census(3, 0, 4, "braid",
                     lambda s: not is_full_monodromy(s), "intransitive")
        assert sorted(rec.size for rec in res.orbits) == [1, 1, 1]

    def test_torus_full_census(self):
        res = census(2, 1, 4, "full", is_full_monodromy, "full-monodromy")
        assert [rec.size for rec in res.orbits] == [4]
        assert res.orbits[0].blocks == ((1, 2),)

    def test_orbit_sizes_sum_to_population(self):
        res = census(3, 1, 4, "full")
        assert sum(rec.size for rec in res.orbits) == res.total == 972

    def test_jsonl_reruns_are_byte_identical(self):
        texts = {census(3, 0, 4, "braid").to_jsonl() for _ in range(3)}
        assert len(texts) == 1

    def test_reps_are_least_members_in_order(self):
        res = census(3, 0, 4, "braid")
        reps = [rec.rep for rec in res.orbits]
        assert reps == sorted(reps)
        for rec in res.orbits:
            assert all(rec.rep <= s for s in rec.samples)


class TestConnect:
    def test_identity_query(self):
        hs = torus_seed()
        cert = connect(hs, hs)
        assert cert is not None and cert.moves == ""

    def test_push_word_between_torus_systems(self):
        t = transposition(2, 1, 2)
        cert = connect(torus_seed(), torus_seed(t, t))
        assert cert is not None
        assert cert.moves
        assert all(tok.startswith("P") for tok in cert.moves.split())
        assert serialize(cert.replay()) == cert.end

    def test_braid_only_disconnection_is_proved(self):
        t = transposition(2, 1, 2)
        assert connect(torus_seed(), torus_seed(t, t), "braid") is None

    def test_budget_error(self):
        t = transposition(2, 1, 2)
        with pytest.raises(BudgetError):
            connect(torus_seed(), torus_seed(t, t), budget=1)

    def test_parameter_mismatch(self):
        with pytest.raises(ValueError):
            connect(torus_seed(), sphere_seed())

    def test_random_queries_replay(self):
        rng = random.Random(2)
        pool = [hs for hs in enumerate_systems(3, 0, 4) if is_full_monodromy(hs)]
        for _ in range(15):
            src = pool[rng.randrange(len(pool))]
            dst = pool[rng.randrange(len(pool))]
            cert = connect(src, dst, "braid")
            assert cert is not None
            end = apply_word(src, cert.moves)
            assert end == dst
