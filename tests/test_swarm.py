import json
import re

import numpy as np
import pytest

from prunekit import swarm as swarm_module
from prunekit.archspec import tiny4
from prunekit.errors import BoundsError, PruneKitError, TrainingDiverged
from prunekit.nncore import TrainConfig
from prunekit.swarm import (
    Particle,
    ProxyFitnessEvaluator,
    SwarmConfig,
    evaluated_structure,
    inertia,
    init_population,
    search,
    update_position,
    update_velocity,
)
from prunekit.util import derive_seed


class FnEvaluator:
    """Adapter turning a plain function over structure tuples into an evaluator."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = []

    def evaluate(self, structure):
        key = tuple(structure)
        self.calls.append(key)
        return self.fn(key)


def quadratic_well(target):
    return FnEvaluator(lambda s: -sum((c - t) ** 2 for c, t in zip(s, target)))


class StubRng:
    """Replays preset draws so update equations can be checked by hand."""

    def __init__(self, integer_draws=(), uniform_draws=(), random_draws=()):
        self._integers = list(integer_draws)
        self._uniforms = list(uniform_draws)
        self._randoms = list(random_draws)

    def integers(self, low, high, size):
        return np.asarray(self._integers.pop(0), dtype=np.int64)

    def uniform(self, low, high, size):
        return np.asarray(self._uniforms.pop(0), dtype=np.float64)

    def random(self, size):
        return np.asarray(self._randoms.pop(0), dtype=np.float64)


class TestConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(BoundsError):
            SwarmConfig(particles=0)
        with pytest.raises(BoundsError):
            SwarmConfig(iterations=0)
        with pytest.raises(BoundsError):
            SwarmConfig(v_max=0.0)
        with pytest.raises(BoundsError):
            SwarmConfig(w_ini=0.3, w_snd=0.4)
        with pytest.raises(BoundsError):
            SwarmConfig(proxy_epochs=0)


class TestInertia:
    def test_endpoints(self):
        cfg = SwarmConfig(iterations=30)
        assert inertia(0, cfg) == cfg.w_ini
        assert inertia(30, cfg) == cfg.w_snd

    def test_midpoint_exact(self):
        cfg = SwarmConfig(iterations=10, w_ini=0.9, w_snd=0.4)
        assert abs(inertia(5, cfg) - 0.65) < 1e-12

    def test_linear_everywhere(self):
        cfg = SwarmConfig(iterations=50, w_ini=0.9, w_snd=0.4)
        for t in range(51):
            want = (0.9 - 0.4) * (50 - t) / 50 + 0.4
            assert abs(inertia(t, cfg) - want) < 1e-12

    def test_out_of_range_rejected(self):
        cfg = SwarmConfig(iterations=10)
        with pytest.raises(BoundsError):
            inertia(11, cfg)
        with pytest.raises(BoundsError):
            inertia(-1, cfg)


class TestEvaluatedStructure:
    def test_rounds_half_away_then_clamps(self):
        out = evaluated_structure(np.array([2.5, -0.7, 99.2, 7.5]), (10, 10, 20, 7))
        assert tuple(out) == (3, 1, 20, 7)

    def test_floor_is_one(self):
        out = evaluated_structure(np.array([-3.0, 0.49]), (5, 5))
        assert tuple(out) == (1, 1)


class TestInitPopulation:
    def test_single_particle_zero_delta_sits_on_coarse(self):
        rng = StubRng(integer_draws=[[0, 0, 0]], uniform_draws=[[0.0, 0.0, 0.0]])
        evaluator = quadratic_well((5, 5, 5))
        cfg = SwarmConfig(particles=1, iterations=1, seed=0)
        state = init_population((4, 6, 2), (8, 8, 8), cfg, rng=rng)
        swarm_module._score(state, 0, (8, 8, 8), evaluator, cfg)
        np.testing.assert_array_equal(state.particles[0].position, [4.0, 6.0, 2.0])
        assert state.gbest == (4, 6, 2)

    def test_offsets_scale_with_particle_index_and_clamp(self):
        # all deltas -1: particle i lands at max(coarse - i, 1)
        rng = StubRng(integer_draws=[[-1]] * 3,
                      uniform_draws=[[0.0]] * 3)
        cfg = SwarmConfig(particles=3, iterations=1, seed=0)
        state = init_population((2,), (9,), cfg, rng=rng)
        got = [float(p.position[0]) for p in state.particles]
        assert got == [1.0, 1.0, 1.0]

    def test_upper_clamp_at_original_width(self):
        rng = StubRng(integer_draws=[[1]] * 4, uniform_draws=[[0.0]] * 4)
        cfg = SwarmConfig(particles=4, iterations=1, seed=0)
        state = init_population((3,), (5,), cfg, rng=rng)
        got = [float(p.position[0]) for p in state.particles]
        assert got == [4.0, 5.0, 5.0, 5.0]

    def test_coarse_wider_than_bounds_rejected(self):
        with pytest.raises(BoundsError):
            init_population((6, 2), (5, 5), SwarmConfig(seed=0))

    def test_non_integer_coarse_width_rejected(self):
        # archspec's width rule, not a truncation to 8
        with pytest.raises(BoundsError, match="width 8.5 of slot 0"):
            init_population((8.5, 2), (9, 9), SwarmConfig(seed=0))

    def test_every_particle_gets_a_pbest(self):
        evaluator = quadratic_well((4, 4))
        cfg = SwarmConfig(particles=5, iterations=2, seed=3)
        state = init_population((4, 4), (8, 8), cfg)
        swarm_module._score(state, 0, (8, 8), evaluator, cfg)
        for p in state.particles:
            assert p.pbest_fitness == evaluator.fn(p.pbest)
        best = max(p.pbest_fitness for p in state.particles)
        assert state.gbest_fitness == best

    def test_first_index_wins_fitness_ties(self):
        evaluator = FnEvaluator(lambda s: 1.0)  # constant landscape
        cfg = SwarmConfig(particles=4, iterations=1, seed=7)
        state = init_population((3, 3), (6, 6), cfg)
        trace = swarm_module._score(state, 0, (6, 6), evaluator, cfg)
        assert state.gbest == state.particles[0].pbest
        gbest_marks = [r["particle"] for r in trace if r["is_gbest"]]
        assert gbest_marks == [0]


class TestNonFiniteFitness:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize("call,iteration,particle", [(0, 0, 0), (7, 2, 1)])
    def test_is_an_error_naming_iteration_and_particle(self, bad, call, iteration, particle):
        calls = []

        def fitness(structure):
            calls.append(structure)
            return bad if len(calls) == call + 1 else 1.0
        with pytest.raises(PruneKitError, match=(
                rf"fitness {bad} at iteration {iteration}, particle {particle} is not finite")):
            search((3, 3), (6, 6), FnEvaluator(fitness),
                   SwarmConfig(particles=3, iterations=3, seed=0))


class TestUpdateEquations:
    def _particle(self, pos, vel, pbest, fit=0.0):
        return Particle(np.asarray(pos, dtype=np.float64),
                        np.asarray(vel, dtype=np.float64),
                        tuple(pbest), fit)

    def test_zero_rands_and_unit_inertia_keep_velocity(self):
        cfg = SwarmConfig(iterations=10, w_ini=1.0, w_snd=1.0, v_max=5.0)
        p = self._particle([3.0, 3.0], [1.25, -0.5], (7, 7))
        rng = StubRng(random_draws=[[0.0, 0.0], [0.0, 0.0]])
        v = update_velocity(p, (9, 9), 4, cfg, rng)
        np.testing.assert_array_equal(v, [1.25, -0.5])

    def test_full_pull_hits_clamp(self):
        # v=0, both pulls 2 * 1 * 4 = 8, sum 16, clamped to v_max=5
        cfg = SwarmConfig(iterations=10, v_max=5.0, alpha1=2.0, alpha2=2.0,
                          w_ini=1.0, w_snd=1.0)
        p = self._particle([1.0], [0.0], (5,))
        rng = StubRng(random_draws=[[1.0], [1.0]])
        v = update_velocity(p, (5,), 1, cfg, rng)
        np.testing.assert_array_equal(v, [5.0])

    def test_pull_directions_oppose_when_bests_straddle(self):
        cfg = SwarmConfig(iterations=10, v_max=50.0, w_ini=1.0, w_snd=1.0)
        p = self._particle([10.0], [0.0], (6,))
        rng = StubRng(random_draws=[[1.0], [1.0]])
        # pbest pulls -8, gbest pulls +8: exact cancellation
        v = update_velocity(p, (14,), 1, cfg, rng)
        np.testing.assert_array_equal(v, [0.0])

    def test_position_step_scales_by_learning_rate(self):
        cfg = SwarmConfig(learning_rate=2.0)
        p = self._particle([10.0], [1.5], (10,))
        pos = update_position(p, cfg)
        np.testing.assert_array_equal(pos, [13.0])

    def test_position_fixed_when_velocity_zero(self):
        cfg = SwarmConfig()
        p = self._particle([4.0, 2.0], [0.0, 0.0], (4, 2))
        pos = update_position(p, cfg)
        np.testing.assert_array_equal(pos, [4.0, 2.0])

    def test_optimum_is_a_fixed_point(self):
        # at pbest == gbest == position with zero velocity nothing moves,
        # whatever the random draws are
        cfg = SwarmConfig(iterations=5, v_max=4.0)
        p = self._particle([6.0, 3.0], [0.0, 0.0], (6, 3), fit=0.0)
        rng = np.random.default_rng(0)
        for t in range(1, 6):
            update_velocity(p, (6, 3), t, cfg, rng)
            update_position(p, cfg)
        np.testing.assert_array_equal(p.position, [6.0, 3.0])
        np.testing.assert_array_equal(p.velocity, [0.0, 0.0])

    def test_ballistic_motion_without_pulls(self):
        # zero rands and w=1 leave velocity constant, so the position
        # advances by learning_rate * v0 each step
        cfg = SwarmConfig(iterations=10, w_ini=1.0, w_snd=1.0,
                          learning_rate=2.0, v_max=10.0)
        v0 = np.array([0.75, -1.5])
        p = self._particle([5.0, 5.0], v0.copy(), (5, 5))
        rng = StubRng(random_draws=[[0.0, 0.0]] * 6)
        for step in range(1, 4):
            update_velocity(p, (5, 5), 1, cfg, rng)
            update_position(p, cfg)
            np.testing.assert_allclose(p.position, 5.0 + 2.0 * step * v0)


class TestSearch:
    def test_gbest_monotone_and_velocity_bounded(self):
        target = (12, 26, 15)
        evaluator = quadratic_well(target)
        cfg = SwarmConfig(particles=8, iterations=20, v_max=2.0, seed=5)
        result = search((20, 20, 20), (40, 40, 40), evaluator, cfg)
        fits = [h[1] for h in result.history]
        assert fits == sorted(fits)
        assert result.best_fitness == fits[-1]

    def test_evaluated_structures_stay_in_bounds(self):
        evaluator = quadratic_well((2, 30))
        cfg = SwarmConfig(particles=6, iterations=15, seed=9)
        result = search((16, 16), (32, 32), evaluator, cfg)
        for s in evaluator.calls:
            assert all(1 <= c <= b for c, b in zip(s, (32, 32)))
        for rec in result.trace:
            assert all(1 <= c <= b for c, b in zip(rec["structure"], (32, 32)))

    def test_recovers_target_on_easy_landscape(self):
        target = (12, 19, 5)
        evaluator = quadratic_well(target)
        cfg = SwarmConfig(particles=10, iterations=30, v_max=2.0, seed=1)
        result = search((15, 15, 15), (30, 30, 30), evaluator, cfg)
        for got, want in zip(result.best, target):
            assert abs(got - want) <= 1

    def test_constant_landscape_keeps_init_winner(self):
        evaluator = FnEvaluator(lambda s: 0.5)
        cfg = SwarmConfig(particles=5, iterations=8, seed=2)
        result = search((10, 10), (20, 20), evaluator, cfg)
        init_records = [r for r in result.trace if r["iteration"] == 0]
        winner = [r for r in init_records if r["is_gbest"]]
        assert len(winner) == 1
        assert tuple(result.best) == tuple(winner[0]["structure"])
        # strict-improvement rule: nothing after init can claim best
        later = [r for r in result.trace if r["iteration"] > 0]
        assert not any(r["is_pbest"] or r["is_gbest"] for r in later)

    def test_trace_record_schema(self):
        evaluator = quadratic_well((4, 4))
        cfg = SwarmConfig(particles=3, iterations=2, seed=4)
        result = search((4, 4), (8, 8), evaluator, cfg)
        assert len(result.trace) == 3 * (2 + 1)
        for rec in result.trace:
            assert set(rec) == {"iteration", "particle", "structure",
                                "fitness", "is_pbest", "is_gbest"}
            assert isinstance(rec["structure"], list)
            assert all(isinstance(c, int) for c in rec["structure"])
        assert all(r["is_pbest"] for r in result.trace if r["iteration"] == 0)

    def test_history_mean_matches_trace(self):
        evaluator = quadratic_well((6, 9))
        cfg = SwarmConfig(particles=4, iterations=3, seed=8)
        result = search((8, 8), (16, 16), evaluator, cfg)
        for t, _, mean_fit in result.history:
            fits = [r["fitness"] for r in result.trace if r["iteration"] == t]
            assert mean_fit == pytest.approx(np.mean(fits))

    def test_matches_hand_replay_of_rng_stream(self):
        """Re-derives every position from a fresh RNG with the same seed."""
        target = (7, 13)
        coarse, bounds = (10, 10), (20, 20)
        cfg = SwarmConfig(particles=4, iterations=6, v_max=3.0, seed=21)
        evaluator = quadratic_well(target)
        result = search(coarse, bounds, evaluator, cfg)

        def fitness(s):
            return -sum((c - t) ** 2 for c, t in zip(s, target))

        def as_struct(pos):
            ints = np.floor(np.abs(pos) + 0.5) * np.sign(pos)
            return tuple(int(v) for v in np.clip(ints, 1, bounds))

        rng = np.random.default_rng(derive_seed(21, "swarm"))
        L = 2
        positions = []
        for i in range(1, cfg.particles + 1):
            delta = rng.integers(-1, 2, size=L)
            positions.append(np.clip(np.array(coarse) + i * delta, 1, bounds).astype(float))
        velocities = [rng.uniform(-cfg.v_max, cfg.v_max, size=L)
                      for _ in range(cfg.particles)]
        pbests = [as_struct(p) for p in positions]
        pfits = [fitness(s) for s in pbests]
        g_idx = int(np.argmax(pfits))
        gbest, gfit = pbests[g_idx], pfits[g_idx]

        replay = []
        for t in range(1, cfg.iterations + 1):
            w = (cfg.w_ini - cfg.w_snd) * (cfg.iterations - t) / cfg.iterations + cfg.w_snd
            frozen_gbest = gbest
            for i in range(cfg.particles):
                r1 = rng.random(L)
                r2 = rng.random(L)
                v = (w * velocities[i]
                     + cfg.alpha1 * r1 * (np.array(pbests[i]) - positions[i])
                     + cfg.alpha2 * r2 * (np.array(frozen_gbest) - positions[i]))
                velocities[i] = np.clip(v, -cfg.v_max, cfg.v_max)
                positions[i] = positions[i] + cfg.learning_rate * velocities[i]
                s = as_struct(positions[i])
                f = fitness(s)
                replay.append((t, i, s, f))
                if f > pfits[i]:
                    pbests[i], pfits[i] = s, f
            for i in range(cfg.particles):
                if pfits[i] > gfit:
                    gbest, gfit = pbests[i], pfits[i]

        got = [(r["iteration"], r["particle"], tuple(r["structure"]), r["fitness"])
               for r in result.trace if r["iteration"] > 0]
        assert got == replay
        assert tuple(result.best) == gbest
        assert result.best_fitness == gfit

    def test_bitwise_deterministic(self):
        evaluator_a = quadratic_well((5, 11, 3))
        evaluator_b = quadratic_well((5, 11, 3))
        cfg = SwarmConfig(particles=6, iterations=10, seed=13)
        a = search((8, 8, 8), (16, 16, 16), evaluator_a, cfg)
        b = search((8, 8, 8), (16, 16, 16), evaluator_b, cfg)
        assert json.dumps(a.trace) == json.dumps(b.trace)
        assert a.history == b.history
        assert tuple(a.best) == tuple(b.best)

    def test_resume_reproduces_uninterrupted_run(self, tmp_path):
        # crash mid-iteration, then resume with the same config: the result
        # and the accumulated trace must match an uninterrupted run exactly
        target = (6, 14)
        coarse, bounds = (10, 10), (20, 20)
        cfg = SwarmConfig(particles=5, iterations=8, seed=17)

        full = search(coarse, bounds, quadratic_well(target), cfg,
                      state_path=str(tmp_path / "full_state.json"),
                      trace_path=str(tmp_path / "full_trace.jsonl"))

        class DiesAt:
            def __init__(self, fatal_call):
                self.fatal_call = fatal_call
                self.count = 0

            def evaluate(self, structure):
                self.count += 1
                if self.count == self.fatal_call:
                    raise ValueError("synthetic breakage")
                return -sum((c - t) ** 2 for c, t in zip(structure, target))

        state = tmp_path / "part_state.json"
        trace = tmp_path / "part_trace.jsonl"
        # init consumes 5 evals; die inside iteration 4
        with pytest.raises(PruneKitError):
            search(coarse, bounds, DiesAt(23), cfg,
                   state_path=str(state), trace_path=str(trace))
        resumed = search(coarse, bounds, quadratic_well(target), cfg,
                         state_path=str(state), trace_path=str(trace))

        assert tuple(resumed.best) == tuple(full.best)
        assert resumed.best_fitness == full.best_fitness
        assert resumed.history == full.history
        assert resumed.trace == full.trace
        assert (tmp_path / "part_trace.jsonl").read_bytes() == \
            (tmp_path / "full_trace.jsonl").read_bytes()

    def interrupted_then_resumed(self, tmp_path, monkeypatch, attr, fails):
        """Run a search whose ``swarm.<attr>`` raises on the call for which
        ``fails(args)`` holds, resume it, and return the trace bytes of the
        resumed run and of an uninterrupted one."""
        target = (6, 14)
        coarse, bounds = (10, 10), (20, 20)
        cfg = SwarmConfig(particles=5, iterations=6, seed=23)
        search(coarse, bounds, quadratic_well(target), cfg,
               state_path=str(tmp_path / "full_state.json"),
               trace_path=str(tmp_path / "full_trace.jsonl"))
        state, trace = str(tmp_path / "state.json"), str(tmp_path / "trace.jsonl")
        original = getattr(swarm_module, attr)

        def faulty(*args):
            if fails(args):
                raise OSError("synthetic crash")
            return original(*args)
        monkeypatch.setattr(swarm_module, attr, faulty)
        with pytest.raises(OSError, match="synthetic crash"):
            search(coarse, bounds, quadratic_well(target), cfg,
                   state_path=state, trace_path=trace)
        monkeypatch.setattr(swarm_module, attr, original)
        search(coarse, bounds, quadratic_well(target), cfg,
               state_path=state, trace_path=trace)
        return (tmp_path / "trace.jsonl").read_bytes(), \
            (tmp_path / "full_trace.jsonl").read_bytes()

    @pytest.mark.parametrize("iteration", [0, 3, 6])
    def test_crash_at_state_write_resumes_exact_trace(self, tmp_path, monkeypatch, iteration):
        # the iteration's lines are already in the trace; resume reruns it
        resumed, full = self.interrupted_then_resumed(
            tmp_path, monkeypatch, "write_text_atomic",
            lambda args: json.loads(args[1])["iteration"] == iteration)
        assert resumed == full

    @pytest.mark.parametrize("iteration", [0, 3, 6])
    def test_crash_at_trace_append_resumes_exact_trace(self, tmp_path, monkeypatch, iteration):
        resumed, full = self.interrupted_then_resumed(
            tmp_path, monkeypatch, "_append_trace",
            lambda args: args[1][0]["iteration"] == iteration)
        assert resumed == full

    def test_torn_trace_line_is_cut_on_resume(self, tmp_path, monkeypatch):
        def torn(args):
            # the crash leaves half of iteration 2's first line behind
            if args[1][0]["iteration"] != 2:
                return False
            with open(args[0], "a") as fh:
                fh.write(json.dumps(args[1][0])[:20])
            return True
        resumed, full = self.interrupted_then_resumed(
            tmp_path, monkeypatch, "_append_trace", torn)
        assert resumed == full

    def test_resume_asks_only_for_structures_the_old_lines_lack(self, tmp_path):
        """After the old lines, a structure one of them scored is answered
        from the replay and not evaluated again."""
        coarse, bounds = (10, 10), (20, 20)
        cfg = SwarmConfig(particles=5, iterations=8, seed=17)
        trace = tmp_path / "trace.jsonl"
        full = search(coarse, bounds, quadratic_well((6, 14)), cfg, trace_path=str(trace))
        lines = trace.read_text().splitlines(keepends=True)
        trace.write_text("".join(lines[:12]))
        old = {tuple(r["structure"]) for r in full.trace[:12]}
        tail = [tuple(r["structure"]) for r in full.trace[12:]]
        assert old & set(tail)
        evaluator = quadratic_well((6, 14))
        search(coarse, bounds, evaluator, cfg, trace_path=str(trace))
        assert evaluator.calls == [s for s in tail if s not in old]
        assert trace.read_text() == "".join(lines)

    @pytest.mark.parametrize("case,bad_line", [
        ("repeated line", 8), ("swapped lines", 7), ("line of another search", 7),
        ("flag changed", 7), ("extra line", 21), ("not JSON", 2), ("not a record", 1)])
    def test_trace_that_does_not_match_is_an_error(self, tmp_path, case, bad_line):
        """A resumed trace must be this search's own: the search stops at the
        first line that is not the record it makes there, naming the file and
        the line, and evaluates nothing."""
        coarse, bounds = (10, 10), (20, 20)
        cfg = SwarmConfig(particles=5, iterations=3, seed=31)
        trace = tmp_path / "trace.jsonl"
        search(coarse, bounds, quadratic_well((6, 14)), cfg, trace_path=str(trace))
        lines = trace.read_text().splitlines(keepends=True)
        other = search((4, 16), bounds, quadratic_well((6, 14)), cfg).trace[6]
        assert other["structure"] != json.loads(lines[6])["structure"]
        flipped = {**json.loads(lines[6]), "is_pbest": not json.loads(lines[6])["is_pbest"]}
        bad = {"repeated line": lines[:7] + [lines[6]] + lines[7:],
               "swapped lines": lines[:6] + [lines[7], lines[6]] + lines[8:],
               "line of another search": lines[:6] + [json.dumps(other) + "\n"] + lines[7:],
               "flag changed": lines[:6] + [json.dumps(flipped) + "\n"] + lines[7:],
               "extra line": lines + [lines[-1]],
               "not JSON": lines[:1] + ["garbage\n"] + lines[2:],
               "not a record": ["[1, 2]\n"] + lines[1:]}[case]
        trace.write_text("".join(bad))
        evaluator = quadratic_well((6, 14))
        with pytest.raises(PruneKitError, match=rf"resumed {re.escape(str(trace))} line {bad_line} "):
            search(coarse, bounds, evaluator, cfg, trace_path=str(trace))
        assert evaluator.calls == []
        assert trace.read_text() == "".join(bad)

    def test_failure_names_iteration_and_particle(self):
        class Sabotaged:
            def __init__(self, error=ValueError("synthetic breakage")):
                self.count = 0
                self.error = error
                self.structure = None

            def evaluate(self, structure):
                self.count += 1
                if self.count == 9:  # init takes 4 evals, dies mid iteration 2
                    self.structure = list(structure)
                    raise self.error
                return 0.0

        cfg = SwarmConfig(particles=4, iterations=5, seed=3)
        with pytest.raises(PruneKitError, match=r"iteration 2.*particle 0"):
            search((5, 5), (10, 10), Sabotaged(), cfg)
        # a PruneKitError from the evaluator is named the same way
        diverged = Sabotaged(TrainingDiverged(0, 2, float("nan")))
        with pytest.raises(PruneKitError) as err:
            search((5, 5), (10, 10), diverged, cfg)
        assert str(err.value) == (
            f"fitness evaluation failed at iteration 2, particle 0 "
            f"(structure {diverged.structure}): non-finite loss nan at epoch 0, batch 2")


@pytest.fixture(scope="module")
def proxy_evaluator(blob_sets):
    train_set, test_set = blob_sets
    template = tiny4(num_classes=train_set.num_classes)
    return ProxyFitnessEvaluator(
        template, train_set.images, train_set.labels,
        test_set.images, test_set.labels,
        TrainConfig(epochs=1, seed=derive_seed(0, "proxy")))


class TestProxyFitness:
    def test_deterministic_across_instances(self, blob_sets):
        train_set, test_set = blob_sets
        template = tiny4(num_classes=train_set.num_classes)
        structure = (4, 8, 8, 16)
        values = []
        for _ in range(2):
            ev = ProxyFitnessEvaluator(
                template, train_set.images, train_set.labels,
                test_set.images, test_set.labels,
                TrainConfig(epochs=1, seed=derive_seed(0, "proxy")))
            values.append(ev.evaluate(structure))
        assert values[0] == values[1]

    def test_cache_returns_identical_value(self, proxy_evaluator):
        structure = (4, 8, 8, 16)
        first = proxy_evaluator.evaluate(structure)
        second = proxy_evaluator.evaluate(structure)
        assert first == second

    def test_order_independence(self, blob_sets):
        # fitness of a structure does not depend on what was evaluated before
        train_set, test_set = blob_sets
        template = tiny4(num_classes=train_set.num_classes)

        def fresh():
            return ProxyFitnessEvaluator(
                template, train_set.images, train_set.labels,
                test_set.images, test_set.labels,
                TrainConfig(epochs=1, seed=derive_seed(0, "proxy")))

        a, b = (4, 8, 8, 16), (6, 12, 12, 24)
        ev1, ev2 = fresh(), fresh()
        fit_a_first = ev1.evaluate(a)
        ev2.evaluate(b)
        fit_a_second = ev2.evaluate(a)
        assert fit_a_first == fit_a_second

    def test_non_integer_width_trains_nothing(self, proxy_evaluator, monkeypatch):
        trained, cached = [], dict(proxy_evaluator.cache)
        monkeypatch.setattr(swarm_module.nncore, "train",
                            lambda *args, **kwargs: trained.append(args))
        with pytest.raises(BoundsError, match="of slot 0 "):
            proxy_evaluator.evaluate((8.5, 16, 16, 32))
        assert trained == [] and proxy_evaluator.cache == cached

    def test_beats_chance_floor(self, proxy_evaluator, blob_sets):
        train_set, _ = blob_sets
        fitness = proxy_evaluator.evaluate((8, 16, 16, 32))
        chance = 1.0 / train_set.num_classes
        assert fitness >= chance - 0.05
        assert 0.0 <= fitness <= 1.0
