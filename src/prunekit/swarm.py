"""Particle-swarm refinement of a coarse channel-count vector.

Particles are candidate width vectors over the prunable layers. Positions are
real-valued internally; a structure is rounded (half away from zero) and
clamped to [1, original] only when handed to the fitness evaluator. The
evaluator is any callable object with ``evaluate(structure) -> float``; the
bundled one trains the candidate from fresh weights for a few epochs and
scores it by its best test accuracy.
"""
from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import archspec, nncore
from .errors import BoundsError, PruneKitError
from .util import derive_seed, round_half_away, write_text_atomic


@dataclass(frozen=True)
class SwarmConfig:
    """Search hyperparameters. Every particle of an iteration moves toward the
    gbest the iteration starts with: a new gbest is seen from the next one on."""

    particles: int = 20
    iterations: int = 30
    v_max: float = 4.0
    alpha1: float = 2.0
    alpha2: float = 2.0
    learning_rate: float = 2.0
    w_ini: float = 0.9
    w_snd: float = 0.4
    proxy_epochs: int = 2
    seed: int | None = None  # None lets a caller derive one; treated as 0 here

    def __post_init__(self):
        if self.particles < 1:
            raise BoundsError(f"particles must be >= 1, got {self.particles}")
        if self.iterations < 1:
            raise BoundsError(f"iterations must be >= 1, got {self.iterations}")
        if self.v_max <= 0:
            raise BoundsError(f"v_max must be > 0, got {self.v_max}")
        if not self.w_ini >= self.w_snd >= 0:
            raise BoundsError(
                f"need w_ini >= w_snd >= 0, got {self.w_ini}, {self.w_snd}")
        if self.proxy_epochs < 1:
            raise BoundsError(f"proxy_epochs must be >= 1, got {self.proxy_epochs}")


@dataclass
class Particle:
    position: np.ndarray   # real-valued
    velocity: np.ndarray
    pbest: tuple           # integer structure as evaluated
    pbest_fitness: float


@dataclass
class SwarmState:
    particles: list
    gbest: tuple
    gbest_fitness: float
    iteration: int
    rng: np.random.Generator


def inertia(t: int, config: SwarmConfig) -> float:
    """Linearly annealed inertia weight at iteration t of T."""
    if not 0 <= t <= config.iterations:
        raise BoundsError(f"iteration {t} outside [0, {config.iterations}]")
    T = config.iterations
    return (config.w_ini - config.w_snd) * (T - t) / T + config.w_snd


def evaluated_structure(position: np.ndarray, bounds) -> tuple[int, ...]:
    """Integer structure submitted for fitness: round half away, then clamp."""
    ints = round_half_away(np.asarray(position, dtype=np.float64))
    clamped = np.clip(ints, 1, np.asarray(bounds, dtype=np.int64))
    return tuple(int(v) for v in clamped)


def init_population(coarse, bounds, config: SwarmConfig, rng=None) -> SwarmState:
    """Unscored population seeded around the coarse structure.

    Particle i (1-indexed) starts at clamp(coarse + i * delta, 1, bounds)
    with delta drawn per layer from {-1, 0, 1}. RNG draw order: one delta
    vector per particle in particle order, then one uniform velocity vector
    per particle in particle order. ``_score`` at iteration 0 gives each
    particle its pbest and the swarm its gbest.
    """
    archspec.check_widths(tuple(coarse), tuple(bounds), "coarse structure")
    coarse = np.asarray(tuple(coarse), dtype=np.int64)
    bounds_arr = np.asarray(tuple(bounds), dtype=np.int64)
    if rng is None:
        rng = np.random.default_rng(derive_seed(config.seed or 0, "swarm"))
    L = coarse.size
    positions = []
    for i in range(1, config.particles + 1):
        delta = rng.integers(-1, 2, size=L)
        pos = np.clip(coarse + i * delta, 1, bounds_arr).astype(np.float64)
        positions.append(pos)
    particles = []
    for pos in positions:
        vel = rng.uniform(-config.v_max, config.v_max, size=L)
        particles.append(Particle(pos, vel, (), -np.inf))
    return SwarmState(particles, (), -np.inf, 0, rng)


def update_velocity(particle: Particle, gbest, t: int, config: SwarmConfig, rng):
    """One velocity step; always clamped component-wise to [-v_max, v_max].

    Draws two uniform vectors per call: first for the pbest pull, then for
    the gbest pull, each with an independent value per layer.
    """
    w = inertia(t, config)
    L = particle.position.size
    r1 = rng.random(L)
    r2 = rng.random(L)
    pull_self = config.alpha1 * r1 * (np.asarray(particle.pbest, dtype=np.float64) - particle.position)
    pull_all = config.alpha2 * r2 * (np.asarray(tuple(gbest), dtype=np.float64) - particle.position)
    v = w * particle.velocity + pull_self + pull_all
    particle.velocity = np.clip(v, -config.v_max, config.v_max)
    return particle.velocity


def update_position(particle: Particle, config: SwarmConfig):
    """Advance the real-valued position by learning_rate * velocity."""
    particle.position = particle.position + config.learning_rate * particle.velocity
    return particle.position


def _score(state: SwarmState, t: int, bounds, evaluator, config: SwarmConfig) -> list:
    """One pass at iteration ``t``; returns its records. From t = 1 on, move all
    particles toward the gbest the pass starts with; evaluate each and update
    its pbest; then the first highest pbest, if better, is the gbest (is_gbest)."""
    if t > 0:
        for p in state.particles:
            update_velocity(p, state.gbest, t, config, state.rng)
            update_position(p, config)
    records = []
    for idx, p in enumerate(state.particles):
        structure = evaluated_structure(p.position, bounds)
        fitness = evaluator.evaluate(structure)
        improved = fitness > p.pbest_fitness
        if improved:
            p.pbest, p.pbest_fitness = structure, fitness
        records.append({"iteration": t, "particle": idx,
                        "structure": list(structure), "fitness": fitness,
                        "is_pbest": improved, "is_gbest": False})
    best = int(np.argmax([p.pbest_fitness for p in state.particles]))
    top = state.particles[best]
    if top.pbest_fitness > state.gbest_fitness:
        state.gbest, state.gbest_fitness = top.pbest, top.pbest_fitness
        records[best]["is_gbest"] = True
    state.iteration = t
    return records


def _state_to_dict(state: SwarmState) -> dict:
    return {
        "iteration": state.iteration,
        "gbest": list(state.gbest),
        "gbest_fitness": state.gbest_fitness,
        "particles": [
            {
                "position": [float(v) for v in p.position],
                "velocity": [float(v) for v in p.velocity],
                "pbest": list(p.pbest),
                "pbest_fitness": p.pbest_fitness,
            }
            for p in state.particles
        ],
        "rng_state": state.rng.bit_generator.state,
    }


@dataclass
class SearchResult:
    best: tuple
    best_fitness: float
    history: list = field(default_factory=list)  # (iteration, best fitness so far, mean fitness)
    trace: list = field(default_factory=list)    # per-evaluation records

    @property
    def evaluations(self) -> int:
        """Distinct structures evaluated; each is trained once."""
        return len({tuple(rec["structure"]) for rec in self.trace})


def search(coarse, bounds, evaluator, config: SwarmConfig,
           state_path=None, trace_path=None) -> SearchResult:
    """Full swarm search refining ``coarse`` within [1, bounds] per layer.

    ``trace_path`` collects one JSON line per fitness evaluation. With
    ``state_path`` the complete swarm state (including the RNG) is written
    after every iteration, 0 included, for inspection only.
    The seed fixes every random draw, so the trace is a redo log: the search
    reruns from iteration 0 on the file's old lines (see ``_TraceLog``), and
    an interrupted search, run again, ends as the uninterrupted one. An old
    line that does not match, or is still unused at the end, is an error
    naming the file and the line. The result covers the whole run.
    """
    bounds_arr = np.asarray(tuple(bounds), dtype=np.int64)
    log = _TraceLog(trace_path, evaluator, config.particles)
    state = init_population(coarse, bounds_arr, config)
    for t in range(config.iterations + 1):
        log.extend(_score(state, t, bounds_arr, log, config))
        if state_path is not None:
            write_text_atomic(state_path, json.dumps(_state_to_dict(state)))
    if log.count < len(log.lines):
        raise log.error(log.count, f"is past the end of this search's {log.count} evaluations")
    return SearchResult(state.gbest, state.gbest_fitness, _history(log.records), log.records)


def _history(trace) -> list:
    """One (iteration, best fitness so far, mean fitness) row per iteration of
    ``trace``. The best so far is the global best, which only ever takes the
    highest fitness evaluated."""
    rows, best = [], -np.inf
    for t, group in itertools.groupby(trace, key=lambda rec: rec["iteration"]):
        fits = [rec["fitness"] for rec in group]
        best = max(best, *fits)
        rows.append((t, best, float(np.mean(fits))))
    return rows


def _whole_lines(trace_path) -> list:
    """(record, bytes) of each line of the trace that ends in a newline; a
    line that is not JSON has the record None. Only the last line can lack
    the newline, torn by a crash mid-append, and it is left out."""
    if trace_path is None or not os.path.exists(trace_path):
        return []
    lines = []
    with open(trace_path, "rb") as fh:
        for line in fh:
            if line.endswith(b"\n"):
                try:
                    lines.append((json.loads(line), line))
                except ValueError:
                    lines.append((None, line))
    return lines


class _TraceLog:
    """One search's trace file and records, and the only wrapper around its
    evaluator; the k-th evaluation is particle k % particles of iteration
    k // particles. The file's whole old lines are kept and the file is cut
    after them. ``evaluate`` answers the k-th evaluation with the
    k-th old line's fitness once that line's iteration, particle and
    structure are the search's there. Once the old lines are used up it
    answers a structure they scored with that fitness, which is a pure
    function of the structure, and asks ``evaluator`` for the rest: its
    exceptions and a fitness that is not finite are errors naming the
    iteration, the particle and the structure. ``extend`` takes each pass's
    records: a replayed one must serialize to its old line byte for byte,
    and the rest are appended to the file.
    """

    def __init__(self, trace_path, evaluator, particles):
        self.path = trace_path
        self.lines = _whole_lines(trace_path)
        if trace_path is not None and os.path.exists(trace_path):
            os.truncate(trace_path, sum(len(line) for _, line in self.lines))
        self.evaluator = evaluator
        self.particles = particles
        self.count = 0      # evaluations asked for so far
        self.replayed = {}  # structure -> fitness of the old lines used
        self.records = []

    def error(self, k, problem):
        return PruneKitError(f"resumed {self.path} line {k + 1} {problem}; delete it to recompute")

    def evaluate(self, structure) -> float:
        k, key = self.count, tuple(structure)
        self.count += 1
        made = {"iteration": k // self.particles, "particle": k % self.particles,
                "structure": list(structure)}
        if k < len(self.lines):
            old = self.lines[k][0]
            fitness = old.get("fitness") if isinstance(old, dict) else None
            if not isinstance(fitness, float) or not np.isfinite(fitness) \
                    or {name: old.get(name) for name in made} != made:
                raise self.error(k, f"does not match this search's {json.dumps(made)}")
            self.replayed[key] = fitness
            return fitness
        if key in self.replayed:
            return self.replayed[key]
        where = "at iteration {iteration}, particle {particle}".format(**made)
        candidate = f"(structure {made['structure']})"
        try:
            fitness = float(self.evaluator.evaluate(structure))
        except Exception as exc:
            raise PruneKitError(f"fitness evaluation failed {where} {candidate}: {exc}") from exc
        if not np.isfinite(fitness):
            raise PruneKitError(f"fitness {fitness} {where} is not finite {candidate}")
        return fitness

    def extend(self, records) -> None:
        start = len(self.records)
        replayed = max(0, len(self.lines) - start)
        self.records.extend(records)
        for k, record in enumerate(records[:replayed], start):
            if json.dumps(record).encode() + b"\n" != self.lines[k][1]:
                raise self.error(k, f"does not match this search's {json.dumps(record)}")
        _append_trace(self.path, records[replayed:])


def _append_trace(trace_path, records) -> None:
    if trace_path is None or not records:
        return
    with open(trace_path, "a") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


class ProxyFitnessEvaluator:
    """Fitness of a structure: best test accuracy over a short fresh train.

    ``config`` is the proxy training's TrainConfig. Deterministic: each
    training's seed is derived from ``config.seed`` and the structure itself,
    so a structure's fitness does not depend on when or how often it is
    evaluated. Results are cached per structure. A structure that fails
    ``ArchTemplate.check_widths`` is an error, and nothing is trained.
    """

    def __init__(self, template, train_images, train_labels, test_images,
                 test_labels, config):
        if config.epochs < 1:
            raise BoundsError(f"proxy_epochs must be >= 1, got {config.epochs}")
        self.template = template
        self.data = (train_images, train_labels, test_images, test_labels)
        self.config = config
        self.cache: dict = {}

    def evaluate(self, structure) -> float:
        self.template.check_widths(structure)
        key = tuple(int(v) for v in structure)
        if key in self.cache:
            return self.cache[key]
        run_seed = derive_seed(self.config.seed, "proxy", *key)
        pruned = archspec.instantiate(self.template, key)
        net = nncore.Network(pruned, seed=derive_seed(run_seed, "init"))
        history = nncore.train(net, *self.data, replace(self.config, seed=run_seed))
        fitness = max(h.test_accuracy for h in history)
        self.cache[key] = fitness
        return fitness
