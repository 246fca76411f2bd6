"""End-to-end orchestration of the pruning experiment.

Five sequential stages, each leaving artifacts under a run directory named
by a hash of the experiment configuration plus the seed:

    1. baseline   train (or reuse) the full-width model      baseline.ckpt
    2. coarse     cluster feature maps into a width vector   coarse.json
    3. search     particle-swarm refinement                  search.json (+ swarm_state.json)
    4. retrain    final structure from scratch               final.ckpt
    5. report     JSON + table                               report.json / report.txt

A finished baseline is always reused on rerun since it dominates cost.
With ``resume=True`` every other completed stage is reused as well, and an
interrupted search continues from its last iteration checkpoint; because
each stage is deterministic given the config and seed, a resumed run ends
in the same report as an uninterrupted one.

All stage seeds are derived from the single experiment seed, so one integer
pins the entire run.
"""
from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace

import yaml

from . import archspec, cluster, data, featstats, swarm
from .errors import BoundsError, PruneKitError
from .nncore import Network, TrainConfig, load_model, save_model, train
from .report import RunReport, render_table
from .util import canonical_json, derive_seed, sha256_hex, write_text_atomic

STAGES = ("baseline", "coarse", "search", "retrain", "report")


@dataclass(frozen=True)
class DatasetConfig:
    name: str = "synthetic"
    path: str = "."
    num_classes: int = 4
    train_size: int = 512
    test_size: int = 256
    image_size: int = 16
    channels: int = 3
    noise: float = 0.15

    def synthetic_spec(self, seed: int) -> data.SyntheticSpec:
        return data.SyntheticSpec(
            num_classes=self.num_classes, train_size=self.train_size,
            test_size=self.test_size, image_size=self.image_size,
            channels=self.channels, noise=self.noise, seed=seed)


@dataclass(frozen=True)
class TrainerConfig:
    """Optimizer recipe shared by baseline, proxy, and retrain stages."""

    batch_size: int = 128
    initial_lr: float = 0.1
    lr_drops: tuple = ((0.5, 10.0), (0.75, 10.0))
    momentum: float = 0.9
    weight_decay: float = 1e-4

    def __post_init__(self):
        drops = self.lr_drops
        if not isinstance(drops, (list, tuple)) or not all(
                isinstance(d, (list, tuple)) and len(d) == 2
                and all(type(x) in (int, float) for x in d) for d in drops):
            raise PruneKitError(
                f"trainer.lr_drops must be a list of [fraction, divisor] pairs, got {drops!r}")
        # floats, so that [0.5, 10] names the same experiment as [0.5, 10.0]
        object.__setattr__(self, "lr_drops", tuple(tuple(float(x) for x in d) for d in drops))
        TrainConfig(**asdict(self))  # validates

    def train_config(self, epochs: int, seed: int) -> TrainConfig:
        return TrainConfig(epochs=epochs, seed=seed, **asdict(self))


@dataclass(frozen=True)
class ExperimentConfig:
    template: str = "tiny4"
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    sample_count: int = 128
    epsilon: float = 0.05
    min_pts: int = 5
    baseline_epochs: int = 160
    swarm: swarm.SwarmConfig = field(default_factory=swarm.SwarmConfig)
    trainer: TrainerConfig = field(default_factory=TrainerConfig)
    out_dir: str = "runs"
    seed: int = 0
    dump_similarity: bool = False

    def __post_init__(self):
        if self.sample_count < 1:
            raise BoundsError(f"sample_count must be >= 1, got {self.sample_count}")
        if self.baseline_epochs < 1:
            raise BoundsError(f"baseline_epochs must be >= 1, got {self.baseline_epochs}")
        cluster.NeighborhoodParams(self.epsilon, self.min_pts)  # validates

    def neighborhood(self) -> cluster.NeighborhoodParams:
        return cluster.NeighborhoodParams(self.epsilon, self.min_pts)

    def identity_dict(self) -> dict:
        """Everything that affects results; excludes out_dir, seed and
        dump_similarity.

        A swarm seed of None means "derived from the experiment seed" and so
        carries no identity of its own; an explicit swarm seed does.
        """
        d = asdict(self)
        for name in ("out_dir", "seed", "dump_similarity"):
            del d[name]
        if d["swarm"]["seed"] is None:
            del d["swarm"]["seed"]
        return d

    def config_hash(self) -> str:
        return sha256_hex(canonical_json(self.identity_dict()).encode())[:12]

    def run_dir(self) -> str:
        return os.path.join(self.out_dir, f"{self.template}-{self.config_hash()}-s{self.seed}")


def load_config(path) -> ExperimentConfig:
    """Build an ExperimentConfig from a YAML file of nested sections."""
    with open(path) as fh:
        raw = yaml.safe_load(fh) or {}
    return config_from_dict(raw)


# second spellings of a setting: key as written -> ExperimentConfig field
_ALIASES = {"out": "out_dir", "neighborhood.epsilon": "epsilon",
            "neighborhood.min_pts": "min_pts"}
# what a field whose default has this type accepts, and how an error names it
_ACCEPTS = {float: ((int, float), "a number"), tuple: ((list, tuple), "a list"),
            type(None): ((int, type(None)), "an integer or null"),
            int: (int, "an integer"), str: (str, "a string"), bool: (bool, "a boolean")}


def _mapping(value, where: str, known) -> dict:
    """``value`` as a dict whose keys are all in ``known``; ``where`` names it
    in the error, which lists every unknown key."""
    if not isinstance(value, dict):
        raise PruneKitError(f"config {where} must be a mapping, got {type(value).__name__}")
    unknown = sorted(str(k) for k in value if k not in known)
    if unknown:
        prefix = "" if where == "file" else f"{where}."
        raise PruneKitError(
            f"unknown config key {', '.join(prefix + k for k in unknown)} "
            f"(known: {', '.join(prefix + k for k in known)})")
    return value


def _value(key: str, value, f):
    """The value of field ``f`` as given under ``key``. A section field's
    dataclass is built from its mapping, every key known; any other value
    must fit the type of the field's default: an int serves for a float, a
    list for a tuple and an int for a None default, and a bool fits only a
    bool. An int given for a float is returned as that float, so that both
    spellings hash alike."""
    section = f.default_factory
    if is_dataclass(section):
        known = {g.name: g for g in fields(section)}
        raw = _mapping(value, key, known)
        return section(**{k: _value(f"{key}.{k}", v, known[k]) for k, v in raw.items()})
    accepts, name = _ACCEPTS[type(f.default)]
    if isinstance(value, bool) != isinstance(f.default, bool) or not isinstance(value, accepts):
        raise PruneKitError(f"config key {key} must be {name}, got {value!r}")
    return float(value) if type(f.default) is float else value


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build an ExperimentConfig. An unknown key at any level is an error,
    and so are a value of the wrong type and a setting given under both of
    its spellings."""
    top = {f.name: f for f in fields(ExperimentConfig)}
    raw = _mapping(raw, "file", [*top, "out", "neighborhood"])
    given = {k: v for k, v in raw.items() if k != "neighborhood"}
    if "neighborhood" in raw:
        nb = _mapping(raw["neighborhood"], "neighborhood", ("epsilon", "min_pts"))
        given.update({f"neighborhood.{k}": v for k, v in nb.items()})
    kwargs, spelled = {}, {}
    for key, value in given.items():
        name = _ALIASES.get(key, key)
        if name in spelled:
            raise PruneKitError(
                f"config keys {spelled[name]} and {key} both set {name}; give only one")
        spelled[name] = key
        kwargs[name] = _value(key, value, top[name])
    return ExperimentConfig(**kwargs)


def retrain_epochs(baseline_epochs: int, original_flops: int, pruned_flops: int) -> int:
    """Retraining budget: baseline epochs scaled by the FLOP compression.

    round(baseline * original / pruned), never below the baseline count.
    """
    if baseline_epochs < 1:
        raise BoundsError(f"baseline_epochs must be >= 1, got {baseline_epochs}")
    if original_flops <= 0 or pruned_flops <= 0:
        raise BoundsError("FLOP counts must be positive")
    if pruned_flops > original_flops:
        raise BoundsError(
            f"pruned FLOPs {pruned_flops} exceed original {original_flops}")
    return max(baseline_epochs, round(baseline_epochs * original_flops / pruned_flops))


class ExperimentRun:
    """Stage runner bound to one config; stages share loaded data and models."""

    def __init__(self, config: ExperimentConfig):
        self.config = config
        self.run_dir = config.run_dir()
        cfg = config.dataset
        self.template = archspec.get_template(config.template, num_classes=cfg.num_classes)
        spec = None
        if cfg.name == "synthetic":
            spec = cfg.synthetic_spec(derive_seed(config.seed, "data"))
        self.train_set, self.test_set = data.load_dataset(cfg.path, cfg.name, synthetic_spec=spec)
        if tuple(self.train_set.input_shape) != tuple(self.template.input_shape):
            raise PruneKitError(
                f"dataset input shape {self.train_set.input_shape} does not "
                f"match template input {self.template.input_shape}")
        if self.train_set.num_classes != self.template.num_classes:
            raise PruneKitError(
                f"dataset {cfg.name!r} has {self.train_set.num_classes} "
                f"classes but template {self.template.name} has "
                f"{self.template.num_classes}; set dataset.num_classes to match")
        # only a dataset that fits the template gets a run directory
        os.makedirs(self.run_dir, exist_ok=True)
        self.stage_seconds: dict = {}

    def path(self, name: str) -> str:
        return os.path.join(self.run_dir, name)

    def _report(self, **fields) -> RunReport:
        """A RunReport with this run's identity fields filled in."""
        return RunReport(
            dataset_name=self.config.dataset.name,
            template_name=self.template.name,
            epsilon=self.config.epsilon, min_pts=self.config.min_pts,
            original_structure=list(self.template.original_structure()),
            stage_seconds=dict(self.stage_seconds),
            config_hash=self.config.config_hash(), seed=self.config.seed,
            **fields)

    def _stage(self, stage, artifact, compute, reuse, checkpoint=None, net=None,
               widths=None, keys=()) -> dict:
        """Run one stage: reuse its checked artifact, or compute it and write it.

        With ``reuse`` set, an existing ``artifact`` (plus its ``checkpoint``,
        for a stage that writes one) is read back, ``net`` gets the
        checkpoint's weights, the width vector under the key ``widths`` must
        hold one width per prunable slot, each within [1, original], and
        every key in ``keys`` must be present. Otherwise the dict
        ``compute()`` returns is written atomically. The stage is timed, and
        a failure is recorded in report.json before it propagates.
        """
        start = time.perf_counter()
        try:
            path = self.path(artifact)
            ckpt = self.path(checkpoint) if checkpoint else None
            if reuse and os.path.exists(path) and (ckpt is None or os.path.exists(ckpt)):
                where = f"{stage} stage: reused {path}"
                try:
                    with open(path) as fh:
                        saved = json.load(fh)
                except ValueError as exc:
                    raise PruneKitError(f"{where} is not valid JSON: {exc}") from exc
                if widths is not None:
                    vector = saved.get(widths) if isinstance(saved, dict) else None
                    if not isinstance(vector, list):
                        raise PruneKitError(f"{where} has no {widths!r} list of widths")
                    bounds = self.template.slot_bounds()
                    if len(vector) != len(bounds):
                        raise PruneKitError(
                            f"{where} holds {len(vector)} widths, expected {len(bounds)} "
                            f"(one per prunable slot of {self.template.name})")
                    for slot, (width, bound) in enumerate(zip(vector, bounds)):
                        if type(width) is not int or not 1 <= width <= bound:
                            raise PruneKitError(
                                f"{where}: width {width} of slot {slot} is outside [1, {bound}]")
                for key in keys:
                    if not isinstance(saved, dict) or key not in saved:
                        raise PruneKitError(f"{where} has no {key!r} field")
                if net is not None:
                    load_model(ckpt, net)
            else:
                saved = compute()
                write_text_atomic(path, json.dumps(saved, indent=2) + "\n")
        except Exception as exc:
            self._report(coarse_structure=[], final_structure=[], failed_stage=stage,
                         error=f"{type(exc).__name__}: {exc}").save(self.path("report.json"))
            raise
        self.stage_seconds[stage] = time.perf_counter() - start
        return saved

    def _fit(self, net, tag, epochs, trace, checkpoint) -> dict:
        """Train ``net`` with stage ``tag``'s seed, writing the CSV ``trace``
        and the ``checkpoint``; returns its accuracy, best accuracy, params
        and FLOPs."""
        cfg = self.config.trainer.train_config(epochs, derive_seed(self.config.seed, tag))
        history = train(net, self.train_set.images, self.train_set.labels,
                        self.test_set.images, self.test_set.labels, cfg,
                        trace_path=self.path(trace))
        save_model(self.path(checkpoint), net)
        return {
            "accuracy": history[-1].test_accuracy,
            "best_accuracy": max(h.test_accuracy for h in history),
            "params": archspec.param_count(net.template),
            "flops": archspec.flops_count(net.template),
        }

    # -- stage 1 ------------------------------------------------------------
    def stage_baseline(self):
        """Train the full-width model, or load it if this run dir has one."""
        net = Network(self.template, seed=derive_seed(self.config.seed, "baseline", "init"))

        def compute():
            epochs = self.config.baseline_epochs
            return {**self._fit(net, "baseline", epochs, "baseline_trace.csv", "baseline.ckpt"),
                    "epochs": epochs, "weight_init": "kaiming-fan-in"}
        meta = self._stage("baseline", "baseline.json", compute, reuse=True,
                           checkpoint="baseline.ckpt", net=net,
                           keys=("accuracy", "params", "flops", "epochs"))
        return net, meta

    # -- stage 2 ------------------------------------------------------------
    def stage_coarse(self, net, resume=False):
        def compute():
            samples = data.sample_images(self.train_set, self.config.sample_count,
                                         derive_seed(self.config.seed, "sample"))
            sink = None
            if self.config.dump_similarity:
                def sink(slot, sim):
                    featstats.dump_similarity_csv(
                        self.path(f"similarity_slot{slot:02d}.csv"), sim)
            structure, reports = cluster.coarse_prune(
                self.template, net, samples, self.config.neighborhood(),
                similarity_sink=sink)
            return {
                "structure": list(structure),
                "original": list(self.template.original_structure()),
                "epsilon": self.config.epsilon,
                "min_pts": self.config.min_pts,
                "sample_count": self.config.sample_count,
                "layers": [r.to_dict() for r in reports],
            }
        saved = self._stage("coarse", "coarse.json", compute, resume, widths="structure")
        return archspec.NetworkStructure(saved["structure"]), saved

    # -- stage 3 ------------------------------------------------------------
    def stage_search(self, coarse_structure, resume=False):
        def compute():
            swarm_cfg = self.config.swarm
            if swarm_cfg.seed is None:
                swarm_cfg = replace(swarm_cfg, seed=derive_seed(self.config.seed, "search"))
            evaluator = swarm.ProxyFitnessEvaluator(
                self.template,
                self.train_set.images, self.train_set.labels,
                self.test_set.images, self.test_set.labels,
                self.config.trainer.train_config(
                    swarm_cfg.proxy_epochs, derive_seed(self.config.seed, "proxy")))
            trace_path = self.path("swarm_trace.jsonl")
            if resume:
                # fitness is a pure function of the structure and the run's
                # seed, so every structure the old trace scored, even past the
                # state the search resumes from, needs no training again
                evaluator.cache.update((tuple(r["structure"]), r["fitness"])
                                       for r in swarm.read_trace(trace_path))
            result = swarm.search(
                coarse_structure, self.template.original_structure(), evaluator,
                swarm_cfg, state_path=self.path("swarm_state.json"),
                trace_path=trace_path, resume=resume)
            return {
                "best": list(result.best),
                "best_fitness": result.best_fitness,
                "history": [list(h) for h in result.history],
                # each distinct structure is trained once
                "evaluations": len({tuple(r["structure"]) for r in result.trace}),
            }
        saved = self._stage("search", "search.json", compute, resume, widths="best")
        return archspec.NetworkStructure(saved["best"]), saved

    # -- stage 4 ------------------------------------------------------------
    def stage_retrain(self, final_structure, resume=False):
        def compute():
            pruned = archspec.instantiate(self.template, final_structure)
            epochs = retrain_epochs(self.config.baseline_epochs,
                                    archspec.flops_count(self.template),
                                    archspec.flops_count(pruned))
            net = Network(pruned, seed=derive_seed(self.config.seed, "retrain", "init"))
            return {"structure": list(final_structure),
                    **self._fit(net, "retrain", epochs, "final_trace.csv", "final.ckpt"),
                    "retrain_epochs": epochs}
        return self._stage("retrain", "retrain.json", compute, resume,
                           checkpoint="final.ckpt", widths="structure",
                           keys=("accuracy", "params", "flops", "retrain_epochs"))

    # -- stage 5 ------------------------------------------------------------
    def stage_report(self, baseline_meta, coarse_saved, retrain_saved):
        def compute():
            param_drop, flop_drop = archspec.compression_report(
                self.template, self.template.original_structure(),
                archspec.NetworkStructure(retrain_saved["structure"]))
            report = self._report(
                coarse_structure=list(coarse_saved["structure"]),
                final_structure=list(retrain_saved["structure"]),
                baseline={k: baseline_meta[k] for k in ("accuracy", "params", "flops", "epochs")},
                final={**{k: retrain_saved[k] for k in ("accuracy", "params", "flops")},
                       "param_drop_percent": param_drop, "flop_drop_percent": flop_drop},
                retrain_epochs=retrain_saved["retrain_epochs"],
                normalization={
                    "mean": self.train_set.metadata.get("standardize_mean"),
                    "std": self.train_set.metadata.get("standardize_std"),
                })
            write_text_atomic(self.path("report.txt"), render_table(report))
            return report.to_dict()
        return RunReport.from_dict(self._stage("report", "report.json", compute, reuse=False))


def run(config: ExperimentConfig, resume: bool = False,
        through: str = "report") -> RunReport | dict:
    """Execute stages in order up to ``through`` (default: the full pipeline).

    Returns the RunReport when the report stage runs, else the last stage's
    artifact dictionary.
    """
    if through not in STAGES:
        raise BoundsError(f"unknown stage {through!r}; expected one of {STAGES}")
    last = STAGES.index(through)
    runner = ExperimentRun(config)
    net, baseline_meta = runner.stage_baseline()
    if last == 0:
        return baseline_meta
    coarse_structure, coarse_saved = runner.stage_coarse(net, resume=resume)
    if last == 1:
        return coarse_saved
    best, search_saved = runner.stage_search(coarse_structure, resume=resume)
    if last == 2:
        return search_saved
    retrain_saved = runner.stage_retrain(best, resume=resume)
    if last == 3:
        return retrain_saved
    return runner.stage_report(baseline_meta, coarse_saved, retrain_saved)
