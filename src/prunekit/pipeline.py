"""End-to-end orchestration of the pruning experiment.

Five sequential stages, each leaving artifacts under a run directory named
by a hash of the experiment configuration plus the seed:

    1. baseline   train (or reuse) the full-width model      baseline.ckpt
    2. coarse     cluster feature maps into a width vector   coarse.json
    3. search     particle-swarm refinement                  search.json (+ swarm_state.json)
    4. retrain    final structure from scratch               final.ckpt
    5. report     JSON + table                               report.json / report.txt

Each stage's JSON, written last, records the sha256 of every file the stage
read, of every other file it wrote and of its own other keys. A stage is
reused only when each matches, else an error names the file to delete; a
missing JSON or written file recomputes it, and so does a changed read file
once an earlier stage of the same run was computed (its written files are
deleted first). An interrupted search replays its trace. Each stage is
deterministic given the config and seed, so a rerun ends in the
uninterrupted run's files; the report, which may hold a failure record, is
always rewritten. One run at a time holds a run directory.

All stage seeds are derived from the single experiment seed, so one integer
pins the entire run.
"""
from __future__ import annotations

import fcntl
import json
import os
import time
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path

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

    def __post_init__(self):
        # every key is hashed, so one the named dataset does not read stays at its default
        unused = {"cifar10": ("train_size", "test_size", "image_size", "channels", "noise"),
                  "synthetic": ("path",)}.get(self.name, ())
        for f in fields(self):
            if f.name in unused and getattr(self, f.name) != f.default:
                raise PruneKitError(
                    f"config key dataset.{f.name} is not used by dataset {self.name} "
                    f"(got {getattr(self, f.name)!r}); remove it")

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

        A template file is identified by what it holds, its template's
        ``template_hash()``, so an edited file names a new experiment; a
        built-in template is identified by its name. A path that names no
        file stays as given, and the run stops on it.

        A swarm seed of None means "derived from the experiment seed" and so
        carries no identity of its own; an explicit swarm seed does.
        """
        d = asdict(self)
        for name in ("out_dir", "seed", "dump_similarity"):
            del d[name]
        if self.template not in archspec.BUILTIN_TEMPLATES and os.path.isfile(self.template):
            d["template"] = archspec.load_template(self.template).template_hash()
        if d["swarm"]["seed"] is None:
            del d["swarm"]["seed"]
        # the swarm's one gbest rule was once a setting; hashing it as before
        # keeps the name of every existing run directory
        d["swarm"]["gbest_update"] = "iteration"
        return d

    def config_hash(self) -> str:
        return sha256_hex(canonical_json(self.identity_dict()).encode())[:12]

    def run_dir(self) -> str:
        # the base name, so a template given as a path stays under out_dir
        name = os.path.basename(self.template)
        return os.path.join(self.out_dir, f"{name}-{self.config_hash()}-s{self.seed}")


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
        spec = cfg.synthetic_spec(derive_seed(config.seed, "data")) \
            if cfg.name == "synthetic" else None
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
        # whether a stage of this run was computed, so a later stage whose
        # read files changed is computed afresh rather than stopping
        self.computed = False

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

    def _digests(self, *names) -> dict:
        """The sha256 of each named run-directory file; None for one not there."""
        return {name: sha256_hex(Path(self.path(name)).read_bytes())
                if os.path.exists(self.path(name)) else None for name in names}

    def _reused(self, artifact, reads, written) -> dict | None:
        """The artifact's dict, once each digest it records matches: of its
        other keys, then of ``reads`` and ``written`` (name -> sha256 now).
        None, to compute the stage afresh, when only read files differ and
        an earlier stage of this run was computed. Else an error names the
        file to delete: the one that differs, or for a read file the first
        one written, so no trace of other inputs replays."""
        path = self.path(artifact)
        try:
            saved = json.loads(Path(path).read_text())
        except ValueError as exc:
            raise PruneKitError(
                f"reused {path}: not valid JSON: {exc}; delete it to recompute") from exc
        recorded = saved.get("digests") if isinstance(saved, dict) else None
        if not isinstance(recorded, dict):
            raise PruneKitError(f"reused {path}: records no digests; delete it to recompute")
        rest = {key: value for key, value in saved.items() if key != "digests"}
        differ = [name for name, digest in {artifact: sha256_hex(canonical_json(rest)),
                                            **reads, **written}.items()
                  if recorded.get(name) != digest]
        if not differ:
            return saved
        if self.computed and all(name in reads for name in differ):
            return None
        name = differ[0]
        delete = next(iter(written), artifact) if name in reads else name
        raise PruneKitError(
            f"reused {self.path(delete)}: the digest {artifact} records for {name} "
            "does not match; delete it to recompute")

    def _stage(self, stage, artifact, compute, reads=None, writes=(), reuse=True, load=None):
        """Run one stage: reuse its artifact, or compute it and write it.

        ``reads`` maps each file the stage reads to its sha256 now; ``writes``
        names the other files it writes. With ``reuse`` set, an artifact that
        is there with every file of ``writes`` is reused if ``_reused`` passes
        it, and ``load()`` is called; one ``_reused`` finds stale has the
        files of ``writes`` deleted, in order. Else the dict ``compute()``
        returns, with ``digests`` of the reads, the writes and its own other
        keys unless ``reads`` is None (the report), is written atomically,
        last. The stage is timed; a PruneKitError that ends it gets the prefix
        "<stage> stage: ", and any failure is recorded in report.json before
        it propagates.
        """
        start = time.perf_counter()
        try:
            written, saved = self._digests(*writes), None
            if reuse and os.path.exists(self.path(artifact)) and None not in written.values():
                saved = self._reused(artifact, reads, written)
                if saved is None:
                    # stale: the trace goes first, so a run killed before
                    # the JSON is rewritten computes afresh, replaying nothing
                    for name in writes:
                        os.unlink(self.path(name))
                elif load is not None:
                    load()
            if saved is None:
                saved = compute()
                self.computed = True
                if reads is not None:
                    saved["digests"] = {**reads, **self._digests(*writes),
                                        artifact: sha256_hex(canonical_json(saved))}
                write_text_atomic(self.path(artifact), json.dumps(saved, indent=2) + "\n")
        except Exception as exc:
            if isinstance(exc, PruneKitError):
                exc.args = (f"{stage} stage: {exc}",)
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
        """Train the full-width model, or load the one this run dir holds.
        A CIFAR-10 run reads its batch files."""
        net = Network(self.template, seed=derive_seed(self.config.seed, "baseline", "init"))

        def compute():
            epochs = self.config.baseline_epochs
            return {**self._fit(net, "baseline", epochs, "baseline_trace.csv", "baseline.ckpt"),
                    "epochs": epochs, "weight_init": "kaiming-fan-in"}
        meta = self._stage("baseline", "baseline.json", compute,
                           reads=self.train_set.metadata.get("file_sha256", {}),
                           writes=("baseline.ckpt", "baseline_trace.csv"),
                           load=lambda: load_model(self.path("baseline.ckpt"), net))
        return net, meta

    # -- stage 2 ------------------------------------------------------------
    def stage_coarse(self, net):
        """The coarse width vector; with ``dump_similarity`` set, coarse.json
        is reused only once every CSV is there (recomputing it, it is the same)."""
        slots = self.template.prunable_slots if self.config.dump_similarity else ()
        csvs = {slot: self.path(f"similarity_slot{slot:02d}.csv") for slot in slots}

        def compute():
            samples = data.sample_images(self.train_set, self.config.sample_count,
                                         derive_seed(self.config.seed, "sample"))
            sink = (lambda slot, sim: featstats.dump_similarity_csv(csvs[slot], sim)) \
                if csvs else None
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
        return self._stage("coarse", "coarse.json", compute,
                           reads=self._digests("baseline.json", "baseline.ckpt"),
                           reuse=all(map(os.path.exists, csvs.values())))

    # -- stage 3 ------------------------------------------------------------
    def stage_search(self, coarse_structure):
        def compute():
            swarm_cfg = self.config.swarm
            if swarm_cfg.seed is None:
                swarm_cfg = replace(swarm_cfg, seed=derive_seed(self.config.seed, "search"))
            evaluator = swarm.ProxyFitnessEvaluator(
                self.template, self.train_set.images, self.train_set.labels,
                self.test_set.images, self.test_set.labels,
                self.config.trainer.train_config(
                    swarm_cfg.proxy_epochs, derive_seed(self.config.seed, "proxy")))
            result = swarm.search(
                coarse_structure, self.template.original_structure(), evaluator,
                swarm_cfg, state_path=self.path("swarm_state.json"),
                trace_path=self.path("swarm_trace.jsonl"))
            return {
                "best": list(result.best),
                "best_fitness": result.best_fitness,
                "history": [list(h) for h in result.history],
                "evaluations": result.evaluations,
            }
        return self._stage("search", "search.json", compute,
                           reads=self._digests("coarse.json"),
                           writes=("swarm_trace.jsonl", "swarm_state.json"))

    # -- stage 4 ------------------------------------------------------------
    def stage_retrain(self, final_structure):
        """Retrain ``final_structure`` from fresh weights."""
        def compute():
            net = Network(archspec.instantiate(self.template, final_structure),
                          seed=derive_seed(self.config.seed, "retrain", "init"))
            epochs = retrain_epochs(self.config.baseline_epochs,
                                    archspec.flops_count(self.template),
                                    archspec.flops_count(net.template))
            return {"structure": list(final_structure),
                    **self._fit(net, "retrain", epochs, "final_trace.csv", "final.ckpt"),
                    "retrain_epochs": epochs}
        return self._stage("retrain", "retrain.json", compute,
                           reads=self._digests("search.json"),
                           writes=("final.ckpt", "final_trace.csv"))

    # -- stage 5 ------------------------------------------------------------
    def stage_report(self, baseline_meta, coarse_structure, final_structure, retrain_saved):
        def compute():
            param_drop, flop_drop = archspec.compression_report(
                self.template, self.template.original_structure(), final_structure)
            report = self._report(
                coarse_structure=list(coarse_structure),
                final_structure=list(final_structure),
                baseline={k: baseline_meta[k] for k in ("accuracy", "params", "flops", "epochs")},
                final={**{k: retrain_saved[k] for k in ("accuracy", "params", "flops")},
                       "param_drop_percent": param_drop, "flop_drop_percent": flop_drop},
                retrain_epochs=retrain_saved["retrain_epochs"],
                normalization={key: self.train_set.metadata.get(f"standardize_{key}")
                               for key in ("mean", "std")})
            write_text_atomic(self.path("report.txt"), render_table(report))
            return report.to_dict()
        return RunReport.from_dict(self._stage("report", "report.json", compute, reuse=False))


def run(config: ExperimentConfig, through: str = "report") -> RunReport | dict:
    """Execute stages in order up to ``through`` (default: the full pipeline).

    Returns the RunReport when the report stage runs, else the last stage's
    artifact dictionary. The stages run under an exclusive lock on the run
    directory; a run of a directory another run holds is an error naming it.
    Holding the lock, the run first deletes the ``*.tmp`` files a killed
    atomic write left in the directory, since no other writer can own them.
    """
    if through not in STAGES:
        raise BoundsError(f"unknown stage {through!r}; expected one of {STAGES}")
    last = STAGES.index(through)
    runner = ExperimentRun(config)
    lock = os.open(runner.run_dir, os.O_RDONLY)
    try:
        try:
            fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise PruneKitError(
                f"run directory {runner.run_dir} is in use by another run") from None
        for name in os.listdir(runner.run_dir):
            if name.endswith(".tmp") and os.path.isfile(runner.path(name)):
                os.unlink(runner.path(name))
        net, baseline_meta = runner.stage_baseline()
        if last == 0:
            return baseline_meta
        coarse = runner.stage_coarse(net)
        if last == 1:
            return coarse
        search = runner.stage_search(coarse["structure"])
        if last == 2:
            return search
        retrain_saved = runner.stage_retrain(search["best"])
        if last == 3:
            return retrain_saved
        return runner.stage_report(baseline_meta, coarse["structure"], search["best"],
                                   retrain_saved)
    finally:
        os.close(lock)
