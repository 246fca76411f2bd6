import dataclasses
import importlib.util
import json
import os
import re
import shutil
from pathlib import Path

import pytest
import yaml

from conftest import desk_experiment_config
from test_data import write_fake_cifar

from prunekit import archspec, cluster, featstats, pipeline, swarm
from prunekit.errors import BoundsError, PruneKitError
from prunekit.nncore import Network
from prunekit.report import TABLE_COLUMNS, RunReport, render_table
from prunekit.swarm import SwarmConfig


class TestRetrainEpochs:
    def test_equal_flops_keeps_baseline(self):
        assert pipeline.retrain_epochs(160, 1000, 1000) == 160

    def test_scales_with_compression(self):
        # 160 * 10000 / 2975 = 537.8..., rounds to 538
        assert pipeline.retrain_epochs(160, 10000, 2975) == 538

    def test_halved_flops_doubles_budget(self):
        assert pipeline.retrain_epochs(100, 2000, 1000) == 200

    def test_never_below_baseline(self):
        assert pipeline.retrain_epochs(50, 1001, 1000) == 50

    def test_pruned_larger_than_original_rejected(self):
        with pytest.raises(BoundsError):
            pipeline.retrain_epochs(100, 1000, 1001)

    def test_zero_and_negative_rejected(self):
        with pytest.raises(BoundsError):
            pipeline.retrain_epochs(0, 1000, 500)
        with pytest.raises(BoundsError):
            pipeline.retrain_epochs(10, 0, 0)


class TestConfigIdentity:
    def test_hash_stable_for_equal_configs(self, tmp_path):
        a = desk_experiment_config(tmp_path / "x")
        b = desk_experiment_config(tmp_path / "y")
        assert a.config_hash() == b.config_hash()

    def test_out_dir_and_seed_do_not_change_identity(self, tmp_path):
        a = desk_experiment_config(tmp_path / "x", seed=0)
        b = desk_experiment_config(tmp_path / "y", seed=123)
        assert a.config_hash() == b.config_hash()

    def test_result_affecting_fields_change_identity(self, tmp_path):
        base = desk_experiment_config(tmp_path)
        for change in ({"epsilon": 0.1}, {"min_pts": 4}, {"sample_count": 64},
                       {"baseline_epochs": 11}, {"template": "vgg16-cifar"}):
            other = dataclasses.replace(base, **change)
            assert other.config_hash() != base.config_hash(), change

    def test_explicit_swarm_seed_is_identity(self, tmp_path):
        base = desk_experiment_config(tmp_path)
        pinned = dataclasses.replace(
            base, swarm=dataclasses.replace(base.swarm, seed=7))
        assert pinned.config_hash() != base.config_hash()

    def test_run_dir_layout(self, tmp_path):
        cfg = desk_experiment_config(tmp_path, seed=3)
        assert cfg.run_dir() == os.path.join(
            str(tmp_path), f"tiny4-{cfg.config_hash()}-s3")

    @pytest.mark.parametrize("template", ["/elsewhere/tpl.yaml", "nested/dir/tpl.yaml"])
    def test_template_path_run_dir_stays_under_out(self, tmp_path, template):
        cfg = dataclasses.replace(desk_experiment_config(tmp_path), template=template)
        assert cfg.run_dir() == os.path.join(
            str(tmp_path), f"tpl.yaml-{cfg.config_hash()}-s0")

    def test_template_file_is_identified_by_its_contents(self, tmp_path):
        base = desk_experiment_config(tmp_path)
        text = yaml.safe_dump(archspec.tiny4(num_classes=4).to_config_dict())
        (tmp_path / "b").mkdir()
        for path in (tmp_path / "t.yaml", tmp_path / "b" / "t.yaml"):
            path.write_text(text)
        a, b = (dataclasses.replace(base, template=str(path))
                for path in (tmp_path / "t.yaml", tmp_path / "b" / "t.yaml"))
        assert a.config_hash() == b.config_hash()
        assert a.identity_dict()["template"] == archspec.tiny4(num_classes=4).template_hash()
        (tmp_path / "t.yaml").write_text(text.replace("out_channels: 32", "out_channels: 24"))
        assert a.config_hash() != b.config_hash()

    def test_validation_delegates_to_neighborhood(self, tmp_path):
        base = desk_experiment_config(tmp_path)
        with pytest.raises(BoundsError):
            dataclasses.replace(base, epsilon=0.0)
        with pytest.raises(BoundsError):
            dataclasses.replace(base, min_pts=0)
        with pytest.raises(BoundsError):
            dataclasses.replace(base, sample_count=0)


    @pytest.mark.parametrize("as_int, as_float", [
        ({"swarm": {"v_max": 4}}, {"swarm": {"v_max": 4.0}}),
        ({"epsilon": 1}, {"epsilon": 1.0}),
        ({"trainer": {"lr_drops": [[0.5, 10], [0.75, 10]]}}, {}),
    ])
    def test_int_given_for_a_float_hashes_as_the_float(self, as_int, as_float):
        assert (pipeline.config_from_dict(as_int).config_hash()
                == pipeline.config_from_dict(as_float).config_hash())

    def test_default_and_desk_hashes_are_pinned(self, tmp_path):
        # a change here moves every existing run to a new directory
        assert pipeline.ExperimentConfig().config_hash() == "1fdc849cc8ba"
        assert desk_experiment_config(tmp_path).config_hash() == "21ade6997cc0"


class TestConfigLoading:
    def test_yaml_round_trip(self, tmp_path):
        text = """
template: tiny4
epsilon: 0.07
min_pts: 2
sample_count: 96
baseline_epochs: 12
seed: 4
out: custom-runs
dataset:
  name: synthetic
  num_classes: 3
  train_size: 60
  test_size: 30
swarm:
  particles: 5
  iterations: 4
  v_max: 2.5
trainer:
  batch_size: 64
  lr_drops: [[0.5, 10.0]]
"""
        path = tmp_path / "exp.yaml"
        path.write_text(text)
        cfg = pipeline.load_config(path)
        assert cfg.template == "tiny4"
        assert cfg.epsilon == 0.07 and cfg.min_pts == 2
        assert cfg.sample_count == 96 and cfg.baseline_epochs == 12
        assert cfg.seed == 4 and cfg.out_dir == "custom-runs"
        assert cfg.dataset.num_classes == 3
        assert cfg.swarm.particles == 5 and cfg.swarm.v_max == 2.5
        assert cfg.trainer.batch_size == 64
        assert cfg.trainer.lr_drops == ((0.5, 10.0),)

    def test_neighborhood_section(self):
        cfg = pipeline.config_from_dict(
            {"neighborhood": {"epsilon": 0.2, "min_pts": 4}})
        assert cfg.epsilon == 0.2 and cfg.min_pts == 4

    def test_defaults_fill_missing_sections(self):
        cfg = pipeline.config_from_dict({})
        assert cfg.template == "tiny4"
        assert cfg.swarm.particles == 20
        assert cfg.trainer.momentum == 0.9

    @pytest.mark.parametrize("raw,key", [
        ({"epsilom": 0.1}, "epsilom"),
        ({"swarm": {"particle": 3}}, "swarm.particle"),
        ({"dataset": {"classes": 3}}, "dataset.classes"),
        ({"trainer": {"lr": 0.1}}, "trainer.lr"),
        ({"neighborhood": {"eps": 0.1}}, "neighborhood.eps"),
        ({"swarm": {"gbest_update": "iteration"}}, "swarm.gbest_update"),
        ({"dump_similarity": True}, "dump_similarity"),
    ])
    def test_unknown_key_named(self, raw, key):
        with pytest.raises(PruneKitError, match=rf"unknown config key {key} "):
            pipeline.config_from_dict(raw)

    @pytest.mark.parametrize("raw,first,second", [
        ({"out": "a", "out_dir": "b"}, "out", "out_dir"),
        ({"out_dir": "b", "out": "a"}, "out_dir", "out"),
        ({"epsilon": 0.3, "neighborhood": {"epsilon": 0.1}}, "epsilon", "neighborhood.epsilon"),
        ({"min_pts": 3, "neighborhood": {"min_pts": 4}}, "min_pts", "neighborhood.min_pts"),
    ])
    def test_both_spellings_of_a_setting_rejected(self, raw, first, second):
        with pytest.raises(PruneKitError, match=rf"config keys {first} and {second} both set"):
            pipeline.config_from_dict(raw)

    def test_section_must_be_mapping(self):
        with pytest.raises(PruneKitError, match="config swarm must be a mapping"):
            pipeline.config_from_dict({"swarm": 3})

    @pytest.mark.parametrize("raw,key", [
        ({"epsilon": "abc"}, "epsilon"),
        ({"baseline_epochs": [1]}, "baseline_epochs"),
        ({"template": 7}, "template"),
        ({"swarm": {"particles": "six"}}, "swarm.particles"),
        ({"dataset": {"train_size": "many"}}, "dataset.train_size"),
        ({"trainer": {"lr_drops": 5}}, "trainer.lr_drops"),
        ({"trainer": {"lr_drops": [5]}}, "trainer.lr_drops"),
        ({"trainer": {"lr_drops": [[0.5, "ten"]]}}, "trainer.lr_drops"),
        ({"neighborhood": {"min_pts": 2.5}}, "neighborhood.min_pts"),
        ({"out": 3}, "out"),
        ({"swarm": {"particles": True}}, "swarm.particles"),
        ({"swarm": {"seed": "x"}}, "swarm.seed"),
    ])
    def test_wrong_type_named(self, raw, key):
        with pytest.raises(PruneKitError, match=rf"\b{key} must be a"):
            pipeline.config_from_dict(raw)

    @pytest.mark.parametrize("dataset,key", [
        ({"name": "cifar10", "train_size": 100}, "train_size"),
        ({"name": "cifar10", "test_size": 100}, "test_size"),
        ({"name": "cifar10", "image_size": 32}, "image_size"),
        ({"name": "cifar10", "channels": 1}, "channels"),
        ({"name": "cifar10", "noise": 0.2}, "noise"),
        ({"name": "synthetic", "path": "/data"}, "path"),
        ({"path": "/data"}, "path"),
    ])
    def test_dataset_key_the_dataset_does_not_read_is_rejected(self, dataset, key):
        # each key is hashed into the run directory, so ignoring one would
        # start a new run of the same experiment
        name = dataset.get("name", "synthetic")
        message = rf"config key dataset\.{key} is not used by dataset {name} "
        with pytest.raises(PruneKitError, match=message):
            pipeline.config_from_dict({"dataset": dataset})
        with pytest.raises(PruneKitError, match=message):
            pipeline.DatasetConfig(**dataset)

    def test_dataset_keys_at_their_defaults_are_accepted(self):
        cifar = pipeline.config_from_dict({"dataset": {
            "name": "cifar10", "path": "/data", "num_classes": 10, "train_size": 512,
            "noise": 0.15}}).dataset
        assert (cifar.path, cifar.num_classes) == ("/data", 10)
        assert pipeline.DatasetConfig(path=".", train_size=64).train_size == 64

    def test_int_for_float_list_for_tuple_and_null_seed_accepted(self):
        cfg = pipeline.config_from_dict({"epsilon": 1, "swarm": {"seed": None, "v_max": 3},
                                         "trainer": {"lr_drops": [[0.5, 10]]}})
        assert cfg.epsilon == 1 and cfg.swarm.v_max == 3 and cfg.swarm.seed is None
        assert cfg.trainer.lr_drops == ((0.5, 10),)

    def test_bad_trainer_value_fails_at_load(self, tmp_path):
        path = tmp_path / "exp.yaml"
        path.write_text("trainer:\n  momentum: 1.5\n")
        with pytest.raises(BoundsError, match="momentum"):
            pipeline.load_config(path)

    def test_readme_configuration_block_loads(self, tmp_path):
        """README's Configuration example is a config the loader accepts."""
        with open(os.path.join(os.path.dirname(__file__), "..", "README.md")) as fh:
            readme = fh.read()
        section = readme[readme.index("## Configuration"):]
        start = section.index("```yaml\n") + len("```yaml\n")
        path = tmp_path / "readme.yaml"
        path.write_text(section[start:section.index("```", start)])
        cfg = pipeline.load_config(path)
        assert (cfg.template, cfg.epsilon, cfg.min_pts) == ("tiny4", 0.05, 3)
        assert cfg.swarm.particles == 6 and cfg.trainer.lr_drops == ((0.5, 10.0), (0.75, 10.0))


def spy_on_training(monkeypatch) -> list:
    """The widths of each net the pipeline trains from here on (baseline,
    proxy and retrain alike), in the order it trains them."""
    trained = []

    def spying(train):
        def spy(net, *args, **kwargs):
            trained.append(tuple(net.template.original_structure()))
            return train(net, *args, **kwargs)
        return spy
    monkeypatch.setattr(pipeline, "train", spying(pipeline.train))
    monkeypatch.setattr(pipeline.swarm.nncore, "train", spying(pipeline.swarm.nncore.train))
    return trained


TINY4_CSVS = [f"similarity_slot{slot:02d}.csv" for slot in archspec.tiny4().prunable_slots]


def copy_of_finished_run(desk_run_pair, tmp_path):
    """A desk config whose run directory is a copy of the finished desk run,
    and that directory's files as bytes."""
    config = desk_experiment_config(tmp_path / "copy")
    shutil.copytree(desk_run_pair["config_a"].run_dir(), config.run_dir())
    return config, {name: Path(config.run_dir(), name).read_bytes()
                    for name in os.listdir(config.run_dir())}


def assert_same_run(config, before):
    """The run directory holds the files ``before`` holds, byte for byte;
    report.json, rewritten with this run's timings, by its comparable part."""
    assert sorted(os.listdir(config.run_dir())) == sorted(before)
    for name, data in before.items():
        got = Path(config.run_dir(), name).read_bytes()
        if name == "report.json":
            got, data = (RunReport.from_dict(json.loads(d)).comparable_dict()
                         for d in (got, data))
        assert got == data, name


class TestDeskRun:
    """End-to-end assertions against the session-shared desk experiment."""

    def test_artifacts_exist(self, desk_run_pair):
        run_dir = desk_run_pair["config_a"].run_dir()
        for name in ("baseline.ckpt", "baseline.json", "coarse.json",
                     *TINY4_CSVS,
                     "search.json", "swarm_state.json", "swarm_trace.jsonl",
                     "final.ckpt", "retrain.json", "report.json", "report.txt"):
            assert os.path.exists(os.path.join(run_dir, name)), name

    def test_report_json_round_trips(self, desk_run_pair):
        run_dir = desk_run_pair["config_a"].run_dir()
        loaded = RunReport.load(os.path.join(run_dir, "report.json"))
        assert loaded.comparable_dict() == \
            desk_run_pair["report_a"].comparable_dict()

    def test_coarse_strictly_narrower_somewhere(self, desk_run_pair):
        report = desk_run_pair["report_a"]
        assert any(c < o for c, o in zip(report.coarse_structure,
                                         report.original_structure))
        assert all(1 <= c <= o for c, o in zip(report.coarse_structure,
                                               report.original_structure))

    def test_drops_recompute_from_structure(self, desk_run_pair):
        report = desk_run_pair["report_a"]
        template = archspec.get_template(
            "tiny4", num_classes=desk_run_pair["config_a"].dataset.num_classes)
        original = tuple(report.original_structure)
        final = tuple(report.final_structure)
        assert report.baseline["params"] == archspec.param_count(template, original)
        assert report.final["params"] == archspec.param_count(template, final)
        assert report.baseline["flops"] == archspec.flops_count(template, original)
        assert report.final["flops"] == archspec.flops_count(template, final)
        want_param, want_flop = archspec.compression_report(template, original, final)
        assert report.final["param_drop_percent"] == want_param
        assert report.final["flop_drop_percent"] == want_flop

    def test_retrain_budget_matches_flop_ratio(self, desk_run_pair):
        report = desk_run_pair["report_a"]
        assert report.retrain_epochs == pipeline.retrain_epochs(
            desk_run_pair["config_a"].baseline_epochs,
            report.baseline["flops"], report.final["flops"])

    def test_same_seed_runs_agree_exactly(self, desk_run_pair):
        a = desk_run_pair["report_a"].comparable_dict()
        b = desk_run_pair["report_b"].comparable_dict()
        assert a == b

    def test_swarm_traces_byte_identical(self, desk_run_pair):
        trace_a = os.path.join(desk_run_pair["config_a"].run_dir(),
                               "swarm_trace.jsonl")
        trace_b = os.path.join(desk_run_pair["config_b"].run_dir(),
                               "swarm_trace.jsonl")
        with open(trace_a, "rb") as fa, open(trace_b, "rb") as fb:
            assert fa.read() == fb.read()

    def test_resume_skips_training_and_agrees(self, desk_run_pair, monkeypatch):
        import time
        config = desk_run_pair["config_a"]
        trained = spy_on_training(monkeypatch)
        start = time.perf_counter()
        report = pipeline.run(config)
        elapsed = time.perf_counter() - start
        assert report.comparable_dict() == \
            desk_run_pair["report_a"].comparable_dict()
        assert elapsed < 10.0  # all stages reused, no retraining
        assert len(trained) == 0

    def test_normalization_recorded(self, desk_run_pair):
        norm = desk_run_pair["report_a"].normalization
        assert len(norm["mean"]) == 3
        assert len(norm["std"]) == 3


class TestRerun:
    def test_rerun_keeps_one_trace_row_per_epoch(self, tmp_path):
        config = dataclasses.replace(
            desk_experiment_config(tmp_path), baseline_epochs=2,
            swarm=SwarmConfig(particles=2, iterations=1, proxy_epochs=1))
        run_dir = config.run_dir()
        # a baseline that died after one epoch left a partial trace behind
        os.makedirs(run_dir)
        with open(os.path.join(run_dir, "baseline_trace.csv"), "w") as fh:
            fh.write("epoch,lr,train_loss,test_accuracy\n0,0.1,1.0,0.5\n")
        for _ in range(2):
            report = pipeline.run(config)
        for name, epochs in (("baseline_trace.csv", config.baseline_epochs),
                             ("final_trace.csv", report.retrain_epochs)):
            with open(os.path.join(run_dir, name)) as fh:
                lines = fh.read().splitlines()
            assert lines[0] == "epoch,lr,train_loss,test_accuracy", name
            assert [line.split(",")[0] for line in lines[1:]] == \
                [str(e) for e in range(epochs)], name

class TestKilledWriteLitter:
    def test_resume_deletes_tmp_files_and_keeps_the_rest(self, desk_run_pair, tmp_path):
        """A write killed inside util._atomic_write leaves <name>.<random>.tmp
        behind; the next run of the directory deletes it."""
        config, before = copy_of_finished_run(desk_run_pair, tmp_path)
        litter = os.path.join(config.run_dir(), "search.json.killed.tmp")
        with open(litter, "w") as fh:
            fh.write('{"best": [1')
        report = pipeline.run(config)
        assert not os.path.exists(litter)
        assert_same_run(config, before)
        assert report.comparable_dict() == \
            RunReport.from_dict(json.loads(before["report.json"])).comparable_dict()


def load_crash_sweep():
    spec = importlib.util.spec_from_file_location(
        "crash_sweep", Path(__file__).resolve().parent.parent / "scripts" / "crash_sweep.py")
    crash_sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(crash_sweep)
    return crash_sweep


class TestCrashSweep:
    def test_an_error_at_each_write_point_resumes_to_the_same_files(self, tmp_path):
        """An OSError in place of each atomic write and each trace record of
        a small run, in turn; each crashed run, resumed, holds the
        uninterrupted run's files (scripts/crash_sweep.py; CI runs its
        SIGKILL form)."""
        count, failures = load_crash_sweep().sweep(tmp_path, log=lambda line: None)
        assert count and not failures, failures

    def test_each_damaged_file_stops_naming_it_or_resumes_to_the_same_files(self, tmp_path):
        """Each file of the small run, cut, flipped, swapped for another
        seed's or deleted in turn (scripts/crash_sweep.py --damage)."""
        count, failures = load_crash_sweep().damage_sweep(tmp_path, log=lambda line: None)
        assert count == 56 and not failures, failures


def trace_structures(config):
    with open(os.path.join(config.run_dir(), "swarm_trace.jsonl")) as fh:
        return {tuple(json.loads(line)["structure"]) for line in fh}


class TestResumedSearch:
    def run_crashed_at_iteration_2(self, tmp_path, monkeypatch):
        """An uninterrupted search, and a copy that crashed at its iteration-2
        swarm_state.json write, after that iteration's trace lines."""
        config = dataclasses.replace(
            desk_experiment_config(tmp_path / "full"), baseline_epochs=1,
            swarm=SwarmConfig(particles=3, iterations=4, proxy_epochs=1))
        pipeline.run(config, through="search")
        crashed = dataclasses.replace(config, out_dir=str(tmp_path / "crashed"))
        write = pipeline.swarm.write_text_atomic

        def crash_at_iteration_2(path, text):
            if json.loads(text)["iteration"] == 2:
                raise OSError("synthetic crash")
            write(path, text)
        monkeypatch.setattr(pipeline.swarm, "write_text_atomic", crash_at_iteration_2)
        with pytest.raises(OSError, match="synthetic crash"):
            pipeline.run(crashed, through="search")
        monkeypatch.setattr(pipeline.swarm, "write_text_atomic", write)
        return config, crashed

    def assert_same_search(self, config, crashed):
        for name in ("search.json", "swarm_trace.jsonl"):
            with open(os.path.join(config.run_dir(), name), "rb") as fa, \
                    open(os.path.join(crashed.run_dir(), name), "rb") as fb:
                assert fb.read() == fa.read(), name

    def test_search_json_matches_uninterrupted_run(self, tmp_path, monkeypatch):
        """A search that crashed at a swarm_state.json write and was resumed
        writes the same search.json as one that never stopped."""
        config, crashed = self.run_crashed_at_iteration_2(tmp_path, monkeypatch)
        pipeline.run(crashed, through="search")
        self.assert_same_search(config, crashed)

    def test_resume_trains_only_structures_the_old_trace_lacks(self, tmp_path, monkeypatch):
        """The resumed search replays the old trace from iteration 0, and a
        structure an old line scored is not trained again."""
        config, crashed = self.run_crashed_at_iteration_2(tmp_path, monkeypatch)
        scored = trace_structures(crashed)
        trained = spy_on_training(monkeypatch)
        pipeline.run(crashed, through="search")
        assert sorted(trained) == sorted(trace_structures(crashed) - scored)
        self.assert_same_search(config, crashed)

    def test_rerun_after_a_cut_trace_trains_only_the_missing_structures(
            self, desk_run_pair, tmp_path, monkeypatch):
        """A finished desk run whose trace is cut mid iteration 1 and whose
        search.json is gone: a plain rerun trains only the structures the
        kept lines lack, reuses every other stage, and ends in the
        uninterrupted run's files."""
        config, before = copy_of_finished_run(desk_run_pair, tmp_path)
        lines = before["swarm_trace.jsonl"].splitlines(keepends=True)
        kept = lines[:config.swarm.particles + 2]
        Path(config.run_dir(), "swarm_trace.jsonl").write_bytes(b"".join(kept))
        os.remove(os.path.join(config.run_dir(), "search.json"))
        trained = spy_on_training(monkeypatch)
        pipeline.run(config)
        missing = trace_structures(config) - {tuple(json.loads(line)["structure"])
                                              for line in kept}
        assert missing and sorted(trained) == sorted(missing)
        assert_same_run(config, before)


class TestFailureRecording:
    def test_input_shape_mismatch_rejected_up_front(self, tmp_path):
        from prunekit.errors import PruneKitError
        config = desk_experiment_config(tmp_path)
        bad = dataclasses.replace(
            config, dataset=dataclasses.replace(config.dataset, image_size=8))
        with pytest.raises(PruneKitError, match="input shape"):
            pipeline.run(bad)
        assert not os.path.exists(bad.run_dir())
        assert not os.listdir(tmp_path)

    def test_class_count_mismatch_rejected_up_front(self, tmp_path):
        root = tmp_path / "cifar"
        root.mkdir()
        write_fake_cifar(root)
        config = pipeline.config_from_dict({
            "template": "vgg16-cifar", "out": str(tmp_path / "runs"),
            "dataset": {"name": "cifar10", "path": str(root)}})
        with pytest.raises(PruneKitError, match=(
                "dataset 'cifar10' has 10 classes but template vgg16-cifar has 4")):
            pipeline.run(config)
        assert not os.path.exists(config.run_dir())
        assert not (tmp_path / "runs").exists()

    def test_stage_error_writes_failure_report(self, tmp_path, monkeypatch):
        # quick baseline so the failure fires fast
        config = dataclasses.replace(desk_experiment_config(tmp_path),
                                     baseline_epochs=1)

        def boom(*args, **kwargs):
            raise RuntimeError("synthetic stage failure")

        monkeypatch.setattr(pipeline.swarm, "search", boom)
        with pytest.raises(RuntimeError, match="synthetic stage failure"):
            pipeline.run(config)
        report = RunReport.load(os.path.join(config.run_dir(), "report.json"))
        assert report.failed_stage == "search"
        assert "synthetic stage failure" in report.error
        assert report.final_structure == []
        # earlier stages' timings were still captured
        assert "baseline" in report.stage_seconds
        assert "coarse" in report.stage_seconds


def rewrite(config, name, data):
    """Write ``data`` (bytes, or a dict as JSON) over run-directory file
    ``name``; returns the file's path and its new bytes."""
    path = os.path.join(config.run_dir(), name)
    if isinstance(data, dict):
        data = (json.dumps(data, indent=2) + "\n").encode()
    Path(path).write_bytes(data)
    return path, data


def edit_json(config, before, name, change):
    """Rewrite run-directory JSON ``name`` as ``change`` leaves its dict."""
    saved = json.loads(before[name])
    change(saved)
    return rewrite(config, name, saved)


def assert_stops(config, stage, path, damaged, problem=".*"):
    """A rerun stops at ``stage`` with an error naming ``path`` as the file
    to delete, records the stage as failed and leaves ``path`` holding
    ``damaged``."""
    with pytest.raises(PruneKitError, match=(
            rf"^{stage} stage: reused {re.escape(path)}: {problem}; delete it to recompute$")):
        pipeline.run(config)
    assert RunReport.load(os.path.join(config.run_dir(), "report.json")).failed_stage == stage
    assert Path(path).read_bytes() == damaged


def assert_recomputed_without(config, before, path):
    """Once ``path`` is deleted, a rerun ends in the files ``before`` holds."""
    os.remove(path)
    pipeline.run(config)
    assert_same_run(config, before)


def own_digest_differs(name):
    return rf"the digest {re.escape(name)} records for {re.escape(name)} does not match"


def coarse_prune_narrower(monkeypatch):
    """From here on the coarse stage computes each width one narrower."""
    coarse_prune = cluster.coarse_prune

    def narrower(*args, **kwargs):
        structure, reports = coarse_prune(*args, **kwargs)
        return [max(1, width - 1) for width in structure], reports
    monkeypatch.setattr(cluster, "coarse_prune", narrower)


class TestResumeChecks:
    """A stage is reused only when each sha256 its JSON records matches: of
    the JSON's other keys, of each file the stage read and of each other
    file it wrote. An edited or foreign file stops the run with an error
    naming the file whose deletion recomputes the stage (the damage sweep
    deletes it in every case and checks the rerun's files)."""

    def test_truncated_coarse_json(self, desk_run_pair, tmp_path):
        config, before = copy_of_finished_run(desk_run_pair, tmp_path)
        path, damaged = edit_json(config, before, "coarse.json",
                                  lambda saved: saved["structure"].pop())
        assert_stops(config, "coarse", path, damaged, own_digest_differs("coarse.json"))

    def test_over_wide_search_json(self, desk_run_pair, tmp_path):
        config, before = copy_of_finished_run(desk_run_pair, tmp_path)
        widths = list(archspec.get_template("tiny4").original_structure())
        widths[2] += 1
        path, damaged = edit_json(config, before, "search.json",
                                  lambda saved: saved.update(best=widths))
        assert_stops(config, "search", path, damaged, own_digest_differs("search.json"))

    def test_truncated_retrain_json(self, desk_run_pair, tmp_path):
        config, before = copy_of_finished_run(desk_run_pair, tmp_path)
        path, damaged = edit_json(config, before, "retrain.json",
                                  lambda saved: saved["structure"].pop())
        assert_stops(config, "retrain", path, damaged, own_digest_differs("retrain.json"))

    def test_over_wide_retrain_json(self, desk_run_pair, tmp_path):
        config, before = copy_of_finished_run(desk_run_pair, tmp_path)
        path, damaged = edit_json(
            config, before, "retrain.json",
            lambda saved: saved.update(structure=[999, *saved["structure"][1:]]))
        assert_stops(config, "retrain", path, damaged, own_digest_differs("retrain.json"))

    @pytest.mark.parametrize("stage,name,text", [
        ("baseline", "baseline.json", "{"),
        ("coarse", "coarse.json", "{"),
        ("coarse", "coarse.json", '{"structur": [1, 1, 1, 1]}'),
        ("search", "search.json", "{"),
        ("search", "search.json", '{"structure": [1, 1, 1, 1]}'),
        ("retrain", "retrain.json", "{"),
        ("retrain", "retrain.json", '{"best": [1, 1, 1, 1]}'),
    ])
    def test_malformed_artifact_names_stage_and_file(self, desk_run_pair, tmp_path,
                                                     stage, name, text):
        """A torn JSON, and one without digests (as every JSON written
        before they were recorded), stop the run naming the file."""
        config, before = copy_of_finished_run(desk_run_pair, tmp_path)
        path, damaged = rewrite(config, name, text.encode())
        problem = "not valid JSON: .*" if text == "{" else "records no digests"
        assert_stops(config, stage, path, damaged, problem)

    @pytest.mark.parametrize("name,key", [("retrain.json", "accuracy"),
                                          ("baseline.json", "epochs")])
    def test_reused_artifact_missing_a_report_field(self, desk_run_pair, tmp_path,
                                                    name, key):
        config, before = copy_of_finished_run(desk_run_pair, tmp_path)
        path, damaged = edit_json(config, before, name, lambda saved: saved.pop(key))
        assert_stops(config, name.split(".")[0], path, damaged, own_digest_differs(name))

    @pytest.mark.parametrize("stage,name", [("baseline", "baseline.ckpt"),
                                            ("retrain", "final.ckpt")])
    def test_torn_checkpoint_names_the_file_to_delete(self, desk_run_pair, tmp_path,
                                                      stage, name):
        config, before = copy_of_finished_run(desk_run_pair, tmp_path)
        path, damaged = rewrite(config, name, before[name][:100])
        artifact = {"baseline": "baseline.json", "retrain": "retrain.json"}[stage]
        assert_stops(
            config, stage, path, damaged,
            rf"the digest {artifact} records for {re.escape(name)} does not match")
        assert_recomputed_without(config, before, path)

    def test_retrain_json_of_another_structure_names_the_file_to_delete(self, desk_run_pair,
                                                                        tmp_path):
        """A reused retrain.json must be the one the search's structure
        trained, even when final.ckpt is."""
        config, before = copy_of_finished_run(desk_run_pair, tmp_path)
        assert json.loads(before["retrain.json"])["structure"] == \
            json.loads(before["search.json"])["best"] != [1, 1, 1, 1]
        path, damaged = edit_json(config, before, "retrain.json",
                                  lambda saved: saved.update(structure=[1, 1, 1, 1]))
        assert_stops(config, "retrain", path, damaged, own_digest_differs("retrain.json"))
        assert_recomputed_without(config, before, path)

    def test_foreign_final_checkpoint_names_the_file_to_delete(self, desk_run_pair, tmp_path):
        config, before = copy_of_finished_run(desk_run_pair, tmp_path)
        path, damaged = rewrite(config, "final.ckpt", before["baseline.ckpt"])
        assert_stops(
            config, "retrain", path, damaged,
            r"the digest retrain\.json records for final\.ckpt does not match")
        assert_recomputed_without(config, before, path)

    def test_valid_artifacts_are_reused(self, desk_run_pair, tmp_path, monkeypatch):
        """A run's own artifacts are reused, and nothing is trained."""
        config, before = copy_of_finished_run(desk_run_pair, tmp_path)
        trained = spy_on_training(monkeypatch)
        pipeline.run(config)
        assert trained == []
        assert_same_run(config, before)

    def test_stale_stages_after_a_computed_one_are_computed_afresh(self, desk_run_pair,
                                                                  tmp_path, monkeypatch):
        """A coarse stage computed to other bytes makes the search and the
        retrain stale: each deletes its written files, the trace first, and
        then its JSON, and is computed afresh, so the search replays nothing."""
        config, before = copy_of_finished_run(desk_run_pair, tmp_path)
        os.remove(os.path.join(config.run_dir(), "coarse.json"))
        search = swarm.search
        traces, unlinked, unlink = [], [], os.unlink

        def spy(*args, trace_path, **kwargs):
            traces.append(os.path.exists(trace_path))
            return search(*args, trace_path=trace_path, **kwargs)

        def spy_unlink(path, *args, **kwargs):
            unlinked.append(os.path.basename(path))
            unlink(path, *args, **kwargs)
        coarse_prune_narrower(monkeypatch)
        monkeypatch.setattr(swarm, "search", spy)
        monkeypatch.setattr(os, "unlink", spy_unlink)
        report = pipeline.run(config)
        assert report.failed_stage is None
        assert traces == [False]
        assert unlinked == ["swarm_trace.jsonl", "swarm_state.json", "search.json",
                            "final.ckpt", "final_trace.csv", "retrain.json"]
        for name in ("coarse.json", "search.json", "retrain.json", "final.ckpt"):
            assert Path(config.run_dir(), name).read_bytes() != before[name], name
        first = json.loads(Path(config.run_dir(), "swarm_trace.jsonl").read_text().splitlines()[0])
        assert first != json.loads(before["swarm_trace.jsonl"].splitlines()[0])

    def test_a_stale_search_killed_midway_replays_only_its_own_trace(self, desk_run_pair,
                                                                    tmp_path, monkeypatch):
        """A search computed afresh after a changed coarse.json and killed at
        its 10th fitness evaluation has lost its old search.json, so the
        next run replays the new partial trace and ends in the files of an
        uninterrupted recompute."""
        class Killed(BaseException):
            pass
        proxy_train, calls = swarm.nncore.train, []

        def killed_at_the_10th(*args, **kwargs):
            calls.append(1)
            if len(calls) == 10:
                raise Killed
            return proxy_train(*args, **kwargs)
        coarse_prune_narrower(monkeypatch)
        runs = {}
        for name in ("uninterrupted", "killed"):
            runs[name], _ = copy_of_finished_run(desk_run_pair, tmp_path / name)
            os.remove(os.path.join(runs[name].run_dir(), "coarse.json"))
        pipeline.run(runs["uninterrupted"])
        with monkeypatch.context() as m:
            m.setattr(swarm.nncore, "train", killed_at_the_10th)
            with pytest.raises(Killed):
                pipeline.run(runs["killed"])
        run_dir = runs["killed"].run_dir()
        assert os.path.exists(os.path.join(run_dir, "swarm_state.json"))
        assert not os.path.exists(os.path.join(run_dir, "search.json"))
        pipeline.run(runs["killed"])
        assert_same_run(runs["killed"], {
            name: Path(runs["uninterrupted"].run_dir(), name).read_bytes()
            for name in os.listdir(runs["uninterrupted"].run_dir())})

    @pytest.mark.parametrize("name", ["coarse.json", "final.ckpt"])
    def test_own_damage_stops_after_a_computed_stage(self, desk_run_pair, tmp_path, name):
        """A recomputed baseline does not excuse a stage's edited keys or a
        damaged file it wrote: the run still stops naming it."""
        config, before = copy_of_finished_run(desk_run_pair, tmp_path)
        os.remove(os.path.join(config.run_dir(), "baseline_trace.csv"))
        if name == "coarse.json":
            path, damaged = edit_json(config, before, name,
                                      lambda saved: saved.update(structure=[4, 4, 4, 4]))
            assert_stops(config, "coarse", path, damaged, own_digest_differs(name))
        else:
            path, damaged = rewrite(config, name, before[name][:100])
            assert_stops(config, "retrain", path, damaged,
                         r"the digest retrain\.json records for final\.ckpt does not match")
        assert_recomputed_without(config, before, path)


class TestDamageCaught:
    """Edits that a rerun once took as they were: each now stops the run
    with an error naming a file."""

    def test_coarse_structure_edited(self, desk_run_pair, tmp_path):
        config, before = copy_of_finished_run(desk_run_pair, tmp_path)
        path, damaged = edit_json(config, before, "coarse.json",
                                  lambda saved: saved.update(structure=[4, 4, 4, 4]))
        assert_stops(config, "coarse", path, damaged, own_digest_differs("coarse.json"))

    def test_baseline_accuracy_edited(self, desk_run_pair, tmp_path):
        config, before = copy_of_finished_run(desk_run_pair, tmp_path)
        path, damaged = edit_json(config, before, "baseline.json",
                                  lambda saved: saved.update(accuracy=0.01))
        assert_stops(config, "baseline", path, damaged, own_digest_differs("baseline.json"))

    def test_another_seeds_baseline_checkpoint_and_coarse_json(self, desk_run_pair, tmp_path):
        """The baseline stops on the foreign checkpoint; recomputed, it makes
        the foreign coarse.json stale, so the coarse stage is computed afresh
        and the run ends in the uninterrupted run's files."""
        config, before = copy_of_finished_run(desk_run_pair, tmp_path)
        other = desk_experiment_config(tmp_path / "other", seed=5)
        pipeline.run(other, through="coarse")
        foreign = {name: Path(other.run_dir(), name).read_bytes()
                   for name in ("baseline.ckpt", "coarse.json")}
        assert all(foreign[name] != before[name] for name in foreign)
        ckpt, _ = rewrite(config, "baseline.ckpt", foreign["baseline.ckpt"])
        coarse, _ = rewrite(config, "coarse.json", foreign["coarse.json"])
        with pytest.raises(PruneKitError, match=(
                rf"^baseline stage: reused {re.escape(ckpt)}: the digest baseline\.json "
                r"records for baseline\.ckpt does not match; delete it to recompute$")):
            pipeline.run(config)
        assert Path(coarse).read_bytes() == foreign["coarse.json"]
        assert_recomputed_without(config, before, ckpt)

    def test_baseline_trace_cut(self, desk_run_pair, tmp_path):
        config, before = copy_of_finished_run(desk_run_pair, tmp_path)
        kept = b"".join(before["baseline_trace.csv"].splitlines(keepends=True)[:3])
        path, damaged = rewrite(config, "baseline_trace.csv", kept)
        assert_stops(
            config, "baseline", path, damaged,
            r"the digest baseline\.json records for baseline_trace\.csv does not match")

    def test_changed_cifar_batch_stops_the_baseline(self, tmp_path):
        """The baseline of a CIFAR-10 run records the sha256 of each batch
        file, so a run after one changes stops naming it, and names the
        baseline's checkpoint as the file to delete. Once it is deleted, the
        recomputed baseline makes every later stage stale, and one more run
        ends in a fresh run's files on the changed data."""
        root = tmp_path / "cifar"
        root.mkdir()
        write_fake_cifar(root)
        template = tmp_path / "cifar4.yaml"
        template.write_text(
            "input_shape: [3, 32, 32]\nnum_classes: 10\nlayers:\n"
            "  - {kind: conv, out_channels: 4, kernel: 3, padding: 1}\n"
            "  - {kind: batchnorm}\n  - {kind: activation}\n"
            "  - {kind: pool, kernel: 2, stride: 2}\n  - {kind: classifier-head}\n")

        def cifar_config(out):
            return pipeline.config_from_dict({
                "template": str(template), "out": str(tmp_path / out),
                "dataset": {"name": "cifar10", "path": str(root), "num_classes": 10},
                "sample_count": 8, "min_pts": 3, "baseline_epochs": 1,
                "swarm": {"particles": 2, "iterations": 1, "proxy_epochs": 1},
                "trainer": {"batch_size": 8}})
        config = cifar_config("runs")
        pipeline.run(config)
        old = {name: Path(config.run_dir(), name).read_bytes()
               for name in os.listdir(config.run_dir())}
        batch = root / "data_batch_3.bin"
        data = bytearray(batch.read_bytes())
        data[1] ^= 1  # a pixel of the first record
        batch.write_bytes(bytes(data))
        ckpt = os.path.join(config.run_dir(), "baseline.ckpt")
        with pytest.raises(PruneKitError, match=(
                rf"^baseline stage: reused {re.escape(ckpt)}: the digest baseline\.json "
                rf"records for {re.escape(str(batch))} does not match; delete it to recompute$")):
            pipeline.run(config)
        assert RunReport.load(os.path.join(config.run_dir(), "report.json")).failed_stage \
            == "baseline"

        os.remove(ckpt)
        pipeline.run(config)
        fresh = cifar_config("fresh")
        pipeline.run(fresh)
        files = sorted(os.listdir(config.run_dir()))
        assert files == sorted(os.listdir(fresh.run_dir()))
        for name in files:
            if name != "report.json":
                data = Path(config.run_dir(), name).read_bytes()
                assert data == Path(fresh.run_dir(), name).read_bytes(), name
        # every stage was computed afresh on the changed data
        assert all(Path(config.run_dir(), name).read_bytes() != old[name]
                   for name in ("baseline.json", "coarse.json", "search.json", "retrain.json"))


def _disk_full(*args):
    raise OSError("disk full")


class TestSimilarityCsvs:
    def coarse_run(self, out_dir):
        run = pipeline.ExperimentRun(desk_experiment_config(out_dir))
        return run, Network(run.template, seed=0)

    def csvs(self, run):
        return {name: Path(run.path(name)).read_bytes()
                for name in os.listdir(run.run_dir) if name.startswith("similarity_slot")}

    def test_a_missing_csv_recomputes_the_coarse_stage_alone(self, desk_run_pair, tmp_path,
                                                            monkeypatch):
        """The CSVs are files the coarse stage writes: with one gone, the
        stage is computed again, to the same coarse.json and CSVs, and every
        other stage is reused."""
        config, before = copy_of_finished_run(desk_run_pair, tmp_path)
        assert sorted(name for name in before if name.startswith("similarity_slot")) == \
            TINY4_CSVS
        os.remove(os.path.join(config.run_dir(), TINY4_CSVS[1]))
        trained, calls, coarse_prune = spy_on_training(monkeypatch), [], cluster.coarse_prune

        def spy(*args, **kwargs):
            calls.append(1)
            return coarse_prune(*args, **kwargs)
        monkeypatch.setattr(cluster, "coarse_prune", spy)
        pipeline.run(config)
        assert len(calls) == 1 and trained == []
        assert_same_run(config, before)

    @pytest.mark.parametrize("fault", ["write", "fsync"])
    def test_an_error_in_the_third_csv_leaves_no_torn_file(self, tmp_path, monkeypatch, fault):
        """The third CSV fails before its file is opened, or at its fsync."""
        clean, net = self.coarse_run(tmp_path / "clean")
        clean.stage_coarse(net)
        expected = self.csvs(clean)
        assert len(expected) == 4

        run, net = self.coarse_run(tmp_path / "cut")
        written, dump = [], featstats.dump_similarity_csv

        def third_fails(path, sim):
            written.append(os.path.basename(path))
            with monkeypatch.context() as m:
                if len(written) == 3 and fault == "write":
                    m.setattr(featstats, "write_text_atomic", _disk_full)
                elif len(written) == 3:
                    m.setattr(os, "fsync", _disk_full)
                dump(path, sim)
        monkeypatch.setattr(featstats, "dump_similarity_csv", third_fails)
        with pytest.raises(OSError, match="disk full"):
            run.stage_coarse(net)
        assert sorted(self.csvs(run)) == written[:2]
        assert not [name for name in os.listdir(run.run_dir) if name.endswith(".tmp")]

        monkeypatch.undo()
        run.stage_coarse(net)
        assert self.csvs(run) == expected


class TestReportLoad:
    def write(self, tmp_path, text):
        path = tmp_path / "report.json"
        path.write_text(text)
        return str(path)

    def test_round_trip(self, tmp_path):
        report = TestRenderTable().make_report()
        path = str(tmp_path / "report.json")
        report.save(path)
        assert RunReport.load(path) == report

    def test_torn_file(self, tmp_path):
        path = self.write(tmp_path, '{"dataset_name": "CIFAR10", "templ')
        with pytest.raises(PruneKitError, match=rf"{path} is not valid JSON"):
            RunReport.load(path)

    def test_missing_field(self, tmp_path):
        data = TestRenderTable().make_report().to_dict()
        del data["final_structure"]
        path = self.write(tmp_path, json.dumps(data))
        with pytest.raises(PruneKitError,
                           match=rf"{path} is not a run report: .*final_structure"):
            RunReport.load(path)

    def test_not_an_object(self, tmp_path):
        path = self.write(tmp_path, "[]")
        with pytest.raises(PruneKitError, match=rf"{path} is not a run report: .*list"):
            RunReport.load(path)


class TestRenderTable:
    def make_report(self):
        return RunReport(
            dataset_name="CIFAR10", template_name="VGG-16",
            epsilon=0.05, min_pts=3,
            original_structure=[64, 64], coarse_structure=[40, 40],
            final_structure=[34, 35],
            baseline={"accuracy": 0.9377, "params": 14730000,
                      "flops": 314590000, "epochs": 160},
            final={"accuracy": 0.9356, "params": 5020000,
                   "flops": 108610000, "param_drop_percent": 65.92,
                   "flop_drop_percent": 65.47},
            retrain_epochs=463)

    def test_column_header_exact(self):
        table = render_table(self.make_report())
        header = table.splitlines()[0].split()
        assert header == list(TABLE_COLUMNS)

    def test_row_cells(self):
        table = render_table(self.make_report())
        lines = table.splitlines()
        assert lines[1].startswith("---")
        base, pruned = lines[2], lines[3]
        assert "CIFAR10" in base and "VGG-16" in base
        assert "93.77" in base and "14.73M" in base and "314.59M" in base
        assert "0.050, 3" in pruned
        assert "93.56" in pruned and "0.21" in pruned
        assert "5.02M" in pruned and "65.92%" in pruned
        assert "108.61M" in pruned and "65.47%" in pruned

    def test_missing_final_renders_dashes(self):
        report = self.make_report()
        report.final = {}
        table = render_table(report)
        pruned = table.splitlines()[3]
        assert pruned.count("-") >= 4

    @pytest.mark.parametrize("params, cell", [
        (14730000, "14.73M"), (1000000, "1.00M"), (8626, "8.63K"), (4080, "4.08K"),
        (1000, "1.00K"), (999, "999"), (0, "0")])
    def test_counts_take_the_unit_they_reach(self, params, cell):
        """A net under 5000 parameters does not read 0.00M."""
        report = self.make_report()
        report.baseline = dict(report.baseline, params=params)
        report.final = dict(report.final, params=params)
        base, pruned = render_table(report).splitlines()[2:]
        assert base.split()[4] == cell
        assert pruned.split()[4] == cell  # "0.050, 3" is two words

    def test_negative_accuracy_drop_keeps_sign(self):
        report = self.make_report()
        report.final = dict(report.final, accuracy=0.9400)
        table = render_table(report)
        assert "-0.23" in table.splitlines()[3]
