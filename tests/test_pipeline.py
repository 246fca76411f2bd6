import json
import os
import shutil

import numpy as np
import pytest

from conftest import desk_experiment_config
from test_data import write_fake_cifar

from prunekit import archspec, pipeline
from prunekit.errors import BoundsError, PruneKitError
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
        import dataclasses
        base = desk_experiment_config(tmp_path)
        for change in ({"epsilon": 0.1}, {"min_pts": 4}, {"sample_count": 64},
                       {"baseline_epochs": 11}, {"template": "vgg16-cifar"}):
            other = dataclasses.replace(base, **change)
            assert other.config_hash() != base.config_hash(), change

    def test_explicit_swarm_seed_is_identity(self, tmp_path):
        import dataclasses
        base = desk_experiment_config(tmp_path)
        pinned = dataclasses.replace(
            base, swarm=dataclasses.replace(base.swarm, seed=7))
        assert pinned.config_hash() != base.config_hash()

    def test_run_dir_layout(self, tmp_path):
        cfg = desk_experiment_config(tmp_path, seed=3)
        assert cfg.run_dir() == os.path.join(
            str(tmp_path), f"tiny4-{cfg.config_hash()}-s3")

    def test_validation_delegates_to_neighborhood(self, tmp_path):
        import dataclasses
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
        ({"dump_similarity": 1}, "dump_similarity"),
        ({"swarm": {"particles": True}}, "swarm.particles"),
        ({"swarm": {"seed": "x"}}, "swarm.seed"),
    ])
    def test_wrong_type_named(self, raw, key):
        with pytest.raises(PruneKitError, match=rf"\b{key} must be a"):
            pipeline.config_from_dict(raw)

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


class TestDeskRun:
    """End-to-end assertions against the session-shared desk experiment."""

    def test_artifacts_exist(self, desk_run_pair):
        run_dir = desk_run_pair["config_a"].run_dir()
        for name in ("baseline.ckpt", "baseline.json", "coarse.json",
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
        original = archspec.NetworkStructure(tuple(report.original_structure))
        final = archspec.NetworkStructure(tuple(report.final_structure))
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

    def test_resume_skips_training_and_agrees(self, desk_run_pair):
        import time
        config = desk_run_pair["config_a"]
        start = time.perf_counter()
        report = pipeline.run(config, resume=True)
        elapsed = time.perf_counter() - start
        assert report.comparable_dict() == \
            desk_run_pair["report_a"].comparable_dict()
        assert elapsed < 10.0  # all stages reused, no retraining

    def test_normalization_recorded(self, desk_run_pair):
        norm = desk_run_pair["report_a"].normalization
        assert len(norm["mean"]) == 3
        assert len(norm["std"]) == 3


class TestRerun:
    def test_rerun_keeps_one_trace_row_per_epoch(self, tmp_path):
        import dataclasses
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

def trace_structures(config):
    with open(os.path.join(config.run_dir(), "swarm_trace.jsonl")) as fh:
        return {tuple(json.loads(line)["structure"]) for line in fh}


class TestResumedSearch:
    def run_crashed_at_iteration_2(self, tmp_path, monkeypatch):
        """An uninterrupted search, and a copy that crashed at its iteration-2
        swarm_state.json write, after that iteration's trace lines."""
        import dataclasses
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
        pipeline.run(crashed, resume=True, through="search")
        self.assert_same_search(config, crashed)

    def test_resume_trains_only_structures_the_old_trace_lacks(self, tmp_path, monkeypatch):
        """The old trace's fitnesses fill the cache, iteration 2's lines
        included, though the search resumes from iteration 1's state."""
        config, crashed = self.run_crashed_at_iteration_2(tmp_path, monkeypatch)
        scored = trace_structures(crashed)
        trained = []
        train = pipeline.swarm.nncore.train

        def spy(net, *args, **kwargs):
            trained.append(tuple(net.template.original_structure()))
            return train(net, *args, **kwargs)
        monkeypatch.setattr(pipeline.swarm.nncore, "train", spy)
        pipeline.run(crashed, resume=True, through="search")
        assert sorted(trained) == sorted(trace_structures(crashed) - scored)
        self.assert_same_search(config, crashed)


class TestFailureRecording:
    def test_input_shape_mismatch_rejected_up_front(self, tmp_path):
        import dataclasses
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
        import dataclasses
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


class TestResumeChecks:
    """A reused coarse.json, search.json or retrain.json must hold one width
    per prunable slot, each within [1, original]; otherwise the stage names
    the file."""

    def write_artifact(self, run, name, key, widths):
        with open(run.path(name), "w") as fh:
            json.dump({key: widths}, fh)

    def test_truncated_coarse_json(self, tmp_path):
        run = pipeline.ExperimentRun(desk_experiment_config(tmp_path))
        original = list(run.template.original_structure())
        self.write_artifact(run, "coarse.json", "structure", original[:-1])
        with pytest.raises(PruneKitError, match=(
                rf"coarse stage: reused .*coarse\.json holds {len(original) - 1} "
                rf"widths, expected {len(original)}")):
            run.stage_coarse(None, resume=True)
        report = RunReport.load(run.path("report.json"))
        assert report.failed_stage == "coarse"

    def test_over_wide_search_json(self, tmp_path):
        run = pipeline.ExperimentRun(desk_experiment_config(tmp_path))
        widths = list(run.template.original_structure())
        widths[2] += 1
        self.write_artifact(run, "search.json", "best", widths)
        with pytest.raises(PruneKitError, match=(
                rf"search stage: reused .*search\.json: width {widths[2]} of slot 2 "
                rf"is outside \[1, {widths[2] - 1}\]")):
            run.stage_search(None, resume=True)

    def write_retrain(self, run, widths):
        self.write_artifact(run, "retrain.json", "structure", widths)
        open(run.path("final.ckpt"), "wb").close()

    def test_truncated_retrain_json(self, tmp_path):
        run = pipeline.ExperimentRun(desk_experiment_config(tmp_path))
        original = list(run.template.original_structure())
        self.write_retrain(run, original[:-1])
        with pytest.raises(PruneKitError, match=(
                rf"retrain stage: reused .*retrain\.json holds {len(original) - 1} "
                rf"widths, expected {len(original)}")):
            run.stage_retrain(None, resume=True)
        report = RunReport.load(run.path("report.json"))
        assert report.failed_stage == "retrain"

    def test_over_wide_retrain_json(self, tmp_path):
        run = pipeline.ExperimentRun(desk_experiment_config(tmp_path))
        widths = list(run.template.original_structure())
        widths[0] = 999
        self.write_retrain(run, widths)
        with pytest.raises(PruneKitError, match=(
                rf"retrain stage: reused .*retrain\.json: width 999 of slot 0 "
                rf"is outside \[1, {run.template.original_structure()[0]}\]")):
            run.stage_retrain(None, resume=True)

    @pytest.mark.parametrize("stage,name,text", [
        ("baseline", "baseline.json", "{"),
        ("coarse", "coarse.json", "{"),
        ("coarse", "coarse.json", '{"structur": [1, 1, 1, 1]}'),
        ("search", "search.json", "{"),
        ("search", "search.json", '{"structure": [1, 1, 1, 1]}'),
        ("retrain", "retrain.json", "{"),
        ("retrain", "retrain.json", '{"best": [1, 1, 1, 1]}'),
    ])
    def test_malformed_artifact_names_stage_and_file(self, tmp_path, stage, name, text):
        run = pipeline.ExperimentRun(desk_experiment_config(tmp_path))
        with open(run.path(name), "w") as fh:
            fh.write(text)
        for ckpt in ("baseline.ckpt", "final.ckpt"):
            open(run.path(ckpt), "wb").close()
        call = {"baseline": lambda: run.stage_baseline(),
                "coarse": lambda: run.stage_coarse(None, resume=True),
                "search": lambda: run.stage_search(None, resume=True),
                "retrain": lambda: run.stage_retrain(None, resume=True)}[stage]
        with pytest.raises(PruneKitError, match=rf"{stage} stage: reused .*{name}"):
            call()
        assert RunReport.load(run.path("report.json")).failed_stage == stage

    @pytest.mark.parametrize("name,key", [("retrain.json", "accuracy"),
                                          ("baseline.json", "epochs")])
    def test_reused_artifact_missing_a_report_field(self, desk_run_pair, tmp_path,
                                                    name, key):
        finished = desk_run_pair["config_a"]
        config = desk_experiment_config(tmp_path / "copy")
        shutil.copytree(finished.run_dir(), config.run_dir())
        path = os.path.join(config.run_dir(), name)
        with open(path) as fh:
            saved = json.load(fh)
        del saved[key]
        with open(path, "w") as fh:
            json.dump(saved, fh)
        stage = name.split(".")[0]
        with pytest.raises(PruneKitError, match=rf"{stage} stage: reused .*{name}.*{key}"):
            pipeline.run(config, resume=True)
        report = RunReport.load(os.path.join(config.run_dir(), "report.json"))
        assert report.failed_stage == stage

    @pytest.mark.parametrize("text,problem", [
        ('{"iteration": 1, "gbest": [', "is not valid JSON"),
        ('{"iteration": 1, "gbest": [1, 1, 1, 1], "gbest_fitness": 0.5}',
         "has no 'particles' field"),
        ('{"iteration": 1, "particles": 3}', "is malformed"),
    ])
    def test_malformed_swarm_state(self, tmp_path, text, problem):
        run = pipeline.ExperimentRun(desk_experiment_config(tmp_path))
        with open(run.path("swarm_state.json"), "w") as fh:
            fh.write(text)
        with pytest.raises(PruneKitError, match=rf"search stage: .*swarm_state\.json {problem}"):
            run.stage_search(run.template.original_structure(), resume=True)
        assert RunReport.load(run.path("report.json")).failed_stage == "search"

    @pytest.mark.parametrize("particles,lengths,problem", [
        (5, [4] * 5, "holds 5 particles, the config asks for 6"),
        (6, [4, 4, 3, 4, 4, 4], r"particle 2 position has shape \(3,\), expected \(4,\)"),
    ])
    def test_swarm_state_of_another_search(self, tmp_path, particles, lengths, problem):
        run = pipeline.ExperimentRun(desk_experiment_config(tmp_path))
        assert run.config.swarm.particles == 6 and len(run.template.prunable_slots) == 4
        state = pipeline.swarm.SwarmState(
            [pipeline.swarm.Particle(np.ones(n), np.zeros(4), (1, 1, 1, 1), 0.5)
             for n in lengths], (1, 1, 1, 1), 0.5, 1, np.random.default_rng(0))
        with open(run.path("swarm_state.json"), "w") as fh:
            json.dump(pipeline.swarm._state_to_dict(state), fh)
        with pytest.raises(PruneKitError, match=rf"search stage: .*swarm_state\.json.*{problem}"):
            run.stage_search(run.template.original_structure(), resume=True)
        assert RunReport.load(run.path("report.json")).failed_stage == "search"

    def test_valid_artifacts_are_reused(self, tmp_path):
        run = pipeline.ExperimentRun(desk_experiment_config(tmp_path))
        widths = [1] * len(run.template.prunable_slots)
        self.write_artifact(run, "coarse.json", "structure", widths)
        self.write_artifact(run, "search.json", "best", widths)
        assert tuple(run.stage_coarse(None, resume=True)[0]) == tuple(widths)
        assert tuple(run.stage_search(None, resume=True)[0]) == tuple(widths)


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

    def test_negative_accuracy_drop_keeps_sign(self):
        report = self.make_report()
        report.final = dict(report.final, accuracy=0.9400)
        table = render_table(report)
        assert "-0.23" in table.splitlines()[3]
