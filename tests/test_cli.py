import fcntl
import json
import os
import re
from dataclasses import replace

import pytest

from prunekit import archspec, cli, pipeline, util
from prunekit.errors import PruneKitError

# a whole run in about a second: tiny data, one epoch, two particles
SMALL_RUN = """\
template: tiny4
sample_count: 16
min_pts: 3
baseline_epochs: 1
dataset:
  num_classes: 2
  train_size: 32
  test_size: 16
  image_size: 16
swarm:
  particles: 2
  iterations: 1
  proxy_epochs: 1
trainer:
  batch_size: 16
"""


def write_config(tmp_path, text):
    path = tmp_path / "exp.yaml"
    path.write_text(text)
    return str(path)


def test_unknown_top_level_key_exits_2(tmp_path, capsys):
    config = write_config(tmp_path, SMALL_RUN + "epsilom: 0.1\n")
    assert cli.main(["coarse", "--config", config, "--out", str(tmp_path / "runs")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown config key epsilom ")
    assert not (tmp_path / "runs").exists()


def test_unknown_nested_key_exits_2(tmp_path, capsys):
    config = write_config(tmp_path, SMALL_RUN.replace("particles: 2", "particle: 2"))
    assert cli.main(["search", "--config", config, "--out", str(tmp_path / "runs")]) == 2
    assert capsys.readouterr().err.startswith("error: unknown config key swarm.particle ")


@pytest.mark.parametrize("case", ["missing config", "broken config", "binary config",
                                  "broken template"])
def test_unreadable_config_or_template_file_exits_2(tmp_path, capsys, case):
    """A config file that is not there or is not YAML text, or a config
    whose template file is not YAML, is an error naming the file, not a
    traceback."""
    config = str(tmp_path / "exp.yaml")
    if case == "missing config":
        bad = config
    elif case == "broken config":
        bad = write_config(tmp_path, "epsilon: [0.05\n")
    elif case == "binary config":
        bad = config
        with open(bad, "wb") as fh:
            fh.write(b"\x80\xff not text")
    else:
        bad = str(tmp_path / "broken.yaml")
        with open(bad, "w") as fh:
            fh.write("layers: [{kind: conv\n")
        write_config(tmp_path, SMALL_RUN.replace("template: tiny4", f"template: {bad}"))
    assert cli.main(["run", "--config", config, "--out", str(tmp_path / "runs")]) == 2
    err = capsys.readouterr().err
    what = "template" if case == "broken template" else "config"
    assert err.startswith(f"error: {what} file {bad}")
    assert "Traceback" not in err
    assert not (tmp_path / "runs").exists()


def test_report_without_a_finished_run_exits_2(tmp_path, capsys):
    out = tmp_path / "runs"
    config = write_config(tmp_path, SMALL_RUN)
    assert cli.main(["report", "--config", config, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: no report.json in run directory ")
    assert str(out) in err and "prunekit run" in err
    assert not out.exists()  # nothing was trained


def test_report_renders_a_finished_run(tmp_path, capsys):
    out = str(tmp_path / "runs")
    config = write_config(tmp_path, SMALL_RUN)
    assert cli.main(["run", "--config", config, "--out", out]) == 0
    table = capsys.readouterr().out
    (run_dir,) = os.listdir(out)
    before = sorted(os.listdir(os.path.join(out, run_dir)))
    assert cli.main(["report", "--config", config, "--out", out]) == 0
    assert capsys.readouterr().out == table
    assert sorted(os.listdir(os.path.join(out, run_dir))) == before


def test_torn_coarse_json_on_resume_exits_2(tmp_path, capsys):
    out = str(tmp_path / "runs")
    config = write_config(tmp_path, SMALL_RUN)
    assert cli.main(["coarse", "--config", config, "--out", out]) == 0
    (run_dir,) = os.listdir(out)
    coarse = os.path.join(out, run_dir, "coarse.json")
    with open(coarse, "r+") as fh:
        fh.truncate(len(fh.read()) // 2)
    capsys.readouterr()
    assert cli.main(["coarse", "--config", config, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: coarse stage: reused ")
    assert coarse in err and err.endswith("; delete it to recompute\n")


def test_diverging_baseline_names_the_stage(tmp_path, capsys):
    out = str(tmp_path / "runs")
    config = write_config(tmp_path, SMALL_RUN + "  initial_lr: 1.0e+30\n")
    assert cli.main(["train-baseline", "--config", config, "--out", out]) == 2
    assert capsys.readouterr().err.startswith("error: baseline stage: non-finite loss")
    (run_dir,) = os.listdir(out)
    with open(os.path.join(out, run_dir, "report.json")) as fh:
        report = json.load(fh)
    assert report["failed_stage"] == "baseline"
    assert report["error"].startswith("TrainingDiverged: baseline stage: non-finite loss")


def test_both_spellings_of_a_setting_exit_2(tmp_path, capsys):
    config = write_config(tmp_path, SMALL_RUN + "epsilon: 0.3\nneighborhood:\n  epsilon: 0.1\n")
    assert cli.main(["coarse", "--config", config, "--out", str(tmp_path / "runs")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config keys epsilon and neighborhood.epsilon both set epsilon")
    assert not (tmp_path / "runs").exists()


def search_then_resume(tmp_path, capsys, change):
    """Run the search stage, apply ``change`` to the run directory, delete
    search.json and resume the search; return the directory's path, its
    search.json before the resume, and the resumed run's exit code."""
    out = str(tmp_path / "runs")
    config = write_config(tmp_path, SMALL_RUN)
    assert cli.main(["search", "--config", config, "--out", out]) == 0
    (run_dir,) = os.listdir(out)
    run_dir = os.path.join(out, run_dir)
    with open(os.path.join(run_dir, "search.json")) as fh:
        searched = fh.read()
    change(run_dir)
    os.remove(os.path.join(run_dir, "search.json"))
    capsys.readouterr()
    return run_dir, searched, cli.main(["search", "--config", config, "--out", out])


def test_torn_swarm_state_does_not_stop_resume(tmp_path, capsys):
    # swarm_state.json is written for inspection; a resume replays the trace
    def tear(run_dir):
        with open(os.path.join(run_dir, "swarm_state.json"), "w") as fh:
            fh.write('{"iteration": 0, "particles": [')
    run_dir, searched, code = search_then_resume(tmp_path, capsys, tear)
    assert code == 0
    with open(os.path.join(run_dir, "search.json")) as fh:
        assert fh.read() == searched
    with open(os.path.join(run_dir, "swarm_state.json")) as fh:
        assert json.load(fh)["iteration"] == 1


def test_doubled_trace_line_on_resume_exits_2(tmp_path, capsys):
    def double_first_line(run_dir):
        with open(os.path.join(run_dir, "swarm_trace.jsonl"), "r+") as fh:
            lines = fh.readlines()
            fh.seek(0)
            fh.writelines(lines[:1] + lines)
    run_dir, _, code = search_then_resume(tmp_path, capsys, double_first_line)
    assert code == 2
    trace = os.path.join(run_dir, "swarm_trace.jsonl")
    err = capsys.readouterr().err
    assert err.startswith(
        f"error: search stage: resumed {trace} line 2 does not match this search's ")
    assert err.endswith("; delete it to recompute\n")
    assert not os.path.exists(os.path.join(run_dir, "search.json"))


@pytest.mark.parametrize("damage,bad_line", [
    (lambda lines: ["[1, 2]\n"] + lines, 1),
    (lambda lines: lines[:1] + ["garbage\n"] + lines[2:], 2)], ids=["not a record", "not JSON"])
def test_damaged_trace_line_on_resume_exits_2(tmp_path, capsys, damage, bad_line):
    """A whole trace line that is not a record is named, not taken for a
    torn tail, and the trace is left as it was."""
    damaged = []

    def write_damage(run_dir):
        with open(os.path.join(run_dir, "swarm_trace.jsonl"), "r+") as fh:
            damaged.append("".join(damage(fh.readlines())))
            fh.seek(0)
            fh.write(damaged[0])
            fh.truncate()
    run_dir, _, code = search_then_resume(tmp_path, capsys, write_damage)
    assert code == 2
    trace = os.path.join(run_dir, "swarm_trace.jsonl")
    assert capsys.readouterr().err.startswith(
        f"error: search stage: resumed {trace} line {bad_line} does not match this search's ")
    with open(trace) as fh:
        assert fh.read() == damaged[0]


def test_stage_commands_in_sequence_reuse_each_earlier_stage(tmp_path, monkeypatch):
    # each command writes only its own stage's files
    out = str(tmp_path / "runs")
    config = write_config(tmp_path, SMALL_RUN)
    written = []
    atomic_write = util._atomic_write

    def spy(path, data):
        written.append(os.path.basename(path))
        atomic_write(path, data)
    monkeypatch.setattr(util, "_atomic_write", spy)
    csvs = {f"similarity_slot{slot:02d}.csv" for slot in archspec.tiny4().prunable_slots}
    for command, files in (("train-baseline", {"baseline.ckpt", "baseline.json"}),
                           ("coarse", {"coarse.json", *csvs}),
                           ("search", {"swarm_state.json", "search.json"}),
                           ("retrain", {"final.ckpt", "retrain.json"}),
                           ("run", {"report.json", "report.txt"})):
        written.clear()
        assert cli.main([command, "--config", config, "--out", out]) == 0
        assert set(written) == files, command


def test_run_directory_held_by_another_run_exits_2(tmp_path, capsys):
    out = str(tmp_path / "runs")
    path = write_config(tmp_path, SMALL_RUN)
    config = replace(pipeline.load_config(path), out_dir=out)
    os.makedirs(config.run_dir())
    held = os.open(config.run_dir(), os.O_RDONLY)
    try:
        fcntl.flock(held, fcntl.LOCK_EX | fcntl.LOCK_NB)
        with pytest.raises(PruneKitError, match=rf"run directory {re.escape(config.run_dir())} "):
            pipeline.run(config, through="baseline")
        assert cli.main(["run", "--config", path, "--out", out]) == 2
        assert capsys.readouterr().err.startswith(f"error: run directory {config.run_dir()} ")
        assert os.listdir(config.run_dir()) == []
    finally:
        os.close(held)
    # a run releases the directory when it returns
    pipeline.run(config, through="baseline")
    pipeline.run(config, through="baseline")


def test_wrong_typed_value_exits_2(tmp_path, capsys):
    config = write_config(tmp_path, SMALL_RUN.replace("particles: 2", "particles: six"))
    assert cli.main(["search", "--config", config, "--out", str(tmp_path / "runs")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config key swarm.particles must be an integer, got 'six'")
    assert not (tmp_path / "runs").exists()


def test_bad_trainer_value_exits_2_before_any_run_directory(tmp_path, capsys):
    config = write_config(tmp_path, SMALL_RUN + "  momentum: 1.5\n")
    assert cli.main(["coarse", "--config", config, "--out", str(tmp_path / "runs")]) == 2
    assert "momentum must be in [0, 1)" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_torn_report_json_exits_2(tmp_path, capsys):
    out = str(tmp_path / "runs")
    config = write_config(tmp_path, SMALL_RUN)
    assert cli.main(["run", "--config", config, "--out", out]) == 0
    (run_dir,) = os.listdir(out)
    report = os.path.join(out, run_dir, "report.json")
    with open(report, "r+") as fh:
        fh.truncate(len(fh.read()) // 2)
    capsys.readouterr()
    assert cli.main(["report", "--config", config, "--out", out]) == 2
    assert capsys.readouterr().err.startswith(f"error: {report} is not valid JSON")


def test_flags_override_the_config_file(tmp_path):
    config = write_config(tmp_path, SMALL_RUN)
    args = cli.build_parser().parse_args(
        ["run", "--config", config, "--epsilon", "0.2", "--minpts", "2", "--particles", "3",
         "--iterations", "4", "--proxy-epochs", "2", "--seed", "9", "--out", "o"])
    cfg = cli._config_from_args(args)
    assert (cfg.epsilon, cfg.min_pts, cfg.seed, cfg.out_dir) == (0.2, 2, 9, "o")
    assert (cfg.swarm.particles, cfg.swarm.iterations, cfg.swarm.proxy_epochs) == (3, 4, 2)
    assert cfg.sample_count == 16 and cfg.trainer.batch_size == 16
    bare = cli._config_from_args(cli.build_parser().parse_args(["run", "--config", config]))
    assert (bare.swarm.particles, bare.out_dir) == (2, "runs")


# SMALL_RUN's net as a template file: tiny4's blocks at widths 8 and 16
SMALL_TEMPLATE = """\
input_shape: [3, 16, 16]
num_classes: 2
layers:
  - {kind: conv, out_channels: 8, kernel: 3, padding: 1}
  - {kind: batchnorm}
  - {kind: activation}
  - {kind: pool, kernel: 2, stride: 2}
  - {kind: conv, out_channels: 16, kernel: 3, padding: 1}
  - {kind: batchnorm}
  - {kind: activation}
  - {kind: pool, kernel: 2, stride: 2}
  - {kind: classifier-head}
"""


def test_template_file_edited_in_place_starts_a_new_run_directory(tmp_path, capsys):
    """The config hash takes the template file's contents, so a rerun after
    an edit trains a new baseline in a new directory instead of stopping on
    the old directory's checkpoint."""
    template = tmp_path / "small.yaml"
    template.write_text(SMALL_TEMPLATE)
    config = write_config(tmp_path, SMALL_RUN.replace("tiny4", str(template)))
    out = tmp_path / "runs"
    assert cli.main(["train-baseline", "--config", config, "--out", str(out)]) == 0
    first = os.listdir(out)
    template.write_text(SMALL_TEMPLATE.replace("out_channels: 16", "out_channels: 12"))
    assert cli.main(["train-baseline", "--config", config, "--out", str(out)]) == 0, \
        capsys.readouterr().err
    assert len(first) == 1 and first[0].startswith("small.yaml-")
    second = sorted(set(os.listdir(out)) - set(first))
    assert len(second) == 1 and second[0].startswith("small.yaml-")
