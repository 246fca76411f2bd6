import os

from prunekit import cli

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
    assert cli.main(["coarse", "--config", config, "--out", out, "--resume"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: coarse stage: reused ")
    assert coarse in err


def test_both_spellings_of_a_setting_exit_2(tmp_path, capsys):
    config = write_config(tmp_path, SMALL_RUN + "epsilon: 0.3\nneighborhood:\n  epsilon: 0.1\n")
    assert cli.main(["coarse", "--config", config, "--out", str(tmp_path / "runs")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config keys epsilon and neighborhood.epsilon both set epsilon")
    assert not (tmp_path / "runs").exists()


def test_torn_swarm_state_on_resume_exits_2(tmp_path, capsys):
    out = str(tmp_path / "runs")
    config = write_config(tmp_path, SMALL_RUN)
    assert cli.main(["coarse", "--config", config, "--out", out]) == 0
    (run_dir,) = os.listdir(out)
    state = os.path.join(out, run_dir, "swarm_state.json")
    with open(state, "w") as fh:
        fh.write('{"iteration": 0, "particles": [')
    capsys.readouterr()
    assert cli.main(["search", "--config", config, "--out", out, "--resume"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: search stage: resumed {state} is not valid JSON")


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
         "--iterations", "4", "--proxy-epochs", "2", "--seed", "9", "--out", "o",
         "--dump-similarity"])
    cfg = cli._config_from_args(args)
    assert (cfg.epsilon, cfg.min_pts, cfg.seed, cfg.out_dir, cfg.dump_similarity) == \
        (0.2, 2, 9, "o", True)
    assert (cfg.swarm.particles, cfg.swarm.iterations, cfg.swarm.proxy_epochs) == (3, 4, 2)
    assert cfg.sample_count == 16 and cfg.trainer.batch_size == 16
    bare = cli._config_from_args(cli.build_parser().parse_args(["run", "--config", config]))
    assert (bare.swarm.particles, bare.dump_similarity, bare.out_dir) == (2, False, "runs")
