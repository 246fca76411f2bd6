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
