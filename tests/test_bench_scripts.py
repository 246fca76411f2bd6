"""scripts/bench_pairs.py's pair statistics and scripts/bench_table.py's table."""
import importlib.util
import json
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = load("bench_pairs")
bench_table = load("bench_table")

LOWER = [{"name": "wall_s", "better": "lower", "bound": 0.25}]
HIGHER = [{"name": "rate", "better": "higher"}]


def pairs_of(name, values):
    """One pair per (base, head); None stands for a run that printed no metrics."""
    return [{"base": {"metrics": {} if b is None else {name: b}},
             "head": {"metrics": {} if h is None else {name: h}}} for b, h in values]


class TestSummary:
    def test_empty_and_single(self):
        assert bench_pairs.summary([]) == {"median": None, "q1": None, "q3": None, "iqr": None}
        assert bench_pairs.summary([2.0]) == {"median": 2.0, "q1": None, "q3": None,
                                              "iqr": None}

    def test_inclusive_quartiles(self):
        s = bench_pairs.summary([5.0, 1.0, 4.0, 2.0, 3.0])
        assert (s["median"], s["q1"], s["q3"], s["iqr"]) == (3.0, 2.0, 4.0, 2.0)


class TestCompare:
    @pytest.mark.parametrize("declared, name", [(LOWER, "wall_s"), (HIGHER, "rate")])
    def test_direction(self, declared, name):
        lower = declared[0]["better"] == "lower"
        better, worse = (1.0, 2.0) if lower else (2.0, 1.0)
        m = bench_pairs.compare(pairs_of(name, [(worse, better)] * 9 + [(better, worse)]),
                                declared)[name]
        assert (m["head_wins"], m["base_wins"], m["ties"], m["pairs"]) == (9, 1, 0, 10)
        assert m["head_wins_nine_tenths"]

    def test_ties_count_for_neither(self):
        m = bench_pairs.compare(pairs_of("wall_s", [(1.0, 1.0)] * 3 + [(2.0, 1.0)]),
                                LOWER)["wall_s"]
        assert (m["head_wins"], m["base_wins"], m["ties"]) == (1, 0, 3)
        assert not m["head_wins_nine_tenths"]

    def test_gap_must_exceed_the_base_iqr(self):
        base = [10.0, 11.0, 12.0, 13.0, 14.0]   # IQR 2
        inside = pairs_of("wall_s", [(b, b - 1.5) for b in base])
        beyond = pairs_of("wall_s", [(b, b - 2.5) for b in base])
        worse = pairs_of("wall_s", [(b, b + 2.5) for b in base])
        assert not bench_pairs.compare(inside, LOWER)["wall_s"]["head_better_beyond_base_iqr"]
        assert bench_pairs.compare(beyond, LOWER)["wall_s"]["head_better_beyond_base_iqr"]
        assert not bench_pairs.compare(worse, LOWER)["wall_s"]["head_better_beyond_base_iqr"]

    def test_a_crashed_side_loses_its_pair(self):
        # eight head wins and two crashed head runs: 8 of 10, not 8 of 8
        values = [(2.0, 1.0)] * 8 + [(2.0, None)] * 2
        m = bench_pairs.compare(pairs_of("wall_s", values), LOWER)["wall_s"]
        assert (m["pairs"], m["head_wins"], m["base_wins"]) == (10, 8, 2)
        assert m["missing"] == {"base": 0, "head": 2}
        assert not m["head_wins_nine_tenths"]
        assert m["head"]["median"] == 1.0 and m["base"]["median"] == 2.0

    def test_both_sides_crashed_is_a_tie(self):
        values = [(2.0, 1.0)] * 9 + [(None, None)]
        m = bench_pairs.compare(pairs_of("wall_s", values), LOWER)["wall_s"]
        assert (m["pairs"], m["head_wins"], m["base_wins"], m["ties"]) == (10, 9, 0, 1)
        assert m["head_wins_nine_tenths"]

    def test_every_run_crashed(self):
        m = bench_pairs.compare(pairs_of("wall_s", [(None, None)] * 2), LOWER)["wall_s"]
        assert m["median_change"] is None and not m["head_better_beyond_base_iqr"]


class TestRunPairs:
    def test_both_sides_of_a_pair_share_one_fresh_path(self, tmp_path, monkeypatch):
        """A pair's worktree is made at its first side's revision, switched
        to the other's between the runs and removed after the pair."""
        heads = {}    # worktree -> the revision it holds
        commands, runs = [], []

        def git(*args, cwd=None):
            commands.append((args, cwd))
            if args[:2] == ("worktree", "add"):
                heads[args[3]] = args[4]
            elif args[0] == "checkout":
                heads[str(cwd)] = args[2]
            elif args[:2] == ("worktree", "remove"):
                del heads[args[3]]
            return ""

        def run_once(checkout, workload, seed, seconds):
            runs.append((heads[str(checkout)], seed))
            return {"seed": seed, "metrics": {"wall_s": 1.0}, "failed": 0}
        monkeypatch.setattr(bench_pairs, "git", git)
        monkeypatch.setattr(bench_pairs, "run_once", run_once)
        revs = {"base": "b" * 40, "head": "h" * 40}
        pairs = bench_pairs.run_pairs(revs, "vgg", [7, 8, 9], 1.0, tmp_path, ["wall_s"])

        assert [p["first"] for p in pairs] == ["base", "head", "base"]
        assert runs == [(revs["base"], 7), (revs["head"], 7), (revs["head"], 8),
                        (revs["base"], 8), (revs["base"], 9), (revs["head"], 9)]
        paths = [p["base"]["path"] for p in pairs]
        assert [p["head"]["path"] for p in pairs] == paths
        assert len(set(paths)) == len(pairs)
        assert all(path.startswith(str(tmp_path)) for path in paths)
        assert heads == {}    # every worktree was removed
        assert [args[0] for args, _ in commands] == ["worktree", "checkout", "worktree"] * 3


class TestParseArgs:
    REQUIRED = ["--base", "a", "--head", "b", "--workload", "desk", "--seeds", "1-2"]

    def test_seconds_default_is_the_benchmarks_run_seconds(self, tmp_path, monkeypatch):
        (tmp_path / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 7}))
        monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
        assert bench_pairs.parse_args(self.REQUIRED).seconds == 7
        assert bench_pairs.parse_args(self.REQUIRED + ["--seconds", "3"]).seconds == 3


def write_bench(root, label, seeds, base_rss, head_rss):
    pairs = pairs_of("peak_rss_mb", list(zip(base_rss, head_rss)))
    declared = [{"name": "peak_rss_mb", "better": "lower", "bound": 0.2}]
    record = {"workload": "vgg", "seeds": seeds,
              "revisions": {"base": {"name": "a", "commit": "a" * 40},
                            "head": {"name": "b", "commit": "b" * 40}},
              "metrics": bench_pairs.compare(pairs, declared), "runs": pairs}
    (root / f"BENCH_{label}.json").write_text(json.dumps(record))


class TestBenchTable:
    @pytest.fixture
    def root(self, tmp_path):
        (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
            {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
            {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.2}]}))
        write_bench(tmp_path, "x", [5, 6, 7], [400.0, 401.0, 402.0], [360.0, 361.0, 403.0])
        return tmp_path

    def test_one_row_per_file(self, root):
        table = bench_table.render(root).splitlines()
        assert table[0] == ("| file | workload | base → head | seeds | `wall_s` (s) "
                            "| `peak_rss_mb` (MB) | head wins of pairs run |")
        assert table[2] == ("| `BENCH_x.json` | `vgg` | aaaaaaa → bbbbbbb | 5–7 | – "
                            "| 401 → 361 | `peak_rss_mb` 2 of 3 |")
        assert len(table) == 3

    def test_check_fails_until_written(self, root, capsys):
        readme = root / "README.md"
        readme.write_text(f"intro\n{bench_table.BEGIN}\nold\n{bench_table.END}\nrest\n")
        assert bench_table.main(["--check", str(readme)], root=root) == 1
        assert bench_table.main(["--write", str(readme)], root=root) == 0
        assert bench_table.main(["--check", str(readme)], root=root) == 0
        text = readme.read_text()
        assert text.startswith("intro\n") and text.endswith(f"{bench_table.END}\nrest\n")
        write_bench(root, "y", [9], [1.0], [2.0])
        assert bench_table.main(["--check", str(readme)], root=root) == 1
        assert "--write" in capsys.readouterr().err

    def test_missing_markers_are_an_error(self, root):
        readme = root / "README.md"
        readme.write_text("no table here\n")
        with pytest.raises(SystemExit, match="no .* block"):
            bench_table.main(["--check", str(readme)], root=root)
