"""Run the benchmark on two revisions in alternating pairs and write BENCH_<label>.json.

Usage:

    python scripts/bench_pairs.py --base REV --head REV --workload vgg --seeds 931-940

Both revisions are checked out with ``git worktree`` into a temporary
directory, so the working tree is not touched. Each seed gives one pair:
``perfbench/run.py --workload W --seed S --trace 0`` runs once in each
checkout, and which side runs first alternates from pair to pair. Run the
pairs on an otherwise idle machine: the two sides are timed one after the
other, never at the same time.

The file records both revisions, the environment the runs reported, every
run's metrics and failed units, and per end-to-end metric of BENCHMARK.json
each side's median and quartiles and how many pairs each side won (ties
count for neither). Every pair run counts: a side whose run printed no
metrics loses that pair.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="the parent revision")
    parser.add_argument("--head", required=True, help="the revision under test")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="an inclusive range A-B, one pair per seed")
    parser.add_argument("--seconds", type=float, default=45.0,
                        help="run length of each run (the benchmark's is 45)")
    parser.add_argument("--label", help="names the output file (default: workload and revisions)")
    return parser.parse_args(argv)


def seed_range(text: str) -> list:
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise SystemExit(f"--seeds {text}: empty range")
    return seeds


def git(*args, cwd=ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout.strip()


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run; its JSON line plus the environment it printed."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    env = next((line.split()[1:] for line in lines if line.startswith("env ")), [])
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"seed": seed, "returncode": done.returncode, "correct": False,
                "failed": None, "metrics": {}, "stderr_tail": done.stderr[-2000:]}
    return {"seed": seed, "returncode": done.returncode, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "env": dict(item.split("=", 1) for item in env)}


def summary(values: list) -> dict:
    if len(values) < 2:
        return {"median": values[0] if values else None, "q1": None, "q3": None, "iqr": None}
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3, "iqr": q3 - q1}


def beats(x, y, lower: bool) -> bool:
    """Whether value ``x`` wins its pair against ``y``. A missing value (its
    run crashed or printed no metrics) loses to any value."""
    if x is None:
        return False
    if y is None:
        return True
    return x < y if lower else x > y


def compare(pairs: list, declared: list) -> dict:
    """Per end-to-end metric: both sides' medians and quartiles, and wins.

    Every pair run counts. A side without the metric loses its pair; when
    neither side has it the pair is a tie. The quartiles are over the values
    that exist."""
    out = {}
    for metric in declared:
        name, lower = metric["name"], metric["better"] == "lower"
        both = [(p["base"]["metrics"].get(name), p["head"]["metrics"].get(name)) for p in pairs]
        head_wins = sum(1 for b, h in both if beats(h, b, lower))
        base_wins = sum(1 for b, h in both if beats(b, h, lower))
        base = summary([b for b, _ in both if b is not None])
        head = summary([h for _, h in both if h is not None])
        gap = (None if base["median"] is None or head["median"] is None
               else head["median"] - base["median"])
        out[name] = {
            "better": metric["better"], "bound": metric.get("bound"), "pairs": len(pairs),
            "missing": {"base": sum(1 for b, _ in both if b is None),
                        "head": sum(1 for _, h in both if h is None)},
            "base": base, "head": head, "head_wins": head_wins, "base_wins": base_wins,
            "ties": len(pairs) - head_wins - base_wins,
            "median_change": gap,
            "median_change_ratio": None if gap is None else gap / base["median"],
            # the gain rule: nine tenths of the pairs, and a median gap wider
            # than the base's own quartile spread
            "head_better_beyond_base_iqr": (
                gap is not None and base["iqr"] is not None and abs(gap) > base["iqr"]
                and (gap < 0 if lower else gap > 0)),
            "head_wins_nine_tenths": head_wins >= 0.9 * len(pairs) if pairs else False,
        }
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    seeds = seed_range(args.seeds)
    revs = {side: git("rev-parse", "--verify", f"{rev}^{{commit}}")
            for side, rev in (("base", args.base), ("head", args.head))}
    label = args.label or f"{args.workload}_{revs['base'][:7]}_{revs['head'][:7]}"
    with open(ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)["end_to_end"]
    pairs = []
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        checkouts = {side: Path(tmp) / side for side in revs}
        try:
            for side, rev in revs.items():
                git("worktree", "add", "--detach", str(checkouts[side]), rev)
            for k, seed in enumerate(seeds):
                order = ("base", "head") if k % 2 == 0 else ("head", "base")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_once(checkouts[side], args.workload, seed, args.seconds)
                    m = pair[side]["metrics"]
                    print(f"seed {seed} {side}: " + " ".join(
                        f"{d['name']}={m.get(d['name'], float('nan')):.4g}" for d in declared)
                        + f" failed={pair[side]['failed']}", flush=True)
                pairs.append(pair)
        finally:
            for path in checkouts.values():
                if path.exists():
                    git("worktree", "remove", "--force", str(path))
            git("worktree", "prune")
    env = next((p[s]["env"] for p in pairs for s in ("base", "head") if p[s].get("env")), {})
    record = {
        "workload": args.workload,
        "revisions": {"base": {"name": args.base, "commit": revs["base"]},
                      "head": {"name": args.head, "commit": revs["head"]}},
        "seeds": seeds, "seconds": args.seconds, "environment": env,
        "failed_units": {side: sum(p[side]["failed"] or 0 for p in pairs) for side in revs},
        "incorrect_runs": {side: sum(1 for p in pairs if not p[side]["correct"])
                           for side in revs},
        "metrics": compare(pairs, declared),
        "runs": pairs,
    }
    path = Path.cwd() / f"BENCH_{label}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {path}")
    for name, m in record["metrics"].items():
        print(f"{name:<12} median base {m['base']['median']} (IQR {m['base']['iqr']}), "
              f"head {m['head']['median']}; head wins {m['head_wins']} of {m['pairs']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
