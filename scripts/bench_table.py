"""Render the committed BENCH_*.json files as one Markdown table.

Usage:

    python scripts/bench_table.py                     # print the table
    python scripts/bench_table.py --write README.md   # put it into README.md
    python scripts/bench_table.py --check README.md   # exit 1 if README.md's is stale

Each ``BENCH_<label>.json`` that ``scripts/bench_pairs.py`` wrote at the root
of the repository gives one row: the workload, the base -> head revisions,
the seeds, each end-to-end metric of BENCHMARK.json as base -> head medians,
and how many of the pairs run the head won per metric. In a file the table
sits between the BEGIN and END marker lines.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BEGIN = "<!-- generated by scripts/bench_table.py: begin -->"
END = "<!-- generated by scripts/bench_table.py: end -->"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    action = parser.add_mutually_exclusive_group()
    action.add_argument("--write", metavar="FILE", help="replace FILE's generated table")
    action.add_argument("--check", metavar="FILE",
                        help="exit 1 if FILE's generated table differs from the BENCH files")
    return parser.parse_args(argv)


def seeds_text(seeds: list) -> str:
    if len(seeds) > 1 and seeds == list(range(seeds[0], seeds[-1] + 1)):
        return f"{seeds[0]}–{seeds[-1]}"
    return ", ".join(str(s) for s in seeds)


def number(value) -> str:
    return "–" if value is None else f"{value:.4g}"


def render(root: Path = ROOT) -> str:
    declared = json.loads((root / "BENCHMARK.json").read_text())["end_to_end"]
    header = (["file", "workload", "base → head", "seeds"]
              + [f"`{m['name']}` ({m['unit']})" for m in declared]
              + ["head wins of pairs run"])
    lines = ["| " + " | ".join(header) + " |", "|" + " - |" * len(header)]
    for path in sorted(root.glob("BENCH_*.json")):
        record = json.loads(path.read_text())
        revs = record["revisions"]
        metrics = record["metrics"]
        cells = [f"`{path.name}`", f"`{record['workload']}`",
                 f"{revs['base']['commit'][:7]} → {revs['head']['commit'][:7]}",
                 seeds_text(record["seeds"])]
        wins = []
        for m in declared:
            got = metrics.get(m["name"])
            if got is None:
                cells.append("–")
                continue
            cells.append(f"{number(got['base']['median'])} → {number(got['head']['median'])}")
            wins.append(f"`{m['name']}` {got['head_wins']}")
        cells.append(", ".join(wins) + f" of {len(record['runs'])}")
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


def split(text: str, name: str):
    """(before, table, after) of ``text`` around the marker lines."""
    start, end = text.find(BEGIN + "\n"), text.find(END)
    if start < 0 or end < start:
        raise SystemExit(f"{name}: no '{BEGIN}' ... '{END}' block")
    start += len(BEGIN) + 1
    return text[:start], text[start:end], text[end:]


def main(argv=None, root: Path = ROOT) -> int:
    args = parse_args(argv)
    table = render(root)
    if args.write is None and args.check is None:
        sys.stdout.write(table)
        return 0
    path = Path(args.write or args.check)
    before, current, after = split(path.read_text(), str(path))
    if args.check is not None:
        if current != table:
            print(f"{path}: the generated table differs from the BENCH_*.json files; "
                  f"run python scripts/bench_table.py --write {path}", file=sys.stderr)
            return 1
        return 0
    path.write_text(before + table + after)
    return 0


if __name__ == "__main__":
    sys.exit(main())
