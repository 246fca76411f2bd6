"""Command-line entry point.

Each subcommand runs the pipeline through one stage; ``run`` executes all
five, and ``report`` only renders the report of a finished run. Completed
stages found in the run directory are reused, and an interrupted search
replays its trace (see ``pipeline``).
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

from . import pipeline
from .errors import PruneKitError
from .report import RunReport, render_table

# subcommand -> (the stage it runs through, description)
_COMMANDS = {
    "train-baseline": ("baseline", "train (or reuse) the full-width baseline"),
    "coarse": ("coarse", "cluster feature maps into a coarse width vector"),
    "search": ("search", "refine the coarse vector by particle swarm"),
    "retrain": ("retrain", "retrain the best structure from scratch"),
    "run": ("report", "all stages end to end"),
    "report": ("report", "render the report for a finished run"),
}


# override flag -> (dotted config field it sets, argparse options)
_OVERRIDES = {
    "--epsilon": ("epsilon", dict(type=float, help="clustering distance threshold")),
    "--minpts": ("min_pts", dict(type=int, help="clustering density threshold")),
    "--particles": ("swarm.particles", dict(type=int, help="swarm population size")),
    "--iterations": ("swarm.iterations", dict(type=int, help="swarm iteration count")),
    "--proxy-epochs": ("swarm.proxy_epochs",
                       dict(type=int, help="epochs per fitness evaluation")),
    "--seed": ("seed", dict(type=int, help="experiment seed")),
    "--out": ("out_dir", dict(help="output directory for run artifacts")),
}


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="YAML experiment config")
    for flag, (_, options) in _OVERRIDES.items():
        sub.add_argument(flag, **options)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prunekit",
        description="Channel pruning: cluster feature maps, refine by particle swarm, retrain.")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (_, desc) in _COMMANDS.items():
        _add_common(subs.add_parser(name, help=desc, description=desc))
    return parser


def _with(config, dotted: str, value):
    """``config`` with the field at the dotted path set to ``value``."""
    name, _, rest = dotted.partition(".")
    if rest:
        value = _with(getattr(config, name), rest, value)
    return replace(config, **{name: value})


def _config_from_args(args) -> pipeline.ExperimentConfig:
    config = pipeline.load_config(args.config) if args.config else pipeline.ExperimentConfig()
    for flag, (dotted, _) in _OVERRIDES.items():
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None:
            config = _with(config, dotted, value)
    return config


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _config_from_args(args)
        run_dir = config.run_dir()
        if args.command == "report":
            report_path = os.path.join(run_dir, "report.json")
            if not os.path.exists(report_path):
                raise PruneKitError(
                    f"no report.json in run directory {run_dir}; "
                    f"create it with `prunekit run` and the same config and flags")
            print(render_table(RunReport.load(report_path)))
            return 0
        result = pipeline.run(config, through=_COMMANDS[args.command][0])
        if isinstance(result, RunReport):
            print(render_table(result))
        else:
            print(json.dumps(result, indent=2))
        print(f"artifacts: {run_dir}", file=sys.stderr)
        return 0
    except PruneKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
