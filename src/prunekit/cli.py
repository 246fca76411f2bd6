"""Command-line entry point.

Each subcommand runs the pipeline through one stage; ``run`` executes all
five, and ``report`` only renders the report of a finished run. Completed
stages found in the run directory are reused when --resume is given (the
baseline checkpoint is reused regardless, since it dominates cost and is
pinned by the config hash in the directory name).
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

_STAGE_OF = {
    "train-baseline": "baseline",
    "coarse": "coarse",
    "search": "search",
    "retrain": "retrain",
    "run": "report",
    "report": "report",
}


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="YAML experiment config")
    sub.add_argument("--epsilon", type=float, help="clustering distance threshold")
    sub.add_argument("--minpts", type=int, help="clustering density threshold")
    sub.add_argument("--particles", type=int, help="swarm population size")
    sub.add_argument("--iterations", type=int, help="swarm iteration count")
    sub.add_argument("--proxy-epochs", type=int, help="epochs per fitness evaluation")
    sub.add_argument("--seed", type=int, help="experiment seed")
    sub.add_argument("--out", help="output directory for run artifacts")
    sub.add_argument("--resume", action="store_true",
                     help="reuse completed stages and mid-search checkpoints")
    sub.add_argument("--dump-similarity", action="store_true",
                     help="write per-layer similarity matrices as CSV")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prunekit",
        description="Channel pruning: cluster feature maps, refine by particle swarm, retrain.")
    subs = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "train-baseline": "train (or reuse) the full-width baseline",
        "coarse": "cluster feature maps into a coarse width vector",
        "search": "refine the coarse vector by particle swarm",
        "retrain": "retrain the best structure from scratch",
        "run": "all stages end to end",
        "report": "render the report for a finished run",
    }
    for name, desc in descriptions.items():
        _add_common(subs.add_parser(name, help=desc, description=desc))
    return parser


def _config_from_args(args) -> pipeline.ExperimentConfig:
    if args.config:
        config = pipeline.load_config(args.config)
    else:
        config = pipeline.ExperimentConfig()
    if args.epsilon is not None:
        config = replace(config, epsilon=args.epsilon)
    if args.minpts is not None:
        config = replace(config, min_pts=args.minpts)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    if args.out is not None:
        config = replace(config, out_dir=args.out)
    if args.dump_similarity:
        config = replace(config, dump_similarity=True)
    swarm_cfg = config.swarm
    if args.particles is not None:
        swarm_cfg = replace(swarm_cfg, particles=args.particles)
    if args.iterations is not None:
        swarm_cfg = replace(swarm_cfg, iterations=args.iterations)
    if args.proxy_epochs is not None:
        swarm_cfg = replace(swarm_cfg, proxy_epochs=args.proxy_epochs)
    if swarm_cfg is not config.swarm:
        config = replace(config, swarm=swarm_cfg)
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
        result = pipeline.run(config, resume=args.resume,
                              through=_STAGE_OF[args.command])
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
