"""prunekit benchmark: one workload, one process, one client in a closed loop.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 45 --trace 0

Run from the root of a prunekit checkout; the package is imported from its
``src`` directory. The run sets the workload up from the seed, runs its
timed unit back to back within ``--seconds``, checks every unit's output, and
prints a readable report followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
units alternate between untraced and traced, and the metrics are the
per-layer ones from the traced units. See README.md in this directory.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("desk", "vgg")
SETUP_PROBES = 5        # fresh interpreters whose set-up time gives setup_s
PROBE_TIMEOUT_S = 120
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread unless the caller set a count: on a 2-vCPU virtual machine
# a 2-thread OpenBLAS GEMM waits for the idle vCPU to wake, which made a 768^2
# sgemm 2.5x slower than one thread and a vgg unit take 36 s instead of 13 s.
# Set before anything imports NumPy; the set-up probes inherit it.
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def blas_info() -> dict:
    """BLAS library, version and the thread count it runs with."""
    import ctypes

    import numpy as np
    info = {"blas": "unknown", "blas_version": "unknown", "blas_threads": "unknown"}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"], info["blas_version"] = blas.get("name"), blas.get("version")
    except (TypeError, KeyError):
        pass
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                info["blas_threads"] = fn()
                return info
    return info


def environment() -> dict:
    import numpy as np
    env = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
           "python": platform.python_version(), "numpy": np.__version__}
    env.update(blas_info())
    env.update({var: os.environ.get(var, "unset") for var in THREAD_VARS})
    return env


def make_workload(name: str, seed: int, work_dir: Path):
    from workloads import WORKLOADS
    return WORKLOADS[name](seed, str(work_dir))


def probe(args, work_dir: Path) -> int:
    """Set the workload up in this fresh interpreter, then print when it was ready."""
    make_workload(args.workload, args.seed, work_dir)
    print(json.dumps({"ready": time.time()}))
    return 0


def setup_seconds(args) -> list:
    """Interpreter start to first timed call, once per fresh interpreter."""
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.time()
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe",
             "--workload", args.workload, "--seed", str(args.seed)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["ready"] - start)
    return samples


def high_percentile(values):
    """The highest percentile with ten samples beyond it, else the maximum."""
    n = len(values)
    if n < 20:
        return "max", max(values)
    pct = int(100 * (n - 10) / n)
    return f"p{pct}", statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


class Runner:
    """Drives a workload's units and keeps their walls, outcomes and failures."""

    def __init__(self, workload, tracer, trace_on: bool):
        self.workload = workload
        self.tracer = tracer
        self.trace_on = trace_on
        self.walls = {False: [], True: []}
        self.outcomes = {False: [], True: []}
        self.attempted = 0
        self.failed = 0
        self.k = 0

    def unit(self, traced: bool, timed: bool = True) -> None:
        self.attempted += 1
        k, self.k = self.k, self.k + 1
        try:
            call = self.workload.prepare(k)
            gc.collect()  # garbage from earlier units is not this unit's cost
            if traced:
                self.tracer.install()
            try:
                start = time.perf_counter()
                result = call()
                wall = time.perf_counter() - start
            finally:
                self.tracer.uninstall()
            outcome = self.workload.check(k, result)
        except Exception:  # a unit that raises counts as failed; the run goes on
            traceback.print_exc()
            self.failed += 1
            return
        if outcome.problems:  # still timed: a wrong answer still took this long
            self.failed += 1
            for problem in outcome.problems:
                print(f"check failed in unit {k}: {problem}", file=sys.stderr)
        if timed:
            self.walls[traced].append(wall)
            self.outcomes[traced].append(outcome)

    def measure(self, seconds: float) -> None:
        for _ in range(self.workload.warmup_units):
            self.unit(traced=False, timed=False)
        start = time.perf_counter()
        n = 0
        while True:
            self.unit(traced=self.trace_on and n % 2 == 1)
            n += 1
            elapsed = time.perf_counter() - start
            # another unit starts only if, at the mean pace so far, it ends in time
            done = elapsed + elapsed / n > seconds
            if done and (not self.trace_on or (self.walls[True] and self.walls[False])):
                break
            if n > 2 and self.attempted == self.failed:
                break  # every unit failed; more of them measure nothing


def line(name, value, unit="", note="") -> None:
    print(f"{name:<34}{value:>14.6g} {unit:<8}{note}".rstrip())


def plain_report(runner, setup_samples) -> dict:
    """Print the end-to-end figures; return the ones BENCHMARK.json bounds."""
    walls = runner.walls[False]
    outcomes = runner.outcomes[False]
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    label, high = high_percentile(walls)
    line("wall_s", metrics["wall_s"][0], "s",
         f"median; {label} {high:.4f}; n={len(walls)} timed units")
    print(f"{'unit_walls_s':<34}" + " ".join(f"{w:.3f}" for w in walls))
    line("setup_s", metrics["setup_s"][0], "s",
         f"median; max {max(setup_samples):.4f}; n={len(setup_samples)} fresh interpreters")
    images = sum(o.images for o in outcomes)
    # not bounded: on desk the image count follows the seed's retrain budget
    line("train_images_per_s", images / sum(walls), "1/s",
         f"SGD training images: {images} in {sum(walls):.3f} s")
    line("peak_rss_mb", metrics["peak_rss_mb"][0], "MB")
    accs = [o.info["final_acc_pct"] for o in outcomes if "final_acc_pct" in o.info]
    if accs:
        line("final_acc_pct", statistics.median(accs), "%", f"median; n={len(accs)}")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "prunekit" / "__init__.py").is_file():
        print(f"error: no prunekit sources under {SRC}; run from a prunekit checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    work_dir = ROOT / ".perfbench_work" / str(os.getpid())
    shutil.rmtree(work_dir, ignore_errors=True)  # left by a killed run with this pid
    work_dir.mkdir(parents=True)
    try:
        if args.probe:
            return probe(args, work_dir)
        return bench(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def bench(args, work_dir: Path) -> int:
    setup_samples = [] if args.trace else setup_seconds(args)
    import spans

    setup_tracer = spans.Tracer()
    if args.trace:
        setup_tracer.install()
    try:
        workload = make_workload(args.workload, args.seed, work_dir)
    finally:
        setup_tracer.uninstall()
    runner = Runner(workload, spans.Tracer(), bool(args.trace))
    if args.trace and hasattr(workload, "net"):
        runner.tracer.register_slots(workload.net)
    runner.measure(args.seconds)
    env = environment()

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    problems, metrics = [], None
    if not runner.walls[False] or (args.trace and not runner.walls[True]):
        problems.append("no unit ran to completion")
    elif args.trace:
        metrics, problems = traced_report(workload, runner, setup_tracer)
    else:
        metrics = plain_report(runner, setup_samples)
    line("error_rate", runner.failed / runner.attempted, "",
         f"{runner.failed} failed of {runner.attempted} units attempted")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    if metrics is None:
        return 1
    check_declared(args, metrics)
    print(json.dumps({
        "correct": runner.failed == 0 and not problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


# per-layer metrics in seconds or ms are printed; the JSON line carries those
# defined on every workload: shares of the traced wall, counts and rates
JSON_UNITS = ("%", "count", "ratio", "GFLOP/s")


def traced_report(workload, runner, setup_tracer):
    import spans

    tracer = runner.tracer
    traced, plain = runner.walls[True], runner.walls[False]
    wall_s = statistics.median(traced)
    layers = spans.layer_metrics(tracer, len(traced), wall_s)
    layers["data.make_blobs_s"] = (setup_tracer.total["data.make_blobs"], "s")
    overhead = 100.0 * (wall_s / statistics.median(plain) - 1.0)
    layers["trace_overhead_pct"] = (overhead, "%")

    problems = workload.coverage(tracer, runner.outcomes[True])
    self_total = sum(tracer.self_s.values())
    if self_total > sum(traced):
        problems.append(f"trace coverage: self times add up to {self_total:.3f} s, "
                        f"more than the traced wall {sum(traced):.3f} s")
    print(f"traced wall_s {wall_s:.4f} s (n={len(traced)}), untraced "
          f"{statistics.median(plain):.4f} s (n={len(plain)}); "
          f"self times cover {100.0 * self_total / sum(traced):.1f}% of the traced wall")
    for name, (value, unit) in layers.items():
        if unit == "%" and name.endswith("_pct") and name != "trace_overhead_pct":
            continue
        share = layers.get(name[:-2] + "_pct") if unit == "s" else None
        note = f"{share[0]:6.2f}% of traced wall" if share else ""
        if name == "nncore.conv.gflops_per_s":
            note = "computed from archspec.flops_count MACs"
        elif name == "swarm.cache_hit_ratio":
            note = f"base {layers['swarm.evaluate_calls'][0]:g} evaluate calls per unit"
        line(name, value, unit, note)
    print(f"{'trace_coverage':<34}{'pass' if not problems else 'FAIL':>14}")
    metrics = {name: (value, unit) for name, (value, unit) in layers.items()
               if unit in JSON_UNITS or name == "data.make_blobs_s"}
    return metrics, problems


def check_declared(args, metrics) -> None:
    """The JSON line must carry exactly the metrics BENCHMARK.json declares."""
    declared_path = ROOT / "BENCHMARK.json"
    if not declared_path.is_file():
        return
    with open(declared_path) as fh:
        declared = json.load(fh)
    names = {m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if names != set(metrics):
        raise SystemExit(f"metrics {sorted(set(metrics) ^ names)} differ "
                         f"between this run and BENCHMARK.json")


if __name__ == "__main__":
    sys.exit(main())
