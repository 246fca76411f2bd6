"""Crash a small pipeline run at each of its write points in turn, or
damage each file of the finished run in turn, run it again, and check that
it leaves the files an uninterrupted run makes.

Usage:

    python scripts/crash_sweep.py          # an OSError in place of each write
    python scripts/crash_sweep.py --kill   # SIGKILL at each atomic write's fsync
    python scripts/crash_sweep.py --damage # cut, flip, swap or delete each file

The run is tiny4 on synthetic blobs with 2 baseline epochs, 3 particles and
2 search iterations. Without ``--kill`` the write points are every atomic
write (``util._atomic_write``) and every record appended to
``swarm_trace.jsonl``, and the one crashed on raises instead of writing.
With ``--kill`` a child process runs the pipeline and kills itself with
SIGKILL at the n-th ``os.fsync``, which only ``util._atomic_write`` calls:
the temp file is written and not yet renamed. Either way the crashed run
directory is then run again with a plain ``pipeline.run`` and must hold
the uninterrupted run's files byte for byte (``report.json`` compared by
its ``comparable_dict()``), and no ``*.tmp`` file. Prints one line per
point and exits 1 if any point differs.

With ``--damage`` each file of the finished run but the two report files is,
in turn, cut to half its length, given one flipped byte, replaced by the
same file of a run at seed 1, or deleted. Each damaged copy is run again
with ``pipeline.run``. It must end in the uninterrupted run's files, or stop
with a PruneKitError naming the damaged file and, after ``reused``, the file
to delete, with the damaged file left as it was. Once that file is deleted,
one more run must end in the uninterrupted run's files.
"""
from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import shutil
import signal
import sys
import tempfile
from pathlib import Path

from prunekit import pipeline, swarm, util
from prunekit.errors import PruneKitError
from prunekit.report import RunReport

# each damage: the damaged bytes of a file, given its bytes and the same
# file's bytes from the run at another seed; None deletes the file
DAMAGES = {
    "cut": lambda data, foreign: data[:len(data) // 2],
    "flip": lambda data, foreign: (data[:len(data) // 2] + bytes([data[len(data) // 2] ^ 1])
                                   + data[len(data) // 2 + 1:]),
    "foreign": lambda data, foreign: foreign,
    "delete": lambda data, foreign: None,
}


def small_config(out_dir, seed=0) -> pipeline.ExperimentConfig:
    return pipeline.ExperimentConfig(
        template="tiny4",
        dataset=pipeline.DatasetConfig(name="synthetic", num_classes=4, train_size=256,
                                       test_size=128, image_size=16, channels=3, noise=0.15),
        sample_count=64, epsilon=0.05, min_pts=3, baseline_epochs=2,
        swarm=swarm.SwarmConfig(particles=3, iterations=2, proxy_epochs=1),
        out_dir=str(out_dir), seed=seed)


def run_files(run_dir) -> dict:
    """Every file's bytes, ``report.json`` as its ``comparable_dict()``."""
    files = {}
    for name in sorted(os.listdir(run_dir)):
        data = Path(run_dir, name).read_bytes()
        if name == "report.json":
            data = RunReport.from_dict(json.loads(data)).comparable_dict()
        files[name] = data
    return files


class WritePoints:
    """Counts the write points a run passes, and crashes at number ``crash_at``
    (from 0; None never crashes): with ``kill`` by SIGKILL at that fsync,
    else by an OSError in place of that atomic write or trace record."""

    def __init__(self, crash_at=None, kill=False):
        self.crash_at, self.kill, self.count = crash_at, kill, 0
        self.saved = (util._atomic_write, swarm._append_trace, os.fsync)

    def _point(self):
        self.count += 1
        if self.count - 1 == self.crash_at:
            if self.kill:
                os.kill(os.getpid(), signal.SIGKILL)
            raise OSError(f"synthetic crash at write point {self.crash_at}")

    def __enter__(self):
        atomic_write, append_trace, fsync = self.saved

        def counted_atomic_write(path, data):
            self._point()
            atomic_write(path, data)

        def counted_append_trace(path, records):
            for record in records:
                self._point()
                append_trace(path, [record])

        def counted_fsync(fd):
            fsync(fd)
            self._point()
        if self.kill:
            os.fsync = counted_fsync
        else:
            util._atomic_write, swarm._append_trace = counted_atomic_write, counted_append_trace
        return self

    def __exit__(self, *exc):
        util._atomic_write, swarm._append_trace, os.fsync = self.saved


def _killed_run(out_dir, crash_at):
    with WritePoints(crash_at, kill=True):
        pipeline.run(small_config(out_dir))


def crash(out_dir, point, kill) -> str | None:
    """Run into ``out_dir`` until write point ``point`` crashes it; returns
    what went otherwise, or None."""
    if kill:
        child = multiprocessing.get_context("spawn").Process(
            target=_killed_run, args=(out_dir, point))
        child.start()
        child.join()
        if child.exitcode != -signal.SIGKILL:
            return f"the run ended with exit code {child.exitcode}, not SIGKILL"
        return None
    try:
        with WritePoints(point):
            pipeline.run(small_config(out_dir))
    except OSError:
        return None
    return "the run did not crash"


def sweep(root, kill=False, log=print) -> tuple[int, list[str]]:
    """Crash and resume the small run at every write point under ``root``;
    returns the number of points and one line per point that went wrong."""
    uninterrupted = small_config(Path(root, "uninterrupted"))
    with WritePoints(kill=kill) as points:
        pipeline.run(uninterrupted)
    want = run_files(uninterrupted.run_dir())
    failures = []
    for point in range(points.count):
        config = small_config(Path(root, f"crash{point:03d}"))
        problem = crash(config.out_dir, point, kill)
        if problem is None:
            pipeline.run(config)
            got = run_files(config.run_dir())
            litter = [name for name in got if name.endswith(".tmp")]
            differ = [name for name in sorted(set(want) | set(got))
                      if name not in litter and got.get(name) != want.get(name)]
            if litter or differ:
                problem = f"after the resume, left {litter}, differs in {differ}"
        log(f"write point {point}: {problem or 'ok'}")
        if problem:
            failures.append(f"write point {point}: {problem}")
    return points.count, failures


def differs(config, want) -> str | None:
    got = run_files(config.run_dir())
    differ = [name for name in sorted(set(want) | set(got)) if got.get(name) != want.get(name)]
    return f"differs in {differ}" if differ else None


def rerun_damaged(config, path, damaged, want) -> str | None:
    """Run ``config``, whose file ``path`` now holds ``damaged`` (None: is
    gone), and, if it stops naming a file to delete, once more without that
    file; returns what went otherwise than the sweep requires, or None."""
    try:
        pipeline.run(config)
        return differs(config, want)
    except PruneKitError as exc:
        error = str(exc)
    named = [name for name in os.listdir(path.parent)
             if f" stage: reused {path.parent / name}: " in error]
    if path.name not in error or not named:
        return f"stopped without naming {path.name} and a file to delete: {error}"
    if (path.read_bytes() if path.exists() else None) != damaged:
        return f"stopped, and the damaged file was changed: {error}"
    os.unlink(path.parent / named[0])
    try:
        pipeline.run(config)
    except PruneKitError as exc:
        return f"stopped again after {named[0]} was deleted: {exc}"
    problem = differs(config, want)
    return problem and f"after {named[0]} was deleted, {problem}"


def damage_sweep(root, log=print) -> tuple[int, list[str]]:
    """Damage each file of a finished small run under ``root`` in each way
    of ``DAMAGES`` and run it again; returns the number of cases and one
    line per case that went wrong."""
    uninterrupted = small_config(Path(root, "uninterrupted"))
    foreign = small_config(Path(root, "foreign"), seed=1)
    pipeline.run(uninterrupted)
    pipeline.run(foreign)
    want = run_files(uninterrupted.run_dir())
    cases, failures = 0, []
    for name in [name for name in want if name not in ("report.json", "report.txt")]:
        for kind, damage in DAMAGES.items():
            config = small_config(Path(root, f"{kind}-{name}"))
            shutil.copytree(uninterrupted.run_dir(), config.run_dir())
            path = Path(config.run_dir(), name)
            damaged = damage(path.read_bytes(), Path(foreign.run_dir(), name).read_bytes())
            if damaged is None:
                path.unlink()
            else:
                path.write_bytes(damaged)
            problem = rerun_damaged(config, path, damaged, want)
            cases += 1
            log(f"{kind} {name}: {problem or 'ok'}")
            if problem:
                failures.append(f"{kind} {name}: {problem}")
    return cases, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--kill", action="store_true",
                      help="SIGKILL a child's run at each fsync in place of raising")
    mode.add_argument("--damage", action="store_true",
                      help="damage each file of a finished run in place of crashing it")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as root:
        if args.damage:
            count, failures = damage_sweep(root)
            what = "damaged files"
        else:
            count, failures = sweep(root, kill=args.kill)
            what = "write points"
    print(f"{count - len(failures)} of {count} {what} resumed to the uninterrupted run")
    return 1 if failures or not count else 0


if __name__ == "__main__":
    sys.exit(main())
