"""The stellar benchmark: seeded workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload morse --seed 1 --trace 0
    python3 bench/run.py --workload moves --seed 1 --trace 1
    python3 bench/run.py --compare parent.jsonl change.jsonl

Each workload is a closed loop with one caller: this process runs the
workload's job list with ``jobs=1``, and each call starts after the
previous one returned.  A pass is one run over the job list, on inputs
relabelled afresh from the seed; passes repeat until ``--seconds`` is
used up, ending at most half a pass late, and at least three passes run.
Every job's result is checked against a stored answer; a wrong answer or
an exception counts as failed and the run goes on.

At the start of each pass, and between jobs at least every
``--seconds`` / ``SETUP_SAMPLES``, a fresh interpreter times a fixed
reference task that shares no code with ``stellar``, and then one
set-up.  The machine's speed drifts in phases of seconds to minutes, so
the reported times are scaled to the speed at which the reference task
takes ``REF_SECONDS``: each pass by the mean reference time of the
samples taken during it, and each set-up by its own sample's reference
time.  The raw times are printed and kept in ``--out`` records.

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
a traced run, which runs every pass both untraced and traced and writes its
spans under ``.bench_out/``.  ``--out PATH`` appends the result, with the
run's settings and environment, to a JSON-lines file that ``--compare``
reads.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("morse", "manifolds", "moves")
SETUP_SAMPLES = 15
# The reference task's time in a quiet phase of the 2-CPU x86-64 machine
# the baseline was taken on; scaled times are seconds at that speed.
REF_SECONDS = 0.05
# With two passes the median is their mean, and one pass in a slow phase
# of the machine moves it; from three on, the median drops the slowest.
MIN_PASSES = 3

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB"),
              ("success_rate", "ratio"))


def _use_checkout_sources() -> None:
    """Import ``stellar`` from this checkout's ``src``, never from an
    installed copy; exit with an error when the sources are missing."""
    if not (SRC / "stellar" / "__init__.py").is_file():
        sys.exit(f"bench: no stellar sources under {SRC}")
    sys.path.insert(0, str(SRC))


def setup(workload: str, seed: int):
    """Import the library, build and self-check the corpus, and make the
    workload's inputs."""
    import stellar
    stellar.corpus()
    import workloads
    return workloads.WORKLOADS[workload](seed)


def reference_task() -> int:
    """A fixed task that shares no code with ``stellar``: it builds
    tuples and frozensets, looks them up in a dict, sorts them and does
    integer arithmetic, the kinds of work the library's loops do.  Its
    time measures the speed of the machine, not of the library."""
    rng = random.Random(0)
    faces = [tuple(sorted(rng.sample(range(64), 4))) for _ in range(8000)]
    index = {f: i for i, f in enumerate(faces)}
    total = 0
    for f in faces:
        members = frozenset(f)
        for v in f:
            rest = tuple(x for x in f if x != v)
            total += index.get(rest + (v,), len(members))
        total ^= hash(members) & 0xFFFF
    faces.sort(key=lambda f: (f[3], f[0]))
    return total + faces[0][0]


class FreshSamples:
    """Reference-task and set-up times, measured one after the other in
    a fresh interpreter, each tagged with the pass it was taken in (None
    after the last pass)."""

    def __init__(self, workload: str, seed: int, seconds: float):
        self.cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
                    "--workload", workload, "--seed", str(seed)]
        self.every = seconds / SETUP_SAMPLES
        self.ref: list[float] = []
        self.setup: list[float] = []
        self.pass_of: list[int | None] = []
        self.current: int | None = None
        self._last = 0.0

    def begin_pass(self, index: int) -> None:
        self.current = index
        self.sample()

    def due(self) -> None:
        """Take a sample if the last one is ``every`` seconds old."""
        if time.perf_counter() - self._last >= self.every:
            self.sample()

    def scaled(self, walls: list[float]) -> list[float]:
        """Each pass time at reference speed, by the samples of its pass."""
        out = []
        for i, wall in enumerate(walls):
            refs = [r for r, k in zip(self.ref, self.pass_of) if k == i]
            out.append(wall * REF_SECONDS / statistics.mean(refs))
        return out

    def sample(self) -> None:
        done = subprocess.run(self.cmd, capture_output=True, text=True, timeout=120,
                              cwd=ROOT, check=False)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            sys.exit(f"bench: set-up failed with exit code {done.returncode}")
        ref, setup_time = map(float, done.stdout.split()[-2:])
        self.ref.append(ref)
        self.setup.append(setup_time)
        self.pass_of.append(self.current)
        self._last = time.perf_counter()


class Runner:
    """Runs passes over a workload's job list and checks every answer."""

    def __init__(self, wl, seed: int):
        self.wl = wl
        self.seed = seed
        self.passes = 0
        self.attempted = 0
        self.failed = 0
        self.between_jobs = None

    def run_pass(self, index: int) -> float:
        """Pass ``index`` over inputs relabelled from (seed, index); returns
        the summed time of the job calls.  Relabelling the inputs and
        checking the answers are not timed."""
        self.passes += 1
        wall = 0.0
        for job in self.wl.jobs(random.Random(f"pass:{self.seed}:{index}")):
            if self.between_jobs is not None:
                self.between_jobs()
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                result = job.run()
            except Exception:
                wall += time.perf_counter() - t0
                self._fail(job, traceback.format_exc())
                continue
            wall += time.perf_counter() - t0
            try:
                ok = job.check(result)
            except Exception:
                ok = False
            if not ok:
                self._fail(job, "wrong answer")
        return wall

    def _fail(self, job, why: str) -> None:
        self.failed += 1
        print(f"bench: job {job.name} failed: {why}", file=sys.stderr)


def _keep_going(start: float, seconds: float, rounds: int) -> bool:
    """Start another round while it should end within half a round of
    the deadline."""
    elapsed = time.perf_counter() - start
    return elapsed + 0.5 * elapsed / rounds < seconds


def measure(runner: Runner, seconds: float, samples: FreshSamples) -> list[float]:
    walls = []
    start = time.perf_counter()
    runner.between_jobs = samples.due
    while len(walls) < MIN_PASSES or _keep_going(start, seconds, len(walls)):
        samples.begin_pass(len(walls))
        walls.append(runner.run_pass(len(walls)))
    runner.between_jobs = None
    samples.current = None
    while len(samples.setup) < SETUP_SAMPLES:
        samples.sample()
    return walls


def measure_traced(runner: Runner, seconds: float, stem: Path) -> dict:
    """Run each pass's inputs twice, untraced and traced, alternating
    which goes first.  Per-layer metrics come from the traced passes, and
    the ratio of the two totals is the tracing overhead."""
    from spans import Tracer

    tracer = Tracer()
    plain, traced = [], []

    def traced_pass(index: int) -> float:
        tracer.install()
        try:
            return runner.run_pass(index)
        finally:
            tracer.uninstall()

    start = time.perf_counter()
    while not plain or _keep_going(start, seconds, len(plain)):
        i = len(plain)
        if i % 2:
            traced.append(traced_pass(i))
            plain.append(runner.run_pass(i))
        else:
            plain.append(runner.run_pass(i))
            traced.append(traced_pass(i))
    overhead = sum(traced) / sum(plain)
    metrics = tracer.metrics(len(traced), overhead)
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(stem, metrics)
    return metrics


def _run_seconds() -> float:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]


def _git_sha() -> str | None:
    """The commit of this checkout, or None outside a git repository."""
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                          text=True, cwd=ROOT, check=False)
    return done.stdout.strip() if done.returncode == 0 else None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float,
                    help="run length (default: run_seconds in BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append the result to this JSON-lines file")
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                    help="compare two --out files and exit")
    ap.add_argument("--setup-only", action="store_true",
                    help="time the reference task and one set-up in this "
                         "process and print both")
    args = ap.parse_args(argv)
    if args.compare:
        from compare import compare
        return compare(*args.compare, ROOT / "BENCHMARK.json")
    if args.workload is None:
        ap.error("--workload is required")
    _use_checkout_sources()
    if args.seconds is None:
        args.seconds = _run_seconds()

    if args.setup_only:
        t0 = time.perf_counter()
        reference_task()
        t1 = time.perf_counter()
        setup(args.workload, args.seed)
        print(f"{t1 - t0:.9f} {time.perf_counter() - t1:.9f}")
        return 0

    runner = Runner(setup(args.workload, args.seed), args.seed)
    import stellar
    if Path(stellar.__file__).resolve().parent != (SRC / "stellar").resolve():
        sys.exit(f"bench: imported stellar from {stellar.__file__}, not {SRC}")

    walls: list[float] = []
    samples = None
    if args.trace:
        stem = OUT_DIR / f"trace-{args.workload}-seed{args.seed}"
        values = measure_traced(runner, args.seconds, stem)
        from spans import PER_LAYER
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in PER_LAYER}
        print(f"spans written to {stem}.json and {stem}.spans")
    else:
        samples = FreshSamples(args.workload, args.seed, args.seconds)
        walls = measure(runner, args.seconds, samples)
        scaled = samples.scaled(walls)
        values = {
            "wall_s": statistics.median(scaled),
            "setup_s": REF_SECONDS * statistics.median(
                s / r for s, r in zip(samples.setup, samples.ref)),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "success_rate": 1 - runner.failed / runner.attempted,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
        print(f"passes (raw s): {', '.join(f'{w:.3f}' for w in walls)}")
        print(f"reference task (raw s): {', '.join(f'{r:.4f}' for r in samples.ref)}")
        print(f"set-ups (raw s): {', '.join(f'{s:.3f}' for s in samples.setup)}")
        print(f"passes (s at reference speed): {', '.join(f'{w:.3f}' for w in scaled)}")
        print(f"wall_s: median of {len(walls)} passes at reference speed "
              f"(raw median {statistics.median(walls):.3f} s)")
        print(f"setup_s: {REF_SECONDS} times the median over {len(samples.setup)} "
              f"fresh interpreters of set-up / reference time")

    for name, m in metrics.items():
        print(f"{args.workload:10s} {name:28s} {m['value']:14.6g} {m['unit']}")
    result = {"correct": runner.failed == 0, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    if args.out:
        record = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "passes": runner.passes, "pass_walls": walls,
                  "ref_samples": samples.ref if samples else [],
                  "sample_pass": samples.pass_of if samples else [],
                  "setup_samples": samples.setup if samples else [],
                  "git_sha": _git_sha(),
                  "cpu_count": os.cpu_count(),
                  "python": platform.python_version(), "result": result}
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
