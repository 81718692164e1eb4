"""fddsense benchmark: one workload, measured for a fixed time.

Usage, from the repository root:

    python3 bench/run.py --workload study-bagging --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing patched.
``--trace 1`` wraps the package's public functions from outside
(bench/spans.py) and reports per-layer metrics.  Each metric is printed
by name with its unit; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  Spans and
the full result, environment stamp included, go to .bench_out/.

The package is imported from src/ beside this directory, never from an
installed copy; without it the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import ctypes
import ctypes.util
import gc
import hashlib
import importlib
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
from contextlib import nullcontext
from pathlib import Path

import spans
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"
OUT_DIR = ROOT / ".bench_out"

# A run keeps measuring past --seconds until it has this many operations,
# so that a study seed repeats and the rerun check fires.
MIN_OPS = 3
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 150
# The benchmark's own code between an operation's top-level spans may take
# at most this share of the traced operation.
ATTRIBUTION_TOLERANCE = 0.02

# One process, one thread: the numbers are taken on a 2-core box, and BLAS
# threads would compete with the benchmark process itself.
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

END_TO_END_UNITS = {
    "op_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "macro_f1": "ratio",
    "sensors_selected": "count",
}


class MissingPackage(Exception):
    pass


def load_package():
    """Import fddsense from this checkout's src/, with one BLAS thread.
    The thread variables must be set before numpy is first imported."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "fddsense" / "__init__.py").is_file():
        raise MissingPackage(f"no fddsense package under {SRC}")
    sys.path.insert(0, str(SRC))
    fdd = importlib.import_module("fddsense")
    if Path(fdd.__file__).resolve().parent != SRC / "fddsense":
        raise MissingPackage(f"fddsense resolved to {fdd.__file__}, not {SRC}")
    return fdd


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    for suffix, unit in (
        ("_s", "s"),
        ("_ratio", "ratio"),
        ("_bytes", "bytes"),
        (".bytes_written", "bytes"),
        ("us_per_split", "us"),
        ("ns_per_row_routed", "ns"),
    ):
        if name.endswith(suffix):
            return unit
    return "count"


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without leaving it; None when
    the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "fddsense").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def environment(args) -> dict:
    import numpy

    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def setup_in_child(args, into: Path) -> float:
    """Run one set-up in a fresh interpreter, so the package import is
    part of it; returns the set-up time the child measured."""
    proc = subprocess.run(
        [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--setup-into", str(into),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def _malloc_trim():
    name = ctypes.util.find_library("c")
    trim = getattr(ctypes.CDLL(name), "malloc_trim", None) if name else None
    if trim is not None:
        trim.argtypes = [ctypes.c_size_t]
        trim.restype = ctypes.c_int
    return trim


MALLOC_TRIM = _malloc_trim()


def release_memory() -> None:
    """Start the next operation from the heap a fresh process would have:
    free cyclic garbage and hand freed heap pages back to the OS (glibc
    only), so the high-water RSS does not depend on where the allocator
    left the previous operation's memory."""
    gc.collect()
    if MALLOC_TRIM is not None:
        MALLOC_TRIM(0)


class Loop:
    """Closed loop with one client: runs operations and checks each one."""

    def __init__(self, fdd, workload, inputs, work: Path):
        self.fdd = fdd
        self.workload = workload
        self.inputs = inputs
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.outcomes = []
        self.walls: list[float] = []
        self.problems: list[str] = []
        self._digests: dict = {}

    def run(self, index: int, tracer=None) -> float:
        """One operation on input index; returns its wall time."""
        out_dir = self.work / f"op-{self.attempted}"
        self.attempted += 1
        release_memory()
        span = nullcontext() if tracer is None else tracer.operation(self.attempted - 1)
        start = time.perf_counter()
        try:
            with span:
                produced = self.workload.operation(self.fdd, self.inputs, index, out_dir)
        except Exception:  # an operation that raises counts as failed; the loop goes on
            self.walls.append(time.perf_counter() - start)
            self.failed += 1
            self.problems.append(traceback.format_exc(limit=3))
            return self.walls[-1]
        self.walls.append(time.perf_counter() - start)
        outcome = self.workload.check(produced)
        first = self._digests.setdefault(outcome.key, outcome.digest)
        if first != outcome.digest:
            outcome.problems.append(f"outputs for input {outcome.key!r} differ from its first run")
        if outcome.problems:
            self.failed += 1
            self.problems += outcome.problems
        self.outcomes.append(outcome)
        shutil.rmtree(out_dir, ignore_errors=True)
        return self.walls[-1]


def measure(fdd, workload, args, work: Path) -> tuple[Loop, dict]:
    """Untraced run: end-to-end metrics."""
    setup_times = []
    for k in range(SETUP_REPEATS):
        setup_dir = work / f"setup-{k}"
        setup_dir.mkdir(parents=True)
        setup_times.append(setup_in_child(args, setup_dir))
    inputs = workload.inputs(args.seed, setup_dir)

    loop = Loop(fdd, workload, inputs, work)
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds or loop.attempted < MIN_OPS:
        loop.run(loop.attempted)
    done = loop.outcomes
    metrics = {
        "op_s": statistics.median(loop.walls),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "macro_f1": statistics.median(o.macro_f1 for o in done) if done else 0.0,
        "sensors_selected": statistics.median(o.sensors for o in done) if done else 0.0,
    }
    return loop, metrics


def trace(fdd, workload, args, work: Path) -> tuple[Loop, dict, spans.Tracer]:
    """Traced run: per-layer metrics.

    Operations come in pairs on the workload's first input, untraced then
    traced, so the overhead ratio compares equal work and every count
    repeats exactly from operation to operation.
    """
    tracer = spans.Tracer()
    setup_dir = work / "setup"
    setup_dir.mkdir(parents=True)
    tracer.install(fdd)
    try:
        with tracer.operation("setup"):
            workload.setup(fdd, args.seed, setup_dir)
    finally:
        tracer.uninstall()
    inputs = workload.inputs(args.seed, setup_dir)

    loop = Loop(fdd, workload, inputs, work)
    plain, traced = [], []
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds or len(traced) < 2:
        plain.append(loop.run(0))
        tracer.install(fdd)
        try:
            traced.append(loop.run(0, tracer))
        finally:
            tracer.uninstall()
    tracer.finish()

    by_op = spans.views(tracer.spans)
    per_op = [spans.op_metrics(view) for op, view in by_op.items() if op != "setup"]
    metrics = {name: statistics.median(m[name] for m in per_op) for name in per_op[0]}
    metrics.update(spans.setup_metrics(by_op["setup"]))
    metrics["trace.op_s"] = statistics.median(traced)
    metrics["trace.untraced_op_s"] = statistics.median(plain)
    metrics["trace.overhead_ratio"] = metrics["trace.op_s"] / metrics["trace.untraced_op_s"]
    worst = min(m["trace.attributed_ratio"] for m in per_op)
    if worst < 1.0 - ATTRIBUTION_TOLERANCE:
        loop.failed += 1
        loop.problems.append(
            f"top-level spans cover only {worst:.4f} of a traced operation "
            f"(tolerance {ATTRIBUTION_TOLERANCE})"
        )
    return loop, metrics, tracer


def write_outputs(args, record: dict, tracer) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if tracer is not None:
        with open(OUT_DIR / f"{stem}-spans.jsonl", "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span.to_json()) + "\n")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-into", type=Path, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    start = time.perf_counter()
    try:
        fdd = load_package()
    except MissingPackage as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if args.setup_into is not None:
        workload.setup(fdd, args.seed, args.setup_into)
        print(json.dumps({"setup_s": time.perf_counter() - start}))
        return 0

    env = environment(args)
    work = WORK_DIR / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = None
    try:
        if args.trace:
            loop, metrics, tracer = trace(fdd, workload, args, work)
        else:
            loop, metrics = measure(fdd, workload, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    write_outputs(
        args,
        {"environment": env, "op_walls_s": loop.walls, "problems": loop.problems, **result},
        tracer,
    )

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{loop.attempted} operations, {loop.failed} failed "
          f"(fail_ratio {loop.failed / loop.attempted:.4f})")
    print("environment " + json.dumps(env, sort_keys=True))
    for problem in loop.problems:
        print(f"problem: {problem}")
    for name, value in metrics.items():
        shown = int(value) if float(value).is_integer() else f"{value:.6g}"
        print(f"{name} = {shown} {unit_of(name)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
