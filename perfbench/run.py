#!/usr/bin/env python3
"""numsens benchmark: time to the second-order expansion and to a verify-all
verdict, on deep, campaign and complete trees.

    python3 perfbench/run.py --workload analyze-deep --seed 0 --seconds 30 --trace 0

Run from the repository root; the library is imported from ``src/``.  With
``--trace 0`` the run repeats whole rounds of tasks for about ``--seconds``
seconds and reports the end-to-end metrics; with ``--trace 1`` it runs a
fixed batch of rounds once untraced and once traced and reports per-layer
metrics.  Every task's outputs are compared with ``reference.json``.  The
last line of standard output is one JSON object; a fuller record, with the
environment and every task, goes to ``perfbench/out/``.  The exit status is
1 when a task failed and 2 when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import inspect
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 4   # extra set-ups in fresh processes; setup_s is the median of 1 + this
TAIL_BEYOND = 10   # tasks that must lie beyond the tail percentile


@dataclass
class TaskResult:
    slot: str
    seed: int
    nodes: int
    seconds: float
    ok: bool
    checks: int
    checks_failed: int
    problems: list


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0,
                    help="workload seed (default 0; held-out seed 7919, see README.md)")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="only set up, print the set-up seconds and exit (used for set-up probes)")
    return ap.parse_args(argv)


def fail(msg: str, code: int = 2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


# ---------------------------------------------------------------------------
# set-up: import the library, generate the markets, load the references
# ---------------------------------------------------------------------------


def setup(args):
    """Returns (seconds, context).  The markets for the traced batch are
    generated twice, once for the untraced and once for the traced pass."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import numsens
    if Path(numsens.__file__).resolve().parent != (SRC / "numsens").resolve():
        fail(f"imported numsens from {numsens.__file__}, not from {SRC}")
    import reference
    import workloads

    ref = reference.load()
    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    w = workloads.WORKLOADS[args.workload]
    ref_w = ref["workloads"][w.name]
    schedule = workloads.Schedule(w, workloads.pools_for(ref_w, args.seed), args.seed)
    if args.trace:
        # a warm-up task, then the batch twice: untraced and traced
        rounds = [schedule.build_round(0)[:1]] + [
            [schedule.build_round(r) for r in range(w.trace_rounds)] for _ in range(2)]
    else:
        n = max(1, int(-(-args.seconds // w.round_s)))
        rounds = [schedule.build_round(r) for r in range(n)]
    elapsed = time.perf_counter() - start
    return elapsed, {"workload": w, "ref": ref_w, "schedule": schedule, "rounds": rounds,
                     "task": workloads.TASKS[w.task], "compare": reference.compare}


def setup_seconds(args, first: float) -> float:
    samples = [first]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
        if done.returncode != 0:
            fail(f"set-up probe failed:\n{done.stderr}")
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(samples)


# ---------------------------------------------------------------------------
# tasks
# ---------------------------------------------------------------------------


def run_tasks(ctx, entries, results, tracer=None):
    task, compare, tol = ctx["task"], ctx["compare"], ctx["ref"]["tolerance"]
    for slot, entry, m, u in entries:
        if tracer is not None:
            tracer.start_task(len(results))
        start = time.perf_counter()
        try:
            outputs, checks = task(m, u)
        except Exception:  # a failing task is counted, and the run goes on
            seconds = time.perf_counter() - start
            problems, checks = [traceback.format_exc()], []
        else:
            seconds = time.perf_counter() - start
            problems = compare(outputs, entry["outputs"], tol)
        for p in problems:
            print(f"perfbench: {slot} seed {entry['seed']}: {p}", file=sys.stderr)
        results.append(TaskResult(slot, entry["seed"], m.tree.n_nodes, seconds, not problems,
                                  len(checks), checks.count(False), problems))


def timed_run(ctx, seconds):
    """Whole rounds until about `seconds` of wall time: another round starts
    only while the expected end stays within half a round of the target.
    Returns the task results and the wall seconds of the whole phase."""
    results = []
    rounds = ctx["rounds"]
    start = time.perf_counter()
    r = 0
    while True:
        entries = rounds[r] if r < len(rounds) else ctx["schedule"].build_round(r)
        run_tasks(ctx, entries, results)
        r += 1
        wall = time.perf_counter() - start
        if wall + 0.5 * wall / r >= seconds:
            return results, wall


def percentile(values, q):
    """Linear-interpolated percentile (the numpy default)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def end_to_end(results, wall, setup_s):
    times = [t.seconds for t in results]
    n = len(times)
    # the highest percentile with at least TAIL_BEYOND tasks beyond it; below
    # 2*TAIL_BEYOND tasks that percentile would sit under the median, so the
    # tail is reported at the median instead
    tail_q = max(50.0, 100.0 * (n - TAIL_BEYOND) / n)
    checks = sum(t.checks for t in results)
    check_fail_frac = sum(t.checks_failed for t in results) / checks if checks else 0.0
    failed = sum(not t.ok for t in results)
    metrics = {
        "setup_s": (setup_s, "s"),
        "task_s.p50": (statistics.median(times), "s"),
        "task_s.tail": (percentile(times, tail_q), "s"),
        "nodes_per_s": (sum(t.nodes for t in results if t.ok) / wall, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "task_ok_frac": (1.0 - failed / n, "frac"),
        "check_pass_frac": (1.0 - check_fail_frac, "frac"),
    }
    info = {"tail_percentile": tail_q, "tasks": n, "timed_wall_s": wall, "fail_frac": failed / n,
            "check_fail_frac": check_fail_frac}
    return metrics, info


def traced_run(ctx):
    from tracing import Tracer

    warmup, batch_off, batch_on = ctx["rounds"]
    untraced, traced = [], []
    # the warm-up keeps one-time costs (first BLAS, LP and lazy imports)
    # out of the untraced pass, which runs first
    run_tasks(ctx, warmup, untraced)
    warm = untraced.pop()
    for entries in batch_off:
        run_tasks(ctx, entries, untraced)
    tracer = Tracer()
    tracer.install()
    try:
        for entries in batch_on:
            run_tasks(ctx, entries, traced, tracer)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    t_off = sum(t.seconds for t in untraced)
    t_on = sum(t.seconds for t in traced)
    metrics["trace.overhead_s"] = (t_on - t_off, "s")
    info = {"untraced_s": t_off, "traced_s": t_on, "spans": len(tracer.spans)}
    return [warm] + untraced + traced, metrics, info, tracer.spans


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------


def _blas_threads(numpy):
    """Thread count in effect in the OpenBLAS that numpy loaded, or None."""
    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "libscipy_openblas*.so")):
        cdll = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(cdll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment():
    import numpy
    import scipy
    from numsens import harness

    sha = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            sha = done.stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "numsens").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        openblas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]["version"]
    except (AttributeError, KeyError):
        openblas = None
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(numpy),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "harness_pool_threads": inspect.signature(harness._pmap).parameters["workers"].default,
    }


# ---------------------------------------------------------------------------


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "numsens" / "__init__.py").is_file():
        fail(f"no numsens sources under {SRC}; run from a full checkout")
    if not (HERE / "reference.json").is_file():
        fail("perfbench/reference.json is missing")
    if args.seconds <= 0:
        fail("--seconds must be positive")

    first, ctx = setup(args)
    if args.setup_only:
        print(json.dumps({"setup_s": first}))
        return 0
    setup_s = setup_seconds(args, first)

    spans = None
    if args.trace:
        results, metrics, info, spans = traced_run(ctx)
    else:
        results, wall = timed_run(ctx, args.seconds)
        metrics, info = end_to_end(results, wall, setup_s)
    failed = sum(not t.ok for t in results)

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "setup_s": setup_s, "environment": environment(),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "info": info, "tasks": [asdict(t) for t in results]}
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if spans is not None:
        with open(OUT / f"{stem}-spans.json", "w", encoding="utf-8") as fh:
            json.dump({"columns": ["id", "name", "start", "end", "parent", "task", "thread"],
                       "spans": spans}, fh)

    for k, (v, u) in metrics.items():
        print(f"{args.workload} {k} = {v:.6g} {u}")
    for k, v in info.items():
        print(f"{args.workload} {k} = {v}")
    print(f"{args.workload} environment {json.dumps(record['environment'])}")
    print(json.dumps({"correct": failed == 0, "attempted": len(results), "failed": failed,
                      "metrics": record["metrics"]}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
