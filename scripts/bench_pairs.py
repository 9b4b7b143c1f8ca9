"""Interleaved parent/change pairs of the benchmark, recorded and summarized.

Exports the parent revision (and the change revision, when one is given;
otherwise the working tree at the repository root is the change) with `git
archive` into a temporary directory, then runs `perfbench/run.py` of each
side in turn, `--pairs` times, alternating which side runs first.  The runs
are appended, as one named set, to `BENCH_<yyyymmdd>_<workload>.json` at the
repository root, and each end-to-end metric's median, quartiles and win
count over the pairs are printed (and kept in the set's entry).  Each run
lasts the `run_seconds` of `BENCHMARK.json`.  Several workloads, or `all`
of those `BENCHMARK.json` declares, run one after another in one command,
each with its own pairs and record, so one command records a claimed gain
on one workload and the no-regression pairs of the others.

    python3 scripts/bench_pairs.py --parent HEAD~1 --workload analyze-deep \\
        --set my-change --note "what the change does" --pairs 10 --seed 0
    python3 scripts/bench_pairs.py --parent HEAD~1 --workload all --set my-change

A side wins a pair when its value is better than the other side's in the
direction `BENCHMARK.json` gives.  A gain is claimable when the change wins
at least 9 of 10 pairs and its median is better than the parent's by more
than the parent's interquartile range.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMAND = "python3 perfbench/run.py --workload {workload} --seed SEED --seconds {seconds:g} --trace 0"


def directions(benchmark: dict) -> dict:
    """End-to-end metric name -> "lower" or "higher"."""
    return {m["name"]: m["better"] for m in benchmark["end_to_end"]}


def quartiles(values):
    """(q1, median, q3), linear-interpolated (the numpy default)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(runs, better: dict) -> list:
    """One row per metric over the pairs both sides completed: each side's
    quartiles, the change's wins, and whether the median gap exceeds the
    parent's interquartile range in the better direction."""
    sides = {}
    for r in runs:
        sides.setdefault(r["pair"], {})[r["side"]] = r["metrics"]
    pairs = [p for _, p in sorted(sides.items()) if "parent" in p and "change" in p]
    rows = []
    for name, way in better.items():
        par = [p["parent"][name] for p in pairs if name in p["parent"]]
        chg = [p["change"][name] for p in pairs if name in p["change"]]
        if not par or len(par) != len(chg):
            continue
        sign = 1.0 if way == "higher" else -1.0
        wins = sum(sign * (c - p) > 0.0 for p, c in zip(par, chg))
        pq, cq = quartiles(par), quartiles(chg)
        rows.append({"metric": name, "better": way, "pairs": len(par), "change_wins": wins,
                     "parent": pq, "change": cq,
                     "gap_exceeds_parent_iqr": sign * (cq[1] - pq[1]) > pq[2] - pq[0]})
    return rows


def format_rows(rows) -> str:
    lines = [f"{'metric':<16} {'parent q1/median/q3':>34} {'change q1/median/q3':>34} wins  gap>IQR"]
    for r in rows:
        par = "/".join(f"{v:.4g}" for v in r["parent"])
        chg = "/".join(f"{v:.4g}" for v in r["change"])
        lines.append(f"{r['metric']:<16} {par:>34} {chg:>34} {r['change_wins']:>2}/{r['pairs']:<2}"
                     f" {'yes' if r['gap_exceeds_parent_iqr'] else 'no'}")
    return "\n".join(lines)


def _export(rev: str, into: Path) -> Path:
    """The committed files of `rev`, unpacked under `into`."""
    into.mkdir()
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                         capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=tar, check=True)
    return into


def _run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if done.returncode not in (0, 1):  # 1: a task failed, and the run still reports
        raise SystemExit(f"bench_pairs: {' '.join(cmd)} in {checkout} exited "
                         f"{done.returncode}:\n{done.stderr}")
    last = json.loads(done.stdout.strip().splitlines()[-1])
    return {"correct": last["correct"],
            "metrics": {k: v["value"] for k, v in last["metrics"].items()}}


def _host() -> str:
    ram = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2.0**30
    return f"{os.cpu_count()}-core host, {ram:.1f} GB RAM"


def _revision(rev: str) -> str:
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", rev],
                          capture_output=True, text=True, check=True)
    return done.stdout.strip()


def workload_names(requested, benchmark: dict) -> list:
    """The workloads to run, in the order asked: `all` stands for every
    workload `BENCHMARK.json` declares, in its order; a name given twice
    runs once."""
    declared = [w["name"] for w in benchmark["workloads"]]
    names = []
    for name in requested:
        for one in declared if name == "all" else [name]:
            if one not in declared:
                raise SystemExit(f"bench_pairs: unknown workload {one!r}; "
                                 f"BENCHMARK.json declares {', '.join(declared)}")
            if one not in names:
                names.append(one)
    return names


def _record_path(workload: str) -> Path:
    return ROOT / f"BENCH_{datetime.date.today():%Y%m%d}_{workload}.json"


def run_set(workload, sides, args, better, seconds) -> None:
    """The interleaved pairs of one workload, appended as the set `args.set`
    to the workload's record, and their summary printed."""
    path = _record_path(workload)
    record = json.loads(path.read_text()) if path.exists() else {
        "workload": workload, "date": f"{datetime.date.today()}",
        "command": COMMAND.format(workload=workload, seconds=seconds),
        "host": f"{_host()}; parent and change runs interleaved, alternating which runs first",
        "runs": [], "sets": {}}
    runs = []
    for pair in range(1, args.pairs + 1):
        order = ("parent", "change") if pair % 2 else ("change", "parent")
        for side in order:
            run = _run(sides[side], workload, args.seed, seconds)
            runs.append({"set": args.set, "side": side, "pair": pair, "seed": args.seed, **run})
            print(f"{workload} pair {pair} {side}: correct {run['correct']}, "
                  + ", ".join(f"{k} {v:.4g}" for k, v in run["metrics"].items()),
                  flush=True)
    rows = summarize(runs, better)
    record["runs"].extend(runs)
    record["sets"][args.set] = {
        "parent_commit": _revision(args.parent), "note": args.note,
        "code": (f"revision {_revision(args.change)}" if args.change
                 else f"the working tree on {_revision('HEAD')}"),
        "seed": args.seed, "summary": rows}
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(format_rows(rows))
    print(f"wrote {path.name}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True,
                    help="git revision the change is measured against")
    ap.add_argument("--change", default=None,
                    help="git revision of the change (default: the working tree)")
    ap.add_argument("--workload", required=True, nargs="+",
                    help="perfbench workload names, or all")
    ap.add_argument("--set", required=True, help="name of the set of runs in each record")
    ap.add_argument("--note", default="", help="what the change does, for the record")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be positive")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    better, seconds = directions(benchmark), benchmark["run_seconds"]
    workloads = workload_names(args.workload, benchmark)
    for workload in workloads:
        path = _record_path(workload)
        if path.exists() and args.set in json.loads(path.read_text())["sets"]:
            raise SystemExit(f"bench_pairs: set {args.set!r} is already in {path.name}")
    parent = _revision(args.parent)
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        sides = {"parent": _export(parent, Path(tmp) / "parent"),
                 "change": _export(args.change, Path(tmp) / "change") if args.change else ROOT}
        for workload in workloads:
            run_set(workload, sides, args, better, seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
