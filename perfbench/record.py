"""Record the market pools and reference values in ``reference.json``.

    python3 perfbench/record.py

For every slot of every workload this picks the generator seeds of two
disjoint pools, the pool every run seed draws from and the pool only the
held-out seed draws from.  Each pool scans upward from its own base
(``SEED_STRIDE`` apart per slot, the held-out pool half a stride above the
other) and, for families with a node band, keeps only trees inside the band.
It then runs the workload's task on each market at x = 1 and stores the
outputs.  It always re-records every workload.

Tolerances come from measured agreement, not from a chosen constant.  Each
task is run again at x moved by one unit in the last place either way; the
true values move by about 1e-16 relative, so the change in each output
group is the solver's own roundoff sensitivity on that market.  The
tolerance of a group is the largest such change over both of the workload's pools,
rounded up to a power of ten, then widened by one further decade for
reorderings of the arithmetic that a one-ulp input change does not
exercise, and never set below the 1e-12 relative agreement the roadmap asks
of the acceptance values.

Run it only to redefine the benchmark: the references must come from the
program as it was when the benchmark was defined.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference  # noqa: E402
import workloads  # noqa: E402

POOL_SIZE = {"analyze-deep": 24, "verify-small": 8, "complete-binomial": 10}
FLOOR = 1e-12
SEED_STRIDE = 100_000
POOL_BASES = {"pools": 0, "held_out_pools": SEED_STRIDE // 2}
JOBS = 2


def pick_seeds(base: int, fam, size: int):
    seeds = []
    s = base
    while len(seeds) < size:
        if fam.band is None or fam.band[0] <= fam.make(s).tree.n_nodes <= fam.band[1]:
            seeds.append(s)
        s += 1
    return seeds


def record_entry(task: str, slot: str, seed: int):
    fam, make_u = workloads.slot_parts(slot)
    m, u = fam.make(seed), make_u()
    run = workloads.TASKS[task]
    outputs, checks = run(m, u)
    noise = dict.fromkeys((g for g in outputs if g != "names"), 0.0)
    for x in (math.nextafter(workloads.X, math.inf), math.nextafter(workloads.X, 0.0)):
        moved, _ = run(fam.make(seed), u, x)
        for g in noise:
            noise[g] = max(noise[g], reference.group_error(moved[g], outputs[g]))
    return {"seed": seed, "nodes": m.tree.n_nodes, "outputs": outputs,
            "checks_failed": checks.count(False), "checks": len(checks), "noise": noise}


def tolerance(noise: float) -> float:
    if noise == 0.0:
        return FLOOR
    return max(FLOOR, 10.0 ** (math.ceil(math.log10(noise)) + 1))


def main():
    all_slots = sorted({(w.name, s) for w in workloads.WORKLOADS.values() for s in w.slots})
    jobs = []
    for i, (wname, slot) in enumerate(all_slots):
        fam, _ = workloads.slot_parts(slot)
        for pool, base in POOL_BASES.items():
            for seed in pick_seeds((i + 1) * SEED_STRIDE + base, fam, POOL_SIZE[wname]):
                jobs.append((wname, pool, slot, seed))

    ctx = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=JOBS, mp_context=ctx) as executor:
        futures = [executor.submit(record_entry, workloads.WORKLOADS[w].task, slot, seed)
                   for w, _, slot, seed in jobs]
        results = [f.result() for f in futures]

    out = {"x": workloads.X, "floor": FLOOR, "workloads": {}}
    for (wname, pool, slot, _), entry in zip(jobs, results):
        w = out["workloads"].setdefault(wname, {p: {} for p in POOL_BASES})
        w[pool].setdefault(slot, []).append(entry)
    for w in out["workloads"].values():
        noise = {}
        for pool in POOL_BASES:
            for entries in w[pool].values():
                for e in entries:
                    for g, v in e["noise"].items():
                        noise[g] = max(noise.get(g, 0.0), v)
        w["noise"] = noise
        w["tolerance"] = {g: tolerance(v) for g, v in noise.items()}
    with open(reference.REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for name, w in out["workloads"].items():
        print(name, "noise", w["noise"], "tolerance", w["tolerance"])


if __name__ == "__main__":
    main()
