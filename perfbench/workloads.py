"""Workload definitions: market families, task kinds, rounds and schedules.

A task runs one library call chain on one generated market.  A round is a
fixed list of slots, each slot a (family, utility) pair, so every round has
the same mix of tree sizes and utilities and per-run medians do not depend on
which markets the seed happened to draw.  Each slot draws its markets from a
recorded pool of generator seeds (``reference.json``); the run seed only
decides which pool entries each round takes and in what order.  The held-out
seed draws from pools of its own, which no other seed reaches.  Every
scheduled task gets a freshly generated market object, so nothing the
library might cache on a model carries over from one task to the next.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import numsens
from numsens import harness
from numsens.instances import random_tree_market

X = 1.0  # initial wealth of every task
HELD_OUT_SEED = 7919

UTILITIES = {
    "log": numsens.log_utility,
    "power0.5": lambda: numsens.power_utility(0.5),
    "power-2": lambda: numsens.power_utility(-2.0),
    "mixture": lambda: numsens.mixture_utility([(0.5, 0.0), (0.5, -1.0)]),
}


def four_branch_market(rng: np.random.Generator, depth: int) -> numsens.MarketModel:
    """d=2 market with four moves per node, built from the public
    constructors.  Each node's moves are centred under a random strictly
    positive pricing vector, so no node admits a one-step arbitrage; the
    four moves span two of the three one-step directions (incomplete)."""
    parent, prob, moves, theta = [-1], [1.0], [np.zeros(2)], [np.zeros(3)]
    level = [0]
    for _ in range(depth):
        nxt = []
        for node in level:
            q = rng.uniform(0.2, 1.0, 4)
            q /= q.sum()
            raw = rng.uniform(-0.1, 0.1, (4, 2))
            mv = raw - q @ raw
            w = rng.uniform(0.2, 1.0, 4)
            w /= w.sum()
            t = rng.uniform(-0.3, 0.6, 2)
            th = np.array([1.0 - t.sum(), t[0], t[1]])
            for k in range(4):
                parent.append(node)
                prob.append(float(w[k]))
                moves.append(mv[k])
                theta.append(th)
                nxt.append(len(parent) - 1)
        level = nxt
    tree = numsens.EventTree(parent, prob)
    inc = np.zeros((tree.n_nodes, 3))
    inc[:, 1:] = np.asarray(moves)
    returns = numsens.AdaptedProcess.from_increments(tree, inc)
    return numsens.MarketModel(tree, returns, numsens.PredictableProcess(tree, np.asarray(theta)))


@dataclass(frozen=True)
class Family:
    """Market generator; ``band`` bounds the node count when the tree size
    is random (used when recording pools, never at run time)."""

    depth: int
    kind: str              # "tri" (random_tree_market, max_branches=3),
                           # "bin" (max_branches=2, complete) or "quad" (d=2)
    band: tuple = None

    def make(self, gen_seed: int) -> numsens.MarketModel:
        rng = np.random.default_rng(gen_seed)
        if self.kind == "quad":
            return four_branch_market(rng, self.depth)
        branches = 3 if self.kind == "tri" else 2
        return random_tree_market(rng, depth=self.depth, max_branches=branches)


# Random trinomials of one depth vary about threefold in node count (depth
# 7: ~600 to ~1,700) and cost grows roughly with its cube; the bands hold
# each tree size near the middle of its range, so per-run medians do not
# depend on which markets the seed draws.
FAMILIES = {
    "tri3": Family(3, "tri", band=(24, 28)),
    "tri4": Family(4, "tri", band=(60, 72)),
    "tri7": Family(7, "tri", band=(1450, 1550)),
    "bin10": Family(10, "bin"),
    "quad2": Family(2, "quad"),
    "quad3": Family(3, "quad"),
}


# ---------------------------------------------------------------------------
# tasks: one library call chain each, returning (outputs, check verdicts)
# ---------------------------------------------------------------------------

# checks of verify_all / risk_tolerance_report whose computed value is a
# result of the program rather than a residual, grouped by common scale
VALUE_CHECKS = {
    "primal-value": "uyv", "marginal-value": "uyv", "dual-value": "uyv",
    "pricing-weights-total": "capital", "initial-capital": "capital",
    "gkw-a-ee": "gkw", "gkw-b-ee": "gkw", "gkw-a-xe": "gkw", "gkw-b-ye": "gkw",
}


def analyze(m, u, x=X):
    opt = numsens.solve_pair(m, u, x, 0.0)
    ex = numsens.expansion_report(m, u, x, optimum=opt)
    outputs = {
        "uyv": [opt.primal.value, opt.y, opt.dual.value],
        "gradients": [*ex.gradient_u, *ex.gradient_v],
        "hessians": [*ex.hessian_u.ravel(), *ex.hessian_v.ravel()],
        "aux": [ex.a_xx, ex.a_ee, ex.a_xe, ex.b_yy, ex.b_ee, ex.b_ye],
    }
    # the limits solve_report applies to the same two residuals
    checks = [opt.primal.foc_residual <= 1e-10, opt.dual.conjugacy_residual <= 1e-10]
    return outputs, checks


def _report_outputs(rep):
    outputs = {"names": [c.name for c in rep.checks]}
    for c in rep.checks:
        group = VALUE_CHECKS.get(c.name)
        if group is None:
            continue
        vals = outputs.setdefault(group, [])
        vals.append(c.computed)
        if group == "gkw":
            vals.append(c.reference)   # the least-squares engine's value
    return outputs, [c.passed for c in rep.checks]


def verify(m, u, x=X):
    return _report_outputs(harness.verify_all(m, u, x))


def risk_tolerance(m, u, x=X):
    return _report_outputs(harness.risk_tolerance_report(m, u, x))


TASKS = {"analyze": analyze, "verify": verify, "risktol": risk_tolerance}


@dataclass(frozen=True)
class Workload:
    name: str
    task: str
    round: tuple           # slots "family/utility"; a slot may repeat
    trace_rounds: int      # rounds in the fixed batch a traced run measures
    round_s: float         # rough seconds per round, to size the set-up batch

    @property
    def slots(self):
        return sorted(set(self.round))


# Why each workload exists is stated in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w for w in (
        Workload("analyze-deep", "analyze", ("tri7/power0.5", "tri7/power-2") * 2, 2, 6.0),
        Workload(
            "verify-small", "verify",
            # twice as many depth-4 tasks as any other kind, so the median
            # task sits inside one cluster of similar tasks
            tuple(f"tri3/{u}" for u in UTILITIES) + tuple(f"tri4/{u}" for u in UTILITIES) * 2
            + ("quad2/log", "quad2/mixture", "quad3/power-2"), 1, 16.0),
        Workload("complete-binomial", "risktol",
                 ("bin10/log", "bin10/power0.5", "bin10/power-2"), 2, 7.5),
    )
}


def slot_parts(slot: str):
    fam, util = slot.split("/")
    return FAMILIES[fam], UTILITIES[util]


def pools_for(ref_w: dict, seed: int) -> dict:
    """The recorded pools a run seed draws from: the held-out seed has its
    own, disjoint from those of every other seed."""
    return ref_w["held_out_pools" if seed == HELD_OUT_SEED else "pools"]


class Schedule:
    """Seeded order in which each slot takes its pool entries.

    Round r uses, for the k-th occurrence of a slot in the round, the pool
    entry at position r*count + k of that slot's seeded permutation,
    wrapping around once the pool is used up."""

    def __init__(self, workload: Workload, pools: dict, seed: int):
        self.workload = workload
        self.pools = pools
        rng = np.random.default_rng(seed)
        self.perm = {s: rng.permutation(len(pools[s])) for s in workload.slots}
        self.count = {s: workload.round.count(s) for s in workload.slots}

    def build_round(self, r: int):
        """[(slot, pool entry, market, utility)] for round r, in round order,
        with freshly generated markets."""
        seen = dict.fromkeys(self.count, 0)
        out = []
        for slot in self.workload.round:
            perm = self.perm[slot]
            entry = self.pools[slot][int(perm[(r * self.count[slot] + seen[slot]) % len(perm)])]
            seen[slot] += 1
            fam, make_u = slot_parts(slot)
            m = fam.make(entry["seed"])
            if m.tree.n_nodes != entry["nodes"]:
                raise RuntimeError(
                    f"{slot} seed {entry['seed']}: generated {m.tree.n_nodes} nodes, "
                    f"reference pool says {entry['nodes']}")
            out.append((slot, entry, m, make_u()))
        return out

