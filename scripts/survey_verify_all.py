"""Survey `verify_all` verdicts on random trinomial or binomial markets.

Runs `harness.verify_all` at x = 1 on `random_tree_market(default_rng(seed),
depth=depth, max_branches=branches)` for every seed, depth and utility
given, and prints one line per failing check (seed, depth, utility, check,
measured value, note), one per run that raised, and a count at the end.
With `--branches 2` every market is a complete binomial tree.

    PYTHONPATH=src python scripts/survey_verify_all.py
    PYTHONPATH=src python scripts/survey_verify_all.py --seeds 0-5 --depths 1-3
    PYTHONPATH=src python scripts/survey_verify_all.py --branches 2
"""

from __future__ import annotations

import argparse

import numpy as np

from numsens import harness, log_utility, mixture_utility, power_utility
from numsens.instances import random_tree_market

UTILITIES = {
    "log": log_utility,
    "power0.5": lambda: power_utility(0.5),
    "power-2": lambda: power_utility(-2.0),
    "mixture": lambda: mixture_utility([(0.5, 0.0), (0.5, -1.0)]),
}


def _span(text: str) -> range:
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=_span, default=range(40), help="inclusive range, e.g. 0-39")
    ap.add_argument("--depths", type=_span, default=range(1, 4), help="inclusive range, e.g. 1-3")
    ap.add_argument("--branches", type=int, choices=(2, 3), default=3,
                    help="largest number of moves at a node (2: complete binomials)")
    args = ap.parse_args(argv)
    runs = failed = 0
    for seed in args.seeds:
        for depth in args.depths:
            for name, make in UTILITIES.items():
                m = random_tree_market(np.random.default_rng(seed), depth=depth,
                                       max_branches=args.branches)
                runs += 1
                try:
                    rep = harness.verify_all(m, make(), 1.0)
                except Exception as err:  # a raise is a survey result, not a stop
                    failed += 1
                    print(f"seed={seed} depth={depth} utility={name} raised "
                          f"{type(err).__name__}: {err}")
                    continue
                bad = [c for c in rep.checks if not c.passed]
                failed += bool(bad)
                for c in bad:
                    print(f"seed={seed} depth={depth} utility={name} check={c.name} "
                          f"computed={c.computed:.3g} note={c.note}")
    print(f"{failed} of {runs} runs fail")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
