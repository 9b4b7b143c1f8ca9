"""Print a sha256 digest of each `verify_all` report on a fixed set of markets.

Runs `harness.verify_all(m, u, 1.0)` on the five small named markets of
`numsens.instances` and on `random_tree_market(default_rng(seed),
depth=depth)` for seeds 0-5 and depths 1-3, each under log, power 0.5,
power -2 and the mixture 1/2 power 0.5 + 1/2 log: 92 reports.  Prints one
line per report, `<market> <utility> <sha256 of to_text()>`, then
`all <sha256 of every report in that order>`.  Two checkouts that print the
same lines write the same report bytes on these markets.

    PYTHONPATH=src python scripts/report_digests.py
"""

from __future__ import annotations

import hashlib
from functools import partial

import numpy as np

from numsens import harness, log_utility, mixture_utility, power_utility
from numsens.instances import (
    asymmetric_trinomial_market,
    bank_direction_market,
    one_period_binomial_market,
    random_tree_market,
    t1_market,
    two_period_trinomial_market,
)


def _trinomial(seed: int, depth: int):
    return random_tree_market(np.random.default_rng(seed), depth=depth)


MARKETS = {
    "t1": t1_market,
    "asym": asymmetric_trinomial_market,
    "twop": two_period_trinomial_market,
    "binom": one_period_binomial_market,
    "bank_dir": bank_direction_market,
    **{f"tri-seed{seed}-depth{depth}": partial(_trinomial, seed, depth)
       for seed in range(6) for depth in range(1, 4)},
}

UTILITIES = {
    "log": log_utility,
    "power0.5": lambda: power_utility(0.5),
    "power-2": lambda: power_utility(-2.0),
    "mixture": lambda: mixture_utility([(0.5, 0.5), (0.5, 0.0)]),
}


def main() -> int:
    combined = hashlib.sha256()
    for market, make in MARKETS.items():
        for utility, make_utility in UTILITIES.items():
            text = harness.verify_all(make(), make_utility(), 1.0).to_text().encode()
            combined.update(text)
            print(f"{market} {utility} {hashlib.sha256(text).hexdigest()}")
    print(f"all {combined.hexdigest()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
