"""Complete trees solve by Newton like every other tree.

On a complete tree the optimum also has a closed form: the unique pricing
weights Q and a budget root-find for the multiplier of Z = N·I(lam·Q·N/p).
That form is the oracle `naive_complete_tree_terminal`;
`solve_primal` must agree with it and, unlike it, meet the budget to
rounding.  The same weights price the risk-tolerance payoff, whose
replicating wealth is its Q-conditional expectation."""

import numpy as np
import pytest

from numsens.instances import (
    binomial_walk_market,
    one_period_binomial_market,
    random_tree_market,
)
from numsens.market import numeraire
from numsens.preferences import log_utility, mixture_utility, power_utility
from numsens.risktol import risk_tolerance
from numsens.solver import solve_pair, solve_primal
from numsens.tree import BlockPlan

from reference_loops import naive_complete_tree_terminal, naive_pricing_weights

MARKETS = {
    **{f"bin{d}-seed{s}": (lambda s=s, d=d: random_tree_market(
        np.random.default_rng(s), depth=d, max_branches=2))
       for s in range(8) for d in (1, 2, 3, 5)},
    **{f"walk{d}": (lambda d=d: binomial_walk_market(d)) for d in (6, 8, 10)},
    "one-period": one_period_binomial_market,
}

UTILITIES = {
    "log": log_utility(),
    "power0.5": power_utility(0.5),
    "power-2": power_utility(-2.0),
    "mixture": mixture_utility([(0.5, 0.0), (0.5, -1.0)]),
}


@pytest.mark.parametrize("name", sorted(MARKETS))
def test_newton_matches_the_closed_form_and_meets_the_budget(name):
    # Over 2,208 solves (random binomials of seeds 0-29 at depths 1, 2, 3,
    # 5, 8 and 10, these walks and the one-period binomial, at these eps)
    # the worst agreement under log and power utilities measured 5.3e-15
    # relative in value, 9.6e-14 in marginal and 3.1e-10 in leaf wealth
    # relative to its largest leaf; the bounds leave about 3 times that.
    # Leaf wealth is compared only against its maximum: at wealth ratios
    # near 1e14 both solutions differ by up to 8e-8 at the smallest leaves,
    # with budget residuals of about 1e-14 on both sides.
    #
    # Newton's wealth is x + W·alpha, so pricing it with the unique weights
    # Q gives x = 1 up to rounding: the worst of those solves measured
    # 1.0e-14 under every utility.  The closed form missed by up to 5.8e-13
    # under the mixture (bin1-seed7, eps = 0), whose inverse marginal stops
    # at 1e-12, so it is no reference for the mixture.
    m = MARKETS[name]()
    p, leaves = m.tree.leaf_prob, m.tree.leaves
    Q = naive_pricing_weights(m)
    for uname, u in UTILITIES.items():
        for eps in (0.0, 0.3 * m.eps0, -0.3 * m.eps0):
            sol = solve_primal(m, u, 1.0, eps)
            assert abs(float(Q @ sol.zwealth.values[leaves]) - 1.0) <= 1e-13
            if uname == "mixture":
                continue
            Z = naive_complete_tree_terminal(m, u, 1.0, eps)
            Nl = numeraire(m, eps).values[leaves]
            value, marginal = float(p @ u.u(Z / Nl)), float(p @ (u.du(Z / Nl) / Nl))
            assert abs(sol.value - value) <= 2e-14 * max(1.0, abs(value))
            assert abs(sol.marginal - marginal) <= 3e-13 * marginal
            assert np.max(np.abs(sol.zwealth.values[leaves] - Z)) <= 1e-9 * np.max(Z)


@pytest.mark.parametrize("name", sorted(MARKETS))
def test_risk_tolerance_replicates_at_the_pricing_weights_without_the_payoff_matrix(
        name, monkeypatch):
    # Over these markets and utilities the kernel's replication measured
    # 2.2e-15 relative in initial capital and 6.7e-16 in node value relative
    # to the largest node value; the dense lstsq on [1, W] measured 1.3e-13
    # and 2.3e-14, which these bounds reject.
    def dense(_plan):
        raise AssertionError("a complete tree replicates without the payoff matrix")

    monkeypatch.setattr(BlockPlan, "payoff_matrix", dense)
    m = MARKETS[name]()
    Q = naive_pricing_weights(m)
    for u in UTILITIES.values():
        rt = risk_tolerance(solve_pair(m, u, 1.0))
        assert rt.exists
        price = float(Q @ rt.payoff)
        assert abs(rt.initial - price) <= 1e-14 * price
        expected = m.tree.conditional_expectation(Q, rt.payoff)
        assert np.max(np.abs(rt.process.values - expected)) <= 4e-15 * np.max(expected)
