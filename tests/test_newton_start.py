"""The first-order Newton start of campaign re-solves.

`ExpansionReport.newton_start` linearizes the optimum's Newton coefficients
in (x, eps); a re-solve that starts there must reach the same optimum as a
cold one, in fewer steps."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from numsens.preferences import log_utility, mixture_utility, power_utility
from numsens.sensitivity import expansion_report
from numsens.solver import solve_primal

from conftest import make_random_tree

UTILITIES = {
    "log": log_utility(),
    "power0.5": power_utility(0.5),
    "power-2": power_utility(-2.0),
    "mixture": mixture_utility([(0.5, 0.0), (0.5, -1.0)]),
}


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("depth", [2, 3, 5])
def test_start_is_the_first_order_expansion_of_the_optimal_wealth(seed, depth):
    # alpha_x and alpha_eps come from two kernel fits with the Newton
    # weights; X_x and X_eps from the paper's auxiliary problems.  Over
    # these 72 cases the worst errors, relative to the largest leaf value,
    # measured 2.7e-12 (X_x) and 2.1e-13 (X_eps); the bound leaves about 35
    # times the worst of them.
    m = make_random_tree(seed, depth=depth)
    leaves, plan = m.tree.leaves, m.space.plan
    for u in UTILITIES.values():
        ex = expansion_report(m, u, 1.0)
        alpha_x, alpha_eps = ex.first_order_coeffs
        X_x = plan.process(alpha_x, 1.0)[leaves]
        X_eps = plan.process(alpha_eps, 0.0)[leaves] + ex.optimum.primal.terminal * ex.F
        assert np.max(np.abs(X_x - ex.X_x)) <= 1e-10 * np.max(np.abs(ex.X_x))
        assert np.max(np.abs(X_eps - ex.X_eps)) <= 1e-10 * np.max(np.abs(ex.X_eps))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(sorted(UTILITIES)),
       st.integers(3, 9), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
def test_warm_and_cold_resolves_agree(seed, utility, k, fx, fe):
    # Newton stops at a first-order residual of 1e-13 from either start, so
    # the marginal and the wealth may differ by that times the conditioning;
    # the value is stationary and differs by rounding.  On 2,160 such solves
    # the worst differences measured 5.0e-16 (value), 1.2e-13 (marginal),
    # 4.1e-12 (terminal wealth) and the worst warm residual 4.4e-13.
    m = make_random_tree(seed, depth=1 + seed % 3)
    u = UTILITIES[utility]
    ex = expansion_report(m, u, 1.0)
    # a point of the campaigns' region: x + dx > 0 and |eps| < eps0
    x, eps = 1.0 + fx * 2.0**-k, fe * min(2.0**-k, 0.9 * m.eps0)
    cold = solve_primal(m, u, x, eps)
    warm = solve_primal(m, u, x, eps, start=ex.newton_start(x, eps))
    assert warm.foc_residual <= 1e-10
    assert abs(warm.value - cold.value) <= 1e-14 * max(1.0, abs(cold.value))
    assert abs(warm.marginal - cold.marginal) <= 1e-11 * cold.marginal
    assert np.max(np.abs(warm.terminal - cold.terminal) / cold.terminal) <= 1e-10

    # a start whose wealth is not strictly positive falls back to alpha = 0
    plan, leaves = m.space.plan, m.tree.leaves
    column = plan.process(np.eye(plan.n_cols)[0], 0.0)[leaves]
    bad = np.zeros(plan.n_cols)
    bad[0] = -2.0 * x / column.min()
    assert np.min(plan.process(bad, x)[leaves]) <= 0.0
    fallback = solve_primal(m, u, x, eps, start=bad)
    assert fallback.value == cold.value and fallback.marginal == cold.marginal
    assert np.array_equal(fallback.coeffs, cold.coeffs)
    assert fallback.diagnostics["newton_iters"] == cold.diagnostics["newton_iters"]


@pytest.mark.parametrize("utility", sorted(UTILITIES))
def test_warm_resolves_take_fewer_newton_steps(utility):
    # a random trinomial and a complete binomial: every tree solves by
    # Newton, so complete ones start warm as well
    u = UTILITIES[utility]
    for max_branches in (3, 2):
        m = make_random_tree(0, depth=4, max_branches=max_branches)
        ex = expansion_report(m, u, 1.0)
        cold = warm = 0
        for k in range(3, 10):
            for x, eps in ((1.0 + 2.0**-k, 2.0**-k), (1.0 - 2.0**-k, 2.0**-k)):
                cold += solve_primal(m, u, x, eps).diagnostics["newton_iters"]
                warm += solve_primal(m, u, x, eps,
                                     start=ex.newton_start(x, eps)).diagnostics["newton_iters"]
        assert warm < cold
