"""Where Newton starts.

`ExpansionReport.newton_start` linearizes the optimum's Newton coefficients
in (x, eps); a re-solve that starts there must reach the same optimum as a
cold one, in fewer steps than from the riskless wealth.  A cold solve under
log or power utility starts at the backward-induction optimum
(`solver._homothetic_start`), which Newton certifies in at most one step;
a cold mixture solve starts from the riskless wealth."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from numsens.harness import verify_all
from numsens.instances import binomial_walk_market, two_asset_market
from numsens.market import numeraire
from numsens.preferences import log_utility, mixture_utility, power_utility
from numsens.sensitivity import expansion_report
from numsens.solver import _homothetic_start, solve_primal

from conftest import make_random_tree
from reference_loops import naive_complete_tree_terminal
from test_complete_trees import MARKETS as COMPLETE_MARKETS

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

    # a start whose wealth is not strictly positive falls back to the
    # cold start, chosen inside the solve as for start=None
    plan, leaves = m.space.plan, m.tree.leaves
    column = plan.process(np.eye(plan.n_cols)[0], 0.0)[leaves]
    bad = np.zeros(plan.n_cols)
    bad[0] = -2.0 * x / column.min()
    assert np.min(plan.process(bad, x)[leaves]) <= 0.0
    fallback = solve_primal(m, u, x, eps, start=bad)
    assert fallback.value == cold.value and fallback.marginal == cold.marginal
    assert np.array_equal(fallback.coeffs, cold.coeffs)
    assert fallback.diagnostics["newton_iters"] == cold.diagnostics["newton_iters"]
    assert fallback.diagnostics["newton_start"] == cold.diagnostics["newton_start"]
    assert warm.diagnostics["newton_start"] == "given"


@pytest.mark.parametrize("utility", sorted(UTILITIES))
def test_warm_resolves_take_fewer_newton_steps(utility):
    # a random trinomial and a complete binomial: every tree solves by
    # Newton, so complete ones start warm as well.  The first-order start
    # is measured against the riskless one, alpha = 0: a cold log or power
    # solve starts at its exact optimum instead (the tests below)
    u = UTILITIES[utility]
    for max_branches in (3, 2):
        m = make_random_tree(0, depth=4, max_branches=max_branches)
        ex = expansion_report(m, u, 1.0)
        riskless = np.zeros(m.space.plan.n_cols)
        cold = warm = 0
        for k in range(3, 10):
            for x, eps in ((1.0 + 2.0**-k, 2.0**-k), (1.0 - 2.0**-k, 2.0**-k)):
                cold += solve_primal(m, u, x, eps, start=riskless).diagnostics["newton_iters"]
                warm += solve_primal(m, u, x, eps,
                                     start=ex.newton_start(x, eps)).diagnostics["newton_iters"]
        assert warm < cold


# ---------------------------------------------------------------------------
# the cold start of a log or power solve: the backward-induction optimum
# ---------------------------------------------------------------------------

COLD_MARKETS = {
    **{f"tri7-seed{s}": (lambda s=s: make_random_tree(s, depth=7)) for s in range(3)},
    **{f"bin8-seed{s}": (lambda s=s: make_random_tree(s, depth=8, max_branches=2))
       for s in range(2)},
    "walk8": lambda: binomial_walk_market(8),
    "two-asset3": lambda: two_asset_market(depth=3),
    "two-asset3-uncorrelated": lambda: two_asset_market(depth=3, correlated=False),
}


def _cold_start_wealth(m, u, x, eps):
    """Leaf wealth of the homothetic start, before any Newton step."""
    N = numeraire(m, eps).values[None]
    alpha = _homothetic_start(m.space.plan, N, np.array([x]), u.components[0][1])[0]
    return m.space.plan.process(alpha, x)[m.tree.leaves]


@pytest.mark.parametrize("name", sorted(COLD_MARKETS))
def test_cold_single_term_solves_start_at_the_optimum(name):
    # the start is the optimum up to rounding, so Newton certifies it at
    # once or after one step: over these markets and perturbations the
    # cold solves took 0 steps under log and power -2 and 0 or 1 under
    # power 0.5 (12 to 24 from alpha = 0 on the depth-7 trinomials)
    m = COLD_MARKETS[name]()
    for uname in ("log", "power0.5", "power-2"):
        for eps in (0.0, 0.3 * m.eps0, -0.3 * m.eps0):
            sol = solve_primal(m, UTILITIES[uname], 1.0, eps)
            assert sol.diagnostics["newton_start"] == "homothetic"
            assert sol.diagnostics["newton_iters"] <= 1, (uname, eps)


@pytest.mark.parametrize("name", sorted(COMPLETE_MARKETS))
def test_cold_start_meets_the_complete_tree_closed_form(name):
    # the bounds of test_complete_trees'
    # test_newton_matches_the_closed_form_and_meets_the_budget, met by the
    # start alone, before Newton: over these markets the start measured
    # 4.4e-15 in leaf wealth relative to its largest leaf and 1.3e-15
    # relative in value
    m = COMPLETE_MARKETS[name]()
    p = m.tree.leaf_prob
    for uname in ("log", "power0.5", "power-2"):
        u = UTILITIES[uname]
        for eps in (0.0, 0.3 * m.eps0, -0.3 * m.eps0):
            Z = naive_complete_tree_terminal(m, u, 1.0, eps)
            start = _cold_start_wealth(m, u, 1.0, eps)
            assert np.max(np.abs(start - Z)) <= 1e-9 * np.max(Z)
            Nl = numeraire(m, eps).values[m.tree.leaves]
            value = float(p @ u.u(Z / Nl))
            assert abs(float(p @ u.u(start / Nl)) - value) <= 2e-14 * max(1.0, abs(value))


def test_the_start_stays_out_of_the_report_bytes():
    # the start is a diagnostic of one solve, not a result: reports carry
    # the same checks and names whichever start their solves took
    m = make_random_tree(0, depth=2)
    for u in UTILITIES.values():
        text = verify_all(m, u, 1.0).to_text()
        assert "newton_start" not in text and "homothetic" not in text


@pytest.mark.parametrize("seed", range(4))
def test_mixture_cold_solves_start_riskless(seed):
    # no product form under a mixture: its cold solve is the alpha = 0 solve
    m = make_random_tree(seed, depth=3)
    u = UTILITIES["mixture"]
    for eps in (0.0, 0.3 * m.eps0):
        cold = solve_primal(m, u, 1.0, eps)
        zero = solve_primal(m, u, 1.0, eps, start=np.zeros(m.space.plan.n_cols))
        assert cold.diagnostics["newton_start"] == "riskless"
        assert zero.diagnostics["newton_start"] == "given"
        assert cold.value == zero.value and cold.marginal == zero.marginal
        assert np.array_equal(cold.coeffs, zero.coeffs)
        assert cold.diagnostics["newton_iters"] == zero.diagnostics["newton_iters"]


def test_cold_start_stays_finite_on_a_deep_binomial():
    # the value factors K multiply along 14 levels (32,767 nodes); carried
    # as log K they stay finite, and the start is the optimum Newton
    # reaches: over seeds 0-3 of these binomials under log, power 0.5 and
    # power -2 the start's leaf wealth measured within 1.2e-15 of the
    # solution's largest leaf, and its value within 2.0e-16 relative.
    # Newton's own residual sits near its 1e-13 stop at this depth, so it
    # took 0 to 3 steps to certify the start; the bounds leave about 800
    # and 50 times the measured differences.
    m = make_random_tree(3, depth=14, max_branches=2)
    u, p = UTILITIES["power-2"], m.tree.leaf_prob
    for eps in (0.0, 0.3 * m.eps0):
        start = _cold_start_wealth(m, u, 1.0, eps)
        assert np.all(np.isfinite(start)) and np.all(start > 0.0)
        sol = solve_primal(m, u, 1.0, eps)
        assert sol.diagnostics["newton_start"] == "homothetic"
        assert np.max(np.abs(start - sol.zwealth.terminal)) <= 1e-12 * np.max(start)
        Nl = numeraire(m, eps).values[m.tree.leaves]
        assert abs(float(p @ u.u(start / Nl)) - sol.value) <= 1e-14 * abs(sol.value)
