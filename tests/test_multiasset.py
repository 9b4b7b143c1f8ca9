"""Two-stock markets: the vector paths through every subsystem."""

import numpy as np
import pytest

from numsens.instances import two_asset_market
from numsens.preferences import log_utility, mixture_utility, power_utility
from numsens.risktol import gkw_decompose, hessian_from_gkw, risk_tolerance
from numsens.sensitivity import aux_relation_report, expansion_report
from numsens.solver import solve_pair, solve_primal, verify_deflator
from numsens.strategy import (
    StrategyKit,
    discount_direction,
    drift_perturbation_theta,
    perturbed_return_direction,
    represent_martingale,
)
from numsens.tree import (
    AdaptedProcess,
    PredictableProcess,
    quadratic_covariation,
    stochastic_exponential,
    stochastic_integral,
)

MIX = mixture_utility([(0.5, 0.5), (0.5, 0.0)])


def two_asset_grid_value(m, utility, x, eps, points=121, refinements=5):
    """Brute 2-D grid search over stock proportions (evaluation only)."""
    tree = m.tree
    ch = tree.children[0]
    dr = m.returns.increments()[ch, 1:]
    pr = tree.prob[ch]
    th = m.theta.step_value(0)
    nl = 1.0 + eps * (dr @ th[1:])
    assert np.all(nl > 0.0)
    lo = np.array([-3.0, -3.0])
    hi = np.array([3.0, 3.0])
    best = -np.inf
    for _ in range(refinements):
        g1 = np.linspace(lo[0], hi[0], points)
        g2 = np.linspace(lo[1], hi[1], points)
        P1, P2 = np.meshgrid(g1, g2, indexing="ij")
        growth = 1.0 + P1[..., None] * dr[:, 0] + P2[..., None] * dr[:, 1]
        wealth = x * growth / nl
        ok = np.all(wealth > 0.0, axis=-1)
        vals = np.full(P1.shape, -np.inf)
        vals[ok] = utility.u(wealth[ok]) @ pr
        k = np.unravel_index(np.argmax(vals), vals.shape)
        best = float(vals[k])
        s1, s2 = g1[1] - g1[0], g2[1] - g2[0]
        lo = np.array([g1[k[0]] - 2 * s1, g2[k[1]] - 2 * s2])
        hi = np.array([g1[k[0]] + 2 * s1, g2[k[1]] + 2 * s2])
    return best


@pytest.fixture
def m2():
    return two_asset_market(1)


@pytest.fixture
def m2deep():
    return two_asset_market(2)


def test_solver_matches_2d_grid(m2):
    for u, eps in ((log_utility(), 0.0), (power_utility(0.5), 0.4), (MIX, -0.3)):
        sol = solve_primal(m2, u, 1.0, eps)
        ref = two_asset_grid_value(m2, u, 1.0, eps)
        assert sol.value == pytest.approx(ref, abs=1e-8)
        assert sol.foc_residual <= 1e-10


def test_duality_and_deflator(m2deep):
    pair = solve_pair(m2deep, MIX, 1.0, 0.25)
    assert pair.dual.conjugacy_residual <= 1e-12
    assert verify_deflator(m2deep, 0.25, pair.dual.deflator).max_violation <= 1e-10
    prod = pair.primal.wealth.values * pair.dual.deflator.values
    assert m2deep.tree.martingale_defect(prod, m2deep.tree.leaf_prob) <= 1e-12


def test_expansion_relations(m2deep):
    rep = expansion_report(m2deep, MIX, 1.0)
    rel = aux_relation_report(rep)
    assert rel.max_residual <= 1e-8
    # four children, rank-2 one-step markets: one orthogonal direction each
    assert rep.basis.primal_dim == 2 * len(m2deep.tree.internal_nodes)
    assert rep.basis.dual_dim == 1 * len(m2deep.tree.internal_nodes)


def test_hessian_against_resolves(m2):
    rep = expansion_report(m2, MIX, 1.0)
    h = 1e-3
    u0 = rep.optimum.primal.value
    uxx = (solve_primal(m2, MIX, 1 + h, 0).value - 2 * u0
           + solve_primal(m2, MIX, 1 - h, 0).value) / h**2
    uee = (solve_primal(m2, MIX, 1, h).value - 2 * u0
           + solve_primal(m2, MIX, 1, -h).value) / h**2
    assert uxx == pytest.approx(rep.hessian_u[0, 0], rel=1e-5)
    assert uee == pytest.approx(rep.hessian_u[1, 1], rel=1e-5)


def test_strategy_pipeline(m2deep):
    kit = StrategyKit(expansion_report(m2deep, MIX, 1.0))
    dx = eps = 2.0**-5
    n = kit.select_level(dx, eps)
    X = kit.nearly_optimal_wealth(dx, eps, n)
    assert np.all(X.values > 0.0)
    props = kit.proportions(dx, eps, n)
    regen = (1 + dx) * stochastic_exponential(
        stochastic_integral(props, perturbed_return_direction(m2deep, eps))).values
    assert np.max(np.abs(regen - X.values) / X.values) <= 1e-10
    r = kit.value_residual(dx, eps, n)
    assert 0.0 <= r < 1e-3
    assert abs(kit.value_residual(dx / 4, eps / 4, kit.select_level(dx / 4, eps / 4))) < abs(r) / 2 + 1e-9


def test_vector_representation(m2deep):
    kit = StrategyKit(expansion_report(m2deep, MIX, 1.0))
    basis = kit.expansion.basis
    target = AdaptedProcess(m2deep.tree,
                            basis.primal_plan.process(kit.expansion.M1.coeffs))
    rep = represent_martingale(target, m2deep, kit.pi_hat)
    recon = stochastic_integral(rep.gamma, discount_direction(m2deep, kit.pi_hat))
    assert np.max(np.abs(recon.values - target.values)) <= 1e-12


def test_risk_tolerance_cross_check(m2deep):
    u = power_utility(0.5)
    opt = solve_pair(m2deep, u, 1.0, 0.0)
    rt = risk_tolerance(opt)
    assert rt.exists
    rep = expansion_report(m2deep, u, 1.0, optimum=opt)
    dec = gkw_decompose(rt, opt)
    terms = hessian_from_gkw(dec, rt, rep)
    assert terms.a_ee == pytest.approx(rep.a_ee, abs=1e-8)
    assert terms.b_ee == pytest.approx(rep.b_ee, abs=1e-8)
    assert terms.a_xe == pytest.approx(rep.a_xe, abs=1e-8)
    assert terms.b_ye == pytest.approx(rep.b_ye, abs=1e-8)


def test_drift_perturbation_orthogonal_moves():
    # when the stocks never move together, tilting one stock's drift leaves
    # the other stock untouched at first order
    m = two_asset_market(1, correlated=False)
    psi = PredictableProcess.from_steps(m.tree, np.full(m.tree.n_nodes, 0.7))
    th = drift_perturbation_theta(m, psi, 2)
    assert np.allclose(th.values[1:].sum(axis=1), 1.0, atol=0)
    rho1 = m.returns.component(1)
    rho2 = m.returns.component(2)
    qv22 = quadratic_covariation(rho2, rho2)
    qv12 = quadratic_covariation(rho1, rho2)
    assert np.max(np.abs(qv12.values)) == 0.0
    eps = 1e-3
    pert = discount_direction(m, eps * th)
    gap2 = np.max(np.abs(pert.values[:, 2] - (rho2.values + eps * 0.7 * qv22.values)))
    gap1 = np.max(np.abs(pert.values[:, 1] - rho1.values))
    assert gap2 <= 5.0 * eps**2
    assert gap1 <= 5.0 * eps**2


def test_depth_four_trinomial_pipeline():
    # a larger incomplete market end to end: 121 leaves, 40 coupled nodes
    from numsens.instances import random_tree_market
    import numpy as np
    rng = np.random.default_rng(11)
    m = random_tree_market(rng, depth=4, max_branches=3)
    u = MIX
    rep = expansion_report(m, u, 1.0)
    rel = aux_relation_report(rep)
    assert rel.max_residual <= 1e-8
    kit = StrategyKit(rep)
    dx = eps = 2.0**-6
    n = kit.select_level(dx, eps)
    X = kit.nearly_optimal_wealth(dx, eps, n)
    props = kit.proportions(dx, eps, n)
    regen = (1 + dx) * stochastic_exponential(
        stochastic_integral(props, perturbed_return_direction(m, eps))).values
    assert np.max(np.abs(regen - X.values) / X.values) <= 1e-10
    assert 0.0 <= kit.value_residual(dx, eps, n) < 1e-4
