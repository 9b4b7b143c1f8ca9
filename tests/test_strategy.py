import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from numsens.errors import AdmissibilityError, ContractViolationError, RepresentationError
from numsens.harness import Campaign, dyadic_campaign, run_strategy_campaign
from numsens.instances import random_tree_market
from numsens.market import MarketModel
from numsens.preferences import power_utility
from numsens.sensitivity import expansion_report
from numsens.strategy import (
    StrategyKit,
    perturbed_return_direction,
    characteristics,
    discount_direction,
    drift_perturbation_theta,
    reassemble_returns,
    represent_martingale,
    saturation_level,
    truncate_localize,
)
from numsens.tree import (
    AdaptedProcess,
    EventTree,
    PredictableProcess,
    quadratic_covariation,
    stochastic_exponential,
    stochastic_integral,
)

from conftest import make_mixed_tree, make_random_tree


def test_characteristics_t1(t1):
    ch = characteristics(t1)
    # symmetric moves, all below the truncation level: drift compensates to 0
    assert np.allclose(ch.B.values, 0.0, atol=1e-15)
    assert np.all(ch.C.values == 0.0)
    err = np.max(np.abs(reassemble_returns(t1, ch).values - t1.returns.values))
    assert err == 0.0


def test_characteristics_large_jump_routing():
    tree = EventTree([-1, 0, 0], [1.0, 0.5, 0.5])
    R = np.zeros((3, 2))
    R[1, 1], R[2, 1] = 1.5, -0.4
    theta = np.zeros((3, 2))
    theta[1:] = [1.0, 0.0]
    m = MarketModel(tree, AdaptedProcess(tree, R), PredictableProcess(tree, theta))
    ch = characteristics(m)
    # only the small jump is compensated into the drift
    assert ch.B.increments()[1, 1] == pytest.approx(0.5 * (-0.4), abs=1e-15)
    assert np.max(np.abs(reassemble_returns(m, ch).values - m.returns.values)) == 0.0


def test_characteristics_reassembly_random():
    for seed in range(25):
        m = make_random_tree(seed, depth=2)
        err = np.max(np.abs(reassemble_returns(m, characteristics(m)).values
                            - m.returns.values))
        assert err <= 1e-12


def test_discount_direction_identity(t1):
    zero = PredictableProcess(t1.tree, np.zeros((4, 2)))
    assert np.allclose(discount_direction(t1, zero).values, t1.returns.values, atol=0)
    pi = PredictableProcess.from_steps(t1.tree, np.tile([0.0, 1.0], (4, 1)))
    rp = discount_direction(t1, pi)
    assert rp.increments()[1, 1] == pytest.approx(0.1 / 1.1, rel=1e-15)


def test_discount_ratio_identity_random():
    for seed in range(20):
        m = make_random_tree(seed + 100, depth=2)
        rng = np.random.default_rng(seed)
        d = m.d + 1
        a = np.zeros((m.tree.n_nodes, d))
        b = np.zeros((m.tree.n_nodes, d))
        for node in m.tree.internal_nodes:
            a[node] = rng.uniform(-0.5, 0.5, size=d)
            b[node] = rng.uniform(-0.5, 0.5, size=d)
        pi_a = PredictableProcess.from_steps(m.tree, a)
        pi_b = PredictableProcess.from_steps(m.tree, b)
        try:
            rp = discount_direction(m, pi_b)
        except AdmissibilityError:
            continue
        growth_b = stochastic_exponential(stochastic_integral(pi_b, m.returns)).values
        growth_a = stochastic_exponential(stochastic_integral(pi_a, m.returns)).values
        lhs = growth_a / growth_b
        rhs = stochastic_exponential(stochastic_integral(pi_a - pi_b, rp)).values
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(lhs))


def test_representation_roundtrip(twop, mix):
    kit = StrategyKit(expansion_report(twop, mix, 1.0))
    basis = kit.expansion.basis
    zero = represent_martingale(AdaptedProcess(twop.tree, np.zeros(twop.tree.n_nodes)),
                                twop, kit.pi_hat)
    assert np.all(zero.gamma.values == 0.0)
    target = AdaptedProcess(twop.tree,
                            basis.primal_plan.process(kit.expansion.M1.coeffs))
    rep = represent_martingale(target, twop, kit.pi_hat)
    Rpi = discount_direction(twop, kit.pi_hat)
    recon = stochastic_integral(rep.gamma, Rpi)
    assert np.max(np.abs(recon.values - target.values)) <= 1e-12
    assert rep.max_residual <= 1e-12


def test_representation_rejects_unhedgeable(t1, logu):
    kit = StrategyKit(expansion_report(t1, logu, 1.0))
    # a dual-span martingale cannot be written as a trading integral
    bad = AdaptedProcess(t1.tree,
                         kit.expansion.basis.dual_plan.process(np.array([1.0])))
    with pytest.raises(RepresentationError):
        represent_martingale(bad, t1, kit.pi_hat)


def test_truncation_bounds_and_saturation(t1):
    vals = np.array([0.0, 3.0, -2.5, 0.5])
    M = AdaptedProcess(t1.tree, vals)
    out = truncate_localize(M, 1)
    v = out.process.values
    assert np.max(np.abs(v)) <= 1.0
    assert not out.saturated
    assert out.value_stop_nodes == (0,)
    qv = quadratic_covariation(out.process, out.process)
    assert np.max(qv.values) <= 1.0 + 4.0
    big = truncate_localize(M, 10)
    assert big.saturated
    assert np.array_equal(big.process.values, vals)


def test_truncation_qv_stop():
    parent = [-1, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6]
    tree = EventTree(parent, [1.0] + [0.5] * 14)
    vals = np.zeros(15)
    vals[1], vals[2] = 1.4, -1.4
    vals[3], vals[4], vals[5], vals[6] = 0.0, 1.8, 0.0, -1.8
    for node in (3, 4, 5, 6):
        a, b = tree.children[node]
        vals[a], vals[b] = vals[node] + 0.2, vals[node] - 0.2
    M = AdaptedProcess(tree, vals)
    out = truncate_localize(M, 2)
    # level stop never fires; accumulated quadratic variation freezes level 2
    assert out.value_stop_nodes == ()
    assert out.qv_stop_nodes != ()
    assert not out.saturated
    frozen = out.process.values
    for node in out.qv_stop_nodes:
        for c in tree.children[node]:
            assert frozen[c] == frozen[node]
    qv = quadratic_covariation(out.process, out.process)
    assert np.max(qv.values) <= 2.0 + 4 * 2.0**2


def test_nearly_optimal_wealth_identities(t1, logu):
    kit = StrategyKit(expansion_report(t1, logu, 1.0))
    base = kit.nearly_optimal_wealth(0.0, 0.0, 1)
    assert np.allclose(base.values, kit.optimum.primal.wealth.values, atol=1e-14)
    # wealth-only corrections use the base returns
    X = kit.nearly_optimal_wealth(0.25, 0.0, 1)
    g0, _, _, _ = kit.level_data(1)
    w = kit.pi_hat.values + 0.25 * g0.values
    ref = 1.25 * stochastic_exponential(
        stochastic_integral(PredictableProcess(t1.tree, w), t1.returns)).values
    assert np.allclose(X.values, ref, atol=1e-13)


def test_nearly_optimal_wealth_admissibility_error(t1, logu):
    kit = StrategyKit(expansion_report(t1, logu, 1.0))
    with pytest.raises(AdmissibilityError):
        kit.nearly_optimal_wealth(-2.0, 0.0, 1)
    explicit, reference = kit.admissible_radius(1)
    assert explicit > 0 and reference == pytest.approx(min(t1.eps0, 1.0 / 9.0))


def test_proportions_roundtrip_and_structure(twop, mix):
    kit = StrategyKit(expansion_report(twop, mix, 1.0))
    dx, eps, n = 0.05, 0.04, 2
    X = kit.nearly_optimal_wealth(dx, eps, n)
    props = kit.proportions(dx, eps, n)
    # proportions sum to one
    for node in twop.tree.internal_nodes:
        assert props.step_value(node).sum() == pytest.approx(1.0, abs=1e-12)
    # integrating them against the tilted perturbed returns regenerates the wealth
    Re = perturbed_return_direction(twop, eps)
    regen = (1.0 + dx) * stochastic_exponential(stochastic_integral(props, Re)).values
    assert np.max(np.abs(regen - X.values) / X.values) <= 1e-10


def test_proportions_eps_zero_and_singular(t1, logu):
    kit = StrategyKit(expansion_report(t1, logu, 1.0))
    g0, _, _, _ = kit.level_data(1)
    p = kit.proportions(0.125, 0.0, 1)
    expect = kit.pi_hat.values[1:, 1] + 0.125 * g0.values[1:, 1]
    assert np.allclose(p.values[1:, 1], expect, atol=1e-14)
    with pytest.raises(ContractViolationError):
        kit.proportions(0.0, 1.0, 1)


def test_one_stock_proportion_structure(asym, logu):
    # single stock: perturbed proportion is (1-eps) pi + eps theta
    kit = StrategyKit(expansion_report(asym, logu, 1.0))
    eps = 0.1
    p = kit.proportions(0.0, eps, 1)
    g0, g1, _, _ = kit.level_data(1)
    pi_tilde = (kit.pi_hat.values[1:, 1] + eps * (-asym.theta.values[1:, 1] + g1.values[1:, 1]))
    assert np.allclose(p.values[1:, 1],
                       (1 - eps) * pi_tilde + eps * asym.theta.values[1:, 1], atol=1e-13)


def test_select_level_properties(twop, mix, bank_dir, logu):
    # the inverse-radius rule 2n >= 1/h, raised to the saturation level
    kit = StrategyKit(expansion_report(twop, mix, 1.0))
    for k in range(3, 9):
        h = math.hypot(2.0**-k, 2.0**-k)
        assert kit.select_level(2.0**-k, 2.0**-k) == max(kit.saturation, math.ceil(0.5 / h))
    levels = [kit.select_level(2.0**-k, 2.0**-k) for k in range(3, 9)]
    assert all(a <= b for a, b in zip(levels, levels[1:]))
    assert kit.select_level(0.0, 0.0) == 1
    # wealth-shift-only selection works with the bank direction
    kb = StrategyKit(expansion_report(bank_dir, logu, 1.0))
    assert kb.select_level(2.0**-6, 0.0) == max(kb.saturation, 32)
    # every saturated level shares one construction
    assert kit.level_data(kit.saturation) is kit.level_data(kit.saturation + 40)


def test_point_outside_the_radius_names_radius_and_level(twop, mix):
    kit = StrategyKit(expansion_report(twop, mix, 1.0))
    n = kit.select_level(0.95, 0.0)
    with pytest.raises(AdmissibilityError, match=rf"radius 0\.95 outside .* at level {n}$"):
        kit.value_residual(0.95, 0.0, n)
    camp = Campaign(model=twop, utility=mix, x=1.0, dx_grid=(0.95, 0.5), eps_grid=(0.0, 0.0))
    with pytest.raises(AdmissibilityError, match="admissible radius"):
        run_strategy_campaign(camp, kit.expansion)


def _chain(values):
    """A process on a single path through len(values) nodes."""
    tree = EventTree(list(range(-1, len(values) - 1)), [1.0] * len(values))
    return AdaptedProcess(tree, np.asarray(values, dtype=float))


def test_saturation_level_ignores_stops_that_freeze_nothing():
    # the quadratic variation reaches 1 only at the leaf: 0.36, 0.72, 1.08
    M = _chain([0.0, 0.6, 0.0, 0.6])
    out = truncate_localize(M, 1)
    assert saturation_level(M) == 1 and out.saturated and out.qv_stop_nodes == (3,)
    # the variation reaches 1 at node 1, and M is constant below it
    M = _chain([0.0, 1.0, 1.0, 1.0])
    out = truncate_localize(M, 1)
    assert saturation_level(M) == 1 and out.saturated and out.qv_stop_nodes == (1,)
    # one more jump below node 1 makes level 1 freeze it
    M = _chain([0.0, 1.0, 1.0, 0.5])
    assert saturation_level(M) == 2 and not truncate_localize(M, 1).saturated
    # the value bound binds: max |M| = 1.5 without a stop on the variation
    M = _chain([0.0, 0.5, 1.0, 1.5])
    assert saturation_level(M) == 2 and truncate_localize(M, 1).value_stop_nodes == (2,)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6), st.floats(0.05, 3.0), st.floats(0.0, 0.6))
def test_saturation_level_is_the_first_saturated_level(seed, scale, zero_frac):
    tree = make_mixed_tree(seed)
    rng = np.random.default_rng(seed)
    inc = rng.normal(scale=scale, size=tree.n_nodes)
    inc[rng.uniform(size=tree.n_nodes) < zero_frac] = 0.0    # constant stretches
    M = AdaptedProcess.from_increments(tree, inc)
    n_star = saturation_level(M)
    for n in (n_star, n_star + 1, 2 * n_star + 5):
        assert truncate_localize(M, n).saturated
    if n_star > 1:
        assert not truncate_localize(M, n_star - 1).saturated


@pytest.mark.parametrize("depth, seed", [(4, 1600019), (8, 1)])
def test_match_residual_decays_under_power_half(depth, seed):
    # at these markets level 1 is not saturated; a level below n* freezes
    # M1, and the residual stops decaying (ratio 1.01 and 1.43)
    m = random_tree_market(np.random.default_rng(seed), depth=depth, max_branches=3)
    rep = run_strategy_campaign(dyadic_campaign(m, power_utility(0.5), 1.0))
    decay = next(c for c in rep.checks if c.name == "match-residual-decay")
    assert decay.passed, decay
    assert rep.all_passed, [c for c in rep.checks if not c.passed]


def test_drift_perturbation_structure(t1):
    psi = PredictableProcess.from_steps(t1.tree, np.full(4, 0.8))
    th = drift_perturbation_theta(t1, psi, 1)
    assert np.allclose(th.values[1:].sum(axis=1), 1.0, atol=0)
    assert np.allclose(th.values[1:, 1], -0.8, atol=0)
    zero = drift_perturbation_theta(t1, PredictableProcess.from_steps(t1.tree, np.zeros(4)), 1)
    assert np.allclose(zero.values[1:, 0], 1.0, atol=0)
    assert np.allclose(zero.values[1:, 1], 0.0, atol=0)


def test_drift_perturbation_first_order_match(t1):
    # the induced discounted return tilts the drift by psi times the
    # quadratic variation, to first order in the perturbation size
    psi_val = 0.8
    psi = PredictableProcess.from_steps(t1.tree, np.full(4, psi_val))
    th = drift_perturbation_theta(t1, psi, 1)
    m = MarketModel(t1.tree, t1.returns, th)
    rho = t1.returns.component(1)
    qv = quadratic_covariation(rho, rho)
    gaps = []
    for eps in (1e-2, 5e-3):
        pert = discount_direction(m, eps * th)
        target = rho.values + eps * psi_val * qv.values
        gaps.append(np.max(np.abs(pert.values[:, 1] - target)))
    assert gaps[0] <= 2e-4 and gaps[1] <= gaps[0] / 3.5    # second-order decay


def test_drift_perturbation_compensator(twop):
    # market-price-of-risk reading: the perturbed compensator equals
    # (lambda + eps psi) d<M> up to the documented second-order term
    tree = twop.tree
    rho = twop.returns.component(1)
    drho = rho.increments()
    psi_val = 0.6
    psi = PredictableProcess.from_steps(tree, np.full(tree.n_nodes, psi_val))
    th = drift_perturbation_theta(twop, psi, 1)
    eps = 1e-3
    pert = discount_direction(twop, eps * th)
    dpert = pert.increments()[:, 1]
    for node in tree.internal_nodes:
        ch = tree.children[node]
        w = tree.prob[ch]
        comp = float(w @ drho[ch])                      # lambda d<M>
        d_ang = float(w @ (drho[ch] - comp) ** 2)       # predictable quadratic variation
        lam = comp / d_ang
        comp_pert = float(w @ dpert[ch])
        lam_hat = comp_pert / d_ang
        bound = abs(eps * psi_val) * (abs(lam) ** 2 * d_ang + abs(eps) * 10.0) + 1e-12
        assert abs(lam_hat - (lam + eps * psi_val)) <= bound
