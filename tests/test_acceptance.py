"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here; decay-style criteria stop at the stated
floor (1e-9) because asymptotic statements admit no single-point test.
"""

import time

import numpy as np
from scipy.optimize import brentq

from numsens.harness import run_counterexample
from numsens.instances import (
    asymmetric_trinomial_market,
    one_period_binomial_market,
    random_one_period_market,
    random_tree_market,
    t1_market,
    two_period_trinomial_market,
)
from numsens.preferences import log_utility, mixture_utility, power_utility
from numsens.sensitivity import aux_relation_report, expansion_report
from numsens.solver import solve_pair, solve_primal
from numsens.strategy import (
    StrategyKit,
    characteristics,
    discount_direction,
    perturbed_return_direction,
    reassemble_returns,
)
from numsens.tree import PredictableProcess, stochastic_exponential, stochastic_integral

from conftest import fd_hessian_fit, one_period_grid_value

FLOOR = 1e-9
MIX = mixture_utility([(0.5, 0.5), (0.5, 0.0)])


def _criterion(num, desc, ok, detail=""):
    print(f"criterion {num:>2}: {'PASS' if ok else 'FAIL'} - {desc}"
          + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} failed: {desc} {detail}"


def _dual_resolve(m, u, x0, y_target, eps):
    def marg(xx):
        return solve_primal(m, u, xx, eps).marginal - y_target
    lo = hi = x0
    for _ in range(200):
        if marg(lo) > 0.0:
            break
        lo *= 0.5
    for _ in range(200):
        if marg(hi) < 0.0:
            break
        hi *= 2.0
    xs = brentq(marg, lo, hi, xtol=1e-15, rtol=8.9e-16)
    return solve_pair(m, u, xs, eps)


def test_criterion_1_duality_exactness():
    start = time.time()
    utilities = [log_utility(), power_utility(0.5), power_utility(-1.5), MIX]
    worst_value, worst_dual, worst_conj = 0.0, 0.0, 0.0
    for seed in range(20):
        m = random_one_period_market(np.random.default_rng(seed), max_branches=4)
        u = utilities[seed % 4]
        eps = 0.0 if seed % 3 == 0 else 0.35 * min(m.eps0, 1.0) * (-1) ** seed
        pair = solve_pair(m, u, 1.0, eps)
        ref = one_period_grid_value(m, u, 1.0, eps)
        worst_value = max(worst_value, abs(pair.primal.value - ref))
        worst_dual = max(worst_dual, float(np.max(np.abs(
            pair.dual.terminal - u.du(pair.primal.terminal)))))
        worst_conj = max(worst_conj, abs(
            pair.primal.value - (pair.dual.value + 1.0 * pair.primal.marginal)))
    elapsed = time.time() - start
    ok = worst_value <= 1e-8 and worst_dual <= 1e-10 and worst_conj <= 1e-10 \
        and elapsed < 5.0
    _criterion(1, "duality exactness on 20 randomized one-period markets", ok,
               f"value gap {worst_value:.2e}, dual gap {worst_dual:.2e}, "
               f"conjugacy {worst_conj:.2e}, {elapsed:.2f}s")


def test_criterion_2_envelope_derivative():
    start = time.time()
    ok = True
    details = []
    for m in (t1_market(), asymmetric_trinomial_market()):
        rep = expansion_report(m, log_utility(), 1.0)
        target = rep.gradient_u[1]
        errs = []
        for h in (1e-2, 1e-3, 1e-4):
            fd = (solve_primal(m, log_utility(), 1.0, h).value
                  - solve_primal(m, log_utility(), 1.0, -h).value) / (2 * h)
            errs.append(abs(fd - target))
        for k in range(2):
            if errs[k + 1] > 1e-12 and errs[k] / errs[k + 1] < 50.0:
                ok = False
        if errs[2] > 1e-7:
            ok = False
        details.append(f"errors {errs[0]:.1e}/{errs[1]:.1e}/{errs[2]:.1e}")
    elapsed = time.time() - start
    ok = ok and elapsed < 10.0
    _criterion(2, "envelope derivative matches central differences", ok,
               "; ".join(details) + f", {elapsed:.2f}s")


def test_criterion_3_hessian_quadratic_fit():
    start = time.time()
    m = two_period_trinomial_market()
    rep = expansion_report(m, MIX, 1.0)
    h = 1e-3
    vals_u, vals_v = {}, {}
    y = rep.y
    for i in range(-2, 3):
        for j in range(-2, 3):
            vals_u[(i * h, j * h)] = solve_primal(m, MIX, 1.0 + i * h, j * h).value
            vals_v[(i * h, j * h)] = _dual_resolve(m, MIX, 1.0, y + i * h, j * h).dual.value
    _, _, hess_u = fd_hessian_fit(vals_u, None, None)
    _, _, hess_v = fd_hessian_fit(vals_v, None, None)
    rel_u = float(np.max(np.abs(hess_u - rep.hessian_u) / np.abs(rep.hessian_u)))
    rel_v = float(np.max(np.abs(hess_v - rep.hessian_v) / np.abs(rep.hessian_v)))
    elapsed = time.time() - start
    ok = rel_u <= 1e-4 and rel_v <= 1e-4 and elapsed < 30.0
    _criterion(3, "second-order coefficients match 5x5 quadratic fits", ok,
               f"primal rel {rel_u:.2e}, dual rel {rel_v:.2e}, {elapsed:.2f}s")


def test_criterion_4_aux_identities():
    worst = 0.0
    cases = [
        (one_period_binomial_market(), MIX),           # complete
        (t1_market(), log_utility()),                  # incomplete, symmetric
        (asymmetric_trinomial_market(), power_utility(0.5)),
        (two_period_trinomial_market(), MIX),          # incomplete, two periods
    ]
    for m, u in cases:
        rel = aux_relation_report(expansion_report(m, u, 1.0))
        worst = max(worst, rel.max_residual)
    _criterion(4, "auxiliary value/optimizer/product-martingale identities", worst <= 1e-8,
               f"max residual {worst:.2e} over {len(cases)} instances")


def test_criterion_5_optimizer_derivatives():
    m = asymmetric_trinomial_market()
    u = MIX
    rep = expansion_report(m, u, 1.0)
    opt = rep.optimum
    x, y = opt.x, opt.y
    errs_x, errs_y = [], []
    for k in range(3, 11):
        d = 2.0**-k
        prim = solve_primal(m, u, x + d, d)
        lin = opt.primal.terminal + d * rep.X_x + d * rep.X_eps
        errs_x.append(float(np.max(np.abs(prim.terminal - lin))) / (2 * d))
        dual = _dual_resolve(m, u, x, y + d, d).dual
        lin_y = opt.dual.terminal + d * rep.Y_y + d * rep.Y_eps
        errs_y.append(float(np.max(np.abs(dual.terminal - lin_y))) / (2 * d))

    def decays(errors):
        for a, b in zip(errors, errors[1:]):
            if b <= FLOOR:
                return True
            if a / b < 1.8:
                return False
        return True

    ok = decays(errs_x) and decays(errs_y)
    _criterion(5, "terminal-optimizer linearization error decays by >= 1.8", ok,
               f"wealth {errs_x[0]:.2e}->{errs_x[-1]:.2e}, "
               f"deflator {errs_y[0]:.2e}->{errs_y[-1]:.2e}")


def test_criterion_6_nearly_optimal_strategies():
    kit = StrategyKit(expansion_report(two_period_trinomial_market(), MIX, 1.0))
    residuals = []
    for k in range(3, 11):
        d = 2.0**-k
        n = kit.select_level(d, d)
        residuals.append(abs(kit.value_residual(d, d, n)))
    ok_decay = True
    for a, b in zip(residuals, residuals[1:]):
        if b <= FLOOR:
            break
        if a / b < 2.0:
            ok_decay = False
    # saturating instance: the residual is already at the solver floor
    kit_sat = StrategyKit(expansion_report(t1_market(), log_utility(), 1.0))
    n_sat = kit_sat.select_level(2.0**-3, 2.0**-3)
    sat_res = abs(kit_sat.value_residual(2.0**-3, 2.0**-3, n_sat))
    # proportion round-trip at the stated tolerance
    m = two_period_trinomial_market()
    X = kit.nearly_optimal_wealth(2.0**-4, 2.0**-4, 2)
    props = kit.proportions(2.0**-4, 2.0**-4, 2)
    regen = (1.0 + 2.0**-4) * stochastic_exponential(
        stochastic_integral(props, perturbed_return_direction(m, 2.0**-4))).values
    rt = float(np.max(np.abs(regen - X.values) / X.values))
    ok = ok_decay and sat_res <= FLOOR and rt <= 1e-10
    _criterion(6, "constructed wealths match the value to second order", ok,
               f"residuals {residuals[0]:.2e}->{residuals[-1]:.2e}, "
               f"saturated {sat_res:.2e}, round-trip {rt:.2e}")


def test_criterion_7_risk_tolerance_cross_check():
    from numsens.risktol import gkw_decompose, hessian_from_gkw, risk_tolerance

    m = asymmetric_trinomial_market()
    u = power_utility(0.5)
    opt = solve_pair(m, u, 1.0, 0.0)
    rep = expansion_report(m, u, 1.0, optimum=opt)
    rt = risk_tolerance(opt)
    dec = gkw_decompose(rt, opt)
    terms = hessian_from_gkw(dec, rt, rep)
    gaps = (abs(terms.a_ee - rep.a_ee), abs(terms.b_ee - rep.b_ee),
            abs(terms.a_xe - rep.a_xe), abs(terms.b_ye - rep.b_ye))
    opt_log = solve_pair(m, log_utility(), 1.0)
    dec_log = gkw_decompose(risk_tolerance(opt_log), opt_log)
    ok = max(gaps) <= 1e-8 and dec_log.P0 == 0.0
    _criterion(7, "decomposition route reproduces the second-order terms", ok,
               f"max gap {max(gaps):.2e}, log-utility origin {dec_log.P0!r}")


def test_criterion_8_positivity_counterexample():
    rep = run_counterexample("unbounded_jumps",
                             eps_list=(0.25, -0.25, 0.5, -0.5, 1.0, -1.0, 0.0))
    by_name = {c.name: c for c in rep.checks}
    hand = by_name["negative-unit@0.5"].computed
    ok = rep.all_passed and hand == -0.25
    _criterion(8, "every nonzero perturbation drives the unit negative", ok,
               f"hand value at 0.5: {hand!r}")


def test_criterion_9_integrability_counterexample():
    rep = run_counterexample("integrability", depths=(6, 8, 10))
    moments = [c.computed for c in rep.checks if c.name.startswith("exp-moment@")]
    growth = min(moments[i + 1] / moments[i] for i in range(len(moments) - 1))
    ok = rep.all_passed and all(a < b for a, b in zip(moments, moments[1:])) \
        and growth > 1.5
    _criterion(9, "integrability statistic diverges across depths", ok,
               f"moments {moments[0]:.2e}/{moments[1]:.2e}/{moments[2]:.2e}")


def test_criterion_10_calculus_kernel():
    worst_yor, worst_reassembly, worst_ratio = 0.0, 0.0, 0.0
    count = 0
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        m = random_tree_market(rng, depth=1 + seed % 2, max_branches=3)
        tree = m.tree
        X = m.rbar()
        drive = stochastic_integral(m.theta, m.returns)
        from numsens.tree import quadratic_covariation
        lhs = stochastic_exponential(X).values * stochastic_exponential(drive).values
        rhs = stochastic_exponential(X + drive + quadratic_covariation(X, drive)).values
        worst_yor = max(worst_yor, float(np.max(np.abs(lhs - rhs))))

        ch = characteristics(m)
        worst_reassembly = max(worst_reassembly, float(np.max(np.abs(
            reassemble_returns(m, ch).values - m.returns.values))))

        scale = rng.uniform(0.2, 0.8)
        pi_a = PredictableProcess(tree, scale * m.theta.values)
        try:
            rpi = discount_direction(m, m.theta)
        except Exception:
            continue
        count += 1
        ga = stochastic_exponential(stochastic_integral(pi_a, m.returns)).values
        gt = stochastic_exponential(drive).values
        rhs2 = stochastic_exponential(
            stochastic_integral(pi_a - m.theta, rpi)).values
        worst_ratio = max(worst_ratio, float(np.max(np.abs(ga / gt - rhs2))))
    ok = worst_yor <= 1e-12 and worst_reassembly <= 1e-12 and worst_ratio <= 1e-12 \
        and count >= 80
    _criterion(10, "calculus kernel identities exact on randomized trees", ok,
               f"product-rule {worst_yor:.1e}, reassembly {worst_reassembly:.1e}, "
               f"ratio {worst_ratio:.1e}, {count} ratio instances")
