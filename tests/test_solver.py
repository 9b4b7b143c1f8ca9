import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from numsens import solver
from numsens.errors import (
    AdmissibilityError,
    ContractViolationError,
    InvariantViolationError,
    NoOptimizerError,
    NumericalError,
)
from numsens.harness import risk_tolerance_report
from numsens.instances import two_asset_market
from numsens.market import MarketModel, numeraire, perturbed_prices
from numsens.preferences import log_utility, mixture_utility, power_utility
from numsens.sensitivity import expansion_report
from numsens.solver import (
    attainable_space,
    pricing_measure,
    solve_dual,
    solve_pair,
    solve_primal,
    solve_values,
    verify_deflator,
)
from numsens.tree import AdaptedProcess, EventTree, PredictableProcess

from conftest import make_random_one_period, make_random_tree, one_period_grid_value
from reference_loops import naive_proportions


def test_t1_log_base_solution(t1, logu):
    sol = solve_primal(t1, logu, 2.0, 0.0)
    assert sol.value == pytest.approx(math.log(2.0), abs=1e-14)
    assert abs(sol.strategy.step_value(0)[1]) < 1e-12          # no stock position
    assert np.allclose(sol.terminal, 2.0, atol=1e-12)
    assert sol.marginal == pytest.approx(0.5, abs=1e-13)


def test_power_homogeneity(asym, halfpow):
    base = solve_primal(asym, halfpow, 1.0, 0.2)
    for lam in (2.0, 10.0):
        scaled = solve_primal(asym, halfpow, lam, 0.2)
        assert scaled.value == pytest.approx(lam**0.5 * base.value, rel=1e-12)


def test_t1_perturbed_matches_grid_oracle(t1, logu):
    sol = solve_primal(t1, logu, 1.0, 0.5)
    ref = one_period_grid_value(t1, logu, 1.0, 0.5)
    assert sol.value == pytest.approx(ref, abs=1e-8)


def test_dual_t1_log(t1, logu):
    pair = solve_pair(t1, logu, 2.0, 0.0)
    assert np.allclose(pair.dual.terminal, 0.5, atol=1e-13)
    assert pair.dual.value == pytest.approx(-math.log(0.5) - 1.0, abs=1e-12)
    assert pair.dual.conjugacy_residual < 1e-12


def test_dual_binomial_risk_neutral_density(binom, logu):
    # complete one-period market: the deflator is the unique pricing density
    pair = solve_pair(binom, logu, 1.0, 0.0)
    up, down, p_up = 0.1, -0.08, 0.55
    q_up = -down / (up - down)
    dens = pair.dual.terminal / pair.dual.y
    assert dens[0] * p_up == pytest.approx(q_up, rel=1e-12)
    assert dens[1] * (1 - p_up) == pytest.approx(1 - q_up, rel=1e-12)


def test_power_constant_deflator_when_martingale(t1, halfpow):
    # symmetric moves: the physical measure already prices the stock
    pair = solve_pair(t1, halfpow, 1.0, 0.0)
    assert np.allclose(pair.dual.terminal, pair.dual.y, rtol=1e-12)
    assert pair.dual.value == pytest.approx(
        pair.dual.y ** (-1.0) / 1.0, rel=1e-12)     # q = p/(1-p) = 1 at p = 1/2


def test_pricing_measure_cases(t1, logu, halfpow):
    pair = solve_pair(t1, logu, 1.5, 0.0)
    assert np.allclose(pair.r_weights, t1.tree.leaf_prob, atol=1e-13)
    pair2 = solve_pair(t1, halfpow, 1.0, 0.0)
    assert np.allclose(pair2.r_weights, t1.tree.leaf_prob, atol=1e-13)
    assert pair2.r_weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_pricing_measure_requires_base_model(t1, logu):
    pair = solve_pair(t1, logu, 1.0, 0.25)
    with pytest.raises(Exception):
        pricing_measure(pair.primal, pair.dual)


def test_deflator_verification(t1, logu):
    pair = solve_pair(t1, logu, 1.0, 0.5)
    rep = verify_deflator(t1, 0.5, pair.dual.deflator)
    assert rep.max_violation <= 1e-10
    # constant deflator passes when the physical measure prices the assets
    const = AdaptedProcess(t1.tree, np.ones(t1.tree.n_nodes))
    assert verify_deflator(t1, 0.0, const).max_violation == 0.0


def test_deflator_transport(t1, logu):
    # base-model deflator times the perturbed unit lies in the perturbed domain
    pair0 = solve_pair(t1, logu, 1.0, 0.0)
    N = numeraire(t1, 0.5)
    moved = AdaptedProcess(t1.tree, pair0.dual.deflator.values * N.values)
    assert verify_deflator(t1, 0.5, moved).max_violation <= 1e-10


def test_wealth_transport_self_financing(t1, logu):
    # perturbed optimal wealth times the unit is a base-model wealth process
    sol = solve_primal(t1, logu, 1.0, 0.5)
    N = numeraire(t1, 0.5)
    z = sol.wealth.values * N.values
    assert np.allclose(z, sol.zwealth.values, atol=1e-12)
    assert np.all(z > 0.0)
    assert sol.zwealth.values[0] == pytest.approx(1.0, abs=1e-12)


def test_one_step_arbitrage_detected(logu):
    tree = EventTree([-1, 0, 0], [1.0, 0.5, 0.5])
    R = np.zeros((3, 2))
    R[1, 1], R[2, 1] = 0.2, 0.1          # both moves positive: free lunch
    theta = np.zeros((3, 2))
    theta[1:] = [0.0, 1.0]
    m = MarketModel(tree, AdaptedProcess(tree, R), PredictableProcess(tree, theta))
    with pytest.raises(NoOptimizerError):
        solve_primal(m, logu, 1.0, 0.0)


def _random_nodes(rng, d):
    """(label, D) one-step move matrices of d stocks: generic, rank-deficient
    and zero nodes, pricing vectors with a floor near `_ARB_TOL`, exact
    arbitrages, and hard cases: a tiny pricing weight, badly scaled stocks
    and heavy-tailed moves priced by weights near the simplex's edge."""
    nodes = []
    for k in (d + 1, d + 2, 6):
        for _ in range(12):
            nodes.append(("generic", rng.normal(size=(k, d))))
            q = rng.uniform(0.1, 1.0, k)
            q /= q.sum()
            D = rng.normal(size=(k, d))
            D -= q @ D
            nodes.append(("rank-1", D[:, :1] @ rng.normal(size=(1, d))))
            nodes.append(("arbitrage", np.abs(D)))
            c = rng.normal(size=d)
            nodes.append(("arbitrage", D - np.minimum(0.0, D @ c)[:, None] * c / (c @ c)))
    nodes.append(("zero", np.zeros((3, d))))
    nodes.append(("arbitrage", np.tile(rng.normal(size=d), (4, 1))))
    # one pricing vector, so the LP's best floor is its smallest weight
    for floor in (0.5, 0.9, 1.1, 2.0, 10.0, 1e3):
        for _ in range(5):
            q = rng.uniform(0.2, 1.0, d + 1)
            q[0] = 0.0
            q *= (1.0 - floor * solver._ARB_TOL) / q.sum()
            q[0] = floor * solver._ARB_TOL
            D = rng.normal(size=(d + 1, d))
            nodes.append(("floor above" if floor > 1.0 else "floor below", D - q @ D))
    for k in (d + 1, d + 2, 6):
        for _ in range(12):
            q = rng.uniform(0.1, 1.0, k)
            q[0] = 10.0 ** rng.uniform(-10.0, -2.0)
            q /= q.sum()
            D = rng.normal(size=(k, d))
            nodes.append(("tiny weight", D - q @ D))
            nodes.append(("scaled", rng.normal(size=(k, d)) * 10.0 ** rng.uniform(-3.0, 3.0, d)))
            q = rng.dirichlet(np.full(k, 0.3))
            D = rng.standard_cauchy(size=(k, d))
            nodes.append(("cauchy", D - q @ D))
    return nodes


@pytest.mark.parametrize("d", [2, 3])
def test_certificate_only_clears_nodes_the_lp_passes(d):
    nodes = _random_nodes(np.random.default_rng(d), d)
    # stacked by branch count, as attainable_space stacks a branch group
    certified = np.zeros(len(nodes), dtype=bool)
    for k in {D.shape[0] for _, D in nodes}:
        idx = [i for i, (_, D) in enumerate(nodes) if D.shape[0] == k]
        certified[idx] = solver._barrier_certified(np.stack([nodes[i][1] for i in idx]))
    lp_arbitrage = np.array([solver._one_step_arbitrage(D) for _, D in nodes])
    labels = np.array([label for label, _ in nodes])
    assert not np.any(certified & lp_arbitrage)
    # moves all equal leave the LP infeasible, which is an arbitrage too
    assert np.all(lp_arbitrage[labels == "arbitrage"])
    assert not np.any(certified[labels == "arbitrage"])
    # the certificate does the work: it clears nearly every node the LP passes
    assert np.mean(certified[~lp_arbitrage]) >= 0.95
    assert np.all(certified[labels == "zero"])
    assert np.all(certified[labels == "rank-1"])
    # a floor just above the LP's limit certifies, and one just below is an
    # arbitrage to both
    assert np.all(certified[labels == "floor above"])
    assert np.all(lp_arbitrage[labels == "floor below"])


@pytest.mark.parametrize("d", [2, 3])
def test_stacked_verdict_is_the_nodes_own(d):
    # a node's verdict does not depend on the other nodes of its branch group
    nodes = _random_nodes(np.random.default_rng(d), d)
    for k in {D.shape[0] for _, D in nodes}:
        stack = np.stack([D for _, D in nodes if D.shape[0] == k])
        alone = [solver._barrier_certified(D[None])[0] for D in stack]
        assert np.array_equal(solver._barrier_certified(stack), alone), k


def test_nodes_that_starve_a_move_certify():
    # random normal d = 2 nodes, drawn in turn with 4 and 6 moves: two
    # arbitrage-free 6-move nodes have pricing vectors that put almost no
    # weight on one move, although the LP's best floor is about 5e-3; a
    # certificate that proposes such weights leaves them to the LP
    rng = np.random.default_rng(1)
    drawn = [(rng.normal(size=(4, 2)), rng.normal(size=(6, 2))) for _ in range(300)]
    for k, nodes in ((4, [a for a, _ in drawn]), (6, [b for _, b in drawn])):
        certified = solver._barrier_certified(np.stack(nodes))
        lp_arbitrage = np.array([solver._one_step_arbitrage(D) for D in nodes])
        # the LP still decides every arbitrage, and passes every certified node
        assert np.array_equal(certified, ~lp_arbitrage), k
        if k == 6:
            assert certified[[222, 235]].all()


def test_deep_two_asset_arbitrage_names_its_first_node(logu):
    m = two_asset_market(depth=3)
    dR = m.returns.increments()
    for node in (17, 9):
        # the first stock rises on every move out of the node
        ch = m.tree.children[node]
        dR[ch, 1] = np.abs(dR[ch, 1])
    m = MarketModel(m.tree, AdaptedProcess.from_increments(m.tree, dR), m.theta)
    # the check node by node, every node through the LP
    first = next(node for node in m.tree.internal_nodes
                 if solver._one_step_arbitrage(dR[m.tree.children[node]][:, 1:]))
    assert first == 9
    with pytest.raises(NoOptimizerError, match=r"^one-step arbitrage at node 9: no optimizer "
                       r"exists \(NUPBR fails\)$"):
        solve_primal(m, logu, 1.0, 0.0)


def test_value_monotone_concave_in_wealth(twop, mix):
    xs = np.linspace(0.5, 3.0, 9)
    vals = [solve_primal(twop, mix, float(x), 0.1).value for x in xs]
    diffs = np.diff(vals)
    assert np.all(diffs > 0.0)
    assert np.all(np.diff(diffs) < 1e-12)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_random_one_period_against_grid(seed):
    m = make_random_one_period(seed)
    u = [log_utility(), power_utility(0.5), power_utility(-2.0)][seed % 3]
    eps = 0.3 * min(m.eps0, 1.0) * (-1 if seed % 2 else 1)
    sol = solve_primal(m, u, 1.0, eps)
    ref = one_period_grid_value(m, u, 1.0, eps)
    assert sol.value == pytest.approx(ref, abs=1e-8)
    assert sol.foc_residual <= 1e-10


def _redundant_asset_market():
    # duplicated stock: collinear one-step returns
    tree = EventTree([-1, 0, 0], [1.0, 0.5, 0.5])
    R = np.zeros((3, 3))
    R[1, 1:] = [0.1, 0.2]
    R[2, 1:] = [-0.1, -0.2]
    theta = np.zeros((3, 3))
    theta[1:] = [0.0, 1.0, 0.0]
    return MarketModel(tree, AdaptedProcess(tree, R), PredictableProcess(tree, theta))


def test_redundant_asset_diagnostics(logu):
    m = _redundant_asset_market()
    space = attainable_space(m)
    assert space.redundant_nodes == (0,)
    sol = solve_primal(m, logu, 1.0, 0.0)
    assert sol.diagnostics["redundant_nodes"] == [0]
    assert sol.foc_residual <= 1e-10


def test_dual_from_the_primal_closes_the_conjugacy_gap(t1, logu):
    d = solve_dual(solve_primal(t1, logu, 1.0))
    assert d.conjugacy_residual < 1e-12


def test_wealth_deflator_product_is_martingale(twop, mix, asym, halfpow):
    for m, u, eps in ((twop, mix, 0.0), (twop, mix, 0.2), (asym, halfpow, 0.0)):
        pair = solve_pair(m, u, 1.0, eps)
        prod = pair.primal.wealth.values * pair.dual.deflator.values
        defect = m.tree.martingale_defect(prod, m.tree.leaf_prob)
        assert defect <= 1e-12
        # the deflator itself is a martingale on a finite tree
        assert m.tree.martingale_defect(pair.dual.deflator.values,
                                        m.tree.leaf_prob) <= 1e-12


def test_marginal_matches_fd(twop, mix):
    # the envelope marginal against a central difference of the value in x
    h = 1e-5
    for eps in (0.0, 0.3):
        sol = solve_primal(twop, mix, 1.0, eps)
        fd = (solve_primal(twop, mix, 1.0 + h, eps).value
              - solve_primal(twop, mix, 1.0 - h, eps).value) / (2 * h)
        assert sol.marginal == pytest.approx(fd, rel=1e-8)


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["positive", "negative"])
@pytest.mark.parametrize("market", ["twop", "two2", "redundant"])
def test_solution_strategies_regenerate_wealth(request, mix, market, sign):
    from numsens.tree import stochastic_exponential, stochastic_integral
    m = {"two2": lambda: two_asset_market(depth=2),
         "redundant": _redundant_asset_market}.get(market, lambda: None)() \
        or request.getfixturevalue(market)
    eps = sign * 0.25 * min(m.eps0, 1.0)
    sol = solve_primal(m, mix, 1.3, eps)
    # the one strategy, against the base returns, reproduces the carried wealth
    base = 1.3 * stochastic_exponential(stochastic_integral(sol.strategy, m.returns)).values
    assert np.max(np.abs(base - sol.zwealth.values) / sol.zwealth.values) <= 1e-11
    # and, against the perturbed price returns, the wealth in the perturbed unit
    S = perturbed_prices(m, eps).values
    dR = np.zeros_like(S)
    for i in range(1, m.tree.n_nodes):
        par = m.tree.parent[i]
        dR[i] = dR[par] + (S[i] - S[par]) / S[par]
    pert = 1.3 * stochastic_exponential(
        stochastic_integral(sol.strategy, AdaptedProcess(m.tree, dR))).values
    assert np.max(np.abs(pert - sol.wealth.values) / sol.wealth.values) <= 1e-11


@pytest.mark.parametrize("seed", range(3))
def test_stacked_proportions_match_the_per_node_fit(seed, logu):
    for m in (make_random_tree(seed, depth=3), two_asset_market(depth=2)):
        sol = solve_primal(m, logu, 1.0, 0.05)
        want = PredictableProcess.from_steps(
            m.tree, naive_proportions(m.tree, sol.zwealth, m.returns)).values
        assert np.max(np.abs(sol.strategy.values - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


def _points(m):
    """Points (x, eps) spread over the market's admissible perturbations."""
    e = min(m.eps0, 1.0)
    return [(1.1, 0.05 * e), (0.8, 0.4 * e), (1.0, -0.3 * e), (1.3, 0.0), (1.0, 0.4 * e)]


@pytest.mark.parametrize("market", ["t1", "asym", "twop", "binom", "bank_dir", "two2", "tri"])
@pytest.mark.parametrize("utility", ["logu", "halfpow", "mix"])
def test_batched_values_are_the_serial_solves(request, market, utility):
    m = {"two2": lambda: two_asset_market(depth=2),
         "tri": lambda: make_random_tree(4, depth=3)}.get(market, lambda: None)() \
        or request.getfixturevalue(market)
    u = request.getfixturevalue(utility)
    xs, eps = map(list, zip(*_points(m)))
    ex = expansion_report(m, u, 1.0)
    starts = np.column_stack([ex.newton_start(x, e) for x, e in zip(xs, eps)])
    for start in (None, starts):
        batch = solve_values(m, u, xs, eps, start=start)
        assert batch.errors == (None,) * len(xs)
        for i, (x, e) in enumerate(zip(xs, eps)):
            sol = solve_primal(m, u, x, e, start=None if start is None else start[:, i])
            assert batch.value[i] == sol.value and batch.marginal[i] == sol.marginal
            assert batch.newton_iters[i] == sol.diagnostics["newton_iters"]


def test_a_failing_point_fails_alone(twop, logu):
    xs, eps = map(list, zip(*_points(twop)))
    eps[2] = twop.eps0
    batch = solve_values(twop, logu, xs, eps)
    assert isinstance(batch.errors[2], AdmissibilityError) and math.isnan(batch.value[2])
    assert all(err is None for i, err in enumerate(batch.errors) if i != 2)
    good = solve_values(twop, logu, xs[:2], eps[:2])
    assert np.array_equal(batch.value[:2], good.value)
    with pytest.raises(AdmissibilityError, match="eps0"):
        batch.checked()


def test_points_that_all_fail_keep_their_errors(monkeypatch, twop, mix):
    # every point fails before Newton: |eps| at eps0
    batch = solve_values(twop, mix, [1.0, 1.2], [twop.eps0, -twop.eps0])
    assert all(isinstance(err, AdmissibilityError) for err in batch.errors)
    assert np.isnan(batch.value).all() and np.isnan(batch.marginal).all()
    with pytest.raises(AdmissibilityError, match="eps0"):
        solve_primal(twop, mix, 1.0, twop.eps0)
    # every point fails in Newton: one step from the riskless start
    monkeypatch.setattr(solver, "_NEWTON_MAX_ITER", 1)
    batch = solve_values(twop, mix, [1.0, 1.2], [0.1, -0.1])
    assert all(isinstance(err, NumericalError) for err in batch.errors)
    assert np.isnan(batch.value).all()
    with pytest.raises(NumericalError, match="did not converge"):
        solve_primal(twop, mix, 1.0, 0.1)


@pytest.mark.parametrize("xs, eps", [([1.0, 1.0, 1.0], [0.1]), ([1.0, 1.2], 0.1)],
                         ids=["list", "scalar"])
def test_values_reject_unequal_numbers_of_wealths_and_perturbations(twop, logu, xs, eps):
    with pytest.raises(ContractViolationError, match="initial wealths but 1 perturbations"):
        solve_values(twop, logu, xs, eps)


def test_values_reject_a_start_column_without_its_point(twop, logu):
    n = twop.space.dim
    with pytest.raises(ContractViolationError, match=rf"\({n}, 2\); got shape \({n}, 3\)"):
        solve_values(twop, logu, [1.0, 1.2], [0.1, 0.2], start=np.zeros((n, 3)))


def test_primal_rejects_a_start_of_the_wrong_length(twop, logu):
    n = twop.space.dim
    with pytest.raises(ContractViolationError, match=rf"got shape \({n + 1}, 1\)"):
        solve_primal(twop, logu, 1.0, 0.1, start=np.zeros(n + 1))


def test_batched_points_keep_the_span_check(monkeypatch, twop, logu):
    # wealth bumped off the traded span at one leaf: every point fails at
    # the node solve_primal names
    leaf = int(twop.tree.leaves[0])
    fit = solver._fit_proportions

    def bumped(tree, Wv, dRet):
        Wv = Wv.copy()
        Wv[..., leaf] *= 1.01
        return fit(tree, Wv, dRet)

    monkeypatch.setattr(solver, "_fit_proportions", bumped)
    xs, eps = map(list, zip(*_points(twop)))
    batch = solve_values(twop, logu, xs, eps)
    for i, (x, e) in enumerate(zip(xs, eps)):
        with pytest.raises(InvariantViolationError) as serial:
            solve_primal(twop, logu, x, e)
        assert isinstance(batch.errors[i], InvariantViolationError)
        assert str(batch.errors[i]) == str(serial.value)
        assert str(serial.value).endswith(f"traded span at node {twop.tree.parent[leaf]}")


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**6))
def test_random_tree_duality_properties(seed):
    from hypothesis import assume
    from conftest import make_random_tree
    from numsens.preferences import mixture_utility
    m = make_random_tree(seed % 499, depth=1 + seed % 2)
    u = [log_utility(), power_utility(0.7),
         mixture_utility([(0.4, 0.3), (0.6, -0.8)])][seed % 3]
    rng = np.random.default_rng(seed)
    x = float(rng.uniform(0.4, 3.0))
    eps = float(rng.uniform(-0.45, 0.45)) * min(m.eps0, 2.0)
    pair = solve_pair(m, u, x, eps)
    # a huge terminal wealth spread (aggressive optimum on a skewed tree)
    # caps double-precision accuracy; keep the property on its honest domain
    assume(pair.primal.diagnostics["wealth_ratio"] < 1e3)
    assert pair.primal.foc_residual <= 1e-10
    assert pair.dual.conjugacy_residual <= 1e-10
    assert np.max(np.abs(pair.dual.terminal - u.du(pair.primal.terminal))) <= 1e-10
    assert verify_deflator(m, eps, pair.dual.deflator).max_violation <= 1e-10
    assert np.all(pair.primal.wealth.values > 0.0)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6), st.floats(-0.49, 0.49), st.floats(0.5, 2.0))
def test_space_is_independent_of_the_perturbation(seed, frac, x):
    # one space serves solves at every x and eps: the results are bit-identical
    # to those of solves on a fresh copy of the model, which builds its own
    import dataclasses
    from conftest import make_random_tree
    m = make_random_tree(seed, depth=1 + seed % 3)
    u = [log_utility(), power_utility(0.5), power_utility(-2.0)][seed % 3]
    solve_primal(m, u, 0.5 * x, 0.0)
    for eps in (frac * min(m.eps0, 2.0), 0.0):
        shared = solve_primal(m, u, x, eps)
        own = solve_primal(dataclasses.replace(m), u, x, eps)
        assert own.model.space is not shared.model.space
        assert shared.value == own.value and shared.marginal == own.marginal
        assert np.array_equal(shared.wealth.values, own.wealth.values)


@pytest.mark.parametrize("seed, utility", [
    (1290, "log"), (1739, "log"), (1817, "log"), (2216, "log"), (2520, "log"),
    (58352, "log"), (715622, "log"), (972530, "log"), (420, "power0.5"),
    (2028, "power0.5"), (1134, "mixture"), (2520, "mixture")])
def test_newton_stops_with_the_pricing_weights_summing_to_one(seed, utility):
    # a Newton stop on the per-node residual alone left these pricing
    # weights up to 3.7e-12 from summing to one, and solve_pair raised
    u = {"log": log_utility(), "power0.5": power_utility(0.5),
         "mixture": mixture_utility([(0.5, 0.5), (0.5, 0.0)])}[utility]
    opt = solve_pair(make_random_tree(seed, depth=1 + seed % 3), u, 1.0)
    assert abs(opt.r_weights.sum() - 1.0) <= 1e-12


def _peak_bytes(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_solve_and_expansion_stay_below_the_dense_payoff_matrix():
    # no leaves-by-columns array: the chain peaks below half the bytes the
    # dense payoff matrix W of this tree would take
    m = make_random_tree(0, depth=7)
    assert m.tree.n_nodes >= 1000
    u = power_utility(0.5)
    w_bytes = m.tree.n_leaves * attainable_space(m).dim * 8
    assert _peak_bytes(lambda: expansion_report(m, u, 1.0, optimum=solve_pair(m, u, 1.0))) \
        < w_bytes / 2
    # the risk-tolerance report on a complete binomial replicates by the
    # kernel: 0.85 MB peak where W takes 8.4 MB (the dense fit peaked at 17 MB)
    m = make_random_tree(0, depth=10, max_branches=2)
    dim = attainable_space(m).dim
    assert dim + 1 == m.tree.n_leaves == 1024
    assert _peak_bytes(lambda: risk_tolerance_report(m, u, 1.0)) < m.tree.n_leaves * dim * 8 / 2
