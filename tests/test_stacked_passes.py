"""The stacked sibling passes against their per-node reference loops, on
random trees that mix 1-, 2- and 3-branch nodes and on the four-branch
two-asset market."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from numsens import solver
from numsens.errors import InvariantViolationError, RepresentationError
from numsens.harness import run_counterexample
from numsens.instances import three_time_jump_market, two_asset_market
from numsens.risktol import _hedge_split
from numsens.sensitivity import orthogonal_spans
from numsens.solver import verify_deflator
from numsens.strategy import (
    characteristics,
    discount_direction,
    reassemble_returns,
    represent_martingale,
    truncate_localize,
)
from numsens.tree import (
    AdaptedProcess,
    EventTree,
    PredictableProcess,
    stochastic_exponential,
    stochastic_integral,
)

from conftest import make_mixed_market, make_mixed_tree
from reference_loops import (
    naive_characteristics,
    naive_first_negative,
    naive_hedge_split,
    naive_martingale_defect,
    naive_proportions,
    naive_reassemble_returns,
    naive_renormalized_prob,
    naive_represent_martingale,
    naive_time,
    naive_truncate_localize,
    naive_verify_deflator,
)

TOL = 1e-13
MARKETS = st.sampled_from(["mixed-1", "mixed-2", "two-asset"])


def market(kind, seed):
    if kind == "two-asset":
        return two_asset_market(depth=2)
    return make_mixed_market(seed, d=int(kind[-1]))


def close(got, want):
    return np.max(np.abs(got - want), initial=0.0) <= TOL * max(1.0, np.max(np.abs(want), initial=0.0))


def error_node(err):
    return int(re.search(r"at node (\d+)", str(err)).group(1))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_tree_levels_and_probabilities(seed):
    tree = make_mixed_tree(seed)
    rng = np.random.default_rng(seed)
    # transition probabilities off by rounding, which the tree renormalizes
    raw = tree.prob * (1.0 - 1e-14 * rng.uniform(0.0, 1.0, tree.n_nodes))
    again = EventTree(tree.parent, raw)
    assert np.array_equal(again.time, naive_time(tree.parent))
    assert np.array_equal(np.concatenate(again.levels), np.arange(tree.n_nodes))
    assert close(again.prob, naive_renormalized_prob(again, raw))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_martingale_defect(seed):
    tree = make_mixed_tree(seed)
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.1, 1.0, tree.n_leaves)
    values = rng.normal(size=tree.n_nodes)
    want = naive_martingale_defect(tree, values, weights)
    assert abs(tree.martingale_defect(values, weights) - want) <= TOL * max(1.0, want)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), MARKETS)
def test_verify_deflator(seed, kind):
    m = market(kind, seed)
    rng = np.random.default_rng(seed)
    eps = 0.5 * min(m.eps0, 1.0) * rng.uniform(-1.0, 1.0)
    Y = rng.uniform(0.5, 1.5, m.tree.n_nodes)
    got = verify_deflator(m, eps, AdaptedProcess(m.tree, Y))
    worst, node, checks = naive_verify_deflator(m, eps, Y)
    assert abs(got.max_violation - worst) <= TOL * max(1.0, worst)
    assert (got.worst_node, got.checks) == (node, checks)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), MARKETS)
def test_characteristics_and_reassembly(seed, kind):
    m = market(kind, seed)
    ch = characteristics(m)
    B, comp = naive_characteristics(m)
    assert close(ch.B.values, B)
    prob, jumps = ch.jump_compensator
    for node, (w, j) in comp.items():
        c = m.tree.children[node]
        assert np.array_equal(prob[c], w) and np.array_equal(jumps[c], j)
    assert close(reassemble_returns(m, ch).values, naive_reassemble_returns(m, B, comp))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), MARKETS, st.integers(1, 3))
def test_truncation_is_exact(seed, kind, n):
    m = market(kind, seed)
    rng = np.random.default_rng(seed)
    inc = rng.normal(scale=rng.uniform(0.3, 1.5), size=m.tree.n_nodes)
    M = AdaptedProcess.from_increments(m.tree, inc)
    got = truncate_localize(M, n)
    values, vstops, qstops = naive_truncate_localize(M.values, m.tree, n)
    assert np.array_equal(got.process.values, values)
    assert got.value_stop_nodes == vstops and got.qv_stop_nodes == qstops
    assert got.saturated == np.array_equal(values, M.values)


def _small_proportions(m, rng, scale):
    steps = np.zeros((m.tree.n_nodes, m.d + 1))
    steps[:, 1:] = rng.uniform(-scale, scale, (m.tree.n_nodes, m.d))
    steps[:, 0] = 1.0 - steps[:, 1:].sum(axis=1)
    return PredictableProcess.from_steps(m.tree, steps)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), MARKETS, st.booleans())
def test_representation(seed, kind, in_span):
    m = market(kind, seed)
    rng = np.random.default_rng(seed)
    pi_hat = _small_proportions(m, rng, 0.15)
    if in_span:
        gamma = _small_proportions(m, rng, 1.0)
        M = stochastic_integral(gamma, discount_direction(m, pi_hat))
    else:
        M = AdaptedProcess.from_increments(m.tree, rng.normal(scale=0.1, size=m.tree.n_nodes))
    try:
        want, worst = naive_represent_martingale(M.values, m, pi_hat)
    except RepresentationError as err:
        with pytest.raises(RepresentationError) as got:
            represent_martingale(M, m, pi_hat)
        assert error_node(got.value) == error_node(err)
        return
    got = represent_martingale(M, m, pi_hat)
    assert close(got.gamma.values, PredictableProcess.from_steps(m.tree, want).values)
    assert abs(got.max_residual - worst) <= TOL


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), MARKETS, st.booleans())
def test_proportions(seed, kind, in_span):
    m = market(kind, seed)
    rng = np.random.default_rng(seed)
    pi = _small_proportions(m, rng, 0.3)
    wealth = 2.0 * stochastic_exponential(stochastic_integral(pi, m.returns)).values
    if not in_span:
        wealth[rng.choice(m.tree.leaves)] *= 1.01
    wealth = AdaptedProcess(m.tree, wealth)
    sol, resid = solver._fit_proportions(m.tree, wealth.values, m.returns.increments())
    try:
        want = naive_proportions(m.tree, wealth, m.returns)
    except InvariantViolationError as err:
        assert np.flatnonzero(resid > 1e-8)[0] == error_node(err)
        return
    assert np.all(resid <= 1e-8)
    got = PredictableProcess.from_steps(m.tree, np.column_stack([1.0 - sol.sum(axis=1), sol]))
    assert close(got.values, PredictableProcess.from_steps(m.tree, want).values)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), MARKETS)
def test_hedge_split(seed, kind):
    m = market(kind, seed)
    tree = m.tree
    rng = np.random.default_rng(seed)
    prices = AdaptedProcess.from_increments(tree, rng.normal(size=(tree.n_nodes, m.d + 1)))
    # the hedgeable span alone, and P a martingale under its weights: what
    # `gkw_decompose` splits
    basis = orthogonal_spans(tree, prices.values, rng.uniform(0.5, 1.5) * tree.leaf_prob,
                             complement=False)
    P = tree.conditional_expectation(basis.weights, rng.normal(size=tree.n_leaves))
    Mv, Nv, defect = _hedge_split(basis, P)
    want_M, want_N, want_defect = naive_hedge_split(basis, P)
    assert close(Mv, want_M) and close(Nv, want_N)
    assert abs(defect - want_defect) <= TOL


@settings(max_examples=20, deadline=None)
@given(st.floats(-1.5, 1.5), st.integers(1, 14))
def test_unbounded_jump_witness(eps, n_max):
    rep = run_counterexample("unbounded_jumps", eps_list=(eps,), n_max=n_max)
    m = three_time_jump_market(n_max)
    N = stochastic_exponential(stochastic_integral(eps * m.theta, m.returns)).values
    witness = naive_first_negative(m.tree, N)
    (check,) = rep.checks
    if eps == 0.0:
        assert witness is None and check.passed
    elif witness is None:
        assert not check.passed and "no violating scenario" in check.note
    else:
        assert check.computed == witness[1] and check.note.startswith(f"weight {witness[0]},")
