import numpy as np
import pytest

from numsens.instances import (
    asymmetric_trinomial_market,
    bank_direction_market,
    one_period_binomial_market,
    random_one_period_market,
    random_tree_market,
    t1_market,
    two_period_trinomial_market,
)
from numsens.market import MarketModel
from numsens.preferences import log_utility, mixture_utility, power_utility
from numsens.tree import AdaptedProcess, EventTree, PredictableProcess


@pytest.fixture
def t1():
    return t1_market()


@pytest.fixture
def asym():
    return asymmetric_trinomial_market()


@pytest.fixture
def twop():
    return two_period_trinomial_market()


@pytest.fixture
def binom():
    return one_period_binomial_market()


@pytest.fixture
def bank_dir():
    return bank_direction_market()


@pytest.fixture
def logu():
    return log_utility()


@pytest.fixture
def halfpow():
    return power_utility(0.5)


@pytest.fixture
def mix():
    return mixture_utility([(0.5, 0.5), (0.5, 0.0)])


def make_random_tree(seed, depth=2, max_branches=3):
    return random_tree_market(np.random.default_rng(seed), depth=depth,
                              max_branches=max_branches)


def make_random_one_period(seed, max_branches=4):
    return random_one_period_market(np.random.default_rng(seed), max_branches=max_branches)


def make_mixed_tree(seed, max_depth=4):
    """Breadth-first tree with 1 to 3 children per node (single-child nodes
    included) and random transition probabilities."""
    rng = np.random.default_rng(seed)
    parent, prob, level = [-1], [1.0], [0]
    for _ in range(int(rng.integers(1, max_depth + 1))):
        nxt = []
        for node in level:
            w = rng.uniform(0.1, 1.0, int(rng.integers(1, 4)))
            for q in w / w.sum():
                parent.append(node)
                prob.append(float(q))
                nxt.append(len(parent) - 1)
        level = nxt
    return EventTree(parent, prob)


def make_mixed_market(seed, d=1, max_depth=3):
    """d stocks on make_mixed_tree(seed): random one-step returns, about a
    fifth of them beyond the unit truncation, and random proportions theta.
    Not arbitrage-free; for the tree passes, not for solves."""
    tree = make_mixed_tree(seed, max_depth)
    rng = np.random.default_rng(seed)
    n = tree.n_nodes
    inc = np.zeros((n, d + 1))
    inc[1:, 1:] = rng.uniform(-0.6, 0.6, (n - 1, d)) * np.where(rng.random((n - 1, d)) < 0.2, 3.0, 1.0)
    steps = np.zeros((n, d + 1))
    steps[:, 1:] = rng.uniform(-1.0, 1.0, (n, d))
    steps[:, 0] = 1.0 - steps[:, 1:].sum(axis=1)
    return MarketModel(tree, AdaptedProcess.from_increments(tree, inc),
                       PredictableProcess.from_steps(tree, steps))


# ---------------------------------------------------------------------------
# independent oracles (evaluation-only; no optimality conditions)
# ---------------------------------------------------------------------------


def one_period_grid_value(m, utility, x, eps, points=2001, refinements=5):
    """Brute-force value of a one-period d=1 problem by grid search over the
    stock proportion, with interval refinement around the best point."""
    tree = m.tree
    assert tree.steps == 1
    ch = tree.children[0]
    dr = m.returns.increments()[ch, 1]
    pr = tree.prob[ch]
    th = m.theta.step_value(0)
    nl = 1.0 + eps * (th[1] * dr)          # bank part of theta adds nothing
    assert np.all(nl > 0.0)

    lo, hi = -1e6, 1e6
    for d in dr:
        if d > 0:
            lo = max(lo, -1.0 / d)
        elif d < 0:
            hi = min(hi, -1.0 / d)
    pad = 1e-9 * (hi - lo)
    lo, hi = lo + pad, hi - pad

    best = None
    for _ in range(refinements):
        grid = np.linspace(lo, hi, points)
        wealth = x * (1.0 + np.outer(grid, dr)) / nl
        ok = np.all(wealth > 0.0, axis=1)
        vals = np.full(points, -np.inf)
        vals[ok] = utility.u(wealth[ok]) @ pr
        k = int(np.argmax(vals))
        best = vals[k]
        span = grid[1] - grid[0]
        lo, hi = grid[k] - 2 * span, grid[k] + 2 * span
    return float(best)


def fd_hessian_fit(values, steps_a, steps_b):
    """Least-squares quadratic surface fit; returns (const, grad, hessian)."""
    rows, rhs = [], []
    for (a, b), v in values.items():
        rows.append([1.0, a, b, 0.5 * a * a, a * b, 0.5 * b * b])
        rhs.append(v)
    coef, *_ = np.linalg.lstsq(np.asarray(rows), np.asarray(rhs), rcond=None)
    grad = coef[1:3]
    hess = np.array([[coef[3], coef[4]], [coef[4], coef[5]]])
    return coef[0], grad, hess
