"""Built-in demonstration and stress models.

These cover the regimes the package is exercised in: the symmetric
trinomial desk model, asymmetric and two-period variants, complete
binomials, randomized small markets, a deep binomial walk carrying a
cubic-tail perturbation (integrability stress), and the three-time model
with unbounded perturbation weights (positivity stress).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractViolationError
from .market import MarketModel
from .tree import AdaptedProcess, EventTree, PredictableProcess


def _single_asset_market(probs_by_node, drho_by_node, theta1_by_node, eps0=None) -> MarketModel:
    """Assemble a d=1 market from per-node child lists.

    probs_by_node / drho_by_node: lists aligned with breadth-first internal
    nodes, each a sequence over that node's children.  theta1_by_node: the
    stock proportion used on the step out of each internal node.
    """
    # breadth-first construction
    parent, prob, drho = [-1], [1.0], [0.0]
    frontier = [0]
    idx = 0
    for ps, ds in zip(probs_by_node, drho_by_node):
        node = frontier[idx]
        idx += 1
        for p_, d_ in zip(ps, ds):
            parent.append(node)
            prob.append(p_)
            drho.append(d_)
            frontier.append(len(parent) - 1)
    tree = EventTree(parent, prob)
    inc = np.zeros((tree.n_nodes, 2))
    inc[:, 1] = drho
    theta_steps = np.zeros((tree.n_nodes, 2))
    for j, node in enumerate(tree.internal_nodes):
        t1 = theta1_by_node[j]
        theta_steps[node] = [1.0 - t1, t1]
    theta = PredictableProcess.from_steps(tree, theta_steps)
    return MarketModel(tree, AdaptedProcess.from_increments(tree, inc), theta, eps0=eps0)


def t1_market(theta1: float = 1.0) -> MarketModel:
    """Symmetric one-period trinomial: stock moves {+0.1, 0, -0.1}, uniform."""
    third = 1.0 / 3.0
    return _single_asset_market([[third, third, third]], [[0.1, 0.0, -0.1]], [theta1])


def asymmetric_trinomial_market(theta1: float = 1.0) -> MarketModel:
    """One-period trinomial with moves {+0.2, 0, -0.1}, uniform weights."""
    third = 1.0 / 3.0
    return _single_asset_market([[third, third, third]], [[0.2, 0.0, -0.1]], [theta1])


def two_period_trinomial_market() -> MarketModel:
    """Two-period trinomial with mildly asymmetric second-period moves and
    non-uniform probabilities; theta switches between periods so no
    auxiliary optimizer degenerates."""
    p1 = [0.3, 0.45, 0.25]
    d1 = [0.1, 0.0, -0.1]
    p2 = [0.35, 0.35, 0.3]
    d2 = [0.15, 0.02, -0.12]
    probs = [p1] + [p2] * 3
    drhos = [d1] + [d2] * 3
    thetas = [0.7, 1.0, 1.0, 1.0]
    return _single_asset_market(probs, drhos, thetas)


def one_period_binomial_market(up: float = 0.1, down: float = -0.08,
                               p_up: float = 0.55, theta1: float = 1.0) -> MarketModel:
    return _single_asset_market([[p_up, 1.0 - p_up]], [[up, down]], [theta1])


def bank_direction_market(base: MarketModel = None) -> MarketModel:
    """A market whose perturbation direction is the bank account itself
    (theta = e0), so the numeraire family is identically 1."""
    m = base if base is not None else t1_market()
    steps = np.zeros((m.tree.n_nodes, m.d + 1))
    steps[:, 0] = 1.0
    theta = PredictableProcess.from_steps(m.tree, steps)
    return MarketModel(m.tree, m.returns, theta)


def random_one_period_market(rng: np.random.Generator, max_branches: int = 4):
    """Random no-arbitrage one-period d=1 market with 2..max_branches moves."""
    k = int(rng.integers(2, max_branches + 1))
    while True:
        moves = rng.uniform(-0.35, 0.45, size=k)
        if moves.max() > 0.01 and moves.min() < -0.01:
            break
    w = rng.uniform(0.2, 1.0, size=k)
    w = w / w.sum()
    theta1 = float(rng.uniform(-0.6, 1.2))
    return _single_asset_market([w.tolist()], [moves.tolist()], [theta1])


def random_tree_market(rng: np.random.Generator, depth: int = 2, max_branches: int = 3):
    """Random no-arbitrage d=1 market on a tree of the given depth."""
    probs, drhos, thetas = [], [], []
    counts = [1]
    for t in range(depth):
        n_nodes_t = counts[-1]
        total_children = 0
        for _ in range(n_nodes_t):
            k = int(rng.integers(2, max_branches + 1))
            while True:
                moves = rng.uniform(-0.3, 0.4, size=k)
                if moves.max() > 0.01 and moves.min() < -0.01:
                    break
            w = rng.uniform(0.2, 1.0, size=k)
            w = w / w.sum()
            probs.append(w.tolist())
            drhos.append(moves.tolist())
            thetas.append(float(rng.uniform(-0.6, 1.2)))
            total_children += k
        counts.append(total_children)
    return _single_asset_market(probs, drhos, thetas)


def binomial_walk_market(depth: int, tail_power: float = 3.0):
    """Symmetric binomial walk of the given depth with steps ±1/sqrt(depth),
    carrying the perturbation whose terminal return is |W|^tail_power·sign(W).

    The physical measure prices the stock (martingale), so the base optimum
    is the do-nothing portfolio; the perturbation weights grow with depth,
    which is the point of the stress model.
    """
    if depth < 1:
        raise ContractViolationError(f"binomial walk depth must be at least 1, got {depth}")
    h = 1.0 / math.sqrt(depth)
    n_nodes = 2 ** (depth + 1) - 1
    parent = [-1] + [(i - 1) // 2 for i in range(1, n_nodes)]
    prob = [1.0] + [0.5] * (n_nodes - 1)
    tree = EventTree(parent, prob)

    inc = np.zeros((n_nodes, 2))
    inc[1:, 1] = [h if i % 2 == 1 else -h for i in range(1, n_nodes)]
    returns = AdaptedProcess.from_increments(tree, inc)
    W = returns.values[:, 1]

    payoff = np.abs(W[tree.leaves]) ** tail_power * np.sign(W[tree.leaves])
    M = tree.conditional_expectation(tree.leaf_prob, payoff)
    theta_steps = np.zeros((n_nodes, 2))
    for node in tree.internal_nodes:
        up, dn = tree.children[node]
        hcoef = (M[up] - M[dn]) / (W[up] - W[dn])
        theta_steps[node] = [1.0 + hcoef, -hcoef]
    theta = PredictableProcess.from_steps(tree, theta_steps)
    return MarketModel(tree, returns, theta)


def three_time_jump_market(n_max: int = 12) -> MarketModel:
    """Three dates; the stock moves ±1/2 at the last date; the perturbation
    weight on that move is n with probability 2^-n (truncated at n_max and
    renormalized).  For any fixed perturbation size some scenario drives the
    perturbed unit of account negative once n_max is large enough."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    weights = np.array([2.0 ** -n for n in range(1, n_max + 1)])
    weights = weights / weights.sum()

    parent, prob = [-1], [1.0]
    for w in weights:
        parent.append(0)
        prob.append(float(w))
    first = list(range(1, n_max + 1))
    for node in first:
        for _ in range(2):
            parent.append(node)
            prob.append(0.5)
    tree = EventTree(parent, prob)

    inc = np.zeros((tree.n_nodes, 2))
    for node in first:
        up, dn = tree.children[node]
        inc[up, 1] = 0.5
        inc[dn, 1] = -0.5
    theta_steps = np.zeros((tree.n_nodes, 2))
    theta_steps[0] = [1.0, 0.0]
    for n, node in enumerate(first, start=1):
        theta_steps[node] = [1.0 - n, float(n)]
    theta = PredictableProcess.from_steps(tree, theta_steps)
    return MarketModel(tree, AdaptedProcess.from_increments(tree, inc), theta)


def two_asset_market(depth: int = 1, correlated: bool = True) -> MarketModel:
    """d=2 market with four moves per node.  The correlated variant has
    generic joint moves (every one-step covariance nonzero); the other one
    moves exactly one stock per branch, so the stocks' covariation vanishes
    pathwise."""
    if correlated:
        raw1 = np.array([0.09, 0.03, -0.02, -0.08])
        raw2 = np.array([0.05, -0.05, 0.07, -0.04])
        q = np.array([0.2, 0.3, 0.3, 0.2])
        d1 = raw1 - q @ raw1          # center so a positive pricing vector exists
        d2 = raw2 - q @ raw2
        moves = np.column_stack([d1, d2])
        probs = [0.3, 0.2, 0.25, 0.25]
    else:
        moves = np.array([[0.1, 0.0], [-0.08, 0.0], [0.0, 0.12], [0.0, -0.09]])
        probs = [0.22, 0.28, 0.24, 0.26]
    theta_step = np.array([0.2, 0.5, 0.3])

    parent, prob = [-1], [1.0]
    drows = [np.zeros(2)]
    frontier = [0]
    idx = 0
    n_internal = sum(4**t for t in range(depth))
    for _ in range(n_internal):
        node = frontier[idx]
        idx += 1
        for p_, d_ in zip(probs, moves):
            parent.append(node)
            prob.append(p_)
            drows.append(np.asarray(d_))
            frontier.append(len(parent) - 1)
    tree = EventTree(parent, prob)
    inc = np.zeros((tree.n_nodes, 3))
    inc[1:, 1:] = np.asarray(drows[1:])
    steps = np.zeros((tree.n_nodes, 3))
    for node in tree.internal_nodes:
        steps[node] = theta_step
    theta = PredictableProcess.from_steps(tree, steps)
    return MarketModel(tree, AdaptedProcess.from_increments(tree, inc), theta)
