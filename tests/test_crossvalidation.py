"""Randomized end-to-end agreement: engine expansions vs exact re-solves."""

import numpy as np
import pytest

from numsens.preferences import log_utility, mixture_utility, power_utility
from numsens.sensitivity import aux_relation_report, expansion_report
from numsens.solver import solve_primal

from conftest import fd_hessian_fit, make_random_tree

UTILITIES = [
    log_utility(),
    power_utility(0.5),
    power_utility(-1.0),
    mixture_utility([(0.5, 0.5), (0.5, 0.0)]),
    mixture_utility([(0.3, 0.4), (0.3, -0.7), (0.4, 0.0)]),
]


@pytest.mark.parametrize("seed", range(8))
def test_expansion_against_fd_hessian(seed):
    m = make_random_tree(2000 + seed, depth=1 + seed % 2, max_branches=3)
    u = UTILITIES[seed % len(UTILITIES)]
    rng = np.random.default_rng(seed)
    x = float(rng.uniform(0.6, 1.8))
    rep = expansion_report(m, u, x)
    assert aux_relation_report(rep).max_residual <= 1e-8

    h = 1e-3
    vals = {}
    for i in range(-2, 3):
        for j in range(-2, 3):
            vals[(i * h, j * h)] = solve_primal(m, u, x + i * h, j * h).value
    _, grad, hess = fd_hessian_fit(vals, None, None)
    assert np.allclose(grad, rep.gradient_u, rtol=1e-5, atol=1e-8)
    scale = np.maximum(np.abs(rep.hessian_u), 1e-4)
    assert np.max(np.abs(hess - rep.hessian_u) / scale) <= 2e-4


@pytest.mark.parametrize("seed", range(4))
def test_construction_never_beats_the_value(seed):
    # admissibility: the constructed wealth's expected utility is a true
    # lower bound for the exact value at every probed point
    from numsens.sensitivity import expansion_report
    from numsens.strategy import StrategyKit

    m = make_random_tree(3000 + seed, depth=2, max_branches=3)
    u = UTILITIES[seed % len(UTILITIES)]
    kit = StrategyKit(expansion_report(m, u, 1.0))
    for k in range(3, 8):
        d = 2.0**-k
        n = kit.select_level(d, d)
        gap = kit.exact_value(d, d) - kit.construction_utility(d, d, n)
        assert gap >= -1e-12
