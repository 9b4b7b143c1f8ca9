"""SciPy stays off the import path.

The package imports `scipy.optimize` only inside `solver.linprog` and
`solver.brentq`.  The first runs the d >= 2 arbitrage LP, for the nodes the
stacked barrier-Newton certificate (`solver._barrier_certified`) cannot
clear; no package code calls the second, which stays for the benchmark's
layer names.  The import checks run in fresh interpreters, since this test
process has long since loaded SciPy: `import numsens`, a solve with its
expansion, the risk-tolerance report, and `verify_all` on arbitrage-free
markets with one and two stocks load none of it.  The wrapper checks
compare each entry point with the SciPy routine it forwards to."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize

import numsens
from numsens import harness, solver

SRC = Path(numsens.__file__).resolve().parent.parent

PRELUDE = """
import json, sys

def scipy_modules():
    return sorted(k for k in sys.modules if k == "scipy" or k.startswith("scipy."))

seen = {}
"""


def _loaded(body: str) -> dict:
    """Runs `body` after the prelude in a fresh interpreter and returns its
    `seen` dict: stage name -> SciPy modules loaded by the end of it."""
    code = PRELUDE + textwrap.dedent(body) + "\nprint(json.dumps(seen))\n"
    done = subprocess.run([sys.executable, "-c", code], cwd=SRC, capture_output=True,
                          text=True, timeout=300, env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_analyze_and_risk_tolerance_never_load_scipy():
    seen = _loaded("""
        import numsens
        seen["import numsens"] = scipy_modules()
        import numsens.cli, numsens.harness, numsens.instances
        seen["import every module"] = scipy_modules()

        from numpy.random import default_rng
        from numsens import expansion_report, power_utility, solve_pair
        from numsens.harness import risk_tolerance_report
        from numsens.instances import random_tree_market

        u = power_utility(0.5)
        m = random_tree_market(default_rng(1), depth=3)
        expansion_report(m, u, 1.0, optimum=solve_pair(m, u, 1.0))
        seen["solve_pair + expansion_report"] = scipy_modules()
        m = random_tree_market(default_rng(1), depth=4, max_branches=2)
        risk_tolerance_report(m, u, 1.0)
        seen["risk_tolerance_report"] = scipy_modules()
    """)
    assert len(seen) == 4
    assert seen == {stage: [] for stage in seen}


def test_arbitrage_lp_loads_scipy_optimize():
    # node 9's moves all raise the first stock: the certificate leaves that
    # node to the LP, which finds the arbitrage
    seen = _loaded("""
        import numpy as np
        from numsens.errors import NoOptimizerError
        from numsens.instances import two_asset_market
        from numsens.market import MarketModel
        from numsens.tree import AdaptedProcess

        m = two_asset_market(depth=3)
        inc = m.returns.increments()
        inc[m.tree.children[9], 1] = np.abs(inc[m.tree.children[9], 1])
        m = MarketModel(m.tree, AdaptedProcess.from_increments(m.tree, inc), m.theta)
        seen["before"] = scipy_modules()
        try:
            m.space
        except NoOptimizerError:
            seen["after"] = scipy_modules()
    """)
    assert seen["before"] == []
    assert "scipy.optimize" in seen["after"]


def test_verify_all_loads_no_scipy():
    # the dual root-find is a secant search, and every node of these markets
    # is certified without the LP
    seen = _loaded("""
        from numsens import log_utility
        from numsens.harness import verify_all
        from numsens.instances import t1_market, two_asset_market

        for name, m in (("t1", t1_market()), ("two_asset", two_asset_market(depth=2))):
            verify_all(m, log_utility(), 1.0)
            seen[name] = scipy_modules()
    """)
    assert seen == {"t1": [], "two_asset": []}


def test_harness_root_find_is_the_solver_entry_point():
    assert harness.brentq is solver.brentq


@pytest.mark.parametrize("f, a, b", [
    (lambda t: t ** 3 - 2.0, 0.0, 2.0),
    (lambda t: np.exp(t) - 3.0 * t - 0.5, 1.0, 3.0),
    (lambda t: np.log(t) + t * t - 1.7, 0.1, 4.0),
])
def test_brentq_forwards_bit_for_bit(f, a, b):
    want = scipy.optimize.brentq(f, a, b, xtol=1e-15, rtol=8.9e-16)
    assert solver.brentq(f, a, b, xtol=1e-15, rtol=8.9e-16) == want
    # positionally: args, xtol, rtol, maxiter, full_output
    root, info = solver.brentq(f, a, b, (), 1e-15, 8.9e-16, 100, True)
    ref_root, ref_info = scipy.optimize.brentq(f, a, b, (), 1e-15, 8.9e-16, 100, True)
    assert root == ref_root == want
    assert (info.iterations, info.function_calls) == (ref_info.iterations,
                                                      ref_info.function_calls)


def _lp(seed, k, d):
    """The arbitrage LP of `solver._one_step_arbitrage` on random moves."""
    D = np.random.default_rng(seed).normal(size=(k, d))
    A_eq = np.zeros((d + 1, k + 1))
    A_eq[:d, :k] = D.T
    A_eq[d, :k] = 1.0
    b_eq = np.zeros(d + 1)
    b_eq[d] = 1.0
    A_ub = np.hstack([-np.eye(k), np.ones((k, 1))])
    c = np.zeros(k + 1)
    c[k] = -1.0
    return c, A_ub, np.zeros(k), A_eq, b_eq, [(None, None)] * (k + 1)


@pytest.mark.parametrize("seed, k, d", [(0, 4, 2), (1, 6, 3), (2, 3, 2)])
def test_linprog_forwards_bit_for_bit(seed, k, d):
    c, A_ub, b_ub, A_eq, b_eq, bounds = _lp(seed, k, d)
    want = scipy.optimize.linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                                  bounds=bounds, method="highs")
    by_name = solver.linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                             bounds=bounds, method="highs")
    by_position = solver.linprog(c, A_ub, b_ub, A_eq, b_eq, bounds, "highs")
    for got in (by_name, by_position):
        assert got.status == want.status
        assert got.fun == want.fun
        np.testing.assert_array_equal(got.x, want.x)
