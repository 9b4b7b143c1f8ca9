import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from numsens.errors import ContractViolationError
from numsens.risktol import (
    gkw_decompose,
    hessian_from_gkw,
    recovery_residual,
    risk_tolerance,
    risk_tolerance_measure,
)
from numsens.sensitivity import expansion_report
from numsens.solver import solve_pair


def test_power_closed_form(asym, halfpow):
    opt = solve_pair(asym, halfpow, 1.0, 0.0)
    rt = risk_tolerance(opt)
    assert rt.exists
    assert rt.initial == pytest.approx(1.0 / (1.0 - 0.5), rel=1e-10)
    assert np.allclose(rt.process.values,
                       opt.primal.wealth.values / 0.5, rtol=1e-10)
    assert np.all(rt.process.values > 0.0)
    # terminal replication is leafwise exact
    assert np.allclose(rt.process.terminal, rt.payoff, atol=1e-12)


def test_log_closed_form(t1, logu):
    opt = solve_pair(t1, logu, 2.0, 0.0)
    rt = risk_tolerance(opt)
    assert rt.exists
    assert rt.initial == pytest.approx(2.0, rel=1e-12)
    assert np.allclose(rt.process.values, opt.primal.wealth.values, rtol=1e-12)


def test_mixture_not_replicable(asym, mix):
    rt = risk_tolerance(solve_pair(asym, mix, 1.0))
    assert not rt.exists
    assert rt.certificate > 1e-4
    assert rt.process is None
    with pytest.raises(ContractViolationError):
        gkw_decompose(rt, solve_pair(asym, mix, 1.0))


def test_measures_coincide_for_power_and_log(asym, t1, halfpow, logu):
    for m, u in ((asym, halfpow), (t1, logu)):
        opt = solve_pair(m, u, 1.0, 0.0)
        rt = risk_tolerance(opt)
        w = risk_tolerance_measure(rt, opt)
        assert np.allclose(w, opt.r_weights, atol=1e-12)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)


def test_gkw_trivial_for_bank_direction(bank_dir, halfpow):
    opt = solve_pair(bank_dir, halfpow, 1.0, 0.0)
    rt = risk_tolerance(opt)
    dec = gkw_decompose(rt, opt)
    assert np.all(dec.P.values == 0.0)
    assert dec.P0 == 0.0
    assert np.max(np.abs(dec.M_component.values)) == 0.0
    assert np.max(np.abs(dec.N_component.values)) == 0.0


def test_gkw_trivial_for_log(asym, logu):
    # unit risk aversion kills the target payoff regardless of the direction
    opt = solve_pair(asym, logu, 1.0, 0.0)
    rt = risk_tolerance(opt)
    dec = gkw_decompose(rt, opt)
    assert dec.P0 == 0.0
    ex = expansion_report(asym, logu, 1.0, optimum=opt)
    terms = hessian_from_gkw(dec, rt, ex)
    assert terms.a_xe == 0.0
    assert terms.a_ee == pytest.approx(ex.a_ee, abs=1e-10)


def test_gkw_cross_check_power_incomplete(asym, halfpow):
    opt = solve_pair(asym, halfpow, 1.0, 0.0)
    rt = risk_tolerance(opt)
    ex = expansion_report(asym, halfpow, 1.0, optimum=opt)
    dec = gkw_decompose(rt, opt)
    terms = hessian_from_gkw(dec, rt, ex)
    assert terms.a_ee == pytest.approx(ex.a_ee, abs=1e-8)
    assert terms.b_ee == pytest.approx(ex.b_ee, abs=1e-8)
    assert terms.a_xe == pytest.approx(ex.a_xe, abs=1e-8)
    assert terms.b_ye == pytest.approx(ex.b_ye, abs=1e-8)
    assert np.max(recovery_residual(dec, ex, rt)) <= 1e-8
    assert dec.orthogonality_defect <= 1e-12


def test_gkw_two_period_power(twop, halfpow):
    opt = solve_pair(twop, halfpow, 1.0, 0.0)
    rt = risk_tolerance(opt)
    assert rt.exists
    ex = expansion_report(twop, halfpow, 1.0, optimum=opt)
    dec = gkw_decompose(rt, opt)
    terms = hessian_from_gkw(dec, rt, ex)
    for got, want in ((terms.a_ee, ex.a_ee), (terms.b_ee, ex.b_ee),
                      (terms.a_xe, ex.a_xe), (terms.b_ye, ex.b_ye)):
        assert got == pytest.approx(want, abs=1e-8)
    assert np.max(recovery_residual(dec, ex, rt)) <= 1e-8


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10**6))
def test_log_decomposition_is_degenerate_on_random_trees(seed):
    # for log utility x·F·(A - 1) vanishes identically, so P0 is exactly 0
    from conftest import make_random_tree
    from numsens.harness import risk_tolerance_report
    from numsens.preferences import log_utility
    m = make_random_tree(seed, depth=1 + seed % 3)
    checks = {c.name: c for c in risk_tolerance_report(m, log_utility(), 1.0).checks}
    assert checks["gkw-log-degenerate"].passed, checks["gkw-log-degenerate"]


@pytest.mark.parametrize("seed", [500005, 500004])
def test_complete_binomial_recovery_maps_pass_at_depth_ten(seed):
    # the dense replication lost accuracy to the spread of these binomials'
    # leaf weights and read 1.3e-5 and 1.5e-6; the kernel's reads 4.6e-10
    # and 1.2e-11 against the unchanged 1e-8
    from conftest import make_random_tree
    from numsens.harness import risk_tolerance_report
    from numsens.preferences import power_utility
    m = make_random_tree(seed, depth=10, max_branches=2)
    checks = {c.name: c for c in risk_tolerance_report(m, power_utility(0.5), 1.0).checks}
    assert checks["gkw-recovery-maps"].passed, checks["gkw-recovery-maps"]
    assert all(c.passed for c in checks.values())
