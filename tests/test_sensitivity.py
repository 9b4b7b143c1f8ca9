import dataclasses
import gc
import types

import numpy as np
import pytest

from numsens.errors import ContractViolationError
from numsens.instances import asymmetric_trinomial_market
from numsens.market import perturbation_statistics
from numsens.preferences import power_utility
from numsens.sensitivity import (
    aux_relation_report,
    build_bases,
    expansion_report,
    gradient,
    solve_aux_dual,
    solve_aux_primal,
)
from numsens.solver import solve_pair, solve_primal
from numsens.tree import BlockPlan

from conftest import fd_hessian_fit, make_random_tree


def test_expansion_rejects_an_optimum_of_another_problem(asym, halfpow, logu):
    opt = solve_pair(asym, halfpow, 1.0)
    with pytest.raises(ContractViolationError):
        expansion_report(asym, halfpow, 2.0, optimum=opt)
    for m, u, eps in ((asymmetric_trinomial_market(), halfpow, 0.0), (asym, logu, 0.0),
                      (asym, halfpow, 0.125)):
        with pytest.raises(ContractViolationError):
            expansion_report(m, u, 1.0, optimum=solve_pair(asym, halfpow, 1.0, eps))
    assert expansion_report(asym, halfpow, 1.0, optimum=opt).optimum is opt


def test_basis_dimensions(binom, t1, logu):
    b1 = build_bases(solve_pair(binom, logu, 1.0))
    assert b1.primal_dim == 1 and b1.dual_dim == 0        # complete one-step market
    b2 = build_bases(solve_pair(t1, logu, 1.0))
    assert b2.primal_dim == 1 and b2.dual_dim == 1        # three branches, one asset


def test_basis_martingale_and_orthogonality(twop, mix):
    basis = build_bases(solve_pair(twop, mix, 1.0))
    r = basis.weights
    tree = basis.tree
    # every basis element has zero conditional mean and the cross Gram vanishes
    blocks = basis.primal_plan.blocks() + basis.dual_plan.blocks()
    for node, _, V in blocks:
        w = basis.child_weights[tree.children[node]]
        assert np.max(np.abs(w @ V)) < 1e-12
    gram = (basis.Phi * r[:, None]).T @ basis.Psi
    assert np.max(np.abs(gram)) < 1e-12
    # dimensions fill the one-step fluctuation space
    for node in tree.internal_nodes:
        k = len(tree.children[node])
        assert sum(V.shape[1] for at, _, V in blocks if at == node) == k - 1


def test_basis_keeps_no_per_node_objects():
    # a basis holds its spans only stacked in its plans: the objects it keeps
    # alive that the garbage collector must scan do not grow with the tree
    m = make_random_tree(1, depth=6)
    basis = build_bases(solve_pair(m, power_utility(0.5), 1.0))
    seen, stack = {}, [basis]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or obj is basis.tree or isinstance(
                obj, (type, types.ModuleType, types.FunctionType)):
            continue
        seen[id(obj)] = obj
        stack.extend(gc.get_referents(obj))
    tracked = sum(gc.is_tracked(obj) for obj in seen.values())
    assert tracked < len(m.tree.internal_nodes)


def test_aux_hand_values_t1_log(t1, logu):
    rep = expansion_report(t1, logu, 1.0)
    assert rep.a_xx == pytest.approx(1.0, abs=1e-12)
    assert rep.a_ee == pytest.approx(-1.0 / 150.0, abs=1e-12)
    assert rep.a_xe == pytest.approx(0.0, abs=1e-12)
    assert rep.b_yy == pytest.approx(1.0, abs=1e-12)
    assert rep.b_ye == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(rep.hessian_u, [[-1.0, 0.0], [0.0, 1.0 / 150.0]], atol=1e-12)


def test_aux_bank_direction_trivial(bank_dir, logu):
    rep = expansion_report(bank_dir, logu, 1.0)
    assert rep.a_ee == pytest.approx(0.0, abs=1e-14)
    assert rep.a_xe == pytest.approx(0.0, abs=1e-14)
    assert np.max(np.abs(rep.M1.terminal)) < 1e-13
    assert rep.gradient_u[1] == pytest.approx(0.0, abs=1e-14)


def test_complete_market_dual_value(binom, mix):
    opt = solve_pair(binom, mix, 1.0, 0.0)
    basis = build_bases(opt)
    stats = perturbation_statistics(binom)
    B = mix.rrt(opt.dual.terminal)
    N0, N1, b_ye = solve_aux_dual(basis, opt.y, stats.F, stats.G, B)
    assert N0.value == pytest.approx(float(basis.weights @ B), rel=1e-12)
    assert np.all(N0.terminal == 0.0)


def test_gradient_envelope_fd(asym, logu):
    g_u, g_v = gradient(solve_pair(asym, logu, 1.0))
    assert g_u[1] == g_v[1]
    h = 1e-4
    fd = (solve_primal(asym, logu, 1.0, h).value
          - solve_primal(asym, logu, 1.0, -h).value) / (2 * h)
    assert g_u[1] == pytest.approx(fd, abs=5e-8)
    y = solve_primal(asym, logu, 1.0, 0.0).marginal
    assert g_u[0] == pytest.approx(y, abs=1e-13)


def test_t1_symmetric_gradient_vanishes(t1, logu):
    g_u, _ = gradient(solve_pair(t1, logu, 1.0))
    assert g_u[1] == pytest.approx(0.0, abs=1e-15)


def test_hessian_sign_and_symmetry(twop, mix):
    rep = expansion_report(twop, mix, 1.0)
    assert rep.hessian_u[0, 0] < 0.0
    assert rep.hessian_v[0, 0] > 0.0
    assert rep.hessian_u[0, 1] == rep.hessian_u[1, 0]
    assert rep.a_xx >= mix.c1 - 1e-12
    assert rep.b_yy >= 1.0 / mix.c2 - 1e-12


def test_hessian_matches_quadratic_fit(twop, mix):
    rep = expansion_report(twop, mix, 1.0)
    h = 1e-3
    vals = {}
    for i in range(-2, 3):
        for j in range(-2, 3):
            vals[(i * h, j * h)] = solve_primal(twop, mix, 1.0 + i * h, j * h).value
    _, grad, hess = fd_hessian_fit(vals, None, None)
    assert np.allclose(grad, rep.gradient_u, rtol=1e-6, atol=1e-9)
    assert np.allclose(hess, rep.hessian_u, rtol=1e-4)


def test_relations_all_instances(t1, twop, binom, logu, mix):
    for m, u in ((t1, logu), (twop, mix), (binom, mix)):
        rel = aux_relation_report(expansion_report(m, u, 1.0))
        assert rel.max_residual <= 1e-8


def test_optimizer_derivative_payoffs(t1, logu, asym, halfpow):
    rep = expansion_report(t1, logu, 1.0)
    assert np.allclose(rep.X_x, 1.0, atol=1e-12)
    assert np.allclose(rep.X_eps, rep.F, atol=1e-12)
    # homothetic optimum: the wealth derivative is the normalized optimum
    repp = expansion_report(asym, halfpow, 1.0)
    opt = repp.optimum
    assert np.allclose(repp.X_x, opt.primal.terminal / opt.x, atol=1e-10)


def test_span_invariance_of_aux_values(twop, mix):
    rep = expansion_report(twop, mix, 1.0)
    basis = rep.basis
    rng = np.random.default_rng(5)
    stats = perturbation_statistics(twop)
    A = mix.rra(rep.optimum.primal.terminal)
    B = mix.rrt(rep.optimum.dual.terminal)

    def block_mix(plan):
        # an invertible change of each node's spanning vectors
        out = {}
        for node, _, V in plan.blocks():
            k = V.shape[1]
            out[node] = V @ (rng.normal(size=(k, k)) + 3 * np.eye(k))
        return BlockPlan(basis.tree, out)

    mixed = dataclasses.replace(basis, primal_plan=block_mix(basis.primal_plan),
                                dual_plan=block_mix(basis.dual_plan))
    M0, M1, a_xe = solve_aux_primal(mixed, 1.0, stats.F, stats.G, A)
    N0, N1, b_ye = solve_aux_dual(mixed, rep.y, stats.F, stats.G, B)
    assert M0.value == pytest.approx(rep.a_xx, abs=1e-10)
    assert M1.value == pytest.approx(rep.a_ee, abs=1e-10)
    assert a_xe == pytest.approx(rep.a_xe, abs=1e-10)
    assert N0.value == pytest.approx(rep.b_yy, abs=1e-10)
    assert N1.value == pytest.approx(rep.b_ee, abs=1e-10)
    assert b_ye == pytest.approx(rep.b_ye, abs=1e-10)
