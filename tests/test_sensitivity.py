import dataclasses

import numpy as np
import pytest

from numsens.market import perturbation_statistics
from numsens.sensitivity import (
    NodeVectors,
    aux_relation_report,
    build_bases,
    expansion_report,
    gradient,
    solve_aux_dual,
    solve_aux_primal,
)
from numsens.solver import solve_pair, solve_primal

from conftest import fd_hessian_fit


def test_basis_dimensions(binom, t1, logu):
    b1 = build_bases(binom, logu, 1.0)
    assert b1.primal_dim == 1 and b1.dual_dim == 0        # complete one-step market
    b2 = build_bases(t1, logu, 1.0)
    assert b2.primal_dim == 1 and b2.dual_dim == 1        # three branches, one asset


def test_basis_martingale_and_orthogonality(twop, mix):
    basis = build_bases(twop, mix, 1.0)
    r = basis.weights
    tree = basis.tree
    # every basis element has zero conditional mean and the cross Gram vanishes
    for nv in basis.primal_nodes + basis.dual_nodes:
        w = basis.child_weights[nv.node]
        assert np.max(np.abs(w @ nv.vectors)) < 1e-12
    gram = (basis.Phi * r[:, None]).T @ basis.Psi
    assert np.max(np.abs(gram)) < 1e-12
    # dimensions fill the one-step fluctuation space
    for node in tree.internal_nodes:
        k = len(tree.children[node])
        p = sum(nv.vectors.shape[1] for nv in basis.primal_nodes if nv.node == node)
        d = sum(nv.vectors.shape[1] for nv in basis.dual_nodes if nv.node == node)
        assert p + d == k - 1


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
    basis = build_bases(binom, mix, 1.0, optimum=opt)
    stats = perturbation_statistics(binom)
    B = mix.rrt(opt.dual.terminal)
    N0, N1, b_ye = solve_aux_dual(basis, opt.y, stats.F, stats.G, B)
    assert N0.value == pytest.approx(float(basis.weights @ B), rel=1e-12)
    assert np.all(N0.terminal == 0.0)


def test_gradient_envelope_fd(asym, logu):
    g_u, g_v = gradient(asym, logu, 1.0)
    assert g_u[1] == g_v[1]
    h = 1e-4
    fd = (solve_primal(asym, logu, 1.0, h).value
          - solve_primal(asym, logu, 1.0, -h).value) / (2 * h)
    assert g_u[1] == pytest.approx(fd, abs=5e-8)
    y = solve_primal(asym, logu, 1.0, 0.0).marginal
    assert g_u[0] == pytest.approx(y, abs=1e-13)


def test_t1_symmetric_gradient_vanishes(t1, logu):
    g_u, _ = gradient(t1, logu, 1.0)
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

    def block_mix(nodes):
        # an invertible change of each node's spanning vectors
        out = []
        for nv in nodes:
            k = nv.vectors.shape[1]
            M = rng.normal(size=(k, k)) + 3 * np.eye(k)
            out.append(NodeVectors(nv.node, nv.vectors @ M))
        return out

    mixed = dataclasses.replace(basis, primal_nodes=block_mix(basis.primal_nodes),
                                dual_nodes=block_mix(basis.dual_nodes))
    M0, M1, a_xe = solve_aux_primal(mixed, 1.0, stats.F, stats.G, A)
    N0, N1, b_ye = solve_aux_dual(mixed, rep.y, stats.F, stats.G, B)
    assert M0.value == pytest.approx(rep.a_xx, abs=1e-10)
    assert M1.value == pytest.approx(rep.a_ee, abs=1e-10)
    assert a_xe == pytest.approx(rep.a_xe, abs=1e-10)
    assert N0.value == pytest.approx(rep.b_yy, abs=1e-10)
    assert N1.value == pytest.approx(rep.b_ee, abs=1e-10)
    assert b_ye == pytest.approx(rep.b_ye, abs=1e-10)
