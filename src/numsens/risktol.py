"""Risk-tolerance wealth process and the orthogonal-decomposition route to
the second-order coefficients.

The target payoff is the reciprocal-risk-aversion-scaled optimal wealth
(-U'/U'' at the optimum).  On a complete tree, whose attainable span
holds every payoff, one pass of the tree-elimination kernel on the plan of
the model's shared attainable space (`MarketModel.space`) replicates it
and returns its wealth at every node.  On an incomplete tree the fit is a
dense weighted least-squares fit on the payoff matrix `W`: the initial
capitals in `perfbench/reference.json` carry its rounding, which a kernel
fit would move by up to 1.6e-12 relative, beyond their gate.
When the payoff is replicable, discounting by the replicating process and
reweighting by its terminal value times the dual density yields a measure
under which the mixed second-order coefficients come from a two-component
orthogonal (Galtchouk-Kunita-Watanabe) split of one conditional-expectation
martingale, one elimination pass on the plan of the hedgeable span alone —
an independent route to the same numbers the least-squares engine produces.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolationError, InvariantViolationError
from .market import perturbation_statistics
from .sensitivity import ExpansionReport, MartingaleBasis, orthogonal_spans
from .solver import Optimum
from .tree import AdaptedProcess

_REPLICATION_TOL = 1e-8


@dataclass(frozen=True)
class RiskToleranceProcess:
    exists: bool
    certificate: float                 # weighted L2 distance to the attainable span
    payoff: np.ndarray = field(repr=False)
    initial: float = None              # starting capital of the replicating wealth
    process: AdaptedProcess = None


def risk_tolerance(optimum: Optimum) -> RiskToleranceProcess:
    """Replicate -U'(X_T)/U''(X_T) over self-financing wealths (by the kernel
    on a complete tree, by a dense fit on `W` otherwise); on failure the
    certificate is the physical-measure L2 distance to the span."""
    m, utility = optimum.primal.model, optimum.primal.utility
    space = m.space
    tree = m.tree
    XT = optimum.primal.terminal
    payoff = -utility.du(XT) / utility.d2u(XT)

    p = tree.leaf_prob
    complete = space.dim + 1 == tree.n_leaves
    if complete:  # one kernel pass replicates and returns the node values
        vals, _, _ = space.plan.solve(p, payoff, None)
        z, resid = float(vals[0]), vals[tree.leaves] - payoff
    else:
        sw = np.sqrt(p)
        design = np.column_stack([np.ones(tree.n_leaves), space.W])
        sol, *_ = np.linalg.lstsq(design * sw[:, None], payoff * sw, rcond=None)
        z, resid = float(sol[0]), design @ sol - payoff
    certificate = float(np.sqrt(p @ resid**2))
    scale = float(np.sqrt(p @ payoff**2))
    if certificate > _REPLICATION_TOL * max(1.0, scale):
        return RiskToleranceProcess(exists=False, certificate=certificate, payoff=payoff)

    if not complete:
        vals = space.plan.process(sol[1:], z)
    if np.any(vals <= 0.0):
        raise InvariantViolationError("replicating process of a positive payoff went nonpositive")
    return RiskToleranceProcess(exists=True, certificate=certificate, payoff=payoff,
                                initial=z, process=AdaptedProcess(tree, vals))


def risk_tolerance_measure(rt: RiskToleranceProcess, optimum: Optimum) -> np.ndarray:
    """Leaf weights of the measure with density (R_T/R_0)·(Y_T/y)."""
    if not rt.exists:
        raise ContractViolationError("the reweighted measure needs a replicable payoff")
    tree = optimum.primal.model.tree
    YT = optimum.dual.terminal
    w = tree.leaf_prob * (rt.process.terminal / rt.initial) * (YT / optimum.y)
    if abs(w.sum() - 1.0) > 1e-9:
        raise InvariantViolationError(f"reweighted measure sums to {w.sum()!r}")
    return w


@dataclass(frozen=True)
class GKWDecomposition:
    P0: float
    P: AdaptedProcess                   # conditional-expectation martingale
    M_component: AdaptedProcess         # hedgeable component (enters with minus sign)
    N_component: AdaptedProcess         # orthogonal component (enters with minus sign)
    orthogonality_defect: float
    weights: np.ndarray = field(repr=False, default=None)


def gkw_decompose(rt: RiskToleranceProcess, optimum: Optimum) -> GKWDecomposition:
    """Two-component orthogonal split P = P0 - M - N of the conditional
    expectation of x·F·(A-1), hedgeable part projected node by node under
    the reweighted measure; only the hedgeable span is built."""
    if not rt.exists:
        raise ContractViolationError("decomposition needs the replicating process")
    m, utility, x = optimum.primal.model, optimum.primal.utility, optimum.x
    tree = m.tree
    wts = risk_tolerance_measure(rt, optimum)

    F = perturbation_statistics(m).F
    A_leaf = utility.rra(optimum.primal.terminal)
    target = x * F * (A_leaf - 1.0)
    P = tree.conditional_expectation(wts, target)

    Sdisc = m.asset_prices().values * (rt.initial / rt.process.values)[:, None]
    basis = orthogonal_spans(tree, Sdisc, wts, complement=False)

    Mv, Nv, defect = _hedge_split(basis, P)
    return GKWDecomposition(P0=float(P[0]), P=AdaptedProcess(tree, P),
                            M_component=AdaptedProcess(tree, Mv),
                            N_component=AdaptedProcess(tree, Nv),
                            orthogonality_defect=defect, weights=wts)


def _hedge_split(basis: MartingaleBasis, P: np.ndarray):
    """Node values of M and N with P = P0 - M - N, and their orthogonality
    defect: at each node M takes the projection of P's increments onto the
    hedgeable span in the conditional inner product, N the rest.  For P a
    martingale under the basis weights, under which the blocks are
    compensated, the kernel's fit of P_T from P_0 is P_0 plus exactly these
    node-by-node projections."""
    tree = basis.tree
    fitted, _, _ = basis.primal_plan.solve(basis.weights, P[tree.leaves], P[0])
    fit, dP = AdaptedProcess(tree, fitted).increments(), AdaptedProcess(tree, P).increments()
    cross = tree.sibling_sum(basis.child_weights * fit * (dP - fit))[tree.internal_nodes]
    return P[0] - fitted, fitted - P, float(np.max(np.abs(cross), initial=0.0))


@dataclass(frozen=True)
class GKWHessianTerms:
    a_ee: float
    b_ee: float
    a_xe: float
    b_ye: float
    C_a: float
    C_b: float


def hessian_from_gkw(dec: GKWDecomposition, rt: RiskToleranceProcess,
                     expansion: ExpansionReport) -> GKWHessianTerms:
    """Second-order coefficients from the decomposition; must match the
    least-squares engine whenever the replicating process exists."""
    optimum = expansion.optimum
    m, utility, x, y = optimum.primal.model, optimum.primal.utility, optimum.x, optimum.y
    stats = perturbation_statistics(m)
    F, G = stats.F, stats.G
    A_leaf = utility.rra(optimum.primal.terminal)
    r = optimum.r_weights
    C_a = x * x * float(r @ (F * F - G - F * F / A_leaf))
    C_b = y * y * float(r @ (G + F * F * (1.0 - A_leaf)))

    wts = dec.weights
    ratio = rt.initial / x
    NT = dec.N_component.terminal
    MT = dec.M_component.terminal
    a_ee = ratio * dec.P0**2 + ratio * float(wts @ NT**2) + C_a
    b_ee = ratio * (y / x) ** 2 * (dec.P0**2 + float(wts @ MT**2)) + C_b
    a_xe = dec.P0
    b_ye = y * dec.P0 / (x * expansion.a_xx)
    return GKWHessianTerms(a_ee=a_ee, b_ee=b_ee, a_xe=a_xe, b_ye=b_ye, C_a=C_a, C_b=C_b)


def recovery_residual(dec: GKWDecomposition, rep: ExpansionReport,
                      rt: RiskToleranceProcess) -> np.ndarray:
    """Per node, the larger deviation of the two decomposition components
    from the engine's auxiliary optimizers mapped through the change of unit
    and measure."""
    opt = rep.optimum
    Xv = opt.primal.wealth.values
    m1 = rep.basis.primal_plan.process(rep.M1.coeffs)
    n1 = rep.basis.dual_plan.process(rep.N1.coeffs)
    lhs_m = dec.M_component.values
    rhs_m = (Xv / rt.process.values) * m1
    lhs_n = dec.N_component.values
    rhs_n = (rep.x / rep.y) * n1
    return np.maximum(np.abs(lhs_m - rhs_m), np.abs(lhs_n - rhs_n))
