"""Second-order sensitivity machinery around the unperturbed optimum.

Everything here lives under the pricing measure with leaf density
(optimal wealth × optimal deflator)/(x·y).  The hedgeable martingale space
is spanned, node by node, by the one-step increments of the prices
discounted by the optimal wealth; its product-orthogonal complement is the
per-node orthocomplement inside the zero-conditional-mean space.  The six
auxiliary quadratic problems are weighted least squares over those spans,
solved by the tree-elimination kernel on the plans each `MartingaleBasis`
builds once (`Phi` and `Psi` are views built on access, read by no solve);
gradients and Hessians of the value functions are assembled from their
values; the optimizer terminal derivatives come from the auxiliary
optimizers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolationError
from .market import MarketModel, perturbation_statistics
from .preferences import Utility
from .solver import Optimum, solve_pair
from .tree import BlockPlan, EventTree, payoff_matrix, process_from_coefficients

_ORTH_TOL = 1e-12


# ---------------------------------------------------------------------------
# martingale bases
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NodeVectors:
    node: int
    vectors: np.ndarray          # (n_children, dim) increments over the children


@dataclass(frozen=True)
class MartingaleBasis:
    """Per-node spans of the hedgeable space and its complement under the
    pricing measure, each with the plan the elimination kernel runs on."""

    tree: EventTree
    weights: np.ndarray = field(repr=False)          # pricing-measure leaf weights
    child_weights: dict = field(repr=False)          # node -> conditional child probs
    primal_nodes: list = field(repr=False)           # list[NodeVectors]
    dual_nodes: list = field(repr=False)
    primal_slices: dict = field(repr=False)
    dual_slices: dict = field(repr=False)
    primal_plan: BlockPlan = field(init=False, repr=False, compare=False)
    dual_plan: BlockPlan = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "primal_plan", BlockPlan(self.tree, self.blocks("primal")))
        object.__setattr__(self, "dual_plan", BlockPlan(self.tree, self.blocks("dual")))

    @property
    def primal_dim(self):
        return self.primal_plan.n_cols

    @property
    def dual_dim(self):
        return self.dual_plan.n_cols

    @property
    def Phi(self) -> np.ndarray:
        """(n_leaves, primal_dim) payoff matrix, built on each access."""
        return payoff_matrix(self.tree, self.blocks("primal"), self.primal_dim)

    @property
    def Psi(self) -> np.ndarray:
        """(n_leaves, dual_dim) payoff matrix, built on each access."""
        return payoff_matrix(self.tree, self.blocks("dual"), self.dual_dim)

    def blocks(self, side: str) -> list:
        """(node, first column, vectors) of one side's spans."""
        if side == "primal":
            return _blocks(self.primal_nodes, self.primal_slices)
        return _blocks(self.dual_nodes, self.dual_slices)

    def expand_process(self, side: str, coeffs: np.ndarray) -> np.ndarray:
        """Node values of the martingale with the given basis coefficients."""
        return process_from_coefficients(self.tree, self.blocks(side), coeffs)


def _blocks(nodes, slices):
    return [(nv.node, slices[nv.node].start, nv.vectors) for nv in nodes]


def orthogonal_spans(tree: EventTree, Sdisc: np.ndarray, r: np.ndarray) -> MartingaleBasis:
    """Per-node spans of the one-step increments of the discounted prices
    `Sdisc` and their orthocomplement inside the zero-conditional-mean space,
    all under the leaf measure `r`."""
    mass = tree.node_mass(r)
    child_w, primal_at, dual_at = {}, {}, {}
    for k, (nodes, ch) in tree.branch_groups.items():
        w = mass[ch] / mass[nodes, None]
        inc = Sdisc[ch] - Sdisc[nodes, None]
        # compensate any residual conditional mean, then orthonormalize in
        # the conditional inner product
        inc = inc - (w[:, None, :] @ inc)
        sw = np.sqrt(w)
        u_, s, _ = np.linalg.svd(inc * sw[:, :, None], full_matrices=False)
        ranks = np.sum(s > _ORTH_TOL * np.maximum(s[:, :1], 1e-300), axis=1)
        for rank in np.unique(ranks).tolist():
            sel = ranks == rank
            at, u_r, sw_r = nodes[sel].tolist(), u_[sel, :, :rank], sw[sel]
            # complement of span{sqrt(w) P-cols} within {v: sw·v = 0}
            u2, _, _ = np.linalg.svd(np.concatenate([sw_r[:, :, None], u_r], axis=2),
                                     full_matrices=True)
            P = u_r / sw_r[:, :, None]
            Dv = u2[:, :, rank + 1:] / sw_r[:, :, None]
            if rank + Dv.shape[2] != k - 1:
                raise ContractViolationError(
                    f"span dimensions at node {at[0]} do not fill the one-step space"
                )
            primal_at.update(zip(at, P))
            dual_at.update(zip(at, Dv))
        child_w.update(zip(nodes.tolist(), w))

    primal_nodes, dual_nodes = [], []
    primal_slices, dual_slices = {}, {}
    pcol = dcol = 0
    for node in tree.internal_nodes.tolist():
        P, Dv = primal_at[node], dual_at[node]
        if P.shape[1]:
            primal_nodes.append(NodeVectors(node, P))
            primal_slices[node] = slice(pcol, pcol + P.shape[1])
            pcol += P.shape[1]
        if Dv.shape[1]:
            dual_nodes.append(NodeVectors(node, Dv))
            dual_slices[node] = slice(dcol, dcol + Dv.shape[1])
            dcol += Dv.shape[1]
    return MartingaleBasis(tree=tree, weights=r, child_weights=dict(sorted(child_w.items())),
                           primal_nodes=primal_nodes, dual_nodes=dual_nodes,
                           primal_slices=primal_slices, dual_slices=dual_slices)


def build_bases(m: MarketModel, utility: Utility, x: float, *,
                optimum: Optimum = None) -> MartingaleBasis:
    """Span the hedgeable martingales (integrals of wealth-discounted
    prices) and their product-orthogonal complement, node by node."""
    if optimum is None:
        optimum = solve_pair(m, utility, x, 0.0)
    r = optimum.r_weights
    if r is None:
        raise ContractViolationError("bases require the eps=0 optimum")
    Xv = optimum.primal.wealth.values
    Sdisc = m.asset_prices().values * (x / Xv)[:, None]
    return orthogonal_spans(m.tree, Sdisc, r)


# ---------------------------------------------------------------------------
# auxiliary quadratic problems
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AuxSolution:
    value: float
    terminal: np.ndarray                 # optimizer M_T (or N_T) per leaf
    coeffs: np.ndarray = field(repr=False)
    rank_deficient: bool = False


def solve_aux_primal(basis: MartingaleBasis, x: float, F, G, A_leaf):
    """The two quadratic problems over the hedgeable span and the mixed
    second-order coefficient evaluated at their optimizers."""
    r = basis.weights
    plan = basis.primal_plan
    leaves = basis.tree.leaves
    A_leaf = np.asarray(A_leaf, dtype=float)
    F = np.asarray(F, dtype=float)
    G = np.asarray(G, dtype=float)
    w = r * A_leaf

    m0, b0, d0 = plan.solve(w, -np.ones_like(F), 0.0)
    M0 = m0[leaves]
    a_xx = float(w @ (1.0 + M0) ** 2)

    # stationarity of E[A(M+xF)^2 - 2xF M]: Phi' (rA) Phi b = x Phi' r (1-A) F
    rhs = x * (r * (1.0 - A_leaf) * F)
    m1, beta1, d1 = plan.solve(w, rhs / np.maximum(w, 1e-300), 0.0)
    M1 = m1[leaves]
    a_ee = float(w @ (M1 + x * F) ** 2 - 2.0 * x * (r * F) @ M1
                 - x * x * r @ (F * F + G))

    a_xe = float(r @ (-x * F * (1.0 + M0)
                      + A_leaf * (x * F + M1) * (1.0 + M0)))
    return (AuxSolution(a_xx, M0, b0, d0), AuxSolution(a_ee, M1, beta1, d1), a_xe)


def solve_aux_dual(basis: MartingaleBasis, y: float, F, G, B_leaf):
    """Mirror problems over the complement span with risk-tolerance weights."""
    r = basis.weights
    plan = basis.dual_plan
    leaves = basis.tree.leaves
    B_leaf = np.asarray(B_leaf, dtype=float)
    F = np.asarray(F, dtype=float)
    G = np.asarray(G, dtype=float)
    w = r * B_leaf

    n0, b0, d0 = plan.solve(w, -np.ones_like(F), 0.0)
    N0 = n0[leaves]
    b_yy = float(w @ (1.0 + N0) ** 2)

    # stationarity of E[B(N-yF)^2 + 2yF N]: Psi' (rB) Psi b = y Psi' r (B-1) F
    rhs = y * (r * (B_leaf - 1.0) * F)
    n1, beta1, d1 = plan.solve(w, rhs / np.maximum(w, 1e-300), 0.0)
    N1 = n1[leaves]
    b_ee = float(w @ (N1 - y * F) ** 2 + 2.0 * y * (r * F) @ N1
                 - y * y * r @ (F * F - G))

    b_ye = float(r @ (y * F * (1.0 + N0)
                      + B_leaf * (-y * F + N1) * (1.0 + N0)))
    return (AuxSolution(b_yy, N0, b0, d0), AuxSolution(b_ee, N1, beta1, d1), b_ye)


# ---------------------------------------------------------------------------
# assembled expansions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExpansionReport:
    x: float
    y: float
    gradient_u: np.ndarray
    gradient_v: np.ndarray
    hessian_u: np.ndarray
    hessian_v: np.ndarray
    a_xx: float
    a_ee: float
    a_xe: float
    b_yy: float
    b_ee: float
    b_ye: float
    X_x: np.ndarray            # leafwise derivative payoffs
    X_eps: np.ndarray
    Y_y: np.ndarray
    Y_eps: np.ndarray
    M0: AuxSolution = field(repr=False, default=None)
    M1: AuxSolution = field(repr=False, default=None)
    N0: AuxSolution = field(repr=False, default=None)
    N1: AuxSolution = field(repr=False, default=None)
    basis: MartingaleBasis = field(repr=False, default=None)
    optimum: Optimum = field(repr=False, default=None)
    F: np.ndarray = field(repr=False, default=None)
    G: np.ndarray = field(repr=False, default=None)


def gradient(m: MarketModel, utility: Utility, x: float, *, optimum: Optimum = None):
    """First-order expansion coefficients of both value functions at the
    unperturbed optimum: (y, xy·E[F]) and (-x, xy·E[F]) under the pricing
    measure."""
    if optimum is None:
        optimum = solve_pair(m, utility, x, 0.0)
    F = perturbation_statistics(m).F
    y = optimum.y
    ueps = x * y * float(optimum.r_weights @ F)
    return np.array([y, ueps]), np.array([-x, ueps])


def hessians(a_xx, a_ee, a_xe, b_yy, b_ee, b_ye, x, y):
    H_u = -(y / x) * np.array([[a_xx, a_xe], [a_xe, a_ee]])
    H_v = (x / y) * np.array([[b_yy, b_ye], [b_ye, b_ee]])
    return H_u, H_v


def optimizer_derivatives(optimum: Optimum, M0, M1, N0, N1, F):
    """Leafwise first-order derivative payoffs of the terminal optimizers."""
    x, y = optimum.x, optimum.y
    XT = optimum.primal.terminal
    YT = optimum.dual.terminal
    X_x = XT / x * (1.0 + M0.terminal)
    X_eps = XT / x * (x * F + M1.terminal)
    Y_y = YT / y * (1.0 + N0.terminal)
    Y_eps = -YT / y * (y * F - N1.terminal)
    return X_x, X_eps, Y_y, Y_eps


def expansion_report(m: MarketModel, utility: Utility, x: float, *,
                     optimum: Optimum = None) -> ExpansionReport:
    """Full second-order expansion of both value functions at (x, 0)."""
    if optimum is None:
        optimum = solve_pair(m, utility, x, 0.0)
    basis = build_bases(m, utility, x, optimum=optimum)
    stats = perturbation_statistics(m)
    F, G = stats.F, stats.G
    A_leaf = utility.rra(optimum.primal.terminal)
    B_leaf = utility.rrt(optimum.dual.terminal)
    y = optimum.y

    M0, M1, a_xe = solve_aux_primal(basis, x, F, G, A_leaf)
    N0, N1, b_ye = solve_aux_dual(basis, y, F, G, B_leaf)
    grad_u, grad_v = gradient(m, utility, x, optimum=optimum)
    H_u, H_v = hessians(M0.value, M1.value, a_xe, N0.value, N1.value, b_ye, x, y)
    X_x, X_eps, Y_y, Y_eps = optimizer_derivatives(optimum, M0, M1, N0, N1, F)
    return ExpansionReport(x=x, y=y, gradient_u=grad_u, gradient_v=grad_v,
                           hessian_u=H_u, hessian_v=H_v,
                           a_xx=M0.value, a_ee=M1.value, a_xe=a_xe,
                           b_yy=N0.value, b_ee=N1.value, b_ye=b_ye,
                           X_x=X_x, X_eps=X_eps, Y_y=Y_y, Y_eps=Y_eps,
                           M0=M0, M1=M1, N0=N0, N1=N1,
                           basis=basis, optimum=optimum, F=F, G=G)


# ---------------------------------------------------------------------------
# consistency checks between the two sides
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AuxRelationReport:
    value_identities: np.ndarray       # residuals of the three scalar identities
    primal_optimizer: float            # max leafwise residual, first display
    dual_optimizer: float              # max leafwise residual, second display
    product_martingale: float          # worst defect over the nine products
    max_residual: float


def aux_relation_report(rep: ExpansionReport) -> AuxRelationReport:
    """Cross-checks tying the primal and dual auxiliary solutions together;
    used as a test surface only, never to shortcut a computation."""
    x, y = rep.x, rep.y
    F = rep.F
    opt = rep.optimum
    A_leaf = opt.primal.utility.rra(opt.primal.terminal)
    B_leaf = opt.primal.utility.rrt(opt.dual.terminal)

    vals = np.array([
        rep.a_xx * rep.b_yy - 1.0,
        rep.a_xe * rep.b_yy - (x / y) * rep.b_ye,
        (y / x) * rep.a_ee + (x / y) * rep.b_ee - rep.a_xe * rep.b_ye,
    ])

    M0, M1 = rep.M0.terminal, rep.M1.terminal
    N0, N1 = rep.N0.terminal, rep.N1.terminal
    row1 = rep.a_xx * (N0 + 1.0) - A_leaf * (M0 + 1.0)
    row2 = rep.a_xe * (N0 + 1.0) - (x / y) * (N1 - y * F) - A_leaf * (M1 + x * F)
    primal_resid = max(np.max(np.abs(row1)), np.max(np.abs(row2)))
    row1d = rep.b_yy * (1.0 + M0) - B_leaf * (1.0 + N0)
    row2d = rep.b_ye * (1.0 + M0) - (y / x) * (x * F + M1) - B_leaf * (-y * F + N1)
    dual_resid = max(np.max(np.abs(row1d)), np.max(np.abs(row2d)))

    tree = rep.basis.tree
    p = tree.leaf_prob
    Xv = opt.primal.wealth.values
    Yv = opt.dual.deflator.values
    m0 = rep.basis.expand_process("primal", rep.M0.coeffs)
    m1 = rep.basis.expand_process("primal", rep.M1.coeffs)
    n0 = rep.basis.expand_process("dual", rep.N0.coeffs)
    n1 = rep.basis.expand_process("dual", rep.N1.coeffs)
    worst = 0.0
    for left in (Xv * m0, Xv * m1, Xv):
        for right in (Yv * n0, Yv * n1, Yv):
            prod = left * right
            scale = max(1.0, np.max(np.abs(prod)))
            worst = max(worst, tree.martingale_defect(prod, p) / scale)

    return AuxRelationReport(
        value_identities=vals,
        primal_optimizer=primal_resid,
        dual_optimizer=dual_resid,
        product_martingale=worst,
        max_residual=max(np.max(np.abs(vals)), primal_resid, dual_resid, worst),
    )
