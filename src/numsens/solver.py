"""Exact primal/dual solves on the tree.

The perturbed admissible set is the unperturbed one deflated by the
perturbed unit of account, so every solve reduces to maximizing
E[U((x + terminal-trading-payoff)/N_T)] over the linear space of trading
payoffs.  That space is parametrized by one coefficient per (node,
independent one-step direction), in which the objective is smooth and
strictly concave: damped Newton converges to machine precision.  Each Newton
step is the weighted least-squares fit that the tree-elimination kernel
(`tree.BlockPlan`, built once per attainable space) solves in time linear in
the node count, and the gradient behind the first-order residual comes from
subtree totals; the payoff matrix `AttainableSpace.W` is a view built on
access, read only by the risk-tolerance replication.  Complete trees (every
one-step market spans its child space) instead use the unique one-step
pricing weights and a one-dimensional budget root-find.

The dual optimizer is built from the primal one: its terminal value is the
marginal utility of the optimal wealth, and the product with the optimal
wealth is a martingale by construction.  On a finite tree the first-order
conditions are two-sided, so the constructed deflator is itself a
martingale; `verify_deflator` checks the supermartingale inequalities
directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq, linprog

from .errors import (
    AdmissibilityError,
    ContractViolationError,
    InvariantViolationError,
    NoOptimizerError,
    NumericalError,
)
from .market import MarketModel, numeraire, perturbed_prices
from .preferences import Utility
from .tree import (
    AdaptedProcess,
    BlockPlan,
    EventTree,
    PredictableProcess,
    payoff_matrix,
    process_from_coefficients,
)

_RANK_TOL = 1e-12
_ARB_TOL = 1e-11


# ---------------------------------------------------------------------------
# attainable payoffs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NodeSpan:
    node: int
    directions: np.ndarray        # (n_children, rank) orthonormal one-step payoffs
    rank: int
    redundant: bool               # one-step returns were collinear


@dataclass(frozen=True)
class AttainableSpace:
    """Basis of terminal payoffs attainable by self-financing trading from 0."""

    tree: EventTree
    spans: dict = field(repr=False)        # node -> NodeSpan
    complete: bool
    blocks: list = field(repr=False)       # (node, first column, directions), rank > 0
    plan: BlockPlan = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "plan", BlockPlan(self.tree, self.blocks))

    @property
    def dim(self) -> int:
        return self.plan.n_cols

    @property
    def W(self) -> np.ndarray:
        """(n_leaves, dim) payoff matrix, built on each access; only the
        risk-tolerance replication reads it."""
        return payoff_matrix(self.tree, self.blocks, self.dim)


def _one_step_arbitrage(D: np.ndarray) -> bool:
    """True iff some portfolio of d >= 2 stocks has nonnegative, nonzero
    one-step payoff."""
    k, d = D.shape
    scale = np.max(np.abs(D))
    if scale == 0.0:
        return False
    # no arbitrage iff a strictly positive pricing vector q exists: max the
    # floor of q subject to D'q = 0, sum q = 1
    A_eq = np.zeros((d + 1, k + 1))
    A_eq[:d, :k] = (D / scale).T
    A_eq[d, :k] = 1.0
    b_eq = np.zeros(d + 1)
    b_eq[d] = 1.0
    A_ub = np.zeros((k, k + 1))
    A_ub[:, :k] = -np.eye(k)
    A_ub[:, k] = 1.0
    c = np.zeros(k + 1)
    c[k] = -1.0
    res = linprog(c, A_ub=A_ub, b_ub=np.zeros(k), A_eq=A_eq, b_eq=b_eq,
                  bounds=[(None, None)] * (k + 1), method="highs")
    if res.status != 0:
        raise NumericalError(f"arbitrage-check LP failed: {res.message}")
    return res.x[k] <= _ARB_TOL


def attainable_space(m: MarketModel) -> AttainableSpace:
    tree = m.tree
    dR = m.returns.increments()
    if m.d == 1:
        # a single stock has an arbitrage exactly where its moves do not
        # take both signs (and are not all zero)
        arb = np.zeros(tree.n_nodes, dtype=bool)
        for nodes, ch in tree.branch_groups.values():
            v = dR[ch, 1]
            arb[nodes] = (np.max(np.abs(v), axis=1) > 0.0) & ~(
                (v.max(axis=1) > 0.0) & (v.min(axis=1) < 0.0))
        first = next(iter(np.flatnonzero(arb)), None)
    else:
        first = next((node for node in tree.internal_nodes
                      if _one_step_arbitrage(dR[tree.children[node]][:, 1:])), None)
    if first is not None:
        raise NoOptimizerError(
            f"one-step arbitrage at node {first}: no optimizer exists (NUPBR fails)"
        )
    spans = {}
    for nodes, ch in tree.branch_groups.values():
        D = dR[ch][:, :, 1:]
        u_, s, _ = np.linalg.svd(D, full_matrices=False)
        ranks = np.sum(s > _RANK_TOL * np.maximum(s[:, :1], 1e-300), axis=1)
        for node, u_node, rank in zip(nodes.tolist(), u_, ranks.tolist()):
            spans[node] = NodeSpan(node=node, directions=u_node[:, :rank].copy(),
                                   rank=rank, redundant=rank < min(D.shape[1:]))
    spans = dict(sorted(spans.items()))
    blocks, col = [], 0
    for node, sp in spans.items():
        if sp.rank:
            blocks.append((node, col, sp.directions))
        col += sp.rank
    complete = all(sp.rank == len(tree.children[node]) - 1 for node, sp in spans.items())
    return AttainableSpace(tree=tree, spans=spans, complete=complete, blocks=blocks)


# ---------------------------------------------------------------------------
# solutions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PrimalSolution:
    model: MarketModel
    utility: Utility
    x: float
    eps: float
    value: float                       # u(x, eps)
    marginal: float                    # y = u_x(x, eps)
    wealth: AdaptedProcess             # optimal wealth under the perturbed unit
    zwealth: AdaptedProcess            # the same wealth in unperturbed units
    strategy: PredictableProcess       # proportions (bank first) in the perturbed market
    strategy_base: PredictableProcess  # proportions generating zwealth from the base returns
    foc_residual: float
    diagnostics: dict = field(repr=False, default_factory=dict)

    @property
    def terminal(self) -> np.ndarray:
        return self.wealth.terminal


@dataclass(frozen=True)
class DualSolution:
    y: float
    value: float                       # v(y, eps)
    deflator: AdaptedProcess           # optimal supermartingale deflator
    conjugacy_residual: float

    @property
    def terminal(self) -> np.ndarray:
        return self.deflator.terminal


@dataclass(frozen=True)
class Optimum:
    """Primal/dual pair at one (x, eps), plus the second-order pricing
    weights when eps = 0."""

    primal: PrimalSolution
    dual: DualSolution
    r_weights: np.ndarray = None

    @property
    def x(self):
        return self.primal.x

    @property
    def y(self):
        return self.primal.marginal


def _complete_tree_terminal(space, tree, p, N, x, utility):
    """Unique pricing weights + budget root-find; returns leaf wealth Z."""
    if not space.complete:
        raise InvariantViolationError("complete-tree path invoked on an incomplete tree")
    q_child = np.ones(tree.n_nodes)
    for k, (nodes, ch) in tree.branch_groups.items():
        if k == 1:
            continue
        V = np.stack([space.spans[node].directions for node in nodes.tolist()])
        u_full, _, _ = np.linalg.svd(V, full_matrices=True)
        q = u_full[:, :, k - 1]
        q = q / q.sum(axis=1, keepdims=True)
        if np.any(q <= 0.0):
            raise InvariantViolationError("pricing weights not positive on a no-arbitrage node")
        q_child[ch] = q

    Q = tree.cumulate(q_child, 1.0, np.multiply)
    Ql = Q[tree.leaves]
    Nl = N.values[tree.leaves]

    def budget(lam_log):
        lam = math.exp(lam_log)
        Z = Nl * utility.inverse_marginal(lam * Ql * Nl / p)
        return float(Ql @ Z) - x

    lo = hi = math.log(float(utility.du(x)))
    for _ in range(200):
        if budget(lo) > 0.0:
            break
        lo -= 2.0
    for _ in range(200):
        if budget(hi) < 0.0:
            break
        hi += 2.0
    lam_log = brentq(budget, lo, hi, xtol=1e-15, rtol=8.9e-16, maxiter=300)
    lam = math.exp(lam_log)
    # polish with Newton on the budget in lambda
    for _ in range(4):
        Z = Nl * utility.inverse_marginal(lam * Ql * Nl / p)
        g = float(Ql @ Z) - x
        xi = Z / Nl
        dZ = Nl * (Ql * Nl / p) / utility.d2u(xi)
        slope = float(Ql @ dZ)
        if slope == 0.0:
            break
        lam = lam - g / slope
    Z = Nl * utility.inverse_marginal(lam * Ql * Nl / p)
    return Z, Q


def _foc_residual(space, leaf_grad, scale):
    """W.T @ leaf_grad and its largest entry conditional on reaching the
    entry's node, relative to `scale`: entries at low-probability nodes must
    not hide one-step defects."""
    if not space.dim:
        return np.zeros(0), 0.0
    plan = space.plan
    grad = plan.gradient(leaf_grad)
    reach = space.tree.path_prob[plan.col_node]
    return grad, float(np.max(np.abs(grad) / reach)) / max(scale, 1e-300)


def _newton_terminal(space, tree, p, N, x, utility, tol, max_iter):
    Nl = N.values[tree.leaves]
    alpha = np.zeros(space.dim)
    Z = np.full(tree.n_leaves, float(x))

    def objective(Zv):
        return float(p @ utility.u(Zv / Nl))

    f = objective(Z)
    rel = math.inf
    tail = 0
    for it in range(max_iter):
        xi = Z / Nl
        du = utility.du(xi)
        leaf_grad = p * du / Nl
        grad, rel = _foc_residual(space, leaf_grad, float(p @ (du / Nl)))
        if rel <= tol:
            break
        curv = p * (-utility.d2u(xi)) / Nl**2
        # the Newton system W'·diag(curv)·W step = grad is the weighted least
        # squares fit of the leaf payoffs to leaf_grad / curv
        moves, step, _ = space.plan.solve(curv, leaf_grad / curv, 0.0)
        Wd = moves[tree.leaves]
        neg = Wd < 0.0
        t = 1.0
        if np.any(neg):
            t = min(1.0, 0.995 * float(np.min(-Z[neg] / Wd[neg])))
        slope = float(grad @ step)
        if slope <= 4e-16 * max(1.0, abs(f)):
            # the objective can no longer certify progress; finish with a few
            # plain positivity-capped Newton steps (quadratic tail)
            Zn = Z + t * Wd
            if np.all(Zn > 0.0) and tail < 3:
                alpha = alpha + t * step
                Z = Zn
                f = objective(Zn)
                tail += 1
                continue
            break
        improved = False
        for _ in range(80):
            Zn = Z + t * Wd
            if np.all(Zn > 0.0):
                fn = objective(Zn)
                if fn >= f + 1e-4 * t * slope:
                    improved = True
                    break
                if t <= 1e-8 and fn >= f - 1e-15 * max(1.0, abs(f)):
                    improved = True
                    break
            t *= 0.5
        if not improved:
            if rel <= 1e-9:
                break  # at the optimum up to rounding
            raise NumericalError(
                f"line search failed at iteration {it} (residual {rel:.3e})"
            )
        alpha = alpha + t * step
        Z, f = Zn, fn
    else:
        if rel > 1e-9:
            raise NumericalError(f"Newton did not converge: relative residual {rel:.3e}")
    return Z, alpha


def solve_primal(m: MarketModel, utility: Utility, x: float, eps: float = 0.0,
                 *, space: AttainableSpace = None, numeraire_process: AdaptedProcess = None,
                 tol: float = 1e-13, max_iter: int = 200) -> PrimalSolution:
    """Exact maximizer of expected terminal utility at initial wealth x in
    the eps-perturbed market.

    `space` is the attainable space of `m`.  It depends only on the tree and
    the base returns, not on x, eps or the utility, so one
    `attainable_space(m)` may be reused for every solve on `m`; it is built
    when not supplied."""
    if x <= 0.0:
        raise ContractViolationError("initial wealth must be positive")
    tree = m.tree
    N = numeraire_process if numeraire_process is not None else numeraire(m, eps)
    if np.any(N.values <= 0.0):
        raise AdmissibilityError("supplied unit of account is not strictly positive")
    if space is None:
        space = attainable_space(m)
    p = tree.leaf_prob
    Nl = N.values[tree.leaves]

    complete = space.complete
    if complete:
        Z_leaf, Q = _complete_tree_terminal(space, tree, p, N, x, utility)
        Z_nodes = tree.conditional_expectation(Q[tree.leaves], Z_leaf)
        alpha = None
    else:
        Z_leaf, alpha = _newton_terminal(space, tree, p, N, x, utility, tol, max_iter)
        Z_nodes = process_from_coefficients(tree, space.blocks, alpha, float(x))

    if np.any(Z_nodes <= 0.0):
        raise InvariantViolationError("optimal wealth failed strict positivity")

    xi = Z_leaf / Nl
    du = utility.du(xi)
    value = float(p @ utility.u(xi))
    y = float(p @ (du / Nl))
    _, foc = _foc_residual(space, p * du / Nl, y)

    zwealth = AdaptedProcess(tree, Z_nodes)
    wealth = AdaptedProcess(tree, Z_nodes / N.values)
    strat_base = _proportions_from_wealth(tree, zwealth, m.returns)
    if eps == 0.0 and numeraire_process is None:
        strat = strat_base
    else:
        prices = AdaptedProcess(tree, m.asset_prices().values / N.values[:, None])
        strat = _proportions_from_wealth(tree, wealth, _returns_of_prices(tree, prices))
    # terminal wealth spread drives the conditioning of every identity built
    # on this solve; extreme ratios cap attainable double-precision accuracy
    diag = {"complete": complete, "newton_dim": space.dim,
            "wealth_ratio": float(np.max(xi) / np.min(xi)),
            "redundant_nodes": sorted(n for n, sp in space.spans.items() if sp.redundant)}
    return PrimalSolution(model=m, utility=utility, x=float(x), eps=float(eps),
                          value=value, marginal=y, wealth=wealth, zwealth=zwealth,
                          strategy=strat, strategy_base=strat_base,
                          foc_residual=foc, diagnostics=diag)


def _returns_of_prices(tree, prices: AdaptedProcess) -> AdaptedProcess:
    """Cumulative simple returns of each price component (starting at 0)."""
    S = prices.values
    par = tree.parent[1:]
    inc = np.zeros_like(S)
    inc[1:] = (S[1:] - S[par]) / S[par]
    return AdaptedProcess(tree, tree.cumulate(inc, 0.0))


def _proportions_from_wealth(tree, wealth: AdaptedProcess, returns: AdaptedProcess
                             ) -> PredictableProcess:
    """Minimum-norm proportions pi (bank component balancing to sum 1) with
    d(wealth)/wealth_- = pi · d(returns) at every node."""
    dRet = returns.increments()
    Wv = wealth.values
    dim = returns.values.shape[1]
    steps = np.zeros((tree.n_nodes, dim))
    off_span = []
    for nodes, ch in tree.branch_groups.values():
        target = Wv[ch] / Wv[nodes, None] - 1.0 - dRet[ch, 0]
        D = dRet[ch, 1:] - dRet[ch, :1]
        if dim == 2:
            # one stock: the pseudo-inverse of a column is its transpose over
            # its square length, and a column of zeros takes no position
            d = D[:, :, 0]
            length = (d * d).sum(axis=1)
            sol = ((d * target).sum(axis=1) / np.where(length > 0.0, length, 1.0))[:, None]
        else:
            sol = (np.linalg.pinv(D) @ target[:, :, None])[:, :, 0]
        resid = (D @ sol[:, :, None])[:, :, 0] - target
        limit = 1e-8 * np.maximum(1.0, np.max(np.abs(target), axis=1))
        off_span.extend(nodes[np.max(np.abs(resid), axis=1) > limit].tolist())
        steps[nodes, 1:] = sol
        steps[nodes, 0] = 1.0 - sol.sum(axis=1)
    if off_span:
        raise InvariantViolationError(
            f"wealth increments leave the traded span at node {min(off_span)}"
        )
    return PredictableProcess.from_steps(tree, steps)


def solve_dual(m: MarketModel, utility: Utility, x: float, eps: float = 0.0,
               *, primal: PrimalSolution = None, **kw) -> DualSolution:
    """Dual optimizer at y = u_x(x, eps), built from the primal solution."""
    if primal is None:
        primal = solve_primal(m, utility, x, eps, **kw)
    tree = m.tree
    p = tree.leaf_prob
    xi = primal.terminal
    yT = utility.du(xi)
    y = primal.marginal
    v = float(p @ utility.v(yT))
    prod = tree.conditional_expectation(p, yT * xi)
    Y = prod / primal.wealth.values
    conj = abs(primal.value - (v + primal.x * y)) / max(1.0, abs(primal.value))
    return DualSolution(y=y, value=v, deflator=AdaptedProcess(tree, Y),
                        conjugacy_residual=conj)


def solve_pair(m: MarketModel, utility: Utility, x: float, eps: float = 0.0, **kw) -> Optimum:
    primal = solve_primal(m, utility, x, eps, **kw)
    dual = solve_dual(m, utility, x, eps, primal=primal)
    r = pricing_measure(primal, dual) if eps == 0.0 else None
    return Optimum(primal=primal, dual=dual, r_weights=r)


def pricing_measure(primal: PrimalSolution, dual: DualSolution) -> np.ndarray:
    """Leaf weights of the second-order pricing measure at eps = 0."""
    if primal.eps != 0.0:
        raise ContractViolationError("the pricing measure is defined at eps = 0")
    p = primal.model.tree.leaf_prob
    w = p * primal.terminal * dual.terminal / (primal.x * dual.y)
    if abs(w.sum() - 1.0) > 1e-12:
        raise InvariantViolationError(f"pricing weights sum to {w.sum()!r}")
    return w


@dataclass(frozen=True)
class DeflatorReport:
    max_violation: float
    worst_node: int
    checks: int


def verify_deflator(m: MarketModel, eps: float, Y: AdaptedProcess) -> DeflatorReport:
    """One-step supermartingale inequalities for Y and for Y times each
    perturbed asset price; returns the largest (relative) violation."""
    if np.any(Y.values < 0.0):
        raise ContractViolationError("a deflator must be nonnegative")
    tree = m.tree
    S = perturbed_prices(m, eps).values
    Yv = Y.values
    worst, worst_node = 0.0, -1
    checks = 0
    for node in tree.internal_nodes:
        ch = tree.children[node]
        w = tree.prob[ch]
        tests = [(float(w @ Yv[ch]), Yv[node])]
        for i in range(S.shape[1]):
            tests.append((float(w @ (Yv[ch] * S[ch, i])), Yv[node] * S[node, i]))
        for lhs, rhs in tests:
            checks += 1
            excess = (lhs - rhs) / max(1.0, abs(rhs))
            if excess > worst:
                worst, worst_node = excess, int(node)
    return DeflatorReport(max_violation=worst, worst_node=worst_node, checks=checks)
