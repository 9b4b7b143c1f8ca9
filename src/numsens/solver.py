"""Exact primal/dual solves on the tree.

The perturbed admissible set is the unperturbed one deflated by the
perturbed unit of account, so every solve reduces to maximizing
E[U((x + terminal-trading-payoff)/N_T)] over the linear space of trading
payoffs.  That space is parametrized by one coefficient per (node,
independent one-step direction), in which the objective is smooth and
strictly concave: damped Newton converges to machine precision.  Each Newton
step is the weighted least-squares fit that the tree-elimination kernel
(`tree.BlockPlan`, built once per attainable space, which each market model
builds once: `MarketModel.space`) solves in time linear in the node count,
and the gradient behind the first-order residual comes from subtree totals;
the payoff matrix `AttainableSpace.W` is a view built on access, read only
by the risk-tolerance replication.  Every tree, complete or not, solves this
way; the wealth x + W·alpha meets the budget by construction.

The dual optimizer is built from the primal one: its terminal value is the
marginal utility of the optimal wealth, and the product with the optimal
wealth is a martingale by construction.  On a finite tree the first-order
conditions are two-sided, so the constructed deflator is itself a
martingale; `verify_deflator` checks the supermartingale inequalities
directly.

SciPy is imported on first use, through `linprog` (the one-step arbitrage
LP for d >= 2 stocks) and `brentq` (the campaigns' dual root-find), the
package's only two entry points into it.  Importing `scipy.optimize` costs
several times what the rest of the package does, and a solve on a
single-stock tree, its expansion and its risk-tolerance report never
need it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ContractViolationError,
    InvariantViolationError,
    NoOptimizerError,
    NumericalError,
)
from .market import MarketModel, numeraire, perturbed_prices
from .preferences import Utility
from .tree import AdaptedProcess, BlockPlan, EventTree, PredictableProcess, rank_stacks

_ARB_TOL = 1e-11
_NEWTON_TOL = 1e-13       # relative first-order residual that ends Newton
_NEWTON_MAX_ITER = 200


# ---------------------------------------------------------------------------
# SciPy, imported on first use
# ---------------------------------------------------------------------------


def linprog(*args, **kwargs):
    """`scipy.optimize.linprog`; only the d >= 2 arbitrage check calls it."""
    from scipy.optimize import linprog as _linprog
    return _linprog(*args, **kwargs)


def brentq(*args, **kwargs):
    """`scipy.optimize.brentq`; only the campaigns' dual root-find calls it."""
    from scipy.optimize import brentq as _brentq
    return _brentq(*args, **kwargs)


# ---------------------------------------------------------------------------
# attainable payoffs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AttainableSpace:
    """Basis of terminal payoffs attainable by self-financing trading from 0.
    A model keeps its space for life, so the blocks live only stacked in the
    plan: per-node objects kept alive make the garbage collector run more
    often."""

    tree: EventTree
    plan: BlockPlan = field(repr=False, compare=False)
    redundant_nodes: tuple                 # nodes whose one-step returns were collinear

    @property
    def dim(self) -> int:
        return self.plan.n_cols

    @property
    def W(self) -> np.ndarray:
        """(n_leaves, dim) payoff matrix, built on each access; only the
        risk-tolerance replication reads it."""
        return self.plan.payoff_matrix()


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
    stacks, redundant = [], []
    for nodes, ch in tree.branch_groups.values():
        D = dR[ch][:, :, 1:]
        for sel, U in rank_stacks(D):
            stacks.append((nodes[sel], U))
            if U.shape[2] < min(D.shape[1:]):
                redundant.extend(nodes[sel].tolist())
    return AttainableSpace(tree=tree, plan=BlockPlan(tree, stacks),
                           redundant_nodes=tuple(sorted(redundant)))


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
    # Newton's coefficients on `model.space.plan`: zwealth = x + W·coeffs
    coeffs: np.ndarray = field(repr=False)
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


def _newton_terminal(space, tree, p, N, x, utility, start):
    """(leaf wealth Z, coefficients alpha, Newton steps) of the optimum,
    starting from Z = x + W·start when that wealth is strictly positive and
    from alpha = 0 otherwise."""
    Nl = N.values[tree.leaves]
    alpha = np.zeros(space.dim)
    Z = np.full(tree.n_leaves, float(x))
    if start is not None:
        Zs = space.plan.process(start, float(x))[tree.leaves]
        if np.all(Zs > 0.0):
            alpha, Z = np.array(start, dtype=float), Zs

    def objective(Zv):
        return float(p @ utility.u(Zv / Nl))

    f = objective(Z)
    rel = math.inf
    tail = steps = 0
    for it in range(_NEWTON_MAX_ITER):
        xi = Z / Nl
        du = utility.du(xi)
        leaf_grad = p * du / Nl
        scale = float(p @ (du / Nl))
        grad, rel = _foc_residual(space, leaf_grad, scale)
        # the residual in the wealth's own direction, |grad·alpha|/(x·y), is
        # |sum of the pricing weights - 1|, which `pricing_measure` bounds
        if rel <= _NEWTON_TOL and abs(float(grad @ alpha)) <= _NEWTON_TOL * x * scale:
            break
        curv = p * (-utility.d2u(xi)) / Nl**2
        # the Newton system W'·diag(curv)·W step = grad is the weighted least
        # squares fit of the leaf payoffs to leaf_grad / curv
        moves, step, _ = space.plan.solve(curv, leaf_grad / curv, 0.0)
        steps += 1
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
    return Z, alpha, steps


def solve_primal(m: MarketModel, utility: Utility, x: float, eps: float = 0.0,
                 start: np.ndarray = None) -> PrimalSolution:
    """Exact maximizer of expected terminal utility at initial wealth x in
    the eps-perturbed market, on the attainable space the model shares
    across its solves (`MarketModel.space`).  Newton starts from the
    coefficients `start` on that space's plan when they give a strictly
    positive wealth, and from alpha = 0 otherwise; its stop does not depend
    on the start."""
    if x <= 0.0:
        raise ContractViolationError("initial wealth must be positive")
    tree = m.tree
    N = numeraire(m, eps)
    space = m.space
    p = tree.leaf_prob
    Nl = N.values[tree.leaves]

    Z_leaf, alpha, steps = _newton_terminal(space, tree, p, N, x, utility, start)
    Z_nodes = space.plan.process(alpha, float(x))

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
    if eps == 0.0:
        strat = strat_base
    else:
        prices = AdaptedProcess(tree, m.asset_prices().values / N.values[:, None])
        strat = _proportions_from_wealth(tree, wealth, _returns_of_prices(tree, prices))
    # terminal wealth spread drives the conditioning of every identity built
    # on this solve; extreme ratios cap attainable double-precision accuracy
    diag = {"newton_dim": space.dim, "newton_iters": steps,
            "wealth_ratio": float(np.max(xi) / np.min(xi)),
            "redundant_nodes": list(space.redundant_nodes)}
    return PrimalSolution(model=m, utility=utility, x=float(x), eps=float(eps),
                          value=value, marginal=y, wealth=wealth, zwealth=zwealth,
                          strategy=strat, strategy_base=strat_base,
                          foc_residual=foc, coeffs=alpha, diagnostics=diag)


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
    growth = np.zeros(tree.n_nodes)
    growth[1:] = Wv[1:] / Wv[tree.parent[1:]] - 1.0 - dRet[1:, 0]
    sol, resid = fit_steps(tree, dRet[:, 1:] - dRet[:, :1], growth)
    off_span = np.flatnonzero(resid > 1e-8)
    if off_span.size:
        raise InvariantViolationError(
            f"wealth increments leave the traded span at node {off_span[0]}"
        )
    return PredictableProcess.from_steps(tree, np.column_stack([1.0 - sol.sum(axis=1), sol]))


def fit_steps(tree: EventTree, D: np.ndarray, target: np.ndarray):
    """Per node n, the minimum-norm least-squares x_n of D[c] @ x_n =
    target[c] over n's children c (row c of D and target belongs to the
    step into c), and its largest residual relative to max(1, largest
    |target[c]|), which each caller judges against its own tolerance."""
    sol = np.zeros((tree.n_nodes, D.shape[1]))
    resid = np.zeros(tree.n_nodes)
    for nodes, ch in tree.branch_groups.values():
        A, b = D[ch], target[ch]
        if A.shape[2] == 1:
            # one column: its pseudo-inverse is its transpose over its
            # square length, and a column of zeros fits nothing
            a = A[:, :, 0]
            length = (a * a).sum(axis=1)
            x = ((a * b).sum(axis=1) / np.where(length > 0.0, length, 1.0))[:, None]
        else:
            x = (np.linalg.pinv(A) @ b[:, :, None])[:, :, 0]
        sol[nodes] = x
        miss = np.max(np.abs((A @ x[:, :, None])[:, :, 0] - b), axis=1)
        resid[nodes] = miss / np.maximum(1.0, np.max(np.abs(b), axis=1))
    return sol, resid


def solve_dual(primal: PrimalSolution) -> DualSolution:
    """Dual optimizer at y = u_x(x, eps), built from the primal solution."""
    utility = primal.utility
    tree = primal.model.tree
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


def solve_pair(m: MarketModel, utility: Utility, x: float, eps: float = 0.0) -> Optimum:
    primal = solve_primal(m, utility, x, eps)
    dual = solve_dual(primal)
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
    perturbed asset price; returns the largest (relative) violation and
    the first node where it occurs."""
    if np.any(Y.values < 0.0):
        raise ContractViolationError("a deflator must be nonnegative")
    tree = m.tree
    S = perturbed_prices(m, eps).values
    Yv = Y.values
    deflated = np.column_stack([Yv, Yv[:, None] * S])
    nodes = tree.internal_nodes
    expected = tree.sibling_sum(tree.prob[:, None] * deflated)[nodes]
    now = deflated[nodes]
    excess = np.max((expected - now) / np.maximum(1.0, np.abs(now)), axis=1, initial=0.0)
    worst = float(np.max(excess, initial=0.0))
    return DeflatorReport(max_violation=worst,
                          worst_node=int(nodes[np.argmax(excess)]) if worst > 0.0 else -1,
                          checks=now.size)
