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
by the risk-tolerance replication on incomplete trees.  Every tree,
complete or not, solves this way; the wealth x + W·alpha meets the budget
by construction.  Without a usable start, a log or power solve begins at
its optimum, whose product form one pass up the plan finds
(`_homothetic_start`), and Newton certifies it; a mixture starts from the
riskless wealth.

Newton advances many problems on one plan at once, as the columns of the
kernel's batch axis: each has its own wealth, perturbation and start, and
keeps its own step lengths and stop, so each column's numbers are those of
its solve alone.  One path (`_solve_points`) runs every solve: `solve_values`
returns the values and marginals of many points, as the campaigns'
re-solves need, and `solve_primal` is its one-point case plus the
first-order residual and the strategy.  A point's node wealth must stay
strictly positive, and its increments must lie in the span of the one-step
returns, which the fit of its proportions checks once, in the base unit.
Self-financing wealth does not depend on the unit of account (Geman, El
Karoui and Rochet, J. Appl. Probab. 32 (1995)): in the perturbed unit each
row of the fit, design and target, is the base row divided by N_c/N_n =
1 + eps·(jump of the perturbation), which lies in (1/2, 3/2) as |eps| < eps0.
Scaling rows keeps the exact solutions, so the minimum-norm proportions are
the same, and moves the residual by a bounded factor only.

The dual optimizer is built from the primal one: its terminal value is the
marginal utility of the optimal wealth, and the product with the optimal
wealth is a martingale by construction.  On a finite tree the first-order
conditions are two-sided, so the constructed deflator is itself a
martingale; `verify_deflator` checks the supermartingale inequalities
directly.

No-arbitrage is checked node by node before the space is built: for one
stock by the signs of the moves, for d >= 2 stocks by a barrier Newton
stacked over each branch group (`_barrier_certified`), whose weights
certify a strictly positive pricing vector, and only the nodes it cannot
certify go to a per-node LP.  SciPy is imported on first use, through
`linprog` (that LP) and `brentq` (which no package code calls), the
package's only two entry points into it.  Importing `scipy.optimize` costs
several times what the rest of the package does, and no step of
`verify_all` on an arbitrage-free market whose every node certifies needs it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AdmissibilityError,
    ContractViolationError,
    InvariantViolationError,
    NoOptimizerError,
    NumericalError,
)
from .market import MarketModel, numeraire, perturbed_prices
from .preferences import Utility
from .tree import AdaptedProcess, BlockPlan, EventTree, PredictableProcess, rank_stacks

_ARB_TOL = 1e-11
_ROUNDOFF = 1e-14         # constraint residual of a certified pricing vector
_BARRIER_STEPS = 30       # barrier Newton steps a d >= 2 node gets to certify
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
    """`scipy.optimize.brentq`.  No package code calls it; it stays because
    the benchmark traces it as its `solver.root_find` and `harness.root_find`
    layers (`perfbench/tracing.py`, checked by `tests/test_perfbench_names.py`)."""
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
        risk-tolerance replication on an incomplete tree reads it."""
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
    if res.status == 2:
        # no signed q either: 0 lies outside the affine hull of the moves, so
        # some portfolio gains the same positive amount on every move
        return True
    if res.status != 0:
        raise NumericalError(f"arbitrage-check LP failed: {res.message}")
    return res.x[k] <= _ARB_TOL


def _pricing_constraints(D):
    """(A, rhs) of the constraints D'q = 0, sum q = 1 on an (n, k, d) stack."""
    n, k, d = D.shape
    A = np.concatenate([D.transpose(0, 2, 1), np.ones((n, 1, k))], axis=1)
    rhs = np.zeros((d + 1, 1))
    rhs[d] = 1.0
    return A, rhs


def _certifies(D, q):
    """True where the weights q, projected exactly onto
    {D'q = 0, sum q = 1}, keep a floor above `_ARB_TOL` and meet the
    constraints to roundoff: a feasible point of the LP's floor
    maximization that the LP passes."""
    A, rhs = _pricing_constraints(D)
    q = q - (np.linalg.pinv(A) @ (A @ q[:, :, None] - rhs))[:, :, 0]
    resid = np.max(np.abs(A @ q[:, :, None] - rhs), axis=(1, 2))
    return (q.min(axis=1) > _ARB_TOL) & (resid <= _ROUNDOFF)


def _barrier_certified(D: np.ndarray) -> np.ndarray:
    """For an (n, k, d) stack of one-step moves, True where a node provably
    has no arbitrage; False leaves the node to the LP.

    A node has no arbitrage iff a strictly positive pricing vector q with
    D'q = 0, sum q = 1 exists (Dalang–Morton–Willinger).  Newton steps on the
    log-barrier -sum log q over that set run on the whole stack from uniform
    weights, which need not meet the constraints (an infeasible start): each
    step keeps the weights strictly positive and, once it is a full one,
    meets the constraints.  After each step a node whose weights certify
    (`_certifies`) leaves the loop; where the node has an arbitrage the set
    has no interior and the weights never certify."""
    n, k, _ = D.shape
    scale = np.max(np.abs(D), axis=(1, 2))
    D = D / np.where(scale > 0.0, scale, 1.0)[:, None, None]   # as the LP scales
    A, rhs = _pricing_constraints(D)
    certified = np.zeros(n, dtype=bool)
    live = np.arange(n)
    q = np.full((n, k), 1.0 / k)
    with np.errstate(all="ignore"):
        for _ in range(_BARRIER_STEPS):
            AQ = A * q[:, None, :]
            # the KKT system of the step: Q^-2 dq + A'w = 1/q, A dq = rhs - Aq
            w = np.linalg.pinv(AQ @ AQ.mT, hermitian=True) @ (2.0 * (A @ q[:, :, None]) - rhs)
            dq = q - q * q * (A.mT @ w)[:, :, 0]
            room = np.where(dq < 0.0, q / -dq, np.inf).min(axis=1)
            q = q + np.minimum(1.0, 0.99 * room)[:, None] * dq
            done = _certifies(D, q)
            certified[live[done]] = True
            live, D, A, q = live[~done], D[~done], A[~done], q[~done]
            if not live.size:
                break
    return certified


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
        # the stacked certificate clears the nodes it can; the LP decides the
        # rest, in node order
        doubt = np.zeros(tree.n_nodes, dtype=bool)
        for nodes, ch in tree.branch_groups.values():
            doubt[nodes] = ~_barrier_certified(dR[ch][:, :, 1:])
        first = next((node for node in np.flatnonzero(doubt)
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
    # proportions (bank first) generating zwealth from the base returns and
    # wealth from the perturbed price returns: one fit serves both units
    strategy: PredictableProcess
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


def _foc_residual(plan, reach, leaf_grad, scale):
    """Per row, W.T @ leaf_grad and its largest entry conditional on
    reaching the entry's node (`reach`, per plan column), relative to
    `scale`: entries at low-probability nodes must not hide one-step
    defects."""
    grad = plan.gradient(leaf_grad.T).T
    return grad, np.max(np.abs(grad) / reach, axis=1, initial=0.0) / np.maximum(scale, 1e-300)


def _homothetic_start(plan, N, x, p):
    """The exact optimum under U(z) = z^p/p (log z for p = 0) of B problems
    on one plan, as rows of coefficients: problem i has initial wealth x[i]
    and node numeraire N[i].  The value at node n is (Z/N_n)^p/p·K_n (Mossin
    1968, Samuelson 1969), so each node picks the fractions a of its wealth
    that maximize sum_c w_c·(1 + V_c·a)^p/p (or sum_c w_c·log(1 + V_c·a))
    over its children c, with w_c = q_c·K_c·(N_c/N_n)^(-p), K = 1 at the
    leaves and K_n = sum_c w_c·(1 + V_c·a)^p: a damped Newton per (level,
    rank) group up from the leaves, then alpha_n = Z_n·a_n from the root."""
    q = np.append(plan.tree.prob, 0.0)        # the padding child weighs nothing
    N = np.concatenate([N, np.ones((len(x), 1))], axis=1)
    logK, fractions = np.zeros_like(N), []    # log K stays finite on deep trees
    # arrays run (row, child or column, node): each sum over children or
    # columns adds whole rows of nodes, as a row alone adds them
    for nodes, children, cols, V in reversed(plan.groups):
        kids, V = children.T, V.transpose(2, 1, 0)
        e = np.where(q[kids] > 0.0, logK[:, kids] - p * np.log(N[:, kids] / N[:, None, nodes]),
                     -math.inf)
        top = e.max(axis=1)
        w = q[kids] * np.exp(e - top[:, None])
        a, s = np.zeros((len(x), len(V), len(nodes))), np.ones_like(w)
        live = np.full(top.shape, len(V) > 0)
        sides = np.stack([V[0] > 0.0, V[0] < 0.0]) * np.abs(V[0]) if len(V) == 1 else None
        for _ in range(_NEWTON_MAX_ITER):
            if not live.any():
                break
            h = w * s ** (p - 2.0)
            if len(V) == 1:
                # Newton on P^e - M^e for e = 1/(p - 1), where P and M sum
                # w_c·|v_c|·s_c^(p-1) over the children that gain and lose
                # with a: each is linear in a where one child dominates it
                PM, dPM = ((sides * y[:, None]).sum(axis=2) for y in (h * s, h * np.abs(V[0])))
                PMe = PM ** (1.0 / (p - 1.0))
                d = ((PMe[:, 1] - PMe[:, 0]) / (dPM * PMe / PM).sum(axis=1))[:, None]
            else:
                # Newton on the objective: (1 - p)·sum_c h_c·V_c·V_c'·d = sum_c h_c·s_c·V_c
                hV = h[:, None] * V
                H = (hV[:, :, None] * V).sum(axis=3).transpose(0, 3, 1, 2)
                g = (hV * s[:, None]).sum(axis=2).transpose(0, 2, 1)
                d = np.linalg.solve(H, g[..., None])[..., 0].transpose(0, 2, 1) / (1.0 - p)
            # a fraction of the way to the boundary keeps every 1 + V_c·a > 0
            fall = (-(V * d[:, :, None]).sum(axis=1) / s).max(axis=1)
            d *= np.where(live, 0.995 / np.maximum(0.995, fall), 0.0)[:, None]
            a += d
            s = 1.0 + (V * a[:, :, None]).sum(axis=1)
            # quadratic convergence: the step after one of 1e-9 is rounding
            live &= np.abs(d).max(axis=1) > 1e-9
        logK[:, nodes] = top + np.log((w * s**p).sum(axis=1))
        fractions.append((a, s))
    alpha, Z = np.empty((len(x), plan.n_cols)), np.empty_like(N)
    Z[:, 0] = x
    for (nodes, children, cols, _V), (a, s) in zip(plan.groups, reversed(fractions)):
        alpha[:, cols.T], Z[:, children.T] = Z[:, None, nodes] * a, Z[:, None, nodes] * s
    return alpha


def _newton_terminal(plan, N, x, utility, start):
    """Newton for B problems on one plan at once, as rows: problem i has
    initial wealth x[i] and node numeraire N[i], and starts from
    Z = x[i] + W·start[i] when that wealth is strictly positive ("given").
    Other rows (all when start is None) start at the `_homothetic_start`
    optimum under log or power utility ("homothetic"), else at alpha = 0
    ("riskless").

    Each row takes the steps, step lengths and stop it takes alone: the
    kernel solves every row still running in one batched call, and a row
    that has stopped leaves the batch.  Returns (leaf wealths Z,
    coefficients alpha, Newton steps, errors, starts); errors[i] is the
    NumericalError that stopped row i, or None, and starts[i] row i's start."""
    leaves, p = plan.tree.leaves, plan.tree.leaf_prob
    reach = plan.tree.path_prob[plan.col_node]
    B = len(x)
    Nl = N.take(leaves, axis=1)
    alpha = np.zeros((B, plan.n_cols))
    Z = np.repeat(x[:, None], len(leaves), axis=1)
    starts = np.full(B, "riskless", dtype=object)
    if not B:   # the kernel takes no empty batch
        return Z, alpha, np.zeros(0, dtype=np.int64), [], starts

    def begin(rows, coeffs, name):
        Zs = plan.process(coeffs.T, x[rows]).T.take(leaves, axis=1)
        ok = np.all(Zs > 0.0, axis=1)
        alpha[rows[ok]], Z[rows[ok]], starts[rows[ok]] = coeffs[ok], Zs[ok], name

    if start is not None:
        begin(np.arange(B), start, "given")
    cold = np.flatnonzero(starts == "riskless")
    if cold.size and len(utility.components) == 1:
        begin(cold, _homothetic_start(plan, N[cold], x[cold], utility.components[0][1]),
              "homothetic")
    out_Z, out_alpha = Z.copy(), alpha.copy()
    steps = np.full(B, _NEWTON_MAX_ITER)
    errors = [None] * B

    def objective(Zr, Nr):
        return np.vecdot(utility.u(Zr / Nr), p)

    # the running rows: their index among the B, and their state
    rows, tail = np.arange(B), np.zeros(B, dtype=np.int64)
    f = objective(Z, Nl)
    for it in range(_NEWTON_MAX_ITER):
        xi = Z / Nl
        du = utility.du(xi)
        leaf_grad = p * du / Nl
        scale = np.vecdot(du / Nl, p)
        grad, rel = _foc_residual(plan, reach, leaf_grad, scale)
        # the residual in the wealth's own direction, |grad·alpha|/(x·y), is
        # |sum of the pricing weights - 1|, which `pricing_measure` bounds
        stop = np.zeros(len(rows), dtype=bool)
        if min(rel.tolist()) <= _NEWTON_TOL:
            stop = (rel <= _NEWTON_TOL) & (np.abs(np.vecdot(grad, alpha)) <= _NEWTON_TOL * x * scale)
        if stop.any():
            out_Z[rows[stop]], out_alpha[rows[stop]], steps[rows[stop]] = Z[stop], alpha[stop], it
            go = ~stop
            rows, tail, Z, alpha, Nl, x, f, xi, leaf_grad, grad, rel = (
                a[go] for a in (rows, tail, Z, alpha, Nl, x, f, xi, leaf_grad, grad, rel))
            if not rows.size:
                break
        curv = p * (-utility.d2u(xi)) / Nl**2
        # the Newton system W'·diag(curv)·W step = grad is the weighted least
        # squares fit of the leaf payoffs to leaf_grad / curv
        moves, step, _ = plan.solve(curv.T, (leaf_grad / curv).T, 0.0)
        step = step.T
        Wd = moves.T.take(leaves, axis=1)
        bound = np.divide(-Z, Wd, out=np.full_like(Z, math.inf), where=Wd < 0.0)
        t = np.minimum(1.0, 0.995 * bound.min(axis=1))
        slope = np.vecdot(grad, step).tolist()
        Zn = Z + t[:, None] * Wd
        positive = np.all(Zn > 0.0, axis=1).tolist()
        fn = np.full(len(rows), math.nan)
        # each row's step follows the scalar rules of a problem solved alone;
        # the objectives a round needs are evaluated together
        fs, accept, search, done = f.tolist(), [], [], []
        for i, (fi, si) in enumerate(zip(fs, slope)):
            if si > 4e-16 * max(1.0, abs(fi)):
                search.append(i)
            # the objective can no longer certify progress; the row finishes
            # with a few plain positivity-capped Newton steps (quadratic tail)
            elif positive[i] and tail[i] < 3:
                accept.append(i)
                tail[i] += 1
            else:
                done.append(i)
        if accept:
            fn[accept] = objective(Zn[accept], Nl[accept])
        # the others halve their step until the objective rises enough
        for _ in range(80):
            trial = [i for i in search if positive[i]]
            if trial:
                fn[trial] = (objective(Zn, Nl) if len(trial) == len(rows)
                             else objective(Zn[trial], Nl[trial]))
                ts, fns = t.tolist(), fn.tolist()
                rose = {i for i in trial
                        if fns[i] >= fs[i] + 1e-4 * ts[i] * slope[i]
                        or (ts[i] <= 1e-8 and fns[i] >= fs[i] - 1e-15 * max(1.0, abs(fs[i])))}
                accept += sorted(rose)
                search = [i for i in search if i not in rose]
            if not search:
                break
            t[search] *= 0.5
            Zn[search] = Z[search] + t[search, None] * Wd[search]
            for i, ok in zip(search, np.all(Zn[search] > 0.0, axis=1).tolist()):
                positive[i] = ok
        for i in search:
            if rel[i] > 1e-9:   # else at the optimum up to rounding
                errors[rows[i]] = NumericalError(
                    f"line search failed at iteration {it} (residual {rel[i]:.3e})")
        if len(accept) == len(rows):
            alpha += t[:, None] * step
            Z, f = Zn, fn
        elif accept:
            alpha[accept] += t[accept, None] * step[accept]
            Z[accept], f[accept] = Zn[accept], fn[accept]
        done += search
        if done:
            out_Z[rows[done]], out_alpha[rows[done]], steps[rows[done]] = Z[done], alpha[done], it + 1
            go = np.ones(len(rows), dtype=bool)
            go[done] = False
            rows, tail, Z, alpha, Nl, x, f, rel = (
                a[go] for a in (rows, tail, Z, alpha, Nl, x, f, rel))
            if not rows.size:
                break
    else:
        out_Z[rows], out_alpha[rows] = Z, alpha
        for i in np.flatnonzero(rel > 1e-9).tolist():
            errors[rows[i]] = NumericalError(
                f"Newton did not converge: relative residual {rel[i]:.3e}")
    return out_Z, out_alpha, steps, errors, starts


@dataclass(frozen=True)
class PointValues:
    """u(x_i, eps_i), u_x(x_i, eps_i) and Newton's step count at each point
    of a `solve_values` call.  A point whose solve failed holds NaN, and
    errors[i] is the error its `solve_primal` raises (None otherwise)."""

    value: np.ndarray
    marginal: np.ndarray
    newton_iters: np.ndarray
    errors: tuple

    def checked(self) -> np.ndarray:
        """The values; raises the error of the first point that failed."""
        for err in self.errors:
            if err is not None:
                raise err
        return self.value


def _solve_points(m: MarketModel, utility: Utility, x, eps, start):
    """The one solve path of `solve_primal` and `solve_values`: Newton at
    the points (x[i], eps[i]) from column i of the (n_cols, B) coefficients
    `start`, then each point's invariants in order: strictly positive node
    wealth, then wealth increments the base-unit fit of the proportions
    meets to 1e-8.  Returns the points' `PointValues` and, with a row per
    point that passed (None if none did), (numeraires, leaf wealths in the
    perturbed unit, coefficients, Newton starts, node wealths in the base
    unit, stock proportions)."""
    x = np.asarray(x, dtype=float).reshape(-1)
    eps = np.asarray(eps, dtype=float).reshape(-1)
    if np.any(x <= 0.0):
        raise ContractViolationError("initial wealth must be positive")
    tree, plan = m.tree, m.space.plan
    B = len(x)
    if len(eps) != B:
        raise ContractViolationError(f"{B} initial wealths but {len(eps)} perturbations")
    if start is not None:
        start = np.asarray(start, dtype=float)
        if start.shape != (plan.n_cols, B):
            raise ContractViolationError(
                f"start must hold {plan.n_cols} coefficients per point, as an array of "
                f"shape ({plan.n_cols}, {B}); got shape {start.shape}")
    errors = [None] * B
    N = np.ones((B, tree.n_nodes))
    for i, e in enumerate(eps.tolist()):
        try:
            N[i] = numeraire(m, e).values
        except AdmissibilityError as err:
            errors[i] = err
    rows = np.flatnonzero([err is None for err in errors])
    value, marginal = np.full(B, math.nan), np.full(B, math.nan)
    iters = np.zeros(B, dtype=np.int64)
    Z, alpha, iters[rows], newton_errors, starts = _newton_terminal(
        plan, N[rows], x[rows], utility, None if start is None else start.T[rows])
    for i, err in zip(rows.tolist(), newton_errors):
        errors[i] = err
    ok = np.array([err is None for err in newton_errors], dtype=bool)
    rows, Z, alpha, starts = rows[ok], Z[ok], alpha[ok], starts[ok]
    if not rows.size:
        return PointValues(value, marginal, iters, tuple(errors)), None
    Z_nodes = plan.process(alpha.T, x[rows]).T

    nonpositive = np.any(Z_nodes <= 0.0, axis=1)
    sol, resid = _fit_proportions(tree, Z_nodes, m.returns.increments())
    off_span = resid > 1e-8
    good = ~nonpositive & ~off_span.any(axis=1)
    for i in np.flatnonzero(~good).tolist():
        errors[rows[i]] = InvariantViolationError(
            "optimal wealth failed strict positivity" if nonpositive[i] else
            f"wealth increments leave the traded span at node {np.flatnonzero(off_span[i])[0]}")
    # value and marginal from Newton's leaf wealths, as its stop judged them
    N = N[rows[good]]
    Nl = N.take(tree.leaves, axis=1)
    xi = Z[good] / Nl
    value[rows[good]] = np.vecdot(utility.u(xi), tree.leaf_prob)
    marginal[rows[good]] = np.vecdot(utility.du(xi) / Nl, tree.leaf_prob)
    return (PointValues(value, marginal, iters, tuple(errors)),
            (N, xi, alpha[good], starts[good], Z_nodes[good], sol[good]))


def solve_primal(m: MarketModel, utility: Utility, x: float, eps: float = 0.0,
                 start: np.ndarray = None) -> PrimalSolution:
    """Exact maximizer of expected terminal utility at initial wealth x in
    the eps-perturbed market, on the attainable space the model shares
    across its solves (`MarketModel.space`).  Newton starts from the
    coefficients `start` on that space's plan when they give a strictly
    positive wealth, and from the cold start of `_newton_terminal`
    otherwise (named in `diagnostics["newton_start"]`); its stop does not
    depend on the start.  This is the one-point case of `solve_values`,
    plus the first-order residual and the strategy."""
    points, solved = _solve_points(
        m, utility, [float(x)], [float(eps)],
        None if start is None else np.asarray(start, dtype=float)[..., None])
    points.checked()
    N, xi, alpha, newton_start, Z, stock = (a[0] for a in solved)
    tree, space = m.tree, m.space
    p, Nl = tree.leaf_prob, N[tree.leaves]
    y = float(points.marginal[0])
    _, foc = _foc_residual(space.plan, tree.path_prob[space.plan.col_node],
                           (p * utility.du(xi) / Nl)[None], np.array([y]))
    # terminal wealth spread drives the conditioning of every identity built
    # on this solve; extreme ratios cap attainable double-precision accuracy
    diag = {"newton_dim": space.dim, "newton_iters": int(points.newton_iters[0]),
            "newton_start": str(newton_start), "wealth_ratio": float(np.max(xi) / np.min(xi)),
            "redundant_nodes": list(space.redundant_nodes)}
    return PrimalSolution(model=m, utility=utility, x=float(x), eps=float(eps),
                          value=float(points.value[0]), marginal=y,
                          wealth=AdaptedProcess(tree, Z / N), zwealth=AdaptedProcess(tree, Z),
                          strategy=PredictableProcess.from_steps(
                              tree, np.column_stack([1.0 - stock.sum(axis=1), stock])),
                          foc_residual=float(foc[0]), coeffs=alpha, diagnostics=diag)


def solve_values(m: MarketModel, utility: Utility, x, eps, start=None) -> PointValues:
    """The values and marginals of `solve_primal` at the points
    (x[i], eps[i]), from one pass of its solve path over all of them,
    without the strategies: column i of the (n_cols, B) coefficients
    `start` starts point i as `solve_primal`'s start does, each point
    keeps its invariants, and a point's values equal its `solve_primal`
    values bit for bit."""
    return _solve_points(m, utility, x, eps, start)[0]


def _fit_proportions(tree, Wv, dRet):
    """The minimum-norm fit of the one-step growth of node wealths Wv by the
    return increments dRet (bank first), per node and per leading row of
    Wv (..., n_nodes) and dRet (..., n_nodes, d + 1): (stock proportions,
    residuals), as `fit_steps` returns them."""
    growth = np.zeros_like(Wv)
    growth[..., 1:] = Wv[..., 1:] / Wv[..., tree.parent[1:]] - 1.0 - dRet[..., 1:, 0]
    return fit_steps(tree, dRet[..., 1:] - dRet[..., :1], growth)


def fit_steps(tree: EventTree, D: np.ndarray, target: np.ndarray):
    """Per node n, the minimum-norm least-squares x_n of D[c] @ x_n =
    target[c] over n's children c (row c of D and target belongs to the
    step into c), and its largest residual relative to max(1, largest
    |target[c]|), which each caller judges against its own tolerance.
    Leading axes of D (..., n_nodes, d) and target (..., n_nodes) hold
    independent fits, each computed as it is alone."""
    batch = np.broadcast_shapes(D.shape[:-2], target.shape[:-1])
    sol = np.zeros(batch + (tree.n_nodes, D.shape[-1]))
    resid = np.zeros(batch + (tree.n_nodes,))
    for nodes, ch in tree.branch_groups.values():
        A, b = np.take(D, ch, axis=-2), np.take(target, ch, axis=-1)
        if A.shape[-1] == 1:
            # one column: its pseudo-inverse is its transpose over its
            # square length, and a column of zeros fits nothing
            a = A[..., 0]
            length = (a * a).sum(axis=-1)
            x = ((a * b).sum(axis=-1) / np.where(length > 0.0, length, 1.0))[..., None]
        else:
            x = (np.linalg.pinv(A) @ b[..., None])[..., 0]
        sol[..., nodes, :] = x
        miss = np.max(np.abs((A @ x[..., None])[..., 0] - b), axis=-1)
        resid[..., nodes] = miss / np.maximum(1.0, np.max(np.abs(b), axis=-1))
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
