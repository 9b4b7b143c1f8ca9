"""Construction of nearly optimal wealth processes and strategy corrections.

The base return process is described through its predictable
characteristics (drift under truncation, zero continuous part, one-step
jump compensator).  Hedgeable martingales are represented as integrals
against the wealth-discounted return process; truncation/localization
produces bounded versions whose integrands, scaled by the wealth and
perturbation offsets, generate wealth processes matching the value
function to second order.  The paper grows the truncation level like the
inverse perturbation radius; on a finite tree truncation returns M itself
from a closed-form saturation level n* on, so radius h takes level
max(n*, ceil(1/(2h))) and every saturated level shares one construction.

Each step is a stacked pass over the tree: the characteristics are sibling
sums, the representation is the per-node minimum-norm step fit the solver's
proportions use too (`solver.fit_steps`), and truncation freezes a process
below the first flagged node of each path with a running minimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import AdmissibilityError, ContractViolationError, RepresentationError
from .market import MarketModel
from .preferences import Utility
from .sensitivity import ExpansionReport
from .solver import Optimum, fit_steps, solve_values
from .tree import AdaptedProcess, PredictableProcess, stochastic_exponential, stochastic_integral

_REPR_TOL = 1e-10


# ---------------------------------------------------------------------------
# predictable characteristics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Characteristics:
    """Triplet of the return process under the truncation x·1{|x|<=1}.
    The continuous part vanishes identically on a tree."""

    B: AdaptedProcess                       # predictable finite-variation part
    C: AdaptedProcess                       # identically zero
    # node-indexed (probabilities, jumps (n_nodes, d+1)): the compensator
    # puts mass prob[n] on the jump into node n, given its parent
    jump_compensator: tuple = field(repr=False)


def _small_jump_drift(tree, prob, jumps) -> np.ndarray:
    """Per node, the conditional mean of the next jump truncated at norm 1,
    under the child probabilities `prob` (node-indexed)."""
    small = np.linalg.norm(jumps, axis=1) <= 1.0
    return tree.sibling_sum((prob * small)[:, None] * jumps)


def characteristics(m: MarketModel) -> Characteristics:
    tree = m.tree
    dR = m.returns.increments()
    drift = PredictableProcess.from_steps(tree, _small_jump_drift(tree, tree.prob, dR))
    return Characteristics(
        B=AdaptedProcess(tree, tree.cumulate(drift.values, 0.0)),
        C=AdaptedProcess(tree, np.zeros(tree.n_nodes)),
        jump_compensator=(tree.prob.copy(), dR.copy()),
    )


def reassemble_returns(m: MarketModel, ch: Characteristics) -> AdaptedProcess:
    """Sum the four canonical pieces back into a return process (the
    continuous part is zero; the compensated-small-jump term uses the
    stored compensator, so this exercises B and nu independently)."""
    tree = m.tree
    dR = m.returns.increments()
    compensator = PredictableProcess.from_steps(tree, _small_jump_drift(tree, *ch.jump_compensator))
    small = (np.linalg.norm(dR, axis=1) <= 1.0)[:, None]
    inc = (ch.B.increments() + (np.where(small, dR, 0.0) - compensator.values)
           + np.where(small, 0.0, dR))
    return AdaptedProcess(tree, tree.cumulate(inc, 0.0))


# ---------------------------------------------------------------------------
# discounted return directions and martingale representation
# ---------------------------------------------------------------------------


def discount_direction(m: MarketModel, pi: PredictableProcess) -> AdaptedProcess:
    """Return process of the traded assets under the unit of account
    generated by the proportions pi: each jump is shrunk by the portfolio's
    own one-step growth."""
    tree = m.tree
    dR = m.returns.increments()
    pv = pi.values
    port = np.einsum("nd,nd->n", pv, dR)
    if np.any(1.0 + port[1:] <= 0.0):
        raise AdmissibilityError("portfolio one-step growth hit zero; direction not admissible")
    factor = np.zeros(tree.n_nodes)
    factor[1:] = port[1:] / (1.0 + port[1:])
    return AdaptedProcess(tree, tree.cumulate(dR - factor[:, None] * dR, 0.0))


def perturbed_return_direction(m: MarketModel, eps: float) -> AdaptedProcess:
    """The return process the corrected proportions integrate against: the
    perturbation-discounted returns, tilted by the direction and scaled by
    1/(1-eps).  Its bank component is nonzero (the bank is risky under the
    perturbed unit)."""
    if eps == 1.0:
        raise ContractViolationError("the return map is singular at eps = 1")
    tree = m.tree
    reps = discount_direction(m, eps * m.theta)
    dre = reps.increments()
    tilt = np.einsum("nd,nd->n", m.theta.values, dre)
    inc = (dre - eps * tilt[:, None]) / (1.0 - eps)
    return AdaptedProcess(tree, tree.cumulate(inc, 0.0))


@dataclass(frozen=True)
class IntegrandRepresentation:
    gamma: PredictableProcess
    max_residual: float


def represent_martingale(M: AdaptedProcess, m: MarketModel,
                         pi_hat: PredictableProcess) -> IntegrandRepresentation:
    """Predictable integrand gamma with (gamma against the pi_hat-discounted
    returns) equal to M, fitted across siblings at every node; raises when
    an increment is not attainable.  The residual is relative to
    max(1, largest increment) at its node."""
    if M.values.ndim != 1 or M.values[0] != 0.0:
        raise ContractViolationError("representation target must be scalar and start at 0")
    tree = m.tree
    dRpi = discount_direction(m, pi_hat).increments()
    sol, resid = fit_steps(tree, dRpi[:, 1:], M.increments())
    off_span = np.flatnonzero(resid > _REPR_TOL)
    if off_span.size:
        node = off_span[0]
        raise RepresentationError(
            f"martingale increment at node {node} is not attainable "
            f"(residual {resid[node]:.3e})"
        )
    steps = np.column_stack([np.zeros(tree.n_nodes), sol])
    return IntegrandRepresentation(gamma=PredictableProcess.from_steps(tree, steps),
                                   max_residual=float(np.max(resid)))


# ---------------------------------------------------------------------------
# truncation / localization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TruncationResult:
    process: AdaptedProcess
    saturated: bool            # equal to the input everywhere
    value_stop_nodes: tuple    # nodes where the level stop froze the process
    qv_stop_nodes: tuple


def truncate_localize(M: AdaptedProcess, n: int) -> TruncationResult:
    """Bounded version of a martingale: stop before any one-step move could
    exceed level n (a stopping time, child values being a function of the
    current node), then stop when the running quadratic variation reaches n.
    The result is bounded by n with jumps at most 2n and quadratic variation
    at most n + 4n^2, and equals M from `saturation_level(M)` on."""
    if n < 1:
        raise ContractViolationError("truncation level must be a positive integer")
    tree = M.tree
    vals = M.values
    if vals.ndim != 1 or vals[0] != 0.0:
        raise ContractViolationError("truncation target must be scalar and start at 0")

    # stage 1: freeze from every node one of whose children would exceed n
    stage1, vstops = _freeze(tree, vals, tree.sibling_sum(np.abs(vals) > n) > 0.0)
    # stage 2: freeze from the first node where the running quadratic
    # variation reaches n
    qv = tree.cumulate(AdaptedProcess(tree, stage1).increments() ** 2, 0.0)
    out, qstops = _freeze(tree, stage1, qv >= n)
    return TruncationResult(process=AdaptedProcess(tree, out),
                            saturated=bool(np.array_equal(out, vals)),
                            value_stop_nodes=vstops, qv_stop_nodes=qstops)


def _freeze(tree, values, flag):
    """values held constant below the first node of each path where flag
    holds, and those first nodes in ascending order.  Node ids grow along
    every path, so the first flagged node is a running minimum."""
    ids = np.arange(tree.n_nodes)
    first = tree.cumulate(np.where(flag, ids, tree.n_nodes), 0 if flag[0] else tree.n_nodes,
                          np.minimum)
    first = np.minimum(first, ids).astype(np.int64)
    return values[first], tuple(np.flatnonzero(flag & (first == ids)).tolist())


def saturation_level(M: AdaptedProcess) -> int:
    """Smallest n* with `truncate_localize(M, n)` saturated for all n >= n*:
    no value stop once n >= max |M|, and no quadratic-variation stop above
    a nonzero jump once n exceeds the variation accrued before it.  The
    increments are differenced from the values, as truncation reads them."""
    tree = M.tree
    dM = AdaptedProcess(tree, M.values).increments()
    qv = tree.cumulate(dM ** 2, 0.0)
    before_jump = qv[tree.parent[1:][dM[1:] != 0.0]]
    return max(1, math.ceil(float(np.max(np.abs(M.values)))),
               math.floor(float(np.max(before_jump, initial=0.0))) + 1)


# ---------------------------------------------------------------------------
# strategy kit: the assembled pipeline
# ---------------------------------------------------------------------------


@dataclass
class StrategyKit:
    """The strategy construction around one solved base: the expansion,
    which carries the eps = 0 optimum and through it the model, the utility
    and the initial wealth."""

    expansion: ExpansionReport
    _level_cache: dict = field(default_factory=dict, repr=False)
    # exact values (or the errors of their solves) by (dx, eps); a campaign
    # passes its own
    _solve_cache: dict = field(default_factory=dict, repr=False)

    @property
    def optimum(self) -> Optimum:
        return self.expansion.optimum

    @property
    def model(self) -> MarketModel:
        return self.optimum.primal.model

    @property
    def utility(self) -> Utility:
        return self.optimum.primal.utility

    @property
    def x(self) -> float:
        return self.optimum.x

    @property
    def pi_hat(self) -> PredictableProcess:
        return self.optimum.primal.strategy

    @cached_property
    def _martingales(self) -> tuple:
        ex, tree = self.expansion, self.model.tree
        return tuple(AdaptedProcess(tree, ex.basis.primal_plan.process(M.coeffs))
                     for M in (ex.M0, ex.M1))

    @cached_property
    def saturation(self) -> int:
        """The level n* from which truncation leaves both M0 and M1 unchanged."""
        return max(saturation_level(M) for M in self._martingales)

    def level_data(self, n: int):
        """(gamma0, gamma1, truncation results) at level n, cached; every
        saturated level shares the entry of n*."""
        n = min(n, self.saturation)
        if n not in self._level_cache:
            t0, t1 = (truncate_localize(M, n) for M in self._martingales)
            g0, g1 = (represent_martingale(t.process / self.x, self.model, self.pi_hat).gamma
                      for t in (t0, t1))
            self._level_cache[n] = (g0, g1, t0, t1)
        return self._level_cache[n]

    def admissible_radius(self, n: int):
        """(explicit radius from the actual jump envelopes, conservative
        reference radius min(eps0, 1/(9n)))."""
        _, _, t0, t1 = self.level_data(n)
        j0 = float(np.max(np.abs(t0.process.increments()))) if self.model.tree.n_nodes > 1 else 0.0
        j1 = float(np.max(np.abs(t1.process.increments()))) if self.model.tree.n_nodes > 1 else 0.0
        cap = 0.995 / (j0 + j1) if j0 + j1 > 0.0 else math.inf
        explicit = min(self.model.eps0, cap, 0.9 * self.x)
        reference = min(self.model.eps0, 1.0 / (9.0 * n))
        return explicit, reference

    def integrand(self, dx: float, eps: float, n: int) -> PredictableProcess:
        """Corrected proportions against the perturbation-discounted returns,
        bank component balancing the sum to one."""
        g0, g1, _, _ = self.level_data(n)
        v = (self.pi_hat.values + dx * g0.values
             + eps * (-self.model.theta.values + g1.values))
        v[:, 0] = 0.0
        v[1:, 0] = 1.0 - v[1:, 1:].sum(axis=1)
        return PredictableProcess(self.model.tree, v)

    def nearly_optimal_wealth(self, dx: float, eps: float, n: int) -> AdaptedProcess:
        if dx <= -self.x:
            raise AdmissibilityError("wealth shift must keep x + dx positive")
        h = math.hypot(dx, eps)
        explicit, _ = self.admissible_radius(n)
        if h >= explicit:
            raise AdmissibilityError(
                f"(dx, eps) at radius {h!r} outside the admissible radius {explicit!r} at level {n}"
            )
        tree = self.model.tree
        reps = discount_direction(self.model, eps * self.model.theta)
        drive = stochastic_integral(self.integrand(dx, eps, n), reps)
        X = (self.x + dx) * stochastic_exponential(drive).values
        if np.any(X <= 0.0):
            raise AdmissibilityError("constructed wealth lost positivity inside the stated ball")
        return AdaptedProcess(tree, X)

    def proportions(self, dx: float, eps: float, n: int) -> PredictableProcess:
        """Proportions invested in the traded assets under the perturbed unit
        of account; integrating them against the perturbed returns
        regenerates the constructed wealth."""
        if eps == 1.0:
            raise ContractViolationError("the proportion map is singular at eps = 1")
        v = self.integrand(dx, eps, n).values
        th = self.model.theta.values
        p = (1.0 - eps) * v + eps * th * v.sum(axis=1, keepdims=True)
        return PredictableProcess(self.model.tree, p)

    # -- value-matching residual and level selection -------------------------

    def exact_values(self, points) -> None:
        """Solve u(x + dx, eps) at each point (dx, eps) not yet in the cache,
        in one `solve_values` batch started from the expansion's first-order
        prediction.  A point whose solve fails keeps its error, which
        `exact_value` raises."""
        todo = [pt for pt in dict.fromkeys(points) if pt not in self._solve_cache]
        if not todo:
            return
        xs = [self.x + dx for dx, _ in todo]
        eps = [e for _, e in todo]
        starts = np.column_stack([self.expansion.newton_start(xx, e) for xx, e in zip(xs, eps)])
        batch = solve_values(self.model, self.utility, xs, eps, start=starts)
        for pt, value, err in zip(todo, batch.value.tolist(), batch.errors):
            self._solve_cache[pt] = value if err is None else err

    def exact_value(self, dx: float, eps: float) -> float:
        """u(x + dx, eps), re-solved from the expansion's first-order start."""
        self.exact_values([(dx, eps)])
        value = self._solve_cache[dx, eps]
        if isinstance(value, Exception):
            raise value
        return value

    def quadratic_prediction(self, dx: float, eps: float) -> float:
        rep = self.expansion
        step = np.array([dx, eps])
        return (self.optimum.primal.value + rep.gradient_u @ step
                + 0.5 * step @ rep.hessian_u @ step)

    def construction_utility(self, dx: float, eps: float, n: int) -> float:
        X = self.nearly_optimal_wealth(dx, eps, n)
        p = self.model.tree.leaf_prob
        return float(p @ self.utility.u(X.terminal))

    def value_residual(self, dx: float, eps: float, n: int) -> float:
        """Exact value-function gap of the constructed wealth, normalized."""
        h2 = dx * dx + eps * eps
        return (self.exact_value(dx, eps) - self.construction_utility(dx, eps, n)) / h2

    def select_level(self, dx: float, eps: float) -> int:
        """The inverse-radius rule 2n >= 1/h at radius h, raised to the
        saturation level so that the construction is the untruncated one."""
        h = math.hypot(dx, eps)
        return 1 if h == 0.0 else max(self.saturation, math.ceil(0.5 / h))


def drift_perturbation_theta(m: MarketModel, psi: PredictableProcess,
                             asset: int) -> PredictableProcess:
    """Perturbation direction whose induced discounted returns tilt the
    finite-variation part of one asset: stock component -psi, bank component
    balancing the sum to one."""
    if not 1 <= asset <= m.d:
        raise ContractViolationError(f"asset index must lie in 1..{m.d}")
    if psi.values.ndim != 1:
        raise ContractViolationError("psi must be a scalar predictable process")
    vals = np.zeros((m.tree.n_nodes, m.d + 1))
    vals[:, asset] = -psi.values
    vals[1:, 0] = 1.0 + psi.values[1:]
    return PredictableProcess(m.tree, vals)
