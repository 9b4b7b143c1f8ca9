"""Construction of nearly optimal wealth processes and strategy corrections.

The base return process is described through its predictable
characteristics (drift under truncation, zero continuous part, one-step
jump compensator).  Hedgeable martingales are represented as integrals
against the wealth-discounted return process; truncation/localization
produces bounded versions whose integrands, scaled by the wealth and
perturbation offsets, generate wealth processes matching the value
function to second order.  The level-selection rule is a computable
instantiation of an existential construction: it measures residual
envelopes on a dyadic probe ladder and grows the level like the inverse
perturbation radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AdmissibilityError, ContractViolationError, NumericalError, RepresentationError
from .market import MarketModel
from .preferences import Utility
from .sensitivity import ExpansionReport, expansion_report
from .solver import AttainableSpace, Optimum, solve_pair, solve_primal
from .tree import AdaptedProcess, PredictableProcess, stochastic_exponential, stochastic_integral

_REPR_TOL = 1e-10
_FLOOR_ABS = 1e-12    # absolute value-solve floor feeding the probe allowance


# ---------------------------------------------------------------------------
# predictable characteristics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Characteristics:
    """Triplet of the return process under the truncation x·1{|x|<=1}.
    The continuous part vanishes identically on a tree."""

    B: AdaptedProcess                       # predictable finite-variation part
    C: AdaptedProcess                       # identically zero
    jump_compensator: dict = field(repr=False)   # node -> (child probs, jumps (k, d+1))


def characteristics(m: MarketModel) -> Characteristics:
    tree = m.tree
    dR = m.returns.increments()
    dim = m.d + 1
    Bvals = np.zeros((tree.n_nodes, dim))
    comp = {}
    for node in tree.internal_nodes:
        ch = tree.children[node]
        w = tree.prob[ch]
        jumps = dR[ch]
        small = np.linalg.norm(jumps, axis=1) <= 1.0
        dB = w[small] @ jumps[small] if np.any(small) else np.zeros(dim)
        comp[int(node)] = (w.copy(), jumps.copy())
        Bvals[ch] = Bvals[node] + dB
    return Characteristics(
        B=AdaptedProcess(tree, Bvals),
        C=AdaptedProcess(tree, np.zeros(tree.n_nodes)),
        jump_compensator=comp,
    )


def reassemble_returns(m: MarketModel, ch: Characteristics) -> AdaptedProcess:
    """Sum the four canonical pieces back into a return process (the
    continuous part is zero; the compensated-small-jump term uses the
    stored compensator, so this exercises B and nu independently)."""
    tree = m.tree
    dR = m.returns.increments()
    dim = m.d + 1
    vals = np.zeros((tree.n_nodes, dim))
    dB = ch.B.increments()
    for node in tree.internal_nodes:
        w, jumps = ch.jump_compensator[int(node)]
        norms = np.linalg.norm(jumps, axis=1)
        small = norms <= 1.0
        compensator = w[small] @ jumps[small] if np.any(small) else np.zeros(dim)
        for r, c in enumerate(tree.children[node]):
            j = dR[c]
            nj = np.linalg.norm(j)
            small_part = j if nj <= 1.0 else np.zeros(dim)
            large_part = j if nj > 1.0 else np.zeros(dim)
            vals[c] = vals[node] + dB[c] + (small_part - compensator) + large_part
    return AdaptedProcess(tree, vals)


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
    returns) equal to M, solved node by node across siblings; raises when an
    increment leaves the traded span."""
    if M.values.ndim != 1 or M.values[0] != 0.0:
        raise ContractViolationError("representation target must be scalar and start at 0")
    tree = m.tree
    Rpi = discount_direction(m, pi_hat)
    dRpi = Rpi.increments()
    dM = M.increments()
    steps = np.zeros((tree.n_nodes, m.d + 1))
    worst = 0.0
    for node in tree.internal_nodes:
        chn = tree.children[node]
        D = dRpi[chn, 1:]
        target = dM[chn]
        sol, *_ = np.linalg.lstsq(D, target, rcond=None)
        resid = float(np.max(np.abs(D @ sol - target)))
        scale = max(1.0, float(np.max(np.abs(target))))
        if resid > _REPR_TOL * scale:
            raise RepresentationError(
                f"martingale increment at node {node} is not attainable "
                f"(residual {resid:.3e})"
            )
        worst = max(worst, resid)
        steps[node, 1:] = sol
    gamma = PredictableProcess.from_steps(tree, steps)
    return IntegrandRepresentation(gamma=gamma, max_residual=worst)


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
    at most n + 4n^2, and equals M once n dominates both envelopes."""
    if n < 1:
        raise ContractViolationError("truncation level must be a positive integer")
    tree = M.tree
    vals = M.values
    if vals.ndim != 1 or vals[0] != 0.0:
        raise ContractViolationError("truncation target must be scalar and start at 0")

    stage1 = vals.copy()
    alive = np.ones(tree.n_nodes, dtype=bool)
    vstops = []
    for node in tree.internal_nodes:
        if not alive[node]:
            for c in tree.children[node]:
                alive[c] = False
                stage1[c] = stage1[node]
            continue
        ch = tree.children[node]
        if np.max(np.abs(vals[ch])) > n:
            vstops.append(int(node))
            for c in ch:
                alive[c] = False
                stage1[c] = stage1[node]
        else:
            for c in ch:
                stage1[c] = vals[c]

    out = stage1.copy()
    qv = np.zeros(tree.n_nodes)
    running = np.ones(tree.n_nodes, dtype=bool)
    qstops = []
    for node in tree.internal_nodes:
        if not running[node]:
            for c in tree.children[node]:
                running[c] = False
                out[c] = out[node]
            continue
        for c in tree.children[node]:
            out[c] = stage1[c]
            qv[c] = qv[node] + (stage1[c] - stage1[node]) ** 2
            if qv[c] >= n:
                running[c] = False
                qstops.append(int(c))
    proc = AdaptedProcess(tree, out)
    return TruncationResult(process=proc,
                            saturated=bool(np.array_equal(out, vals)),
                            value_stop_nodes=tuple(vstops),
                            qv_stop_nodes=tuple(qstops))


# ---------------------------------------------------------------------------
# strategy kit: the assembled pipeline
# ---------------------------------------------------------------------------


@dataclass
class StrategyKit:
    model: MarketModel
    utility: Utility
    x: float
    optimum: Optimum
    expansion: ExpansionReport
    space: AttainableSpace = field(default=None, repr=False)   # shared by the exact re-solves
    _level_cache: dict = field(default_factory=dict, repr=False)
    _solve_cache: dict = field(default_factory=dict, repr=False)

    @property
    def pi_hat(self) -> PredictableProcess:
        return self.optimum.primal.strategy_base

    def level_data(self, n: int):
        """(gamma0, gamma1, truncation results) at level n, cached."""
        if n not in self._level_cache:
            basis = self.expansion.basis
            m0 = AdaptedProcess(self.model.tree,
                                basis.expand_process("primal", self.expansion.M0.coeffs))
            m1 = AdaptedProcess(self.model.tree,
                                basis.expand_process("primal", self.expansion.M1.coeffs))
            t0 = truncate_localize(m0, n)
            t1 = truncate_localize(m1, n)
            g0 = represent_martingale(t0.process / self.x, self.model, self.pi_hat)
            g1 = represent_martingale(t1.process / self.x, self.model, self.pi_hat)
            self._level_cache[n] = (g0.gamma, g1.gamma, t0, t1)
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
        explicit, _ = self.admissible_radius(n)
        if math.hypot(dx, eps) >= explicit:
            raise AdmissibilityError(
                f"(dx, eps) outside the admissible radius {explicit!r} at level {n}"
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

    def exact_value(self, dx: float, eps: float) -> float:
        key = (round(dx, 18), round(eps, 18))
        if key not in self._solve_cache:
            sol = solve_primal(self.model, self.utility, self.x + dx, eps, space=self.space)
            self._solve_cache[key] = sol.value
        return self._solve_cache[key]

    def quadratic_prediction(self, dx: float, eps: float) -> float:
        rep = self.expansion
        step = np.array([dx, eps])
        return (self.optimum.primal.value + rep.gradient_u @ step
                + 0.5 * step @ rep.hessian_u @ step)

    def construction_utility(self, dx: float, eps: float, n: int) -> float:
        X = self.nearly_optimal_wealth(dx, eps, n)
        p = self.model.tree.leaf_prob
        return float(p @ self.utility.u(X.terminal))

    def matching_residual(self, dx: float, eps: float, n: int) -> float:
        """Quadratic-prediction gap of the constructed wealth, normalized by
        the squared radius."""
        h2 = dx * dx + eps * eps
        return (self.quadratic_prediction(dx, eps)
                - self.construction_utility(dx, eps, n)) / h2

    def value_residual(self, dx: float, eps: float, n: int) -> float:
        """Exact value-function gap of the constructed wealth, normalized."""
        h2 = dx * dx + eps * eps
        return (self.exact_value(dx, eps) - self.construction_utility(dx, eps, n)) / h2

    def select_level(self, dx: float, eps: float, budget: int = 64,
                     probe_depth: int = 6) -> int:
        """Smallest level passing the inverse-radius rule: a dyadic probe
        ladder along the requested direction measures the residual envelope
        g(n) (max over the two smallest probes) and the largest validated
        radius r(n) where the ladder stays within twice the envelope (plus a
        documented solver-floor allowance); the level is accepted once
        2·max(n, ceil(1/r(n))) reaches the inverse of the requested radius.
        Once truncation saturates, only the 2n-versus-1/h comparison binds."""
        h = math.hypot(dx, eps)
        if h == 0.0:
            return 1
        ux, ue = dx / h, eps / h
        n = 1
        while n <= budget:
            _, _, t0, t1 = self.level_data(n)
            explicit, _ = self.admissible_radius(n)
            if h >= explicit:
                n += 1
                continue
            top = 0.5 * min(explicit,
                            0.5 * self.x / abs(ux) if ux < 0.0 else math.inf)
            radii = [top * 2.0**-j for j in range(probe_depth + 1)]
            f_at = [abs(self.matching_residual(rr * ux, rr * ue, n)) for rr in radii]
            g_hat = max(f_at[-1], f_at[-2])
            r_hat = 0.0
            for j in range(len(radii) - 1, -1, -1):
                if all(f_at[i] <= 2.0 * g_hat + _FLOOR_ABS / radii[i] ** 2
                       for i in range(j, len(radii))):
                    r_hat = radii[j]
                else:
                    break
            m_hat = 2.0 * max(n, math.ceil(1.0 / r_hat) if r_hat > 0.0 else n)
            if m_hat >= 1.0 / h:
                return n
            if t0.saturated and t1.saturated:
                # the envelope data no longer depends on n
                return max(n, math.ceil(0.5 / h))
            n += 1
        raise NumericalError(f"level budget {budget} exhausted before the rule was met")


def build_strategy_kit(m: MarketModel, utility: Utility, x: float, *,
                       optimum: Optimum = None,
                       expansion: ExpansionReport = None,
                       space: AttainableSpace = None) -> StrategyKit:
    if optimum is None:
        optimum = solve_pair(m, utility, x, 0.0, space=space)
    if expansion is None:
        expansion = expansion_report(m, utility, x, optimum=optimum)
    return StrategyKit(model=m, utility=utility, x=float(x),
                       optimum=optimum, expansion=expansion, space=space)


# -- module-level convenience wrappers --------------------------------------


def nearly_optimal_wealth(m: MarketModel, utility: Utility, x: float,
                          dx: float, eps: float, n: int) -> AdaptedProcess:
    return build_strategy_kit(m, utility, x).nearly_optimal_wealth(dx, eps, n)


def proportions(m: MarketModel, utility: Utility, x: float,
                dx: float, eps: float, n: int) -> PredictableProcess:
    return build_strategy_kit(m, utility, x).proportions(dx, eps, n)


def select_n(m: MarketModel, utility: Utility, x: float,
             dx: float, eps: float, budget: int = 64) -> int:
    return build_strategy_kit(m, utility, x).select_level(dx, eps, budget=budget)


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
