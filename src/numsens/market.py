"""Market model on an event tree: returns, perturbation direction, the
numeraire family, perturbed prices, and the canonical market file format.

The traded assets are a bank account (component 0, return identically 0)
and d stocks with return processes starting at 0.  The perturbation
direction theta is a predictable proportions vector (components sum to 1);
the perturbed unit of account is the stochastic exponential of eps·(theta
against the returns).
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import AdmissibilityError, ContractViolationError, InvariantViolationError
from .tree import (
    AdaptedProcess,
    EventTree,
    PredictableProcess,
    quadratic_covariation,
    stochastic_exponential,
    stochastic_integral,
)

JUMP_TOL = 1e-12


@dataclass(frozen=True)
class MarketModel:
    tree: EventTree
    returns: AdaptedProcess          # (n_nodes, d+1), component 0 identically 0
    theta: PredictableProcess        # (n_nodes, d+1), components summing to 1
    eps0: float = None               # admissible perturbation radius

    def __post_init__(self):
        R = self.returns.values
        if R.ndim != 2:
            raise ContractViolationError("returns must be a vector process (bank + stocks)")
        if np.any(R[0] != 0.0):
            raise ContractViolationError("returns must start at 0")
        if np.any(R[:, 0] != 0.0):
            raise ContractViolationError("bank return (component 0) must be identically 0")
        th = self.theta.values
        if th.shape[1] != R.shape[1]:
            raise ContractViolationError("theta and returns must have the same dimension")
        sums = th[1:].sum(axis=1)
        if np.any(np.abs(sums - 1.0) > 1e-10):
            raise ContractViolationError("theta components must sum to 1 at every node")

        jump = float(np.max(np.abs(self.rbar_increments()))) if self.tree.n_nodes > 1 else 0.0
        eps_max = math.inf if jump <= JUMP_TOL else 1.0 / (2.0 * jump)
        eps0 = eps_max if self.eps0 is None else float(self.eps0)
        if eps0 <= 0.0:
            raise ContractViolationError("eps0 must be positive")
        if eps0 > eps_max * (1.0 + 1e-12):
            raise ContractViolationError(
                f"eps0={eps0!r} exceeds the jump bound 1/(2·max|jump|)={eps_max!r}"
            )
        object.__setattr__(self, "eps0", eps0)

    @property
    def d(self) -> int:
        return self.returns.values.shape[1] - 1

    @functools.cached_property
    def space(self):
        """Attainable space of the market, built on first access and shared
        by every solve on this model: it depends only on the tree and the
        base returns, not on x, eps or the utility."""
        from . import solver  # local import to avoid a cycle; looked up per call

        return solver.attainable_space(self)

    def rbar_increments(self) -> np.ndarray:
        """Jumps of the negated perturbation return, indexed by non-root node."""
        dR = self.returns.increments()
        return -np.einsum("nd,nd->n", self.theta.values, dR)

    def rbar(self) -> AdaptedProcess:
        """Negated perturbation return: -(theta against returns)."""
        return stochastic_integral(-self.theta, self.returns)

    def asset_prices(self) -> AdaptedProcess:
        """Undiscounted prices (1, exp components of each stock return)."""
        cols = [np.ones(self.tree.n_nodes)]
        for i in range(1, self.d + 1):
            cols.append(stochastic_exponential(self.returns.component(i)).values)
        return AdaptedProcess(self.tree, np.column_stack(cols))


def numeraire(m: MarketModel, eps: float) -> AdaptedProcess:
    """Perturbed unit of account; strictly positive for |eps| < eps0."""
    if not abs(eps) < m.eps0:
        raise AdmissibilityError(f"|eps|={abs(eps)!r} is not below eps0={m.eps0!r}")
    drive = stochastic_integral(eps * m.theta, m.returns)
    N = stochastic_exponential(drive)
    if np.any(N.values <= 0.0):
        raise InvariantViolationError("numeraire hit a nonpositive value; model invariants broken")
    return N


def perturbed_prices(m: MarketModel, eps: float) -> AdaptedProcess:
    """Asset prices quoted in the perturbed unit of account."""
    N = numeraire(m, eps).values
    return AdaptedProcess(m.tree, m.asset_prices().values / N[:, None])


@dataclass(frozen=True)
class PerturbationStats:
    F: np.ndarray                    # terminal perturbation return, per leaf
    G: np.ndarray                    # its terminal quadratic variation, per leaf
    c_max: float                     # +inf on a finite tree
    c: float = None
    exp_moment: float = None         # E[exp(c(|F|+G))] under the supplied weights


def perturbation_statistics(m: MarketModel, c: float = None, leaf_weights=None) -> PerturbationStats:
    """Terminal statistics (F, G) of the perturbation return and, when c is
    given, the exponential moment E[exp(c(|F|+G))] under `leaf_weights`
    (physical probabilities by default).  Every exponential moment is finite
    on a finite tree, so c_max is reported as +inf."""
    rb = m.rbar()
    F = rb.terminal
    G = quadratic_covariation(rb, rb).terminal
    moment = None
    if c is not None:
        w = m.tree.leaf_prob if leaf_weights is None else np.asarray(leaf_weights, dtype=float)
        moment = float(w @ np.exp(c * (np.abs(F) + G)))
    return PerturbationStats(F=F, G=G, c_max=math.inf, c=c, exp_moment=moment)


# ---------------------------------------------------------------------------
# market file format (canonical JSON; load -> save is byte-stable)
# ---------------------------------------------------------------------------


def _canonical_probs(p: np.ndarray) -> np.ndarray:
    """Nudge a probability vector so its float sum is exactly 1, keeping
    reloading (which divides by the sum) a bitwise no-op.  The residual is
    folded into the last entry — the only position where the accumulated sum
    can always be landed exactly — with ulp nudges for boundary roundings."""
    out = np.asarray(p, dtype=float).copy()
    if out.sum() == 1.0:
        return out
    head = out[:-1].sum()
    tail = 1.0 - head
    if tail <= 0.0:
        return out  # degenerate input; leave untouched
    out[-1] = tail
    for _ in range(10):
        s = out.sum()
        if s == 1.0:
            return out
        out[-1] = np.nextafter(out[-1], math.inf if s < 1.0 else -math.inf)
    return out


def _node_to_obj(m: MarketModel, node: int, dR: np.ndarray):
    obj = {}
    tree = m.tree
    if not tree.is_leaf(node):
        obj["theta"] = [float(v) for v in m.theta.step_value(node)]
        branches = []
        ch = tree.children[node]
        probs = _canonical_probs(tree.prob[ch])
        for c, q in zip(ch, probs):
            b = {"prob": float(q), "dR": [float(v) for v in dR[c, 1:]]}
            b.update(_node_to_obj(m, int(c), dR))
            branches.append(b)
        obj["branches"] = branches
    return obj


def market_to_obj(m: MarketModel, utility=None) -> dict:
    obj = {"assets": m.d, "steps": m.tree.steps, "root": _node_to_obj(m, 0, m.returns.increments())}
    if math.isfinite(m.eps0):
        obj["eps0"] = float(m.eps0)
    if utility is not None:
        obj["utility"] = utility.to_obj()
    return obj


def canonical_text(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def save_market(m: MarketModel, path, utility=None) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(canonical_text(market_to_obj(m, utility)))


def market_from_obj(obj: dict):
    from .preferences import Utility  # local import to avoid a cycle

    d = int(obj["assets"])
    steps = int(obj["steps"])

    parent, prob, theta_rows, dR_rows = [-1], [1.0], [np.zeros(d + 1)], [np.zeros(d)]
    queue = [(0, obj["root"], 0)]
    order = 0
    while order < len(queue):
        node_id, node_obj, depth = queue[order]
        order += 1
        branches = node_obj.get("branches")
        if branches is None:
            if depth != steps:
                raise ContractViolationError("leaf found before the declared number of steps")
            continue
        if "theta" not in node_obj:
            raise ContractViolationError("every branching node needs a theta entry")
        th = np.asarray(node_obj["theta"], dtype=float)
        if th.shape != (d + 1,):
            raise ContractViolationError("theta entries must have length assets+1")
        for b in branches:
            cid = len(parent)
            parent.append(node_id)
            prob.append(float(b["prob"]))
            dr = np.asarray(b["dR"], dtype=float)
            if dr.shape != (d,):
                raise ContractViolationError("dR entries must have length equal to assets")
            dR_rows.append(dr)
            theta_rows.append(th)
            queue.append((cid, b, depth + 1))

    # FIFO discovery order is breadth-first, so ids are already canonical
    tree = EventTree(parent, prob)

    inc = np.zeros((tree.n_nodes, d + 1))
    inc[:, 1:] = dR_rows

    model = MarketModel(
        tree=tree,
        returns=AdaptedProcess.from_increments(tree, inc, start=0.0),
        theta=PredictableProcess(tree, np.array(theta_rows)),
        eps0=float(obj["eps0"]) if "eps0" in obj else None,
    )
    utility = Utility.from_obj(obj["utility"]) if "utility" in obj else None
    return model, utility


def load_market(path):
    """Read a market file; returns (MarketModel, Utility-or-None)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return market_from_obj(json.load(fh))
    except (KeyError, TypeError, AttributeError) as exc:   # a missing key or a wrong JSON type
        raise ContractViolationError(f"malformed market file: {exc!r}") from exc
