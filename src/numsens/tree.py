"""Finite event trees, adapted/predictable processes, and the discrete
stochastic calculus used everywhere else.

Conventions (exact on finite filtrations):
  * integrals are predictable Riemann sums over one-step increments,
  * the stochastic exponential is the product of (1 + increment),
  * quadratic covariation is the sum of products of jumps,
  * there is no continuous martingale part.

Nodes are numbered breadth-first (root = 0, then level by level in the
order branches were declared), so every parent index is smaller than its
children and reports are bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolationError

PROB_TOL = 1e-12


class EventTree:
    """Finite filtered probability space: a rooted tree with transition
    probabilities, all leaves at the same depth."""

    def __init__(self, parent, prob, time=None):
        parent = np.asarray(parent, dtype=np.int64)
        prob = np.asarray(prob, dtype=float)
        n = parent.shape[0]
        if n == 0 or parent[0] != -1:
            raise ContractViolationError("node 0 must be the root (parent -1)")
        if prob.shape != (n,):
            raise ContractViolationError("prob must have one entry per node")
        if np.any(parent[1:] >= np.arange(1, n)) or np.any(parent[1:] < 0):
            raise ContractViolationError("nodes must be numbered parents-first")
        if np.any(np.diff(parent[1:]) < 0):
            raise ContractViolationError("nodes must be numbered breadth-first (siblings consecutive)")
        if np.any(prob[1:] <= 0.0) or np.any(prob[1:] > 1.0):
            raise ContractViolationError("transition probabilities must lie in (0, 1]")

        self.parent = parent
        self.n_nodes = n
        if time is None:
            time = np.zeros(n, dtype=np.int64)
            for i in range(1, n):
                time[i] = time[parent[i]] + 1
        self.time = np.asarray(time, dtype=np.int64)
        if np.any(np.diff(self.time) < 0):
            raise ContractViolationError("node order must be breadth-first in time")

        n_children = np.bincount(parent[1:], minlength=n)
        self.children = np.split(np.arange(1, n), np.cumsum(n_children)[:-1])
        self.steps = int(self.time.max())
        self.leaves = np.flatnonzero(n_children == 0)
        self.internal_nodes = np.flatnonzero(n_children > 0)
        if np.any(self.time[self.leaves] != self.steps):
            raise ContractViolationError("every root-to-leaf path must have the same length")
        self.levels = np.split(np.arange(n),
                               np.searchsorted(self.time, np.arange(1, self.steps + 1)))
        self.ancestors = np.empty((len(self.leaves), self.steps + 1), dtype=np.int64)
        self.ancestors[:, -1] = self.leaves
        for t in range(self.steps - 1, -1, -1):
            self.ancestors[:, t] = parent[self.ancestors[:, t + 1]]

        # renormalize child probabilities; reject if they are not already
        # within PROB_TOL of summing to one
        self.prob = prob.copy()
        self.prob[0] = 1.0
        for node in self.internal_nodes:
            c = self.children[node]
            s = self.prob[c].sum()
            if abs(s - 1.0) > PROB_TOL:
                raise ContractViolationError(
                    f"child probabilities at node {node} sum to {s!r}, not 1"
                )
            self.prob[c] /= s

        self.path_prob = self.cumulate(self.prob, 1.0, np.multiply)
        if abs(self.path_prob[self.leaves].sum() - 1.0) > PROB_TOL:
            raise ContractViolationError("leaf probabilities do not sum to 1")

    @property
    def n_leaves(self):
        return len(self.leaves)

    @property
    def leaf_prob(self):
        return self.path_prob[self.leaves]

    def is_leaf(self, node) -> bool:
        return len(self.children[node]) == 0

    # -- the two tree passes ---------------------------------------------

    def cumulate(self, inc, start, op=np.add) -> np.ndarray:
        """Down from the root: out[0] = start and out[n] = op(out[parent[n]],
        inc[n]), one level at a time (inc[0] is ignored).  Works row-wise on
        (n_nodes, dim) arrays."""
        inc = np.asarray(inc, dtype=float)
        out = np.empty_like(inc)
        out[0] = start
        for nodes in self.levels[1:]:
            out[nodes] = op(out[self.parent[nodes]], inc[nodes])
        return out

    def aggregate(self, node_values) -> np.ndarray:
        """Up from the leaves: each node's value plus the aggregates of its
        children, which are added in descending node order (as a reverse
        loop over the nodes would add them)."""
        out = np.array(node_values, dtype=float)
        for nodes in self.levels[:0:-1]:
            nodes = nodes[::-1]
            np.add.at(out, self.parent[nodes], out[nodes])
        return out

    # -- measure helpers -------------------------------------------------

    def node_mass(self, leaf_weights) -> np.ndarray:
        """Total weight of the leaves below each node."""
        mass = np.zeros(self.n_nodes)
        mass[self.leaves] = leaf_weights
        return self.aggregate(mass)

    def conditional_expectation(self, leaf_weights, leaf_values) -> np.ndarray:
        """E[Z | F_t] as a node array, under the measure given by leaf weights."""
        leaf_weights = np.asarray(leaf_weights, dtype=float)
        leaf_values = np.asarray(leaf_values, dtype=float)
        sums = np.zeros((self.n_nodes, 2))
        sums[self.leaves, 0] = leaf_weights * leaf_values
        sums[self.leaves, 1] = leaf_weights
        acc, mass = self.aggregate(sums).T
        if np.any(mass <= 0.0):
            raise ContractViolationError("conditional expectation under a vanishing measure")
        return acc / mass

    def martingale_defect(self, values, leaf_weights) -> float:
        """max_n |E[ΔZ | n]| for a node-indexed scalar process."""
        values = np.asarray(values, dtype=float)
        mass = self.node_mass(leaf_weights)
        worst = 0.0
        for node in self.internal_nodes:
            c = self.children[node]
            w = mass[c] / mass[node]
            worst = max(worst, abs(float(w @ values[c]) - values[node]))
        return worst


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AdaptedProcess:
    """Process with one value (scalar or fixed-length vector) per node.

    A process built from one-step increments keeps them verbatim so that
    round trips through files are bit-stable (differencing accumulated
    floats does not always recover the increments exactly)."""

    tree: EventTree
    values: np.ndarray = field(repr=False)
    inc: np.ndarray = field(repr=False, default=None, compare=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape[0] != self.tree.n_nodes or v.ndim > 2:
            raise ContractViolationError("values must be (n_nodes,) or (n_nodes, dim)")
        object.__setattr__(self, "values", v)
        if self.inc is not None and np.shape(self.inc) != v.shape:
            raise ContractViolationError("cached increments must match the value shape")

    @classmethod
    def from_increments(cls, tree: EventTree, inc, start=0.0) -> "AdaptedProcess":
        inc = np.asarray(inc, dtype=float)
        return cls(tree, tree.cumulate(inc, start), inc=inc)

    @property
    def dim(self) -> int:
        return 1 if self.values.ndim == 1 else self.values.shape[1]

    @property
    def terminal(self) -> np.ndarray:
        return self.values[self.tree.leaves]

    def increments(self) -> np.ndarray:
        """ΔX indexed by non-root node (row 0 is zero)."""
        if self.inc is not None:
            return self.inc
        d = np.zeros_like(self.values)
        d[1:] = self.values[1:] - self.values[self.tree.parent[1:]]
        return d

    def component(self, i: int) -> "AdaptedProcess":
        return AdaptedProcess(self.tree, self.values[:, i])

    def __add__(self, other):
        return AdaptedProcess(self.tree, self.values + _raw(other))

    def __sub__(self, other):
        return AdaptedProcess(self.tree, self.values - _raw(other))

    def __mul__(self, other):
        return AdaptedProcess(self.tree, self.values * _raw(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return AdaptedProcess(self.tree, self.values / _raw(other))


def _raw(x):
    return x.values if isinstance(x, AdaptedProcess) else x


@dataclass(frozen=True)
class PredictableProcess:
    """Process known one step ahead: defined on non-root nodes and equal
    across siblings.  Row 0 is unused and kept at zero."""

    tree: EventTree
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape[0] != self.tree.n_nodes or v.ndim > 2:
            raise ContractViolationError("values must be (n_nodes,) or (n_nodes, dim)")
        v = v.copy()
        v[0] = 0.0
        tree = self.tree
        # parent ids are sorted, so this finds each node's first sibling
        differs = v[1:] != v[np.searchsorted(tree.parent, tree.parent[1:])]
        if differs.ndim == 2:
            differs = differs.any(axis=1)
        if np.any(differs):
            node = tree.parent[1:][differs][0]
            raise ContractViolationError(
                f"predictable process differs across siblings of node {node}"
            )
        object.__setattr__(self, "values", v)

    @classmethod
    def from_steps(cls, tree: EventTree, step_values) -> "PredictableProcess":
        """Build from per-parent values: step_values[n] is the value carried
        on the step from node n to each of its children."""
        step_values = np.asarray(step_values, dtype=float)
        shape = (tree.n_nodes,) if step_values.ndim == 1 else (tree.n_nodes, step_values.shape[1])
        v = np.zeros(shape)
        v[1:] = step_values[tree.parent[1:]]
        return cls(tree, v)

    @property
    def dim(self) -> int:
        return 1 if self.values.ndim == 1 else self.values.shape[1]

    def step_value(self, node):
        """Value used on the step out of `node` (any child's row)."""
        return self.values[self.tree.children[node][0]]

    def __mul__(self, scalar):
        return PredictableProcess(self.tree, self.values * scalar)

    __rmul__ = __mul__

    def __add__(self, other):
        return PredictableProcess(self.tree, self.values + other.values)

    def __sub__(self, other):
        return PredictableProcess(self.tree, self.values - other.values)

    def __neg__(self):
        return PredictableProcess(self.tree, -self.values)


# ---------------------------------------------------------------------------
# calculus kernel
# ---------------------------------------------------------------------------


def stochastic_integral(H: PredictableProcess, X: AdaptedProcess) -> AdaptedProcess:
    """(H·X): starts at 0, increment H_n · ΔX_n at every non-root node."""
    tree = X.tree
    if H.tree is not tree and H.tree.n_nodes != tree.n_nodes:
        raise ContractViolationError("integrand and integrator live on different trees")
    dX = X.increments()
    if H.values.ndim != dX.ndim or (H.values.ndim == 2 and H.values.shape[1] != dX.shape[1]):
        raise ContractViolationError(
            f"integrand dimension {H.dim} does not match integrator dimension {X.dim}"
        )
    inc = H.values * dX if dX.ndim == 1 else np.einsum("nd,nd->n", H.values, dX)
    return AdaptedProcess(tree, tree.cumulate(inc, 0.0))


def stochastic_exponential(X: AdaptedProcess) -> AdaptedProcess:
    """Product of (1 + ΔX) along paths; requires X_0 = 0.  Zero is absorbing;
    negative values are allowed (positivity is the caller's concern)."""
    if X.values.ndim != 1:
        raise ContractViolationError("stochastic exponential is defined for scalar processes")
    if X.values[0] != 0.0:
        raise ContractViolationError("stochastic exponential requires X_0 = 0")
    return AdaptedProcess(X.tree, X.tree.cumulate(1.0 + X.increments(), 1.0, np.multiply))


def quadratic_covariation(X: AdaptedProcess, Y: AdaptedProcess) -> AdaptedProcess:
    """[X, Y]: running sum of products of jumps; requires X_0 = Y_0 = 0."""
    if X.values.ndim != 1 or Y.values.ndim != 1:
        raise ContractViolationError("quadratic covariation is defined for scalar processes")
    if X.values[0] != 0.0 or Y.values[0] != 0.0:
        raise ContractViolationError("quadratic covariation requires X_0 = Y_0 = 0")
    return AdaptedProcess(X.tree, X.tree.cumulate(X.increments() * Y.increments(), 0.0))


# ---------------------------------------------------------------------------
# processes and payoffs spanned by per-node blocks
# ---------------------------------------------------------------------------
#
# A block (node, first column, V) spans one-step increments over the node's
# children: V has shape (children, rank), and coefficient first + k moves
# the r-th child by V[r, k].


def payoff_matrix(tree: EventTree, blocks, n_cols: int) -> np.ndarray:
    """(n_leaves, n_cols) terminal values of the blocks' columns: column
    first + k of a block pays V[r, k] on the leaves below its r-th child."""
    M = np.zeros((tree.n_leaves, n_cols))
    for node, col, V in blocks:
        # breadth-first numbering: the leaves below a node are a contiguous
        # run and its children have consecutive ids
        t = tree.time[node]
        lo, hi = np.searchsorted(tree.ancestors[:, t], [node, node + 1])
        M[lo:hi, col:col + V.shape[1]] = V[tree.ancestors[lo:hi, t + 1] - tree.children[node][0]]
    return M


def process_from_coefficients(tree: EventTree, blocks, coeffs, start=0.0) -> np.ndarray:
    """Node values of start plus the blocks' increments weighted by coeffs;
    its leaf values are start + payoff_matrix(tree, blocks, len(coeffs)) @ coeffs."""
    inc = np.zeros(tree.n_nodes)
    for node, col, V in blocks:
        inc[tree.children[node]] = V @ coeffs[col:col + V.shape[1]]
    return tree.cumulate(inc, start)
