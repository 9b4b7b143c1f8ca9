"""Finite event trees, adapted/predictable processes, and the discrete
stochastic calculus used everywhere else.

Conventions (exact on finite filtrations):
  * integrals are predictable Riemann sums over one-step increments,
  * the stochastic exponential is the product of (1 + increment),
  * quadratic covariation is the sum of products of jumps,
  * there is no continuous martingale part.

Nodes are numbered breadth-first (root = 0, then level by level in the
order branches were declared), so every parent index is smaller than its
children and reports are bit-reproducible.  Computations run on whole node
arrays, not node by node: `EventTree.cumulate` passes down from the root,
`aggregate` up from the leaves and `sibling_sum` one level up, and per-node
linear algebra is stacked over `branch_groups` or over a `BlockPlan`.  A
span of one-step increments takes one form, the stacks of equal-rank blocks
that `rank_stacks` cuts from one pivoted Gram–Schmidt run on all the nodes'
blocks at once (`gram_schmidt`); a `BlockPlan` regroups them to run the
least-squares elimination, expand coefficients into a process, pair leaf
values with its columns and build the dense payoff matrix when asked.
The first three take a trailing batch axis: leaf arrays (n_leaves, B) and
coefficients (n_cols, B) pose B problems on one plan, computed together
and each as it is alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolationError

PROB_TOL = 1e-12
_RANK_TOL = 1e-12
_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny


class EventTree:
    """Finite filtered probability space: a rooted tree with transition
    probabilities, all leaves at the same depth."""

    def __init__(self, parent, prob):
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
        # up to 1 + PROB_TOL, as the sibling sums renormalized below
        if np.any(prob[1:] <= 0.0) or np.any(prob[1:] > 1.0 + PROB_TOL):
            raise ContractViolationError("transition probabilities must lie in (0, 1]")

        self.parent = parent
        self.n_nodes = n
        # parents are sorted, so level t + 1 is the run of nodes whose
        # parents lie in level t
        bounds = [0, 1]
        while bounds[-1] < n:
            bounds.append(int(np.searchsorted(parent, bounds[-1])))
        self.levels = np.split(np.arange(n), bounds[1:-1])
        self.time = np.repeat(np.arange(len(self.levels)), np.diff(bounds))
        self.steps = len(self.levels) - 1

        n_children = np.bincount(parent[1:], minlength=n)
        self.children = np.split(np.arange(1, n), np.cumsum(n_children)[:-1])
        self.leaves = np.flatnonzero(n_children == 0)
        self.internal_nodes = np.flatnonzero(n_children > 0)
        # siblings are consecutive: node n's children are first_child[n] + range(n_children[n])
        self.n_children = n_children
        self.first_child = np.cumsum(n_children) - n_children + 1
        # internal nodes by branch count k: k -> (nodes, (len(nodes), k) child ids)
        self.branch_groups = {}
        for k in np.unique(n_children[self.internal_nodes]):
            nodes = self.internal_nodes[n_children[self.internal_nodes] == k]
            self.branch_groups[int(k)] = (nodes, self.first_child[nodes, None] + np.arange(k))
        if np.any(self.time[self.leaves] != self.steps):
            raise ContractViolationError("every root-to-leaf path must have the same length")
        self.ancestors = np.empty((len(self.leaves), self.steps + 1), dtype=np.int64)
        self.ancestors[:, -1] = self.leaves
        for t in range(self.steps - 1, -1, -1):
            self.ancestors[:, t] = parent[self.ancestors[:, t + 1]]

        # renormalize child probabilities; reject if they are not already
        # within PROB_TOL of summing to one
        self.prob = prob.copy()
        self.prob[0] = 1.0
        total = self.sibling_sum(self.prob)
        off = self.internal_nodes[np.abs(total[self.internal_nodes] - 1.0) > PROB_TOL]
        if off.size:
            raise ContractViolationError(
                f"child probabilities at node {off[0]} sum to {total[off[0]]!r}, not 1"
            )
        self.prob[1:] /= total[parent[1:]]

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

    def sibling_sum(self, child_values) -> np.ndarray:
        """One level up: each node's sum of child_values over its children,
        added in node order (zero at the leaves; row 0 is ignored).  Works
        row-wise on (n_nodes, dim) arrays."""
        child_values = np.asarray(child_values, dtype=float)
        out = np.zeros_like(child_values)
        np.add.at(out, self.parent[1:], child_values[1:])
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
        w = np.zeros(self.n_nodes)
        w[1:] = mass[1:] / mass[self.parent[1:]]
        drift = self.sibling_sum(w * values) - values
        return float(np.max(np.abs(drift[self.internal_nodes]), initial=0.0))


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
# A span is a list of stacks (nodes, V): V has shape (len(nodes), children,
# rank), one block per node, and a block's k-th column moves its node's r-th
# child by V[i, r, k].  Columns are numbered in node order, a node's block
# taking the next rank; an internal node in no stack has rank 0.


def rank_stacks(A, against=None):
    """The column spans of the matrices A[i] of an (n, k, d) stack (their
    parts orthogonal to `against`, when given), as (selector, U) pairs of
    equal numerical rank r: U is (selected rows, k, r), orthonormal, from
    `gram_schmidt`."""
    ranks, U = gram_schmidt(A, against)
    return [(ranks == r, U[ranks == r, :, :r]) for r in np.unique(ranks).tolist()]


def gram_schmidt(A, against=None):
    """Pivoted Gram–Schmidt on every matrix A[i] of an (n, k, d) stack at
    once: (ranks, U), U[i] holding orthonormal columns that span A[i]'s
    columns, or their part orthogonal to the a orthonormal columns of
    against[i], and zero past ranks[i].  Each of the min(k - a, d) steps
    takes the column of largest remaining norm and ends a node's basis when
    that norm is at most _RANK_TOL times A[i]'s largest column norm.  Every
    column is projected off the basis before it twice, which keeps U
    orthonormal, and orthogonal to `against`, to rounding.

    This rank test and the singular-value one differ only where some σ_j/σ_1
    lies within a small factor of _RANK_TOL: the j-th remaining norm is at
    least σ_j/sqrt(d - j + 1), at most a factor depending on d alone above
    σ_j, and the largest column norm lies within sqrt(d) of σ_1."""
    n, k, d = A.shape
    a = 0 if against is None else against.shape[2]
    Q = np.zeros((n, k, a + min(k - a, d)))
    if a:
        Q[:, :, :a] = against
    R = A - Q[:, :, :a] @ (Q[:, :, :a].mT @ A)
    scale = _RANK_TOL * np.sqrt(np.max(np.einsum("nkd,nkd->nd", A, A), axis=1, initial=0.0))
    ranks = np.zeros(n, dtype=np.int64)
    rows = np.arange(n)
    for j in range(a, Q.shape[2]):
        pick = np.argmax(np.einsum("nkd,nkd->nd", R, R), axis=1)
        q = R[rows, :, pick]
        q -= (Q[:, :, :j] @ (Q[:, :, :j].mT @ q[:, :, None]))[:, :, 0]
        norm = np.linalg.norm(q, axis=1)
        live = (ranks == j - a) & (norm > scale)
        if not live.any():
            break
        # a node whose basis has ended takes zero columns
        q *= np.where(live, 1.0 / np.where(live, norm, 1.0), 0.0)[:, None]
        Q[:, :, j] = q
        ranks += live
        R -= q[:, :, None] * (q[:, None, :] @ R)
    return ranks, Q[:, :, a:]


class BlockPlan:
    """A span's stacks regrouped for the elimination kernel.

    Every internal node enters, those in no stack with rank 0.  Nodes are
    grouped by level and rank, root first and in node order; within a group
    the children are padded to its largest branch count with a sentinel node
    (id n_nodes) that carries zero weight, so one stacked computation serves
    each group.  The blocks live only stacked in the groups."""

    def __init__(self, tree: EventTree, stacks):
        self.tree = tree
        ranks = np.zeros(tree.n_nodes, dtype=np.int64)
        for nodes, V in stacks:
            ranks[nodes] = V.shape[2]
        first_col = np.cumsum(ranks) - ranks
        self.n_cols = int(ranks.sum())
        self.col_node = np.repeat(np.arange(tree.n_nodes), ranks)
        internal = tree.internal_nodes
        # the (level, rank) pairs in order, each group's nodes in node order
        key = tree.time[internal] * (ranks.max() + 1) + ranks[internal]
        order = np.argsort(key, kind="stable")
        bounds = np.flatnonzero(np.diff(key[order])) + 1
        group, row = np.empty((2, tree.n_nodes), dtype=np.int64)  # a node's group and row
        self.groups = []
        for g, nodes in enumerate(np.split(internal[order], bounds) if len(internal) else []):
            group[nodes], row[nodes] = g, np.arange(len(nodes))
            r = ranks[nodes[0]]
            cols = first_col[nodes, None] + np.arange(r)
            branches = tree.n_children[nodes]
            k = int(branches.max())
            children = tree.first_child[nodes, None] + np.arange(k)
            children[np.arange(k) >= branches[:, None]] = tree.n_nodes
            self.groups.append((nodes, children, cols, np.zeros((len(nodes), k, r))))
        for nodes, V in stacks:
            # a stack's nodes share a rank, so its groups are its levels
            at = group[nodes]
            for g in np.unique(at).tolist() if V.shape[2] else ():
                self.groups[g][3][row[nodes[at == g]], :V.shape[1]] = V[at == g]

    def blocks(self) -> list:
        """The (node, first column, V) blocks of the span, in node order,
        with V unpadded: the input the dense test oracles read."""
        out = []
        for nodes, _children, cols, V in self.groups:
            if cols.shape[1]:
                out += zip(nodes.tolist(), cols[:, 0].tolist(),
                           (v[:k] for v, k in zip(V, self.tree.n_children[nodes].tolist())))
        return sorted(out)

    def payoff_matrix(self) -> np.ndarray:
        """(n_leaves, n_cols) terminal values of the columns: a node's
        column k pays V[r, k] on the leaves below its r-th child."""
        tree = self.tree
        M = np.zeros((tree.n_leaves, self.n_cols))
        row = np.zeros(tree.n_nodes, dtype=np.int64)
        for nodes, children, cols, V in self.groups:
            if cols.shape[1]:
                t = tree.time[nodes[0]]
                row[nodes] = np.arange(len(nodes))
                # the leaves below the group's nodes, their node's row in the
                # group and the branch taken out of it
                below = np.flatnonzero(np.isin(tree.ancestors[:, t], nodes))
                at = row[tree.ancestors[below, t]]
                branch = tree.ancestors[below, t + 1] - children[at, 0]
                M[below[:, None], cols[at]] = V[at, branch]
        return M

    def process(self, coeffs, start=0.0) -> np.ndarray:
        """Node values of start plus the blocks' increments weighted by
        coeffs, down from the root; its leaf values are
        start + self.payoff_matrix() @ coeffs.  Coefficients (n_cols, B)
        give (n_nodes, B) values, a column per column, from a scalar start
        or one start per column."""
        c = _rows(coeffs)
        inc = np.zeros(c.shape[:-1] + (self.tree.n_nodes + 1,))
        for _nodes, children, cols, V in self.groups:
            if cols.shape[1]:
                inc.T[children.T] = (V @ c.take(cols, axis=-1)[..., None])[..., 0].T
        values = self.tree.cumulate(inc[..., :-1].T, _per_row(start, c))
        return _columns(values.T, np.ndim(coeffs) == 2)

    def gradient(self, leaf_values) -> np.ndarray:
        """W.T @ leaf_values for the span's payoff matrix W: each coefficient
        pairs its block column with the subtree totals below the children.
        Leaf values (n_leaves, B) give (n_cols, B)."""
        rows = _rows(leaf_values)
        below = np.zeros(rows.shape[:-1] + (self.tree.n_nodes + 1,))
        below.T[self.tree.leaves] = rows.T
        grad = np.empty(rows.shape[:-1] + (self.n_cols,))
        for nodes, children, cols, V in reversed(self.groups):
            at_children = below.take(children, axis=-1)
            below.T[nodes] = at_children.sum(axis=-1).T
            if cols.shape[1]:
                grad.T[cols.T] = (at_children[..., None, :] @ V)[..., 0, :].T
        return _columns(grad, np.ndim(leaf_values) == 2)

    def solve(self, weights, target, start=None):
        """Minimize sum(weights * (start + M_T - target)**2) over the
        martingales M spanned by the blocks, with M_0 = 0 and the start
        fixed, or free when None.

        Eliminates from the leaves up: the cheapest cost of a node's subtree
        is h·(a - m)² plus a constant in the value a reached at the node.
        At a node whose children carry weights h_i and values m_i, the
        children are fitted by a + V c; h and h·m are the weighted products
        of the residuals left when 1 and m are fitted by V c, which keeps
        them accurate when the weights span many decades.  The node values
        and the coefficients c = beta_m - a·beta_1 are then recovered from
        the root down.  Returns (node values, coefficients, rank_deficient);
        a node whose weighted block is rank deficient takes minimum-norm
        coefficients, and a free start without weight is 0.

        Leaf arrays (n_leaves, B) pose B problems on the plan, one per
        column, solved together: the values are then (n_nodes, B), the
        coefficients (n_cols, B) and rank_deficient one flag per column,
        and a fixed start is a scalar or one value per column.  Each column
        is computed exactly as the one-column problem is."""
        tree = self.tree
        w, t = _rows(weights), _rows(target)
        batch = w.shape[:-1] or t.shape[:-1]
        h = np.zeros(batch + (tree.n_nodes + 1,))
        m = np.zeros(batch + (tree.n_nodes + 1,))
        # scatters go through the transposes, which put the node axis first
        # and leave an unbatched array as it is
        h.T[tree.leaves] = w.T
        m.T[tree.leaves] = t.T
        fits = []
        deficient = np.zeros(batch, dtype=bool)
        for nodes, children, cols, V in reversed(self.groups):
            hc = h.take(children, axis=-1)[..., None]
            Y = np.ones(hc.shape[:-1] + (2,))
            Y[..., 1] = m.take(children, axis=-1)
            if cols.shape[1]:
                beta, bad = _block_fit(V, hc, Y)
                deficient = deficient | bad
                fit = V @ beta
                Y -= fit
                fits.append((beta[..., 0], beta[..., 1], Y[..., 0], fit[..., 1]))
            G = (hc * Y).mT @ Y
            h.T[nodes] = G[..., 0, 0].T
            # a subtree without weight has G = 0 and takes m = 0
            m.T[nodes] = (G[..., 0, 1] / np.maximum(G[..., 0, 0], _TINY)).T

        if start is None:
            # h[0] is rounding noise when the weights fit every payoff
            weightless = ~(h[..., 0] > _EPS * w.sum(axis=-1))
            deficient = deficient | weightless
            start = np.where(weightless, 0.0, m[..., 0])
        values = np.empty(batch + (tree.n_nodes + 1,))
        values[..., 0] = _per_row(start, h)
        coeffs = np.empty(batch + (self.n_cols,))
        for nodes, children, cols, _V in self.groups:
            at = values.take(nodes, axis=-1)[..., None]
            if cols.shape[1]:
                beta_1, beta_m, resid_1, fit_m = fits.pop()
                coeffs.T[cols.T] = (beta_m - at * beta_1).T
                # a + V c for c = beta_m - a·beta_1
                at = at * resid_1 + fit_m
            values.T[children.T] = at.T
        if max(np.ndim(weights), np.ndim(target)) == 2:
            return _columns(values[..., :-1], True), _columns(coeffs, True), deficient.reshape(-1)
        return values[:-1], coeffs, bool(deficient)


def _rows(a) -> np.ndarray:
    """The kernel's layout of a leaf or coefficient array: the columns of an
    (n, B) array become the contiguous rows of a (B, n) array, a single
    column becomes (n,), and an (n,) array or a scalar stays as it is.  With
    the batch axis first, each column's products and sums run on contiguous
    memory in the order the unbatched call runs them, and a one-column call
    is the unbatched call."""
    a = np.asarray(a, dtype=float)
    if a.ndim < 2:
        return a
    return np.ascontiguousarray(a.T if a.shape[1] != 1 else a[:, 0])


def _per_row(value, rows):
    """A scalar, or one value per row of the kernel's (B, n) or (n,) rows,
    shaped to broadcast against a node slice of them."""
    value = np.asarray(value, dtype=float)
    return value.reshape(rows.shape[:-1]) if value.ndim else value


def _columns(a, batched):
    """Kernel rows (B, n) back as (n, B) columns; an unbatched (n,) result
    as (n, 1) for a batched call and as it is otherwise."""
    return a.T if a.ndim == 2 else a[:, None] if batched else a


def _block_fit(V, hc, Y):
    """Per node (and per row of a batch), the coefficients beta minimizing
    sum(hc * (Y - V @ beta)**2) for both columns of Y, and per row whether
    some node's weighted block was rank deficient (that row then takes
    minimum-norm coefficients on the whole group)."""
    if V.shape[2] == 1:
        HV = (hc * V).mT
        S = HV @ V
        weightless = S == 0.0
        return HV @ Y / (S + weightless), weightless.any(axis=(-3, -2, -1))
    # wider blocks: Householder QR with the heaviest rows first, which stays
    # accurate when the weights span many decades
    r = V.shape[2]
    order = np.argsort(-hc, axis=-2)
    VY = np.empty(Y.shape[:-1] + (r + 2,))
    VY[..., :r], VY[..., r:] = V, Y
    A = np.take_along_axis(np.sqrt(hc) * VY, order, axis=-2)
    # R above the diagonal, reflectors below
    R = np.triu(np.linalg.qr(A, mode="raw")[0].mT[..., :r, :])
    # rows without weight leave exact zeros on the diagonal of R
    bad = ~np.diagonal(R, axis1=-2, axis2=-1).all(axis=(-2, -1))
    if not bad.any():
        return np.linalg.solve(R[..., :r], R[..., r:]), bad
    beta = np.empty(Y.shape[:-2] + (r, 2))
    good = ~bad
    beta[good] = np.linalg.solve(R[good][..., :r], R[good][..., r:])
    HV = (hc[bad] * V).mT
    beta[bad] = np.linalg.pinv(HV @ V) @ (HV @ Y[bad])
    return beta, bad
