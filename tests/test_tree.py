import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from numsens.errors import ContractViolationError
from numsens.instances import two_asset_market
from numsens.sensitivity import orthogonal_spans
from numsens.solver import attainable_space
from numsens.tree import (
    AdaptedProcess,
    BlockPlan,
    EventTree,
    PredictableProcess,
    quadratic_covariation,
    stochastic_exponential,
    stochastic_integral,
)

from conftest import make_mixed_tree, make_random_tree
from reference_loops import naive_process_from_coefficients


def trinomial_tree():
    return EventTree([-1, 0, 0, 0], [1.0, 1 / 3, 1 / 3, 1 / 3])


def test_tree_invariants():
    t = trinomial_tree()
    assert t.steps == 1
    assert list(t.leaves) == [1, 2, 3]
    assert abs(t.leaf_prob.sum() - 1.0) < 1e-15
    assert t.time.tolist() == [0, 1, 1, 1]


def test_tree_rejects_bad_probabilities():
    with pytest.raises(ContractViolationError):
        EventTree([-1, 0, 0], [1.0, 0.6, 0.5])       # sums to 1.1
    with pytest.raises(ContractViolationError):
        EventTree([-1, 0, 0], [1.0, -0.1, 1.1])


def test_tree_rejects_ragged_depth():
    # one leaf at depth 1, one path extending to depth 2
    with pytest.raises(ContractViolationError):
        EventTree([-1, 0, 0, 1, 1], [1.0, 0.5, 0.5, 0.5, 0.5])


def test_tree_renormalizes_tiny_drift():
    third = 1 / 3
    t = EventTree([-1, 0, 0, 0], [1.0, third, third, 1 - 2 * third])
    assert abs(t.prob[1:].sum() - 1.0) < 1e-15


def test_single_child_probability_within_tolerance_above_one():
    # a lone child one ulp above 1 is off by less than PROB_TOL, like a
    # sibling sum, and is renormalized; a larger excess is still rejected
    assert EventTree([-1, 0], [1.0, 1.0000000000000002]).prob[1] == 1.0
    with pytest.raises(ContractViolationError, match=r"\(0, 1\]"):
        EventTree([-1, 0], [1.0, 1.0 + 1e-9])


def test_tree_rejects_interleaved_siblings():
    # parents-first and level by level, but node 5 is separated from its sibling 3
    with pytest.raises(ContractViolationError, match="breadth-first"):
        EventTree([-1, 0, 0, 1, 2, 1, 2], [1.0] + [0.5] * 6)


def test_predictable_requires_sibling_equality():
    t = trinomial_tree()
    with pytest.raises(ContractViolationError):
        PredictableProcess(t, np.array([0.0, 1.0, 1.0, 2.0]))
    p = PredictableProcess.from_steps(t, np.array([5.0, 0.0, 0.0, 0.0]))
    assert np.all(p.values[1:] == 5.0)


def test_sibling_check_names_first_offending_parent():
    t = EventTree([-1, 0, 0, 1, 1, 2, 2], [1.0] + [0.5] * 6)
    v = np.zeros((7, 2))
    v[5, 1] = 1.0                      # siblings of node 2 differ
    with pytest.raises(ContractViolationError, match=r"siblings of node 2$"):
        PredictableProcess(t, v)
    v[4, 0] = np.nan                   # now node 1 offends first
    with pytest.raises(ContractViolationError, match=r"siblings of node 1$"):
        PredictableProcess(t, v)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([None, 1, 3]))
def test_from_steps_step_value_round_trip(seed, dim):
    tree = make_mixed_tree(seed)
    rng = np.random.default_rng(seed)
    steps = rng.normal(size=(tree.n_nodes,) if dim is None else (tree.n_nodes, dim))
    p = PredictableProcess.from_steps(tree, steps)
    for node in tree.internal_nodes:
        assert np.array_equal(p.step_value(node), steps[node])


def test_integral_zero_and_telescoping():
    t = trinomial_tree()
    X = AdaptedProcess(t, np.array([0.0, 0.1, 0.0, -0.1]))
    zero = PredictableProcess.from_steps(t, np.zeros(4))
    assert np.all(stochastic_integral(zero, X).values == 0.0)
    one = PredictableProcess.from_steps(t, np.ones(4))
    assert np.allclose(stochastic_integral(one, X).values, X.values, atol=0, rtol=0)


def test_integral_vector_hand_value():
    # two-component integrand (0, 2) against (bank, stock) returns
    t = trinomial_tree()
    R = AdaptedProcess(t, np.array([[0, 0], [0, 0.1], [0, 0.0], [0, -0.1]]))
    H = PredictableProcess.from_steps(t, np.tile([0.0, 2.0], (4, 1)))
    out = stochastic_integral(H, R)
    assert np.allclose(out.terminal, [0.2, 0.0, -0.2], atol=0)


def test_integral_dimension_mismatch():
    t = trinomial_tree()
    R = AdaptedProcess(t, np.zeros((4, 2)))
    H = PredictableProcess.from_steps(t, np.zeros((4, 3)))
    with pytest.raises(ContractViolationError):
        stochastic_integral(H, R)


def test_exponential_examples():
    t = trinomial_tree()
    assert np.all(stochastic_exponential(AdaptedProcess(t, np.zeros(4))).values == 1.0)
    # a -1 jump absorbs at zero
    X = AdaptedProcess(t, np.array([0.0, -1.0, 0.0, 0.0]))
    e = stochastic_exponential(X)
    assert e.values[1] == 0.0
    X2 = AdaptedProcess(t, 0.5 * np.array([0.0, 0.1, 0.0, -0.1]))
    assert np.allclose(stochastic_exponential(X2).terminal, [1.05, 1.0, 0.95], atol=0)
    with pytest.raises(ContractViolationError):
        stochastic_exponential(AdaptedProcess(t, np.ones(4)))


def test_covariation_examples():
    t = trinomial_tree()
    rbar = AdaptedProcess(t, np.array([0.0, -0.1, 0.0, 0.1]))
    zero = AdaptedProcess(t, np.zeros(4))
    assert np.all(quadratic_covariation(rbar, zero).values == 0.0)
    qv = quadratic_covariation(rbar, rbar)
    assert np.allclose(qv.terminal, [0.01, 0.0, 0.01], atol=0)


def _random_scalar_processes(m, seed, k=2):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(k):
        vals = rng.normal(0.0, 0.3, size=m.tree.n_nodes)
        vals[0] = 0.0
        out.append(AdaptedProcess(m.tree, vals))
    return out


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_exponential_product_rule_random(seed):
    m = make_random_tree(seed % 1000, depth=1 + seed % 2)
    X, Y = _random_scalar_processes(m, seed)
    lhs = stochastic_exponential(X).values * stochastic_exponential(Y).values
    rhs = stochastic_exponential(X + Y + quadratic_covariation(X, Y)).values
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_polarization_identity(seed):
    m = make_random_tree(seed % 997, depth=2)
    X, Y = _random_scalar_processes(m, seed + 1)
    lhs = quadratic_covariation(X, Y).values
    s = quadratic_covariation(X + Y, X + Y).values
    a = quadratic_covariation(X, X).values
    b = quadratic_covariation(Y, Y).values
    assert np.max(np.abs(lhs - (s - a - b) / 2.0)) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.floats(-3, 3), st.floats(-3, 3))
def test_integral_bilinearity(seed, a, b):
    m = make_random_tree(seed % 991, depth=1)
    X, Y = _random_scalar_processes(m, seed + 2)
    rng = np.random.default_rng(seed + 3)
    H = PredictableProcess.from_steps(m.tree, rng.normal(size=m.tree.n_nodes))
    K = PredictableProcess.from_steps(m.tree, rng.normal(size=m.tree.n_nodes))
    lin_h = stochastic_integral(a * H + b * K, X).values
    ref_h = a * stochastic_integral(H, X).values + b * stochastic_integral(K, X).values
    assert np.max(np.abs(lin_h - ref_h)) <= 1e-12 * (1 + abs(a) + abs(b))
    lin_x = stochastic_integral(H, X + Y).values
    ref_x = stochastic_integral(H, X).values + stochastic_integral(H, Y).values
    assert np.max(np.abs(lin_x - ref_x)) <= 1e-12


def test_conditional_expectation_and_defect():
    t = EventTree([-1, 0, 0, 1, 1, 2, 2], [1.0, 0.4, 0.6, 0.5, 0.5, 0.25, 0.75])
    w = t.leaf_prob
    z = np.array([1.0, 2.0, 3.0, 4.0])
    vals = t.conditional_expectation(w, z)
    assert abs(vals[0] - w @ z) < 1e-15
    assert t.martingale_defect(vals, w) < 1e-15


# ---------------------------------------------------------------------------
# the two tree passes and the per-node block layout, against naive loops
# ---------------------------------------------------------------------------


def naive_cumulate(tree, inc, start, op):
    out = np.empty_like(inc)
    out[0] = start
    for i in range(1, tree.n_nodes):
        out[i] = op(out[tree.parent[i]], inc[i])
    return out


def naive_aggregate(tree, values):
    out = values.copy()
    for i in range(tree.n_nodes - 1, 0, -1):
        out[tree.parent[i]] += out[i]
    return out


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([None, 1, 3]))
def test_passes_match_naive_loops(seed, dim):
    tree = make_mixed_tree(seed)
    rng = np.random.default_rng(seed)
    shape = (tree.n_nodes,) if dim is None else (tree.n_nodes, dim)
    inc = rng.normal(size=shape)
    start = rng.normal(size=shape[1:])
    for op in (np.add, np.multiply):
        assert np.array_equal(tree.cumulate(inc, start, op), naive_cumulate(tree, inc, start, op))
    values = rng.normal(size=shape)
    assert np.array_equal(tree.aggregate(values), naive_aggregate(tree, values))
    leaf_only = np.zeros(tree.n_nodes)
    leaf_only[tree.leaves] = tree.leaf_prob
    assert np.array_equal(tree.node_mass(tree.leaf_prob), naive_aggregate(tree, leaf_only))


def test_ancestors_and_levels():
    tree = make_mixed_tree(11)
    for j, leaf in enumerate(tree.leaves):
        node = leaf
        for t in range(tree.steps, -1, -1):
            assert tree.ancestors[j, t] == node
            node = tree.parent[node]
    assert np.array_equal(np.concatenate(tree.levels), np.arange(tree.n_nodes))
    for t, nodes in enumerate(tree.levels):
        assert np.all(tree.time[nodes] == t)


def naive_payoff_matrix(tree, blocks, n_cols):
    rows = {int(c): (col, V[r]) for node, col, V in blocks
            for r, c in enumerate(tree.children[node])}
    M = np.zeros((tree.n_leaves, n_cols))
    for j, node in enumerate(tree.leaves):
        while node != 0:
            if node in rows:
                col, row = rows[node]
                M[j, col:col + len(row)] = row
            node = tree.parent[node]
    return M


def _check_blocks(tree, blocks, M, coeffs):
    assert np.array_equal(M, naive_payoff_matrix(tree, blocks, M.shape[1]))
    path = naive_process_from_coefficients(tree, blocks, coeffs, 0.5)
    assert np.max(np.abs(0.5 + M @ coeffs - path[tree.leaves])) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_payoff_matrix_matches_coefficient_process_attainable(seed):
    rng = np.random.default_rng(seed)
    for m in (make_random_tree(seed % 1000, depth=1 + seed % 3), two_asset_market(depth=2)):
        space = attainable_space(m)
        c = rng.normal(size=space.dim)
        _check_blocks(m.tree, space.plan.blocks(), space.W, c)
        assert np.array_equal(space.plan.process(c, 0.5),
                              naive_process_from_coefficients(m.tree, space.plan.blocks(), c, 0.5))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 3))
def test_payoff_matrix_matches_coefficient_process_bases(seed, dim):
    tree = make_mixed_tree(seed)
    rng = np.random.default_rng(seed)
    basis = orthogonal_spans(tree, rng.normal(size=(tree.n_nodes, dim)),
                             rng.uniform(0.5, 1.5) * tree.leaf_prob)
    for plan, M in ((basis.primal_plan, basis.Phi), (basis.dual_plan, basis.Psi)):
        c = rng.normal(size=M.shape[1])
        _check_blocks(tree, plan.blocks(), M, c)
        assert np.array_equal(plan.process(c),
                              naive_process_from_coefficients(tree, plan.blocks(), c))


# ---------------------------------------------------------------------------
# the elimination kernel against dense weighted least squares
# ---------------------------------------------------------------------------


def dense_weighted_lsq(tree, blocks, n_cols, weights, target, start):
    """The oracle: minimize sum(weights * (start + M @ beta - target)**2) on
    the dense payoff matrix M, with a column of ones for a free start
    (None); minimum-norm on rank deficiency.  Returns (leaf values,
    rank_deficient)."""
    M = naive_payoff_matrix(tree, blocks, n_cols)
    shift = 0.0 if start is None else start
    if start is None:
        M = np.column_stack([np.ones(tree.n_leaves), M])
    sw = np.sqrt(weights)
    beta, _, rank, _ = np.linalg.lstsq(M * sw[:, None], (target - shift) * sw, rcond=None)
    return shift + M @ beta, rank < M.shape[1]


def exact_weighted_lsq(tree, blocks, n_cols, weights, target, start):
    """Leaf values of the same dense problem, solved through its normal
    equations at 40 digits (full rank only)."""
    M = naive_payoff_matrix(tree, blocks, n_cols)
    shift = 0.0 if start is None else start
    if start is None:
        M = np.column_stack([np.ones(tree.n_leaves), M])
    if M.shape[1] == 0:
        return np.full(tree.n_leaves, shift)
    to_mp = np.frompyfunc(mpmath.mpf, 1, 1)
    with mpmath.workdps(40):
        A, w, b = to_mp(M), to_mp(weights), to_mp(target - shift)
        normal = mpmath.matrix((A.T @ (A * w[:, None])).tolist())
        beta = mpmath.lu_solve(normal, mpmath.matrix((A.T @ (w * b)).tolist()))
        fitted = A @ np.array(beta.tolist(), dtype=object)[:, 0]
    return shift + fitted.astype(float)


def random_stacks(tree, rng):
    """Stacks of blocks of random rank 0..k-1 (rank 0 for every single-child
    node), one per branch count and rank: orthonormal one-step martingale
    increments, with zero mean under random positive child probabilities q,
    so that a constant start stays apart from every span as it does on a
    market."""
    stacks = []
    for k, (nodes, _) in tree.branch_groups.items():
        ranks = rng.integers(0, k, size=len(nodes))
        for r in np.unique(ranks[ranks > 0]).tolist():
            at = nodes[ranks == r]
            q = rng.dirichlet(np.ones(k), size=len(at))[:, None, :]
            A = rng.normal(size=(len(at), k, r))
            stacks.append((at, np.linalg.qr(A - q @ A)[0]))
    return stacks


def _elimination_case(seed, kind):
    rng = np.random.default_rng(seed)
    if kind == "trinomial":
        m = make_random_tree(seed % 1000, depth=1 + seed % 4)
        return m.tree, attainable_space(m).plan, rng
    if kind == "two-asset":
        m = two_asset_market(depth=2)
        return m.tree, attainable_space(m).plan, rng
    tree = make_mixed_tree(seed)
    stacks = random_stacks(tree, rng)
    plan = BlockPlan(tree, stacks)
    # the plan keeps each block as given and numbers the columns in node order
    given = {int(node): V for nodes, Vs in stacks for node, V in zip(nodes, Vs)}
    blocks, col = plan.blocks(), 0
    assert [node for node, _, _ in blocks] == sorted(given)
    for node, first, V in blocks:
        assert first == col and np.array_equal(V, given[node])
        col += V.shape[1]
    assert col == plan.n_cols
    return tree, plan, rng


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(["trinomial", "two-asset", "bases"]))
def test_plan_from_one_stack_per_node_matches_producers(seed, kind):
    rng = np.random.default_rng(seed)
    if kind == "bases":
        tree = make_mixed_tree(seed)
        basis = orthogonal_spans(tree, rng.normal(size=(tree.n_nodes, 1 + seed % 3)),
                                 rng.uniform(0.5, 1.5) * tree.leaf_prob)
        plans = [basis.primal_plan, basis.dual_plan]
    else:
        m = make_random_tree(seed % 1000, depth=1 + seed % 4) if kind == "trinomial" \
            else two_asset_market(depth=2)
        tree, plans = m.tree, [attainable_space(m).plan]
    for plan in plans:
        single = BlockPlan(tree, [(np.array([node]), V[None]) for node, _, V in plan.blocks()])
        assert single.n_cols == plan.n_cols
        assert np.array_equal(single.col_node, plan.col_node)
        assert len(single.groups) == len(plan.groups)
        for got, want in zip(single.groups, plan.groups):
            assert all(np.array_equal(a, b) and a.shape == b.shape for a, b in zip(got, want))
        weights = rng.uniform(0.5, 2.0, tree.n_leaves)
        target = rng.normal(size=tree.n_leaves)
        c = rng.normal(size=plan.n_cols)
        for start in (None, 0.25):
            for a, b in zip(single.solve(weights, target, start), plan.solve(weights, target, start)):
                assert np.array_equal(a, b)
        assert np.array_equal(single.process(c, 0.5), plan.process(c, 0.5))
        assert np.array_equal(single.gradient(target), plan.gradient(target))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(["trinomial", "two-asset", "random-blocks"]),
       st.sampled_from(["narrow", "wide", "zero-subtree"]), st.booleans())
def test_elimination_matches_dense_oracle(seed, kind, spread, free_start):
    tree, plan, rng = _elimination_case(seed, kind)
    blocks = plan.blocks()
    L = tree.n_leaves
    if spread == "wide":
        # leaf weights spanning 12 decades
        weights = np.logspace(-12.0, 0.0, L)[rng.permutation(L)]
    else:
        weights = rng.uniform(0.5, 2.0, L)
    if spread == "zero-subtree":
        # no weight below the first child of some internal node
        node = int(rng.choice(tree.internal_nodes))
        child = tree.children[node][0]
        weights[tree.ancestors[:, tree.time[child]] == child] = 0.0
    target = rng.normal(size=L)
    start = None if free_start else float(rng.normal())

    values, coeffs, deficient = plan.solve(weights, target, start)
    got = values[tree.leaves]
    dense, dense_deficient = dense_weighted_lsq(tree, blocks, plan.n_cols, weights, target, start)
    assert deficient == dense_deficient
    # float64 lstsq itself drifts from the exact values by up to ~1e-9 on
    # wide weights or near-parallel moves; compare with the exact solve
    # whenever it exists
    want = dense if deficient else exact_weighted_lsq(
        tree, blocks, plan.n_cols, weights, target, start)
    scale = max(1.0, np.max(np.abs(want)))
    # values without weight are extrapolations, as ill-conditioned as the
    # blocks that carry them, and a rank-deficient problem leaves them open
    # (the kernel's per-node minimum norm is not the oracle's global one)
    seen = weights > 0.0
    assert np.max(np.abs(got - want)[seen], initial=0.0) <= 1e-12 * scale
    shift = 0.0 if start is None else start
    objective_scale = weights @ (target - shift) ** 2
    assert abs(weights @ (got - target) ** 2 - weights @ (want - target) ** 2) \
        <= 1e-12 * objective_scale
    # the node values are the process the coefficients generate
    assert np.max(np.abs(values - plan.process(coeffs, values[0]))) <= 1e-12 * scale
    g = rng.normal(size=L)
    W = naive_payoff_matrix(tree, blocks, plan.n_cols)
    assert np.max(np.abs(plan.gradient(g) - W.T @ g), initial=0.0) \
        <= 1e-12 * max(1.0, np.max(np.abs(W.T @ g), initial=0.0))


# ---------------------------------------------------------------------------
# the batch axis: B problems on one plan, one per column
# ---------------------------------------------------------------------------


def four_branch_plan(rng, depth=2):
    """A tree with four children at every node and random orthonormal
    rank-2 blocks: every group takes the QR branch."""
    parent, level = [-1], [0]
    for _ in range(depth):
        parent += [node for node in level for _ in range(4)]
        level = list(range(len(parent) - 4 * len(level), len(parent)))
    tree = EventTree(parent, [1.0] + [0.25] * (len(parent) - 1))
    stacks = [(nodes, np.linalg.qr(rng.normal(size=(len(nodes), 4, 2)))[0])
              for nodes, _ in tree.branch_groups.values()]
    return tree, BlockPlan(tree, stacks)


def _batch_case(kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "four-branch":
        return (*four_branch_plan(rng), rng)
    m = make_random_tree(seed, depth=1 + seed % 4) if kind == "trinomial" \
        else two_asset_market(depth=2)
    return m.tree, attainable_space(m).plan, rng


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("kind", ["trinomial", "two-asset", "four-branch"])
def test_each_batch_column_is_the_one_column_call(kind, seed):
    tree, plan, rng = _batch_case(kind, seed)
    L, B = tree.n_leaves, 5
    weights = rng.uniform(0.5, 2.0, (L, B))
    # weights spanning 12 decades
    weights[:, 1] = np.logspace(-12.0, 0.0, L)[rng.permutation(L)]
    # no weight below one node's children: its weighted block is rank
    # deficient (the pinv fallback on a wide block) in this column alone
    node = int(tree.internal_nodes[-1])
    weights[np.isin(tree.leaves, tree.children[node]), 2] = 0.0
    # a column without weight: a free start is 0 there
    weights[:, 3] = 0.0
    target = rng.normal(size=(L, B))
    for start in (None, 0.25, rng.normal(size=B)):
        values, coeffs, deficient = plan.solve(weights, target, start)
        assert values.shape == (tree.n_nodes, B) and coeffs.shape == (plan.n_cols, B)
        assert deficient.tolist() == [False, False, True, True, False]
        if start is None:
            assert values[0, 3] == 0.0
        for j in range(B):
            one = plan.solve(weights[:, j], target[:, j],
                             start if np.ndim(start) == 0 else start[j])
            assert np.array_equal(values[:, j], one[0])
            assert np.array_equal(coeffs[:, j], one[1])
            assert deficient[j] == one[2] and isinstance(one[2], bool)
    c = rng.normal(size=(plan.n_cols, B))
    starts = rng.normal(size=B)
    nodes, grad = plan.process(c, starts), plan.gradient(target)
    assert nodes.shape == (tree.n_nodes, B) and grad.shape == (plan.n_cols, B)
    for j in range(B):
        assert np.array_equal(nodes[:, j], plan.process(c[:, j], starts[j]))
        assert np.array_equal(grad[:, j], plan.gradient(target[:, j]))

