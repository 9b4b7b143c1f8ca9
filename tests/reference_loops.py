"""Per-node reference implementations of the stacked tree passes.

Each function walks the internal nodes (or their children) one at a time,
as the library did before its passes were stacked over sibling groups.
They are slow and obviously correct, and serve as oracles in
`test_stacked_passes.py` and `test_tree.py`.  `naive_dual_value` is the
campaign's dual re-solve as it was before its bracket was seeded, the
oracle of `test_harness.py`.  `naive_complete_tree_terminal` is the
closed-form solve of a complete tree (pricing weights and a budget
root-find) that the library ran beside Newton before every tree went
through one solver, the oracle of `test_complete_trees.py`."""

import math

import numpy as np
from scipy.optimize import brentq

from numsens.errors import InvariantViolationError, RepresentationError
from numsens.market import numeraire, perturbed_prices
from numsens.solver import solve_dual, solve_primal
from numsens.strategy import discount_direction


def naive_time(parent):
    time = np.zeros(len(parent), dtype=np.int64)
    for i in range(1, len(parent)):
        time[i] = time[parent[i]] + 1
    return time


def naive_renormalized_prob(tree, prob):
    out = np.asarray(prob, dtype=float).copy()
    out[0] = 1.0
    for node in tree.internal_nodes:
        c = tree.children[node]
        out[c] /= out[c].sum()
    return out


def naive_martingale_defect(tree, values, leaf_weights):
    mass = tree.node_mass(leaf_weights)
    worst = 0.0
    for node in tree.internal_nodes:
        c = tree.children[node]
        w = mass[c] / mass[node]
        worst = max(worst, abs(float(w @ values[c]) - values[node]))
    return worst


def naive_process_from_coefficients(tree, blocks, coeffs, start=0.0):
    inc = np.zeros(tree.n_nodes)
    for node, col, V in blocks:
        inc[tree.children[node]] = V @ coeffs[col:col + V.shape[1]]
    return tree.cumulate(inc, start)


def naive_verify_deflator(m, eps, Yv):
    """(max violation, worst node, number of inequalities)."""
    tree = m.tree
    S = perturbed_prices(m, eps).values
    worst, worst_node, checks = 0.0, -1, 0
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
    return worst, worst_node, checks


def naive_characteristics(m):
    """(B values, node -> (child probabilities, jumps))."""
    tree = m.tree
    dR = m.returns.increments()
    B = np.zeros((tree.n_nodes, m.d + 1))
    comp = {}
    for node in tree.internal_nodes:
        ch = tree.children[node]
        w = tree.prob[ch]
        jumps = dR[ch]
        small = np.linalg.norm(jumps, axis=1) <= 1.0
        dB = w[small] @ jumps[small] if np.any(small) else np.zeros(m.d + 1)
        comp[int(node)] = (w.copy(), jumps.copy())
        B[ch] = B[node] + dB
    return B, comp


def naive_reassemble_returns(m, B, comp):
    tree = m.tree
    dR = m.returns.increments()
    dim = m.d + 1
    vals = np.zeros((tree.n_nodes, dim))
    dB = np.zeros_like(B)
    dB[1:] = B[1:] - B[tree.parent[1:]]
    for node in tree.internal_nodes:
        w, jumps = comp[int(node)]
        small = np.linalg.norm(jumps, axis=1) <= 1.0
        compensator = w[small] @ jumps[small] if np.any(small) else np.zeros(dim)
        for c in tree.children[node]:
            j = dR[c]
            nj = np.linalg.norm(j)
            small_part = j if nj <= 1.0 else np.zeros(dim)
            large_part = j if nj > 1.0 else np.zeros(dim)
            vals[c] = vals[node] + dB[c] + (small_part - compensator) + large_part
    return vals


def naive_truncate_localize(vals, tree, n):
    """(values, value stop nodes, quadratic-variation stop nodes)."""
    stage1 = vals.copy()
    alive = np.ones(tree.n_nodes, dtype=bool)
    vstops = []
    for node in tree.internal_nodes:
        ch = tree.children[node]
        if not alive[node]:
            alive[ch] = False
            stage1[ch] = stage1[node]
        elif np.max(np.abs(vals[ch])) > n:
            vstops.append(int(node))
            alive[ch] = False
            stage1[ch] = stage1[node]
        else:
            stage1[ch] = vals[ch]

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
    return out, tuple(vstops), tuple(qstops)


def naive_represent_martingale(Mv, m, pi_hat, tol=1e-10):
    """(step integrands (n_nodes, d+1), largest relative residual); raises
    RepresentationError at the first node whose increments leave the span."""
    tree = m.tree
    dRpi = discount_direction(m, pi_hat).increments()
    dM = np.zeros(tree.n_nodes)
    dM[1:] = Mv[1:] - Mv[tree.parent[1:]]
    steps = np.zeros((tree.n_nodes, m.d + 1))
    worst = 0.0
    for node in tree.internal_nodes:
        ch = tree.children[node]
        D = dRpi[ch, 1:]
        target = dM[ch]
        sol = np.linalg.lstsq(D, target, rcond=None)[0]
        resid = float(np.max(np.abs(D @ sol - target))) / max(1.0, float(np.max(np.abs(target))))
        if resid > tol:
            raise RepresentationError(f"martingale increment at node {node} is not attainable")
        worst = max(worst, resid)
        steps[node, 1:] = sol
    return steps, worst


def naive_proportions(tree, wealth, returns):
    """Step proportions (n_nodes, d+1), bank first; raises
    InvariantViolationError at the first node off the traded span."""
    dRet = returns.increments()
    Wv = wealth.values
    steps = np.zeros((tree.n_nodes, returns.values.shape[1]))
    for node in tree.internal_nodes:
        ch = tree.children[node]
        D = dRet[ch, 1:] - dRet[ch, :1]
        target = Wv[ch] / Wv[node] - 1.0 - dRet[ch, 0]
        sol = np.linalg.lstsq(D, target, rcond=None)[0]
        if np.max(np.abs(D @ sol - target)) > 1e-8 * max(1.0, np.max(np.abs(target))):
            raise InvariantViolationError(f"wealth increments leave the traded span at node {node}")
        steps[node, 1:] = sol
        steps[node, 0] = 1.0 - sol.sum()
    return steps


def naive_hedge_split(basis, P):
    """(M values, N values, orthogonality defect) of the GKW projection."""
    tree = basis.tree
    span_at = {node: V for node, _, V in basis.primal_plan.blocks()}
    Mv = np.zeros(tree.n_nodes)
    Nv = np.zeros(tree.n_nodes)
    defect = 0.0
    for node in tree.internal_nodes:
        ch = tree.children[node]
        w = basis.child_weights[ch]
        dP = P[ch] - P[node]
        V = span_at.get(int(node))
        if V is None:
            proj = np.zeros(len(ch))
        else:
            Gram = (V * w[:, None]).T @ V
            proj = V @ np.linalg.solve(Gram, (V * w[:, None]).T @ dP)
        Mv[ch] = Mv[node] - proj
        Nv[ch] = Nv[node] - (dP - proj)
        defect = max(defect, abs(float((w * proj) @ (dP - proj))))
    return Mv, Nv, defect


def naive_first_negative(tree, N):
    """(scenario weight, value) of the first negative unit value at date 2,
    scanning the date-1 nodes in order, or None."""
    first = [nd for nd in tree.internal_nodes if tree.time[nd] == 1]
    for n, node in enumerate(first, start=1):
        for child in tree.children[node]:
            if N[child] < 0.0:
                return n, float(N[child])
    return None


def naive_dual_value(m, utility, x, yt, eps):
    """(v(yt, eps), number of primal solves): the primal re-solved at the
    wealth whose marginal is yt, bracketed from x by halving and doubling,
    then `brentq` and the dual at the root, each wealth solved once."""
    solved = {}

    def marg(xx):
        if xx not in solved:
            solved[xx] = solve_primal(m, utility, xx, eps)
        return solved[xx].marginal - yt

    lo = hi = x
    for _ in range(200):
        if marg(lo) >= 0.0:
            break
        lo *= 0.5
    for _ in range(200):
        if marg(hi) <= 0.0:
            break
        hi *= 2.0
    xs = x if lo == hi else brentq(marg, lo, hi, xtol=1e-15, rtol=8.9e-16)
    marg(xs)
    return solve_dual(solved[xs]).value, len(solved)


def naive_pricing_weights(m):
    """Leaf weights of the unique pricing measure of a complete tree: at each
    node, the one-step weights orthogonal to its block of the attainable
    space, normalized to sum to one, multiplied down the tree."""
    tree = m.tree
    q_child = np.ones(tree.n_nodes)
    blocks = {node: V for node, _, V in m.space.plan.blocks()}
    for node in tree.internal_nodes.tolist():
        ch = tree.children[node]
        V = blocks.get(node)
        rank = 0 if V is None else V.shape[1]
        if rank != len(ch) - 1:
            raise InvariantViolationError(f"node {node} is not complete")
        if rank:
            q = np.linalg.svd(V, full_matrices=True)[0][:, rank]
            q = q / q.sum()
            if np.any(q <= 0.0):
                raise InvariantViolationError(f"pricing weights not positive at node {node}")
            q_child[ch] = q
    return tree.cumulate(q_child, 1.0, np.multiply)[tree.leaves]


def naive_complete_tree_terminal(m, utility, x, eps):
    """Leaf wealth Z, in unperturbed units, of the optimum on a complete
    tree: Z = N·I(lam·Q·N/p) with the multiplier lam from a budget
    root-find on Q·Z = x, polished by four Newton steps on the budget."""
    Ql = naive_pricing_weights(m)
    p = m.tree.leaf_prob
    Nl = numeraire(m, eps).values[m.tree.leaves]

    def wealth(lam):
        return Nl * utility.inverse_marginal(lam * Ql * Nl / p)

    def budget(lam_log):
        return float(Ql @ wealth(math.exp(lam_log))) - x

    lo = hi = math.log(float(utility.du(x)))
    for _ in range(200):
        if budget(lo) > 0.0:
            break
        lo -= 2.0
    for _ in range(200):
        if budget(hi) < 0.0:
            break
        hi += 2.0
    lam = math.exp(brentq(budget, lo, hi, xtol=1e-15, rtol=8.9e-16, maxiter=300))
    for _ in range(4):
        Z = wealth(lam)
        slope = float(Ql @ (Nl * (Ql * Nl / p) / utility.d2u(Z / Nl)))
        if slope == 0.0:
            break
        lam -= (float(Ql @ Z) - x) / slope
    return wealth(lam)
