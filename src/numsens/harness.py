"""Batch driver: campaigns over perturbation grids, counterexample
reproductions, and deterministic report emission.

Reports are value tables with a pass flag per check; emission is
byte-deterministic (fixed ordering, 17-significant-digit numbers, no
timestamps), and a report fails exactly when one of its checks does.
Asymptotic claims are tested as monotone residual-ratio decay on dyadic
grids with a solver-tolerance floor, since no single grid point can
witness a little-o statement.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

from .errors import AdmissibilityError, ContractViolationError
from .instances import binomial_walk_market, three_time_jump_market
from .market import (
    MarketModel,
    canonical_text,
    market_to_obj,
    numeraire,
    perturbation_statistics,
)
from .preferences import Utility, log_utility, power_utility
from .risktol import gkw_decompose, hessian_from_gkw, recovery_residual, risk_tolerance
from .sensitivity import ExpansionReport, aux_relation_report, expansion_report
from .solver import (
    AttainableSpace,
    Optimum,
    attainable_space,
    solve_dual,
    solve_pair,
    solve_primal,
    verify_deflator,
)
from .strategy import (
    build_strategy_kit,
    characteristics,
    discount_direction,
    perturbed_return_direction,
    reassemble_returns,
)
from .tree import (
    AdaptedProcess,
    PredictableProcess,
    quadratic_covariation,
    stochastic_exponential,
    stochastic_integral,
)

DEFAULT_FLOOR = 1e-9


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


@dataclass(frozen=True)
class Check:
    name: str
    anchor: str
    computed: float
    reference: float
    residual: float
    passed: bool
    note: str = ""


@dataclass
class Report:
    title: str
    metadata: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)

    def add(self, name, anchor, computed, reference, residual, passed, note=""):
        self.checks.append(Check(name, anchor, float(computed), float(reference),
                                 float(residual), bool(passed), note))

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def extend(self, other: "Report"):
        self.checks.extend(other.checks)
        for k, v in other.metadata.items():
            self.metadata.setdefault(k, v)

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["name", "anchor", "computed", "reference", "residual", "passed", "note"])
        for c in self.checks:
            w.writerow([c.name, c.anchor, _fmt(c.computed), _fmt(c.reference),
                        _fmt(c.residual), _fmt(c.passed), c.note])
        return buf.getvalue()

    def to_text(self) -> str:
        lines = ["{", f'  "title": "{self.title}",', '  "metadata": {']
        meta = sorted(self.metadata.items())
        for i, (k, v) in enumerate(meta):
            comma = "," if i + 1 < len(meta) else ""
            if isinstance(v, str):
                lines.append(f'    "{k}": "{v}"{comma}')
            else:
                lines.append(f'    "{k}": {_fmt(v)}{comma}')
        lines.append('  },')
        lines.append('  "checks": [')
        for i, c in enumerate(self.checks):
            comma = "," if i + 1 < len(self.checks) else ""
            lines.append('    {"name": "%s", "anchor": "%s", "computed": %s, '
                         '"reference": %s, "residual": %s, "passed": %s, "note": "%s"}%s'
                         % (c.name, c.anchor, _fmt(c.computed), _fmt(c.reference),
                            _fmt(c.residual), _fmt(c.passed), c.note, comma))
        lines.append("  ]")
        lines.append("}")
        return "\n".join(lines) + "\n"


def emit(report: Report, path, fmt: str = "csv") -> bool:
    """Write the report; returns True iff every check passed."""
    if fmt == "csv":
        payload = report.to_csv()
    elif fmt == "text":
        payload = report.to_text()
    else:
        raise ContractViolationError(f"unknown report format {fmt!r}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(payload)
    return report.all_passed


def _pmap(fn, items, workers: int = 4):
    """Order-preserving parallel map over pure tasks."""
    items = list(items)
    if len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=min(workers, len(items))) as pool:
        return list(pool.map(fn, items))


def model_digest(m: MarketModel, utility: Utility = None) -> str:
    return hashlib.sha256(canonical_text(market_to_obj(m, utility)).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# campaigns
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Campaign:
    model: MarketModel
    utility: Utility
    x: float
    dx_grid: tuple
    eps_grid: tuple
    n_budget: int = 64
    floor: float = DEFAULT_FLOOR
    tol: float = 1e-8
    # the expansion residual ratio tends to 2 (from either side) at finite
    # radius; 1.8 is the same slack the optimizer-derivative decay uses
    expansion_decay: float = 1.8
    strategy_decay: float = 2.0
    checks: tuple = ("expansion", "strategy")

    def __post_init__(self):
        if len(self.dx_grid) != len(self.eps_grid):
            raise ContractViolationError("dx and eps grids must pair up")
        if self.floor <= 0.0 or self.tol <= 0.0:
            raise ContractViolationError("tolerances must be positive")
        for dx, e in zip(self.dx_grid, self.eps_grid):
            if self.x + dx <= 0.0 or abs(e) >= self.model.eps0:
                raise ContractViolationError(
                    f"grid point (dx={dx!r}, eps={e!r}) outside the admissibility region"
                )
            if dx == 0.0 and e == 0.0:
                raise ContractViolationError("grid points must have a nonzero radius")

    @property
    def radii(self):
        return [math.hypot(dx, e) for dx, e in zip(self.dx_grid, self.eps_grid)]


def dyadic_campaign(model, utility, x, k_range=range(3, 9), direction=(1.0, 1.0), **kw) -> Campaign:
    dxs = tuple(direction[0] * 2.0**-k for k in k_range)
    eps = tuple(direction[1] * 2.0**-k for k in k_range)
    return Campaign(model=model, utility=utility, x=x, dx_grid=dxs, eps_grid=eps, **kw)


def _decay_check(report, name, anchor, residuals, radii, factor, floor, note=""):
    """Residuals must shrink by `factor` per radius halving until below the
    floor; pairs already at the floor are exempt."""
    worst = math.inf
    tested = 0
    for k in range(len(residuals) - 1):
        a, b = abs(residuals[k]), abs(residuals[k + 1])
        if math.isnan(a) or math.isnan(b):
            continue
        if b <= floor:
            break
        tested += 1
        worst = min(worst, a / b)
    passed = tested == 0 or worst >= factor
    report.add(name, anchor, worst if tested else math.inf, factor,
               0.0 if passed else factor - worst, passed,
               note or f"{tested} ratio(s) above floor {floor:g}")


def run_campaign(c: Campaign) -> Report:
    """Dispatch the campaign's selected checks into one report; the base
    space, optimum and expansion are computed once and shared."""
    rep = Report(title="campaign")
    if not {"expansion", "strategy"} & set(c.checks):
        return rep
    m, u, x = c.model, c.utility, c.x
    space = attainable_space(m)
    opt = solve_pair(m, u, x, 0.0, space=space)
    base = {"space": space, "optimum": opt, "expansion": expansion_report(m, u, x, optimum=opt)}
    if "expansion" in c.checks:
        rep.extend(run_expansion_campaign(c, **base))
    if "strategy" in c.checks:
        rep.extend(run_strategy_campaign(c, **base))
    return rep


def run_expansion_campaign(c: Campaign, *, space: AttainableSpace = None,
                           optimum: Optimum = None,
                           expansion: ExpansionReport = None) -> Report:
    """Quadratic-expansion verification of both value functions against
    exact re-solves, plus the first-order (envelope) finite-difference check.
    The base space, optimum and expansion are computed when not supplied."""
    m, u, x = c.model, c.utility, c.x
    rep = Report(title="expansion-campaign",
                 metadata={"model": model_digest(m, u), "x": x,
                           "grid_points": len(c.dx_grid)})
    if space is None:
        space = attainable_space(m)
    opt = optimum if optimum is not None else solve_pair(m, u, x, 0.0, space=space)
    ex = expansion if expansion is not None else expansion_report(m, u, x, optimum=opt)
    y = opt.y
    u0, v0 = opt.primal.value, opt.dual.value

    # envelope: central differences of the value in the perturbation size
    target = ex.gradient_u[1]
    errs = []
    base = min(1e-2, 0.25 * m.eps0)
    for h in (base, base / 10.0, base / 100.0):
        fd = (solve_primal(m, u, x, h, space=space).value
              - solve_primal(m, u, x, -h, space=space).value) / (2 * h)
        errs.append(abs(fd - target))
    ok = errs[2] <= 1e-7 and all(
        errs[i] / max(errs[i + 1], 1e-16) >= 50.0 or errs[i + 1] <= 1e-12
        for i in range(2))
    rep.add("envelope-gradient", "value-gradient-envelope", errs[2], 0.0, errs[2], ok,
            "fd errors " + ",".join(_fmt(e) for e in errs))

    def u_point(pt):
        dx, e = pt
        try:
            exact = solve_primal(m, u, x + dx, e, space=space).value
        except AdmissibilityError as err:
            return None, str(err)
        return exact, ""

    points = list(zip(c.dx_grid, c.eps_grid))
    exact_u = _pmap(u_point, points)
    resid_u = []
    for (dx, e), (exact, note) in zip(points, exact_u):
        if exact is None:
            rep.add("u-resolve", "quadratic-expansion-primal", math.nan, math.nan,
                    math.nan, True, f"skipped: {note}")
            resid_u.append(math.nan)
            continue
        step = np.array([dx, e])
        quad = u0 + ex.gradient_u @ step + 0.5 * step @ ex.hessian_u @ step
        r = abs(exact - quad) / (dx * dx + e * e)
        resid_u.append(r)
        rep.add(f"u-quad-residual@{math.hypot(dx, e):.6g}", "quadratic-expansion-primal",
                r, 0.0, r, True)
    _decay_check(rep, "u-expansion-decay", "quadratic-expansion-primal",
                 resid_u, c.radii, c.expansion_decay, c.floor)

    def v_point(pt):
        dy, e = pt
        yt = y + dy
        # the bracketing, brentq and the dual at the root revisit the same
        # wealths: solve each one once
        solved = {}

        def primal_at(xx):
            if xx not in solved:
                solved[xx] = solve_primal(m, u, xx, e, space=space)
            return solved[xx]

        try:
            def marg(xx):
                return primal_at(xx).marginal - yt
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
            return solve_dual(m, u, xs, e, primal=primal_at(xs)).value, ""
        except AdmissibilityError as err:
            return None, str(err)

    exact_v = _pmap(v_point, points)
    resid_v = []
    for (dy, e), (exact, note) in zip(points, exact_v):
        if exact is None:
            resid_v.append(math.nan)
            continue
        step = np.array([dy, e])
        quad = v0 + ex.gradient_v @ step + 0.5 * step @ ex.hessian_v @ step
        r = abs(exact - quad) / (dy * dy + e * e)
        resid_v.append(r)
        rep.add(f"v-quad-residual@{math.hypot(dy, e):.6g}", "quadratic-expansion-dual",
                r, 0.0, r, True)
    _decay_check(rep, "v-expansion-decay", "quadratic-expansion-dual",
                 resid_v, c.radii, c.expansion_decay, c.floor)

    rel = aux_relation_report(ex)
    rep.add("aux-value-identities", "aux-cross-identities",
            float(np.max(np.abs(rel.value_identities))), 0.0,
            float(np.max(np.abs(rel.value_identities))),
            float(np.max(np.abs(rel.value_identities))) <= c.tol)
    rep.add("aux-optimizer-relations", "aux-cross-identities",
            max(rel.primal_optimizer, rel.dual_optimizer), 0.0,
            max(rel.primal_optimizer, rel.dual_optimizer),
            max(rel.primal_optimizer, rel.dual_optimizer) <= c.tol)
    rep.add("aux-product-martingales", "aux-cross-identities",
            rel.product_martingale, 0.0, rel.product_martingale,
            rel.product_martingale <= c.tol)
    return rep


def run_strategy_campaign(c: Campaign, *, space: AttainableSpace = None,
                          optimum: Optimum = None,
                          expansion: ExpansionReport = None) -> Report:
    """Second-order value matching of the constructed wealth processes with
    automatic level selection, plus proportion round-trip and admissibility.
    The base space, optimum and expansion are computed when not supplied."""
    m, u, x = c.model, c.utility, c.x
    rep = Report(title="strategy-campaign",
                 metadata={"model": model_digest(m, u), "x": x,
                           "grid_points": len(c.dx_grid)})
    if space is None:
        space = attainable_space(m)
    kit = build_strategy_kit(m, u, x, optimum=optimum, expansion=expansion, space=space)

    residuals, levels = [], []
    for dx, e in zip(c.dx_grid, c.eps_grid):
        n = kit.select_level(dx, e, budget=c.n_budget)
        levels.append(n)
        r = kit.value_residual(dx, e, n)
        residuals.append(r)
        rep.add(f"match-residual@{math.hypot(dx, e):.6g}", "second-order-value-matching",
                r, 0.0, abs(r), True, f"level {n}")
    _decay_check(rep, "match-residual-decay", "second-order-value-matching",
                 residuals, c.radii, c.strategy_decay, c.floor)
    rep.add("selected-levels-monotone", "level-selection-rule",
            float(levels[-1]), float(levels[0]), 0.0,
            all(levels[i] <= levels[i + 1] for i in range(len(levels) - 1)),
            "levels " + ",".join(str(n) for n in levels))

    dx, e = c.dx_grid[0], c.eps_grid[0]
    n = levels[0]
    X = kit.nearly_optimal_wealth(dx, e, n)
    props = kit.proportions(dx, e, n)
    Re = perturbed_return_direction(m, e)
    regen = (x + dx) * stochastic_exponential(stochastic_integral(props, Re)).values
    rt_err = float(np.max(np.abs(regen - X.values) / np.abs(X.values)))
    rep.add("proportion-roundtrip", "proportion-map", rt_err, 0.0, rt_err, rt_err <= 1e-10)

    N = numeraire(m, e)
    transported = X.values * N.values
    g0, g1, _, _ = kit.level_data(n)
    w = kit.pi_hat.values + dx * g0.values + e * g1.values
    base = (x + dx) * stochastic_exponential(
        stochastic_integral(PredictableProcess(m.tree, w), m.returns)).values
    tr_err = float(np.max(np.abs(transported - base) / np.abs(base)))
    rep.add("transport-membership", "admissible-set-transport", tr_err, 0.0, tr_err,
            tr_err <= 1e-10 and bool(np.all(X.values > 0.0)))
    return rep


# ---------------------------------------------------------------------------
# single-solve and risk-tolerance reports
# ---------------------------------------------------------------------------


def solve_report(m: MarketModel, utility: Utility, x: float, eps: float = 0.0, *,
                 optimum: Optimum = None) -> Report:
    """Checks of the pair solved at (x, eps), or of the supplied optimum
    solved there."""
    rep = Report(title="solve",
                 metadata={"model": model_digest(m, utility), "x": x, "eps": eps})
    pair = optimum if optimum is not None else solve_pair(m, utility, x, eps)
    rep.add("primal-value", "expected-utility-optimum", pair.primal.value, math.nan,
            0.0, True)
    rep.add("marginal-value", "envelope-marginal", pair.primal.marginal, math.nan, 0.0, True)
    rep.add("dual-value", "conjugate-optimum", pair.dual.value, math.nan, 0.0, True)
    rep.add("first-order-conditions", "interior-optimality", pair.primal.foc_residual,
            0.0, pair.primal.foc_residual, pair.primal.foc_residual <= 1e-10)
    rep.add("conjugacy-gap", "value-conjugacy", pair.dual.conjugacy_residual, 0.0,
            pair.dual.conjugacy_residual, pair.dual.conjugacy_residual <= 1e-10)
    dr = verify_deflator(m, eps, pair.dual.deflator)
    rep.add("deflator-supermartingale", "dual-domain-membership", dr.max_violation, 0.0,
            dr.max_violation, dr.max_violation <= 1e-10,
            f"{dr.checks} one-step inequalities")
    if eps == 0.0:
        wsum = float(np.sum(pair.r_weights))
        rep.add("pricing-weights-total", "pricing-measure", wsum, 1.0,
                abs(wsum - 1.0), abs(wsum - 1.0) <= 1e-12)
    return rep


def risk_tolerance_report(m: MarketModel, utility: Utility, x: float,
                          tol: float = 1e-8, *, space: AttainableSpace = None,
                          optimum: Optimum = None,
                          expansion: ExpansionReport = None) -> Report:
    """Orthogonal-decomposition cross-check of the mixed second-order
    coefficients.  The base space, optimum and expansion are computed when
    not supplied."""
    rep = Report(title="risk-tolerance",
                 metadata={"model": model_digest(m, utility), "x": x})
    if space is None:
        space = attainable_space(m)
    opt = optimum if optimum is not None else solve_pair(m, utility, x, 0.0, space=space)
    rt = risk_tolerance(m, utility, x, optimum=opt, space=space)
    rep.add("replicable", "risk-tolerance-replication", 1.0 if rt.exists else 0.0,
            math.nan, rt.certificate, True,
            f"certificate {_fmt(rt.certificate)}")
    if not rt.exists:
        return rep
    rep.add("initial-capital", "risk-tolerance-replication", rt.initial, math.nan, 0.0, True)
    ex = expansion if expansion is not None else expansion_report(m, utility, x, optimum=opt)
    dec = gkw_decompose(m, utility, x, rt, optimum=opt)
    terms = hessian_from_gkw(dec, m, utility, x, rt, opt, ex.a_xx)
    for name, got, want in (("a-ee", terms.a_ee, ex.a_ee), ("b-ee", terms.b_ee, ex.b_ee),
                            ("a-xe", terms.a_xe, ex.a_xe), ("b-ye", terms.b_ye, ex.b_ye)):
        rep.add(f"gkw-{name}", "decomposition-cross-check", got, want,
                abs(got - want), abs(got - want) <= tol)
    rec = recovery_residual(dec, ex, rt)
    rep.add("gkw-recovery-maps", "decomposition-cross-check", rec, 0.0, rec, rec <= tol)
    rep.add("gkw-orthogonality", "decomposition-cross-check",
            dec.orthogonality_defect, 0.0, dec.orthogonality_defect,
            dec.orthogonality_defect <= 1e-12)
    if utility.kind == "log":
        rep.add("gkw-log-degenerate", "decomposition-cross-check", dec.P0, 0.0,
                abs(dec.P0), dec.P0 == 0.0)
    return rep


# ---------------------------------------------------------------------------
# counterexamples
# ---------------------------------------------------------------------------


def run_counterexample(which: str, *, eps_list=(0.25, -0.25, 0.5, -0.5, 1.0, -1.0, 0.0),
                       n_max: int = 12, depths=(6, 8, 10), p: float = 0.5,
                       tail_power: float = 3.0, c: float = 1.0) -> Report:
    if which == "unbounded_jumps":
        return _counterexample_unbounded_jumps(eps_list, n_max)
    if which == "integrability":
        return _counterexample_integrability(depths, p, tail_power, c)
    raise ContractViolationError(f"unknown counterexample {which!r}")


def _counterexample_unbounded_jumps(eps_list, n_max) -> Report:
    m = three_time_jump_market(n_max)
    rep = Report(title="counterexample-unbounded-jumps",
                 metadata={"model": model_digest(m), "n_max": n_max})
    tree = m.tree
    first = [nd for nd in tree.internal_nodes if tree.time[nd] == 1]
    for eps in eps_list:
        drive = stochastic_integral(eps * m.theta, m.returns)
        N = stochastic_exponential(drive)
        witness = None
        for n, node in enumerate(first, start=1):
            for child in tree.children[node]:
                if N.values[child] < 0.0:
                    witness = (n, float(N.values[child]))
                    break
            if witness:
                break
        if eps == 0.0:
            ok = witness is None
            rep.add("no-violation@0", "positivity-boundary", 1.0, 1.0, 0.0, ok,
                    "unperturbed unit stays at 1")
        elif witness is None:
            rep.add(f"negative-unit@{_fmt(float(eps))}", "positivity-boundary",
                    math.nan, math.nan, math.nan, False,
                    f"no violating scenario up to weight {n_max}; increase n_max")
        else:
            n, val = witness
            rep.add(f"negative-unit@{_fmt(float(eps))}", "positivity-boundary",
                    val, 0.0, 0.0, val < 0.0,
                    f"weight {n}, unit value {_fmt(val)}")
    return rep


def _counterexample_integrability(depths, p, tail_power, c) -> Report:
    rep = Report(title="counterexample-integrability",
                 metadata={"depths": ",".join(str(d) for d in depths),
                           "p": p, "tail_power": tail_power, "c": c})
    models = [binomial_walk_market(L, tail_power) for L in depths]
    u = power_utility(p)
    jump_max = max(float(np.max(np.abs(mm.rbar_increments()))) for mm in models)
    eps_star = 0.45 / jump_max
    rep.metadata["eps"] = eps_star

    moments, values = [], []
    for L, mm in zip(depths, models):
        # the exponential moment is taken under the base-optimum pricing
        # measure, which here is the physical one (the walk is a martingale)
        stats = perturbation_statistics(mm, c=c)
        moments.append(stats.exp_moment)
        val = solve_primal(mm, u, 1.0, eps_star).value
        values.append(val)
        rep.add(f"exp-moment@depth{L}", "integrability-statistic", stats.exp_moment,
                math.nan, 0.0, True)
        rep.add(f"perturbed-value@depth{L}", "perturbed-value-trend", val, math.nan,
                0.0, True)
    growth = [moments[i + 1] / moments[i] for i in range(len(moments) - 1)]
    rep.add("exp-moment-growth", "integrability-statistic", min(growth), 1.5,
            max(0.0, 1.5 - min(growth)), min(growth) > 1.5,
            "factors " + ",".join(_fmt(g) for g in growth))
    increasing = all(values[i] < values[i + 1] for i in range(len(values) - 1))
    rep.add("perturbed-value-increasing", "perturbed-value-trend",
            values[-1], values[0], 0.0, increasing,
            "strictly increasing across depths" if increasing else "not increasing")
    return rep


# ---------------------------------------------------------------------------
# calculus kernel checks (for verify-all)
# ---------------------------------------------------------------------------


def calculus_report(m: MarketModel) -> Report:
    rep = Report(title="calculus-kernel", metadata={"model": model_digest(m)})
    tree = m.tree
    rbar = m.rbar()
    drive = stochastic_integral(m.theta, m.returns)

    lhs = stochastic_exponential(rbar).values * stochastic_exponential(drive).values
    combo = rbar + drive + quadratic_covariation(rbar, drive)
    rhs = stochastic_exponential(AdaptedProcess(tree, combo.values)).values
    yor = float(np.max(np.abs(lhs - rhs)))
    rep.add("exponential-product-rule", "exponential-product-rule", yor, 0.0, yor,
            yor <= 1e-12)

    ch = characteristics(m)
    re_err = float(np.max(np.abs(reassemble_returns(m, ch).values - m.returns.values)))
    rep.add("characteristics-reassembly", "characteristics-reassembly", re_err, 0.0,
            re_err, re_err <= 1e-12)

    # ratio identity: growth of one proportion set against another
    pi_t = m.theta
    pi_a = PredictableProcess(tree, 0.5 * m.theta.values)
    try:
        Rpi = discount_direction(m, pi_t)
        lhs2 = stochastic_exponential(stochastic_integral(pi_a, m.returns)).values / \
            stochastic_exponential(stochastic_integral(pi_t, m.returns)).values
        rhs2 = stochastic_exponential(
            stochastic_integral(pi_a - pi_t, Rpi)).values
        ratio_err = float(np.max(np.abs(lhs2 - rhs2)))
        rep.add("discounted-growth-ratio", "growth-ratio-identity", ratio_err, 0.0,
                ratio_err, ratio_err <= 1e-12)
    except AdmissibilityError as err:
        rep.add("discounted-growth-ratio", "growth-ratio-identity", math.nan, math.nan,
                math.nan, True, f"skipped: {err}")
    return rep


def verify_all(m: MarketModel, utility: Utility, x: float, *,
               k_range=range(3, 9), n_budget: int = 64) -> Report:
    utility = utility if utility is not None else log_utility()
    rep = Report(title="verify-all", metadata={"model": model_digest(m, utility), "x": x})
    rep.extend(calculus_report(m))
    # the base results every sub-report needs, computed once: the space
    # depends only on (tree, returns), so every re-solve shares it
    space = attainable_space(m)
    opt = solve_pair(m, utility, x, 0.0, space=space)
    rep.extend(solve_report(m, utility, x, 0.0, optimum=opt))
    camp = dyadic_campaign(m, utility, x, k_range=k_range, n_budget=n_budget)
    base = {"space": space, "optimum": opt,
            "expansion": expansion_report(m, utility, x, optimum=opt)}
    rep.extend(run_expansion_campaign(camp, **base))
    rep.extend(run_strategy_campaign(camp, **base))
    rep.extend(risk_tolerance_report(m, utility, x, **base))
    return rep
