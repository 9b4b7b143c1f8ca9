"""Batch driver: campaigns over perturbation grids, counterexample
reproductions, and deterministic report emission.

Reports are value tables with a pass flag per check; emission is
byte-deterministic (fixed ordering, 17-significant-digit numbers, no
timestamps), and a report fails exactly when one of its checks does.
Asymptotic claims are tested as monotone residual-ratio decay on dyadic
grids with a solver-tolerance floor, since no single grid point can
witness a little-o statement.

Campaign re-solves run in the calling thread, batched: the grid points
of one campaign are the columns of one Newton pass (`solver.solve_values`),
which pays each elimination's per-call numpy cost once for all of them.
The six +-h envelope solves run as one cold batch, and the grid's u
re-solves fill `Campaign._exact` in one warm batch.  The dual values'
root-finds (`_dual_values`) run in lockstep, each round solving the next
wealth of every unfinished grid point together, so each point sees the
solves it sees alone.  Threads cannot overlap these solves: each is a
chain of small numpy calls that holds the interpreter lock most of the
time (on a 2-core host, six `verify_all` runs on 73- to 261-node
trinomials took 9.6-10.3 s with a 4-thread pool and 6.0-6.5 s serially,
with identical report bytes).

Every tree, complete or not, solves by Newton on its attainable space's
plan.  Every re-solve of a grid point, and every solve of the dual value's
root-find, starts Newton from the base expansion's first-order prediction
of the optimum (`ExpansionReport.newton_start`), which needs a fraction of
the steps a start from the riskless wealth does; a campaign run standalone
holds the same expansion as one inside `verify_all`, so both start alike.
A cold log or power solve starts at the exact optimum instead
(`solver._homothetic_start`); the campaigns keep the first-order start.
The root-find itself is a safeguarded secant search on the marginal
(`_dual_search`), at most five solves per grid point on the test markets,
and needs no SciPy.
The envelope check's +-h solves start cold: that check reads differences
of values at the solves' noise floor, and warm solves moved its verdicts.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import AdmissibilityError, ContractViolationError, NumericalError
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
from .solver import Optimum, solve_pair, solve_primal, solve_values, verify_deflator
# nothing here calls `brentq`: the name stays because the benchmark traces it
# as its `harness.root_find` layer (`perfbench/tracing.py`, checked by
# `tests/test_perfbench_names.py`)
from .solver import brentq  # noqa: F401
from .strategy import (
    StrategyKit,
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

# residuals at or below this floor count as solver noise in the decay checks
DECAY_FLOOR = 1e-9
# factor by which the value-matching residual must shrink per radius halving
STRATEGY_DECAY = 2.0
# steps of the dual value's root-find before it reports a failure
_DUAL_MAX_STEPS = 100


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
    """Checks plus metadata.  A metadata value may be a zero-argument
    callable (the model digest, a JSON dump of the whole market), evaluated
    only when text is emitted; `extend` keeps the receiver's entries, so a
    report tree evaluates each key once."""

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
            v = v() if callable(v) else v
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


def _pmap(fn, items, workers: int = 1):
    """Order-preserving map in the calling thread; the package does not call
    it.  The benchmark records the default of `workers` as the harness's
    pool size."""
    return [fn(it) for it in items]


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
    tol: float = 1e-8
    # the expansion residual ratio tends to 2 (from either side) at finite
    # radius; 1.8 is the same slack the optimizer-derivative decay uses
    expansion_decay: float = 1.8
    # u(x + dx, eps) by grid point: both campaigns' kits read and fill it, so
    # each point is solved once
    _exact: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.dx_grid) != len(self.eps_grid):
            raise ContractViolationError("dx and eps grids must pair up")
        if self.tol <= 0.0:
            raise ContractViolationError("the tolerance must be positive")
        for dx, e in zip(self.dx_grid, self.eps_grid):
            if self.x + dx <= 0.0 or abs(e) >= self.model.eps0:
                raise ContractViolationError(
                    f"grid point (dx={dx!r}, eps={e!r}) outside the admissibility region"
                )
            if dx == 0.0 and e == 0.0:
                raise ContractViolationError("grid points must have a nonzero radius")
        # the decay checks compare consecutive points: fewer than two would
        # pass them with no ratio tested
        if len(self.dx_grid) < 2:
            raise ContractViolationError(
                f"a campaign grid needs at least two points, got {len(self.dx_grid)}")


def dyadic_campaign(model, utility, x, k_range=range(3, 9), direction=(1.0, 1.0), **kw) -> Campaign:
    dxs = tuple(direction[0] * 2.0**-k for k in k_range)
    eps = tuple(direction[1] * 2.0**-k for k in k_range)
    return Campaign(model=model, utility=utility, x=x, dx_grid=dxs, eps_grid=eps, **kw)


def _decay_check(report, name, anchor, residuals, factor, floor):
    """Residuals must shrink by `factor` per radius halving until below the
    floor; pairs already at the floor are exempt.  A failing note names the
    grid points of the worst ratio."""
    worst, worst_k = math.inf, -1
    tested = 0
    for k in range(len(residuals) - 1):
        a, b = abs(residuals[k]), abs(residuals[k + 1])
        if math.isnan(a) or math.isnan(b):
            continue
        if b <= floor:
            break
        tested += 1
        if a / b < worst:
            worst, worst_k = a / b, k
    passed = tested == 0 or worst >= factor
    note = f"{tested} ratio(s) above floor {floor:g}"
    if not passed:
        note += f"; worst between points {worst_k} and {worst_k + 1}, allowed {factor:g}"
    report.add(name, anchor, worst if tested else math.inf, factor,
               0.0 if passed else factor - worst, passed, note)


def _dual_search(ex: ExpansionReport, dy: float, e: float):
    """The search for v(y + dy, e) from exact re-solves, as a generator: it
    yields each wealth whose solve it needs, is sent that solve's (value,
    marginal) and returns u(x) - x·(y + dy) at the wealth x whose marginal
    is y + dy.  Since dv/dy = -x, the search starts at the expansion's
    x0 = -(v_y + v_yy dy + v_ye e), takes its first step with the base
    slope u_xx and then secant steps.  The marginal falls strictly in the
    wealth, so each solve bounds the root from one side, and a step that
    leaves those bounds bisects them instead."""
    opt = ex.optimum
    yt = opt.y + dy
    x = -(ex.gradient_v[0] + ex.hessian_v[0, 0] * dy + ex.hessian_v[0, 1] * e)
    if x <= 0.0:
        x = opt.x
    lo, hi = 0.0, math.inf            # the marginal exceeds yt at lo, falls short at hi
    slope, last = ex.hessian_u[0, 0], None
    solved = {}                       # each wealth solved once, should the search return
    for _ in range(_DUAL_MAX_STEPS):
        if x not in solved:
            solved[x] = yield x
        value, marginal = solved[x]
        g = marginal - yt
        if last is not None and last[0] != x:
            slope = (g - last[1]) / (x - last[0])
        last = (x, g)
        if g > 0.0:
            lo = x
        elif g < 0.0:
            hi = x
        if slope < 0.0:
            step = -g / slope
            # u(x) - x·yt is stationary at the root, so stopping `step` short
            # of it misses v by about |g·step|/2; below the solve's noise the
            # root's error no longer shows (Newton's stop, which leaves
            # marginals off by up to its tolerance, enters only squared too)
            if abs(0.5 * g * step) <= 1e-16 * max(1.0, abs(value)):
                return value - x * yt
            if lo < x + step < hi:
                x += step
                continue
        x = 0.5 * (lo + hi) if hi < math.inf else 2.0 * lo
    raise NumericalError(
        f"dual root-find at (dy={dy!r}, eps={e!r}) stopped after {_DUAL_MAX_STEPS} "
        f"steps: last wealth {last[0]!r}, marginal residual {last[1]:.3e}")


def _dual_values(ex: ExpansionReport, points) -> list:
    """v(y + dy, e) at each point (dy, e) by `_dual_search`, or the error
    that point's search met.  The searches run in lockstep: each round
    solves the wealth every unfinished search asks for in one
    `solve_values` batch, each from the expansion's first-order prediction
    at its own wealth, so every search sees the solves it sees alone."""
    primal = ex.optimum.primal
    searches = [_dual_search(ex, dy, e) for dy, e in points]
    out = [None] * len(searches)
    asked = {}

    def advance(k, solve):
        try:
            asked[k] = searches[k].send(solve)
        except StopIteration as stop:
            out[k] = stop.value
        except NumericalError as err:
            out[k] = err

    for k in range(len(searches)):
        advance(k, None)
    while asked:
        ks = list(asked)
        xs = [asked.pop(k) for k in ks]
        eps = [points[k][1] for k in ks]
        starts = np.column_stack([ex.newton_start(x, e) for x, e in zip(xs, eps)])
        batch = solve_values(primal.model, primal.utility, xs, eps, start=starts)
        for k, value, marginal, err in zip(ks, batch.value.tolist(), batch.marginal.tolist(),
                                           batch.errors):
            if err is None:
                advance(k, (value, marginal))
            else:
                out[k] = err
    return out


def run_expansion_campaign(c: Campaign, base: ExpansionReport = None) -> Report:
    """Quadratic-expansion verification of both value functions against
    exact re-solves, plus the first-order (envelope) finite-difference check,
    around the base expansion (solved when not supplied)."""
    m, u, x = c.model, c.utility, c.x
    rep = Report(title="expansion-campaign",
                 metadata={"model": partial(model_digest, m, u), "x": x,
                           "grid_points": len(c.dx_grid)})
    ex = base if base is not None else expansion_report(m, u, x)
    kit = StrategyKit(ex, _solve_cache=c._exact)
    v0 = ex.optimum.dual.value

    # envelope: central differences of the value in the perturbation size
    h0 = min(1e-2, 0.25 * m.eps0)
    hs = (h0, h0 / 10.0, h0 / 100.0)
    ups = solve_values(m, u, [x] * 6, [s * h for h in hs for s in (1.0, -1.0)]).checked()
    errs = [abs((up - down) / (2 * h) - ex.gradient_u[1])
            for h, up, down in zip(hs, ups[::2].tolist(), ups[1::2].tolist())]
    ok = errs[2] <= 1e-7 and all(
        errs[i] / max(errs[i + 1], 1e-16) >= 50.0 or errs[i + 1] <= 1e-12
        for i in range(2))
    rep.add("envelope-gradient", "value-gradient-envelope", errs[2], 0.0, errs[2], ok,
            "fd errors " + ",".join(_fmt(e) for e in errs))

    points = list(zip(c.dx_grid, c.eps_grid))
    kit.exact_values(points)
    resid_u = []
    for dx, e in points:
        try:
            exact = kit.exact_value(dx, e)
        except AdmissibilityError as err:
            rep.add("u-resolve", "quadratic-expansion-primal", math.nan, math.nan,
                    math.nan, True, f"skipped: {err}")
            resid_u.append(math.nan)
            continue
        r = abs(exact - kit.quadratic_prediction(dx, e)) / (dx * dx + e * e)
        resid_u.append(r)
        rep.add(f"u-quad-residual@{math.hypot(dx, e):.6g}", "quadratic-expansion-primal",
                r, 0.0, r, True)
    _decay_check(rep, "u-expansion-decay", "quadratic-expansion-primal",
                 resid_u, c.expansion_decay, DECAY_FLOOR)

    resid_v = []
    for (dy, e), exact in zip(points, _dual_values(ex, points)):
        if isinstance(exact, AdmissibilityError):
            resid_v.append(math.nan)
            continue
        if isinstance(exact, Exception):
            raise exact
        step = np.array([dy, e])
        quad = v0 + ex.gradient_v @ step + 0.5 * step @ ex.hessian_v @ step
        r = abs(exact - quad) / (dy * dy + e * e)
        resid_v.append(r)
        rep.add(f"v-quad-residual@{math.hypot(dy, e):.6g}", "quadratic-expansion-dual",
                r, 0.0, r, True)
    _decay_check(rep, "v-expansion-decay", "quadratic-expansion-dual",
                 resid_v, c.expansion_decay, DECAY_FLOOR)

    rel = aux_relation_report(ex)
    for name, r in (("aux-value-identities", float(np.max(np.abs(rel.value_identities)))),
                    ("aux-optimizer-relations", max(rel.primal_optimizer, rel.dual_optimizer)),
                    ("aux-product-martingales", rel.product_martingale)):
        rep.add(name, "aux-cross-identities", r, 0.0, r, r <= c.tol)
    return rep


def run_strategy_campaign(c: Campaign, base: ExpansionReport = None) -> Report:
    """Second-order value matching of the constructed wealth processes with
    automatic level selection, plus proportion round-trip and admissibility,
    around the base expansion (solved when not supplied)."""
    m, x = c.model, c.x
    rep = Report(title="strategy-campaign",
                 metadata={"model": partial(model_digest, m, c.utility), "x": x,
                           "grid_points": len(c.dx_grid)})
    kit = StrategyKit(base if base is not None else expansion_report(m, c.utility, x),
                      _solve_cache=c._exact)
    kit.exact_values(zip(c.dx_grid, c.eps_grid))

    residuals, levels = [], []
    for dx, e in zip(c.dx_grid, c.eps_grid):
        n = kit.select_level(dx, e)
        levels.append(n)
        r = kit.value_residual(dx, e, n)
        residuals.append(r)
        rep.add(f"match-residual@{math.hypot(dx, e):.6g}", "second-order-value-matching",
                r, 0.0, abs(r), True, f"level {n}")
    _decay_check(rep, "match-residual-decay", "second-order-value-matching",
                 residuals, STRATEGY_DECAY, DECAY_FLOOR)
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
    base_wealth = (x + dx) * stochastic_exponential(
        stochastic_integral(PredictableProcess(m.tree, w), m.returns)).values
    tr_err = float(np.max(np.abs(transported - base_wealth) / np.abs(base_wealth)))
    rep.add("transport-membership", "admissible-set-transport", tr_err, 0.0, tr_err,
            tr_err <= 1e-10 and bool(np.all(X.values > 0.0)))
    return rep


# ---------------------------------------------------------------------------
# single-solve and risk-tolerance reports
# ---------------------------------------------------------------------------


def solve_report(optimum: Optimum) -> Report:
    """Checks of the pair solved at one (x, eps)."""
    primal, dual = optimum.primal, optimum.dual
    m, eps = primal.model, primal.eps
    rep = Report(title="solve",
                 metadata={"model": partial(model_digest, m, primal.utility),
                           "x": primal.x, "eps": eps})
    rep.add("primal-value", "expected-utility-optimum", primal.value, math.nan, 0.0, True)
    rep.add("marginal-value", "envelope-marginal", primal.marginal, math.nan, 0.0, True)
    rep.add("dual-value", "conjugate-optimum", dual.value, math.nan, 0.0, True)
    rep.add("first-order-conditions", "interior-optimality", primal.foc_residual,
            0.0, primal.foc_residual, primal.foc_residual <= 1e-10)
    rep.add("conjugacy-gap", "value-conjugacy", dual.conjugacy_residual, 0.0,
            dual.conjugacy_residual, dual.conjugacy_residual <= 1e-10)
    dr = verify_deflator(m, eps, dual.deflator)
    ok = dr.max_violation <= 1e-10
    rep.add("deflator-supermartingale", "dual-domain-membership", dr.max_violation, 0.0,
            dr.max_violation, ok, f"{dr.checks} one-step inequalities"
            + ("" if ok else f"; worst at node {dr.worst_node}, allowed 1e-10"))
    if eps == 0.0:
        wsum = float(np.sum(optimum.r_weights))
        rep.add("pricing-weights-total", "pricing-measure", wsum, 1.0,
                abs(wsum - 1.0), abs(wsum - 1.0) <= 1e-12)
    return rep


def risk_tolerance_report(m: MarketModel, utility: Utility, x: float,
                          tol: float = 1e-8, *, base: ExpansionReport = None) -> Report:
    """Orthogonal-decomposition cross-check of the mixed second-order
    coefficients against the base expansion.  Without one, the pair is
    solved here and the expansion only once the replication succeeds."""
    rep = Report(title="risk-tolerance",
                 metadata={"model": partial(model_digest, m, utility), "x": x})
    opt = base.optimum if base is not None else solve_pair(m, utility, x)
    rt = risk_tolerance(opt)
    rep.add("replicable", "risk-tolerance-replication", 1.0 if rt.exists else 0.0,
            math.nan, rt.certificate, True,
            f"certificate {_fmt(rt.certificate)}")
    if not rt.exists:
        return rep
    rep.add("initial-capital", "risk-tolerance-replication", rt.initial, math.nan, 0.0, True)
    ex = base if base is not None else expansion_report(m, utility, x, optimum=opt)
    dec = gkw_decompose(rt, opt)
    terms = hessian_from_gkw(dec, rt, ex)
    for name, got, want in (("a-ee", terms.a_ee, ex.a_ee), ("b-ee", terms.b_ee, ex.b_ee),
                            ("a-xe", terms.a_xe, ex.a_xe), ("b-ye", terms.b_ye, ex.b_ye)):
        rep.add(f"gkw-{name}", "decomposition-cross-check", got, want,
                abs(got - want), abs(got - want) <= tol)
    node_rec = recovery_residual(dec, ex, rt)
    rec = float(np.max(node_rec))
    rep.add("gkw-recovery-maps", "decomposition-cross-check", rec, 0.0, rec, rec <= tol,
            "" if rec <= tol else f"worst at node {int(np.argmax(node_rec))}, allowed {tol:g}")
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
    if not eps_list:
        raise ContractViolationError("the unbounded-jumps counterexample needs a perturbation size")
    m = three_time_jump_market(n_max)
    rep = Report(title="counterexample-unbounded-jumps",
                 metadata={"model": partial(model_digest, m), "n_max": n_max})
    # scenario n is the n-th node of date 1; its moves end at date 2
    first, second = m.tree.levels[1:3]
    for eps in eps_list:
        N = stochastic_exponential(stochastic_integral(eps * m.theta, m.returns)).values
        negative = second[N[second] < 0.0]
        if eps == 0.0:
            rep.add("no-violation@0", "positivity-boundary", 1.0, 1.0, 0.0, not negative.size,
                    "unperturbed unit stays at 1")
        elif not negative.size:
            rep.add(f"negative-unit@{_fmt(float(eps))}", "positivity-boundary",
                    math.nan, math.nan, math.nan, False,
                    f"no violating scenario up to weight {n_max}; increase n_max")
        else:
            n, val = int(m.tree.parent[negative[0]] - first[0]) + 1, float(N[negative[0]])
            rep.add(f"negative-unit@{_fmt(float(eps))}", "positivity-boundary",
                    val, 0.0, 0.0, val < 0.0,
                    f"weight {n}, unit value {_fmt(val)}")
    return rep


def _counterexample_integrability(depths, p, tail_power, c) -> Report:
    rep = Report(title="counterexample-integrability",
                 metadata={"depths": ",".join(str(d) for d in depths),
                           "p": p, "tail_power": tail_power, "c": c})
    models = [binomial_walk_market(L, tail_power) for L in depths]
    if len(depths) < 2:
        raise ContractViolationError(
            f"the integrability counterexample needs at least two depths, got {list(depths)}")
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
    rep = Report(title="calculus-kernel", metadata={"model": partial(model_digest, m)})
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
               k_range=range(3, 9)) -> Report:
    utility = utility if utility is not None else log_utility()
    rep = Report(title="verify-all",
                 metadata={"model": partial(model_digest, m, utility), "x": x})
    rep.extend(calculus_report(m))
    # the base every sub-report needs, solved once: the eps = 0 pair and its
    # expansion (the re-solves share the model's attainable space)
    opt = solve_pair(m, utility, x)
    rep.extend(solve_report(opt))
    base = expansion_report(m, utility, x, optimum=opt)
    camp = dyadic_campaign(m, utility, x, k_range=k_range)
    rep.extend(run_expansion_campaign(camp, base))
    rep.extend(run_strategy_campaign(camp, base))
    rep.extend(risk_tolerance_report(m, utility, x, base=base))
    return rep
