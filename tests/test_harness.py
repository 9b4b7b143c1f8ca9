import dataclasses
import json
import threading
from functools import partial

import numpy as np
import pytest

from numsens import harness, risktol, sensitivity, solver, strategy
from numsens.cli import main
from numsens.harness import (
    Campaign,
    calculus_report,
    Report,
    dyadic_campaign,
    emit,
    risk_tolerance_report,
    run_counterexample,
    run_expansion_campaign,
    run_strategy_campaign,
    solve_report,
    verify_all,
)
from numsens.errors import ContractViolationError, NumericalError
from numsens.instances import two_asset_market
from numsens.market import market_to_obj, save_market
from numsens.preferences import log_utility, mixture_utility, power_utility
from numsens.tree import AdaptedProcess
from conftest import make_random_tree
from reference_loops import naive_dual_value


def test_campaign_validates_grid(t1, logu):
    with pytest.raises(ContractViolationError):
        Campaign(model=t1, utility=logu, x=1.0, dx_grid=(0.1,), eps_grid=(0.1, 0.2))
    with pytest.raises(ContractViolationError):
        Campaign(model=t1, utility=logu, x=1.0, dx_grid=(-2.0,), eps_grid=(0.0,))
    with pytest.raises(ContractViolationError):
        Campaign(model=t1, utility=logu, x=1.0, dx_grid=(0.1,), eps_grid=(7.0,))


def test_expansion_campaign_passes(t1, logu):
    camp = dyadic_campaign(t1, logu, 1.0, k_range=range(3, 9), expansion_decay=1.9)
    rep = run_expansion_campaign(camp)
    assert rep.all_passed, [c for c in rep.checks if not c.passed]


def test_expansion_campaign_bank_direction(bank_dir, logu):
    # value constant in the perturbation: eps-axis residuals sit at the floor
    camp = dyadic_campaign(bank_dir, logu, 1.0, k_range=range(3, 7),
                           direction=(0.0, 1.0))
    rep = run_expansion_campaign(camp)
    assert rep.all_passed
    res = [c.computed for c in rep.checks if c.name.startswith("u-quad-residual")]
    assert max(abs(r) for r in res) <= 1e-9


def test_strategy_campaign_passes(twop, mix):
    camp = dyadic_campaign(twop, mix, 1.0, k_range=range(3, 9))
    rep = run_strategy_campaign(camp)
    assert rep.all_passed, [c for c in rep.checks if not c.passed]


def test_strategy_campaign_wealth_shift_only(twop, mix):
    # corrections to the wealth argument alone, no unit perturbation
    dxs = tuple(2.0**-k for k in range(3, 8))
    camp = Campaign(model=twop, utility=mix, x=1.0, dx_grid=dxs,
                    eps_grid=(0.0,) * len(dxs))
    rep = run_strategy_campaign(camp)
    assert rep.all_passed, [c for c in rep.checks if not c.passed]


def test_solve_and_risktol_reports(t1, logu):
    assert solve_report(solver.solve_pair(t1, logu, 1.0, 0.25)).all_passed
    assert risk_tolerance_report(t1, logu, 1.0).all_passed


def test_failing_deflator_check_names_its_node_and_limit(twop, logu):
    pair = solver.solve_pair(twop, logu, 1.0, 0.0)

    def deflator_check(optimum):
        rep = solve_report(optimum)
        return next(c for c in rep.checks if c.name == "deflator-supermartingale")

    passing = deflator_check(pair)
    assert passing.passed and passing.note == "12 one-step inequalities"
    # raising the deflator on node 2's children breaks the inequality there only
    Y = pair.dual.deflator.values.copy()
    Y[twop.tree.children[2]] *= 1.001
    dual = dataclasses.replace(pair.dual, deflator=AdaptedProcess(twop.tree, Y))
    failing = deflator_check(dataclasses.replace(pair, dual=dual))
    assert not failing.passed and failing.computed > 1e-10
    assert failing.note == "12 one-step inequalities; worst at node 2, allowed 1e-10"


def test_failing_decay_check_names_its_worst_pair_and_factor():
    rep = Report(title="decay")
    harness._decay_check(rep, "ok", "ladder", [1.0, 0.5, 0.25, 1e-12], 2.0, 1e-9)
    # ratios 2, 1.25, 4: the worst lies between grid points 1 and 2
    harness._decay_check(rep, "slow", "ladder", [1.0, 0.5, 0.4, 0.1], 2.0, 1e-9)
    passing, failing = rep.checks
    assert passing.passed and passing.note == "2 ratio(s) above floor 1e-09"
    assert not failing.passed and failing.computed == 1.25
    assert failing.note == ("3 ratio(s) above floor 1e-09; "
                            "worst between points 1 and 2, allowed 2")


def test_failing_recovery_check_names_its_node_and_limit(asym, halfpow):
    def recovery_check(**kw):
        rep = risk_tolerance_report(asym, halfpow, 1.0, **kw)
        return next(c for c in rep.checks if c.name == "gkw-recovery-maps")

    passing = recovery_check()
    assert passing.passed and passing.note == ""
    opt = solver.solve_pair(asym, halfpow, 1.0)
    rt = risktol.risk_tolerance(opt)
    ex = sensitivity.expansion_report(asym, halfpow, 1.0, optimum=opt)
    per_node = risktol.recovery_residual(risktol.gkw_decompose(rt, opt), ex, rt)
    failing = recovery_check(tol=0.0)
    assert not failing.passed and failing.computed == per_node.max() > 0.0
    assert failing.note == f"worst at node {per_node.argmax()}, allowed 0"


def test_counterexample_unbounded_jumps_hand_value():
    rep = run_counterexample("unbounded_jumps")
    assert rep.all_passed
    by_name = {c.name: c for c in rep.checks}
    assert by_name["negative-unit@0.5"].computed == -0.25
    assert "weight 5" in by_name["negative-unit@0.5"].note
    assert by_name["no-violation@0"].passed


def test_counterexample_unbounded_jumps_needs_depth():
    rep = run_counterexample("unbounded_jumps", eps_list=(0.25,), n_max=4)
    assert not rep.all_passed
    assert "increase n_max" in rep.checks[0].note


def test_counterexample_integrability_trend():
    rep = run_counterexample("integrability")
    assert rep.all_passed
    moments = [c.computed for c in rep.checks if c.name.startswith("exp-moment@")]
    assert moments[0] < moments[1] < moments[2]
    assert moments[1] / moments[0] > 1.5 and moments[2] / moments[1] > 1.5


def test_emit_formats_and_determinism(tmp_path, t1, logu):
    camp = dyadic_campaign(t1, logu, 1.0, k_range=range(3, 6))
    rep = run_expansion_campaign(camp)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    ok1 = emit(rep, p1, "csv")
    rep2 = run_expansion_campaign(camp)
    ok2 = emit(rep2, p2, "csv")
    assert ok1 == ok2
    assert p1.read_bytes() == p2.read_bytes()
    t2 = tmp_path / "a.txt"
    emit(rep, t2, "text")
    text = t2.read_text()
    assert '"checks"' in text and '"title"' in text
    # 17-significant-digit numbers survive in the csv
    assert "0." in p1.read_text()


def test_emit_empty_report(tmp_path):
    rep = Report(title="empty")
    path = tmp_path / "empty.csv"
    assert emit(rep, path, "csv")
    assert path.read_text() == "name,anchor,computed,reference,residual,passed,note\n"


def test_verify_all_small(t1, logu):
    rep = verify_all(t1, logu, 1.0, k_range=range(3, 6))
    assert rep.all_passed, [c.name for c in rep.checks if not c.passed]


# ---------------------------------------------------------------------------
# hand-down of the base results
# ---------------------------------------------------------------------------

_MODULES = (harness, solver, sensitivity, strategy, risktol)


def _count_calls(monkeypatch, name):
    """Record the (args, kwargs, thread id) of every call of the library
    function `name`, wherever a module looks it up."""
    calls = []
    original = getattr(solver, name, None) or getattr(sensitivity, name)

    def counting(*args, **kwargs):
        calls.append((args, kwargs, threading.get_ident()))
        return original(*args, **kwargs)

    for mod in _MODULES:
        if getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counting)
    return calls


def _count_points(monkeypatch):
    """Record the (x, eps, thread id) of every point solved, wherever a
    module looks the solvers up: one per `solve_primal` call and one per
    column of a batched `solve_values` call."""
    points = []
    primal, values = solver.solve_primal, solver.solve_values

    def one(m, utility, x, eps=0.0, start=None):
        points.append((float(x), float(eps), threading.get_ident()))
        return primal(m, utility, x, eps, start)

    def batch(m, utility, x, eps, start=None):
        points.extend((float(a), float(e), threading.get_ident()) for a, e in zip(x, eps))
        return values(m, utility, x, eps, start)

    for mod in _MODULES:
        for name, original, counting in (("solve_primal", primal, one),
                                         ("solve_values", values, batch)):
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counting)
    return points


def _solve_points(points):
    """(x, eps) of each recorded point."""
    return [(x, eps) for x, eps, _ in points]


def test_expansion_campaign_builds_one_space_and_solves_each_point_once(
        monkeypatch, twop, logu):
    spaces = _count_calls(monkeypatch, "attainable_space")
    solves = _count_points(monkeypatch)
    run_expansion_campaign(dyadic_campaign(twop, logu, 1.0, k_range=range(3, 6)))
    assert len(spaces) == 1
    points = _solve_points(solves)
    assert len(points) == len(set(points))


def test_verify_all_solves_the_base_pair_and_expansion_once(monkeypatch, t1, mix):
    spaces = _count_calls(monkeypatch, "attainable_space")
    solves = _count_points(monkeypatch)
    expansions = _count_calls(monkeypatch, "expansion_report")
    verify_all(t1, mix, 1.0, k_range=range(3, 6))
    assert len(spaces) == 1
    assert _solve_points(solves).count((1.0, 0.0)) == 1
    assert len(expansions) == 1


def test_verify_all_solves_each_point_once_on_the_calling_thread(monkeypatch, twop, halfpow):
    # the expansion and strategy campaigns share their grid points' solves
    solves = _count_points(monkeypatch)
    verify_all(twop, halfpow, 1.0, k_range=range(3, 6))
    points = _solve_points(solves)
    assert len(points) == len(set(points))
    assert {thread for _, _, thread in solves} == {threading.get_ident()}


# markets beyond the shared fixtures that the dual root-find runs on
MORE_MARKETS = {"two2": lambda: two_asset_market(depth=2),
                **{f"tri{s}": partial(make_random_tree, s, depth=3) for s in range(3)}}


@pytest.fixture
def negpow():
    return power_utility(-2.0)


@pytest.fixture
def survey_mix():
    return mixture_utility([(0.5, 0.0), (0.5, -1.0)])


@pytest.mark.parametrize("market", ["t1", "asym", "twop", "binom", "bank_dir", *MORE_MARKETS])
@pytest.mark.parametrize("utility", ["logu", "halfpow", "mix", "negpow", "survey_mix"])
def test_seeded_dual_resolve_matches_the_wide_bracket(monkeypatch, request, market, utility):
    m = MORE_MARKETS[market]() if market in MORE_MARKETS else request.getfixturevalue(market)
    u = request.getfixturevalue(utility)
    ex = sensitivity.expansion_report(m, u, 1.0)
    camp = dyadic_campaign(m, u, 1.0, k_range=range(3, 9))
    solves = _count_points(monkeypatch)
    for dy, e in zip(camp.dx_grid, camp.eps_grid):
        yt = ex.y + dy
        want, oracle_solves, root = naive_dual_value(m, u, 1.0, yt, e)
        solves.clear()
        got, = harness._dual_values(ex, [(dy, e)])
        # u(x) - x·yt is stationary at the root, and both root-finds stop
        # within about 1e-15 of it, so the values differ by the rounding of
        # u - x·yt alone: a few ulps of its larger term
        scale = max(abs(root.value), root.x * yt)
        assert abs(got - (root.value - root.x * yt)) <= 4 * 2.0**-52 * scale
        # the oracle's dual value E[V(U'(X_T))] carries the conjugacy's rounding
        assert abs(got - want) <= 1e-14 * max(abs(want), 1.0 * yt)
        assert len(solves) <= min(oracle_solves, 5)


@pytest.mark.parametrize("market", ["t1", "asym", "twop", "binom", "bank_dir", "two2"])
@pytest.mark.parametrize("utility", ["logu", "halfpow", "mix"])
def test_lockstep_dual_searches_take_their_serial_steps(monkeypatch, request, market, utility):
    # solving every grid point's next wealth in one batch leaves each
    # search's sequence of wealths, and its value, as the search alone has them
    m = MORE_MARKETS[market]() if market in MORE_MARKETS else request.getfixturevalue(market)
    ex = sensitivity.expansion_report(m, request.getfixturevalue(utility), 1.0)
    camp = dyadic_campaign(m, ex.optimum.primal.utility, 1.0, k_range=range(3, 9))
    points = list(zip(camp.dx_grid, camp.eps_grid))
    solves = _count_points(monkeypatch)
    together = harness._dual_values(ex, points)
    walks = {e: [x for x, eps in _solve_points(solves) if eps == e] for _, e in points}
    for (dy, e), value in zip(points, together):
        solves.clear()
        assert harness._dual_values(ex, [(dy, e)]) == [value]
        assert [x for x, _ in _solve_points(solves)] == walks[e]


def test_dual_root_find_names_where_it_stopped(monkeypatch, t1, logu):
    ex = sensitivity.expansion_report(t1, logu, 1.0)
    base = ex.optimum.primal

    def stuck(m, utility, x, eps, start=None):
        # a marginal that never reaches the target drives the search to its cap
        n = len(x)
        return solver.PointValues(value=np.full(n, base.value),
                                  marginal=np.full(n, base.marginal + 1.0),
                                  newton_iters=np.zeros(n, dtype=int), errors=(None,) * n)

    camp = Campaign(model=t1, utility=logu, x=1.0, dx_grid=(0.125, 0.0625),
                    eps_grid=(0.0625, 0.03125))
    monkeypatch.setattr(harness, "solve_values", stuck)
    with pytest.raises(NumericalError, match=r"dy=0\.125, eps=0\.0625.*"
                       r"last wealth .*marginal residual"):
        run_expansion_campaign(camp, ex)


def test_one_model_builds_its_space_once_across_reports(monkeypatch, twop, halfpow):
    # standalone reports on one market object share the model's space
    spaces = _count_calls(monkeypatch, "attainable_space")
    solver.solve_pair(twop, halfpow, 1.0)
    risk_tolerance_report(twop, halfpow, 1.0)
    run_expansion_campaign(dyadic_campaign(twop, halfpow, 1.0, k_range=range(3, 6)))
    assert len(spaces) == 1 and spaces[0][0][0] is twop


@pytest.mark.parametrize("market", ["t1", "asym", "twop", "binom", "bank_dir"])
def test_verify_all_equals_its_sub_reports_standalone(request, market, halfpow):
    m = request.getfixturevalue(market)
    k_range = range(3, 6)
    got = verify_all(m, halfpow, 1.0, k_range=k_range).to_csv()
    camp = dyadic_campaign(m, halfpow, 1.0, k_range=k_range)
    subs = [calculus_report(m), solve_report(solver.solve_pair(m, halfpow, 1.0)),
            run_expansion_campaign(camp), run_strategy_campaign(camp),
            risk_tolerance_report(m, halfpow, 1.0)]
    header, _ = got.split("\n", 1)
    assert got == header + "\n" + "".join(s.to_csv().split("\n", 1)[1] for s in subs)


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


@pytest.fixture
def spec_path(tmp_path, t1):
    path = tmp_path / "market.json"
    save_market(t1, path, log_utility())
    return str(path)


def test_cli_solve(spec_path, capsys):
    rc = main(["solve", "--spec", spec_path, "--x", "1.0", "--eps", "0.25"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "all checks passed" in out


def test_cli_expand_writes_deterministic_report(spec_path, tmp_path, capsys):
    out1 = tmp_path / "r1.csv"
    out2 = tmp_path / "r2.csv"
    grids = ["--dx-grid", "0.125,0.0625,0.03125", "--eps-grid", "0.125,0.0625,0.03125"]
    assert main(["expand", "--spec", spec_path, "--out", str(out1), *grids]) == 0
    assert main(["expand", "--spec", spec_path, "--out", str(out2), *grids]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_strategy_and_risk_tolerance(spec_path, tmp_path):
    out = tmp_path / "s.txt"
    rc = main(["strategy", "--spec", spec_path, "--format", "text", "--out", str(out),
               "--dx-grid", "0.125,0.0625,0.03125,0.015625",
               "--eps-grid", "0.125,0.0625,0.03125,0.015625"])
    assert rc == 0
    assert out.read_text().startswith("{")
    assert main(["risk-tolerance", "--spec", spec_path]) == 0


def test_cli_counterexample_exit_codes(tmp_path):
    assert main(["counterexample", "unbounded-jumps"]) == 0
    out = tmp_path / "ce.csv"
    rc = main(["counterexample", "unbounded-jumps", "--n-max", "2",
               "--eps-grid", "0.25", "--out", str(out)])
    assert rc == 1
    assert "increase n_max" in out.read_text()


def test_cli_verify_all(spec_path):
    assert main(["verify-all", "--spec", spec_path]) == 0


def test_cli_utility_from_file(tmp_path, twop):
    path = tmp_path / "mix.json"
    save_market(twop, path, mixture_utility([(0.5, 0.5), (0.5, 0.0)]))
    assert main(["solve", "--spec", str(path)]) == 0


def test_cli_defaults_to_log_utility(tmp_path, t1):
    path = tmp_path / "bare.json"
    save_market(t1, path)            # no utility block
    assert main(["solve", "--spec", str(path)]) == 0


def _without_assets(obj):
    del obj["assets"]
    return obj


def _without_first_dR(obj):
    del obj["root"]["branches"][0]["dR"]
    return obj


def _without_utility_kind(obj):
    del obj["utility"]["kind"]
    return obj


def _null_assets(obj):
    obj["assets"] = None
    return obj


def _scalar_branches(obj):
    obj["root"]["branches"] = 5
    return obj


@pytest.mark.parametrize("malform, named", [
    (_without_assets, "'assets'"),
    (_without_first_dR, "'dR'"),
    (_without_utility_kind, "'kind'"),
    (lambda obj: [obj], "TypeError"),
    (_null_assets, "TypeError"),
    (_scalar_branches, "TypeError"),
])
def test_cli_malformed_market_file_exits_2(tmp_path, t1, capsys, malform, named):
    # a malformed file is a usage error (exit 2), not a failed check (exit 1)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(malform(market_to_obj(t1, log_utility()))))
    assert main(["solve", "--spec", str(path)]) == 2
    out = capsys.readouterr().out
    assert out.startswith("error: malformed market file") and named in out


@pytest.mark.parametrize("argv", [["solve", "--tol", "1e-6"], ["verify-all", "--tol", "1e-6"],
                                  ["verify-all", "--dx-grid", "0.125"],
                                  ["verify-all", "--eps-grid", "0.125"]])
def test_cli_rejects_options_that_do_nothing(spec_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--spec", spec_path, *argv[1:]])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_emit_rejects_unknown_format(tmp_path, t1, logu):
    rep = solve_report(solver.solve_pair(t1, logu, 1.0))
    with pytest.raises(ContractViolationError):
        emit(rep, tmp_path / "x.bin", "parquet")


def test_cli_reports_usage_errors(tmp_path, capsys):
    # missing file and infeasible wealth exit with a clean diagnostic
    assert main(["solve", "--spec", str(tmp_path / "nope.json")]) == 2
    assert "error:" in capsys.readouterr().out


def test_cli_arbitrage_market_reports_error(tmp_path, capsys):
    import numpy as np
    from numsens.market import MarketModel, save_market
    from numsens.tree import AdaptedProcess, EventTree, PredictableProcess
    tree = EventTree([-1, 0, 0], [1.0, 0.5, 0.5])
    R = np.zeros((3, 2))
    R[1, 1], R[2, 1] = 0.2, 0.1
    theta = np.zeros((3, 2))
    theta[1:] = [0.0, 1.0]
    m = MarketModel(tree, AdaptedProcess(tree, R), PredictableProcess(tree, theta))
    path = tmp_path / "arb.json"
    save_market(m, path)
    assert main(["solve", "--spec", str(path)]) == 2
    assert "arbitrage" in capsys.readouterr().out


def test_campaign_rejects_degenerate_point(t1, logu):
    with pytest.raises(ContractViolationError):
        Campaign(model=t1, utility=logu, x=1.0, dx_grid=(0.0,), eps_grid=(0.0,))


@pytest.mark.parametrize("grids, count", [
    (["--dx-grid", ","], 0),
    (["--dx-grid", "0.125", "--eps-grid", "0.125"], 1),
])
@pytest.mark.parametrize("command", ["expand", "strategy"])
def test_cli_rejects_grids_too_short_to_decay(spec_path, capsys, command, grids, count):
    # a decay check needs two grid points: fewer would pass it with no ratio tested
    assert main([command, "--spec", spec_path, *grids]) == 2
    out = capsys.readouterr().out
    assert out.startswith("error:") and f"at least two points, got {count}" in out


@pytest.mark.parametrize("argv, named", [
    (["integrability", "--depths", "0"], "depth must be at least 1, got 0"),
    (["integrability", "--depths", "-2"], "depth must be at least 1, got -2"),
    (["integrability", "--depths", "1"], "at least two depths, got [1]"),
    (["unbounded-jumps", "--eps-grid", ","], "needs a perturbation size"),
])
def test_cli_counterexample_rejects_bad_grids(capsys, argv, named):
    # each would otherwise crash, or pass with no check run
    assert main(["counterexample", *argv]) == 2
    out = capsys.readouterr().out
    assert out.startswith("error:") and named in out
