"""Command-line driver.

Subcommands mirror the harness: solve, expand, strategy, risk-tolerance,
counterexample, verify-all.  Market specification files are canonical JSON
(see market.load_market); reports go to --out in CSV or structured-text
form and the process exits nonzero when any check fails.
"""

from __future__ import annotations

import argparse

from .harness import (
    Campaign,
    dyadic_campaign,
    emit,
    risk_tolerance_report,
    run_counterexample,
    run_expansion_campaign,
    run_strategy_campaign,
    solve_report,
    verify_all,
)
from .market import load_market
from .preferences import log_utility
from .solver import solve_pair


def _floats(text: str):
    return tuple(float(tok) for tok in text.split(",") if tok.strip())


def _add_common(sp, tol=False):
    sp.add_argument("--spec", required=True, help="market specification file")
    sp.add_argument("--x", type=float, default=1.0, help="initial wealth")
    sp.add_argument("--out", default=None, help="report file path")
    sp.add_argument("--format", default="csv", choices=("csv", "text"),
                    help="report file format")
    if tol:
        sp.add_argument("--tol", type=float, default=1e-8, help="identity tolerance")


def _add_grids(sp):
    sp.add_argument("--dx-grid", type=_floats, default=None,
                    help="comma-separated wealth shifts (paired with --eps-grid)")
    sp.add_argument("--eps-grid", type=_floats, default=None,
                    help="comma-separated perturbation sizes")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="numsens",
                                 description="scenario-tree sensitivity analysis "
                                             "of utility maximization under "
                                             "perturbations of the unit of account")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="solve one (x, eps) problem and verify optimality")
    _add_common(sp)
    sp.add_argument("--eps", type=float, default=0.0)

    sp = sub.add_parser("expand", help="quadratic expansion campaign")
    _add_common(sp, tol=True)
    _add_grids(sp)

    sp = sub.add_parser("strategy", help="nearly-optimal strategy campaign")
    _add_common(sp, tol=True)
    _add_grids(sp)

    sp = sub.add_parser("risk-tolerance", help="replication and decomposition cross-check")
    _add_common(sp, tol=True)

    sp = sub.add_parser("counterexample", help="built-in boundary models")
    sp.add_argument("which", choices=("unbounded-jumps", "integrability"))
    sp.add_argument("--eps-grid", type=_floats,
                    default=(0.25, -0.25, 0.5, -0.5, 1.0, -1.0, 0.0))
    sp.add_argument("--n-max", type=int, default=12)
    sp.add_argument("--depths", type=lambda s: tuple(int(t) for t in s.split(",")),
                    default=(6, 8, 10))
    sp.add_argument("--out", default=None)
    sp.add_argument("--format", default="csv", choices=("csv", "text"))

    sp = sub.add_parser("verify-all", help="every campaign and check on one market")
    _add_common(sp)
    return ap


def _campaign_from_args(args, model, utility):
    if args.dx_grid is None and args.eps_grid is None:
        return dyadic_campaign(model, utility, args.x, tol=args.tol)
    dx = args.dx_grid if args.dx_grid is not None else tuple(0.0 for _ in args.eps_grid)
    ep = args.eps_grid if args.eps_grid is not None else tuple(0.0 for _ in args.dx_grid)
    return Campaign(model=model, utility=utility, x=args.x, dx_grid=dx, eps_grid=ep, tol=args.tol)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}")
        return 2


def _dispatch(args) -> int:
    if args.command == "counterexample":
        which = args.which.replace("-", "_")
        if which == "unbounded_jumps":
            report = run_counterexample(which, eps_list=args.eps_grid, n_max=args.n_max)
        else:
            report = run_counterexample(which, depths=args.depths)
    else:
        model, utility = load_market(args.spec)
        if utility is None:
            utility = log_utility()
        if args.command == "solve":
            report = solve_report(solve_pair(model, utility, args.x, args.eps))
        elif args.command == "expand":
            report = run_expansion_campaign(_campaign_from_args(args, model, utility))
        elif args.command == "strategy":
            report = run_strategy_campaign(_campaign_from_args(args, model, utility))
        elif args.command == "risk-tolerance":
            report = risk_tolerance_report(model, utility, args.x, tol=args.tol)
        elif args.command == "verify-all":
            report = verify_all(model, utility, args.x)
        else:  # pragma: no cover
            raise AssertionError(args.command)

    ok = report.all_passed
    if args.out:
        ok = emit(report, args.out, args.format)
    for c in report.checks:
        print(f"[{'PASS' if c.passed else 'FAIL'}] {report.title}/{c.name}")
    print(f"{report.title}: {'all checks passed' if ok else 'FAILURES present'}")
    return 0 if ok else 1


def entrypoint():  # console script hook
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
