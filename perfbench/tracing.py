"""Span tracing of the library's layers, installed from outside the package.

``Tracer.install`` replaces each traced function with a recording wrapper
wherever it is looked up: on its class for methods, in every ``numsens``
module that holds the same object for functions imported by name, and only
in the named module for the scipy routines a layer calls through its own
globals (``linprog`` and ``brentq`` mean different layers in ``solver`` and
``harness``).  ``uninstall`` puts the originals back.

A span records its name, start, end, parent span, task id and thread id.
The parent comes from a context variable, so spans opened on the harness's
worker threads (which do not inherit the caller's context) have no parent
but still carry the task id.  Spans stay in memory until the run writes them.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time
from collections import defaultdict
from contextvars import ContextVar

from numsens import harness, market, preferences, risktol, sensitivity, solver, strategy, tree

# metric prefix -> [(owner, attribute)]; owner is a class or a module
LAYERS = {
    "tree.kernels": [
        (tree.EventTree, "conditional_expectation"),
        (tree.EventTree, "node_mass"),
        (tree, "stochastic_integral"),
        (tree, "stochastic_exponential"),
        (tree, "quadratic_covariation"),
        (tree.AdaptedProcess, "from_increments"),
        (tree.PredictableProcess, "from_steps"),
    ],
    "market.numeraire": [(market, "numeraire")],
    "market.perturbation_statistics": [(market, "perturbation_statistics")],
    "preferences.inverse_marginal": [(preferences.Utility, "inverse_marginal")],
    "solver.attainable_space": [(solver, "attainable_space")],
    "solver.solve_primal": [(solver, "solve_primal")],
    "solver.solve_dual": [(solver, "solve_dual")],
    "solver.verify_deflator": [(solver, "verify_deflator")],
    "sensitivity.build_bases": [(sensitivity, "build_bases")],
    "sensitivity.aux_lsq": [(sensitivity, "solve_aux_primal"), (sensitivity, "solve_aux_dual")],
    "sensitivity.expansion_report": [(sensitivity, "expansion_report")],
    "sensitivity.aux_relation_report": [(sensitivity, "aux_relation_report")],
    "strategy.select_level": [(strategy.StrategyKit, "select_level")],
    "strategy.level_data": [(strategy.StrategyKit, "level_data")],
    "strategy.value_residual": [(strategy.StrategyKit, "value_residual")],
    "risktol.risk_tolerance": [(risktol, "risk_tolerance")],
    "risktol.gkw_decompose": [(risktol, "gkw_decompose")],
    "risktol.hessian_from_gkw": [(risktol, "hessian_from_gkw")],
    "harness.expansion_campaign": [(harness, "run_expansion_campaign")],
    "harness.strategy_campaign": [(harness, "run_strategy_campaign")],
    "harness.risk_tolerance_report": [(harness, "risk_tolerance_report")],
    "harness.model_digest": [(harness, "model_digest")],
}

# scipy routines, patched only in the module whose layer calls them
LOCAL = {
    "solver.arbitrage_lp": (solver, "linprog"),
    "solver.root_find": (solver, "brentq"),
    "harness.root_find": (harness, "brentq"),
}

_MB = 1024.0 * 1024.0


def _numsens_modules():
    return [mod for name, mod in sys.modules.items()
            if mod is not None and (name == "numsens" or name.startswith("numsens."))]


class Tracer:
    def __init__(self):
        self.spans = []                  # (id, name, start, end, parent, task, thread)
        self.task = None
        self._ids = itertools.count(1)
        self._parent = ContextVar("perfbench_parent", default=0)
        self._patches = []               # (owner, attribute, original)
        self._lock = threading.Lock()
        self._task_models = {}           # id -> model, kept alive for the task
        self._built = set()              # model ids whose space was built this task
        self._solved = set()             # (model id, x, eps) solved this task
        self.counts = defaultdict(int)   # space_builds, space_rebuilds, solves, repeat_solves
        self.W_bytes = 0
        self.phi_psi_bytes = 0

    # -- task boundaries ------------------------------------------------------

    def start_task(self, task_id):
        with self._lock:
            self.task = task_id
            self._task_models.clear()
            self._built.clear()
            self._solved.clear()

    # -- observers: counts that need the arguments or the result -------------

    def _model_key(self, m):
        self._task_models[id(m)] = m
        return id(m)

    def _on_space(self, args, kwargs, space):
        with self._lock:
            key = self._model_key(args[0] if args else kwargs["m"])
            self.counts["space_builds"] += 1
            if key in self._built:
                self.counts["space_rebuilds"] += 1
            self._built.add(key)
            self.W_bytes = max(self.W_bytes, space.W.nbytes)

    def _on_solve(self, args, kwargs, _sol):
        bound = dict(zip(("m", "utility", "x", "eps"), args), **kwargs)
        with self._lock:
            key = (self._model_key(bound["m"]), float(bound["x"]), float(bound.get("eps", 0.0)))
            self.counts["solves"] += 1
            if key in self._solved:
                self.counts["repeat_solves"] += 1
            self._solved.add(key)

    def _on_bases(self, _args, _kwargs, basis):
        with self._lock:
            self.phi_psi_bytes = max(self.phi_psi_bytes, basis.Phi.nbytes + basis.Psi.nbytes)

    # -- wrapping ---------------------------------------------------------------

    def _wrap(self, name, fn, observe=None):
        spans, ids, parent_var, clock = self.spans, self._ids, self._parent, time.perf_counter

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = parent_var.get()
            token = parent_var.set(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                parent_var.reset(token)
                spans.append((sid, name, start, end, parent, self.task, threading.get_ident()))
            if observe is not None:
                observe(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        observers = {"solver.attainable_space": self._on_space,
                     "solver.solve_primal": self._on_solve,
                     "sensitivity.build_bases": self._on_bases}
        modules = _numsens_modules()
        for name, targets in LAYERS.items():
            for owner, attr in targets:
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    self._set(owner, attr, classmethod(self._wrap(name, raw.__func__)))
                elif isinstance(owner, type):
                    self._set(owner, attr, self._wrap(name, raw, observers.get(name)))
                else:
                    wrapped = self._wrap(name, raw, observers.get(name))
                    for mod in modules:
                        for key, val in list(vars(mod).items()):
                            if val is raw:
                                self._set(mod, key, wrapped)
        for name, (mod, attr) in LOCAL.items():
            self._set(mod, attr, self._wrap(name, getattr(mod, attr)))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- metrics -------------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer metrics over every span recorded so far."""
        calls = defaultdict(int)
        busy = defaultdict(float)
        child = defaultdict(float)
        for _sid, _name, start, end, parent, _task, _thread in self.spans:
            if parent:
                child[parent] += end - start
        self_s = defaultdict(float)
        for sid, name, start, end, _parent, _task, _thread in self.spans:
            calls[name] += 1
            busy[name] += end - start
            self_s[name] += (end - start) - child.get(sid, 0.0)

        c = self.counts
        out = {}
        for name in list(LAYERS) + list(LOCAL):
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.s"] = (busy[name], "s")
        for name in ("solver.solve_primal", "sensitivity.expansion_report"):
            out[f"{name}.self_s"] = (self_s[name], "s")
        out["solver.space_rebuild_frac"] = (
            c["space_rebuilds"] / c["space_builds"] if c["space_builds"] else 0.0, "frac")
        out["solver.repeat_solve_frac"] = (
            c["repeat_solves"] / c["solves"] if c["solves"] else 0.0, "frac")
        out["solver.W_mb"] = (self.W_bytes / _MB, "MB_computed")
        out["sensitivity.phi_psi_mb"] = (self.phi_psi_bytes / _MB, "MB_computed")
        return out
