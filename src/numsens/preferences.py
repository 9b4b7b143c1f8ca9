"""Utility functions on (0, inf) with relative risk aversion bounded away
from 0 and infinity, their convex conjugates, and the risk-aversion /
risk-tolerance functionals.

Supported kinds: log, power (exponent in (0,1) or (-inf,0)), and positive
mixtures of those.  A mixture component with exponent 0 denotes the log
term.  Exponential utility is rejected on request: its relative risk
aversion is unbounded above, outside this package's hypothesis class.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, NumericalError

_GRID = np.geomspace(1e-6, 1e6, 121)
_INV_TOL = 1e-12


@dataclass(frozen=True)
class Utility:
    kind: str
    components: tuple        # ((weight, exponent), ...); exponent 0 is the log term
    c1: float
    c2: float

    def __post_init__(self):
        if self.kind not in ("log", "power", "mixture"):
            raise ContractViolationError(
                f"unsupported utility kind {self.kind!r}; exponential utility is excluded "
                "(its relative risk aversion grows without bound)"
            )
        for w, p in self.components:
            if w <= 0.0:
                raise ContractViolationError("mixture weights must be positive")
            if p >= 1.0:
                raise ContractViolationError("power exponents must lie in (0,1) or (-inf,0)")
        if not (0.0 < self.c1 <= self.c2):
            raise ContractViolationError("need 0 < c1 <= c2")
        a = self.rra(_GRID)
        if np.any(a < self.c1 - 1e-9) or np.any(a > self.c2 + 1e-9):
            raise ContractViolationError("relative risk aversion leaves [c1, c2] on the test grid")

    # -- primal side ------------------------------------------------------

    def u(self, x):
        x = self._pos(x, "x")
        total = 0.0
        for w, p in self.components:
            total = total + (w * np.log(x) if p == 0.0 else w * x**p / p)
        return total

    def du(self, x):
        x = self._pos(x, "x")
        return sum(w * x ** (p - 1.0) for w, p in self.components)

    def d2u(self, x):
        x = self._pos(x, "x")
        return sum(w * (p - 1.0) * x ** (p - 2.0) for w, p in self.components)

    def rra(self, x):
        """Relative risk aversion -U''(x)x/U'(x); exactly 1 - p for a single
        log (p = 0) or power term, where the quotient would miss it by an ulp."""
        if len(self.components) == 1:
            return self._constant(x, "x", 1.0 - self.components[0][1])
        return -self.d2u(x) * np.asarray(x, dtype=float) / self.du(x)

    def evaluate(self, x):
        """(U, U', U'', A) at x > 0."""
        return self.u(x), self.du(x), self.d2u(x), self.rra(x)

    def inverse_marginal(self, y):
        """x solving U'(x) = y."""
        y = self._pos(y, "y")
        if len(self.components) == 1:
            w, p = self.components[0]
            return (np.asarray(y) / w) ** (1.0 / (p - 1.0))
        return self._invert_mixture(np.asarray(y, dtype=float))

    # -- dual side ---------------------------------------------------------

    def v(self, y):
        i = self.inverse_marginal(y)
        return self.u(i) - np.asarray(y) * i

    def dv(self, y):
        return -self.inverse_marginal(y)

    def d2v(self, y):
        i = self.inverse_marginal(y)
        return -1.0 / self.d2u(i)

    def rrt(self, y):
        """Relative risk tolerance -V''(y)y/V'(y) = 1/A at conjugate points;
        exactly 1/(1 - p) for a single log or power term."""
        if len(self.components) == 1:
            return self._constant(y, "y", 1.0 / (1.0 - self.components[0][1]))
        return -self.d2v(y) * np.asarray(y, dtype=float) / self.dv(y)

    def conjugate(self, y):
        """(V, V', V'', B) at y > 0."""
        return self.v(y), self.dv(y), self.d2v(y), self.rrt(y)

    # -- plumbing -----------------------------------------------------------

    def _pos(self, z, name):
        z = np.asarray(z, dtype=float)
        if np.any(z <= 0.0) or not np.all(np.isfinite(z)):
            raise ContractViolationError(f"{name} must be strictly positive and finite")
        return z if z.ndim else float(z)

    def _constant(self, z, name, value):
        """`value` in the shape of the validated argument z."""
        z = np.asarray(self._pos(z, name))
        return np.full(z.shape, value) if z.ndim else np.float64(value)

    def _invert_mixture(self, y):
        scalar = y.ndim == 0
        y = np.atleast_1d(y)
        # bracket: du is strictly decreasing from +inf to 0
        lo = np.ones_like(y)
        hi = np.ones_like(y)
        for _ in range(200):
            need = self.du(lo) <= y
            if not np.any(need):
                break
            lo[need] *= 0.25
        for _ in range(200):
            need = self.du(hi) >= y
            if not np.any(need):
                break
            hi[need] *= 4.0
        x = np.sqrt(lo * hi)
        for _ in range(200):
            f = self.du(x) - y
            hi = np.where(f < 0.0, x, hi)
            lo = np.where(f > 0.0, x, lo)
            step = f / self.d2u(x)
            xn = x - step
            bad = (xn <= lo) | (xn >= hi) | ~np.isfinite(xn)
            xn[bad] = np.sqrt(lo[bad] * hi[bad])
            done = np.abs(xn - x) <= _INV_TOL * np.maximum(np.abs(xn), 1e-300)
            x = xn
            if np.all(done):
                break
        else:
            raise NumericalError("marginal-utility inversion did not reach tolerance 1e-12")
        return float(x[0]) if scalar else x

    # -- serialization -------------------------------------------------------

    def to_obj(self) -> dict:
        if self.kind == "log":
            params = {}
        elif self.kind == "power":
            params = {"p": float(self.components[0][1])}
        else:
            params = {"components": [[float(w), float(p)] for w, p in self.components]}
        return {"kind": self.kind, "params": params, "c1": float(self.c1), "c2": float(self.c2)}

    @classmethod
    def from_obj(cls, obj: dict) -> "Utility":
        kind = obj["kind"]
        params = obj.get("params", {})
        c1 = obj.get("c1")
        c2 = obj.get("c2")
        if kind == "log":
            return log_utility() if c1 is None else cls("log", ((1.0, 0.0),), c1, c2)
        if kind == "power":
            p = float(params["p"])
            return power_utility(p) if c1 is None else cls("power", ((1.0, p),), c1, c2)
        if kind == "mixture":
            comps = [(float(w), float(p)) for w, p in params["components"]]
            return mixture_utility(comps, c1=c1, c2=c2)
        raise ContractViolationError(
            f"unsupported utility kind {kind!r}; exponential utility is excluded "
            "(its relative risk aversion grows without bound)"
        )


def log_utility() -> Utility:
    return Utility("log", ((1.0, 0.0),), 1.0, 1.0)


def power_utility(p: float) -> Utility:
    """U(x) = x^p / p, p in (0,1) or (-inf,0); A(x) = 1 - p."""
    if p == 0.0 or p >= 1.0:
        raise ContractViolationError("power exponent must lie in (0,1) or (-inf,0)")
    return Utility("power", ((1.0, p),), 1.0 - p, 1.0 - p)


def mixture_utility(components, c1=None, c2=None) -> Utility:
    """Weighted sum of power/log terms; risk aversion varies between
    1 - max(p) and 1 - min(p)."""
    comps = tuple((float(w), float(p)) for w, p in components)
    if not comps:
        raise ContractViolationError("a mixture needs at least one component")
    ps = [p for _, p in comps]
    if c1 is None:
        c1 = 1.0 - max(ps)
    if c2 is None:
        c2 = 1.0 - min(ps)
    kind = "mixture" if len(comps) > 1 else ("log" if ps[0] == 0.0 else "power")
    return Utility(kind, comps, float(c1), float(c2))
