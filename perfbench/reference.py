"""Reference values recorded at the commit that defined the benchmark, and
the gate that compares a task's outputs against them.

Outputs come in groups of numbers on a common scale (for example the two
value-function Hessians).  A group's error is the largest absolute
deviation from the reference divided by the largest reference magnitude in
the group, so entries that are zero or near zero in exact arithmetic are
judged on the scale of their group.  Each workload and group has its own
tolerance; ``record.py`` derives it from measured agreement (see there and
README.md).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"


def load() -> dict:
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def group_error(got, want) -> float:
    """max|got - want| / max|want|; inf on a length mismatch or a NaN."""
    if len(got) != len(want) or any(math.isnan(g) for g in got):
        return math.inf
    scale = max((abs(w) for w in want), default=0.0)
    dev = max((abs(g - w) for g, w in zip(got, want)), default=0.0)
    if scale == 0.0:
        return 0.0 if dev == 0.0 else math.inf
    return dev / scale


def compare(outputs: dict, expected: dict, tolerance: dict):
    """List of mismatch descriptions (empty when the outputs match)."""
    problems = []
    if set(outputs) != set(expected):
        problems.append(f"output groups {sorted(outputs)} != {sorted(expected)}")
    for group, want in expected.items():
        got = outputs.get(group)
        if got is None:
            continue
        if group == "names":
            if got != want:
                problems.append("check names differ from the reference")
            continue
        err = group_error(got, want)
        if not err <= tolerance[group]:
            problems.append(f"{group}: relative error {err:.3e} > {tolerance[group]:.1e}")
    return problems
