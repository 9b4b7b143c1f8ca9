"""The library names the benchmark in `perfbench/` looks up must resolve.

`perfbench/tracing.py` wraps its layer and scipy targets by name and
`perfbench/run.py` records the default `workers` of `harness._pmap`; a
renamed target breaks the benchmark, which this catches in seconds."""

import importlib.util
import inspect
from pathlib import Path

import pytest

from numsens import harness

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_targets_resolve(tracing):
    targets = [t for owners in tracing.LAYERS.values() for t in owners]
    targets += tracing.LOCAL.values()
    assert (harness, "brentq") in targets
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr in targets
               if not callable(getattr(owner, attr, None))]
    assert not missing


def test_pool_size_record_resolves():
    workers = inspect.signature(harness._pmap).parameters["workers"]
    assert workers.default is not inspect.Parameter.empty
