import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from numsens.errors import AdmissibilityError, ContractViolationError
from numsens.market import (
    MarketModel,
    canonical_text,
    load_market,
    market_from_obj,
    market_to_obj,
    numeraire,
    perturbation_statistics,
    perturbed_prices,
    save_market,
)
from numsens.preferences import log_utility
from numsens.tree import AdaptedProcess, PredictableProcess

from conftest import make_random_tree


def test_eps0_from_jump_bound(t1):
    assert t1.eps0 == pytest.approx(5.0, abs=0)


def test_eps0_is_a_plain_float(t1):
    assert type(t1.eps0) is float
    user = MarketModel(t1.tree, t1.returns, t1.theta, eps0=np.float64(2.0))
    assert type(user.eps0) is float
    with pytest.raises(AdmissibilityError) as err:
        numeraire(t1, 2.0 * t1.eps0)
    assert "np.float64" not in str(err.value)


def test_eps0_user_supplied_rules(t1):
    # smaller is fine, larger than the bound is rejected
    MarketModel(t1.tree, t1.returns, t1.theta, eps0=2.0)
    with pytest.raises(ContractViolationError):
        MarketModel(t1.tree, t1.returns, t1.theta, eps0=6.0)


def test_eps0_infinite_for_bank_direction(bank_dir):
    assert math.isinf(bank_dir.eps0)
    assert np.all(numeraire(bank_dir, 17.3).values == 1.0)


def test_model_invariants_enforced(t1):
    bad = t1.returns.values.copy()
    bad[:, 0] = 0.01
    with pytest.raises(ContractViolationError):
        MarketModel(t1.tree, AdaptedProcess(t1.tree, bad), t1.theta)
    badth = t1.theta.values.copy()
    badth[1:, 0] = 0.5  # sums to 1.5
    with pytest.raises(ContractViolationError):
        MarketModel(t1.tree, t1.returns, PredictableProcess(t1.tree, badth))


def test_numeraire_examples(t1):
    assert np.all(numeraire(t1, 0.0).values == 1.0)
    N = numeraire(t1, 0.5)
    assert np.allclose(N.terminal, [1.05, 1.0, 0.95], atol=0)
    with pytest.raises(AdmissibilityError):
        numeraire(t1, 5.0)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.floats(-0.999, 0.999))
def test_numeraire_positive_inside_radius(seed, frac):
    m = make_random_tree(seed % 1009, depth=2)
    eps = frac * min(m.eps0, 10.0)
    assert np.all(numeraire(m, eps).values > 0.0)


def test_perturbed_prices(t1):
    S0 = perturbed_prices(t1, 0.0)
    assert np.allclose(S0.values[:, 0], 1.0, atol=0)
    assert np.allclose(S0.terminal[:, 1], [1.1, 1.0, 0.9], atol=0)
    S = perturbed_prices(t1, 0.5)
    assert np.allclose(S.terminal[:, 0], [1 / 1.05, 1.0, 1 / 0.95])
    # the perturbation direction prices itself to a constant at full tilt
    S1 = perturbed_prices(t1, 1.0)
    assert np.allclose(S1.terminal[:, 1], 1.0)


def test_perturbation_statistics(t1, bank_dir):
    st1 = perturbation_statistics(t1, c=1.0)
    assert np.allclose(st1.F, [-0.1, 0.0, 0.1], atol=0)
    assert np.allclose(st1.G, [0.01, 0.0, 0.01], atol=0)
    assert math.isinf(st1.c_max)
    expect = (math.exp(0.11) + 1.0 + math.exp(0.11)) / 3.0
    assert st1.exp_moment == pytest.approx(expect, rel=1e-15)
    st0 = perturbation_statistics(bank_dir)
    assert np.all(st0.F == 0.0) and np.all(st0.G == 0.0)


def test_market_file_roundtrip(tmp_path, t1):
    path = tmp_path / "t1.json"
    save_market(t1, path, log_utility())
    m2, u2 = load_market(path)
    save_market(m2, tmp_path / "t1b.json", u2)
    assert (tmp_path / "t1.json").read_bytes() == (tmp_path / "t1b.json").read_bytes()
    assert u2.kind == "log"
    assert np.allclose(m2.returns.values, t1.returns.values, atol=0)
    assert np.allclose(m2.theta.values, t1.theta.values, atol=0)
    assert np.allclose(m2.tree.prob, t1.tree.prob, atol=1e-14, rtol=0)


def test_market_file_canonical_bytes(twop, tmp_path):
    text = canonical_text(market_to_obj(twop))
    m2, _ = market_from_obj(json.loads(text))
    assert canonical_text(market_to_obj(m2)) == text


def test_market_file_rejects_bad_shapes(t1):
    obj = market_to_obj(t1)
    obj["root"]["branches"][0]["dR"] = [0.1, 0.2]
    with pytest.raises(ContractViolationError):
        market_from_obj(obj)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_market_file_roundtrip_random(seed):
    m = make_random_tree(seed % 1013, depth=1 + seed % 2)
    text = canonical_text(market_to_obj(m))
    m2, _ = market_from_obj(json.loads(text))
    assert canonical_text(market_to_obj(m2)) == text
