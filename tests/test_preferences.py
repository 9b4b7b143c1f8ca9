import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from numsens.errors import ContractViolationError
from numsens.preferences import Utility, log_utility, mixture_utility, power_utility

UTILITIES = [
    log_utility(),
    power_utility(0.5),
    power_utility(-1.0),
    mixture_utility([(0.5, 0.5), (0.5, 0.0)]),
    mixture_utility([(0.3, 0.4), (0.3, -0.7), (0.4, 0.0)]),
]


def test_log_point_values():
    u = log_utility()
    assert u.evaluate(1.0) == (0.0, 1.0, -1.0, 1.0)
    V, dV, d2V, B = u.conjugate(1.0)
    assert (V, dV, B) == (-1.0, -1.0, 1.0)


def test_power_point_values():
    # U(x) = x^p / p
    u = power_utility(0.5)
    U, dU, d2U, A = u.evaluate(4.0)
    assert U == pytest.approx(4.0, abs=0)
    assert dU == pytest.approx(0.5, abs=0)
    assert d2U == pytest.approx(-0.0625, abs=0)
    assert A == pytest.approx(0.5, abs=0)


def test_power_conjugate_closed_form():
    for p in (0.5, -1.0, 0.3):
        u = power_utility(p)
        q = p / (1.0 - p)
        for y in (0.25, 1.0, 3.0):
            assert u.v(y) == pytest.approx(y ** (-q) / q, rel=1e-14)


def test_mixture_point_value():
    u = mixture_utility([(0.5, 0.5), (0.5, 0.0)])
    assert u.rra(1.0) == pytest.approx(0.75, rel=1e-15)
    assert (u.c1, u.c2) == (0.5, 1.0)


def test_fenchel_equality_on_grid():
    xs = np.geomspace(0.01, 100.0, 41)
    for u in UTILITIES:
        lhs = u.v(u.du(xs))
        rhs = u.u(xs) - xs * u.du(xs)
        assert np.max(np.abs(lhs - rhs)) < 1e-10 * np.max(1 + np.abs(rhs))


def test_second_order_conjugacy_on_grid():
    xs = np.geomspace(0.01, 100.0, 41)
    for u in UTILITIES:
        prod = u.d2u(xs) * u.d2v(u.du(xs))
        assert np.max(np.abs(prod + 1.0)) < 1e-10
        assert np.max(np.abs(u.rrt(u.du(xs)) - 1.0 / u.rra(xs))) < 1e-10


def test_domain_errors():
    u = log_utility()
    with pytest.raises(ContractViolationError):
        u.u(0.0)
    with pytest.raises(ContractViolationError):
        u.conjugate(-1.0)


def test_exponential_utility_rejected():
    with pytest.raises(ContractViolationError, match="exponential"):
        Utility.from_obj({"kind": "exponential", "params": {"alpha": 1.0}})


def test_rra_bounds_validated():
    with pytest.raises(ContractViolationError):
        Utility("mixture", ((0.5, 0.5), (0.5, 0.0)), 0.9, 1.0)  # true range [0.5, 1]


@settings(max_examples=60, deadline=None)
@given(st.floats(1e-3, 1e3), st.floats(1e-3, 1e3), st.integers(0, len(UTILITIES) - 1))
def test_marginal_scaling_bounds(z, x, idx):
    u = UTILITIES[idx]
    assert u.du(z * x) <= (z ** (-u.c2) + 1.0) * u.du(x) * (1 + 1e-12)
    assert -u.dv(z * x) <= (z ** (-1.0 / u.c1) + 1.0) * (-u.dv(x)) * (1 + 1e-12)


@settings(max_examples=60, deadline=None)
@given(st.floats(1e-4, 1e4), st.integers(0, len(UTILITIES) - 1))
def test_inverse_marginal_roundtrip(y, idx):
    u = UTILITIES[idx]
    x = u.inverse_marginal(y)
    assert u.du(x) == pytest.approx(y, rel=1e-11)


def test_serialization_roundtrip():
    for u in UTILITIES:
        v = Utility.from_obj(u.to_obj())
        assert v.to_obj() == u.to_obj()


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(1e-6, 1e6), min_size=1, max_size=20),
       st.sampled_from([0.0, 0.5, 0.3, -1.0, -2.0]))
def test_single_term_risk_aversion_is_exact(xs, p):
    u = log_utility() if p == 0.0 else power_utility(p)
    z = np.asarray(xs)
    assert np.array_equal(u.rra(z), np.full(z.shape, 1.0 - p))
    assert np.array_equal(u.rrt(z), np.full(z.shape, 1.0 / (1.0 - p)))
    assert u.rra(xs[0]) == 1.0 - p and np.ndim(u.rra(xs[0])) == 0
    assert u.rrt(z.reshape(1, -1)).shape == (1, z.size)


def test_single_term_risk_aversion_validates_its_argument():
    for bad in (0.0, -1.0, np.inf, [1.0, np.nan]):
        with pytest.raises(ContractViolationError):
            log_utility().rra(bad)
        with pytest.raises(ContractViolationError):
            power_utility(0.5).rrt(bad)
