import math

import numpy as np
import pytest

from ebb.errors import BudgetError, NumericalFailure
from ebb.quadrature import adaptive_gk15


def test_polynomial_exact():
    # GK15 integrates degree-22 polynomials exactly on a single panel.
    res = adaptive_gk15(lambda x: np.array([x**8]), [(-1.0, 2.0)], 1e-12, 1000)
    assert res.integral[0] == pytest.approx((2.0**9 + 1.0) / 9.0, rel=1e-14)
    assert res.converged


def test_vector_integrand_componentwise():
    res = adaptive_gk15(
        lambda x: np.array([math.sin(x), math.cos(x), 1.0]),
        [(0.0, math.pi)],
        1e-12,
        100_000,
    )
    np.testing.assert_allclose(res.integral, [2.0, 0.0, math.pi], atol=1e-12)


def test_oscillatory_needs_subdivision_and_converges():
    res = adaptive_gk15(
        lambda x: np.array([math.cos(40.0 * x)]), [(0.0, 1.0)], 1e-10, 100_000
    )
    assert res.integral[0] == pytest.approx(math.sin(40.0) / 40.0, abs=1e-10)
    assert res.evaluations > 15
    assert res.converged


def test_multiple_intervals():
    res = adaptive_gk15(lambda x: np.array([1.0]), [(0.0, 1.0), (2.0, 4.0)], 1e-12, 1000)
    assert res.integral[0] == pytest.approx(3.0, rel=1e-14)


def test_empty_intervals():
    res = adaptive_gk15(lambda x: np.array([1.0]), [], 1e-12, 1000)
    assert res.integral[0] == 0.0
    assert res.converged


def test_budget_exhaustion_reported():
    res = adaptive_gk15(
        lambda x: np.array([math.cos(500.0 * x * x)]), [(0.0, 3.0)], 1e-14, 200
    )
    assert not res.converged
    assert res.evaluations <= 200


def test_budget_below_initial_panels_raises_before_evaluating():
    calls = []

    def f(x):
        calls.append(x)
        return np.array([1.0])

    # Ten initial panels need 150 evaluations.
    with pytest.raises(BudgetError, match="need 150 evaluations, more than 149"):
        adaptive_gk15(f, [(0.0, 1.0)], 1e-12, 149, max_initial_width=0.1)
    assert calls == []
    assert adaptive_gk15(f, [(0.0, 1.0)], 1e-12, 150, max_initial_width=0.1).evaluations == 150


def test_max_initial_width_forces_panels():
    calls = [0]

    def f(x):
        calls[0] += 1
        return np.array([1.0])

    adaptive_gk15(f, [(0.0, 1.0)], 1e-12, 10_000, max_initial_width=0.1)
    assert calls[0] >= 150  # at least 10 initial panels


def test_deterministic_repeat():
    def f(x):
        return np.array([math.exp(-x * x) * math.cos(25 * x)])

    a = adaptive_gk15(f, [(-2.0, 2.0)], 1e-11, 100_000)
    b = adaptive_gk15(f, [(-2.0, 2.0)], 1e-11, 100_000)
    assert a.integral[0] == b.integral[0]
    assert a.error[0] == b.error[0]
    assert a.evaluations == b.evaluations


def test_error_estimate_bounds_true_error():
    def f(x):
        return np.array([1.0 / (1.0 + 25.0 * x * x)])

    res = adaptive_gk15(f, [(-1.0, 1.0)], 1e-9, 100_000)
    exact = 2.0 / 5.0 * math.atan(5.0)
    assert abs(res.integral[0] - exact) < 10 * max(res.error[0], 1e-15)


def test_panels_at_width_floor_counted():
    # A jump at 1/3 never meets tol = 1e-15: the panel holding it is halved
    # down to MIN_PANEL_WIDTH and then set aside, and the count says so.
    # The constant panels beside it carry only rounding error; they are set
    # aside unsplit at the rounding floor instead of spending the budget.
    def step(x):
        return np.array([1.0 if x < 1.0 / 3.0 else 0.0])

    res = adaptive_gk15(step, [(0.0, 1.0)], 1e-15, 5000)
    assert res.panels_at_width_floor > 0
    assert res.panels_at_rounding_floor > 0
    assert res.evaluations < 2000
    assert abs(res.integral[0] - 1.0 / 3.0) < 1e-14
    assert not res.converged
    smooth = adaptive_gk15(lambda x: np.array([math.exp(x)]), [(0.0, 1.0)], 1e-15, 5000)
    assert smooth.converged
    assert smooth.panels_at_width_floor == smooth.panels_at_rounding_floor == 0


@pytest.mark.parametrize("value", [1e308, math.nan, math.inf])
def test_non_finite_error_estimate_raises_at_once(value):
    # Kronrod sums of values near 1e308 overflow, and a NaN or inf value
    # gives a NaN error: the panel that shows it stops the integration
    # instead of the budget being spent on NaN.
    calls = []

    def f(x):
        calls.append(x)
        return np.array([1.0, value])

    with pytest.raises(NumericalFailure, match=r"panel \[0.0, 0.5\] is not finite"):
        adaptive_gk15(f, [(0.0, 1.0)], 1e-8, 100_000, max_initial_width=0.5)
    assert len(calls) == 15
