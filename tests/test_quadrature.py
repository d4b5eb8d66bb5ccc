import hashlib
import math

import numpy as np
import pytest

from ebb.errors import BudgetError, NumericalFailure
from ebb.quadrature import adaptive_gk15


def mapped(f):
    """The scalar integrand f as adaptive_gk15 calls it: on an array of
    nodes, with f's values at each node, in order, as the rows of one array."""
    return lambda xs: np.array([f(x) for x in xs.tolist()])


TENTHS = [(k / 10, (k + 1) / 10) for k in range(10)]


def test_polynomial_exact():
    # GK15 integrates degree-22 polynomials exactly on a single panel.
    res = adaptive_gk15(mapped(lambda x: np.array([x**8])), [(-1.0, 2.0)], 1e-12, 1000)
    assert res.integral[0] == pytest.approx((2.0**9 + 1.0) / 9.0, rel=1e-14, abs=0)
    assert res.converged


def test_vector_integrand_componentwise():
    res = adaptive_gk15(
        mapped(lambda x: np.array([math.sin(x), math.cos(x), 1.0])),
        [(0.0, math.pi)],
        1e-12,
        100_000,
    )
    np.testing.assert_allclose(res.integral, [2.0, 0.0, math.pi], atol=1e-12)


def test_oscillatory_needs_subdivision_and_converges():
    res = adaptive_gk15(
        mapped(lambda x: np.array([math.cos(40.0 * x)])), [(0.0, 1.0)], 1e-10, 100_000
    )
    assert res.integral[0] == pytest.approx(math.sin(40.0) / 40.0, abs=1e-10)
    assert res.evaluations > 15
    assert res.converged


def test_multiple_intervals():
    res = adaptive_gk15(mapped(lambda x: np.array([1.0])), [(0.0, 1.0), (2.0, 4.0)], 1e-12, 1000)
    assert res.integral[0] == pytest.approx(3.0, rel=1e-14, abs=0)


def test_empty_intervals():
    res = adaptive_gk15(mapped(lambda x: np.array([1.0])), [], 1e-12, 1000)
    assert res.integral[0] == 0.0
    assert res.converged


def test_budget_exhaustion_reported():
    res = adaptive_gk15(
        mapped(lambda x: np.array([math.cos(500.0 * x * x)])), [(0.0, 3.0)], 1e-14, 200
    )
    assert not res.converged
    # The budget is spent: less than one more split (30 evaluations) is left.
    assert 200 - 30 < res.evaluations <= 200


def test_budget_below_initial_panels_raises_before_evaluating():
    calls = []

    def f(x):
        calls.append(x)
        return np.array([1.0])

    # Ten initial panels need 150 evaluations.
    with pytest.raises(BudgetError, match="need 150 evaluations, more than 149"):
        adaptive_gk15(mapped(f), TENTHS, 1e-12, 149)
    assert calls == []
    assert adaptive_gk15(mapped(f), TENTHS, 1e-12, 150).evaluations == 150


def test_caller_panels_are_all_evaluated():
    # Every panel the caller lays out gets the base rule, also where one
    # panel over the whole interval would already converge.
    calls = []

    def f(x):
        calls.append(x)
        return np.array([1.0])

    res = adaptive_gk15(mapped(f), TENTHS, 1e-12, 10_000)
    assert res.evaluations == len(calls) == 150
    assert all(any(lo < x < hi for x in calls) for lo, hi in TENTHS)
    assert res.integral[0] == pytest.approx(1.0, rel=1e-14, abs=0)


def test_deterministic_repeat():
    def f(x):
        return np.array([math.exp(-x * x) * math.cos(25 * x)])

    a = adaptive_gk15(mapped(f), [(-2.0, 2.0)], 1e-11, 100_000)
    b = adaptive_gk15(mapped(f), [(-2.0, 2.0)], 1e-11, 100_000)
    assert a.integral[0] == b.integral[0]
    assert a.error[0] == b.error[0]
    assert a.evaluations == b.evaluations


def test_error_estimate_bounds_true_error():
    def f(x):
        return np.array([1.0 / (1.0 + 25.0 * x * x)])

    res = adaptive_gk15(mapped(f), [(-1.0, 1.0)], 1e-9, 100_000)
    exact = 2.0 / 5.0 * math.atan(5.0)
    assert abs(res.integral[0] - exact) < 10 * max(res.error[0], 1e-15)


def test_panels_at_width_floor_counted():
    # A jump at 1/3 never meets tol = 1e-15: the panel holding it is halved
    # down to MIN_PANEL_WIDTH and then set aside, and the count says so.
    # The constant panels beside it carry only rounding error; they are set
    # aside unsplit at the rounding floor instead of spending the budget.
    def step(x):
        return np.array([1.0 if x < 1.0 / 3.0 else 0.0])

    res = adaptive_gk15(mapped(step), [(0.0, 1.0)], 1e-15, 5000)
    assert res.panels_at_width_floor > 0
    assert res.panels_at_rounding_floor > 0
    assert res.evaluations < 2000
    assert abs(res.integral[0] - 1.0 / 3.0) < 1e-14
    assert not res.converged
    smooth = adaptive_gk15(mapped(lambda x: np.array([math.exp(x)])), [(0.0, 1.0)], 1e-15, 5000)
    assert smooth.converged
    assert smooth.panels_at_width_floor == smooth.panels_at_rounding_floor == 0


@pytest.mark.parametrize("value", [1e308, math.nan, math.inf])
def test_non_finite_error_estimate_raises_at_once(value):
    # Kronrod sums of values near 1e308 overflow, and a NaN or inf value
    # gives a NaN error: the first panel that shows it stops the
    # integration after the pass that evaluated it, instead of the budget
    # being spent on NaN.
    calls = []

    def f(xs):
        calls.append(xs)
        return np.array([[1.0, value]] * len(xs))

    with pytest.raises(NumericalFailure, match=r"panel \[0.0, 0.5\] is not finite"):
        adaptive_gk15(f, [(0.0, 0.5), (0.5, 1.0)], 1e-8, 100_000)
    # One call, on the first pass's 30 nodes, and none after it.
    assert [len(xs) for xs in calls] == [30]


def _step(x):
    return np.array([1.0 if x < 1.0 / 3.0 else 0.0])


def _spikes(x):
    # 300/pi narrow peaks over [0, 1] beside two smooth components: many
    # passes, each splitting panels between unsplit neighbours.
    s = math.sin(300.0 * x)
    return np.array([1.0 / (s * s + 1e-6), math.cos(x), 1.0])


HUNDREDTHS = [(k / 100, (k + 1) / 100) for k in range(100)]


@pytest.mark.parametrize(
    "f, panels, tol, budget, evaluations, integral, error, floors, converged",
    [
        (lambda x: np.array([math.cos(40.0 * x)]), [(0.0, 1.0)], 1e-10, 100_000,
         345, [0.018627829011983694], [7.857684121426178e-11], (0, 0), True),
        (lambda x: np.array([1.0 / (1.0 + 25.0 * x * x)]), [(-1.0, 1.0)], 1e-9, 100_000,
         195, [0.5493603067780064], [5.31657821933873e-10], (0, 0), True),
        (_step, [(0.0, 1.0)], 1e-15, 5000,
         1335, [0.33333333333333404], [2.8476966571397512e-15], (1, 44), False),
        (lambda x: np.array([math.sqrt(x), math.log(x)]), [(0.0, 1.0)], 1e-13, 100_000,
         1305, [0.6666666666666667, -0.9999999999999938],
         [7.064677520730882e-16, 9.866585307183421e-14], (0, 0), True),
        (_spikes, HUNDREDTHS, 1e-10, 1_000_000,
         77_160, [1000.0730876828334, 0.8414709848078964, 1.0],
         [9.96574605132642e-08, 7.788891466476919e-17, 1.734723475976807e-16], (0, 0), True),
        (_spikes, HUNDREDTHS, 1e-10, 20_000,
         19_980, [890.5105324856492, 0.8414709848078956, 1.0],
         [746.1320891860479, 8.082727195879436e-17, 1.734723475976807e-16], (0, 0), False),
    ],
    ids=["cos40x", "runge", "step", "sqrt-log", "spikes", "spikes-budget"],
)
def test_pinned_results(f, panels, tol, budget, evaluations, integral, error, floors, converged):
    # Exact evaluation counts, bits and floor counts of the subdivision
    # order: a change to the splitting rule that changes any of them shows.
    res = adaptive_gk15(mapped(f), panels, tol, budget)
    assert res.evaluations == evaluations
    assert res.integral.tolist() == integral
    assert res.error.tolist() == error
    assert (res.panels_at_width_floor, res.panels_at_rounding_floor) == floors
    assert res.converged is converged


def test_pinned_node_order():
    # The nodes at which f is called, in call order, as a digest of their
    # float64 bytes: a change in which panels are evaluated, or in what
    # order, shows even where the sums come out the same.
    nodes = []

    def f(x):
        nodes.append(x)
        return _spikes(x)

    adaptive_gk15(mapped(f), HUNDREDTHS, 1e-10, 20_000)
    assert len(nodes) == 19_980
    digest = hashlib.sha256(np.array(nodes, dtype=np.float64).tobytes()).hexdigest()
    assert digest == "219f4fc1f03c18d15fa5f6c26b816fdc9727ac1c4a9bfecd190bc6c2be8c9dec"
