import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ebb.errors import UnitarityError
from ebb.green import SelfEnergyPair, coupled_green_direct
from ebb.leads import SemiInfiniteLaplacian, weiss_boundary
from ebb.potentials import AndersonRandom, generate
from ebb.scattering import t_matrix, transmission, unitarity_residual


def test_worked_free_point(lead11):
    # L = 1, v = 0, E = 0: F = i, G = [[i, -1], [-1, i]] / 2,
    # t = [[-1, -i], [-i, -1]], so s = 1 + t is unitary and T = 1.
    se = SelfEnergyPair(1j, 1j)
    G = coupled_green_direct(np.zeros(2), 0.0, 1, se)
    np.testing.assert_allclose(G, np.array([[1j, -1.0], [-1.0, 1j]]) / 2, atol=1e-14)
    t = t_matrix(G, se)
    np.testing.assert_allclose(t, [[-1.0, -1j], [-1j, -1.0]], atol=1e-14)
    assert unitarity_residual(t) < 1e-14
    assert transmission(t) == pytest.approx(1.0, abs=1e-14)


def test_closed_channel_row_is_zero():
    G = np.array([[0.3 + 0.2j, 0.1j], [0.1j, -0.4 + 0.5j]])
    se = SelfEnergyPair(2j, 0.7 + 0j)
    t = t_matrix(G, se)
    assert np.all(t[1, :] == 0) and np.all(t[:, 1] == 0)
    assert transmission(t) == 0.0


def test_transmission_overshoot_raises_and_rounding_clamps():
    bad = np.array([[0.0, 1.0 + 1e-4], [0.0, 0.0]])
    with pytest.raises(UnitarityError):
        transmission(bad)
    edge = np.array([[0.0, 1.0 + 1e-12], [0.0, 0.0]])
    assert transmission(edge) == 1.0


def test_unitarity_residual_flags_broken_t():
    t = np.array([[-1.0, -1j], [-1j, -1.0]])
    assert unitarity_residual(t) < 1e-14
    assert unitarity_residual(t * 1.01) > 1e-3


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 500),
    L=st.integers(1, 120),
    E=st.floats(-1.9, 1.9),
    k=st.floats(1.0, 1.5),
)
def test_unitarity_everywhere_in_band(seed, L, E, k):
    lead = SemiInfiniteLaplacian(k, 1.0)
    pot = generate(AndersonRandom(1.0, seed), L)
    F = weiss_boundary(lead, E)
    se = SelfEnergyPair(F, F)
    G = coupled_green_direct(pot, E, L, se)
    t = t_matrix(G, se)
    assert unitarity_residual(t) < 1e-10
    tau = transmission(t)
    # A Python float, so the densities downstream run on Python numbers.
    assert type(tau) is float
    assert 0.0 <= tau <= 1.0


# The matrix formulas the scalar kernels write out entry by entry.


def t_matrix_oracle(G, se):
    sq = np.array([math.sqrt(se.F_l.imag), math.sqrt(se.F_r.imag)])
    return 2j * (sq[:, None] * np.asarray(G, dtype=complex) * sq[None, :])


def residual_oracle(t):
    th = t.conj().T
    return np.linalg.norm(th @ t + t + th, 2)


def random_complex(rng, shape, scale=1.0):
    return scale * (rng.normal(size=shape) + 1j * rng.normal(size=shape))


def test_t_matrix_matches_matrix_formula_bit_for_bit():
    rng = np.random.default_rng(8)
    for k in range(2000):
        G = random_complex(rng, (2, 2), 10.0 ** rng.uniform(-3, 3))
        F_l, F_r = complex(rng.normal(), rng.exponential()), complex(rng.normal(), rng.exponential())
        if k % 4 == 1:
            F_r = complex(F_r.real, 0.0)  # closed right channel
        se = SelfEnergyPair(F_l, F_r)
        t = t_matrix(G, se)
        ref = t_matrix_oracle(G, se)
        assert t.dtype == ref.dtype and t.shape == ref.shape
        assert t.tobytes() == ref.tobytes()


def test_transmission_matches_numpy_scalar_abs_bit_for_bit():
    # The builtin abs of a numpy complex scalar, like Python's, calls libm
    # hypot; the np.abs ufunc does not, and can differ in the last bit.
    rng = np.random.default_rng(10)
    for z in random_complex(rng, 2000, 0.5).tolist():
        t = np.array([[0.0, z], [0.0, 0.0]])
        if abs(z) <= 1.0:
            assert transmission(t) == float(abs(t[0, 1]) ** 2)


def test_unitarity_residual_matches_svd():
    rng = np.random.default_rng(9)
    ts = [random_complex(rng, (2, 2), 10.0 ** rng.uniform(-8, 4)) for _ in range(2000)]
    # Nearly unitary S = 1 + t from the pipeline, where the residual is rounding.
    lead = SemiInfiniteLaplacian(1.0, 1.0)
    pot = generate(AndersonRandom(1.0, 3), 60)
    for E in np.linspace(-1.9, 1.9, 200):
        F = weiss_boundary(lead, E)
        se = SelfEnergyPair(F, F)
        ts.append(t_matrix(coupled_green_direct(pot, E, 60, se), se))
    for t in ts:
        bound = 1e-15 * max(1.0, np.linalg.norm(t, 2) ** 2)
        assert abs(unitarity_residual(t) - residual_oracle(t)) <= bound
