import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ebb.errors import UnitarityError
from ebb.green import SelfEnergyPair, coupled_green_direct
from ebb.leads import SemiInfiniteLaplacian, weiss_boundary
from ebb.model import SampleSpec
from ebb.potentials import AndersonRandom, generate
from ebb.scattering import t_matrix, transmission, unitarity_residual
from ebb.transfer import checkpoint_products, end_products


def test_worked_free_point(lead11):
    # L = 1, v = 0, E = 0: F = i, G = (i, -1, i) / 2,
    # t = [[-1, -i], [-i, -1]], so s = 1 + t is unitary and T = 1.
    se = SelfEnergyPair(1j, 1j)
    ((_, T),) = checkpoint_products(np.zeros(2), 0.0, [1])
    G = coupled_green_direct(SampleSpec(np.zeros(2)), 0.0, 1, se, T)
    np.testing.assert_allclose(G, (0.5j, -0.5, 0.5j), atol=1e-14)
    t = t_matrix(G, se)
    np.testing.assert_allclose(t, [[-1.0, -1j], [-1j, -1.0]], atol=1e-14)
    assert unitarity_residual(t) < 1e-14
    assert transmission(t) == pytest.approx(1.0, abs=1e-14)


def test_closed_channel_row_is_zero():
    G = (0.3 + 0.2j, 0.1j, -0.4 + 0.5j)
    se = SelfEnergyPair(2j, 0.7 + 0j)
    t = t_matrix(G, se)
    m = np.array(t)
    assert np.all(m[1, :] == 0) and np.all(m[:, 1] == 0)
    assert transmission(t) == 0.0


def test_transmission_overshoot_raises_and_rounding_clamps():
    bad = ((0j, 1.0 + 1e-4 + 0j), (0j, 0j))
    with pytest.raises(UnitarityError):
        transmission(bad)
    edge = ((0j, 1.0 + 1e-12 + 0j), (0j, 0j))
    assert transmission(edge) == 1.0
    # A NaN compares False with the bound and min(1.0, nan) is 1.0: it must
    # raise instead of passing as full transmission.
    with pytest.raises(UnitarityError):
        transmission(((0j, complex(math.nan, 0.0)), (0j, 0j)))


def test_unitarity_residual_flags_broken_t():
    t = ((-1.0 + 0j, -1j), (-1j, -1.0 + 0j))
    assert unitarity_residual(t) < 1e-14
    assert unitarity_residual(as_t(1.01 * np.array(t))) > 1e-3


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 500),
    L=st.integers(1, 120),
    E=st.floats(-1.9, 1.9),
    k=st.floats(1.0, 1.5),
)
def test_unitarity_everywhere_in_band(seed, L, E, k):
    lead = SemiInfiniteLaplacian(k, 1.0)
    sample = SampleSpec(generate(AndersonRandom(1.0, seed), L))
    F = weiss_boundary(lead, E)
    se = SelfEnergyPair(F, F)
    ((_, T),) = checkpoint_products(sample.potential, E, [L])
    G = coupled_green_direct(sample, E, L, se, T)
    t = t_matrix(G, se)
    assert unitarity_residual(t) < 1e-10
    tau = transmission(t)
    # A Python float, so the densities downstream run on Python numbers.
    assert type(tau) is float
    assert 0.0 <= tau <= 1.0


# The matrix formulas the scalar kernels write out entry by entry.


def as_t(m):
    """A 2x2 array as t_matrix returns t: rows of Python complex numbers."""
    return tuple(tuple(complex(z) for z in row) for row in m.tolist())


def t_matrix_oracle(G, se):
    """The matrix formula on the symmetric 2x2 matrix of G = (G_00, G_0L, G_LL)."""
    g00, g0L, gLL = G
    sq = np.array([math.sqrt(se.F_l.imag), math.sqrt(se.F_r.imag)])
    return 2j * (sq[:, None] * np.array([[g00, g0L], [g0L, gLL]]) * sq[None, :])


def residual_oracle(t):
    t = np.array(t)
    th = t.conj().T
    return np.linalg.norm(th @ t + t + th, 2)


def random_complex(rng, shape, scale=1.0):
    return scale * (rng.normal(size=shape) + 1j * rng.normal(size=shape))


def test_t_matrix_matches_matrix_formula_bit_for_bit():
    rng = np.random.default_rng(8)
    for k in range(2000):
        G = tuple(random_complex(rng, 3, 10.0 ** rng.uniform(-3, 3)).tolist())
        F_l, F_r = complex(rng.normal(), rng.exponential()), complex(rng.normal(), rng.exponential())
        if k % 4 == 1:
            F_r = complex(F_r.real, 0.0)  # closed right channel
        se = SelfEnergyPair(F_l, F_r)
        t = t_matrix(G, se)
        assert all(type(z) is complex for row in t for z in row)
        m, ref = np.array(t), t_matrix_oracle(G, se)
        assert m.dtype == ref.dtype and m.shape == ref.shape
        assert m.tobytes() == ref.tobytes()


def test_transmission_matches_numpy_scalar_abs_bit_for_bit():
    # The builtin abs of a numpy complex scalar, like Python's, calls libm
    # hypot; the np.abs ufunc does not, and can differ in the last bit.
    rng = np.random.default_rng(10)
    for z in random_complex(rng, 2000, 0.5).tolist():
        m = np.array([[0.0, z], [0.0, 0.0]])
        if abs(z) <= 1.0:
            assert transmission(as_t(m)) == float(abs(m[0, 1]) ** 2)


def test_unitarity_residual_matches_svd():
    rng = np.random.default_rng(9)
    ts = [as_t(random_complex(rng, (2, 2), 10.0 ** rng.uniform(-8, 4))) for _ in range(2000)]
    # Nearly unitary S = 1 + t from the pipeline, where the residual is rounding.
    lead = SemiInfiniteLaplacian(1.0, 1.0)
    sample = SampleSpec(generate(AndersonRandom(1.0, 3), 60))
    grid = np.linspace(-1.9, 1.9, 200)
    for E, T in zip(grid, end_products(sample.potential, grid)):
        F = weiss_boundary(lead, E)
        se = SelfEnergyPair(F, F)
        ts.append(t_matrix(coupled_green_direct(sample, E, 60, se, T), se))
    for t in ts:
        bound = 1e-15 * max(1.0, np.linalg.norm(t, 2) ** 2)
        assert abs(unitarity_residual(t) - residual_oracle(t)) <= bound
