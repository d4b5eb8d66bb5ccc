"""The production coupled solve of ebb.green, and the independent routes
of ebb.validate it is checked against."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ebb.errors import DomainError, NumericalFailure, ResonanceError
from ebb.green import (
    SelfEnergyPair,
    _off_diagonal,
    _tridiag_solve_boundary,
    coupled_green_direct,
)
from ebb.leads import weiss_boundary
from ebb.potentials import AndersonRandom, generate
from ebb.transfer import checkpoint_products
from ebb.validate import (
    check_graph_map,
    coupled_green,
    graph_map_check,
    sample_green_direct,
    sample_green_via_transfer,
)

from conftest import dense_green


def test_self_energy_pair_sign_check():
    assert SelfEnergyPair(1j, 0.5 + 0.0j).open_channel
    assert not SelfEnergyPair(0.5 + 0j, -0.0j).open_channel
    with pytest.raises(DomainError):
        SelfEnergyPair(-1e-6j, 1j)


def test_decoupled_worked_example():
    # L = 1, v = 0, E = 0: h - E = [[0, -1], [-1, 0]], G0 = [[0, -1], [-1, 0]].
    G0, _ = sample_green_direct(np.zeros(2), 0.0, 1)
    np.testing.assert_allclose(G0, [[0.0, -1.0], [-1.0, 0.0]], atol=1e-15)
    ((_, T),) = checkpoint_products(np.zeros(2), 0.0, [1])
    np.testing.assert_allclose(sample_green_via_transfer(T), G0, atol=1e-15)


def test_decoupled_routes_agree_and_match_dense_oracle():
    rng = np.random.default_rng(2)
    for L in (1, 7, 40):
        pot = rng.uniform(-1.2, 1.2, L + 1)
        E = 0.37
        direct, _ = sample_green_direct(pot, E, L)
        ((_, T),) = checkpoint_products(pot, E, [L])
        via = sample_green_via_transfer(T)
        np.testing.assert_allclose(via, direct, atol=1e-10)
        ref = dense_green(pot, E, L).real
        np.testing.assert_allclose(direct, ref, atol=1e-10)


def test_decoupled_symmetry():
    pot = generate(AndersonRandom(1.0, 21), 60)
    G0, _ = sample_green_direct(pot, -0.4, 60)
    assert G0[0, 1] == pytest.approx(G0[1, 0], abs=1e-14)


def test_resonance_detection_both_routes():
    # v = 0, L = 1, E = 1 is an exact Dirichlet eigenvalue: the direct
    # route reports an infinite condition estimate, the transfer route raises.
    assert sample_green_direct(np.zeros(2), 1.0, 1) == (None, math.inf)
    ((_, T),) = checkpoint_products(np.zeros(2), 1.0, [1])
    with pytest.raises(ResonanceError):
        sample_green_via_transfer(T)


def test_short_potential_rejected():
    with pytest.raises(ValueError, match="need 11"):
        sample_green_direct(np.zeros(3), 0.3, 10)
    with pytest.raises(ValueError, match="need 11"):
        coupled_green_direct(np.zeros(3), 0.3, 10, SelfEnergyPair(1j, 1j))


def test_condition_estimate_blows_up_at_resonance():
    pot = np.zeros(2)
    _, near = sample_green_direct(pot, 1.0 + 1e-9, 1)
    _, far = sample_green_direct(pot, 0.3, 1)
    assert near > 1e7 * far


def test_offdiagonal_underflow_for_long_localized_sample():
    # ||T|| ~ exp(gamma*L) >> float range: g_lr underflows cleanly to 0.
    pot = generate(AndersonRandom(2.0, 4), 5000)
    ((_, T),) = checkpoint_products(pot, 0.0, [5000])
    G0 = sample_green_via_transfer(T)
    assert G0[0, 1] == 0.0
    assert np.all(np.isfinite(G0))


def _se(lead, E):
    F = weiss_boundary(lead, E)
    return SelfEnergyPair(F, F)


def test_coupled_routes_agree_and_match_dense_oracle(lead11):
    rng = np.random.default_rng(3)
    for L in (1, 9, 50):
        pot = rng.uniform(-1, 1, L + 1)
        E = -0.6
        se = _se(lead11, E)
        direct = coupled_green_direct(pot, E, L, se)
        via = coupled_green(sample_green_direct(pot, E, L)[0], se)
        np.testing.assert_allclose(via, direct, atol=1e-10)
        ref = dense_green(pot, E, L, se.F_l, se.F_r)
        np.testing.assert_allclose(direct, ref, atol=1e-10)


def test_coupled_direct_survives_dirichlet_resonance(lead11):
    # E = 1 is a Dirichlet eigenvalue of the decoupled L = 1 sample, but
    # the coupled system stays invertible because Im F > 0.
    se = _se(lead11, 1.0)
    G = coupled_green_direct(np.zeros(2), 1.0, 1, se)
    ref = dense_green(np.zeros(2), 1.0, 1, se.F_l, se.F_r)
    np.testing.assert_allclose(G, ref, atol=1e-12)


def test_coupled_direct_requires_open_channel():
    with pytest.raises(DomainError):
        coupled_green_direct(np.zeros(2), 0.0, 1, SelfEnergyPair(0.5 + 0j, -0.5 + 0j))


def test_coupled_green_singular_junction_rejected():
    # G0 = [[0, -1], [-1, 0]], F = diag(0+0j not allowed) -- use a real F
    # pair with Im = 0 that makes I - G0 F singular: F_l = F_r = 1 gives
    # I - G0 F = [[1, 1], [1, 1]].
    G0 = np.array([[0.0, -1.0], [-1.0, 0.0]])
    with pytest.raises(NumericalFailure):
        coupled_green(G0, SelfEnergyPair(1.0 + 0j, 1.0 + 0j))


def test_graph_map_residual_small():
    cases = [(AndersonRandom(2.0, seed), E, L)
             for seed, L, E in ((7, 500, 0.5), (1, 50, -1.1), (2, 2000, 0.2))]
    result = check_graph_map(cases)
    assert result.passed, result.detail


def test_graph_map_detects_wrong_green(lead11):
    pot = generate(AndersonRandom(1.0, 8), 30)
    se = _se(lead11, 0.5)
    G = coupled_green_direct(pot, 0.5, 30, se)
    ((_, T),) = checkpoint_products(pot, 0.5, [30])
    assert graph_map_check(G + 0.01, T, se) > 1e-4


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    L=st.integers(1, 29),
    max_exponent=st.floats(-2.0, 20.0),
    coupled=st.booleans(),
)
def test_condition_estimate_at_most_twice_kappa_inf(seed, L, max_exponent, coupled):
    # The estimate ||A||_inf * max|x| must stay a lower bound on kappa_inf(A)
    # up to the boundary rows of ||A||_inf, which it counts with two
    # off-diagonals instead of one: at most a factor 2. Potentials reach
    # 1e20, where ||A^(-1)|| is far below 1.
    rng = np.random.default_rng(seed)
    t = rng.normal(size=L + 1) * 10.0 ** rng.uniform(-2.0, max_exponent, size=L + 1)
    F_l = F_r = 0j
    if coupled:
        F_l = complex(rng.normal(), rng.exponential())
        F_r = complex(rng.normal(), rng.exponential())
    A = np.diag(t - np.array([F_l] + [0j] * (L - 1) + [F_r]))
    A += np.diag(np.full(L, -1.0), 1) + np.diag(np.full(L, -1.0), -1)
    try:
        _, cond = _tridiag_solve_boundary(t, F_l, F_r)
    except NumericalFailure:
        return  # exactly singular for gtsv: nothing to estimate
    assert cond <= 2.0 * np.linalg.cond(A, np.inf) * (1.0 + 1e-12)


def test_strong_barrier_is_well_conditioned(lead11):
    # A constant potential of 1e300 is a barrier with kappa_inf(A) ~ 1: the
    # solve must not be rejected as ill-conditioned.
    L, E = 1280, 0.5
    se = _se(lead11, E)
    G = coupled_green_direct(np.full(L + 1, 1e300), E, L, se)
    assert abs(G[0, 0]) == pytest.approx(1e-300, rel=1e-12)
    _, cond = _tridiag_solve_boundary(np.full(L + 1, 1e300) - E, se.F_l, se.F_r)
    assert 1.0 <= cond <= 2.0


def test_cached_off_diagonal_is_never_written():
    # Every solve at one L passes zgtsv the same cached -1 off-diagonal.
    # zgtsv must copy it: f2py writes into an array passed with leave to
    # overwrite even when the array is read-only, so no flag would guard it.
    rng = np.random.default_rng(11)
    F_l, F_r = 0.3 + 1.0j, -0.2 + 0.5j
    lengths = (1, 2, 7, 50, 7, 2, 1, 50)
    for L in lengths:
        t = rng.normal(size=L + 1)
        G, _ = _tridiag_solve_boundary(t, F_l, F_r)
        np.testing.assert_allclose(G, dense_green(t, 0.0, L, F_l, F_r), rtol=1e-12, atol=1e-14)
    for L in set(lengths):
        off = _off_diagonal(L)
        assert off.shape == (L,) and off.dtype == complex
        assert np.all(off == -1.0)
