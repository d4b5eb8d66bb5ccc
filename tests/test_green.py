"""The production route of ebb.green to the boundary Green block, the
closed form from the transfer product, and the oracles of ebb.validate it
is checked against: the pivoted solve, the junction identity and the graph
correspondence."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.linalg import eigh_tridiagonal, lapack

from ebb.errors import NumericalFailure
from ebb.green import CONDITION_LIMIT, coupled_green_direct
from ebb.leads import SemiInfiniteLaplacian, weiss_boundary
from ebb.model import SampleSpec
from ebb.potentials import AlmostMathieu, AndersonRandom, Periodic, Zero, generate
from ebb.scattering import t_matrix, transmission
from ebb.transfer import checkpoint_products, end_products
from ebb.validate import _tridiag_solve_boundary, check_graph_map, coupled_green, graph_map_check

from conftest import continuants, dense_green, dense_resolvent


def _closed_form(sample, E, L):
    """The decoupled block (G_00, G_0L, G_LL) of sites 0..L read from the
    transfer product T_L in closed form at zero self-energies:
    (-b, 2^-e, c)/a."""
    ((_, T),) = checkpoint_products(sample.potential, E, [L])
    return coupled_green_direct(sample, E, L, 0j, 0j, T)


def test_every_route_gives_three_python_complex_numbers(lead11):
    # The boundary block is the triple (G_00, G_0L, G_LL) wherever it is
    # made: the oracle solve, the closed form from the transfer product,
    # coupled or not, and the junction identity.
    pot = generate(AndersonRandom(1.0, 4), 12)
    sample, E = SampleSpec(pot), 0.3
    F = weiss_boundary(lead11, E)
    ((_, T),) = checkpoint_products(pot, E, [12])
    G0 = _tridiag_solve_boundary(sample, E, 12)[0]
    blocks = [
        _tridiag_solve_boundary(sample, E, 12, F, F)[0],
        coupled_green_direct(sample, E, 12, F, F, T),
        G0, _closed_form(sample, E, 12), coupled_green(G0, F, F),
    ]
    for G in blocks:
        assert type(G) is tuple and len(G) == 3
        assert all(type(g) is complex for g in G)


def test_decoupled_worked_example():
    # L = 1, v = 0, E = 0: h - E = [[0, -1], [-1, 0]], G0 = [[0, -1], [-1, 0]].
    sample = SampleSpec(np.zeros(2))
    G0, _ = _tridiag_solve_boundary(sample, 0.0, 1)
    np.testing.assert_allclose(G0, (0.0, -1.0, 0.0), atol=1e-15)
    np.testing.assert_allclose(_closed_form(sample, 0.0, 1), G0, atol=1e-15)


def test_decoupled_routes_agree_and_match_dense_oracle():
    rng = np.random.default_rng(2)
    for L in (1, 7, 40):
        pot = rng.uniform(-1.2, 1.2, L + 1)
        E = 0.37
        direct, _ = _tridiag_solve_boundary(SampleSpec(pot), E, L)
        via = _closed_form(SampleSpec(pot), E, L)
        np.testing.assert_allclose(via, direct, atol=1e-10)
        ref = np.real(dense_green(pot, E, L))
        np.testing.assert_allclose(direct, ref, atol=1e-10)


def test_decoupled_symmetry():
    # The solve returns one G_0L: h is symmetric, so the dense resolvent's
    # two off-diagonal corners agree, and G_0L matches both.
    pot = generate(AndersonRandom(1.0, 21), 60)
    g = dense_resolvent(pot, -0.4, 60)
    assert g[0, 60] == pytest.approx(g[60, 0], abs=1e-14)
    G0, _ = _tridiag_solve_boundary(SampleSpec(pot), -0.4, 60)
    assert G0[1] == pytest.approx(g[0, 60], abs=1e-14)
    assert G0[1] == pytest.approx(g[60, 0], abs=1e-14)


def test_resonance_detection_both_routes():
    # v = 0, L = 1, E = 1 is an exact Dirichlet eigenvalue: the solve finds
    # the system singular, and the closed form's D = a is exactly 0, so its
    # condition estimate is infinite.
    sample = SampleSpec(np.zeros(2))
    with pytest.raises(NumericalFailure, match=r"tridiagonal solve failed \(info=2\)"):
        _tridiag_solve_boundary(sample, 1.0, 1)
    with pytest.raises(NumericalFailure, match=r"condition estimate inf\)"):
        _closed_form(sample, 1.0, 1)


def test_short_potential_rejected():
    # The closed form reads T_10, and no transfer product of sites 0..10
    # can be built on a shorter sample.
    short = SampleSpec(np.zeros(3))
    with pytest.raises(ValueError, match="need 11"):
        _tridiag_solve_boundary(short, 0.3, 10)
    with pytest.raises(ValueError, match="checkpoints"):
        checkpoint_products(short.potential, 0.3, [10])


def test_condition_estimate_blows_up_at_resonance():
    sample = SampleSpec(np.zeros(2))
    _, near = _tridiag_solve_boundary(sample, 1.0 + 1e-9, 1)
    _, far = _tridiag_solve_boundary(sample, 0.3, 1)
    assert near > 1e7 * far


def test_offdiagonal_underflow_for_long_localized_sample():
    # ||T|| ~ exp(gamma*L) >> float range: g_lr underflows cleanly to 0.
    G0 = _closed_form(SampleSpec(generate(AndersonRandom(2.0, 4), 5000)), 0.0, 5000)
    assert G0[1] == 0.0
    assert np.all(np.isfinite(G0))


def test_coupled_routes_agree_and_match_dense_oracle(lead11):
    rng = np.random.default_rng(3)
    for L in (1, 9, 50):
        pot = rng.uniform(-1, 1, L + 1)
        E = -0.6
        F = weiss_boundary(lead11, E)
        direct = _tridiag_solve_boundary(SampleSpec(pot), E, L, F, F)[0]
        via = coupled_green(_tridiag_solve_boundary(SampleSpec(pot), E, L)[0], F, F)
        np.testing.assert_allclose(via, direct, atol=1e-10)
        ref = dense_green(pot, E, L, F, F)
        np.testing.assert_allclose(direct, ref, atol=1e-10)
        ((_, T),) = checkpoint_products(pot, E, [L])
        np.testing.assert_allclose(coupled_green_direct(SampleSpec(pot), E, L, F, F, T), ref, atol=1e-10)


def test_coupled_direct_survives_dirichlet_resonance(lead11):
    # E = 1 is a Dirichlet eigenvalue of the decoupled L = 1 sample, but
    # the coupled system stays invertible because Im F > 0.
    F = weiss_boundary(lead11, 1.0)
    ((_, T),) = checkpoint_products(np.zeros(2), 1.0, [1])
    G = coupled_green_direct(SampleSpec(np.zeros(2)), 1.0, 1, F, F, T)
    ref = dense_green(np.zeros(2), 1.0, 1, F, F)
    np.testing.assert_allclose(G, ref, atol=1e-12)


def test_coupled_direct_solves_a_closed_system():
    # Im F = 0 on both leads: A = [[-0.5, -1], [-1, 0.5]] is invertible, and
    # the closed form reads its real inverse like any other.
    ((_, T),) = checkpoint_products(np.zeros(2), 0.0, [1])
    G = coupled_green_direct(SampleSpec(np.zeros(2)), 0.0, 1, 0.5 + 0j, -0.5 + 0j, T)
    assert not any(g.imag for g in G)
    np.testing.assert_allclose(G, dense_green(np.zeros(2), 0.0, 1, 0.5, -0.5), rtol=0, atol=1e-14)


def test_ill_conditioned_solve_is_rejected():
    # Couplings of 1e-7 leave the decoupled sample's Dirichlet resonance at
    # E = -1 nearly undamped (Im F = 8.7e-15): the estimate read with the
    # closed form exceeds CONDITION_LIMIT (the oracle solve's reads 9.97e13),
    # and the read fails rather than return G.
    lead = SemiInfiniteLaplacian(1.0, 1e-7)
    F = weiss_boundary(lead, -1.0)
    ((_, T),) = checkpoint_products(np.zeros(11), -1.0, [10])
    with pytest.raises(NumericalFailure) as exc:
        coupled_green_direct(SampleSpec(np.zeros(11)), -1.0, 10, F, F, T)
    assert str(exc.value) == "coupled system ill-conditioned (condition estimate 1.00e+14)"


def test_coupled_green_singular_junction_rejected():
    # G0 = [[0, -1], [-1, 0]], F = diag(0+0j not allowed) -- use a real F
    # pair with Im = 0 that makes I - G0 F singular: F_l = F_r = 1 gives
    # I - G0 F = [[1, 1], [1, 1]].
    G0 = (0j, -1 + 0j, 0j)
    with pytest.raises(NumericalFailure):
        coupled_green(G0, 1.0 + 0j, 1.0 + 0j)


def test_graph_map_residual_small():
    cases = [(AndersonRandom(2.0, seed), E, L)
             for seed, L, E in ((7, 500, 0.5), (1, 50, -1.1), (2, 2000, 0.2))]
    result = check_graph_map(cases)
    assert result.passed, result.detail


def test_graph_map_detects_wrong_green(lead11):
    pot = generate(AndersonRandom(1.0, 8), 30)
    F = weiss_boundary(lead11, 0.5)
    G = _tridiag_solve_boundary(SampleSpec(pot), 0.5, 30, F, F)[0]
    ((_, T),) = checkpoint_products(pot, 0.5, [30])
    assert graph_map_check(tuple(g + 0.01 for g in G), T, F, F) > 1e-4


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
        _, cond = _tridiag_solve_boundary(SampleSpec(t), 0.0, L, F_l, F_r)
    except NumericalFailure:
        return  # exactly singular for gtsv: nothing to estimate
    assert cond <= 2.0 * np.linalg.cond(A, np.inf) * (1.0 + 1e-12)


def test_strong_barrier_is_well_conditioned(lead11):
    # A constant potential of 1e300 is a barrier with kappa_inf(A) ~ 1:
    # neither the solve nor the closed form must reject it as
    # ill-conditioned.
    L, E = 1280, 0.5
    F = weiss_boundary(lead11, E)
    barrier = SampleSpec(np.full(L + 1, 1e300))
    G, cond = _tridiag_solve_boundary(barrier, E, L, F, F)
    assert abs(G[0]) == pytest.approx(1e-300, rel=1e-12, abs=0)
    assert 1.0 <= cond <= 2.0
    (T,) = end_products(barrier.potential, np.array([E]))
    G = coupled_green_direct(barrier, E, L, F, F, T)
    assert abs(G[0]) == pytest.approx(1e-300, rel=1e-12, abs=0)


def test_prefix_solves_match_the_dense_resolvent():
    # Solves on one sample, at its length and at prefixes in any order, each
    # match the dense resolvent, and a repeated solve returns the same bytes:
    # zgtsv overwrites only the buffers each call builds, never the sample.
    rng = np.random.default_rng(11)
    F_l, F_r = 0.3 + 1.0j, -0.2 + 0.5j
    t = rng.normal(size=51)
    sample = SampleSpec(t)
    for L in (1, 2, 7, 50, 7, 2, 1, 50):
        G, cond = _tridiag_solve_boundary(sample, 0.0, L, F_l, F_r)
        np.testing.assert_allclose(G, dense_green(t, 0.0, L, F_l, F_r), rtol=1e-12, atol=1e-14)
        G_again, cond_again = _tridiag_solve_boundary(sample, 0.0, L, F_l, F_r)
        assert np.array(G_again).tobytes() == np.array(G).tobytes() and cond_again == cond
    assert sample.potential.tobytes() == t.tobytes()


def _reference_solve(t, F_l, F_r):
    """The boundary solve on the real diagonal t = v - E written out with a
    keyword zgtsv call on fresh buffers: row L divided by its row sum, the
    G_0L read from the e_0 column and the boundary-row estimate.
    Returns (info, G, cond)."""
    L = len(t) - 1
    diag = t.astype(complex)
    diag[0] -= F_l
    diag[L] -= F_r
    s0, sL = abs(diag[0]) + 1.0, abs(diag[L]) + 1.0
    dl, du = np.full(L, -1.0, dtype=complex), np.full(L, -1.0, dtype=complex)
    dl[L - 1] /= sL
    diag[L] /= sL
    b = np.zeros((L + 1, 2), dtype=complex)
    b[0, 0], b[L, 1] = 1.0, 1.0 / sL
    _, _, _, x, info = lapack.zgtsv(dl=dl, d=diag, du=du, b=b)
    G = (x[0, 0], x[L, 0], x[L, 1])
    cond = max(s0 * float(np.abs(x[:, 0]).max()), sL * float(np.abs(x[:, 1]).max()))
    return info, G, cond


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    L=st.sampled_from([*range(1, 41), 200, 2000]),
    extra=st.integers(0, 3),
    max_exponent=st.floats(-2.0, 300.0),
    E=st.floats(-3.0, 3.0),
    closed=st.sampled_from([None, "l", "r"]),
)
def test_lean_solve_keeps_the_bits(lead11, seed, L, extra, max_exponent, E, closed):
    # The solve on a prefix of a validated sample, with positional flags
    # and buffers it overwrites, gives the same bytes of G and the same condition estimate as the plain solve,
    # for potentials up to about 1e300, E inside and outside the band, and
    # either lead closed (Im F = 0).
    rng = np.random.default_rng(seed)
    n = L + extra
    pot = rng.normal(size=n + 1) * 10.0 ** rng.uniform(-2.0, max_exponent, size=n + 1)
    F = weiss_boundary(lead11, E)
    F_l = complex(F.real, 0.0) if closed == "l" else F
    F_r = complex(F.real, 0.0) if closed == "r" else F
    info, G_ref, cond_ref = _reference_solve(pot[: L + 1] - E, F_l, F_r)
    if info != 0:
        with pytest.raises(NumericalFailure):
            _tridiag_solve_boundary(SampleSpec(pot), E, L, F_l, F_r)
        return
    G, cond = _tridiag_solve_boundary(SampleSpec(pot), E, L, F_l, F_r)
    assert all(type(g) is complex for g in G)
    assert np.array(G).tobytes() == np.array(G_ref).tobytes()
    assert cond == cond_ref


def _continuant_reference(diag):
    """G_00, G_L0 = G_0L and G_LL of A^(-1), for A tridiagonal with diagonal
    `diag` and off-diagonals -1, as the continuant ratios det A_1..L / det A,
    1 / det A and det A_0..L-1 / det A in 80 digits; and the largest
    diagonal entry of the interior resolvent (A_1..L-1)^(-1), which is large
    exactly where E is near an interior Dirichlet eigenvalue."""
    with mpmath.workdps(80):
        a = [mpmath.mpc(z) for z in diag]
        D = continuants(a)[-1]
        G = [complex(q) for q in (continuants(a[1:])[-1] / D, 1 / D, continuants(a[:-1])[-1] / D)]
        inner = a[1:-1]
        if not inner:
            return G, 0.0
        head, tail = continuants(inner), continuants(inner[::-1])[::-1]
        if head[-1] == 0:
            return G, math.inf
        return G, float(max(abs(head[k] * tail[k + 1] / head[-1]) for k in range(len(inner))))


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    L=st.integers(1, 40),
    max_exponent=st.floats(-3.0, 60.0),
    impurities=st.lists(st.tuples(st.integers(0, 40), st.floats(5.0, 300.0)), min_size=1, max_size=4),
    E=st.floats(-3.0, 3.0),
)
# v_L = 1e28 after a last pivot below 1: unless row L is scaled, the x^(L)
# column cancels and the estimate (1.1e12) rejects this accurate solve.
@example(seed=0, L=6, max_exponent=0.0, impurities=[(6, 28.0)], E=0.0)
def test_coupled_green_matches_continuants(seed, L, max_exponent, impurities, E):
    # Heterogeneous samples: site scales from 1e-3 to 10^max_exponent and
    # impurities of 1e5 to 1e300, coupled to random self-energies. G is the
    # triple G_00, G_L0, G_LL of Python complex numbers, and it matches the
    # continuant ratios, also where back-substitution spoils the e_L column
    # at site 0.
    # Energies within about 1e-2 of an interior Dirichlet eigenvalue are out
    # of scope: there the solve loses digits in G_00 or G_LL, whichever read.
    rng = np.random.default_rng(seed)
    pot = rng.normal(size=L + 1) * 10.0 ** rng.uniform(-3.0, max_exponent, size=L + 1)
    for site, exponent in impurities:
        pot[site % (L + 1)] = rng.choice([-1.0, 1.0]) * 10.0**exponent
    F_l, F_r = complex(rng.normal(), rng.uniform(0.1, 2.0)), complex(rng.normal(), rng.uniform(0.1, 2.0))
    diag = (pot - E).astype(complex)
    diag[0] -= F_l
    diag[L] -= F_r
    refs, interior_resolvent = _continuant_reference(diag.tolist())
    assume(interior_resolvent <= 100.0)
    G = _checked_solve(SampleSpec(pot), E, L, F_l, F_r)
    assert len(G) == 3 and all(type(g) is complex for g in G)
    for g, ref in zip(G, refs):
        # Below the normal range the float result keeps only absolute accuracy.
        assert abs(g - ref) <= 1e-12 * abs(ref) + 1e-300


SWEEP_CHECKPOINTS = (
    [10, 16, 24, 38, 58, 91, 141, 220, 342, 532, 827, 1286, 2000],
    # Adjacent checkpoints, also onto the sample's last site.
    [1, 2, 3, 4, 5, 6, 8, 10, 11, 532, 533, 1286, 1287, 1999, 2000],
)


def _right_end_eigenvalues(pot, P, count=2):
    """Up to `count` in-band Dirichlet eigenvalues of sites 0..P whose states
    sit at site P: |psi(P) / psi(0)| > e^100, largest first."""
    w, v = eigh_tridiagonal(pot[: P + 1], -np.ones(P))
    log_end = np.log(np.maximum(np.abs(v[[0, -1]]), 1e-300))
    log_ratio = log_end[1] - log_end[0]
    log_ratio[np.abs(w) > 1.99] = -np.inf
    best = np.argsort(log_ratio)[::-1][:count]
    return w[best[log_ratio[best] > 100.0]].tolist()


def _checked_solve(sample, E, L, F_l, F_r):
    """The oracle solve's block, with the CONDITION_LIMIT check that the
    closed form applies to its own estimate."""
    G, cond = _tridiag_solve_boundary(sample, E, L, F_l, F_r)
    if cond > CONDITION_LIMIT:
        raise NumericalFailure(f"coupled system ill-conditioned (condition estimate {cond:.2e})")
    return G


def _outcome(solve):
    """The value of solve(), or the NumericalFailure it raised."""
    try:
        return solve()
    except NumericalFailure as exc:
        return exc


@pytest.mark.parametrize("spec, localized", [
    (Periodic((1.0, 0.0)), False),
    (AndersonRandom(1.0, 3), True),
    (AndersonRandom(3.0, 5), True),
    (AlmostMathieu(2.5, (5**0.5 - 1) / 2, 0.0), True),
])
def test_transfer_route_matches_the_fresh_solve(lead11, spec, localized):
    # An L-sweep reads each checkpoint's block from the transfer product
    # T_L in closed form. Its tau is within 1e-8 relative of the fresh
    # solve's wherever tau > 1e-300, with the same NumericalFailure
    # outcome: on a grid of 201 energies, at adjacent checkpoints, and at
    # eigenvalues of the prefixes 0..532 and 0..1286 whose states sit at
    # their right end.
    pot = generate(spec, 2000)
    sample = SampleSpec(pot)
    energies = np.linspace(-1.99, 1.99, 201).tolist()
    for P in (532, 1286):
        eigenvalues = _right_end_eigenvalues(pot, P)
        # Extended states sit at neither end.
        assert len(eigenvalues) == (2 if localized else 0)
        energies += eigenvalues
    for E in energies:
        F = weiss_boundary(lead11, E)
        for checkpoints in SWEEP_CHECKPOINTS:
            for L, T in checkpoint_products(pot, E, checkpoints):
                fresh = _outcome(lambda: _checked_solve(sample, E, L, F, F))
                closed = _outcome(lambda: coupled_green_direct(sample, E, L, F, F, T))
                if isinstance(fresh, NumericalFailure) or isinstance(closed, NumericalFailure):
                    assert type(fresh) is type(closed), (E, L, fresh, closed)
                    continue
                tau = transmission(t_matrix(fresh, F, F))
                if tau > 1e-300:
                    assert abs(transmission(t_matrix(closed, F, F)) - tau) <= 1e-8 * tau, (E, L)


def _tau_and_condition(pot, E, F_l, F_r):
    """tau = 4 Im F_l Im F_r / |det A|^2 and kappa_tau = 2 sum_k |a_k| |G_kk|
    of the coupled A on sites 0..len(pot)-1, from the float inputs exactly:
    continuants in 80 digits, with G_kk = det A_0..k-1 det A_k+1..L / det A."""
    with mpmath.workdps(80):
        a = [mpmath.mpf(v) - mpmath.mpf(E) for v in pot]
        a[0] -= mpmath.mpc(F_l)
        a[-1] -= mpmath.mpc(F_r)
        head, tail = continuants(a), continuants(a[::-1])[::-1]
        det = head[-1]
        tau = 4 * F_l.imag * F_r.imag / abs(det) ** 2
        kappa = 2 * sum(abs(a[k] * head[k] * tail[k + 1] / det) for k in range(len(a)))
        return float(tau), float(kappa)


@pytest.mark.parametrize("spec, L, E, coupling", [
    *((AndersonRandom(1.0, 3), L, -1.9887671433748033, 1.0) for L in (220, 342, 532, 827, 1286, 2000)),
    (AndersonRandom(1.0, 3), 533, 1.5278482403730165, 1.0),
    (AndersonRandom(3.0, 5), 141, -0.58288864466325552, 1.0),
    (AndersonRandom(1.0, 3), 2000, -1.8496107247096452, 1.0),
    (AndersonRandom(1.0, 3), 2000, 0.5, 1.0),
    # The estimate reads exactly CONDITION_LIMIT here, so the point is
    # accepted; tau is within 3e-16 relative, the solve's off by 4.4e-5.
    (Zero(), 10, -1.0, 1e-6),
])
def test_transfer_route_tau_within_its_conditioning(spec, L, E, coupling):
    # Near a resonance the transfer route's G_00 and G_LL lose digits (up to
    # 6e-6 of max|G| after the near-resonant stretch of Anderson amplitude
    # 1, seed 3, at E = -1.98877), so its tau is held to its own
    # conditioning instead: within 2 u kappa_tau of 80-digit continuants, at
    # the points of ROADMAP item K with L <= 2000. At E = -1.98877 tau is
    # off by 1.1 u kappa_tau at L = 220 and 1.2 u kappa_tau from L = 342 on.
    # The same holds for the product of the energy-batched sweep that
    # `integrate_fluxes` reads, taken here inside a batch of energies.
    pot = generate(spec, L)
    F = weiss_boundary(SemiInfiniteLaplacian(1.0, coupling), E)
    ref, kappa = _tau_and_condition(pot.tolist(), E, F, F)
    ((_, T),) = checkpoint_products(pot, E, [L])
    _, batched, _ = end_products(pot, np.array([E - 0.5, E, E + 0.5]))
    for T in (T, batched):
        tau = transmission(t_matrix(coupled_green_direct(SampleSpec(pot), E, L, F, F, T), F, F))
        assert abs(tau - ref) <= 2 * 2.0**-53 * kappa * ref
