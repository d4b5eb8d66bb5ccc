import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import eigvalsh_tridiagonal

from ebb.potentials import AndersonRandom, Periodic, generate
from ebb.transfer import BLOCK, CHUNK, _smax, checkpoint_products, end_products, norm_and_resonance

from conftest import one_step

LN2 = math.log(2.0)


def naive_log_product(pot, E, L):
    """The one_step product over sites 0..L, divided by its largest |entry|
    after every step: (that matrix, the log of the divisors' product)."""
    M, log_scale = np.eye(2), 0.0
    for x in range(L + 1):
        M = one_step(pot[x], E) @ M
        s = np.abs(M).max()
        M, log_scale = M / s, log_scale + math.log(s)
    return M, log_scale


def transfer(pot, E, L):
    ((_, M),) = checkpoint_products(pot, E, [L])
    return M


def unpack(M):
    """A product (a, b, c, d, e) as the array [[a, b], [c, d]] and its log
    scale e ln 2."""
    a, b, c, d, e = M
    return np.array([[a, b], [c, d]]), e * LN2


def single_site_products(v, E):
    """The product of the one site of potential [v] at E, from each kernel."""
    pot = np.array([v])
    return transfer(pot, E, 0), *end_products(pot, np.array([E]))


def test_one_step_layout_and_det():
    for a, b, c, d, e in single_site_products(0.7, 0.2):
        M = np.ldexp([[a, b], [c, d]], e)
        np.testing.assert_allclose(M, [[0.5, -1.0], [1.0, 0.0]])
        np.testing.assert_array_equal(M, one_step(0.7, 0.2))
        assert np.linalg.det(M) == pytest.approx(1.0, abs=1e-15)


@given(v=st.floats(-10, 10), E=st.floats(-10, 10))
def test_one_step_unimodular(v, E):
    # The scale is a power of two, so the scaled determinant is exact.
    for a, b, c, d, e in single_site_products(v, E):
        assert math.ldexp(a * d - b * c, 2 * e) == 1.0


def test_product_matches_naive_small():
    rng = np.random.default_rng(0)
    pot = rng.uniform(-1, 1, 21)
    for L in (1, 5, 20):
        m, log_scale = unpack(transfer(pot, 0.3, L))
        ref, ref_log = naive_log_product(pot, 0.3, L)
        np.testing.assert_allclose(
            m * math.exp(log_scale), ref * math.exp(ref_log), rtol=1e-12
        )


def test_scaled_entries_stay_bounded():
    pot = generate(AndersonRandom(2.0, 5), 20000)
    m, log_scale = unpack(transfer(pot, 0.5, 20000))
    assert np.max(np.abs(m)) <= 2.0
    assert math.isfinite(log_scale)
    assert log_scale > 100.0  # genuinely exponential growth


def test_log_spectral_norm_identity_and_clamp():
    assert norm_and_resonance((1.0, 0.0, 0.0, 1.0, 0))[0] == 0.0
    assert norm_and_resonance((1.0, 0.0, 0.0, 1.0, -5))[0] == 0.0


def test_log_spectral_norm_against_numpy():
    rng = np.random.default_rng(1)
    pot = rng.uniform(-2, 2, 41)
    M = transfer(pot, -0.4, 40)
    m, log_scale = unpack(M)
    ref = math.log(np.linalg.norm(m * math.exp(log_scale), 2))
    assert norm_and_resonance(M)[0] == pytest.approx(ref, abs=1e-12)


def _rotation(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


@pytest.mark.parametrize("dtype", [float, complex])
def test_closed_form_norm_against_svd(dtype):
    # Entries of magnitude 1e-60..1e60 with random signs or phases, and
    # matrices whose entries span that whole range at once.
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(2000):
        mags = 10.0 ** rng.uniform(-60, 60, 4) if rng.random() < 0.5 else (
            10.0 ** rng.uniform(-60, 60) * rng.uniform(0.1, 1.0, 4))
        if dtype is complex:
            entries = mags * np.exp(2j * np.pi * rng.random(4))
        else:
            entries = mags * rng.choice([-1.0, 1.0], 4)
        ref = np.linalg.norm(entries.reshape(2, 2), 2)
        worst = max(worst, abs(_smax(*entries.tolist()) - ref) / ref)
    assert worst < 1e-10
    assert _smax(*np.zeros(4, dtype=dtype).tolist()) == 0.0

    # Near-isometric: rotation x diag(1 + eps, 1/(1 + eps)) x rotation, with
    # unitary phases for complex entries. There s1 ~ s2, where a form built
    # on the Frobenius norm and the determinant cancels (relative error up
    # to 1e-8).
    worst = 0.0
    for _ in range(2000):
        eps = 10.0 ** rng.uniform(-14, -2)
        rot1, rot2 = (_rotation(theta) for theta in rng.uniform(0, 2 * np.pi, 2))
        m = rot1 @ np.diag([1 + eps, 1 / (1 + eps)]) @ rot2
        if dtype is complex:
            phases = np.exp(2j * np.pi * rng.random(4))
            m = np.diag(phases[:2]) @ m @ np.diag(phases[2:])
        ref = np.linalg.norm(m, 2)
        worst = max(worst, abs(_smax(*m.ravel().tolist()) - ref) / ref)
    assert worst < 1e-12


def test_checkpoint_products_match_full_products():
    # One pass over all checkpoints gives the same matrices, bit for bit,
    # as a separate pass to each checkpoint. Checkpoint 17k - 1 has a tail
    # of k mod BLOCK sites, so every tail length, and with it every power
    # of the padding's quarter turn, is taken; each product also matches
    # the one_step oracle.
    pot = generate(AndersonRandom(1.5, 3), 500)
    cps = sorted({0, 10, 20, 100, 300, 500} | {(BLOCK + 1) * k - 1 for k in range(1, BLOCK + 1)})
    assert {(x + 1) % BLOCK for x in cps} == set(range(BLOCK))
    out = checkpoint_products(pot, 0.1, cps)
    assert [x for x, _ in out] == cps
    for x, M in out:
        assert M == transfer(pot, 0.1, x)
    check_against_naive(pot, 0.1, cps)


def test_scaled_matrix_floats_are_its_array():
    # Either kernel's product is four Python floats and a Python int
    # exponent, as the closed forms that read it expect.
    pot = generate(AndersonRandom(1.5, 3), 500)
    checkpoints = [M for _, M in checkpoint_products(pot, 0.1, [0, 10, 17, 100, 500])]
    for M in (*checkpoints, *end_products(pot, np.array([0.1, 0.7]))):
        assert type(M) is tuple and len(M) == 5
        assert all(type(v) is float for v in M[:4]) and type(M[4]) is int


def test_free_cocycle_period_four():
    # At E = 0 with v = 0 the one-step factor is a quarter rotation, so
    # the product over sites 0..L is orthogonal whenever L+1 % 4 == 0.
    for _, M in checkpoint_products(np.zeros(2001), 0.0, [3, 7, 999, 1999]):
        assert norm_and_resonance(M)[0] < 1e-12


def test_bad_checkpoints_rejected():
    # Outside [0, len(pot) - 1], empty, or not strictly increasing.
    for cps in ([11], [-1], [], [5, 3], [3, 3]):
        with pytest.raises(ValueError):
            checkpoint_products(np.zeros(11), 0.0, cps)


def test_short_potential_rejected():
    with pytest.raises(ValueError):
        checkpoint_products(np.zeros(5), 0.0, [10])


# Checkpoints whose partial last block is full (x + 1 a multiple of BLOCK),
# one site short of that, or one site into the next block.
BOUNDARY_SITES = sorted({k * BLOCK - 1 + d for k in range(1, 7) for d in (-1, 0, 1)})


@st.composite
def checkpoint_sets(draw):
    L = draw(st.integers(1, 6 * BLOCK + 2))
    near = draw(st.lists(st.sampled_from([0] + [x for x in BOUNDARY_SITES if x < L])))
    other = draw(st.lists(st.integers(0, L - 1), max_size=3))
    return sorted({*near, *other, L})


def check_against_naive(pot, E, cps):
    """Every checkpoint's product against the one_step oracle, in log space:
    the log-norms, and the matrices divided by their norms."""
    for x, M in checkpoint_products(pot, E, cps):
        m, log_scale = unpack(M)
        assert np.all(np.isfinite(m)) and math.isfinite(log_scale)
        assert np.max(np.abs(m)) <= 2.0
        ref, ref_log = naive_log_product(pot, E, x)
        ref_norm = ref_log + math.log(np.linalg.norm(ref, 2))
        assert norm_and_resonance(M)[0] == pytest.approx(max(ref_norm, 0.0), rel=1e-10, abs=1e-10)
        np.testing.assert_allclose(
            m / np.linalg.norm(m, 2), ref / np.linalg.norm(ref, 2), rtol=0, atol=1e-9
        )


@settings(max_examples=60, deadline=None)
@given(
    cps=checkpoint_sets(),
    amplitude=st.sampled_from([0.0, 0.5, 2.0, 10.0]),
    seed=st.integers(0, 1000),
    E=st.floats(-2.5, 2.5),
)
# A near-isometric free product, whose norm a cancelling closed form read
# as exactly 1 (log-norm 0 against 1.86e-9).
@example(cps=[1], amplitude=0.0, seed=0, E=6.103515625e-05)
def test_block_lanes_match_naive_product(cps, amplitude, seed, E):
    check_against_naive(generate(AndersonRandom(amplitude, seed), cps[-1]), E, cps)


@settings(max_examples=30, deadline=None)
@given(
    L=st.integers(1, 50),
    amplitude=st.sampled_from([1e150, 1e300]),
    seed=st.integers(0, 1000),
    E=st.floats(-2.5, 2.5),
)
def test_block_lanes_huge_amplitudes_stay_finite(L, amplitude, seed, E):
    # One factor grows entries by up to 1e300 here, so the lanes rescale
    # after every site and no product may overflow.
    cps = sorted({x for x in BOUNDARY_SITES if x < L} | {L})
    check_against_naive(generate(AndersonRandom(amplitude, seed), L), E, cps)


@pytest.mark.parametrize("L", [624, 1280])
def test_fold_keeps_small_entries_normal(L):
    # On a constant barrier v = 1e300 the product's off-diagonal entries are
    # 1e-300 of its largest: b/a = -c/a = -U_L/U_(L+1), which is -1/(v - E)
    # to float precision. The fold of the block products must rescale before
    # such entries turn subnormal and lose bits (as end_products, which
    # rescales after every site here, never lets them).
    pot = np.full(L + 1, 1e300)
    ref = -1.0 / (1e300 - 0.5)
    for a, b, c, _, _ in (transfer(pot, 0.5, L), *end_products(pot, np.array([0.5]))):
        assert abs(b / a / ref - 1.0) < 1e-15
        assert abs(c / a / ref + 1.0) < 1e-15


@pytest.mark.parametrize("spec", [AndersonRandom(1.0, 3), Periodic((1.0, 0.0))])
def test_product_entry_is_the_characteristic_polynomial(spec):
    # Cross-layer check against the spectrum: T_11 of the product over sites
    # 0..L is det(h - E) of those sites, so log|a| + e ln 2 is
    # sum_n log|E - E_n| over the sample's Dirichlet eigenvalues E_n. The
    # tolerance is relative to sum_n |log|E - E_n||, the scale of the sum's
    # rounding: the sum itself comes near 0 inside the bands.
    pot = generate(spec, 300)
    for L in (50, 151, 300):
        eigenvalues = eigvalsh_tridiagonal(pot[: L + 1], -np.ones(L))
        for E in np.linspace(-2.5, 2.5, 37):
            a, *_, e = transfer(pot, E, L)
            logs = np.log(np.abs(E - eigenvalues))
            error = abs(math.log(abs(a)) + e * LN2 - logs.sum())
            assert error <= 1e-10 * np.abs(logs).sum(), (L, E)


@pytest.mark.parametrize("amplitude", [0.0, 1.0, 1e150])
def test_end_products_do_not_depend_on_the_batch(amplitude):
    # Each energy is its own lane, and rescaling by powers of two is exact:
    # its product has the same bits alone, inside a batch of more than CHUNK
    # energies, at either end of it, and beside an energy of 1e12 that makes
    # the pass rescale more often.
    pot = generate(AndersonRandom(amplitude, 3), 300)
    energies = np.random.default_rng(4).uniform(-2.5, 2.5, 2 * CHUNK + 7)
    energies[CHUNK + 3] = 1e12
    batch = list(end_products(pot, energies))
    assert len(batch) == len(energies)
    for i in (0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK - 1, 2 * CHUNK, 2 * CHUNK + 6):
        (alone,) = end_products(pot, energies[i: i + 1])
        assert batch[i] == alone, i
        assert type(alone[4]) is int and all(type(v) is float for v in alone[:4])
    assert list(end_products(pot, np.array([]))) == []


@settings(max_examples=40, deadline=None)
@given(
    L=st.integers(1, 6 * BLOCK + 2),
    amplitude=st.sampled_from([0.0, 0.5, 2.0, 10.0, 1e150, 1e300]),
    seed=st.integers(0, 1000),
    E=st.floats(-2.5, 2.5),
)
def test_end_products_match_naive_product(L, amplitude, seed, E):
    # The product of all sites against the one_step oracle, in log space,
    # as check_against_naive holds the checkpoint products.
    pot = generate(AndersonRandom(amplitude, seed), L)
    (M,) = end_products(pot, np.array([E]))
    m, _ = unpack(M)
    assert np.all(np.isfinite(m)) and 0.5 <= np.max(np.abs(m)) < 1.0
    ref, ref_log = naive_log_product(pot, E, L)
    ref_norm = ref_log + math.log(np.linalg.norm(ref, 2))
    assert norm_and_resonance(M)[0] == pytest.approx(max(ref_norm, 0.0), rel=1e-10, abs=1e-10)
    np.testing.assert_allclose(
        m / np.linalg.norm(m, 2), ref / np.linalg.norm(ref, 2), rtol=0, atol=1e-9
    )
