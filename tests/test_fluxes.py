import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import ebb.fluxes
import ebb.transfer
from ebb.errors import BudgetError, DomainError, NumericalFailure
from ebb.fluxes import (
    QuadratureParams,
    evaluate_point,
    integrate_fluxes,
    integration_window,
    spectral_densities,
    thermal_factors,
)
from ebb.leads import SemiInfiniteLaplacian, TabulatedLead, weiss_boundary
from ebb.model import SampleSpec, ThermoParams
from ebb.potentials import AlmostMathieu, AndersonRandom, Zero, generate
from ebb.transfer import CHUNK, checkpoint_products, end_products

# Frozen by hand from the closed forms with T = 1, beta_l = 1, mu_l = 1,
# beta_r = 2, mu_r = 0, E = 0: rho_l = 1/(1+e^-1), rho_r = 1/2.
DRHO_REF = 0.2310585786300049
LEAD = SemiInfiniteLaplacian(1.0, 1.0)
# Im F = 0 over [-10, 10]: no open channel.
CLOSED = TabulatedLead(np.array([-10.0, 10.0]), np.full(2, -0.1), np.zeros(2))


def _fluxes(L, thermo, tol=1e-8):
    sample = SampleSpec(generate(Zero(), L))
    return integrate_fluxes(sample, LEAD, LEAD, thermo, QuadratureParams(tolerance=tol))


def test_density_worked_example():
    thermo = ThermoParams(1.0, 2.0, 1.0, 0.0)
    phi_l, j_l, sigma = spectral_densities(0.0, 1.0, thermo)
    assert phi_l == 0.0  # energy density vanishes at E = 0
    assert j_l == pytest.approx(DRHO_REF, abs=1e-15)
    # xi_r - xi_l = 0 - (-1) = 1 at E = 0.
    assert sigma == pytest.approx(DRHO_REF, abs=1e-15)


@settings(max_examples=60)
@given(
    E=st.floats(-5, 5),
    T=st.floats(0, 1),
    beta_l=st.floats(0.1, 10),
    beta_r=st.floats(0.1, 10),
    mu_l=st.floats(-2, 2),
    mu_r=st.floats(-2, 2),
)
def test_density_identities(E, T, beta_l, beta_r, mu_l, mu_r):
    phi_l, j_l, sigma = spectral_densities(E, T, ThermoParams(beta_l, beta_r, mu_l, mu_r))
    # Second-law sign, pointwise.
    assert sigma >= 0.0
    # Entropy density decomposition in terms of the flux densities; the
    # right-lead densities are -phi_l and -j_l.
    recon = beta_r * (-phi_l + mu_r * j_l) + beta_l * (phi_l - mu_l * j_l)
    assert sigma == pytest.approx(-recon, abs=1e-12)


def test_density_rejects_large_negative_sigma():
    # A negative transmission is the kind of upstream fault the sign
    # check must refuse to clamp away.
    with pytest.raises(DomainError):
        spectral_densities(1.0, -1.0, ThermoParams(1.0, 2.0, 1.0, 0.0))


def test_density_equal_occupations_carry_nothing():
    # beta = 1e308: at E = +-1.5 both occupations are 0 or both 1 while
    # xi_r - xi_l overflows to inf, and inf * 0 was NaN. The zeros keep the
    # signs of the product: phi_l is -0 at negative E.
    thermo = ThermoParams(1e308, 1e308, 0.5, -0.5)
    for E in (-1.5, 1.5):
        densities = spectral_densities(E, 1.0, thermo).tolist()
        assert densities == [0.0, 0.0, 0.0]
        assert [math.copysign(1.0, d) for d in densities] == [math.copysign(1.0, E), 1.0, 1.0]
    # Both occupations round to 1 with xi_r - xi_l = -1 finite: sigma is
    # the product's -0, as the plain arithmetic gives it.
    _, _, sigma = spectral_densities(-50.0, 1.0, ThermoParams(1.0, 1.0, -0.5, 0.5))
    assert sigma == 0.0 and math.copysign(1.0, sigma) == -1.0


def test_density_not_finite_raises():
    # mu_l = -1e308 makes xi_l inf while rho_r is open: sigma is inf.
    with pytest.raises(NumericalFailure, match="densities at E=0.25 are not finite: .* sigma inf$"):
        spectral_densities(0.25, 1.0, ThermoParams(2.0, 1.0, -1e308, -0.5))
    with pytest.raises(NumericalFailure, match="densities at E=0.25 are not finite"):
        spectral_densities(0.25, math.nan, ThermoParams(1.0, 2.0, 0.5, -0.5))


def _scalar_densities(E, tau, thermo):
    """The per-node formula the array kernel replaced, written out: one
    math.exp per occupation, and the checks of each node."""
    def fermi(beta, mu):
        x = beta * (E - mu)
        if x >= 0.0:
            z = math.exp(-x)
            return z / (1.0 + z)
        return 1.0 / (1.0 + math.exp(x))

    drho = fermi(thermo.beta_l, thermo.mu_l) - fermi(thermo.beta_r, thermo.mu_r)
    dxi = thermo.beta_r * (E - thermo.mu_r) - thermo.beta_l * (E - thermo.mu_l)
    if drho == 0.0:
        dxi = math.copysign(1.0, dxi)
    j_l = tau * drho
    phi_l = j_l * E
    sigma = tau * dxi * drho
    if not (math.isfinite(phi_l) and math.isfinite(j_l) and math.isfinite(sigma)):
        raise NumericalFailure(f"densities at E={E} are not finite: phi_l {phi_l}, j_l {j_l}, sigma {sigma}")
    if sigma < 0.0:
        if sigma < -1e-30:
            raise DomainError(f"entropy density {sigma} is negative beyond rounding")
        sigma = 0.0
    return phi_l, j_l, sigma


_GRID = np.linspace(-1.9, 1.9, 41).tolist()
_BETA = st.floats(0.1, 1e3) | st.just(1e308)
_MU = st.floats(-2, 2) | st.sampled_from([0.0, -0.0, -1e308])
_NODE = st.tuples(
    st.floats(-50, 50) | st.sampled_from([0.0, -0.0, 1.5, -1.5]),
    st.floats(0, 1) | st.sampled_from([0.0, 5e-324, 1.0, -1.0, math.nan]),
)


@settings(max_examples=200, deadline=None)
@given(nodes=st.lists(_NODE, min_size=1, max_size=40), beta_l=_BETA, beta_r=_BETA, mu_l=_MU, mu_r=_MU)
# On this grid math.exp and numpy's exp round differently at some nodes.
@example(nodes=[(E, 1.0) for E in _GRID], beta_l=1.0, beta_r=2.0, mu_l=0.5, mu_r=-0.5)
# Equal occupations while xi_r - xi_l overflows; x = +-0.0; |x| > 745.
@example(nodes=[(-1.5, 1.0), (1.5, 5e-324), (1.5, 0.0)], beta_l=1e308, beta_r=1e308, mu_l=0.5, mu_r=-0.5)
@example(nodes=[(0.0, 1.0), (-0.0, 1.0), (-0.0, 0.0)], beta_l=1.0, beta_r=2.0, mu_l=0.0, mu_r=-0.0)
@example(nodes=[(50.0, 1.0), (-50.0, 1.0), (1.0, 5e-324)], beta_l=1e3, beta_r=20.0, mu_l=0.0, mu_r=0.5)
def test_density_kernel_is_the_scalar_formula_bit_for_bit(nodes, beta_l, beta_r, mu_l, mu_r):
    # Each row is the scalar formula's densities to the bit, signed zeros
    # included, or the fault it raised, with its message; without a faults
    # dict the kernel raises the first fault in node order.
    thermo = ThermoParams(beta_l, beta_r, mu_l, mu_r)
    E, tau = (np.array(v) for v in zip(*nodes))
    expected = []
    for e, t in nodes:
        try:
            expected.append([v.hex() for v in _scalar_densities(e, t, thermo)])
        except (DomainError, NumericalFailure) as exc:
            expected.append((type(exc), str(exc)))
    faults = {}
    rows = spectral_densities(E, tau, thermo, faults).tolist()
    got = [(type(faults[i]), str(faults[i])) if i in faults else [v.hex() for v in row] for i, row in enumerate(rows)]
    assert got == expected
    first = next((f for f in expected if isinstance(f, tuple)), None)
    if first is None:
        assert spectral_densities(E, tau, thermo).tolist() == rows
    else:
        with pytest.raises(first[0]) as info:
            spectral_densities(E, tau, thermo)
        assert str(info.value) == first[1]


def test_density_kernel_broadcasts_energies_against_transmissions():
    # One energy per row of a transmission table: the thermal factors are
    # taken per energy, and the table is the 1-D kernel on the repeated
    # energies bit for bit, faults under the same flat indices.
    thermo = ThermoParams(1.0, 2.0, 0.5, -0.5)
    E, tau = np.array([-1.0, 0.25, 1.5]), np.tile([0.0, 5e-324, 0.5, 1.0], (3, 1))
    tau[1, 2], tau[2, 1] = -1.0, math.nan
    faults, flat_faults = {}, {}
    table = spectral_densities(E[:, None], tau, thermo, faults)
    flat = spectral_densities(np.repeat(E, 4), tau.ravel(), thermo, flat_faults)
    assert table.shape == (3, 4, 3) and table.tobytes() == flat.tobytes()
    assert [(i, str(exc)) for i, exc in faults.items()] == [(i, str(exc)) for i, exc in flat_faults.items()]
    assert list(faults) == [6, 9]
    assert str(faults[9]) == "densities at E=1.5 are not finite: phi_l nan, j_l nan, sigma nan"


def test_thermal_factors_peak_stays_within_four_and_a_half_arrays():
    # The Fermi factors free their argument once the branch is selected and
    # divide in place, and the differences are taken in place: on 10^5
    # energies the traced peak, the two returned arrays included, stays
    # within 4.5 arrays of as many floats.
    E = np.linspace(-2.0, 2.0, 10**5)
    tracemalloc.start()
    try:
        thermal_factors(E, ThermoParams(1.0, 2.0, 0.5, -0.5))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4.5 * E.nbytes


def _product(E, L=1):
    """T_L(E) of the free sample zeros(L + 1)."""
    ((_, T),) = checkpoint_products(np.zeros(L + 1), E, [L])
    return T


def test_evaluate_point_free_sample(lead11):
    F = weiss_boundary(lead11, 0.0)
    tau, residual = evaluate_point(SampleSpec(np.zeros(2)), 0.0, 1, F, F, _product(0.0))
    assert tau == pytest.approx(1.0, abs=1e-14)
    assert residual < 1e-13


def test_evaluate_point_closed_channel(lead11):
    F = weiss_boundary(CLOSED, 0.5)
    assert evaluate_point(SampleSpec(np.zeros(2)), 0.5, 1, F, F, _product(0.5)) == (0.0, 0.0)


def test_closed_channel_is_decided_before_the_solve(monkeypatch):
    # evaluate_point is the one open-channel test: a closed pair never
    # reaches the Green block.
    def solve(*args):
        raise AssertionError("closed channel reached the Green block")

    monkeypatch.setattr(ebb.fluxes, "coupled_green_direct", solve)
    F = weiss_boundary(CLOSED, 0.5)
    assert evaluate_point(SampleSpec(np.zeros(2)), 0.5, 1, F, F, _product(0.5)) == (0.0, 0.0)


def test_integration_window_margin():
    (lo, hi), = integration_window(LEAD, LEAD, QuadratureParams().edge_margin).intervals
    assert lo == pytest.approx(-2.0 + 1e-6)
    assert hi == pytest.approx(2.0 - 1e-6)


def test_equilibrium_fluxes_vanish():
    res = _fluxes(10, ThermoParams(1.0, 1.0, 0.3, 0.3))
    assert res.converged
    assert abs(res.energy_flux_l) < 1e-12
    assert abs(res.charge_flux_l) < 1e-12
    assert abs(res.entropy_flux) < 1e-12


def test_nonequilibrium_fluxes_against_trapezoid_oracle():
    thermo = ThermoParams(1.0, 2.0, 0.5, -0.5)
    sample = SampleSpec(generate(Zero(), 10))
    res = integrate_fluxes(sample, LEAD, LEAD, thermo)
    assert res.converged
    assert res.entropy_flux > 0.0

    # Independent check: dense trapezoid over the same window.
    E = np.linspace(-2 + 1e-6, 2 - 1e-6, 10_001)
    vals = np.empty((len(E), 3))
    for i, (e, T) in enumerate(zip(E, end_products(sample.potential, E))):
        F = weiss_boundary(LEAD, e)
        tau, _ = evaluate_point(sample, e, 10, F, F, T)
        vals[i] = spectral_densities(e, tau, thermo)
    ref = np.trapezoid(vals, E, axis=0) / (2 * math.pi)
    assert res.energy_flux_l == pytest.approx(ref[0], abs=1e-6)
    assert res.charge_flux_l == pytest.approx(ref[1], abs=1e-6)
    assert res.entropy_flux == pytest.approx(ref[2], abs=1e-6)


@pytest.mark.parametrize("L", [1, 30, 200])
def test_initial_panels_at_most_pi_over_l_plus_1(L):
    # integrate_fluxes lays out panels of width at most pi/(L+1), so each
    # of the ~L transmission resonances meets the base rule: at least 15
    # evaluations per such panel across the window.
    res = _fluxes(L, ThermoParams(1.0, 2.0, 0.5, -0.5), tol=1e-2)
    window = integration_window(LEAD, LEAD, QuadratureParams().edge_margin)
    (lo, hi), = window.intervals
    assert res.evaluations >= 15 * math.ceil((hi - lo) / (math.pi / (L + 1)))


def test_tolerance_refinement_consistent():
    thermo = ThermoParams(0.8, 3.0, 0.7, -0.2)
    coarse = _fluxes(20, thermo, tol=1e-7)
    fine = _fluxes(20, thermo, tol=5e-8)
    assert abs(fine.entropy_flux - coarse.entropy_flux) <= max(
        coarse.quadrature_error_estimate, 1e-12
    )


def test_no_open_channel_result():
    e = np.array([5.0, 6.0])
    right = TabulatedLead(e, np.zeros(2), np.ones(2))
    res = integrate_fluxes(SampleSpec(np.zeros(4)), LEAD, right, ThermoParams(1.0, 2.0, 0.0, 0.0))
    assert res.no_open_channel
    assert res.entropy_flux == 0.0
    assert res.evaluations == 0


def test_quadrature_params_validation():
    with pytest.raises(DomainError):
        QuadratureParams(tolerance=0.0)
    with pytest.raises(DomainError):
        QuadratureParams(edge_margin=-1.0)


@pytest.mark.parametrize(
    "spec, tol, evaluations, fluxes, error, zgtsv_fluxes",
    [
        (AlmostMathieu(0.5, (5**0.5 - 1) / 2, 0.0), 1e-8, 1710,
         (0.044118938728421105, 0.07532227894740814, 0.1571023571495333), 1.2569593187541471e-09,
         (0.044118938728421105, 0.07532227894740814, 0.1571023571495333)),
        (AndersonRandom(2.0, 7), 1e-12, 5580,
         (-2.8932506970335243e-05, 0.0004066990261531357, 0.000581116032259369),
         1.4672601546022694e-13,
         (-2.8932506970335954e-05, 0.00040669902615313565, 0.0005811160322593679)),
    ],
    ids=["almost-mathieu", "anderson"],
)
def test_pinned_flux_quadrature(spec, tol, evaluations, fluxes, error, zgtsv_fluxes):
    # Exact evaluation counts and bits of the L = 30 flux integrals, whose
    # Green blocks are read from the transfer products. zgtsv_fluxes are
    # the same integrals with every block from the tridiagonal solve: the
    # two routes agree within 1e-12 relative.
    res = integrate_fluxes(
        SampleSpec(generate(spec, 30)), LEAD, LEAD, ThermoParams(1.0, 2.0, 0.5, -0.5),
        QuadratureParams(tolerance=tol),
    )
    assert res.evaluations == evaluations
    assert (res.energy_flux_l, res.charge_flux_l, res.entropy_flux) == fluxes
    assert res.quadrature_error_estimate == error
    assert res.converged
    assert res.panels_at_width_floor == res.panels_at_rounding_floor == 0
    for value, oracle in zip(fluxes, zgtsv_fluxes):
        assert value == pytest.approx(oracle, rel=1e-12, abs=0)


def test_over_budget_panel_layout_stays_small():
    # At L = 10^6 the initial panels alone exceed the default budget. They
    # are laid out as one (n, 2) array, so the failing call stays small:
    # its 1.27e6 panels take 20 MB.
    sample = SampleSpec(generate(AndersonRandom(1.0, 3), 10**6))
    thermo = ThermoParams(1.0, 2.0, 0.5, -0.5)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError, match="initial panels"):
            integrate_fluxes(sample, LEAD, LEAD, thermo)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_flux_quadrature_memory_stays_small_at_long_length():
    # Each pass's nodes are taken CHUNK at a time, and their transfer
    # products come from sweeps fed one site at a time, so no (L + 1) x nodes
    # array and no Python object per node of a whole pass is held: at
    # L = 2000 (38,220 nodes in one pass) the traced peak stays below 4 MB.
    sample = SampleSpec(generate(AndersonRandom(1.0, 3), 2000))
    tracemalloc.start()
    try:
        res = integrate_fluxes(
            sample, LEAD, LEAD, ThermoParams(1.0, 2.0, 0.5, -0.5), QuadratureParams(tolerance=1e-2)
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.evaluations == 38_220
    assert peak < 4 * 2**20


def test_integrate_fluxes_runs_energy_only_work_once_per_chunk(monkeypatch):
    # A quadrature pass is cut into CHUNK slices of its nodes; each slice
    # takes one boundary call per lead, one end_products sweep and one
    # spectral_densities call, and no product's spectral norm is computed:
    # fluxes never reads one.
    left, right = SemiInfiniteLaplacian(1.0, 1.0), SemiInfiniteLaplacian(1.0, 0.8)
    passes, sweeps, norms, densities, boundary = [], [], [], [], {left: [], right: []}
    gk15, sweep, smax, weiss = (
        ebb.fluxes.adaptive_gk15, ebb.fluxes.end_products, ebb.transfer._smax, ebb.fluxes.weiss_boundary
    )
    kernel = ebb.fluxes.spectral_densities
    monkeypatch.setattr(ebb.fluxes, "spectral_densities", lambda E, *a: densities.append(len(E)) or kernel(E, *a))
    monkeypatch.setattr(ebb.fluxes, "adaptive_gk15", lambda f, *a: gk15(lambda E: passes.append(len(E)) or f(E), *a))
    monkeypatch.setattr(ebb.fluxes, "end_products", lambda pot, E: sweeps.append(len(E)) or sweep(pot, E))
    monkeypatch.setattr(ebb.transfer, "_smax", lambda *m: norms.append(m) or smax(*m))
    monkeypatch.setattr(ebb.fluxes, "weiss_boundary", lambda lead, E: boundary[lead].append(len(E)) or weiss(lead, E))
    sample = SampleSpec(generate(AlmostMathieu(0.5, 0.6180339887498949, 0.0), 300))
    res = integrate_fluxes(sample, left, right, ThermoParams(1.0, 2.0, 0.5, -0.5), QuadratureParams(tolerance=1e-6))
    assert sum(passes) == res.evaluations and max(passes) > CHUNK
    chunks = [min(CHUNK, n - k) for n in passes for k in range(0, n, CHUNK)]
    assert sweeps == boundary[left] == boundary[right] == densities == chunks
    assert norms == []


def test_integrate_fluxes_raises_the_first_failure_in_node_order(monkeypatch):
    # The 4th node's densities are not finite and the 11th node's solve
    # fails: the solves stop there, and the density fault at the earlier
    # node is the one raised.
    evaluate, nodes = ebb.fluxes.evaluate_point, []

    def solve(*args):
        nodes.append(args)
        if len(nodes) == 4:
            return math.nan, 0.0
        if len(nodes) == 11:
            raise NumericalFailure("solve failed")
        return evaluate(*args)

    monkeypatch.setattr(ebb.fluxes, "evaluate_point", solve)
    with pytest.raises(NumericalFailure, match=r"^densities at E=\S+ are not finite: phi_l nan, j_l nan, sigma nan$"):
        integrate_fluxes(SampleSpec(np.zeros(11)), LEAD, LEAD, ThermoParams(1.0, 2.0, 0.5, -0.5))
    assert len(nodes) == 11


def test_integrate_fluxes_checks_the_entropy_envelope(monkeypatch):
    # The quadrature's densities are checked against sigma's explicit
    # envelope, as the L-sweeps' are: a violation fails the run.
    densities = ebb.fluxes.spectral_densities

    def above_envelope(*args):
        out = densities(*args)
        out.reshape(-1, 3)[7, 2] = 1e300
        return out

    monkeypatch.setattr(ebb.fluxes, "spectral_densities", above_envelope)
    with pytest.raises(NumericalFailure, match=r"^entropy density 1e\+300 exceeds its explicit envelope at L=10$"):
        integrate_fluxes(SampleSpec(np.zeros(11)), LEAD, LEAD, ThermoParams(1.0, 2.0, 0.5, -0.5))
