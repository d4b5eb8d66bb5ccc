import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ebb.errors import DomainError, NumericalFailure
from ebb.fluxes import (
    QuadratureParams,
    evaluate_point,
    integrate_fluxes,
    integration_window,
    self_energies,
    spectral_densities,
)
from ebb.leads import SemiInfiniteLaplacian, TabulatedLead
from ebb.model import SampleSpec, ThermoParams
from ebb.potentials import Zero, generate

# Frozen by hand from the closed forms with T = 1, beta_l = 1, mu_l = 1,
# beta_r = 2, mu_r = 0, E = 0: rho_l = 1/(1+e^-1), rho_r = 1/2.
DRHO_REF = 0.2310585786300049
LEAD = SemiInfiniteLaplacian(1.0, 1.0)


def _fluxes(L, thermo, tol=1e-8):
    sample = SampleSpec(L, generate(Zero(), L))
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
        densities = spectral_densities(E, 1.0, thermo)
        assert densities == (0.0, 0.0, 0.0)
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


def test_evaluate_point_free_sample(lead11):
    tau, residual = evaluate_point(np.zeros(2), 0.0, 1, self_energies(lead11, lead11, 0.0))
    assert tau == pytest.approx(1.0, abs=1e-14)
    assert residual < 1e-13


def test_evaluate_point_closed_channel(lead11):
    e = np.array([-10.0, 10.0])
    closed = TabulatedLead(e, np.full(2, -0.1), np.zeros(2))
    assert evaluate_point(np.zeros(2), 0.5, 1, self_energies(closed, closed, 0.5)) == (0.0, 0.0)


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
    sample = SampleSpec(10, generate(Zero(), 10))
    res = integrate_fluxes(sample, LEAD, LEAD, thermo)
    assert res.converged
    assert res.entropy_flux > 0.0

    # Independent check: dense trapezoid over the same window.
    E = np.linspace(-2 + 1e-6, 2 - 1e-6, 10_001)
    vals = np.empty((len(E), 3))
    for i, e in enumerate(E):
        tau, _ = evaluate_point(sample.potential, e, 10, self_energies(LEAD, LEAD, e))
        vals[i] = spectral_densities(e, tau, thermo)
    ref = np.trapezoid(vals, E, axis=0) / (2 * math.pi)
    assert res.energy_flux_l == pytest.approx(ref[0], abs=1e-6)
    assert res.charge_flux_l == pytest.approx(ref[1], abs=1e-6)
    assert res.entropy_flux == pytest.approx(ref[2], abs=1e-6)


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
    res = integrate_fluxes(SampleSpec(3, np.zeros(4)), LEAD, right, ThermoParams(1.0, 2.0, 0.0, 0.0))
    assert res.no_open_channel
    assert res.entropy_flux == 0.0
    assert res.evaluations == 0


def test_quadrature_params_validation():
    with pytest.raises(DomainError):
        QuadratureParams(tolerance=0.0)
    with pytest.raises(DomainError):
        QuadratureParams(edge_margin=-1.0)
