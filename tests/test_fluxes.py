import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ebb.errors import DomainError
from ebb.fluxes import (
    QuadratureParams,
    evaluate_point,
    integrate_fluxes,
    integration_window,
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
    d = spectral_densities(0.0, 1.0, thermo)
    assert d.phi_l == 0.0  # energy density vanishes at E = 0
    assert d.j_l == pytest.approx(DRHO_REF, abs=1e-15)
    # xi_r - xi_l = 0 - (-1) = 1 at E = 0.
    assert d.sigma == pytest.approx(DRHO_REF, abs=1e-15)


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
    d = spectral_densities(E, T, ThermoParams(beta_l, beta_r, mu_l, mu_r))
    # Second-law sign, pointwise.
    assert d.sigma >= 0.0
    # Entropy density decomposition in terms of the flux densities; the
    # right-lead densities are -phi_l and -j_l.
    recon = beta_r * (-d.phi_l + mu_r * d.j_l) + beta_l * (d.phi_l - mu_l * d.j_l)
    assert d.sigma == pytest.approx(-recon, abs=1e-12)


def test_density_rejects_large_negative_sigma():
    # A negative transmission is the kind of upstream fault the sign
    # check must refuse to clamp away.
    with pytest.raises(DomainError):
        spectral_densities(1.0, -1.0, ThermoParams(1.0, 2.0, 1.0, 0.0))


def test_evaluate_point_free_sample(lead11):
    sample = SampleSpec(1, np.zeros(2))
    point = evaluate_point(sample, lead11, lead11, 0.0)
    assert point.transmission == pytest.approx(1.0, abs=1e-14)
    assert point.unitarity_residual < 1e-13


def test_evaluate_point_closed_channel(lead11):
    e = np.array([-10.0, 10.0])
    closed = TabulatedLead(e, np.full(2, -0.1), np.zeros(2))
    sample = SampleSpec(1, np.zeros(2))
    point = evaluate_point(sample, closed, closed, 0.5)
    assert point.transmission == 0.0
    assert point.unitarity_residual == 0.0


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
        p = evaluate_point(sample, LEAD, LEAD, e)
        d = spectral_densities(e, p.transmission, thermo)
        vals[i] = (d.phi_l, d.j_l, d.sigma)
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
