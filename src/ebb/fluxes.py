"""Steady-state spectral densities and their Landauer-Buttiker integrals.

The pointwise densities at energy E are
    phi_l = T(E) * (rho_l - rho_r) * E        (energy current)
    j_l   = T(E) * (rho_l - rho_r)            (charge current)
    sigma = T(E) * (xi_r - xi_l) * (rho_l - rho_r)   (entropy production)
The right-lead densities and fluxes are the exact negations of the left
ones, so only the left ones are kept. The fluxes are the integrals of the
densities over the open-channel window with the 1/(2*pi) prefactor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import leads as leads_mod
from .errors import DomainError, NumericalFailure
from .green import SelfEnergyPair, coupled_green_direct
from .leads import LeadModel, sigma_intersection, weiss_boundary
from .model import SampleSpec, ThermoParams, fermi_density, xi
from .quadrature import adaptive_gk15
from .scattering import t_matrix, transmission, unitarity_residual

# Densities more negative than this are an upstream fault, not rounding.
_SIGMA_ROUNDING_FLOOR = -1e-30


@dataclass(frozen=True)
class QuadratureParams:
    tolerance: float = 1e-8
    max_evaluations: int = 500_000
    edge_margin: float = 1e-6

    def __post_init__(self):
        if not (self.tolerance > 0):
            raise DomainError("tolerance: must be > 0")
        if not (self.max_evaluations >= 15):
            raise DomainError("max_evaluations: must be >= 15, one GK15 panel")
        if not (self.edge_margin >= 0):
            raise DomainError("edge_margin: must be >= 0")


@dataclass(frozen=True)
class FluxResult:
    energy_flux_l: float
    charge_flux_l: float
    entropy_flux: float
    quadrature_error_estimate: float
    evaluations: int
    converged: bool
    no_open_channel: bool
    max_unitarity_residual: float
    panels_at_width_floor: int
    panels_at_rounding_floor: int


def spectral_densities(E, T_of_E, thermo: ThermoParams) -> tuple:
    """Pointwise densities (phi_l, j_l, sigma) at energy E for transmission
    T_of_E. A density that is not finite raises NumericalFailure."""
    rho_l = fermi_density(E, thermo.beta_l, thermo.mu_l)
    rho_r = fermi_density(E, thermo.beta_r, thermo.mu_r)
    drho = rho_l - rho_r
    j_l = T_of_E * drho
    phi_l = j_l * E
    dxi = xi(E, thermo.beta_r, thermo.mu_r) - xi(E, thermo.beta_l, thermo.mu_l)
    if drho == 0.0:
        # Equal occupations carry nothing, also where dxi overflowed to inf
        # (inf * 0 is NaN); only dxi's sign reaches sigma's signed zero.
        dxi = math.copysign(1.0, dxi)
    sigma = T_of_E * dxi * drho
    if not (math.isfinite(phi_l) and math.isfinite(j_l) and math.isfinite(sigma)):
        raise NumericalFailure(
            f"densities at E={E} are not finite: phi_l {phi_l}, j_l {j_l}, sigma {sigma}"
        )
    if sigma < 0.0:
        # (xi_r - xi_l) and (rho_l - rho_r) share their sign analytically;
        # a tiny negative product is rounding at near-equal occupations.
        if sigma < _SIGMA_ROUNDING_FLOOR:
            raise DomainError(f"entropy density {sigma} is negative beyond rounding")
        sigma = 0.0
    return phi_l, j_l, sigma


def self_energies(lead_l: LeadModel, lead_r: LeadModel, E) -> SelfEnergyPair:
    """The lead boundary values F_l(E+i0), F_r(E+i0) as self-energies. They
    depend on E only, so a sweep over L at fixed E builds them once."""
    return SelfEnergyPair(weiss_boundary(lead_l, E), weiss_boundary(lead_r, E))


def evaluate_point(pot, E, L: int, se: SelfEnergyPair) -> tuple:
    """Coupled Green matrix -> t-matrix: the transmission and unitarity
    residual at E of the sample pot[: L + 1] between the leads of the
    self-energies se (see `self_energies`)."""
    if not se.open_channel:
        # Both channels closed: no scattering at this energy.
        return 0.0, 0.0
    t = t_matrix(coupled_green_direct(pot, E, L, se), se)
    return transmission(t), unitarity_residual(t)


def integration_window(lead_l: LeadModel, lead_r: LeadModel, edge_margin: float) -> leads_mod.EnergyWindow:
    """Open-channel window minus the band-edge margins."""
    return sigma_intersection(lead_l, lead_r).shrink(edge_margin)


def integrate_fluxes(
    sample: SampleSpec,
    lead_l: LeadModel,
    lead_r: LeadModel,
    thermo: ThermoParams,
    quadrature: QuadratureParams = QuadratureParams(),
) -> FluxResult:
    """Adaptive quadrature of the densities over the open-channel window.

    At every node the full pipeline runs through the direct self-energy
    solve. The initial panel width is capped at pi/(L+1) so the rule
    resolves each of the ~L transmission resonances across the band.
    """
    window = integration_window(lead_l, lead_r, quadrature.edge_margin)
    if window.is_empty:
        return FluxResult(0.0, 0.0, 0.0, 0.0, 0, True, True, 0.0, 0, 0)

    pot, L = sample.potential, sample.length
    max_residual = [0.0]

    def integrand(E):
        tau, residual = evaluate_point(pot, E, L, self_energies(lead_l, lead_r, E))
        if residual > max_residual[0]:
            max_residual[0] = residual
        return spectral_densities(E, tau, thermo)

    res = adaptive_gk15(
        integrand,
        window.intervals,
        tol=quadrature.tolerance,
        max_evaluations=quadrature.max_evaluations,
        max_initial_width=math.pi / (L + 1),
    )
    pref = 1.0 / (2.0 * math.pi)
    phi, j, sig = (res.integral * pref).tolist()
    err = float(res.error.max()) * pref
    return FluxResult(
        energy_flux_l=phi,
        charge_flux_l=j,
        entropy_flux=sig,
        quadrature_error_estimate=err,
        evaluations=res.evaluations,
        converged=res.converged,
        no_open_channel=False,
        max_unitarity_residual=max_residual[0],
        panels_at_width_floor=res.panels_at_width_floor,
        panels_at_rounding_floor=res.panels_at_rounding_floor,
    )
