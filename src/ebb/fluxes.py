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

import numpy as np

from . import leads as leads_mod
from .errors import DomainError, NumericalFailure
from .green import SelfEnergyPair, coupled_green_direct
from .leads import LeadModel, sigma_intersection, weiss_boundary
from .model import SampleSpec, ThermoParams, fermi_density, xi
from .quadrature import adaptive_gk15
from .scattering import t_matrix, transmission, unitarity_residual
from .transfer import CHUNK, end_products

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


def thermal_factors(E, thermo: ThermoParams) -> tuple:
    """(rho_l - rho_r, xi_r - xi_l) at each energy of the float array E,
    the factors of the densities that do not depend on L."""
    drho = fermi_density(E, thermo.beta_l, thermo.mu_l) - fermi_density(E, thermo.beta_r, thermo.mu_r)
    dxi = xi(E, thermo.beta_r, thermo.mu_r) - xi(E, thermo.beta_l, thermo.mu_l)
    # Equal occupations carry nothing, also where dxi overflowed to inf
    # (inf * 0 is NaN); only dxi's sign reaches sigma's signed zero.
    return drho, np.where(drho == 0.0, np.copysign(1.0, dxi), dxi)


def spectral_densities(E, tau, thermo: ThermoParams, faults=None, out=None):
    """Pointwise densities (phi_l, j_l, sigma) for the energies E and
    transmissions tau, float arrays that broadcast together, as the rows of
    an array (`out`, if given) of their shape + (3,); the thermal factors
    are taken at E's own shape. A row that is not finite fails with
    NumericalFailure, and one whose sigma is negative beyond rounding with
    DomainError: the first in node order raises, or, given a dict `faults`,
    each is stored under its flat row index and its densities read NaN."""
    with np.errstate(over="ignore", invalid="ignore"):
        drho, dxi = thermal_factors(E, thermo)
        out = np.empty(np.broadcast_shapes(np.shape(E), np.shape(tau)) + (3,)) if out is None else out
        j_l = np.multiply(tau, drho, out=out[..., 1])
        np.multiply(j_l, E, out=out[..., 0])
        np.multiply(np.multiply(tau, dxi, out=out[..., 2]), drho, out=out[..., 2])
    rows = out.reshape(-1, 3)
    sigma, finite = rows[:, 2], np.isfinite(rows).all(axis=1)
    for i in np.flatnonzero(~finite | (sigma < _SIGMA_ROUNDING_FLOOR)).tolist():
        (phi_l, j_l, s), E_i = rows[i].tolist(), np.broadcast_to(E, out.shape[:-1]).flat[i]
        exc = DomainError(f"entropy density {s} is negative beyond rounding") if finite[i] else NumericalFailure(
            f"densities at E={E_i} are not finite: phi_l {phi_l}, j_l {j_l}, sigma {s}")
        if faults is None:
            raise exc
        faults[i], rows[i] = exc, math.nan
    # (xi_r - xi_l) and (rho_l - rho_r) share their sign analytically; a
    # tiny negative product is rounding at near-equal occupations.
    np.copyto(sigma, 0.0, where=sigma < 0.0)
    return out


def self_energies(lead_l: LeadModel, lead_r: LeadModel, E):
    """The lead boundary values F_l(E+i0), F_r(E+i0) as self-energies at a
    float E, or an iterator of them over the float array E, from one
    boundary call per lead."""
    F_l, F_r = weiss_boundary(lead_l, E), weiss_boundary(lead_r, E)
    return SelfEnergyPair(F_l, F_r) if np.ndim(E) == 0 else map(SelfEnergyPair, F_l, F_r)


def evaluate_point(sample: SampleSpec, E, L: int, se: SelfEnergyPair, T: tuple) -> tuple:
    """Coupled Green block -> t-matrix: the transmission and unitarity
    residual at E of sites 0..L of the sample between the leads of the
    self-energies se (see `self_energies`), with the block read from the
    transfer product T of sites 0..L (see `green.coupled_green_direct`).
    The one open-channel test: with Im F = 0 on both leads it returns an
    exact (0.0, 0.0) without reading the block."""
    if not (se.F_l.imag > 0 or se.F_r.imag > 0):
        return 0.0, 0.0
    t = t_matrix(coupled_green_direct(sample, E, L, se, T), se)
    return transmission(t), unitarity_residual(t)


def node_table(sample, lead_l, lead_r, thermo, energies, Ls: list, products, faults=None) -> tuple:
    """Transmission, unitarity residual and densities (see
    `spectral_densities`, as rows of 3) at each node (E, L) of the float
    array energies by the lengths Ls, as len(energies) x len(Ls) arrays;
    products(chunk) yields each node's transfer product, in node order.
    CHUNK energies at a time: each lead's boundary values from one call
    (per energy where a lead table rejects one, so only those fail), one
    `evaluate_point` per node, energy by energy, and one densities call,
    each sigma checked against its explicit envelope. Given a dict
    `faults`, each failing node's error (a solve, a density fault or an
    envelope violation) is stored there under its flat index and its values
    read NaN; given none, the solves stop at the first that fails, and the
    first failure in node order is raised."""
    n_L, found = len(Ls), {} if faults is None else faults
    tau, residual = np.full((2, len(energies) * n_L), math.nan)
    densities = np.empty((len(energies), n_L, 3))
    bmax, bmin = max(thermo.beta_l, thermo.beta_r), min(thermo.beta_l, thermo.beta_r)
    for k in range(0, len(energies), CHUNK):
        chunk, first = energies[k: k + CHUNK], k * n_L
        try:
            ses = self_energies(lead_l, lead_r, chunk)
        except DomainError:
            ses = [None] * len(chunk)
        nodes = ((E, se, L) for E, se in zip(chunk.tolist(), ses) for L in Ls)
        for i, (T, (E, se, L)) in enumerate(zip(products(chunk), nodes), first):
            try:
                tau[i], residual[i] = evaluate_point(sample, E, L, se or self_energies(lead_l, lead_r, E), T)
            except (DomainError, NumericalFailure) as exc:
                found[i] = exc
                if faults is None:
                    break
        # The chunk's density faults and envelope violations; a failed solve
        # left its node's values NaN, and its own fault outranks theirs.
        t, failed = tau[first: first + len(chunk) * n_L].reshape(-1, n_L), {}
        out = spectral_densities(chunk[:, None], t, thermo, failed, densities[k: k + CHUNK])
        with np.errstate(over="ignore", invalid="ignore"):
            envelope = 4.0 * t * bmax * (np.abs(chunk) + abs(thermo.mu_l) + abs(thermo.mu_r) + 2.0 / bmin)[:, None]
        sigma = out[..., 2]
        for i in np.flatnonzero(sigma > envelope).tolist():
            failed[i] = NumericalFailure(f"entropy density {sigma.flat[i]} exceeds its explicit envelope at L={Ls[i % n_L]}")
        for i, exc in failed.items():
            found.setdefault(first + i, exc)
            tau[first + i] = residual[first + i] = math.nan
            out.reshape(-1, 3)[i] = math.nan
        if faults is None and found:
            raise found[min(found)]
    return tau.reshape(-1, n_L), residual.reshape(-1, n_L), densities


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
    """Adaptive quadrature of the densities over the open-channel window:
    one `node_table` per pass, on its nodes, with each chunk's transfer
    products from one energy-batched sweep (`transfer.end_products`)."""
    window = integration_window(lead_l, lead_r, quadrature.edge_margin)
    if window.is_empty:
        return FluxResult(0.0, 0.0, 0.0, 0.0, 0, True, True, 0.0, 0, 0)

    L, max_residual = sample.length, [0.0]

    def integrand(energies):
        _, residual, densities = node_table(
            sample, lead_l, lead_r, thermo, energies, [L], lambda chunk: end_products(sample.potential, chunk))
        max_residual[0] = max(max_residual[0], residual.max().item())
        return densities.reshape(-1, 3)

    # Panels of width at most pi/(L+1), so the base rule sees each of the ~L
    # transmission resonances across the band before any subdivision.
    width = math.pi / (L + 1)
    edges = [np.linspace(lo, hi, math.ceil((hi - lo) / width) + 1) for lo, hi in window.intervals]
    panels = np.concatenate([np.column_stack((e[:-1], e[1:])) for e in edges])
    res = adaptive_gk15(integrand, panels, quadrature.tolerance, quadrature.max_evaluations)
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
