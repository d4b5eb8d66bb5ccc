"""Numerical invariant checks: the one implementation of acceptance criteria 01-07.

Seven checks, in the order of the criteria: unitarity on an energy grid, the
two Green-matrix route equivalences at screened random points, the
graph-correspondence residual, the closed-form worked point, the density
identities with the integrated second law, and the equilibrium null test.
Each takes its sizes as arguments. The defaults are small, so `ebb validate`
runs all seven in seconds; tests/test_acceptance.py runs the same checks at
acceptance sizes. The independent routes to the Green matrices that the
checks hold against the production solve of `ebb.green` live here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure, ResonanceError
from .fluxes import evaluate_point, integrate_fluxes, spectral_densities
from .green import (
    SelfEnergyPair,
    _sample_diag,
    _tridiag_solve_boundary,
    coupled_green_direct,
    is_resonant,
)
from .leads import SemiInfiniteLaplacian, weiss_boundary
from .model import SampleSpec, ThermoParams
from .potentials import AndersonRandom, Periodic, Zero, generate
from .scattering import t_matrix
from .transfer import ScaledMatrix2, checkpoint_products

POTENTIALS = (Zero(), Periodic((1.0, 0.0)), AndersonRandom(1.0, 42))
LEAD = SemiInfiniteLaplacian(1.0, 1.0)
NONEQ = ThermoParams(1.0, 2.0, 0.5, -0.5)
# Random points above this decoupled condition estimate are screened out of
# the Green-route comparisons as near-resonant.
SCREEN_CONDITION = 1e8


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    value: float = 0.0  # the worst measured value, compared with the bound


# -- independent routes to the Green matrices (oracles) -----------------------


def _inv_scale(T: ScaledMatrix2) -> float:
    """exp(-log_scale), flushed to 0 where it would underflow."""
    return math.exp(-T.log_scale) if T.log_scale < 745.0 else 0.0


def sample_green_via_transfer(T: ScaledMatrix2) -> np.ndarray:
    """Decoupled Green matrix G0_L(E) from the transfer matrix.

    With T = [[a, b], [c, d]] (true scale), the graph correspondence gives
    g_ll = -b/a, g_lr = g_rl = 1/a, g_rr = c/a. The scale cancels in the
    diagonal entries; the off-diagonal one may legitimately underflow to 0
    for exponentially large T.
    """
    if is_resonant(T):
        raise ResonanceError(
            "T11 vanishes: energy is numerically a Dirichlet eigenvalue"
        )
    a, b, c = T.a, T.b, T.c
    g_lr = _inv_scale(T) / a
    return np.array([[-b / a, g_lr], [g_lr, c / a]])


def sample_green_direct(pot, E: float, L: int):
    """Decoupled Green matrix G0_L(E) by a pivoted tridiagonal solve, and
    the condition estimate of h_{S,L} - E that screens near-resonances.
    Where gtsv finds the system exactly singular (a Dirichlet eigenvalue),
    G0 is None and the estimate inf."""
    try:
        return _tridiag_solve_boundary(_sample_diag(pot, E, L))
    except NumericalFailure:
        return None, math.inf


def coupled_green(G0: np.ndarray, se: SelfEnergyPair) -> np.ndarray:
    """Coupled Green matrix from the junction identity
    G = (I - G0*F)^(-1) * G0, with F = diag(F_l, F_r).

    Avoids inverting G0, which may be singular as a 2x2 matrix.
    """
    G0 = np.asarray(G0, dtype=complex)
    F = np.array([[se.F_l, 0.0], [0.0, se.F_r]])
    M = np.eye(2) - G0 @ F
    det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
    if abs(det) < 1e-14:
        raise NumericalFailure(
            "det(I - G0*F) vanished; analytically excluded for Im F > 0"
        )
    inv = np.array([[M[1, 1], -M[0, 1]], [-M[1, 0], M[0, 0]]]) / det
    return inv @ G0


def graph_map_check(G: np.ndarray, T: ScaledMatrix2, se: SelfEnergyPair) -> float:
    """Residual of the graph correspondence between G(E+i0) and T(E).

    For (u, v) = G(x, y) the correspondence demands
    T(u, x + F_l u) = (y + F_r v, v). The residual is evaluated in scaled
    arithmetic and normalized by ||T||, maximized over the basis inputs
    (x, y) in {(1, 0), (0, 1)}, so it stays meaningful when ||T|| is
    exponentially large.
    """
    G = np.asarray(G, dtype=complex)
    # Column j of w and of target belongs to the basis input (x, y) = e_j.
    e = np.eye(2)
    w = np.array([G[0], e[0] + se.F_l * G[0]])
    target = np.array([e[1] + se.F_r * G[1], G[1]])
    resid = np.linalg.norm(T.m @ w - _inv_scale(T) * target, axis=0)
    return float(resid.max() / T.smax)


# -- the checks ---------------------------------------------------------------


def _rel_diff(A, B) -> float:
    scale = max(np.max(np.abs(A)), np.max(np.abs(B)), 1e-300)
    return float(np.max(np.abs(A - B)) / scale)


def _se(E) -> SelfEnergyPair:
    F = weiss_boundary(LEAD, E)
    return SelfEnergyPair(F, F)


def check_unitarity(n_energies: int = 100, lengths=(10, 200)) -> CheckResult:
    """Unitarity residual of `evaluate_point` on an energy grid across the
    band, for each potential and length (bound 1e-10)."""
    grid = np.linspace(-2 + 1e-6, 2 - 1e-6, n_energies)
    worst = 0.0
    for spec in POTENTIALS:
        pot = generate(spec, max(lengths))
        for L in lengths:
            for E in grid:
                worst = max(worst, evaluate_point(pot, E, L, _se(E))[1])
    return CheckResult("unitarity", worst < 1e-10, f"max residual {worst:.3e} (< 1e-10)", worst)


def _random_points(seed: int, per_potential: int, max_length: int) -> list:
    """(potential, E, L) triples: per potential, E uniform in (-1.95, 1.95)
    and L uniform in 1..max_length, drawn in turn from default_rng(seed)."""
    rng = np.random.default_rng(seed)
    points = []
    for spec in POTENTIALS:
        pot = generate(spec, max_length)
        for _ in range(per_potential):
            E = rng.uniform(-1.95, 1.95)
            points.append((pot, E, int(rng.integers(1, max_length + 1))))
    return points


def _compare_routes(name, bound, route_a, route_b, seed, per_potential, max_length, min_kept):
    """Largest relative difference, normalised by max(|A|, |B|), between two
    routes to one Green matrix at the random points that pass condition
    screening. Each route is called as route(pot, E, L, G0), with G0 the
    decoupled direct solve that screened the point. A ResonanceError at a
    kept point fails the check, and so does keeping fewer than min_kept
    points."""
    worst, kept = 0.0, 0
    for pot, E, L in _random_points(seed, per_potential, max_length):
        G0, cond = sample_green_direct(pot, E, L)
        if cond > SCREEN_CONDITION:
            continue
        try:
            worst = max(worst, _rel_diff(route_a(pot, E, L, G0), route_b(pot, E, L, G0)))
        except ResonanceError as exc:
            return CheckResult(name, False, f"E={E!r}, L={L}: {exc}", math.inf)
        kept += 1
    detail = f"max rel diff {worst:.3e} (< {bound:g}) over {kept} points (>= {min_kept})"
    return CheckResult(name, worst < bound and kept >= min_kept, detail, worst)


def check_decoupled_green_equivalence(
    seed: int = 1, per_potential: int = 20, max_length: int = 100, min_kept: int = 50
) -> CheckResult:
    """Decoupled Green matrix from the transfer matrix against the pivoted
    tridiagonal solve (bound 1e-9)."""
    return _compare_routes(
        "decoupled-green-equivalence", 1e-9,
        lambda pot, E, L, G0: sample_green_via_transfer(checkpoint_products(pot, E, [L])[0][1]),
        lambda pot, E, L, G0: G0, seed, per_potential, max_length, min_kept,
    )


def check_coupled_green_equivalence(
    seed: int = 2, per_potential: int = 20, max_length: int = 100, min_kept: int = 50
) -> CheckResult:
    """Coupled Green matrix from the junction identity against the direct
    complex tridiagonal solve (bound 1e-8)."""
    return _compare_routes(
        "coupled-green-equivalence", 1e-8,
        lambda pot, E, L, G0: coupled_green(G0, _se(E)),
        lambda pot, E, L, G0: coupled_green_direct(pot, E, L, _se(E)),
        seed, per_potential, max_length, min_kept,
    )


def check_graph_map(cases=((AndersonRandom(2.0, 7), 0.5, 500),)) -> CheckResult:
    """Graph-correspondence residual between the coupled Green matrix and the
    transfer matrix, over (potential spec, E, L) cases (bound 1e-8)."""
    worst = 0.0
    for spec, E, L in cases:
        pot = generate(spec, L)
        se = _se(E)
        G = coupled_green_direct(pot, E, L, se)
        worst = max(worst, graph_map_check(G, checkpoint_products(pot, E, [L])[0][1], se))
    return CheckResult("graph-map-residual", worst < 1e-8, f"max residual {worst:.3e} (< 1e-8)", worst)


def check_worked_point() -> CheckResult:
    """The closed-form point L = 1, v = 0, E = 0, where the unit lead gives
    F = i: G = [[i, -1], [-1, i]] / 2, transmission 1 and
    S = I + t = [[0, -i], [-i, 0]] (bound 1e-12)."""
    pot, se = np.zeros(2), _se(0.0)
    G = coupled_green_direct(pot, 0.0, 1, se)
    worst = max(
        float(np.max(np.abs(G - np.array([[1j, -1.0], [-1.0, 1j]]) / 2))),
        abs(evaluate_point(pot, 0.0, 1, se)[0] - 1.0),
        float(np.max(np.abs(np.eye(2) + np.array(t_matrix(G, se)) - np.array([[0.0, -1j], [-1j, 0.0]])))),
    )
    return CheckResult("worked-point", worst < 1e-12, f"max deviation {worst:.3e} (< 1e-12)", worst)


def check_density_identities(L: int = 40, n_energies: int = 100, thermos=(NONEQ,)) -> CheckResult:
    """For each ThermoParams, on an Anderson sample of length L: sigma >= 0
    and the entropy identity sigma = -beta_l (phi_l - mu_l j_l)
    - beta_r (phi_r - mu_r j_r) at n_energies band energies (gap bound
    1e-12), and the integrated second law, entropy flux plus its error
    estimate >= 0."""
    sample = SampleSpec(L, generate(AndersonRandom(1.0, 42), L))
    grid = np.linspace(-1.9, 1.9, n_energies)
    taus = [evaluate_point(sample.potential, E, L, _se(E))[0] for E in grid]
    gap, min_sigma, min_margin = 0.0, math.inf, math.inf
    for th in thermos:
        for E, tau in zip(grid, taus):
            phi_l, j_l, sigma = spectral_densities(E, tau, th)
            phi_r, j_r = -phi_l, -j_l
            recon = -th.beta_l * (phi_l - th.mu_l * j_l) - th.beta_r * (phi_r - th.mu_r * j_r)
            gap = max(gap, abs(recon - sigma))
            min_sigma = min(min_sigma, sigma)
        res = integrate_fluxes(sample, LEAD, LEAD, th)
        min_margin = min(min_margin, res.entropy_flux + res.quadrature_error_estimate)
    detail = (f"max identity gap {gap:.3e} (< 1e-12), min sigma {min_sigma:.1e} (>= 0), "
              f"min entropy-flux margin {min_margin:.3e} (>= 0)")
    passed = gap < 1e-12 and min_sigma >= 0.0 and min_margin >= 0.0
    return CheckResult("density-identities", passed, detail, gap)


def check_equilibrium_null(
    cases=((Zero(), 10, ThermoParams(1.0, 1.0, 0.3, 0.3)),)
) -> CheckResult:
    """Integrated fluxes vanish at equal temperatures and chemical
    potentials, over (potential spec, L, thermo) cases (bound 1e-12)."""
    worst = 0.0
    for spec, L, thermo in cases:
        sample = SampleSpec(L, generate(spec, L))
        res = integrate_fluxes(sample, LEAD, LEAD, thermo)
        worst = max(worst, abs(res.energy_flux_l), abs(res.charge_flux_l), abs(res.entropy_flux))
    return CheckResult("equilibrium-null", worst < 1e-12, f"max flux {worst:.3e} (< 1e-12)", worst)


def run_all() -> list:
    return [
        check_unitarity(),
        check_decoupled_green_equivalence(),
        check_coupled_green_equivalence(),
        check_graph_map(),
        check_worked_point(),
        check_density_identities(),
        check_equilibrium_null(),
    ]
