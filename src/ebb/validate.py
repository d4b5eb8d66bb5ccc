"""Numerical invariant checks: the one implementation of acceptance criteria 01-07.

Seven checks, in the order of the criteria: unitarity on an energy grid, the
two Green-matrix route equivalences at screened random points, the
graph-correspondence residual, the closed-form worked point, the density
identities with the integrated second law, and the equilibrium null test.
Each takes its sizes as arguments. The defaults are small, so `ebb validate`
runs all seven in seconds; tests/test_acceptance.py runs the same checks at
acceptance sizes. The three routes to the Green block that share no algebra
with `ebb.green`, the pivoted tridiagonal solve, the junction identity and
the graph correspondence, live here as oracles, and only `ebb validate` and
the tests load them (and scipy); every other Green route a check reads is a
production call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .errors import NumericalFailure
from .fluxes import evaluate_point, integrate_fluxes, node_table, self_energies
from .green import SelfEnergyPair, coupled_green_direct
from .leads import SemiInfiniteLaplacian
from .model import SampleSpec, ThermoParams
from .potentials import AndersonRandom, Periodic, Zero, generate
from .scattering import t_matrix
from .transfer import _smax, checkpoint_products, end_products

POTENTIALS = (Zero(), Periodic((1.0, 0.0)), AndersonRandom(1.0, 42))
LEAD = SemiInfiniteLaplacian(1.0, 1.0)
NONEQ = ThermoParams(1.0, 2.0, 0.5, -0.5)
# Random points above this decoupled condition estimate are screened out of
# the Green-route comparisons as near-resonant.
SCREEN_CONDITION = 1e8

# Looked up once: the oracle solves once per point.
_zgtsv = lapack.zgtsv


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    value: float = 0.0  # the worst measured value, compared with the bound


# -- independent routes to the Green matrices (oracles) -----------------------


def _tridiag_solve_boundary(sample: SampleSpec, E: float, L: int, F_l=0j, F_r=0j):
    """(G_00, G_0L, G_LL) of A^(-1), and a condition estimate.

    A is tridiagonal on sites 0..L of the sample with off-diagonals -1 and
    diagonal v - E, less F_l on site 0 and F_r on site L. LAPACK zgtsv
    (Gaussian elimination with partial pivoting) solves, on buffers it
    owns, for the columns x^(0), x^(L) of A^(-1) at the two boundary sites,
    row L divided by its row sum. A is complex symmetric, so G_0L is read as
    x^(0) at site L, a product chain that pivoting gets right (x^(L) at site
    0 comes out of back-substitution, off by up to u*max|v - E| relative).
    The estimate max over the boundary rows j of (|A_jj| + 1) * max|x^(j)|
    scales each column by its own boundary row sum; it blows up exactly at
    near-resonances and, for exact columns, is at most kappa_inf(A).
    """
    if not 1 <= L <= sample.length:
        raise ValueError(f"L={L}: potential has {sample.length + 1} entries, need {L + 1} with L >= 1")
    diag = (sample.potential[: L + 1] - E).astype(complex)
    diag[0] -= F_l
    diag[L] -= F_r
    s0, sL = abs(diag[0]) + 1.0, abs(diag[L]) + 1.0
    # Unscaled, a last pivot below 1 swaps row L up, and back-substitution
    # then cancels 1 against A_LL x_L down the whole x^(L) column: a large
    # |v_L| would inflate the estimate of an accurate solve.
    b = np.zeros((L + 1, 2), dtype=complex, order="F")
    b[0, 0], b[L, 1] = 1.0, 1.0 / sL
    du = np.empty(L, dtype=complex)
    du.fill(-1.0)  # half the cost of np.full, a Python-level wrapper
    dl = du.copy()
    dl[-1] = -1.0 / sL
    diag[L] /= sL
    # Every buffer is this call's own, so zgtsv may overwrite all four and
    # f2py copies none. Positional overwrite flags (dl, d, du, b): f2py
    # parses keywords slowly.
    _, _, _, x, info = _zgtsv(dl, diag, du, b, 1, 1, 1, 1)
    if info != 0:
        raise NumericalFailure(f"tridiagonal solve failed (info={info})")
    x0, xL = np.abs(x).max(axis=0).tolist()
    return (x.item(0, 0), x.item(L, 0), x.item(L, 1)), max(s0 * x0, sL * xL)


def coupled_green(G0: tuple, se: SelfEnergyPair) -> tuple:
    """Coupled Green block from the junction identity G = (I - G0 F)^(-1) G0,
    F = diag(F_l, F_r), written out for G0 = (a, b, d): with delta = ad - b^2
    and det = (1 - a F_l)(1 - d F_r) - b^2 F_l F_r, G = (a - F_r delta, b,
    d - F_l delta) / det. G0, which may be singular, is never inverted."""
    a, b, d = G0
    delta = a * d - b * b
    det = (1 - a * se.F_l) * (1 - d * se.F_r) - b * b * se.F_l * se.F_r
    if abs(det) < 1e-14:
        raise NumericalFailure(
            "det(I - G0*F) vanished; analytically excluded for Im F > 0"
        )
    return (a - se.F_r * delta) / det, b / det, (d - se.F_l * delta) / det


def graph_map_check(G: tuple, T: tuple, se: SelfEnergyPair) -> float:
    """Residual of the graph correspondence between G(E+i0) and T(E).

    For (u, v) = G(x, y) the correspondence demands
    T(u, x + F_l u) = (y + F_r v, v). The residual is evaluated in scaled
    arithmetic and normalized by ||T||, maximized over the basis inputs
    (x, y) in {(1, 0), (0, 1)}, so it stays meaningful when ||T|| is
    exponentially large.
    """
    g00, g0L, gLL = G
    # Column j of w and of target belongs to the basis input (x, y) = e_j.
    w = np.array([[g00, g0L], [1 + se.F_l * g00, se.F_l * g0L]])
    target = np.array([[se.F_r * g0L, 1 + se.F_r * gLL], [g0L, gLL]])
    a, b, c, d, e = T
    resid = np.linalg.norm(np.array([[a, b], [c, d]]) @ w - math.ldexp(1.0, -e) * target, axis=0)
    return float(resid.max() / _smax(a, b, c, d))


# -- the checks ---------------------------------------------------------------


def _rel_diff(A: tuple, B: tuple) -> float:
    scale = max(*map(abs, A), *map(abs, B), 1e-300)
    return max(abs(a - b) for a, b in zip(A, B)) / scale


def check_unitarity(n_energies: int = 100, lengths=(10, 200)) -> CheckResult:
    """Unitarity residual of the production kernel, `fluxes.node_table`,
    on an energy grid across the band, for each potential and length, with
    the Green block read from `end_products`, as `integrate_fluxes` and
    `energy_sweep` read it (bound 1e-10)."""
    grid = np.linspace(-2 + 1e-6, 2 - 1e-6, n_energies)
    worst = 0.0
    for spec in POTENTIALS:
        sample = SampleSpec(generate(spec, max(lengths)))
        for L in lengths:
            pot = sample.potential[: L + 1]
            _, residual, _ = node_table(sample, LEAD, LEAD, NONEQ, grid, [L], lambda chunk: end_products(pot, chunk))
            worst = max(worst, residual.max().item())
    return CheckResult("unitarity", worst < 1e-10, f"max residual {worst:.3e} (< 1e-10)", worst)


def _random_points(seed: int, per_potential: int, max_length: int) -> list:
    """(sample, E, L) triples: per potential, E uniform in (-1.95, 1.95) and
    L uniform in 1..max_length, drawn in turn from default_rng(seed)."""
    rng = np.random.default_rng(seed)
    points = []
    for spec in POTENTIALS:
        sample = SampleSpec(generate(spec, max_length))
        for _ in range(per_potential):
            E = rng.uniform(-1.95, 1.95)
            points.append((sample, E, int(rng.integers(1, max_length + 1))))
    return points


def _compare_routes(name, bound, route_a, route_b, seed, per_potential, max_length, min_kept):
    """Largest relative difference, normalised by max(|A|, |B|), between two
    routes to one Green block at random points. The oracle decoupled solve
    screens them: a point where it is exactly singular, or its condition
    estimate exceeds SCREEN_CONDITION, is skipped. Each route is called as
    route(sample, E, L, G0, T), with G0 that solve's block and T the
    transfer product of sites 0..L. A NumericalFailure from a route at a
    kept point fails the check, and so does keeping fewer than min_kept."""
    worst, kept = 0.0, 0
    for sample, E, L in _random_points(seed, per_potential, max_length):
        try:
            G0, cond = _tridiag_solve_boundary(sample, E, L)
        except NumericalFailure:  # exactly singular
            continue
        if cond > SCREEN_CONDITION:
            continue
        try:
            ((_, T),) = checkpoint_products(sample.potential, E, [L])
            worst = max(worst, _rel_diff(route_a(sample, E, L, G0, T), route_b(sample, E, L, G0, T)))
        except NumericalFailure as exc:
            return CheckResult(name, False, f"E={E!r}, L={L}: {exc}", math.inf)
        kept += 1
    detail = f"max rel diff {worst:.3e} (< {bound:g}) over {kept} points (>= {min_kept})"
    return CheckResult(name, worst < bound and kept >= min_kept, detail, worst)


def check_decoupled_green_equivalence(
    seed: int = 1, per_potential: int = 20, max_length: int = 100, min_kept: int = 50
) -> CheckResult:
    """Decoupled Green block read in closed form from the transfer product
    at zero self-energies, (-b, 2^-e, c)/a, against the pivoted tridiagonal
    solve (bound 1e-9)."""
    return _compare_routes(
        "decoupled-green-equivalence", 1e-9,
        lambda s, E, L, G0, T: coupled_green_direct(s, E, L, SelfEnergyPair(0j, 0j), T),
        lambda s, E, L, G0, T: G0, seed, per_potential, max_length, min_kept,
    )


def _junction_and_transfer_blocks(sample: SampleSpec, E: float, L: int, G0: tuple, T: tuple):
    """The coupled block from the junction identity on G0, then the one
    `coupled_green_direct` reads from the transfer product T_L: six entries."""
    se = self_energies(LEAD, LEAD, E)
    return (*coupled_green(G0, se), *coupled_green_direct(sample, E, L, se, T))


def check_coupled_green_equivalence(
    seed: int = 2, per_potential: int = 20, max_length: int = 100, min_kept: int = 50
) -> CheckResult:
    """Coupled Green block from the junction identity, and from the
    transfer product in closed form, each against the oracle complex
    tridiagonal solve (bound 1e-8)."""
    return _compare_routes(
        "coupled-green-equivalence", 1e-8, _junction_and_transfer_blocks,
        lambda s, E, L, G0, T: 2 * _tridiag_solve_boundary(s, E, L, *self_energies(LEAD, LEAD, E))[0],
        seed, per_potential, max_length, min_kept,
    )


def check_graph_map(cases=((AndersonRandom(2.0, 7), 0.5, 500),)) -> CheckResult:
    """Graph-correspondence residual between the coupled Green matrix and the
    transfer matrix, over (potential spec, E, L) cases (bound 1e-8). G comes
    from the oracle solve: a G read from the same T would satisfy the
    correspondence nearly by construction."""
    worst = 0.0
    for spec, E, L in cases:
        sample = SampleSpec(generate(spec, L))
        se = self_energies(LEAD, LEAD, E)
        G = _tridiag_solve_boundary(sample, E, L, se.F_l, se.F_r)[0]
        worst = max(worst, graph_map_check(G, checkpoint_products(sample.potential, E, [L])[0][1], se))
    return CheckResult("graph-map-residual", worst < 1e-8, f"max residual {worst:.3e} (< 1e-8)", worst)


def check_worked_point() -> CheckResult:
    """The closed-form point L = 1, v = 0, E = 0, where the unit lead gives
    F = i: G = (i, -1, i) / 2, transmission 1 and
    S = I + t = [[0, -i], [-i, 0]] (bound 1e-12)."""
    sample, se = SampleSpec(np.zeros(2)), self_energies(LEAD, LEAD, 0.0)
    ((_, T),) = checkpoint_products(sample.potential, 0.0, [1])
    G = coupled_green_direct(sample, 0.0, 1, se, T)
    worst = max(
        max(abs(g - ref) for g, ref in zip(G, (0.5j, -0.5, 0.5j))),
        abs(evaluate_point(sample, 0.0, 1, se, T)[0] - 1.0),
        float(np.max(np.abs(np.eye(2) + np.array(t_matrix(G, se)) - np.array([[0.0, -1j], [-1j, 0.0]])))),
    )
    return CheckResult("worked-point", worst < 1e-12, f"max deviation {worst:.3e} (< 1e-12)", worst)


def check_density_identities(L: int = 40, n_energies: int = 100, thermos=(NONEQ,)) -> CheckResult:
    """For each ThermoParams, on an Anderson sample of length L: sigma >= 0
    and the entropy identity sigma = -beta_l (phi_l - mu_l j_l)
    - beta_r (phi_r - mu_r j_r) at n_energies band energies (gap bound
    1e-12), and the integrated second law, entropy flux plus its error
    estimate >= 0."""
    sample = SampleSpec(generate(AndersonRandom(1.0, 42), L))
    grid = np.linspace(-1.9, 1.9, n_energies)
    gap, min_sigma, min_margin = 0.0, math.inf, math.inf
    for th in thermos:
        densities = node_table(sample, LEAD, LEAD, th, grid, [L], lambda chunk: end_products(sample.potential, chunk))[2]
        phi_l, j_l, sigma = densities[:, 0].T
        phi_r, j_r = -phi_l, -j_l
        recon = -th.beta_l * (phi_l - th.mu_l * j_l) - th.beta_r * (phi_r - th.mu_r * j_r)
        gap = max(gap, np.abs(recon - sigma).max().item())
        min_sigma = min(min_sigma, sigma.min().item())
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
        sample = SampleSpec(generate(spec, L))
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
