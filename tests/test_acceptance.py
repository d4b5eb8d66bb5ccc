"""End-to-end acceptance gate.

Twelve numbered criteria, each an independent test printing one
`[acceptance NN] PASS ...` or `[acceptance NN] FAIL ...` line (run pytest
with -s to see them even on success). Criteria 01-07 are the checks of
`ebb.validate` called with acceptance sizes.
"""

import math

import numpy as np

from ebb import validate
from ebb.fluxes import QuadratureParams, integrate_fluxes
from ebb.leads import weiss_boundary
from ebb.model import SampleSpec, ThermoParams
from ebb.potentials import AndersonRandom, Periodic, Zero, generate
from ebb.scan import (
    ClassificationThresholds,
    classify_transport,
    equivalence_rows,
    l_sweep,
)
from ebb.transfer import checkpoint_products, log_spectral_norm, one_step
from ebb.validate import LEAD, NONEQ, POTENTIALS

from conftest import truncated_weiss

CHECKPOINTS = [10, 16, 25, 40, 63, 100, 158, 251, 398, 631, 1000, 1585, 2000]
# The random points of criteria 02 and 03: 300 in all, more than 200 kept.
GREEN_POINTS = dict(seed=2024, per_potential=100, max_length=200, min_kept=201)


def report(num, ok, detail):
    print(f"[acceptance {num:02d}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, detail


def report_check(num, result):
    report(num, result.passed, f"{result.name}: {result.detail}")


def test_01_unitarity():
    report_check(1, validate.check_unitarity(n_energies=500, lengths=(10, 50, 200, 1000)))


def test_02_decoupled_green_routes_agree():
    report_check(2, validate.check_decoupled_green_equivalence(**GREEN_POINTS))


def test_03_coupled_green_routes_agree():
    report_check(3, validate.check_coupled_green_equivalence(**GREEN_POINTS))


def test_04_graph_map_residual():
    cases = [(spec, E, L) for spec in POTENTIALS for E in (-1.3, 0.5, 1.7) for L in (10, 100)]
    cases.append((AndersonRandom(2.0, 7), 0.5, 500))
    report_check(4, validate.check_graph_map(cases))


def test_05_worked_closed_form_point():
    report_check(5, validate.check_worked_point())


def test_06_conservation_and_second_law():
    rng = np.random.default_rng(11)
    # beta_l, beta_r in (0.2, 5) and mu_l, mu_r in (-1.5, 1.5).
    thermos = [ThermoParams(*rng.uniform([0.2, 0.2, -1.5, -1.5], [5, 5, 1.5, 1.5])) for _ in range(10)]
    report_check(6, validate.check_density_identities(L=20, n_energies=40, thermos=thermos))


def test_07_equilibrium_null():
    cases = [(AndersonRandom(1.0, 42), L, ThermoParams(1.3, 1.3, 0.4, 0.4)) for L in (10, 100)]
    report_check(7, validate.check_equilibrium_null(cases))


def test_08_weiss_vs_truncated_lead():
    worst = 0.0
    for E in np.linspace(-1.95, 1.95, 200):
        worst = max(worst, abs(weiss_boundary(LEAD, E) - truncated_weiss(1.0, 1.0, E)))
    report(8, worst < 5e-3, f"max lead boundary-value mismatch {worst:.3e} (< 5e-3)")


def test_09a_dichotomy_persistent_free():
    points = l_sweep(generate(Zero(), CHECKPOINTS[-1]), 0.5, LEAD, LEAD, NONEQ, CHECKPOINTS)
    sigmas = np.array([p.sigma_density for p in points])
    norms = [p.log_transfer_norm for p in points]
    cls = classify_transport(points)
    floor_ratio = float(sigmas.min() / np.median(sigmas))
    ok = floor_ratio > 0.5 and max(norms) < 2.0 and cls.label == "persistent"
    report(
        9, ok,
        f"(a) free sample: sigma min/median {floor_ratio:.3f} (> 0.5), "
        f"max log-norm {max(norms):.3f}, label {cls.label}",
    )


def test_09b_dichotomy_vanishing_disordered():
    pot = generate(AndersonRandom(2.0, 7), CHECKPOINTS[-1])
    points = l_sweep(pot, 0.5, LEAD, LEAD, NONEQ, CHECKPOINTS)
    cls = classify_transport(points)
    sigma_decays = cls.underflowed or cls.sigma_slope < 0.0
    ok = (
        cls.norm_slope > 0.0 and cls.norm_r2 > 0.9
        and sigma_decays and cls.label == "vanishing"
    )
    report(
        9, ok,
        f"(b) disordered sample: norm slope {cls.norm_slope:.3e} "
        f"(R^2 {cls.norm_r2:.3f}), sigma slope {cls.sigma_slope:.3e}, "
        f"underflowed {cls.underflowed}, label {cls.label}",
    )


def test_09c_dichotomy_equivalence_reports():
    grid = np.linspace(-1.9, 1.9, 100)
    total = 0
    for spec in (Zero(), AndersonRandom(2.0, 7)):
        pot = generate(spec, CHECKPOINTS[-1])
        rows = equivalence_rows(pot, grid, CHECKPOINTS, LEAD, LEAD, NONEQ)
        total += sum(r.contradiction for r in rows)
    report(9, total == 0, f"(c) contradictions over 2x100 energies: {total}")


def test_10_periodic_band_gap_split():
    # Trace of the transfer matrix across one period of the [3, 0] cell.
    pot = generate(Periodic((3.0, 0.0)), CHECKPOINTS[-1])
    thresholds = ClassificationThresholds(persistent_floor=0.1)
    mismatches = []
    checked = 0
    for E in np.linspace(-1.95, 1.95, 100):
        cell_T = one_step(0.0, E) @ one_step(3.0, E)
        tr = abs(np.trace(cell_T))
        if 2.0 <= tr <= 2.2:
            continue  # boundary band excluded
        expected = "persistent" if tr < 2.0 else "vanishing"
        (row,) = equivalence_rows(pot, [E], CHECKPOINTS, LEAD, LEAD, NONEQ, thresholds)
        checked += 1
        if row.label != expected:
            mismatches.append((E, tr, row.label, expected))
    ok = not mismatches and checked > 50
    report(10, ok, f"band/gap labels: {len(mismatches)} mismatches over {checked} energies")


def scalar_log_norm(pot, E):
    """log of the spectral norm of the one-step product over all of pot, by
    the scalar recurrence, divided by its largest row-0 entry whenever that
    passes 1e100."""
    a, b, c, d, log_scale = 1.0, 0.0, 0.0, 1.0, 0.0
    for t in (np.asarray(pot, dtype=float) - E).tolist():
        a, b, c, d = t * a - c, t * b - d, a, b
        s = max(abs(a), abs(b))
        if s > 1e100:
            a, b, c, d, log_scale = a / s, b / s, c / s, d / s, log_scale + math.log(s)
    return log_scale + math.log(np.linalg.norm([[a, b], [c, d]], 2))


def test_11_transfer_engine_invariants():
    L = 1_000_000
    pot = generate(AndersonRandom(2.0, 7), L)
    ((_, T),) = checkpoint_products(pot, 0.5, [L])
    ref = scalar_log_norm(pot, 0.5)
    norm_gap = abs(log_spectral_norm(T) - ref) / ref
    # The free product at E = 0.5 stays bounded, so det(m) is accurate.
    det_defect = max(
        abs(math.log(abs(np.linalg.det(M.m))) + 2.0 * M.log_scale)
        for _, M in checkpoint_products(np.zeros(L + 1), 0.5, [999, 99_999, L])
    )
    cocycle_defect = max(
        log_spectral_norm(M)
        for _, M in checkpoint_products(np.zeros(2001), 0.0, [3, 7, 999, 1999])
    )
    ok = norm_gap < 1e-10 and det_defect < 1e-10 and cocycle_defect < 1e-12
    report(
        11, ok,
        f"log-norm relative gap to the scalar recurrence {norm_gap:.3e} at L=1e6 "
        f"(< 1e-10), free log|det| defect {det_defect:.3e} (< 1e-10), "
        f"free-cocycle log-norm {cocycle_defect:.3e} (< 1e-12)",
    )


def test_12_quadrature_refinement():
    worst_ratio = 0.0
    for L in (10, 100):
        sample = SampleSpec(L, np.zeros(L + 1))
        base = integrate_fluxes(sample, LEAD, LEAD, NONEQ, QuadratureParams(tolerance=1e-8))
        fine = integrate_fluxes(sample, LEAD, LEAD, NONEQ, QuadratureParams(tolerance=5e-9))
        err = max(base.quadrature_error_estimate, 1e-15)
        for a, b in (
            (base.energy_flux_l, fine.energy_flux_l),
            (base.charge_flux_l, fine.charge_flux_l),
            (base.entropy_flux, fine.entropy_flux),
        ):
            worst_ratio = max(worst_ratio, abs(a - b) / err)
    report(
        12, worst_ratio < 1.0,
        f"max flux shift / prior error estimate {worst_ratio:.3f} (< 1)",
    )
