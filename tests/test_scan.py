import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from scipy.stats import linregress

import ebb
import ebb.fluxes
import ebb.scan
import ebb.transfer
from ebb.config import geometric_checkpoints
from ebb.errors import DomainError, NumericalFailure
from ebb.leads import SemiInfiniteLaplacian, TabulatedLead
from ebb.model import SampleSpec, ThermoParams
from ebb.potentials import AlmostMathieu, AndersonRandom, Periodic, Zero, generate
from ebb.scan import (
    SIGMA_UNDERFLOW_FLOOR,
    ClassificationThresholds,
    _fit,
    _median,
    classify_transport,
    energy_sweep,
    equivalence_rows,
    l_sweep,
)
from ebb.transfer import CHUNK, RESONANCE_RELATIVE_CUTOFF

THERMO = ThermoParams(1.0, 2.0, 0.5, -0.5)
CHECKPOINTS = [10, 16, 25, 40, 63, 100, 158, 251, 398, 631, 1000]
FREE = SampleSpec(generate(Zero(), CHECKPOINTS[-1]))
DISORDERED = SampleSpec(generate(AndersonRandom(2.0, 7), CHECKPOINTS[-1]))


def test_l_sweep_free_sample(lead11):
    cps, (sigma, tau, log_norm, flag, _) = l_sweep(FREE, [0.5], lead11, lead11, THERMO, CHECKPOINTS)
    assert cps == CHECKPOINTS
    assert sigma.shape == tau.shape == log_norm.shape == flag.shape == (1, len(CHECKPOINTS))
    assert ((0.0 < tau) & (tau <= 1.0)).all()
    assert (sigma > 0.0).all()
    assert not flag.any()
    # Free transfer norms stay bounded along the whole sweep.
    assert log_norm.max() < 2.0


def test_l_sweep_one_spectral_norm_per_checkpoint(lead11, monkeypatch):
    # The transfer norm and the resonance test share one _smax of each
    # checkpoint's product, and read the same bits as separate calls.
    calls = []
    smax = ebb.transfer._smax

    def counting(*m):
        calls.append(m)
        return smax(*m)

    monkeypatch.setattr(ebb.transfer, "_smax", counting)
    _, (_, _, log_norm, flag, _) = l_sweep(DISORDERED, [0.5], lead11, lead11, THERMO, CHECKPOINTS)
    assert len(calls) == len(CHECKPOINTS)
    products = ebb.transfer.checkpoint_products(DISORDERED.potential, 0.5, CHECKPOINTS)
    for n, f, m, (_, T) in zip(log_norm[0].tolist(), flag[0].tolist(), calls, products):
        assert n == max(0.0, T[4] * math.log(2.0) + math.log(smax(*m)))
        assert f == (abs(m[0]) < RESONANCE_RELATIVE_CUTOFF * smax(*m))


def test_l_sweep_builds_one_self_energy_pair(lead11, monkeypatch):
    # The self-energies depend on E only: one boundary value per lead and
    # sweep, whatever the number of checkpoints.
    calls = []
    inner = ebb.fluxes.weiss_boundary

    def counting(lead, E):
        calls.append(E)
        return inner(lead, E)

    monkeypatch.setattr(ebb.fluxes, "weiss_boundary", counting)
    for cps in (CHECKPOINTS[:8], CHECKPOINTS):
        calls.clear()
        l_sweep(DISORDERED, [0.5], lead11, lead11, THERMO, cps)
        assert calls == [0.5, 0.5]


def test_l_sweep_rejects_out_of_band_energy(lead11):
    with pytest.raises(DomainError, match="band"):
        l_sweep(FREE, [3.0], lead11, lead11, THERMO, CHECKPOINTS)
    with pytest.raises(DomainError, match="checkpoints"):
        l_sweep(FREE, [0.5], lead11, lead11, THERMO, [0, 10])


def test_energies_outside_the_band_name_the_earlier_one(lead11):
    with pytest.raises(DomainError, match=r"^E=2\.5 is outside the band intersection"):
        equivalence_rows(FREE, [0.5, 2.5, 0.7, -3.0], CHECKPOINTS, lead11, lead11, THERMO)


def test_checkpoint_past_the_sample_rejected_before_any_solve(lead11, monkeypatch):
    # A sample shorter than the last checkpoint fails the range check of the
    # transfer product, before any Green solve.
    def no_solve(*args):
        raise AssertionError("solved on a sample shorter than the checkpoints")

    monkeypatch.setattr(ebb.fluxes, "coupled_green_direct", no_solve)
    short = SampleSpec(generate(Zero(), CHECKPOINTS[-1] - 1))
    with pytest.raises(ValueError, match="checkpoints"):
        l_sweep(short, [0.5], lead11, lead11, THERMO, CHECKPOINTS)
    with pytest.raises(ValueError, match="checkpoints"):
        equivalence_rows(short, [0.5, 1.0], CHECKPOINTS, lead11, lead11, THERMO)


def test_every_solve_receives_the_callers_sample(lead11, monkeypatch):
    # The sweeps build no sample of their own: each Green solve runs on the
    # SampleSpec the caller passed, whatever the number of energies.
    seen = []
    inner = ebb.fluxes.coupled_green_direct

    def recording(sample, E, L, F_l, F_r, T):
        seen.append(sample)
        return inner(sample, E, L, F_l, F_r, T)

    monkeypatch.setattr(ebb.fluxes, "coupled_green_direct", recording)
    l_sweep(DISORDERED, [0.5], lead11, lead11, THERMO, CHECKPOINTS)
    assert len(seen) == len(CHECKPOINTS) and all(s is DISORDERED for s in seen)
    seen.clear()
    equivalence_rows(FREE, [-0.5, 0.5, 1.0], CHECKPOINTS, lead11, lead11, THERMO)
    assert len(seen) == 3 * len(CHECKPOINTS) and all(s is FREE for s in seen)
    seen.clear()
    energy_sweep(DISORDERED, lead11, lead11, THERMO, [-0.5, 0.5, 1.0])
    assert len(seen) == 3 and all(s is DISORDERED for s in seen)


@pytest.mark.parametrize("spec", [Zero(), AndersonRandom(1.0, 3), Periodic((3.0, 0.0))])
def test_l_sweep_routes_agree(lead11, spec):
    # A one-energy table, from l_sweep and classify_transport, and the rows
    # of the batched table that equivalence_rows classifies at once give the
    # same fields bit for bit.
    sample = SampleSpec(generate(spec, CHECKPOINTS[-1]))
    grid = [-1.2, -0.5, 0.3, 1.1]
    rows = equivalence_rows(sample, grid, CHECKPOINTS, lead11, lead11, THERMO)
    for E, row in zip(grid, rows):
        cps, (sigmas, _, norms, _, residuals) = l_sweep(sample, [E], lead11, lead11, THERMO, CHECKPOINTS)
        label, norm_slope, _, sigma_slope, _, _, contradiction = classify_transport(cps, sigmas, norms)
        assert row.sigma_at_l_max == sigmas[0, -1]
        assert (row.norm_slope, row.sigma_slope) == (norm_slope[0], sigma_slope[0])
        assert (row.label, row.contradiction) == (label[0], contradiction[0])
        assert row.max_unitarity_residual == residuals.max()


@pytest.mark.parametrize("envelope_at, solve_at, reported", [
    (len(CHECKPOINTS) + 3, 2 * len(CHECKPOINTS), "envelope"),
    (len(CHECKPOINTS) + 3, len(CHECKPOINTS) - 1, "solve"),
    (len(CHECKPOINTS) + 3, None, "envelope"),
])
def test_first_failure_in_grid_order_is_reported(lead11, monkeypatch, envelope_at, solve_at, reported):
    # Sigma is checked against its envelope on the table the solves filled;
    # once a solve fails, the points before it are checked first, so the
    # failure reported is the first in grid order: an envelope violation at
    # an earlier point outranks a failed solve at a later one, and the other
    # way round. Points are counted in grid order.
    evaluate, densities = ebb.fluxes.evaluate_point, ebb.fluxes.spectral_densities
    count = {"solve": -1}

    def solve(*args):
        count["solve"] += 1
        if count["solve"] == solve_at:
            raise NumericalFailure("solve failed")
        return evaluate(*args)

    def above_envelope(*args):
        out = densities(*args)
        out.reshape(-1, 3)[envelope_at, 2] = 1e300
        return out

    monkeypatch.setattr(ebb.fluxes, "evaluate_point", solve)
    monkeypatch.setattr(ebb.fluxes, "spectral_densities", above_envelope)
    message = {
        "envelope": f"entropy density 1e+300 exceeds its explicit envelope at L={CHECKPOINTS[3]}",
        "solve": "solve failed",
    }[reported]
    with pytest.raises(NumericalFailure, match=f"^{re.escape(message)}$"):
        equivalence_rows(FREE, [-0.5, 0.5, 1.0], CHECKPOINTS, lead11, lead11, THERMO)


def test_envelope_violation_fails_the_sweep_before_any_fit(lead11, monkeypatch):
    # An envelope violation fails the whole sweep with its message: no fit
    # runs on the table, and it outranks a failed solve at a later point.
    evaluate, densities = ebb.fluxes.evaluate_point, ebb.fluxes.spectral_densities
    solves = []

    def solve(*args):
        solves.append(args)
        if len(solves) == fail_at:
            raise NumericalFailure("solve failed")
        return evaluate(*args)

    def above_envelope(*args):
        out = densities(*args)
        out.reshape(-1, 3)[14, 2] = 1e300
        return out

    def no_fit(*args):
        raise AssertionError("a table that failed its envelope was fitted")

    monkeypatch.setattr(ebb.fluxes, "evaluate_point", solve)
    monkeypatch.setattr(ebb.fluxes, "spectral_densities", above_envelope)
    monkeypatch.setattr(ebb.scan, "_fit", no_fit)
    message = f"^entropy density 1e\\+300 exceeds its explicit envelope at L={CHECKPOINTS[3]}$"
    for fail_at, n_solves in ((None, 3 * len(CHECKPOINTS)), (2 * len(CHECKPOINTS), 2 * len(CHECKPOINTS))):
        solves.clear()
        with pytest.raises(NumericalFailure, match=message):
            equivalence_rows(FREE, [-0.5, 0.5, 1.0], CHECKPOINTS, lead11, lead11, THERMO)
        assert len(solves) == n_solves


@pytest.mark.parametrize("fault_at, reported", [(5, "density"), (20, "envelope")])
def test_density_fault_and_envelope_violation_in_grid_order(lead11, monkeypatch, fault_at, reported):
    # A density fault and an envelope violation in one table: the one at the
    # earlier point in grid order is raised.
    evaluate, densities = ebb.fluxes.evaluate_point, ebb.fluxes.spectral_densities
    solves = []

    def solve(*args):
        solves.append(args)
        return (math.nan, 0.0) if len(solves) == fault_at + 1 else evaluate(*args)

    def above_envelope(*args):
        out = densities(*args)
        out.reshape(-1, 3)[14, 2] = 1e300
        return out

    monkeypatch.setattr(ebb.fluxes, "evaluate_point", solve)
    monkeypatch.setattr(ebb.fluxes, "spectral_densities", above_envelope)
    message = {
        "density": "densities at E=-0.5 are not finite: phi_l nan, j_l nan, sigma nan",
        "envelope": f"entropy density 1e+300 exceeds its explicit envelope at L={CHECKPOINTS[3]}",
    }[reported]
    with pytest.raises(NumericalFailure, match=f"^{re.escape(message)}$"):
        equivalence_rows(FREE, [-0.5, 0.5, 1.0], CHECKPOINTS, lead11, lead11, THERMO)


@pytest.mark.parametrize(
    "spec", [Periodic((1.0, 0.0)), AndersonRandom(1.0, 3), AlmostMathieu(2.5, (5**0.5 - 1) / 2, 0.0)]
)
def test_lower_sandwich_bound(lead11, spec):
    # tau_L ||T_L||^2 >= 4 Im F_l Im F_r / ((1 + |F_l|^2)(1 + |F_r|^2)) at
    # every finite L: transmission cannot vanish while the transfer norms
    # stay bounded. Checked in log space where tau has not underflowed; the
    # smallest margin seen is above 0.01.
    cps = geometric_checkpoints()
    sample = SampleSpec(generate(spec, cps[-1]))
    grid = np.linspace(-1.99, 1.99, 201)
    _, (_, tau, log_norm, _, _) = l_sweep(sample, grid, lead11, lead11, THERMO, cps)
    for E, taus, norms in zip(grid.tolist(), tau.tolist(), log_norm.tolist()):
        F_l = F_r = ebb.fluxes.weiss_boundary(lead11, E)
        bound = math.log(4 * F_l.imag * F_r.imag / ((1 + abs(F_l) ** 2) * (1 + abs(F_r) ** 2)))
        for L, t, n in zip(cps, taus, norms):
            if t > 1e-280:
                assert math.log(t) + 2 * n >= bound - 1e-9, (E, L)


def test_classify_persistent_free(lead11):
    cps, (sigmas, _, norms, _, _) = l_sweep(FREE, [0.5], lead11, lead11, THERMO, CHECKPOINTS)
    label, norm_slope, _, _, _, underflowed, _ = classify_transport(cps, sigmas, norms)
    assert label.tolist() == ["persistent"]
    assert cps[-1] == 1000
    assert abs(norm_slope[0]) < 1.0 / 1000
    assert not underflowed[0]


def test_classify_vanishing_strong_disorder(lead11):
    cps, (sigmas, _, norms, _, _) = l_sweep(DISORDERED, [0.5], lead11, lead11, THERMO, CHECKPOINTS)
    (label,), (norm_slope,), (norm_r2,), (sigma_slope,), (sigma_r2,), (underflowed,), _ = classify_transport(
        cps, sigmas, norms)
    assert label == "vanishing"
    assert norm_slope > 0.0
    assert norm_r2 > 0.9
    # sigma either decays with a clean fit or underflows outright.
    assert underflowed or (sigma_slope < 0 and sigma_r2 > 0.8)


def test_classify_requirements():
    with pytest.raises(DomainError, match="8 checkpoints"):
        classify_transport([10, 20, 30, 40], np.ones((1, 4)), np.zeros((1, 4)))
    with pytest.raises(DomainError, match="factor 10"):
        classify_transport([10 + i for i in range(8)], np.ones((1, 8)), np.zeros((1, 8)))


LS = [10, 20, 40, 80, 160, 320, 640, 1280]


def test_classify_synthetic_underflow_is_vanishing():
    sigmas = np.array([[0.0 if L > 100 else 1e-150 for L in LS]])
    label, *_, underflowed, _ = classify_transport(LS, sigmas, 0.1 * np.array([LS]))
    assert label.tolist() == ["vanishing"]
    assert underflowed.tolist() == [True]


def test_classify_flags_contradiction():
    # Underflowed sigma with flat norms: a vanishing label the bounded norms
    # contradict. With growing norms the same label is consistent.
    sigmas = np.zeros((2, len(LS)))
    flat, growing = np.zeros(len(LS)), 0.1 * np.array(LS)
    label, *_, contradiction = classify_transport(LS, sigmas, np.array([flat, growing]))
    assert label.tolist() == ["vanishing", "vanishing"]
    assert contradiction.tolist() == [True, False]


def test_classify_unbiased_rows_are_no_bias():
    # A row whose reservoirs agree at its energy (rho_l == rho_r) has sigma
    # 0 at every L: it reads no_bias, neither underflowed nor contradicted,
    # whatever its norms. The other rows keep their labels and fits.
    sigmas = np.array([np.zeros(len(LS)), np.zeros(len(LS)), np.full(len(LS), 0.3)])
    norms = np.array([np.zeros(len(LS)), 0.1 * np.array(LS), np.zeros(len(LS))])
    biased = classify_transport(LS, sigmas, norms)
    classes = classify_transport(LS, sigmas, norms, ClassificationThresholds(), np.array([0.0, 0.2, 0.0]))
    label, *fits, underflowed, contradiction = classes
    assert label.tolist() == ["no_bias", "vanishing", "no_bias"]
    assert underflowed.tolist() == [False, True, False]
    assert contradiction.tolist() == [False, False, False]
    for fit, expected in zip(fits, biased[1:5]):
        assert fit.tolist() == expected.tolist()
    assert biased[0].tolist() == ["vanishing", "vanishing", "persistent"]


def test_classify_indeterminate_between_regimes():
    # Flat norms but strongly fluctuating sigma: neither test should fire
    # with the default thresholds.
    sigmas = np.array([[1.0, 1e-3, 1.0, 1e-3, 1.0, 1e-3, 1.0, 1e-3]])
    assert classify_transport(LS, sigmas, np.zeros((1, len(LS))))[0].tolist() == ["indeterminate"]


def test_thresholds_are_tunable():
    # min/median ratio ~ 0.3: below the default floor, above a loose one.
    sigmas = np.array([[1.0, 0.9, 1.1, 0.3, 1.0, 0.95, 1.05, 0.9]])
    norms = np.zeros((1, len(LS)))
    assert classify_transport(LS, sigmas, norms)[0].tolist() == ["indeterminate"]
    loose = ClassificationThresholds(persistent_floor=0.1)
    assert classify_transport(LS, sigmas, norms, loose)[0].tolist() == ["persistent"]


def test_energy_sweep_records_errors_per_point(lead11):
    # E = 3 is out of band: a closed-channel zero, not an error.
    grid = [0.5, 1.0, 3.0]
    out = energy_sweep(SampleSpec(np.zeros(11)), lead11, lead11, THERMO, grid)
    assert len(out) == 3
    assert out[0].error is None
    assert out[0].transmission > 0.0
    assert out[2].transmission == 0.0
    assert all(p.sigma >= 0.0 for p in out if p.error is None)


def test_energy_sweep_runs_energy_only_work_once_per_chunk(monkeypatch):
    # The grid is cut into CHUNK slices; each takes one boundary call per
    # lead, one end_products sweep and one spectral_densities call, and no
    # product's spectral norm is computed: sweep-e never reads one.
    left, right = SemiInfiniteLaplacian(1.0, 1.0), SemiInfiniteLaplacian(1.0, 0.8)
    sweeps, norms, densities, boundary = [], [], [], {left: [], right: []}
    sweep, smax, weiss = ebb.scan.end_products, ebb.transfer._smax, ebb.fluxes.weiss_boundary
    kernel = ebb.fluxes.spectral_densities
    monkeypatch.setattr(ebb.fluxes, "spectral_densities", lambda E, *a: densities.append(len(E)) or kernel(E, *a))
    monkeypatch.setattr(ebb.scan, "end_products", lambda pot, E: sweeps.append(len(E)) or sweep(pot, E))
    monkeypatch.setattr(ebb.transfer, "_smax", lambda *m: norms.append(m) or smax(*m))
    monkeypatch.setattr(ebb.fluxes, "weiss_boundary", lambda lead, E: boundary[lead].append(len(E)) or weiss(lead, E))
    grid = np.linspace(-1.9, 1.9, CHUNK + 5).tolist()
    out = energy_sweep(SampleSpec(generate(AndersonRandom(1.0, 4), 20)), left, right, THERMO, grid)
    assert [p.E for p in out] == grid and all(p.error is None for p in out)
    assert sweeps == [CHUNK, 5]
    assert boundary == {left: [CHUNK, 5], right: [CHUNK, 5]}
    assert norms == []
    assert densities == [CHUNK, 5]


def test_energy_sweep_names_each_energy_outside_a_lead_table(lead11):
    # An energy outside a lead's table fails on its own, with the table's
    # message; the other energies of its chunk keep their values.
    table = TabulatedLead([-1.0, 1.0], [0.1, -0.1], [1.0, 0.5])
    sample = SampleSpec(generate(AndersonRandom(1.0, 4), 20))
    out = energy_sweep(sample, table, lead11, THERMO, [-1.5, -0.5, 0.5, 1.5])
    assert [p.error for p in out] == [
        "E=-1.5 outside table range [-1.0, 1.0]", None, None, "E=1.5 outside table range [-1.0, 1.0]"
    ]
    assert out[1:3] == energy_sweep(sample, table, lead11, THERMO, [-0.5, 0.5])


@pytest.mark.parametrize("tau, message", [
    (math.nan, "densities at E=0.5 are not finite: phi_l nan, j_l nan, sigma nan"),
    (-1.0, "entropy density -0.7615941559557649 is negative beyond rounding"),
])
def test_energy_sweep_density_fault_fails_its_energy_alone(lead11, monkeypatch, tau, message):
    # A density fault at one energy of a slice is recorded for that energy
    # with the kernel's message; the other energies keep their values.
    sample, grid = SampleSpec(generate(AndersonRandom(1.0, 4), 20)), [-0.5, 0.5, 1.0]
    evaluate = ebb.fluxes.evaluate_point
    monkeypatch.setattr(ebb.fluxes, "evaluate_point", lambda s, E, *a: (tau, 0.0) if E == 0.5 else evaluate(s, E, *a))
    out = energy_sweep(sample, lead11, lead11, THERMO, grid)
    assert [p.error for p in out] == [None, message, None]
    assert all(math.isnan(v) for v in out[1][1:6])
    monkeypatch.setattr(ebb.fluxes, "evaluate_point", evaluate)
    assert out[0::2] == energy_sweep(sample, lead11, lead11, THERMO, grid[0::2])


def test_energy_sweep_envelope_violation_fails_its_energy_alone(lead11, monkeypatch):
    # sweep-e checks sigma against its explicit envelope as the L-sweeps do,
    # and a violation fails its energy alone: that point reads NaN.
    sample, grid = SampleSpec(generate(AndersonRandom(1.0, 4), 20)), [-0.5, 0.5, 1.0]
    densities = ebb.fluxes.spectral_densities

    def above_envelope(*args):
        out = densities(*args)
        out.reshape(-1, 3)[1, 2] = 1e300
        return out

    monkeypatch.setattr(ebb.fluxes, "spectral_densities", above_envelope)
    out = energy_sweep(sample, lead11, lead11, THERMO, grid)
    assert [p.error for p in out] == [None, "entropy density 1e+300 exceeds its explicit envelope at L=20", None]
    assert all(math.isnan(v) for v in out[1][1:6])
    monkeypatch.setattr(ebb.fluxes, "spectral_densities", densities)
    assert out[0::2] == energy_sweep(sample, lead11, lead11, THERMO, grid[0::2])


def test_equivalence_report_clean_split(lead11):
    # Grid avoids E = -1.5, where the two Fermi factors of THERMO cross
    # and the entropy density vanishes identically for any potential.
    grid = np.linspace(-1.2, 1.5, 8)
    free = equivalence_rows(FREE, grid, CHECKPOINTS, lead11, lead11, THERMO)
    assert [r.E for r in free] == list(grid)
    assert all(r.label == "persistent" and not r.contradiction for r in free)
    assert all(r.sigma_at_l_max > 0.0 for r in free)

    disordered = equivalence_rows(DISORDERED, grid, CHECKPOINTS, lead11, lead11, THERMO)
    assert all(r.label == "vanishing" and not r.contradiction for r in disordered)


def test_equivalence_rows_check_once_per_command(lead11, monkeypatch):
    # The checkpoint rule and the band intersection depend only on the
    # command's inputs: one band check, and one checkpoint check in each of
    # the two public table functions, whatever the number of energies.
    calls = {"check_checkpoints": 0, "sigma_intersection": 0}
    for name in calls:
        inner = getattr(ebb.scan, name)

        def counted(*args, _inner=inner, _name=name):
            calls[_name] += 1
            return _inner(*args)

        monkeypatch.setattr(ebb.scan, name, counted)
    grid = np.linspace(-1.2, 1.5, 5)
    rows = equivalence_rows(FREE, grid, CHECKPOINTS, lead11, lead11, THERMO)
    assert len(rows) == len(grid)
    assert calls == {"check_checkpoints": 2, "sigma_intersection": 1}


def test_periodic_band_energy_is_persistent(lead11):
    # At E = -0.5 the trace of the 2-cell transfer, E^2 - 3E - 2 = -0.25,
    # lies inside (-2, 2): a band energy of the period-2 potential.
    loose = ClassificationThresholds(persistent_floor=0.1)
    (row,) = equivalence_rows(
        SampleSpec(generate(Periodic((3.0, 0.0)), CHECKPOINTS[-1])), [-0.5], CHECKPOINTS,
        lead11, lead11, THERMO, loose,
    )
    assert row.label == "persistent"


def test_fit_matches_linregress():
    rng = np.random.default_rng(4)
    xs = np.array(CHECKPOINTS, dtype=float)
    for ys in (0.01 * xs + rng.normal(0, 0.1, xs.size), -3.0 * xs, rng.normal(0, 1, xs.size),
               np.log(np.exp(-0.02 * xs) + 1e-3)):
        ref = linregress(xs, ys)
        assert _fit(xs, ys) == (ref.slope, ref.rvalue * ref.rvalue)
    assert _fit(xs, np.full(xs.size, 0.3)) == (0.0, 1.0)
    # Dead points, whatever they hold, are left out of the fit: here the
    # last two, as where sigma underflows at the largest L.
    ys = -0.02 * xs + rng.normal(0, 0.1, xs.size)
    alive = np.arange(xs.size) < xs.size - 2
    ref = linregress(xs[alive], ys[alive])
    assert _fit(xs, np.where(alive, ys, np.nan), alive) == (ref.slope, ref.rvalue * ref.rvalue)
    assert _fit(xs, np.where(alive, 0.3, ys), alive) == (0.0, 1.0)
    for n_alive in (0, 1):
        assert _fit(xs, ys, np.arange(xs.size) < n_alive) == (0.0, 1.0)
    # With dead points anywhere, numpy may sum the points in another order
    # than linregress does: the fit then agrees to rounding.
    for alive in rng.random((50, xs.size)) < 0.6:
        if np.count_nonzero(alive) >= 2:
            ref = linregress(xs[alive], ys[alive])
            rel = 64 * np.finfo(float).eps
            assert _fit(xs, ys, alive) == (pytest.approx(ref.slope, rel=rel, abs=0), pytest.approx(ref.rvalue * ref.rvalue, rel=rel, abs=0))


@pytest.mark.parametrize("spec, underflowed", [(Periodic((1.0, 0.0)), 33), (AndersonRandom(1.0, 3), 15)])
def test_sigma_fits_match_linregress_on_alive_points(lead11, spec, underflowed):
    # Every row of a 101-energy table with at least two alive sigma points
    # is fitted as linregress fits those points, bit for bit, also the rows
    # whose sigma underflowed at some checkpoints.
    cps = geometric_checkpoints()
    sample = SampleSpec(generate(spec, cps[-1]))
    grid = np.linspace(-1.99, 1.99, 101)
    cps, (sigmas, _, norms, _, _) = l_sweep(sample, grid, lead11, lead11, THERMO, cps)
    _, _, _, slopes, r2s, _, _ = classify_transport(cps, sigmas, norms)
    alive = sigmas > SIGMA_UNDERFLOW_FLOOR
    assert np.count_nonzero(~alive.all(axis=1)) == underflowed
    Ls = np.array(cps, dtype=float)
    for row, mask, slope, r2 in zip(sigmas, alive, slopes.tolist(), r2s.tolist()):
        if np.count_nonzero(mask) >= 2:
            ref = linregress(Ls[mask], np.log(row[mask]))
            assert (slope, r2) == (ref.slope, ref.rvalue * ref.rvalue)


def test_median_matches_numpy():
    rng = np.random.default_rng(5)
    for n in (1, 2, 3, 8, 13, 14):
        for values in (
            rng.normal(size=n),
            rng.integers(0, 3, size=n).astype(float),  # repeated values
            10.0 ** rng.uniform(-300, 300, size=n),
            np.full(n, 0.1),
        ):
            assert _median(values.tolist()) == np.median(values)
    # Row by row on a table, as the classifier calls it.
    table = rng.normal(size=(6, 13))
    assert _median(table).tolist() == [np.median(row) for row in table]


RUN_CODE = """
import sys
from ebb.cli import main
config, out = sys.argv[1:]
for command in ("fluxes", "sweep-e", "sweep-l", "equivalence"):
    assert main([command, "--config", config, "--out", f"{out}/{command}"]) == 0, command
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy" or m == "ebb.validate"))
"""


def test_cli_import_leaves_scipy_stats_out(tmp_path):
    # Every Green block on the run path is read from a transfer product, so
    # no run command loads scipy, nor the oracles of ebb.validate: one
    # interpreter imports the CLI and runs the four run commands.
    lead = {"type": "semi_infinite", "hopping": 1.0, "coupling": 1.0}
    config = {
        "sample": {"length": 10, "potential": {"type": "anderson", "amplitude": 1.0, "seed": 3}},
        "lead_l": lead, "lead_r": lead,
        "thermo": {"beta_l": 1.0, "beta_r": 2.0, "mu_l": 0.5, "mu_r": -0.5},
        "sweep": {"energy": 0.5, "e_grid": [-0.5, 0.5], "l_checkpoints": [1, 2, 3, 4, 5, 6, 8, 10]},
    }
    (tmp_path / "run.json").write_text(json.dumps(config))
    src = os.path.dirname(os.path.dirname(ebb.__file__))
    out = subprocess.run([sys.executable, "-c", RUN_CODE, str(tmp_path / "run.json"), str(tmp_path)],
                         capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"
