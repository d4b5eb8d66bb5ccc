import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.stats import linregress

import ebb
import ebb.fluxes
import ebb.green
import ebb.transfer
from ebb.errors import ConfigError, DomainError
from ebb.green import RESONANCE_RELATIVE_CUTOFF
from ebb.model import SampleSpec, ThermoParams
from ebb.potentials import AndersonRandom, Periodic, Zero, generate
from ebb.scan import (
    ClassificationThresholds,
    LSweepPoint,
    _fit,
    _median,
    classify_transport,
    energy_sweep,
    equivalence_rows,
    l_sweep,
)

THERMO = ThermoParams(1.0, 2.0, 0.5, -0.5)
CHECKPOINTS = [10, 16, 25, 40, 63, 100, 158, 251, 398, 631, 1000]
FREE = generate(Zero(), CHECKPOINTS[-1])
DISORDERED = generate(AndersonRandom(2.0, 7), CHECKPOINTS[-1])


def test_l_sweep_free_sample(lead11):
    points = l_sweep(FREE, 0.5, lead11, lead11, THERMO, CHECKPOINTS)
    assert [p.L for p in points] == CHECKPOINTS
    for p in points:
        assert 0.0 < p.transmission <= 1.0
        assert p.sigma_density > 0.0
        assert not p.resonance_flag
    # Free transfer norms stay bounded along the whole sweep.
    assert max(p.log_transfer_norm for p in points) < 2.0


def test_l_sweep_one_spectral_norm_per_checkpoint(lead11, monkeypatch):
    # The transfer norm and the resonance test share one _smax of each
    # checkpoint's product, and read the same bits as separate calls.
    calls = []
    smax = ebb.transfer._smax

    def counting(*m):
        calls.append(m)
        return smax(*m)

    monkeypatch.setattr(ebb.transfer, "_smax", counting)
    monkeypatch.setattr(ebb.green, "_smax", counting, raising=False)
    points = l_sweep(DISORDERED, 0.5, lead11, lead11, THERMO, CHECKPOINTS)
    assert len(calls) == len(CHECKPOINTS)
    for p, m, (_, T) in zip(points, calls, ebb.transfer.checkpoint_products(DISORDERED, 0.5, CHECKPOINTS)):
        assert p.log_transfer_norm == max(0.0, T.log_scale + math.log(smax(*m)))
        assert p.resonance_flag == (abs(m[0]) < RESONANCE_RELATIVE_CUTOFF * smax(*m))


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
        l_sweep(DISORDERED, 0.5, lead11, lead11, THERMO, cps)
        assert calls == [0.5, 0.5]


def test_l_sweep_rejects_out_of_band_energy(lead11):
    with pytest.raises(DomainError, match="band"):
        l_sweep(FREE, 3.0, lead11, lead11, THERMO, CHECKPOINTS)
    with pytest.raises(DomainError, match="checkpoints"):
        l_sweep(FREE, 0.5, lead11, lead11, THERMO, [0, 10])


@pytest.mark.parametrize("site", [0, 500, CHECKPOINTS[-1]])
def test_l_sweep_rejects_non_finite_potential(lead11, site):
    # The sweep checks its potential once, up to the last checkpoint: a bad
    # value anywhere in that prefix is rejected before any solve.
    pot = FREE.copy()
    pot[site] = np.nan
    with pytest.raises(ConfigError, match="finite"):
        l_sweep(pot, 0.5, lead11, lead11, THERMO, CHECKPOINTS)


def test_classify_persistent_free(lead11):
    points = l_sweep(FREE, 0.5, lead11, lead11, THERMO, CHECKPOINTS)
    cls = classify_transport(points)
    assert cls.label == "persistent"
    assert cls.l_max == 1000
    assert abs(cls.norm_slope) < 1.0 / 1000
    assert not cls.underflowed


def test_classify_vanishing_strong_disorder(lead11):
    points = l_sweep(DISORDERED, 0.5, lead11, lead11, THERMO, CHECKPOINTS)
    cls = classify_transport(points)
    assert cls.label == "vanishing"
    assert cls.norm_slope > 0.0
    assert cls.norm_r2 > 0.9
    # sigma either decays with a clean fit or underflows outright.
    assert cls.underflowed or (cls.sigma_slope < 0 and cls.sigma_r2 > 0.8)


def test_classify_requirements():
    pts = [LSweepPoint(L, 1.0, 1.0, 0.0, False) for L in (10, 20, 30, 40)]
    with pytest.raises(DomainError, match="8 checkpoints"):
        classify_transport(pts)
    pts = [LSweepPoint(10 + i, 1.0, 1.0, 0.0, False) for i in range(8)]
    with pytest.raises(DomainError, match="factor 10"):
        classify_transport(pts)


def test_classify_synthetic_underflow_is_vanishing():
    Ls = [10, 20, 40, 80, 160, 320, 640, 1280]
    pts = [LSweepPoint(L, 0.0 if L > 100 else 1e-150, 0.0, 0.1 * L, False) for L in Ls]
    cls = classify_transport(pts)
    assert cls.label == "vanishing"
    assert cls.underflowed


def test_classify_flags_contradiction():
    # Underflowed sigma with flat norms: a vanishing label the bounded norms
    # contradict. With growing norms the same label is consistent.
    Ls = [10, 20, 40, 80, 160, 320, 640, 1280]
    flat = [LSweepPoint(L, 0.0, 0.0, 0.0, False) for L in Ls]
    growing = [LSweepPoint(L, 0.0, 0.0, 0.1 * L, False) for L in Ls]
    assert classify_transport(flat).label == "vanishing"
    assert classify_transport(flat).contradiction
    assert not classify_transport(growing).contradiction


def test_classify_indeterminate_between_regimes():
    # Flat norms but strongly fluctuating sigma: neither test should fire
    # with the default thresholds.
    Ls = [10, 20, 40, 80, 160, 320, 640, 1280]
    sigmas = [1.0, 1e-3, 1.0, 1e-3, 1.0, 1e-3, 1.0, 1e-3]
    pts = [LSweepPoint(L, s, 0.5, 0.0, False) for L, s in zip(Ls, sigmas)]
    assert classify_transport(pts).label == "indeterminate"


def test_thresholds_are_tunable():
    Ls = [10, 20, 40, 80, 160, 320, 640, 1280]
    # min/median ratio ~ 0.3: below the default floor, above a loose one.
    sigmas = [1.0, 0.9, 1.1, 0.3, 1.0, 0.95, 1.05, 0.9]
    pts = [LSweepPoint(L, s, 0.5, 0.0, False) for L, s in zip(Ls, sigmas)]
    assert classify_transport(pts).label == "indeterminate"
    loose = ClassificationThresholds(persistent_floor=0.1)
    assert classify_transport(pts, loose).label == "persistent"


def test_energy_sweep_records_errors_per_point(lead11):
    # E = 3 is out of band: a closed-channel zero, not an error.
    grid = [0.5, 1.0, 3.0]
    out = energy_sweep(SampleSpec(10, np.zeros(11)), lead11, lead11, THERMO, grid)
    assert len(out) == 3
    assert out[0].error is None
    assert out[0].transmission > 0.0
    assert out[2].transmission == 0.0
    assert all(p.sigma >= 0.0 for p in out if p.error is None)


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


def test_periodic_band_energy_is_persistent(lead11):
    # At E = -0.5 the trace of the 2-cell transfer, E^2 - 3E - 2 = -0.25,
    # lies inside (-2, 2): a band energy of the period-2 potential.
    loose = ClassificationThresholds(persistent_floor=0.1)
    (row,) = equivalence_rows(
        generate(Periodic((3.0, 0.0)), CHECKPOINTS[-1]), [-0.5], CHECKPOINTS,
        lead11, lead11, THERMO, loose,
    )
    assert row.label == "persistent"


def test_fit_matches_linregress():
    rng = np.random.default_rng(4)
    xs = np.array(CHECKPOINTS, dtype=float)
    for ys in (0.01 * xs + rng.normal(0, 0.1, xs.size), -3.0 * xs, rng.normal(0, 1, xs.size),
               np.log(np.exp(-0.02 * xs) + 1e-3)):
        ref = linregress(xs, ys)
        assert _fit(xs, ys) == (ref.slope, ref.rvalue**2)
    assert _fit(xs, np.full(xs.size, 0.3)) == (0.0, 1.0)


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


def test_cli_import_leaves_scipy_stats_out():
    code = "import sys, ebb.cli; print('scipy.stats' in sys.modules)"
    src = os.path.dirname(os.path.dirname(ebb.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"
