"""The per-call contract of the run path: one kernel call per energy.

The benchmark's traced run counts calls at these bindings and requires
`evaluate_point` calls == evaluations and `coupled_green_direct` calls ==
checkpoints x energies. These tests pin that contract on small inputs, with
a counting wrapper on each binding that a caller looks up. Within it, an
L-sweep energy reads each checkpoint's Green block from its transfer
product, so one transfer pass walks sites 0..L_max once. Every command
runs the chain through one kernel, `fluxes.node_table`, so the stages are
counted at their `ebb.fluxes` bindings. The densities are no part of the
per-energy chain: one `spectral_densities` call covers a CHUNK of energies,
which in these L-sweeps is the whole table.
"""

import numpy as np
import pytest

import ebb.fluxes
import ebb.scan
from ebb.fluxes import QuadratureParams, integrate_fluxes
from ebb.model import SampleSpec, ThermoParams
from ebb.potentials import AlmostMathieu, AndersonRandom, Periodic, generate
from ebb.scan import energy_sweep, equivalence_rows, l_sweep
from ebb.transfer import CHUNK

THERMO = ThermoParams(1.0, 2.0, 0.5, -0.5)
CHECKPOINTS = [10, 16, 25, 40, 63, 100, 158, 251]


@pytest.fixture
def calls(monkeypatch):
    counts = {}
    for module, name in (
        (ebb.fluxes, "evaluate_point"),
        (ebb.fluxes, "coupled_green_direct"),
        (ebb.scan, "checkpoint_products"),
        (ebb.fluxes, "spectral_densities"),
    ):
        key = f"{module.__name__.split('.')[-1]}.{name}"
        counts[key] = 0

        def counted(*args, _inner=getattr(module, name), _key=key, **kwargs):
            counts[_key] += 1
            return _inner(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return counts


def test_integrate_fluxes_calls_evaluate_point_once_per_evaluation(calls, lead11):
    pot = generate(AlmostMathieu(0.5, 0.6180339887498949, 0.0), 30)
    result = integrate_fluxes(
        SampleSpec(pot), lead11, lead11, THERMO, QuadratureParams(tolerance=1e-8)
    )
    assert result.evaluations > 15 * 31  # the quadrature subdivided
    assert calls["fluxes.evaluate_point"] == result.evaluations
    assert calls["fluxes.coupled_green_direct"] == result.evaluations


def test_energy_sweep_calls_evaluate_point_once_per_energy(calls, lead11):
    grid = np.linspace(-1.9, 1.9, 23)
    pot = generate(AndersonRandom(1.0, 4), 40)
    energy_sweep(SampleSpec(pot), lead11, lead11, THERMO, grid)
    assert calls["fluxes.evaluate_point"] == len(grid)
    assert calls["fluxes.coupled_green_direct"] == len(grid)


def test_equivalence_rows_call_counts(calls, lead11):
    grid = np.linspace(-1.9, 1.9, 7)
    pot = generate(Periodic((1.0, 0.0)), CHECKPOINTS[-1])
    equivalence_rows(SampleSpec(pot), grid, CHECKPOINTS, lead11, lead11, THERMO)
    assert calls["scan.checkpoint_products"] == len(grid)
    assert calls["fluxes.evaluate_point"] == len(CHECKPOINTS) * len(grid)
    assert calls["fluxes.coupled_green_direct"] == len(CHECKPOINTS) * len(grid)


def test_l_sweep_call_counts(calls, lead11):
    pot = generate(AndersonRandom(1.0, 3), CHECKPOINTS[-1])
    l_sweep(SampleSpec(pot), 0.3, lead11, lead11, THERMO, CHECKPOINTS)
    assert calls["scan.checkpoint_products"] == 1
    assert calls["fluxes.evaluate_point"] == len(CHECKPOINTS)
    assert calls["fluxes.coupled_green_direct"] == len(CHECKPOINTS)


@pytest.mark.parametrize("checkpoints", [CHECKPOINTS, [1, 2, 3, 4, 5, 6, 8, 10]])
def test_equivalence_energy_solves_each_site_once(lead11, monkeypatch, checkpoints):
    # Each site of 0..L_max is walked once per energy, by its one transfer
    # pass; the Green blocks are read from that pass's products.
    transfer_sites = []
    products = ebb.scan.checkpoint_products

    def walked(pot, E, cps):
        transfer_sites.append(cps[-1] + 1)
        return products(pot, E, cps)

    monkeypatch.setattr(ebb.scan, "checkpoint_products", walked)
    grid = np.linspace(-1.9, 1.9, 7)
    pot = generate(Periodic((1.0, 0.0)), checkpoints[-1])
    equivalence_rows(SampleSpec(pot), grid, checkpoints, lead11, lead11, THERMO)
    assert transfer_sites == [checkpoints[-1] + 1] * len(grid)


def test_integrate_fluxes_computes_densities_once_per_pass(calls, lead11, monkeypatch):
    # Every pass of this quadrature is shorter than CHUNK: one slice each.
    passes = []
    gk15 = ebb.fluxes.adaptive_gk15
    monkeypatch.setattr(ebb.fluxes, "adaptive_gk15", lambda f, *a: gk15(lambda E: passes.append(len(E)) or f(E), *a))
    pot = generate(AlmostMathieu(0.5, 0.6180339887498949, 0.0), 30)
    integrate_fluxes(SampleSpec(pot), lead11, lead11, THERMO, QuadratureParams(tolerance=1e-8))
    assert len(passes) > 1 and max(passes) <= CHUNK
    assert calls["fluxes.spectral_densities"] == len(passes)


def test_energy_sweep_computes_densities_once_per_chunk(calls, lead11):
    pot = generate(AndersonRandom(1.0, 4), 10)
    energy_sweep(SampleSpec(pot), lead11, lead11, THERMO, np.linspace(-1.9, 1.9, 2 * CHUNK + 3))
    assert calls["fluxes.spectral_densities"] == 3
    assert calls["fluxes.evaluate_point"] == 2 * CHUNK + 3


@pytest.mark.parametrize("n_energies", [1, 7])
def test_l_sweeps_compute_densities_once_per_table(calls, lead11, n_energies):
    grid = np.linspace(-1.9, 1.9, n_energies)
    sample = SampleSpec(generate(Periodic((1.0, 0.0)), CHECKPOINTS[-1]))
    equivalence_rows(sample, grid, CHECKPOINTS, lead11, lead11, THERMO)
    assert calls["fluxes.spectral_densities"] == 1
    l_sweep(sample, 0.3, lead11, lead11, THERMO, CHECKPOINTS)
    assert calls["fluxes.spectral_densities"] == 2
    assert calls["fluxes.evaluate_point"] == len(CHECKPOINTS) * (n_energies + 1)
