"""The per-call contract of the run path: one kernel call per energy.

The benchmark's traced run counts calls at these bindings and requires
`evaluate_point` calls == evaluations and `coupled_green_direct` calls ==
checkpoints x energies. These tests pin that contract on small inputs, with
a counting wrapper on each binding that a caller looks up.
"""

import numpy as np
import pytest

import ebb.fluxes
import ebb.scan
from ebb.fluxes import QuadratureParams, integrate_fluxes
from ebb.model import SampleSpec, ThermoParams
from ebb.potentials import AlmostMathieu, AndersonRandom, Periodic, generate
from ebb.scan import energy_sweep, equivalence_rows

THERMO = ThermoParams(1.0, 2.0, 0.5, -0.5)
CHECKPOINTS = [10, 16, 25, 40, 63, 100, 158, 251]


@pytest.fixture
def calls(monkeypatch):
    counts = {}
    for module, name in (
        (ebb.fluxes, "evaluate_point"),
        (ebb.scan, "evaluate_point"),
        (ebb.fluxes, "coupled_green_direct"),
        (ebb.scan, "checkpoint_products"),
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
        SampleSpec(30, pot), lead11, lead11, THERMO, QuadratureParams(tolerance=1e-8)
    )
    assert result.evaluations > 15 * 31  # the quadrature subdivided
    assert calls["fluxes.evaluate_point"] == result.evaluations
    assert calls["fluxes.coupled_green_direct"] == result.evaluations


def test_energy_sweep_calls_evaluate_point_once_per_energy(calls, lead11):
    grid = np.linspace(-1.9, 1.9, 23)
    pot = generate(AndersonRandom(1.0, 4), 40)
    energy_sweep(SampleSpec(40, pot), lead11, lead11, THERMO, grid)
    assert calls["scan.evaluate_point"] == len(grid)
    assert calls["fluxes.coupled_green_direct"] == len(grid)


def test_equivalence_rows_call_counts(calls, lead11):
    grid = np.linspace(-1.9, 1.9, 7)
    pot = generate(Periodic((1.0, 0.0)), CHECKPOINTS[-1])
    equivalence_rows(pot, grid, CHECKPOINTS, lead11, lead11, THERMO)
    assert calls["scan.checkpoint_products"] == len(grid)
    assert calls["scan.evaluate_point"] == len(CHECKPOINTS) * len(grid)
    assert calls["fluxes.coupled_green_direct"] == len(CHECKPOINTS) * len(grid)
