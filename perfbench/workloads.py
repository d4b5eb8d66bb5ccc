"""Benchmark workloads: config generation from a seed, and the correctness gate.

Each workload is one CLI command on a generated config. The gate reads the
command's outputs and counts operations (one run on ``fluxes``, one energy on
``sweep-e``, one energy row on ``equivalence``) attempted and failed. At the
default seed the outputs are also compared against reference values recorded
from the program (see ``record_reference.py``).
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
PHASE_JITTER = 1e-3
DEFAULT_SEED = 0
E_MIN, E_MAX = -1.99, 1.99
# The program's default geometric checkpoints, written out so the coverage
# check knows how many sample lengths each energy row solves.
CHECKPOINTS = [10, 16, 24, 38, 58, 91, 141, 220, 342, 532, 827, 1286, 2000]
LABELS = ("persistent", "vanishing", "indeterminate")

# Bound the sweep-e gate shares with `ebb validate`.
UNITARITY_BOUND = 1e-10

# Reference tolerances. Fluxes may move by the quadrature tolerance when the
# quadrature changes; pointwise values only by kernel rounding.
FLUX_ATOL_PER_TOL = 2.0
POINT_RTOL, POINT_ATOL = 1e-8, 1e-15
SLOPE_RTOL, SLOPE_ATOL = 1e-6, 1e-9
SIGMA_RTOL, SIGMA_ATOL = 1e-6, 1e-200

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")
# Every SWEEP_REF_STRIDE-th sweep-e row is kept as reference.
SWEEP_REF_STRIDE = 10

_LEAD = {"type": "semi_infinite", "hopping": 1.0, "coupling": 1.0}
_THERMO = {"beta_l": 1.0, "beta_r": 2.0, "mu_l": 0.5, "mu_r": -0.5}


def _frac(x: float) -> float:
    return x - math.floor(x)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    output: str          # the JSON summary the command writes
    config: dict
    operations: int


def fluxes_resonant(seed: int, length: int = 500) -> Workload:
    # The seed offsets the phase by less than PHASE_JITTER. That changes every
    # potential value and flux, but keeps the resonance structure and with it
    # the quadrature's work (within 1%). Whole-site translations of the
    # sample would change the evaluation count by up to 15% from seed to seed.
    potential = {
        "type": "almost_mathieu", "coupling": 0.5,
        "frequency": GOLDEN, "phase": _frac(seed * GOLDEN) * PHASE_JITTER,
    }
    config = {
        "sample": {"length": length, "potential": potential},
        "lead_l": _LEAD, "lead_r": _LEAD, "thermo": _THERMO,
        "quadrature": {"tolerance": 1e-8},
    }
    return Workload("fluxes-resonant", "fluxes", "fluxes.json", config, 1)


def sweep_e_wide(seed: int, length: int = 200, points: int = 4000) -> Workload:
    config = {
        "sample": {
            "length": length,
            "potential": {"type": "anderson", "amplitude": 1.0, "seed": seed % 2**64},
        },
        "lead_l": _LEAD, "lead_r": _LEAD, "thermo": _THERMO,
        "sweep": {"e_grid": {"min": E_MIN, "max": E_MAX, "points": points}},
    }
    return Workload("sweep-e-wide", "sweep-e", "sweep_e.json", config, points)


def equivalence_periodic(seed: int, points: int = 400) -> Workload:
    # Shift the grid by at most half a spacing, so it stays inside the band.
    shift = (_frac(seed * GOLDEN + 0.5) - 0.5) * (E_MAX - E_MIN) / (points - 1)
    config = {
        "sample": {
            "length": CHECKPOINTS[-1],
            "potential": {"type": "periodic", "cell": [1.0, 0.0]},
        },
        "lead_l": _LEAD, "lead_r": _LEAD, "thermo": _THERMO,
        "sweep": {
            "e_grid": {"min": E_MIN + shift, "max": E_MAX + shift, "points": points},
            "l_checkpoints": CHECKPOINTS,
        },
    }
    return Workload(
        "equivalence-periodic", "equivalence", "equivalence.json", config, points
    )


WORKLOADS = {
    "fluxes-resonant": fluxes_resonant,
    "sweep-e-wide": sweep_e_wide,
    "equivalence-periodic": equivalence_periodic,
}


def _close(a: float, b: float, rtol: float, atol: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= atol + rtol * max(abs(a), abs(b))


def _load_json(path):
    # The standard parser accepts the bare NaN that `equivalence` writes.
    with open(path) as fh:
        return json.load(fh)


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def reference_for(workload: Workload):
    """The recorded outputs for exactly this config, or None."""
    path = os.path.join(REFERENCE_DIR, f"{workload.name}.json")
    if not os.path.exists(path):
        return None
    reference = _load_json(path)
    return reference if reference["config"] == workload.config else None


def check_outputs(workload: Workload, out_dir: str, reference=None) -> int:
    """Number of the workload's operations whose output fails the gate.

    ``reference`` is the recorded output at the default seed, or None to
    check only the invariants that hold for any seed.
    """
    try:
        summary = _load_json(os.path.join(out_dir, workload.output))
        if workload.command == "fluxes":
            return 0 if _fluxes_ok(workload, summary, reference) else 1
        if workload.command == "sweep-e":
            rows = _read_csv(os.path.join(out_dir, "sweep_e.csv"))
            return _sweep_failures(workload, rows, reference)
        rows = _read_csv(os.path.join(out_dir, "equivalence.csv"))
        return _equivalence_failures(workload, summary, rows, reference)
    except (OSError, ValueError, KeyError, TypeError):
        return workload.operations


def _fluxes_ok(workload, s, reference) -> bool:
    tol = workload.config["quadrature"]["tolerance"]
    ok = (
        s["converged"] is True
        and s["no_open_channel"] is False
        and s["quadrature_error_estimate"] <= tol
        and s["energy_flux_r"] == -s["energy_flux_l"]
        and s["charge_flux_r"] == -s["charge_flux_l"]
        and s["entropy_flux"] >= 0.0
    )
    if ok and reference is not None:
        atol = FLUX_ATOL_PER_TOL * tol
        ok = all(
            _close(s[key], reference[key], 0.0, atol)
            for key in ("energy_flux_l", "charge_flux_l", "entropy_flux")
        )
    return ok


def _sweep_failures(workload, rows, reference) -> int:
    if len(rows) != workload.operations:
        return workload.operations
    good = {}
    for i, row in enumerate(rows):
        T = float(row["transmission"])
        if (
            0.0 <= T <= 1.0
            and float(row["sigma"]) >= 0.0
            and float(row["unitarity_residual"]) <= UNITARITY_BOUND
        ):
            good[i] = row
    if reference is not None:
        for i, ref in reference["rows"].items():
            row = good.get(int(i))
            if row is not None and not all(
                _close(float(row[k]), v, POINT_RTOL, POINT_ATOL) for k, v in ref.items()
            ):
                del good[int(i)]
    return workload.operations - len(good)


def _equivalence_failures(workload, summary, rows, reference) -> int:
    if sum(summary["counts"].values()) != workload.operations or len(rows) != workload.operations:
        return workload.operations
    failed = 0
    for i, row in enumerate(rows):
        ok = row["label"] in LABELS and row["contradiction"] in ("0", "1")
        if ok and reference is not None:
            ref = reference["rows"][i]
            ok = (
                row["label"] == ref["label"]
                and row["contradiction"] == ref["contradiction"]
                and _close(float(row["norm_slope"]), ref["norm_slope"], SLOPE_RTOL, SLOPE_ATOL)
                and _close(float(row["sigma_at_l_max"]), ref["sigma_at_l_max"], SIGMA_RTOL, SIGMA_ATOL)
                # Which points underflow may move with the kernel; the
                # vanishing label is the claim there, not the slope.
                and (
                    ref["label"] == "vanishing"
                    or _close(float(row["sigma_slope"]), ref["sigma_slope"], SLOPE_RTOL, SLOPE_ATOL)
                )
            )
        failed += not ok
    return failed
