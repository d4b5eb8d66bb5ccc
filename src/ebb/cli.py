"""Command-line interface: ebb <command> [--config <file>] --out <dir>.

Commands: fluxes, sweep-e, sweep-l, equivalence, validate. Every command
but validate reads its run configuration from --config. Each run writes
CSV data files plus a JSON summary embedding the run manifest. CSV bodies
are byte-identical across runs of the same configuration; the manifest
timestamp is the only varying field, and it lives in the JSON.

Exit codes: 0 success, 1 numerical-invariant failure (for `fluxes`, also a
quadrature that did not converge), 2 configuration error. Exit 1 still writes
the JSON, with the stderr message as `failure` (and no CSV if the run raised).
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import operator
import os
import sys
from collections import Counter
from typing import Optional

import numpy as np

from . import __version__, scan
from .config import RunConfig, parse_config
from .errors import BudgetError, ConfigError, NumericalFailure
from .fluxes import integrate_fluxes, integration_window
from .model import SampleSpec
from .potentials import generate


def _manifest(command: str, run: Optional[RunConfig], args, max_residual: float) -> dict:
    """The run manifest; run is None for a command that reads no config."""
    pot = run.resolved["sample"]["potential"] if run else {}
    return {
        "tool_version": __version__,
        "command": command,
        "config": run.resolved if run else None,
        "seeds": {pot["type"]: pot["seed"]} if "seed" in pot else {},
        "seed_override": args.seed_override,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "max_unitarity_residual": max_residual,
    }


def _energies(run: RunConfig, key: str) -> list:
    """sweep.<key> as a list of energies, each inside the open-channel window."""
    value = getattr(run.sweep, key)
    if value is None:
        raise ConfigError(f"sweep.{key}: required for this command")
    energies = list(value) if isinstance(value, tuple) else [value]
    outside = ~integration_window(run.lead_l, run.lead_r, run.quadrature.edge_margin).contains(energies)
    if outside.any():
        raise ConfigError(f"sweep.{key}: E={energies[outside.argmax()]} is outside the open-channel window")
    return energies


def _sample(run: RunConfig, L: int) -> SampleSpec:
    """The configured potential on sites 0..L, generated once per command.
    A potential that cannot supply it (a file unreadable, unparsable or too
    short, a non-finite value) is a configuration error under `sample`."""
    try:
        return SampleSpec(generate(run.potential_spec, L))
    except (ValueError, OSError) as exc:
        raise ConfigError(f"sample: {exc}") from None


# Each command returns (summary, rows, max unitarity residual, failure): the
# JSON summary without its manifest, the CSV rows, the residual the manifest
# reports, and None or a message that makes the run exit 1 once its files
# are written.


def cmd_fluxes(run: RunConfig):
    sample = _sample(run, run.sample_length)
    try:
        result = integrate_fluxes(sample, run.lead_l, run.lead_r, run.thermo, run.quadrature)
    except BudgetError as exc:
        raise ConfigError(f"quadrature.{exc}") from None
    summary = {
        "energy_flux_l": result.energy_flux_l,
        "charge_flux_l": result.charge_flux_l,
        "entropy_flux": result.entropy_flux,
        "quadrature_error_estimate": result.quadrature_error_estimate,
        "evaluations": result.evaluations,
        "panels_at_width_floor": result.panels_at_width_floor,
        "panels_at_rounding_floor": result.panels_at_rounding_floor,
        "no_open_channel": result.no_open_channel,
        "energy_flux_r": -result.energy_flux_l,
        "charge_flux_r": -result.charge_flux_l,
        "converged": result.converged,
    }
    failure = None if result.converged else (
        f"quadrature did not converge: error estimate {result.quadrature_error_estimate:.3e} "
        f"after {result.evaluations} evaluations (max_evaluations "
        f"{run.quadrature.max_evaluations}); fluxes.json holds the partial result"
    )
    return summary, [], result.max_unitarity_residual, failure


def cmd_sweep_e(run: RunConfig):
    points = scan.energy_sweep(
        _sample(run, run.sample_length), run.lead_l, run.lead_r, run.thermo,
        _energies(run, "e_grid"),
    )
    failed = [p for p in points if p.error is not None]
    summary = {"points": len(points), "failed_points": [p.E for p in failed],
               "failed_reasons": [p.error for p in failed]}
    max_residual = max((p.unitarity_residual for p in points if p.error is None), default=0.0)
    return summary, points, max_residual, None


def cmd_sweep_l(run: RunConfig):
    (energy,) = _energies(run, "energy")
    cps = run.sweep.l_checkpoints
    points = scan.l_sweep(_sample(run, cps[-1]), energy, run.lead_l, run.lead_r, run.thermo, cps)
    cls = scan.classify_transport(points, run.sweep.thresholds)
    # Every field of the classification, two of them under their JSON names.
    names = {"label": "classification", "underflowed": "sigma_underflowed"}
    summary = {names.get(k, k): v for k, v in cls._asdict().items()}
    return summary, points, max(p.unitarity_residual for p in points), None


def cmd_equivalence(run: RunConfig):
    energies = _energies(run, "e_grid")
    cps = run.sweep.l_checkpoints
    rows = scan.equivalence_rows(
        _sample(run, cps[-1]), energies, cps,
        run.lead_l, run.lead_r, run.thermo, run.sweep.thresholds,
    )
    summary = {
        "counts": dict(Counter(r.label for r in rows)),
        "contradictions": sum(r.contradiction for r in rows),
    }
    for label in ("persistent", "vanishing"):
        sigmas = [r.sigma_at_l_max for r in rows if r.label == label]
        with np.errstate(over="ignore"):  # finite densities whose sum passes float range: sum x/n
            mean = np.mean(sigmas) if sigmas else math.nan
        summary[f"mean_sigma_{label}"] = float(np.sum(np.divide(sigmas, len(sigmas))) if np.isinf(mean) else mean)
    summary["l_max"] = cps[-1]
    max_residual = max((r.max_unitarity_residual for r in rows), default=0.0)
    return summary, rows, max_residual, None


def cmd_validate(run: None):
    from .validate import run_all

    results = run_all()
    for res in results:
        print(f"[{'PASS' if res.passed else 'FAIL'}] {res.name}: {res.detail}")
    failed = [r.name for r in results if not r.passed]
    summary = {
        "checks": [{"name": r.name, "passed": r.passed, "detail": r.detail} for r in results],
        "all_passed": not failed,
    }
    (unitarity,) = [r for r in results if r.name == "unitarity"]
    return summary, [], unitarity.value, f"checks failed: {', '.join(failed)}" if failed else None


def _strict(o):
    """o with numpy scalars made Python ones and non-finite floats None."""
    if isinstance(o, dict):
        return {k: _strict(v) for k, v in o.items()}
    if isinstance(o, (list, tuple)):
        return [_strict(v) for v in o]
    if isinstance(o, np.generic):
        o = o.item()
    if isinstance(o, float) and not math.isfinite(o):
        return None
    return o


# The row attributes each command writes to its CSV, in column order, each
# with its printf spec: _G (round-trip exact) for floats, _D for ints and
# bools, %s for labels.
_G, _D = "%.17g", "%d"
_CSV_COLUMNS = {
    "sweep-e": {"E": _G, "transmission": _G, "phi_l": _G, "j_l": _G, "sigma": _G,
                "unitarity_residual": _G},
    "sweep-l": {"L": _D, "sigma_density": _G, "transmission": _G, "log_transfer_norm": _G,
                "resonance_flag": _D},
    "equivalence": {"E": _G, "label": "%s", "norm_slope": _G, "sigma_slope": _G,
                    "sigma_at_l_max": _G, "contradiction": _D},
}


def _write_outputs(command: str, run: Optional[RunConfig], args, summary, rows, max_residual):
    """<stem>.csv from the rows (None: none, not even an earlier run's), if the command has
    columns, and <stem>.json: the summary, manifest last, strict JSON (non-finite as null).
    An OSError is a --out error that removes the files opened: no CSV without its JSON."""
    stem = os.path.join(args.out, command.replace("-", "_"))
    columns = _CSV_COLUMNS.get(command)
    opened = []
    try:
        if columns and rows is None and os.path.exists(stem + ".csv"):
            os.remove(stem + ".csv")
        elif columns and rows is not None:
            values = operator.attrgetter(*columns)
            line = ",".join(columns.values()) + "\n"
            with open(stem + ".csv", "w", newline="") as fh:
                opened.append(fh.name)
                fh.write(",".join(columns) + "\n")
                for row in rows:
                    fh.write(line % values(row))
        summary["manifest"] = _manifest(command, run, args, max_residual)
        with open(stem + ".json", "w") as fh:
            opened.append(fh.name)
            json.dump(_strict(summary), fh, indent=2, allow_nan=False)
            fh.write("\n")
    except OSError as exc:
        for path in opened:
            os.remove(path)
        raise ConfigError(f"--out: {exc}") from None


_COMMANDS = {
    "fluxes": cmd_fluxes,
    "sweep-e": cmd_sweep_e,
    "sweep-l": cmd_sweep_l,
    "equivalence": cmd_equivalence,
    "validate": cmd_validate,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ebb",
        description="Steady-state transport through a 1D tight-binding sample "
        "between two thermal reservoirs.",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", help="run configuration JSON (every command but validate)")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument(
        "--seed-override", type=int, default=None,
        help="replace the disorder seed from the config",
    )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    reads_config = args.command != "validate"
    if reads_config and args.config is None:
        parser.error(f"{args.command} requires --config")
    try:
        run = parse_config(args.config, seed_override=args.seed_override) if reads_config else None
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"--out: {exc}") from None
        try:
            summary, rows, max_residual, failure = _COMMANDS[args.command](run)
        except NumericalFailure as exc:
            # The run's record is its failure and manifest, with no CSV.
            summary, rows, max_residual, failure = {}, None, None, str(exc)
        if failure:
            summary["failure"] = failure
            print(f"numerical failure: {failure}", file=sys.stderr)
        _write_outputs(args.command, run, args, summary, rows, max_residual)
        return 1 if failure else 0
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
