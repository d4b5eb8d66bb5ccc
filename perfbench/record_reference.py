"""Record the reference outputs the gate compares against at the default seed.

usage: python3 perfbench/record_reference.py

Runs each workload's command once at DEFAULT_SEED and writes
perfbench/reference/<workload>.json with the config it used. Rerun only when
the program's results are meant to change; the gate then checks against the
new values.
"""

import csv
import json
import os
import subprocess
import sys
import tempfile

from run import OUT, ROOT, SRC
from workloads import DEFAULT_SEED, REFERENCE_DIR, SWEEP_REF_STRIDE, WORKLOADS


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def record(name):
    workload = WORKLOADS[name](DEFAULT_SEED)
    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as work:
        config = os.path.join(work, "config.json")
        with open(config, "w") as fh:
            json.dump(workload.config, fh)
        subprocess.run(
            [sys.executable, "-m", "ebb", workload.command, "--config", config, "--out", work],
            env=dict(os.environ, PYTHONPATH=SRC), cwd=ROOT, check=True,
        )
        with open(os.path.join(work, workload.output)) as fh:
            summary = json.load(fh)
        reference = {"config": workload.config}
        if workload.command == "fluxes":
            for key in ("energy_flux_l", "charge_flux_l", "entropy_flux"):
                reference[key] = summary[key]
        elif workload.command == "sweep-e":
            rows = _rows(os.path.join(work, "sweep_e.csv"))
            reference["rows"] = {
                str(i): {k: float(rows[i][k]) for k in ("transmission", "phi_l", "j_l", "sigma")}
                for i in range(0, len(rows), SWEEP_REF_STRIDE)
            }
        else:
            reference["rows"] = [
                {
                    "label": r["label"],
                    "contradiction": r["contradiction"],
                    "norm_slope": float(r["norm_slope"]),
                    "sigma_slope": float(r["sigma_slope"]),
                    "sigma_at_l_max": float(r["sigma_at_l_max"]),
                }
                for r in _rows(os.path.join(work, "equivalence.csv"))
            ]
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    with open(os.path.join(REFERENCE_DIR, f"{name}.json"), "w") as fh:
        json.dump(reference, fh, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    for name in WORKLOADS:
        record(name)
