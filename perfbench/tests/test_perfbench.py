"""Tests of the benchmark harness itself, at tiny sizes.

Run with: python3 -m pytest perfbench/tests -q
"""

import csv
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.dirname(HERE)
sys.path.insert(0, PERFBENCH)

import run  # noqa: E402
import spans  # noqa: E402
import workloads as w  # noqa: E402

sys.path.insert(0, run.SRC)

TINY = {
    "fluxes-resonant": lambda seed: w.fluxes_resonant(seed, length=20),
    "sweep-e-wide": lambda seed: w.sweep_e_wide(seed, length=20, points=40),
    # A shifted grid needs >= 200 points to stay inside the band.
    "equivalence-periodic": lambda seed: w.equivalence_periodic(0, points=12),
}


def _benchmark_json():
    with open(os.path.join(os.path.dirname(PERFBENCH), "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_benchmark_json_matches_harness():
    spec = _benchmark_json()
    assert [x["name"] for x in spec["workloads"]] == list(w.WORKLOADS)
    assert {x["name"]: x["unit"] for x in spec["end_to_end"]} == run.END_TO_END
    assert {x["name"]: x["unit"] for x in spec["per_layer"]} == run.per_layer_units()


@pytest.mark.parametrize("name", list(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_harness_runs_end_to_end(name, trace):
    workload = TINY[name](3)
    report, result = run.benchmark(workload, 3, 0.1, trace)
    assert result["correct"], report["problems"]
    assert result["failed"] == 0
    assert result["attempted"] == workload.operations * (1 + trace)
    expected = run.per_layer_units() if trace else run.END_TO_END
    assert set(result["metrics"]) == set(expected)
    for metric in result["metrics"].values():
        assert set(metric) == {"value", "unit"}
    if trace:
        quad_calls = result["metrics"]["quadrature.adaptive_gk15.calls"]["value"]
        transfer_calls = result["metrics"]["transfer.checkpoint_products.calls"]["value"]
        assert (quad_calls > 0) == (name == "fluxes-resonant")
        assert (transfer_calls > 0) == (name == "equivalence-periodic")
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(PERFBENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-e-wide",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_seed_changes_inputs_deterministically():
    for make in w.WORKLOADS.values():
        assert make(5).config == make(5).config
        assert make(5).config != make(6).config
    assert w.fluxes_resonant(0).config["sample"]["potential"]["phase"] == 0.0


def _run_cli(workload, out_dir):
    config = os.path.join(out_dir, "config.json")
    with open(config, "w") as fh:
        json.dump(workload.config, fh)
    subprocess.run(
        [sys.executable, "-m", "ebb", workload.command, "--config", config, "--out", str(out_dir)],
        env=dict(os.environ, PYTHONPATH=run.SRC), check=True, timeout=120,
    )


def _rewrite_csv(path, edit):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    fields = list(rows[0])
    edit(rows)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fields)
        writer.writeheader()
        writer.writerows(rows)


def _edit_json(path, edit):
    with open(path) as fh:
        data = json.load(fh)
    edit(data)
    with open(path, "w") as fh:
        json.dump(data, fh)


def test_gate_flags_planted_fluxes_errors(tmp_path):
    workload = TINY["fluxes-resonant"](0)
    _run_cli(workload, tmp_path)
    path = tmp_path / "fluxes.json"
    assert w.check_outputs(workload, tmp_path) == 0
    reference = {"energy_flux_l": 0.0, "charge_flux_l": 0.0, "entropy_flux": 0.0}
    assert w.check_outputs(workload, tmp_path, reference) == 1
    _edit_json(path, lambda d: d.update(converged=False))
    assert w.check_outputs(workload, tmp_path) == 1
    _edit_json(path, lambda d: d.update(converged=True, charge_flux_r=d["charge_flux_l"]))
    assert w.check_outputs(workload, tmp_path) == 1
    os.remove(path)
    assert w.check_outputs(workload, tmp_path) == 1


def test_gate_flags_planted_sweep_errors(tmp_path):
    workload = TINY["sweep-e-wide"](0)
    _run_cli(workload, tmp_path)
    path = tmp_path / "sweep_e.csv"
    assert w.check_outputs(workload, tmp_path) == 0

    def plant(rows):
        rows[3]["transmission"] = "1.5"
        rows[7]["sigma"] = "-1e-3"
        rows[9]["unitarity_residual"] = "1e-6"
        rows[11]["phi_l"] = "nan"

    _rewrite_csv(path, plant)
    assert w.check_outputs(workload, tmp_path) == 3
    reference = {"rows": {"11": {"phi_l": 0.0}, "12": {"transmission": 2.0}}}
    assert w.check_outputs(workload, tmp_path, reference) == 5
    _rewrite_csv(path, lambda rows: rows.pop())
    assert w.check_outputs(workload, tmp_path) == workload.operations


def test_gate_flags_planted_equivalence_errors(tmp_path):
    workload = TINY["equivalence-periodic"](0)
    _run_cli(workload, tmp_path)
    assert w.check_outputs(workload, tmp_path) == 0
    with open(tmp_path / "equivalence.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    reference = {
        "rows": [
            {k: (v if k in ("label", "contradiction") else float(v)) for k, v in r.items()}
            for r in rows
        ]
    }
    assert w.check_outputs(workload, tmp_path, reference) == 0
    reference["rows"][2]["label"] = "indeterminate" if rows[2]["label"] != "indeterminate" else "vanishing"
    reference["rows"][4]["contradiction"] = "1"
    assert w.check_outputs(workload, tmp_path, reference) == 2
    _rewrite_csv(tmp_path / "equivalence.csv", lambda rows: rows[0].update(label="bogus"))
    assert w.check_outputs(workload, tmp_path) == 1
    _edit_json(tmp_path / "equivalence.json", lambda d: d["counts"].update(extra=1))
    assert w.check_outputs(workload, tmp_path) == workload.operations


def test_missing_layer_is_reported_absent():
    tracer = spans.Tracer()
    tracer.install({"leads.gone": ("ebb.leads", "no_such_function")})
    assert tracer.absent == ["leads.gone"]
    traced = {
        "spans": {"cli": {"calls": 1, "s": 1.0, "self_s": 1.0}},
        "counters": {},
        "absent": ["fluxes.evaluate_point"],
        "wall_s": 1.5,
        "output": {"evaluations": 30},
    }
    values = run.per_layer(traced, 1.0)
    assert values == {"cli.self_s": 1.0, "trace.overhead_s": 0.5}
    assert run.coverage(w.fluxes_resonant(0), traced) == [
        "quadrature.adaptive_gk15: 0 calls, expected 1"
    ]
