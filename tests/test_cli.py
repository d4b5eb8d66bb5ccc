import argparse
import csv
import json
import math
import os
import subprocess
import sys
import time
from collections import Counter

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ebb
from ebb import cli, transfer
from ebb.cli import main
from ebb.config import MAX_POINTS, geometric_checkpoints, parse_config
from ebb.errors import ConfigError, NumericalFailure
from ebb.leads import weiss_boundary
from ebb.model import SampleSpec
from ebb.potentials import AndersonRandom, Periodic, Zero, generate
from ebb.scan import EnergyPoint, EquivalenceRow, LSweepPoint, l_sweep

from conftest import continuants

BASE = {
    "sample": {"length": 10, "potential": {"type": "zero"}},
    "lead_l": {"type": "semi_infinite", "hopping": 1.0, "coupling": 1.0},
    "lead_r": {"type": "semi_infinite", "hopping": 1.0, "coupling": 1.0},
    "thermo": {"beta_l": 1.0, "beta_r": 2.0, "mu_l": 0.5, "mu_r": -0.5},
}
ANDERSON = {"length": 10, "potential": {"type": "anderson", "amplitude": 1.0, "seed": 7}}
SWEEP_L = [10, 16, 25, 40, 63, 100, 158, 251]


def write_config(tmp_path, extra=None, name="run.json", **overrides):
    cfg = json.loads(json.dumps(BASE))
    cfg.update(overrides)
    if extra:
        cfg.update(extra)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run_cli(tmp_path, command, cfg_path, *extra_args):
    out = tmp_path / "out"
    rc = main([command, "--config", cfg_path, "--out", str(out), *extra_args])
    return rc, out


def strict_json(path):
    """Parse a JSON file, rejecting the non-standard NaN and Infinity."""
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(path.read_text(), parse_constant=reject)


# -- config parsing ----------------------------------------------------------


def test_parse_config_defaults(tmp_path):
    run = parse_config(write_config(tmp_path))
    assert run.sample_length == 10
    assert run.quadrature.tolerance == 1e-8
    assert run.sweep.l_checkpoints == tuple(geometric_checkpoints())
    assert run.resolved["thermo"]["beta_r"] == 2.0


def test_parse_config_unknown_key_rejected(tmp_path):
    path = write_config(tmp_path, extra={"extra_section": {}})
    with pytest.raises(ConfigError, match="extra_section"):
        parse_config(path)


def test_parse_config_key_path_in_errors(tmp_path):
    path = write_config(tmp_path, thermo={"beta_l": -1.0, "beta_r": 1.0})
    with pytest.raises(ConfigError, match="thermo.beta_l"):
        parse_config(path)


def test_parse_config_potential_types(tmp_path):
    path = write_config(
        tmp_path,
        sample={
            "length": 6,
            "potential": {"type": "periodic", "cell": [3.0, 0.0]},
        },
    )
    run = parse_config(path)
    assert run.potential_spec == Periodic((3.0, 0.0))
    assert run.sample_length == 6


def test_parse_config_seed_override(tmp_path):
    path = write_config(
        tmp_path,
        sample={
            "length": 5,
            "potential": {"type": "anderson", "amplitude": 1.0, "seed": 7},
        },
    )
    assert parse_config(path).potential_spec == AndersonRandom(1.0, 7)
    assert parse_config(path, seed_override=99).potential_spec == AndersonRandom(1.0, 99)


def test_parse_config_e_grid_forms(tmp_path):
    path = write_config(tmp_path, extra={"sweep": {"e_grid": [0.1, 0.2]}})
    assert parse_config(path).sweep.e_grid == (0.1, 0.2)
    path = write_config(
        tmp_path, extra={"sweep": {"e_grid": {"min": -1.0, "max": 1.0, "points": 5}}}
    )
    grid = parse_config(path).sweep.e_grid
    np.testing.assert_allclose(grid, np.linspace(-1, 1, 5))


def test_parse_config_invalid_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        parse_config(str(bad))


# -- commands ----------------------------------------------------------------


def test_fluxes_command(tmp_path):
    rc, out = run_cli(tmp_path, "fluxes", write_config(tmp_path))
    assert rc == 0
    payload = strict_json(out / "fluxes.json")
    for key in (
        "energy_flux_l", "charge_flux_l", "entropy_flux",
        "quadrature_error_estimate", "evaluations", "no_open_channel",
    ):
        assert key in payload
    assert payload["entropy_flux"] > 0.0
    assert not payload["no_open_channel"]
    manifest = payload["manifest"]
    assert manifest["command"] == "fluxes"
    assert manifest["config"]["sample"]["length"] == 10
    assert "timestamp" in manifest


def test_fluxes_tolerance_is_relative_for_large_fluxes(tmp_path):
    # The entropy flux here is about 2e49: an absolute tolerance of 1e-8
    # cannot be met, the relative one is met after a few thousand nodes.
    potential = {"type": "almost_mathieu", "coupling": 0.5,
                 "frequency": (math.sqrt(5.0) - 1.0) / 2.0, "phase": 0.0}
    cfg = write_config(
        tmp_path,
        sample={"length": 50, "potential": potential},
        thermo={**BASE["thermo"], "mu_l": -1e50},
        quadrature={"tolerance": 1e-8, "max_evaluations": 30000},
    )
    rc, out = run_cli(tmp_path, "fluxes", cfg)
    assert rc == 0
    payload = strict_json(out / "fluxes.json")
    assert payload["converged"] is True
    assert payload["evaluations"] < 5000
    assert payload["entropy_flux"] > 1e49


def test_fluxes_exits_1_when_not_converged(tmp_path, capsys):
    # Resolving the ~L resonances of this sample to the default tolerance
    # takes about 2800 evaluations; the budget stops the quadrature short.
    potential = {"type": "almost_mathieu", "coupling": 0.5,
                 "frequency": (math.sqrt(5.0) - 1.0) / 2.0, "phase": 0.0}
    cfg = write_config(
        tmp_path,
        sample={"length": 50, "potential": potential},
        quadrature={"max_evaluations": 2000},
    )
    rc, out = run_cli(tmp_path, "fluxes", cfg)
    assert rc == 1
    err = capsys.readouterr().err
    assert "did not converge" in err and "Traceback" not in err
    payload = strict_json(out / "fluxes.json")
    assert payload["converged"] is False
    assert payload["evaluations"] <= 2000
    assert payload["entropy_flux"] > 0.0


# Reservoirs at the edge of float range, where xi = beta (E - mu)
# overflows: beta = 1e308 makes xi_r - xi_l inf where both occupations are
# 0 or 1; mu_l = -1e308 makes xi_l inf while rho_r stays open.
EXTREME = {
    "beta": ({"beta_l": 1e308, "beta_r": 1e308, "mu_l": 0.5, "mu_r": -0.5},
             {"max_evaluations": 3000}),
    "mu": ({"beta_l": 2.0, "beta_r": 1.0, "mu_l": -1e308, "mu_r": -0.5}, {}),
}


@pytest.mark.parametrize("case", sorted(EXTREME))
def test_extreme_reservoirs_end_quickly_and_visibly(tmp_path, capsys, case):
    # A density that is not finite must not reach a CSV or the quadrature
    # unnoticed: sweep-e writes 0 where the occupations are equal and fails
    # the energies whose density is not finite, saying why, and fluxes
    # exits 1 naming the energy or the panel, before it spends its budget
    # on NaN, and records that failure in fluxes.json.
    thermo, quadrature = EXTREME[case]
    cfg = write_config(
        tmp_path, sample={"length": 20, "potential": {"type": "zero"}},
        thermo=thermo, quadrature=quadrature,
        extra={"sweep": {"e_grid": {"min": -1.5, "max": 1.5, "points": 7}}},
    )
    start = time.perf_counter()
    rc, out = run_cli(tmp_path / "e", "sweep-e", cfg)
    assert time.perf_counter() - start < 2.0
    assert rc == 0
    payload = strict_json(out / "sweep_e.json")
    failed, reasons = payload["failed_points"], payload["failed_reasons"]
    assert len(reasons) == len(failed)
    with open(out / "sweep_e.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 7
    if case == "beta":
        assert failed == []
        assert all(math.isfinite(float(v)) for row in rows for v in row.values())
        assert [rows[0]["sigma"], rows[-1]["sigma"]] == ["0", "0"]
    else:
        assert failed == [float(row["E"]) for row in rows]
        assert len(reasons) == 7 and all("not finite" in r for r in reasons)
    capsys.readouterr()
    start = time.perf_counter()
    rc, out = run_cli(tmp_path / "f", "fluxes", cfg)
    assert time.perf_counter() - start < 2.0
    assert rc == 1
    err = capsys.readouterr().err
    assert "not finite" in err and ("E=" in err or "panel" in err)
    assert "Traceback" not in err
    payload = strict_json(out / "fluxes.json")
    assert list(payload) == ["failure", "manifest"]
    assert "not finite" in payload["failure"]
    assert "E=" in payload["failure"] or "panel" in payload["failure"]
    assert err == f"numerical failure: {payload['failure']}\n"
    assert payload["manifest"]["command"] == "fluxes"
    assert sorted(p.name for p in out.iterdir()) == ["fluxes.json"]
    # The L-sweeps at E = 0.3 (and -0.2) on zeros(2000): the envelope check
    # and the equivalence mean stay quiet where sigma nears float range,
    # and a density that is not finite fails the command, naming its energy.
    cfg = write_config(
        tmp_path, name="sweep.json", sample={"length": 2000, "potential": {"type": "zero"}},
        thermo=thermo, extra={"sweep": {"energy": 0.3, "e_grid": [0.3, -0.2]}},
    )
    for command in ("sweep-l", "equivalence"):
        rc, out = run_cli(tmp_path / command, command, cfg)
        err = capsys.readouterr().err
        assert "Warning" not in err
        payload = strict_json(out / f"{command.replace('-', '_')}.json")
        if case == "beta":
            assert (rc, err) == (0, "")
            if command == "equivalence":
                assert payload["counts"] == {"persistent": 2}
                assert 1e307 < payload["mean_sigma_persistent"] < math.inf
        else:
            assert rc == 1
            assert payload["failure"].startswith("densities at E=0.3 are not finite")
            assert err == f"numerical failure: {payload['failure']}\n"


def test_sweep_e_command_deterministic_csv(tmp_path):
    cfg = write_config(tmp_path, extra={"sweep": {"e_grid": [-1.0, 0.0, 1.0]}})
    rc, out = run_cli(tmp_path, "sweep-e", cfg)
    assert rc == 0
    body = (out / "sweep_e.csv").read_text()
    lines = body.splitlines()
    assert lines[0] == "E,transmission,phi_l,j_l,sigma,unitarity_residual"
    assert len(lines) == 4
    rc2, out2 = run_cli(tmp_path / "again", "sweep-e", cfg)
    assert (out2 / "sweep_e.csv").read_text() == body


def test_sweep_e_rows_independent_of_batch(tmp_path):
    # Each energy's row must not depend on which other energies share its
    # run, also on a grid longer than the transfer sweep's chunk of
    # energies, split away from the chunk boundary.
    long_grid = np.linspace(-1.9, 1.9, transfer.CHUNK + 300).tolist()
    for sample, grid, split in (
        (BASE["sample"], np.linspace(-1.5, 1.5, 9).tolist(), 4),
        (ANDERSON, long_grid, transfer.CHUNK + 100),
    ):
        bodies = []
        for name, part in (("all", grid), ("head", grid[:split]), ("tail", grid[split:])):
            cfg = write_config(tmp_path, sample=sample, extra={"sweep": {"e_grid": part}}, name=f"{name}.json")
            rc, out = run_cli(tmp_path / name, "sweep-e", cfg)
            assert rc == 0
            bodies.append((out / "sweep_e.csv").read_text().splitlines()[1:])
        assert len(bodies[0]) == len(grid)
        assert bodies[0] == bodies[1] + bodies[2]
    # An empty grid runs no transfer sweep: no rows, and nothing failed.
    cfg = write_config(tmp_path, extra={"sweep": {"e_grid": [], "l_checkpoints": SWEEP_L}}, name="empty.json")
    for command, name, empty in (
        ("sweep-e", "sweep_e", {"points": 0, "failed_points": []}),
        ("equivalence", "equivalence", {"counts": {}, "contradictions": 0}),
    ):
        rc, out = run_cli(tmp_path / name, command, cfg)
        assert rc == 0
        payload = strict_json(out / f"{name}.json")
        assert {key: payload[key] for key in empty} == empty
        assert len((out / f"{name}.csv").read_text().splitlines()) == 1


@pytest.mark.parametrize(
    "potential",
    [{"type": "periodic", "cell": [1.0, 0.0]}, {"type": "anderson", "amplitude": 2.0, "seed": 7}],
    ids=["period-2", "anderson-underflow"],
)
def test_equivalence_rows_independent_of_batch(tmp_path, potential):
    # The classifier runs on the whole energies x checkpoints table at once;
    # each energy's row must not depend on which other energies share it.
    grid = np.linspace(-1.5, 1.5, 9).tolist()
    sample = {"length": 10, "potential": potential}
    bodies = []
    for name, part in (("all", grid), ("head", grid[:4]), ("tail", grid[4:])):
        cfg = write_config(tmp_path, sample=sample, extra={"sweep": {"e_grid": part}}, name=f"{name}.json")
        rc, out = run_cli(tmp_path / name, "equivalence", cfg)
        assert rc == 0
        bodies.append((out / "equivalence.csv").read_text().splitlines()[1:])
    assert len(bodies[0]) == 9
    assert bodies[0] == bodies[1] + bodies[2]
    if potential["type"] == "anderson":
        # Rows whose sigma underflowed at L_max, fitted on their alive points.
        rows = list(csv.reader(bodies[0]))
        assert any(float(r[4]) == 0.0 and math.isfinite(float(r[3])) for r in rows)


def test_sweep_e_rejects_out_of_window_grid(tmp_path):
    cfg = write_config(tmp_path, extra={"sweep": {"e_grid": [0.0, 2.5]}})
    rc, _ = run_cli(tmp_path, "sweep-e", cfg)
    assert rc == 2


def test_sweep_l_command(tmp_path):
    cfg = write_config(tmp_path, extra={"sweep": {"energy": 0.5, "l_checkpoints": SWEEP_L}})
    rc, out = run_cli(tmp_path, "sweep-l", cfg)
    assert rc == 0
    lines = (out / "sweep_l.csv").read_text().splitlines()
    assert lines[0] == "L,sigma_density,transmission,log_transfer_norm,resonance_flag"
    assert len(lines) == 9
    payload = strict_json(out / "sweep_l.json")
    assert payload["classification"] == "persistent"
    assert payload["l_max"] == 251
    run = parse_config(cfg)
    points = l_sweep(SampleSpec(generate(Zero(), SWEEP_L[-1])), 0.5, run.lead_l, run.lead_r, run.thermo, SWEEP_L)
    residual = max(p.unitarity_residual for p in points)
    assert payload["manifest"]["max_unitarity_residual"] == residual > 0.0


def test_sweep_l_json_matches_the_equivalence_rows(tmp_path):
    # sweep_l.json holds every field of the classification, contradiction
    # included: on the free chain E = -1.5 (where sigma is 0, so its slope
    # is -inf, written as null) reads vanishing against bounded norms, and
    # E = 0.5 persistent. At both, sweep-l gives the label, the slopes and
    # the contradiction of the equivalence row at that energy.
    energies = [-1.5, 0.5]
    cfg = write_config(tmp_path, extra={"sweep": {"e_grid": energies, "l_checkpoints": SWEEP_L}})
    rc, out = run_cli(tmp_path / "eq", "equivalence", cfg)
    assert rc == 0
    rows = list(csv.DictReader((out / "equivalence.csv").read_text().splitlines()))
    assert [(r["label"], r["contradiction"]) for r in rows] == [("vanishing", "1"), ("persistent", "0")]
    for E, row in zip(energies, rows):
        sweep = {"energy": E, "l_checkpoints": SWEEP_L}
        rc, out = run_cli(tmp_path / str(E), "sweep-l", write_config(tmp_path, extra={"sweep": sweep}))
        assert rc == 0
        payload = strict_json(out / "sweep_l.json")
        assert payload["classification"] == row["label"]
        for key in ("norm_slope", "sigma_slope"):
            value = float(row[key])
            assert payload[key] == (value if math.isfinite(value) else None), key
        assert payload["contradiction"] is (row["contradiction"] == "1")


def test_manifest_records_the_potential_seed(tmp_path):
    # manifest["seeds"] maps the potential's type to the seed it ran with:
    # the configured one or the override; a potential without a seed has none.
    sweep = {"sweep": {"e_grid": [0.5]}}
    anderson = write_config(tmp_path, name="anderson.json", sample=ANDERSON, extra=sweep)
    for name, cfg, extra_args, seeds in (
        ("configured", anderson, (), {"anderson": 7}),
        ("override", anderson, ("--seed-override", "3"), {"anderson": 3}),
        ("zero", write_config(tmp_path, extra=sweep), (), {}),
    ):
        rc, out = run_cli(tmp_path / name, "sweep-e", cfg, *extra_args)
        assert rc == 0
        assert strict_json(out / "sweep_e.json")["manifest"]["seeds"] == seeds


def test_cli_import_leaves_the_validate_oracles_out():
    # The independent routes of ebb.validate are oracles: only `ebb validate`
    # loads them, never a run's import of the CLI.
    code = "import sys, ebb.cli; print('ebb.validate' in sys.modules)"
    src = os.path.dirname(os.path.dirname(ebb.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


def test_strong_barrier_sample_is_not_ill_conditioned(tmp_path):
    # A constant potential of 1e300 is a barrier: the coupled system has
    # kappa_inf ~ 1, so every command must run it, not reject it as
    # ill-conditioned. The transfer norm grows by ln(1e300) per site.
    barrier = {"length": 1280, "potential": {"type": "constant", "value": 1e300}}
    cps = [10, 20, 40, 80, 160, 320, 640, 1280]
    cfg = write_config(tmp_path, sample=barrier, extra={"sweep": {"energy": 0.5, "l_checkpoints": cps}})
    rc, out = run_cli(tmp_path / "l", "sweep-l", cfg)
    assert rc == 0
    payload = strict_json(out / "sweep_l.json")
    assert payload["classification"] == "vanishing"
    assert payload["norm_slope"] == pytest.approx(math.log(1e300), rel=1e-12, abs=0)
    cfg = write_config(
        tmp_path, name="e.json", sample={**barrier, "length": 100},
        extra={"sweep": {"e_grid": {"min": -1.9, "max": 1.9, "points": 50}}},
    )
    rc, out = run_cli(tmp_path / "e", "sweep-e", cfg)
    assert rc == 0
    assert strict_json(out / "sweep_e.json")["failed_points"] == []
    rc, out = run_cli(tmp_path / "f", "fluxes", cfg)
    assert rc == 0
    assert strict_json(out / "fluxes.json")["converged"]


@pytest.mark.parametrize("sites, impurity", [((5,), 1e12), ((5,), 1e100), ((2, 7), 1e10)])
def test_strong_impurity_is_not_ill_conditioned(tmp_path, sites, impurity):
    # zeros(11) with v_5 = 1e12 or 1e100, or v_2 = v_7 = 1e10, is a high,
    # well-separated barrier, not an ill-conditioned system: every command
    # runs it, and tau at E = 0.3 is 4 Im F_l Im F_r / |det A|^2 (3.91e-24
    # at v_5 = 1e12), with det A from continuants in 80 digits. Read from
    # the e_L column at site 0, tau at v_2 = v_7 = 1e10 was off by 5.5e-7.
    pot = np.zeros(11)
    pot[list(sites)] = impurity
    (tmp_path / "pot.txt").write_text("\n".join(map(repr, pot.tolist())))
    cfg = write_config(
        tmp_path, sample={"length": 10, "potential": {"type": "file", "path": "pot.txt"}},
        extra={"sweep": {"energy": 0.3, "l_checkpoints": [1, 2, 3, 4, 5, 6, 8, 10], "e_grid": [-0.5, 0.3]}},
    )
    F = weiss_boundary(parse_config(cfg).lead_l, 0.3)
    with mpmath.workdps(80):
        diag = [mpmath.mpc(v - 0.3) for v in pot]
        diag[0] -= F
        diag[10] -= F
        tau = float(4 * F.imag * F.imag / abs(continuants(diag)[-1]) ** 2)
    if sites == (5,) and impurity == 1e12:
        assert abs(tau - 3.91e-24) <= 1e-3 * tau
    rc, out = run_cli(tmp_path / "f", "fluxes", cfg)
    assert rc == 0
    rc, out = run_cli(tmp_path / "l", "sweep-l", cfg)
    assert rc == 0
    (_, _, transmission, *_) = list(csv.reader((out / "sweep_l.csv").read_text().splitlines()))[-1]
    assert abs(float(transmission) - tau) <= 1e-13 * tau
    rc, out = run_cli(tmp_path / "e", "sweep-e", cfg)
    assert rc == 0
    assert strict_json(out / "sweep_e.json")["failed_points"] == []
    (_, transmission, *_) = list(csv.reader((out / "sweep_e.csv").read_text().splitlines()))[-1]
    assert abs(float(transmission) - tau) <= 1e-13 * tau


def test_ill_conditioned_energy_fails_alone(tmp_path):
    # Couplings of 1e-7 leave zeros(11)'s Dirichlet resonance at E = -1
    # nearly undamped: the condition estimate of the block read from T_10
    # exceeds CONDITION_LIMIT (the oracle solve's reads 9.97e13), and
    # sweep-e fails that energy, saying why, and reads the next one.
    lead = {"type": "semi_infinite", "hopping": 1.0, "coupling": 1e-7}
    cfg = write_config(tmp_path, lead_l=lead, lead_r=lead, extra={"sweep": {"e_grid": [-1.0, 0.3]}})
    rc, out = run_cli(tmp_path, "sweep-e", cfg)
    assert rc == 0
    payload = strict_json(out / "sweep_e.json")
    assert payload["failed_points"] == [-1.0]
    assert payload["failed_reasons"] == ["coupled system ill-conditioned (condition estimate 1.00e+14)"]
    rows = list(csv.DictReader((out / "sweep_e.csv").read_text().splitlines()))
    assert [float(row["E"]) for row in rows] == [-1.0, 0.3]
    assert [rows[0][k] for k in ("transmission", "phi_l", "j_l", "sigma", "unitarity_residual")] == ["nan"] * 5
    F = weiss_boundary(parse_config(cfg).lead_l, 0.3)
    with mpmath.workdps(80):
        diag = [mpmath.mpc(-0.3)] * 11
        diag[0] -= F
        diag[10] -= F
        tau = float(4 * F.imag * F.imag / abs(continuants(diag)[-1]) ** 2)
    assert abs(float(rows[1]["transmission"]) - tau) <= 1e-13 * tau


def test_ill_conditioned_l_sweep_exits_1(tmp_path, capsys):
    # The L-sweep reads its Green blocks from the transfer products, and the
    # same condition check follows: with couplings of 1e-7, sites 0..1 of
    # zeros(11) have a nearly undamped resonance at E = -1, whose boundary
    # estimate reads 1.00e14 (the oracle solve's reads 9.97e13), and sweep-l exits
    # 1 saying why, without a traceback.
    lead = {"type": "semi_infinite", "hopping": 1.0, "coupling": 1e-7}
    sweep = {"energy": -1.0, "l_checkpoints": [1, 2, 3, 4, 5, 6, 8, 10]}
    cfg = write_config(tmp_path, lead_l=lead, lead_r=lead, extra={"sweep": sweep})
    rc, out = run_cli(tmp_path, "sweep-l", cfg)
    assert rc == 1
    reason = "coupled system ill-conditioned (condition estimate 1.00e+14)"
    assert capsys.readouterr().err == f"numerical failure: {reason}\n"
    assert strict_json(out / "sweep_l.json")["failure"] == reason


def test_failed_run_removes_an_earlier_csv(tmp_path):
    # A run that raised writes no CSV; one left in --out by an earlier good
    # run would sit beside the failure as if it were this run's rows.
    good = write_config(tmp_path, name="good.json", extra={"sweep": {"energy": 0.5, "l_checkpoints": SWEEP_L}})
    rc, out = run_cli(tmp_path, "sweep-l", good)
    assert rc == 0 and (out / "sweep_l.csv").exists()
    lead = {"type": "semi_infinite", "hopping": 1.0, "coupling": 1e-7}
    sweep = {"energy": -1.0, "l_checkpoints": [1, 2, 3, 4, 5, 6, 8, 10]}
    bad = write_config(tmp_path, name="bad.json", lead_l=lead, lead_r=lead, extra={"sweep": sweep})
    rc, out = run_cli(tmp_path, "sweep-l", bad)
    assert rc == 1
    assert "failure" in strict_json(out / "sweep_l.json")
    assert not (out / "sweep_l.csv").exists()


def test_sweep_l_requires_energy(tmp_path):
    rc, _ = run_cli(tmp_path, "sweep-l", write_config(tmp_path))
    assert rc == 2


def test_equivalence_command(tmp_path):
    cfg = write_config(
        tmp_path,
        sample={
            "length": 10,
            "potential": {"type": "anderson", "amplitude": 2.0, "seed": 7},
        },
        extra={
            "sweep": {
                "e_grid": [-0.5, 0.5],
                "l_checkpoints": SWEEP_L,
            }
        },
    )
    rc, out = run_cli(tmp_path, "equivalence", cfg)
    assert rc == 0
    payload = strict_json(out / "equivalence.json")
    assert payload["counts"] == {"vanishing": 2}
    assert payload["mean_sigma_persistent"] is None
    assert payload["contradictions"] == 0
    lines = (out / "equivalence.csv").read_text().splitlines()
    assert lines[0] == "E,label,norm_slope,sigma_slope,sigma_at_l_max,contradiction"
    assert len(lines) == 3


@pytest.mark.parametrize("e_grid", [[-1.5, 0.2, 0.5], [0.2, 0.5]])
def test_equivalence_summary_matches_rows(tmp_path, e_grid):
    # The free sample persists at 0.2 and 0.5. At -1.5 the two Fermi factors
    # cross, sigma vanishes identically under bounded norms: a vanishing
    # label that contradicts them. Without -1.5 no energy is vanishing.
    cfg = write_config(tmp_path, extra={"sweep": {"e_grid": e_grid, "l_checkpoints": SWEEP_L}})
    rc, out = run_cli(tmp_path, "equivalence", cfg)
    assert rc == 0
    payload = strict_json(out / "equivalence.json")
    rows = list(csv.DictReader((out / "equivalence.csv").read_text().splitlines()))
    labels = [r["label"] for r in rows]
    # counts tallies the label column, in order of first appearance.
    assert list(payload["counts"].items()) == list(Counter(labels).items())
    assert payload["contradictions"] == sum(r["contradiction"] == "1" for r in rows)
    assert payload["contradictions"] == (-1.5 in e_grid)
    for label in ("persistent", "vanishing"):
        sigmas = [float(r["sigma_at_l_max"]) for r in rows if r["label"] == label]
        # A label no energy received has a null mean.
        expected = float(np.mean(sigmas)) if sigmas else None
        assert payload[f"mean_sigma_{label}"] == expected
    assert (payload["mean_sigma_vanishing"] is None) == (-1.5 not in e_grid)
    assert payload["l_max"] == SWEEP_L[-1]


def test_equivalence_generates_potential_once(tmp_path, monkeypatch):
    # One file read, at the sweep's longest checkpoint, however many
    # energies there are; the config reads no potential values.
    (tmp_path / "pot.txt").write_text("\n".join(["0.3", "-0.2", "0.1"] * 100))
    reads, loadtxt = [], np.loadtxt

    def counting_loadtxt(*args, **kwargs):
        reads.append(args[0])
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", counting_loadtxt)
    cfg = write_config(
        tmp_path,
        sample={"length": 10, "potential": {"type": "file", "path": "pot.txt"}},
        extra={"sweep": {"e_grid": [-1.0, -0.5, 0.0, 0.5, 1.0], "l_checkpoints": SWEEP_L}},
    )
    rc, out = run_cli(tmp_path, "equivalence", cfg)
    assert rc == 0
    assert len((out / "equivalence.csv").read_text().splitlines()) == 6
    assert len(reads) == 1


@pytest.mark.parametrize("command", ["sweep-l", "equivalence"])
def test_l_sweep_commands_build_one_sample(tmp_path, monkeypatch, command):
    # The command's one validated sample is the one every layer solves on.
    builds, init = [], SampleSpec.__init__

    def counting_init(self, potential):
        builds.append(len(potential))
        init(self, potential)

    monkeypatch.setattr(SampleSpec, "__init__", counting_init)
    sweep = {"energy": 0.5} if command == "sweep-l" else {"e_grid": [-0.5, 0.5]}
    cfg = write_config(tmp_path, extra={"sweep": {**sweep, "l_checkpoints": SWEEP_L}})
    rc, _ = run_cli(tmp_path, command, cfg)
    assert rc == 0
    assert builds == [SWEEP_L[-1] + 1]


@pytest.mark.parametrize("command", ["sweep-e", "validate"])
@pytest.mark.parametrize("under", [False, True])
def test_unusable_out_exits_2(tmp_path, capsys, command, under):
    # --out naming a file, or a path under one, is a configuration error:
    # exit 2 before anything is computed, with no traceback.
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    out = str(afile / "sub" if under else afile)
    args = [command, "--out", out]
    if command != "validate":
        args += ["--config", write_config(tmp_path, extra={"sweep": {"e_grid": [0.5]}})]
    rc = main(args)
    assert rc == 2
    captured = capsys.readouterr()
    assert "configuration error: --out" in captured.err and "Traceback" not in captured.err
    assert captured.out == "" and afile.read_text() == "kept\n"


@pytest.mark.parametrize("blocked", ["sweep_e.csv", "sweep_e.json"])
def test_write_error_exits_2_and_leaves_no_lone_file(tmp_path, capsys, blocked):
    # An OSError while writing (here an output path that is a directory) is
    # a configuration error under --out: exit 2 with no traceback, and no
    # CSV is left without its JSON.
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    cfg = write_config(tmp_path, extra={"sweep": {"e_grid": [0.0, 0.5]}})
    assert main(["sweep-e", "--config", cfg, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("configuration error: --out: ")
    assert "Traceback" not in captured.err
    assert [p.name for p in out.iterdir()] == [blocked] and (out / blocked).is_dir()


def test_validate_command(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["validate", "--out", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "[PASS]" in printed and "[FAIL]" not in printed
    payload = strict_json(out / "validate.json")
    assert payload["all_passed"]
    assert len(payload["checks"]) == 7
    assert payload["manifest"]["max_unitarity_residual"] > 0.0
    assert payload["manifest"]["config"] is None


def test_validate_route_failure_fails_only_its_check(tmp_path, capsys, monkeypatch):
    # A NumericalFailure from one Green route at one kept point fails that
    # route's check, with the point in its detail and value inf; the other
    # six checks still run and pass.
    from ebb import validate

    junction, calls = validate.coupled_green, []

    def junction_failing_once(G0, se):
        calls.append(G0)
        if len(calls) == 3:
            raise NumericalFailure("injected")
        return junction(G0, se)

    monkeypatch.setattr(validate, "coupled_green", junction_failing_once)
    result = validate.check_coupled_green_equivalence()
    assert (result.passed, result.value) == (False, math.inf)
    assert result.detail.startswith("E=") and ", L=" in result.detail
    assert result.detail.endswith(": injected")
    calls.clear()
    assert main(["validate", "--out", str(tmp_path)]) == 1
    printed = capsys.readouterr().out.splitlines()
    assert printed == [line for line in printed if line.startswith(("[PASS] ", "[FAIL] "))]
    assert [line for line in printed if line.startswith("[FAIL]")] == [
        f"[FAIL] coupled-green-equivalence: {result.detail}"
    ]
    payload = strict_json(tmp_path / "validate.json")
    assert len(payload["checks"]) == 7
    assert payload["failure"] == "checks failed: coupled-green-equivalence"


# Each command's CSV header (None: no CSV) and JSON top-level keys, in order.
OUTPUT_LAYOUTS = {
    "fluxes": (
        {},
        None,
        ["energy_flux_l", "charge_flux_l", "entropy_flux", "quadrature_error_estimate",
         "evaluations", "panels_at_width_floor", "panels_at_rounding_floor",
         "no_open_channel", "energy_flux_r", "charge_flux_r", "converged", "manifest"],
    ),
    "sweep-e": (
        {"sweep": {"e_grid": [-1.0, 0.0, 1.0]}},
        "E,transmission,phi_l,j_l,sigma,unitarity_residual",
        ["points", "failed_points", "failed_reasons", "manifest"],
    ),
    "sweep-l": (
        {"sweep": {"energy": 0.5, "l_checkpoints": SWEEP_L}},
        "L,sigma_density,transmission,log_transfer_norm,resonance_flag",
        ["classification", "norm_slope", "norm_r2", "sigma_slope", "sigma_r2", "l_max",
         "sigma_underflowed", "contradiction", "manifest"],
    ),
    "equivalence": (
        {"sweep": {"e_grid": [-0.5, 0.5], "l_checkpoints": SWEEP_L}},
        "E,label,norm_slope,sigma_slope,sigma_at_l_max,contradiction",
        ["counts", "contradictions", "mean_sigma_persistent", "mean_sigma_vanishing", "l_max",
         "manifest"],
    ),
}
MANIFEST_KEYS = [
    "tool_version", "command", "config", "seeds", "seed_override", "timestamp",
    "max_unitarity_residual",
]


@pytest.mark.parametrize("command", sorted(OUTPUT_LAYOUTS))
def test_output_layout(tmp_path, command):
    extra, header, keys = OUTPUT_LAYOUTS[command]
    rc, out = run_cli(tmp_path, command, write_config(tmp_path, extra=extra))
    assert rc == 0
    stem = command.replace("-", "_")
    csvs = sorted(p.name for p in out.glob("*.csv"))
    if header is None:
        assert csvs == []
    else:
        assert csvs == [f"{stem}.csv"]
        assert (out / f"{stem}.csv").read_text().splitlines()[0] == header
    payload = strict_json(out / f"{stem}.json")
    assert list(payload) == keys
    assert list(payload["manifest"]) == MANIFEST_KEYS


def _fmt_oracle(x) -> str:
    """The per-value type dispatch the CSV writer's printf specs replace."""
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, (int, str)):
        return str(x)
    return format(x, ".17g")


def test_csv_printf_specs_match_per_value_formatting(tmp_path):
    # Every value a float column can hold, and the ints, bools and labels
    # of the others: one printf spec per column gives the same bytes as
    # format(x, ".17g") and the per-value rules for ints, bools and labels.
    floats = [
        math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1.0 / 3.0,
        -1.99, 1e17, 123456789012345678.0, 1.7976931348623157e308, np.float64(0.1),
        np.float64(-math.nan), 2.0**-1074 * 3,
    ]
    n = len(floats)
    rows = {
        "sweep-e": [
            EnergyPoint(*(floats[(i + k) % n] for k in range(6))) for i in range(n)
        ] + [EnergyPoint(0.5, math.nan, math.nan, math.nan, math.nan, math.nan, "failed")],
        "sweep-l": [
            LSweepPoint(L, floats[i % n], floats[(i + 3) % n], floats[(i + 7) % n], flag)
            for i, (L, flag) in enumerate([(1, True), (10, False), (2000, True), (10**6, False)] * 4)
        ],
        "equivalence": [
            EquivalenceRow(floats[i], label, floats[(i + 1) % n], floats[(i + 2) % n],
                           floats[(i + 5) % n], flag, 0.0)
            for i, (label, flag) in enumerate(
                [("persistent", False), ("vanishing", True), ("indeterminate", False)] * 5
            )
        ],
    }
    args = argparse.Namespace(out=str(tmp_path), seed_override=None)
    for command, table in rows.items():
        names = list(cli._CSV_COLUMNS[command])
        cli._write_outputs(command, None, args, {}, table, 0.0)
        expected = ",".join(names) + "\n" + "".join(
            ",".join(_fmt_oracle(getattr(row, name)) for name in names) + "\n" for row in table
        )
        path = tmp_path / (command.replace("-", "_") + ".csv")
        assert path.read_bytes() == expected.encode()
    for x in floats:
        assert "%.17g" % x == format(x, ".17g")


def test_config_required_except_for_validate(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["fluxes", "--out", str(tmp_path / "out")])
    assert exc.value.code == 2


def test_bad_config_exit_code(tmp_path):
    missing = str(tmp_path / "nope.json")
    out = tmp_path / "out"
    assert main(["fluxes", "--config", missing, "--out", str(out)]) == 2


# -- robustness: every bad config exits 2 naming its key path ----------------

BAD_CONFIGS = {
    "nan-edge-margin": ("fluxes", {"quadrature": {"edge_margin": math.nan}}, "quadrature.edge_margin: must be finite"),
    "nan-amplitude": (
        "fluxes",
        {"sample": {"length": 10, "potential": {"type": "anderson", "amplitude": math.nan, "seed": 7}}},
        "sample.potential.amplitude: must be finite",
    ),
    "non-numeric-e-grid": ("sweep-e", {"sweep": {"e_grid": [0.1, "x"]}}, "sweep.e_grid[1]"),
    "missing-potential-file": (
        "fluxes", {"sample": {"length": 10, "potential": {"type": "file", "path": "nope.txt"}}},
        "sample.potential",
    ),
    "missing-lead-table": ("fluxes", {"lead_l": {"type": "tabulated", "path": "nope.csv"}}, "lead_l"),
    "max-evaluations-below-one-panel": (
        "fluxes", {"quadrature": {"max_evaluations": 14}}, "quadrature.max_evaluations",
    ),
    # 65 initial panels of width at most pi/51 cover the band.
    "max-evaluations-below-initial-panels": (
        "fluxes",
        {
            "sample": {
                "length": 50,
                "potential": {"type": "almost_mathieu", "coupling": 0.5,
                              "frequency": (math.sqrt(5.0) - 1.0) / 2.0, "phase": 0.0},
            },
            "quadrature": {"max_evaluations": 15},
        },
        "quadrature.max_evaluations: the initial panels need 975 evaluations, more than 15",
    ),
    "non-object-sweep": ("fluxes", {"sweep": [1]}, "sweep: expected an object"),
    "non-object-thresholds": (
        "fluxes", {"sweep": {"thresholds": 3}}, "sweep.thresholds: expected an object",
    ),
    "seed-out-of-range": (
        "fluxes",
        {"sample": {"length": 10, "potential": {"type": "anderson", "amplitude": 1.0, "seed": -1}}},
        "sample.potential.seed",
    ),
    "sweep-l-energy-outside-band": (
        "sweep-l", {"sweep": {"energy": 2.5, "l_checkpoints": SWEEP_L}},
        "sweep.energy: E=2.5 is outside the open-channel window",
    ),
    # Two energies outside the window: the earlier one is named.
    "sweep-e-grid-outside-twice": (
        "sweep-e", {"sweep": {"e_grid": [0.5, 2.5, 0.7, -3.0]}},
        "sweep.e_grid: E=2.5 is outside the open-channel window",
    ),
    "too-few-l-checkpoints": (
        "equivalence", {"sweep": {"e_grid": [0.5], "l_checkpoints": [10, 20]}},
        "sweep.l_checkpoints: need at least 8 checkpoints",
    ),
    "huge-lead-coupling": (
        "fluxes", {"lead_l": {"type": "semi_infinite", "coupling": 1e300}}, "lead_l.coupling",
    ),
    "huge-lead-hopping": (
        "sweep-e", {"lead_l": {"type": "semi_infinite", "hopping": 1e200}, "sweep": {"e_grid": [0.5]}},
        "lead_l.hopping",
    ),
    "non-numeric-potential-file": (
        "fluxes", {"sample": {"length": 10, "potential": {"type": "file", "path": "run.json"}}},
        "sample: could not convert",
    ),
    "huge-sample-length": (
        "fluxes", {"sample": {"length": 10**30, "potential": {"type": "zero"}}},
        "sample.length: must be in [1, 10000000]",
    ),
    "huge-l-checkpoint": (
        "sweep-l", {"sweep": {"energy": 0.5, "l_checkpoints": SWEEP_L[:-1] + [10**30]}},
        "sweep.l_checkpoints: must be in [1, 10000000]",
    ),
    "huge-e-grid-points": (
        "sweep-e", {"sweep": {"e_grid": {"min": -1.0, "max": 1.0, "points": MAX_POINTS + 1}}},
        f"sweep.e_grid.points: must be at most {MAX_POINTS}",
    ),
    "tiny-lead-hopping": (
        "fluxes", {"lead_l": {"type": "semi_infinite", "hopping": 1e-200}, "quadrature": {"edge_margin": 0}},
        "lead_l.hopping",
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
def test_bad_config_exits_2_with_key_path(tmp_path, capsys, case):
    command, extra, key_path = BAD_CONFIGS[case]
    rc, _ = run_cli(tmp_path, command, write_config(tmp_path, extra=extra))
    assert rc == 2
    err = capsys.readouterr().err
    assert key_path in err
    assert "Traceback" not in err


def test_potential_file_too_short_for_sweep_exits_2(tmp_path, capsys):
    # Long enough for sample.length, too short for the last checkpoint: the
    # command reads the file at the length it needs.
    (tmp_path / "pot.txt").write_text("0.1\n0.2\n0.3\n")
    cfg = write_config(
        tmp_path,
        sample={"length": 2, "potential": {"type": "file", "path": "pot.txt"}},
        extra={"sweep": {"energy": 0.5, "l_checkpoints": SWEEP_L}},
    )
    rc, _ = run_cli(tmp_path, "sweep-l", cfg)
    assert rc == 2
    err = capsys.readouterr().err
    assert "sample: potential file" in err and "Traceback" not in err


def test_tabulated_lead_echoes_path_opened(tmp_path):
    table = tmp_path / "lead.csv"
    table.write_text("E,re_F,im_F\n-2,0,0\n0,0,1\n2,0,0\n")
    run = parse_config(write_config(tmp_path, extra={"lead_l": {"type": "tabulated", "path": "lead.csv"}}))
    assert run.resolved["lead_l"] == {"type": "tabulated", "path": str(table)}


# -- fuzz: one mutated leaf or key of a valid config --------------------------

FUZZ_BASES = [
    {
        **BASE,
        "sample": ANDERSON,
        "quadrature": {"tolerance": 1e-8, "max_evaluations": 1000, "edge_margin": 1e-6},
        "sweep": {
            "e_grid": {"min": -1.0, "max": 1.0, "points": 5},
            "energy": 0.5,
            "l_checkpoints": SWEEP_L,
            "thresholds": {"persistent_floor": 0.1, "vanishing_r2": 0.8},
        },
    },
    {
        **BASE,
        "sample": {"length": 4, "potential": {"type": "file", "path": "pot.txt"}},
        "lead_l": {"type": "tabulated", "path": "lead.csv"},
        "sweep": {"e_grid": [-0.5, 0.0, 0.5]},
    },
    {**BASE, "sample": {"length": 6, "potential": {"type": "periodic", "cell": [1.0, 0.0]}}},
    {
        **BASE,
        "sample": {
            "length": 6,
            "potential": {"type": "almost_mathieu", "coupling": 0.5, "frequency": 0.6, "phase": 0.0},
        },
    },
    {**BASE, "sample": {"length": 3, "potential": {"type": "constant", "value": 0.5}}},
]

BAD_VALUES = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, True, False, "x", None, [], [1.0], {}, {"a": 1}]),
    st.integers(-10**6, -1),
    st.floats(-1e6, -1e-6),
)


def _key_paths(node, prefix=()):
    """Every dict key and list index below node, as a tuple of keys."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _key_paths(child, prefix + (key,))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "pot.txt").write_text("0.1\n0.2\n0.3\n0.4\n0.5\n")
    (root / "lead.csv").write_text("E,re_F,im_F\n-2,0,0\n0,0,1\n2,0,0\n")
    return root


def _write_mutated(fuzz_dir, data) -> str:
    """A FUZZ_BASES config with one leaf replaced by a BAD_VALUES value or
    one key deleted, written to fuzz_dir; returns its path."""
    cfg = json.loads(json.dumps(data.draw(st.sampled_from(FUZZ_BASES))))
    *parents, key = data.draw(st.sampled_from(list(_key_paths(cfg))))
    node = cfg
    for k in parents:
        node = node[k]
    if data.draw(st.booleans()):
        del node[key]
    else:
        node[key] = data.draw(BAD_VALUES)
    path = fuzz_dir / "run.json"
    path.write_text(json.dumps(cfg))
    return str(path)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data())
def test_parse_config_fuzz_returns_or_raises_config_error(fuzz_dir, data):
    path = _write_mutated(fuzz_dir, data)
    try:
        parse_config(path)
    except ConfigError:
        pass


# `validate` is left out: it reads no config.
@settings(derandomize=True, max_examples=100, deadline=None)
@given(data=st.data())
def test_cli_fuzz_exits_0_1_or_2(fuzz_dir, data):
    command = data.draw(st.sampled_from(["fluxes", "sweep-e", "sweep-l", "equivalence"]))
    path = _write_mutated(fuzz_dir, data)
    assert main([command, "--config", path, "--out", str(fuzz_dir / "out")]) in (0, 1, 2)
