"""Benchmark of the ebb command line.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload's CLI command, each time in a fresh interpreter, until
about S seconds have passed, and gates every output for correctness. With
--trace 0 it reports the medians of the end-to-end metrics, with times at
nominal host speed (see CALIBRATION_NOMINAL_S); with --trace 1 it adds one
traced call and reports the per-layer metrics. The last line of
standard output is the result object; the line before it is the full report
(quartiles, sample counts, environment), which is also written under
.perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from workloads import CHECKPOINTS, WORKLOADS, check_outputs, reference_for

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
CHILD = os.path.join(HERE, "child.py")

# A run must end within 180 s; no child is left running past this.
RUN_LIMIT_S = 170.0

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# The speed of a shared host can drift by up to 2x over tens of seconds, and
# CPU time drifts with it. The child therefore times fixed calibration loops
# just before and just after the call, and these times are reported at the
# host speed at which the geometric mean of the loop times is
# CALIBRATION_NOMINAL_S (its typical value on the 2-core host the benchmark
# was defined on): CPU time against the loops' CPU time, set-up against the
# loops that follow it, the call against the loops on both sides. The raw
# times stay in the report under raw_<name>.
CALIBRATED = ("wall_s", "cpu_s", "setup_s")
CALIBRATION_NOMINAL_S = 0.11


def calibration_times(before, after) -> dict:
    """Calibration time for each of CALIBRATED, from (wall, CPU) pairs."""
    def mean_time(pairs, clock):
        return statistics.geometric_mean([pair[clock] for pair in pairs])

    return {
        "wall_s": mean_time([*before, *after], 0),
        "cpu_s": mean_time([*before, *after], 1),
        "setup_s": mean_time(before, 0),
    }


# Per-layer metrics read from the traced call's span summary:
# (span name, statistic); "calls" is a count, "s" and "self_s" seconds.
SPAN_METRICS = [
    ("leads.weiss_boundary", "calls"),
    ("leads.weiss_boundary", "self_s"),
    ("green.coupled_green_direct", "calls"),
    ("green.coupled_green_direct", "self_s"),
    ("scattering.t_matrix", "self_s"),
    ("scattering.unitarity_residual", "self_s"),
    ("scattering.transmission", "self_s"),
    ("fluxes.evaluate_point", "calls"),
    ("fluxes.evaluate_point", "self_s"),
    ("fluxes.spectral_densities", "self_s"),
    ("fluxes.integrate_fluxes", "self_s"),
    ("quadrature.adaptive_gk15", "calls"),
    ("quadrature.adaptive_gk15", "self_s"),
    ("transfer.checkpoint_products", "calls"),
    ("transfer.checkpoint_products", "self_s"),
    ("scan.l_sweep", "self_s"),
    ("scan.classify_transport", "self_s"),
    ("scan.energy_sweep", "self_s"),
    ("scan.equivalence_rows", "self_s"),
    ("potentials.generate", "calls"),
    ("potentials.generate", "s"),
    ("config.parse_config", "s"),
    ("cli", "self_s"),
]
# Counters taken from layer arguments and results: name -> unit.
COUNTER_METRICS = {
    "green.sites": "count",
    "transfer.sites": "count",
    "quadrature.evaluations": "count",
    "quadrature.err_over_tol": "ratio",
}


def per_layer_units() -> dict:
    units = {
        f"{span}.{stat}": "count" if stat == "calls" else "s"
        for span, stat in SPAN_METRICS
    }
    units.update(COUNTER_METRICS)
    units["trace.overhead_s"] = "s"
    return units


def _now() -> float:
    # Shared by parent and child, so set-up is timed from the spawn.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class HarnessError(Exception):
    """The benchmark itself cannot go on; no result is printed."""


def run_child(workload, config_path, work_dir, reference, timeout, spans_path=None):
    """One CLI call in a fresh interpreter; its costs and failed operations."""
    out_dir = tempfile.mkdtemp(dir=work_dir)
    result_path = out_dir + ".json"
    argv = [sys.executable, CHILD, SRC, workload.command, config_path, out_dir, result_path]
    if spans_path:
        argv.append(spans_path)
    env = dict(os.environ, PYTHONPATH=SRC)
    spawn = _now()
    try:
        proc = subprocess.run(
            argv, env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        raise HarnessError(f"{workload.command} ran longer than {timeout:.0f} s")
    if proc.returncode == 3:
        raise HarnessError(proc.stderr.strip())
    sample = {"exit_code": proc.returncode, "failed": workload.operations}
    if proc.returncode != 0 or not os.path.exists(result_path):
        sys.stderr.write(proc.stderr[-2000:])
    else:
        with open(result_path) as fh:
            sample.update(json.load(fh))
        sample["setup_s"] = sample.pop("ready") - spawn
        calibration = calibration_times(*sample.pop("calibration"))
        sample["calibration_s"] = calibration["wall_s"]
        sample["calibration_cpu_s"] = calibration["cpu_s"]
        for key in CALIBRATED:
            sample["raw_" + key] = sample[key]
            sample[key] *= CALIBRATION_NOMINAL_S / calibration[key]
        sample["failed"] = check_outputs(workload, out_dir, reference)
        output = os.path.join(out_dir, workload.output)
        if os.path.exists(output):
            with open(output) as fh:
                sample["output"] = json.load(fh)
    shutil.rmtree(out_dir)
    return sample


def measure(workload, seconds, trace, work_dir, spans_path):
    """Timed calls for about `seconds`, then one traced call if asked."""
    config_path = os.path.join(work_dir, "config.json")
    with open(config_path, "w") as fh:
        json.dump(workload.config, fh)
    reference = reference_for(workload)

    start = _now()
    deadline = start + seconds
    samples, durations = [], []
    while True:
        began = _now()
        samples.append(run_child(
            workload, config_path, work_dir, reference, RUN_LIMIT_S - (began - start)
        ))
        durations.append(_now() - began)
        if _now() + statistics.median(durations) > deadline:
            break
    traced = None
    if trace:
        traced = run_child(
            workload, config_path, work_dir, reference,
            RUN_LIMIT_S - (_now() - start), spans_path,
        )
    return samples, traced, reference is not None


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


REPORTED = (
    list(END_TO_END) + ["raw_" + k for k in CALIBRATED] + ["calibration_s", "calibration_cpu_s"]
)


def end_to_end(samples):
    timed = [s for s in samples if "wall_s" in s]
    report = {}
    for name in REPORTED:
        values = [s[name] for s in timed]
        if values:
            q1, med, q3 = _quartiles(values)
            report[name] = {
                "median": med, "q1": q1, "q3": q3,
                "min": min(values), "max": max(values), "n": len(values),
            }
    return report


def per_layer(traced, untraced_wall):
    """Per-layer values from the traced call; absent layers are left out."""
    values = {
        f"{span}.{stat}": traced["spans"][span][stat]
        for span, stat in SPAN_METRICS
        if span in traced["spans"]
    }
    values.update(traced["counters"])
    values["trace.overhead_s"] = traced["wall_s"] - untraced_wall
    return values


def coverage(workload, traced) -> list:
    """Problems that show a wrapper missed calls it should have seen."""
    calls = {k: v["calls"] for k, v in traced["spans"].items()}
    out = traced["output"]
    expected = {}
    if workload.command == "fluxes":
        expected["fluxes.evaluate_point"] = out["evaluations"]
        expected["quadrature.adaptive_gk15"] = 1
    elif workload.command == "sweep-e":
        expected["fluxes.evaluate_point"] = out["points"]
        expected["quadrature.adaptive_gk15"] = 0
        expected["transfer.checkpoint_products"] = 0
    else:
        expected["transfer.checkpoint_products"] = workload.operations
        expected["green.coupled_green_direct"] = len(CHECKPOINTS) * workload.operations
        expected["quadrature.adaptive_gk15"] = 0
    return [
        f"{span}: {calls.get(span, 0)} calls, expected {n}"
        for span, n in expected.items()
        if span not in traced["absent"] and calls.get(span, 0) != n
    ]


def environment(seed, samples) -> dict:
    blas_env = {
        k: v for k, v in os.environ.items()
        if k.endswith("_NUM_THREADS") or k == "VECLIB_MAXIMUM_THREADS"
    }
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "blas": next((s["blas"] for s in samples if s.get("blas")), None),
        "blas_thread_env": blas_env,
        "machine": platform.machine(),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def benchmark(workload, seed, seconds, trace) -> tuple:
    """Run, gate and summarize; returns (report, result line)."""
    os.makedirs(OUT, exist_ok=True)
    tag = f"{workload.name}-seed{seed}-trace{trace}"
    with tempfile.TemporaryDirectory(dir=OUT) as work_dir:
        samples, traced, referenced = measure(
            workload, seconds, trace, work_dir, os.path.join(OUT, f"{tag}-spans.npz")
        )
    children = samples + ([traced] if traced else [])
    attempted = workload.operations * len(children)
    failed = sum(s["failed"] for s in children)
    e2e = end_to_end(samples)
    problems = []
    if failed:
        problems.append(f"{failed} of {attempted} operations failed the gate")
    if not e2e:
        problems.append("no call completed")
    report = {
        "workload": workload.name,
        "command": workload.command,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(seed, children),
        "reference_checked": referenced,
        "exit_codes": [s["exit_code"] for s in children],
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "end_to_end": e2e,
        "samples": [{k: s.get(k) for k in REPORTED} for s in samples],
    }
    if trace:
        if "spans" in traced and "output" in traced:
            report["per_layer"] = per_layer(traced, e2e["wall_s"]["median"] if e2e else 0.0)
            report["absent"] = traced["absent"]
            report["coverage_problems"] = coverage(workload, traced)
            problems += report["coverage_problems"]
        else:
            problems.append("the traced call failed")
    report["problems"] = problems
    with open(os.path.join(OUT, f"{tag}.json"), "w") as fh:
        json.dump(report, fh, indent=2)

    if trace:
        units = per_layer_units()
        metrics = {
            k: {"value": v, "unit": units[k]} for k, v in report.get("per_layer", {}).items()
        }
    else:
        metrics = {k: {"value": e2e[k]["median"], "unit": u} for k, u in END_TO_END.items() if k in e2e}
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return report, result


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ebb", "cli.py")):
        print(f"perfbench: no ebb sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    try:
        report, result = benchmark(workload, args.seed, args.seconds, args.trace)
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
