"""The names the benchmark's tracer wraps, the arguments it counts, and
the harness's own tests.

perfbench/spans.py wraps each function of its LAYERS table and reads work
counts from named arguments. A function it cannot find is reported absent
and its coverage check skipped, so a rename would void the per-call gate
without failing anything. These tests read that table, and change nothing
in the harness. perfbench/tests runs the harness end to end on tiny
workloads, with its correctness gate; it runs here in a subprocess, so a
program change that breaks the harness fails the suite. The full-size
seed-0 workloads run in-process against the recorded reference outputs,
so a change the benchmark's correctness gate would reject fails here first.
"""

import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys

import pytest

from ebb import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPANS = os.path.join(ROOT, "perfbench", "spans.py")
WORKLOADS = os.path.join(ROOT, "perfbench", "workloads.py")
# The arguments the tracer's counters read, by span name.
COUNTED = {
    "green.coupled_green_direct": "L",
    "transfer.checkpoint_products": "checkpoints",
    "quadrature.adaptive_gk15": "tol",
}


def _load(name: str, path: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    # Registered first: the module's dataclasses look their module up.
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


LAYERS = _load("perfbench_spans", SPANS).LAYERS
workloads = _load("perfbench_workloads", WORKLOADS)


@pytest.mark.parametrize("span", sorted(LAYERS))
def test_wrapped_binding_resolves_to_a_callable(span):
    module, attr = LAYERS[span]
    assert callable(getattr(importlib.import_module(module), attr, None)), span


@pytest.mark.parametrize("span", sorted(COUNTED))
def test_counted_argument_exists(span):
    module, attr = LAYERS[span]
    fn = getattr(importlib.import_module(module), attr)
    assert COUNTED[span] in inspect.signature(fn).parameters


def test_perfbench_own_tests_pass():
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "perfbench/tests", "-q", "-p", "no:cacheprovider"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert run.returncode == 0, run.stdout[-4000:] + run.stderr[-4000:]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_full_size_workload_passes_the_benchmark_gate(tmp_path, name):
    # The seed-0 config of each benchmark workload, run through the CLI in
    # this process, gated against its recorded reference outputs.
    workload = workloads.WORKLOADS[name](workloads.DEFAULT_SEED)
    reference = workloads.reference_for(workload)
    assert reference is not None, "no reference recorded for this config"
    config = tmp_path / "config.json"
    config.write_text(json.dumps(workload.config))
    assert cli.main([workload.command, "--config", str(config), "--out", str(tmp_path)]) == 0
    assert workloads.check_outputs(workload, str(tmp_path), reference) == 0
    if name == "fluxes-resonant":
        # The gate allows 2 tol, so it would pass a quadrature that does
        # different work; the evaluation count pins the work itself.
        with open(tmp_path / "fluxes.json") as fh:
            assert json.load(fh)["evaluations"] == 31_020
