"""The names the benchmark's tracer wraps, the arguments it counts, and
the harness's own tests.

perfbench/spans.py wraps each function of its LAYERS table and reads work
counts from named arguments. A function it cannot find is reported absent
and its coverage check skipped, so a rename would void the per-call gate
without failing anything. These tests read that table, and change nothing
in the harness. perfbench/tests runs the harness end to end on tiny
workloads, with its correctness gate; it runs here in a subprocess, so a
program change that breaks the harness fails the suite.
"""

import importlib
import importlib.util
import inspect
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPANS = os.path.join(ROOT, "perfbench", "spans.py")
# The arguments the tracer's counters read, by span name.
COUNTED = {
    "green.coupled_green_direct": "L",
    "transfer.checkpoint_products": "checkpoints",
    "quadrature.adaptive_gk15": "tol",
}


def _layers() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.LAYERS


LAYERS = _layers()


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
