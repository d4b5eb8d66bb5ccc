"""The names the benchmark's tracer wraps, and the arguments it counts.

perfbench/spans.py wraps each function of its LAYERS table and reads work
counts from named arguments. A function it cannot find is reported absent
and its coverage check skipped, so a rename would void the per-call gate
without failing anything. These tests read that table, and change nothing
in the harness.
"""

import importlib
import importlib.util
import inspect
import os

import pytest

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "perfbench", "spans.py")
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
