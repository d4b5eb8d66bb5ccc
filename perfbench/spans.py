"""Spans around calls into the ebb layers, recorded from outside the program.

Each public function in ``LAYERS`` is replaced by a wrapper at every binding
a caller looks it up by: ``fluxes`` imports ``weiss_boundary`` by name, so
``ebb.fluxes.weiss_boundary`` is wrapped as well as
``ebb.leads.weiss_boundary``. A function that no longer exists is reported
absent. Spans (name, start, end, parent) stay in memory as flat arrays and
are reduced to per-layer calls, inclusive and self time when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

# span name -> (module, function)
LAYERS = {
    "leads.weiss_boundary": ("ebb.leads", "weiss_boundary"),
    "green.coupled_green_direct": ("ebb.green", "coupled_green_direct"),
    "scattering.t_matrix": ("ebb.scattering", "t_matrix"),
    "scattering.unitarity_residual": ("ebb.scattering", "unitarity_residual"),
    "scattering.transmission": ("ebb.scattering", "transmission"),
    "fluxes.evaluate_point": ("ebb.fluxes", "evaluate_point"),
    "fluxes.spectral_densities": ("ebb.fluxes", "spectral_densities"),
    "fluxes.integrate_fluxes": ("ebb.fluxes", "integrate_fluxes"),
    "quadrature.adaptive_gk15": ("ebb.quadrature", "adaptive_gk15"),
    "transfer.checkpoint_products": ("ebb.transfer", "checkpoint_products"),
    "scan.l_sweep": ("ebb.scan", "l_sweep"),
    "scan.classify_transport": ("ebb.scan", "classify_transport"),
    "scan.energy_sweep": ("ebb.scan", "energy_sweep"),
    "scan.equivalence_rows": ("ebb.scan", "equivalence_rows"),
    "potentials.generate": ("ebb.potentials", "generate"),
    "config.parse_config": ("ebb.config", "parse_config"),
}
# The root span: the ebb.cli.main call itself. Its self time is dispatch
# plus CSV and JSON writing.
ROOT = "cli"


def _argument(fn, name):
    """Getter for argument `name` of fn from (args, kwargs), or None."""
    params = list(inspect.signature(fn).parameters)
    if name not in params:
        return None
    index = params.index(name)
    return lambda args, kwargs: args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Records spans from one thread; the CLI runs single-threaded."""

    def __init__(self):
        self.names = [ROOT]
        self.name_of = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self._stack = [-1]
        self.counters = {}
        self.absent = []

    def span(self, name, fn, after=None):
        """fn wrapped in a span; after(args, kwargs, result) runs on return."""
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        clock = time.perf_counter
        stack, start, end, parent, name_of = (
            self._stack, self.start, self.end, self.parent, self.name_of
        )

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def install(self, layers=LAYERS):
        """Wrap every binding of every function in `layers`."""
        importlib.import_module("ebb.cli")
        for name, (module, attr) in layers.items():
            try:
                fn = getattr(importlib.import_module(module), attr)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            wrapper = self.span(name, fn, self._counter(name, fn))
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "ebb" or mod_name.startswith("ebb."):
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, key, wrapper)

    def _counter(self, name, fn):
        """Work counts taken from a layer's arguments or result."""
        c = self.counters
        if name == "green.coupled_green_direct":
            get_L = _argument(fn, "L")
            if get_L is None:
                return None
            c["green.sites"] = 0

            def after(args, kwargs, result):
                c["green.sites"] += get_L(args, kwargs) + 1
            return after
        if name == "transfer.checkpoint_products":
            get_cps = _argument(fn, "checkpoints")
            if get_cps is None:
                return None
            c["transfer.sites"] = 0

            def after(args, kwargs, result):
                c["transfer.sites"] += max(get_cps(args, kwargs)) + 1
            return after
        if name == "quadrature.adaptive_gk15":
            get_tol = _argument(fn, "tol")
            if get_tol is None:
                return None
            c["quadrature.evaluations"] = 0
            c["quadrature.err_over_tol"] = 0.0

            def after(args, kwargs, result):
                c["quadrature.evaluations"] += result.evaluations
                ratio = float(np.max(result.error)) / get_tol(args, kwargs)
                c["quadrature.err_over_tol"] = max(c["quadrature.err_over_tol"], ratio)
            return after
        return None

    def summary(self):
        """Per span name: calls, inclusive seconds and self seconds."""
        names = np.asarray(self.name_of)
        dur = np.asarray(self.end) - np.asarray(self.start)
        parent = np.asarray(self.parent)
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        self_time = dur - covered
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        own = np.bincount(names, weights=self_time, minlength=k)
        return {
            name: {"calls": int(calls[i]), "s": float(total[i]), "self_s": float(own[i])}
            for i, name in enumerate(self.names)
        }

    def save(self, path):
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.asarray(self.name_of),
            start=np.asarray(self.start),
            end=np.asarray(self.end),
            parent=np.asarray(self.parent),
        )
