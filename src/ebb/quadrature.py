"""Adaptive Gauss-Kronrod quadrature for vector-valued integrands.

A 15-point Kronrod rule with embedded 7-point Gauss rule per panel; the
panel with the worst error is split until the summed error estimate meets
the stopping rule `_converged` or the evaluation budget runs out.
Subdivision order is deterministic (heap keyed on error, then panel
position), so results are bit-reproducible.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, NumericalFailure

# Kronrod-15 abscissae on [-1, 1] and weights; embedded Gauss-7 weights
# apply to the odd-index abscissae. Standard QUADPACK constants.
_XGK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
    -0.207784955007898467600689403773245,
    -0.405845151377397166906606412076961,
    -0.586087235467691130294144838258730,
    -0.741531185599394439863864773280788,
    -0.864864423359769072789712788640926,
    -0.949107912342758524526189684047851,
    -0.991455371120812639206854697526329,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
    0.204432940075298892414161999234649,
    0.190350578064785409913256402421014,
    0.169004726639267902826583426598550,
    0.140653259715525918745189590510238,
    0.104790010322250183839876322541518,
    0.063092092629978553290700663189204,
    0.022935322010529224963732008058970,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
    0.381830050505118944950369775488975,
    0.279705391489276667901467771423780,
    0.129484966168869693270611432679082,
])

MIN_PANEL_WIDTH = 1e-13
# QUADPACK dqk15's rounding floor: an error estimate at most this times
# h * sum_k w_k |f(x_k)| is rounding in the rule itself, not a resolvable error.
ROUNDING_FLOOR = 50.0 * np.finfo(float).eps


@dataclass
class QuadratureResult:
    integral: np.ndarray
    error: np.ndarray
    evaluations: int
    converged: bool
    # Panels the loop would have split but found narrower than MIN_PANEL_WIDTH.
    panels_at_width_floor: int
    # Panels the loop would have split but whose error is at ROUNDING_FLOOR.
    panels_at_rounding_floor: int


def _converged(integral, error, tol) -> bool:
    """The stopping rule: err_k <= tol * max(1, |I_k|) for every component,
    QUADPACK's epsabs and epsrel both set to tol."""
    return bool(np.all(error <= tol * np.maximum(1.0, np.abs(integral))))


def _gk15_panel(f, lo, hi):
    """Kronrod estimate, per-component |K15 - G7| error, and the rounding
    floor ROUNDING_FLOOR * h * sum_k w_k |f(x_k)| per component, on one
    panel, and the error key max(err). A key that is not finite (the sums
    overflowed) raises NumericalFailure."""
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    fvals = np.array([f(x) for x in (c + h * _XGK).tolist()])
    with np.errstate(over="ignore", invalid="ignore"):
        kronrod = h * (_WGK @ fvals)
        err = np.abs(kronrod - h * (_WG @ fvals[1::2]))
        floor = (ROUNDING_FLOOR * h) * (_WGK @ abs(fvals))
    key = float(err.max())
    if not math.isfinite(key):
        raise NumericalFailure(
            f"quadrature error estimate on panel [{float(lo)}, {float(hi)}] is not finite ({key})"
        )
    return kronrod, err, floor, key


def adaptive_gk15(f, intervals, tol, max_evaluations, max_initial_width=None):
    """Integrate the vector-valued f over a union of intervals.

    intervals: sequence of (lo, hi) pairs; tol: see `_converged`.
    max_initial_width caps the initial panel size so that integrands
    oscillating on a known scale (one transmission resonance per pi/(L+1)
    of energy) are seen by the base rule before any subdivision.
    max_evaluations caps every evaluation, the initial panels' included:
    if those alone need more, f is never called and BudgetError is raised.
    A panel whose error estimate is not finite raises NumericalFailure.
    """
    panels = []
    for lo, hi in intervals:
        width = hi - lo
        if width <= 0:
            continue
        n = 1
        if max_initial_width is not None and max_initial_width > 0:
            n = max(1, math.ceil(width / max_initial_width))
        edges = np.linspace(lo, hi, n + 1)
        panels.extend(zip(edges[:-1], edges[1:]))

    if not panels:
        zero = np.zeros(1)
        return QuadratureResult(zero, zero.copy(), 0, True, 0, 0)
    if 15 * len(panels) > max_evaluations:
        raise BudgetError(
            f"max_evaluations: the initial panels need {15 * len(panels)} evaluations, "
            f"more than {max_evaluations}"
        )

    heap = []
    # Panels set aside unsplit: too narrow, or with an error that is rounding.
    at_width, at_rounding = [], []
    evals = 0
    total = None
    total_err = None
    for lo, hi in panels:
        integral, err, floor, key = _gk15_panel(f, lo, hi)
        evals += 15
        if total is None:
            total = integral.copy()
            total_err = err.copy()
        else:
            total += integral
            total_err += err
        heapq.heappush(heap, (-key, lo, hi, integral, err, floor))

    while not _converged(total, total_err, tol) and heap:
        if evals + 30 > max_evaluations:
            break
        neg_err, lo, hi, integral, err, floor = heapq.heappop(heap)
        # The floor is tested only on the panels popped for splitting.
        if (err <= floor).all():
            at_rounding.append((lo, hi, integral, err))
            continue
        if hi - lo < MIN_PANEL_WIDTH * max(1.0, abs(lo), abs(hi)):
            at_width.append((lo, hi, integral, err))
            continue
        mid = 0.5 * (lo + hi)
        i1, e1, f1, k1 = _gk15_panel(f, lo, mid)
        i2, e2, f2, k2 = _gk15_panel(f, mid, hi)
        evals += 30
        total += i1 + i2 - integral
        total_err += e1 + e2 - err
        heapq.heappush(heap, (-k1, lo, mid, i1, e1, f1))
        heapq.heappush(heap, (-k2, mid, hi, i2, e2, f2))

    # Deterministic final reduction: re-sum in panel order.
    pieces = sorted([p[1:5] for p in heap] + at_width + at_rounding)
    total = np.sum([p[2] for p in pieces], axis=0)
    total_err = np.sum([p[3] for p in pieces], axis=0)
    return QuadratureResult(
        total, total_err, evals, _converged(total, total_err, tol),
        len(at_width), len(at_rounding),
    )
