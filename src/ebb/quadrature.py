"""Adaptive Gauss-Kronrod quadrature for vector-valued integrands.

A 15-point Kronrod rule with embedded 7-point Gauss rule per panel, on
panels the caller lays out. The loop runs in passes over one list of
panels in position order. Each pass sums the integral and the error
estimate, takes the error's excess over the stopping rule per component,
and splits the fewest panels whose errors cover that excess in every
component, worst error first with ties broken by position. A pass splits
no more panels than the remaining evaluation budget pays for. The sums run
in position order, so results are bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import BudgetError, NumericalFailure

# Kronrod-15 abscissae on [-1, 1] and weights; embedded Gauss-7 weights
# apply to the odd-index abscissae. Standard QUADPACK constants, stored as
# QUADPACK stores them, from the outermost node to the centre, and mirrored.
_XGK_HALF = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
)
_WGK_HALF = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG_HALF = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)
_XGK = np.array(_XGK_HALF + tuple(-v for v in _XGK_HALF[-2::-1]))
_WGK = np.array(_WGK_HALF + _WGK_HALF[-2::-1])
_WG = np.array(_WG_HALF + _WG_HALF[-2::-1])

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
    # Panels taken for splitting but found narrower than MIN_PANEL_WIDTH.
    panels_at_width_floor: int
    # Panels taken for splitting but whose error is at ROUNDING_FLOOR.
    panels_at_rounding_floor: int


class _Panel(NamedTuple):
    lo: float
    hi: float
    integral: np.ndarray
    err: np.ndarray
    # ROUNDING_FLOOR * h * sum_k w_k |f(x_k)|, per component.
    floor: np.ndarray
    key: float
    aside: bool = False


def _gk15_panel(f, lo, hi) -> _Panel:
    """Kronrod estimate, per-component |K15 - G7| error, rounding floor and
    error key max(err) of one panel. A key that is not finite (the sums
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
    return _Panel(lo, hi, kronrod, err, floor, key)


def adaptive_gk15(f, panels, tol, max_evaluations):
    """Integrate the vector-valued f over a sequence of (lo, hi) panels in
    position order, in passes (see the module docstring).

    The stopping rule is err_k <= tol * max(1, |I_k|) for every component,
    QUADPACK's epsabs and epsrel both set to tol. A panel taken for
    splitting at ROUNDING_FLOOR or MIN_PANEL_WIDTH is set aside instead.
    max_evaluations caps every evaluation, the initial panels' included:
    if those alone need more, f is never called and BudgetError is raised.
    A panel whose error estimate is not finite raises NumericalFailure.
    """
    if not panels:
        zero = np.zeros(1)
        return QuadratureResult(zero, zero.copy(), 0, True, 0, 0)
    evals = 15 * len(panels)
    if evals > max_evaluations:
        raise BudgetError(
            f"max_evaluations: the initial panels need {evals} evaluations, "
            f"more than {max_evaluations}"
        )
    panels = [_gk15_panel(f, lo, hi) for lo, hi in panels]
    at_width = at_rounding = 0
    while True:
        integral = np.sum([p.integral for p in panels], axis=0)
        error = np.sum([p.err for p in panels], axis=0)
        excess = error - tol * np.maximum(1.0, np.abs(integral))
        # Worst key first; the stable sort breaks ties by position.
        order = sorted((i for i, p in enumerate(panels) if not p.aside), key=lambda i: -panels[i].key)
        budget = (max_evaluations - evals) // 30
        if (excess <= 0).all() or not order or not budget:
            break
        # Errors are non-negative, so the running sums never fall: the
        # prefixes short of the excess come first, and one more panel covers it.
        short = (np.cumsum([panels[i].err for i in order], axis=0) < excess).any(axis=1)
        halves = {}
        for i in order[: min(budget, 1 + int(np.count_nonzero(short)))]:
            lo, hi, _, err, floor, _, _ = panels[i]
            if (err <= floor).all():
                at_rounding += 1
            elif hi - lo < MIN_PANEL_WIDTH * max(1.0, abs(lo), abs(hi)):
                at_width += 1
            else:
                mid = 0.5 * (lo + hi)
                halves[i] = (_gk15_panel(f, lo, mid), _gk15_panel(f, mid, hi))
                evals += 30
                continue
            panels[i] = panels[i]._replace(aside=True)
        panels = [q for i, p in enumerate(panels) for q in halves.get(i, (p,))]
    return QuadratureResult(integral, error, evals, bool((excess <= 0).all()), at_width, at_rounding)
