"""Adaptive Gauss-Kronrod quadrature for vector-valued integrands.

A 15-point Kronrod rule with embedded 7-point Gauss rule per panel, on
panels the caller lays out. The loop runs in passes over one table of
panels, rows in position order. Each pass evaluates the integrand and the
rule on all its new panels at once, sums the integral and the error
estimate, takes the error's excess over the stopping rule per component,
and splits the fewest panels whose errors cover that excess in every
component, worst error first with ties broken by position. A pass splits
no more panels than the remaining evaluation budget pays for. The sums run
in position order, so results are bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _gk15(f, lo, hi):
    """Kronrod integral, |K15 - G7| error and rounding floor of the panels
    (lo[i], hi[i]), as the rows of one (n, 3, k) array, from one call of f
    on the nodes of all of them, panel by panel. The first panel whose
    error is not finite (the sums overflowed) raises NumericalFailure."""
    h = (0.5 * (hi - lo))[:, None]
    nodes = (0.5 * (lo + hi))[:, None] + h * _XGK
    fvals = np.asarray(f(nodes.ravel())).reshape(len(lo), 15, -1)
    # matmul applies each rule to each panel's (15, k) block with the bits
    # of a per-panel product (einsum and tensordot sum in another order).
    with np.errstate(over="ignore", invalid="ignore"):
        kronrod = h * np.matmul(_WGK, fvals)
        err = np.abs(kronrod - h * np.matmul(_WG, fvals[:, 1::2]))
        floor = (ROUNDING_FLOOR * h) * np.matmul(_WGK, np.abs(fvals, out=fvals))
    if not np.isfinite(key := err.max(axis=1)).all():
        i = np.flatnonzero(~np.isfinite(key))[0]
        raise NumericalFailure(f"quadrature error estimate on panel [{lo[i]}, {hi[i]}] is not finite ({key[i]})")
    return np.stack((kronrod, err, floor), axis=1)


def adaptive_gk15(f, panels, tol, max_evaluations):
    """Integrate the vector-valued f over (lo, hi) panels, a sequence of pairs
    or an (n, 2) array, in position order, in passes (see the module docstring).

    f is called once per pass, on a 1-D array of its nodes, 15 per panel in
    panel order, and returns their values as an (n, k) float array, which
    the rule then overwrites. The stopping rule is err_k <= tol *
    max(1, |I_k|) for every component, QUADPACK's epsabs and epsrel both
    set to tol. A panel taken for splitting at ROUNDING_FLOOR or
    MIN_PANEL_WIDTH is set aside instead. max_evaluations caps every
    evaluation, the initial panels' included: if those alone need more, f
    is never called and BudgetError is raised. A panel whose error
    estimate is not finite raises NumericalFailure after its pass.
    """
    if len(panels) == 0:
        zero = np.zeros(1)
        return QuadratureResult(zero, zero.copy(), 0, True, 0, 0)
    evals = 15 * len(panels)
    if evals > max_evaluations:
        raise BudgetError(
            f"max_evaluations: the initial panels need {evals} evaluations, "
            f"more than {max_evaluations}"
        )
    # The panel table, rows in position order: edges, the (n, 3, k) rule
    # estimates of _gk15, and the panels set aside.
    lo, hi = np.asarray(panels, dtype=float).T.copy()
    est = _gk15(f, lo, hi)
    aside = np.zeros(len(lo), dtype=bool)
    at_width = at_rounding = 0
    while True:
        integral, error = est[:, 0].sum(axis=0), est[:, 1].sum(axis=0)
        excess = error - tol * np.maximum(1.0, np.abs(integral))
        # Worst key max(err) first; the stable sort breaks ties by position.
        live = np.flatnonzero(~aside)
        order = live[np.argsort(-est[live, 1].max(axis=1), kind="stable")]
        budget = (max_evaluations - evals) // 30
        if (excess <= 0).all() or not order.size or not budget:
            break
        # Errors are non-negative, so the running sums never fall: the
        # prefixes short of the excess come first, and one more panel covers it.
        short = (np.cumsum(est[order, 1], axis=0) < excess).any(axis=1)
        take = order[: min(budget, 1 + int(np.count_nonzero(short)))]
        rounding = (est[take, 1] <= est[take, 2]).all(axis=1)
        a, b = lo[take], hi[take]
        width = ~rounding & (b - a < MIN_PANEL_WIDTH * np.abs([a, b]).max(axis=0, initial=1.0))
        at_rounding += int(np.count_nonzero(rounding))
        at_width += int(np.count_nonzero(width))
        aside[take[rounding | width]] = True
        split = take[~(rounding | width)]
        if not split.size:
            continue
        # Worst first, left half then right; the left half keeps the row.
        left, right = lo[split], hi[split]
        mid = 0.5 * (left + right)
        halves = _gk15(f, np.column_stack((left, mid)).ravel(), np.column_stack((mid, right)).ravel())
        evals += 15 * len(halves)
        hi[split], est[split] = mid, halves[0::2]
        lo, hi = np.insert(lo, split + 1, mid), np.insert(hi, split + 1, right)
        est = np.insert(est, split + 1, halves[1::2], axis=0)
        aside = np.insert(aside, split + 1, False)
    return QuadratureResult(integral, error, evals, bool((excess <= 0).all()), at_width, at_rounding)
