"""Overflow-safe transfer-matrix products and the 2x2 spectral norm.

The running product of one-step factors [[v(x)-E, -1], [1, 0]] grows like
exp(gamma*L) for localized potentials, far beyond float range for large L.
The product is therefore kept as a ScaledMatrix2: a well-conditioned 2x2
matrix times exp(log_scale), renormalized by its max entry whenever that
entry leaves [1/2, 2].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass
class ScaledMatrix2:
    """A 2x2 real matrix with separated logarithmic scale.

    Represents the matrix exp(log_scale) * m. Each transfer factor is
    unimodular, so the represented determinant det(m)*exp(2*log_scale)
    stays equal to 1 up to accumulated rounding.

    log_det is log|det| of the represented matrix, 0 for an exact product.
    It cannot be recovered from m once the product's condition number
    passes 1/eps (the small singular value drowns in rounding noise), so
    the product loop accumulates it from short, well-conditioned segments
    whose determinants are computable at full precision.
    """

    m: np.ndarray
    log_scale: float
    log_det: float


def one_step(v_x: float, E: float) -> np.ndarray:
    """Single transfer factor at site x; determinant 1 by construction."""
    return np.array([[v_x - E, -1.0], [1.0, 0.0]])


def _smax(a, b, c, d) -> float:
    """Spectral norm of [[a,b],[c,d]], real or complex, in closed form.

    The singular values s1 >= s2 satisfy s1^2 + s2^2 = f (the squared
    Frobenius norm) and s1*s2 = |det|.
    """
    f = abs(a) * abs(a) + abs(b) * abs(b) + abs(c) * abs(c) + abs(d) * abs(d)
    det = abs(a * d - b * c)
    disc = f * f - 4.0 * det * det
    if disc < 0.0:
        disc = 0.0
    return math.sqrt(0.5 * (f + math.sqrt(disc)))


def log_spectral_norm(M: ScaledMatrix2) -> float:
    """log of the spectral norm of the represented matrix.

    Clamped at 0: a real unimodular 2x2 matrix has norm >= 1, so any
    negative value is pure rounding.
    """
    val = M.log_scale + math.log(_smax(*M.m.flat))
    return val if val > 0.0 else 0.0


def checkpoint_products(pot, E: float, checkpoints: Sequence[int]) -> list:
    """Scaled transfer matrices T_x(E) at each checkpoint x, from one pass.

    T_x(E) is the product of the factors of sites 0..x. The checkpoints
    must increase strictly within [0, len(pot) - 1]. Returns
    (x, ScaledMatrix2) pairs in checkpoint order; bit-reproducible for
    fixed inputs.
    """
    cps = [int(c) for c in checkpoints]
    if not (cps and 0 <= cps[0] and cps[-1] < len(pot)
            and all(x < y for x, y in zip(cps, cps[1:]))):
        raise ValueError(f"checkpoints must increase strictly within [0, {len(pot) - 1}]")

    a, b, c, d = 1.0, 0.0, 0.0, 1.0
    ls = 0.0
    # Determinant bookkeeping: an independent unscaled segment product,
    # closed while still well-conditioned (entries <= 32) so its
    # determinant is exact to rounding. Segment log-dets sum to the
    # represented log-det of the full product.
    sa, sb, sc, sd = 1.0, 0.0, 0.0, 1.0
    log_det = 0.0
    out = []
    ci = 0
    vals = np.asarray(pot, dtype=float)[: cps[-1] + 1].tolist()
    for x, v in enumerate(vals):
        t = v - E
        a, b, c, d = t * a - c, t * b - d, a, b
        mx = max(abs(a), abs(b), abs(c), abs(d))
        if mx > 2.0 or mx < 0.5:
            a, b, c, d = a / mx, b / mx, c / mx, d / mx
            ls += math.log(mx)
        sa, sb, sc, sd = t * sa - sc, t * sb - sd, sa, sb
        if max(abs(sa), abs(sb), abs(sc), abs(sd)) > 32.0:
            log_det += math.log(abs(sa * sd - sb * sc))
            sa, sb, sc, sd = 1.0, 0.0, 0.0, 1.0
        if cps[ci] == x:
            seg = math.log(abs(sa * sd - sb * sc))
            out.append((x, ScaledMatrix2(np.array([[a, b], [c, d]]), ls, log_det + seg)))
            ci += 1
    return out
