"""Overflow-safe transfer-matrix products and the 2x2 spectral norm.

The running product of one-step factors [[v(x)-E, -1], [1, 0]] grows like
exp(gamma*L) for localized potentials, far beyond float range for large L.
The product is therefore kept as a ScaledMatrix2: a 2x2 matrix with entries
at most 2, times exp(log_scale).

`checkpoint_products` computes it in one block-lane pass. Sites
0..checkpoints[-1] are cut into BLOCK-site blocks laid out from site 0, and
numpy advances the products of all blocks at once, one site of every block
per step. The lanes are rescaled by exact powers of two, often enough that
no finite potential can overflow them. The block products are then folded
in order by scalar 2x2 products, and each checkpoint finishes its partial
last block with scalar steps. Scaling by a power of two is exact, so where
the rescaling happens does not change the product's mantissas, and a
block's product is the same whichever checkpoints are asked for.

The run path reads two things from a product, its spectral norm and the
resonance test on its (1,1) entry; no determinant is kept alongside it.
"""

from __future__ import annotations

import math
from itertools import islice
from typing import Sequence

import numpy as np

# Sites per lane of the block-lane pass.
BLOCK = 16
# Lane entries are rescaled before they can grow past 2**_SCALE_BITS.
_SCALE_BITS = 500
# The fold of the block products rescales once the squared Frobenius norm
# leaves this interval.
_FOLD_LO, _FOLD_HI = 2.0**-128, 2.0**128
_LN2 = math.log(2.0)


class ScaledMatrix2:
    """A 2x2 real matrix with separated logarithmic scale.

    Represents the matrix exp(log_scale) * m, m = [[a, b], [c, d]], kept as
    four Python floats; smax, the spectral norm of m, is computed once at
    construction for both the norm and the resonance test. Each transfer
    factor is unimodular, so det(m)*exp(2*log_scale) is 1 in exact
    arithmetic; in floats det(m) is accurate only while the product's
    condition number stays well below 1/eps. Not modified after
    construction.
    """

    __slots__ = ("a", "b", "c", "d", "log_scale", "smax")

    def __init__(self, a: float, b: float, c: float, d: float, log_scale: float):
        self.a, self.b, self.c, self.d = a, b, c, d
        self.log_scale = log_scale
        self.smax = _smax(a, b, c, d)

    @property
    def m(self) -> np.ndarray:
        """m as a new 2x2 array."""
        return np.array([[self.a, self.b], [self.c, self.d]])


def one_step(v_x: float, E: float) -> np.ndarray:
    """Single transfer factor at site x; determinant 1 by construction."""
    return np.array([[v_x - E, -1.0], [1.0, 0.0]])


def _smax(a, b, c, d) -> float:
    """Spectral norm of [[a,b],[c,d]], real or complex, in closed form.

    s1^2 is the larger eigenvalue of M M* = [[p, r], [conj(r), q]], that is
    (p + q + hypot(p - q, 2|r|)) / 2. Every term is non-negative, so nothing
    cancels, also where s1 ~ s2 (the form f/2 + sqrt(f^2/4 - det^2) in the
    Frobenius norm f and det loses half its digits there). Pass Python
    numbers: numpy scalars make the call about three times slower.
    """
    p = abs(a) * abs(a) + abs(b) * abs(b)
    q = abs(c) * abs(c) + abs(d) * abs(d)
    r = abs(a * c.conjugate() + b * d.conjugate())
    return math.sqrt(0.5 * (p + q + math.hypot(p - q, 2.0 * r)))


def log_spectral_norm(M: ScaledMatrix2) -> float:
    """log of the spectral norm of the represented matrix.

    Clamped at 0: a real unimodular 2x2 matrix has norm >= 1, so any
    negative value is pure rounding.
    """
    val = M.log_scale + math.log(M.smax)
    return val if val > 0.0 else 0.0


def _steps_within(log_bound: float, log_growth: float) -> int:
    """The most steps, from 1 to BLOCK, over which entries growing by at
    most a factor exp(log_growth) per step grow by at most exp(log_bound)."""
    if not log_growth > 0.0:  # no growth (or a NaN potential)
        return BLOCK
    return max(1, int(min(BLOCK, log_bound / log_growth)))


def _block_lanes(t: np.ndarray, r_scale: int):
    """The product of each block's factors, all blocks at once.

    t[j, k] is v - E at site k*BLOCK + j. The lanes are rescaled every
    r_scale steps and at the end. Returns, per block, the entries a, b, c, d
    (largest in [1/2, 1)) and the binary exponent of the scale, each as an
    array over blocks.
    """
    blocks = t.shape[1]
    # Rows 0 and 1 of each lane's product, (a, b) and (c, d): s[p] holds
    # row 0, s[1 - p] row 1. A step is row0' = t*row0 - row1, row1' = row0,
    # so writing row0' over row 1 and flipping p advances every lane in two
    # numpy operations.
    s = np.zeros((2, 2, blocks))
    s[0, 0] = s[1, 1] = 1.0
    row = (s[0], s[1])
    tmp = np.empty((2, blocks))
    exps = np.zeros(blocks, dtype=np.int64)
    p = 0
    for j, tj in enumerate(t, 1):
        np.multiply(row[p], tj, out=tmp)
        np.subtract(tmp, row[1 - p], out=row[1 - p])
        p = 1 - p
        if j % r_scale == 0 or j == BLOCK:
            _, e = np.frexp(np.abs(s).max(axis=(0, 1)))
            np.ldexp(s, -e, out=s)
            exps += e
    a, b = row[p]
    c, d = row[1 - p]
    return a, b, c, d, exps


def _rescaled(a, b, c, d, e: int) -> tuple:
    """(a, b, c, d) times 2**-k and the binary exponent e + k, for the k
    that brings the largest |entry| into [1/2, 1)."""
    k = math.frexp(max(abs(a), abs(b), abs(c), abs(d)))[1]
    return math.ldexp(a, -k), math.ldexp(b, -k), math.ldexp(c, -k), math.ldexp(d, -k), e + k


def _finish(state: tuple, tail: list, r_scale: int) -> ScaledMatrix2:
    """The product `state` continued, scalar, over sites whose v - E are
    the values of `tail`, under the rescaling rule of the lanes.

    state is (a, b, c, d, binary exponent) with the largest |entry| in
    [1/2, 1). The entries are rescaled every r_scale steps and at the end.
    """
    a, b, c, d, e = state
    for i, t in enumerate(tail, 1):
        a, b, c, d = t * a - c, t * b - d, a, b
        if i % r_scale == 0:
            a, b, c, d, e = _rescaled(a, b, c, d, e)
    a, b, c, d, e = _rescaled(a, b, c, d, e)
    return ScaledMatrix2(a, b, c, d, e * _LN2)


def checkpoint_products(pot, E: float, checkpoints: Sequence[int]) -> list:
    """Scaled transfer matrices T_x(E) at each checkpoint x, from one pass.

    T_x(E) is the product of the factors of sites 0..x. The checkpoints
    must increase strictly within [0, len(pot) - 1]. Returns
    (x, ScaledMatrix2) pairs in checkpoint order; bit-reproducible for
    fixed inputs. The rescaling interval follows from max|v - E| over all
    of pot, so T_x does not depend on which other checkpoints are asked
    for.
    """
    cps = [int(c) for c in checkpoints]
    if not (cps and 0 <= cps[0] and cps[-1] < len(pot)
            and all(x < y for x, y in zip(cps, cps[1:]))):
        raise ValueError(f"checkpoints must increase strictly within [0, {len(pot) - 1}]")

    t = np.asarray(pot, dtype=float) - E
    # Entries grow by at most a factor 1 + max|v - E| per site.
    log_growth = math.log1p(float(np.abs(t).max()))
    r_scale = _steps_within(_SCALE_BITS * _LN2, log_growth)

    n_blocks = (cps[-1] + 1) // BLOCK
    lanes = _block_lanes(
        np.ascontiguousarray(t[: n_blocks * BLOCK].reshape(n_blocks, BLOCK).T), r_scale
    )
    blocks = zip(*(lane.tolist() for lane in lanes))
    a, b, c, d, e = 1.0, 0.0, 0.0, 1.0, 0
    done = 0
    out = []
    for x in cps:
        q = (x + 1) // BLOCK
        for ka, kb, kc, kd, ke in islice(blocks, q - done):
            a, b, c, d = ka * a + kb * c, ka * b + kb * d, kc * a + kd * c, kc * b + kd * d
            e += ke
            # A block's entries are below 1, so a fold at most doubles the
            # largest entry; rescale once the Frobenius norm leaves
            # (2**-64, 2**64).
            if not _FOLD_LO < a * a + b * b + c * c + d * d < _FOLD_HI:
                a, b, c, d, e = _rescaled(a, b, c, d, e)
        done = q
        tail = t[q * BLOCK: x + 1].tolist()
        out.append((x, _finish(_rescaled(a, b, c, d, e), tail, r_scale)))
    return out
