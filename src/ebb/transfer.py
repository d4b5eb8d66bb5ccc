"""Overflow-safe transfer-matrix products and the 2x2 spectral norm.

The running product of one-step factors [[v(x)-E, -1], [1, 0]] grows like
exp(gamma*L) for localized potentials, far beyond float range for large L.
A product is therefore the plain tuple (a, b, c, d, e) of four Python floats
at most 2 and an int: the matrix 2**e * [[a, b], [c, d]]. Its determinant
times 4**e is 1, but in floats only while its condition number stays well
below 1/eps, so none is kept.

`checkpoint_products` computes it in one block-lane pass. Sites
0..checkpoints[-1] are cut into BLOCK-site blocks laid out from site 0; each
checkpoint's partial last block, its tail, is one more block, zero-padded at
the front. numpy advances all these lanes at once, one site per step, and
rescales them by exact powers of two, often enough that no finite potential
can overflow them. The block products are folded in order by scalar 2x2
products, and each checkpoint multiplies its tail onto the fold. Scaling by
a power of two is exact, so where the rescaling happens does not change the
product's mantissas, and a lane's product is the same whichever checkpoints
are asked for.

`end_products` runs the same lanes over all sites, one lane per energy.

The run path reads the Green block of a product in closed form, and the
L-sweeps also read its spectral norm and the resonance test on its (1,1)
entry, from one norm per product (`norm_and_resonance`). The norm is
computed only where it is read, so `fluxes` and `sweep-e` compute none.
"""

from __future__ import annotations

import math
from itertools import islice
from typing import Sequence

import numpy as np

# Sites per lane of the block-lane pass.
BLOCK = 16
# Energies per slice whose lead boundary values and transfer products
# `fluxes` and `sweep-e` take in one call each.
CHUNK = 4096
# Lane entries are rescaled before they can grow past 2**_SCALE_BITS.
_SCALE_BITS = 500
# The fold of the block products rescales once the squared Frobenius norm
# leaves this interval. The lower end keeps the largest entry above 2**-17,
# so an entry 1e-300 times smaller still has all its bits.
_FOLD_LO, _FOLD_HI = 2.0**-32, 2.0**128
_LN2 = math.log(2.0)
RESONANCE_RELATIVE_CUTOFF = 1e-12


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


def norm_and_resonance(T: tuple) -> tuple:
    """log of the spectral norm of the product T, and whether T11 vanishes
    relative to that norm, from one spectral norm of [[a, b], [c, d]].

    The log norm is clamped at 0: a real unimodular 2x2 matrix has norm
    >= 1, so any negative value is pure rounding. T is resonant where |T11|
    is below RESONANCE_RELATIVE_CUTOFF times the norm: the energy is
    numerically a Dirichlet eigenvalue of the decoupled sample.
    """
    a, b, c, d, e = T
    s = _smax(a, b, c, d)
    val = e * _LN2 + math.log(s)
    return (val if val > 0.0 else 0.0), abs(a) < RESONANCE_RELATIVE_CUTOFF * s


def _steps_within(log_bound: float, log_growth: float) -> int:
    """The most steps, from 1 to BLOCK, over which entries growing by at
    most a factor exp(log_growth) per step grow by at most exp(log_bound)."""
    if not log_growth > 0.0:  # no growth (or a NaN potential)
        return BLOCK
    return max(1, int(min(BLOCK, log_bound / log_growth)))


def _block_lanes(rows, lanes: int, steps: int, r_scale: int):
    """The product of each lane's `steps` factors, all lanes at once.

    rows yields, step by step, the array over lanes of v - E at that step.
    The lanes are rescaled every r_scale steps and at the end. Returns, per
    lane, the entries a, b, c, d (largest in [1/2, 1)) and the binary
    exponent of the scale, each as an array over lanes.
    """
    # Rows 0 and 1 of each lane's product, (a, b) and (c, d): s[p] holds
    # row 0, s[1 - p] row 1. A step is row0' = t*row0 - row1, row1' = row0,
    # so writing row0' over row 1 and flipping p advances every lane in two
    # numpy operations.
    s = np.zeros((2, 2, lanes))
    s[0, 0] = s[1, 1] = 1.0
    row = (s[0], s[1])
    tmp = np.empty((2, lanes))
    exps = np.zeros(lanes, dtype=np.int64)
    p = 0
    for j, tj in enumerate(rows, 1):
        np.multiply(row[p], tj, out=tmp)
        np.subtract(tmp, row[1 - p], out=row[1 - p])
        p = 1 - p
        if j % r_scale == 0 or j == steps:
            _, e = np.frexp(np.abs(s).max(axis=(0, 1)))
            np.ldexp(s, -e, out=s)
            exps += e
    a, b = row[p]
    c, d = row[1 - p]
    return a, b, c, d, exps


def _rescaled(a, b, c, d, e: int, top: int = 0) -> tuple:
    """(a, b, c, d) times 2**-k and the binary exponent e + k, for the k
    that brings the largest |entry| into [2**(top - 1), 2**top)."""
    k = math.frexp(max(abs(a), abs(b), abs(c), abs(d)))[1] - top
    return math.ldexp(a, -k), math.ldexp(b, -k), math.ldexp(c, -k), math.ldexp(d, -k), e + k


def checkpoint_products(pot, E: float, checkpoints: Sequence[int]) -> list:
    """Scaled transfer matrices T_x(E) at each checkpoint x, from one pass.

    T_x(E) is the product of the factors of sites 0..x. The checkpoints
    must increase strictly within [0, len(pot) - 1]. Returns
    (x, (a, b, c, d, e)) pairs in checkpoint order; bit-reproducible for
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
    # Lane i < len(cps) is the tail of checkpoint i, zero-padded at the
    # front; lane len(cps) + k is block k.
    steps = np.empty((BLOCK, len(cps) + n_blocks))
    steps[:, len(cps):] = t[: n_blocks * BLOCK].reshape(n_blocks, BLOCK).T
    steps[:, : len(cps)] = 0.0
    for i, x in enumerate(cps):
        tail = t[(x + 1) // BLOCK * BLOCK: x + 1]
        steps[BLOCK - len(tail):, i] = tail
    lanes = _block_lanes(steps, steps.shape[1], BLOCK, r_scale)
    # A lazy zip: the fold below keeps none of its tuples, so zip reuses one.
    blocks = zip(*(lane[len(cps):].tolist() for lane in lanes))
    a, b, c, d, e = 1.0, 0.0, 0.0, 1.0, 0
    done = 0
    out = []
    for x, ta, tb, tc, td, te in zip(cps, *(lane[: len(cps)].tolist() for lane in lanes)):
        q = (x + 1) // BLOCK
        for ka, kb, kc, kd, ke in islice(blocks, q - done):
            a, b, c, d = ka * a + kb * c, ka * b + kb * d, kc * a + kd * c, kc * b + kd * d
            e += ke
            # A block's entries are below 1, so a fold at most doubles the
            # largest entry; once the Frobenius norm leaves (2**-16, 2**64),
            # rescale the largest entry to 2**24, midway, in octaves.
            if not _FOLD_LO < a * a + b * b + c * c + d * d < _FOLD_HI:
                a, b, c, d, e = _rescaled(a, b, c, d, e, 24)
        done = q
        # A padding step (v - E = 0) is the exact quarter turn R = [[0, -1],
        # [1, 0]], so the lane is the tail's product times R**pad. R**4 = I
        # and BLOCK is a multiple of 4, so R**(x + 1), one column swap and
        # negation per power, undoes the padding.
        for _ in range((x + 1) % 4):
            ta, tb, tc, td = tb, -ta, td, -tc
        out.append((x, _rescaled(
            ta * a + tb * c, ta * b + tb * d, tc * a + td * c, tc * b + td * d, e + te
        )))
    return out


def end_products(pot, energies):
    """T_L(E) of all sites 0..L of the float array pot for each E of the
    float array energies, in turn, as a generator of (a, b, c, d, e): one
    `_block_lanes` lane per energy, fed v_x - E one site at a time, so
    memory stays O(len(energies)) at any L. Rescaling is exact, so an
    energy's product does not depend on the others in its batch."""
    # A generator, so the pass runs at the first product asked for: a caller
    # that rebinds its iterator per slice has freed the last slice's lists.
    # Entries grow by at most a factor 1 + max|v| + max|E| per site.
    log_growth = math.log1p(float(np.abs(pot).max() + np.abs(energies).max(initial=0.0)))
    r_scale = _steps_within(_SCALE_BITS * _LN2, log_growth)
    buf = np.empty(len(energies))
    rows = (np.subtract(v, energies, out=buf) for v in pot.tolist())
    lanes = _block_lanes(rows, len(energies), len(pot), r_scale)
    yield from zip(*(lane.tolist() for lane in lanes))
