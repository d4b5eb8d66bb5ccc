"""On-shell t-matrix, unitarity diagnostics, and transmission probability."""

from __future__ import annotations

import math

import numpy as np

from .errors import UnitarityError
from .green import SelfEnergyPair
from .transfer import _smax

TRANSMISSION_OVERSHOOT = 1e-10


def t_matrix(G: np.ndarray, se: SelfEnergyPair) -> np.ndarray:
    """t(E) = 2i (Im F)^(1/2) G (Im F)^(1/2), entrywise for diagonal F.

    A lead with Im F = 0 has no open channel; its row and column of t are
    structurally zero and it carries no flux. The arithmetic runs on Python
    complex numbers, which round as numpy's complex arrays do.
    """
    sl, sr = math.sqrt(se.F_l.imag), math.sqrt(se.F_r.imag)
    (g00, g01), (g10, g11) = G.tolist()
    return np.array([
        [2j * (sl * g00 * sl), 2j * (sl * g01 * sr)],
        [2j * (sr * g10 * sl), 2j * (sr * g11 * sr)],
    ])


def unitarity_residual(t: np.ndarray) -> float:
    """Spectral norm of t*t + t + t*; zero iff s = 1 + t is unitary.

    Never used to repair t: residual growth is the primary numerical
    health signal of the pipeline.
    """
    (a, b), (c, d) = t.tolist()
    ac, bc, cc, dc = a.conjugate(), b.conjugate(), c.conjugate(), d.conjugate()
    return _smax(
        ac * a + cc * c + a + ac, ac * b + cc * d + b + cc,
        bc * a + dc * c + c + bc, bc * b + dc * d + d + dc,
    )


def transmission(t: np.ndarray) -> float:
    """Transmission probability |t_lr|^2, in [0, 1].

    An overshoot beyond rounding tolerance signals an upstream numerical
    fault and is raised, not clamped. Returns a Python float.
    """
    val = abs(t[0, 1].item()) ** 2
    if val > 1.0 + TRANSMISSION_OVERSHOOT:
        raise UnitarityError(f"transmission {val} exceeds 1 beyond tolerance")
    return min(1.0, val)
