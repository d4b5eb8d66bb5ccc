"""On-shell t-matrix, unitarity diagnostics, and transmission probability."""

from __future__ import annotations

import math

from .errors import UnitarityError
from .transfer import _smax

TRANSMISSION_OVERSHOOT = 1e-10


def t_matrix(G: tuple, F_l: complex, F_r: complex) -> tuple:
    """t(E) = 2i (Im F)^(1/2) G (Im F)^(1/2), entrywise, for G = (G_00, G_0L, G_LL).

    A lead with Im F = 0 has no open channel; its row and column of t are
    structurally zero and it carries no flux. Returns the rows of t as
    nested tuples of Python complex numbers, which round as numpy's complex
    arrays do; wrap them in np.array where a matrix is needed.
    """
    sl, sr = math.sqrt(F_l.imag), math.sqrt(F_r.imag)
    g00, g01, g11 = G
    return (
        (2j * (sl * g00 * sl), 2j * (sl * g01 * sr)),
        (2j * (sr * g01 * sl), 2j * (sr * g11 * sr)),
    )


def unitarity_residual(t: tuple) -> float:
    """Spectral norm of t*t + t + t*; zero iff s = 1 + t is unitary.

    Never used to repair t: residual growth is the primary numerical
    health signal of the pipeline.
    """
    (a, b), (c, d) = t
    ac, bc, cc, dc = a.conjugate(), b.conjugate(), c.conjugate(), d.conjugate()
    return _smax(
        ac * a + cc * c + a + ac, ac * b + cc * d + b + cc,
        bc * a + dc * c + c + bc, bc * b + dc * d + d + dc,
    )


def transmission(t: tuple) -> float:
    """Transmission probability |t_lr|^2, in [0, 1].

    An overshoot beyond rounding tolerance, or NaN, signals an upstream
    numerical fault and is raised, not clamped. Returns a Python float.
    """
    val = abs(t[0][1]) ** 2
    if not val <= 1.0 + TRANSMISSION_OVERSHOOT:
        raise UnitarityError(f"transmission {val} is not in [0, 1] within tolerance")
    return min(1.0, val)
