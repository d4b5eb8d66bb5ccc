"""Boundary Green block of the coupled sample, read from the transfer product.

The coupled boundary block, the triple (G_00, G_0L, G_LL) of Python complex
numbers that fixes the complex-symmetric 2x2 matrix, is read in closed form
from the transfer product T_L of the sample's sites 0..L, with the lead
self-energies absorbed into the boundary sites; nothing is solved. Every
command takes its products from `ebb.transfer`. The routes that share no
algebra with this one (the pivoted tridiagonal solve, the junction identity
and the graph correspondence) are oracles in `ebb.validate`.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import NumericalFailure
from .model import SampleSpec

CONDITION_LIMIT = 1e12


class SelfEnergyPair(NamedTuple):
    """Boundary values F_l(E+i0), F_r(E+i0) acting as lead self-energies.
    A plain value pair: the leads that make F keep Im F >= 0."""

    F_l: complex
    F_r: complex


def coupled_green_direct(sample: SampleSpec, E: float, L: int, se: SelfEnergyPair, T: tuple) -> tuple:
    """Coupled block (G_00, G_0L, G_LL) of sites 0..L.

    The lead self-energies are absorbed into the boundary diagonal:
    A = h_{S,L} - E - F_l P_0 - F_r P_L, and G is the boundary block of
    A^(-1). Im F > 0 on a lead makes A invertible (any kernel vector
    vanishes at the coupling sites, then everywhere by the three-term
    recurrence); a closed system is read alike.

    G is read from T = (a, b, c, d, e) = 2^e [[a, b], [c, d]], the transfer
    product of sites 0..L (`transfer.checkpoint_products` or `end_products`).
    With D = (a + b F_l) - F_r (c + d F_l): G_00 = (F_r d - b)/D,
    G_0L = 2^-e / D and G_LL = (c + d F_l)/D. G_0L scales 1/D by 2^-e per
    component, so it flushes to 0 where T outgrows float range. A singular
    A (D exactly 0), or a near-singular one, whose estimate max over the
    boundary rows j of (|A_jj| + 1) * max|G_j.| exceeds CONDITION_LIMIT,
    raises NumericalFailure.
    """
    F_l, F_r = se.F_l, se.F_r
    a, b, c, d, e = T
    D = (a + b * F_l) - F_r * (c + d * F_l)
    if D == 0:
        raise NumericalFailure("coupled system ill-conditioned (condition estimate inf)")
    q = 1 / D
    G_0L = complex(math.ldexp(q.real, -e), math.ldexp(q.imag, -e))
    G = (F_r * d - b) / D, G_0L, (c + d * F_l) / D
    s0 = abs(sample.potential.item(0) - E - F_l) + 1.0
    sL = abs(sample.potential.item(L) - E - F_r) + 1.0
    g00, g0L, gLL = map(abs, G)
    cond = max(s0 * max(g00, g0L), sL * max(g0L, gLL))
    if cond > CONDITION_LIMIT:
        raise NumericalFailure(
            f"coupled system ill-conditioned (condition estimate {cond:.2e})"
        )
    return G
