"""Boundary Green block of the coupled sample: the production route.

The coupled boundary block, the triple (G_00, G_0L, G_LL) of Python complex
numbers that fixes the complex-symmetric 2x2 matrix, comes from one complex
tridiagonal solve with the lead self-energies absorbed into the boundary
sites; with Im F > 0 it stays uniformly invertible at real energies. Given
the transfer product T_L, as the L-sweeps and the flux quadrature are, the
block is read from it in closed form instead and nothing is solved. The
routes that share no algebra with these two (the junction identity and the
graph correspondence) are oracles in `ebb.validate`.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from scipy.linalg import lapack

from .errors import NumericalFailure
from .model import SampleSpec
from .transfer import ScaledMatrix2

CONDITION_LIMIT = 1e12

# Looked up once: the solve runs once per energy.
_zgtsv = lapack.zgtsv


class SelfEnergyPair(NamedTuple):
    """Boundary values F_l(E+i0), F_r(E+i0) acting as lead self-energies.
    A plain value pair: the leads that make F keep Im F >= 0."""

    F_l: complex
    F_r: complex


def _tridiag_solve_boundary(sample: SampleSpec, E: float, L: int, F_l=0j, F_r=0j):
    """(G_00, G_0L, G_LL) of A^(-1), and a condition estimate.

    A is tridiagonal on sites 0..L of the sample with off-diagonals -1 and
    diagonal v - E, less F_l on site 0 and F_r on site L. LAPACK zgtsv
    (Gaussian elimination with partial pivoting) solves, on buffers it
    owns, for the columns x^(0), x^(L) of A^(-1) at the two boundary sites,
    row L divided by its row sum. A is complex symmetric, so G_0L is read as
    x^(0) at site L, a product chain that pivoting gets right (x^(L) at site
    0 comes out of back-substitution, off by up to u*max|v - E| relative).
    The estimate max over the boundary rows j of (|A_jj| + 1) * max|x^(j)|
    scales each column by its own boundary row sum; it blows up exactly at
    near-resonances and, for exact columns, is at most kappa_inf(A).
    """
    if not 1 <= L <= sample.length:
        raise ValueError(f"L={L}: potential has {sample.length + 1} entries, need {L + 1} with L >= 1")
    diag = (sample.potential[: L + 1] - E).astype(complex)
    diag[0] -= F_l
    diag[L] -= F_r
    s0, sL = abs(diag[0]) + 1.0, abs(diag[L]) + 1.0
    # Unscaled, a last pivot below 1 swaps row L up, and back-substitution
    # then cancels 1 against A_LL x_L down the whole x^(L) column: a large
    # |v_L| would inflate the estimate of an accurate solve.
    b = np.zeros((L + 1, 2), dtype=complex, order="F")
    b[0, 0], b[L, 1] = 1.0, 1.0 / sL
    du = np.empty(L, dtype=complex)
    du.fill(-1.0)  # half the cost of np.full, a Python-level wrapper
    dl = du.copy()
    dl[-1] = -1.0 / sL
    diag[L] /= sL
    # Every buffer is this call's own, so zgtsv may overwrite all four and
    # f2py copies none. Positional overwrite flags (dl, d, du, b): f2py
    # parses keywords slowly.
    _, _, _, x, info = _zgtsv(dl, diag, du, b, 1, 1, 1, 1)
    if info != 0:
        raise NumericalFailure(f"tridiagonal solve failed (info={info})")
    x0, xL = np.abs(x).max(axis=0).tolist()
    return (x.item(0, 0), x.item(L, 0), x.item(L, 1)), max(s0 * x0, sL * xL)


def _transfer_block(sample: SampleSpec, E: float, L: int, se: SelfEnergyPair, T: ScaledMatrix2):
    """(G_00, G_0L, G_LL) of A^(-1) in closed form from T_L = 2^e [[a, b],
    [c, d]], the transfer product of sites 0..L, and the estimate of
    `_tridiag_solve_boundary` restricted to the boundary entries it has.

    With D = (a + b F_l) - F_r (c + d F_l): G_00 = (F_r d - b)/D,
    G_0L = 2^-e / D and G_LL = (c + d F_l)/D. G_0L scales 1/D by 2^-e per
    component, so it flushes to 0 where T outgrows float range, as the
    solve's does. A D of exactly 0 is a singular system: estimate inf.
    """
    F_l, F_r = se.F_l, se.F_r
    D = (T.a + T.b * F_l) - F_r * (T.c + T.d * F_l)
    if D == 0:
        return None, math.inf
    q = 1 / D
    G_0L = complex(math.ldexp(q.real, -T.exponent), math.ldexp(q.imag, -T.exponent))
    G = (F_r * T.d - T.b) / D, G_0L, (T.c + T.d * F_l) / D
    s0 = abs(sample.potential.item(0) - E - F_l) + 1.0
    sL = abs(sample.potential.item(L) - E - F_r) + 1.0
    g00, g0L, gLL = map(abs, G)
    return G, max(s0 * max(g00, g0L), sL * max(g0L, gLL))


def coupled_green_direct(
    sample: SampleSpec, E: float, L: int, se: SelfEnergyPair, transfer: ScaledMatrix2 | None = None
) -> tuple:
    """Coupled block (G_00, G_0L, G_LL) of sites 0..L.

    The lead self-energies are absorbed into the boundary diagonal:
    A = h_{S,L} - E - F_l P_0 - F_r P_L, and G is the boundary block of
    A^(-1). Im F > 0 on a lead makes A invertible (any kernel vector
    vanishes at the coupling sites, then everywhere by the three-term
    recurrence); a closed system is solved alike.

    Without `transfer`, G comes from one complex tridiagonal solve of A.
    Given the transfer product T_L of sites 0..L (`transfer.checkpoint_products`
    or `transfer.end_products`), G is read from it in closed form (see
    `_transfer_block`) and nothing is solved. Either way one check follows:
    a singular or near-singular A, whose condition estimate exceeds
    CONDITION_LIMIT, raises NumericalFailure.
    """
    if transfer is None:
        G, cond = _tridiag_solve_boundary(sample, E, L, se.F_l, se.F_r)
    else:
        G, cond = _transfer_block(sample, E, L, se, transfer)
    if cond > CONDITION_LIMIT:
        raise NumericalFailure(
            f"coupled system ill-conditioned (condition estimate {cond:.2e})"
        )
    return G
