"""Boundary Green matrix of the coupled sample: the production solve.

The coupled 2x2 Green matrix comes from one complex tridiagonal solve with
the lead self-energies absorbed into the boundary sites; with Im F > 0 it
stays uniformly invertible at real energies. The independent routes (the
transfer-matrix G0, the junction identity and the graph correspondence)
are oracles in `ebb.validate`.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from scipy.linalg import lapack

from .errors import NumericalFailure
from .model import SampleSpec

CONDITION_LIMIT = 1e12

# Looked up once: the solve runs once per energy.
_zgtsv = lapack.zgtsv


class SelfEnergyPair(NamedTuple):
    """Boundary values F_l(E+i0), F_r(E+i0) acting as lead self-energies.
    A plain value pair: the leads that make F keep Im F >= 0."""

    F_l: complex
    F_r: complex


def _tridiag_solve_boundary(sample: SampleSpec, E: float, L: int, F_l=0j, F_r=0j):
    """The 2x2 block of sites 0 and L of A^(-1), and a condition estimate.

    A is tridiagonal on sites 0..L of the sample with off-diagonals -1 and
    diagonal v - E, less F_l on site 0 and F_r on site L. LAPACK zgtsv
    (Gaussian elimination with partial pivoting) solves, on buffers it
    owns, for the columns x^(0), x^(L) of A^(-1), row L divided by its row
    sum. A is complex symmetric: both off-diagonal entries are x^(0) at
    site L, a product chain that pivoting gets right (x^(L) at site 0 comes
    out of back-substitution, off by up to u*max|v - E| relative). The
    estimate max over j in {0, L} of (|A_jj| + 1) * max|x^(j)| scales each
    column by its own boundary row sum; it blows up exactly at
    near-resonances and, for exact columns, is at most kappa_inf(A).
    """
    if L > sample.length:
        raise ValueError(f"potential has {sample.length + 1} entries, need {L + 1}")
    diag = (sample.potential[: L + 1] - E).astype(complex)
    diag[0] -= F_l
    diag[L] -= F_r
    s0, sL = [abs(d) + 1.0 for d in diag[::L].tolist()]
    # Unscaled, a last pivot below 1 swaps row L up, and back-substitution
    # then cancels 1 against A_LL x_L down the whole x^(L) column: a large
    # |v_L| would inflate the estimate of an accurate solve. The sample's
    # -1 off-diagonal, shared by every solve on it, goes in as du without
    # overwrite_du, so zgtsv copies it; f2py would write into it otherwise,
    # whatever its writeable flag says.
    off = sample.off_diagonal[:L]
    dl = off.copy()
    dl[L - 1] = -1.0 / sL
    diag[L] /= sL
    b = np.zeros((L + 1, 2), dtype=complex, order="F")
    b[0, 0], b[L, 1] = 1.0, 1.0 / sL
    # Positional overwrite flags (dl, d, du, b): f2py parses keywords slowly.
    _, _, _, x, info = _zgtsv(dl, diag, off, b, 1, 1, 0, 1)
    if info != 0:
        raise NumericalFailure(f"tridiagonal solve failed (info={info})")
    x0, xL = np.abs(x).max(axis=0).tolist()
    x[0, 1] = x[L, 0]
    return x[::L], max(s0 * x0, sL * xL)


def coupled_green_direct(sample: SampleSpec, E: float, L: int, se: SelfEnergyPair) -> np.ndarray:
    """Coupled Green matrix of sites 0..L by a direct complex tridiagonal solve.

    The lead self-energies are absorbed into the boundary diagonal:
    (h_{S,L} - E - F_l P_0 - F_r P_L) u = delta_site. Im F > 0 on a lead
    makes it invertible (any kernel vector vanishes at the coupling sites,
    then everywhere by the three-term recurrence); a closed system is
    solved alike, and a singular or near-singular one raises
    NumericalFailure through zgtsv's info or CONDITION_LIMIT.
    """
    G, cond = _tridiag_solve_boundary(sample, E, L, se.F_l, se.F_r)
    if cond > CONDITION_LIMIT:
        raise NumericalFailure(
            f"coupled system ill-conditioned (condition estimate {cond:.2e})"
        )
    return G
