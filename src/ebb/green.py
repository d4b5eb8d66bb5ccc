"""Boundary Green block of the coupled sample: the production solve.

The coupled boundary block, the triple (G_00, G_0L, G_LL) of Python complex
numbers that fixes the complex-symmetric 2x2 matrix, comes from one complex
tridiagonal solve with the lead self-energies absorbed into the boundary
sites; with Im F > 0 it stays uniformly invertible at real energies. Along a
sweep over L at one energy, each solve continues from the previous one's
left-connected corner (`GreenPrefix`) and solves only the sites past it. The
independent routes (the transfer-matrix G0, the junction identity and the
graph correspondence) are oracles in `ebb.validate`.
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


class GreenPrefix:
    """The left-connected corner g_00, g_0P, g_PP of sites 0..P at one
    energy (left lead attached, right lead not), carried from one
    `coupled_green_direct` call to the next; empty (P = -1) at first."""

    __slots__ = ("P", "g_00", "g_0P", "g_PP")

    def __init__(self):
        self.P = -1

    def extend(self, H: tuple, L: int, F_r: complex) -> tuple:
        """G of sites 0..L from the block H of the segment P+1..L (H itself
        when the prefix is empty); then the prefix advances to L by taking
        F_r off again, with d = 1 + F_r G_LL. Where d is 0, sites 0..L
        without the right lead are singular in working precision, and the
        prefix is emptied instead."""
        G_00, G_0L, G_LL = H
        if self.P >= 0:
            G_00 = self.g_00 + self.g_0P * self.g_0P * G_00
            G_0L = self.g_0P * G_0L
        d = 1.0 + F_r * G_LL
        if d != 0:
            self.P, self.g_00, self.g_0P, self.g_PP = L, G_00 - F_r * G_0L * G_0L / d, G_0L / d, G_LL / d
        else:
            self.P = -1
        return G_00, G_0L, G_LL


def _tridiag_solve_boundary(sample: SampleSpec, E: float, L: int, F_l=0j, F_r=0j, start=0):
    """(G_00, G_0L, G_LL) of sites `start` and L of A^(-1), and a condition estimate.

    A is tridiagonal on sites start..L of the sample with off-diagonals -1
    and diagonal v - E, less F_l on site `start` and F_r on site L. LAPACK
    zgtsv (Gaussian elimination with partial pivoting) solves, on buffers
    it owns, for the columns x^(0), x^(L) of A^(-1) at the two boundary
    sites, row L divided by its row sum. A is complex symmetric, so G_0L is
    read as x^(0) at site L, a product chain that pivoting gets right
    (x^(L) at the first site comes out of back-substitution, off by up to
    u*max|v - E| relative). The estimate max over the boundary rows j of
    (|A_jj| + 1) * max|x^(j)| scales each column by its own boundary row
    sum; it blows up exactly at near-resonances and, for exact columns, is
    at most kappa_inf(A). A one-site segment (start = L) is both boundary
    rows, and the same reads and formula hold.
    """
    if L > sample.length:
        raise ValueError(f"potential has {sample.length + 1} entries, need {L + 1}")
    if start > L:
        raise ValueError(f"no sites in the segment {start}..{L}")
    k = L - start
    diag = (sample.potential[start : L + 1] - E).astype(complex)
    diag[0] -= F_l
    diag[k] -= F_r
    s0, sL = abs(diag[0]) + 1.0, abs(diag[k]) + 1.0
    # Unscaled, a last pivot below 1 swaps row L up, and back-substitution
    # then cancels 1 against A_LL x_L down the whole x^(L) column: a large
    # |v_L| would inflate the estimate of an accurate solve. The sample's
    # -1 off-diagonal, shared by every solve on it, goes in as du without
    # overwrite_du, so zgtsv copies it; f2py would write into it otherwise,
    # whatever its writeable flag says.
    off = sample.off_diagonal[start:L]
    b = np.zeros((k + 1, 2), dtype=complex, order="F")
    b[0, 0], b[k, 1] = 1.0, 1.0 / sL
    if not k:
        # One site is both boundary rows, so e_0 is scaled too; f2py's
        # wrapper wants off-diagonals of one entry, which zgtsv never reads.
        off, b[0, 0] = np.zeros(1, dtype=complex), 1.0 / sL
    dl = off.copy()
    dl[-1] = -1.0 / sL
    diag[k] /= sL
    # Positional overwrite flags (dl, d, du, b): f2py parses keywords slowly.
    _, _, _, x, info = _zgtsv(dl, diag, off, b, 1, 1, 0, 1)
    if info != 0:
        raise NumericalFailure(f"tridiagonal solve failed (info={info})")
    x0, xL = np.abs(x).max(axis=0).tolist()
    return (x.item(0, 0), x.item(k, 0), x.item(k, 1)), max(s0 * x0, sL * xL)


def coupled_green_direct(
    sample: SampleSpec, E: float, L: int, se: SelfEnergyPair, prefix: GreenPrefix | None = None
) -> tuple:
    """Coupled block (G_00, G_0L, G_LL) of sites 0..L by a direct complex tridiagonal solve.

    The lead self-energies are absorbed into the boundary diagonal:
    (h_{S,L} - E - F_l P_0 - F_r P_L) u = delta_site. Im F > 0 on a lead
    makes it invertible (any kernel vector vanishes at the coupling sites,
    then everywhere by the three-term recurrence); a closed system is
    solved alike, and a singular or near-singular one raises
    NumericalFailure through zgtsv's info or CONDITION_LIMIT.

    With a `GreenPrefix` of sites 0..P < L, only sites P+1..L are solved,
    with g_PP in place of F_l on site P+1, and G is composed from the
    prefix, which then advances to L: an L-sweep solves each site once per
    energy. Where that segment's condition estimate exceeds
    CONDITION_LIMIT, or the prefix is empty, sites 0..L are solved as
    without a prefix.
    """
    if prefix is not None and prefix.P >= 0:
        H, cond = _tridiag_solve_boundary(sample, E, L, prefix.g_PP, se.F_r, prefix.P + 1)
        if cond <= CONDITION_LIMIT:
            return prefix.extend(H, L, se.F_r)
        prefix.P = -1
    G, cond = _tridiag_solve_boundary(sample, E, L, se.F_l, se.F_r)
    if cond > CONDITION_LIMIT:
        raise NumericalFailure(
            f"coupled system ill-conditioned (condition estimate {cond:.2e})"
        )
    return G if prefix is None else prefix.extend(G, L, se.F_r)
