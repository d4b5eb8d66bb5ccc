"""Boundary Green matrices of the sample, decoupled and coupled.

Two independent routes exist for each object. The decoupled 2x2 Green
matrix G0 comes either from the transfer matrix (its graph is a permuted
copy of the graph of G0) or from a pivoted tridiagonal solve. The coupled
Green matrix comes either from the junction identity
G = (I - G0*F)^(-1) * G0 or from a direct complex tridiagonal solve with
the lead self-energies absorbed into the boundary sites. The direct solve
is the production path: with Im F > 0 it stays uniformly invertible at
real energies, while the transfer route degrades near Dirichlet
resonances and for exponentially large products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .errors import DomainError, NumericalFailure, ResonanceError
from .transfer import ScaledMatrix2, _smax

RESONANCE_RELATIVE_CUTOFF = 1e-12
CONDITION_LIMIT = 1e12


@dataclass(frozen=True)
class SelfEnergyPair:
    """Boundary values F_l(E+i0), F_r(E+i0) acting as lead self-energies."""

    F_l: complex
    F_r: complex

    def __post_init__(self):
        if self.F_l.imag < 0 or self.F_r.imag < 0:
            raise DomainError("self-energies must have Im >= 0")


def is_resonant(T: ScaledMatrix2) -> bool:
    """Whether T11 vanishes relative to ||T||: the energy is numerically a
    Dirichlet eigenvalue of the decoupled sample."""
    m = T.m
    return abs(m[0, 0]) < RESONANCE_RELATIVE_CUTOFF * _smax(m[0, 0], m[0, 1], m[1, 0], m[1, 1])


def _inv_scale(T: ScaledMatrix2) -> float:
    """exp(-log_scale), flushed to 0 where it would underflow."""
    return math.exp(-T.log_scale) if T.log_scale < 745.0 else 0.0


def sample_green_via_transfer(T: ScaledMatrix2) -> np.ndarray:
    """Decoupled Green matrix G0_L(E) from the transfer matrix.

    With T = [[a, b], [c, d]] (true scale), the graph correspondence gives
    g_ll = -b/a, g_lr = g_rl = 1/a, g_rr = c/a. The scale cancels in the
    diagonal entries; the off-diagonal one may legitimately underflow to 0
    for exponentially large T.
    """
    if is_resonant(T):
        raise ResonanceError(
            "T11 vanishes: energy is numerically a Dirichlet eigenvalue"
        )
    a, b, c = T.m[0, 0], T.m[0, 1], T.m[1, 0]
    g_lr = _inv_scale(T) / a
    return np.array([[-b / a, g_lr], [g_lr, c / a]])


def _tridiag_solve_boundary(diag, rhs_sites, L):
    """Solve (tridiag with given diagonal, off-diagonals -1) u = delta_site
    for each site in rhs_sites; returns solution columns and a condition
    estimate.

    Uses LAPACK gtsv (Gaussian elimination with partial pivoting). The
    condition estimate is ||A||_inf times the largest inf-norm among the
    solution columns, a lower bound on the true condition number that
    blows up exactly at near-resonances.
    """
    n = L + 1
    dl = np.full(n - 1, -1.0, dtype=diag.dtype)
    du = dl.copy()
    b = np.zeros((n, len(rhs_sites)), dtype=diag.dtype)
    for j, site in enumerate(rhs_sites):
        b[site, j] = 1.0
    solver = lapack.zgtsv if np.iscomplexobj(diag) else lapack.dgtsv
    _, _, _, x, info = solver(dl, diag.copy(), du, b)
    if info != 0:
        raise NumericalFailure(f"tridiagonal solve failed (info={info})")
    anorm = np.max(np.abs(diag)) + 2.0
    cond = anorm * max(1.0, float(np.max(np.abs(x))))
    return x, cond


def condition_estimate(pot, E: float, L: int) -> float:
    """Condition estimate of h_{S,L} - E used for resonance screening."""
    diag = np.asarray(pot, dtype=float)[: L + 1] - E
    try:
        _, cond = _tridiag_solve_boundary(diag, (0, L), L)
    except NumericalFailure:
        return math.inf
    return cond


def sample_green_direct(pot, E: float, L: int) -> np.ndarray:
    """Decoupled Green matrix G0_L(E) by a pivoted tridiagonal solve."""
    diag = np.asarray(pot, dtype=float)[: L + 1] - E
    try:
        x, cond = _tridiag_solve_boundary(diag, (0, L), L)
    except NumericalFailure as exc:
        # An exactly singular decoupled system is a Dirichlet eigenvalue.
        raise ResonanceError(str(exc))
    if cond > CONDITION_LIMIT:
        raise ResonanceError(
            f"(h - E) is numerically singular (condition estimate {cond:.2e})"
        )
    return np.array([[x[0, 0], x[0, 1]], [x[L, 0], x[L, 1]]])


def coupled_green(G0: np.ndarray, se: SelfEnergyPair) -> np.ndarray:
    """Coupled Green matrix from the junction identity
    G = (I - G0*F)^(-1) * G0, with F = diag(F_l, F_r).

    Avoids inverting G0, which may be singular as a 2x2 matrix.
    """
    G0 = np.asarray(G0, dtype=complex)
    F = np.array([[se.F_l, 0.0], [0.0, se.F_r]])
    M = np.eye(2) - G0 @ F
    det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
    if abs(det) < 1e-14:
        raise NumericalFailure(
            "det(I - G0*F) vanished; analytically excluded for Im F > 0"
        )
    inv = np.array([[M[1, 1], -M[0, 1]], [-M[1, 0], M[0, 0]]]) / det
    return inv @ G0


def coupled_green_direct(pot, E: float, L: int, se: SelfEnergyPair) -> np.ndarray:
    """Coupled Green matrix by a direct complex tridiagonal solve.

    The lead self-energies are absorbed into the boundary diagonal:
    (h_{S,L} - E - F_l P_0 - F_r P_L) u = delta_site. Requires an open
    channel on at least one side: Im F > 0 makes the system invertible
    (any kernel vector vanishes at the coupling sites, then everywhere by
    the three-term recurrence).
    """
    if se.F_l.imag <= 0 and se.F_r.imag <= 0:
        raise DomainError("coupled_green_direct needs Im F > 0 on at least one lead")
    diag = (np.asarray(pot, dtype=float)[: L + 1] - E).astype(complex)
    diag[0] -= se.F_l
    diag[L] -= se.F_r
    x, cond = _tridiag_solve_boundary(diag, (0, L), L)
    if cond > CONDITION_LIMIT:
        raise NumericalFailure(
            f"coupled system ill-conditioned (condition estimate {cond:.2e})"
        )
    return np.array([[x[0, 0], x[0, 1]], [x[L, 0], x[L, 1]]])


def graph_map_check(G: np.ndarray, T: ScaledMatrix2, se: SelfEnergyPair) -> float:
    """Residual of the graph correspondence between G(E+i0) and T(E).

    For (u, v) = G(x, y) the correspondence demands
    T(u, x + F_l u) = (y + F_r v, v). The residual is evaluated in scaled
    arithmetic and normalized by ||T||, maximized over the basis inputs
    (x, y) in {(1, 0), (0, 1)}, so it stays meaningful when ||T|| is
    exponentially large.
    """
    G = np.asarray(G, dtype=complex)
    smax = _smax(T.m[0, 0], T.m[0, 1], T.m[1, 0], T.m[1, 1])
    inv_scale = _inv_scale(T)
    worst = 0.0
    for x, y in ((1.0, 0.0), (0.0, 1.0)):
        u = G[0, 0] * x + G[0, 1] * y
        v = G[1, 0] * x + G[1, 1] * y
        w = np.array([u, x + se.F_l * u])
        target = np.array([y + se.F_r * v, v])
        resid = np.linalg.norm(T.m @ w - inv_scale * target) / smax
        worst = max(worst, float(resid))
    return worst
