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

    @property
    def open_channel(self) -> bool:
        """Whether Im F > 0 on at least one lead, so a channel is open."""
        return self.F_l.imag > 0 or self.F_r.imag > 0


def is_resonant(T: ScaledMatrix2) -> bool:
    """Whether T11 vanishes relative to ||T||: the energy is numerically a
    Dirichlet eigenvalue of the decoupled sample."""
    return abs(T.m[0, 0]) < RESONANCE_RELATIVE_CUTOFF * _smax(*T.m.flat)


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


def _tridiag_solve_boundary(diag):
    """The 2x2 block of sites 0 and L of A^(-1), A the tridiagonal matrix
    with this diagonal on sites 0..L and off-diagonals -1, and a condition
    estimate.

    Uses LAPACK gtsv (Gaussian elimination with partial pivoting). The
    condition estimate is ||A||_inf times the largest inf-norm among the
    solution columns, a lower bound on the true condition number that
    blows up exactly at near-resonances.
    """
    off = np.full(len(diag) - 1, -1.0, dtype=diag.dtype)
    b = np.zeros((len(diag), 2), dtype=diag.dtype)
    b[0, 0] = b[-1, 1] = 1.0
    solver = lapack.zgtsv if np.iscomplexobj(diag) else lapack.dgtsv
    _, _, _, x, info = solver(off, diag, off, b)
    if info != 0:
        raise NumericalFailure(f"tridiagonal solve failed (info={info})")
    anorm = np.max(np.abs(diag)) + 2.0
    cond = anorm * max(1.0, float(np.max(np.abs(x))))
    return x[[0, -1]], cond


def _sample_diag(pot, E: float, L: int) -> np.ndarray:
    """The diagonal of h_{S,L} - E, sites 0..L."""
    if len(pot) < L + 1:
        raise ValueError(f"potential has {len(pot)} entries, need {L + 1}")
    return np.asarray(pot, dtype=float)[: L + 1] - E


def condition_estimate(pot, E: float, L: int) -> float:
    """Condition estimate of h_{S,L} - E used for resonance screening."""
    diag = _sample_diag(pot, E, L)
    try:
        _, cond = _tridiag_solve_boundary(diag)
    except NumericalFailure:
        return math.inf
    return cond


def sample_green_direct(pot, E: float, L: int) -> np.ndarray:
    """Decoupled Green matrix G0_L(E) by a pivoted tridiagonal solve."""
    diag = _sample_diag(pot, E, L)
    try:
        G0, cond = _tridiag_solve_boundary(diag)
    except NumericalFailure as exc:
        # An exactly singular decoupled system is a Dirichlet eigenvalue.
        raise ResonanceError(str(exc))
    if cond > CONDITION_LIMIT:
        raise ResonanceError(
            f"(h - E) is numerically singular (condition estimate {cond:.2e})"
        )
    return G0


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
    if not se.open_channel:
        raise DomainError("coupled_green_direct needs Im F > 0 on at least one lead")
    diag = _sample_diag(pot, E, L).astype(complex)
    diag[0] -= se.F_l
    diag[L] -= se.F_r
    G, cond = _tridiag_solve_boundary(diag)
    if cond > CONDITION_LIMIT:
        raise NumericalFailure(
            f"coupled system ill-conditioned (condition estimate {cond:.2e})"
        )
    return G


def graph_map_check(G: np.ndarray, T: ScaledMatrix2, se: SelfEnergyPair) -> float:
    """Residual of the graph correspondence between G(E+i0) and T(E).

    For (u, v) = G(x, y) the correspondence demands
    T(u, x + F_l u) = (y + F_r v, v). The residual is evaluated in scaled
    arithmetic and normalized by ||T||, maximized over the basis inputs
    (x, y) in {(1, 0), (0, 1)}, so it stays meaningful when ||T|| is
    exponentially large.
    """
    G = np.asarray(G, dtype=complex)
    # Column j of w and of target belongs to the basis input (x, y) = e_j.
    e = np.eye(2)
    w = np.array([G[0], e[0] + se.F_l * G[0]])
    target = np.array([e[1] + se.F_r * G[1], G[1]])
    resid = np.linalg.norm(T.m @ w - _inv_scale(T) * target, axis=0)
    return float(resid.max() / _smax(*T.m.flat))
