"""Boundary Green matrix of the coupled sample: the production solve.

The coupled 2x2 Green matrix comes from one complex tridiagonal solve with
the lead self-energies absorbed into the boundary sites; with Im F > 0 it
stays uniformly invertible at real energies. The independent routes (the
transfer-matrix G0, the junction identity and the graph correspondence)
are oracles in `ebb.validate`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .errors import DomainError, NumericalFailure
from .transfer import ScaledMatrix2

RESONANCE_RELATIVE_CUTOFF = 1e-12
CONDITION_LIMIT = 1e12

# Looked up once: the solve runs once per energy.
_zgtsv = lapack.zgtsv


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
    return abs(T.a) < RESONANCE_RELATIVE_CUTOFF * T.smax


@functools.lru_cache(maxsize=64)
def _off_diagonal(L: int) -> np.ndarray:
    """The -1 off-diagonal of A on sites 0..L, shared by every solve at L.
    zgtsv gets it without overwrite_dl/overwrite_du and so copies it; f2py
    would write into it otherwise, whatever its writeable flag says."""
    return np.full(L, -1.0, dtype=complex)


def _tridiag_solve_boundary(t, F_l=0j, F_r=0j):
    """The 2x2 block of sites 0 and L of A^(-1), and a condition estimate.

    A is tridiagonal on sites 0..L with off-diagonals -1 and diagonal t,
    the real v - E, less F_l on site 0 and F_r on site L. Uses LAPACK
    zgtsv (Gaussian elimination with partial pivoting) on buffers it owns.
    The condition estimate ||A||_inf * max|x| over the two solution columns
    is at most 2 kappa_inf(A) (max|x| <= ||A^(-1)||_inf; the boundary rows
    of ||A||_inf count two off-diagonals, not one) and blows up exactly at
    near-resonances.
    """
    L = len(t) - 1
    diag = t.astype(complex)
    diag[0] -= F_l
    diag[L] -= F_r
    d0, dL = diag[::L].tolist()
    off = _off_diagonal(L)
    b = np.zeros((L + 1, 2), dtype=complex, order="F")
    b[0, 0] = b[L, 1] = 1.0
    _, _, _, x, info = _zgtsv(off, diag, off, b, overwrite_d=1, overwrite_b=1)
    if info != 0:
        raise NumericalFailure(f"tridiagonal solve failed (info={info})")
    # The interior rows of ||A||_inf from the real t: |complex(x, 0)| = |x|.
    anorm = max(abs(d0), abs(dL), float(np.abs(t[1:L]).max(initial=0.0))) + 2.0
    return x[::L], anorm * float(np.abs(x).max())


def _sample_diag(pot, E: float, L: int) -> np.ndarray:
    """v - E on sites 0..L, the real diagonal of h_{S,L} - E."""
    if len(pot) < L + 1:
        raise ValueError(f"potential has {len(pot)} entries, need {L + 1}")
    return np.asarray(pot, dtype=float)[: L + 1] - E


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
    G, cond = _tridiag_solve_boundary(_sample_diag(pot, E, L), se.F_l, se.F_r)
    if cond > CONDITION_LIMIT:
        raise NumericalFailure(
            f"coupled system ill-conditioned (condition estimate {cond:.2e})"
        )
    return G
