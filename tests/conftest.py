"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the code paths they check: the lead
boundary value is recomputed from a large truncated lead, and small Green
matrices from dense matrix inversion.
"""

import mpmath
import numpy as np
import pytest
from scipy.linalg import lapack

from ebb.leads import SemiInfiniteLaplacian


@pytest.fixture(scope="session")
def lead11():
    return SemiInfiniteLaplacian(1.0, 1.0)


def truncated_weiss(k, kappa, E, N=100_000, eps=1e-4):
    """coupling^2 * <d0, (h_N - E - i*eps)^(-1) d0> on an N-site lead."""
    diag = np.full(N, -E - 1j * eps)
    off = np.full(N - 1, -k, dtype=complex)
    rhs = np.zeros((N, 1), dtype=complex)
    rhs[0, 0] = 1.0
    _, _, _, x, info = lapack.zgtsv(off, diag, off.copy(), rhs)
    assert info == 0
    return kappa * kappa * x[0, 0]


def one_step(v_x, E):
    """The transfer factor [[v_x - E, -1], [1, 0]] of one site, as an array:
    the oracle factor that naive products multiply out."""
    return np.array([[v_x - E, -1.0], [1.0, 0.0]])


def dense_hamiltonian(pot, L):
    """Full (L+1)x(L+1) sample Hamiltonian as a dense matrix."""
    h = np.diag(np.asarray(pot, dtype=float)[: L + 1])
    idx = np.arange(L)
    h[idx, idx + 1] = -1.0
    h[idx + 1, idx] = -1.0
    return h


def dense_resolvent(pot, E, L, F_l=0.0, F_r=0.0):
    """(h - E - F_l P_0 - F_r P_L)^(-1) on sites 0..L, densely."""
    h = dense_hamiltonian(pot, L).astype(complex)
    h[0, 0] -= F_l
    h[L, L] -= F_r
    return np.linalg.inv(h - E * np.eye(L + 1))


def dense_green(pot, E, L, F_l=0.0, F_r=0.0):
    """Boundary block (G_00, G_0L, G_LL) of the dense resolvent, G_0L read
    from its e_0 column as the production solve reads it."""
    g = dense_resolvent(pot, E, L, F_l, F_r)
    return g[0, 0], g[L, 0], g[L, L]


def continuants(a):
    """Leading-block determinants of the tridiagonal matrix with diagonal a
    (mpmath numbers) and off-diagonals -1: entry k is det A_0..k-1, and
    entry 0 is 1. In the working precision of mpmath."""
    dets = [mpmath.mpf(1), a[0]]
    for x in a[1:]:
        dets.append(x * dets[-1] - dets[-2])
    return dets
