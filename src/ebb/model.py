"""Shared domain types and Fermi-Dirac machinery.

Units: hbar = e = 1 and the sample hopping equals 1, so energies are
dimensionless. All integrated fluxes downstream carry the 1/(2*pi)
prefactor of the Landauer-Buttiker formulae.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class ThermoParams:
    """Inverse temperatures and chemical potentials of the two reservoirs."""

    beta_l: float
    beta_r: float
    mu_l: float = 0.0
    mu_r: float = 0.0

    def __post_init__(self):
        if not (self.beta_l > 0):
            raise ConfigError("beta_l: must be > 0")
        if not (self.beta_r > 0):
            raise ConfigError("beta_r: must be > 0")
        for name in ("beta_l", "beta_r", "mu_l", "mu_r"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name}: must be finite")


# The longest sample: its potential alone takes 8 bytes per site, and an
# L-sweep's transfer pass a few float arrays of that length.
MAX_LENGTH = 10**7


def check_length(L: int, key: str = "length") -> None:
    """The sample-length rule, 1 <= L <= MAX_LENGTH, checked before any
    array of that length is allocated."""
    if not 1 <= L <= MAX_LENGTH:
        raise ConfigError(f"{key}: must be in [1, {MAX_LENGTH}], got {L}")


class SampleSpec:
    """A finite sample on sites 0..L with on-site potential values.

    The left junction attaches at site 0 and the right junction at site L,
    so L = len(potential) - 1 >= 1 is required (a single shared coupling
    site is degenerate). Validated once at construction; a transfer product
    of the sample or of a prefix of it (sites 0..L' for L' <= L) reads the
    potential. Not modified after construction.
    """

    __slots__ = ("potential", "length")

    def __init__(self, potential):
        pot = np.asarray(potential, dtype=float)
        if pot.ndim != 1:
            raise ConfigError(f"potential: expected a 1-D array, got shape {pot.shape}")
        check_length(len(pot) - 1)
        if not np.all(np.isfinite(pot)):
            raise ConfigError("potential: entries must be finite")
        self.potential, self.length = pot, len(pot) - 1


def xi(E, beta: float, mu: float):
    """Dimensionless energy argument beta*(E - mu) of the Fermi factor."""
    return beta * (E - mu)


def fermi_density(E, beta: float, mu: float):
    """Fermi-Dirac occupation 1/(1 + exp(beta*(E - mu))) at each energy of
    the float array E.

    Evaluated on the branch that never overflows: z = exp(-|x|), and for
    positive argument the numerator carries it. Each z is one `math.exp`:
    numpy's vectorised exp differs from it in the last bit on some inputs.
    """
    x = xi(np.asarray(E, dtype=float), beta, mu)
    z = np.fromiter(map(math.exp, memoryview(-np.abs(x).ravel())), float, x.size).reshape(x.shape)
    rho = np.where(x >= 0.0, z, 1.0)
    # Freed before the in-place division, so no third array of E's size lives on.
    del x
    z += 1.0
    rho /= z
    return rho
