"""Generators for the on-site potential v on the half line.

Every generator is deterministic and prefix-stable: generate(spec, L1)
is the first L1+1 entries of generate(spec, L2) for L1 <= L2, so growing
the sample never changes already-generated sites. Each spec's values(n)
returns v(0..n-1); TYPES maps the config `type` names to the specs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import ConfigError
from .model import check_length


@dataclass(frozen=True)
class Zero:
    def values(self, n: int) -> np.ndarray:
        return np.zeros(n)


@dataclass(frozen=True)
class Constant:
    value: float

    def values(self, n: int) -> np.ndarray:
        return np.full(n, float(self.value))


@dataclass(frozen=True)
class Periodic:
    cell: tuple[float, ...]

    def __post_init__(self):
        cell = tuple(float(c) for c in self.cell)
        if len(cell) == 0:
            raise ConfigError("cell: must be nonempty")
        object.__setattr__(self, "cell", cell)

    def values(self, n: int) -> np.ndarray:
        reps = -(-n // len(self.cell))
        return np.tile(np.asarray(self.cell), reps)[:n]


@dataclass(frozen=True)
class AndersonRandom:
    """I.i.d. disorder, uniform on [-amplitude, amplitude]."""

    amplitude: float
    seed: int

    def __post_init__(self):
        if not 0 <= 2 * self.amplitude < math.inf:
            raise ConfigError("amplitude: must be >= 0, with 2*amplitude finite")
        if not (0 <= self.seed < 2**64):
            raise ConfigError("seed: must fit in 64 bits")

    def values(self, n: int) -> np.ndarray:
        # Philox is counter-based, so a single bulk draw from a freshly
        # keyed generator is prefix-stable across different L.
        rng = np.random.Generator(np.random.Philox(key=self.seed))
        return rng.uniform(-self.amplitude, self.amplitude, size=n)


@dataclass(frozen=True)
class AlmostMathieu:
    """v(x) = coupling * cos(2*pi*(frequency*x + phase))."""

    coupling: float
    frequency: float
    phase: float

    def values(self, n: int) -> np.ndarray:
        x = np.arange(n)
        return self.coupling * np.cos(2.0 * math.pi * (self.frequency * x + self.phase))


@dataclass(frozen=True)
class FromFile:
    """Plain text, one real per line, site order x = 0, 1, 2, ..."""

    path: str

    def __post_init__(self):
        open(self.path).close()  # an unreadable file fails at configuration time

    def values(self, n: int) -> np.ndarray:
        values = np.loadtxt(self.path, dtype=float, ndmin=1)
        if values.ndim != 1:
            raise ConfigError(f"potential file {self.path}: expected one value per line")
        if len(values) < n:
            raise ConfigError(
                f"potential file {self.path}: has {len(values)} entries, need {n}"
            )
        return values[:n].copy()


PotentialSpec = Union[Zero, Constant, Periodic, AndersonRandom, AlmostMathieu, FromFile]

TYPES = {
    "zero": Zero,
    "constant": Constant,
    "periodic": Periodic,
    "anderson": AndersonRandom,
    "almost_mathieu": AlmostMathieu,
    "file": FromFile,
}


def generate(spec: PotentialSpec, L: int) -> np.ndarray:
    """Return the potential values v(0..L) for the given generator."""
    check_length(L)
    return spec.values(L + 1)
