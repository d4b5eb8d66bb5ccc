"""Reservoir models: Weiss-function boundary values and band supports.

A lead enters the sample physics only through F(E+i0), the boundary value
of its resolvent matrix element on the coupling vector. F is a Herglotz
function, so Im F >= 0 on the real axis; the set where Im F > 0 is the
lead's open band. Each lead model gives F at an array of energies through
boundary(E) and its band through band(); TYPES maps the config `type` names
to their constructors.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import ConfigError, DomainError


@dataclass(frozen=True)
class SemiInfiniteLaplacian:
    """Half-line lead with Hamiltonian -hopping*Laplacian, coupled via
    coupling*delta_0. Band is (-2*hopping, 2*hopping)."""

    hopping: float = 1.0
    coupling: float = 1.0

    def __post_init__(self):
        # boundary(E) divides by 2*hopping**2 and scales by coupling**2.
        k2 = self.hopping * self.hopping
        if not (self.hopping > 0 and 0 < 4 * k2 < math.inf):
            raise ConfigError("hopping: must be > 0, with 4*hopping**2 finite and nonzero")
        if not (self.coupling != 0 and self.coupling * self.coupling / k2 < math.inf):
            raise ConfigError("coupling: must be nonzero, with coupling**2/hopping**2 finite")

    def boundary(self, E: np.ndarray) -> np.ndarray:
        """F(E+i0) at each energy of the float array E, as a complex array:
        the closed form coupling^2 * (-E + sqrt(E^2 - 4k^2)) / (2k^2), with
        the square-root branch forced by the Herglotz property (Im F >= 0)
        and the decay F(z) ~ -coupling^2/z at infinity."""
        k = self.hopping
        kap2 = self.coupling * self.coupling
        d = 2.0 * k * k
        F = np.empty(np.shape(E), dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):
            # Outside the band |4k^2 - E^2| is E^2 - 4k^2 bit for bit.
            root = np.sqrt(np.abs(4.0 * k * k - E * E))
            # In the band F = kap2 * complex(-E, root) / d, written in the
            # real arithmetic of Python's complex product and quotient, where
            # kap2 and d carry an imaginary part 0.0 (numpy's complex
            # division rounds otherwise). Outside, F is real, and root takes
            # the sign of E.
            p, q = kap2 * -E - 0.0 * root, kap2 * root + 0.0 * -E
            inside = np.abs(E) < 2.0 * k
            F.real = np.where(inside, (p + q * 0.0) / d, kap2 * (-E + np.copysign(root, E)) / d)
            F.imag = np.where(inside, (q - p * 0.0) / d, 0.0)
        return F

    def band(self) -> EnergyWindow:
        k = self.hopping
        return EnergyWindow(((-2.0 * k, 2.0 * k),))


class TabulatedLead:
    """F(E+i0) sampled on a grid, interpolated linearly in Re and Im. Not
    modified after construction."""

    __slots__ = ("energies", "re_f", "im_f")

    def __init__(self, energies, re_f, im_f):
        e = np.asarray(energies, dtype=float)
        re = np.asarray(re_f, dtype=float)
        im = np.asarray(im_f, dtype=float)
        if not (len(e) == len(re) == len(im)) or len(e) < 2:
            raise ConfigError("lead table: need >= 2 rows of equal length columns")
        if not np.all(np.isfinite((e, re, im))):
            raise ConfigError("lead table: entries must be finite")
        if not np.all(np.diff(e) > 0):
            raise ConfigError("lead table: energies must be strictly increasing")
        if np.any(im < -1e-12):
            raise ConfigError("lead table: Im F must be >= 0")
        # Herglotz sign constraint: tiny negative entries are rounding.
        self.energies, self.re_f, self.im_f = e, re, np.maximum(im, 0.0)

    @classmethod
    def from_csv(cls, path: str) -> "TabulatedLead":
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        if not rows or [h.strip() for h in rows[0]] != ["E", "re_F", "im_F"]:
            raise ConfigError(f"lead table {path}: expected header 'E,re_F,im_F'")
        try:
            data = np.array([[float(v) for v in row] for row in rows[1:] if row])
        except ValueError as exc:
            raise ConfigError(f"lead table {path}: non-numeric entry ({exc})")
        if data.ndim != 2 or data.shape[1] != 3:
            raise ConfigError(f"lead table {path}: expected 3 columns")
        return cls(data[:, 0], data[:, 1], data[:, 2])

    def boundary(self, E: np.ndarray) -> np.ndarray:
        """F(E+i0) at each energy of the float array E, as a complex array.
        An energy outside the table raises DomainError, naming the first."""
        e = self.energies
        outside = (E < e[0]) | (E > e[-1])
        if outside.any():
            raise DomainError(f"E={np.extract(outside, E)[0]} outside table range [{e[0]}, {e[-1]}]")
        im = np.interp(E, e, self.im_f)
        F = np.empty(np.shape(E), dtype=complex)
        F.real = np.interp(E, e, self.re_f)
        F.imag = np.where(im > 0.0, im, 0.0)
        return F

    def band(self) -> EnergyWindow:
        e, im = self.energies, self.im_f
        intervals = []
        lo = None
        for i in range(len(e)):
            if im[i] > 0 and lo is None:
                if i == 0:
                    lo = e[0]
                else:
                    # linear zero crossing between grid points
                    f = im[i] / (im[i] - im[i - 1])
                    lo = e[i] - f * (e[i] - e[i - 1])
            elif im[i] <= 0 and lo is not None:
                f = im[i - 1] / (im[i - 1] - im[i])
                intervals.append((lo, e[i - 1] + f * (e[i] - e[i - 1])))
                lo = None
        if lo is not None:
            intervals.append((lo, e[-1]))
        return EnergyWindow(tuple(intervals))


LeadModel = Union[SemiInfiniteLaplacian, TabulatedLead]

TYPES = {"semi_infinite": SemiInfiniteLaplacian, "tabulated": TabulatedLead.from_csv}


@dataclass(frozen=True)
class EnergyWindow:
    """Disjoint open intervals of energies, sorted and non-touching."""

    intervals: tuple = field(default=())

    def __post_init__(self):
        ivs = tuple((float(a), float(b)) for a, b in self.intervals if b > a)
        for (a1, b1), (a2, b2) in zip(ivs, ivs[1:]):
            if a2 < b1:
                raise ValueError("intervals must be disjoint and sorted")
        object.__setattr__(self, "intervals", ivs)

    @property
    def is_empty(self) -> bool:
        return len(self.intervals) == 0

    def contains(self, E):
        """Whether each energy of the float array E lies in the window."""
        lo, hi = np.reshape(self.intervals, (-1, 2)).T
        E = np.asarray(E, dtype=float)[..., None]
        return ((lo < E) & (E < hi)).any(axis=-1)

    def shrink(self, margin: float) -> EnergyWindow:
        """Remove a margin at each endpoint of every interval."""
        return EnergyWindow(
            tuple(
                (a + margin, b - margin)
                for a, b in self.intervals
                if b - a > 2 * margin
            )
        )


def weiss_boundary(lead: LeadModel, E):
    """F(E+i0) for the given lead at a float E, as a Python complex, or at
    each energy of a float array E, as a list of them."""
    return lead.boundary(np.asarray(E, dtype=float)).tolist()


def sigma_intersection(left: LeadModel, right: LeadModel) -> EnergyWindow:
    """Intersection of the two band supports; empty means no open channel."""
    out = []
    for a1, b1 in left.band().intervals:
        for a2, b2 in right.band().intervals:
            lo, hi = max(a1, a2), min(b1, b2)
            if hi > lo:
                out.append((lo, hi))
    out.sort()
    return EnergyWindow(tuple(out))
