"""Growing-L studies: sweeps of the entropy density against transfer norms.

For a fixed energy the entropy density sigma_L(E) and the transfer norm
||T_L(E)|| are tracked over a checkpoint sequence in L. Empirically,
vanishing transport coincides with divergent transfer norms; the
classifier below labels each energy from finite-L evidence only, and every
report carries the L_max actually used. No claim is made about the true
infinite-L behavior.

Both L-sweep commands take one route: `l_sweep` fills one energies x
checkpoints table from `fluxes.node_table`, and `classify_transport` runs
the fits and labels as array operations, row by row, on the whole table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import count
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import DomainError
from .fluxes import node_table, thermal_factors
from .leads import LeadModel, sigma_intersection
from .model import SampleSpec, ThermoParams, check_length
from .transfer import checkpoint_products, end_products, norm_and_resonance

# Below this the density has decayed hundreds of decades: its logarithm is
# no longer fit-worthy and the point is decisive evidence of vanishing.
SIGMA_UNDERFLOW_FLOOR = 1e-200


# The records built once per energy or checkpoint are NamedTuples, which
# build about three times faster than frozen dataclasses.
class LSweepPoint(NamedTuple):
    L: int
    sigma_density: float
    transmission: float
    log_transfer_norm: float
    resonance_flag: bool
    unitarity_residual: float = 0.0


@dataclass(frozen=True)
class ClassificationThresholds:
    """Finite-L labeling heuristics; tunable, reported alongside L_max."""

    vanishing_slope_factor: float = 10.0   # slope < -factor/L_max
    vanishing_r2: float = 0.8
    persistent_floor: float = 0.5          # min sigma > floor * median
    bounded_norm_slope_factor: float = 1.0  # norm slope < factor/L_max
    divergent_norm_slope_factor: float = 10.0  # contradiction screening


class EnergyPoint(NamedTuple):
    E: float
    transmission: float
    phi_l: float
    j_l: float
    sigma: float
    unitarity_residual: float
    error: Optional[str] = None


class EquivalenceRow(NamedTuple):
    E: float
    label: str
    norm_slope: float
    sigma_slope: float
    sigma_at_l_max: float
    contradiction: bool
    max_unitarity_residual: float


def check_checkpoints(checkpoints: Sequence[int]) -> list:
    """The checkpoint rule of an L-sweep that gets classified: a nonempty
    increasing sequence of integers >= 1, at least 8 long and spanning a
    factor 10 in L, whose last entry is a valid sample length (see
    `check_length`). Returns the checkpoints as a list of ints."""
    cps = [int(c) for c in checkpoints]
    if not (cps and cps[0] >= 1 and all(a < b for a, b in zip(cps, cps[1:]))):
        raise DomainError("l_checkpoints: expected a nonempty increasing list of integers >= 1")
    check_length(cps[-1], "l_checkpoints")
    if len(cps) < 8:
        raise DomainError("l_checkpoints: need at least 8 checkpoints to classify")
    if cps[-1] < 10 * cps[0]:
        raise DomainError("l_checkpoints: must span at least a factor 10 in L")
    return cps


def l_sweep(sample: SampleSpec, grid, lead_l: LeadModel, lead_r: LeadModel, thermo: ThermoParams, checkpoints):
    """The checked checkpoints cps, and the L-sweeps at the grid energies as
    the `LSweepPoint` fields after L, in field order, each a len(grid) x
    len(cps) float array whose column L is sites 0..L of the sample, from one
    `fluxes.node_table`. Each energy's one transfer pass gives T_L at every
    checkpoint, whose norm is read as the kernel takes it. The checkpoints and
    energies are checked before any solve; the first failure in grid order is raised."""
    cps = check_checkpoints(checkpoints)
    energies = np.asarray(grid, dtype=float)
    outside = ~sigma_intersection(lead_l, lead_r).contains(energies)
    if outside.any():
        raise DomainError(f"E={grid[outside.argmax()]} is outside the band intersection; sigma vanishes trivially")
    pot, index = sample.potential[: cps[-1] + 1], count()
    log_norm, flag = np.empty((2, len(grid) * len(cps)))

    def products(chunk):
        # Each energy's one transfer pass; each product's norm and flag are
        # written under its flat node index as the kernel takes it.
        for E in chunk.tolist():
            for (_, T), j in zip(checkpoint_products(pot, E, cps), index):
                log_norm[j], flag[j] = norm_and_resonance(T)
                yield T

    tau, residual, densities = node_table(sample, lead_l, lead_r, thermo, energies, cps, products)
    # sigma alone is kept: a copy, so the other densities are freed.
    return cps, (densities[..., 2].copy(), tau, log_norm.reshape(tau.shape), flag.reshape(tau.shape), residual)


def _fit(xs, ys, alive=True):
    """Least-squares slope against xs, and its r^2, of each series along the
    last axis of ys (float arrays), as scipy.stats.linregress computes them on
    the points where `alive` is true; with fewer than two, slope 0 and r^2 1."""
    xs, ys, alive = np.broadcast_arrays(xs, ys, alive)
    n, dead = np.count_nonzero(alive, axis=-1), ~alive[..., None, :]
    # np.cov(xs, y, bias=1) of each series y, operation for operation,
    # without its argument handling. A dead point enters its sums as an
    # exact zero. numpy adds fewer than 8 values in sequence and more in 8
    # partial sums, so where the dead points trail, as an underflowing
    # sigma's do, the sums keep linregress's order unless 4 to 7 points are
    # alive; otherwise they may round differently in the last bit.
    X = np.stack((xs, ys), axis=-2)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.copyto(X, 0.0, where=dead)
        X -= (X.sum(axis=-1) / n[..., None])[..., None]
        np.copyto(X, 0.0, where=dead)
        C = np.matmul(X, np.swapaxes(X, -1, -2))
        C *= (1.0 / n)[..., None, None]
        ssxm, ssxym, ssym = C[..., 0, 0], C[..., 0, 1], C[..., 1, 1]
        r = np.clip(ssxym / np.sqrt(ssxm * ssym), -1.0, 1.0)
        slope = ssxym / ssxm
    # Degenerate fit; a flat series has slope 0 and perfect quality.
    spread = ys.max(axis=-1, where=alive, initial=-math.inf) - ys.min(axis=-1, where=alive, initial=math.inf)
    flat = (n < 2) | (spread == 0.0)
    return np.where(flat, 0.0, slope), np.where(flat, 1.0, r**2)


def _median(values):
    """The median along the last axis as np.median computes it, without the
    0.5 MB of peak RSS that np.median's first call costs."""
    s = np.sort(values, axis=-1)
    k = s.shape[-1] // 2
    return s[..., k] if s.shape[-1] % 2 else (s[..., k - 1] + s[..., k]) / 2


def classify_transport(cps, sigmas, norms, thresholds=ClassificationThresholds(), bias=1.0) -> tuple:
    """Label each row of the sigma and norm tables (a column per checkpoint of
    cps) persistent, vanishing or indeterminate, or no_bias where the row's
    bias, rho_l - rho_r (see `fluxes.thermal_factors`), is exactly 0, so that
    sigma is 0 at every L. As arrays: label, the slopes and r^2 of norm and
    sigma, underflowed and contradiction. Every operation acts row by row."""
    cps = check_checkpoints(cps)
    Ls, l_max, unbiased = np.array(cps, dtype=float), cps[-1], np.equal(bias, 0.0)
    norm_slope, norm_r2 = _fit(Ls, norms)
    bounded = norm_slope < thresholds.bounded_norm_slope_factor / l_max
    alive = sigmas > SIGMA_UNDERFLOW_FLOOR
    whole = alive.all(axis=1)
    # Each row is fitted on its alive points; one with none decays at -inf.
    sigma_slope, sigma_r2 = _fit(Ls, np.log(np.where(alive, sigmas, 1.0)), alive)
    sigma_slope[~alive.any(axis=1)] = -math.inf

    decaying = sigma_slope < -thresholds.vanishing_slope_factor / l_max
    vanishing = ~whole | (decaying & (sigma_r2 > thresholds.vanishing_r2))
    steady = sigmas.min(axis=1) > thresholds.persistent_floor * _median(sigmas)
    persistent = whole & steady & bounded
    label = np.select([unbiased, vanishing, persistent], ["no_bias", "vanishing", "persistent"], "indeterminate")
    # A contradiction is a vanishing label with bounded norms, or a
    # persistent label with clearly growing norms; a row without bias has none.
    growing = norm_slope > thresholds.divergent_norm_slope_factor / l_max
    contradiction = ~unbiased & np.where(vanishing, bounded, persistent & growing)
    return label, norm_slope, norm_r2, sigma_slope, sigma_r2, ~whole & ~unbiased, contradiction


def energy_sweep(
    sample: SampleSpec,
    lead_l: LeadModel,
    lead_r: LeadModel,
    thermo: ThermoParams,
    grid: Sequence[float],
) -> list:
    """Full pipeline at each grid energy: one `fluxes.node_table` at
    L = sample.length, with each chunk's products from one `end_products`
    sweep. A failure fails its energy alone, which records it and reads NaN."""
    faults = {}
    tau, residual, densities = node_table(sample, lead_l, lead_r, thermo, np.asarray(grid, dtype=float),
                                          [sample.length], lambda chunk: end_products(sample.potential, chunk), faults)
    columns = tau[:, 0], *densities[:, 0].T, residual[:, 0]
    errors = (str(faults[i]) if i in faults else None for i in range(len(grid)))
    return list(map(EnergyPoint, grid, *(c.tolist() for c in columns), errors))


def equivalence_rows(
    sample: SampleSpec,
    grid: Sequence[float],
    checkpoints: Sequence[int],
    lead_l: LeadModel,
    lead_r: LeadModel,
    thermo: ThermoParams,
    thresholds: ClassificationThresholds = ClassificationThresholds(),
) -> list:
    """Classification rows for each grid energy, on sites 0..L of the sample
    at each checkpoint L: one `l_sweep` table, classified at once."""
    cps, (sigmas, _, norms, _, residuals) = l_sweep(sample, grid, lead_l, lead_r, thermo, checkpoints)
    bias = thermal_factors(np.asarray(grid, dtype=float), thermo)[0]
    label, norm_slope, _, sigma_slope, _, _, contradiction = classify_transport(cps, sigmas, norms, thresholds, bias)
    columns = label, norm_slope, sigma_slope, sigmas[:, -1], contradiction, residuals.max(axis=1)
    return list(map(EquivalenceRow, grid, *(c.tolist() for c in columns)))
