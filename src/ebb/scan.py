"""Growing-L studies: sweeps of the entropy density against transfer norms.

For a fixed energy the entropy density sigma_L(E) and the transfer norm
||T_L(E)|| are tracked over a checkpoint sequence in L. Empirically,
vanishing transport coincides with divergent transfer norms; the
classifier below labels each energy from finite-L evidence only, and every
report carries the L_max actually used. No claim is made about the true
infinite-L behavior.

Both L-sweep commands take one route: `fluxes.node_table` fills one
energies x checkpoints table, and the fits and labels then run as array
operations, row by row, on the whole table; `l_sweep` is its one-energy case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import count
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import DomainError
from .fluxes import node_table
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


class TransportClassification(NamedTuple):
    label: str  # persistent | vanishing | indeterminate
    norm_slope: float
    norm_r2: float
    sigma_slope: float
    sigma_r2: float
    l_max: int
    underflowed: bool
    # Finite-L evidence against the norm/transport equivalence.
    contradiction: bool


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


def _sweep_table(sample: SampleSpec, grid, lead_l, lead_r, thermo: ThermoParams, checkpoints):
    """The checked checkpoints cps, and the L-sweeps at the grid energies
    (see `l_sweep`) as the `LSweepPoint` fields after L, in field order, each
    a len(grid) x len(cps) float array, from one `fluxes.node_table`. Each
    energy's one transfer pass gives T_L at every checkpoint, whose norm is
    read as the kernel takes it. The first failure in grid order is raised."""
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


def l_sweep(
    sample: SampleSpec,
    E: float,
    lead_l: LeadModel,
    lead_r: LeadModel,
    thermo: ThermoParams,
    checkpoints: Sequence[int],
) -> list:
    """Entropy density, transmission, and transfer norm at each checkpoint
    L, on sites 0..L of the sample, from one transfer pass over sites
    0..checkpoints[-1]; a checkpoint past sample.length raises ValueError
    before any solve. This is the one-energy row of the `equivalence_rows`
    table, and fails as it does (see `_sweep_table`)."""
    cps, columns = _sweep_table(sample, (E,), lead_l, lead_r, thermo, checkpoints)
    return [LSweepPoint(L, s, t, n, bool(f), r) for L, s, t, n, f, r in zip(cps, *(c[0].tolist() for c in columns))]


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


def classify_transport(
    sweep: Sequence[LSweepPoint],
    thresholds: ClassificationThresholds = ClassificationThresholds(),
) -> TransportClassification:
    """Label an L-sweep as persistent, vanishing, or indeterminate, and say
    whether the label contradicts the transfer norms: the one-energy case
    of `_classify_table`."""
    cps = check_checkpoints([p.L for p in sweep])
    table = np.array([[p.sigma_density for p in sweep], [p.log_transfer_norm for p in sweep]])
    columns = _classify_table(cps, table[:1], table[1:], thresholds)
    label, *fits, underflowed, contradiction = (c.item() for c in columns)
    return TransportClassification(label, *fits, cps[-1], underflowed, contradiction)


def _classify_table(cps: list, sigmas, norms, thresholds: ClassificationThresholds) -> tuple:
    """`classify_transport` of each row of the sigma and norm tables (a
    column per checked checkpoint of cps), as arrays: label, the slopes and
    r^2 of norm and sigma, underflowed and contradiction. Every operation
    acts row by row, independent of the other rows."""
    Ls, l_max = np.array(cps, dtype=float), cps[-1]
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
    label = np.where(vanishing, "vanishing", np.where(persistent, "persistent", "indeterminate"))
    # A contradiction is a vanishing label with bounded norms, or a
    # persistent label with clearly growing norms.
    growing = norm_slope > thresholds.divergent_norm_slope_factor / l_max
    contradiction = np.where(vanishing, bounded, persistent & growing)
    return label, norm_slope, norm_r2, sigma_slope, sigma_r2, ~whole, contradiction


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
    at each checkpoint L (see `l_sweep`), from one sweep table classified at
    once. The checkpoints and energies are checked once, before any solve."""
    cps, (sigmas, _, norms, _, residuals) = _sweep_table(sample, grid, lead_l, lead_r, thermo, checkpoints)
    classes = _classify_table(cps, sigmas, norms, thresholds)
    label, norm_slope, _, sigma_slope, _, _, contradiction = classes
    columns = label, norm_slope, sigma_slope, sigmas[:, -1], contradiction, residuals.max(axis=1)
    return list(map(EquivalenceRow, grid, *(c.tolist() for c in columns)))
