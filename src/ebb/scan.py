"""Growing-L studies: sweeps of the entropy density against transfer norms.

For a fixed energy the entropy density sigma_L(E) and the transfer norm
||T_L(E)|| are tracked over a checkpoint sequence in L. Empirically,
vanishing transport coincides with divergent transfer norms; the
classifier below labels each energy from finite-L evidence only, and every
report carries the L_max actually used. No claim is made about the true
infinite-L behavior.

Both L-sweep commands take one route: the kernels fill an energies x
checkpoints table, and the envelope check, the fits and the labels then run
as array operations, row by row, on the whole table. `l_sweep` and
`classify_transport` are its one-energy case.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import DomainError, NumericalFailure
from .fluxes import evaluate_point, self_energies, spectral_densities
from .leads import LeadModel, sigma_intersection
from .model import SampleSpec, ThermoParams, check_length
from .transfer import checkpoint_products, is_resonant, log_spectral_norm

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


def _check_envelope(grid, cps: list, taus: array, sigmas: array, thermo: ThermoParams):
    """Raise NumericalFailure at the first point swept so far (len(cps) per
    energy), in grid order, whose sigma exceeds a crude explicit bound."""
    bmax, bmin = max(thermo.beta_l, thermo.beta_r), min(thermo.beta_l, thermo.beta_r)
    energy_term = abs(np.array(grid, dtype=float)) + abs(thermo.mu_l) + abs(thermo.mu_r) + 2.0 / bmin
    bound = 4.0 * np.frombuffer(taus) * bmax * np.repeat(energy_term, len(cps))[: len(taus)]
    over = np.flatnonzero(np.frombuffer(sigmas) > bound)
    if over.size:
        k = over[0]
        L = cps[k % len(cps)]
        raise NumericalFailure(f"entropy density {sigmas[k]} exceeds its explicit envelope at L={L}")


def _sweep_table(sample: SampleSpec, grid, lead_l, lead_r, thermo: ThermoParams, checkpoints):
    """The checked checkpoints cps, and the L-sweeps at the grid energies
    (see `l_sweep`) as len(grid) x len(cps) tables of the `LSweepPoint`
    fields after L, in field order. The kernels run per energy or point;
    the envelope check once, on the whole table."""
    cps = check_checkpoints(checkpoints)
    window = sigma_intersection(lead_l, lead_r)
    for E in grid:
        if not window.contains(E):
            raise DomainError(f"E={E} is outside the band intersection; sigma vanishes trivially")
    pot = sample.potential[: cps[-1] + 1]
    # Typed arrays, not lists of float objects: on 400 energies x 13
    # checkpoints, lists raised the command's peak RSS by about 0.5 MB more.
    sigmas, taus, norms, residuals = (array("d") for _ in range(4))
    flags = array("b")
    columns = sigmas, taus, norms, flags, residuals
    try:
        for E in grid:
            se = self_energies(lead_l, lead_r, E)
            for L, T in checkpoint_products(pot, E, cps):
                tau, residual = evaluate_point(sample, E, L, se)
                sigmas.append(spectral_densities(E, tau, thermo)[2])
                taus.append(tau)
                residuals.append(residual)
                norms.append(log_spectral_norm(T))
                flags.append(is_resonant(T))
    finally:
        # Also when a later point failed: the first failure in grid order
        # is the one reported.
        _check_envelope(grid, cps, taus, sigmas, thermo)
    tables = [np.frombuffer(c, dtype=bool if c is flags else float) for c in columns]
    return cps, [t.reshape(len(grid), len(cps)) for t in tables]


def l_sweep(
    sample: SampleSpec,
    E: float,
    lead_l: LeadModel,
    lead_r: LeadModel,
    thermo: ThermoParams,
    checkpoints: Sequence[int],
) -> list:
    """Entropy density, transmission, and transfer norm at each checkpoint.

    The sample at checkpoint L is sites 0..L of the sample (prefix
    stability); a checkpoint past sample.length raises ValueError before
    any solve. The transfer norms come from a single scaled product pass
    over sites 0..checkpoints[-1]; the Green-function pipeline runs
    independently per checkpoint, with the self-energies of E built once.
    This is the one-energy row of the `equivalence_rows` table.
    """
    cps, table = _sweep_table(sample, (E,), lead_l, lead_r, thermo, checkpoints)
    return list(map(LSweepPoint, cps, *(column[0].tolist() for column in table)))


def _fit(xs, ys):
    """Least-squares slope against xs, and its r^2, of each series along the
    last axis of ys (float arrays), as scipy.stats.linregress computes them."""
    # np.cov(xs, y, bias=1) of each series y, operation for operation,
    # without its argument handling.
    X = np.stack(np.broadcast_arrays(xs, ys), axis=-2)
    X -= X.mean(axis=-1)[..., None]
    C = np.matmul(X, np.swapaxes(X, -1, -2)) * (1.0 / xs.size)
    ssxm, ssxym, ssym = C[..., 0, 0], C[..., 0, 1], C[..., 1, 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.clip(ssxym / np.sqrt(ssxm * ssym), -1.0, 1.0)
        slope = ssxym / ssxm
    # Degenerate fit; a flat series has slope 0 and perfect quality.
    flat = (xs.size < 2) | (ys.max(axis=-1) - ys.min(axis=-1) == 0.0)
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
    sigma_slope, sigma_r2 = np.full(len(sigmas), -math.inf), np.ones(len(sigmas))
    sigma_slope[whole], sigma_r2[whole] = _fit(Ls, np.log(sigmas[whole]))
    # A row with underflowed points is fitted on its alive points, if any.
    for i in np.flatnonzero(~whole & alive.any(axis=1)):
        sigma_slope[i], sigma_r2[i] = _fit(Ls[alive[i]], np.log(sigmas[i, alive[i]]))

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
    """Full pipeline at each grid energy; failures are recorded per point."""
    out = []
    for E in grid:
        try:
            se = self_energies(lead_l, lead_r, E)
            tau, residual = evaluate_point(sample, E, sample.length, se)
            out.append(EnergyPoint(E, tau, *spectral_densities(E, tau, thermo), residual))
        except (DomainError, NumericalFailure) as exc:
            out.append(
                EnergyPoint(E, math.nan, math.nan, math.nan, math.nan, math.nan, str(exc))
            )
    return out


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
