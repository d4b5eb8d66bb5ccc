"""Growing-L studies: sweeps of the entropy density against transfer norms.

For a fixed energy the entropy density sigma_L(E) and the transfer norm
||T_L(E)|| are tracked over a checkpoint sequence in L. Empirically,
vanishing transport coincides with divergent transfer norms; the
classifier below labels each energy from finite-L evidence only, and every
report carries the L_max actually used. No claim is made about the true
infinite-L behavior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import DomainError, NumericalFailure
from .fluxes import evaluate_point, self_energies, spectral_densities
from .green import is_resonant
from .leads import LeadModel, sigma_intersection
from .model import SampleSpec, ThermoParams, check_length
from .transfer import checkpoint_products, log_spectral_norm

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


def _sigma_envelope(E, T_of_E, thermo: ThermoParams) -> float:
    """Crude explicit upper bound on the entropy density."""
    bmax = max(thermo.beta_l, thermo.beta_r)
    bmin = min(thermo.beta_l, thermo.beta_r)
    return 4.0 * T_of_E * bmax * (abs(E) + abs(thermo.mu_l) + abs(thermo.mu_r) + 2.0 / bmin)


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


def _checked_sweep_inputs(energies, lead_l: LeadModel, lead_r: LeadModel, checkpoints) -> list:
    """The checkpoints as a list, after the checks of L-sweeps at the given
    energies (see `l_sweep`)."""
    cps = check_checkpoints(checkpoints)
    window = sigma_intersection(lead_l, lead_r)
    for E in energies:
        if not window.contains(E):
            raise DomainError(f"E={E} is outside the band intersection; sigma vanishes trivially")
    return cps


def _sweep_points(sample: SampleSpec, pot, E, lead_l, lead_r, thermo: ThermoParams, cps: list) -> list:
    """The L-sweep of a sample at a checked energy (see `l_sweep`); pot is
    the sample's potential on sites 0..cps[-1]."""
    se = self_energies(lead_l, lead_r, E)
    points = []
    for L, T in checkpoint_products(pot, E, cps):
        tau, residual = evaluate_point(sample, E, L, se)
        _, _, sigma = spectral_densities(E, tau, thermo)
        if sigma > _sigma_envelope(E, tau, thermo):
            raise NumericalFailure(f"entropy density {sigma} exceeds its explicit envelope at L={L}")
        points.append(LSweepPoint(L, sigma, tau, log_spectral_norm(T), is_resonant(T), residual))
    return points


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
    """
    cps = _checked_sweep_inputs((E,), lead_l, lead_r, checkpoints)
    pot = sample.potential[: cps[-1] + 1]
    return _sweep_points(sample, pot, E, lead_l, lead_r, thermo, cps)


def _fit(xs, ys):
    """Least-squares slope of ys against xs and its r^2, computed as
    scipy.stats.linregress computes them. xs and ys are float arrays."""
    if len(xs) < 2 or ys.max() - ys.min() == 0.0:
        # Degenerate fit; a flat series has slope 0 and perfect quality.
        return 0.0, 1.0
    # np.cov(xs, ys, bias=1), operation for operation, without its
    # argument handling.
    X = np.stack((xs, ys))
    X -= X.mean(axis=1)[:, None]
    (ssxm, ssxym), (_, ssym) = np.dot(X, X.T.conj()) * (1.0 / len(xs))
    r = min(1.0, max(-1.0, ssxym / np.sqrt(ssxm * ssym)))
    return float(ssxym / ssxm), float(r**2)


def _median(values) -> float:
    """The median of finite values as np.median computes it: the middle
    sorted value, or the mean of the two middle ones."""
    s = sorted(values)
    k = len(s) // 2
    return s[k] if len(s) % 2 else (s[k - 1] + s[k]) / 2


def classify_transport(
    sweep: Sequence[LSweepPoint],
    thresholds: ClassificationThresholds = ClassificationThresholds(),
) -> TransportClassification:
    """Label an L-sweep as persistent, vanishing, or indeterminate, and say
    whether the label contradicts the transfer norms."""
    Ls = np.array(check_checkpoints([p.L for p in sweep]), dtype=float)
    return _classify(sweep, Ls, thresholds)


def _classify(sweep, Ls: np.ndarray, thresholds: ClassificationThresholds) -> TransportClassification:
    """`classify_transport` of a sweep whose checkpoints Ls (floats) are checked."""
    l_max = int(Ls[-1])
    sigmas = np.array([p.sigma_density for p in sweep])
    norms = np.array([p.log_transfer_norm for p in sweep])

    norm_slope, norm_r2 = _fit(Ls, norms)
    bounded = norm_slope < thresholds.bounded_norm_slope_factor / l_max
    alive = sigmas > SIGMA_UNDERFLOW_FLOOR
    underflowed = bool(np.any(~alive))
    if np.any(alive):
        sigma_slope, sigma_r2 = _fit(Ls[alive], np.log(sigmas[alive]))
    else:
        sigma_slope, sigma_r2 = -math.inf, 1.0

    vanishing = underflowed or (
        sigma_slope < -thresholds.vanishing_slope_factor / l_max
        and sigma_r2 > thresholds.vanishing_r2
    )
    persistent = (
        not underflowed
        and float(sigmas.min()) > thresholds.persistent_floor * _median(sigmas.tolist())
        and bounded
    )
    # A contradiction is a vanishing label with bounded norms, or a
    # persistent label with clearly growing norms.
    if vanishing:
        label, contradiction = "vanishing", bounded
    elif persistent:
        label = "persistent"
        contradiction = norm_slope > thresholds.divergent_norm_slope_factor / l_max
    else:
        label, contradiction = "indeterminate", False
    return TransportClassification(
        label, norm_slope, norm_r2, sigma_slope, sigma_r2, l_max, underflowed, contradiction
    )


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
    at each checkpoint L (see `l_sweep`). The checkpoints and energies are
    checked once, before any energy's sweep."""
    cps = _checked_sweep_inputs(grid, lead_l, lead_r, checkpoints)
    pot = sample.potential[: cps[-1] + 1]
    Ls = np.array(cps, dtype=float)
    rows = []
    for E in grid:
        sweep = _sweep_points(sample, pot, E, lead_l, lead_r, thermo, cps)
        cls = _classify(sweep, Ls, thresholds)
        rows.append(
            EquivalenceRow(
                E, cls.label, cls.norm_slope, cls.sigma_slope, sweep[-1].sigma_density,
                cls.contradiction, max(p.unitarity_residual for p in sweep),
            )
        )
    return rows
