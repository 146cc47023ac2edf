"""Diversity analysis: Gamma moment matching, Chernoff pairwise-error
bounds, the truncated union bound, and empirical slope estimation.

The composite channel's squared Frobenius norm, normalized by the
per-pair antenna product, is a weighted sum of per-pair path powers:
G = sum_ij (beta_ij / L_ij) * sum_l |gain_l|^2.  Each pair contributes a
Gamma(L_ij, beta_ij / L_ij) term; moment matching the sum to a single
Gamma distribution gives the shape that acts as the diversity order of
the coded link.  The bound machinery turns a code's error events,
their interleaver footprint, and that Gamma fit into BER upper bounds.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import bicm
from .channel import FadingProfile
from .coding import DistanceSpectrum

__all__ = [
    "GammaFit",
    "BoundReport",
    "diversity_gain",
    "gamma_fit",
    "sample_theta",
    "pep_bound",
    "event_usage_counts",
    "union_bound_ber",
    "estimate_slope",
]


@dataclass(frozen=True)
class GammaFit:
    """Shape/scale of the Gamma distribution matched to the normalized
    channel power statistic."""

    shape: float
    scale: float

    @property
    def mean(self) -> float:
        return self.shape * self.scale

    @property
    def variance(self) -> float:
        return self.shape * self.scale ** 2


def diversity_gain(profile: FadingProfile) -> float:
    """High-SNR slope the coded system can achieve on this profile.

    Equals (sum beta_ij)^2 / (sum beta_ij^2 / L_ij); scale-invariant in
    beta, equal to the homogeneous value M_r * M_t * L when all pairs
    share beta and L, and at most the total path count L_t.
    """
    beta = profile.beta
    if not np.any(beta > 0):
        raise ValueError("profile has no power in any subarray pair")
    num = beta.sum() ** 2
    den = (beta ** 2 / profile.paths).sum()
    return float(num / den)


def gamma_fit(profile: FadingProfile) -> GammaFit:
    """Moment-match the summed per-pair Gamma terms to one Gamma law.

    Pair (i, j) contributes shape L_ij and scale beta_ij / L_ij, as the
    path gains have unit second moment.  The fitted shape equals
    :func:`diversity_gain`.
    """
    shapes = profile.paths.astype(np.float64)
    scales = profile.beta / shapes
    mean = (shapes * scales).sum()
    if mean <= 0:
        raise ValueError("profile has no power in any subarray pair")
    var = (shapes * scales ** 2).sum()
    return GammaFit(shape=float(mean ** 2 / var), scale=float(var / mean))


def sample_theta(profile: FadingProfile, n_draws: int,
                 rng: np.random.Generator) -> np.ndarray:
    """Monte Carlo draws of the normalized channel power statistic.

    Draws the per-path complex gains directly (the statistic does not
    depend on the array responses) and returns
    sum_ij (beta_ij / L_ij) * sum_l |gain_l|^2 per realization.
    """
    out = np.zeros(n_draws)
    for i in range(profile.m_r):
        for j in range(profile.m_t):
            l = int(profile.paths[i, j])
            g = rng.normal(scale=np.sqrt(0.5), size=(n_draws, l, 2))
            out += (profile.beta[i, j] / l) * (g ** 2).sum(axis=(1, 2))
    return out


def pep_bound(fit: GammaFit, d_min: float, alpha_min: float, n_s: int,
              n_t: int, l_t: int, snr) -> tuple[np.ndarray, np.ndarray]:
    """Chernoff bound on the pairwise error probability, and its
    high-SNR power-law form.

    ``snr`` is linear and may be an array.  ``n_t`` is the antenna count
    per transmit subarray and scales the Chernoff coefficient linearly;
    ``alpha_min`` is the smallest per-subchannel usage count of the error
    event under consideration.

    Returns (exact, high_snr) with
    exact = 0.5 * (1 + scale * d_min^2 * alpha_min * n_s * n_t * snr / (4 l_t))^(-shape);
    the high-SNR form drops the 1 and decays as snr^(-shape).
    """
    snr = np.asarray(snr, dtype=np.float64)
    coeff = fit.scale * d_min ** 2 * alpha_min * n_s * n_t * snr / (4.0 * l_t)
    exact = 0.5 * (1.0 + coeff) ** (-fit.shape)
    with np.errstate(divide="ignore"):
        high = 0.5 * coeff ** (-fit.shape)
    return exact, high


def _sequence_period(seq: np.ndarray) -> int:
    """Smallest divisor-length period of an integer sequence."""
    n = seq.size
    for p in range(1, n + 1):
        if n % p == 0 and np.array_equal(seq, np.tile(seq[:p], n // p)):
            return p
    return n


def event_usage_counts(subs: np.ndarray, n_substreams: int,
                       positions: np.ndarray, period: int | None = None):
    """Worst-case subchannel usage of error events under all placements.

    ``subs`` maps coded-bit index to subchannel; ``positions`` are an
    event's differing-bit offsets relative to its start, shape (d,), or a
    stack of events of one distance, shape (..., d).  An event may start
    anywhere, so every start offset (modulo the subchannel sequence's
    period) is tried.  Returns (alpha_min, missed) where alpha_min is the
    smallest usage count among subchannels the event actually touches,
    minimized over offsets, and ``missed`` says whether some offset
    leaves a subchannel unused entirely: two scalars for one event,
    else two arrays of shape ``positions.shape[:-1]``.
    """
    positions = np.asarray(positions)
    if period is None:
        period = _sequence_period(subs)
    events = positions.reshape(-1, positions.shape[-1])
    n_events = events.shape[0]
    # subs repeated far enough that offset + position never wraps
    ext = np.resize(subs, period + int(events.max(initial=0)))
    rows = np.arange(n_events)[:, None] * n_substreams
    never = np.iinfo(np.int64).max
    alpha = np.full(n_events, never)
    missed = np.zeros(n_events, dtype=bool)
    for offset in range(period):
        cells = ext[offset:][events]
        cells += rows
        counts = np.bincount(cells.ravel(), minlength=n_events * n_substreams)
        counts = counts.reshape(n_events, n_substreams)
        np.minimum(alpha, np.where(counts > 0, counts, never).min(axis=1),
                   out=alpha)
        missed |= (counts == 0).any(axis=1)
    if positions.ndim == 1:
        return int(alpha[0]), bool(missed[0])
    shape = positions.shape[:-1]
    return alpha.reshape(shape), missed.reshape(shape)


@dataclass
class BoundReport:
    """BER bounds over an SNR grid, with the quantities behind them.

    ``pep`` / ``pep_high_snr`` are the pairwise bounds of the dominant
    (minimum-distance, worst-placement) error event; ``union_bound``
    sums all events of the truncated spectrum weighted by their input
    weights.  ``coverage_ok`` is the subchannel-coverage design
    criterion at window d_free; when it fails the event alignment can
    concentrate on one subchannel and the union bound is reported
    infinite (the diversity protection is void).
    """

    snr_linear: np.ndarray
    pep: np.ndarray
    pep_high_snr: np.ndarray
    union_bound: np.ndarray
    diversity: float
    alpha_min_leading: int
    coverage_ok: bool
    spectrum_truncated: bool


def union_bound_ber(spectrum: DistanceSpectrum, interleaver: bicm.Interleaver,
                    fit: GammaFit, constellation: bicm.Constellation,
                    n_t: int, l_t: int, snr_grid) -> BoundReport:
    """Truncated union bound on the coded bit error probability.

    Every stored error event is mapped through the interleaver at every
    start offset to find its worst-case per-subchannel usage; the
    pairwise Chernoff bounds, weighted by event input weights, sum to
    the bound (rate-1/n codes take one input bit per trellis step).  Events
    beyond a distance's storage cap reuse the worst alpha_min seen at
    that distance, keeping the result an upper bound of the truncated
    sum.
    """
    snr = np.asarray(snr_grid, dtype=np.float64)
    if snr.ndim != 1 or snr.size == 0 or np.any(snr <= 0):
        raise ValueError("snr_grid must be a non-empty vector of positive linear SNRs")
    n_s = interleaver.n_substreams
    d_min = constellation.min_distance
    diversity = fit.shape

    coverage = bicm.check_criteria(interleaver, window=spectrum.d_free)
    subs = interleaver.subchannels()
    period = _sequence_period(subs)

    distances = spectrum.distances()
    truncated = any(spectrum.entries[d].storage_truncated for d in distances)

    if not coverage.coverage_ok:
        exact, high = pep_bound(fit, d_min, 0.0, n_s, n_t, l_t, snr)
        return BoundReport(snr, exact, high, np.full_like(snr, np.inf),
                           diversity, 0, False, truncated)

    # total input weight per distinct alpha_min value, as exact ints
    weight_at_alpha: dict[int, int] = {}
    alpha_min_leading = None
    for d in distances:
        entry = spectrum.entries[d]
        alpha, _ = event_usage_counts(subs, n_s, entry.positions, period)
        values, which = np.unique(alpha, return_inverse=True)
        sums = np.zeros(values.size, dtype=np.int64)
        np.add.at(sums, which, entry.input_weights)
        for a, w_in in zip(values.tolist(), sums.tolist()):
            weight_at_alpha[a] = weight_at_alpha.get(a, 0) + w_in
        worst_alpha = int(values[0])
        if d == spectrum.d_free:
            alpha_min_leading = worst_alpha
        rest = entry.total_input_weight - int(entry.input_weights.sum())
        if rest > 0:
            weight_at_alpha[worst_alpha] = weight_at_alpha.get(worst_alpha, 0) + rest

    union = np.zeros_like(snr)
    for alpha, weight in sorted(weight_at_alpha.items()):
        exact, _ = pep_bound(fit, d_min, alpha, n_s, n_t, l_t, snr)
        union += weight * exact
    pep, pep_high = pep_bound(fit, d_min, alpha_min_leading, n_s, n_t, l_t, snr)

    return BoundReport(snr, pep, pep_high, union, diversity,
                       int(alpha_min_leading), True, truncated)


def estimate_slope(snr_db, ber, window: int = 4) -> float:
    """Diversity estimate from the top-SNR tail of a BER curve.

    Least-squares slope of log10(BER) against SNR in dB over the last
    ``window`` points, scaled to decades per decade (so a pure power law
    BER = SNR^-k returns k).  Zero-BER points carry no slope information
    and are dropped with a warning.
    """
    snr_db = np.asarray(snr_db, dtype=np.float64)
    ber = np.asarray(ber, dtype=np.float64)
    if snr_db.shape != ber.shape or snr_db.ndim != 1:
        raise ValueError("snr_db and ber must be matching vectors")
    if window < 2:
        raise ValueError("window must cover at least 2 points")
    s = snr_db[-window:]
    b = ber[-window:]
    keep = b > 0
    if not np.all(keep):
        warnings.warn(f"dropping {np.count_nonzero(~keep)} zero-BER points "
                      f"from the slope window", stacklevel=2)
        s, b = s[keep], b[keep]
    if s.size < 2:
        raise ValueError("fewer than 2 usable points in the slope window")
    slope_per_db = np.polyfit(s, np.log10(b), 1)[0]
    return float(-10.0 * slope_per_db)
