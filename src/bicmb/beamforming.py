"""SVD beamforming over the composite channel.

Decomposing the channel and transmitting each stream along a right
singular vector turns the matrix channel into independent scalar
subchannels y_s = lambda_s * x_s + n_s, one per retained mode.  Only the
singular values matter for the coded link, so the simulator works on
them directly; the full decomposition (with a fixed phase convention)
is exposed for spectrum inspection and tests.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization, FadingProfile
from .errors import NumericalError

__all__ = [
    "BeamformingDecomposition",
    "StreamGains",
    "decompose",
    "stream_gains",
    "singular_values",
    "predicted_gains",
    "numerical_rank",
]

# Relative threshold below which a singular value counts as zero: the
# noise floor of double-precision SVD at these matrix sizes.
RANK_TOLERANCE = 1e-8

# An entry counts as the "first nonzero" of a singular vector when it
# exceeds this fraction of the vector's largest magnitude; keeps the
# phase pivot away from roundoff-level entries.
_PHASE_PIVOT_TOL = 1e-8


@dataclass(frozen=True)
class BeamformingDecomposition:
    """Thin SVD of the channel, singular values in decreasing order.

    Phase convention: each right singular vector's first nonzero entry is
    real and positive, so equal inputs give identical decompositions.
    """

    left_vectors: np.ndarray
    singular_values: np.ndarray
    right_vectors: np.ndarray

    @property
    def rank(self) -> int:
        return numerical_rank(self.singular_values)


@dataclass(frozen=True)
class StreamGains:
    """The per-stream amplitudes of the retained subchannels."""

    gains: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.gains, dtype=np.float64)
        if g.ndim != 1 or g.size < 1:
            raise ValueError("gains must be a non-empty vector")
        if np.any(np.diff(g) > 0):
            raise ValueError("gains must be nonincreasing")
        object.__setattr__(self, "gains", g)

    @property
    def n_streams(self) -> int:
        return self.gains.size


def _channel_matrix(channel) -> np.ndarray:
    return channel.h if isinstance(channel, ChannelRealization) else np.asarray(channel)


def decompose(channel) -> BeamformingDecomposition:
    """Full thin SVD with the deterministic phase convention.

    Accepts a ChannelRealization or a plain complex matrix.
    """
    h = _channel_matrix(channel)
    try:
        u, s, vh = np.linalg.svd(h, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            "SVD failed to converge on a channel realization",
            seed=getattr(channel, "seed", None)) from exc

    v = vh.conj().T
    for k in range(s.size):
        col = v[:, k]
        nz = np.flatnonzero(np.abs(col) > _PHASE_PIVOT_TOL * np.abs(col).max())
        if nz.size == 0:
            continue
        phase = col[nz[0]] / abs(col[nz[0]])
        v[:, k] = col / phase
        u[:, k] = u[:, k] / phase
    return BeamformingDecomposition(u, s, v)


def singular_values(channel) -> np.ndarray:
    """Singular values only; the fast path used by the Monte Carlo loop.

    A stack of matrices (..., m, n) gives one row of values per matrix.
    """
    h = _channel_matrix(channel)
    try:
        return np.linalg.svd(h, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            "SVD failed to converge on a channel realization",
            seed=getattr(channel, "seed", None)) from exc


def stream_gains(decomp: BeamformingDecomposition, n_s: int,
                 l_t: int | None = None) -> StreamGains:
    """Amplitudes of the n_s strongest subchannels.

    When the total path count l_t is supplied and n_s exceeds it, the
    extra streams ride on numerically-zero modes; that is allowed (it
    reproduces the rank-starved regime) but worth a warning.
    """
    s = decomp.singular_values
    if n_s < 1:
        raise ValueError("need at least one stream")
    if n_s > s.size:
        raise ValueError(f"{n_s} streams exceed the channel dimension {s.size}")
    if l_t is not None and n_s > l_t:
        warnings.warn(
            f"{n_s} streams over a channel with only {l_t} propagation "
            f"paths; the extra streams see zero gain", stacklevel=2)
    return StreamGains(s[:n_s].copy())


def predicted_gains(blocks, profile: FadingProfile, n_r: int, n_t: int) -> np.ndarray:
    """Large-array prediction of the composite singular values.

    As both arrays grow, steering vectors become orthogonal and each path
    contributes one singular value sqrt(beta_ij * N_r * N_t / L_ij) * |gain|.
    Returns the predictions sorted in decreasing order (zero-power blocks
    contribute zeros).
    """
    vals = []
    for i in range(profile.m_r):
        for j in range(profile.m_t):
            ps = blocks[i][j]
            scale = np.sqrt(profile.beta[i, j] * n_r * n_t / ps.n_paths)
            vals.append(scale * np.abs(ps.gains))
    return np.sort(np.concatenate(vals))[::-1]


def numerical_rank(values: np.ndarray, rel_tol: float = RANK_TOLERANCE) -> int:
    """Count singular values above rel_tol times the largest."""
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0 or v[0] <= 0.0:
        return 0
    return int(np.count_nonzero(v > rel_tol * v[0]))
