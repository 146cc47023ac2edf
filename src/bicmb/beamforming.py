"""SVD beamforming over the composite channel.

Decomposing the channel and transmitting each stream along a right
singular vector turns the matrix channel into independent scalar
subchannels y_s = lambda_s * x_s + n_s, one per retained mode.  Only the
singular values matter for the coded link, so the simulator works on
them directly.
"""

from __future__ import annotations

import numpy as np

from .channel import ChannelRealization
from .errors import NumericalError

__all__ = ["singular_values", "predicted_gains"]


def singular_values(channel) -> np.ndarray:
    """Singular values only; the fast path used by the Monte Carlo loop.

    Accepts a ChannelRealization or a plain complex matrix.  A stack of
    matrices (..., m, n) gives one row of values per matrix.
    """
    h = channel.h if isinstance(channel, ChannelRealization) else np.asarray(channel)
    try:
        return np.linalg.svd(h, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            "SVD failed to converge on a channel realization",
            seed=getattr(channel, "seed", None)) from exc


def predicted_gains(channel: ChannelRealization) -> np.ndarray:
    """Large-array prediction of the composite singular values.

    As both arrays grow, steering vectors become orthogonal and each path
    contributes one singular value sqrt(beta_ij * N_r * N_t / L_ij) * |gain|.
    Returns the predictions sorted in decreasing order on the last axis,
    one row per draw of a batched realization (zero-power blocks
    contribute zeros).
    """
    profile = channel.profile
    n_r, n_t = channel.n_r, channel.n_t
    vals = []
    for i in range(profile.m_r):
        for j in range(profile.m_t):
            ps = channel.blocks[i][j]
            scale = np.sqrt(profile.beta[i, j] * n_r * n_t / ps.n_paths)
            vals.append(scale * np.abs(ps.gains))
    return np.sort(np.concatenate(vals, axis=-1), axis=-1)[..., ::-1]
