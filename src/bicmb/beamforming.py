"""SVD beamforming over the composite channel.

Decomposing the channel and transmitting each stream along a right
singular vector turns the matrix channel into independent scalar
subchannels y_s = lambda_s * x_s + n_s, one per retained mode.  Only the
singular values matter for the coded link, so the simulator works on
them directly, and the sweep takes them from the path factors of the
channel without forming it.
"""

from __future__ import annotations

import numpy as np

from .channel import ChannelRealization, ula_response
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


def _path_singular_values(profile, blocks, rx, tx, n_s: int,
                          svd=singular_values) -> np.ndarray:
    """The top ``n_s`` singular values of a batch of channels, one row
    per draw, from their path sets alone.

    The channel is H = U diag(d) V^H.  Column p of U (V) is path p's
    receive (transmit) steering vector in its pair's row (column) block,
    and d_p is sqrt(beta_ij N_r N_t / L_ij) times its gain.  With the
    thin QR factors U = Q_U R_U and V = Q_V R_V, the nonzero singular
    values of H are those of the at most L_t x L_t core
    R_U diag(d) R_V^H.  ``svd`` maps the stack of cores to their
    values; rows are zero-padded past them.
    """
    n_r, n_t = rx.n_elements, tx.n_elements
    batch = blocks[0][0].gains.shape[0]
    l_t = profile.total_paths
    u = np.zeros((batch, profile.m_r * n_r, l_t), dtype=complex)
    v = np.zeros((batch, profile.m_t * n_t, l_t), dtype=complex)
    d = np.empty((batch, l_t), dtype=complex)
    col = 0
    for i, row in enumerate(blocks):
        for j, ps in enumerate(row):
            cols = slice(col, col + ps.n_paths)
            u[:, i * n_r:(i + 1) * n_r, cols] = ula_response(ps.aoa, rx)
            v[:, j * n_t:(j + 1) * n_t, cols] = ula_response(ps.aod, tx)
            d[:, cols] = np.sqrt(profile.beta[i, j] * n_r * n_t
                                 / ps.n_paths) * ps.gains
            col += ps.n_paths
    r_u = np.linalg.qr(u, mode="r")
    r_v = np.linalg.qr(v, mode="r")
    sv = svd((r_u * d[:, None, :]) @ r_v.conj().swapaxes(-1, -2))
    out = np.zeros((batch, n_s))
    k = min(n_s, sv.shape[-1])
    out[:, :k] = sv[:, :k]
    return out
