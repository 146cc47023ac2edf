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

from .channel import ula_response
from .errors import NumericalError

__all__ = ["singular_values", "predicted_gains"]


def singular_values(h) -> np.ndarray:
    """Singular values of a complex matrix, or of each matrix of a stack
    (B, m, n) as one row per matrix.

    When the SVD of a stack fails, the matrices are decomposed one at a
    time, and the first one that fails on its own is named by the
    ``index`` of the NumericalError raised.
    """
    h = np.asarray(h)
    try:
        return np.linalg.svd(h, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        if h.ndim == 2:
            raise NumericalError("SVD failed to converge") from exc
    rows = []
    for k, mat in enumerate(h):
        try:
            rows.append(np.linalg.svd(mat, compute_uv=False))
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                f"SVD failed to converge on matrix {k} of a stack",
                index=k) from exc
    return np.stack(rows)


def _path_amplitudes(profile, rx, tx) -> np.ndarray:
    """sqrt(beta_ij N_r N_t / L_ij) of every path, in row-major block
    order: the order in which a draw's path columns are concatenated."""
    amp = np.sqrt(profile.beta * rx.n_elements * tx.n_elements
                  / profile.paths)
    return np.repeat(amp.ravel(), profile.paths.ravel())


def _path_gains(blocks) -> np.ndarray:
    return np.concatenate([ps.gains for row in blocks for ps in row], axis=-1)


def predicted_gains(profile, blocks, rx, tx) -> np.ndarray:
    """Large-array prediction of the composite singular values.

    As both arrays grow, steering vectors become orthogonal and each path
    contributes one singular value sqrt(beta_ij * N_r * N_t / L_ij) * |gain|.
    ``blocks`` are the path sets of one draw or of a batch; returns the
    predictions sorted in decreasing order on the last axis, one row per
    draw of a batch (zero-power blocks contribute zeros).
    """
    pred = _path_amplitudes(profile, rx, tx) * np.abs(_path_gains(blocks))
    return np.sort(pred, axis=-1)[..., ::-1]


def _path_singular_values(profile, blocks, rx, tx, n_s: int) -> np.ndarray:
    """The top ``n_s`` singular values of a batch of channels, one row
    per draw, from their path sets alone.

    The channel is H = U diag(d) V^H.  Column p of U (V) is path p's
    receive (transmit) steering vector in its pair's row (column) block,
    and d_p is sqrt(beta_ij N_r N_t / L_ij) times its gain.  With the
    thin QR factors U = Q_U R_U and V = Q_V R_V, the nonzero singular
    values of H are those of the at most L_t x L_t core
    R_U diag(d) R_V^H.  Rows are zero-padded past them.
    """
    n_r, n_t = rx.n_elements, tx.n_elements
    d = _path_amplitudes(profile, rx, tx) * _path_gains(blocks)
    batch, l_t = d.shape
    u = np.zeros((batch, profile.m_r * n_r, l_t), dtype=complex)
    v = np.zeros((batch, profile.m_t * n_t, l_t), dtype=complex)
    col = 0
    for i, row in enumerate(blocks):
        for j, ps in enumerate(row):
            cols = slice(col, col + ps.n_paths)
            u[:, i * n_r:(i + 1) * n_r, cols] = ula_response(ps.aoa, rx)
            v[:, j * n_t:(j + 1) * n_t, cols] = ula_response(ps.aod, tx)
            col += ps.n_paths
    r_u = np.linalg.qr(u, mode="r")
    r_v = np.linalg.qr(v, mode="r")
    sv = singular_values((r_u * d[:, None, :]) @ r_v.conj().swapaxes(-1, -2))
    out = np.zeros((batch, n_s))
    k = min(n_s, sv.shape[-1])
    out[:, :k] = sv[:, :k]
    return out
