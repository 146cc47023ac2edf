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


# A frame whose smallest squared Cholesky pivot, in either factor, is
# below this takes both factors from the QR of its steering matrices:
# a Gram factor keeps about half the digits of its nearly dependent
# columns, and 1e-3 keeps every gain within 1e-12 of the full SVD.
_MIN_PIVOT2 = 1e-3


def _ula_gram(phi, group, geometry) -> np.ndarray:
    """Gram matrices a(phi_p)^H a(phi_q) of the unit-norm steering
    vectors of a stack of azimuths (B, L), as (B, L, L).

    Column q of the sweep's steering matrix holds a(phi_q) in the block
    of subarray ``group[q]``, so columns of different groups are
    orthogonal.  Within a group the inner product is the Dirichlet
    kernel e^{j(N-1)x/2} sin(Nx/2) / (N sin(x/2)) of x = psi_q - psi_p,
    psi = 2 pi (d/lambda) sin(phi).  The sum it closes is 2 pi-periodic
    in x, so x is first reduced to [-pi, pi], where it is 1 at x = 0.
    """
    n = geometry.n_elements
    batch, l_t = phi.shape
    p, q = np.triu_indices(l_t, 1)
    same = group[p] == group[q]
    p, q = p[same], q[same]
    psi = 2 * np.pi * geometry.spacing_over_lambda * np.sin(phi)
    x = psi[:, q] - psi[:, p]
    x -= 2 * np.pi * np.round(x / (2 * np.pi))
    half = x / 2
    den = n * np.sin(half)
    ratio = np.divide(np.sin(n * half), den, out=np.ones_like(x),
                      where=den != 0)
    gram = np.zeros((batch, l_t, l_t), dtype=complex)
    gram[:, p, q] = ratio * np.exp(1j * (n - 1) * half)
    gram[:, q, p] = gram[:, p, q].conj()
    gram[:, range(l_t), range(l_t)] = 1
    return gram


def _gram_factor(gram):
    """Upper-triangular R with G = R^H R for each matrix of a stack, by
    columns, and each matrix's smallest squared pivot.

    A pivot below ``_MIN_PIVOT2`` is taken as 1 so that the rest of its
    factor stays finite; callers replace such factors.
    """
    batch, l_t, _ = gram.shape
    r = np.zeros_like(gram)
    min_pivot2 = np.full(batch, np.inf)
    for k in range(l_t):
        # row k of R: what rows 0..k-1 leave of row k of G
        rest = gram[:, k, k:] - (r[:, None, :k, k].conj() @ r[:, :k, k:])[:, 0]
        pivot2 = rest[:, 0].real
        np.minimum(min_pivot2, pivot2, out=min_pivot2)
        r[:, k, k:] = rest / np.sqrt(np.where(pivot2 < _MIN_PIVOT2, 1.0,
                                              pivot2))[:, None]
    return r, min_pivot2


def _steering_factors(profile, blocks, rx, tx, frames):
    """R factors of the thin QR of the steering matrices U and V of the
    listed frames of a batch, built in full."""
    n_r, n_t = rx.n_elements, tx.n_elements
    l_t = profile.total_paths
    u = np.zeros((len(frames), profile.m_r * n_r, l_t), dtype=complex)
    v = np.zeros((len(frames), profile.m_t * n_t, l_t), dtype=complex)
    col = 0
    for i, row in enumerate(blocks):
        for j, ps in enumerate(row):
            cols = slice(col, col + ps.n_paths)
            u[:, i * n_r:(i + 1) * n_r, cols] = ula_response(ps.aoa[frames], rx)
            v[:, j * n_t:(j + 1) * n_t, cols] = ula_response(ps.aod[frames], tx)
            col += ps.n_paths
    return np.linalg.qr(u, mode="r"), np.linalg.qr(v, mode="r")


def _path_singular_values(profile, blocks, rx, tx, n_s: int) -> np.ndarray:
    """The top ``n_s`` singular values of a batch of channels, one row
    per draw, from their path sets alone.

    The channel is H = U diag(d) V^H.  Column p of U (V) is path p's
    receive (transmit) steering vector in its pair's row (column) block,
    and d_p is sqrt(beta_ij N_r N_t / L_ij) times its gain.  With any
    R_U, R_V such that U^H U = R_U^H R_U and V^H V = R_V^H R_V, the
    nonzero singular values of H are those of the at most L_t x L_t core
    R_U diag(d) R_V^H.  Rows are zero-padded past them.

    R_U and R_V are the Cholesky factors of the closed-form Gram
    matrices, at a cost that does not grow with the array sizes.  A
    frame with a small pivot in either factor, and every frame of a
    profile where some subarray carries more paths than it has elements
    (its Gram matrix is singular), takes both factors from the thin QR
    of its U and V instead.
    """
    d = _path_amplitudes(profile, rx, tx) * _path_gains(blocks)
    batch = d.shape[0]
    if (profile.paths.sum(axis=1).max() > rx.n_elements
            or profile.paths.sum(axis=0).max() > tx.n_elements):
        r_u, r_v = _steering_factors(profile, blocks, rx, tx,
                                      np.arange(batch))
    else:
        # each path's subarray pair (i, j), in column order
        i, j = np.indices(profile.paths.shape).reshape(2, -1)
        rows = np.repeat(i, profile.paths.ravel())
        cols = np.repeat(j, profile.paths.ravel())
        aoa = np.concatenate([ps.aoa for row in blocks for ps in row], axis=-1)
        aod = np.concatenate([ps.aod for row in blocks for ps in row], axis=-1)
        r_u, piv_u = _gram_factor(_ula_gram(aoa, rows, rx))
        r_v, piv_v = _gram_factor(_ula_gram(aod, cols, tx))
        redo = np.flatnonzero(np.minimum(piv_u, piv_v) < _MIN_PIVOT2)
        if redo.size:
            r_u[redo], r_v[redo] = _steering_factors(profile, blocks, rx, tx,
                                                     redo)
    sv = singular_values((r_u * d[:, None, :]) @ r_v.conj().swapaxes(-1, -2))
    out = np.zeros((batch, n_s))
    k = min(n_s, sv.shape[-1])
    out[:, :k] = sv[:, :k]
    return out
