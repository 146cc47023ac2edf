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
    """sqrt(beta_ij N_r N_t / L_ij) of every path column of a draw."""
    amp = np.sqrt(profile.beta * rx.n_elements * tx.n_elements
                  / profile.paths)
    return amp[profile.path_pairs]


def predicted_gains(profile, paths, rx, tx) -> np.ndarray:
    """Large-array prediction of the composite singular values.

    As both arrays grow, steering vectors become orthogonal and each path
    contributes one singular value sqrt(beta_ij * N_r * N_t / L_ij) * |gain|.
    ``paths`` are the path columns of one draw or of a batch; returns the
    predictions sorted in decreasing order on the last axis, one row per
    draw of a batch (zero-power pairs contribute zeros).
    """
    pred = _path_amplitudes(profile, rx, tx) * np.abs(paths.gains)
    return np.sort(pred, axis=-1)[..., ::-1]


# A frame whose smallest squared Cholesky pivot on one side is below
# this takes that side's factor from the QR of its steering matrix: a
# Gram factor keeps about half the digits of its nearly dependent
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


def _fallback_bytes(rows: int, l_t: int) -> int:
    """Bytes of one frame's QR fallback on a side: its A and QR's copy."""
    return 32 * rows * l_t


def _steering_factor(phi, group, geometry, budget: int) -> np.ndarray:
    """Upper-triangular R with A^H A = R^H R for the steering matrix A of
    each frame of a stack of one side's azimuths (B, L_t).

    Column q of A holds a(phi_q) in the block of subarray ``group[q]``.
    R is the Cholesky factor of the closed-form Gram matrix, at a cost
    that does not grow with the array size.  A frame with a pivot below
    ``_MIN_PIVOT2``, and every frame when some subarray carries more
    paths than it has elements (its Gram matrix is singular), takes R
    from the thin QR of its own A instead, built and factored in chunks
    of at most ``budget`` bytes (at least one frame each).  LAPACK
    factors each matrix on its own, so the chunks give the same bytes.
    """
    n = geometry.n_elements
    l_t, blocks = group.size, group.max() + 1
    if np.bincount(group).max() > n:
        redo = np.arange(len(phi))
        r = np.empty((redo.size, min(blocks * n, l_t), l_t), dtype=complex)
    else:
        r, min_pivot2 = _gram_factor(_ula_gram(phi, group, geometry))
        redo = np.flatnonzero(min_pivot2 < _MIN_PIVOT2)
    chunk = max(1, budget // _fallback_bytes(blocks * n, l_t))
    for lo in range(0, redo.size, chunk):
        part = redo[lo:lo + chunk]
        a = np.zeros((part.size, blocks, n, l_t), dtype=complex)
        # column q fills rows group[q] n to (group[q] + 1) n of each frame
        a[:, group, :, np.arange(l_t)] = \
            ula_response(phi[part], geometry).transpose(2, 0, 1)
        r[part] = np.linalg.qr(a.reshape(part.size, -1, l_t), mode="r")
    return r


def _path_singular_values(profile, paths, rx, tx, n_s, budget) -> np.ndarray:
    """The top ``n_s`` singular values of a batch of channels, one row
    per draw, from their path columns alone.

    The channel is H = U diag(d) V^H.  Column p of U (V) is path p's
    receive (transmit) steering vector in its pair's row (column) block,
    and d_p is sqrt(beta_ij N_r N_t / L_ij) times its gain.  With any
    R_U, R_V such that U^H U = R_U^H R_U and V^H V = R_V^H R_V, the
    nonzero singular values of H are those of the at most L_t x L_t core
    R_U diag(d) R_V^H, with R_U and R_V from :func:`_steering_factor`
    within ``budget``.  Rows are zero-padded past them.
    """
    d = _path_amplitudes(profile, rx, tx) * paths.gains
    rows, cols = profile.path_pairs
    r_u = _steering_factor(paths.aoa, rows, rx, budget)
    r_v = _steering_factor(paths.aod, cols, tx, budget)
    sv = singular_values((r_u * d[:, None, :]) @ r_v.conj().swapaxes(-1, -2))
    out = np.zeros((len(d), n_s))
    k = min(n_s, sv.shape[-1])
    out[:, :k] = sv[:, :k]
    return out
