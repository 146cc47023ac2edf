"""Sparse multipath channel generation for distributed antenna arrays.

Each transmit/receive subarray pair (i, j) sees a small number L_ij of
discrete propagation paths; the subarray-pair matrix is a sum of L_ij
rank-one outer products of uniform-linear-array steering vectors with
complex Gaussian path gains.  The composite matrix stacks all pairs in
a block grid, each block weighted by the square root of its large-scale
fading coefficient beta_ij, so the whole channel has rank at most
L_t = sum of all L_ij regardless of antenna counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "ArrayGeometry",
    "PathSet",
    "FadingProfile",
    "ChannelRealization",
    "db_to_linear",
    "linear_to_db",
    "ula_response",
    "draw_paths",
    "subchannel_matrix",
    "assemble_channel",
    "draw_channel",
    "draw_channels",
]

# Azimuths are confined to a half plane by default: a ULA cannot tell
# front from back, so sampling the full circle would alias steering
# vectors onto each other.
DEFAULT_ANGLE_RANGE = (-np.pi / 2, np.pi / 2)


def db_to_linear(db):
    """Power ratio from decibels."""
    return 10.0 ** (np.asarray(db, dtype=np.float64) / 10.0)


def linear_to_db(x):
    return 10.0 * np.log10(np.asarray(x, dtype=np.float64))


@dataclass(frozen=True)
class ArrayGeometry:
    """A uniform linear array: element count and spacing in wavelengths."""

    n_elements: int
    spacing_over_lambda: float = 0.5

    def __post_init__(self):
        if self.n_elements < 1:
            raise ValueError("array needs at least one element")
        if not self.spacing_over_lambda > 0:
            raise ValueError("element spacing must be positive")


@dataclass(frozen=True)
class PathSet:
    """Gains and azimuths of the discrete paths of one subarray pair.

    gains are complex with unit second moment (variance 1/2 per real
    dimension); aoa/aod are arrival/departure azimuths in radians.
    """

    gains: np.ndarray
    aoa: np.ndarray
    aod: np.ndarray

    def __post_init__(self):
        if not (len(self.gains) == len(self.aoa) == len(self.aod)):
            raise ValueError("gains, aoa, and aod must share a length")
        if len(self.gains) < 1:
            raise ValueError("a path set needs at least one path")

    @property
    def n_paths(self) -> int:
        return len(self.gains)


@dataclass(frozen=True)
class FadingProfile:
    """Large-scale fading powers and path counts for every subarray pair.

    ``beta`` is linear scale (convert from dB at the config boundary) and
    ``paths`` holds the per-pair path counts L_ij.
    """

    beta: np.ndarray
    paths: np.ndarray

    def __post_init__(self):
        beta = np.asarray(self.beta, dtype=np.float64)
        paths = np.asarray(self.paths, dtype=np.int64)
        if beta.ndim != 2 or beta.shape != paths.shape:
            raise ConfigurationError(
                "beta and paths must be matrices of the same shape")
        if not np.all(np.isfinite(beta)):
            raise ConfigurationError("beta coefficients must be finite")
        if np.any(beta < 0):
            raise ConfigurationError("beta coefficients must be nonnegative")
        if np.any(paths < 1):
            raise ConfigurationError("every subarray pair needs at least one path")
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "paths", paths)

    @classmethod
    def from_db(cls, beta_db, paths) -> "FadingProfile":
        beta_db = np.atleast_2d(np.asarray(beta_db, dtype=np.float64))
        paths = np.atleast_2d(np.asarray(paths, dtype=np.int64))
        if paths.shape != beta_db.shape:
            if paths.size == 1:
                paths = np.full(beta_db.shape, int(paths.flat[0]))
            else:
                raise ConfigurationError("paths does not match the beta matrix")
        return cls(db_to_linear(beta_db), paths)

    @classmethod
    def homogeneous(cls, m_r: int, m_t: int, beta_db: float, l: int) -> "FadingProfile":
        return cls(np.full((m_r, m_t), float(db_to_linear(beta_db))),
                   np.full((m_r, m_t), l))

    @property
    def m_r(self) -> int:
        return self.beta.shape[0]

    @property
    def m_t(self) -> int:
        return self.beta.shape[1]

    @property
    def total_paths(self) -> int:
        """L_t, the generic rank of the composite channel."""
        return int(self.paths.sum())


@dataclass(frozen=True)
class ChannelRealization:
    """One drawn composite channel with its generating path sets."""

    h: np.ndarray
    blocks: list
    profile: FadingProfile
    rx_geometry: ArrayGeometry
    tx_geometry: ArrayGeometry
    seed: object = None

    @property
    def m_r(self) -> int:
        return self.profile.m_r

    @property
    def m_t(self) -> int:
        return self.profile.m_t

    @property
    def n_r(self) -> int:
        return self.rx_geometry.n_elements

    @property
    def n_t(self) -> int:
        return self.tx_geometry.n_elements


def ula_response(phi, geometry: ArrayGeometry) -> np.ndarray:
    """Unit-norm steering vector(s) of a uniform linear array.

    Element n carries phase 2*pi*(d/lambda)*n*sin(phi).  Scalar ``phi``
    gives shape (N,); an array of K azimuths gives (N, K), and a stack
    of shape (..., K) gives (..., N, K).
    """
    phi = np.asarray(phi)
    n = np.arange(geometry.n_elements)
    phase = 2j * np.pi * geometry.spacing_over_lambda * np.sin(phi)
    a = np.exp(n[:, None] * phase[..., None, :] if phi.ndim else n * phase)
    return a / np.sqrt(geometry.n_elements)


def draw_paths(l: int, rng: np.random.Generator,
               angle_range: tuple[float, float] = DEFAULT_ANGLE_RANGE) -> PathSet:
    """Draw one path set: CN(0,1) gains and uniform azimuths.

    Draw order (gains, aoa, aod) is part of the reproducibility contract.
    """
    if l < 1:
        raise ValueError("path count must be at least 1")
    lo, hi = angle_range
    if not lo < hi:
        raise ValueError("empty azimuth interval")
    gains = (rng.standard_normal(l) + 1j * rng.standard_normal(l)) / np.sqrt(2.0)
    aoa = rng.uniform(lo, hi, l)
    aod = rng.uniform(lo, hi, l)
    return PathSet(gains, aoa, aod)


def _pair_matrices(gains, aoa, aod, rx: ArrayGeometry, tx: ArrayGeometry,
                   out=None) -> np.ndarray:
    """Pair matrices of path sets stacked on leading axes.

    ``gains``, ``aoa`` and ``aod`` have shape (..., L); the result has
    shape (..., N_r, N_t) and is written into ``out`` when given.
    """
    gains = np.asarray(gains)
    a_r = ula_response(aoa, rx)
    a_t = ula_response(aod, tx)
    scale = np.sqrt(rx.n_elements * tx.n_elements / gains.shape[-1])
    out = np.matmul(a_r * gains[..., None, :], a_t.conj().swapaxes(-1, -2),
                    out=out)
    return np.multiply(scale, out, out=out)


def subchannel_matrix(paths: PathSet, rx: ArrayGeometry, tx: ArrayGeometry) -> np.ndarray:
    """One subarray pair's matrix: scaled sum of rank-one path terms.

    The sqrt(N_t * N_r / L) factor keeps the expected squared Frobenius
    norm equal to N_t * N_r independent of the path count.
    """
    return _pair_matrices(paths.gains, paths.aoa, paths.aod, rx, tx)


def _composite(profile: FadingProfile, rx: ArrayGeometry, tx: ArrayGeometry,
               paths, batch: tuple = ()) -> np.ndarray:
    """Composite channel matrices from per-block path arrays.

    ``paths[i][j]`` is a (gains, aoa, aod) triple of arrays of shape
    batch + (L_ij,); block (i, j) of each result is sqrt(beta_ij) times
    its pair matrix, written in place.
    """
    m_r, m_t = profile.m_r, profile.m_t
    n_r, n_t = rx.n_elements, tx.n_elements
    h = np.zeros(batch + (m_r * n_r, m_t * n_t), dtype=complex)
    for i in range(m_r):
        for j in range(m_t):
            if profile.beta[i, j] == 0.0:
                continue
            block = h[..., i * n_r:(i + 1) * n_r, j * n_t:(j + 1) * n_t]
            # A stack is formed in place, so no block-sized temporary
            # exists; one matrix is formed contiguous, which is faster for
            # a single small block.  The arithmetic is the same either way.
            pair = _pair_matrices(*paths[i][j], rx, tx,
                                  out=block if batch else None)
            np.multiply(np.sqrt(profile.beta[i, j]), pair, out=block)
    return h


def assemble_channel(blocks, profile: FadingProfile, rx: ArrayGeometry,
                     tx: ArrayGeometry, seed=None) -> ChannelRealization:
    """Stack per-pair matrices into the composite block channel.

    ``blocks`` is an M_r x M_t nested list of PathSet; block (i, j) of the
    result is sqrt(beta_ij) times the pair matrix.
    """
    m_r, m_t = profile.m_r, profile.m_t
    if len(blocks) != m_r or any(len(row) != m_t for row in blocks):
        raise ConfigurationError(
            f"path grid must be {m_r} x {m_t} to match the fading profile")
    for i in range(m_r):
        for j in range(m_t):
            if blocks[i][j].n_paths != profile.paths[i, j]:
                raise ConfigurationError(
                    f"block ({i},{j}) has {blocks[i][j].n_paths} paths, "
                    f"profile says {profile.paths[i, j]}")
    paths = [[(ps.gains, ps.aoa, ps.aod) for ps in row] for row in blocks]
    h = _composite(profile, rx, tx, paths)
    return ChannelRealization(h, blocks, profile, rx, tx, seed)


def draw_channel(profile: FadingProfile, rx: ArrayGeometry, tx: ArrayGeometry,
                 rng: np.random.Generator,
                 angle_range: tuple[float, float] = DEFAULT_ANGLE_RANGE,
                 seed=None) -> ChannelRealization:
    """Draw all path sets (row-major over the block grid) and assemble."""
    blocks = [
        [draw_paths(int(profile.paths[i, j]), rng, angle_range)
         for j in range(profile.m_t)]
        for i in range(profile.m_r)
    ]
    return assemble_channel(blocks, profile, rx, tx, seed)


def draw_channels(profile: FadingProfile, rx: ArrayGeometry, tx: ArrayGeometry,
                  rngs, angle_range: tuple[float, float] = DEFAULT_ANGLE_RANGE
                  ) -> np.ndarray:
    """Composite matrices of a batch of draws, stacked (B, M_r N_r, M_t N_t).

    Draw b takes its path sets from ``rngs[b]`` in the order
    :func:`draw_channel` uses, so entry b equals
    ``draw_channel(profile, rx, tx, rngs[b], angle_range).h`` bit for bit.
    """
    batch = len(rngs)
    paths = [[(np.empty((batch, l), dtype=complex), np.empty((batch, l)),
               np.empty((batch, l))) for l in row] for row in profile.paths]
    for b, rng in enumerate(rngs):
        for row in paths:
            for gains, aoa, aod in row:
                ps = draw_paths(gains.shape[1], rng, angle_range)
                gains[b], aoa[b], aod[b] = ps.gains, ps.aoa, ps.aod
    return _composite(profile, rx, tx, paths, (batch,))
