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

from dataclasses import dataclass, field

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
    "draw_channel",
    "draw_path_sets",
    "draw_channels",
]

# Azimuths are confined to a half plane by default: a ULA cannot tell
# front from back, so sampling the full circle would alias steering
# vectors onto each other.
DEFAULT_ANGLE_RANGE = (-np.pi / 2, np.pi / 2)


def db_to_linear(db):
    """Power ratio from decibels; too large a ratio is ``inf``."""
    with np.errstate(over="ignore"):
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
    dimension); aoa/aod are arrival/departure azimuths in radians.  The
    last axis runs over paths; leading axes, if any, over draws.
    """

    gains: np.ndarray
    aoa: np.ndarray
    aod: np.ndarray

    def __post_init__(self):
        if not (self.gains.shape == self.aoa.shape == self.aod.shape):
            raise ValueError("gains, aoa, and aod must share a shape")
        if self.n_paths < 1:
            raise ValueError("a path set needs at least one path")

    @property
    def n_paths(self) -> int:
        return self.gains.shape[-1]


@dataclass(frozen=True)
class FadingProfile:
    """Large-scale fading powers and path counts for every subarray pair.

    ``beta`` is linear scale (convert from dB at the config boundary) and
    ``paths`` holds the per-pair path counts L_ij.  ``beta_db`` keeps the
    decibel values ``beta`` was converted from, when it was, so that a
    config can be written back exactly (dB -> linear -> dB does not
    round-trip).
    """

    beta: np.ndarray
    paths: np.ndarray
    beta_db: np.ndarray | None = field(default=None, compare=False,
                                       repr=False)

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
        if self.beta_db is not None:
            beta_db = np.asarray(self.beta_db, dtype=np.float64)
            if beta_db.shape != beta.shape:
                raise ConfigurationError("beta_db must match the beta matrix")
            object.__setattr__(self, "beta_db", beta_db)
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
        return cls(db_to_linear(beta_db), paths, beta_db)

    @classmethod
    def homogeneous(cls, m_r: int, m_t: int, beta_db: float, l: int) -> "FadingProfile":
        return cls(np.full((m_r, m_t), float(db_to_linear(beta_db))),
                   np.full((m_r, m_t), l), np.full((m_r, m_t), float(beta_db)))

    @property
    def m_r(self) -> int:
        return self.beta.shape[0]

    @property
    def m_t(self) -> int:
        return self.beta.shape[1]

    @property
    def total_paths(self) -> int:
        """L_t, the generic rank of the composite channel, as an exact
        Python int: path counts near the int64 range would wrap."""
        return int(self.paths.sum(dtype=object))

    def _key(self) -> tuple:
        return (self.beta.shape, self.beta.tobytes(), self.paths.tobytes())

    # the generated methods would compare and hash the numpy arrays
    def __eq__(self, other):
        if not isinstance(other, FadingProfile):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


@dataclass(frozen=True)
class ChannelRealization:
    """Drawn composite channel(s) with their generating path sets.

    ``h`` is one matrix (M_r N_r, M_t N_t), or a stack of them with the
    draws on a leading axis; ``blocks[i][j]`` is the PathSet of pair
    (i, j), with the same leading axes.
    """

    h: np.ndarray
    blocks: list


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


def _draw_block(l: int, rng: np.random.Generator, lo: float, hi: float):
    """Real and imaginary gain parts, then arrival and departure
    azimuths, of one path set; this draw order is part of the
    reproducibility contract."""
    if not lo < hi:
        raise ValueError("empty azimuth interval")
    return (rng.standard_normal(l), rng.standard_normal(l),
            rng.uniform(lo, hi, l), rng.uniform(lo, hi, l))


def _path_set(re, im, aoa, aod) -> PathSet:
    return PathSet((re + 1j * im) / np.sqrt(2.0), aoa, aod)


def draw_paths(l: int, rng: np.random.Generator,
               angle_range: tuple[float, float] = DEFAULT_ANGLE_RANGE) -> PathSet:
    """Draw one path set: CN(0,1) gains and uniform azimuths."""
    if l < 1:
        raise ValueError("path count must be at least 1")
    return _path_set(*_draw_block(l, rng, *angle_range))


def subchannel_matrix(paths: PathSet, rx: ArrayGeometry, tx: ArrayGeometry,
                      out=None) -> np.ndarray:
    """One subarray pair's matrix: scaled sum of rank-one path terms.

    The sqrt(N_t * N_r / L) factor keeps the expected squared Frobenius
    norm equal to N_t * N_r independent of the path count.  A path set
    with leading axes gives a stack of shape (..., N_r, N_t); the result
    is written into ``out`` when given.
    """
    a_r = ula_response(paths.aoa, rx)
    a_t = ula_response(paths.aod, tx)
    scale = np.sqrt(rx.n_elements * tx.n_elements / paths.n_paths)
    out = np.matmul(a_r * paths.gains[..., None, :],
                    a_t.conj().swapaxes(-1, -2), out=out)
    return np.multiply(scale, out, out=out)


def draw_channel(profile: FadingProfile, rx: ArrayGeometry, tx: ArrayGeometry,
                 rng: np.random.Generator,
                 angle_range: tuple[float, float] = DEFAULT_ANGLE_RANGE
                 ) -> ChannelRealization:
    """One draw: :func:`draw_channels` of the single generator ``rng``."""
    batch = draw_channels(profile, rx, tx, [rng], angle_range)
    blocks = [[PathSet(ps.gains[0], ps.aoa[0], ps.aod[0]) for ps in row]
              for row in batch.blocks]
    return ChannelRealization(batch.h[0], blocks)


def draw_path_sets(profile: FadingProfile, rngs,
                   angle_range: tuple[float, float] = DEFAULT_ANGLE_RANGE
                   ) -> list:
    """The path sets of a batch of draws: ``blocks[i][j]`` is the PathSet
    of pair (i, j), with (B, L_ij) arrays.

    Draw b takes its path sets from ``rngs[b]``, block by block in
    row-major order over the block grid, with the draws of
    :func:`draw_paths`.
    """
    parts = [[np.empty((4, len(rngs), l)) for l in row] for row in profile.paths]
    for b, rng in enumerate(rngs):
        for row in parts:
            for block in row:
                block[:, b] = _draw_block(block.shape[2], rng, *angle_range)
    return [[_path_set(*block) for block in row] for row in parts]


def draw_channels(profile: FadingProfile, rx: ArrayGeometry, tx: ArrayGeometry,
                  rngs, angle_range: tuple[float, float] = DEFAULT_ANGLE_RANGE
                  ) -> ChannelRealization:
    """A batch of draws: the path sets of :func:`draw_path_sets` and their
    matrices, ``h`` of shape (B, M_r N_r, M_t N_t).

    Block (i, j) of each matrix is sqrt(beta_ij) times its pair matrix.
    """
    blocks = draw_path_sets(profile, rngs, angle_range)
    n_r, n_t = rx.n_elements, tx.n_elements
    h = np.zeros((len(rngs), profile.m_r * n_r, profile.m_t * n_t),
                 dtype=complex)
    for i, row in enumerate(blocks):
        for j, ps in enumerate(row):
            if profile.beta[i, j] == 0.0:
                continue
            # formed in place, so no block-sized temporary exists
            block = h[:, i * n_r:(i + 1) * n_r, j * n_t:(j + 1) * n_t]
            subchannel_matrix(ps, rx, tx, out=block)
            np.multiply(np.sqrt(profile.beta[i, j]), block, out=block)
    return ChannelRealization(h, blocks)
