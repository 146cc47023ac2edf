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

# Largest |beta| in dB of a subarray pair with power, as for snr_db.
_MAX_BETA_DB = 1000.0


def db_to_linear(db):
    """Power ratio from decibels; too large a ratio is ``inf``."""
    with np.errstate(over="ignore"):
        return 10.0 ** (np.asarray(db, dtype=np.float64) / 10.0)


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
    """Gains and azimuths of discrete paths: one subarray pair's, or a
    whole draw's in the column order of :attr:`FadingProfile.path_pairs`.

    gains are complex with unit second moment (variance 1/2 per real
    dimension); aoa/aod are arrival/departure azimuths in radians.  The
    last axis runs over paths; leading axes, if any, over draws.
    Indexing applies to all three arrays alike.
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

    def __getitem__(self, key) -> "PathSet":
        return PathSet(self.gains[key], self.aoa[key], self.aod[key])


@dataclass(frozen=True, eq=False)
class FadingProfile:
    """Large-scale fading powers and path counts for every subarray pair.

    ``beta_db`` is an (m_r, m_t) matrix of decibels, ``-inf`` for a pair
    with no power, and ``paths`` the path counts L_ij, a scalar for
    every pair alike.  ``beta`` is the linear power derived from
    ``beta_db``; the decibels are kept so that a config is written back
    exactly (dB -> linear -> dB does not round-trip).
    """

    beta_db: np.ndarray
    paths: np.ndarray
    beta: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        beta_db = np.asarray(self.beta_db, dtype=np.float64)
        paths = np.asarray(self.paths, dtype=np.int64)
        if paths.size == 1:
            paths = np.full(beta_db.shape, paths.flat[0])
        if beta_db.ndim != 2 or beta_db.shape != paths.shape:
            raise ConfigurationError(
                "beta_db and paths must be matrices of the same shape")
        if np.any(paths < 1):
            raise ConfigurationError("every subarray pair needs at least one path")
        # beta**2 overflows in the Gamma fit past about +-1541 dB
        if not np.all((np.abs(beta_db) <= _MAX_BETA_DB)
                      | (beta_db == -np.inf)):
            raise ConfigurationError(
                f"beta_db values must be finite within +-{_MAX_BETA_DB:g} "
                f"dB, or -inf for a pair with no power")
        if np.all(beta_db == -np.inf):
            raise ConfigurationError(
                "fading profile has no power in any subarray pair")
        object.__setattr__(self, "beta_db", beta_db)
        object.__setattr__(self, "paths", paths)
        object.__setattr__(self, "beta", db_to_linear(beta_db))

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

    @property
    def path_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Subarray pair (i, j) of each of a draw's L_t path columns, as
        arrays i and j: pairs in row-major order, L_ij columns each."""
        i, j = np.indices(self.paths.shape).reshape(2, -1)
        return np.repeat(i, self.paths.ravel()), np.repeat(j, self.paths.ravel())


@dataclass(frozen=True)
class ChannelRealization:
    """Drawn composite channel(s) with their generating paths.

    ``h`` is one matrix (M_r N_r, M_t N_t), or a stack of them with the
    draws on a leading axis; ``paths`` is the PathSet of all L_t path
    columns, with the same leading axes.
    """

    h: np.ndarray
    paths: PathSet


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


def _check_angle_range(angle_range) -> None:
    lo, hi = angle_range
    if not lo < hi:
        raise ValueError("empty azimuth interval")
    # Generator.uniform refused such a span; lo + (hi - lo) * u would
    # give inf and nan azimuths
    if not np.isfinite(hi - lo):
        raise ValueError("azimuth interval must be finite")


def _draw_block(rng: np.random.Generator, normal: np.ndarray,
                angle: np.ndarray) -> None:
    """Draw one path set of l paths: its real then imaginary gain parts
    into ``normal`` and the unit uniforms of its arrival then departure
    azimuths into ``angle``, 2l entries each.  This draw order is part
    of the reproducibility contract; a generator fills one call of 2l
    values as it would two calls of l."""
    rng.standard_normal(out=normal)
    rng.random(out=angle)


def _path_set(normal, angle, first, second, angle_range) -> PathSet:
    """The paths of draw buffers whose columns ``first`` hold the real
    gain parts and arrival azimuth uniforms, and ``second`` the
    imaginary parts and departure azimuth uniforms.  A uniform u maps to
    ``lo + (hi - lo) * u``, the formula of ``Generator.uniform``, so the
    azimuths are those that ``uniform(lo, hi)`` would draw."""
    lo, hi = angle_range
    angle = lo + (hi - lo) * angle
    return PathSet((normal[..., first] + 1j * normal[..., second])
                   / np.sqrt(2.0), angle[..., first], angle[..., second])


def draw_paths(l: int, rng: np.random.Generator,
               angle_range: tuple[float, float] = DEFAULT_ANGLE_RANGE) -> PathSet:
    """Draw one path set: CN(0,1) gains and uniform azimuths."""
    if l < 1:
        raise ValueError("path count must be at least 1")
    _check_angle_range(angle_range)
    normal, angle = np.empty((2, 2 * l))
    _draw_block(rng, normal, angle)
    return _path_set(normal, angle, slice(0, l), slice(l, 2 * l),
                     angle_range)


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
    return ChannelRealization(batch.h[0], batch.paths[0])


def draw_path_sets(profile: FadingProfile, rngs,
                   angle_range: tuple[float, float] = DEFAULT_ANGLE_RANGE
                   ) -> PathSet:
    """The paths of a batch of draws, as one PathSet of (B, L_t) arrays
    in the column order of ``profile.path_pairs``.

    Draw b takes its paths from ``rngs[b]``, pair by pair in that order,
    with the draws of :func:`draw_paths`.  Pair k's block of l paths
    starting at column s fills columns [2s, 2s + 2l) of draw b's buffer
    rows, and one gather after the loop puts its paths in columns
    [s, s + l).
    """
    _check_angle_range(angle_range)
    counts = profile.paths.ravel()
    starts = np.cumsum(counts) - counts
    normal = np.empty((len(rngs), 2 * profile.total_paths))
    angle = np.empty_like(normal)
    blocks = [slice(2 * s, 2 * (s + l))
              for s, l in zip(starts.tolist(), counts.tolist())]
    for b, rng in enumerate(rngs):
        for block in blocks:
            _draw_block(rng, normal[b, block], angle[b, block])
    first = np.arange(profile.total_paths) + np.repeat(starts, counts)
    return _path_set(normal, angle, first, first + np.repeat(counts, counts),
                     angle_range)


def draw_channels(profile: FadingProfile, rx: ArrayGeometry, tx: ArrayGeometry,
                  rngs, angle_range: tuple[float, float] = DEFAULT_ANGLE_RANGE
                  ) -> ChannelRealization:
    """A batch of draws: the paths of :func:`draw_path_sets` and their
    matrices, ``h`` of shape (B, M_r N_r, M_t N_t).

    Block (i, j) of each matrix is sqrt(beta_ij) times its pair matrix.
    """
    paths = draw_path_sets(profile, rngs, angle_range)
    n_r, n_t = rx.n_elements, tx.n_elements
    h = np.zeros((len(rngs), profile.m_r * n_r, profile.m_t * n_t),
                 dtype=complex)
    rows, cols = profile.path_pairs
    for i, j in zip(*np.nonzero(profile.beta)):
        # formed in place, so no block-sized temporary exists
        block = h[:, i * n_r:(i + 1) * n_r, j * n_t:(j + 1) * n_t]
        subchannel_matrix(paths[:, (rows == i) & (cols == j)], rx, tx,
                          out=block)
        np.multiply(np.sqrt(profile.beta[i, j]), block, out=block)
    return ChannelRealization(h, paths)
