"""Spatial/spectral degradation operators, forward simulation, synthetic scenes.

The forward model maps a high-resolution cube z to an observed pair:
x = z x_1 P1 x_2 P2 (blur + decimate both spatial axes) and y = z x_3 P3
(band averaging). Blur uses circular boundary handling so P1/P2 are exact
selected-row circulant matrices; decimation keeps samples 0, factor,
2*factor, ...

Band tables are (low_nm, high_nm) pairs, named here or read from a file by
``read_band_table``; a row of P3 averages uniformly over the wavelength
samples falling inside the band (inclusive bounds). The Landsat-7 six-band
table is exact; the four-band "ikonos" table is a rectangular approximation
(the reference response is not public here).
"""

import math
from dataclasses import dataclass

import numpy as np

from .config import _is_int
from .errors import DimensionError
from .tensor import _mode3_blocks, mode_n_product

LANDSAT7_BANDS = (
    (450.0, 520.0),
    (520.0, 600.0),
    (630.0, 690.0),
    (760.0, 900.0),
    (1550.0, 1750.0),
    (2080.0, 2350.0),
)

# Rectangular blue/green/red/NIR approximation of an IKONOS-like response.
IKONOS_BANDS = (
    (450.0, 520.0),
    (520.0, 600.0),
    (630.0, 690.0),
    (760.0, 900.0),
)

NAMED_BAND_TABLES = {"landsat7": LANDSAT7_BANDS, "ikonos": IKONOS_BANDS}

WAVELENGTH_MIN_NM = 400.0
WAVELENGTH_MAX_NM = 2500.0


def read_band_table(path_or_name):
    """Resolve a band table: a built-in name or a file of 'low_nm high_nm'
    lines, each bound a finite number; errors name the file and line."""
    if path_or_name in NAMED_BAND_TABLES:
        return NAMED_BAND_TABLES[path_or_name]
    bands = []
    with open(path_or_name, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            where, parts = f"{path_or_name}:{lineno}", line.split()
            if len(parts) != 2:
                raise ValueError(f"{where}: expected 'low_nm high_nm', got {raw!r}")
            try:
                low, high = float(parts[0]), float(parts[1])
            except ValueError:
                low = high = math.nan
            if not (math.isfinite(low) and math.isfinite(high)):
                raise ValueError(f"{where}: band bounds must be finite numbers, got {line!r}")
            if not high > low:
                raise ValueError(f"{where}: band upper bound must exceed lower")
            bands.append((low, high))
    if not bands:
        raise ValueError(f"{path_or_name}: band table is empty")
    return tuple(bands)


def default_wavelengths(n):
    """Uniform wavelength grid over 400-2500 nm inclusive with n samples."""
    return np.linspace(WAVELENGTH_MIN_NM, WAVELENGTH_MAX_NM, n)


def gaussian_kernel_1d(size, sigma):
    """Odd-length Gaussian taps exp(-k^2 / (2 sigma^2)) normalized to sum 1."""
    if size < 1 or size % 2 == 0:
        raise ValueError(f"kernel size must be odd and positive, got {size}")
    if not 0 < sigma < np.inf:
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    k = np.arange(size, dtype=float) - (size - 1) / 2
    w = np.exp(-(k * k) / (2.0 * sigma * sigma))
    return w / w.sum()


def build_spatial_degradation(big_dim, factor, kernel):
    """(big_dim/factor) x big_dim matrix: circular convolution then decimation.

    Row i holds the blur kernel centered at sample i*factor (offset 0
    decimation). Applying it along one tensor mode equals blur-then-decimate
    on that axis.
    """
    kernel = np.asarray(kernel, dtype=float)
    if kernel.ndim != 1 or kernel.size % 2 == 0:
        raise ValueError("kernel must be a 1-d odd-length vector")
    if not _is_int(factor):
        raise ValueError(f"factor must be an integer, got {factor!r}")
    if factor < 1 or big_dim % factor:
        raise DimensionError(
            f"dimension {big_dim} not divisible by factor {factor}"
        )
    center = (kernel.size - 1) // 2
    conv = np.zeros((big_dim, big_dim))
    cols = np.arange(big_dim)
    for j, w in enumerate(kernel):
        conv[cols, (cols + j - center) % big_dim] += w
    return conv[::factor, :].copy()


def build_spectral_response(bands, wavelengths):
    """Band-averaging matrix: row b uniform over wavelengths inside band b."""
    wavelengths = np.asarray(wavelengths, dtype=float)
    bands = tuple(bands)
    p = np.zeros((len(bands), wavelengths.size))
    for b, (low, high) in enumerate(bands):
        inside = (wavelengths >= low) & (wavelengths <= high)
        count = int(inside.sum())
        if count == 0:
            raise ValueError(
                f"band {b} ({low:g}-{high:g} nm) contains no wavelength samples"
            )
        p[b, inside] = 1.0 / count
    return p


@dataclass(frozen=True)
class DegradationSet:
    """The three operator matrices."""

    p1: np.ndarray
    p2: np.ndarray
    p3: np.ndarray

    def __post_init__(self):
        if self.p1.shape[0] >= self.p1.shape[1]:
            raise DimensionError("P1 must reduce its dimension (i1 < I1)")
        if self.p2.shape[0] >= self.p2.shape[1]:
            raise DimensionError("P2 must reduce its dimension (i2 < I2)")
        if self.p3.shape[0] >= self.p3.shape[1]:
            raise DimensionError("P3 must reduce its dimension (i3 < I3)")
        if (self.p3 < 0).any():
            raise ValueError("P3 rows must be nonnegative")
        row_sums = self.p3.sum(axis=1)
        if not np.allclose(row_sums, 1.0, atol=1e-10):
            raise ValueError("P3 rows must each sum to 1")


def make_degradation(shape, factor, kernel_size, sigma, bands):
    """Build the full operator set for a (I1, I2, I3) cube, its bands on the
    default wavelength grid."""
    i1, i2, i3 = shape
    kernel = gaussian_kernel_1d(kernel_size, sigma)
    return DegradationSet(
        p1=build_spatial_degradation(i1, factor, kernel),
        p2=build_spatial_degradation(i2, factor, kernel),
        p3=build_spectral_response(bands, default_wavelengths(i3)),
    )


def simulate(z, d):
    """Forward model: returns (x, y) with x = z x_1 P1 x_2 P2, y = z x_3 P3."""
    z = np.asarray(z, dtype=float)
    x = mode_n_product(mode_n_product(z, d.p1, 1), d.p2, 2)
    y = mode_n_product(z, d.p3, 3)
    return x, y


@dataclass(frozen=True)
class SceneSpec:
    """Parameters of a synthetic ground-truth scene z = a x_3 s.

    ``blocks`` piecewise-constant cells per spatial axis; ``spectra`` selects
    the basis construction ("random" = orthonormalized Gaussian noise,
    "smooth" = orthonormalized Gaussian bumps). Reproducible from ``seed``
    via the PCG64 generator. ``shape`` is three positive integers; ``r``,
    ``blocks`` and ``seed`` are integers, never bool, and ``seed`` is >= 0.
    """

    shape: tuple
    r: int
    blocks: int = 4
    seed: int = 0
    spectra: str = "random"

    def __post_init__(self):
        shape = self.shape
        if not (isinstance(shape, (tuple, list)) and len(shape) == 3
                and all(_is_int(n) and n >= 1 for n in shape)):
            raise ValueError(f"shape must be three positive integers, got {shape!r}")
        for name in ("r", "blocks", "seed"):
            if not _is_int(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        i1, i2, i3 = shape
        if not 1 <= self.r <= min(i3, i1 * i2):
            raise ValueError(
                f"scene rank {self.r} out of range for shape {self.shape}"
            )
        if self.blocks < 1:
            raise ValueError(f"blocks must be >= 1, got {self.blocks}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.spectra not in ("random", "smooth"):
            raise ValueError(f"unknown spectra kind {self.spectra!r}")


def _orthonormalize(m):
    """Two-pass modified Gram-Schmidt; deterministic given the input."""
    q = np.array(m, dtype=float)
    for _ in range(2):
        for j in range(q.shape[1]):
            for k in range(j):
                q[:, j] -= (q[:, k] @ q[:, j]) * q[:, k]
            nj = np.linalg.norm(q[:, j])
            if nj == 0:
                raise ValueError("spectra matrix is rank deficient")
            q[:, j] /= nj
    return q


def synth_scene(spec):
    """Generate (z, a, s): piecewise-constant spatial maps times a semi-unitary basis."""
    i1, i2, i3 = spec.shape
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    row_block = (np.arange(i1) * spec.blocks) // i1
    col_block = (np.arange(i2) * spec.blocks) // i2
    levels = rng.random((spec.blocks, spec.blocks, spec.r))
    a = np.ascontiguousarray(levels[row_block][:, col_block, :])
    if spec.spectra == "random":
        raw = rng.standard_normal((i3, spec.r))
    else:
        idx = np.arange(i3, dtype=float)[:, None]
        centers = (np.arange(spec.r) + 0.5) * i3 / spec.r
        width = max(i3 / (2.0 * spec.r), 1.0)
        raw = np.exp(-((idx - centers[None, :]) ** 2) / (2.0 * width * width))
    s = _orthonormalize(raw)
    z = _mode3_blocks(a, s, "synthetic scene")
    return z, a, s
