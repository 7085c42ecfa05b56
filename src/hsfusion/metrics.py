"""Image-quality metrics and the bicubic upsampling baseline.

Conventions (they matter when comparing against published tables):

* PSNR is computed per band and averaged; zero-error bands contribute a
  finite cap (``PSNR_CAP_DB``, 100 dB).
* ERGAS uses the spatial resolution ratio directly (100/ratio * ...), which
  must be positive and finite; zero-mean reference bands are excluded with a
  warning.
* SAM is the mean per-pixel spectral angle in degrees; pixels whose
  reference or estimate spectrum is identically zero are skipped.
* SSIM is single-scale with the 11x11 Gaussian window (sigma 1.5) and the
  standard constants C1=(0.01 peak)^2, C2=(0.03 peak)^2 of Wang, Bovik,
  Sheikh & Simoncelli (IEEE TIP 2004), computed on the valid interior and
  averaged over bands. PSNR and SSIM take a positive peak whose fourth power,
  the scale of C1 C2, is finite: about 1.16e77 or less (``config._check_peak``,
  the rule of the run configuration's ``peak`` too).

PSNR, ERGAS and SAM read both cubes once, in one walk (``_band_stats``) over
slabs of whole rows that fit 256 KiB of one input (``_STATS_BYTES``), at most
16 (``_SLAB_ROWS``): 1 row at 256x256x162, 16 at 64x64x32. Each slab gives the
per-band squared-error sums, the reference's band sums and maximum and, for
SAM, every pixel's r.r, e.e and r.e; ``evaluate`` uses one walk for all three
metrics. SSIM filters its output in blocks that carry all bands
and whose inputs fit 1 MiB (``_BLOCK_BYTES``), so they stay in cache:
full-width slabs of 16 rows where one fits, else 8 rows by a multiple of 16
columns (8x32 at 256x256x162; see ``_ssim_block``).

Every metric raises ``ValueError`` ("... contains non-finite entries") when
an input holds NaN or Inf. It tells from sums it computes anyway (the
per-band squared errors, SAM's per-pixel norms, SSIM's band sums), and
scans the inputs only then, to name the one at fault.
"""

import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from .config import _check_peak, _check_positive_finite, _is_integral
from .degradation import gaussian_kernel_1d
from .errors import DimensionError, MetricUndefinedError
from .tensor import mode_n_product, require_finite

PSNR_CAP_DB = 100.0
# the most rows that _band_stats reads at a time, and ssim's output rows per
# full-width slab and columns per tile of its column filter
_SLAB_ROWS = 16
# bytes of one input's slab in _band_stats, so both inputs' slabs stay in cache
_STATS_BYTES = 1 << 18
# bytes of one input's block in ssim: (rows + 10) x (columns + 10) x bands
_BLOCK_BYTES = 1 << 20


@dataclass(frozen=True)
class MetricReport:
    psnr: float
    ergas: float
    sam: float
    ssim: float


def _check_same_shape(ref, est):
    # aligned C-order copies only where needed: every metric then sums in the
    # same order whatever the input layout, and in each row of an ssim block
    # the columns and bands merge into one contiguous axis
    ref = np.require(ref, float, ["C", "A"])
    est = np.require(est, float, ["C", "A"])
    if ref.shape != est.shape or ref.ndim != 3:
        raise DimensionError(
            f"metric inputs must be 3-way tensors of equal shape, "
            f"got {ref.shape} vs {est.shape}"
        )
    return ref, est


def _require_finite_sums(sums, ref, est):
    """Raise ValueError if a metric's sums over ref and est are not finite.

    They are NaN or Inf when an input is; only then are the inputs scanned,
    to name the one at fault. Finite inputs whose sums overflow raise too,
    so the metrics compute their sums with floating-point warnings off.
    """
    if not np.isfinite(sums).all():
        require_finite(ref, "reference")
        require_finite(est, "estimate")
        raise ValueError("metric sums overflow: input values too large")


def _stats_rows(i2, bands):
    """Rows per slab of ``_band_stats``: as many as fit ``_STATS_BYTES`` of one
    input, from 1 to ``_SLAB_ROWS``. A single band keeps ``_SLAB_ROWS``: numpy
    sums its contiguous column pairwise, which ties its bits to the slab size."""
    if bands == 1:
        return _SLAB_ROWS
    return max(1, min(_SLAB_ROWS, _STATS_BYTES // max(1, 8 * i2 * bands)))


def _band_stats(ref, est, dots=None):
    """Per-band mean squared error and reference mean, and the reference
    maximum (-inf for an empty cube), read in one walk of slabs of whole rows
    (see ``_stats_rows``). With ``dots``, a (3, I1 I2) array, its rows also
    receive every pixel's r.r, e.e and r.e.

    Each slab is copied into one buffer, summed, then turned in place into its
    squared errors and summed again. Row 0 of the buffer carries the running
    per-band sum into each reduction, so the sums run pixel by pixel as in
    ``ref.mean(axis=(0, 1))`` and ``((ref - est) ** 2).mean(axis=(0, 1))``,
    with the same bits for two or more bands (a single band's mean is taken
    whole). The dot products are ``einsum("ij,ij->i")`` over each slab of the
    inputs themselves, which has the bits of one einsum over the whole cube.
    No sum is checked here: each caller passes those it reads to
    ``_require_finite_sums``.
    """
    i1, i2, bands = ref.shape
    step = _stats_rows(i2, bands)
    buf = np.zeros((min(step, i1) * i2 + 1, bands))
    ref_total, err_total = np.zeros((2, bands))
    ref_max = -np.inf
    with np.errstate(all="ignore"):
        for r in range(0, i1, step):
            n = min(step, i1 - r) * i2
            x = ref[r : r + step].reshape(n, bands)
            y = est[r : r + step].reshape(n, bands)
            slab = buf[1 : n + 1]
            slab[...] = x
            buf[0] = ref_total
            np.sum(buf[: n + 1], axis=0, out=ref_total)
            ref_max = max(ref_max, float(slab.max(initial=-np.inf)))
            slab -= y
            slab *= slab
            buf[0] = err_total
            np.sum(buf[: n + 1], axis=0, out=err_total)
            if dots is not None:
                pixels = slice(r * i2, r * i2 + n)
                for out, (a, b) in zip(dots, ((x, x), (y, y), (x, y))):
                    np.einsum("ij,ij->i", a, b, out=out[pixels])
        if bands == 1:
            ref_total = ref.sum(axis=(0, 1))
    return err_total / (i1 * i2), ref_total / (i1 * i2), ref_max


def _psnr(mse, peak):
    out = np.full(mse.shape, PSNR_CAP_DB)
    pos = mse > 0
    out[pos] = 10.0 * np.log10(peak * peak / mse[pos])
    return float(out.mean())


def psnr(ref, est, peak):
    """Peak signal-to-noise ratio in dB, averaged over bands (``PSNR_CAP_DB`` if exact)."""
    _check_peak(peak)
    ref, est = _check_same_shape(ref, est)
    mse, _, _ = _band_stats(ref, est)
    _require_finite_sums(mse, ref, est)
    return _psnr(mse, peak)


def _ergas(mse, mu, ratio):
    """ERGAS of the per-band mean squared errors ``mse`` and reference means ``mu``."""
    usable = mu != 0
    if not usable.any():
        raise MetricUndefinedError("ERGAS undefined: every reference band has zero mean")
    skipped = int((~usable).sum())
    if skipped:
        warnings.warn(f"ERGAS: excluded {skipped} zero-mean reference band(s)")
    return float(100.0 / ratio * np.sqrt(np.mean(mse[usable] / mu[usable] ** 2)))


def ergas(ref, est, ratio):
    """Relative dimensionless global synthesis error (lower is better)."""
    _check_positive_finite("resolution ratio", ratio)
    ref, est = _check_same_shape(ref, est)
    mse, mu, _ = _band_stats(ref, est)
    _require_finite_sums(mse, ref, est)
    return _ergas(mse, mu, ratio)


def _sam(dots, ref, est):
    """SAM of the per-pixel r.r, e.e and r.e that ``_band_stats`` wrote to ``dots``."""
    nr, ne = np.sqrt(dots[0]), np.sqrt(dots[1])
    _require_finite_sums((nr.sum(), ne.sum()), ref, est)
    valid = (nr > 0) & (ne > 0)
    if not valid.any():
        raise MetricUndefinedError("SAM undefined: every pixel spectrum is zero")
    skipped = int((~valid).sum())
    if skipped:
        warnings.warn(f"SAM: skipped {skipped} pixel(s) with a zero spectrum")
    cosang = dots[2][valid] / (nr[valid] * ne[valid])
    return float(np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0))).mean())


def sam(ref, est):
    """Mean spectral angle between per-pixel spectra, in degrees.

    Reads each cube once: the per-pixel r.r, e.e and r.e come from
    ``_band_stats``' walk, with the bits of ``einsum("ij,ij->i")`` over the
    whole cube, and only their norms are checked finite."""
    ref, est = _check_same_shape(ref, est)
    dots = np.empty((3, ref.shape[0] * ref.shape[1]))
    _band_stats(ref, est, dots)
    return _sam(dots, ref, est)


def _toeplitz(w, rows):
    """The rows x (rows + w.size - 1) Toeplitz matrix of a 'valid' correlation
    with the window w."""
    m = np.zeros((rows, rows + w.size - 1))
    for i in range(rows):
        m[i, i : i + w.size] = w
    return m


def _filter_columns(img, toeplitz, out):
    """'Valid' correlation of img (rows, I2, bands) with the window along its
    columns, written to out, in tiles of as many columns as toeplitz has rows."""
    tile = toeplitz.shape[0]
    reach = toeplitz.shape[1] - tile
    n = out.shape[1]
    for j in range(0, n, tile):
        c = min(tile, n - j)
        np.matmul(toeplitz[:c, : c + reach], img[:, j : j + c + reach], out=out[:, j : j + c])


def _ssim_block(n1, n2, bands, reach):
    """Output rows and columns of one ssim block.

    A full-width slab of ``_SLAB_ROWS`` rows when one input's block,
    (rows + reach) x I2 x bands, fits ``_BLOCK_BYTES``; else half as many
    rows and the widest multiple of ``_SLAB_ROWS`` columns (at least one
    tile) whose input block fits.
    """
    pixel = 8 * bands  # bytes of a float64 spectrum
    rows = min(_SLAB_ROWS, n1)
    if (rows + reach) * (n2 + reach) * pixel <= _BLOCK_BYTES:
        return rows, n2
    rows = min(_SLAB_ROWS // 2, n1)
    cols = (_BLOCK_BYTES // ((rows + reach) * pixel) - reach) // _SLAB_ROWS * _SLAB_ROWS
    return rows, min(max(cols, _SLAB_ROWS), n2)


def ssim(ref, est, peak):
    """Single-scale structural similarity, averaged over bands.

    All bands are filtered at once, in blocks of output pixels (see
    ``_ssim_block``): a block's input rows are strided runs of the
    band-interleaved cube whose columns and bands merge into one axis. The
    separable window (11 Gaussian taps, sigma 1.5) is applied down the rows
    as one banded (Toeplitz) product and across the columns as batched
    products with tiles of the same matrix.
    """
    _check_peak(peak)
    ref, est = _check_same_shape(ref, est)
    window = gaussian_kernel_1d(11, 1.5)
    reach = window.size - 1
    if ref.shape[0] <= reach or ref.shape[1] <= reach:
        raise DimensionError(f"image {ref.shape[:2]} smaller than the 11x11 window")
    c1 = (0.01 * peak) ** 2
    c2 = (0.03 * peak) ** 2
    i1, i2, bands = ref.shape
    n1, n2 = i1 - reach, i2 - reach
    rows, cols = _ssim_block(n1, n2, bands, reach)
    toeplitz = _toeplitz(window, _SLAB_ROWS)
    # allocated once per call at block size, each block taking a contiguous
    # prefix: a product map's input block (then scratch for the SSIM map),
    # its row-filtered block, and the five local moments
    prod_buf = np.empty((rows + reach) * (cols + reach) * bands)
    rowf_buf = np.empty(rows * (cols + reach) * bands)
    moments_buf = np.empty(5 * rows * cols * bands)
    sums = np.zeros(bands)
    with np.errstate(all="ignore"):
        for r, j in itertools.product(range(0, n1, rows), range(0, n2, cols)):
            t, c = min(rows, n1 - r), min(cols, n2 - j)
            down = toeplitz[:t, : t + reach]
            x = ref[r : r + t + reach, j : j + c + reach]
            y = est[r : r + t + reach, j : j + c + reach]
            prod = prod_buf[: x.size].reshape(x.shape)
            rowf = rowf_buf[: t * (c + reach) * bands].reshape(t, c + reach, bands)
            mu = moments_buf[: 5 * t * c * bands].reshape(5, t, c, bands)
            for k, (a, b) in enumerate(((x, None), (y, None), (x, x), (y, y), (x, y))):
                src = a if b is None else np.multiply(a, b, out=prod)
                np.matmul(down, src.reshape(t + reach, -1), out=rowf.reshape(t, -1))
                _filter_columns(rowf, toeplitz, mu[k])
            mu_x, mu_y, sxx, syy, sxy = mu
            # the numerator (2 mu_x mu_y + c1)(2 cov + c2) is formed as a quarter
            # of itself, which is exact: halving and doubling do not round
            s = prod_buf[: mu_x.size].reshape(mu_x.shape)
            np.multiply(mu_x, mu_y, out=s)
            sxy -= s
            sxy += 0.5 * c2
            s += 0.5 * c1
            s *= sxy
            np.square(mu_x, out=mu_x)
            np.square(mu_y, out=mu_y)
            sxx -= mu_x
            syy -= mu_y
            sxx += syy
            sxx += c2  # var_x + var_y + c2
            mu_x += mu_y
            mu_x += c1
            mu_x *= sxx  # denominator
            s /= mu_x
            sums += s.sum(axis=(0, 1))
    _require_finite_sums(sums, ref, est)
    return float(np.mean(4.0 * sums / (n1 * n2)))


def _keys_kernel(x):
    a = -0.5  # Keys' cubic convolution kernel (IEEE TASSP 1981)
    ax = abs(x)
    if ax <= 1.0:
        return (a + 2.0) * ax**3 - (a + 3.0) * ax**2 + 1.0
    if ax < 2.0:
        return a * (ax**3 - 5.0 * ax**2 + 8.0 * ax - 4.0)
    return 0.0


def _bicubic_matrix(n, factor):
    """(factor*n) x n interpolation matrix with ``_keys_kernel``.

    Output sample j reads input coordinate (j + 0.5)/factor - 0.5; edge taps
    are clamped (replicated).
    """
    out_n = n * factor
    m = np.zeros((out_n, n))
    for j in range(out_n):
        src = (j + 0.5) / factor - 0.5
        base = int(np.floor(src))
        t = src - base
        for off in (-1, 0, 1, 2):
            idx = min(max(base + off, 0), n - 1)
            m[j, idx] += _keys_kernel(t - off)
    return m


def bicubic_upsample(x, factor):
    """Per-band bicubic interpolation to factor-times spatial size."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 3:
        raise DimensionError(f"expected a 3-way tensor, got ndim={x.ndim}")
    if not (_is_integral(factor) and factor >= 1):
        raise ValueError(f"factor must be a positive integer, got {factor}")
    factor = int(factor)
    if factor == 1:
        return x.copy()
    b1 = _bicubic_matrix(x.shape[0], factor)
    b2 = _bicubic_matrix(x.shape[1], factor)
    return mode_n_product(mode_n_product(x, b1, 1), b2, 2)


def evaluate(ref, est, peak=None, ratio=1.0):
    """All four metrics in one report; peak defaults to the reference maximum.

    The ratio, and a peak given, are checked before either cube is read. PSNR,
    ERGAS and SAM come from one ``_band_stats`` walk, then SSIM reads the cubes
    again."""
    if peak is not None:
        _check_peak(peak)
    _check_positive_finite("resolution ratio", ratio)
    ref, est = _check_same_shape(ref, est)
    dots = np.empty((3, ref.shape[0] * ref.shape[1]))
    mse, mu, ref_max = _band_stats(ref, est, dots)
    _require_finite_sums(mse, ref, est)  # rejects NaN and Inf
    if peak is None:
        peak = ref_max
        if not peak > 0:
            raise MetricUndefinedError("peak undefined: reference maximum is not positive")
        if not np.isfinite(peak * peak * peak * peak):
            raise MetricUndefinedError(f"peak undefined: reference maximum {peak} is too large")
    return MetricReport(
        psnr=_psnr(mse, peak),
        ergas=_ergas(mse, mu, ratio),
        sam=_sam(dots, ref, est),
        ssim=ssim(ref, est, peak),
    )
