"""Image-quality metrics and the bicubic upsampling baseline.

Conventions (they matter when comparing against published tables):

* PSNR is computed per band and averaged; zero-error bands contribute a
  finite cap (default 100 dB). A whole-cube variant is available via
  ``per_band=False``.
* ERGAS uses the spatial resolution ratio directly (100/ratio * ...);
  zero-mean reference bands are excluded with a warning.
* SAM is the mean per-pixel spectral angle in degrees; pixels whose
  reference or estimate spectrum is identically zero are skipped.
* SSIM is single-scale with an 11x11 Gaussian window (sigma 1.5) and the
  standard constants C1=(0.01 peak)^2, C2=(0.03 peak)^2, computed on the
  valid interior and averaged over bands.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, MetricUndefinedError
from .tensor import mode_n_product

PSNR_CAP_DB = 100.0
# output rows that ssim filters at a time
_SLAB_ROWS = 16


@dataclass(frozen=True)
class MetricReport:
    psnr: float
    ergas: float
    sam: float
    ssim: float


def _check_same_shape(ref, est):
    # aligned C-order copies only where needed: every metric then sums in the
    # same order whatever the input layout, and ssim's row slabs are contiguous
    ref = np.require(ref, float, ["C", "A"])
    est = np.require(est, float, ["C", "A"])
    if ref.shape != est.shape or ref.ndim != 3:
        raise DimensionError(
            f"metric inputs must be 3-way tensors of equal shape, "
            f"got {ref.shape} vs {est.shape}"
        )
    return ref, est


def psnr(ref, est, peak, cap=PSNR_CAP_DB, per_band=True):
    """Peak signal-to-noise ratio in dB (per-band average by default)."""
    ref, est = _check_same_shape(ref, est)
    if not peak > 0:
        raise ValueError(f"peak must be positive, got {peak}")
    err2 = (ref - est) ** 2
    mse = err2.mean(axis=(0, 1)) if per_band else np.array([err2.mean()])
    out = np.full(mse.shape, float(cap))
    pos = mse > 0
    out[pos] = 10.0 * np.log10(peak * peak / mse[pos])
    return float(out.mean())


def ergas(ref, est, ratio):
    """Relative dimensionless global synthesis error (lower is better)."""
    ref, est = _check_same_shape(ref, est)
    if not ratio > 0:
        raise ValueError(f"resolution ratio must be positive, got {ratio}")
    mse = ((ref - est) ** 2).mean(axis=(0, 1))
    mu = ref.mean(axis=(0, 1))
    usable = mu != 0
    if not usable.any():
        raise MetricUndefinedError("ERGAS undefined: every reference band has zero mean")
    skipped = int((~usable).sum())
    if skipped:
        warnings.warn(f"ERGAS: excluded {skipped} zero-mean reference band(s)")
    return float(100.0 / ratio * np.sqrt(np.mean(mse[usable] / mu[usable] ** 2)))


def sam(ref, est):
    """Mean spectral angle between per-pixel spectra, in degrees."""
    ref, est = _check_same_shape(ref, est)
    bands = ref.shape[2]
    r = ref.reshape(-1, bands)
    e = est.reshape(-1, bands)
    nr = np.sqrt(np.einsum("ij,ij->i", r, r))
    ne = np.sqrt(np.einsum("ij,ij->i", e, e))
    valid = (nr > 0) & (ne > 0)
    if not valid.any():
        raise MetricUndefinedError("SAM undefined: every pixel spectrum is zero")
    skipped = int((~valid).sum())
    if skipped:
        warnings.warn(f"SAM: skipped {skipped} pixel(s) with a zero spectrum")
    cosang = np.einsum("ij,ij->i", r, e)[valid] / (nr[valid] * ne[valid])
    return float(np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0))).mean())


def _gaussian_window(size, sigma):
    k = np.arange(size, dtype=float) - (size - 1) / 2
    w = np.exp(-(k * k) / (2.0 * sigma * sigma))
    return w / w.sum()


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


def ssim(ref, est, peak, win_size=11, win_sigma=1.5):
    """Single-scale structural similarity, averaged over bands.

    All bands are filtered at once, in slabs of output rows: a slab's input
    rows are one contiguous block of the band-interleaved cube. The separable
    window is applied down the rows as one banded (Toeplitz) product and
    across the columns as batched products with tiles of the same matrix.
    """
    ref, est = _check_same_shape(ref, est)
    if not peak > 0:
        raise ValueError(f"peak must be positive, got {peak}")
    if ref.shape[0] < win_size or ref.shape[1] < win_size:
        raise DimensionError(
            f"image {ref.shape[:2]} smaller than the {win_size}x{win_size} window"
        )
    c1 = (0.01 * peak) ** 2
    c2 = (0.03 * peak) ** 2
    i1, i2, bands = ref.shape
    reach = win_size - 1
    n1, n2 = i1 - reach, i2 - reach
    slab = min(_SLAB_ROWS, n1)
    toeplitz = _toeplitz(_gaussian_window(win_size, win_sigma), slab)
    # allocated once per call: a product map's input rows (then scratch for
    # the SSIM map), its row-filtered slab, and the five local moments
    prod = np.empty((slab + reach, i2, bands))
    rowf = np.empty((slab, i2, bands))
    moments = np.empty((5, slab, n2, bands))
    scratch = prod.reshape(-1)[: moments[0].size].reshape(moments[0].shape)
    sums = np.zeros(bands)
    for r in range(0, n1, slab):
        t = min(slab, n1 - r)
        x = ref[r : r + t + reach]
        y = est[r : r + t + reach]
        down = toeplitz[:t, : t + reach]
        mu = moments[:, :t]
        for k, (a, b) in enumerate(((x, None), (y, None), (x, x), (y, y), (x, y))):
            src = a if b is None else np.multiply(a, b, out=prod[: t + reach])
            np.matmul(down, src.reshape(t + reach, -1), out=rowf[:t].reshape(t, -1))
            _filter_columns(rowf[:t], toeplitz, mu[k])
        mu_x, mu_y, sxx, syy, sxy = mu
        # the numerator (2 mu_x mu_y + c1)(2 cov + c2) is formed as a quarter
        # of itself, which is exact: halving and doubling do not round
        s = scratch[:t]
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
    return float(np.mean(4.0 * sums / (n1 * n2)))


def _keys_kernel(x, a=-0.5):
    ax = abs(x)
    if ax <= 1.0:
        return (a + 2.0) * ax**3 - (a + 3.0) * ax**2 + 1.0
    if ax < 2.0:
        return a * (ax**3 - 5.0 * ax**2 + 8.0 * ax - 4.0)
    return 0.0


def _bicubic_matrix(n, factor):
    """(factor*n) x n interpolation matrix with the Keys a=-0.5 kernel.

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
    factor = int(factor)
    if factor < 1:
        raise ValueError(f"factor must be >= 1, got {factor}")
    if factor == 1:
        return x.copy()
    b1 = _bicubic_matrix(x.shape[0], factor)
    b2 = _bicubic_matrix(x.shape[1], factor)
    return mode_n_product(mode_n_product(x, b1, 1), b2, 2)


def evaluate(ref, est, peak=None, ratio=1.0):
    """All four metrics in one report; peak defaults to the reference maximum."""
    ref, est = _check_same_shape(ref, est)
    if peak is None:
        peak = float(ref.max())
        if not peak > 0:
            raise MetricUndefinedError(
                "peak undefined: reference maximum is not positive"
            )
    return MetricReport(
        psnr=psnr(ref, est, peak),
        ergas=ergas(ref, est, ratio),
        sam=sam(ref, est),
        ssim=ssim(ref, est, peak),
    )
