"""Reference computations and output checks written apart from hsfusion.

Nothing here imports hsfusion. Each oracle is derived from the method's
definition or the documented file layout, so a fault in the program cannot
pass its own check by being copied into it. Every check raises CheckFailed
with a message that names the quantity and the tolerance it missed.
"""

import math
import struct

import numpy as np
from scipy import ndimage

EPS = np.finfo(float).eps

# The CSV header documented for `hsfusion diagnose --csv`.
DIAGNOSE_CSV_HEADER = "iter,res_x,res_y,res_g1,res_g2,rho,objective"
TRACE_COLUMNS = ("res_x", "res_y", "res_g1", "res_g2", "rho", "objective")


class CheckFailed(Exception):
    """An output of the program disagreed with its oracle or a required property."""


# ---------------------------------------------------------------- oracles


def forward(z, p1, p2, p3):
    """Degradation model x = z x_1 P1 x_2 P2 and y = z x_3 P3, by einsum."""
    x = np.einsum("ia,jb,abk->ijk", p1, p2, z, optimize=True)
    y = np.einsum("abk,lk->abl", z, p3, optimize=True)
    return x, y


def psnr(ref, est, peak, cap=100.0):
    """Per-band PSNR in dB, averaged over bands; an error-free band counts as `cap`."""
    vals = []
    for b in range(ref.shape[2]):
        mse = np.mean((ref[:, :, b] - est[:, :, b]) ** 2)
        vals.append(cap if mse == 0 else 10.0 * math.log10(peak * peak / mse))
    return float(np.mean(vals))


def ergas(ref, est, ratio):
    """100/ratio * sqrt(mean over bands of MSE_b / mean_b^2), zero-mean bands left out."""
    terms = []
    for b in range(ref.shape[2]):
        mu = ref[:, :, b].mean()
        if mu != 0:
            terms.append(np.mean((ref[:, :, b] - est[:, :, b]) ** 2) / mu**2)
    return float(100.0 / ratio * math.sqrt(np.mean(terms)))


def _unit_spectra(ref, est):
    r = ref.reshape(-1, ref.shape[2])
    e = est.reshape(-1, est.shape[2])
    nr = np.sqrt(np.sum(r * r, axis=1))
    ne = np.sqrt(np.sum(e * e, axis=1))
    keep = (nr > 0) & (ne > 0)
    return r[keep] / nr[keep, None], e[keep] / ne[keep, None]


def pixel_angles(ref, est):
    """Spectral angle of every pixel with two nonzero spectra, in radians.

    Uses 2*atan2(|u - v|, |u + v|) on the unit spectra, which stays accurate
    for angles near zero where arccos of the cosine does not.
    """
    u, v = _unit_spectra(ref, est)
    return 2.0 * np.arctan2(np.linalg.norm(u - v, axis=1), np.linalg.norm(u + v, axis=1))


def sam(ref, est):
    """Mean spectral angle in degrees over pixels with nonzero spectra."""
    return float(np.degrees(pixel_angles(ref, est).mean()))


def sam_tolerance(ref, est):
    """How far an arccos-based SAM may honestly sit from the oracle, in degrees.

    A cosine rounded by k*eps moves arccos near angle t by about k*eps/t, and
    by at most sqrt(2*k*eps) at t = 0; k = 4 * bands bounds the rounding of
    the dot product and the two norms.
    """
    k = 4.0 * ref.shape[2] * EPS
    t = pixel_angles(ref, est)
    per_pixel = np.minimum(k / np.maximum(t, 1e-300), math.sqrt(2.0 * k))
    return float(np.degrees(per_pixel.mean())) + 1e-12


def ssim(ref, est, peak, win=11, sigma=1.5):
    """Single-scale SSIM on the valid interior, Gaussian window, averaged over bands."""
    radius = win // 2
    c1 = (0.01 * peak) ** 2
    c2 = (0.03 * peak) ** 2
    inner = (slice(radius, -radius), slice(radius, -radius))

    def blur(img):
        return ndimage.gaussian_filter(img, sigma, radius=radius, mode="constant")[inner]

    vals = []
    for b in range(ref.shape[2]):
        x = ref[:, :, b]
        y = est[:, :, b]
        mx, my = blur(x), blur(y)
        vx = blur(x * x) - mx * mx
        vy = blur(y * y) - my * my
        cxy = blur(x * y) - mx * my
        s = ((2 * mx * my + c1) * (2 * cxy + c2)) / ((mx * mx + my * my + c1) * (vx + vy + c2))
        vals.append(s.mean())
    return float(np.mean(vals))


def read_cmt(path):
    """Read a .cmt tensor from its documented byte layout.

    "CMT1", dtype byte 0x01 (float64 LE), ndim byte (2 or 3), ndim u64 LE
    dimensions, then the row-major payload; the length must match exactly.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != b"CMT1":
        raise CheckFailed(f"{path}: magic {data[:4]!r} is not b'CMT1'")
    if len(data) < 6 or data[4] != 0x01:
        raise CheckFailed(f"{path}: dtype byte is not 0x01 (float64)")
    ndim = data[5]
    if ndim not in (2, 3):
        raise CheckFailed(f"{path}: ndim byte {ndim} is not 2 or 3")
    head = 6 + 8 * ndim
    if len(data) < head:
        raise CheckFailed(f"{path}: header truncated at {len(data)} bytes")
    dims = struct.unpack(f"<{ndim}Q", data[6:head])
    count = math.prod(dims)
    if len(data) != head + 8 * count:
        raise CheckFailed(
            f"{path}: {len(data)} bytes, layout {dims} needs {head + 8 * count}"
        )
    return np.frombuffer(data, dtype="<f8", count=count, offset=head).reshape(dims)


def spectral_basis(x, r):
    """Orthonormal basis (bands x r) of the dominant r-dimensional spectral subspace of x."""
    _, _, vt = np.linalg.svd(x.reshape(-1, x.shape[2]), full_matrices=False)
    return vt[:r].T


def subspace_distance(z, basis, rows=4096):
    """|z - z B B^T|_F / |z|_F over pixel spectra, computed in blocks of pixels."""
    flat = z.reshape(-1, z.shape[2])
    out2 = 0.0
    for i in range(0, flat.shape[0], rows):
        block = flat[i : i + rows]
        resid = block - (block @ basis) @ basis.T
        out2 += float(np.sum(resid * resid))
    return math.sqrt(out2) / float(np.linalg.norm(flat))


# ---------------------------------------------------------------- checks


def check_finite(name, arr):
    if not np.isfinite(arr).all():
        raise CheckFailed(f"{name} has non-finite entries")


def check_close(name, got, want, rtol, atol=0.0):
    if not abs(got - want) <= atol + rtol * abs(want):
        raise CheckFailed(
            f"{name}: program {got!r} vs oracle {want!r} "
            f"(allowed {atol:g} + {rtol:g} relative)"
        )


def check_in_subspace(z_hat, x, r, tol=1e-8):
    """z_hat lies in the rank-r spectral subspace of x, taken from the oracle SVD."""
    dist = subspace_distance(z_hat, spectral_basis(x, r))
    if not dist <= tol:
        raise CheckFailed(f"estimate leaves the rank-{r} subspace of X: relative distance {dist:.3e} > {tol:g}")
    return dist


def check_forward(x, y, z, p1, p2, p3, rtol=1e-12):
    """x and y equal the oracle forward model of z to rounding."""
    fx, fy = forward(z, p1, p2, p3)
    for name, got, want in (("x", x, fx), ("y", y, fy)):
        if got.shape != want.shape:
            raise CheckFailed(f"{name}: shape {got.shape}, forward model gives {want.shape}")
        err = float(np.linalg.norm(got - want))
        if not err <= rtol * float(np.linalg.norm(want)):
            raise CheckFailed(f"{name} differs from the forward model of z by {err:.3e} (relative bound {rtol:g})")


def feasibility(z_hat, x, y, p1, p2, p3):
    """Oracle residual norms |X - z_hat x_1 P1 x_2 P2| and |Y - z_hat x_3 P3|."""
    fx, fy = forward(z_hat, p1, p2, p3)
    return float(np.linalg.norm(x - fx)), float(np.linalg.norm(y - fy))


def check_feasible(z_hat, x, y, p1, p2, p3, threshold):
    rx, ry = feasibility(z_hat, x, y, p1, p2, p3)
    if not max(rx, ry) <= threshold:
        raise CheckFailed(f"oracle residuals x {rx:.3e}, y {ry:.3e} exceed the feasibility threshold {threshold:.3e}")
    return rx, ry


def oracle_metrics(ref, est, ratio, peak=None):
    peak = float(ref.max()) if peak is None else peak
    return {
        "psnr": psnr(ref, est, peak),
        "ergas": ergas(ref, est, ratio),
        "sam": sam(ref, est),
        "ssim": ssim(ref, est, peak),
    }


def check_metrics(got, ref, est, ratio, peak=None):
    """The program's psnr/ergas/sam/ssim (a dict) agree with the oracles."""
    want = oracle_metrics(ref, est, ratio, peak)
    check_close("psnr", got["psnr"], want["psnr"], rtol=1e-9)
    check_close("ergas", got["ergas"], want["ergas"], rtol=1e-9)
    check_close("sam", got["sam"], want["sam"], rtol=1e-9, atol=sam_tolerance(ref, est))
    check_close("ssim", got["ssim"], want["ssim"], rtol=0.0, atol=1e-9)
    return want


def parse_eval_lines(text):
    """`key=value` lines of `hsfusion eval` as a dict of floats."""
    out = {}
    for line in text.splitlines():
        key, sep, val = line.partition("=")
        if not sep:
            raise CheckFailed(f"eval line {line!r} is not key=value")
        out[key.strip()] = float(val)
    if set(out) != {"psnr", "ergas", "sam", "ssim"}:
        raise CheckFailed(f"eval printed keys {sorted(out)}, expected psnr/ergas/sam/ssim")
    return out


def check_diagnose_csv(path, report):
    """The CSV has the documented header and one row per iteration equal to the report's traces."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != DIAGNOSE_CSV_HEADER:
        raise CheckFailed(f"{path}: header {lines[:1]} is not {DIAGNOSE_CSV_HEADER!r}")
    rows = lines[1:]
    n = report["iterations"]
    if len(rows) != n:
        raise CheckFailed(f"{path}: {len(rows)} rows for {n} iterations")
    for k, line in enumerate(rows):
        fields = line.split(",")
        if len(fields) != 1 + len(TRACE_COLUMNS) or int(fields[0]) != k + 1:
            raise CheckFailed(f"{path}: row {k + 1} is malformed: {line!r}")
        for col, text in zip(TRACE_COLUMNS, fields[1:]):
            if float(text) != report[col][k]:
                raise CheckFailed(f"{path}: row {k + 1} {col} {text} != report {report[col][k]!r}")
