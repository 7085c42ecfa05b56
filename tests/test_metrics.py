import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from hsfusion import (
    DimensionError,
    MetricUndefinedError,
    bicubic_upsample,
    ergas,
    evaluate,
    psnr,
    sam,
    ssim,
)
from hsfusion.metrics import PSNR_CAP_DB


def test_psnr_identical_hits_cap():
    rng = np.random.default_rng(0)
    t = rng.random((8, 8, 4))
    assert psnr(t, t, peak=1.0) == PSNR_CAP_DB


def test_psnr_constant_offset():
    ref = np.zeros((10, 10, 3))
    est = np.full((10, 10, 3), 0.1)
    assert psnr(ref, est, peak=1.0) == pytest.approx(20.0, abs=1e-12)


def test_psnr_matches_per_band_loop_oracle():
    rng = np.random.default_rng(1)
    ref = rng.random((6, 7, 5))
    est = rng.random((6, 7, 5))
    vals = []
    for b in range(5):
        mse = np.mean((ref[:, :, b] - est[:, :, b]) ** 2)
        vals.append(10.0 * np.log10(1.0 / mse))
    assert psnr(ref, est, peak=1.0) == pytest.approx(np.mean(vals), rel=1e-10)


def test_psnr_symmetry():
    rng = np.random.default_rng(2)
    ref = rng.random((5, 5, 3))
    est = rng.random((5, 5, 3))
    assert psnr(ref, est, 1.0) == pytest.approx(psnr(est, ref, 1.0), abs=1e-12)


def test_psnr_whole_cube_variant_differs():
    rng = np.random.default_rng(3)
    ref = rng.random((5, 5, 3))
    est = ref + rng.normal(0, [0.001, 0.2, 0.2], (5, 5, 3))
    assert psnr(ref, est, 1.0) != pytest.approx(psnr(ref, est, 1.0, per_band=False))


def test_psnr_rejects_shape_mismatch():
    with pytest.raises(DimensionError):
        psnr(np.zeros((3, 3, 2)), np.zeros((3, 3, 3)), 1.0)


def test_ergas_identical_is_zero():
    rng = np.random.default_rng(4)
    t = rng.random((6, 6, 4)) + 0.5
    assert ergas(t, t, 8.0) == 0.0


def test_ergas_single_band_formula():
    c, delta = 0.4, 0.05
    ref = np.full((8, 8, 1), c)
    est = np.full((8, 8, 1), c + delta)
    assert ergas(ref, est, 8.0) == pytest.approx(100.0 / 8.0 * delta / c, rel=1e-12)


def test_ergas_matches_loop_oracle():
    rng = np.random.default_rng(5)
    ref = rng.random((6, 7, 5)) + 0.2
    est = rng.random((6, 7, 5))
    acc = 0.0
    for b in range(5):
        rmse2 = np.mean((ref[:, :, b] - est[:, :, b]) ** 2)
        acc += rmse2 / np.mean(ref[:, :, b]) ** 2
    want = 100.0 / 4.0 * np.sqrt(acc / 5)
    assert ergas(ref, est, 4.0) == pytest.approx(want, rel=1e-10)


def test_ergas_scale_invariance():
    rng = np.random.default_rng(6)
    ref = rng.random((5, 5, 3)) + 0.5
    est = rng.random((5, 5, 3))
    a = ergas(ref, est, 8.0)
    b = ergas(3.0 * ref, 3.0 * est, 8.0)
    assert a == pytest.approx(b, rel=1e-12)


def test_ergas_excludes_zero_mean_bands():
    ref = np.zeros((4, 4, 2))
    ref[:, :, 0] = 1.0
    est = ref + 0.1
    with pytest.warns(UserWarning, match="zero-mean"):
        val = ergas(ref, est, 2.0)
    assert np.isfinite(val)


def test_ergas_undefined_when_all_bands_zero_mean():
    with pytest.raises(MetricUndefinedError):
        ergas(np.zeros((4, 4, 2)), np.ones((4, 4, 2)), 2.0)


def test_sam_scale_invariance_gives_zero():
    rng = np.random.default_rng(7)
    ref = rng.random((6, 6, 5)) + 0.1
    assert sam(ref, 2.5 * ref) == pytest.approx(0.0, abs=1e-5)


def test_sam_orthogonal_spectra():
    ref = np.zeros((4, 4, 2))
    est = np.zeros((4, 4, 2))
    ref[:, :, 0] = 1.0
    est[:, :, 1] = 1.0
    assert sam(ref, est) == pytest.approx(90.0, abs=1e-10)


def test_sam_invariant_to_per_pixel_positive_scaling():
    rng = np.random.default_rng(14)
    ref = rng.random((6, 6, 5)) + 0.1
    est = rng.random((6, 6, 5)) + 0.1
    scales = rng.uniform(0.1, 10.0, (6, 6, 1))
    assert sam(ref, est * scales) == pytest.approx(sam(ref, est), abs=1e-10)


def test_sam_matches_pixel_loop_oracle():
    rng = np.random.default_rng(8)
    ref = rng.random((5, 6, 4)) + 0.05
    est = rng.random((5, 6, 4)) + 0.05
    angles = []
    for i in range(5):
        for j in range(6):
            r = ref[i, j, :]
            e = est[i, j, :]
            cosv = r @ e / (np.linalg.norm(r) * np.linalg.norm(e))
            angles.append(np.degrees(np.arccos(np.clip(cosv, -1, 1))))
    assert sam(ref, est) == pytest.approx(np.mean(angles), rel=1e-10)


def test_sam_skips_zero_pixels():
    ref = np.ones((2, 2, 3))
    est = np.ones((2, 2, 3))
    ref[0, 0, :] = 0.0
    with pytest.warns(UserWarning, match="skipped 1"):
        assert sam(ref, est) == pytest.approx(0.0, abs=1e-8)


def test_sam_undefined_for_all_zero():
    with pytest.raises(MetricUndefinedError):
        sam(np.zeros((2, 2, 3)), np.ones((2, 2, 3)))


def _ssim_windowed_oracle(ref, est, peak, size=11, sigma=1.5):
    """Direct windowed loop over every valid 11x11 patch."""
    k = np.arange(size) - (size - 1) / 2
    w1 = np.exp(-(k**2) / (2 * sigma**2))
    w1 /= w1.sum()
    w = np.outer(w1, w1)
    c1 = (0.01 * peak) ** 2
    c2 = (0.03 * peak) ** 2
    vals = []
    for b in range(ref.shape[2]):
        x = ref[:, :, b]
        y = est[:, :, b]
        rows = ref.shape[0] - size + 1
        cols = ref.shape[1] - size + 1
        total = 0.0
        for i in range(rows):
            for j in range(cols):
                px = x[i : i + size, j : j + size]
                py = y[i : i + size, j : j + size]
                mx = (w * px).sum()
                my = (w * py).sum()
                vx = (w * px * px).sum() - mx * mx
                vy = (w * py * py).sum() - my * my
                cxy = (w * px * py).sum() - mx * my
                total += ((2 * mx * my + c1) * (2 * cxy + c2)) / (
                    (mx * mx + my * my + c1) * (vx + vy + c2)
                )
        vals.append(total / (rows * cols))
    return float(np.mean(vals))


def test_ssim_identical_is_one():
    rng = np.random.default_rng(9)
    t = rng.random((16, 16, 2))
    assert ssim(t, t, peak=1.0) == pytest.approx(1.0, abs=1e-12)


def test_ssim_luminance_shift_matches_oracle():
    rng = np.random.default_rng(10)
    ref = rng.random((14, 15, 2))
    est = ref + 0.5
    got = ssim(ref, est, peak=1.0)
    want = _ssim_windowed_oracle(ref, est, peak=1.0)
    assert got < 1.0
    assert got == pytest.approx(want, rel=1e-10)


def test_ssim_anticorrelated_binary_image():
    rng = np.random.default_rng(11)
    ref = (rng.random((16, 16, 1)) > 0.5).astype(float)
    est = 1.0 - ref
    got = ssim(ref, est, peak=1.0)
    want = _ssim_windowed_oracle(ref, est, peak=1.0)
    assert got < 0.5
    assert got == pytest.approx(want, rel=1e-10)


def _ssim_per_band(ref, est, peak, size=11, sigma=1.5):
    """ssim as a loop over bands, each filtered by einsums over sliding windows."""
    k = np.arange(size) - (size - 1) / 2
    w = np.exp(-(k**2) / (2 * sigma**2))
    w /= w.sum()

    def filter_valid(img):
        out = np.einsum("ijk,k->ij", sliding_window_view(img, size, axis=0), w)
        return np.einsum("ijk,k->ij", sliding_window_view(out, size, axis=1), w)

    c1 = (0.01 * peak) ** 2
    c2 = (0.03 * peak) ** 2
    vals = []
    for b in range(ref.shape[2]):
        x = ref[:, :, b]
        y = est[:, :, b]
        mu_x = filter_valid(x)
        mu_y = filter_valid(y)
        var_x = filter_valid(x * x) - mu_x * mu_x
        var_y = filter_valid(y * y) - mu_y * mu_y
        cov = filter_valid(x * y) - mu_x * mu_y
        num = (2.0 * mu_x * mu_y + c1) * (2.0 * cov + c2)
        den = (mu_x**2 + mu_y**2 + c1) * (var_x + var_y + c2)
        vals.append(float((num / den).mean()))
    return float(np.mean(vals))


# ssim filters up to 16 output rows at a time, and columns in tiles as wide
@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    i1=st.integers(11, 60),
    i2=st.integers(11, 60),
    bands=st.integers(1, 9),
    seed=st.integers(0, 2**32 - 1),
)
@example(i1=11, i2=11, bands=1, seed=0)  # one output pixel
@example(i1=27, i2=60, bands=9, seed=1)  # a one-row last slab; a ragged last tile
@example(i1=42, i2=42, bands=2, seed=2)  # two full slabs and tiles
def test_ssim_matches_per_band_path(i1, i2, bands, seed):
    rng = np.random.default_rng(seed)
    ref = rng.random((i1, i2, bands))
    est = np.clip(ref + rng.normal(0.0, 0.2, ref.shape), 0.0, None)
    want = _ssim_per_band(ref, est, peak=1.0)
    assert ssim(ref, est, peak=1.0) == pytest.approx(want, rel=1e-12)


def test_ssim_matches_oracle_across_slab_edges():
    # 35x28 output pixels: row slabs of 16, 16 and 3, column tiles of 16 and 12
    rng = np.random.default_rng(15)
    ref = rng.random((45, 38, 3))
    est = np.clip(ref + rng.normal(0.0, 0.1, ref.shape), 0.0, 1.0)
    want = _ssim_windowed_oracle(ref, est, peak=1.0)
    assert ssim(ref, est, peak=1.0) == pytest.approx(want, rel=1e-10)


def test_ssim_rejects_small_images():
    with pytest.raises(DimensionError):
        ssim(np.zeros((8, 20, 1)), np.zeros((8, 20, 1)), 1.0)


def test_bicubic_factor_one_identity():
    rng = np.random.default_rng(12)
    t = rng.random((5, 6, 3))
    assert np.array_equal(bicubic_upsample(t, 1), t)


def test_bicubic_constant_band():
    t = np.full((6, 6, 2), 0.37)
    up = bicubic_upsample(t, 4)
    assert up.shape == (24, 24, 2)
    assert np.allclose(up, 0.37, atol=1e-12)


def test_bicubic_preserves_linear_ramp_interior():
    n, f = 12, 4
    ramp = np.tile(np.arange(n, dtype=float)[:, None, None], (1, n, 1))
    up = bicubic_upsample(ramp, f)
    expected = (np.arange(n * f) + 0.5) / f - 0.5
    # away from the clamped borders the Keys kernel reproduces linear signals
    interior = slice(2 * f, n * f - 2 * f)
    assert np.allclose(up[interior, 5, 0], expected[interior], atol=1e-10)


def test_evaluate_report_defaults():
    rng = np.random.default_rng(13)
    ref = rng.random((16, 16, 3)) + 0.1
    rep = evaluate(ref, ref)
    assert rep.psnr == PSNR_CAP_DB
    assert rep.ergas == 0.0
    assert rep.sam == pytest.approx(0.0, abs=1e-5)
    assert rep.ssim == pytest.approx(1.0, abs=1e-12)


def _misaligned_readonly(a):
    """A read-only copy of a whose data starts 30 bytes into a buffer."""
    raw = bytes(30) + np.ascontiguousarray(a, dtype=float).tobytes()
    view = np.frombuffer(raw, dtype=float, offset=30).reshape(a.shape)
    assert not view.flags.aligned and not view.flags.writeable
    return view


@pytest.mark.parametrize("layout", [_misaligned_readonly, np.asfortranarray])
def test_evaluate_does_not_depend_on_input_layout(layout):
    rng = np.random.default_rng(16)
    ref = rng.random((45, 38, 9)) + 0.05
    est = ref + rng.normal(0.0, 0.05, ref.shape)
    want = evaluate(ref, est, ratio=4.0)
    assert evaluate(layout(ref), layout(est), ratio=4.0) == want
