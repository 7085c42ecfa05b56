import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
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
from hsfusion.metrics import (
    _BLOCK_BYTES,
    _SLAB_ROWS,
    _STATS_BYTES,
    PSNR_CAP_DB,
    _band_stats,
    _ssim_block,
    _stats_rows,
)

from _shared import _misaligned_readonly, _traced_peak


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


def test_whole_cube_psnr_matches_the_flattened_mse():
    rng = np.random.default_rng(19)
    ref = rng.random((45, 38, 7))
    est = ref + rng.normal(0.0, 0.05, ref.shape)
    want = 10.0 * np.log10(1.0 / np.mean((ref - est) ** 2))
    assert psnr(ref, est, 1.0, per_band=False) == pytest.approx(want, rel=1e-13)


# the squared-error sums read _SLAB_ROWS (16) rows at a time: fewer rows than
# one slab, exactly one, two whole slabs, a ragged last slab, a single row
_SLABBED_SHAPES = [(9, 7, 5), (16, 7, 5), (32, 5, 2), (41, 6, 3), (1, 13, 4), (300, 7, 2)]


@pytest.mark.parametrize("shape", _SLABBED_SHAPES)
def test_band_mse_has_the_bits_of_the_whole_cube_reduction(shape):
    rng = np.random.default_rng(sum(shape))
    ref = rng.random(shape)
    est = ref + rng.normal(0.0, 0.05, shape)
    want = ((ref - est) ** 2).mean(axis=(0, 1))
    assert _band_stats(ref, est)[0].tobytes() == want.tobytes()


@pytest.mark.parametrize("i1", [9, _SLAB_ROWS, 41])
def test_band_mse_of_one_band(i1):
    # numpy sums one band's contiguous column pairwise, the slabs sequentially
    rng = np.random.default_rng(i1)
    ref = rng.random((i1, 13, 1))
    est = ref + rng.normal(0.0, 0.05, ref.shape)
    want = ((ref - est) ** 2).mean(axis=(0, 1))
    np.testing.assert_allclose(_band_stats(ref, est)[0], want, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("shape", [*_SLABBED_SHAPES, (9, 7, 1), (41, 6, 1)])
def test_band_stats_take_the_reference_mean_and_maximum_with_its_bits(shape):
    # the slab loop's band means and maximum equal the whole-cube reductions bit for bit
    rng = np.random.default_rng(sum(shape) + 1)
    ref = rng.random(shape) - 0.25
    est = ref + rng.normal(0.0, 0.05, shape)
    _, mean, ref_max = _band_stats(ref, est)
    assert mean.tobytes() == ref.mean(axis=(0, 1)).tobytes()
    assert type(ref_max) is float and ref_max == float(ref.max())


# odd and even sides at least SSIM's window: shorter than one slab, one slab, a ragged last slab
@pytest.mark.parametrize("shape", [(11, 12, 5), (16, 13, 4), (41, 14, 3), (32, 11, 2)])
def test_evaluate_has_the_bits_of_the_whole_cube_formulas(shape):
    # the default peak is the reference maximum, and ERGAS divides by the band means
    rng = np.random.default_rng(sum(shape) + 2)
    ref = rng.random(shape) + 0.05
    est = ref + rng.normal(0.0, 0.05, shape)
    mse, mu = ((ref - est) ** 2).mean(axis=(0, 1)), ref.mean(axis=(0, 1))
    rep = evaluate(ref, est, ratio=4.0)
    assert rep.psnr == psnr(ref, est, float(ref.max()))
    assert rep.ergas == float(100.0 / 4.0 * np.sqrt(np.mean(mse / mu**2)))


def _sam_whole_cube(ref, est):
    """SAM as whole-cube einsums over the pixel spectra, then arccos, degrees and mean."""
    bands = ref.shape[2]
    r = ref.reshape(-1, bands)
    e = est.reshape(-1, bands)
    nr = np.sqrt(np.einsum("ij,ij->i", r, r))
    ne = np.sqrt(np.einsum("ij,ij->i", e, e))
    valid = (nr > 0) & (ne > 0)
    cosang = np.einsum("ij,ij->i", r, e)[valid] / (nr[valid] * ne[valid])
    return float(np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0))).mean())


@pytest.mark.parametrize("shape, rows", [
    ((256, 256, 162), 1), ((64, 64, 32), 16), ((96, 96, 48), 7), ((300, 7, 1), 16),
    ((9, 4096, 1), 16), ((5, 0, 3), 16),
], ids=["256x256x162", "64x64x32", "96x96x48", "one-band", "one-wide-band", "no-columns"])
def test_stats_slabs_fit_a_quarter_mebibyte_of_each_input(shape, rows):
    _, i2, bands = shape
    assert _stats_rows(i2, bands) == rows
    assert rows == 1 or bands == 1 or rows * i2 * bands * 8 <= _STATS_BYTES


# odd and even sides; 1, 2, 5, 80 and 161 bands; fewer rows than a slab, a ragged last
# slab (41 rows in slabs of 16) and one-row slabs (a row of 205 x 161 or 410 x 80
# doubles is more than _STATS_BYTES)
_SAM_SHAPES = [(11, 12, 1), (40, 13, 1), (12, 11, 2), (41, 14, 5), (16, 16, 5), (13, 12, 161),
               (12, 205, 161), (11, 410, 80)]


@pytest.mark.parametrize("shape", _SAM_SHAPES)
def test_band_stats_write_the_bits_of_the_whole_cube_dot_products(shape):
    rng = np.random.default_rng(sum(shape) + 3)
    ref = rng.random(shape)
    est = ref + rng.normal(0.0, 0.05, shape)
    dots = np.empty((3, shape[0] * shape[1]))
    stats = _band_stats(ref, est, dots)
    r, e = ref.reshape(-1, shape[2]), est.reshape(-1, shape[2])
    for got, (a, b) in zip(dots, ((r, r), (e, e), (r, e))):
        assert got.tobytes() == np.einsum("ij,ij->i", a, b).tobytes()
    # the sums do not depend on whether the dot products are taken
    for got, want in zip(stats, _band_stats(ref, est)):
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


@pytest.mark.parametrize("shape", _SAM_SHAPES)
def test_evaluate_has_the_bits_of_the_whole_cube_sam(shape):
    rng = np.random.default_rng(sum(shape) + 4)
    ref = rng.random(shape) + 0.05
    est = ref + rng.normal(0.0, 0.05, shape)
    want = _sam_whole_cube(ref, est)
    assert sam(ref, est) == want
    assert evaluate(ref, est, ratio=4.0).sam == want


def test_evaluate_warns_once_for_a_zero_spectrum_and_keeps_sam_bits():
    rng = np.random.default_rng(22)
    ref = rng.random((23, 18, 5)) + 0.05
    est = ref + rng.normal(0.0, 0.05, ref.shape)
    ref[7, 3] = 0.0
    want = _sam_whole_cube(ref, est)
    for metric in (sam, lambda ref, est: evaluate(ref, est).sam):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert metric(ref, est) == want
        assert [str(w.message) for w in caught] == ["SAM: skipped 1 pixel(s) with a zero spectrum"]


def test_metrics_build_no_cube_sized_temporary():
    rng = np.random.default_rng(18)
    ref = rng.random((512, 16, 64)) + 0.05  # 4.2 MB
    est = ref + rng.normal(0.0, 0.05, ref.shape)
    cube = ref.nbytes
    # evaluate's largest buffers are ssim's slab buffers, then sam's per-pixel norms
    assert _traced_peak(evaluate, ref, est, ratio=4.0)[1] < cube / 4
    assert _traced_peak(psnr, ref, est, 1.0)[1] < cube / 10
    assert _traced_peak(psnr, ref, est, 1.0, per_band=False)[1] < cube / 10
    assert _traced_peak(ergas, ref, est, 4.0)[1] < cube / 10


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


# ssim filters up to 16 output rows at a time, and columns in tiles as wide;
# (win_size, win_sigma) is the default window or a smaller or wider one
@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    i1=st.integers(11, 60),
    i2=st.integers(11, 60),
    bands=st.integers(1, 9),
    seed=st.integers(0, 2**32 - 1),
    window=st.sampled_from([(11, 1.5), (7, 1.0), (9, 2.0)]),
)
@example(i1=11, i2=11, bands=1, seed=0, window=(11, 1.5))  # one output pixel
@example(i1=27, i2=60, bands=9, seed=1, window=(11, 1.5))  # a one-row last slab; a ragged last tile
@example(i1=42, i2=42, bands=2, seed=2, window=(11, 1.5))  # two full slabs and tiles
@example(i1=22, i2=13, bands=3, seed=3, window=(7, 1.0))  # exactly one slab of 16 rows
def test_ssim_matches_per_band_path(i1, i2, bands, seed, window):
    rng = np.random.default_rng(seed)
    ref = rng.random((i1, i2, bands))
    est = np.clip(ref + rng.normal(0.0, 0.2, ref.shape), 0.0, None)
    size, sigma = window
    want = _ssim_per_band(ref, est, peak=1.0, size=size, sigma=sigma)
    got = ssim(ref, est, peak=1.0, win_size=size, win_sigma=sigma)
    assert got == pytest.approx(want, rel=1e-12)


# cubes too wide in bands for a full-width slab: ssim filters blocks of 8 rows
# and of columns in multiples of 16, with ragged last row and column blocks,
# and a block as wide as a narrow image
@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    i1=st.integers(11, 100),
    i2=st.integers(11, 100),
    bands=st.integers(200, 500),
    seed=st.integers(0, 2**32 - 1),
)
@example(i1=37, i2=100, bands=200, seed=0)  # row blocks of 8, 8, 8, 3; column blocks of 16 and a last of 10
@example(i1=30, i2=20, bands=500, seed=1)  # a 16-column block cut to the 10 output columns
@example(i1=12, i2=64, bands=300, seed=2)  # two output rows
def test_ssim_matches_per_band_path_across_block_edges(i1, i2, bands, seed):
    n1, n2 = i1 - 10, i2 - 10
    assume(_ssim_block(n1, n2, bands, 10) != (min(_SLAB_ROWS, n1), n2))
    rng = np.random.default_rng(seed)
    ref = rng.random((i1, i2, bands))
    est = np.clip(ref + rng.normal(0.0, 0.2, ref.shape), 0.0, None)
    want = _ssim_per_band(ref, est, peak=1.0)
    assert ssim(ref, est, peak=1.0) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize(
    "shape, block",
    [((64, 64, 32), (16, 54)), ((96, 96, 48), (16, 86)), ((256, 256, 162), (8, 32))],
    ids=["64x64x32", "96x96x48", "256x256x162"],
)
def test_ssim_block_is_a_full_width_slab_only_while_one_fits(shape, block):
    i1, i2, bands = shape
    assert _ssim_block(i1 - 10, i2 - 10, bands, 10) == block


def test_ssim_buffers_stay_within_a_few_blocks():
    rng = np.random.default_rng(21)
    ref = rng.random((64, 256, 162))  # 21 MB
    est = ref + rng.normal(0.0, 0.05, ref.shape)
    # 8x32 blocks: 3.1 MB of buffers (full-width slabs of 16 rows took 39 MB)
    assert _traced_peak(ssim, ref, est, 1.0)[1] < 5 * _BLOCK_BYTES


def test_ssim_rejects_an_even_window():
    t = np.zeros((16, 16, 1))
    with pytest.raises(ValueError, match="odd"):
        ssim(t, t, 1.0, win_size=8)


def test_ssim_matches_oracle_across_slab_edges():
    # 35x28 output pixels: row slabs of 16, 16 and 3, column tiles of 16 and 12
    rng = np.random.default_rng(15)
    ref = rng.random((45, 38, 3))
    est = np.clip(ref + rng.normal(0.0, 0.1, ref.shape), 0.0, 1.0)
    want = _ssim_windowed_oracle(ref, est, peak=1.0)
    assert ssim(ref, est, peak=1.0) == pytest.approx(want, rel=1e-10)


def test_ssim_rejects_an_infinite_window_sigma():
    t = np.zeros((16, 16, 1))
    with pytest.raises(ValueError, match="sigma must be positive and finite, got inf"):
        ssim(t, t, 1.0, win_sigma=np.inf)


def test_ssim_rejects_small_images():
    with pytest.raises(DimensionError):
        ssim(np.zeros((8, 20, 1)), np.zeros((8, 20, 1)), 1.0)


def test_bicubic_factor_one_identity():
    rng = np.random.default_rng(12)
    t = rng.random((5, 6, 3))
    assert np.array_equal(bicubic_upsample(t, 1), t)


@pytest.mark.parametrize("factor", [2.5, 0.5, 0])
def test_bicubic_rejects_a_factor_that_is_not_a_positive_integer(factor):
    # a truncated 2.5 would upsample by 2
    t = np.random.default_rng(16).random((4, 4, 2))
    with pytest.raises(ValueError, match=f"factor must be a positive integer, got {factor}"):
        bicubic_upsample(t, factor)
    # an integral float names the same factor
    assert np.array_equal(bicubic_upsample(t, 4.0), bicubic_upsample(t, 4))


def _keys_weights(x, a=-0.5):
    """Keys (1981) cubic convolution kernel, zero from |x| = 2 on."""
    x = np.abs(x)
    inner = (a + 2.0) * x**3 - (a + 3.0) * x**2 + 1.0
    outer = a * (x**3 - 5.0 * x**2 + 8.0 * x - 4.0)
    return np.where(x <= 1.0, inner, np.where(x < 2.0, outer, 0.0))


def test_bicubic_odd_factor_matches_a_keys_kernel_oracle():
    # an odd factor puts output samples on input samples, where the taps two
    # away fall on the kernel's |x| = 2 edge
    factor = 3
    x = np.random.default_rng(19).random((5, 4, 2))

    def upsample_axis(t, axis):
        # every input sample k weighs in at its distance; borders replicate
        n = t.shape[axis]
        src = (np.arange(n * factor) + 0.5) / factor - 0.5
        k = np.arange(-3, n + 3)
        w = _keys_weights(src[:, None] - k[None, :])
        return np.moveaxis(np.tensordot(w, np.take(t, np.clip(k, 0, n - 1), axis=axis),
                                        axes=(1, axis)), 0, axis)

    want = upsample_axis(upsample_axis(x, 0), 1)
    assert np.allclose(bicubic_upsample(x, factor), want, rtol=0, atol=1e-13)


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


@pytest.mark.parametrize("ratio", [1.0, 4.0])
def test_evaluate_shares_squared_error_with_psnr_and_ergas(ratio):
    rng = np.random.default_rng(17)
    ref = rng.random((23, 17, 6)) + 0.05
    est = ref + rng.normal(0.0, 0.03, ref.shape)
    est[:, :, 2] = ref[:, :, 2]  # one zero-error band, capped in PSNR
    rep = evaluate(ref, est, ratio=ratio)
    assert rep.psnr == psnr(ref, est, float(ref.max()))
    assert rep.ergas == ergas(ref, est, ratio)


# each metric on (ref, est), with a peak or ratio where it takes one
_METRIC_CALLS = {
    "psnr": lambda ref, est: psnr(ref, est, 1.0),
    "whole-cube psnr": lambda ref, est: psnr(ref, est, 1.0, per_band=False),
    "ergas": lambda ref, est: ergas(ref, est, 4.0),
    "sam": sam,
    "ssim": lambda ref, est: ssim(ref, est, 1.0),
    "evaluate": evaluate,
}

# (the input at fault, the entries set, their value)
_NON_FINITE = {
    "nan pixel": ("estimate", (7, 9, 2), np.nan),
    "inf band": ("estimate", (slice(None), slice(None), 1), np.inf),
    "-inf pixel": ("estimate", (3, 3, 0), -np.inf),
    "nan reference pixel": ("reference", (7, 9, 2), np.nan),
}


@pytest.mark.parametrize("case", _NON_FINITE)
@pytest.mark.parametrize("metric", _METRIC_CALLS)
def test_metrics_reject_non_finite_inputs(metric, case):
    # unchecked, a NaN estimate scores a capped 100 dB PSNR and a NaN SSIM
    name, index, value = _NON_FINITE[case]
    rng = np.random.default_rng(20)
    ref = rng.random((20, 20, 4)) + 0.05
    est = ref + rng.normal(0.0, 0.05, ref.shape)
    (est if name == "estimate" else ref)[index] = value
    with pytest.raises(ValueError, match=f"^{name} contains non-finite entries$"):
        _METRIC_CALLS[metric](ref, est)


@pytest.mark.parametrize("metric", _METRIC_CALLS)
def test_metrics_reject_sums_that_overflow(metric):
    ref = np.full((20, 20, 4), 1e200)
    with pytest.raises(ValueError, match="overflow"):
        _METRIC_CALLS[metric](ref, np.zeros_like(ref))


@pytest.mark.parametrize("layout", [_misaligned_readonly, np.asfortranarray])
def test_evaluate_does_not_depend_on_input_layout(layout):
    rng = np.random.default_rng(16)
    ref = rng.random((45, 38, 9)) + 0.05
    est = ref + rng.normal(0.0, 0.05, ref.shape)
    want = evaluate(ref, est, ratio=4.0)
    assert evaluate(layout(ref), layout(est), ratio=4.0) == want


_PEAK_MESSAGE = "peak must be positive and finite, its fourth power too, got {}"


@pytest.mark.parametrize("call, message", [
    (lambda ref, est: psnr(ref, est, np.inf), _PEAK_MESSAGE.format("inf")),
    (lambda ref, est: psnr(ref, est, 1e200, per_band=False), _PEAK_MESSAGE.format("1e+200")),
    (lambda ref, est: ssim(ref, est, np.inf), _PEAK_MESSAGE.format("inf")),
    (lambda ref, est: ssim(ref, est, 1e160), _PEAK_MESSAGE.format("1e+160")),
    (lambda ref, est: ssim(ref, est, 1e80), _PEAK_MESSAGE.format("1e+80")),
    (lambda ref, est: evaluate(ref, est, peak=np.inf), _PEAK_MESSAGE.format("inf")),
    (lambda ref, est: evaluate(ref, est, ratio=np.inf),
     "resolution ratio must be positive and finite, got inf"),
    (lambda ref, est: ergas(ref, est, np.nan), "resolution ratio must be positive and finite, got nan"),
], ids=["psnr-inf", "psnr-square", "ssim-inf", "ssim-square", "ssim-fourth-power",
        "evaluate-peak", "evaluate-ratio", "ergas-nan"])
def test_metrics_reject_a_peak_or_ratio_they_cannot_use(call, message):
    # an infinite ratio would score ERGAS 0, and a peak whose fourth power overflows makes
    # SSIM's C1 C2 overflow and so would blame finite inputs
    ref = np.random.default_rng(21).random((12, 12, 3)) + 0.05
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(ref, ref * 0.9)


class _Unreadable:
    """A cube that fails the test if a metric reads it."""

    shape = (12, 12, 3)

    def __array__(self, dtype=None, copy=None):
        raise AssertionError("the cube was read")


@pytest.mark.parametrize("call, message", [
    (lambda ref, est: evaluate(ref, est, ratio=np.inf),
     "resolution ratio must be positive and finite, got inf"),
    (lambda ref, est: evaluate(ref, est, peak=1e100), _PEAK_MESSAGE.format("1e+100")),
    (lambda ref, est: evaluate(ref, est, peak=-1.0), _PEAK_MESSAGE.format("-1.0")),
    (lambda ref, est: psnr(ref, est, np.nan), _PEAK_MESSAGE.format("nan")),
    (lambda ref, est: ergas(ref, est, 0.0), "resolution ratio must be positive and finite, got 0.0"),
    (lambda ref, est: ssim(ref, est, np.inf), _PEAK_MESSAGE.format("inf")),
], ids=["evaluate-ratio", "evaluate-peak", "evaluate-negative-peak", "psnr", "ergas", "ssim"])
def test_metrics_check_a_peak_or_ratio_before_reading_the_cubes(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(_Unreadable(), _Unreadable())


@pytest.mark.parametrize("call, error, message", [
    (lambda: bicubic_upsample(np.ones((4, 4)), 2), DimensionError,
     "expected a 3-way tensor, got ndim=2"),
    (lambda: evaluate(-np.ones((12, 12, 3)), -np.ones((12, 12, 3))), MetricUndefinedError,
     "peak undefined: reference maximum is not positive"),
    (lambda: evaluate(np.full((12, 12, 3), 1e100), np.full((12, 12, 3), 1e100)),
     MetricUndefinedError, "peak undefined: reference maximum 1e+100 is too large"),
    (lambda: evaluate(np.full((12, 12, 3), 1e200), np.full((12, 12, 3), 1e200)),
     MetricUndefinedError, "peak undefined: reference maximum 1e+200 is too large"),
], ids=["bicubic-2-d", "evaluate-default-peak", "evaluate-default-peak-1e100",
        "evaluate-default-peak-1e200"])
def test_metric_guards_name_what_they_reject(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
