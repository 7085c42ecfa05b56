import re

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from hsfusion import (
    LANDSAT7_BANDS,
    DimensionError,
    DegradationSet,
    LogSurrogate,
    SceneSpec,
    build_spatial_degradation,
    build_spectral_response,
    default_wavelengths,
    gaussian_kernel_1d,
    make_degradation,
    mode_n_product,
    nms_tctv,
    read_band_table,
    simulate,
    synth_scene,
    unfold,
)
from hsfusion import degradation as degradation_module
from hsfusion.config import SPECTRA_KINDS
from hsfusion.tensor import all_finite

from _shared import _traced_peak


def test_kernel_size_one():
    assert np.array_equal(gaussian_kernel_1d(1, 2.0), [1.0])


def test_kernel_protocol_taps():
    k = gaussian_kernel_1d(9, 3.3973)
    assert k.shape == (9,)
    assert np.allclose(k, k[::-1])
    assert abs(k.sum() - 1.0) <= 1e-12


def test_kernel_matches_direct_formula():
    sigma = 3.3973
    k = gaussian_kernel_1d(9, sigma)
    raw = np.array([np.exp(-(step**2) / (2 * sigma**2)) for step in range(-4, 5)])
    assert np.allclose(k, raw / raw.sum(), atol=1e-14)


def test_kernel_rejects_even_size():
    with pytest.raises(ValueError):
        gaussian_kernel_1d(8, 1.0)


@pytest.mark.parametrize("size", [True, np.True_, 3.5, np.float64(9.5), 0, -3, "9"])
def test_kernel_size_must_be_an_odd_positive_integer(size):
    # True would build a 1-tap kernel that blurs nothing; 3.5 would fail only later, in
    # build_spatial_degradation
    message = rf"^kernel_size must be an odd positive integer, got {re.escape(repr(size))}$"
    with pytest.raises(ValueError, match=message):
        gaussian_kernel_1d(size, 1.0)
    with pytest.raises(ValueError, match=message):
        make_degradation((8, 8, 4), 2, size, 1.0, ((400.0, 2500.0),))
    # an integral float names the same size
    assert np.array_equal(gaussian_kernel_1d(9.0, 2.0), gaussian_kernel_1d(9, 2.0))


@pytest.mark.parametrize("sigma", [np.inf, np.nan, 0.0])
def test_kernel_rejects_a_sigma_that_is_not_positive_and_finite(sigma):
    # an infinite sigma would flatten the taps into a box kernel
    with pytest.raises(ValueError, match=f"sigma must be positive and finite, got {sigma}"):
        gaussian_kernel_1d(5, sigma)
    with pytest.raises(ValueError, match=f"got {sigma}"):
        make_degradation((8, 8, 4), 2, 5, sigma, ((400.0, 2500.0),))


def test_spatial_factor_one_identity():
    assert np.array_equal(build_spatial_degradation(5, 1, [1.0]), np.eye(5))


def test_spatial_pure_decimation_rows():
    p = build_spatial_degradation(4, 2, [1.0])
    want = np.zeros((2, 4))
    want[0, 0] = 1.0
    want[1, 2] = 1.0
    assert np.array_equal(p, want)


def test_spatial_preserves_constants():
    p = build_spatial_degradation(16, 4, gaussian_kernel_1d(9, 3.3973))
    assert np.allclose(p @ np.ones(16), np.ones(4), atol=1e-12)


def test_spatial_rows_sum_to_one():
    p = build_spatial_degradation(24, 8, gaussian_kernel_1d(9, 2.0))
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)


def test_spatial_rejects_nondivisible():
    with pytest.raises(DimensionError):
        build_spatial_degradation(10, 3, [1.0])


def test_spectral_single_band_covers_everything():
    wl = default_wavelengths(12)
    p = build_spectral_response([(400.0, 2500.0)], wl)
    assert np.allclose(p, 1.0 / 12)


def test_spectral_landsat7_supports():
    # uniform 400-2500 nm grid at 10 nm steps
    wl = np.arange(400.0, 2501.0, 10.0)
    p = build_spectral_response(LANDSAT7_BANDS, wl)
    assert p.shape == (6, wl.size)
    for row, (low, high) in zip(p, LANDSAT7_BANDS):
        support = wl[row > 0]
        assert support.min() >= low and support.max() <= high
        assert support.min() <= low + 10 and support.max() >= high - 10
        assert abs(row.sum() - 1.0) <= 1e-12


def test_spectral_disjoint_bands_disjoint_support():
    wl = default_wavelengths(30)
    p = build_spectral_response([(400.0, 800.0), (900.0, 1400.0)], wl)
    overlap = (p[0] > 0) & (p[1] > 0)
    assert not overlap.any()


def test_spectral_rejects_empty_band():
    wl = default_wavelengths(10)
    with pytest.raises(ValueError, match="band 1"):
        build_spectral_response([(400.0, 2500.0), (401.0, 402.0)], wl)


def test_degradation_set_invariants():
    with pytest.raises(DimensionError):
        make_degradation((16, 16, 8), factor=1, kernel_size=3, sigma=1.0,
                         bands=[(400.0, 2500.0)])
    with pytest.raises(DimensionError):
        DegradationSet(
            p1=np.eye(4)[:2], p2=np.eye(4)[:2],
            p3=np.full((8, 8), 1.0 / 8),  # i3 == I3 not allowed
        )


def test_simulate_zeros():
    deg = make_degradation((8, 8, 6), 2, 3, 1.0, [(400.0, 2500.0)])
    x, y = simulate(np.zeros((8, 8, 6)), deg)
    assert not x.any() and not y.any()


def test_simulate_single_band_is_spectral_mean():
    rng = np.random.default_rng(0)
    z = rng.random((8, 8, 6))
    deg = make_degradation((8, 8, 6), 2, 3, 1.0, [(400.0, 2500.0)])
    _, y = simulate(z, deg)
    # summation oracle: uniform average over all bands
    want = np.zeros((8, 8, 1))
    for b in range(6):
        want[:, :, 0] += z[:, :, b] / 6.0
    assert np.allclose(y, want, atol=1e-12)


def test_simulate_linearity():
    rng = np.random.default_rng(1)
    z1 = rng.random((8, 8, 6))
    z2 = rng.random((8, 8, 6))
    deg = make_degradation((8, 8, 6), 2, 3, 1.5, [(400.0, 1000.0), (1000.1, 2500.0)])
    x1, y1 = simulate(z1, deg)
    x2, y2 = simulate(z2, deg)
    xs, ys = simulate(z1 + z2, deg)
    assert np.allclose(xs, x1 + x2, rtol=1e-12, atol=1e-14)
    assert np.allclose(ys, y1 + y2, rtol=1e-12, atol=1e-14)


def test_synth_scene_flat_blocks_has_zero_regularizer():
    z, a, s = synth_scene(SceneSpec(shape=(8, 8, 6), r=2, blocks=1, seed=3))
    assert nms_tctv(a, LogSurrogate(0.1)) == 0.0


@settings(max_examples=100, deadline=None, derandomize=True)
@given(shape=st.tuples(st.integers(1, 12), st.integers(1, 12), st.integers(1, 12)),
       blocks=st.integers(1, 24), seed=st.integers(0, 2**32 - 1),
       spectra=st.sampled_from(SPECTRA_KINDS), data=st.data())
def test_scene_is_finite_and_bounded_by_root_r(shape, blocks, seed, spectra, data):
    # maps in [0, 1) times orthonormal columns: |z_ijk| <= |a_ij| |s_k| < sqrt(R),
    # so no scene can hold a NaN or an Inf
    i1, i2, i3 = shape
    r = data.draw(st.integers(1, min(i3, i1 * i2)), label="r")
    try:
        z, a, s = synth_scene(SceneSpec(shape, r, blocks=blocks, seed=seed, spectra=spectra))
    except ValueError as exc:
        if str(exc) != "spectra matrix is rank deficient":
            raise
        reject()
    assert all_finite(z)
    assert np.abs(z).max() <= np.sqrt(r) * (1 + 1e-9)
    assert z.tobytes() == mode_n_product(a, s, 3).tobytes()


def test_scene_and_simulation_build_no_cube_sized_temporary():
    spec = SceneSpec(shape=(128, 128, 96), r=3, seed=2)  # 12.6 MB, 10 row blocks
    z, _, _ = synth_scene(spec)
    cube = z.nbytes
    # the scene itself is one cube; the rest is the maps and the basis
    _, peak = _traced_peak(synth_scene, spec)
    assert peak < 1.1 * cube
    # x after mode 1 (a quarter cube), x and y
    deg = make_degradation(z.shape, 4, 3, 1.0, LANDSAT7_BANDS)
    _, peak = _traced_peak(simulate, z, deg)
    assert peak < cube / 2


def _misaligned(z):
    buf = np.empty(z.nbytes + 1, dtype=np.uint8)
    out = np.ndarray(z.shape, dtype=float, buffer=buf, offset=1)
    out[...] = z
    assert not out.flags.aligned
    return out


@pytest.mark.parametrize("shape", [(16, 16, 32), (64, 64, 162)])
@pytest.mark.parametrize("layout", ["C", "F", "transposed", "misaligned"])
def test_simulate_y_has_the_bits_of_the_mode3_product(shape, layout):
    z = np.random.default_rng(shape[2]).random(shape)
    z = {"C": z, "F": np.asfortranarray(z), "transposed": z.transpose(1, 0, 2),
         "misaligned": _misaligned(z)}[layout]
    deg = make_degradation(shape, 4, 3, 1.0, LANDSAT7_BANDS)
    _, y = simulate(z, deg)
    assert y.tobytes() == mode_n_product(np.ascontiguousarray(z), deg.p3, 3).tobytes()


def test_synth_scene_semi_unitary_basis():
    for kind in ("random", "smooth"):
        _, _, s = synth_scene(SceneSpec(shape=(8, 8, 12), r=3, seed=4, spectra=kind))
        assert np.linalg.norm(s.T @ s - np.eye(3)) <= 1e-10


def test_synth_scene_mode3_rank():
    z, _, _ = synth_scene(SceneSpec(shape=(10, 10, 8), r=3, seed=5))
    sig = np.linalg.svd(unfold(z, 3), compute_uv=False)
    assert (sig > 1e-8 * sig[0]).sum() == 3


def test_synth_scene_deterministic_per_seed():
    spec = SceneSpec(shape=(6, 6, 5), r=2, blocks=3, seed=42)
    z1, a1, s1 = synth_scene(spec)
    z2, a2, s2 = synth_scene(spec)
    assert np.array_equal(z1, z2)
    assert np.array_equal(a1, a2)
    assert np.array_equal(s1, s2)


def test_synth_scene_golden_values():
    # frozen from the PCG64(7) stream; guards the generator contract
    z, a, s = synth_scene(SceneSpec(shape=(4, 4, 3), r=2, blocks=2, seed=7))
    assert a[0, 0, 0] == pytest.approx(0.625095466604667, abs=1e-12)
    assert a[3, 3, 1] == pytest.approx(0.8212284183827663, abs=1e-12)
    assert s[0, 0] == pytest.approx(-0.7007787928221481, abs=1e-12)
    assert z[1, 2, 2] == pytest.approx(-0.10270019725331687, abs=1e-12)


def test_scene_spec_validation():
    with pytest.raises(ValueError):
        SceneSpec(shape=(4, 4, 3), r=5)
    with pytest.raises(ValueError):
        SceneSpec(shape=(4, 4, 3), r=1, blocks=0)
    with pytest.raises(ValueError):
        SceneSpec(shape=(4, 4, 3), r=1, spectra="fancy")


_BAD_SCENE_FIELDS = [
    ("shape", (8.5, 8, 6), "shape must be three positive integers, got (8.5, 8, 6)"),
    ("shape", (8, 8, 6.0), "shape must be three positive integers, got (8, 8, 6.0)"),
    ("shape", (8, 8), "shape must be three positive integers, got (8, 8)"),
    ("shape", (8, 0, 6), "shape must be three positive integers, got (8, 0, 6)"),
    ("shape", (8, True, 6), "shape must be three positive integers, got (8, True, 6)"),
    ("shape", 8, "shape must be three positive integers, got 8"),
    ("r", 2.0, "r must be an integer, got 2.0"),
    ("r", True, "r must be an integer, got True"),
    ("blocks", 4.0, "blocks must be an integer, got 4.0"),
    ("blocks", True, "blocks must be an integer, got True"),
    ("seed", True, "seed must be an integer, got True"),
    ("seed", 1.5, "seed must be an integer, got 1.5"),
    ("seed", -1, "seed must be nonnegative, got -1"),
    ("spectra", "fancy", "spectra must be one of ('random', 'smooth'), got 'fancy'"),
]


@pytest.mark.parametrize("field, value, message", _BAD_SCENE_FIELDS,
                         ids=[f"{f}={v!r}" for f, v, _ in _BAD_SCENE_FIELDS])
def test_scene_spec_names_the_field_it_rejects(field, value, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        SceneSpec(**{"shape": (8, 8, 6), "r": 2, field: value})


def test_scene_spec_takes_numpy_integers():
    spec = SceneSpec(shape=tuple(np.int64(n) for n in (8, 8, 6)), r=np.int32(2),
                     blocks=np.int64(2), seed=np.uint8(3))
    assert synth_scene(spec)[0].tobytes() == synth_scene(
        SceneSpec(shape=(8, 8, 6), r=2, blocks=2, seed=3))[0].tobytes()



_P1, _P3 = np.eye(2, 4), np.full((2, 4), 0.25)


@pytest.mark.parametrize("case", ["inverted-band", "empty-table", "even-kernel", "2-d-kernel",
                                  "p2-keeps-size", "negative-p3", "p3-row-sum", "rank-deficient"])
def test_degradation_guards_name_what_they_reject(tmp_path, case):
    bands = tmp_path / "bands.txt"
    bands.write_text("400 500\n600 600\n" if case == "inverted-band" else "# no bands\n")
    call, error, message = {
        "inverted-band": (lambda: read_band_table(str(bands)), ValueError,
                          f"{bands}:2: band upper bound must exceed lower"),
        "empty-table": (lambda: read_band_table(str(bands)), ValueError,
                        f"{bands}: band table is empty"),
        "even-kernel": (lambda: build_spatial_degradation(8, 2, np.full(4, 0.25)), ValueError,
                        "kernel must be a 1-d odd-length vector"),
        "2-d-kernel": (lambda: build_spatial_degradation(8, 2, np.full((3, 3), 1 / 9)),
                       ValueError, "kernel must be a 1-d odd-length vector"),
        "p2-keeps-size": (lambda: DegradationSet(p1=_P1, p2=np.eye(4), p3=_P3), DimensionError,
                          "P2 must reduce its dimension (i2 < I2)"),
        "negative-p3": (lambda: DegradationSet(p1=_P1, p2=_P1, p3=_P3 - np.eye(2, 4) / 2),
                        ValueError, "P3 rows must be nonnegative"),
        "p3-row-sum": (lambda: DegradationSet(p1=_P1, p2=_P1, p3=_P3 / 2), ValueError,
                       "P3 rows must each sum to 1"),
        "rank-deficient": (lambda: degradation_module._orthonormalize(np.ones((4, 2))),
                           ValueError, "spectra matrix is rank deficient"),
    }[case]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
