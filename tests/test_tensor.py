import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsfusion import (
    DimensionError,
    mode_n_product,
    mode_shuffle,
    mode_unshuffle,
    unfold,
)
from hsfusion.solver import lipschitz_tau
from hsfusion.tensor import (
    SLAB_ELEMENTS,
    _mode3_blocks,
    all_finite,
    diff_norm_sq,
    difference,
    difference_adjoint,
    require_finite,
)

from _shared import _traced_peak
from _theory import atv_norm, diff_matrix, tv_norm

# a cube of exactly two slabs, and the entries a slab-wise scan could miss
TWO_SLABS = (64, 64, 64)
EDGES = (0, SLAB_ELEMENTS - 1, SLAB_ELEMENTS, 2 * SLAB_ELEMENTS - 1)


def test_diff_matrix_three():
    assert np.array_equal(diff_matrix(3), [[1, -1, 0], [0, 1, -1]])


def test_diff_matrix_smallest():
    assert np.array_equal(diff_matrix(2), [[1, -1]])


def test_diff_matrix_annihilates_constants():
    assert np.array_equal(diff_matrix(5) @ np.ones(5), np.zeros(4))


def test_diff_matrix_rejects_small_n():
    with pytest.raises(DimensionError):
        diff_matrix(1)


def _unfold_oracle(t, mode):
    """Brute-force index map: row = mode index, column = remaining modes
    with the lower-numbered one varying fastest."""
    shape = t.shape
    rest = [m for m in range(3) if m != mode - 1]
    out = np.zeros((shape[mode - 1], shape[rest[0]] * shape[rest[1]]))
    for i in range(shape[0]):
        for j in range(shape[1]):
            for k in range(shape[2]):
                idx = (i, j, k)
                col = idx[rest[0]] + shape[rest[0]] * idx[rest[1]]
                out[idx[mode - 1], col] = t[i, j, k]
    return out


@pytest.mark.parametrize("mode", [1, 2, 3])
def test_unfold_matches_bruteforce(mode):
    t = np.arange(1.0, 9.0).reshape(2, 2, 2)
    assert np.array_equal(unfold(t, mode), _unfold_oracle(t, mode))


def test_unfold_zeros_shape():
    m = unfold(np.zeros((3, 4, 5)), 1)
    assert m.shape == (3, 20)
    assert not m.any()


def _mode_product_oracle(t, m, mode):
    """Direct triple-loop summation over the contracted mode."""
    new_shape = list(t.shape)
    new_shape[mode - 1] = m.shape[0]
    out = np.zeros(new_shape)
    for i in range(new_shape[0]):
        for j in range(new_shape[1]):
            for k in range(new_shape[2]):
                acc = 0.0
                for c in range(t.shape[mode - 1]):
                    idx = [i, j, k]
                    row = idx[mode - 1]
                    idx[mode - 1] = c
                    acc += m[row, c] * t[tuple(idx)]
                out[i, j, k] = acc
    return out


def test_mode_product_identity():
    rng = np.random.default_rng(0)
    t = rng.standard_normal((4, 3, 2))
    assert np.allclose(mode_n_product(t, np.eye(4), 1), t)


def test_mode_product_small_oracle():
    rng = np.random.default_rng(1)
    t = rng.standard_normal((2, 2, 2))
    m = rng.standard_normal((3, 2))
    for mode in (1, 2, 3):
        got = mode_n_product(t, m, mode)
        want = _mode_product_oracle(t, m, mode)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-14)


def test_mode_product_random_oracle():
    rng = np.random.default_rng(2)
    for _ in range(5):
        shape = tuple(rng.integers(2, 9, size=3))
        t = rng.standard_normal(shape)
        mode = int(rng.integers(1, 4))
        m = rng.standard_normal((int(rng.integers(1, 9)), shape[mode - 1]))
        got = mode_n_product(t, m, mode)
        want = _mode_product_oracle(t, m, mode)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


def test_mode_product_distinct_modes_commute():
    rng = np.random.default_rng(3)
    t = rng.standard_normal((3, 4, 5))
    a = rng.standard_normal((2, 3))
    b = rng.standard_normal((6, 4))
    left = mode_n_product(mode_n_product(t, a, 1), b, 2)
    right = mode_n_product(mode_n_product(t, b, 2), a, 1)
    assert np.allclose(left, right, rtol=1e-12)


def _unfold_fold_product(t, m, mode):
    """The mode-n product through the unfolding: unfold, matrix product, and
    the inverse reshape of the unfolding."""
    rest = tuple(size for i, size in enumerate(t.shape) if i != mode - 1)
    product = (m @ unfold(t, mode)).reshape((m.shape[0],) + rest, order="F")
    return np.moveaxis(product, 0, mode - 1)


_SIZES = st.sampled_from([1, 2, 5, 6])  # I_n = 1, 2, odd, even


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    shape=st.tuples(_SIZES, _SIZES, _SIZES),
    mode=st.sampled_from([1, 2, 3]),
    rows=_SIZES,
    fortran=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_mode_product_matches_einsum_and_unfold_fold(shape, mode, rows, fortran, seed):
    rng = np.random.default_rng(seed)
    t = rng.standard_normal(shape)
    if fortran:
        t = np.asfortranarray(t)
    m = rng.standard_normal((rows, shape[mode - 1]))
    axes = "abc"
    out = axes.replace(axes[mode - 1], "z")
    einsum = np.einsum(f"z{axes[mode - 1]},{axes}->{out}", m, t)
    got = mode_n_product(t, m, mode)
    assert got.shape == einsum.shape
    # |t x_n m|_F <= |m|_F |t|_F bounds the result's scale
    scale = 1e-12 * np.linalg.norm(m) * np.linalg.norm(t)
    assert np.linalg.norm(got - einsum) <= scale
    assert np.linalg.norm(got - _unfold_fold_product(t, m, mode)) <= scale


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    shape=st.tuples(st.integers(2, 9), st.integers(2, 9), st.integers(1, 4)),
    mode=st.sampled_from([1, 2, 3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_difference_stencils_equal_dense_products(shape, mode, seed):
    n = shape[mode - 1]
    if n < 2:  # mode 3 with R = 1 has no difference operator
        with pytest.raises(DimensionError):
            difference(np.zeros(shape), mode)
        return
    rng = np.random.default_rng(seed)
    t = rng.standard_normal(shape)
    d = diff_matrix(n)
    forward = difference(t, mode)
    assert forward.tobytes() == mode_n_product(t, d, mode).tobytes()
    v = rng.standard_normal(forward.shape)
    back = difference_adjoint(v, mode)
    assert back.shape == t.shape
    assert back.tobytes() == mode_n_product(v, d.T, mode).tobytes()


def test_difference_adjoint_rejects_empty_mode():
    with pytest.raises(DimensionError):
        difference_adjoint(np.zeros((3, 0, 2)), 2)


@pytest.mark.parametrize("call", [
    lambda: diff_matrix(1),
    lambda: difference(np.zeros((1, 4, 2)), 1),
    lambda: difference_adjoint(np.zeros((3, 0, 2)), 2),
    lambda: diff_norm_sq(1),
    lambda: lipschitz_tau(np.ones((4, 1)), np.eye(4), np.eye(2), np.eye(2), "safe"),
], ids=["diff_matrix", "difference", "difference_adjoint", "diff_norm_sq", "lipschitz_tau"])
def test_difference_operator_has_one_size_rule(call):
    # one size check serves every user of D_n, so each says the same
    with pytest.raises(DimensionError, match=r"^difference matrix needs n >= 2, got 1$"):
        call()


def test_mode_product_rejects_mismatch():
    with pytest.raises(DimensionError):
        mode_n_product(np.zeros((3, 4, 5)), np.zeros((2, 99)), 1)


def test_mode_shuffle_shapes():
    t = np.zeros((4, 5, 6))
    assert mode_shuffle(t, 1).shape == (5, 6, 4)
    assert mode_shuffle(t, 2).shape == (4, 6, 5)


def test_mode_shuffle_elements_exhaustive():
    rng = np.random.default_rng(4)
    t = rng.standard_normal((2, 3, 2))
    for n in (1, 2):
        out = mode_shuffle(t, n)
        for i1 in range(2):
            for i2 in range(3):
                for i3 in range(2):
                    src = (i1, i2, i3)
                    if n == 1:
                        dst = (i2, i3, i1)
                    else:
                        dst = (i1, i3, i2)
                    assert out[dst] == t[src]


@pytest.mark.parametrize("n", [1, 2])
def test_mode_shuffle_roundtrip(n):
    rng = np.random.default_rng(5)
    t = rng.standard_normal((3, 4, 5))
    assert np.array_equal(mode_unshuffle(mode_shuffle(t, n), n), t)


def test_mode_shuffle_rejects_bad_mode():
    with pytest.raises(ValueError):
        mode_shuffle(np.zeros((2, 2, 2)), 3)


def test_tv_atv_constant_tensor():
    t = np.full((4, 4, 3), 1.7)
    assert tv_norm(t) == 0.0
    assert atv_norm(t) == 0.0


def test_tv_atv_hand_value():
    # single frontal slice [[0, 1], [0, 1]]
    t = np.array([[0.0, 1.0], [0.0, 1.0]]).reshape(2, 2, 1)
    assert atv_norm(t) == pytest.approx(2.0, abs=1e-12)
    assert tv_norm(t) == pytest.approx(np.sqrt(2.0), abs=1e-12)


def test_tv_atv_summation_oracle():
    rng = np.random.default_rng(9)
    t = rng.standard_normal((5, 6, 3))
    g1 = np.diff(t, axis=0) * -1.0  # D rows compute t[i] - t[i+1]
    g2 = np.diff(t, axis=1) * -1.0
    tv_ref = np.sqrt((g1**2).sum() + (g2**2).sum())
    atv_ref = np.abs(g1).sum() + np.abs(g2).sum()
    assert tv_norm(t) == pytest.approx(tv_ref, rel=1e-12)
    assert atv_norm(t) == pytest.approx(atv_ref, rel=1e-12)


def test_tv_atv_norm_equivalence():
    rng = np.random.default_rng(10)
    for _ in range(10):
        t = rng.standard_normal((4, 5, 2))
        count = (3 * 5 + 4 * 4) * 2  # entries of both gradient tensors
        assert atv_norm(t) >= tv_norm(t) / np.sqrt(count) - 1e-12


@pytest.mark.parametrize("alpha", [0.25, -3.0, 1e6])
def test_tv_atv_absolute_homogeneity(alpha):
    rng = np.random.default_rng(11)
    t = rng.standard_normal((4, 4, 2))
    assert tv_norm(alpha * t) == pytest.approx(abs(alpha) * tv_norm(t), rel=1e-12)
    assert atv_norm(alpha * t) == pytest.approx(abs(alpha) * atv_norm(t), rel=1e-12)


def test_tv_rejects_small_spatial_dims():
    with pytest.raises(DimensionError):
        tv_norm(np.zeros((1, 5, 3)))
    with pytest.raises(DimensionError):
        atv_norm(np.zeros((5, 1, 3)))



def _two_slab_view(layout):
    """Zeros as a view of two slabs' worth of elements, and an array whose C
    order is the view's memory order (a strided view is scanned as a copy in
    its own C order)."""
    if layout == "strided":
        view = np.zeros((64, 64, 128))[..., ::2]
        return view, view
    z = np.zeros(TWO_SLABS)
    return (z.T if layout == "transposed" else z), z


@pytest.mark.parametrize("layout", ["C", "transposed", "strided"])
@pytest.mark.parametrize("index", EDGES)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_all_finite_finds_each_edge_entry(bad, index, layout):
    view, memory = _two_slab_view(layout)
    assert all_finite(view)
    memory.flat[index] = bad
    assert not all_finite(view)


# (I1, I2, I3, R): one block, exactly one slab, many blocks with a ragged
# last one, I3 = 1 in even and ragged blocks, R = 1, odd sides, one row wider
# than a slab, and the protocol-scale scene
BLOCK_SHAPES = [(7, 9, 5, 2), (64, 64, 32, 3), (64, 64, 96, 3), (512, 512, 1, 1),
                (300, 512, 1, 1), (65, 63, 40, 1), (97, 101, 33, 5), (3, 4097, 64, 3),
                (256, 256, 162, 5)]


@pytest.mark.parametrize("shape", BLOCK_SHAPES, ids=lambda s: "x".join(map(str, s)))
@pytest.mark.parametrize("layout", ["C", "F"])
def test_mode3_blocks_has_the_bits_of_the_whole_cube_product(shape, layout):
    i1, i2, i3, r = shape
    rng = np.random.default_rng(i1 * i3 + r)
    a, s = rng.random((i1, i2, r)), rng.standard_normal((i3, r))
    if layout == "F":
        a = np.asfortranarray(a)
    want = mode_n_product(a, s, 3)
    for name in (None, "cube"):
        got = _mode3_blocks(a, s, name)
        assert got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()


def test_require_finite_names_the_array():
    z = np.zeros(3)
    assert require_finite(z, "cube") is z
    z[1] = np.nan
    with pytest.raises(ValueError, match="^cube contains non-finite entries$"):
        require_finite(z, "cube")


def test_all_finite_takes_scalars_and_empty_arrays():
    assert all_finite(2.5)
    assert all_finite(np.zeros((0, 3)))
    assert not all_finite(np.float64("nan"))


@pytest.mark.parametrize("transpose", [False, True])
def test_all_finite_scans_without_an_array_sized_mask(transpose):
    view = np.random.default_rng(0).random((1024, 64, 64))  # 32 MB
    if transpose:
        view = view.T
    finite, peak = _traced_peak(all_finite, view)
    assert finite
    # an array-sized boolean mask would be an eighth of the floats; one
    # slab's mask is 128 KiB
    assert peak < view.nbytes / 32


@pytest.mark.parametrize("call, error, message", [
    (lambda: unfold(np.ones((2, 2)), 1), DimensionError, "expected a 3-way tensor, got ndim=2"),
    (lambda: unfold(np.ones((2, 2, 2)), 4), DimensionError, "mode must be 1, 2 or 3, got 4"),
    (lambda: mode_n_product(np.ones((2, 2, 2)), np.ones((2, 2, 2)), 1), DimensionError,
     "expected a matrix, got ndim=3"),
    (lambda: mode_unshuffle(np.ones((2, 2, 2)), 3), ValueError,
     "shuffle mode must be 1 or 2, got 3"),
], ids=["2-d-tensor", "mode-4", "3-d-matrix", "unshuffle-mode-3"])
def test_tensor_guards_name_what_they_reject(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
