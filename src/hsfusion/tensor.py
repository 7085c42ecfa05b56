"""Dense 3-way tensor primitives: mode-n algebra, D_n stencils, mode shuffles.

Tensors are plain float64 numpy arrays of shape (I1, I2, I3) in C (row-major)
order; matrices are 2-d float64 arrays. All functions are pure and never
modify their inputs.

Convention fixed here: ``unfold(t, n)`` puts mode n on the rows; columns
enumerate the remaining modes with the lower-numbered mode varying fastest.
Inside the package only the solver's subspace extraction unfolds (mode 3);
the mode-n products read the C-order layout in place.

:func:`all_finite` is the one whole-array finiteness check that ``solve`` and
the ``.cmt``/ENVI readers and writer share. It tests :data:`SLAB_ELEMENTS`
elements (1 MiB of float64) at a time through a single boolean mask of that
size, so no check builds an array-sized mask. The cubes the package builds
from spatial maps and a spectral basis, the synthetic scene and ``solve``'s
``z_hat``, are written in row blocks of that size by ``_mode3_blocks``, which
also checks each block while it is still in cache when asked to.
"""

import numpy as np

from .errors import DimensionError

_SHUFFLE_AXES = {1: (1, 2, 0), 2: (0, 2, 1)}

# elements a finiteness scan tests at a time: 1 MiB of float64
SLAB_ELEMENTS = 1 << 17


def _check_diff_size(n):
    if n < 2:
        raise DimensionError(f"difference matrix needs n >= 2, got {n}")


def diff_norm_sq(n):
    """|D_n|^2, the largest eigenvalue of the path-graph Laplacian D_n^T D_n:
    2 - 2 cos(pi (n-1)/n) = 4 sin^2(pi (n-1)/(2n))."""
    _check_diff_size(n)
    return 4.0 * np.sin(np.pi * (n - 1) / (2 * n)) ** 2


def _check_mode(t, mode):
    if t.ndim != 3:
        raise DimensionError(f"expected a 3-way tensor, got ndim={t.ndim}")
    if mode not in (1, 2, 3):
        raise DimensionError(f"mode must be 1, 2 or 3, got {mode}")


def _stencil_slices(mode):
    """Index tuples of all entries but the last, and all but the first, along mode n."""
    lo, hi = [slice(None)] * 3, [slice(None)] * 3
    lo[mode - 1], hi[mode - 1] = slice(None, -1), slice(1, None)
    return tuple(lo), tuple(hi)


def difference(t, mode):
    """t x_n D_{I_n} as a stencil (t[i] - t[i+1] along mode n), D_{I_n} the
    (I_n - 1) x I_n matrix with 1 on the diagonal and -1 beside it; equals
    ``mode_n_product(t, D_{I_n}, mode)`` bit for bit."""
    t = np.asarray(t, dtype=float)
    _check_mode(t, mode)
    _check_diff_size(t.shape[mode - 1])
    lo, hi = _stencil_slices(mode)
    return t[lo] - t[hi]


def difference_adjoint(v, mode):
    """v x_n D_{I_n}^T as a stencil (v[j] - v[j-1] along mode n, with v[-1] and
    v[I_n - 1] read as zero), where I_n is one more than v's mode-n size;
    equals ``mode_n_product(v, D_{I_n}.T, mode)`` bit for bit."""
    v = np.asarray(v, dtype=float)
    _check_mode(v, mode)
    _check_diff_size(v.shape[mode - 1] + 1)
    shape = list(v.shape)
    shape[mode - 1] += 1
    out = np.zeros(shape)
    lo, hi = _stencil_slices(mode)
    out[lo] = v
    out[hi] -= v
    return out


def unfold(t, mode):
    """Mode-n unfolding: I_n rows, remaining modes on columns (lower mode fastest)."""
    t = np.asarray(t)
    _check_mode(t, mode)
    a = np.moveaxis(t, mode - 1, 0)
    return a.reshape(t.shape[mode - 1], -1, order="F")


def mode_n_product(t, m, mode):
    """Mode-n product t x_n m: replaces dimension I_n of t by m.shape[0]."""
    t = np.asarray(t)
    m = np.asarray(m)
    _check_mode(t, mode)
    if m.ndim != 2:
        raise DimensionError(f"expected a matrix, got ndim={m.ndim}")
    if m.shape[1] != t.shape[mode - 1]:
        raise DimensionError(
            f"matrix has {m.shape[1]} columns but tensor mode {mode} "
            f"has size {t.shape[mode - 1]}"
        )
    if mode == 1:  # each branch reads the C-order layout as it is, without copies
        return np.tensordot(m, t, axes=(1, 0))
    if mode == 2:
        return np.matmul(m, t)
    i1, i2, i3 = t.shape
    return (t.reshape(i1 * i2, i3) @ m.T).reshape(i1, i2, m.shape[0])


def _mode3_blocks(a, s, name=None):
    """a x_3 s for spatial maps a (I1, I2, R) and a basis s (I3, R), as a new
    C-order (I1, I2, I3) cube written in row blocks of at most
    :data:`SLAB_ELEMENTS` elements (one row when a row is larger).

    With ``name``, each block is checked while it is still in cache, and a
    NaN or Inf raises ValueError as :func:`require_finite` does. Each block is
    one BLAS product on whole rows of pixels, the operands laid out as
    :func:`mode_n_product` lays them out, so the cube equals
    ``mode_n_product(a, s, 3)`` bit for bit wherever the BLAS rounds an entry
    the same for any number of rows. In a sweep of OpenBLAS 0.3.31 over
    R <= 12 and I3 <= 516, every shape did so on its SandyBridge kernels;
    some shapes with R >= 8 (Haswell kernels) or with I3 >= 194 and R >= 2
    (SkylakeX kernels) differ from the whole-cube product in the last bit.
    """
    i1, i2, r = a.shape
    i3 = s.shape[0]
    out = np.empty((i1, i2, i3))
    rows = max(1, SLAB_ELEMENTS // max(1, i2 * i3))
    for i in range(0, i1, rows):
        block = out[i : i + rows].reshape(-1, i3)
        np.matmul(a[i : i + rows].reshape(-1, r), s.T, out=block)
        if name is not None:
            require_finite(block, name)
    return out


def mode_shuffle(t, n):
    """Rotate mode n into the tube position: output axes are (3-n, 3, n) of the input.

    For n=1 a (I1, I2, I3) tensor becomes (I2, I3, I1); for n=2 it becomes
    (I1, I3, I2). Matches MATLAB permute(t, [3-n, 3, n]) semantics.
    """
    if n not in (1, 2):
        raise ValueError(f"shuffle mode must be 1 or 2, got {n}")
    return np.ascontiguousarray(np.transpose(np.asarray(t), _SHUFFLE_AXES[n]))


def mode_unshuffle(t, n):
    """Exact inverse of :func:`mode_shuffle` with the same n."""
    if n not in (1, 2):
        raise ValueError(f"shuffle mode must be 1 or 2, got {n}")
    inv = np.argsort(_SHUFFLE_AXES[n])
    return np.ascontiguousarray(np.transpose(np.asarray(t), inv))


def all_finite(a):
    """True if a holds no NaN or Inf.

    Reads a in memory order, :data:`SLAB_ELEMENTS` at a time, through one
    boolean mask of at most that size. An array contiguous in some axis
    order (a transposed view, say) is read in place; any other is copied
    once by ``np.ravel``.
    """
    flat = np.ravel(a, order="K")
    mask = np.empty(min(flat.size, SLAB_ELEMENTS), dtype=bool)
    for i in range(0, flat.size, SLAB_ELEMENTS):
        chunk = flat[i : i + SLAB_ELEMENTS]
        if not np.isfinite(chunk, out=mask[: chunk.size]).all():
            return False
    return True


def require_finite(arr, name="array"):
    """Raise ValueError if arr contains NaN or Inf."""
    if not all_finite(arr):
        raise ValueError(f"{name} contains non-finite entries")
    return arr
