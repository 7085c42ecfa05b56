"""Dense 3-way tensor primitives: mode-n algebra, mode shuffles, TV norms.

Tensors are plain float64 numpy arrays of shape (I1, I2, I3) in C (row-major)
order; matrices are 2-d float64 arrays. All functions are pure and never
modify their inputs.

Convention fixed here and relied on everywhere else: ``unfold(t, n)`` puts
mode n on the rows; columns enumerate the remaining modes with the
lower-numbered mode varying fastest.
"""

import numpy as np

from .errors import DimensionError

_SHUFFLE_AXES = {1: (1, 2, 0), 2: (0, 2, 1)}


def diff_matrix(n):
    """(n-1) x n first-order difference matrix: 1 on the diagonal, -1 beside it."""
    if n < 2:
        raise DimensionError(f"difference matrix needs n >= 2, got {n}")
    eye = np.eye(n)
    return eye[:-1] - eye[1:]


def _check_mode(t, mode):
    if t.ndim != 3:
        raise DimensionError(f"expected a 3-way tensor, got ndim={t.ndim}")
    if mode not in (1, 2, 3):
        raise DimensionError(f"mode must be 1, 2 or 3, got {mode}")


def difference(t, mode):
    """t x_n D_{I_n} as a stencil (t[i] - t[i+1] along mode n); equals
    ``mode_n_product(t, diff_matrix(I_n), mode)`` bit for bit."""
    t = np.asarray(t, dtype=float)
    _check_mode(t, mode)
    if t.shape[mode - 1] < 2:
        raise DimensionError(f"difference matrix needs n >= 2, got {t.shape[mode - 1]}")
    w = np.moveaxis(t, mode - 1, 0)
    return np.moveaxis(w[:-1] - w[1:], 0, mode - 1)


def difference_adjoint(v, mode):
    """v x_n D_{I_n}^T as a stencil (v[j] - v[j-1] along mode n, with v[-1] and
    v[I_n - 1] read as zero), where I_n is one more than v's mode-n size;
    equals ``mode_n_product(v, diff_matrix(I_n).T, mode)`` bit for bit."""
    v = np.asarray(v, dtype=float)
    _check_mode(v, mode)
    if v.shape[mode - 1] < 1:
        raise DimensionError(f"difference matrix needs n >= 2, got {v.shape[mode - 1] + 1}")
    shape = list(v.shape)
    shape[mode - 1] += 1
    out = np.zeros(shape)
    o, w = np.moveaxis(out, mode - 1, 0), np.moveaxis(v, mode - 1, 0)
    o[:-1] = w
    o[1:] -= w
    return out


def unfold(t, mode):
    """Mode-n unfolding: I_n rows, remaining modes on columns (lower mode fastest)."""
    t = np.asarray(t)
    _check_mode(t, mode)
    a = np.moveaxis(t, mode - 1, 0)
    return a.reshape(t.shape[mode - 1], -1, order="F")


def fold(m, mode, shape):
    """Inverse of :func:`unfold`; exact roundtrip for consistent shapes."""
    m = np.asarray(m)
    if mode not in (1, 2, 3):
        raise DimensionError(f"mode must be 1, 2 or 3, got {mode}")
    if len(shape) != 3:
        raise DimensionError(f"shape must have 3 entries, got {shape}")
    rest = tuple(s for i, s in enumerate(shape) if i != mode - 1)
    if m.shape != (shape[mode - 1], rest[0] * rest[1]):
        raise DimensionError(
            f"matrix shape {m.shape} inconsistent with folding to {tuple(shape)} "
            f"along mode {mode}"
        )
    a = m.reshape((shape[mode - 1],) + rest, order="F")
    return np.ascontiguousarray(np.moveaxis(a, 0, mode - 1))


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


def tv_norm(t):
    """Isotropic TV: sqrt(|t x_1 D|_F^2 + |t x_2 D|_F^2)."""
    g1, g2 = difference(t, 1), difference(t, 2)
    return float(np.sqrt(np.sum(g1 * g1) + np.sum(g2 * g2)))


def atv_norm(t):
    """Anisotropic TV: entrywise l1 norm of both spatial gradient tensors."""
    g1, g2 = difference(t, 1), difference(t, 2)
    return float(np.abs(g1).sum() + np.abs(g2).sum())


def require_finite(arr, name="array"):
    """Raise ValueError if arr contains NaN or Inf."""
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr
