"""Dense 3-way tensor primitives: mode-n algebra, mode shuffles, tube FFTs, TV norms.

Tensors are plain float64 numpy arrays of shape (I1, I2, I3) in C (row-major)
order; matrices are 2-d float64 arrays. All functions are pure and never
modify their inputs.

Conventions fixed here and relied on everywhere else:

* ``unfold(t, n)`` puts mode n on the rows; columns enumerate the remaining
  modes with the lower-numbered mode varying fastest.
* ``fft_mode3`` is the unnormalized forward DFT along the tube fibers;
  ``ifft_mode3`` carries the 1/I3 factor.
"""

import numpy as np

from .errors import DimensionError, NumericalConsistencyError

_SHUFFLE_AXES = {1: (1, 2, 0), 2: (0, 2, 1)}


def diff_matrix(n):
    """(n-1) x n first-order difference matrix: 1 on the diagonal, -1 beside it."""
    if n < 2:
        raise DimensionError(f"difference matrix needs n >= 2, got {n}")
    d = np.zeros((n - 1, n))
    idx = np.arange(n - 1)
    d[idx, idx] = 1.0
    d[idx, idx + 1] = -1.0
    return d


def unfold(t, mode):
    """Mode-n unfolding: I_n rows, remaining modes on columns (lower mode fastest)."""
    t = np.asarray(t)
    if t.ndim != 3:
        raise DimensionError(f"expected a 3-way tensor, got ndim={t.ndim}")
    if mode not in (1, 2, 3):
        raise DimensionError(f"mode must be 1, 2 or 3, got {mode}")
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
    if t.ndim != 3:
        raise DimensionError(f"expected a 3-way tensor, got ndim={t.ndim}")
    if m.ndim != 2:
        raise DimensionError(f"expected a matrix, got ndim={m.ndim}")
    if mode not in (1, 2, 3):
        raise DimensionError(f"mode must be 1, 2 or 3, got {mode}")
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


def fft_mode3(t):
    """Unnormalized forward DFT along the mode-3 tube fibers."""
    return np.fft.fft(np.asarray(t), axis=2)


def ifft_mode3(c):
    """Inverse DFT along mode 3 (carries the 1/I3 normalization)."""
    return np.fft.ifft(np.asarray(c), axis=2)


def real_part(c, rel_tol=1e-8):
    """Drop the imaginary part of c, guarding against real data gone complex.

    Raises NumericalConsistencyError when the imaginary Frobenius norm exceeds
    ``rel_tol`` times the real one.
    """
    c = np.asarray(c)
    if not np.iscomplexobj(c):
        return np.asarray(c, dtype=float)
    re = np.ascontiguousarray(c.real)
    imag_norm = np.linalg.norm(c.imag)
    real_norm = np.linalg.norm(re)
    if imag_norm > rel_tol * max(real_norm, np.finfo(float).tiny):
        raise NumericalConsistencyError(
            f"imaginary residue too large: |imag|={imag_norm:.3e} vs "
            f"|real|={real_norm:.3e} (rel_tol={rel_tol:g})"
        )
    return re


def _spatial_gradients(t):
    t = np.asarray(t)
    if t.ndim != 3:
        raise DimensionError(f"expected a 3-way tensor, got ndim={t.ndim}")
    i1, i2 = t.shape[0], t.shape[1]
    if i1 < 2 or i2 < 2:
        raise DimensionError(
            f"TV norms need both spatial dimensions >= 2, got ({i1}, {i2})"
        )
    g1 = mode_n_product(t, diff_matrix(i1), 1)
    g2 = mode_n_product(t, diff_matrix(i2), 2)
    return g1, g2


def tv_norm(t):
    """Isotropic TV: sqrt(|t x_1 D|_F^2 + |t x_2 D|_F^2)."""
    g1, g2 = _spatial_gradients(t)
    return float(np.sqrt(np.sum(g1 * g1) + np.sum(g2 * g2)))


def atv_norm(t):
    """Anisotropic TV: entrywise l1 norm of both spatial gradient tensors."""
    g1, g2 = _spatial_gradients(t)
    return float(np.abs(g1).sum() + np.abs(g2).sum())


def require_finite(arr, name="array"):
    """Raise ValueError if arr contains NaN or Inf."""
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr
