"""Gradient tensors, correlated TV regularizers, and their numerical property checks.

``nms_tctv`` is the regularizer the solver minimizes: for each spatial mode n
it measures the mode-(3-n) non-convex pseudo nuclear norm of the mode-n
gradient tensor, so low-rankness and smoothness are encoded jointly and
cross-mode ("mode-shuffled"). That pairing is written here only, as
``_to_norm_layout`` (``mode_shuffle(t, 3 - n)``) and its inverse
``_from_norm_layout``; the solver's g_n prox and KKT check use them too.
"""

from dataclasses import dataclass

import numpy as np

from .tensor import (
    atv_norm,
    difference,
    mode_n_product,
    mode_shuffle,
    mode_unshuffle,
    tv_norm,
)
from .tsvd import _fourier_singular_values, ntpnn, tnn


def _to_norm_layout(t, n):
    """t, shaped like the mode-n gradient, in the layout its NTPNN reads:
    mode 3 - n rotated into the tube position."""
    return mode_shuffle(t, 3 - n)


def _from_norm_layout(t, n):
    """Exact inverse of :func:`_to_norm_layout` with the same n."""
    return mode_unshuffle(t, 3 - n)


def tctv(a, modes=(1, 2)):
    """Correlated TV: mean of TNNs of the mode-n gradient tensors, n in modes."""
    modes = tuple(modes)
    if not modes:
        raise ValueError("tctv needs at least one mode")
    if any(n not in (1, 2, 3) for n in modes):
        raise ValueError(f"modes must be a subset of {{1,2,3}}, got {modes}")
    return float(np.mean([tnn(difference(a, n)) for n in modes]))


def nms_tctv(a, psi, grads=None):
    """Mode-shuffled non-convex correlated TV.

    Averages, over the two spatial modes, the mode-(3-n) NTPNN of the mode-n
    gradient tensor (mode-2 norm on the mode-1 gradient and vice versa).
    ``grads`` are the mode-1 and mode-2 gradient tensors of ``a`` when the
    caller already has them.
    """
    if grads is None:
        grads = (difference(a, 1), difference(a, 2))
    return 0.5 * sum(ntpnn(_to_norm_layout(g, n), psi) for n, g in enumerate(grads, 1))


def tsvd_rank(t, rel_tol=1e-8):
    """Numerical t-SVD rank: max over Fourier slices of singular values above
    rel_tol times the global maximum."""
    sv = _fourier_singular_values(np.asarray(t, dtype=float))
    smax = sv.max() if sv.size else 0.0
    return int((sv > rel_tol * smax).sum(axis=1).max())


@dataclass(frozen=True)
class RankSandwichReport:
    """Whether rank(z) - 1 <= rank(gradient) <= rank(z) held (mode-(3-n) ranks)."""

    mode: int
    rank_z: int
    rank_grad: int

    @property
    def holds(self):
        return self.rank_z - 1 <= self.rank_grad <= self.rank_z


def check_rank_sandwich(z, s, n, tol=1e-8):
    """Verify the gradient-rank sandwich for z = a x_3 s with semi-unitary s.

    The spatial tensor is recovered as a = z x_3 s^T, which is exact on the
    stated precondition. Ranks use the numerical threshold tol * sigma_max.
    """
    s = np.asarray(s, dtype=float)
    gram_residual = np.linalg.norm(s.T @ s - np.eye(s.shape[1]))
    if gram_residual > tol:
        raise ValueError(
            f"spectral basis is not semi-unitary: |S^T S - I|_F = {gram_residual:.3e} "
            f"exceeds tol {tol:g}"
        )
    if n not in (1, 2):
        raise ValueError(f"mode must be 1 or 2, got {n}")
    a = mode_n_product(np.asarray(z, dtype=float), s.T, 3)
    grad = difference(a, n)
    return RankSandwichReport(
        mode=n,
        rank_z=tsvd_rank(_to_norm_layout(z, n), tol),
        rank_grad=tsvd_rank(_to_norm_layout(grad, n), tol),
    )


@dataclass(frozen=True)
class TvSandwichReport:
    """Empirical sandwich of nms_tctv between scaled TV and ATV norms.

    Constants: b = psi(x_max)/x_max with x_max the largest observed Fourier
    singular value, g = psi'(0+), i_max = max(I1, I2), and
    m_star = max_n min(I_n, R) for the upper-bound rank factor (the larger of
    the two per-mode candidates; reported here because the bound's rank factor
    is mode-dependent).
    """

    nms: float
    tv: float
    atv: float
    b: float
    g: float
    i_max: int
    m_star: int
    tv_lower_ok: bool
    tv_upper_ok: bool
    atv_lower_ok: bool
    atv_upper_ok: bool

    @property
    def holds(self):
        return (
            self.tv_lower_ok
            and self.tv_upper_ok
            and self.atv_lower_ok
            and self.atv_upper_ok
        )


def check_tv_sandwich(a, psi, rel_slack=1e-10):
    """Check that nms_tctv is sandwiched by TV and ATV norms with the
    boundedness/limit-slope constants; returns a report with both chains."""
    a = np.asarray(a, dtype=float)
    i1, i2, r = a.shape
    grads = (difference(a, 1), difference(a, 2))
    nms = nms_tctv(a, psi, grads)
    tv = tv_norm(a)
    atv = atv_norm(a)
    x_max = max(_fourier_singular_values(_to_norm_layout(g, n)).max(initial=0.0)
                for n, g in enumerate(grads, 1))
    g = float(psi.deriv_at_zero)
    i_max = max(i1, i2)
    m_star = max(min(i1, r), min(i2, r))
    # zero gradients: every side is zero and the chains hold within the slack
    b = float(psi.value(x_max) / x_max) if x_max > 0.0 else 0.0
    slack = rel_slack * (1.0 + nms + tv + atv)
    return TvSandwichReport(
        nms=nms,
        tv=tv,
        atv=atv,
        b=b,
        g=g,
        i_max=i_max,
        m_star=m_star,
        tv_lower_ok=bool(nms >= b / (2.0 * np.sqrt(i_max)) * tv - slack),
        tv_upper_ok=bool(nms <= g * np.sqrt(2.0 * m_star) * tv + slack),
        atv_lower_ok=bool(nms >= b / (2.0 * np.sqrt(i_max * i1 * i2 * r)) * atv - slack),
        atv_upper_ok=bool(nms <= g * np.sqrt(m_star) * atv + slack),
    )
