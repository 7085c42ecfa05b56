"""t-product algebra: t-SVD, tensor nuclear norms, non-convex variants, prox operators.

Everything here works slice-wise in the mode-3 Fourier domain. For real input
only the first floor(I3/2)+1 Fourier slices are computed (rfft along the
tubes) and factorized, in one batched call; the remaining slices are their
conjugates, which the inverse rfft supplies, so assembled tensors are exactly
real and the factorization work is halved. Fourier slices 0 and Nyquist of a
real tensor have zero imaginary part, and the inverse rfft reads only their
real part.

The slices the solver factorizes are tall and thin, (I_n - 1) x R. The prox
and the norms factor them QR-first (Chan, ACM TOMS 1982): a slice C = QR has
the singular values and right vectors of its small R factor, which keeps the
SVD's backward stability and never forms Q or the left vectors."""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, FactorizationError
from .tensor import mode_shuffle


@dataclass(frozen=True)
class LogSurrogate:
    """Concave singular-value penalty log(gamma*x + 1)/log(gamma + 1).

    Normalized so value(0) = 0 and value(1) = 1. The derivative is convex,
    nonincreasing, and finite at 0+ (gamma/log(gamma+1)).
    """

    gamma: float

    def __post_init__(self):
        if not self.gamma > 0:
            raise ValueError(f"surrogate gamma must be positive, got {self.gamma}")

    def value(self, x):
        return np.log1p(self.gamma * np.asarray(x)) / np.log1p(self.gamma)

    def deriv(self, x):
        return self.gamma / ((self.gamma * np.asarray(x) + 1.0) * np.log1p(self.gamma))

    @property
    def deriv_at_zero(self):
        return self.gamma / np.log1p(self.gamma)


@dataclass(frozen=True)
class TSvdFactors:
    """Orthogonal u (I1,I1,I3), f-diagonal s (I1,I2,I3), orthogonal v (I2,I2,I3)."""

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray


def identity_tensor(n, tubes):
    """n x n x tubes tensor whose first frontal slice is I_n, the rest zero."""
    t = np.zeros((n, n, tubes))
    t[:, :, 0] = np.eye(n)
    return t


def t_transpose(a):
    """Tensor (conjugate) transpose: slice 0 transposed, slices 1..I3-1 reversed."""
    a = np.asarray(a)
    b = np.concatenate([a[:, :, :1], a[:, :, :0:-1]], axis=2)
    b = np.swapaxes(b, 0, 1)
    return np.ascontiguousarray(np.conj(b))


def t_product(a, b):
    """t-product of real (I1,K,I3) and (K,I2,I3): slice-wise products in Fourier domain.

    Complex input is cast to float like everywhere else in this module, which
    emits numpy's ComplexWarning rather than dropping the imaginary part silently.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 3 or b.ndim != 3:
        raise ValueError("t_product expects two 3-way tensors")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"inner dimensions disagree: {a.shape} vs {b.shape}")
    if a.shape[2] != b.shape[2]:
        raise DimensionError(f"tube lengths disagree: {a.shape[2]} vs {b.shape[2]}")
    return _from_fourier_slices(_fourier_slices(a) @ _fourier_slices(b), a.shape[2])


def _fourier_slices(t):
    """Fourier slices 0..I3//2 of real t (rfft along the tubes), slice index first."""
    return np.moveaxis(np.fft.rfft(t, axis=2), 2, 0)


def _from_fourier_slices(slices, n_tubes):
    """Real tensor whose Fourier slices 0..I3//2 are ``slices`` (inverse rfft)."""
    return np.fft.irfft(np.moveaxis(slices, 0, 2), n=n_tubes, axis=2)


def _mirror_index(n_tubes):
    """Index into the I3//2+1 stored slices of each of the I3 Fourier slices.

    Slice f of a real tensor is the conjugate of slice I3-f, with the same
    singular values.
    """
    f = np.arange(n_tubes)
    return np.minimum(f, n_tubes - f)


def _factorization_error(slices, exc):
    """FactorizationError naming the first non-finite slice of ``slices``."""
    bad = [f for f, slab in enumerate(slices) if not np.isfinite(slab).all()]
    where = f"Fourier slice {bad[0]}" if bad else "a Fourier slice"
    return FactorizationError(f"SVD failed on {where}: {exc}")


def _slice_svd(slices, **kwargs):
    """One batched SVD over stacked Fourier slices; errors name the first non-finite one."""
    try:
        return np.linalg.svd(slices, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise _factorization_error(slices, exc) from exc


def _thin_slice_svd(slices, compute_uv=True):
    """Singular values, and V^H when ``compute_uv``, of stacked slices with at
    least as many rows as columns, from one batched SVD of their square QR
    factors R: C = QR and R = W S V^H give C = (QW) S V^H."""
    try:
        r = np.linalg.qr(slices, mode="r")
        if not compute_uv:
            return np.linalg.svd(r, compute_uv=False)
        _, s, vh = np.linalg.svd(r)
        return s, vh
    except np.linalg.LinAlgError as exc:
        raise _factorization_error(slices, exc) from exc


def t_svd(t):
    """t-SVD of a real 3-way tensor: t = u * s * v^T with orthogonal u, v.

    One SVD per stored Fourier slice; the inverse rfft supplies the mirrored
    slices, so the factors are exactly real. Singular values within each
    slice come out nonnegative and nonincreasing.
    """
    t = np.asarray(t, dtype=float)
    i1, i2, i3 = t.shape
    u, s, vh = _slice_svd(_fourier_slices(t), full_matrices=True)
    diag = np.arange(s.shape[1])
    sh = np.zeros((s.shape[0], i1, i2))
    sh[:, diag, diag] = s
    return TSvdFactors(
        u=_from_fourier_slices(u, i3),
        s=_from_fourier_slices(sh, i3),
        v=_from_fourier_slices(vh.conj().swapaxes(1, 2), i3),
    )


def _fourier_singular_values(t):
    """Singular values of every Fourier slice, shape (I3, min(I1, I2))."""
    if t.shape[0] < t.shape[1]:
        t = t.swapaxes(0, 1)  # a real tensor's Fourier slices transpose with it
    s = _thin_slice_svd(_fourier_slices(t), compute_uv=False)
    return s[_mirror_index(t.shape[2])]


def tnn(t):
    """Tensor nuclear norm: mean over Fourier slices of matrix nuclear norms."""
    t = np.asarray(t, dtype=float)
    return float(_fourier_singular_values(t).sum() / t.shape[2])


def ntpnn(t, psi):
    """Non-convex tensor pseudo nuclear norm: TNN with psi applied valuewise."""
    t = np.asarray(t, dtype=float)
    return float(psi.value(_fourier_singular_values(t)).sum() / t.shape[2])


def mode_ntpnn(t, n, psi):
    """NTPNN evaluated after rotating mode n into the tube position."""
    return ntpnn(mode_shuffle(t, n), psi)


def prox_singular_values(sig, rho, psi):
    """Elementwise global minimizer of psi(x) + rho*(x - sig)^2 over x >= 0.

    For the log surrogate the stationary points solve
    2*rho*gamma*x^2 + 2*rho*(1 - gamma*sig)*x + (gamma/log(gamma+1) - 2*rho*sig) = 0;
    the returned value is the best of the nonnegative real roots and 0.
    """
    sig = np.asarray(sig, dtype=float)
    if not rho > 0:
        raise ValueError(f"rho must be positive, got {rho}")
    g = psi.gamma
    a = 2.0 * rho * g
    b = 2.0 * rho * (1.0 - g * sig)
    c = psi.deriv_at_zero - 2.0 * rho * sig
    disc = b * b - 4.0 * a * c
    sq = np.sqrt(np.maximum(disc, 0.0))
    ok = disc >= 0
    r_hi = np.where(ok, np.maximum((-b + sq) / (2.0 * a), 0.0), 0.0)
    r_lo = np.where(ok, np.maximum((-b - sq) / (2.0 * a), 0.0), 0.0)

    def objective(x):
        return psi.value(x) + rho * (x - sig) ** 2

    best_x = np.zeros_like(sig)
    best_f = rho * sig**2  # objective at x = 0
    for cand in (r_lo, r_hi):
        f = objective(cand)
        take = f < best_f
        best_x = np.where(take, cand, best_x)
        best_f = np.where(take, f, best_f)
    return best_x


def scalar_prox(s, rho, psi):
    """Scalar form of :func:`prox_singular_values`."""
    if s < 0:
        raise ValueError(f"prox input must be nonnegative, got {s}")
    return float(prox_singular_values(np.asarray([s], dtype=float), rho, psi)[0])


def ntpnn_prox(c, rho, psi):
    """Minimizer of ntpnn(g, psi) + rho*|g - c|_F^2 over real tensors g.

    Shrinks each Fourier-domain singular value with the scalar prox. With
    C = U S V^H a slice, its prox U S' V^H is C V diag(s'/s) V^H, exactly,
    since s' <= s and s' = 0 where s = 0; so only s and V are computed. Any
    mode shuffling is the caller's responsibility.
    """
    c = np.asarray(c, dtype=float)
    if not rho > 0:
        raise ValueError(f"rho must be positive, got {rho}")
    if c.shape[0] < c.shape[1]:
        # a real tensor's Fourier slices transpose with it
        return ntpnn_prox(c.swapaxes(0, 1), rho, psi).swapaxes(0, 1)
    slices = _fourier_slices(c)
    s, vh = _thin_slice_svd(slices)
    shrunk = prox_singular_values(s, rho, psi)
    ratio = np.divide(shrunk, s, out=np.zeros_like(s), where=s > 0)
    gain = (vh.conj().swapaxes(1, 2) * ratio[:, None, :]) @ vh
    return _from_fourier_slices(slices @ gain, c.shape[2])
