"""t-product algebra: t-SVD, tensor nuclear norms, non-convex variants, prox operators.

Every kernel here takes tube-last tensors, whose tubes run along mode 3, and
works slice-wise in the mode-3 Fourier domain; ``regularizer`` owns the mode
shuffle that puts a spatial mode there. For real input only the first
floor(I3/2)+1 Fourier slices are computed (rfft along the tubes) and
factorized, in one batched call; the remaining slices are their conjugates,
which the inverse rfft supplies, so assembled tensors are exactly real and the
factorization work is halved. Fourier slices 0 and Nyquist of a real tensor
have zero imaginary part, and the inverse rfft reads only their real part.

The slices the solver factorizes are (I_n - 1) x R, tall and thin in practice
and wide at edge shapes (I_n - 1 < R); either shape is factored as it comes.
The prox, the norms and the KKT subgradient check all factor them QR-first
(Chan, ACM TOMS 1982): a slice C = QR has the singular values and right
vectors of its R factor, square for a tall slice and trapezoidal for a wide
one, which keeps the SVD's backward stability. Only the subgradient check
forms Q, and it applies the left vectors as Q W, where R = W S V^H."""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, FactorizationError


@dataclass(frozen=True)
class LogSurrogate:
    """Concave singular-value penalty log(gamma*x + 1)/log(gamma + 1).

    Normalized so value(0) = 0 and value(1) = 1. The derivative is convex,
    nonincreasing, and finite at 0+ (gamma/log(gamma+1)).
    """

    gamma: float

    def __post_init__(self):
        if not (self.gamma > 0 and np.isfinite(self.gamma)):
            raise ValueError(f"surrogate gamma must be positive and finite, got {self.gamma}")

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
    return np.fft.rfft(t, axis=2).transpose(2, 0, 1)


def _from_fourier_slices(slices, n_tubes):
    """Real tensor whose Fourier slices 0..I3//2 are ``slices`` (inverse rfft)."""
    return np.fft.irfft(slices.transpose(1, 2, 0), n=n_tubes, axis=2)


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


def _thin_slice_svd(slices, compute_uv=True, left=False):
    """Singular values, and V^H when ``compute_uv``, of stacked slices of
    either shape, from one batched thin SVD of their QR factors R: C = QR and
    R = W S V^H give C = (QW) S V^H. With ``left``, returns (Q, W, S, V^H)."""
    try:
        if left:
            q, r = np.linalg.qr(slices)
        else:
            r = np.linalg.qr(slices, mode="r")
        if not compute_uv:
            return np.linalg.svd(r, compute_uv=False)
        w, s, vh = np.linalg.svd(r, full_matrices=False)
        return (q, w, s, vh) if left else (s, vh)
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
    slices = _fourier_slices(t)
    try:
        u, s, vh = np.linalg.svd(slices)
    except np.linalg.LinAlgError as exc:
        raise _factorization_error(slices, exc) from exc
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


def prox_singular_values(sig, rho, psi):
    """Elementwise global minimizer of f(x) = psi(x) + rho*(x - sig)^2 over x >= 0.

    For the log surrogate f'(x) = q(x) / (gamma*x + 1) with the upward quadratic
    q(x) = 2*rho*gamma*x^2 + 2*rho*(1 - gamma*sig)*x + (gamma/log(gamma+1) - 2*rho*sig),
    so f rises up to q's smaller root, falls between the roots and rises after
    the larger one. The smaller root is therefore a local maximum and never
    beats x = 0 (clipped to 0, it is x = 0); the minimizer is the larger root,
    clipped to 0, where it beats x = 0, and 0 otherwise.
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
    root = np.where(disc >= 0, np.maximum((-b + sq) / (2.0 * a), 0.0), 0.0)
    take = psi.value(root) + rho * (root - sig) ** 2 < rho * sig**2  # f(root) < f(0)
    return np.where(take, root, 0.0)


def scalar_prox(s, rho, psi):
    """Scalar form of :func:`prox_singular_values`."""
    if s < 0:
        raise ValueError(f"prox input must be nonnegative, got {s}")
    return float(prox_singular_values(np.asarray([s], dtype=float), rho, psi)[0])


def ntpnn_prox(c, rho, psi):
    """Minimizer of ntpnn(g, psi) + rho*|g - c|_F^2 over real tensors g.

    Shrinks each Fourier-domain singular value with the scalar prox. With
    C = U S V^H a slice, its prox U S' V^H is C V diag(s'/s) V^H, exactly,
    since s' <= s and s' = 0 where s = 0; so only s and V are computed.
    """
    c = np.asarray(c, dtype=float)
    slices = _fourier_slices(c)
    s, vh = _thin_slice_svd(slices)
    shrunk = prox_singular_values(s, rho, psi)
    ratio = np.divide(shrunk, s, out=np.zeros_like(s), where=s > 0)
    gain = (vh.conj().swapaxes(1, 2) * ratio[:, None, :]) @ vh
    return _from_fourier_slices(slices @ gain, c.shape[2])


def _subgradient_deviation(g, m, psi):
    """Max deviation of the multiplier m's Fourier singular components from
    -psi'(sigma)/2 over the retained singular values of g, those above 1e-8
    of the largest, and the retained count.

    With a slice C = QR, R = W S V^H and M the multiplier's slice, the
    components are u_i^H M v_i = [W^H (Q^H M) V]_ii for slices of either
    shape. The retained count is over all I3 Fourier slices; the deviation
    of a mirrored slice equals that of its stored conjugate.
    """
    q, w, s, vh = _thin_slice_svd(_fourier_slices(g), left=True)
    sv_max = float(s.max(initial=0.0))
    if sv_max == 0.0:
        return 0.0, 0
    mh = _fourier_slices(m)
    wqm = w.conj().swapaxes(1, 2) @ (q.conj().swapaxes(1, 2) @ mh)
    comp = (wqm * vh.conj()).sum(axis=2)
    keep = s > 1e-8 * sv_max
    dev = np.abs(comp - (-0.5 * psi.deriv(s)))[keep].max(initial=0.0)
    return float(dev), int(keep[_mirror_index(g.shape[2])].sum())
