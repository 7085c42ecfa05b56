"""Fourier-slice kernels of the solver's prior: the log surrogate, the
non-convex tensor pseudo nuclear norm, its prox and the KKT subgradient check.

Every kernel here takes tube-last tensors, whose tubes run along mode 3, and
works slice-wise in the mode-3 Fourier domain; ``regularizer`` owns the mode
shuffle that puts a spatial mode there. For real input only the first
floor(I3/2)+1 Fourier slices are computed (rfft along the tubes) and
factorized, in one batched call; the remaining slices are their conjugates,
which the inverse rfft supplies, so the prox's tensors are exactly real and
the factorization work is halved. Fourier slices 0 and Nyquist of a real tensor
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

from .config import _check_positive_finite
from .errors import FactorizationError


@dataclass(frozen=True)
class LogSurrogate:
    """Concave singular-value penalty log(gamma*x + 1)/log(gamma + 1).

    Normalized so value(0) = 0 and value(1) = 1. The derivative is convex,
    nonincreasing, and finite at 0+ (gamma/log(gamma+1)).
    """

    gamma: float

    def __post_init__(self):
        _check_positive_finite("gamma", self.gamma)

    def value(self, x):
        return np.log1p(self.gamma * np.asarray(x)) / np.log1p(self.gamma)

    def deriv(self, x):
        return self.gamma / ((self.gamma * np.asarray(x) + 1.0) * np.log1p(self.gamma))

    @property
    def deriv_at_zero(self):
        return self.gamma / np.log1p(self.gamma)


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


def _fourier_singular_values(t):
    """Singular values of every Fourier slice, shape (I3, min(I1, I2))."""
    s = _thin_slice_svd(_fourier_slices(t), compute_uv=False)
    return s[_mirror_index(t.shape[2])]


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
