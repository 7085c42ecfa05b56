"""The paper's analysis, which the solver never runs: the t-SVD algebra, the
rank and TV sandwich propositions, D_n as a matrix, the TV norms, the
smooth objective that ``grad_a`` differentiates, the scalar prox and the
prior-free fit of the data."""

from dataclasses import dataclass

import numpy as np

from hsfusion.errors import DimensionError
from hsfusion.regularizer import _to_norm_layout, nms_tctv
from hsfusion.tensor import _check_diff_size, difference, mode_n_product
from hsfusion.tsvd import (_factorization_error, _fourier_singular_values, _fourier_slices,
                           _from_fourier_slices, prox_singular_values)

from _shared import _tensors


def diff_matrix(n):
    """(n-1) x n first-order difference matrix: 1 on the diagonal, -1 beside it."""
    _check_diff_size(n)
    eye = np.eye(n)
    return eye[:-1] - eye[1:]


def tv_norm(t):
    """Isotropic TV: sqrt(|t x_1 D|_F^2 + |t x_2 D|_F^2)."""
    g1, g2 = difference(t, 1), difference(t, 2)
    return float(np.sqrt(np.sum(g1 * g1) + np.sum(g2 * g2)))


def atv_norm(t):
    """Anisotropic TV: entrywise l1 norm of both spatial gradient tensors."""
    g1, g2 = difference(t, 1), difference(t, 2)
    return float(np.abs(g1).sum() + np.abs(g2).sum())


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

    Complex input is cast to float like everywhere else in ``hsfusion.tsvd``,
    which emits numpy's ComplexWarning rather than dropping the imaginary part
    silently.
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


def tnn(t):
    """Tensor nuclear norm: mean over Fourier slices of matrix nuclear norms."""
    t = np.asarray(t, dtype=float)
    return float(_fourier_singular_values(t).sum() / t.shape[2])


def tctv(a, modes=(1, 2)):
    """Correlated TV: mean of TNNs of the mode-n gradient tensors, n in modes."""
    modes = tuple(modes)
    if not modes:
        raise ValueError("tctv needs at least one mode")
    if any(n not in (1, 2, 3) for n in modes):
        raise ValueError(f"modes must be a subset of {{1,2,3}}, got {modes}")
    return float(np.mean([tnn(difference(a, n)) for n in modes]))


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


def l1_objective(state, problem):
    """Smooth augmented objective in a, the sum of |r + u|_F^2 over the four
    constraints and their scaled duals (the quantity grad_a differentiates)."""
    return float(sum(np.sum((r + u) ** 2) for r, u in zip(_tensors(state, problem), state.u)))


def scalar_prox(s, rho, psi):
    """Scalar form of ``prox_singular_values``."""
    if s < 0:
        raise ValueError(f"prox input must be nonnegative, got {s}")
    return float(prox_singular_values(np.asarray([s], dtype=float), rho, psi)[0])


def prior_free_fit(problem, steps=300):
    """The fit of both data maps, a -> (a x_1 P1 x_2 P2 x_3 S, a x_3 P3 S), with no
    prior: z = a x_3 S for the least-norm a among the least-squares fits of x and
    y, and its relative misfit |(x, y) - A a| / |(x, y)|.

    ``steps`` steps of CG on the normal equations from a = 0, in the CGLS form
    (A and A^T applied in turn, A^T A never formed), so the iterates stay in the
    range of A^T and tend to the least-norm fit. With A^T A formed, rounding
    reaches the null space of A, and on an underdetermined scene the iterates
    then grow without bound.
    """
    p1, p2, s, q = problem.p1, problem.p2, problem.s, problem.q

    def forward(a):
        lo = mode_n_product(mode_n_product(a, p1, 1), p2, 2)
        return mode_n_product(lo, s, 3), mode_n_product(a, q, 3)

    def adjoint(vx, vy):
        back = mode_n_product(mode_n_product(mode_n_product(vx, s.T, 3), p1.T, 1), p2.T, 2)
        return back + mode_n_product(vy, q.T, 3)

    rx, ry = problem.x.copy(), problem.y.copy()
    g = adjoint(rx, ry)
    a, d = np.zeros_like(g), g.copy()
    gg = np.vdot(g, g)
    for _ in range(steps):
        if gg == 0.0:
            break
        fx, fy = forward(d)
        alpha = gg / (np.vdot(fx, fx) + np.vdot(fy, fy))
        a += alpha * d
        rx -= alpha * fx
        ry -= alpha * fy
        g = adjoint(rx, ry)
        gg, gg_old = np.vdot(g, g), gg
        d = g + (gg / gg_old) * d
    data = np.vdot(problem.x, problem.x) + np.vdot(problem.y, problem.y)
    return mode_n_product(a, s, 3), float(np.sqrt((np.vdot(rx, rx) + np.vdot(ry, ry)) / data))
