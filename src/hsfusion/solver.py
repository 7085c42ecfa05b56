"""Fusion solver: subspace extraction, linearized-ADMM iterations, diagnostics.

The constrained program couples a spatial-map tensor a (I1, I2, R) to both
observations through a fixed semi-unitary spectral basis s:

    minimize   nms_tctv(a)
    subject to x = a x_1 P1 x_2 P2 x_3 s,   y = a x_3 (P3 s),
               g_n = a x_n D_{I_n}  (n = 1, 2).

Each iteration takes one Lipschitz-stepped gradient descent step on the
smooth augmented term in a, solves both g_n subproblems exactly through the
shuffled singular-value prox, then performs plain dual ascent on the four
multipliers and grows the penalty geometrically (rho <- nu * rho). Stopping
is on the maximum of the four constraint residual norms.
"""

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DimensionError, DivergenceError
from .regularizer import nms_tctv
from .tensor import (
    difference,
    difference_adjoint,
    mode_n_product,
    mode_shuffle,
    mode_unshuffle,
    require_finite,
    unfold,
)
from .tsvd import LogSurrogate, _fourier_slices, _mirror_index, _slice_svd, ntpnn_prox

TAU_MODES = ("paper", "safe")
EPS_MODES = ("absolute", "relative")


@dataclass(frozen=True)
class SolverConfig:
    """Solver hyperparameters; defaults follow the slow-growth schedule.

    ``eps`` is compared against the max constraint residual directly
    (absolute mode, the default) or after dividing by |X|_F (relative mode,
    the practical choice on real data where the subspace model is only
    approximate and absolute residuals floor at the model mismatch).
    """

    r: int
    gamma: float = 0.1
    rho0: float = 1e-3
    nu: float = 1.05
    eps: float = 1e-5
    max_iter: int = 500
    tau_mode: str = "safe"
    eps_mode: str = "absolute"

    def __post_init__(self):
        if self.r < 1:
            raise ValueError(f"subspace dimension must be >= 1, got {self.r}")
        if not self.gamma > 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if not self.rho0 > 0:
            raise ValueError(f"rho0 must be positive, got {self.rho0}")
        if not self.nu > 1:
            raise ValueError(f"nu must exceed 1, got {self.nu}")
        if not self.eps > 0:
            raise ValueError(f"eps must be positive, got {self.eps}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        if self.tau_mode not in TAU_MODES:
            raise ValueError(f"tau_mode must be one of {TAU_MODES}")
        if self.eps_mode not in EPS_MODES:
            raise ValueError(f"eps_mode must be one of {EPS_MODES}")


@dataclass(frozen=True)
class FusionProblem:
    """Observations, operators, and the fixed spectral basis; ``q`` is P3 s."""

    x: np.ndarray
    y: np.ndarray
    p1: np.ndarray
    p2: np.ndarray
    p3: np.ndarray
    s: np.ndarray
    q: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        i1_lo, i1 = self.p1.shape
        i2_lo, i2 = self.p2.shape
        i3_lo, i3 = self.p3.shape
        if self.x.shape != (i1_lo, i2_lo, i3):
            raise DimensionError(
                f"HSI shape {self.x.shape} does not match operators "
                f"({i1_lo}, {i2_lo}, {i3})"
            )
        if self.y.shape != (i1, i2, i3_lo):
            raise DimensionError(
                f"MSI shape {self.y.shape} does not match operators "
                f"({i1}, {i2}, {i3_lo})"
            )
        if self.s.shape[0] != i3:
            raise DimensionError(
                f"spectral basis has {self.s.shape[0]} rows, expected {i3}"
            )
        object.__setattr__(self, "q", self.p3 @ self.s)

    @property
    def spatial_shape(self):
        return (self.p1.shape[1], self.p2.shape[1], self.s.shape[1])


@dataclass(frozen=True)
class SolverState:
    """All iterates of one solve; immutable, updated by replacement."""

    a: np.ndarray
    g1: np.ndarray
    g2: np.ndarray
    mx: np.ndarray
    my: np.ndarray
    m1: np.ndarray
    m2: np.ndarray
    rho: float
    iter: int = 0


@dataclass
class KKTReport:
    """First-order optimality diagnostics of a finished solve."""

    residual_x: float
    residual_y: float
    residual_g1: float
    residual_g2: float
    grad_norm: float
    tau: float
    eps: float
    subgrad_dev_g1: float
    subgrad_dev_g2: float
    retained_g1: int
    retained_g2: int
    mx_trace_max: float
    my_trace_max: float
    mx_final_over_median: float
    my_final_over_median: float
    feasibility_ok: bool
    stationarity_ok: bool
    subgradient_ok: bool
    multipliers_bounded: bool

    @property
    def passed(self):
        return (
            self.feasibility_ok
            and self.stationarity_ok
            and self.subgradient_ok
            and self.multipliers_bounded
        )

    def to_dict(self):
        d = dict(self.__dict__)
        d["passed"] = self.passed
        return d


@dataclass
class Diagnostics:
    """Per-iteration trajectories plus the final optimality report.

    ``eps`` is the effective absolute threshold the stop rule used (already
    scaled by |X|_F when the solver ran in relative mode). ``wall_time[k]``
    is the seconds iteration k took, its own diagnostics included.
    """

    tau: float
    tau_mode: str
    eps: float
    eps_mode: str = "absolute"
    res_x: list = field(default_factory=list)
    res_y: list = field(default_factory=list)
    res_g1: list = field(default_factory=list)
    res_g2: list = field(default_factory=list)
    rho: list = field(default_factory=list)
    objective: list = field(default_factory=list)
    grad_norm: list = field(default_factory=list)
    wall_time: list = field(default_factory=list)
    mx_norm: list = field(default_factory=list)
    my_norm: list = field(default_factory=list)
    iterations: int = 0
    converged: bool = False
    kkt: KKTReport | None = None

    def to_dict(self):
        d = {
            "tau": self.tau,
            "tau_mode": self.tau_mode,
            "eps": self.eps,
            "eps_mode": self.eps_mode,
            "iterations": self.iterations,
            "converged": self.converged,
            "res_x": list(self.res_x),
            "res_y": list(self.res_y),
            "res_g1": list(self.res_g1),
            "res_g2": list(self.res_g2),
            "rho": list(self.rho),
            "objective": list(self.objective),
            "grad_norm": list(self.grad_norm),
            "wall_time": list(self.wall_time),
            "mx_norm": list(self.mx_norm),
            "my_norm": list(self.my_norm),
        }
        d["kkt"] = self.kkt.to_dict() if self.kkt is not None else None
        return d


def operator_norm(m):
    """Largest singular value, exact and deterministic (LAPACK).

    Power iteration from a fixed start vector is not used here: the step
    bound tau is a certificate, and for odd-n difference matrices the
    all-ones start is exactly orthogonal to the oscillatory top eigenvector
    of the Gram (it is an exact eigenvector of a smaller eigenvalue), so
    iteration terminates on the wrong eigenpair and under-reports the norm.
    """
    m = np.asarray(m, dtype=float)
    if m.size == 0 or not m.any():
        return 0.0
    return float(np.linalg.norm(m, 2))


def extract_subspace(x, r):
    """First r left singular vectors of the mode-3 unfolding of x."""
    x = np.asarray(x, dtype=float)
    i1, i2, i3 = x.shape
    if not 1 <= r <= min(i3, i1 * i2):
        raise ValueError(
            f"subspace dimension {r} out of range 1..{min(i3, i1 * i2)}"
        )
    u, _, _ = np.linalg.svd(unfold(x, 3), full_matrices=False)
    return np.ascontiguousarray(u[:, :r])


def _diff_norm_sq(n):
    """|D_n|^2, the largest eigenvalue of the path-graph Laplacian D_n^T D_n:
    2 - 2 cos(pi (n-1)/n) = 4 sin^2(pi (n-1)/(2n))."""
    if n < 2:
        raise DimensionError(f"difference matrix needs n >= 2, got {n}")
    return 4.0 * np.sin(np.pi * (n - 1) / (2 * n)) ** 2


def lipschitz_tau(p1, p2, p3, s, mode="safe"):
    """Gradient step bound tau.

    ``paper`` mode keeps the uncorrected form
    2(|P1|^2 |P2|^2 + |P3 S|^2 + |P1|^2 + |P2|^2); ``safe`` mode replaces
    the last two terms with |D_I1|^2 + |D_I2|^2, which are the operators the
    gradient actually contains, making the Lipschitz inequality certifiable.
    Operator norms are exact (see operator_norm); |D_n|^2 is in closed form.
    """
    if mode not in TAU_MODES:
        raise ValueError(f"tau mode must be one of {TAU_MODES}")
    n1 = operator_norm(p1)
    n2 = operator_norm(p2)
    nq = operator_norm(np.asarray(p3) @ np.asarray(s))
    if mode == "paper":
        extra = n1**2 + n2**2
    else:
        extra = (
            _diff_norm_sq(np.asarray(p1).shape[1]) + _diff_norm_sq(np.asarray(p2).shape[1])
        )
    return float(2.0 * (n1**2 * n2**2 + nq**2 + extra))


def initial_state(problem, rho0):
    """Zero-initialized state per the algorithm's starting point."""
    i1, i2, r = problem.spatial_shape
    return SolverState(
        a=np.zeros((i1, i2, r)),
        g1=np.zeros((i1 - 1, i2, r)),
        g2=np.zeros((i1, i2 - 1, r)),
        mx=np.zeros_like(problem.x),
        my=np.zeros_like(problem.y),
        m1=np.zeros((i1 - 1, i2, r)),
        m2=np.zeros((i1, i2 - 1, r)),
        rho=float(rho0),
        iter=0,
    )


def grad_a(state, problem, tensors=None):
    """Gradient of the smooth augmented objective in a: -2 A^T(r + m/rho),
    where r are the constraint residuals b - A a and A^T is the adjoint of the
    four constraint maps; ``tensors`` are as in :func:`residuals`."""
    rho = state.rho
    rx, ry, r1, r2 = tensors if tensors is not None else _residual_tensors(state, problem)
    # S^T first: it shrinks the tensor that the spatial back-projections enlarge
    xt = mode_n_product(rx + state.mx / rho, problem.s.T, 3)
    back = mode_n_product(mode_n_product(xt, problem.p1.T, 1), problem.p2.T, 2)
    back += mode_n_product(ry + state.my / rho, problem.q.T, 3)
    back += difference_adjoint(r1 + state.m1 / rho, 1)
    back += difference_adjoint(r2 + state.m2 / rho, 2)
    return -2.0 * back


def l1_objective(state, problem):
    """Smooth augmented objective in a, the sum of |r + m/rho|_F^2 over the four
    constraints (the quantity grad_a differentiates)."""
    ms = (state.mx, state.my, state.m1, state.m2)
    return float(sum(np.sum((r + m / state.rho) ** 2)
                     for r, m in zip(_residual_tensors(state, problem), ms)))


def step_a(state, problem, tau, grad=None):
    """One gradient descent step: a <- a - grad/tau, where ``grad`` is
    ``grad_a(state, problem)`` unless the caller already has it."""
    if not tau > 0:
        raise ValueError(f"tau must be positive, got {tau}")
    if grad is None:
        grad = grad_a(state, problem)
    return replace(state, a=state.a - grad / tau)


def step_g(state, n, psi, problem):
    """Exact g_n update through the shuffled singular-value prox."""
    m = state.m1 if n == 1 else state.m2
    target = difference(state.a, n) - m / state.rho
    shrunk = ntpnn_prox(mode_shuffle(target, 3 - n), state.rho, psi)
    g_new = mode_unshuffle(shrunk, 3 - n)
    if n == 1:
        return replace(state, g1=g_new)
    return replace(state, g2=g_new)


def _residual_tensors(state, problem):
    """The four constraint residual tensors (x, y, g1, g2) of ``state``."""
    a_lo = mode_n_product(mode_n_product(state.a, problem.p1, 1), problem.p2, 2)
    return (
        problem.x - mode_n_product(a_lo, problem.s, 3),
        problem.y - mode_n_product(state.a, problem.q, 3),
        state.g1 - difference(state.a, 1),
        state.g2 - difference(state.a, 2),
    )


def residuals(state, problem, tensors=None):
    """The four constraint residual Frobenius norms (x, y, g1, g2); ``tensors``
    are the residual tensors of ``state`` when the caller already has them."""
    if tensors is None:
        tensors = _residual_tensors(state, problem)
    return np.array([np.linalg.norm(r) for r in tensors])


def update_multipliers(state, problem, nu, tensors=None):
    """Dual ascent on the four multipliers, then geometric penalty growth;
    ``tensors`` are as in :func:`residuals`."""
    rho = state.rho
    rx, ry, r1, r2 = tensors if tensors is not None else _residual_tensors(state, problem)
    mx = state.mx + rho * rx
    my = state.my + rho * ry
    m1 = state.m1 + rho * r1
    m2 = state.m2 + rho * r2
    return replace(
        state, mx=mx, my=my, m1=m1, m2=m2, rho=rho * nu, iter=state.iter + 1
    )


def _subgradient_deviation(g, m, psi, n, rel_rank_tol=1e-8):
    """Max deviation of the multiplier's Fourier singular components from
    -psi'(sigma)/2 over the retained singular values of g (shuffled mode n).

    The retained count is over all I3 Fourier slices; the deviation of a
    mirrored slice equals that of its stored conjugate.
    """
    g = mode_shuffle(g, n)
    u, s, vh = _slice_svd(_fourier_slices(g), full_matrices=False)
    sv_max = float(s.max(initial=0.0))
    if sv_max == 0.0:
        return 0.0, 0
    mh = _fourier_slices(mode_shuffle(m, n))
    comp = ((u.conj().swapaxes(1, 2) @ mh) * vh.conj()).sum(axis=2)
    keep = s > rel_rank_tol * sv_max
    dev = np.abs(comp - (-0.5 * psi.deriv(s)))[keep].max(initial=0.0)
    return float(dev), int(keep[_mirror_index(g.shape[2])].sum())


def _trace_stats(trace):
    arr = np.asarray(trace, dtype=float)
    if arr.size == 0:
        return 0.0, 0.0
    med = float(np.median(arr))
    final = float(arr[-1])
    if med == 0.0:
        ratio = 0.0 if final == 0.0 else np.inf
    else:
        ratio = final / med
    return float(arr.max()), ratio


def kkt_check(state, problem, psi, tau, eps, diagnostics=None, subgrad_tol=1e-4,
              res=None, grad=None):
    """First-order optimality report for a finished state.

    Checks (i) the four constraint residuals against 10*eps, (ii) the norm of
    the smooth gradient against 10*eps*tau, (iii) the Fourier singular-value
    relation between each gradient multiplier and -psi'(sigma)/2, and (iv)
    finiteness of the data-multiplier norm traces, with their final/median
    growth ratios reported. ``res`` (the :func:`residuals` norms) and ``grad``
    (``grad_a(state, problem)``) are those of ``state`` when the caller
    already has them.
    """
    if res is None:
        res = residuals(state, problem)
    if grad is None:
        grad = grad_a(state, problem)
    gnorm = float(np.linalg.norm(grad))
    dev1, kept1 = _subgradient_deviation(state.g1, state.m1, psi, 2)
    dev2, kept2 = _subgradient_deviation(state.g2, state.m2, psi, 1)
    mx_trace = diagnostics.mx_norm if diagnostics is not None else []
    my_trace = diagnostics.my_norm if diagnostics is not None else []
    mx_max, mx_ratio = _trace_stats(mx_trace)
    my_max, my_ratio = _trace_stats(my_trace)
    # The theorem's hypothesis. Finite, non-overflowing traces gate the pass;
    # the final/median growth ratios are reported so a run can be judged
    # against the stricter plateau behaviour (< 10) that slow penalty
    # schedules exhibit. Fast geometric rho growth back-loads the trace and
    # inflates the ratio even on well-converged runs.
    bounded = bool(np.isfinite(mx_max) and np.isfinite(my_max))
    return KKTReport(
        residual_x=float(res[0]),
        residual_y=float(res[1]),
        residual_g1=float(res[2]),
        residual_g2=float(res[3]),
        grad_norm=gnorm,
        tau=float(tau),
        eps=float(eps),
        subgrad_dev_g1=dev1,
        subgrad_dev_g2=dev2,
        retained_g1=kept1,
        retained_g2=kept2,
        mx_trace_max=mx_max,
        my_trace_max=my_max,
        mx_final_over_median=mx_ratio,
        my_final_over_median=my_ratio,
        feasibility_ok=bool(res.max() <= 10.0 * eps),
        stationarity_ok=bool(gnorm <= 10.0 * eps * tau),
        subgradient_ok=bool(max(dev1, dev2) <= subgrad_tol),
        multipliers_bounded=bool(bounded),
    )


def solve(x, y, p1, p2, p3, config):
    """Run the full fusion loop; returns (z_hat, diagnostics).

    Raises DivergenceError if any iterate becomes non-finite; a run that hits
    max_iter without meeting the tolerance returns normally with
    ``diagnostics.converged`` False.
    """
    # aligned C-order inputs: a misaligned buffer changes the products' last bits
    x, y, p1, p2, p3 = (
        require_finite(np.require(v, float, ["C", "A"]), name)
        for v, name in ((x, "HSI"), (y, "MSI"), (p1, "P1"), (p2, "P2"), (p3, "P3"))
    )
    s = extract_subspace(x, config.r)
    problem = FusionProblem(x=x, y=y, p1=p1, p2=p2, p3=p3, s=s)
    psi = LogSurrogate(config.gamma)
    tau = lipschitz_tau(p1, p2, p3, s, config.tau_mode)
    eps = config.eps
    if config.eps_mode == "relative":
        eps *= float(np.linalg.norm(x))
    diag = Diagnostics(tau=tau, tau_mode=config.tau_mode, eps=eps,
                       eps_mode=config.eps_mode)
    state = initial_state(problem, config.rho0)
    res = residuals(state, problem)
    grad = None
    while res.max() > eps and state.iter < config.max_iter:
        t_start = time.perf_counter()
        # overflow here is the divergence path; the finite checks below
        # convert it into a typed error instead of a warning. A non-finite
        # g1 or g2 shows in the residual norms, a multiplier in its own norm.
        with np.errstate(over="ignore", invalid="ignore"):
            state = step_a(state, problem, tau, grad)
            if not np.isfinite(state.a).all():
                raise DivergenceError(
                    f"iterate 'a' became non-finite at iteration {state.iter}"
                )
            state = step_g(state, 1, psi, problem)
            state = step_g(state, 2, psi, problem)
            rho_used = state.rho
            tensors = _residual_tensors(state, problem)
            state = update_multipliers(state, problem, config.nu, tensors)
            res = residuals(state, problem, tensors)
            # the gradient at the new state is also the next iteration's step
            # (or, after the last iteration, kkt_check's)
            grad = grad_a(state, problem, tensors)
            norms = [np.linalg.norm(v)
                     for v in (grad, state.mx, state.my, state.m1, state.m2)]
        if not (np.isfinite(res).all() and np.isfinite(norms).all()):
            raise DivergenceError(
                f"a residual, gradient or multiplier norm became non-finite "
                f"at iteration {state.iter}"
            )
        diag.res_x.append(float(res[0]))
        diag.res_y.append(float(res[1]))
        diag.res_g1.append(float(res[2]))
        diag.res_g2.append(float(res[3]))
        diag.rho.append(float(rho_used))
        diag.objective.append(nms_tctv(state.a, psi))
        diag.grad_norm.append(float(norms[0]))
        diag.mx_norm.append(float(norms[1]))
        diag.my_norm.append(float(norms[2]))
        diag.wall_time.append(time.perf_counter() - t_start)
    diag.iterations = state.iter
    diag.converged = bool(res.max() <= eps)
    diag.kkt = kkt_check(state, problem, psi, tau, eps, diag, res=res, grad=grad)
    z_hat = mode_n_product(state.a, s, 3)
    return z_hat, diag
