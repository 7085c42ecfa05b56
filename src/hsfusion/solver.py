"""Fusion solver: subspace extraction, linearized-ADMM iterations, diagnostics.

The constrained program couples a spatial-map tensor a (I1, I2, R) to both
observations through a fixed semi-unitary spectral basis s:

    minimize   nms_tctv(a)
    subject to x = a x_1 P1 x_2 P2 x_3 s,   y = a x_3 (P3 s),
               g_n = a x_n D_{I_n}  (n = 1, 2).

Each iteration takes one Lipschitz-stepped gradient descent step on the
smooth augmented term in a, solves both g_n subproblems exactly through the
shuffled singular-value prox, then performs dual ascent and grows the penalty
geometrically (rho <- nu * rho). The state holds the scaled duals u = m/rho
of the four multipliers m, so no primal step divides by rho; the dual ascent
m <- m + rho r reads u <- (u + r)/nu. Stopping is on the maximum of the four
constraint residual norms.
"""

import time
from copy import copy
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .config import TAU_MODES, SolverConfig  # noqa: F401 (SolverConfig re-exported)
from .errors import DimensionError, DivergenceError
from .regularizer import _from_norm_layout, _to_norm_layout, nms_tctv
from .tensor import (
    all_finite,
    diff_norm_sq,
    difference,
    difference_adjoint,
    mode_n_product,
    require_finite,
    unfold,
)
from .tsvd import LogSurrogate, _subgradient_deviation, ntpnn_prox

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
    """All iterates of one solve; immutable, updated by replacement.

    ``g[n - 1]`` is the split of D_n a, and ``u`` holds the scaled duals of
    the constraints (x, y, g1, g2) in the order of :func:`_residual_tensors`;
    the multiplier of each constraint is rho times its scaled dual.
    """

    a: np.ndarray
    g: tuple
    u: tuple
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
    is the seconds iteration k took, its own diagnostics included. Every
    list field is a trace, and :meth:`record` is its one writer.
    """

    tau: float
    tau_mode: str
    eps: float
    eps_mode: str
    iterations: int = 0
    converged: bool = False
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
    kkt: KKTReport | None = None

    def record(self, **values):
        """Append each value, as a float, to the trace of the same name."""
        for name, value in values.items():
            getattr(self, name).append(float(value))

    def to_dict(self):
        """The fields in declaration order, lists copied, ``kkt`` as its dict."""
        d = {f.name: copy(getattr(self, f.name)) for f in fields(self)}
        d["kkt"] = self.kkt.to_dict() if self.kkt is not None else None
        return d


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


def lipschitz_tau(p1, p2, p3, s, mode="safe"):
    """Gradient step bound tau.

    ``paper`` mode keeps the uncorrected form
    2(|P1|^2 |P2|^2 + |P3 S|^2 + |P1|^2 + |P2|^2); ``safe`` mode replaces
    the last two terms with |D_I1|^2 + |D_I2|^2, which are the operators the
    gradient actually contains, making the Lipschitz inequality certifiable.
    The norms are exact (LAPACK; |D_n|^2 in closed form): tau is a certificate.
    """
    if mode not in TAU_MODES:
        raise ValueError(f"tau mode must be one of {TAU_MODES}, got {mode!r}")
    p1, p2 = np.asarray(p1), np.asarray(p2)
    n1, n2, nq = (float(np.linalg.norm(m, 2)) for m in (p1, p2, np.asarray(p3) @ np.asarray(s)))
    if mode == "paper":
        extra = n1**2 + n2**2
    else:
        extra = diff_norm_sq(p1.shape[1]) + diff_norm_sq(p2.shape[1])
    return float(2.0 * (n1**2 * n2**2 + nq**2 + extra))


def initial_state(problem, rho0):
    """Zero-initialized state per the algorithm's starting point."""
    i1, i2, r = problem.spatial_shape
    g = (np.zeros((i1 - 1, i2, r)), np.zeros((i1, i2 - 1, r)))
    return SolverState(
        a=np.zeros((i1, i2, r)),
        g=g,
        u=(np.zeros_like(problem.x), np.zeros_like(problem.y), *map(np.zeros_like, g)),
        rho=float(rho0),
    )


def grad_a(state, problem, tensors):
    """Gradient of the smooth augmented objective in a: -2 A^T(r + u), where
    ``tensors`` are the constraint residuals r = b - A a of ``state`` (see
    :func:`_residual_tensors`), u its scaled duals and A^T the adjoint of the
    four constraint maps."""
    rx, ry, r1, r2 = tensors
    ux, uy, u1, u2 = state.u
    # S^T first: it shrinks the tensor that the spatial back-projections enlarge
    xt = mode_n_product(rx + ux, problem.s.T, 3)
    back = mode_n_product(mode_n_product(xt, problem.p1.T, 1), problem.p2.T, 2)
    back += mode_n_product(ry + uy, problem.q.T, 3)
    back += difference_adjoint(r1 + u1, 1)
    back += difference_adjoint(r2 + u2, 2)
    return -2.0 * back


def l1_objective(state, problem):
    """Smooth augmented objective in a, the sum of |r + u|_F^2 over the four
    constraints and their scaled duals (the quantity grad_a differentiates)."""
    diffs = (difference(state.a, 1), difference(state.a, 2))
    return float(sum(np.sum((r + u) ** 2)
                     for r, u in zip(_residual_tensors(state, problem, diffs), state.u)))


def step_a(state, tau, grad):
    """One gradient descent step a <- a - grad/tau, where ``grad`` is
    :func:`grad_a` at ``state``."""
    if not tau > 0:
        raise ValueError(f"tau must be positive, got {tau}")
    return replace(state, a=state.a - grad / tau)


def step_g(state, n, psi, diff):
    """Exact g_n update: the shuffled singular-value prox, at weight rho, of
    the target D_n a - u_n; ``diff`` is ``difference(state.a, n)``. It
    replaces ``g[n - 1]`` alone."""
    # the target is not kept past its shuffled copy: with the caller's
    # differences live, that keeps the prox's peak memory down
    shrunk = ntpnn_prox(_to_norm_layout(diff - state.u[n + 1], n), state.rho, psi)
    g = list(state.g)
    g[n - 1] = _from_norm_layout(shrunk, n)
    return replace(state, g=tuple(g))


def _residual_tensors(state, problem, diffs):
    """The four constraint residual tensors (x, y, g1, g2) of ``state``;
    ``diffs`` are ``difference(state.a, n)`` for n = 1, 2."""
    a_lo = mode_n_product(mode_n_product(state.a, problem.p1, 1), problem.p2, 2)
    return (
        problem.x - mode_n_product(a_lo, problem.s, 3),
        problem.y - mode_n_product(state.a, problem.q, 3),
        *(g - d for g, d in zip(state.g, diffs)),
    )


def residuals(tensors):
    """The Frobenius norms of the four residual tensors (x, y, g1, g2)."""
    return np.array([np.linalg.norm(r) for r in tensors])


def update_multipliers(state, nu, tensors):
    """Dual ascent along the residual ``tensors`` of ``state``, then
    geometric penalty growth: u <- (u + r)/nu and rho <- nu rho, which is
    m <- m + rho r for the multipliers m = rho u."""
    return replace(state, u=tuple((u + r) / nu for u, r in zip(state.u, tensors)),
                   rho=state.rho * nu, iter=state.iter + 1)


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


def kkt_check(state, psi, res, grad_norm, diagnostics):
    """First-order optimality report for a finished state.

    Checks (i) the four constraint residuals against 10*eps, (ii) the norm of
    the smooth gradient against 10*eps*tau, (iii) the Fourier singular-value
    relation between each gradient multiplier m_n = rho u_n and
    -psi'(sigma)/2 (to within 1e-4), and (iv) finiteness of the
    data-multiplier norm traces, with their final/median growth ratios
    reported. Check (ii) in multiplier units: grad = -2 A^T(r + m/rho), so
    |grad| <= 10*eps*tau means |A^T m + rho A^T r| <= 5*eps*tau*rho, a bound
    that grows with rho. ``res`` and ``grad_norm`` are the :func:`residuals`
    norms and the norm of :func:`grad_a` at ``state``; ``diagnostics`` holds
    the run's tau, its effective eps and its multiplier norm traces.
    """
    tau, eps = diagnostics.tau, diagnostics.eps
    gnorm = float(grad_norm)
    (dev1, kept1), (dev2, kept2) = (
        _subgradient_deviation(_to_norm_layout(g, n), _to_norm_layout(state.rho * u, n), psi)
        for n, g, u in zip((1, 2), state.g, state.u[2:]))
    mx_max, mx_ratio = _trace_stats(diagnostics.mx_norm)
    my_max, my_ratio = _trace_stats(diagnostics.my_norm)
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
        subgradient_ok=bool(max(dev1, dev2) <= 1e-4),
        multipliers_bounded=bool(bounded),
    )


def _iterates(problem, psi, tau, nu, state):
    """The linearized-ADMM iterates from ``state``, that state first, each as
    ``(state, diffs, res, norms, rho)``: the differences of its a, its
    residual norms, the norms of the gradient at it and of the multipliers
    m = rho u, and the penalty its step used. The gradient itself stays here.
    Raises DivergenceError at the first non-finite iterate. The caller lets go
    of the state and diffs before it resumes, so no iterate outlives the next step.
    """
    diffs = (difference(state.a, 1), difference(state.a, 2))
    tensors = _residual_tensors(state, problem, diffs)
    rho = state.rho
    while True:
        # overflow is the divergence path: the finite checks (a non-finite g_n shows in
        # the residual norms) make it a typed error. An errstate across a yield binds the caller
        with np.errstate(over="ignore", invalid="ignore"):
            res = residuals(tensors)
            grad = grad_a(state, problem, tensors)
            norms = [np.linalg.norm(grad)] + [state.rho * np.linalg.norm(u) for u in state.u]
        if not (np.isfinite(res).all() and np.isfinite(norms).all()):
            raise DivergenceError("a residual, gradient or multiplier norm became non-finite "
                                  f"at iteration {state.iter}")
        yield state, diffs, res, norms, rho
        del diffs
        with np.errstate(over="ignore", invalid="ignore"):
            state = step_a(state, tau, grad)
            if not all_finite(state.a):
                raise DivergenceError(f"iterate 'a' became non-finite at iteration {state.iter}")
            # the new a's differences serve both proxes, the residuals and the trace
            diffs = (difference(state.a, 1), difference(state.a, 2))
            for n in (1, 2):
                state = step_g(state, n, psi, diffs[n - 1])
            rho = state.rho
            tensors = _residual_tensors(state, problem, diffs)
            state = update_multipliers(state, nu, tensors)


def _stop_reason(res, iteration, eps, max_iter):
    """The stop rule: "tol" when res.max() <= eps, else "max_iter" at the cap, else None."""
    if res.max() <= eps:
        return "tol"
    return "max_iter" if iteration >= max_iter else None


def solve(x, y, p1, p2, p3, config):
    """Run the full fusion loop; returns (z_hat, diagnostics).

    Raises DivergenceError if any iterate becomes non-finite; a run that hits
    max_iter without meeting the tolerance returns normally with
    ``diagnostics.converged`` False.
    """
    # aligned C-order inputs: a misaligned buffer changes the products' last bits
    inputs = []
    for v, name, ndim in ((x, "HSI", 3), (y, "MSI", 3),
                          (p1, "P1", 2), (p2, "P2", 2), (p3, "P3", 2)):
        v = require_finite(np.require(v, float, ["C", "A"]), name)
        if v.ndim != ndim:
            kind = "a 3-way tensor" if ndim == 3 else "a matrix"
            raise DimensionError(f"{name}: expected {kind}, got ndim={v.ndim}")
        inputs.append(v)
    x, y, p1, p2, p3 = inputs
    # the zero iterate's residual norms are |X|_F and |Y|_F, which the loop must measure
    with np.errstate(over="ignore"):
        x_norm, y_norm = (float(np.linalg.norm(v)) for v in (x, y))
    for norm, name in ((x_norm, "HSI"), (y_norm, "MSI")):
        if not np.isfinite(norm):
            raise ValueError(f"{name} is too large: its Frobenius norm overflows; rescale it")
    s = extract_subspace(x, config.r)
    problem = FusionProblem(x=x, y=y, p1=p1, p2=p2, p3=p3, s=s)
    psi = LogSurrogate(config.gamma)
    tau = lipschitz_tau(p1, p2, p3, s, config.tau_mode)
    eps = config.eps
    if config.eps_mode == "relative":
        eps *= x_norm
    diag = Diagnostics(tau=tau, tau_mode=config.tau_mode, eps=eps,
                       eps_mode=config.eps_mode)
    iterates = _iterates(problem, psi, tau, config.nu, initial_state(problem, config.rho0))
    for state, diffs, res, norms, rho in iterates:
        # the zero state comes first, untimed and untraced
        if state.iter:
            diag.record(res_x=res[0], res_y=res[1], res_g1=res[2], res_g2=res[3],
                        rho=rho, objective=nms_tctv(state.a, psi, diffs),
                        grad_norm=norms[0], mx_norm=norms[1], my_norm=norms[2])
            diag.record(wall_time=time.perf_counter() - t_start)
        del diffs
        reason = _stop_reason(res, state.iter, eps, config.max_iter)
        if reason is not None:
            break
        # not held through the next step: that made each protocol-scale solve fault ~60 MB in
        del state
        t_start = time.perf_counter()
    iterates.close()  # frees the last residual tensors before kkt_check and z_hat
    diag.iterations = state.iter
    diag.converged = reason == "tol"
    diag.kkt = kkt_check(state, psi, res, norms[0], diag)
    z_hat = mode_n_product(state.a, s, 3)
    return z_hat, diag
