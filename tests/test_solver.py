import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsfusion import (
    DimensionError,
    DivergenceError,
    LogSurrogate,
    SceneSpec,
    SolverConfig,
    bicubic_upsample,
    diff_matrix,
    extract_subspace,
    gradient_tensor,
    kkt_check,
    lipschitz_tau,
    make_degradation,
    mode_n_product,
    mode_ntpnn,
    mode_shuffle,
    mode_unshuffle,
    operator_norm,
    psnr,
    simulate,
    solve,
    synth_scene,
    t_product,
)
from hsfusion import solver as solver_module
from hsfusion import tsvd as tsvd_module
from hsfusion.solver import (
    FusionProblem,
    _residual_tensors,
    _subgradient_deviation,
    grad_a,
    initial_state,
    l1_objective,
    residuals,
    step_a,
    step_g,
    update_multipliers,
)
from dataclasses import replace

PSI = LogSurrogate(0.1)


def _semi_unitary(rng, rows, cols):
    q, r = np.linalg.qr(rng.standard_normal((rows, cols)))
    return q * np.sign(np.diagonal(r))


def _random_problem(rng, big=(6, 5, 8), small=(3, 2, 4), r=3):
    """Random operators and consistent observations with semi-unitary s."""
    i1, i2, i3 = big
    j1, j2, j3 = small
    p1 = rng.standard_normal((j1, i1)) / np.sqrt(i1)
    p2 = rng.standard_normal((j2, i2)) / np.sqrt(i2)
    p3 = np.abs(rng.standard_normal((j3, i3)))
    p3 /= p3.sum(axis=1, keepdims=True)
    s = _semi_unitary(rng, i3, r)
    x = rng.standard_normal((j1, j2, i3))
    y = rng.standard_normal((i1, i2, j3))
    return FusionProblem(x=x, y=y, p1=p1, p2=p2, p3=p3, s=s)


def _random_state(rng, problem, rho=0.8):
    i1, i2, r = problem.spatial_shape
    state = initial_state(problem, rho)
    return replace(
        state,
        a=rng.standard_normal((i1, i2, r)),
        g1=rng.standard_normal((i1 - 1, i2, r)),
        g2=rng.standard_normal((i1, i2 - 1, r)),
        mx=rng.standard_normal(problem.x.shape),
        my=rng.standard_normal(problem.y.shape),
        m1=rng.standard_normal((i1 - 1, i2, r)),
        m2=rng.standard_normal((i1, i2 - 1, r)),
    )


# broad four-band table: nonempty on any coarse wavelength grid
BROAD_BANDS = (
    (400.0, 900.0),
    (900.2, 1400.0),
    (1400.2, 1900.0),
    (1900.2, 2500.0),
)


def _small_instance(seed=5):
    spec = SceneSpec(shape=(32, 32, 16), r=2, blocks=4, seed=seed)
    z, _, _ = synth_scene(spec)
    deg = make_degradation(z.shape, 4, 9, 3.3973, BROAD_BANDS)
    x, y = simulate(z, deg)
    return z, deg, x, y


# ---------------------------------------------------------------- subspace


def test_extract_subspace_rank_one_signature():
    rng = np.random.default_rng(0)
    sig = rng.standard_normal(6)
    weights = rng.random((4, 5))
    x = weights[:, :, None] * sig[None, None, :]
    s = extract_subspace(x, 1)
    direction = sig / np.linalg.norm(sig)
    assert min(
        np.linalg.norm(s[:, 0] - direction), np.linalg.norm(s[:, 0] + direction)
    ) <= 1e-10


def test_extract_subspace_semi_unitary():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((5, 6, 8))
    s = extract_subspace(x, 4)
    assert np.linalg.norm(s.T @ s - np.eye(4)) <= 1e-10


def test_extract_subspace_recovers_true_span():
    rng = np.random.default_rng(2)
    s0 = _semi_unitary(rng, 9, 3)
    a = rng.standard_normal((5, 4, 3))
    x = mode_n_product(a, s0, 3)
    s = extract_subspace(x, 3)
    # sine of the largest principal angle: |(I - S0 S0^T) S|_2, accurate near 0
    sin_max = np.linalg.norm(s - s0 @ (s0.T @ s), 2)
    assert np.arcsin(min(sin_max, 1.0)) <= 1e-8


def test_extract_subspace_rejects_bad_rank():
    with pytest.raises(ValueError):
        extract_subspace(np.zeros((2, 2, 3)), 0)
    with pytest.raises(ValueError):
        extract_subspace(np.zeros((2, 2, 3)), 4)


# ---------------------------------------------------------------- tau


def test_operator_norm_basics():
    rng = np.random.default_rng(3)
    for _ in range(10):
        m = rng.standard_normal((rng.integers(2, 8), rng.integers(2, 8)))
        norm = operator_norm(m)
        # upper-bounds the gain of random unit vectors, attained by the SVD one
        for _ in range(20):
            v = rng.standard_normal(m.shape[1])
            assert np.linalg.norm(m @ v) <= norm * np.linalg.norm(v) * (1 + 1e-12)
        _, sing, vt = np.linalg.svd(m)
        assert np.linalg.norm(m @ vt[0]) == pytest.approx(norm, rel=1e-12)
    assert operator_norm(np.zeros((3, 4))) == 0.0
    # odd-n difference matrices defeated the all-ones power iteration start;
    # the exact norm must match the analytic eigenvalue
    for n in (3, 5, 9, 64):
        want = np.sqrt(2.0 - 2.0 * np.cos(np.pi * (n - 1) / n))
        assert operator_norm(diff_matrix(n)) == pytest.approx(want, rel=1e-12)


def test_lipschitz_tau_unit_operators_paper_mode():
    eye = np.eye(4)
    p3 = np.eye(4)
    s = np.eye(4)  # |P3 S| = 1
    assert lipschitz_tau(eye, eye, p3, s, "paper") == pytest.approx(8.0, rel=1e-9)


def test_lipschitz_tau_safe_mode_analytic_difference_norm():
    rng = np.random.default_rng(4)
    p3 = np.zeros((2, 5))
    s = _semi_unitary(rng, 5, 2)
    for n in (2, 3, 64, 255, 256):
        p1 = np.zeros((8, n))
        p2 = np.zeros((8, n))
        tau = lipschitz_tau(p1, p2, p3, s, "safe")
        d_sq = operator_norm(diff_matrix(n)) ** 2
        assert tau == pytest.approx(2.0 * (0.0 + 0.0 + 2 * d_sq), rel=1e-14)


def test_lipschitz_tau_safe_mode_needs_two_pixels():
    s = np.eye(2)
    with pytest.raises(DimensionError, match="n >= 2, got 1"):
        lipschitz_tau(np.ones((1, 1)), np.eye(4), np.eye(2), s, "safe")


def test_lipschitz_tau_zero_p3_contributes_nothing():
    eye = np.eye(4)
    s = np.eye(4)
    t_zero = lipschitz_tau(eye, eye, np.zeros((4, 4)), s, "paper")
    assert t_zero == pytest.approx(2.0 * (1.0 + 0.0 + 2.0), rel=1e-9)


# ---------------------------------------------------------------- gradient


def test_grad_zero_at_feasible_point_with_zero_multipliers():
    rng = np.random.default_rng(5)
    prob = _random_problem(rng)
    i1, i2, r = prob.spatial_shape
    a = rng.standard_normal((i1, i2, r))
    x = mode_n_product(mode_n_product(mode_n_product(a, prob.p1, 1), prob.p2, 2), prob.s, 3)
    y = mode_n_product(a, prob.q, 3)
    feas = FusionProblem(x=x, y=y, p1=prob.p1, p2=prob.p2, p3=prob.p3, s=prob.s)
    state = replace(
        initial_state(feas, 1.0),
        a=a,
        g1=gradient_tensor(a, 1),
        g2=gradient_tensor(a, 2),
    )
    g = grad_a(state, feas)
    assert np.abs(g).max() <= 1e-12 * max(np.abs(a).max(), 1.0)


def _fd_gradient(state, problem, h=1e-6):
    base = state.a.copy()
    g = np.zeros_like(base)
    it = np.nditer(base, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        ap = base.copy()
        am = base.copy()
        ap[idx] += h
        am[idx] -= h
        g[idx] = (
            l1_objective(replace(state, a=ap), problem)
            - l1_objective(replace(state, a=am), problem)
        ) / (2 * h)
        it.iternext()
    return g


def test_grad_matches_central_finite_differences():
    rng = np.random.default_rng(6)
    prob = _random_problem(rng, big=(6, 5, 6), small=(3, 2, 3), r=3)
    state = _random_state(rng, prob)
    got = grad_a(state, prob)
    want = _fd_gradient(state, prob)
    rel = np.linalg.norm(got - want) / np.linalg.norm(want)
    assert rel <= 1e-5


def test_grad_multiplier_scaling_is_linear():
    rng = np.random.default_rng(7)
    prob = _random_problem(rng)
    state = _random_state(rng, prob)
    doubled = replace(
        state, mx=2 * state.mx, my=2 * state.my, m1=2 * state.m1, m2=2 * state.m2
    )
    g1 = grad_a(state, prob)
    g2 = grad_a(doubled, prob)
    rho = state.rho
    shift = -2.0 * (
        mode_n_product(
            mode_n_product(mode_n_product(state.mx / rho, prob.p1.T, 1), prob.p2.T, 2),
            prob.s.T,
            3,
        )
        + mode_n_product(state.my / rho, prob.q.T, 3)
        + mode_n_product(state.m1 / rho, diff_matrix(state.a.shape[0]).T, 1)
        + mode_n_product(state.m2 / rho, diff_matrix(state.a.shape[1]).T, 2)
    )
    assert np.allclose(g2 - g1, shift, rtol=1e-10, atol=1e-12)


def _gram_gradient(state, problem):
    """The gradient as the six-term Gram expression
    2 (A^T A a - A^T (b + m/rho)), with dense P^T P, Q^T Q and D^T D."""
    a, rho = state.a, state.rho
    p1, p2, q, s = problem.p1, problem.p2, problem.q, problem.s
    d1, d2 = diff_matrix(a.shape[0]), diff_matrix(a.shape[1])
    quad = (
        mode_n_product(mode_n_product(a, p1.T @ p1, 1), p2.T @ p2, 2)
        + mode_n_product(a, q.T @ q, 3)
        + mode_n_product(a, d1.T @ d1, 1)
        + mode_n_product(a, d2.T @ d2, 2)
    )
    xt = mode_n_product(problem.x + state.mx / rho, s.T, 3)
    data_x = mode_n_product(mode_n_product(xt, p1.T, 1), p2.T, 2)
    data_y = mode_n_product(problem.y + state.my / rho, q.T, 3)
    data_g1 = mode_n_product(state.g1 + state.m1 / rho, d1.T, 1)
    data_g2 = mode_n_product(state.g2 + state.m2 / rho, d2.T, 2)
    return 2.0 * (quad - data_x - data_y - data_g1 - data_g2)


_SPATIAL = st.integers(2, 9)  # odd and even sides, down to I_n = 2


@st.composite
def _problem_and_state(draw):
    i1, i2 = draw(_SPATIAL), draw(_SPATIAL)
    r = draw(st.integers(1, 4))
    i3 = draw(st.integers(r, 9))
    small = (draw(st.integers(1, i1)), draw(st.integers(1, i2)), draw(st.integers(1, i3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    prob = _random_problem(rng, big=(i1, i2, i3), small=small, r=r)
    return prob, _random_state(rng, prob, rho=draw(st.sampled_from([1e-3, 0.8, 50.0])))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_problem_and_state())
def test_grad_from_residuals_matches_gram_expression(case):
    prob, state = case
    want = _gram_gradient(state, prob)
    got = grad_a(state, prob)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    # the residual tensors a caller already holds give the same gradient
    tensors = _residual_tensors(state, prob)
    assert grad_a(state, prob, tensors).tobytes() == got.tobytes()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_problem_and_state())
def test_grad_applies_the_adjoint_of_the_constraint_maps(case):
    # <A a, v> = <a, A^T v>, with A^T v read off grad_a at zero multipliers:
    # there grad_a(state, problem, v) = -2 A^T v
    prob, state = case
    a = state.a
    zero = initial_state(prob, state.rho)
    forward = (
        mode_n_product(mode_n_product(mode_n_product(a, prob.p1, 1), prob.p2, 2), prob.s, 3),
        mode_n_product(a, prob.q, 3),
        mode_n_product(a, diff_matrix(a.shape[0]), 1),
        mode_n_product(a, diff_matrix(a.shape[1]), 2),
    )
    v = (state.mx, state.my, state.m1, state.m2)
    lhs = sum(float(np.vdot(f, w)) for f, w in zip(forward, v))
    rhs = float(np.vdot(a, -0.5 * grad_a(zero, prob, v)))
    scale = np.sqrt(sum(np.vdot(f, f) for f in forward) * sum(np.vdot(w, w) for w in v))
    assert abs(lhs - rhs) <= 1e-12 * scale


# ---------------------------------------------------------------- steps


def test_step_a_zero_gradient_fixed_point():
    rng = np.random.default_rng(8)
    prob = _random_problem(rng)
    i1, i2, r = prob.spatial_shape
    a = rng.standard_normal((i1, i2, r))
    x = mode_n_product(mode_n_product(mode_n_product(a, prob.p1, 1), prob.p2, 2), prob.s, 3)
    y = mode_n_product(a, prob.q, 3)
    feas = FusionProblem(x=x, y=y, p1=prob.p1, p2=prob.p2, p3=prob.p3, s=prob.s)
    state = replace(
        initial_state(feas, 1.0),
        a=a,
        g1=gradient_tensor(a, 1),
        g2=gradient_tensor(a, 2),
    )
    new = step_a(state, feas, tau=5.0)
    assert np.allclose(new.a, a, atol=1e-12)


def test_step_a_descends_with_safe_tau():
    rng = np.random.default_rng(9)
    for trial in range(10):
        prob = _random_problem(rng)
        state = _random_state(rng, prob)
        tau = lipschitz_tau(prob.p1, prob.p2, prob.p3, prob.s, "safe")
        before = l1_objective(state, prob)
        after = l1_objective(step_a(state, prob, tau), prob)
        assert after < before, f"trial {trial}"


def test_step_a_double_tau_halves_the_move():
    rng = np.random.default_rng(10)
    prob = _random_problem(rng)
    state = _random_state(rng, prob)
    move1 = step_a(state, prob, 4.0).a - state.a
    move2 = step_a(state, prob, 8.0).a - state.a
    assert np.allclose(move1, 2.0 * move2, rtol=1e-12)


def _g_subproblem_objective(g, n, state, problem, psi):
    d = diff_matrix(state.a.shape[n - 1])
    m = state.m1 if n == 1 else state.m2
    misfit = g + m / state.rho - mode_n_product(state.a, d, n)
    return mode_ntpnn(g, 3 - n, psi) + state.rho * np.linalg.norm(misfit) ** 2


def test_step_g_tracks_gradient_for_huge_rho():
    rng = np.random.default_rng(11)
    prob = _random_problem(rng)
    state = replace(_random_state(rng, prob), rho=1e9)
    state = replace(state, m1=np.zeros_like(state.m1), m2=np.zeros_like(state.m2))
    for n in (1, 2):
        new = step_g(state, n, PSI, prob)
        g = new.g1 if n == 1 else new.g2
        target = gradient_tensor(state.a, n)
        assert np.linalg.norm(g - target) / np.linalg.norm(target) <= 1e-4


def test_step_g_zero_target_gives_zero():
    rng = np.random.default_rng(12)
    prob = _random_problem(rng)
    state = initial_state(prob, 1.0)  # a = 0, m = 0 -> prox target 0
    for n in (1, 2):
        new = step_g(state, n, PSI, prob)
        assert not (new.g1 if n == 1 else new.g2).any()


def test_step_g_minimizes_subproblem():
    rng = np.random.default_rng(13)
    prob = _random_problem(rng, big=(5, 5, 4), small=(2, 3, 2), r=2)
    state = _random_state(rng, prob, rho=0.5)
    for n in (1, 2):
        new = step_g(state, n, PSI, prob)
        g_new = new.g1 if n == 1 else new.g2
        g_old = state.g1 if n == 1 else state.g2
        f_new = _g_subproblem_objective(g_new, n, state, prob, PSI)
        assert f_new <= _g_subproblem_objective(g_old, n, state, prob, PSI) + 1e-10
        for _ in range(100):
            cand = g_new + rng.standard_normal(g_new.shape) * 10.0 ** rng.uniform(-3, 0)
            assert f_new <= _g_subproblem_objective(cand, n, state, prob, PSI) + 1e-10


# ---------------------------------------------------------------- multipliers


def test_update_multipliers_feasible_point_only_grows_rho():
    rng = np.random.default_rng(14)
    prob = _random_problem(rng)
    i1, i2, r = prob.spatial_shape
    a = rng.standard_normal((i1, i2, r))
    x = mode_n_product(mode_n_product(mode_n_product(a, prob.p1, 1), prob.p2, 2), prob.s, 3)
    y = mode_n_product(a, prob.q, 3)
    feas = FusionProblem(x=x, y=y, p1=prob.p1, p2=prob.p2, p3=prob.p3, s=prob.s)
    state = replace(
        initial_state(feas, 0.7),
        a=a,
        g1=gradient_tensor(a, 1),
        g2=gradient_tensor(a, 2),
    )
    new = update_multipliers(state, feas, nu=1.3)
    assert np.allclose(new.mx, state.mx, atol=1e-12)
    assert np.allclose(new.my, state.my, atol=1e-12)
    assert new.rho == pytest.approx(0.7 * 1.3, rel=1e-15)
    assert new.iter == state.iter + 1


def test_update_multipliers_gains_rho_times_residual():
    rng = np.random.default_rng(15)
    prob = _random_problem(rng)
    state = _random_state(rng, prob, rho=2.5)
    res_x = prob.x - mode_n_product(
        mode_n_product(mode_n_product(state.a, prob.p1, 1), prob.p2, 2), prob.s, 3
    )
    new = update_multipliers(state, prob, nu=1.05)
    assert np.allclose(new.mx - state.mx, 2.5 * res_x, rtol=1e-12)


def test_rho_trajectory_is_geometric():
    rng = np.random.default_rng(16)
    prob = _random_problem(rng)
    state = initial_state(prob, 1e-3)
    for k in range(1, 8):
        state = update_multipliers(state, prob, nu=1.05)
        assert state.rho == pytest.approx(1e-3 * 1.05**k, rel=1e-14)
        assert state.iter == k


# ---------------------------------------------------------------- residuals


def test_residuals_zero_at_feasible_state():
    rng = np.random.default_rng(17)
    prob = _random_problem(rng)
    i1, i2, r = prob.spatial_shape
    a = rng.standard_normal((i1, i2, r))
    x = mode_n_product(mode_n_product(mode_n_product(a, prob.p1, 1), prob.p2, 2), prob.s, 3)
    y = mode_n_product(a, prob.q, 3)
    feas = FusionProblem(x=x, y=y, p1=prob.p1, p2=prob.p2, p3=prob.p3, s=prob.s)
    state = replace(
        initial_state(feas, 1.0),
        a=a,
        g1=gradient_tensor(a, 1),
        g2=gradient_tensor(a, 2),
    )
    assert residuals(state, feas).max() <= 1e-12


def test_residuals_of_initial_zero_state():
    rng = np.random.default_rng(18)
    prob = _random_problem(rng)
    res = residuals(initial_state(prob, 1.0), prob)
    assert res[0] == pytest.approx(np.linalg.norm(prob.x), rel=1e-14)
    assert res[1] == pytest.approx(np.linalg.norm(prob.y), rel=1e-14)
    assert res[2] == 0.0 and res[3] == 0.0


# ---------------------------------------------------------------- lipschitz


def test_safe_tau_certifies_gradient_lipschitz():
    rng = np.random.default_rng(19)
    prob = _random_problem(rng, big=(7, 6, 5), small=(3, 2, 3), r=2)
    tau = lipschitz_tau(prob.p1, prob.p2, prob.p3, prob.s, "safe")
    state = _random_state(rng, prob)
    i1, i2, r = prob.spatial_shape
    for trial in range(50):
        a1 = rng.standard_normal((i1, i2, r))
        a2 = rng.standard_normal((i1, i2, r))
        g1 = grad_a(replace(state, a=a1), prob)
        g2 = grad_a(replace(state, a=a2), prob)
        lhs = np.linalg.norm(g1 - g2)
        rhs = tau * np.linalg.norm(a1 - a2)
        assert lhs <= rhs * (1 + 1e-12), f"trial {trial}"


# ---------------------------------------------------------------- solve


def test_solve_zero_inputs_returns_zero():
    rng = np.random.default_rng(20)
    prob = _random_problem(rng)
    z_hat, diag = solve(
        np.zeros_like(prob.x),
        np.zeros_like(prob.y),
        prob.p1,
        prob.p2,
        prob.p3,
        SolverConfig(r=2),
    )
    assert not z_hat.any()
    assert diag.converged and diag.iterations == 0


def test_solve_small_exact_model_recovers():
    z, deg, x, y = _small_instance()
    z_hat, diag = solve(x, y, deg.p1, deg.p2, deg.p3, SolverConfig(r=2))
    peak = float(z.max())
    gain = psnr(z, z_hat, peak) - psnr(z, bicubic_upsample(x, 4), peak)
    assert diag.converged
    assert gain >= 10.0
    assert len(diag.res_x) == diag.iterations
    # rho trajectory recorded at the value used each iteration
    assert diag.rho[0] == pytest.approx(1e-3, rel=1e-12)
    assert diag.rho[-1] == pytest.approx(1e-3 * 1.05 ** (diag.iterations - 1), rel=1e-9)


def test_solve_relative_eps_scales_threshold():
    rng = np.random.default_rng(30)
    prob = _random_problem(rng, big=(8, 8, 6), small=(4, 4, 3), r=2)
    cfg = SolverConfig(r=2, eps=1e-3, eps_mode="relative", max_iter=5)
    _, diag = solve(prob.x, prob.y, prob.p1, prob.p2, prob.p3, cfg)
    assert diag.eps_mode == "relative"
    assert diag.eps == pytest.approx(1e-3 * np.linalg.norm(prob.x), rel=1e-12)
    with pytest.raises(ValueError):
        SolverConfig(r=2, eps_mode="scaled")


def test_solve_is_deterministic():
    rng = np.random.default_rng(21)
    prob = _random_problem(rng, big=(8, 8, 6), small=(4, 4, 3), r=2)
    cfg = SolverConfig(r=2, max_iter=40)
    z1, _ = solve(prob.x, prob.y, prob.p1, prob.p2, prob.p3, cfg)
    z2, _ = solve(prob.x, prob.y, prob.p1, prob.p2, prob.p3, cfg)
    assert np.array_equal(z1, z2)


@pytest.mark.filterwarnings("error")
def test_solve_raises_divergence_error_on_overflow():
    rng = np.random.default_rng(22)
    prob = _random_problem(rng, big=(8, 8, 6), small=(4, 4, 3), r=2)
    cfg = SolverConfig(r=2, rho0=1e307, eps=1e-30, max_iter=50)
    with pytest.raises(DivergenceError, match="iteration"):
        solve(prob.x, prob.y, prob.p1, prob.p2, prob.p3, cfg)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", ["m1", "m2"])
def test_solve_raises_divergence_error_on_gradient_multiplier_overflow(monkeypatch, name):
    # the overflow stays in one gradient multiplier; the solve must stop at
    # the iteration that made it, with a typed error and no warning
    update = solver_module.update_multipliers

    def overflowing_update(*args, **kwargs):
        state = update(*args, **kwargs)
        if state.iter < 3:
            return state
        m = getattr(state, name).copy()
        m[0, 0, 0] = np.finfo(float).max * 2.0
        return replace(state, **{name: m})

    monkeypatch.setattr(solver_module, "update_multipliers", overflowing_update)
    rng = np.random.default_rng(22)
    prob = _random_problem(rng, big=(8, 8, 6), small=(4, 4, 3), r=2)
    cfg = SolverConfig(r=2, eps=1e-30, max_iter=50)
    with pytest.raises(DivergenceError, match="at iteration 3$"):
        solve(prob.x, prob.y, prob.p1, prob.p2, prob.p3, cfg)


@pytest.mark.parametrize("max_iter", [1, 6])
def test_solve_forms_no_left_singular_vectors_in_its_loop(monkeypatch, max_iter):
    # the loop's proxes and objective trace factor each thin slice stack
    # through its square R factors; only kkt_check's two subgradient checks
    # take an SVD of the slices themselves
    slice_svds, thin_svds = [], []
    slice_svd, svd = tsvd_module._slice_svd, np.linalg.svd

    def counting_slice_svd(*args, **kwargs):
        slice_svds.append(args[0].shape)
        return slice_svd(*args, **kwargs)

    def recording_svd(a, *args, **kwargs):
        if a.ndim == 3 and a.shape[1] != a.shape[2]:
            thin_svds.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(tsvd_module, "_slice_svd", counting_slice_svd)
    monkeypatch.setattr(solver_module, "_slice_svd", counting_slice_svd)
    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    _, deg, x, y = _small_instance()
    _, diag = solve(x, y, deg.p1, deg.p2, deg.p3, SolverConfig(r=2, max_iter=max_iter))
    assert diag.iterations == max_iter
    assert len(slice_svds) == 2
    assert thin_svds == slice_svds


def _misaligned_readonly(a):
    """A read-only copy of a whose data starts 30 bytes into a buffer."""
    raw = bytes(30) + np.ascontiguousarray(a, dtype=float).tobytes()
    view = np.frombuffer(raw, dtype=float, offset=30).reshape(np.shape(a))
    assert not view.flags.aligned and not view.flags.writeable
    return view


def test_solve_does_not_depend_on_input_alignment():
    # at this size a misaligned P2 changes the last bits of an uncopied solve
    z, _, _ = synth_scene(SceneSpec(shape=(64, 64, 32), r=3, seed=14))
    deg = make_degradation(z.shape, 4, 9, 3.3973, BROAD_BANDS)
    x, y = simulate(z, deg)
    inputs = (x, y, deg.p1, deg.p2, deg.p3)
    cfg = SolverConfig(r=3, max_iter=3)
    want, _ = solve(*inputs, cfg)
    got, _ = solve(*(_misaligned_readonly(a) for a in inputs), cfg)
    assert np.array_equal(got, want)


def test_wall_time_covers_each_iteration_and_its_diagnostics(monkeypatch):
    # every iteration's diagnostics take at least `pause`, which each entry must include
    pause = 0.05
    objective = solver_module.nms_tctv

    def slow_objective(a, psi):
        time.sleep(pause)
        return objective(a, psi)

    monkeypatch.setattr(solver_module, "nms_tctv", slow_objective)
    _, deg, x, y = _small_instance()
    t0 = time.perf_counter()
    _, diag = solve(x, y, deg.p1, deg.p2, deg.p3, SolverConfig(r=2, max_iter=4))
    total = time.perf_counter() - t0
    assert diag.iterations == len(diag.wall_time) == 4
    assert min(diag.wall_time) >= pause
    assert sum(diag.wall_time) <= total


def test_solve_rejects_non_finite_inputs():
    rng = np.random.default_rng(23)
    prob = _random_problem(rng)
    bad = prob.x.copy()
    bad[0, 0, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        solve(bad, prob.y, prob.p1, prob.p2, prob.p3, SolverConfig(r=2))


# ---------------------------------------------------------------- kkt


def _subgradient_deviation_slice_loop(g, m, psi, n, rel_rank_tol=1e-8):
    """_subgradient_deviation as a loop over all I3 slices of the full FFT."""
    gh = np.fft.fft(mode_shuffle(g, n), axis=2)
    mh = np.fft.fft(mode_shuffle(m, n), axis=2)
    svds = [np.linalg.svd(gh[:, :, f], full_matrices=False) for f in range(gh.shape[2])]
    sv_max = max(float(s[0]) for _, s, _ in svds)
    dev, retained = 0.0, 0
    for f, (u, s, vt) in enumerate(svds):
        keep = s > rel_rank_tol * sv_max
        comp = np.einsum("ij,ik,kj->j", u[:, keep].conj(), mh[:, :, f], vt[keep, :].conj().T)
        if keep.any():
            dev = max(dev, float(np.abs(comp + 0.5 * psi.deriv(s[keep])).max()))
        retained += int(keep.sum())
    return dev, retained


@pytest.mark.parametrize("tubes", [1, 2, 3, 4, 7, 8])
def test_subgradient_deviation_matches_slice_loop(tubes):
    rng = np.random.default_rng(tubes)
    for n in (1, 2):
        # after the shuffle, g is a t-product of two thin tensors: rank one per slice
        low = t_product(rng.standard_normal((5, 1, tubes)), rng.standard_normal((1, 4, tubes)))
        g = mode_unshuffle(low, n)
        m = mode_unshuffle(rng.standard_normal(low.shape), n)
        dev, kept = _subgradient_deviation(g, m, PSI, n)
        want_dev, want_kept = _subgradient_deviation_slice_loop(g, m, PSI, n)
        assert kept == want_kept == tubes
        assert dev == pytest.approx(want_dev, rel=1e-12)


def test_kkt_zero_data_exact_point():
    rng = np.random.default_rng(24)
    prob = _random_problem(rng)
    zero = FusionProblem(
        x=np.zeros_like(prob.x),
        y=np.zeros_like(prob.y),
        p1=prob.p1,
        p2=prob.p2,
        p3=prob.p3,
        s=prob.s,
    )
    state = initial_state(zero, 1.0)
    rep = kkt_check(state, zero, PSI, tau=8.0, eps=1e-5)
    assert rep.passed
    assert rep.grad_norm == 0.0
    assert rep.subgrad_dev_g1 == 0.0 and rep.subgrad_dev_g2 == 0.0


def test_kkt_on_converged_small_run():
    z, deg, x, y = _small_instance()
    _, diag = solve(x, y, deg.p1, deg.p2, deg.p3, SolverConfig(r=2))
    rep = diag.kkt
    assert diag.converged
    assert rep.feasibility_ok
    assert rep.stationarity_ok
    assert max(rep.subgrad_dev_g1, rep.subgrad_dev_g2) <= 1e-4
    assert rep.multipliers_bounded
    assert rep.passed


@pytest.mark.parametrize("eps, iterations", [(1e-5, 5), (1e6, 0)])  # loop runs / never runs
def test_kkt_check_reuses_final_residuals_and_gradient(monkeypatch, eps, iterations):
    checks, grads = [], []
    check = solver_module.kkt_check
    gradient = solver_module.grad_a

    def recording_check(*args, **kwargs):
        checks.append((args, kwargs))
        return check(*args, **kwargs)

    def counting_gradient(*args, **kwargs):
        tensors = args[2] if len(args) > 2 else kwargs.get("tensors")
        grads.append(tensors is not None)
        return gradient(*args, **kwargs)

    monkeypatch.setattr(solver_module, "kkt_check", recording_check)
    monkeypatch.setattr(solver_module, "grad_a", counting_gradient)
    _, deg, x, y = _small_instance()
    _, diag = solve(x, y, deg.p1, deg.p2, deg.p3, SolverConfig(r=2, max_iter=5, eps=eps))
    assert diag.iterations == iterations
    # the first step's gradient, then one per iteration, which the next step
    # and kkt_check reuse; kkt_check's own when the loop never ran
    assert len(grads) == iterations + 1
    # the loop's gradients reuse the iteration's residual tensors
    assert grads == [False] + [True] * iterations
    ((args, kwargs),) = checks
    assert kwargs["res"] is not None
    assert check(*args).to_dict() == diag.kkt.to_dict()


def test_multiplier_trace_plateaus_under_slow_penalty_growth():
    # near-constant penalty: dual ascent does the work and the multiplier
    # norms settle, so the final/median growth ratio stays small
    z, deg, x, y = _small_instance()
    cfg = SolverConfig(r=2, rho0=1.0, nu=1.01, max_iter=3000)
    _, diag = solve(x, y, deg.p1, deg.p2, deg.p3, cfg)
    assert diag.converged
    assert diag.kkt.mx_final_over_median < 10.0
    assert diag.kkt.my_final_over_median < 10.0
    assert np.isfinite(diag.kkt.mx_trace_max)
