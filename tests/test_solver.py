import itertools
import re
import time
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hsfusion import (
    IKONOS_BANDS,
    Diagnostics,
    DimensionError,
    DivergenceError,
    LogSurrogate,
    SceneSpec,
    SolverConfig,
    bicubic_upsample,
    difference,
    extract_subspace,
    kkt_check,
    lipschitz_tau,
    make_degradation,
    mode_n_product,
    mode_shuffle,
    mode_unshuffle,
    nms_tctv,
    ntpnn,
    ntpnn_prox,
    psnr,
    simulate,
    solve,
    synth_scene,
)
from hsfusion import regularizer as regularizer_module
from hsfusion import solver as solver_module
from hsfusion.solver import (
    FusionProblem,
    SolverState,
    _residual_tensors,
    grad_a,
    initial_state,
    residuals,
    step_a,
    step_g,
    update_multipliers,
)
from hsfusion.tensor import SLAB_ELEMENTS, difference_adjoint
from hsfusion.tsvd import _subgradient_deviation
from dataclasses import fields, replace

from _shared import _misaligned_readonly, _semi_unitary, _tensors
from _theory import diff_matrix, l1_objective, t_product

PSI = LogSurrogate(0.1)


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
        g=(rng.standard_normal((i1 - 1, i2, r)), rng.standard_normal((i1, i2 - 1, r))),
        u=(
            rng.standard_normal(problem.x.shape),
            rng.standard_normal(problem.y.shape),
            rng.standard_normal((i1 - 1, i2, r)),
            rng.standard_normal((i1, i2 - 1, r)),
        ),
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


def _assert_same_bytes(want, got):
    for w, g in zip(want, got, strict=True):
        assert g.tobytes() == w.tobytes()


# edge shapes I_n = 2 and R = 1 beside a generic one, with fewer low-resolution pixels
@pytest.mark.parametrize("big, small, r", [((6, 5, 8), (3, 2, 4), 3), ((2, 7, 5), (1, 3, 2), 1),
                                           ((5, 2, 6), (2, 1, 3), 2)])
def test_in_place_steps_have_the_bits_of_their_formulas_and_keep_inputs(big, small, r):
    # grad_a, _residual_tensors and update_multipliers each write over a fresh result of
    # their own; the bytes are those of the expressions written out, and no input moves
    rng = np.random.default_rng(sum(big) + r)
    prob = _random_problem(rng, big, small, r)
    state = _random_state(rng, prob)
    inputs = (prob.x, prob.y, prob.p1, prob.p2, prob.s, prob.q, state.a, *state.g, *state.u)
    before = [a.copy() for a in inputs]
    diffs = (difference(state.a, 1), difference(state.a, 2))
    a_lo = mode_n_product(mode_n_product(state.a, prob.p1, 1), prob.p2, 2)
    want = (prob.x - mode_n_product(a_lo, prob.s, 3), prob.y - mode_n_product(state.a, prob.q, 3),
            state.g[0] - diffs[0], state.g[1] - diffs[1])
    tensors = _residual_tensors(state, prob, diffs)
    _assert_same_bytes(want, tensors)
    held = [a.copy() for a in (*tensors, *diffs)]

    rx, ry, r1, r2 = tensors
    ux, uy, u1, u2 = state.u
    back = mode_n_product(mode_n_product(mode_n_product(rx + ux, prob.s.T, 3), prob.p1.T, 1),
                          prob.p2.T, 2)
    back += mode_n_product(ry + uy, prob.q.T, 3)
    back += difference_adjoint(r1 + u1, 1)
    back += difference_adjoint(r2 + u2, 2)
    assert grad_a(state, prob, tensors).tobytes() == (-2.0 * back).tobytes()

    new = update_multipliers(state, 1.07, tensors)
    _assert_same_bytes([(u + t) / 1.07 for u, t in zip(state.u, tensors)], new.u)
    _assert_same_bytes(before, inputs)
    _assert_same_bytes(held, (*tensors, *diffs))


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


@pytest.mark.parametrize("value", [2.0, True, np.float64(2.0), np.bool_(True)])
@pytest.mark.parametrize("name, call", [
    ("r", lambda v: extract_subspace(np.ones((4, 4, 3)), v)),
    ("factor", lambda v: make_degradation((8, 8, 6), v, 3, 1.0, [(400.0, 2500.0)])),
])
def test_r_and_factor_must_be_integers_never_bool(name, call, value):
    # numpy's integers pass, as the config keys take them
    call(np.int64(2))
    with pytest.raises(ValueError, match=rf"^{name} must be an integer, got {re.escape(repr(value))}$"):
        call(value)


# ---------------------------------------------------------------- tau


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
        d_sq = np.linalg.norm(diff_matrix(n), 2) ** 2
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
        g=(difference(a, 1), difference(a, 2)),
    )
    g = grad_a(state, feas, _tensors(state, feas))
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
    got = grad_a(state, prob, _tensors(state, prob))
    want = _fd_gradient(state, prob)
    rel = np.linalg.norm(got - want) / np.linalg.norm(want)
    assert rel <= 1e-5


def test_grad_multiplier_scaling_is_linear():
    rng = np.random.default_rng(7)
    prob = _random_problem(rng)
    state = _random_state(rng, prob)
    doubled = replace(state, u=tuple(2 * u for u in state.u))
    g1 = grad_a(state, prob, _tensors(state, prob))
    g2 = grad_a(doubled, prob, _tensors(doubled, prob))
    ux, uy, u1, u2 = state.u
    shift = -2.0 * (
        mode_n_product(
            mode_n_product(mode_n_product(ux, prob.p1.T, 1), prob.p2.T, 2),
            prob.s.T,
            3,
        )
        + mode_n_product(uy, prob.q.T, 3)
        + mode_n_product(u1, diff_matrix(state.a.shape[0]).T, 1)
        + mode_n_product(u2, diff_matrix(state.a.shape[1]).T, 2)
    )
    assert np.allclose(g2 - g1, shift, rtol=1e-10, atol=1e-12)


def _gram_gradient(state, problem):
    """The gradient as the six-term Gram expression
    2 (A^T A a - A^T (b + u)), with dense P^T P, Q^T Q and D^T D."""
    a = state.a
    p1, p2, q, s = problem.p1, problem.p2, problem.q, problem.s
    d1, d2 = diff_matrix(a.shape[0]), diff_matrix(a.shape[1])
    quad = (
        mode_n_product(mode_n_product(a, p1.T @ p1, 1), p2.T @ p2, 2)
        + mode_n_product(a, q.T @ q, 3)
        + mode_n_product(a, d1.T @ d1, 1)
        + mode_n_product(a, d2.T @ d2, 2)
    )
    ux, uy, u1, u2 = state.u
    xt = mode_n_product(problem.x + ux, s.T, 3)
    data_x = mode_n_product(mode_n_product(xt, p1.T, 1), p2.T, 2)
    data_y = mode_n_product(problem.y + uy, q.T, 3)
    data_g1 = mode_n_product(state.g[0] + u1, d1.T, 1)
    data_g2 = mode_n_product(state.g[1] + u2, d2.T, 2)
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
    got = grad_a(state, prob, _tensors(state, prob))
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


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
    v = state.u
    lhs = sum(float(np.vdot(f, w)) for f, w in zip(forward, v))
    rhs = float(np.vdot(a, -0.5 * grad_a(zero, prob, v)))
    scale = np.sqrt(sum(np.vdot(f, f) for f in forward) * sum(np.vdot(w, w) for w in v))
    assert abs(lhs - rhs) <= 1e-12 * scale


@pytest.mark.parametrize("name, cut, message", [
    ("x", lambda t: t[..., :-1], "HSI shape (3, 2, 7) does not match operators (3, 2, 8)"),
    ("y", lambda t: t[..., :-1], "MSI shape (6, 5, 3) does not match operators (6, 5, 4)"),
    ("s", lambda t: t[:-1], "spectral basis has 7 rows, expected 8"),
])
def test_fusion_problem_checks_shapes_against_the_operators(name, cut, message):
    prob = _random_problem(np.random.default_rng(25))
    parts = {key: getattr(prob, key) for key in ("x", "y", "p1", "p2", "p3", "s")}
    parts[name] = cut(parts[name])
    with pytest.raises(DimensionError, match=f"^{re.escape(message)}$"):
        FusionProblem(**parts)


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
        g=(difference(a, 1), difference(a, 2)),
    )
    new = step_a(state, 5.0, grad_a(state, feas, _tensors(state, feas)))
    assert np.allclose(new.a, a, atol=1e-12)


@pytest.mark.parametrize("tau", [0.0, -1.0, np.nan])
def test_step_a_rejects_a_non_positive_tau(tau):
    prob = _random_problem(np.random.default_rng(8))
    state = initial_state(prob, 1.0)
    with pytest.raises(ValueError, match=f"^tau must be positive, got {tau}$"):
        step_a(state, tau, np.zeros_like(state.a))


def test_step_a_descends_with_safe_tau():
    rng = np.random.default_rng(9)
    for trial in range(10):
        prob = _random_problem(rng)
        state = _random_state(rng, prob)
        tau = lipschitz_tau(prob.p1, prob.p2, prob.p3, prob.s, "safe")
        before = l1_objective(state, prob)
        grad = grad_a(state, prob, _tensors(state, prob))
        after = l1_objective(step_a(state, tau, grad), prob)
        assert after < before, f"trial {trial}"


def test_step_a_double_tau_halves_the_move():
    rng = np.random.default_rng(10)
    prob = _random_problem(rng)
    state = _random_state(rng, prob)
    grad = grad_a(state, prob, _tensors(state, prob))
    move1 = step_a(state, 4.0, grad).a - state.a
    move2 = step_a(state, 8.0, grad).a - state.a
    assert np.allclose(move1, 2.0 * move2, rtol=1e-12)


def _g_subproblem_objective(g, n, state, problem, psi):
    d = diff_matrix(state.a.shape[n - 1])
    misfit = g + state.u[n + 1] - mode_n_product(state.a, d, n)
    return ntpnn(mode_shuffle(g, 3 - n), psi) + state.rho * np.linalg.norm(misfit) ** 2


def test_step_g_tracks_gradient_for_huge_rho():
    rng = np.random.default_rng(11)
    prob = _random_problem(rng)
    state = replace(_random_state(rng, prob), rho=1e9)
    ux, uy, u1, u2 = state.u
    state = replace(state, u=(ux, uy, np.zeros_like(u1), np.zeros_like(u2)))
    for n in (1, 2):
        new = step_g(state, n, PSI, difference(state.a, n))
        g = new.g[n - 1]
        target = difference(state.a, n)
        assert np.linalg.norm(g - target) / np.linalg.norm(target) <= 1e-4


def test_step_g_zero_target_gives_zero():
    rng = np.random.default_rng(12)
    prob = _random_problem(rng)
    state = initial_state(prob, 1.0)  # a = 0, u = 0 -> prox target 0
    for n in (1, 2):
        new = step_g(state, n, PSI, difference(state.a, n))
        assert not new.g[n - 1].any()


def test_step_g_minimizes_subproblem():
    rng = np.random.default_rng(13)
    prob = _random_problem(rng, big=(5, 5, 4), small=(2, 3, 2), r=2)
    state = _random_state(rng, prob, rho=0.5)
    for n in (1, 2):
        new = step_g(state, n, PSI, difference(state.a, n))
        g_new = new.g[n - 1]
        g_old = state.g[n - 1]
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
        g=(difference(a, 1), difference(a, 2)),
    )
    new = update_multipliers(state, 1.3, _tensors(state, feas))
    # the multipliers m = rho u stay where they were
    assert np.allclose(new.rho * new.u[0], state.rho * state.u[0], atol=1e-12)
    assert np.allclose(new.rho * new.u[1], state.rho * state.u[1], atol=1e-12)
    assert new.rho == pytest.approx(0.7 * 1.3, rel=1e-15)
    assert new.iter == state.iter + 1


def test_update_multipliers_gains_rho_times_residual():
    # in the multipliers m = rho u the update is m <- m + rho r
    rng = np.random.default_rng(15)
    prob = _random_problem(rng)
    state = _random_state(rng, prob, rho=2.5)
    res_x = prob.x - mode_n_product(
        mode_n_product(mode_n_product(state.a, prob.p1, 1), prob.p2, 2), prob.s, 3
    )
    tensors = _tensors(state, prob)
    assert np.allclose(tensors[0], res_x, rtol=1e-12, atol=1e-14)
    new = update_multipliers(state, 1.05, tensors)
    for name, u_old, u_new, r in zip(("ux", "uy", "u1", "u2"), state.u, new.u, tensors):
        want = state.rho * u_old + state.rho * r
        got = new.rho * u_new
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), name


def test_state_keeps_the_constraint_blocks_in_residual_order():
    # u[i] is the scaled dual of residual tensor i, and g[n - 1] the split of D_n a
    rng = np.random.default_rng(31)
    prob = _random_problem(rng)
    state = _random_state(rng, prob)
    zero = replace(state, u=tuple(np.zeros_like(u) for u in state.u))
    tensors = _tensors(zero, prob)
    nu = 1.3
    new = update_multipliers(zero, nu, tensors)
    assert len(new.u) == len(tensors) == 4
    for u, r in zip(new.u, tensors):
        assert np.array_equal(u, r / nu)
    for n in (1, 2):
        new = step_g(state, n, PSI, difference(state.a, n))
        assert new.g[n - 1] is not state.g[n - 1]
        assert new.g[n - 1].shape == difference(state.a, n).shape
        assert new.g[2 - n] is state.g[2 - n]
        assert new.a is state.a and new.rho == state.rho
        assert all(v is w for v, w in zip(new.u, state.u))
        # the prox read u[n + 1]: its fixed point at huge rho is D_n a - u[n + 1]
        fast = step_g(replace(state, rho=1e9), n, PSI, difference(state.a, n))
        target = difference(state.a, n) - state.u[n + 1]
        assert np.linalg.norm(fast.g[n - 1] - target) <= 1e-4 * np.linalg.norm(target)


def test_rho_trajectory_is_geometric():
    rng = np.random.default_rng(16)
    prob = _random_problem(rng)
    state = initial_state(prob, 1e-3)
    for k in range(1, 8):
        state = update_multipliers(state, 1.05, _tensors(state, prob))
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
        g=(difference(a, 1), difference(a, 2)),
    )
    assert residuals(_tensors(state, feas)).max() <= 1e-12


def test_residuals_of_initial_zero_state():
    rng = np.random.default_rng(18)
    prob = _random_problem(rng)
    state = initial_state(prob, 1.0)
    res = residuals(_tensors(state, prob))
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
        s1, s2 = replace(state, a=a1), replace(state, a=a2)
        g1 = grad_a(s1, prob, _tensors(s1, prob))
        g2 = grad_a(s2, prob, _tensors(s2, prob))
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


def _m_form_reference(prob, config, iters):
    """The loop with the unscaled multipliers m kept as state, each step
    reading m/rho: returns z_hat, its traces and the final m."""
    x, y, s, q, rho = prob.x, prob.y, prob.s, prob.q, config.rho0
    psi = LogSurrogate(config.gamma)
    tau = lipschitz_tau(prob.p1, prob.p2, prob.p3, s, config.tau_mode)
    a = np.zeros(prob.spatial_shape)
    g = [np.zeros_like(difference(a, 1)), np.zeros_like(difference(a, 2))]
    m = [np.zeros_like(x), np.zeros_like(y), np.zeros_like(g[0]), np.zeros_like(g[1])]
    trace = {"res": [], "rho": [], "mx_norm": [], "my_norm": []}
    for _ in range(iters):
        d = [difference(a, 1), difference(a, 2)]
        a_lo = mode_n_product(mode_n_product(a, prob.p1, 1), prob.p2, 2)
        r = [x - mode_n_product(a_lo, s, 3), y - mode_n_product(a, q, 3), g[0] - d[0], g[1] - d[1]]
        xt = mode_n_product(r[0] + m[0] / rho, s.T, 3)
        grad = -2.0 * (mode_n_product(mode_n_product(xt, prob.p1.T, 1), prob.p2.T, 2)
                       + mode_n_product(r[1] + m[1] / rho, q.T, 3)
                       + difference_adjoint(r[2] + m[2] / rho, 1)
                       + difference_adjoint(r[3] + m[3] / rho, 2))
        a = a - grad / tau
        d = [difference(a, 1), difference(a, 2)]
        g = [mode_unshuffle(ntpnn_prox(mode_shuffle(d[k] - m[2 + k] / rho, 2 - k), rho, psi), 2 - k)
             for k in (0, 1)]
        a_lo = mode_n_product(mode_n_product(a, prob.p1, 1), prob.p2, 2)
        r = [x - mode_n_product(a_lo, s, 3), y - mode_n_product(a, q, 3), g[0] - d[0], g[1] - d[1]]
        m = [mk + rho * rk for mk, rk in zip(m, r)]
        trace["res"].append([np.linalg.norm(rk) for rk in r])
        trace["rho"].append(rho)
        trace["mx_norm"].append(np.linalg.norm(m[0]))
        trace["my_norm"].append(np.linalg.norm(m[1]))
        rho *= config.nu
    return mode_n_product(a, s, 3), trace, m


@pytest.mark.parametrize("big, small", [
    ((2, 7, 5), (1, 3, 3)),
    ((5, 2, 6), (2, 1, 4)),
    ((6, 9, 4), (3, 3, 2)),
    ((2, 2, 3), (2, 2, 2)),
])
def test_solve_matches_the_unscaled_multiplier_loop(monkeypatch, big, small):
    # the scaled duals u = m/rho are a change of variables: the loop keeping
    # m itself gives the same iterates, traces and final multipliers m = rho u
    rng = np.random.default_rng(sum(big))
    prob = _random_problem(rng, big=big, small=small, r=2)
    cfg = SolverConfig(r=2, rho0=0.05, nu=1.2, eps=1e-30, max_iter=25)
    final, check = [], solver_module.kkt_check

    def recording_kkt_check(state, *args):
        final.append(state)
        return check(state, *args)

    monkeypatch.setattr(solver_module, "kkt_check", recording_kkt_check)
    z_hat, diag = solve(prob.x, prob.y, prob.p1, prob.p2, prob.p3, cfg)
    want_z, trace, want_m = _m_form_reference(
        replace(prob, s=extract_subspace(prob.x, 2)), cfg, cfg.max_iter)
    res = np.column_stack([diag.res_x, diag.res_y, diag.res_g1, diag.res_g2])
    pairs = [(z_hat, want_z), (res, trace["res"]), (diag.rho, trace["rho"]),
             (diag.mx_norm, trace["mx_norm"]), (diag.my_norm, trace["my_norm"])]
    (state,) = final
    pairs += [(state.rho * u, mk) for u, mk in zip(state.u, want_m)]
    for got, want in pairs:
        want = np.asarray(want)
        assert np.linalg.norm(np.asarray(got) - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.filterwarnings("error")
def test_solve_raises_divergence_error_on_overflow():
    rng = np.random.default_rng(22)
    prob = _random_problem(rng, big=(8, 8, 6), small=(4, 4, 3), r=2)
    cfg = SolverConfig(r=2, rho0=1e307, eps=1e-30, max_iter=50)
    with pytest.raises(DivergenceError, match="iteration"):
        solve(prob.x, prob.y, prob.p1, prob.p2, prob.p3, cfg)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("k", [2, 3], ids=["m1", "m2"])
def test_solve_raises_divergence_error_on_gradient_multiplier_overflow(monkeypatch, k):
    # the overflow stays in one gradient multiplier m_n = rho u_n; the solve
    # must stop at the iteration that made it, with a typed error and no warning
    update = solver_module.update_multipliers

    def overflowing_update(*args, **kwargs):
        state = update(*args, **kwargs)
        if state.iter < 3:
            return state
        u = list(state.u)
        u[k] = u[k].copy()
        u[k][0, 0, 0] = np.finfo(float).max * 2.0
        return replace(state, u=tuple(u))

    monkeypatch.setattr(solver_module, "update_multipliers", overflowing_update)
    rng = np.random.default_rng(22)
    prob = _random_problem(rng, big=(8, 8, 6), small=(4, 4, 3), r=2)
    cfg = SolverConfig(r=2, eps=1e-30, max_iter=50)
    with pytest.raises(DivergenceError, match="at iteration 3$"):
        solve(prob.x, prob.y, prob.p1, prob.p2, prob.p3, cfg)


@pytest.mark.filterwarnings("error")
def test_solve_raises_divergence_error_on_a_non_finite_step(monkeypatch):
    # the step in a itself overflows: the loop stops before the proxes see it
    step = solver_module.step_a

    def overflowing_step(state, *args):
        state = step(state, *args)
        if state.iter != 2:
            return state
        a = state.a.copy()
        a[0, 0, 0] = np.inf
        return replace(state, a=a)

    monkeypatch.setattr(solver_module, "step_a", overflowing_step)
    _, deg, x, y = _small_instance()
    with pytest.raises(DivergenceError, match="^iterate 'a' became non-finite at iteration 2$"):
        solve(x, y, deg.p1, deg.p2, deg.p3, SolverConfig(r=2, max_iter=5))


@pytest.mark.parametrize("which, name", [(0, "HSI"), (1, "MSI")])
@pytest.mark.parametrize("eps_mode", ["absolute", "relative"])
def test_solve_names_an_input_whose_norm_overflows(which, name, eps_mode):
    # the zero iterate's residual norms are |X|_F and |Y|_F: where one of them
    # overflows, the loop could only report divergence at iteration 0
    z, _, _ = synth_scene(SceneSpec(shape=(16, 16, 32), r=2, seed=0))
    deg = make_degradation(z.shape, 4, 9, 3.3973, IKONOS_BANDS)
    inputs = [*simulate(z, deg), deg.p1, deg.p2, deg.p3]
    cfg = SolverConfig(r=2, eps_mode=eps_mode, max_iter=3)
    large = list(inputs)
    large[which] = inputs[which] * 1e150
    _, diag = solve(*large, cfg)
    assert diag.iterations == 3
    if eps_mode == "relative":
        assert diag.eps == cfg.eps * float(np.linalg.norm(large[0]))
    inputs[which] = inputs[which] * 1e154
    with pytest.raises(ValueError, match=f"^{name} is too large: its Frobenius norm overflows"):
        solve(*inputs, cfg)


@pytest.mark.parametrize("max_iter", [1, 6])
def test_solve_forms_no_left_singular_vectors_in_its_loop(monkeypatch, max_iter):
    # every Fourier slice stack of a solve, kkt_check's included, is factored
    # through its square R factors; the only other SVD is extract_subspace's
    # of the 2-D unfolding
    shapes, svd = [], np.linalg.svd

    def recording_svd(a, *args, **kwargs):
        shapes.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    _, deg, x, y = _small_instance()
    # two proxes per iteration, and the objective trace's two norms when traced
    for trace_objective, stacks_per_iteration in ((False, 2), (True, 4)):
        shapes.clear()
        _, diag = solve(x, y, deg.p1, deg.p2, deg.p3, SolverConfig(r=2, max_iter=max_iter),
                        trace_objective=trace_objective)
        assert diag.iterations == max_iter
        unfoldings = [shape for shape in shapes if len(shape) == 2]
        assert unfoldings == [(x.shape[2], x.shape[0] * x.shape[1])]
        stacks = [shape for shape in shapes if len(shape) == 3]
        assert all(shape[1] == shape[2] for shape in stacks)
        # and two KKT checks
        assert len(stacks) == stacks_per_iteration * max_iter + 2


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


def test_solve_without_the_objective_trace_keeps_every_other_output():
    # the acceptance scene: the untraced solve differs only in its empty objective trace
    z, _, _ = synth_scene(SceneSpec(shape=(64, 64, 32), r=3, blocks=4, seed=14))
    deg = make_degradation(z.shape, 4, 9, 3.3973, IKONOS_BANDS)
    x, y = simulate(z, deg)
    cfg = SolverConfig(r=3, max_iter=8)
    runs = [solve(x, y, deg.p1, deg.p2, deg.p3, cfg, trace_objective=trace)
            for trace in (False, True)]
    (z_off, off), (z_on, on) = runs
    assert z_off.tobytes() == z_on.tobytes()
    assert off.iterations == on.iterations == 8
    assert off.objective == [] and len(on.objective) == 8
    assert off.kkt.to_dict() == on.kkt.to_dict()
    for f in fields(Diagnostics):
        if f.name not in ("objective", "wall_time", "kkt"):
            assert getattr(off, f.name) == getattr(on, f.name), f.name


@pytest.mark.parametrize("trace_objective, calls_per_iteration", [(False, 0), (True, 1)])
def test_solve_computes_the_objective_only_when_traced(
        monkeypatch, trace_objective, calls_per_iteration):
    calls, objective = [], solver_module.nms_tctv

    def counting_objective(*args):
        calls.append(1)
        return objective(*args)

    monkeypatch.setattr(solver_module, "nms_tctv", counting_objective)
    _, deg, x, y = _small_instance()
    _, diag = solve(x, y, deg.p1, deg.p2, deg.p3, SolverConfig(r=2, max_iter=4),
                    trace_objective=trace_objective)
    assert diag.iterations == 4
    assert len(calls) == len(diag.objective) == calls_per_iteration * 4


def test_wall_time_covers_each_iteration_and_its_diagnostics(monkeypatch):
    # every iteration's diagnostics take at least `pause`, which each entry must include
    pause = 0.05
    objective = solver_module.nms_tctv

    def slow_objective(a, psi, *args):
        time.sleep(pause)
        return objective(a, psi, *args)

    monkeypatch.setattr(solver_module, "nms_tctv", slow_objective)
    _, deg, x, y = _small_instance()
    t0 = time.perf_counter()
    _, diag = solve(x, y, deg.p1, deg.p2, deg.p3, SolverConfig(r=2, max_iter=4),
                    trace_objective=True)
    total = time.perf_counter() - t0
    assert diag.iterations == len(diag.wall_time) == 4
    assert min(diag.wall_time) >= pause
    assert sum(diag.wall_time) <= total


_REPORT_KEYS = ["tau", "tau_mode", "eps", "eps_mode", "iterations", "converged",
                "res_x", "res_y", "res_g1", "res_g2", "rho", "objective", "grad_norm",
                "wall_time", "mx_norm", "my_norm", "kkt"]
_TRACE_KEYS = _REPORT_KEYS[6:16]  # res_x ... my_norm


@pytest.mark.parametrize("shape, r", [((6, 5, 8), 3), ((2, 2, 1), 1)])
def test_report_keys_and_traces_keep_their_schema(shape, r):
    # the report's key order, and one Python float per iteration in every trace, the
    # objective's only when traced
    prob = _random_problem(np.random.default_rng(31), big=shape,
                           small=tuple(max(1, d // 2) for d in shape), r=r)
    for trace_objective in (False, True):
        _, diag = solve(prob.x, prob.y, prob.p1, prob.p2, prob.p3,
                        SolverConfig(r=r, eps=1e-300, max_iter=5),
                        trace_objective=trace_objective)
        report = diag.to_dict()
        assert list(report) == _REPORT_KEYS
        for key in _TRACE_KEYS:
            trace = report[key]
            if key == "objective" and not trace_objective:
                assert trace == []
                continue
            assert len(trace) == diag.iterations == 5, key
            assert all(type(v) is float for v in trace), key


def test_solve_rejects_non_finite_inputs():
    rng = np.random.default_rng(23)
    prob = _random_problem(rng)
    bad = prob.x.copy()
    bad[0, 0, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        solve(bad, prob.y, prob.p1, prob.p2, prob.p3, SolverConfig(r=2))


@pytest.mark.parametrize(
    "index", [0, SLAB_ELEMENTS - 1, SLAB_ELEMENTS, 2 * SLAB_ELEMENTS - 1])
@pytest.mark.parametrize("which, name", [(0, "HSI"), (1, "MSI")])
def test_solve_rejects_each_edge_entry_of_an_input(which, name, index):
    # a two-slab cube; the input check runs before any shape check
    inputs = [np.zeros((64, 64, 64)), np.zeros((64, 64, 64)), np.eye(2), np.eye(2), np.eye(2)]
    inputs[which].flat[index] = np.nan
    with pytest.raises(ValueError, match=f"^{name} contains non-finite entries$"):
        solve(*inputs, SolverConfig(r=2))


@pytest.mark.parametrize("which, name, kind", [
    (0, "HSI", "a 3-way tensor"), (1, "MSI", "a 3-way tensor"),
    (2, "P1", "a matrix"), (3, "P2", "a matrix"), (4, "P3", "a matrix")])
def test_solve_names_an_input_of_the_wrong_rank(which, name, kind):
    _, deg, x, y = _small_instance()
    inputs = [x, y, deg.p1, deg.p2, deg.p3]
    # a cube loses its last axis, a matrix gains one
    inputs[which] = inputs[which][..., 0] if which < 2 else inputs[which][..., None]
    ndim = 2 if which < 2 else 3
    with pytest.raises(DimensionError, match=f"^{name}: expected {kind}, got ndim={ndim}$"):
        solve(*inputs, SolverConfig(r=2))


@pytest.mark.parametrize("max_iter", [1, 5])
def test_solve_takes_each_difference_once_per_iteration(monkeypatch, max_iter):
    # the proxes, the residuals and the objective trace share one difference
    # of a per mode; the initial residuals and the first step's gradient share
    # one more pair
    calls = []
    for module in (solver_module, regularizer_module):
        def counting_difference(t, mode, original=module.difference):
            calls.append(mode)
            return original(t, mode)

        monkeypatch.setattr(module, "difference", counting_difference)
    _, deg, x, y = _small_instance()
    _, diag = solve(x, y, deg.p1, deg.p2, deg.p3, SolverConfig(r=2, max_iter=max_iter))
    assert diag.iterations == max_iter
    assert calls == [1, 2] * (max_iter + 1)


@pytest.mark.parametrize("eps, iterations", [(1e-5, 3), (1e6, 0)])  # loop runs / never runs
def test_solve_frees_the_residual_tensors_before_kkt_check(monkeypatch, eps, iterations):
    # the last residual tensors are dead once the loop stops, so they add
    # nothing to the peak of kkt_check or of z_hat
    last, alive = [], []
    make, check = solver_module._residual_tensors, solver_module.kkt_check

    def tracked_tensors(*args):
        tensors = make(*args)
        last[:] = [weakref.ref(t) for t in tensors]
        return tensors

    def recording_check(*args):
        alive.append([ref() is not None for ref in last])
        return check(*args)

    monkeypatch.setattr(solver_module, "_residual_tensors", tracked_tensors)
    monkeypatch.setattr(solver_module, "kkt_check", recording_check)
    _, deg, x, y = _small_instance()
    _, diag = solve(x, y, deg.p1, deg.p2, deg.p3, SolverConfig(r=2, max_iter=3, eps=eps))
    assert diag.iterations == iterations
    assert alive == [[False] * 4]


@pytest.mark.parametrize("eps, iterations", [(1e-5, 3), (1e6, 0)])  # loop runs / never runs
def test_solve_frees_the_gradient_before_kkt_check(monkeypatch, eps, iterations):
    # kkt_check takes the gradient's norm, so the last gradient adds nothing to its peak
    last, alive = [], []
    gradient, check = solver_module.grad_a, solver_module.kkt_check

    def tracked_gradient(*args):
        grad = gradient(*args)
        last[:] = [weakref.ref(grad)]
        return grad

    def recording_check(*args):
        alive.append([ref() is not None for ref in last])
        return check(*args)

    monkeypatch.setattr(solver_module, "grad_a", tracked_gradient)
    monkeypatch.setattr(solver_module, "kkt_check", recording_check)
    _, deg, x, y = _small_instance()
    _, diag = solve(x, y, deg.p1, deg.p2, deg.p3, SolverConfig(r=2, max_iter=3, eps=eps))
    assert diag.iterations == iterations
    assert alive == [[False]]


def test_solve_holds_no_iterate_through_the_next_step(monkeypatch):
    # each step's input state is dead once the step has replaced it: held any
    # longer, its arrays made every protocol-scale solve fault in ~60 MB afresh
    stepped, alive = [], []
    step, prox_step = solver_module.step_a, solver_module.step_g

    def recording_step_a(state, *args):
        stepped.append(weakref.ref(state.a))
        return step(state, *args)

    def checking_step_g(*args):
        alive.append(stepped[-1]() is not None)
        return prox_step(*args)

    monkeypatch.setattr(solver_module, "step_a", recording_step_a)
    monkeypatch.setattr(solver_module, "step_g", checking_step_g)
    _, deg, x, y = _small_instance()
    _, diag = solve(x, y, deg.p1, deg.p2, deg.p3, SolverConfig(r=2, max_iter=4))
    assert diag.iterations == 4
    assert alive == [False] * 8


def test_solve_leaves_the_numpy_error_state_alone_between_steps(monkeypatch):
    # the loop ignores overflow only inside its own steps: the objective trace
    # and kkt_check, which run between them, see the caller's settings
    default, seen = np.geterr(), []
    for name in ("nms_tctv", "kkt_check"):
        def recording(*args, original=getattr(solver_module, name)):
            seen.append(np.geterr())
            return original(*args)

        monkeypatch.setattr(solver_module, name, recording)
    _, deg, x, y = _small_instance()
    _, diag = solve(x, y, deg.p1, deg.p2, deg.p3, SolverConfig(r=2, max_iter=3),
                    trace_objective=True)
    assert diag.iterations == 3
    assert seen == [default] * 4


def test_iterates_name_every_traced_number():
    # the generator makes each trace entry, its clock included, keyed by its Diagnostics
    # name, and solve records them as they come; the zero state, never recorded, has
    # neither an objective nor a wall time, and no iterate has an objective untraced
    _, deg, x, y = _small_instance()
    s = extract_subspace(x, 2)
    prob = FusionProblem(x=x, y=y, p1=deg.p1, p2=deg.p2, p3=deg.p3, s=s)
    tau = lipschitz_tau(deg.p1, deg.p2, deg.p3, s)
    for trace_objective in (False, True):
        iterates = solver_module._iterates(prob, PSI, tau, 1.05, initial_state(prob, 1e-3),
                                           trace_objective)
        items = list(itertools.islice(iterates, 4))
        iterates.close()
        traces = [f.name for f in fields(Diagnostics)
                  if f.type is list and (trace_objective or f.name != "objective")]
        for k, (state, res, trace) in enumerate(items):
            assert type(state) is SolverState and state.iter == k
            assert res.shape == (4,) and type(trace) is dict and list(trace) == traces
            assert [trace[key] for key in traces[:4]] == list(res)
            if trace_objective:
                assert trace["objective"] == (nms_tctv(state.a, PSI) if k else None)
            if k:
                assert type(trace["wall_time"]) is float and trace["wall_time"] > 0
            else:
                assert trace["wall_time"] is None
        _, diag = solve(x, y, deg.p1, deg.p2, deg.p3, SolverConfig(r=2, max_iter=3),
                        trace_objective=trace_objective)
        assert len(diag.objective) == (3 if trace_objective else 0)
        # timings do not repeat from one run to the next
        for key in (key for key in traces if key != "wall_time"):
            assert getattr(diag, key) == [float(trace[key]) for _, _, trace in items[1:]], key


def test_stop_reason_boundaries():
    stop, res = solver_module._stop_reason, np.array([1e-3, 0.5, 0.0, 2e-3])
    assert stop(res, 3, 0.5, 10) == "tol"  # at eps exactly
    assert stop(res, 10, 0.5, 10) == "tol"  # the tolerance wins at the cap
    assert stop(res, 10, 0.4, 10) == "max_iter"
    assert stop(res, 9, 0.4, 10) is None


def test_mode_checks_name_the_rejected_value():
    with pytest.raises(ValueError, match="got 'fast'"):
        SolverConfig(r=1, tau_mode="fast")
    with pytest.raises(ValueError, match="got 'scaled'"):
        SolverConfig(r=1, eps_mode="scaled")
    with pytest.raises(ValueError, match="got 'fast'"):
        lipschitz_tau(np.eye(2), np.eye(2), np.eye(2), np.eye(2), mode="fast")


_EDGE_ITERATIONS = 30


# (I1, I2, I3, J1, J2, J3, R): the observations are J1 x J2 x I3 and I1 x I2 x J3
@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    i1=st.integers(2, 5), i2=st.integers(2, 5), i3=st.sampled_from([1, 2, 3, 5, 7]),
    j1=st.integers(1, 5), j2=st.integers(1, 5), j3=st.integers(1, 3),
    r_is_i3=st.booleans(), seed=st.integers(0, 2**32 - 1),
)
@example(i1=2, i2=2, i3=4, j1=1, j2=1, j3=2, r_is_i3=False, seed=0)  # I1 = I2 = 2, R = 1
@example(i1=2, i2=5, i3=3, j1=2, j2=2, j3=2, r_is_i3=True, seed=1)  # I1 = 2, R = I3
@example(i1=5, i2=2, i3=3, j1=2, j2=2, j3=2, r_is_i3=True, seed=2)  # I2 = 2, R = I3
@example(i1=5, i2=3, i3=1, j1=2, j2=1, j3=1, r_is_i3=True, seed=3)  # I3 = R = 1
@example(i1=2, i2=2, i3=1, j1=1, j2=1, j3=1, r_is_i3=False, seed=4)  # all at the minimum
@example(i1=5, i2=5, i3=5, j1=3, j2=2, j3=2, r_is_i3=True, seed=5)  # odd tubes, R = I3
@example(i1=3, i2=5, i3=6, j1=3, j2=5, j3=3, r_is_i3=False, seed=6)  # odd tubes, R = 1
@example(i1=4, i2=4, i3=4, j1=2, j2=2, j3=2, r_is_i3=True, seed=7)  # even sides, R = I3
def test_solve_on_edge_shapes_is_finite_and_repeatable(i1, i2, i3, j1, j2, j3, r_is_i3, seed):
    j1, j2 = min(j1, i1), min(j2, i2)
    # the subspace of x needs R <= min(I3, J1 J2)
    r = min(i3, j1 * j2) if r_is_i3 else 1
    prob = _random_problem(np.random.default_rng(seed), big=(i1, i2, i3),
                           small=(j1, j2, j3), r=r)
    cfg = SolverConfig(r=r, eps=1e-300, max_iter=_EDGE_ITERATIONS)
    runs = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # traced twice, then untraced
        for trace_objective in (True, True, False):
            z, diag = solve(prob.x, prob.y, prob.p1, prob.p2, prob.p3, cfg,
                            trace_objective=trace_objective)
            report = diag.to_dict()
            del report["wall_time"]
            runs.append((z.tobytes(), report))
    assert z.shape == (i1, i2, i3)
    assert np.isfinite(z).all()
    assert diag.iterations == _EDGE_ITERATIONS
    traced = runs[0][1]
    for key in ("res_x", "res_y", "res_g1", "res_g2", "objective", "grad_norm", "mx_norm"):
        assert len(traced[key]) == _EDGE_ITERATIONS and np.isfinite(traced[key]).all(), key
    assert runs[0] == runs[1]
    # the untraced run differs only in its empty objective
    assert report["objective"] == []
    assert runs[2] == (runs[0][0], {**traced, "objective": []})


# ---------------------------------------------------------------- kkt


def _subgradient_deviation_slice_loop(g, m, psi, n, rel_rank_tol=1e-8):
    """_subgradient_deviation of the mode-n gradient g and its multiplier m, as
    a loop over all slices of the full FFT of their mode-(3-n) shuffles."""
    gh = np.fft.fft(mode_shuffle(g, 3 - n), axis=2)
    mh = np.fft.fft(mode_shuffle(m, 3 - n), axis=2)
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
@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    rows=st.sampled_from([1, 2, 3, 6]),  # I_n - 1: one row is I_n = 2
    cols=st.sampled_from([1, 2, 3, 5]),  # R
    rank=st.integers(1, 6),
    n=st.sampled_from([1, 2]),
    seed=st.integers(0, 2**32 - 1),
)
@example(rows=1, cols=5, rank=1, n=1, seed=0)  # wide: I_n = 2, R = 5
@example(rows=6, cols=5, rank=3, n=2, seed=1)  # tall, rank 3 of 5
def test_subgradient_deviation_matches_slice_loop(tubes, rows, cols, rank, n, seed):
    # the tube-last g is a t-product of two thin tensors, of rank
    # min(rank, rows, cols) per slice; tall and wide slices alike. The oracle
    # reads it as the mode-n gradient it is the shuffle of.
    rng = np.random.default_rng(seed)
    rank = min(rank, rows, cols)
    g = t_product(rng.standard_normal((rows, rank, tubes)),
                  rng.standard_normal((rank, cols, tubes)))
    m = rng.standard_normal(g.shape)
    dev, kept = _subgradient_deviation(g, m, PSI)
    want_dev, want_kept = _subgradient_deviation_slice_loop(
        mode_unshuffle(g, 3 - n), mode_unshuffle(m, 3 - n), PSI, n)
    assert kept == want_kept
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
    tensors = _tensors(state, zero)
    grad_norm = np.linalg.norm(grad_a(state, zero, tensors))
    rep = kkt_check(state, PSI, residuals(tensors), grad_norm,
                    Diagnostics(tau=8.0, tau_mode="safe", eps=1e-5, eps_mode="absolute"))
    assert rep.passed
    assert rep.grad_norm == 0.0
    assert rep.subgrad_dev_g1 == 0.0 and rep.subgrad_dev_g2 == 0.0


@pytest.mark.parametrize("trace, ratio", [([0.0, 0.0, 2.0], np.inf), ([0.0, 0.0, 0.0], 0.0)])
def test_kkt_check_reports_growth_over_a_zero_median(trace, ratio):
    # a zero median has no finite final/median ratio: inf, or 0 when the trace ends at 0
    zero = FusionProblem(x=np.zeros((3, 2, 8)), y=np.zeros((6, 5, 4)), p1=np.eye(3, 6),
                         p2=np.eye(2, 5), p3=np.full((4, 8), 0.125), s=np.eye(8, 3))
    state = initial_state(zero, 1.0)
    diag = Diagnostics(tau=8.0, tau_mode="safe", eps=1e-5, eps_mode="absolute",
                       mx_norm=list(trace), my_norm=list(trace))
    rep = kkt_check(state, PSI, residuals(_tensors(state, zero)), 0.0, diag)
    assert rep.mx_final_over_median == rep.my_final_over_median == ratio
    assert rep.mx_trace_max == rep.my_trace_max == max(trace)
    assert rep.multipliers_bounded


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
    checks = []
    check = solver_module.kkt_check

    def recording_check(*args, **kwargs):
        checks.append((args, kwargs))
        return check(*args, **kwargs)

    monkeypatch.setattr(solver_module, "kkt_check", recording_check)
    _, deg, x, y = _small_instance()
    _, diag = solve(x, y, deg.p1, deg.p2, deg.p3, SolverConfig(r=2, max_iter=5, eps=eps))
    assert diag.iterations == iterations
    # one check, on the final residuals and gradient that solve hands it
    ((args, kwargs),) = checks
    assert check(*args, **kwargs).to_dict() == diag.kkt.to_dict()


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
