"""Acceptance suite: every exit criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion. The synthetic end-to-end instance is the seed-fixed 64x64x32
scene (rank 3, 4x4 blocks) degraded by the 9-tap sigma=3.3973 circular blur,
factor-4 decimation, and the default four-band response.

The large-protocol criterion (user-supplied 256x256x162 ground truth,
Landsat-7 bands, factor 8, R=5) is conditional on real data and is covered
here only by a downscaled pipeline smoke test; see the README for how to run
the full protocol.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from hsfusion import (
    IKONOS_BANDS,
    LANDSAT7_BANDS,
    LogSurrogate,
    SceneSpec,
    SolverConfig,
    bicubic_upsample,
    evaluate,
    lipschitz_tau,
    make_degradation,
    mode_n_product,
    ntpnn,
    psnr,
    sam,
    scalar_prox,
    simulate,
    solve,
    synth_scene,
)
from hsfusion.solver import (
    FusionProblem,
    grad_a,
    initial_state,
)
from hsfusion.tensorfile import read_tensor, write_tensor

from _shared import _tensors
from _theory import (check_rank_sandwich, check_tv_sandwich, identity_tensor, l1_objective,
                     t_product, t_svd, t_transpose, tnn)

GAMMA = 0.1
PSI = LogSurrogate(GAMMA)
SCENE_SEED = 14


def _ok(name):
    print(f"ACCEPTANCE {name}: PASS")


@pytest.fixture(scope="module")
def synthetic_instance():
    spec = SceneSpec(shape=(64, 64, 32), r=3, blocks=4, seed=SCENE_SEED)
    z, _, _ = synth_scene(spec)
    deg = make_degradation(z.shape, factor=4, kernel_size=9, sigma=3.3973,
                           bands=IKONOS_BANDS)
    x, y = simulate(z, deg)
    return z, deg, x, y


@pytest.fixture(scope="module")
def converged_run(synthetic_instance):
    z, deg, x, y = synthetic_instance
    start = time.perf_counter()
    z_hat, diag = solve(x, y, deg.p1, deg.p2, deg.p3, SolverConfig(r=3, gamma=GAMMA))
    elapsed = time.perf_counter() - start
    return z, deg, x, y, z_hat, diag, elapsed


def test_tsvd_factorization_accuracy_and_runtime():
    rng = np.random.default_rng(100)
    start = time.perf_counter()
    for trial in range(100):
        i1 = int(rng.integers(2, 17))
        i2 = int(rng.integers(2, 13))
        i3 = int(rng.integers(1, 9))
        t = rng.standard_normal((i1, i2, i3))
        fac = t_svd(t)
        recon = t_product(t_product(fac.u, fac.s), t_transpose(fac.v))
        assert np.linalg.norm(recon - t) / np.linalg.norm(t) <= 1e-10, trial
        eye_u = identity_tensor(i1, i3)
        eye_v = identity_tensor(i2, i3)
        assert np.linalg.norm(t_product(fac.u, t_transpose(fac.u)) - eye_u) <= 1e-10
        assert np.linalg.norm(t_product(fac.v, t_transpose(fac.v)) - eye_v) <= 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"t-SVD acceptance took {elapsed:.2f}s"
    _ok("t-SVD factorization (100 tensors, 1e-10, <5s)")


def test_tnn_ntpnn_oracle_equivalence():
    rng = np.random.default_rng(101)
    for trial in range(50):
        shape = tuple(int(v) for v in rng.integers(2, 9, size=3))
        t = rng.standard_normal(shape)
        th = np.fft.fft(t, axis=2)
        tnn_ref = 0.0
        ntpnn_ref = 0.0
        for f in range(shape[2]):
            sig = np.linalg.svd(th[:, :, f], compute_uv=False)
            tnn_ref += sig.sum()
            ntpnn_ref += PSI.value(sig).sum()
        tnn_ref /= shape[2]
        ntpnn_ref /= shape[2]
        assert abs(tnn(t) - tnn_ref) <= 1e-10 * max(1.0, tnn_ref), trial
        assert abs(ntpnn(t, PSI) - ntpnn_ref) <= 1e-10 * max(1.0, ntpnn_ref), trial
    _ok("TNN/NTPNN slice-SVD oracle equivalence (50 tensors, 1e-10)")


def test_scalar_prox_grid_oracle():
    rng = np.random.default_rng(2024)
    step = 1e-5
    worst = 0.0
    for _ in range(1000):
        s = float(rng.uniform(0.0, 10.0))
        rho = float(10.0 ** rng.uniform(-3.0, 3.0))
        got = scalar_prox(s, rho, PSI)
        grid = np.arange(0.0, s + 1.0 + step, step)
        obj = PSI.value(grid) + rho * (grid - s) ** 2
        ref = grid[int(np.argmin(obj))]
        worst = max(worst, abs(got - ref))
    assert worst <= 1e-4, f"worst deviation {worst:.3e}"
    _ok(f"scalar prox vs 1e-5 grid on 1000 (s, rho) pairs (worst {worst:.1e})")


def _random_problem_and_state(rng, big, small, r):
    i1, i2, i3 = big
    j1, j2, j3 = small
    p1 = rng.standard_normal((j1, i1)) / np.sqrt(i1)
    p2 = rng.standard_normal((j2, i2)) / np.sqrt(i2)
    p3 = np.abs(rng.standard_normal((j3, i3)))
    p3 /= p3.sum(axis=1, keepdims=True)
    q, rr = np.linalg.qr(rng.standard_normal((i3, r)))
    s = q * np.sign(np.diagonal(rr))
    prob = FusionProblem(
        x=rng.standard_normal((j1, j2, i3)),
        y=rng.standard_normal((i1, i2, j3)),
        p1=p1, p2=p2, p3=p3, s=s,
    )
    state = replace(
        initial_state(prob, rho0=float(10.0 ** rng.uniform(-2, 1))),
        a=rng.standard_normal((i1, i2, r)),
        g=(rng.standard_normal((i1 - 1, i2, r)), rng.standard_normal((i1, i2 - 1, r))),
        u=(
            rng.standard_normal((j1, j2, i3)),
            rng.standard_normal((i1, i2, j3)),
            rng.standard_normal((i1 - 1, i2, r)),
            rng.standard_normal((i1, i2 - 1, r)),
        ),
    )
    return prob, state


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(102)
    h = 1e-6
    for trial in range(20):
        i1 = int(rng.integers(3, 9))
        i2 = int(rng.integers(3, 9))
        r = int(rng.integers(1, 5))
        i3 = int(rng.integers(r, r + 4))
        small = (max(2, i1 // 2), max(2, i2 // 2), max(1, i3 // 2))
        prob, state = _random_problem_and_state(rng, (i1, i2, i3), small, r)
        grad = grad_a(state, prob, _tensors(state, prob))
        fd = np.zeros_like(grad)
        base = state.a
        it = np.nditer(base, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            ap = base.copy()
            am = base.copy()
            ap[idx] += h
            am[idx] -= h
            fd[idx] = (
                l1_objective(replace(state, a=ap), prob)
                - l1_objective(replace(state, a=am), prob)
            ) / (2 * h)
            it.iternext()
        rel = np.linalg.norm(grad - fd) / np.linalg.norm(fd)
        assert rel <= 1e-5, f"trial {trial}: rel {rel:.2e}"
    _ok("analytic gradient vs central differences (20 instances, 1e-5)")


def test_lipschitz_certificate():
    rng = np.random.default_rng(103)
    safe_violations = 0
    paper_violations = 0
    for trial in range(200):
        i1 = int(rng.integers(3, 9))
        i2 = int(rng.integers(3, 9))
        r = int(rng.integers(1, 4))
        i3 = int(rng.integers(r, r + 4))
        small = (max(2, i1 // 2), max(2, i2 // 2), max(1, i3 // 2))
        prob, state = _random_problem_and_state(rng, (i1, i2, i3), small, r)
        tau_safe = lipschitz_tau(prob.p1, prob.p2, prob.p3, prob.s, "safe")
        tau_paper = lipschitz_tau(prob.p1, prob.p2, prob.p3, prob.s, "paper")
        a1 = rng.standard_normal(state.a.shape)
        a2 = rng.standard_normal(state.a.shape)
        s1, s2 = replace(state, a=a1), replace(state, a=a2)
        lhs = np.linalg.norm(grad_a(s1, prob, _tensors(s1, prob))
                             - grad_a(s2, prob, _tensors(s2, prob)))
        gap = np.linalg.norm(a1 - a2)
        if lhs > tau_safe * gap * (1 + 1e-12):
            safe_violations += 1
        if lhs > tau_paper * gap * (1 + 1e-12):
            paper_violations += 1
    assert safe_violations == 0
    # the uncorrected step bound omits the difference-operator terms; its
    # violation count is reported, not asserted
    print(f"  [info] paper-mode tau violated on {paper_violations}/200 pairs")
    _ok("safe-mode Lipschitz certificate (200 pairs, zero violations)")


def test_rank_sandwich_and_tv_sandwich():
    rng = np.random.default_rng(104)
    for trial in range(50):
        i1 = int(rng.integers(3, 9))
        i2 = int(rng.integers(3, 9))
        i3 = int(rng.integers(2, 7))
        r = int(rng.integers(1, min(3, i3) + 1))
        a = rng.standard_normal((i1, i2, r))
        q, rr = np.linalg.qr(rng.standard_normal((i3, r)))
        s = q * np.sign(np.diagonal(rr))
        z = mode_n_product(a, s, 3)
        n = 1 + trial % 2
        assert check_rank_sandwich(z, s, n, tol=1e-8).holds, f"trial {trial}"
    for trial in range(100):
        a = rng.standard_normal((int(rng.integers(3, 9)),
                                 int(rng.integers(3, 9)),
                                 int(rng.integers(1, 6))))
        assert check_tv_sandwich(a, PSI).holds, f"tv trial {trial}"
    _ok("gradient-rank sandwich 50/50 and TV/ATV sandwich 100/100")


def test_end_to_end_synthetic_recovery(converged_run):
    z, deg, x, y, z_hat, diag, elapsed = converged_run
    assert diag.converged, "solver did not reach the tolerance within max_iter"
    final_res = max(diag.res_x[-1], diag.res_y[-1], diag.res_g1[-1], diag.res_g2[-1])
    assert final_res <= 1e-5
    # the max-residual trajectory is eventually monotone decreasing below eps
    max_res = np.maximum.reduce(
        [np.asarray(diag.res_x), np.asarray(diag.res_y),
         np.asarray(diag.res_g1), np.asarray(diag.res_g2)]
    )
    tail = max_res[int(0.8 * len(max_res)):]
    assert (np.diff(tail) <= 0).all()
    assert tail[-1] <= 1e-5
    peak = float(z.max())
    gain = psnr(z, z_hat, peak) - psnr(z, bicubic_upsample(x, 4), peak)
    angle = sam(z, z_hat)
    assert gain >= 10.0, f"PSNR gain {gain:.2f} dB"
    assert angle <= 2.0, f"SAM {angle:.3f} deg"
    assert elapsed <= 120.0, f"solve took {elapsed:.1f}s"
    _ok(
        f"end-to-end synthetic recovery (+{gain:.1f} dB vs bicubic, "
        f"SAM {angle:.4f} deg, {diag.iterations} iters, {elapsed:.1f}s)"
    )


def test_kkt_diagnostics_on_converged_run(converged_run):
    _, _, _, _, _, diag, _ = converged_run
    rep = diag.kkt
    eps = diag.eps
    res = max(rep.residual_x, rep.residual_y, rep.residual_g1, rep.residual_g2)
    assert res <= 10.0 * eps
    assert rep.grad_norm <= 10.0 * eps * rep.tau
    assert max(rep.subgrad_dev_g1, rep.subgrad_dev_g2) <= 1e-4
    assert rep.retained_g1 > 0 and rep.retained_g2 > 0
    _ok(
        f"KKT diagnostics (residuals {res:.1e} <= 10*eps, grad {rep.grad_norm:.1e}, "
        f"subgrad dev {max(rep.subgrad_dev_g1, rep.subgrad_dev_g2):.1e})"
    )


def test_hyperparameter_sensitivity(synthetic_instance, converged_run):
    z, deg, x, y = synthetic_instance
    peak = float(z.max())
    z_hat_r3 = converged_run[4]
    psnr_by_r = {}
    for r in (1, 2, 3, 4, 5, 6):
        if r == 3:
            est = z_hat_r3
        else:
            est, _ = solve(x, y, deg.p1, deg.p2, deg.p3, SolverConfig(r=r, gamma=GAMMA))
        psnr_by_r[r] = psnr(z, est, peak)
    best_r = max(psnr_by_r, key=psnr_by_r.get)
    assert best_r == 3, f"PSNR peaked at R={best_r}: {psnr_by_r}"
    assert psnr_by_r[3] - psnr_by_r[1] >= 3.0
    psnr_by_gamma = {}
    for gamma in (0.01, 0.1, 1.0, 10.0):
        if gamma == GAMMA:
            est = z_hat_r3
        else:
            est, _ = solve(x, y, deg.p1, deg.p2, deg.p3, SolverConfig(r=3, gamma=gamma))
        psnr_by_gamma[gamma] = psnr(z, est, peak)
    spread = max(psnr_by_gamma.values()) - min(psnr_by_gamma.values())
    assert spread < 1.0, f"gamma spread {spread:.3f} dB: {psnr_by_gamma}"
    _ok(
        f"hyperparameter sensitivity (R peak at 3, "
        f"drop at R=1 {psnr_by_r[3] - psnr_by_r[1]:.1f} dB, "
        f"gamma spread {spread:.2f} dB)"
    )


def test_protocol_pipeline_smoke(tmp_path):
    # downscaled stand-in for the conditional full-protocol criterion:
    # Landsat-7 six-band response, 9x9 sigma=3.3973 blur, factor 8, R=5,
    # gamma=0.1 on a 32x32x162 scene; asserts the pipeline runs end to end
    # and reports all four metrics (factor-8 deconvolution is too
    # ill-conditioned to reach the default absolute tolerance within the
    # default iteration cap, so the run legitimately ends flagged
    # not-converged; see the README's protocol notes)
    spec = SceneSpec(shape=(32, 32, 162), r=5, blocks=2, seed=1)
    z, _, _ = synth_scene(spec)
    deg = make_degradation(z.shape, factor=8, kernel_size=9, sigma=3.3973,
                           bands=LANDSAT7_BANDS)
    x, y = simulate(z, deg)
    assert x.shape == (4, 4, 162) and y.shape == (32, 32, 6)
    z_hat, diag = solve(x, y, deg.p1, deg.p2, deg.p3,
                        SolverConfig(r=5, gamma=GAMMA))
    report = evaluate(z, z_hat, peak=float(np.abs(z).max()), ratio=8.0)
    assert np.isfinite([report.psnr, report.ergas, report.sam, report.ssim]).all()
    gain = report.psnr - psnr(z, bicubic_upsample(x, 8), float(np.abs(z).max()))
    assert gain > 10.0
    _ok(
        f"protocol pipeline smoke (converged={diag.converged}, "
        f"psnr {report.psnr:.1f} dB, +{gain:.1f} dB vs bicubic, "
        f"sam {report.sam:.2f} deg)"
    )


def test_determinism_byte_identical_outputs(synthetic_instance, tmp_path):
    z, deg, x, y = synthetic_instance
    cfg = SolverConfig(r=3, gamma=GAMMA, max_iter=60)
    paths = []
    for run in range(2):
        z_hat, _ = solve(x, y, deg.p1, deg.p2, deg.p3, cfg)
        path = tmp_path / f"z_hat_{run}.cmt"
        write_tensor(path, z_hat)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert np.array_equal(read_tensor(paths[0]), read_tensor(paths[1]))
    _ok("determinism (byte-identical repeated runs)")
