"""Tests of the benchmark's oracles and checks.

    python3 -m pytest hsbench -q

Each oracle is compared with a small case worked out by hand, and each check
is shown to reject a deliberately perturbed output.
"""

import math
import os
import struct
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import oracles  # noqa: E402
from oracles import CheckFailed  # noqa: E402


def _cmt_bytes(arr, magic=b"CMT1", dtype=1):
    head = magic + bytes([dtype, arr.ndim]) + b"".join(struct.pack("<Q", d) for d in arr.shape)
    return head + arr.astype("<f8").tobytes()


# ---------------------------------------------------------------- oracles by hand


def test_forward_hand_case():
    z = np.arange(8, dtype=float).reshape(2, 2, 2)  # z[i, j, k] = 4i + 2j + k
    p1 = np.array([[0.5, 0.5]])
    p2 = np.array([[1.0, 0.0]])
    p3 = np.array([[0.25, 0.75]])
    x, y = oracles.forward(z, p1, p2, p3)
    # x[0, 0, k] = (z[0, 0, k] + z[1, 0, k]) / 2 = (k + 4 + k) / 2
    np.testing.assert_array_equal(x, [[[2.0, 3.0]]])
    # y[i, j, 0] = z[i, j, 0] / 4 + 3 z[i, j, 1] / 4 = 4i + 2j + 0.75
    np.testing.assert_array_equal(y[:, :, 0], [[0.75, 2.75], [4.75, 6.75]])


def test_psnr_hand_case():
    ref = np.zeros((2, 2, 2))
    est = ref.copy()
    est[:, :, 0] = 1.0  # band 0: MSE 1 at peak 2 -> 10 log10(4); band 1 exact -> cap
    want = (10 * math.log10(4.0) + 100.0) / 2
    assert oracles.psnr(ref, est, peak=2.0) == pytest.approx(want, rel=1e-15)


def test_ergas_hand_case():
    ref = np.empty((2, 2, 3))
    ref[:, :, 0], ref[:, :, 1], ref[:, :, 2] = 2.0, 4.0, 0.0
    est = ref.copy()
    est[:, :, 0] += 1.0  # MSE 1 over mean^2 4
    est[:, :, 1] += 2.0  # MSE 4 over mean^2 16; band 2 has zero mean and is left out
    assert oracles.ergas(ref, est, ratio=2.0) == pytest.approx(50.0 * math.sqrt(0.25), rel=1e-15)


def test_sam_hand_case():
    ref = np.array([[[1.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 0.0]]])
    est = np.array([[[0.0, 3.0], [2.0, 0.0], [1.0, 0.0], [5.0, 5.0]]])
    # angles 90, 0 and 45 degrees; the zero spectrum is skipped
    assert oracles.sam(ref, est) == pytest.approx(45.0, rel=1e-14)


def test_sam_tolerance_tracks_the_arccos_conditioning():
    rng = np.random.default_rng(0)
    ref = rng.random((4, 4, 32))
    near = ref * (1 + 1e-7 * rng.standard_normal(ref.shape))
    far = ref + rng.random(ref.shape)
    assert oracles.sam_tolerance(ref, near) > 1e3 * oracles.sam_tolerance(ref, far)
    assert oracles.sam_tolerance(ref, far) < 1e-9


def test_ssim_hand_cases():
    a = np.full((12, 12, 1), 0.25)
    b = np.full((12, 12, 1), 0.75)
    peak = 1.0
    c1 = (0.01 * peak) ** 2
    # constant images: zero variances, so SSIM reduces to the luminance term
    assert oracles.ssim(a, b, peak) == pytest.approx((2 * 0.25 * 0.75 + c1) / (0.25**2 + 0.75**2 + c1), rel=1e-12)
    rng = np.random.default_rng(1)
    img = rng.random((16, 16, 2))
    assert oracles.ssim(img, img, peak) == pytest.approx(1.0, abs=1e-12)


def test_read_cmt_hand_case_and_rejections(tmp_path):
    arr = np.array([[1.0, -2.5, 3.0], [0.0, 1e300, -0.0]])
    good = tmp_path / "a.cmt"
    good.write_bytes(_cmt_bytes(arr))
    np.testing.assert_array_equal(oracles.read_cmt(good), arr)
    bad = {
        "magic": _cmt_bytes(arr, magic=b"CMT2"),
        "dtype": _cmt_bytes(arr, dtype=2),
        "truncated": _cmt_bytes(arr)[:-1],
        "trailing": _cmt_bytes(arr) + b"\0",
    }
    for name, data in bad.items():
        path = tmp_path / f"{name}.cmt"
        path.write_bytes(data)
        with pytest.raises(CheckFailed):
            oracles.read_cmt(path)


def test_spectral_basis_and_subspace_distance():
    rng = np.random.default_rng(2)
    maps = rng.random((6, 6, 2))
    spectra = np.linalg.qr(rng.standard_normal((5, 2)))[0]
    z = maps @ spectra.T
    basis = oracles.spectral_basis(z, 2)
    np.testing.assert_allclose(basis @ basis.T, spectra @ spectra.T, atol=1e-12)
    assert oracles.subspace_distance(z, basis, rows=7) < 1e-14
    off = np.linalg.svd(spectra, full_matrices=True)[0][:, 2]  # orthogonal to both spectra
    z_off = z.copy()
    z_off[0, 0] += off
    want = 1.0 / np.linalg.norm(z_off)
    assert oracles.subspace_distance(z_off, basis) == pytest.approx(want, rel=1e-10)


# ---------------------------------------------------------------- checks reject perturbed outputs


@pytest.fixture(scope="module")
def scene():
    rng = np.random.default_rng(3)
    z = rng.random((16, 16, 8)) + 0.5
    p1 = rng.random((4, 16))
    p2 = rng.random((4, 16))
    p3 = rng.random((3, 8))
    x, y = oracles.forward(z, p1, p2, p3)
    return z, p1, p2, p3, x, y


def test_check_forward_rejects_perturbation(scene):
    z, p1, p2, p3, x, y = scene
    oracles.check_forward(x, y, z, p1, p2, p3)
    x_bad = x.copy()
    x_bad[1, 2, 3] *= 1 + 1e-9
    with pytest.raises(CheckFailed):
        oracles.check_forward(x_bad, y, z, p1, p2, p3)
    with pytest.raises(CheckFailed):
        oracles.check_forward(x, y[:, :, :2], z, p1, p2, p3)


def test_check_feasible_rejects_infeasible_estimate(scene):
    z, p1, p2, p3, x, y = scene
    oracles.check_feasible(z, x, y, p1, p2, p3, threshold=1e-9)
    with pytest.raises(CheckFailed):
        oracles.check_feasible(z * (1 + 1e-6), x, y, p1, p2, p3, threshold=1e-9)


def test_check_in_subspace_rejects_component_outside():
    rng = np.random.default_rng(4)
    spectra = np.linalg.qr(rng.standard_normal((8, 3)))[0]
    x = rng.random((8, 8, 3)) @ spectra.T
    z_hat = rng.random((16, 16, 3)) @ spectra.T
    oracles.check_in_subspace(z_hat, x, 3)
    z_bad = z_hat.copy()
    z_bad[5, 5, 0] += 1e-6
    with pytest.raises(CheckFailed):
        oracles.check_in_subspace(z_bad, x, 3)


def test_check_metrics_rejects_each_perturbed_metric(scene):
    z = scene[0]
    est = z + 0.01 * np.random.default_rng(5).standard_normal(z.shape)
    want = oracles.oracle_metrics(z, est, 4.0)
    oracles.check_metrics(dict(want), z, est, 4.0)
    for key in want:
        got = dict(want)
        got[key] = want[key] * (1 + 1e-6)
        with pytest.raises(CheckFailed, match=key):
            oracles.check_metrics(got, z, est, 4.0)


def test_parse_eval_lines_rejects_missing_or_malformed_keys():
    text = "psnr=30.5\nergas=1.25\nsam=2\nssim=0.9\n"
    assert oracles.parse_eval_lines(text) == {"psnr": 30.5, "ergas": 1.25, "sam": 2.0, "ssim": 0.9}
    for bad in ("psnr=30.5\nergas=1.25\nsam=2\n", "psnr 30.5\nergas=1\nsam=2\nssim=1\n"):
        with pytest.raises(CheckFailed):
            oracles.parse_eval_lines(bad)


def test_check_diagnose_csv_rejects_changed_rows(tmp_path):
    report = {"iterations": 2, "res_x": [1.5, 0.1], "res_y": [2.0, 0.2], "res_g1": [0.3, 0.03],
              "res_g2": [0.4, 0.04], "rho": [1e-3, 1.05e-3], "objective": [7.0, 6.0]}
    rows = [f"{k + 1}," + ",".join(f"{report[c][k]:.17g}" for c in oracles.TRACE_COLUMNS) for k in range(2)]
    good = tmp_path / "good.csv"
    good.write_text(oracles.DIAGNOSE_CSV_HEADER + "\n" + "\n".join(rows) + "\n")
    oracles.check_diagnose_csv(good, report)
    variants = {
        "header": "iter,res_x\n" + "\n".join(rows),
        "missing_row": oracles.DIAGNOSE_CSV_HEADER + "\n" + rows[0],
        "changed_value": oracles.DIAGNOSE_CSV_HEADER + "\n" + rows[0] + "\n" + rows[1].replace("0.10000000000000001", "0.1000000000000001"),
        "renumbered": oracles.DIAGNOSE_CSV_HEADER + "\n" + rows[0] + "\n" + "3" + rows[1][1:],
    }
    for name, text in variants.items():
        path = tmp_path / f"{name}.csv"
        path.write_text(text)
        with pytest.raises(CheckFailed):
            oracles.check_diagnose_csv(path, report)


# ---------------------------------------------------------------- against the program


def test_oracles_agree_with_program_metrics():
    metrics = pytest.importorskip("hsfusion.metrics")
    rng = np.random.default_rng(6)
    ref = rng.random((24, 24, 6)) + 0.1
    est = ref + 0.05 * rng.standard_normal(ref.shape)
    report = metrics.evaluate(ref, est, ratio=4.0)
    got = {k: getattr(report, k) for k in ("psnr", "ergas", "sam", "ssim")}
    oracles.check_metrics(got, ref, est, 4.0)


def test_oracle_reads_program_written_cmt(tmp_path):
    tensorfile = pytest.importorskip("hsfusion.tensorfile")
    arr = np.random.default_rng(7).standard_normal((3, 4, 5))
    tensorfile.write_tensor(tmp_path / "t.cmt", arr)
    np.testing.assert_array_equal(oracles.read_cmt(tmp_path / "t.cmt"), arr)


def test_seed_symmetry_poses_the_same_problem():
    """Two seeds' inputs give the same iterates' quality up to rounding."""
    hs_deg = pytest.importorskip("hsfusion.degradation")
    solver = pytest.importorskip("hsfusion.solver")
    import workloads

    z0, _, _ = hs_deg.synth_scene(hs_deg.SceneSpec(shape=(32, 32, 32), r=2, seed=14))
    deg = hs_deg.make_degradation(z0.shape, 4, 9, 3.3973, hs_deg.IKONOS_BANDS)
    found = []
    inputs = []
    for seed in (1, 2, 3):
        z = workloads.symmetric_copy(z0, deg.p3, seed)
        x, y = hs_deg.simulate(z, deg)
        inputs.append(x)
        z_hat, diag = solver.solve(x, y, deg.p1, deg.p2, deg.p3, solver.SolverConfig(r=2, max_iter=40))
        found.append((oracles.psnr(z, z_hat, float(z.max())), diag.res_x[-1]))
    assert not any(np.array_equal(inputs[i], inputs[j]) for i in range(3) for j in range(i))
    for psnr, res in found[1:]:
        assert psnr == pytest.approx(found[0][0], rel=1e-9)
        assert res == pytest.approx(found[0][1], rel=1e-6)


def test_restate_divides_each_stretch_by_the_probes_beside_it():
    from hostspeed import HostSpeed

    speed = HostSpeed(capacity=2)
    speed._log[:] = [[0.0, 1.0], [0.1, 1.1], [2.0, 1.0]]  # start, end, slowness of two probes
    speed.count = 2
    # call from 0.1 to 2.0 with the second probe (1.0 to 1.1) inside it:
    # 0.1-1.0 between slowness 2.0 and 1.0, then 1.1-2.0 after slowness 1.0
    raw, norm = speed.restate(0.1, 2.0, first=1)
    assert raw == pytest.approx(1.8)
    assert norm == pytest.approx(0.9 / 1.5 + 0.9 / 1.0)


def test_hostspeed_probes_inside_a_call_only_when_asked():
    import signal
    import time

    from hostspeed import HostSpeed

    def busy():
        t0 = t1 = time.perf_counter()
        while t1 < t0 + 0.35:
            t1 = time.perf_counter()
        return t0, t1

    try:
        for inside in (True, False):
            speed = HostSpeed(probe_inside=inside, capacity=16)
            speed.maybe_probe()
            (t0, t1), (raw, _) = speed.timed(busy)
            during = (speed.starts > t0) & (speed.starts < t1)
            # probes that ran during the call are left out of its time
            assert raw == pytest.approx(t1 - t0 - float(np.sum((speed.ends - speed.starts)[during])), abs=0.005)
            if inside:
                assert during.sum() >= 2
            else:
                assert during.sum() == 0
    finally:
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def test_tracer_self_time_excludes_child_spans():
    import time

    from tracer import Tracer

    tracer = Tracer()

    def inner():
        time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        for _ in range(2):
            traced_inner()

    traced_inner = tracer._wrap("inner", inner, "plain")
    tracer._wrap("outer", outer, "plain")()
    totals = tracer.layer_totals()
    calls_in, self_in, incl_in = totals["inner"][:3]
    calls_out, self_out, incl_out = totals["outer"][:3]
    assert (calls_in, calls_out) == (2, 1)
    assert self_in == pytest.approx(incl_in)
    assert self_out == pytest.approx(incl_out - incl_in)
    assert self_out >= 0.01
