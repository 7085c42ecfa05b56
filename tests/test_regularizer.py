import dataclasses
import json
import re

import numpy as np
import pytest

from hsfusion import (
    DimensionError,
    LogSurrogate,
    difference,
    mode_n_product,
    mode_shuffle,
    nms_tctv,
)

from _shared import _semi_unitary
from _theory import check_rank_sandwich, check_tv_sandwich, tctv, tnn, tsvd_rank

PSI = LogSurrogate(0.1)


def test_gradient_constant_tensor():
    assert not difference(np.full((4, 5, 3), 2.0), 1).any()
    assert not difference(np.full((4, 5, 3), 2.0), 2).any()


def test_gradient_hand_value():
    t = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(2, 2, 1)
    got = difference(t, 1)
    # matrix oracle: D_2 @ [[1,2],[3,4]] = [[-2,-2]]
    assert np.array_equal(got[:, :, 0], [[-2.0, -2.0]])


def test_gradient_linearity():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 4, 2))
    b = rng.standard_normal((4, 4, 2))
    for n in (1, 2):
        lhs = difference(a + b, n)
        rhs = difference(a, n) + difference(b, n)
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-14)


def test_gradient_rejects_short_mode():
    with pytest.raises(DimensionError):
        difference(np.zeros((1, 4, 2)), 1)


def test_tctv_constant_is_zero():
    assert tctv(np.full((4, 4, 3), 5.0), (1, 2)) == 0.0


def test_tctv_single_mode_is_gradient_tnn():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((4, 4, 3))
    assert tctv(a, (1,)) == tnn(difference(a, 1))


def test_tctv_two_modes_matches_per_term():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((4, 4, 3))
    want = 0.5 * (tnn(difference(a, 1)) + tnn(difference(a, 2)))
    assert tctv(a, (1, 2)) == pytest.approx(want, rel=1e-12)


def test_tctv_rejects_empty_modes():
    with pytest.raises(ValueError):
        tctv(np.zeros((3, 3, 3)), ())


def test_nms_tctv_constant_is_zero():
    assert nms_tctv(np.full((5, 5, 2), -1.3), PSI) == 0.0


def _nms_oracle(a, psi):
    """Composition oracle: shuffle + per-slice SVD + surrogate summation."""
    total = 0.0
    for n in (1, 2):
        g = mode_shuffle(difference(a, n), 3 - n)
        gh = np.fft.fft(g, axis=2)
        acc = 0.0
        for f in range(g.shape[2]):
            sig = np.linalg.svd(gh[:, :, f], compute_uv=False)
            acc += psi.value(sig).sum()
        total += acc / g.shape[2]
    return 0.5 * total


def test_nms_tctv_matches_composition_oracle():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((5, 5, 3))
    assert nms_tctv(a, PSI) == pytest.approx(_nms_oracle(a, PSI), rel=1e-10)


def test_nms_tctv_invariant_to_constant_shift():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((5, 4, 3))
    assert nms_tctv(a + 3.7, PSI) == pytest.approx(nms_tctv(a, PSI), rel=1e-10)


def test_nms_tctv_sign_flip_invariant():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((4, 5, 3))
    assert nms_tctv(-a, PSI) == pytest.approx(nms_tctv(a, PSI), rel=1e-12)
    assert tctv(-a, (1, 2)) == pytest.approx(tctv(a, (1, 2)), rel=1e-12)


def test_nms_tctv_zero_iff_flat():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((4, 4, 2))
    assert nms_tctv(a, PSI) > 1e-10
    flat = np.broadcast_to(rng.standard_normal(2), (4, 4, 2)).copy()
    assert nms_tctv(flat, PSI) <= 1e-10


def test_tsvd_rank_basics():
    assert tsvd_rank(np.zeros((3, 4, 2))) == 0
    rng = np.random.default_rng(7)
    full = rng.standard_normal((4, 4, 3))
    assert tsvd_rank(full) == 4


def test_rank_sandwich_lowrank_instance():
    rng = np.random.default_rng(8)
    r = 2
    a = np.zeros((6, 6, r))
    # rank-2 spatial maps: outer products of random vectors
    for k in range(r):
        a[:, :, k] = np.outer(rng.standard_normal(6), rng.standard_normal(6))
        a[:, :, k] += np.outer(rng.standard_normal(6), rng.standard_normal(6))
    s = _semi_unitary(rng, 8, r)
    z = mode_n_product(a, s, 3)
    for n in (1, 2):
        assert check_rank_sandwich(z, s, n).holds


def test_rank_sandwich_zero_tensor():
    s = _semi_unitary(np.random.default_rng(9), 6, 2)
    rep = check_rank_sandwich(np.zeros((5, 5, 6)), s, 1)
    assert rep.rank_z == 0 and rep.rank_grad == 0 and rep.holds


def test_rank_sandwich_randomized_instances():
    rng = np.random.default_rng(10)
    for trial in range(50):
        i1 = int(rng.integers(3, 9))
        i2 = int(rng.integers(3, 9))
        i3 = int(rng.integers(2, 7))
        r = int(rng.integers(1, min(4, i3 + 1)))
        a = rng.standard_normal((i1, i2, r))
        s = _semi_unitary(rng, i3, r)
        z = mode_n_product(a, s, 3)
        n = 1 + trial % 2
        assert check_rank_sandwich(z, s, n, tol=1e-8).holds, f"trial {trial}"


def test_rank_sandwich_rejects_non_semi_unitary():
    rng = np.random.default_rng(11)
    s = rng.standard_normal((6, 2))  # not orthonormal
    with pytest.raises(ValueError, match="semi-unitary"):
        check_rank_sandwich(np.zeros((4, 4, 6)), s, 1)


def test_tv_sandwich_zero_tensor():
    rep = check_tv_sandwich(np.zeros((6, 6, 4)), PSI)
    assert rep.holds and rep.nms == 0.0


@pytest.mark.parametrize("scale", [0.0, 1.0])
def test_tv_sandwich_report_holds_python_bools_and_serializes(scale):
    # scale 0 takes the zero-gradient branch, scale 1 the comparisons
    a = scale * np.random.default_rng(15).standard_normal((5, 7, 3))
    rep = check_tv_sandwich(a, PSI)
    flags = ("tv_lower_ok", "tv_upper_ok", "atv_lower_ok", "atv_upper_ok")
    assert all(type(getattr(rep, name)) is bool for name in flags)
    assert type(rep.holds) is bool and rep.holds
    assert json.loads(json.dumps(dataclasses.asdict(rep)))["tv_upper_ok"] is True


def test_tv_sandwich_random_tensors():
    rng = np.random.default_rng(12)
    for trial in range(100):
        a = rng.standard_normal((6, 6, 4))
        rep = check_tv_sandwich(a, PSI)
        assert rep.holds, f"trial {trial}: {rep}"


@pytest.mark.parametrize("shape", [(5, 7, 3), (6, 4, 2), (2, 5, 3), (6, 2, 4), (2, 2, 1)])
def test_tv_sandwich_reports_nms_tctv_exactly(shape):
    # odd and even sides, and I_n = 2 on either spatial mode
    a = np.random.default_rng(14).standard_normal(shape)
    assert check_tv_sandwich(a, PSI).nms == nms_tctv(a, PSI)


@pytest.mark.parametrize("alpha", [1e-3, 1.0, 1e3])
def test_tv_sandwich_scale_sweep(alpha):
    rng = np.random.default_rng(13)
    a = rng.standard_normal((6, 6, 4))
    assert check_tv_sandwich(alpha * a, PSI).holds


@pytest.mark.parametrize("call, message", [
    (lambda: tctv(np.ones((3, 3, 2)), modes=(4,)), "modes must be a subset of {1,2,3}, got (4,)"),
    (lambda: check_rank_sandwich(np.ones((3, 3, 2)), np.eye(2), 3), "mode must be 1 or 2, got 3"),
], ids=["tctv-mode-4", "sandwich-mode-3"])
def test_regularizer_guards_name_what_they_reject(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
