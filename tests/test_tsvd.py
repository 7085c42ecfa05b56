import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hsfusion import (
    IKONOS_BANDS,
    DimensionError,
    FactorizationError,
    LogSurrogate,
    SceneSpec,
    SolverConfig,
    make_degradation,
    mode_shuffle,
    mode_unshuffle,
    ntpnn,
    ntpnn_prox,
    scalar_prox,
    simulate,
    solve,
    synth_scene,
)
from hsfusion import solver as solver_module
from hsfusion.tsvd import (
    _fourier_singular_values,
    _fourier_slices,
    _from_fourier_slices,
    _mirror_index,
    _subgradient_deviation,
    _thin_slice_svd,
    prox_singular_values,
)

from _theory import identity_tensor, t_product, t_svd, t_transpose, tnn

PSI = LogSurrogate(0.1)
# numpy.exceptions arrived in numpy 1.25; numpy 1.24 keeps the class at the top level
ComplexWarning = getattr(np, "exceptions", np).ComplexWarning


def _bcirc(a):
    """Block-circulant matrix of the frontal slices."""
    i1, i2, i3 = a.shape
    out = np.zeros((i1 * i3, i2 * i3))
    for r in range(i3):
        for c in range(i3):
            out[r * i1 : (r + 1) * i1, c * i2 : (c + 1) * i2] = a[:, :, (r - c) % i3]
    return out


def _tprod_oracle(a, b):
    """t-product through the block-circulant times stacked-slices identity."""
    i1, _, i3 = a.shape
    i2 = b.shape[1]
    stacked = np.concatenate([b[:, :, k] for k in range(i3)], axis=0)
    prod = _bcirc(a) @ stacked
    out = np.zeros((i1, i2, i3))
    for k in range(i3):
        out[:, :, k] = prod[k * i1 : (k + 1) * i1, :]
    return out


# odd and even tubes, I_n = 2 and a single tube
@pytest.mark.parametrize("shape", [(4, 3, 5), (3, 4, 6), (2, 5, 4), (5, 2, 7), (2, 2, 1)])
def test_fourier_slices_are_the_moved_axis_views(shape):
    t = np.random.default_rng(sum(shape)).standard_normal(shape)
    want = np.moveaxis(np.fft.rfft(t, axis=2), 2, 0)
    got = _fourier_slices(t)
    assert got.shape == want.shape and got.strides == want.strides
    assert got.tobytes() == want.tobytes()
    back = np.fft.irfft(np.moveaxis(got, 0, 2), n=shape[2], axis=2)
    assert _from_fourier_slices(got, shape[2]).tobytes() == back.tobytes()
    # slices of another layout too, as the prox's products return them
    dense = got.copy()
    assert _from_fourier_slices(dense, shape[2]).tobytes() == np.fft.irfft(
        np.moveaxis(dense, 0, 2), n=shape[2], axis=2).tobytes()


def test_tproduct_identity():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 4, 5))
    assert np.allclose(t_product(a, identity_tensor(4, 5)), a, atol=1e-12)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(i1=st.integers(1, 6), k=st.integers(1, 6), i2=st.integers(1, 6), i3=st.integers(1, 8),
       seed=st.integers(0, 2**32 - 1))
@example(i1=1, k=1, i2=1, i3=1, seed=0)
@example(i1=6, k=1, i2=6, i3=8, seed=1)
def test_tproduct_matches_block_circulant_oracle(i1, k, i2, i3, seed):
    """Equal to the block-circulant product and to the full-FFT path it
    replaced (slice products over all I3 Fourier slices), to 1e-12 relative."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((i1, k, i3))
    b = rng.standard_normal((k, i2, i3))
    got = t_product(a, b)
    oracle = _tprod_oracle(a, b)
    full = np.fft.ifft(np.einsum("ikf,kjf->ijf", np.fft.fft(a, axis=2), np.fft.fft(b, axis=2)),
                       axis=2)
    assert np.linalg.norm(full.imag) <= 1e-12 * np.linalg.norm(oracle)
    for ref in (oracle, full.real):
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(oracle)


def test_tproduct_warns_on_complex_input():
    """Complex input is not silently truncated: the cast to float emits
    numpy's ComplexWarning, which warnings-as-errors turns into a failure."""
    a = np.ones((2, 2, 3)) + 1j
    with pytest.warns(ComplexWarning):
        t_product(a, np.ones((2, 2, 3)))


def test_tproduct_zeros():
    a = np.random.default_rng(2).standard_normal((3, 2, 4))
    assert not t_product(a, np.zeros((2, 5, 4))).any()


def test_tproduct_rejects_mismatch():
    with pytest.raises(DimensionError):
        t_product(np.zeros((3, 2, 4)), np.zeros((3, 2, 4)))
    with pytest.raises(DimensionError):
        t_product(np.zeros((3, 2, 4)), np.zeros((2, 2, 5)))


def test_tproduct_rejects_a_matrix():
    with pytest.raises(ValueError, match="^t_product expects two 3-way tensors$"):
        t_product(np.zeros((3, 2)), np.zeros((2, 2, 4)))


def test_tsvd_identity_tensor():
    fac = t_svd(identity_tensor(4, 3))
    assert np.allclose(fac.s, identity_tensor(4, 3), atol=1e-12)


def _reconstruct(fac):
    return t_product(t_product(fac.u, fac.s), t_transpose(fac.v))


def test_tsvd_reconstruction_and_orthogonality():
    rng = np.random.default_rng(3)
    t = rng.standard_normal((6, 4, 5))
    fac = t_svd(t)
    err = np.linalg.norm(_reconstruct(fac) - t) / np.linalg.norm(t)
    assert err <= 1e-10
    eye_u = identity_tensor(6, 5)
    eye_v = identity_tensor(4, 5)
    assert np.linalg.norm(t_product(fac.u, t_transpose(fac.u)) - eye_u) <= 1e-10
    assert np.linalg.norm(t_product(fac.v, t_transpose(fac.v)) - eye_v) <= 1e-10


def test_tsvd_f_diagonal_ordering():
    rng = np.random.default_rng(4)
    fac = t_svd(rng.standard_normal((5, 4, 4)))
    sh = np.fft.fft(fac.s, axis=2)
    for f in range(4):
        slab = sh[:, :, f].copy()
        diag = np.real(np.diagonal(slab)).copy()
        k = len(diag)
        slab[np.arange(k), np.arange(k)] = 0.0
        assert np.abs(slab).max() <= 1e-10 * max(diag.max(), 1.0)
        assert (diag >= -1e-12).all()
        assert (np.diff(diag) <= 1e-10).all()


def test_tsvd_constant_tube_reduces_to_matrix_svd():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((4, 3))
    i3 = 5
    t = np.repeat(m[:, :, None], i3, axis=2)
    sh = np.fft.fft(t_svd(t).s, axis=2)
    sig_matrix = np.linalg.svd(m, compute_uv=False)
    sig_zero = np.real(np.diagonal(sh[:, :, 0]))[: len(sig_matrix)]
    assert np.allclose(sig_zero, i3 * sig_matrix, rtol=1e-10)
    assert np.abs(sh[:, :, 1:]).max() <= 1e-10 * sig_zero.max()


def test_tsvd_failure_names_slice():
    bad = np.full((2, 2, 3), np.nan)
    with pytest.raises(FactorizationError, match="slice 0"):
        t_svd(bad)


def _slice_nuclear_oracle(t):
    """Per-slice nuclear norms via eigenvalues of the Gram matrix."""
    th = np.fft.fft(t, axis=2)
    total = 0.0
    for f in range(t.shape[2]):
        slab = th[:, :, f]
        ev = np.linalg.eigvalsh(slab.conj().T @ slab)
        total += np.sqrt(np.clip(ev, 0.0, None)).sum()
    return total / t.shape[2]


def test_tnn_zeros_and_identity():
    assert tnn(np.zeros((3, 4, 5))) == 0.0
    assert tnn(identity_tensor(4, 6)) == pytest.approx(4.0, rel=1e-12)


def test_tnn_matches_slice_oracle():
    rng = np.random.default_rng(6)
    t = rng.standard_normal((5, 4, 3))
    assert tnn(t) == pytest.approx(_slice_nuclear_oracle(t), rel=1e-10)


def test_tnn_triangle_inequality():
    rng = np.random.default_rng(7)
    for _ in range(10):
        a = rng.standard_normal((4, 5, 3))
        b = rng.standard_normal((4, 5, 3))
        assert tnn(a + b) <= tnn(a) + tnn(b) + 1e-10


def test_surrogate_endpoints():
    for gamma in (0.01, 0.1, 1.0, 10.0):
        psi = LogSurrogate(gamma)
        assert psi.value(0.0) == 0.0
        assert psi.value(1.0) == pytest.approx(1.0, rel=1e-14)


def test_surrogate_shape_properties():
    psi = LogSurrogate(0.5)
    x = np.linspace(0.0, 20.0, 400)
    v = psi.value(x)
    assert (np.diff(v) >= 0).all()  # nondecreasing
    assert (np.diff(v, 2) <= 1e-12).all()  # concave
    d = psi.deriv(x)
    assert (np.diff(d) <= 0).all()  # nonincreasing derivative
    assert (np.diff(d, 2) >= -1e-12).all()  # convex derivative
    assert np.isfinite(psi.deriv_at_zero)
    assert psi.deriv(0.0) == pytest.approx(psi.deriv_at_zero, rel=1e-14)


def test_surrogate_rejects_bad_gamma():
    with pytest.raises(ValueError):
        LogSurrogate(0.0)


def test_surrogate_rejects_an_infinite_gamma():
    with pytest.raises(ValueError, match="^surrogate gamma must be positive and finite, got inf$"):
        LogSurrogate(float("inf"))


def _ntpnn_oracle(t, psi):
    th = np.fft.fft(t, axis=2)
    total = 0.0
    for f in range(t.shape[2]):
        sig = np.linalg.svd(th[:, :, f], compute_uv=False)
        total += psi.value(sig).sum()
    return total / t.shape[2]


def test_ntpnn_zeros_and_identity():
    assert ntpnn(np.zeros((3, 4, 2)), PSI) == 0.0
    for gamma in (0.05, 0.1, 2.0):
        psi = LogSurrogate(gamma)
        assert ntpnn(identity_tensor(5, 3), psi) == pytest.approx(5.0, rel=1e-12)


def test_ntpnn_matches_slice_oracle():
    rng = np.random.default_rng(8)
    t = rng.standard_normal((4, 4, 2))
    assert ntpnn(t, PSI) == pytest.approx(_ntpnn_oracle(t, PSI), rel=1e-10)


def test_ntpnn_limit_slope_bound():
    rng = np.random.default_rng(9)
    for _ in range(10):
        t = rng.standard_normal((4, 5, 3))
        assert ntpnn(t, PSI) <= PSI.deriv_at_zero * tnn(t) + 1e-10


def _grid_prox_oracle(s, rho, psi, step=1e-5):
    grid = np.arange(0.0, s + 1.0 + step, step)
    obj = psi.value(grid) + rho * (grid - s) ** 2
    return grid[int(np.argmin(obj))]


def test_scalar_prox_at_zero():
    for rho in (1e-3, 1.0, 1e3):
        assert scalar_prox(0.0, rho, PSI) == 0.0


def test_scalar_prox_rejects_a_negative_input():
    with pytest.raises(ValueError, match="^prox input must be nonnegative, got -1.0$"):
        scalar_prox(-1.0, 1.0, PSI)


@pytest.mark.parametrize("rho", [0.0, -1.0, np.nan])
@pytest.mark.parametrize("prox", [prox_singular_values, ntpnn_prox])
def test_proxes_reject_a_non_positive_rho(prox, rho):
    with pytest.raises(ValueError, match=f"^rho must be positive, got {rho}$"):
        prox(np.ones((2, 2, 3)), rho, PSI)


def test_scalar_prox_large_rho_tracks_input():
    got = scalar_prox(10.0, 1000.0, PSI)
    want = _grid_prox_oracle(10.0, 1000.0, PSI)
    assert abs(got - want) <= 1e-4


def test_scalar_prox_shrinks_small_signals_to_zero():
    got = scalar_prox(0.01, 0.01, PSI)
    assert got == 0.0
    assert _grid_prox_oracle(0.01, 0.01, PSI) == 0.0


def test_scalar_prox_beats_endpoints():
    rng = np.random.default_rng(11)
    for _ in range(50):
        s = float(rng.uniform(0.0, 5.0))
        rho = float(10.0 ** rng.uniform(-2, 2))
        x = scalar_prox(s, rho, PSI)
        obj = lambda v: float(PSI.value(v) + rho * (v - s) ** 2)
        assert obj(x) <= obj(0.0) + 1e-12
        assert obj(x) <= obj(s) + 1e-12


def test_scalar_prox_small_gamma_soft_threshold_limit():
    gamma = 1e-8
    psi = LogSurrogate(gamma)
    for s, rho in ((2.0, 0.5), (0.3, 10.0), (5.0, 0.1)):
        got = scalar_prox(s, rho, psi)
        grid = _grid_prox_oracle(s, rho, psi)
        soft = max(0.0, s - psi.deriv_at_zero / (2.0 * rho))
        assert abs(got - grid) <= 1e-4
        assert abs(got - soft) <= 1e-4


def _two_candidate_prox(sig, rho, psi):
    """prox_singular_values as the best of both clipped stationary points and 0."""
    g = psi.gamma
    a = 2.0 * rho * g
    b = 2.0 * rho * (1.0 - g * sig)
    c = psi.deriv_at_zero - 2.0 * rho * sig
    disc = b * b - 4.0 * a * c
    sq = np.sqrt(np.maximum(disc, 0.0))
    ok = disc >= 0
    r_hi = np.where(ok, np.maximum((-b + sq) / (2.0 * a), 0.0), 0.0)
    r_lo = np.where(ok, np.maximum((-b - sq) / (2.0 * a), 0.0), 0.0)
    best_x = np.zeros_like(sig)
    best_f = rho * sig**2
    for cand in (r_lo, r_hi):
        f = psi.value(cand) + rho * (cand - sig) ** 2
        take = f < best_f
        best_x = np.where(take, cand, best_x)
        best_f = np.where(take, f, best_f)
    return best_x


@pytest.mark.parametrize("gamma", [1e-3, 1e-1, 1.0, 30.0, 1e4])
def test_prox_needs_only_the_larger_stationary_point(gamma):
    # the smaller root of the stationarity quadratic is a local maximum of the
    # objective: dropping it changes no output, on a grid that crosses the
    # shrink-to-zero threshold deriv_at_zero / (2 rho) for every rho
    psi = LogSurrogate(gamma)
    rng = np.random.default_rng(int(gamma * 1000))
    for rho in np.logspace(-6, 10, 33):
        scale = psi.deriv_at_zero / (2.0 * rho)
        sig = np.concatenate([
            [0.0],
            scale * np.linspace(0.0, 4.0, 801),
            scale * 10.0 ** rng.uniform(-3.0, 3.0, 400),
        ])
        want = _two_candidate_prox(sig, rho, psi)
        assert prox_singular_values(sig, rho, psi).tobytes() == want.tobytes()


def test_ntpnn_prox_zeros():
    assert not ntpnn_prox(np.zeros((3, 4, 2)), 1.0, PSI).any()


def test_ntpnn_prox_huge_rho_identity():
    rng = np.random.default_rng(12)
    c = rng.standard_normal((4, 3, 3))
    out = ntpnn_prox(c, 1e9, PSI)
    assert np.linalg.norm(out - c) / np.linalg.norm(c) <= 1e-4


def test_ntpnn_prox_output_is_real():
    rng = np.random.default_rng(13)
    out = ntpnn_prox(rng.standard_normal((5, 4, 6)), 2.0, PSI)
    assert np.isrealobj(out)


def test_ntpnn_prox_local_optimality():
    rng = np.random.default_rng(14)
    c = rng.standard_normal((4, 3, 2))
    rho = 0.7
    g = ntpnn_prox(c, rho, PSI)

    def objective(v):
        return ntpnn(v, PSI) + rho * np.linalg.norm(v - c) ** 2

    base = objective(g)
    for _ in range(200):
        scale = 10.0 ** rng.uniform(-3, 0)
        cand = g + scale * rng.standard_normal(g.shape)
        assert base <= objective(cand) + 1e-10


# ------------------------------------------- batched kernel vs per-slice loops


def _prox_slice_loop(c, rho, psi):
    """ntpnn_prox as a loop over the full FFT spectrum: one SVD per slice pair,
    real SVDs for slices 0 and Nyquist, conjugate mirroring for the rest."""
    ch = np.fft.fft(c, axis=2)
    out = np.zeros_like(ch)
    n = c.shape[2]
    for f in range(n // 2 + 1):
        m = (n - f) % n
        slab = ch[:, :, f]
        if f == m or f == 0:
            slab = slab.real
        u, s, vt = np.linalg.svd(slab, full_matrices=False)
        out[:, :, f] = (u * prox_singular_values(s, rho, psi)) @ vt
        if m != f:
            out[:, :, m] = out[:, :, f].conj()
    back = np.fft.ifft(out, axis=2)
    assert np.linalg.norm(back.imag) <= 1e-8 * max(np.linalg.norm(back.real), np.finfo(float).tiny)
    return back.real


def _singular_values_slice_loop(t):
    th = np.fft.fft(t, axis=2)
    return np.array([np.linalg.svd(th[:, :, f], compute_uv=False) for f in range(t.shape[2])])


def _test_tensor(kind, shape, rng):
    """A random tensor; "rank-deficient" has Fourier slices of rank about half
    the smaller side, "graded" has slice spectra spread over 1 ... 1e-12."""
    if kind == "random":
        return rng.standard_normal(shape)
    i1, i2, i3 = shape
    k = min(i1, i2)
    if kind == "rank-deficient":
        k = (k + 1) // 2
    middle = identity_tensor(k, i3)
    if kind == "graded":
        middle[:, :, 0] = np.diag(np.logspace(0, -12, k))
    left = t_product(rng.standard_normal((i1, k, i3)), middle)
    return t_product(left, rng.standard_normal((k, i2, i3)))


_SIDES = st.sampled_from([1, 2, 3, 5])
_TUBES = st.sampled_from([1, 2, 3, 4, 7, 10])  # 1-4, a larger odd and even length
_KINDS = st.sampled_from(["random", "rank-deficient", "graded"])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(kind=_KINDS, i1=_SIDES, i2=_SIDES, i3=_TUBES, log_rho=st.integers(-2, 12),
       seed=st.integers(0, 2**32 - 1))
def test_batched_kernel_matches_slice_loops(kind, i1, i2, i3, log_rho, seed):
    c = _test_tensor(kind, (i1, i2, i3), np.random.default_rng(seed))
    rho = 10.0**log_rho
    tol = 1e-12 * np.linalg.norm(c)
    assert np.linalg.norm(ntpnn_prox(c, rho, PSI) - _prox_slice_loop(c, rho, PSI)) <= tol
    sv = _fourier_singular_values(c)
    assert sv.shape == (i3, min(i1, i2))
    assert np.abs(sv - _singular_values_slice_loop(c)).max() <= tol


@settings(max_examples=40, deadline=None, derandomize=True)
@given(i1=_SIDES, i2=_SIDES, i3=_TUBES, seed=st.integers(0, 2**32 - 1))
def test_tsvd_reconstructs_odd_and_even_tubes(i1, i2, i3, seed):
    t = np.random.default_rng(seed).standard_normal((i1, i2, i3))
    fac = t_svd(t)
    assert fac.u.shape == (i1, i1, i3) and fac.v.shape == (i2, i2, i3)
    assert np.linalg.norm(_reconstruct(fac) - t) <= 1e-12 * np.linalg.norm(t)
    eye_u = identity_tensor(i1, i3)
    assert np.linalg.norm(t_product(fac.u, t_transpose(fac.u)) - eye_u) <= 1e-12 * i1


def _svd_prox(c, rho, psi):
    """ntpnn_prox through the thin SVD of each stored Fourier slice, U formed."""
    u, s, vh = np.linalg.svd(_fourier_slices(c), full_matrices=False)
    shrunk = prox_singular_values(s, rho, psi)
    return _from_fourier_slices((u * shrunk[:, None, :]) @ vh, c.shape[2])


def _subgradient_deviation_full_svd(g, m, psi, n, rel_rank_tol=1e-8):
    """_subgradient_deviation of the mode-n gradient g and its multiplier m
    through a thin SVD of each stored Fourier slice of their mode-(3-n)
    shuffles, wide ones included, U formed."""
    g = mode_shuffle(g, 3 - n)
    u, s, vh = np.linalg.svd(_fourier_slices(g), full_matrices=False)
    sv_max = float(s.max(initial=0.0))
    if sv_max == 0.0:
        return 0.0, 0
    mh = _fourier_slices(mode_shuffle(m, 3 - n))
    comp = ((u.conj().swapaxes(1, 2) @ mh) * vh.conj()).sum(axis=2)
    keep = s > rel_rank_tol * sv_max
    dev = np.abs(comp - (-0.5 * psi.deriv(s)))[keep].max(initial=0.0)
    return float(dev), int(keep[_mirror_index(g.shape[2])].sum())


def _hadamard(n):
    """Sylvester Hadamard matrix of order n, a power of two."""
    h = np.ones((1, 1))
    while h.shape[0] < n:
        h = np.block([[h, h], [h, -h]])
    return h


@pytest.mark.parametrize("log_spread", [-4, -6, -7.9])
def test_subgradient_deviation_is_as_accurate_as_full_svd_on_graded_spectra(log_spread):
    # g = U diag(sigma) V^T from scaled Hadamard columns and power-of-two
    # sigma is exact in floating point, and m is a random matrix whose
    # components u_i^T m v_i are set to -psi'(sigma_i)/2, so the deviation a
    # route reports is its own error. Both routes' errors grow like
    # eps / min(sigma) and agree to about four digits; either one is the
    # smaller on about half the instances, so the maxima over the instances
    # are compared.
    rows, k = 64, 4
    sigma = 2.0 ** np.round(np.linspace(0.0, log_spread * np.log2(10.0), k))
    errors = {"qr": [], "svd": []}
    for seed in range(10):
        rng = np.random.default_rng(seed)
        signs = rng.choice([-1.0, 1.0], size=k)
        u = _hadamard(rows)[rng.permutation(rows)][:, rng.permutation(rows)[:k]] / 8.0 * signs
        v = _hadamard(k)[rng.permutation(k)] / 2.0
        r = rng.standard_normal((rows, k))
        t = -0.5 * PSI.deriv(sigma) - np.einsum("ij,ik,kj->j", u, r, v)
        g, m = (u * sigma) @ v.T, r + (u * t) @ v.T
        for pair in ((g, m), (g.T, m.T)):  # tall and wide
            g3, m3 = (a[:, :, None] for a in pair)
            # the oracle reads the pair as a mode-1 gradient and its multiplier
            g1, m1 = (mode_unshuffle(a, 2) for a in (g3, m3))
            for route, (dev, kept) in (
                ("qr", _subgradient_deviation(g3, m3, PSI)),
                ("svd", _subgradient_deviation_full_svd(g1, m1, PSI, 1)),
            ):
                assert kept == k
                errors[route].append(dev)
    assert max(errors["qr"]) <= (1.0 + 1e-3) * max(errors["svd"])


def test_prox_matches_svd_prox_on_late_iterations(monkeypatch):
    # prox inputs of the 64x64x32 acceptance solve from iteration 400 on,
    # where rho has grown past 2.9e5 and small singular values survive the
    # prox; and the KKT subgradient check on the final state
    calls, inputs, checks = [], [], []
    prox = solver_module.ntpnn_prox
    check = solver_module._subgradient_deviation

    def recording_prox(c, rho, psi):
        calls.append(rho)
        if len(calls) > 2 * 400:  # two proxes per iteration
            inputs.append((c.copy(), rho))
        return prox(c, rho, psi)

    def recording_check(g, m, psi):
        checks.append(((g, m, psi), check(g, m, psi)))
        return checks[-1][1]

    monkeypatch.setattr(solver_module, "ntpnn_prox", recording_prox)
    monkeypatch.setattr(solver_module, "_subgradient_deviation", recording_check)
    z, _, _ = synth_scene(SceneSpec(shape=(64, 64, 32), r=3, blocks=4, seed=14))
    deg = make_degradation(z.shape, 4, 9, 3.3973, IKONOS_BANDS)
    x, y = simulate(z, deg)
    _, diag = solve(x, y, deg.p1, deg.p2, deg.p3, SolverConfig(r=3))
    assert len(inputs) == 2 * (diag.iterations - 400) > 0
    assert inputs[0][1] > 2.9e5
    for c, rho in inputs:
        want = _svd_prox(c, rho, PSI)
        assert np.linalg.norm(ntpnn_prox(c, rho, PSI) - want) <= 1e-12 * np.linalg.norm(want)
    assert [kept for _, (_, kept) in checks] == [156, 165]
    # kkt_check checks g1 then g2, each in its NTPNN's layout
    for n, ((g, m, psi), (dev, kept)) in enumerate(checks, start=1):
        want_dev, want_kept = _subgradient_deviation_full_svd(
            mode_unshuffle(g, 3 - n), mode_unshuffle(m, 3 - n), psi, n)
        assert kept == want_kept
        assert abs(dev - want_dev) <= 1e-15


@pytest.mark.parametrize("shape", [(5, 3, 6), (3, 5, 6)])  # tall and wide slices
def test_non_finite_input_names_fourier_slice(shape):
    bad = np.random.default_rng(15).standard_normal(shape)
    bad[1, 2, 3] = np.nan  # a tube's NaN reaches every one of its Fourier slices
    with pytest.raises(FactorizationError, match="Fourier slice 0"):
        ntpnn_prox(bad, 1.0, PSI)
    with pytest.raises(FactorizationError, match="Fourier slice 0"):
        tnn(bad)


def test_thin_kernel_names_the_input_slice():
    slices = np.random.default_rng(16).standard_normal((4, 6, 3)).astype(complex)
    slices[2, 5, 0] = np.inf
    with pytest.raises(FactorizationError, match="Fourier slice 2"):
        _thin_slice_svd(slices)
