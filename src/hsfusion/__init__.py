"""Hyperspectral/multispectral image fusion via low-rank tensor recovery.

Fuses a low-spatial-resolution hyperspectral cube with a high-spatial-
resolution multispectral cube. The latent cube is factored into spatial maps
times a semi-unitary spectral basis; the maps are regularized by a
non-convex, mode-shuffled correlated total variation and recovered with a
linearized ADMM-style solver with convergence diagnostics.
"""

from .config import RunConfig, build_run_config, load_config_file, read_band_table
from .degradation import (
    IKONOS_BANDS,
    LANDSAT7_BANDS,
    DegradationSet,
    SceneSpec,
    build_spatial_degradation,
    build_spectral_response,
    default_wavelengths,
    gamma_calibrate,
    gaussian_kernel_1d,
    make_degradation,
    simulate,
    synth_scene,
)
from .errors import (
    DimensionError,
    DivergenceError,
    FactorizationError,
    FusionError,
    MetricUndefinedError,
    TensorFileError,
)
from .metrics import MetricReport, bicubic_upsample, ergas, evaluate, psnr, sam, ssim
from .regularizer import (
    RankSandwichReport,
    TvSandwichReport,
    check_rank_sandwich,
    check_tv_sandwich,
    gradient_tensor,
    mode_tsvd_rank,
    nms_tctv,
    tctv,
    tsvd_rank,
)
from .solver import (
    Diagnostics,
    FusionProblem,
    KKTReport,
    SolverConfig,
    SolverState,
    extract_subspace,
    grad_a,
    kkt_check,
    lipschitz_tau,
    operator_norm,
    residuals,
    solve,
    step_a,
    step_g,
    update_multipliers,
)
from .tensor import (
    atv_norm,
    diff_matrix,
    fold,
    mode_n_product,
    mode_shuffle,
    mode_unshuffle,
    tv_norm,
    unfold,
)
from .tensorfile import load_cube, read_envi, read_tensor, write_tensor
from .tsvd import (
    LogSurrogate,
    TSvdFactors,
    identity_tensor,
    mode_ntpnn,
    ntpnn,
    ntpnn_prox,
    scalar_prox,
    t_product,
    t_svd,
    t_transpose,
    tnn,
)

__version__ = "0.1.0"
