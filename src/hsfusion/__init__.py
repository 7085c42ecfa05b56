"""Hyperspectral/multispectral image fusion via low-rank tensor recovery.

Fuses a low-spatial-resolution hyperspectral cube with a high-spatial-
resolution multispectral cube. The latent cube is factored into spatial maps
times a semi-unitary spectral basis; the maps are regularized by a
non-convex, mode-shuffled correlated total variation and recovered with a
linearized ADMM-style solver with convergence diagnostics.

The public names below are resolved on first use (PEP 562), so importing the
package, or a submodule that needs little, does not load numpy and every
other submodule.
"""

import importlib

_EXPORTS = {
    "config": ("RunConfig", "SolverConfig", "build_run_config", "load_config_file"),
    "degradation": (
        "IKONOS_BANDS", "LANDSAT7_BANDS", "DegradationSet", "SceneSpec",
        "build_spatial_degradation", "build_spectral_response", "default_wavelengths",
        "gaussian_kernel_1d", "make_degradation", "read_band_table", "simulate",
        "synth_scene",
    ),
    "errors": (
        "DimensionError", "DivergenceError", "FactorizationError", "FusionError",
        "MetricUndefinedError", "TensorFileError",
    ),
    "metrics": (
        "MetricReport", "bicubic_upsample", "ergas", "evaluate", "psnr", "sam", "ssim",
    ),
    "regularizer": ("nms_tctv",),
    "solver": (
        "Diagnostics", "FusionProblem", "KKTReport", "SolverState", "extract_subspace",
        "grad_a", "kkt_check", "lipschitz_tau", "residuals", "solve",
        "step_a", "step_g", "update_multipliers",
    ),
    "tensor": ("difference", "mode_n_product", "mode_shuffle", "mode_unshuffle", "unfold"),
    "tensorfile": ("load_cube", "read_envi", "read_tensor", "write_tensor"),
    "tsvd": ("LogSurrogate", "ntpnn", "ntpnn_prox"),
}

# public name -> the submodule that defines it
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
