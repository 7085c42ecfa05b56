"""Flat key=value run configuration shared by the CLI commands.

Unknown keys are rejected; every value must hold its declared type (never a
bool), and is range-checked against the solver and degradation invariants, a
float key to be finite. Command-line flags override file values, which
override the defaults of ``RunConfig``. ``RunConfig`` extends ``SolverConfig``,
so each solver key, its default and its checks are declared once, there.

Each rule a key shares with a library function (gamma, tau_mode, kernel_size,
sigma, seed, peak) is one ``_check_*`` here, so both raise the same error.

This module imports no numpy, so a command that only reads its configuration
(or none) starts without the numerical stack.
"""

import math
import numbers
from dataclasses import dataclass, fields
from typing import get_args

TAU_MODES = ("paper", "safe")
EPS_MODES = ("absolute", "relative")
SPECTRA_KINDS = ("random", "smooth")
# a key type's admitted values and their name: numpy's pass; bool, though Integral, does not
_KINDS = {int: (numbers.Integral, "an integer"), float: (numbers.Real, "a real number"),
          str: (str, "a string")}


def _is_int(value):
    """An integer, numpy's included, but not a bool (as RunConfig's keys take them)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_integral(value):
    """An integer or a float of integral value, numpy's included, but not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and value % 1 == 0


def _is_finite(value):
    """math.isfinite for any real, with an int beyond float range not finite."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _check_type(name, value, typ):
    kind, what = _KINDS[typ]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError(f"{name} must be {what}, got {value!r}")


def _check_positive_finite(name, value):  # gamma, sigma; rho0, eps, the resolution ratio
    _check_type(name, value, float)
    if not (value > 0 and _is_finite(value)):
        raise ValueError(f"{name} must be positive and finite, got {value}")


def _check_one_of(name, value, choices):  # tau_mode; eps_mode; spectra
    if value not in choices:
        raise ValueError(f"{name} must be one of {choices}, got {value!r}")


def _check_kernel_size(size):  # a float of integral value names the same size
    if not (_is_integral(size) and size >= 1 and size % 2 == 1):
        raise ValueError(f"kernel_size must be an odd positive integer, got {size!r}")


def _check_seed(seed):  # each caller applies the type rule first
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")


def _check_peak(peak):  # the fourth power scales SSIM's C1 C2
    _check_type("peak", peak, float)
    if not (peak > 0 and _is_finite(peak) and math.isfinite((p := float(peak)) * p * p * p)):
        raise ValueError(f"peak must be positive and finite, its fourth power too, got {peak}")


@dataclass(frozen=True)
class SolverConfig:
    """Solver hyperparameters; defaults follow the slow-growth schedule.

    ``eps`` is compared against the max constraint residual directly
    (absolute mode, the default) or after dividing by |X|_F (relative mode).
    Neither stops a run on data the model cannot fit exactly: noise leaves
    residual floors of 1-3% of |X|_F (40 to 30 dB SNR), far above eps |X|_F,
    so the run ends at ``max_iter``, and that iterate is the result to read.
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
        for f in fields(self):  # RunConfig's fields too, whose r and peak may be None
            if (value := getattr(self, f.name)) is not None or f.type in _KINDS:
                _check_type(f.name, value, (get_args(f.type) or (f.type,))[0])
        if self.r is not None and self.r < 1:
            raise ValueError(f"subspace dimension must be >= 1, got {self.r}")
        _check_positive_finite("gamma", self.gamma)
        _check_positive_finite("rho0", self.rho0)
        if not (self.nu > 1 and _is_finite(self.nu)):
            raise ValueError(f"nu must be finite and exceed 1, got {self.nu}")
        _check_positive_finite("eps", self.eps)
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        _check_one_of("tau_mode", self.tau_mode, TAU_MODES)
        _check_one_of("eps_mode", self.eps_mode, EPS_MODES)


@dataclass(frozen=True)
class RunConfig(SolverConfig):
    """Run keys: the solver keys, with their defaults and checks, are
    SolverConfig's; only ``r`` is optional here, until a command needs it."""

    r: int | None = None
    factor: int = 8
    kernel_size: int = 9
    sigma: float = 3.3973
    band_table: str = "ikonos"
    seed: int = 0
    peak: float | None = None

    def __post_init__(self):
        # SolverConfig's checks, the type rule included: a bad key fails before any input
        super().__post_init__()
        if self.factor < 1:
            raise ValueError(f"factor must be >= 1, got {self.factor}")
        _check_kernel_size(self.kernel_size)
        _check_positive_finite("sigma", self.sigma)
        _check_seed(self.seed)
        if self.peak is not None:
            _check_peak(self.peak)

    def require_r(self):
        if self.r is None:
            raise ValueError("r (subspace dimension) is required; set it via "
                             "--r or a config file")
        return self.r

    def solver_config(self):
        values = {f.name: getattr(self, f.name) for f in fields(SolverConfig)}
        return SolverConfig(**{**values, "r": self.require_r()})


# Every run key and the type its text parses to (``int | None`` parses as
# int); the config file parser and the CLI flags are both built from this table.
KEYS = {f.name: (get_args(f.type) or (f.type,))[0] for f in fields(RunConfig)}


def parse_config_text(text, source="<config>"):
    """Parse key=value lines ('#' comments allowed) into a raw value dict."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{source}:{lineno}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in KEYS:
            raise ValueError(f"{source}:{lineno}: unknown key {key!r}")
        try:
            values[key] = KEYS[key](val)
        except ValueError as exc:
            raise ValueError(f"{source}:{lineno}: bad value for {key!r}: {exc}") from exc
    return values


def load_config_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read(), source=str(path))


def build_run_config(file_values=None, overrides=None):
    """Merge defaults <- config file <- explicit overrides into a RunConfig."""
    merged = {}
    for source in (file_values or {}, overrides or {}):
        for key, val in source.items():
            if key not in KEYS:
                raise ValueError(f"unknown config key {key!r}")
            if val is not None:
                merged[key] = val
    return RunConfig(**merged)
