"""Flat key=value run configuration shared by the CLI commands.

Unknown keys are rejected; every value must hold its declared type (never a
bool), and is range-checked against the solver and degradation invariants, a
float key to be finite. Command-line flags override file values, which
override the defaults of ``RunConfig``. ``RunConfig`` extends ``SolverConfig``,
so each solver key, its default and its checks are declared once, there.

This module imports no numpy, so a command that only reads its configuration
(or none) starts without the numerical stack.
"""

import math
import numbers
from dataclasses import dataclass, fields
from typing import get_args

TAU_MODES = ("paper", "safe")
EPS_MODES = ("absolute", "relative")


def _is_int(value):
    """An integer, numpy's included, but not a bool (as RunConfig's keys take them)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_integral(value):
    """An integer or a float of integral value, numpy's included, but not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and value % 1 == 0


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
        kinds = {int: (numbers.Integral, "an integer"), float: (numbers.Real, "a real number"),
                 str: (str, "a string")}  # numpy numbers pass; bool, though Integral, does not
        for f in fields(self):  # RunConfig's fields too, whose r and peak may be None
            value, (kind, name) = getattr(self, f.name), kinds[(get_args(f.type) or (f.type,))[0]]
            if not (isinstance(value, kind) and not isinstance(value, bool)
                    or value is None and f.type not in kinds):
                raise ValueError(f"{f.name} must be {name}, got {value!r}")
        if self.r is not None and self.r < 1:
            raise ValueError(f"subspace dimension must be >= 1, got {self.r}")
        if not (self.gamma > 0 and math.isfinite(self.gamma)):
            raise ValueError(f"gamma must be positive and finite, got {self.gamma}")
        if not (self.rho0 > 0 and math.isfinite(self.rho0)):
            raise ValueError(f"rho0 must be positive and finite, got {self.rho0}")
        if not (self.nu > 1 and math.isfinite(self.nu)):
            raise ValueError(f"nu must be finite and exceed 1, got {self.nu}")
        if not (self.eps > 0 and math.isfinite(self.eps)):
            raise ValueError(f"eps must be positive and finite, got {self.eps}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        if self.tau_mode not in TAU_MODES:
            raise ValueError(f"tau_mode must be one of {TAU_MODES}, got {self.tau_mode!r}")
        if self.eps_mode not in EPS_MODES:
            raise ValueError(f"eps_mode must be one of {EPS_MODES}, got {self.eps_mode!r}")


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
        if self.kernel_size < 1 or self.kernel_size % 2 == 0:
            raise ValueError(f"kernel_size must be odd and positive, got {self.kernel_size}")
        if not (self.sigma > 0 and math.isfinite(self.sigma)):
            raise ValueError(f"sigma must be positive and finite, got {self.sigma}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        peak = self.peak  # its fourth power scales SSIM's C1 C2, so it must be finite too
        if peak is not None and not (peak > 0 and math.isfinite((p := float(peak)) * p * p * p)):
            raise ValueError(f"peak must be positive and finite, its fourth power too, got {peak}")

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
