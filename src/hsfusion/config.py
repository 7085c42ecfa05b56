"""Flat key=value run configuration shared by the CLI commands.

Unknown keys are rejected; every value is range-checked against the solver
and degradation invariants. Command-line flags override file values, which
override the defaults of ``RunConfig`` (for the solver keys, those of
``SolverConfig``).
"""

from dataclasses import dataclass, fields

from .degradation import NAMED_BAND_TABLES
from .solver import SolverConfig

# Every run key and the type its text parses to; the config file parser and
# the CLI flags are both built from this table.
KEYS = {
    "r": int,
    "gamma": float,
    "rho0": float,
    "nu": float,
    "eps": float,
    "max_iter": int,
    "tau_mode": str,
    "eps_mode": str,
    "factor": int,
    "kernel_size": int,
    "sigma": float,
    "band_table": str,
    "seed": int,
    "peak": float,
}

_SOLVER_KEYS = tuple(f.name for f in fields(SolverConfig) if f.name != "r")
_SOLVER_DEFAULTS = SolverConfig(r=1)


@dataclass(frozen=True)
class RunConfig:
    """Run keys; the solver keys' defaults and checks are SolverConfig's."""

    r: int | None = None
    gamma: float = _SOLVER_DEFAULTS.gamma
    rho0: float = _SOLVER_DEFAULTS.rho0
    nu: float = _SOLVER_DEFAULTS.nu
    eps: float = _SOLVER_DEFAULTS.eps
    max_iter: int = _SOLVER_DEFAULTS.max_iter
    tau_mode: str = _SOLVER_DEFAULTS.tau_mode
    eps_mode: str = _SOLVER_DEFAULTS.eps_mode
    factor: int = 8
    kernel_size: int = 9
    sigma: float = 3.3973
    band_table: str | None = None
    seed: int = 0
    peak: float | None = None

    def __post_init__(self):
        # built only for its checks, so a bad solver key fails before any input is read
        self._solver_config(1 if self.r is None else self.r)
        if self.factor < 1:
            raise ValueError(f"factor must be >= 1, got {self.factor}")
        if self.kernel_size < 1 or self.kernel_size % 2 == 0:
            raise ValueError(f"kernel_size must be odd and positive, got {self.kernel_size}")
        if not self.sigma > 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.peak is not None and not self.peak > 0:
            raise ValueError(f"peak must be positive, got {self.peak}")

    def require_r(self):
        if self.r is None:
            raise ValueError("r (subspace dimension) is required; set it via "
                             "--r or a config file")
        return self.r

    def solver_config(self):
        return self._solver_config(self.require_r())

    def _solver_config(self, r):
        return SolverConfig(r=r, **{key: getattr(self, key) for key in _SOLVER_KEYS})


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


def read_band_table(path_or_name):
    """Resolve a band table: a built-in name or a file of 'low high' lines."""
    if path_or_name in NAMED_BAND_TABLES:
        return NAMED_BAND_TABLES[path_or_name]
    bands = []
    with open(path_or_name, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(
                    f"{path_or_name}:{lineno}: expected 'low_nm high_nm', got {raw!r}"
                )
            low, high = float(parts[0]), float(parts[1])
            if not high > low:
                raise ValueError(
                    f"{path_or_name}:{lineno}: band upper bound must exceed lower"
                )
            bands.append((low, high))
    if not bands:
        raise ValueError(f"{path_or_name}: band table is empty")
    return tuple(bands)
