"""Run configuration: defaults, flat key=value config files, CLI overrides."""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

import numpy as np

from .oscillator import validate_params, validate_positive
from .spectrum import MAX_BAND_LEVELS

ENV_CONFIG_PATH = "BRANEKIT_CONFIG"

FORMAT_DELIMITED = "delimited"
FORMAT_STRUCTURED = "structured"

#: Named thresholds used across the checks; every entry must stay finite and positive.
#: ``trust_mass`` is the squared-norm fraction on the top truncation levels above
#: which an eigenvector is considered contaminated by the cutoff.
DEFAULT_TOLERANCES = {
    "route_equivalence": 1e-10,
    "eigenvalue_match": 1e-6,
    "trust_mass": 1e-6,
    "minimizer": 1e-8,
    "stationarity": 1e-12,
    "block_eigensolve": 1e-12,
    "hyperbola": 1e-10,
}


@dataclass(frozen=True, slots=True)
class Gate:
    """``value <= bound`` elementwise; NaN or a non-finite bound fails.  ``str``: the stderr tail."""

    name: str
    value: float | np.ndarray
    bound: float | np.ndarray

    @property
    def ok(self) -> np.bool_ | np.ndarray:
        return np.isfinite(self.bound) & (self.value <= self.bound)

    def __str__(self) -> str:
        return f"{self.value:.3e} ({'pass' if self.ok else 'FAIL'} at {self.bound:.1e})"


_INT_KEYS = {"N", "margin_k", "n_max", "seed"}
_FLOAT_KEYS = {"theta", "z2", "R"}


@dataclass(frozen=True)
class RunConfig:
    """Validated physical parameters, truncation sizes, and thresholds."""

    theta: float = np.pi / 3.0
    z2: float = 1.0
    R: float = 1.0
    N: int = 24
    margin_k: int = 4
    n_max: int = 12
    seed: int = 20240817
    tolerances: dict[str, float] = field(default_factory=lambda: dict(DEFAULT_TOLERANCES))
    output_format: str = FORMAT_DELIMITED

    def validate(self) -> "RunConfig":
        validate_params(self.theta, self.z2, self.R)
        if self.N < 4:
            raise ValueError(f"N must be >= 4, got {self.N}")
        if not 0 < self.margin_k < self.N:
            raise ValueError(f"margin_k must be in (0, N), got {self.margin_k}")
        if not 0 <= self.n_max <= MAX_BAND_LEVELS:
            raise ValueError(f"n_max must be in [0, {MAX_BAND_LEVELS}], got {self.n_max}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        unknown = set(self.tolerances) - set(DEFAULT_TOLERANCES)
        if unknown:
            raise ValueError(f"unknown tolerance names: {sorted(unknown)}")
        for name, value in self.tolerances.items():
            validate_positive(f"tolerance {name}", value)
        if self.output_format not in (FORMAT_DELIMITED, FORMAT_STRUCTURED):
            raise ValueError(f"unknown output format {self.output_format!r}")
        return self

    def tol(self, name: str) -> float:
        return self.tolerances[name]


def read_config_file(path: str) -> dict[str, str]:
    """Parse a flat ``key = value`` file; '#' starts a comment."""
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return values


def default_config_path() -> str | None:
    return os.environ.get(ENV_CONFIG_PATH) or None


def _parse(key: str, raw: str, kind: type) -> float | int:
    """``kind(raw)``, or a ValueError that names the config key."""
    try:
        return kind(raw)
    except ValueError:
        raise ValueError(f"config key {key!r} must be {kind.__name__}, got {raw!r}") from None


def build_config(
    file_values: dict[str, str] | None = None,
    overrides: dict[str, object] | None = None,
) -> RunConfig:
    """Layer defaults, then config-file values, then explicit overrides."""
    config = RunConfig()
    if file_values:
        updates: dict[str, object] = {}
        tolerances = dict(config.tolerances)
        for key, raw in file_values.items():
            if key in _FLOAT_KEYS:
                updates[key] = _parse(key, raw, float)
            elif key in _INT_KEYS:
                updates[key] = _parse(key, raw, int)
            elif key == "format":
                updates["output_format"] = raw
            elif key.startswith("tol_"):
                tolerances[key[4:]] = _parse(key, raw, float)
            else:
                raise ValueError(f"unknown config key {key!r}")
        updates["tolerances"] = tolerances
        config = replace(config, **updates)
    if overrides:
        clean = {k: v for k, v in overrides.items() if v is not None}
        if clean:
            config = replace(config, **clean)
    return config.validate()
