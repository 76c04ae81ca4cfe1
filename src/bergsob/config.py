"""Dataclass configuration: tolerances and grid choices.

Grid choices for the property suites are configuration, not constants;
the shipped defaults are mirrored in ``configs/defaults.json`` at the
repository root.  Overrides merge in precedence order
flags > config file > defaults; the config file is located by an
explicit ``--config`` path or the ``BERGSOB_CONFIG`` environment
variable.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass, field
from typing import Any, Optional

from .errors import DomainError

__all__ = [
    "Tolerances",
    "Grids",
    "Config",
    "default_config",
    "load_config",
    "CONFIG_ENV",
    "SCHEMA_VERSION",
]

CONFIG_ENV = "BERGSOB_CONFIG"
SCHEMA_VERSION = 1  # version stamp of every machine-readable payload


# the least count each suite can use; the growth fit's second differences need 3 eps points
_MIN_COUNTS = dict(special_points=1, geometry_samples=1, lattice_jmax=1, lattice_kmax=0,
                   eps_fit_lo=1, eps_fit_hi=3, gram_count=1)

# the range of every other grid value (each entry, for a list), as its suite uses it:
# special_lo/hi span a log grid, holder_s and moment_s_hi are weights s < 1/2, the mus
# need mu > 1, y is drawn from U(-moment_y_hi, moment_y_hi), whose width must be a
# finite double, and each sharpness r is certified continuous at r - 0.02 >= 0.  The
# geometry suite's cover points (deck shifts |k| <= 2, rotations |t1| <= pi) reach
# |z2|^2 ~ e^(6 pi mu), which fits in a double only for mu < 37.6.
_POSITIVE = ("> 0", lambda v: v > 0.0)
_WEIGHT = ("in [0, 1/2)", lambda v: 0.0 <= v < 0.5)
_MU = ("> 1", lambda v: v > 1.0)
_RANGES = dict(special_lo=_POSITIVE, special_hi=_POSITIVE, holder_s=_WEIGHT,
               mu_samples=("in (1, 37]", lambda v: 1.0 < v <= 37.0), moment_mu=_MU,
               moment_y_hi=("in [0, 8.9e307]", lambda v: 0.0 <= v <= 8.9e307),
               moment_s_hi=_WEIGHT,
               sharpness_r=("in [0.02, 1/2)", lambda v: 0.02 <= v < 0.5))


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


@dataclass(frozen=True)
class Tolerances:
    recursion_residual: float = 1e-10
    holder_slack: float = 1e-9
    oracle_agreement: float = 1e-10
    geometry_residual: float = 1e-12
    levi_floor: float = 1e-10
    moment_cross: float = 1e-8
    ratio_slack: float = 1e-9
    gram_offdiag: float = 1e-8
    gram_diag: float = 1e-6
    growth_exponent: float = 0.05
    threshold_roundtrip: float = 1e-12

    def __post_init__(self):
        for name, value in vars(self).items():
            if not (_is_number(value) and value >= 0):
                raise DomainError(f"tolerance {name} must be finite and >= 0, got {value!r}")


@dataclass(frozen=True)
class Grids:
    special_lo: float = 1e-2
    special_hi: float = 50.0
    special_points: int = 6
    holder_s: tuple[float, ...] = (0.0, 0.1, 0.2, 0.3, 0.4, 0.49)
    mu_samples: tuple[float, ...] = (1.5, 2.0, 2.5, 3.0, 4.2857142857142856)
    geometry_samples: int = 1000
    lattice_jmax: int = 40
    lattice_kmax: int = 40
    eps_fit_lo: int = 4
    eps_fit_hi: int = 16
    moment_mu: tuple[float, ...] = (1.5, 2.0, 3.0)
    moment_y_hi: float = 4.0
    moment_s_hi: float = 0.45
    sharpness_r: tuple[float, ...] = (0.2, 0.4)
    gram_count: int = 25

    def __post_init__(self):
        for name, least in _MIN_COUNTS.items():
            value = getattr(self, name)
            if not (isinstance(value, int) and not isinstance(value, bool) and value >= least):
                raise DomainError(f"grid {name} must be an integer >= {least}, got {value!r}")
        for name, (rule, within) in _RANGES.items():
            value = getattr(self, name)
            if isinstance(getattr(Grids, name), tuple):
                what = f"a non-empty list of finite numbers {rule}"
                ok = isinstance(value, tuple) and len(value) > 0 and all(
                    _is_number(v) and within(v) for v in value
                )
            else:
                what = f"a finite number {rule}"
                ok = _is_number(value) and within(value)
            if not ok:
                raise DomainError(f"grid {name} must be {what}, got {value!r}")
        if self.eps_fit_hi - self.eps_fit_lo < 2:
            span = f"{self.eps_fit_lo}..{self.eps_fit_hi}"
            raise DomainError(f"grid eps_fit_lo..eps_fit_hi must span >= 3 points, got {span}")


@dataclass(frozen=True)
class Config:
    tolerances: Tolerances = field(default_factory=Tolerances)
    grids: Grids = field(default_factory=Grids)

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)


def default_config() -> Config:
    return Config()


def _merge(section, overrides: dict[str, Any]):
    fields = {f.name: f for f in dataclasses.fields(section)}
    updates = {}
    for key, value in overrides.items():
        if key not in fields:
            raise KeyError(f"unknown config key {key!r} for {type(section).__name__}")
        if isinstance(getattr(section, key), tuple) and isinstance(value, list):
            value = tuple(value)
        updates[key] = value
    return dataclasses.replace(section, **updates)


def load_config(path: Optional[str] = None) -> Config:
    """Defaults, optionally updated from a JSON file.

    The file may carry any subset of the keys under "tolerances" and
    "grids"; unknown keys are an error.
    """
    cfg = default_config()
    if path is None:
        path = os.environ.get(CONFIG_ENV)
    if not path:
        return cfg
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, ValueError) as exc:
        raise DomainError(f"cannot read config file {path}: {exc}") from None
    sections = [data.get(key, {}) if isinstance(data, dict) else None for key in ("tolerances", "grids")]
    if not all(isinstance(section, dict) for section in sections):
        raise DomainError(f'config file {path}: "tolerances" and "grids" must be JSON objects')
    return Config(_merge(cfg.tolerances, sections[0]), _merge(cfg.grids, sections[1]))


def apply_overrides(cfg: Config, tol: dict[str, float], grids: dict[str, Any]) -> Config:
    """Flag-level overrides on top of an existing config."""
    return Config(_merge(cfg.tolerances, tol), _merge(cfg.grids, grids))
