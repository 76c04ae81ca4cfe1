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
            if not (isinstance(value, (int, float)) and math.isfinite(value) and value >= 0):
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
            if not (isinstance(value, int) and value >= least):
                raise DomainError(f"grid {name} must be an integer >= {least}, got {value!r}")
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
        current = getattr(section, key)
        if isinstance(current, tuple):
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
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    tol = _merge(cfg.tolerances, data.get("tolerances", {}))
    grids = _merge(cfg.grids, data.get("grids", {}))
    return Config(tol, grids)


def apply_overrides(cfg: Config, tol: dict[str, float], grids: dict[str, Any]) -> Config:
    """Flag-level overrides on top of an existing config."""
    return Config(_merge(cfg.tolerances, tol), _merge(cfg.grids, grids))
