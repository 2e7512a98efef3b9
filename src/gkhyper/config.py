"""Run configuration: schema-validated nested dataclasses loaded from YAML.

Unknown keys are rejected up front so a typo cannot silently fall back to a
default; all validation happens before any compute.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np
import yaml

__all__ = ["ConfigError", "RunConfig", "load_config", "config_from_dict"]


class ConfigError(ValueError):
    """Invalid or malformed run configuration."""


# theta of both problems
_THETA = "3 positive values (noise variance, prior std, correlation length)"


def _has_bool(value) -> bool:
    if isinstance(value, (list, tuple)):
        return any(_has_bool(v) for v in value)
    return isinstance(value, bool)


def _check_numbers(obj, prefix: str = "") -> None:
    # NaN passes every "<= 0" test, so non-finite numbers are rejected first;
    # an integer field takes an integer only, since a fraction, a string or a
    # bool would otherwise be truncated or fail inside the build; a bool
    # anywhere else would be read as 0 or 1
    for f in fields(obj):
        value = getattr(obj, f.name)
        if f.type == "int":
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigError(f"{prefix}{f.name} must be an integer, got {value!r}")
            continue
        if _has_bool(value):
            raise ConfigError(f"{prefix}{f.name} must not be a bool, got {value!r}")
        if isinstance(value, str):
            continue
        try:
            arr = np.asarray(value, dtype=float)
        except (TypeError, ValueError):
            continue  # not numeric; the section's own checks report it
        if not np.all(np.isfinite(arr)):
            raise ConfigError(f"{prefix}{f.name} must be finite, got {value!r}")


def _positive(values, where: str, shape: tuple, what: str) -> np.ndarray:
    try:
        arr = np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        arr = np.empty(0)
    if arr.shape != shape or np.any(arr <= 0):
        raise ConfigError(f"{where} must be {what}, got {values!r}")
    return arr


@dataclass
class ProblemConfig:
    name: str = "heat1d"
    n: int = 256
    kappa: float = 1.0
    grid: int = 24
    n_rays: int = 360
    noise_level: float = 0.02
    prior_std: float = 0.8
    ell: float = 0.08

    def validate(self):
        if self.name not in ("heat1d", "ray_tomo"):
            raise ConfigError(f"unknown problem {self.name!r}")
        if self.name == "heat1d" and self.n < 2:
            raise ConfigError("heat1d needs n >= 2")
        if self.name == "ray_tomo" and (self.grid < 4 or self.n_rays < 1):
            raise ConfigError("ray_tomo needs grid >= 4 and n_rays >= 1")
        if self.noise_level < 0:
            raise ConfigError("noise_level must be nonnegative")
        if self.kappa <= 0:
            raise ConfigError("kappa must be positive")
        if self.prior_std <= 0 or self.ell <= 0:
            raise ConfigError("prior_std and ell must be positive")


@dataclass
class KernelConfig:
    nu: float = 1.5

    def validate(self):
        if self.nu <= 0:
            raise ConfigError("nu must be positive")


@dataclass
class HyperpriorConfig:
    kind: str = "flat"
    gamma: float = 1e-4

    def validate(self):
        if self.kind not in ("flat", "gamma"):
            raise ConfigError(f"hyperprior kind must be flat or gamma, got {self.kind!r}")
        if self.gamma <= 0:
            raise ConfigError("gamma must be positive")


@dataclass
class EstimateConfig:
    k: int = 22
    theta0: list = field(default_factory=lambda: [1e-4, 0.5, 0.1])
    bounds: list = field(
        default_factory=lambda: [[1e-10, 1.0], [1e-3, 10.0], [5e-3, 0.5]]
    )
    parameterization: str = "log"
    max_iters: int = 200
    grad_tol: float = 1e-6

    def validate(self):
        if self.k < 1:
            raise ConfigError("estimate.k must be at least 1")
        theta0 = _positive(self.theta0, "estimate.theta0", (3,), _THETA)
        bounds = _positive(self.bounds, "estimate.bounds", (3, 2),
                           "3 positive [low, high] rows")
        if np.any(bounds[:, 0] >= bounds[:, 1]):
            raise ConfigError("estimate.bounds must have low < high in every row")
        if np.any(theta0 < bounds[:, 0]) or np.any(theta0 > bounds[:, 1]):
            raise ConfigError("estimate.theta0 must lie within estimate.bounds")
        if self.parameterization != "log":
            raise ConfigError("estimate.parameterization must be log (L-BFGS-B runs "
                              f"in log theta), got {self.parameterization!r}")
        if self.max_iters < 1:
            raise ConfigError("estimate.max_iters must be at least 1")
        if self.grad_tol < 0:
            raise ConfigError("estimate.grad_tol must be nonnegative")


@dataclass
class MonitorConfig:
    k_max: int = 50
    n_mc: int = 10
    probe_kind: str = "gaussian"
    theta: list = field(default_factory=lambda: [1e-5, 0.4, 0.08])

    def validate(self):
        if self.k_max < 1:
            raise ConfigError("monitor.k_max must be at least 1")
        if self.n_mc < 1:
            raise ConfigError("monitor.n_mc must be at least 1")
        if self.probe_kind not in ("gaussian", "rademacher"):
            raise ConfigError("probe_kind must be gaussian or rademacher")
        _positive(self.theta, "monitor.theta", (3,), _THETA)


@dataclass
class ReconstructConfig:
    theta: list = field(default_factory=lambda: [1e-5, 0.4, 0.08])
    k: int = 22

    def validate(self):
        if self.k < 1:
            raise ConfigError("reconstruct.k must be at least 1")
        _positive(self.theta, "reconstruct.theta", (3,), _THETA)


@dataclass
class RunConfig:
    problem: ProblemConfig = field(default_factory=ProblemConfig)
    kernel: KernelConfig = field(default_factory=KernelConfig)
    hyperprior: HyperpriorConfig = field(default_factory=HyperpriorConfig)
    estimate: EstimateConfig = field(default_factory=EstimateConfig)
    monitor: MonitorConfig = field(default_factory=MonitorConfig)
    reconstruct: ReconstructConfig = field(default_factory=ReconstructConfig)
    seed: int = 0
    dense_cap: int = 4096

    def validate(self):
        for name in _SECTIONS:
            section = getattr(self, name)
            _check_numbers(section, f"{name}.")
            try:
                section.validate()
            except ConfigError:
                raise
            except (TypeError, ValueError) as exc:
                # a value of the wrong type, e.g. a string where a number belongs
                raise ConfigError(f"bad values in {name!r}: {exc}") from exc
        _check_numbers(self)
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        if self.dense_cap < 1:
            raise ConfigError("dense_cap must be positive")


_SECTIONS = {
    "problem": ProblemConfig,
    "kernel": KernelConfig,
    "hyperprior": HyperpriorConfig,
    "estimate": EstimateConfig,
    "monitor": MonitorConfig,
    "reconstruct": ReconstructConfig,
}


def _build_section(cls, payload, where):
    if not isinstance(payload, dict):
        raise ConfigError(f"section {where!r} must be a mapping")
    known = {f.name for f in fields(cls)}
    unknown = set(payload) - known
    if unknown:
        raise ConfigError(f"unknown keys in {where!r}: {sorted(unknown)}")
    return cls(**payload)


def config_from_dict(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError("configuration root must be a mapping")
    known = set(_SECTIONS) | {"seed", "dense_cap"}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown top-level keys: {sorted(unknown)}")
    kwargs = {name: raw[name] for name in ("seed", "dense_cap") if name in raw}
    for name, cls in _SECTIONS.items():
        if name in raw:
            kwargs[name] = _build_section(cls, raw[name], name)
    cfg = RunConfig(**kwargs)
    cfg.validate()
    return cfg


def load_config(path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = yaml.safe_load(path.read_text())
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    if raw is None:
        raw = {}
    return config_from_dict(raw)
