"""Run configuration: schema-validated nested dataclasses loaded from YAML.

Unknown keys are rejected up front so a typo cannot silently fall back to a
default. Validation then builds the package's records from the sections, so
each rule on theta, the hyperprior and the optimizer settings is written once,
in the record that owns it: HyperParams for every theta, Hyperprior,
OptimizeOptions with its check_start for the bounds and theta0, and
MaternKernel for nu. Every integer field is a count and passes the one count
rule, operators._check_count: the seed is nonnegative, the active problem's n
at least 2 and its grid at least 4, and every other count positive. The
problem section's other checks are its own, written NaN-proof as
"not 0 < x < inf", since its records are built by code that computes; kappa
and prior_std, which enter squared, pass the builders' rule,
operators._check_scale. A failure raises ConfigError, before any compute.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np
import yaml

from .covariance import MaternKernel
from .estimate import OptimizeOptions
from .marginal import DENSE_CAP_DEFAULT, HyperParams, Hyperprior
from .operators import _check_count, _check_scale

__all__ = ["ConfigError", "RunConfig", "load_config", "config_from_dict"]


class ConfigError(ValueError):
    """Invalid or malformed run configuration."""


def _has_bool(value) -> bool:
    if isinstance(value, (list, tuple)):
        return any(_has_bool(v) for v in value)
    return isinstance(value, bool)


def _check_numbers(obj) -> None:
    # NaN passes every "<= 0" test, so non-finite numbers are rejected first;
    # an integer field takes a nonnegative integer, not a fraction, a string
    # or a bool, by the count rule; a bool anywhere else would be read as 0 or 1
    for f in fields(obj):
        value = getattr(obj, f.name)
        if f.type == "int":
            _check_count(value, f.name, 0)
            continue
        if _has_bool(value):
            raise ValueError(f"{f.name} must not be a bool, got {value!r}")
        if isinstance(value, str):
            continue
        try:
            arr = np.asarray(value, dtype=float)
        except (TypeError, ValueError):
            continue  # not numeric; the section's own checks report it
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{f.name} must be finite, got {value!r}")


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
        if self.name == "heat1d":
            _check_count(self.n, "n", 2)
        else:
            _check_count(self.grid, "grid", 4)
            _check_count(self.n_rays, "n_rays", 1)
        if not 0 <= self.noise_level < np.inf:
            raise ConfigError("noise_level must be finite and nonnegative")
        _check_scale(self.kappa, "kappa")
        _check_scale(self.prior_std, "prior_std")
        if not 0 < self.ell < np.inf:
            raise ConfigError("ell must be finite and positive")


@dataclass
class KernelConfig:
    nu: float = 1.5

    def validate(self):
        MaternKernel(self.nu, 1.0, 1.0)


@dataclass
class HyperpriorConfig:
    kind: str = "flat"
    gamma: float = 1e-4

    def validate(self):
        Hyperprior(self.kind, self.gamma)


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

    def records(self) -> tuple[OptimizeOptions, HyperParams]:
        """The optimizer settings and the start theta0 within their bounds."""
        opts = OptimizeOptions(k=self.k, max_iters=self.max_iters, grad_tol=self.grad_tol,
                               bounds=self.bounds, parameterization=self.parameterization)
        theta0 = HyperParams(self.theta0)
        opts.check_start(theta0.values)
        return opts, theta0

    def validate(self):
        self.records()


@dataclass
class MonitorConfig:
    k_max: int = 50
    n_mc: int = 10
    probe_kind: str = "gaussian"
    theta: list = field(default_factory=lambda: [1e-5, 0.4, 0.08])

    def validate(self):
        _check_count(self.k_max, "k_max", 1)
        _check_count(self.n_mc, "n_mc", 1)
        if self.probe_kind not in ("gaussian", "rademacher"):
            raise ConfigError("probe_kind must be gaussian or rademacher")
        HyperParams(self.theta)


@dataclass
class ReconstructConfig:
    theta: list = field(default_factory=lambda: [1e-5, 0.4, 0.08])
    k: int = 22

    def validate(self):
        _check_count(self.k, "k", 1)
        HyperParams(self.theta)


@dataclass
class RunConfig:
    problem: ProblemConfig = field(default_factory=ProblemConfig)
    kernel: KernelConfig = field(default_factory=KernelConfig)
    hyperprior: HyperpriorConfig = field(default_factory=HyperpriorConfig)
    estimate: EstimateConfig = field(default_factory=EstimateConfig)
    monitor: MonitorConfig = field(default_factory=MonitorConfig)
    reconstruct: ReconstructConfig = field(default_factory=ReconstructConfig)
    seed: int = 0
    dense_cap: int = DENSE_CAP_DEFAULT

    def validate(self):
        try:
            for name in _SECTIONS:
                where = f"bad values in {name!r}"
                _check_numbers(getattr(self, name))
                getattr(self, name).validate()
            where = "bad top-level values"
            _check_numbers(self)
            _check_count(self.dense_cap, "dense_cap", 1)
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            # a value of the wrong type or range, e.g. a string for a number
            raise ConfigError(f"{where}: {exc}") from exc


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
