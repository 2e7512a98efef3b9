"""The benchmark workloads: run configs made from a seed, set-up, solve and checks.

Set-up and solve follow the steps of ``gkhyper estimate`` and
``gkhyper monitor`` through the package's public functions. Every call goes
through a module attribute (``estimate.optimize_hyperparams``, ...) so that a
traced run sees the same calls as an untraced one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from gkhyper import config, estimate, gengk, marginal, monitor, operators, problems


@dataclass(frozen=True)
class Workload:
    config_file: str
    flow: str                       # "estimate" or "monitor"
    overrides: dict
    tiny: dict                      # small sizes for the benchmark's own smoke test
    rel_error_max: float | None     # reconstruction bound of the estimate flows


# heat runs at n=2048, not 4096: at n=4096 the 128 MB dense forward matrix
# streams from DRAM on every apply, and the DRAM bandwidth of a shared host
# swung eval_ms by 26% over ten seeds; the 32 MB matrix keeps A/A' dominant.
# rel_error_max sits above the error the shipped estimator reaches (run
# medians heat 0.11-0.15, ray 0.27-0.38 over the seeds tried), so seed noise
# passes and a broken estimator does not
WORKLOADS = {
    "heat-estimate": Workload(
        "heat1d.yaml", "estimate",
        overrides={"problem": {"n": 2048}},
        tiny={"problem": {"n": 256}, "estimate": {"k": 5}},
        rel_error_max=0.2),
    "ray-estimate": Workload(
        "ray_tomo.yaml", "estimate",
        overrides={},
        tiny={"problem": {"grid": 8}, "estimate": {"k": 5}},
        rel_error_max=0.5),
    "ray-monitor": Workload(
        "ray_tomo.yaml", "monitor",
        overrides={"problem": {"grid": 32}, "monitor": {"k_max": 120, "n_mc": 10}},
        tiny={"problem": {"grid": 8}, "monitor": {"k_max": 5}},
        rel_error_max=None),
}

# failure kinds that mean the program's output is wrong; an optimizer that
# stops without convergence still returns a checked estimate
WRONG_OUTPUT = ("raised", "nonfinite", "rel_error", "applies", "prop2", "nondeterministic")


@dataclass
class RunResult:
    """One solve: its time, work, fingerprint for the determinism check, and failures."""

    solve_s: float
    evals: int
    fingerprint: tuple
    rel_error: float | None = None
    failures: list = field(default_factory=list)


def make_config(root: Path, name: str, seed: int, tiny: bool = False) -> config.RunConfig:
    """Shipped config of the workload with its overrides and the workload seed."""
    wl = WORKLOADS[name]
    raw = yaml.safe_load((root / "configs" / wl.config_file).read_text())
    for overrides in (wl.overrides, wl.tiny if tiny else {}):
        for section, values in overrides.items():
            raw.setdefault(section, {}).update(values)
    raw["seed"] = int(seed)
    return config.config_from_dict(raw)


def setup(cfg: config.RunConfig):
    """Problem build plus model construction, as the CLI does before any command."""
    pc = cfg.problem
    if pc.name == "heat1d":
        prob = problems.build_heat_problem(n=pc.n, noise_level=pc.noise_level,
                                           seed=cfg.seed, kappa=pc.kappa)
    else:
        prob = problems.build_ray_tomo_problem(g=pc.grid, n_rays=pc.n_rays,
                                               noise_level=pc.noise_level, seed=cfg.seed,
                                               nu=cfg.kernel.nu, prior_std=pc.prior_std,
                                               ell=pc.ell)
    model = marginal.MarginalModel(
        forward=prob.forward, data=prob.data, geometry=prob.geometry, nu=cfg.kernel.nu,
        hyperprior=marginal.Hyperprior(cfg.hyperprior.kind, cfg.hyperprior.gamma),
        dense_cap=cfg.dense_cap)
    return prob, model


def _applies(model) -> int:
    return sum(model.forward.matvec_count.snapshot())


def solve_estimate(wl: Workload, cfg, prob, model) -> RunResult:
    """Optimize the hyperparameters, then reconstruct at theta* (``gkhyper estimate``)."""
    ec = cfg.estimate
    opts = estimate.OptimizeOptions(k=ec.k, max_iters=ec.max_iters, grad_tol=ec.grad_tol,
                                    bounds=np.asarray(ec.bounds, dtype=float),
                                    parameterization=ec.parameterization)
    theta0 = marginal.HyperParams(np.asarray(ec.theta0, dtype=float))
    before = _applies(model)
    t0 = time.perf_counter()
    theta_star, trace = estimate.optimize_hyperparams(model, theta0, opts)
    s_hat = estimate.map_reconstruct(model, theta_star, k=ec.k)
    solve_s = time.perf_counter() - t0
    applies = _applies(model) - before

    failures = []
    if not (np.all(np.isfinite(s_hat)) and np.all(np.isfinite(trace.values))):
        failures.append(("nonfinite", "reconstruction or objective is not finite"))
    re = problems.relative_error(prob.s_true, s_hat)
    if not trace.converged:
        failures.append(("unconverged", trace.reason))
    if not re <= wl.rel_error_max:
        failures.append(("rel_error", f"{re:.4g} > {wl.rel_error_max}"))
    # one bidiagonalization per evaluation plus one in the reconstruction
    k_run = min(ec.k, model.nrows, model.ncols)
    expected = 2 * (k_run + 1) * (trace.func_count + 1)
    if applies != expected:
        failures.append(("applies", f"{applies} forward+adjoint applies, expected {expected}"))
    return RunResult(solve_s, trace.func_count,
                     (theta_star.values.tobytes(), trace.func_count, applies), re, failures)


def solve_monitor(wl: Workload, cfg, prob, model) -> RunResult:
    """One long factorization read at every k <= k_max (``gkhyper monitor``)."""
    mc = cfg.monitor
    theta = marginal.HyperParams(np.asarray(mc.theta, dtype=float))
    t0 = time.perf_counter()
    noise = model.noise_cov(theta)
    q_op = model.prior_cov(theta)
    k_max = min(mc.k_max, model.nrows, model.ncols)
    before = _applies(model)
    fact = gengk.gengk_bidiag(model.forward, noise, q_op, model.prior_mean, model.data, k_max)
    applies = _applies(model) - before
    k_max = fact.k

    xi_hat = monitor.mc_xi_estimate(monitor.normal_matrix_apply(model.forward, noise), q_op,
                                    fact, mc.n_mc, seed=cfg.seed, k_max=k_max,
                                    probe_kind=mc.probe_kind)
    err_mc = np.array([monitor.err_indicator(x, fact.beta1) for x in xi_hat])
    dense_ok = model.nrows <= model.dense_cap
    if dense_ok:
        exact = marginal.objective_exact(model, theta)
        a_d = operators.dense_matrix(model.forward)
        q_d = operators.dense_matrix(model.prior_cov(theta))
        xi0 = float(np.sum((a_d.T @ a_d / theta.noise_var) * q_d.T))
        xi_exact = monitor.xi_recurrence(fact.alphas, fact.betas, xi0)

    rows = []
    for k in range(1, k_max + 1):
        approx = marginal.objective_gengk(model, theta, k,
                                          fact=gengk.truncate_factorization(fact, k))
        if dense_ok:
            abs_err = abs(exact.value - approx.value)
            bound = monitor.prop2_bound(max(xi_exact[k - 1], 0.0), fact.beta1)
        else:
            abs_err = bound = float("nan")
        rows.append([approx.value, abs_err, bound, xi_hat[k - 1], err_mc[k - 1]])
    solve_s = time.perf_counter() - t0

    rows = np.asarray(rows)
    failures = []
    if not np.all(np.isfinite(rows if dense_ok else rows[:, [0, 3, 4]])):
        failures.append(("nonfinite", "objective, error or indicator is not finite"))
    if dense_ok:
        below = np.flatnonzero(rows[:, 2] < rows[:, 1])
        if below.size:
            k = int(below[0]) + 1
            failures.append(("prop2", f"prop2_bound {rows[k - 1, 2]:.3e} < abs_err_objective "
                                      f"{rows[k - 1, 1]:.3e} at k={k} ({below.size} k)"))
    if applies != 2 * (fact.k + 1):
        failures.append(("applies", f"{applies} forward+adjoint applies, "
                                    f"expected {2 * (fact.k + 1)}"))
    return RunResult(solve_s, k_max, (rows.tobytes(), k_max, applies), None, failures)


def solve(name: str, cfg, prob, model) -> RunResult:
    wl = WORKLOADS[name]
    flow = solve_estimate if wl.flow == "estimate" else solve_monitor
    return flow(wl, cfg, prob, model)
