"""Each command's flow: build the problem a run configuration names, then
estimate, monitor or reconstruct on it.

The functions return numbers, not files; ``gkhyper.cli`` renders and writes
them. PROBLEMS is the one table of problem names. Each entry holds the
problem's size rules, which the config runs before any build, and its
builder, which ``build`` calls. A builder is called through this module's
name for it, so a tracer that replaces a function in every module holding
it sees the call.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .estimate import map_reconstruct, optimize_hyperparams
from .marginal import HyperParams, Hyperprior, MarginalModel, _dense_assembly, objective_gengk
from .monitor import err_indicator, mc_xi_estimate, normal_matrix_apply, prop2_bound, xi_recurrence
from .problems import (_check_heat_size, _check_phantom_size, _check_ray_sizes,
                       build_heat_problem, build_ray_tomo_problem)

__all__ = ["PROBLEMS", "build", "run_estimate", "run_monitor", "run_reconstruct"]


class _Problem(NamedTuple):
    check: Callable  # the builders' size rules, run on the problem section before any build
    build: Callable  # the run configuration's ProblemInstance


def _check_heat(pc) -> None:
    _check_heat_size(pc.n)


def _check_ray(pc) -> None:
    g, _ = _check_ray_sizes(pc.grid, pc.n_rays)
    _check_phantom_size(g * g)


def _build_heat(cfg):
    pc = cfg.problem
    return build_heat_problem(n=pc.n, noise_level=pc.noise_level, seed=cfg.seed,
                              kappa=pc.kappa)


def _build_ray(cfg):
    pc = cfg.problem
    return build_ray_tomo_problem(g=pc.grid, n_rays=pc.n_rays, noise_level=pc.noise_level,
                                  seed=cfg.seed, nu=cfg.kernel.nu, prior_std=pc.prior_std,
                                  ell=pc.ell)


PROBLEMS = {
    "heat1d": _Problem(_check_heat, _build_heat),
    "ray_tomo": _Problem(_check_ray, _build_ray),
}


def build(cfg):
    """The configured problem and its MarginalModel, as (problem, model)."""
    prob = PROBLEMS[cfg.problem.name].build(cfg)
    hyperprior = Hyperprior(cfg.hyperprior.kind, cfg.hyperprior.gamma)
    return prob, MarginalModel(forward=prob.forward, data=prob.data, geometry=prob.geometry,
                               nu=cfg.kernel.nu, hyperprior=hyperprior, dense_cap=cfg.dense_cap)


def run_estimate(cfg, model):
    """theta*, the optimizer's trace, and the MAP estimate at theta* with k =
    ``estimate.k``."""
    opts, theta0 = cfg.estimate.records()
    theta_star, trace = optimize_hyperparams(model, theta0, opts)
    return theta_star, trace, map_reconstruct(model, theta_star, k=opts.k)


def run_monitor(cfg, model) -> list[list]:
    """One row per k = 1..K of a factorization at ``monitor.theta`` with K =
    min(``monitor.k_max``, m, n) steps: k, the relative and absolute error of
    the objective, the relative errors of its log-determinant and quadratic
    terms, the Monte Carlo xi_k, its error indicator and the Proposition 2
    bound. The exact columns are NaN above the model's dense cap."""
    mc = cfg.monitor
    theta = HyperParams(np.asarray(mc.theta, dtype=float))
    fact = model.factorize(theta, mc.k_max)

    xi_hat = mc_xi_estimate(normal_matrix_apply(model.forward, fact.noise_var), fact.q_op,
                            fact, mc.n_mc, seed=cfg.seed, k_max=fact.k,
                            probe_kind=mc.probe_kind)
    err_mc = np.array([err_indicator(x, fact.beta1) for x in xi_hat])

    if model.dense_ok:
        core = _dense_assembly(model, theta, "the exact objective")
        exact = core.evaluation
        # xi_0 = tr(A' R^{-1} A Q) = tr(A (Q A')) / theta1, on the Q A' of Z
        xi0 = float(np.sum(core.a * core.qa.T)) / theta.noise_var
        xi_exact = xi_recurrence(fact.alphas, fact.betas, xi0)

    rows = []
    for k in range(1, fact.k + 1):
        approx = objective_gengk(model, theta, k, fact=fact)
        if model.dense_ok:
            abs_err = abs(exact.value - approx.value)
            re_obj = abs_err / abs(exact.value)
            re_logdet = abs(exact.logdet_term - approx.logdet_term) / abs(exact.logdet_term)
            re_quad = abs(exact.quad_term - approx.quad_term) / abs(exact.quad_term)
            bound = prop2_bound(max(xi_exact[k - 1], 0.0), fact.beta1)
        else:
            abs_err = re_obj = re_logdet = re_quad = bound = float("nan")
        rows.append([k, re_obj, abs_err, re_logdet, re_quad,
                     xi_hat[k - 1], err_mc[k - 1], bound])
    return rows


def run_reconstruct(cfg, model) -> np.ndarray:
    """The MAP estimate at ``reconstruct.theta`` with k = ``reconstruct.k``."""
    theta = HyperParams(np.asarray(cfg.reconstruct.theta, dtype=float))
    return map_reconstruct(model, theta, k=cfg.reconstruct.k)
