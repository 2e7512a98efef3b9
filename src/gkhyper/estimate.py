"""Hyperparameter optimization, MAP reconstruction, and the two-parameter fast path.

The optimizer is L-BFGS-B run in log theta within explicit positive bounds
(positivity is structural, so log space removes that constraint without
moving the argmin). Each evaluation in the general path re-runs the
bidiagonalization at the candidate theta. When the correlation length is
fixed, the fast path runs on the same MarginalModel: one factorization at
theta = (1, 1, ell) is read through marginal.objective_rescaled for every
(noise variance, prior std), and the optimization and the regularization
sweep cost no further forward-operator applies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

# gengk_bidiag is not called here: perfbench/test_perfbench.py asserts the name
from .gengk import GenGKFactorization, gengk_bidiag, truncate_factorization
from .marginal import (HyperParams, MarginalModel, _check_taken_at, _dense_assembly,
                       _unit_theta, objective_gengk, objective_rescaled)

__all__ = [
    "OptimizeOptions",
    "OptimizeTrace",
    "optimize_hyperparams",
    "precompute_two_param",
    "optimize_two_param",
    "map_reconstruct",
    "map_reconstruct_exact",
    "optimal_lambda_sweep",
]


@dataclass
class OptimizeOptions:
    """Settings for the outer optimization loop, which searches log theta.

    bounds (required, keyword only) holds one positive [low, high] row per
    component of theta; parameterization accepts only "log".
    """

    k: int = 20
    max_iters: int = 200
    grad_tol: float = 1e-6
    bounds: np.ndarray = field(kw_only=True)
    parameterization: str = "log"

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.parameterization != "log":
            raise ValueError("parameterization must be 'log'")
        self.bounds = np.asarray(self.bounds, dtype=float)
        if self.bounds.ndim != 2 or self.bounds.shape[1] != 2:
            raise ValueError("bounds must be a (K, 2) array")
        if np.any(self.bounds <= 0) or np.any(self.bounds[:, 0] >= self.bounds[:, 1]):
            raise ValueError("bounds must be strictly positive nonempty intervals")


@dataclass
class OptimizeTrace:
    """Per-evaluation history; func_count equals the number of objective calls.

    objective is the value at the returned theta, which need not be the
    lowest value in values: the optimizer can stop on an iterate other than
    its best evaluation.
    """

    thetas: list = field(default_factory=list)
    values: list = field(default_factory=list)
    grad_norms: list = field(default_factory=list)
    func_count: int = 0
    iterations: int = 0
    converged: bool = False
    reason: str = ""
    objective: float = float("nan")

    def record(self, theta_values, value, grad_norm):
        self.func_count += 1
        self.thetas.append(np.asarray(theta_values, dtype=float).copy())
        self.values.append(float(value))
        self.grad_norms.append(float(grad_norm))


def _run_lbfgsb(eval_fn, theta0, opts: OptimizeOptions) -> tuple[np.ndarray, OptimizeTrace]:
    theta0 = np.asarray(theta0, dtype=float)
    bounds = opts.bounds
    if bounds.shape[0] != theta0.shape[0]:
        raise ValueError("bounds do not match the parameter dimension")
    if np.any(theta0 < bounds[:, 0]) or np.any(theta0 > bounds[:, 1]):
        raise ValueError("the starting point lies outside the bounds")

    trace = OptimizeTrace()

    def wrapped(x):
        theta = np.exp(x)
        evaluation = eval_fn(theta)
        grad = evaluation.gradient
        if not np.isfinite(evaluation.value) or not np.all(np.isfinite(grad)):
            raise FloatingPointError(f"objective or gradient is not finite at theta = {theta}")
        gx = grad * theta
        trace.record(theta, evaluation.value, np.max(np.abs(gx)))
        return evaluation.value, gx

    res = minimize(
        wrapped,
        np.log(theta0),
        jac=True,
        method="L-BFGS-B",
        bounds=[tuple(row) for row in np.log(bounds)],
        options={"maxiter": opts.max_iters, "gtol": opts.grad_tol, "ftol": 1e-14},
    )
    theta_star = np.exp(res.x)
    trace.objective = float(res.fun)
    trace.iterations = int(res.nit)
    trace.converged = bool(res.success)
    trace.reason = str(res.message)
    return theta_star, trace


def optimize_hyperparams(model: MarginalModel, theta0: HyperParams,
                         opts: OptimizeOptions) -> tuple[HyperParams, OptimizeTrace]:
    """Minimize the approximate marginal-posterior objective over theta.

    Every evaluation runs a fresh bidiagonalization at the candidate point
    with the same k throughout (k is a user decision informed by the monitor
    module). Returns the optimizer along with the evaluation trace.
    """

    def eval_fn(theta_values):
        return objective_gengk(model, HyperParams(theta_values), opts.k)

    theta_star, trace = _run_lbfgsb(eval_fn, theta0.values, opts)
    return HyperParams(theta_star), trace


def precompute_two_param(model: MarginalModel, ell: float, k: int) -> GenGKFactorization:
    """One-time factorization at theta = (1, 1, ell) for the fast path."""
    return model.factorize(_unit_theta(ell), k)


def optimize_two_param(model: MarginalModel, fact_hat: GenGKFactorization, theta0,
                       opts: OptimizeOptions) -> tuple[np.ndarray, OptimizeTrace]:
    """Optimize (noise variance, prior std) with the correlation length fixed.

    fact_hat is the one-time bidiagonalization at (1, 1, ell) of
    precompute_two_param, and ell is read from its Q. Every evaluation is
    objective_rescaled, and no evaluation applies the forward operator, which
    is asserted against the matvec counters.
    """
    theta0 = np.asarray(theta0, dtype=float)
    if theta0.shape != (2,):
        raise ValueError("theta0 must have two components")
    ell = fact_hat.q_op.kernel.ell
    before = model.forward.matvec_count.snapshot()

    def eval_fn(theta_values):
        return objective_rescaled(model, HyperParams(np.append(theta_values, ell)), fact_hat)

    theta_star, trace = _run_lbfgsb(eval_fn, theta0, opts)
    after = model.forward.matvec_count.snapshot()
    if after != before:
        raise RuntimeError(
            "the two-parameter optimization applied the forward operator"
        )
    return theta_star, trace


def map_reconstruct(model: MarginalModel, theta: HyperParams,
                    k: int | None = None,
                    fact: GenGKFactorization | None = None) -> np.ndarray:
    """Projected MAP estimate s = mu + Q V_k z with (I + T_k) z = B' beta1 e1.

    Without a supplied factorization, model.factorize(theta, k) is run; a
    supplied one must have been taken at theta, or a ValueError is raised.
    With a supplied factorization, k reads its leading k steps (k = None keeps
    all of them), and a k outside [0, fact.k] raises ValueError. The cached
    Q V columns make the final synthesis free of extra covariance applies.
    """
    if fact is not None:
        _check_taken_at(fact, theta)
        if k is not None:
            fact = truncate_factorization(fact, k)
    else:
        if k is None:
            raise ValueError("either k or an existing factorization is required")
        fact = model.factorize(theta, k)
    z = fact.spectrum.coefficients()
    return model.mean_vector() + fact.qv_basis[:, : fact.k] @ z


def map_reconstruct_exact(model: MarginalModel, theta: HyperParams) -> np.ndarray:
    """Dense closed-form MAP estimate (oracle; small problems only).

    s = mu - (Q A') Z^{-1} (A mu - d) with Z = A (Q A') + theta1 I, the
    data-space form of (A' R^{-1} A + Q^{-1})^{-1} (A' R^{-1} d + Q^{-1} mu).
    Z^{-1} (A mu - d) is the solve objective_exact takes, from the same dense
    assembly.
    """
    core = _dense_assembly(model, theta, "the closed-form MAP estimate")
    return model.mean_vector() - core.qa @ core.w


def optimal_lambda_sweep(model: MarginalModel, fact_hat: GenGKFactorization,
                         s_true, lambda_grid, theta1: float):
    """Reconstruction-error sweep over the regularization parameter.

    fact_hat is a unit factorization from precompute_two_param. For each
    lambda the prior std is theta2 = 1/lambda, and the MAP estimate is
    mu + (Q0 V_k z)/lambda with z from fact_hat's spectral core rescaled to
    (theta1, theta2), so the sweep takes one SVD in all. Requires the ground
    truth (synthetic problems only). Returns (best_lambda, re_curve) with
    re_curve of shape (len(grid), 2) holding (lambda, RE). A factorization
    not taken at (1, 1, ell) raises ValueError.
    """
    _check_taken_at(fact_hat, _unit_theta(fact_hat.q_op.kernel.ell))
    lambda_grid = np.asarray(lambda_grid, dtype=float)
    if lambda_grid.size == 0:
        raise ValueError("lambda grid is empty")
    if np.any(lambda_grid <= 0):
        raise ValueError("lambda values must be positive")
    s_true = np.asarray(s_true, dtype=float)
    s_norm = np.linalg.norm(s_true)
    if s_norm == 0:
        raise ValueError("ground truth must be nonzero")
    mean = model.mean_vector()
    qv = fact_hat.qv_basis[:, : fact_hat.k]
    curve = np.empty((lambda_grid.size, 2))
    for idx, lam in enumerate(lambda_grid):
        z = fact_hat.spectrum.rescaled(theta1, 1.0 / lam).coefficients()
        s_hat = mean + (qv @ z) / lam
        curve[idx] = (lam, np.linalg.norm(s_true - s_hat) / s_norm)
    best = lambda_grid[int(np.argmin(curve[:, 1]))]
    return float(best), curve
