"""Hyperparameter optimization, MAP reconstruction, and the two-parameter fast path.

The optimizer is L-BFGS-B run in log theta within explicit positive bounds
(positivity is structural, so log space removes that constraint without
moving the argmin). Each evaluation in the general path re-runs the
bidiagonalization at the candidate theta. When the correlation length is
fixed, the fast path runs on the same MarginalModel: one factorization at
theta = (1, 1, ell) is read through marginal.objective_rescaled for every
(noise variance, prior std), and the optimization and the regularization
sweep cost no further forward-operator applies.

An optimization (_run_lbfgsb's minimize, which serves optimize_hyperparams
and optimize_two_param) and map_reconstruct run their BLAS on the calling
thread, inside _blas_on_calling_thread. Each evaluation makes thousands of
tiny BLAS calls (reorthogonalization gemvs on n x j bases, k x k products,
the SVD of a (k+1) x k bidiagonal), and a pooled OpenBLAS worker has to be
woken after every idle gap. In four heat-estimate solves (n = 2048, k = 22,
110 evaluations) on a 2-CPU x86 host at 2 BLAS threads, the evaluations took
16.9 ms in the median and 32.5 ms at the 90th percentile, up to 48.7 ms, and
the optimizer's gaps between them reached 7.6 ms; at 1 thread the largest
took 26.0 ms and the gaps stayed at or below 0.6 ms, while a fixed-theta loop
of objective_gengk ran at about the same speed either way. The monitor, the
dense oracles and the problem build, but for the noise's long norms, stay
outside the scope: their dense columns round differently at each thread
count, so the scope would move their bits.

scipy.optimize is imported inside _run_lbfgsb, at the first optimization:
a process that only monitors or reconstructs never loads it, nor the
scipy.fft and scipy.special it imports (about 19 MB together). It calls
scipy's OpenBLAS, which scipy.linalg has mapped with the package, so the
scope's setters are complete before any scope is entered.
"""

from __future__ import annotations

import ctypes
import functools
import os
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

# gengk_bidiag is not called here: perfbench/test_perfbench.py asserts the name
from .gengk import GenGKFactorization, _check_noise_var, gengk_bidiag, truncate_factorization
from .marginal import (HyperParams, MarginalModel, _check_taken_at, _dense_assembly,
                       _unit_theta, objective_gengk, objective_rescaled)
from .operators import _check_count, _check_vector

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

    bounds (required, keyword only) holds one finite positive [low, high] row,
    low < high, per component of theta; the counts k and max_iters are
    positive integers by the one count rule (operators._check_count), grad_tol
    is finite and nonnegative, and parameterization accepts only "log". Any
    other value raises ValueError. check_start holds the rule for a start.
    """

    k: int = 20
    max_iters: int = 200
    grad_tol: float = 1e-6
    bounds: np.ndarray = field(kw_only=True)
    parameterization: str = "log"

    def __post_init__(self):
        self.k = _check_count(self.k, "k", 1)
        self.max_iters = _check_count(self.max_iters, "max_iters", 1)
        if not 0.0 <= self.grad_tol < np.inf:
            raise ValueError(f"grad_tol must be finite and nonnegative, got {self.grad_tol}")
        if self.parameterization != "log":
            raise ValueError("parameterization must be 'log'")
        self.bounds = np.asarray(self.bounds, dtype=float)
        if self.bounds.ndim != 2 or self.bounds.shape[1] != 2:
            raise ValueError("bounds must be a (K, 2) array")
        low, high = self.bounds.T
        if not np.all((0.0 < low) & (low < high) & (high < np.inf)):
            raise ValueError("bounds must be finite, strictly positive nonempty intervals, "
                             f"got {self.bounds.tolist()}")

    def check_start(self, theta0) -> np.ndarray:
        """theta0 as floats, if it has one value per bounds row within its bounds."""
        theta0 = np.asarray(theta0, dtype=float)
        low, high = self.bounds.T
        if theta0.shape != low.shape or not np.all((low <= theta0) & (theta0 <= high)):
            raise ValueError(f"the start {theta0.tolist()} lies outside the bounds "
                             f"{self.bounds.tolist()} (one [low, high] row per value)")
        return theta0


@dataclass
class OptimizeTrace:
    """Per-evaluation history; func_count, the number of objective calls, is
    the length of values.

    objective is the value at the returned theta, which need not be the
    lowest value in values: the optimizer can stop on an iterate other than
    its best evaluation.
    """

    thetas: list = field(default_factory=list)
    values: list = field(default_factory=list)
    grad_norms: list = field(default_factory=list)
    iterations: int = 0
    converged: bool = False
    reason: str = ""
    objective: float = float("nan")

    @property
    def func_count(self) -> int:
        return len(self.values)

    def record(self, theta_values, value, grad_norm):
        self.thetas.append(np.asarray(theta_values, dtype=float).copy())
        self.values.append(float(value))
        self.grad_norms.append(float(grad_norm))


@functools.cache
def _openblas_thread_setters() -> tuple:
    """openblas_set_num_threads_local of each OpenBLAS library mapped into
    this process, found by name in /proc/self/maps (numpy and scipy each
    ship their own); empty where there is no such library, symbol or file.

    Cached: both libraries are mapped once the package is imported, numpy's
    by numpy and scipy's by scipy.linalg (which marginal imports), so a scope
    entered before any optimization pins the library that L-BFGS-B and
    cho_factor call; scipy.optimize, imported at the first optimization,
    maps no further OpenBLAS.
    """
    try:
        with open("/proc/self/maps") as maps:
            paths = {fields[5].rstrip("\n")
                     for fields in (line.split(maxsplit=5) for line in maps)
                     if len(fields) == 6}
    except OSError:
        return ()
    setters = []
    for path in sorted(paths):
        if "openblas" not in os.path.basename(path).lower():
            continue
        try:
            setter = ctypes.CDLL(path).openblas_set_num_threads_local
        except (OSError, AttributeError):
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], ctypes.c_int
        setters.append(setter)
    return tuple(setters)


@contextmanager
def _blas_on_calling_thread():
    """Run the body with every OpenBLAS at 1 thread, then restore each
    library's previous count, also when the body raises.

    openblas_set_num_threads_local(1) returns the count it replaces. Without
    an OpenBLAS (another BLAS, or no /proc) the scope does nothing. It saves
    the wake-up stalls of a pooled worker (see the module docstring): on a
    2-CPU host, heat-estimate eval_ms fell from 20.8 to 14.4 ms (medians of
    10 runs each). The optimizer's minimize, map_reconstruct and
    problems._add_noise's long norms enter it; the rest runs at the process's
    count. Large solves lose by it: a heat n = 16384, k = 120 evaluation took
    1.49 s at 1 thread against 1.36 s at 2.
    """
    restore = []
    try:
        for setter in _openblas_thread_setters():
            restore.append((setter, setter(1)))
        yield
    finally:
        for setter, count in reversed(restore):
            setter(count)


def _run_lbfgsb(eval_fn, theta0, opts: OptimizeOptions) -> tuple[np.ndarray, OptimizeTrace]:
    theta0 = opts.check_start(theta0)
    trace = OptimizeTrace()

    def wrapped(x):
        theta = np.exp(x)
        evaluation = eval_fn(theta)
        # objective_gengk takes its gradient on this first read, inside the BLAS scope;
        # the record refuses a non-finite value when built and a non-finite gradient here
        gx = evaluation.gradient * theta
        trace.record(theta, evaluation.value, np.max(np.abs(gx)))
        return evaluation.value, gx

    # here: a monitor or reconstruct process never loads the optimizer
    from scipy.optimize import minimize

    with _blas_on_calling_thread():
        res = minimize(
            wrapped,
            np.log(theta0),
            jac=True,
            method="L-BFGS-B",
            bounds=[tuple(row) for row in np.log(opts.bounds)],
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
    supplied one must have been taken at theta on the model's operator, nu and
    geometry, or a ValueError is raised.
    With a supplied factorization, k reads its leading k steps (k = None keeps
    all of them), and a k outside [0, fact.k] raises ValueError. The cached
    Q V columns make the final synthesis free of extra covariance applies.
    Its BLAS runs on the calling thread.
    """
    with _blas_on_calling_thread():
        if fact is not None:
            _check_taken_at(model, fact, theta)
            fact = truncate_factorization(fact, fact.k if k is None else k)
        elif k is None:
            raise ValueError("either k or an existing factorization is required")
        else:
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
    not taken at (1, 1, ell) on the model's operator, nu and geometry, a
    theta1 that the noise-variance rule refuses, or an s_true that is not a
    finite vector of length n, raises ValueError before any work.
    """
    theta1 = _check_noise_var(theta1)
    _check_taken_at(model, fact_hat, _unit_theta(fact_hat.q_op.kernel.ell))
    lambda_grid = np.asarray(lambda_grid, dtype=float)
    if lambda_grid.size == 0:
        raise ValueError("lambda grid is empty")
    if not np.all((0.0 < lambda_grid) & (lambda_grid < np.inf)):
        raise ValueError(f"lambda values must be finite and positive, got {lambda_grid}")
    s_true = _check_vector(s_true, model.ncols, "s_true")
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
