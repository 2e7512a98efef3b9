"""Hyperparameter optimization, MAP reconstruction, and the two-parameter fast path.

The optimizer is a bound-constrained limited-memory quasi-Newton method run by
default in log-parameterization (positivity is structural, so log space removes
the constraint without moving the argmin); a projected linear-space mode is
retained for comparison. Each evaluation in the general path re-runs the
bidiagonalization at the candidate theta. When only the noise and prior
variances are unknown, a single precomputed factorization is rescaled in
closed form and the optimization costs no further forward-operator applies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from .gengk import GenGKFactorization, gengk_bidiag
from .marginal import HyperParams, Hyperprior, MarginalModel, ObjectiveEvaluation, objective_gengk
from .operators import LinearOperatorHandle, NoiseCovariance, dense_matrix

__all__ = [
    "OptimizeOptions",
    "OptimizeTrace",
    "TwoParamModel",
    "optimize_hyperparams",
    "two_param_rescale",
    "precompute_two_param",
    "objective_two_param",
    "optimize_two_param",
    "map_reconstruct",
    "map_reconstruct_exact",
    "optimal_lambda_sweep",
]


@dataclass
class OptimizeOptions:
    """Settings for the outer optimization loop."""

    k: int = 20
    max_iters: int = 200
    grad_tol: float = 1e-6
    bounds: np.ndarray | None = None          # (K, 2) positive intervals
    parameterization: str = "log"

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.parameterization not in ("log", "linear"):
            raise ValueError("parameterization must be 'log' or 'linear'")
        if self.bounds is not None:
            self.bounds = np.asarray(self.bounds, dtype=float)
            if self.bounds.ndim != 2 or self.bounds.shape[1] != 2:
                raise ValueError("bounds must be a (K, 2) array")
            if np.any(self.bounds <= 0) or np.any(self.bounds[:, 0] >= self.bounds[:, 1]):
                raise ValueError("bounds must be strictly positive nonempty intervals")


@dataclass
class OptimizeTrace:
    """Per-evaluation history; func_count equals the number of objective calls."""

    thetas: list = field(default_factory=list)
    values: list = field(default_factory=list)
    grad_norms: list = field(default_factory=list)
    func_count: int = 0
    iterations: int = 0
    converged: bool = False
    reason: str = ""

    def record(self, theta_values, value, grad_norm):
        self.func_count += 1
        self.thetas.append(np.asarray(theta_values, dtype=float).copy())
        self.values.append(float(value))
        self.grad_norms.append(float(grad_norm))


def _default_bounds(theta0: np.ndarray) -> np.ndarray:
    lo = np.minimum(theta0 * 1e-6, 1e-12)
    hi = np.maximum(theta0 * 1e6, 1e2)
    return np.column_stack([lo, hi])


def _run_lbfgsb(eval_fn, theta0, opts: OptimizeOptions) -> tuple[np.ndarray, OptimizeTrace]:
    theta0 = np.asarray(theta0, dtype=float)
    bounds = opts.bounds if opts.bounds is not None else _default_bounds(theta0)
    if bounds.shape[0] != theta0.shape[0]:
        raise ValueError("bounds do not match the parameter dimension")
    if np.any(theta0 < bounds[:, 0]) or np.any(theta0 > bounds[:, 1]):
        raise ValueError("the starting point lies outside the bounds")

    trace = OptimizeTrace()
    log_space = opts.parameterization == "log"

    def wrapped(x):
        theta = np.exp(x) if log_space else x
        evaluation = eval_fn(theta)
        grad = evaluation.gradient
        if not np.isfinite(evaluation.value) or not np.all(np.isfinite(grad)):
            raise FloatingPointError(f"objective or gradient is not finite at theta = {theta}")
        gx = grad * theta if log_space else grad
        trace.record(theta, evaluation.value, np.max(np.abs(gx)))
        return evaluation.value, gx

    x0 = np.log(theta0) if log_space else theta0
    opt_bounds = np.log(bounds) if log_space else bounds
    res = minimize(
        wrapped,
        x0,
        jac=True,
        method="L-BFGS-B",
        bounds=[tuple(row) for row in opt_bounds],
        options={"maxiter": opts.max_iters, "gtol": opts.grad_tol, "ftol": 1e-14},
    )
    theta_star = np.exp(res.x) if log_space else res.x
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


def two_param_rescale(fact_hat: GenGKFactorization, theta1: float,
                      theta2: float) -> GenGKFactorization:
    """Closed-form factorization at (theta1, theta2) from the unit-parameter run.

    With R = theta1 I and Q = theta2^2 Q0, a factorization computed for
    (R, Q) = (I, Q0) rescales exactly: U picks up sqrt(theta1), V shrinks by
    theta2, the bidiagonal scales by theta2/sqrt(theta1), and the
    initialization norm by 1/sqrt(theta1). The weighted orthogonality
    relations hold exactly for the new parameters.
    """
    theta1 = float(theta1)
    theta2 = float(theta2)
    if theta1 <= 0 or theta2 <= 0:
        raise ValueError("theta1 and theta2 must be positive")
    root1 = np.sqrt(theta1)
    coeff = theta2 / root1
    betas = fact_hat.betas.copy()
    betas[0] /= root1
    betas[1:] *= coeff
    return GenGKFactorization(
        u_basis=fact_hat.u_basis * root1,
        v_basis=fact_hat.v_basis / theta2,
        qv_basis=fact_hat.qv_basis * theta2,   # (theta2^2 Q0)(v/theta2)
        alphas=fact_hat.alphas * coeff,
        betas=betas,
        k=fact_hat.k,
        breakdown_at=fact_hat.breakdown_at,
    )


@dataclass
class TwoParamModel:
    """Fixed-prior-shape model: R = theta1 I, Q = theta2^2 Q0 with Q0 frozen."""

    forward: LinearOperatorHandle
    data: np.ndarray
    prior_shape: object                       # Q0 operator
    hyperprior: Hyperprior = field(default_factory=Hyperprior)
    prior_mean: np.ndarray | None = None

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        if self.data.shape != (self.forward.nrows,):
            raise ValueError("data length does not match the forward operator")

    def mean_vector(self) -> np.ndarray:
        if self.prior_mean is None:
            return np.zeros(self.forward.ncols)
        return np.asarray(self.prior_mean, dtype=float)


class TwoParamEvaluator:
    """Objective/gradient over (theta1, theta2) from one precomputed run.

    Reads the unit-parameter factorization's spectral core, rescaled in O(k)
    per evaluation; it never touches the forward operator.
    """

    def __init__(self, model: TwoParamModel, fact_hat: GenGKFactorization):
        self.model = model
        self.fact_hat = fact_hat
        self._m = model.forward.nrows

    def evaluate(self, theta1: float, theta2: float) -> ObjectiveEvaluation:
        if theta1 <= 0 or theta2 <= 0:
            raise ValueError("theta1 and theta2 must be positive")
        m = self._m
        spec = self.fact_hat.spectrum.rescaled(theta1, theta2)
        logdet_term, quad_term = spec.terms(m * np.log(theta1))
        neglogprior, hgrad = self.model.hyperprior.neglog(np.array([theta1, theta2]))

        sig2_full = spec.s_full**2
        sig2 = spec.s**2
        w_row2 = spec.p[0, :] ** 2
        beta1sq = spec.beta1**2
        denom_full = 1.0 + sig2_full
        # ||r||^2 = (beta1^2/theta1) sum w_j^2/(1+sig_j^2)^2 and
        # ||(UB)' r||^2 = beta1^2 sum sig_j^2 w_j^2/(1+sig_j^2)^2, both via
        # the weighted orthogonality of the rescaled bases
        r_norm2 = (beta1sq / theta1) * float(np.sum(w_row2 / denom_full**2))
        ubr_norm2 = beta1sq * float(np.sum(sig2_full * w_row2 / denom_full**2))

        gain = float(np.sum(sig2 / (1.0 + sig2)))
        g1 = hgrad[0] + 0.5 * (m / theta1 - gain / theta1) - 0.5 * r_norm2
        g2 = hgrad[1] + gain / theta2 - ubr_norm2 / theta2

        return ObjectiveEvaluation(
            value=neglogprior + logdet_term + quad_term,
            neglogprior_term=neglogprior,
            logdet_term=logdet_term,
            quad_term=quad_term,
            gradient=np.array([g1, g2]),
            k_used=self.fact_hat.k,
            matvec_report={"forward": 0, "adjoint": 0},
        )


def precompute_two_param(model: TwoParamModel, k: int) -> GenGKFactorization:
    """One-time bidiagonalization with unit noise variance and the frozen Q0."""
    unit_noise = NoiseCovariance(1.0, model.forward.nrows)
    return gengk_bidiag(model.forward, unit_noise, model.prior_shape,
                        model.prior_mean, model.data, k)


def objective_two_param(model: TwoParamModel, fact_hat: GenGKFactorization,
                        theta1: float, theta2: float) -> ObjectiveEvaluation:
    return TwoParamEvaluator(model, fact_hat).evaluate(theta1, theta2)


def optimize_two_param(model: TwoParamModel, theta0,
                       opts: OptimizeOptions,
                       fact_hat: GenGKFactorization | None = None
                       ) -> tuple[np.ndarray, OptimizeTrace]:
    """Optimize (noise variance, prior std) with the factorization precomputed.

    After the one-time bidiagonalization (done here if fact_hat is not
    supplied) no evaluation applies the forward operator, which is asserted
    against the matvec counters.
    """
    theta0 = np.asarray(theta0, dtype=float)
    if theta0.shape != (2,):
        raise ValueError("theta0 must have two components")
    if fact_hat is None:
        fact_hat = precompute_two_param(model, opts.k)
    evaluator = TwoParamEvaluator(model, fact_hat)
    before = model.forward.matvec_count.snapshot()

    def eval_fn(theta_values):
        return evaluator.evaluate(theta_values[0], theta_values[1])

    theta_star, trace = _run_lbfgsb(eval_fn, theta0, opts)
    after = model.forward.matvec_count.snapshot()
    if after != before:
        raise RuntimeError(
            "the two-parameter optimization applied the forward operator"
        )
    return theta_star, trace


def map_reconstruct(model: MarginalModel | TwoParamModel, theta,
                    k: int | None = None,
                    fact: GenGKFactorization | None = None) -> np.ndarray:
    """Projected MAP estimate s = mu + Q V_k z with (I + T_k) z = B' beta1 e1.

    Accepts either model flavor; for the general model a factorization is
    computed at theta when not supplied. The cached Q V columns make the
    final synthesis free of extra covariance applies.
    """
    if fact is None:
        if isinstance(model, TwoParamModel):
            raise ValueError("the two-parameter model needs an explicit factorization")
        if k is None:
            raise ValueError("either k or an existing factorization is required")
        theta = theta if isinstance(theta, HyperParams) else HyperParams(np.asarray(theta))
        k_run = min(int(k), min(model.nrows, model.ncols))
        fact = gengk_bidiag(model.forward, model.noise_cov(theta),
                            model.prior_cov(theta), model.prior_mean,
                            model.data, k_run)
    z = fact.spectrum.coefficients()
    return model.mean_vector() + fact.qv_basis[:, : fact.k] @ z


def map_reconstruct_exact(model: MarginalModel, theta: HyperParams) -> np.ndarray:
    """Dense closed-form MAP estimate (oracle; small problems only).

    s = (A' R^{-1} A + Q^{-1})^{-1} (A' R^{-1} d + Q^{-1} mu).
    """
    if model.ncols > model.dense_cap:
        raise ValueError("problem exceeds the dense cap for the closed-form oracle")
    a_dense = dense_matrix(model.forward)
    q_dense = dense_matrix(model.prior_cov(theta))
    q_inv = np.linalg.inv(0.5 * (q_dense + q_dense.T))
    lhs = a_dense.T @ a_dense / theta.noise_var + q_inv
    rhs = a_dense.T @ model.data / theta.noise_var + q_inv @ model.mean_vector()
    return np.linalg.solve(lhs, rhs)


def optimal_lambda_sweep(model: TwoParamModel, fact_hat: GenGKFactorization,
                         s_true, lambda_grid, theta1: float):
    """Reconstruction-error sweep over the regularization parameter.

    For each lambda the prior std is theta2 = 1/lambda and the MAP estimate
    comes from the rescaled factorization; requires the ground truth (synthetic
    problems only). Returns (best_lambda, re_curve) with re_curve of shape
    (len(grid), 2) holding (lambda, RE).
    """
    lambda_grid = np.asarray(lambda_grid, dtype=float)
    if lambda_grid.size == 0:
        raise ValueError("lambda grid is empty")
    if np.any(lambda_grid <= 0):
        raise ValueError("lambda values must be positive")
    s_true = np.asarray(s_true, dtype=float)
    s_norm = np.linalg.norm(s_true)
    if s_norm == 0:
        raise ValueError("ground truth must be nonzero")
    curve = np.empty((lambda_grid.size, 2))
    for idx, lam in enumerate(lambda_grid):
        fact = two_param_rescale(fact_hat, theta1, 1.0 / lam)
        s_hat = map_reconstruct(model, (theta1, 1.0 / lam), fact=fact)
        curve[idx] = (lam, np.linalg.norm(s_true - s_hat) / s_norm)
    best = lambda_grid[int(np.argmin(curve[:, 1]))]
    return float(best), curve
