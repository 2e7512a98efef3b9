"""Marginal-posterior objective and gradient for hyperparameter estimation.

Three evaluation paths share one record type: a dense oracle (assembles the
m x m data-space covariance Z = A Q A' + R through matvecs), a truncated-SVD
variant used for bound checks, and the bidiagonalization-based approximation
that never forms Z. The objective is

    F(theta) = -log pi(theta) + 1/2 logdet Z + 1/2 ||A mu - d||^2_{Z^{-1}},

with additive constants dropped throughout.

The approximate path reads one spectral core per factorization,
GenGKFactorization.spectrum (the SVD of the bidiagonal B_k plus beta1): the
log-determinant and quadratic terms come from BidiagSpectrum.terms, and the
gradient takes its projected pieces from the same P, s and W. Its derivative
products dQ/dtheta_i V_k come from the factorization too
(GenGKFactorization.dq_basis), taken with the Q the factorization carries:
one block apply gives Q V_K and dQ/dtheta3 V_K, and dQ/dtheta2 V_K =
(2/theta2) Q V_K. They are computed once per factorization and shared by its
truncations, so a sweep of objective_gengk over k builds no covariance and
applies Q and dQ/dtheta3 to V_K once. objective_gengk_value is the objective alone from an
existing factorization, for sweeps over k that need no gradient.
objective_rescaled is the fast path with theta3 fixed: since R = theta1 I and
Q = theta2^2 Q0(theta3), a factorization taken at (1, 1, theta3) rescales
exactly to any (theta1, theta2), so the objective and its (theta1, theta2)
gradient cost O(k) and apply no operator. The truncated-SVD path stays
independent of the core, as the dense oracle it is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import cho_factor, cho_solve, LinAlgError

from .covariance import CovarianceOperator, MaternKernel, build_cov_operator, normalize_geometry
from .gengk import BidiagSpectrum, GenGKFactorization, gengk_bidiag
from .operators import LinearOperatorHandle, NoiseCovariance, dense_matrix

__all__ = [
    "HyperParams",
    "Hyperprior",
    "MarginalModel",
    "ObjectiveEvaluation",
    "objective_exact",
    "objective_gengk",
    "objective_gengk_value",
    "objective_rescaled",
    "objective_svd",
]

DENSE_CAP_DEFAULT = 4096


@dataclass(frozen=True, eq=False)
class HyperParams:
    """Positive hyperparameter vector.

    Canonical roles for K=3: noise variance, prior standard deviation,
    correlation length.
    """

    values: np.ndarray

    def __post_init__(self):
        values = np.atleast_1d(np.asarray(self.values, dtype=float))
        object.__setattr__(self, "values", values)
        if values.ndim != 1:
            raise ValueError("hyperparameters must form a vector")
        if not np.all(np.isfinite(values)) or np.any(values <= 0.0):
            raise ValueError(f"hyperparameters must be strictly positive, got {values}")

    def __len__(self) -> int:
        return self.values.shape[0]

    @property
    def noise_var(self) -> float:
        return float(self.values[0])

    @property
    def prior_std(self) -> float:
        return float(self.values[1])

    @property
    def corr_length(self) -> float:
        return float(self.values[2])


@dataclass(frozen=True)
class Hyperprior:
    """Hyperprior on theta: improper flat ("flat") or exponential-family Gamma
    ("gamma") with -log pi = gamma_rate * sum(theta), constants dropped."""

    kind: str = "flat"
    gamma_rate: float = 1e-4

    def __post_init__(self):
        if self.kind not in ("flat", "gamma"):
            raise ValueError(f"hyperprior kind must be 'flat' or 'gamma', got {self.kind!r}")
        if self.kind == "gamma" and self.gamma_rate <= 0:
            raise ValueError("gamma_rate must be positive")

    def neglog(self, theta_values: np.ndarray) -> tuple[float, np.ndarray]:
        theta_values = np.asarray(theta_values, dtype=float)
        if self.kind == "flat":
            return 0.0, np.zeros_like(theta_values)
        return (
            self.gamma_rate * float(np.sum(theta_values)),
            np.full_like(theta_values, self.gamma_rate),
        )


@dataclass
class MarginalModel:
    """Problem data plus the theta-to-covariance rules.

    theta is (noise variance, prior std, correlation length); both rules
    reject a theta of any other length. The noise covariance is theta1 * I.
    The prior covariance Q is Matern with fixed smoothness nu over the
    geometry, stored as covariance.normalize_geometry gives it (a RegularGrid,
    or (n, dim) points); a geometry it rejects, or one whose point count is not
    the operator's column count, raises ValueError. Q's theta-derivatives are
    applied through that Q: dQ/dtheta2 = (2/theta2) Q, and dQ/dtheta3 by
    Q.apply_block_with_theta3_derivative. prior_mean None means zero.
    """

    forward: LinearOperatorHandle
    data: np.ndarray
    geometry: object
    nu: float = 1.5
    hyperprior: Hyperprior = field(default_factory=Hyperprior)
    prior_mean: np.ndarray | None = None
    dense_cap: int = DENSE_CAP_DEFAULT

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        if self.data.shape != (self.forward.nrows,):
            raise ValueError("data length does not match the forward operator")
        n = self.forward.ncols
        self.geometry, geom_n = normalize_geometry(self.geometry)
        if geom_n != n:
            raise ValueError(f"geometry has {geom_n} points but the operator has {n} columns")
        if self.prior_mean is not None:
            self.prior_mean = np.asarray(self.prior_mean, dtype=float)
            if self.prior_mean.shape != (n,):
                raise ValueError("prior mean length does not match the operator")

    @property
    def nrows(self) -> int:
        return self.forward.nrows

    @property
    def ncols(self) -> int:
        return self.forward.ncols

    @property
    def dense_ok(self) -> bool:
        """Dense oracles form m x m and n x n matrices: both within dense_cap."""
        return max(self.nrows, self.ncols) <= self.dense_cap

    def require_dense(self, what: str) -> None:
        if not self.dense_ok:
            raise ValueError(f"{what} forms dense m x m and n x n matrices (m = {self.nrows}, "
                             f"n = {self.ncols}), over the dense cap {self.dense_cap}; use "
                             "the bidiagonalization path")

    def mean_vector(self) -> np.ndarray:
        if self.prior_mean is None:
            return np.zeros(self.ncols)
        return self.prior_mean.copy()

    @staticmethod
    def _check_theta(theta: HyperParams) -> None:
        if len(theta) != 3:
            raise ValueError("theta must be (noise variance, prior std, correlation "
                             f"length), got {len(theta)} values")

    def noise_cov(self, theta: HyperParams) -> NoiseCovariance:
        self._check_theta(theta)
        return NoiseCovariance(theta.noise_var, self.nrows)

    def prior_cov(self, theta: HyperParams) -> CovarianceOperator:
        self._check_theta(theta)
        kernel = MaternKernel(self.nu, theta.prior_std**2, theta.corr_length)
        return build_cov_operator(self.geometry, kernel)


@dataclass
class ObjectiveEvaluation:
    """Objective value split into its three additive terms, plus gradient.

    value = neglogprior_term + logdet_term + quad_term holds by construction
    (same accumulation). k_used is 0 for the dense oracle; matvec_report
    counts the applications spent on this evaluation: "forward" and
    "adjoint" of the forward map, "q" of the prior covariance Q and "dq" of
    dQ/dtheta3, in columns. dQ/dtheta2 = (2/theta2) Q applies nothing of its
    own: the Q columns it is scaled from count in "q".
    """

    value: float
    neglogprior_term: float
    logdet_term: float
    quad_term: float
    gradient: np.ndarray | None
    k_used: int
    matvec_report: dict

    def __post_init__(self):
        for name in ("value", "neglogprior_term", "logdet_term", "quad_term"):
            if not np.isfinite(getattr(self, name)):
                raise FloatingPointError(f"objective term {name} is not finite")


def _count_delta(op: LinearOperatorHandle, before: tuple[int, int],
                 q: int = 0, dq: int = 0) -> dict:
    after = op.matvec_count.snapshot()
    return {"forward": after[0] - before[0], "adjoint": after[1] - before[1],
            "q": q, "dq": dq}


def _assemble_gradient(hgrad: np.ndarray, *terms: tuple[float, float]) -> np.ndarray:
    # dF/dtheta_i = d(-log pi)/dtheta_i + tr(Z^{-1} dZ_i)/2 - r' dZ_i r/2, with
    # each term given as (trace, -r' dZ_i r/2)
    return np.array([h + 0.5 * trace + quad for h, (trace, quad) in zip(hgrad, terms)])


def objective_exact(model: MarginalModel, theta: HyperParams) -> ObjectiveEvaluation:
    """Dense-oracle objective and gradient (guarded by the dense cap).

    Z is assembled through matvecs only, then factored once; the gradient
    uses dZ/dtheta1 = I, dZ/dtheta2 = (2/theta2)(Z - theta1 I) (from
    dQ/dtheta2 = (2/theta2) Q), so that the theta2 term is closed form in
    tr Z^{-1}, w'r and w'w, and the dense dZ/dtheta3 = A (dQ/dtheta3) A',
    with a fixed (zero-derivative) prior mean. Dense Q and dQ/dtheta3 are
    probed together from the one Q built here, one shared forward transform
    per chunk of identity columns, and dense Q is dropped once Z is formed.
    """
    model.require_dense("the exact objective")
    before = model.forward.matvec_count.snapshot()
    m, n = model.nrows, model.ncols
    q_dense, dq3_dense = model.prior_cov(theta).apply_block_with_theta3_derivative(np.eye(n))
    a_dense = dense_matrix(model.forward)
    z = a_dense @ q_dense @ a_dense.T
    del q_dense
    z[np.diag_indices_from(z)] += theta.noise_var
    z = 0.5 * (z + z.T)
    try:
        cho = cho_factor(z, lower=True)
    except LinAlgError as exc:
        raise LinAlgError("Z is numerically non-SPD after symmetrization") from exc
    logdet = 2.0 * float(np.sum(np.log(np.diag(cho[0]))))

    mu = model.mean_vector()
    r = a_dense @ mu - model.data
    w = cho_solve(cho, r)
    r_w = float(r @ w)
    quad = 0.5 * r_w

    neglogprior, hgrad = model.hyperprior.neglog(theta.values)

    z_inv = cho_solve(cho, np.eye(m))

    theta1, theta2 = theta.noise_var, theta.prior_std
    trace_z_inv, w_norm2 = float(np.trace(z_inv)), float(w @ w)
    noise_term = trace_z_inv, -0.5 * w_norm2  # dZ/dtheta1 = I
    # dZ/dtheta2 = (2/theta2)(Z - theta1 I), and Z w = r
    prior_term = ((2.0 / theta2) * (m - theta1 * trace_z_inv),
                  -(r_w - theta1 * w_norm2) / theta2)
    dz3 = a_dense @ dq3_dense @ a_dense.T
    dz3 = 0.5 * (dz3 + dz3.T)
    ell_term = float(np.sum(z_inv * dz3)), -0.5 * float(w @ (dz3 @ w))
    grad = _assemble_gradient(hgrad, noise_term, prior_term, ell_term)

    return ObjectiveEvaluation(
        value=neglogprior + 0.5 * logdet + quad,
        neglogprior_term=neglogprior,
        logdet_term=0.5 * logdet,
        quad_term=quad,
        gradient=grad,
        k_used=0,
        matvec_report=_count_delta(model.forward, before, q=n, dq=n),
    )


def _gengk_gradient(model: MarginalModel, theta: HyperParams,
                    fact: GenGKFactorization) -> np.ndarray:
    noise = fact.noise
    spec = fact.spectrum
    p, s, s_full, w_mat = spec.p, spec.s, spec.s_full, spec.w
    k = fact.k
    b = fact.bidiagonal()
    u = fact.u_basis
    vk = fact.v_basis[:, :k]
    beta1 = fact.beta1

    # r = Ztilde^{-1}(A mu - d) = -beta1 R^{-1} U Theta^{-1} e1, using the
    # initialization relation and U-orthogonality
    theta_inv_e1 = p @ (p[0, :] / (1.0 + s_full * s_full))
    r_vec = -beta1 * noise.apply_inv(u @ theta_inv_e1)
    ub = u @ b
    ub_t_r = ub.T @ r_vec

    gain = s * s / (1.0 + s * s)          # eigenvalues of T(I+T)^{-1}
    shrink = 1.0 / (1.0 + s * s)          # eigenvalues of (I+T)^{-1}

    # dR/dtheta1 = I: <dR/dtheta1, R^{-1}> = m/theta1 and psi_R = (R^{-1} U)'(R^{-1} U),
    # formed from two distinct arrays (one buffer and its transpose would go to syrk)
    bw = p[:, :k] * s
    psi_r = noise.apply_inv(u).T @ noise.apply_inv(u)
    noise_term = (noise.m / noise.theta1 - float(np.sum(np.diag(bw.T @ psi_r @ bw) * shrink)),
                  -0.5 * float(r_vec @ r_vec))

    def q_term(dq_vk: np.ndarray) -> tuple[float, float]:
        if k == 0:
            return 0.0, 0.0
        psi_q = vk.T @ dq_vk
        return (float(np.sum(np.diag(w_mat.T @ psi_q @ w_mat) * gain)),
                -0.5 * float((ub @ (psi_q @ ub_t_r)) @ r_vec))

    dq2_vk, dq3_vk = fact.dq_basis()
    _, hgrad = model.hyperprior.neglog(theta.values)
    grad = _assemble_gradient(hgrad, noise_term, q_term(dq2_vk), q_term(dq3_vk))
    if not np.all(np.isfinite(grad)):
        raise FloatingPointError(f"non-finite gradient {grad}")
    return grad


def _spectral_value(model: MarginalModel, theta: HyperParams, spec: BidiagSpectrum,
                    k: int) -> ObjectiveEvaluation:
    logdet_term, quad_term = spec.terms(model.noise_cov(theta).logdet())
    neglogprior, _ = model.hyperprior.neglog(theta.values)
    return ObjectiveEvaluation(
        value=neglogprior + logdet_term + quad_term,
        neglogprior_term=neglogprior,
        logdet_term=logdet_term,
        quad_term=quad_term,
        gradient=None,
        k_used=k,
        matvec_report={"forward": 0, "adjoint": 0, "q": 0, "dq": 0},
    )


def _check_taken_at(fact: GenGKFactorization, theta: HyperParams) -> None:
    # the R and Q a factorization carries must be those of theta
    kernel = fact.q_op.kernel
    if (fact.noise.theta1 != theta.noise_var or kernel.sigma2 != theta.prior_std**2
            or kernel.ell != theta.corr_length):
        raise ValueError(
            f"the factorization was taken with noise variance {fact.noise.theta1!r}, prior "
            f"variance {kernel.sigma2!r} and correlation length {kernel.ell!r}, not at "
            f"theta = {theta.values}")


def objective_gengk_value(model: MarginalModel, theta: HyperParams,
                          fact: GenGKFactorization) -> ObjectiveEvaluation:
    """Approximate objective alone from a factorization computed at theta.

    Reads the factorization's spectral core only: no covariance build, no
    operator applies and no gradient (gradient is None). A ValueError is
    raised when the factorization's R and Q are not those of theta.
    """
    _check_taken_at(fact, theta)
    return _spectral_value(model, theta, fact.spectrum, fact.k)


def objective_rescaled(model: MarginalModel, theta: HyperParams,
                       fact_unit: GenGKFactorization) -> ObjectiveEvaluation:
    """Approximate objective and (theta1, theta2) gradient from a unit run.

    fact_unit must have been computed at (1, 1, theta3), or a ValueError is
    raised. Its spectral core is rescaled to (theta1, theta2) in O(k); no
    covariance is built and no operator is applied. The gradient has two
    components, since theta3 is held fixed.
    """
    _check_taken_at(fact_unit, HyperParams(np.array([1.0, 1.0, theta.corr_length])))
    theta1, theta2 = theta.noise_var, theta.prior_std
    spec = fact_unit.spectrum.rescaled(theta1, theta2)
    evaluation = _spectral_value(model, theta, spec, fact_unit.k)

    sig2_full = spec.s_full**2
    w_row2 = spec.p[0, :] ** 2
    beta1sq = spec.beta1**2
    denom_full = 1.0 + sig2_full
    # gain = tr(Z^{-1} A Q A') = sum s^2/(1+s^2) on the projected problem;
    # ||r||^2 and ||(UB)' r||^2 follow from the weighted orthogonality of the
    # rescaled bases
    gain = float(np.sum(spec.s**2 / (1.0 + spec.s**2)))
    r_norm2 = (beta1sq / theta1) * float(np.sum(w_row2 / denom_full**2))
    ubr_norm2 = beta1sq * float(np.sum(sig2_full * w_row2 / denom_full**2))

    # dR/dtheta1 = I and dQ/dtheta2 = (2/theta2) Q
    noise_term = model.nrows / theta1 - gain / theta1, -0.5 * r_norm2
    prior_term = 2.0 * gain / theta2, -ubr_norm2 / theta2
    _, hgrad = model.hyperprior.neglog(theta.values)
    return replace(evaluation,
                   gradient=_assemble_gradient(hgrad[:2], noise_term, prior_term))


def objective_gengk(model: MarginalModel, theta: HyperParams, k: int,
                    fact: GenGKFactorization | None = None) -> ObjectiveEvaluation:
    """Approximate objective and gradient from k bidiagonalization steps.

    When fact is omitted the bidiagonalization is run fresh at theta (the
    per-evaluation cost model assumes this). A supplied factorization must
    have been computed at the same theta: its R and Q are used as they are,
    and a ValueError is raised, before any apply, when R's variance is not
    theta1 or Q's variance or correlation length is not theta2^2 or theta3.
    Its derivative products are read from its cache, so in a sweep over
    truncations of one factorization only the first read applies Q and
    dQ/dtheta3 to V_K. If the iteration broke down before k steps the
    achieved count is used and recorded in k_used.
    """
    before = model.forward.matvec_count.snapshot()
    if fact is None:
        k_run = min(int(k), min(model.nrows, model.ncols))
        fact = gengk_bidiag(model.forward, model.noise_cov(theta), model.prior_cov(theta),
                            model.prior_mean, model.data, k_run)
        cov_before = (0, 0)
    else:
        cov_before = fact.cov_applies()
    # checks, before any apply, that a supplied factorization was taken at theta
    evaluation = objective_gengk_value(model, theta, fact)
    gradient = _gengk_gradient(model, theta, fact)
    q_after, dq_after = fact.cov_applies()
    return replace(evaluation, gradient=gradient,
                   matvec_report=_count_delta(model.forward, before,
                                              q=q_after - cov_before[0],
                                              dq=dq_after - cov_before[1]))


def objective_svd(model: MarginalModel, theta: HyperParams, k: int) -> ObjectiveEvaluation:
    """Truncated-SVD objective (dense path; bound checks only).

    Builds Ahat = R^{-1/2} A Q^{1/2} densely, truncates its SVD at rank k and
    evaluates the objective of the resulting data-space covariance. At
    k = rank(Ahat) this reproduces the exact objective. No gradient.
    """
    model.require_dense("the truncated-SVD objective")
    before = model.forward.matvec_count.snapshot()
    noise = model.noise_cov(theta)
    a_dense = dense_matrix(model.forward)
    q_dense = model.prior_cov(theta).apply_block(np.eye(model.ncols))
    evals, evecs = np.linalg.eigh(0.5 * (q_dense + q_dense.T))
    q_half = (evecs * np.sqrt(np.clip(evals, 0.0, None))) @ evecs.T
    a_hat = (a_dense @ q_half) / np.sqrt(theta.noise_var)
    u_hat, s_hat, _ = np.linalg.svd(a_hat, full_matrices=False)
    k_eff = min(int(k), s_hat.shape[0])

    logdet_term = 0.5 * (noise.logdet() + float(np.sum(np.log1p(s_hat[:k_eff] ** 2))))
    r_hat = noise.inv_sqrt_apply(a_dense @ model.mean_vector() - model.data)
    coeff = u_hat[:, :k_eff].T @ r_hat
    sk2 = s_hat[:k_eff] ** 2
    quad_term = 0.5 * (float(r_hat @ r_hat) - float(np.sum(coeff**2 * sk2 / (1.0 + sk2))))

    neglogprior, _ = model.hyperprior.neglog(theta.values)
    return ObjectiveEvaluation(
        value=neglogprior + logdet_term + quad_term,
        neglogprior_term=neglogprior,
        logdet_term=logdet_term,
        quad_term=quad_term,
        gradient=None,
        k_used=k_eff,
        matvec_report=_count_delta(model.forward, before, q=model.ncols),
    )
