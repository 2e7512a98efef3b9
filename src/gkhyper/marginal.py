"""Marginal-posterior objective and gradient for hyperparameter estimation.

Three evaluation paths share one record type: the dense oracle, a truncated-SVD
variant for bound checks (the spectrum of A (Q A')), and the bidiagonalization
approximation that never forms Z. No path forms an n x n Q, Q^{1/2} or Q^{-1}.
The dense paths, estimate.map_reconstruct_exact and the exact columns of
`gkhyper monitor` read one data-space assembly: A probed once, Q A' from block
applies on the m columns of A', and Z = A (Q A') + R factored once. The objective is

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
applies Q and dQ/dtheta3 to V_K once. objective_gengk_value is the objective
alone from an existing factorization, for sweeps over k that need no gradient.
objective_rescaled is the fast path with theta3 fixed: since R = theta1 I and
Q = theta2^2 Q0(theta3), a factorization taken at (1, 1, theta3) rescales
exactly to any (theta1, theta2), so the objective and its (theta1, theta2)
gradient cost O(k) and apply no operator.
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
        """Dense oracles form m x m and m x n matrices: max(m, n) within dense_cap."""
        return max(self.nrows, self.ncols) <= self.dense_cap

    def require_dense(self, what: str) -> None:
        if not self.dense_ok:
            raise ValueError(f"{what} forms dense m x m and m x n matrices (m = {self.nrows}, "
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

    def factorize(self, theta: HyperParams, k: int) -> GenGKFactorization:
        """The genGK factorization at theta that every approximate path reads:
        gengk_bidiag with noise_cov(theta), then prior_cov(theta) (a theta of the
        wrong length raises ValueError before any apply), the prior mean and the
        data, for min(k, m, n) steps, k clamped to the most the iteration can
        take. Its k is the count achieved, lower after a breakdown."""
        return gengk_bidiag(self.forward, self.noise_cov(theta), self.prior_cov(theta),
                            self.prior_mean, self.data, min(int(k), self.nrows, self.ncols))


@dataclass
class ObjectiveEvaluation:
    """Objective value split into its three additive terms, plus gradient.

    value is neglogprior_term + logdet_term + quad_term, summed in that
    order. k_used is 0 for the dense oracle; matvec_report counts the
    applications spent on this evaluation: "forward" and "adjoint" of the
    forward map, "q" of the prior covariance Q and "dq" of dQ/dtheta3, in
    columns. dQ/dtheta2 = (2/theta2) Q applies nothing of its own: the Q
    columns it is scaled from count in "q".
    """

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

    @property
    def value(self) -> float:
        return self.neglogprior_term + self.logdet_term + self.quad_term


def _count_delta(op: LinearOperatorHandle, before: tuple[int, int],
                 q: int = 0, dq: int = 0) -> dict:
    after = op.matvec_count.snapshot()
    return {"forward": after[0] - before[0], "adjoint": after[1] - before[1],
            "q": q, "dq": dq}


def _assemble_gradient(hgrad: np.ndarray, *terms: tuple[float, float]) -> np.ndarray:
    # dF/dtheta_i = d(-log pi)/dtheta_i + tr(Z^{-1} dZ_i)/2 - r' dZ_i r/2, with
    # each term given as (trace, -r' dZ_i r/2)
    return np.array([h + 0.5 * trace + quad for h, (trace, quad) in zip(hgrad, terms)])


@dataclass
class _DenseAssembly:
    """Dense data-space pieces at one theta: A, Q A', dQ/dtheta3 A' (None without
    a gradient), r = A mu - d and the applies spent; with Z factored, Z's
    Cholesky factor, w = Z^{-1} r and the three objective terms (else None)."""

    a: np.ndarray
    qa: np.ndarray
    dq3_a: np.ndarray | None
    r: np.ndarray
    report: dict
    cho: tuple | None = None
    w: np.ndarray | None = None
    evaluation: ObjectiveEvaluation | None = None


def _dense_assembly(model: MarginalModel, theta: HyperParams, what: str,
                    gradient: bool = False, factor: bool = True) -> _DenseAssembly:
    """The one assembly every dense oracle reads, within the dense cap.

    Q is built first, so theta is checked before any apply; A is probed once
    by dense_matrix; with a gradient one block apply takes Q A' and
    dQ/dtheta3 A' together (one shared forward transform per chunk). Z =
    A (Q A') + theta1 I is symmetrized and factored once.
    """
    model.require_dense(what)
    q_op = model.prior_cov(theta)
    before = model.forward.matvec_count.snapshot()
    a = dense_matrix(model.forward)
    if gradient:
        qa, dq3_a = q_op.apply_block_with_theta3_derivative(a.T)
    else:
        qa, dq3_a = q_op.apply_block(a.T), None
    core = _DenseAssembly(a, qa, dq3_a, a @ model.mean_vector() - model.data, _count_delta(
        model.forward, before, q=q_op.matvec_count.forward, dq=model.nrows if gradient else 0))
    if not factor:
        return core
    z = a @ qa
    z[np.diag_indices_from(z)] += theta.noise_var
    try:
        core.cho = cho_factor(0.5 * (z + z.T), lower=True)
    except LinAlgError as exc:
        raise LinAlgError("Z is numerically non-SPD after symmetrization") from exc
    core.w = cho_solve(core.cho, core.r)
    core.evaluation = ObjectiveEvaluation(
        neglogprior_term=model.hyperprior.neglog(theta.values)[0],
        logdet_term=float(np.sum(np.log(np.diag(core.cho[0])))),  # half of logdet Z
        quad_term=0.5 * float(core.r @ core.w),
        gradient=None,
        k_used=0,
        matvec_report=core.report,
    )
    return core


def objective_exact(model: MarginalModel, theta: HyperParams) -> ObjectiveEvaluation:
    """Dense-oracle objective and gradient (guarded by the dense cap).

    The gradient uses dZ/dtheta1 = I, dZ/dtheta2 = (2/theta2)(Z - theta1 I)
    (from dQ/dtheta2 = (2/theta2) Q), so that the theta2 term is closed form
    in tr Z^{-1}, w'r and w'w, and dZ/dtheta3 = A (dQ/dtheta3 A'), with a
    fixed (zero-derivative) prior mean.
    """
    core = _dense_assembly(model, theta, "the exact objective", gradient=True)
    core.qa = None  # Q A' is dropped before Z^{-1} is formed
    r, w, m = core.r, core.w, model.nrows
    z_inv = cho_solve(core.cho, np.eye(m))

    theta1, theta2 = theta.noise_var, theta.prior_std
    r_w = float(r @ w)
    trace_z_inv, w_norm2 = float(np.trace(z_inv)), float(w @ w)
    noise_term = trace_z_inv, -0.5 * w_norm2  # dZ/dtheta1 = I
    # dZ/dtheta2 = (2/theta2)(Z - theta1 I), and Z w = r
    prior_term = ((2.0 / theta2) * (m - theta1 * trace_z_inv),
                  -(r_w - theta1 * w_norm2) / theta2)
    dz3 = core.a @ core.dq3_a
    dz3 = 0.5 * (dz3 + dz3.T)
    ell_term = float(np.sum(z_inv * dz3)), -0.5 * float(w @ (dz3 @ w))
    _, hgrad = model.hyperprior.neglog(theta.values)
    return replace(core.evaluation,
                   gradient=_assemble_gradient(hgrad, noise_term, prior_term, ell_term))


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
    return ObjectiveEvaluation(
        neglogprior_term=model.hyperprior.neglog(theta.values)[0],
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


def _unit_theta(ell: float) -> HyperParams:
    return HyperParams(np.array([1.0, 1.0, ell]))


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
    _check_taken_at(fact_unit, _unit_theta(theta.corr_length))
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

    When fact is omitted, model.factorize(theta, k) is run fresh (the
    per-evaluation cost model assumes this). A supplied factorization must
    have been computed at the same theta: its R and Q are used as they are,
    and a ValueError is raised, before any apply, when R's variance is not
    theta1 or Q's variance or correlation length is not theta2^2 or theta3.
    Its derivative products are read from its cache, so in a sweep over
    truncations of one factorization only the first read applies Q and
    dQ/dtheta3 to V_K. k_used is the factorization's k.
    """
    before = model.forward.matvec_count.snapshot()
    if fact is None:
        fact = model.factorize(theta, k)
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

    The left singular vectors and squared singular values of Ahat =
    R^{-1/2} A Q^{1/2} are the eigenpairs of the m x m A (Q A') / theta1,
    largest first, clipped at zero, with Q A' from the dense assembly and no
    Q^{1/2} formed. The leading min(k, m, n) give the truncated objective,
    the exact one at k = rank(Ahat); k < 0 raises ValueError. No gradient.
    """
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    core = _dense_assembly(model, theta, "the truncated-SVD objective", factor=False)
    gram = core.a @ core.qa / theta.noise_var
    evals, evecs = np.linalg.eigh(0.5 * (gram + gram.T))
    k_eff = min(int(k), model.nrows, model.ncols)
    sk2 = np.clip(evals[::-1][:k_eff], 0.0, None)
    u_hat = evecs[:, ::-1][:, :k_eff]

    logdet_term = 0.5 * (model.noise_cov(theta).logdet() + float(np.sum(np.log1p(sk2))))
    r_hat = core.r / np.sqrt(theta.noise_var)
    coeff = u_hat.T @ r_hat
    quad_term = 0.5 * (float(r_hat @ r_hat) - float(np.sum(coeff**2 * sk2 / (1.0 + sk2))))
    return ObjectiveEvaluation(
        neglogprior_term=model.hyperprior.neglog(theta.values)[0],
        logdet_term=logdet_term,
        quad_term=quad_term,
        gradient=None,
        k_used=k_eff,
        matvec_report=core.report,
    )
