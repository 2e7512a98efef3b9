"""Marginal-posterior objective and gradient for hyperparameter estimation.

Four evaluation paths share one record type: the dense oracle
(objective_exact), a truncated-SVD variant for bound checks (objective_svd, on
the spectrum of A (Q A')), the bidiagonalization approximation that never
forms Z (objective_gengk) and its theta3-fixed rescaling (objective_rescaled).
Each path writes only its log-determinant, quadratic and gradient terms: every
record is built by one constructor, _evaluation, which adds the hyperprior
term, and every gradient by one assembler, _assemble_gradient, which adds the
hyperprior's gradient. No path forms an n x n Q, Q^{1/2} or Q^{-1}.
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
one block apply, whose columns Q counts, gives Q V_K and dQ/dtheta3 V_K, and
dQ/dtheta2 V_K = (2/theta2) Q V_K. They are cached like the spectrum and shared
by its truncations, so a sweep of objective_gengk over k builds no covariance
and applies Q and dQ/dtheta3 to V_K once. objective_gengk computes its value
terms at once and takes its gradient on the first read of .gradient (or of
.matvec_report, which covers value and gradient), so a sweep over k that reads
only values applies no dQ and forms no Gram of the gradient.
objective_rescaled is the fast path with theta3 fixed: since R = theta1 I and
Q = theta2^2 Q0(theta3), a factorization taken at (1, 1, theta3) rescales
exactly to any (theta1, theta2), so the objective and its (theta1, theta2)
gradient cost O(k) and apply no operator.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import cho_factor, cho_solve, LinAlgError

from .covariance import CovarianceOperator, MaternKernel, build_cov_operator, normalize_geometry
from .gengk import GenGKFactorization, gengk_bidiag
from .operators import LinearOperatorHandle, _check_count, _check_scale, dense_matrix

__all__ = [
    "HyperParams",
    "Hyperprior",
    "MarginalModel",
    "ObjectiveEvaluation",
    "objective_exact",
    "objective_gengk",
    "objective_rescaled",
    "objective_svd",
]

DENSE_CAP_DEFAULT = 4096


@dataclass(frozen=True, eq=False)
class HyperParams:
    """theta = (noise variance, prior standard deviation, correlation length).

    The record owns the rule every reader of theta relies on: three finite,
    strictly positive values, with theta2's square, the prior variance,
    finite and positive too; any other length or value raises ValueError.
    """

    values: np.ndarray

    def __post_init__(self):
        values = np.atleast_1d(np.asarray(self.values, dtype=float))
        object.__setattr__(self, "values", values)
        if values.ndim != 1:
            raise ValueError("hyperparameters must form a vector")
        if len(values) != 3:
            raise ValueError("theta must be (noise variance, prior std, correlation "
                             f"length), got {len(values)} values")
        if not np.all((0.0 < values) & (values < np.inf)):
            raise ValueError(f"hyperparameters must be finite and strictly positive, got {values}")
        _check_scale(float(values[1]), "the prior std theta2")

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
        if not 0.0 < self.gamma_rate < np.inf:
            raise ValueError(f"gamma_rate must be finite and positive, got {self.gamma_rate}")

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

    theta is a HyperParams, whose constructor holds the length rule, so both
    rules read its three values unchecked. The noise covariance R = theta1 I
    is given by theta1: noise_cov returns that float.
    The prior covariance Q is Matern with fixed smoothness nu over the
    geometry, stored as covariance.normalize_geometry gives it (a RegularGrid,
    or (n, dim) points); a geometry it rejects, or one whose point count is not
    the operator's column count, raises ValueError. Q's theta-derivatives are
    applied through that Q: dQ/dtheta2 = (2/theta2) Q, and dQ/dtheta3 by
    Q.apply_block_with_theta3_derivative. prior_mean None means zero. Data or
    a prior mean of the wrong length or with a non-finite entry raises
    ValueError before any apply, as does a dense_cap (the largest max(m, n) a
    dense oracle takes) that the one count rule refuses as a positive integer.
    """

    forward: LinearOperatorHandle
    data: np.ndarray
    geometry: object
    nu: float = 1.5
    hyperprior: Hyperprior = field(default_factory=Hyperprior)
    prior_mean: np.ndarray | None = None
    dense_cap: int = DENSE_CAP_DEFAULT

    def __post_init__(self):
        self.dense_cap = _check_count(self.dense_cap, "dense_cap", 1)
        self.data = np.asarray(self.data, dtype=float)
        if self.data.shape != (self.forward.nrows,):
            raise ValueError("data length does not match the forward operator")
        if not np.all(np.isfinite(self.data)):
            raise ValueError("data contains non-finite entries")
        n = self.forward.ncols
        self.geometry, geom_n = normalize_geometry(self.geometry)
        if geom_n != n:
            raise ValueError(f"geometry has {geom_n} points but the operator has {n} columns")
        if self.prior_mean is not None:
            self.prior_mean = np.asarray(self.prior_mean, dtype=float)
            if self.prior_mean.shape != (n,):
                raise ValueError("prior mean length does not match the operator")
            if not np.all(np.isfinite(self.prior_mean)):
                raise ValueError("prior mean contains non-finite entries")

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

    def noise_cov(self, theta: HyperParams) -> float:
        return theta.noise_var

    def prior_cov(self, theta: HyperParams) -> CovarianceOperator:
        kernel = MaternKernel(self.nu, theta.prior_std**2, theta.corr_length)
        return build_cov_operator(self.geometry, kernel)

    def factorize(self, theta: HyperParams, k: int) -> GenGKFactorization:
        """The genGK factorization at theta that every approximate path reads:
        gengk_bidiag with noise_cov(theta), prior_cov(theta), the prior mean and
        the data, for min(k, m, n) steps, k clamped to the most the iteration can
        take. Its k is the count achieved, lower after a breakdown."""
        return gengk_bidiag(self.forward, self.noise_cov(theta), self.prior_cov(theta),
                            self.prior_mean, self.data, min(k, self.nrows, self.ncols))


def _check_gradient(gradient: np.ndarray | None) -> None:
    if gradient is not None and not np.all(np.isfinite(gradient)):
        raise FloatingPointError(f"non-finite gradient {gradient}")


@dataclass
class ObjectiveEvaluation:
    """Objective value split into its three additive terms, plus gradient.

    value is neglogprior_term + logdet_term + quad_term, summed in that
    order. The record refuses a non-finite value or gradient with a
    FloatingPointError, whether the gradient is given when it is built or
    taken on first read. k_used is 0 for the dense oracle; matvec_report
    counts the applications spent on this evaluation, value and gradient:
    "forward" and "adjoint" of the forward map, "q" of the prior covariance Q
    and "dq" of dQ/dtheta3, in columns. dQ/dtheta2 = (2/theta2) Q applies
    nothing of its own: the Q columns it is scaled from count in "q". An
    evaluation built with _take_gradient takes its gradient, and the report's
    Q and dQ/dtheta3 columns, on the first read of gradient or matvec_report,
    and then drops _take_gradient and what it holds; a take that raises is
    made again on the next read.
    """

    neglogprior_term: float
    logdet_term: float
    quad_term: float
    k_used: int
    _report: dict
    _gradient: np.ndarray | None = None
    _take_gradient: Callable[[], tuple[np.ndarray, dict]] | None = field(default=None,
                                                                          repr=False)

    def __post_init__(self):
        for name in ("value", "neglogprior_term", "logdet_term", "quad_term"):
            if not np.isfinite(getattr(self, name)):
                raise FloatingPointError(f"objective term {name} is not finite")
        _check_gradient(self._gradient)

    def _take(self) -> None:
        if self._take_gradient is not None:
            gradient, report = self._take_gradient()
            _check_gradient(gradient)
            self._gradient, self._report = gradient, report
            self._take_gradient = None

    @property
    def value(self) -> float:
        return self.neglogprior_term + self.logdet_term + self.quad_term

    @property
    def gradient(self) -> np.ndarray | None:
        self._take()
        return self._gradient

    @property
    def matvec_report(self) -> dict:
        self._take()
        return self._report


def _evaluation(model: MarginalModel, theta: HyperParams, logdet_term: float, quad_term: float,
                k_used: int, report: dict, gradient: np.ndarray | None = None,
                take_gradient: Callable | None = None) -> ObjectiveEvaluation:
    # the one constructor of a record, which adds the hyperprior term for every path
    return ObjectiveEvaluation(model.hyperprior.neglog(theta.values)[0], logdet_term,
                               quad_term, k_used, report, gradient, take_gradient)


def _count_delta(op: LinearOperatorHandle, before: tuple[int, int],
                 q: int = 0, dq: int = 0) -> dict:
    after = op.matvec_count.snapshot()
    return {"forward": after[0] - before[0], "adjoint": after[1] - before[1],
            "q": q, "dq": dq}


def _assemble_gradient(model: MarginalModel, theta: HyperParams,
                       *terms: tuple[float, float]) -> np.ndarray:
    # dF/dtheta_i = d(-log pi)/dtheta_i + tr(Z^{-1} dZ_i)/2 - r' dZ_i r/2, with
    # each term given as (trace, -r' dZ_i r/2); a path with fewer terms than
    # theta has (theta3 fixed) gets the leading components
    _, hgrad = model.hyperprior.neglog(theta.values)
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

    Q is built first, before any apply; A is probed once by dense_matrix;
    with a gradient one block apply takes Q A' and dQ/dtheta3 A' together
    (one shared forward transform per chunk). Z = A (Q A') + theta1 I is
    symmetrized and factored once.
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
        model.forward, before, q=q_op.matvec_count.forward, dq=q_op.dq_count))
    if not factor:
        return core
    z = a @ qa
    z[np.diag_indices_from(z)] += theta.noise_var
    try:
        core.cho = cho_factor(0.5 * (z + z.T), lower=True)
    except LinAlgError as exc:
        raise LinAlgError("Z is numerically non-SPD after symmetrization") from exc
    core.w = cho_solve(core.cho, core.r)
    # the log-determinant term, half of logdet Z, from the Cholesky diagonal
    core.evaluation = _evaluation(model, theta, float(np.sum(np.log(np.diag(core.cho[0])))),
                                  0.5 * float(core.r @ core.w), 0, core.report)
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
    return replace(core.evaluation,
                   _gradient=_assemble_gradient(model, theta, noise_term, prior_term, ell_term))


def _gengk_gradient(model: MarginalModel, theta: HyperParams,
                    fact: GenGKFactorization) -> np.ndarray:
    theta1 = theta.noise_var
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
    r_vec = -beta1 * (u @ theta_inv_e1 / theta1)
    ub = u @ b
    ub_t_r = ub.T @ r_vec

    gain = s * s / (1.0 + s * s)          # eigenvalues of T(I+T)^{-1}
    shrink = 1.0 / (1.0 + s * s)          # eigenvalues of (I+T)^{-1}

    # dR/dtheta1 = I: <dR/dtheta1, R^{-1}> = m/theta1 and psi_R = (R^{-1} U)'(R^{-1} U),
    # formed from two distinct arrays (one buffer and its transpose would go to syrk)
    bw = p[:, :k] * s
    psi_r = (u / theta1).T @ (u / theta1)
    noise_term = (model.nrows / theta1 - float(np.sum(np.diag(bw.T @ psi_r @ bw) * shrink)),
                  -0.5 * float(r_vec @ r_vec))

    def q_term(dq_vk: np.ndarray) -> tuple[float, float]:
        if k == 0:
            return 0.0, 0.0
        psi_q = vk.T @ dq_vk
        return (float(np.sum(np.diag(w_mat.T @ psi_q @ w_mat) * gain)),
                -0.5 * float((ub @ (psi_q @ ub_t_r)) @ r_vec))

    dq2_vk, dq3_vk = fact.dq_basis()
    return _assemble_gradient(model, theta, noise_term, q_term(dq2_vk), q_term(dq3_vk))


def _check_taken_at(fact: GenGKFactorization, theta: HyperParams) -> None:
    # theta must give the R and Q the factorization carries
    kernel = fact.q_op.kernel
    if (fact.noise_var != theta.noise_var or kernel.sigma2 != theta.prior_std**2
            or kernel.ell != theta.corr_length):
        raise ValueError(
            f"the factorization was taken with noise variance {fact.noise_var!r}, prior "
            f"variance {kernel.sigma2!r} and correlation length {kernel.ell!r}, not at "
            f"theta = {theta.values}")


def _unit_theta(ell: float) -> HyperParams:
    return HyperParams(np.array([1.0, 1.0, ell]))


def objective_rescaled(model: MarginalModel, theta: HyperParams,
                       fact_unit: GenGKFactorization) -> ObjectiveEvaluation:
    """Approximate objective and (theta1, theta2) gradient from a unit run.

    fact_unit must have been computed at (1, 1, theta3), or a ValueError is
    raised. Its spectral core is rescaled to (theta1, theta2) in O(k); no
    covariance is built and no operator is applied. The gradient has two
    components, since theta3 is held fixed; a value or gradient that is not
    finite raises FloatingPointError.
    """
    _check_taken_at(fact_unit, _unit_theta(theta.corr_length))
    theta1, theta2 = theta.noise_var, theta.prior_std
    spec = fact_unit.spectrum.rescaled(theta1, theta2)
    logdet_term, quad_term = spec.terms(model.nrows * np.log(model.noise_cov(theta)))

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
    return _evaluation(model, theta, logdet_term, quad_term, fact_unit.k,
                       {"forward": 0, "adjoint": 0, "q": 0, "dq": 0},
                       gradient=_assemble_gradient(model, theta, noise_term, prior_term))


def objective_gengk(model: MarginalModel, theta: HyperParams, k: int,
                    fact: GenGKFactorization | None = None) -> ObjectiveEvaluation:
    """Approximate objective and gradient from k bidiagonalization steps.

    When fact is omitted, model.factorize(theta, k) is run fresh (the
    per-evaluation cost model assumes this). A supplied factorization must
    have been computed at the same theta: its R and Q are used as they are,
    and a ValueError is raised, before any apply, when R's variance is not
    theta1 or Q's variance or correlation length is not theta2^2 or theta3.
    The value terms are computed at once from the factorization's spectral
    core. The gradient is taken on the first read of .gradient or
    .matvec_report, with a FloatingPointError there if it is not finite, so a
    caller that reads only values applies no dQ and forms no Gram. The
    derivative products are read from the factorization's cache, so in a
    sweep over truncations of one factorization only the first gradient read
    applies Q and dQ/dtheta3 to V_K. matvec_report covers value and gradient:
    the forward and adjoint applies of this call and the Q and dQ/dtheta3
    columns of a fresh factorization and of the gradient's own take. k_used
    is the factorization's k.
    """
    before = model.forward.matvec_count.snapshot()
    if fact is None:
        fact = model.factorize(theta, k)
        q_applied = fact.cov_applies()[0]
    else:
        q_applied = 0
    _check_taken_at(fact, theta)
    report = _count_delta(model.forward, before, q=q_applied)

    def take_gradient() -> tuple[np.ndarray, dict]:
        q_before, dq_before = fact.cov_applies()
        gradient = _gengk_gradient(model, theta, fact)
        q_after, dq_after = fact.cov_applies()
        return gradient, dict(report, q=report["q"] + q_after - q_before,
                              dq=dq_after - dq_before)

    logdet_term, quad_term = fact.spectrum.terms(model.nrows * np.log(model.noise_cov(theta)))
    return _evaluation(model, theta, logdet_term, quad_term, fact.k, report,
                       take_gradient=take_gradient)


def objective_svd(model: MarginalModel, theta: HyperParams, k: int) -> ObjectiveEvaluation:
    """Truncated-SVD objective (dense path; bound checks only).

    The left singular vectors and squared singular values of Ahat =
    R^{-1/2} A Q^{1/2} are the eigenpairs of the m x m A (Q A') / theta1,
    largest first, clipped at zero, with Q A' from the dense assembly and no
    Q^{1/2} formed. The leading min(k, m, n) give the truncated objective,
    the exact one at k = rank(Ahat); a k that is not a nonnegative integer
    raises ValueError. No gradient.
    """
    k = _check_count(k, "k", 0)
    core = _dense_assembly(model, theta, "the truncated-SVD objective", factor=False)
    gram = core.a @ core.qa / theta.noise_var
    evals, evecs = np.linalg.eigh(0.5 * (gram + gram.T))
    k_eff = min(k, model.nrows, model.ncols)
    sk2 = np.clip(evals[::-1][:k_eff], 0.0, None)
    u_hat = evecs[:, ::-1][:, :k_eff]

    logdet_term = 0.5 * (model.nrows * np.log(theta.noise_var) + float(np.sum(np.log1p(sk2))))
    r_hat = core.r / np.sqrt(theta.noise_var)
    coeff = u_hat.T @ r_hat
    quad_term = 0.5 * (float(r_hat @ r_hat) - float(np.sum(coeff**2 * sk2 / (1.0 + sk2))))
    return _evaluation(model, theta, logdet_term, quad_term, k_eff, core.report)
