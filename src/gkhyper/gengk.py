"""Generalized Golub-Kahan bidiagonalization in the R^{-1} / Q inner products.

The iteration needs only matvecs with the forward map, its adjoint and the
prior covariance Q, and the noise covariance R = theta1 I is given by the float
theta1; no square roots or inverses of Q are ever formed. Weighted norms use
||x||^2_{R^{-1}} = <x / theta1, x> and ||v||^2_Q = <Qv, v>.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .covariance import CovarianceOperator
from .operators import LinearOperatorHandle, _check_count, _check_vector

__all__ = [
    "BidiagSpectrum",
    "GenGKFactorization",
    "gengk_bidiag",
    "verify_relations",
    "truncate_factorization",
]

# relative to beta1; the iteration stops early below this
BREAKDOWN_RTOL = 1e-14


def _check_noise_var(theta1) -> float:
    # theta1 of R = theta1 I as a float; a NaN fails the comparison too
    if not 0.0 < float(theta1) < np.inf:
        raise ValueError(f"noise variance must be finite and positive, got {theta1}")
    return float(theta1)


def _bidiagonal_matrix(alphas, betas) -> np.ndarray:
    """Assemble the (k+1) x k lower bidiagonal matrix from the coefficient runs.

    alphas[0..k] and betas[0..k] as stored in a factorization: the diagonal is
    alphas[0..k-1], the subdiagonal betas[1..k] (betas[0] is the initialization
    norm and does not enter the matrix).
    """
    alphas = np.asarray(alphas, dtype=float)
    betas = np.asarray(betas, dtype=float)
    k = len(alphas) - 1
    b = np.zeros((k + 1, k))
    j = np.arange(k)
    b[j, j] = alphas[:k]
    b[j + 1, j] = betas[1 : k + 1]
    return b


@dataclass(frozen=True, eq=False)
class BidiagSpectrum:
    """SVD B = P diag(s) W' of a (k+1) x k bidiagonal plus the initialization norm.

    p is (k+1) x (k+1), s holds the k singular values, s_full is s padded
    with a zero to length k+1, and the columns of w (k x k) are the right
    singular vectors. Everything the approximate objective, its gradient and
    the projected MAP estimate need from B comes from here.
    """

    p: np.ndarray
    s: np.ndarray
    s_full: np.ndarray
    w: np.ndarray
    beta1: float

    def terms(self, noise_logdet: float) -> tuple[float, float]:
        """(logdet_term, quad_term) of the approximate objective.

        Forming I + B B' explicitly is numerically troublesome for the log
        determinant, so it is evaluated through the singular values; the
        quadratic term uses the first row of P.
        """
        s, s_full = self.s, self.s_full
        logdet_term = 0.5 * (noise_logdet + float(np.sum(np.log1p(s * s))))
        w_row = self.p[0, :]
        quad_term = 0.5 * self.beta1**2 * float(np.sum(w_row * w_row / (1.0 + s_full * s_full)))
        return logdet_term, quad_term

    def coefficients(self) -> np.ndarray:
        """z solving (I + B'B) z = B' beta1 e1, with B' e1 = W diag(s) P[0, :k]'."""
        s = self.s
        return self.w @ (self.beta1 * s * self.p[0, : s.shape[0]] / (1.0 + s * s))

    def rescaled(self, theta1: float, theta2: float) -> "BidiagSpectrum":
        """Spectrum of a unit factorization rescaled to (theta1, theta2), in O(k).

        A factorization taken with (R, Q) = (I, Q0) rescales exactly to
        (theta1 I, theta2^2 Q0): B scales by theta2/sqrt(theta1) and beta1 by
        1/sqrt(theta1); the singular vectors do not change.
        """
        root1 = np.sqrt(theta1)
        coeff = theta2 / root1
        return replace(self, s=self.s * coeff, s_full=self.s_full * coeff,
                       beta1=self.beta1 / root1)


@dataclass
class GenGKFactorization:
    """Result of k bidiagonalization steps.

    u_basis (m x (k+1)) is orthonormal in the R^{-1} inner product of the
    noise covariance R = theta1 I it was taken with, given by noise_var =
    theta1, and v_basis (n x (k+1)) in the Q inner product of q_op, the prior
    covariance it was taken with; qv_basis caches Q @ v columns so that
    downstream consumers (reconstruction, monitoring) need no extra Q applies.
    betas[0] is the initialization norm beta1. When the iteration broke down,
    breakdown_at records the step and the trailing basis columns are zero.

    spectrum is the SVD of the bidiagonal, taken on first use and cached; it
    is the one spectral core that the objective, gradient, MAP coefficients
    and two-parameter fast path read. The derivative products dq_basis,
    (dQ/dtheta2 V_k, dQ/dtheta3 V_k), that the gradient reads are cached the
    same way: one q_op block apply on first use (Q V_k, scaled by 2/theta2,
    and dQ/dtheta3 V_k), counted on q_op. Every factorization takes its own,
    a truncation too; a column's bits do not depend on the block it is
    applied in, so a truncation's products are the leading columns of its
    parent's bit for bit. The arrays are not to be modified once either has
    been taken.
    """

    u_basis: np.ndarray
    v_basis: np.ndarray
    qv_basis: np.ndarray
    alphas: np.ndarray
    betas: np.ndarray
    k: int
    q_op: CovarianceOperator
    noise_var: float
    breakdown_at: int | None = None

    @property
    def beta1(self) -> float:
        return float(self.betas[0])

    def bidiagonal(self) -> np.ndarray:
        return _bidiagonal_matrix(self.alphas, self.betas)

    @cached_property
    def spectrum(self) -> BidiagSpectrum:
        b = self.bidiagonal()
        p, s, wt = np.linalg.svd(b, full_matrices=True)
        s_full = np.zeros(b.shape[0])
        s_full[: s.shape[0]] = s
        return BidiagSpectrum(p, s, s_full, wt.T, self.beta1)

    @cached_property
    def dq_basis(self) -> tuple[np.ndarray, np.ndarray]:
        """(dQ/dtheta2 V_k, dQ/dtheta3 V_k) of q_op, by one block apply on V_k."""
        q_v, dq3_v = self.q_op.apply_block_with_theta3_derivative(self.v_basis[:, : self.k])
        q_v *= 2.0 / self.q_op.kernel.prior_std
        return q_v, dq3_v

    def cov_applies(self) -> tuple[int, int]:
        """(Q column applies, dQ/dtheta3 column applies) made on q_op so far."""
        return self.q_op.matvec_count.forward, self.q_op.dq_count


def _orthogonalize(w, basis_cols, weighted_cols):
    # classical Gram-Schmidt applied twice; weighted_cols holds W @ basis so
    # that coefficients <w, b_i>_W come out as plain dot products. The columns
    # are leading views of preallocated bases. Up to 3 columns, OpenBLAS's
    # dgemv takes a separately unrolled path when the leading dimension equals
    # the column count, so the coefficients are taken on a contiguous copy
    # there; it gives the same bits as a basis stacked column by column.
    if weighted_cols.shape[1] <= 3:
        weighted_cols = np.ascontiguousarray(weighted_cols)
    for _ in range(2):
        coeff = weighted_cols.T @ w
        w = w - basis_cols @ coeff
    return w


def gengk_bidiag(A: LinearOperatorHandle, R: float,
                 Q: CovarianceOperator, mu, d, k: int,
                 reorth: bool = True) -> GenGKFactorization:
    """Run k steps of generalized Golub-Kahan bidiagonalization.

    R is the noise variance theta1 of the noise covariance R = theta1 I; one
    that is not finite and positive, a step count k the one count rule
    refuses as nonnegative, or data d that is not a finite vector of length
    m, raises ValueError before any apply.
    Step 0 is the initialization, taken by the same loop body as every later
    step: its forward residual is d - A mu, and its adjoint half has no
    previous v to subtract or reorthogonalize against. Requires
    k <= min(m, n); requesting k = min(m, n) runs into the structural
    breakdown on the last step, which is handled by zero-padding the final
    basis column so the factorization relations still hold. With reorth=True
    every new basis vector is re-projected (twice) against all previous ones
    in the appropriate weighted inner product.
    """
    m, n = A.shape
    R = _check_noise_var(R)
    k = _check_count(k, "k", 0)
    if k > min(m, n):
        raise ValueError(f"k={k} exceeds min(m, n)={min(m, n)}")
    d = _check_vector(d, m, "data")
    mu = np.zeros(n) if mu is None else np.asarray(mu, dtype=float)

    # working bases; columns past the last step taken stay zero, and ru_basis
    # holds R^{-1} U = U / R
    u_basis, ru_basis = np.zeros((m, k + 1)), np.zeros((m, k + 1))
    v_basis, qv_basis = np.zeros((n, k + 1)), np.zeros((n, k + 1))
    alphas, betas = [], []
    breakdown = None
    # step 0 has no previous v, so its adjoint half subtracts beta * 0 and
    # reorthogonalizes against no columns, both exact no-ops
    v = np.zeros(n)
    # until beta1 is known only an exactly zero residual (data explained by
    # the prior mean) stops the iteration
    tol = 0.0
    for j in range(k + 1):
        if j == 0:
            w = d - A.apply(mu)
        else:
            w = A.apply(qv) - alpha * u
            if not np.all(np.isfinite(w)):
                raise FloatingPointError(f"non-finite forward output at iteration {j}")
            if reorth:
                w = _orthogonalize(w, u_basis[:, :j], ru_basis[:, :j])
        beta = float(np.sqrt(max((w / R) @ w, 0.0)))
        betas.append(beta)
        if beta <= tol:
            alphas.append(0.0)
            breakdown = j
            break
        if j == 0:
            tol = BREAKDOWN_RTOL * beta
        u = u_basis[:, j] = w / beta
        ru = ru_basis[:, j] = u / R

        g = A.apply_adjoint(ru) - beta * v
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(f"non-finite adjoint output at iteration {j}")
        if reorth:
            g = _orthogonalize(g, v_basis[:, :j], qv_basis[:, :j])
        qg = Q.apply(g)
        alpha = float(np.sqrt(max(qg @ g, 0.0)))
        alphas.append(alpha)
        if alpha <= tol:
            breakdown = j
            break
        v = v_basis[:, j] = g / alpha
        qv = qv_basis[:, j] = qg / alpha

    # the factorization gets copies made after the loop, not the working
    # arrays made before it: returning those kept about 4 MB more of the
    # heap resident between solves of a 1024-pixel monitor run
    cols = len(alphas)
    return GenGKFactorization(
        u_basis=u_basis[:, :cols].copy(),
        v_basis=v_basis[:, :cols].copy(),
        qv_basis=qv_basis[:, :cols].copy(),
        alphas=np.asarray(alphas, dtype=float),
        betas=np.asarray(betas, dtype=float),
        k=cols - 1,
        q_op=Q,
        noise_var=R,
        breakdown_at=breakdown,
    )


def truncate_factorization(fact: GenGKFactorization, k: int) -> GenGKFactorization:
    """fact read at its leading k iterations, for a k of at most fact.k that
    the one count rule passes as nonnegative; any other k raises ValueError.

    At k = fact.k this is fact itself, with whatever it has cached. Below it,
    a plain view: the leading columns and coefficients of fact's arrays, its
    noise_var and q_op, and a spectrum and derivative products of its own,
    taken on first use.
    """
    k = _check_count(k, "k", 0)
    if k > fact.k:
        raise ValueError(f"k must lie in [0, {fact.k}]")
    if k == fact.k:
        return fact
    return replace(fact, u_basis=fact.u_basis[:, : k + 1], v_basis=fact.v_basis[:, : k + 1],
                   qv_basis=fact.qv_basis[:, : k + 1], alphas=fact.alphas[: k + 1],
                   betas=fact.betas[: k + 1], k=k,
                   breakdown_at=fact.breakdown_at if (fact.breakdown_at or 0) <= k else None)


def verify_relations(fact: GenGKFactorization, A, mu, d):
    """Relative residuals of the three bidiagonalization relations.

    R and Q are the ones the factorization was taken with. Bases whose rows
    do not match A, or data d that is not a finite vector of length m, raise
    ValueError before any apply. A Q V_k and A' R^{-1} U_{k+1} are taken by
    block applies (k forward, k Q and k + 1 adjoint applies).

    Returns (r_init, r_forward, r_adjoint):
      U_{k+1} beta1 e1 = d - A mu,
      A Q V_k = U_{k+1} B_k,
      A' R^{-1} U_{k+1} = V_k B_k' + alpha_{k+1} v_{k+1} e_{k+1}'.
    """
    m, n = A.shape
    mu = np.zeros(n) if mu is None else np.asarray(mu, dtype=float)
    if fact.u_basis.shape[0] != m or fact.v_basis.shape[0] != n:
        raise ValueError("factorization shapes do not match the operator")
    d = _check_vector(d, m, "data")
    k = fact.k
    b = fact.bidiagonal()

    r0 = d - A.apply(mu)
    res1 = np.linalg.norm(fact.u_basis[:, 0] * fact.beta1 - r0)
    den1 = max(np.linalg.norm(r0), 1e-300)

    if k > 0:
        # re-apply Q rather than trusting the cached qv_basis
        aqv = A.apply_block(fact.q_op.apply_block(fact.v_basis[:, :k]))
        ub = fact.u_basis @ b
        res2 = np.linalg.norm(aqv - ub) / max(np.linalg.norm(aqv), 1e-300)
    else:
        res2 = 0.0

    atru = A.apply_adjoint_block(fact.u_basis[:, : k + 1] / fact.noise_var)
    rhs = fact.v_basis[:, :k] @ b.T
    rhs[:, k] += fact.alphas[k] * fact.v_basis[:, k]
    res3 = np.linalg.norm(atru - rhs) / max(np.linalg.norm(atru), 1e-300)

    return (res1 / den1, float(res2), float(res3))
