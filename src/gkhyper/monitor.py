"""A-posteriori accuracy monitoring for the bidiagonalization approximation.

The trace gap xi_k = tr(H_Q) - tr(H_Q^(k)) bounds the absolute objective
error via  |F - F_k| <= (xi_k + beta1^2 xi_k / (1 + xi_k)) / 2. The gap obeys
a cheap recurrence in the bidiagonal coefficients; only the initial value
tr(H_Q) needs estimating, which is done with a Monte Carlo probe of
H Q = A' R^{-1} A Q requiring a single batch of forward/adjoint applications.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .gengk import GenGKFactorization, _check_noise_var
from .operators import LinearOperatorHandle, _check_count

__all__ = [
    "xi_recurrence",
    "mc_xi_estimate",
    "err_indicator",
    "prop2_bound",
    "normal_matrix_apply",
]


def xi_recurrence(alphas, betas, xi0: float) -> np.ndarray:
    """Trace-gap sequence xi_1 .. xi_k from the bidiagonal coefficients.

    xi_{k+1} = xi_k - (alpha_{k+1}^2 + beta_{k+2}^2), started from
    xi_0 = tr(H_Q) (dense oracle or Monte Carlo estimate), which must be
    finite, else ValueError. The sequence is monotonically nonincreasing.
    """
    xi0 = float(xi0)
    if not -math.inf < xi0 < math.inf:
        raise ValueError(f"xi0 must be finite, got {xi0}")
    alphas = np.asarray(alphas, dtype=float)
    betas = np.asarray(betas, dtype=float)
    k = len(alphas) - 1
    if k < 1:
        raise ValueError("need at least one completed iteration")
    if len(betas) != len(alphas):
        raise ValueError("alphas and betas must have equal length")
    drops = alphas[:k] ** 2 + betas[1 : k + 1] ** 2
    return xi0 - np.cumsum(drops)


def normal_matrix_apply(A: LinearOperatorHandle, R: float):
    """Matrix-free application of H = A' R^{-1} A to an (n, p) block.

    R = theta1 I is given by theta1 (finite and positive, else ValueError
    before any apply). One ``apply_block`` and one ``apply_adjoint_block``: p
    forward and p adjoint applies, each column bit for bit H applied to it alone.
    """
    R = _check_noise_var(R)

    def h_apply(x):
        return A.apply_adjoint_block(A.apply_block(x) / R)

    return h_apply


def _draw_probes(n: int, n_mc: int, probe_kind: str, rng) -> tuple[np.ndarray, float]:
    if probe_kind == "gaussian":
        return rng.standard_normal((n, n_mc)), 1.0 / n_mc
    if probe_kind == "rademacher":
        return rng.integers(0, 2, size=(n, n_mc)) * 2.0 - 1.0, 1.0 / n_mc
    if probe_kind == "identity":
        # exhaustive deterministic probing: the estimate is the exact trace
        return np.eye(n), 1.0
    raise ValueError(f"probe_kind must be gaussian, rademacher or identity, got {probe_kind!r}")


def mc_xi_estimate(h_apply, Q, fact: GenGKFactorization, n_mc: int,
                   seed=None, k_max: int | None = None,
                   probe_kind: str = "gaussian") -> np.ndarray:
    """Monte Carlo estimates of xi_k for k = 1 .. k_max.

    Draws the probe block Omega once and forms Y = H Q Omega in two block
    applies (the only stage that touches the forward map): Q Omega by
    ``Q.apply_block``, then h_apply, which maps an (n, p) block, as
    normal_matrix_apply's does, with n_mc forward and n_mc adjoint applies.
    It then sweeps k through the cheap projected corrections. probe_kind
    "identity" replaces Omega by the full standard basis, reproducing the
    exact traces. Q must be the factorization's own ``fact.q_op``; k_max (None:
    fact.k; capped at it) and n_mc (unless the probes are "identity") must pass
    the one count rule as positive integers. Else ValueError, before any apply.
    """
    if Q is not fact.q_op:
        raise ValueError("Q must be the prior covariance the factorization was taken with")
    if probe_kind != "identity":
        n_mc = _check_count(n_mc, "n_mc", 1)
    n = fact.v_basis.shape[0]
    k_max = fact.k if k_max is None else min(_check_count(k_max, "k_max", 1), fact.k)
    if k_max < 1:
        raise ValueError("the factorization has no completed iterations")
    rng = np.random.default_rng(seed)
    omega, scale = _draw_probes(n, n_mc, probe_kind, rng)

    q_omega = Q.apply_block(omega)
    y = h_apply(q_omega)

    full_trace = float(np.sum(omega * y)) * scale
    vk = fact.v_basis[:, :k_max]
    b = fact.bidiagonal()[: k_max + 1, :k_max]
    omega_v = omega.T @ vk            # (probes, k_max)
    v_qomega = vk.T @ q_omega         # (k_max, probes)

    out = np.empty(k_max)
    for k in range(1, k_max + 1):
        t_k = b[: k + 1, :k].T @ b[: k + 1, :k]
        corr = float(np.sum((omega_v[:, :k] @ t_k) * v_qomega[:k, :].T)) * scale
        out[k - 1] = full_trace - corr
    return out


def err_indicator(xi_hat: float, beta1: float) -> float:
    """Monte Carlo error indicator: prop2_bound at the estimate xi_hat.

    Sampling noise can push xi_hat slightly negative; negative values are
    clamped to zero, with a warning when the excursion is beyond noise level.
    A xi_hat or beta1 that is not finite raises ValueError.
    """
    xi_hat = float(xi_hat)
    if not -math.inf < xi_hat < math.inf:
        raise ValueError(f"the trace-gap estimate must be finite, got {xi_hat}")
    if xi_hat < 0.0:
        if xi_hat < -1e-8 * beta1**2:
            warnings.warn(
                f"xi estimate {xi_hat:.3e} is negative beyond noise level; clamping to 0",
                stacklevel=2,
            )
        xi_hat = 0.0
    return prop2_bound(xi_hat, beta1)


def prop2_bound(xi_k: float, beta1: float) -> float:
    """Guaranteed objective-error bound for an exact (nonnegative) trace gap.

    xi_k must be finite and nonnegative and beta1 finite, else ValueError.
    """
    xi_k = float(xi_k)
    if not 0.0 <= xi_k < math.inf:
        raise ValueError(f"the exact trace gap must be finite and nonnegative, got {xi_k}")
    if not -math.inf < beta1 < math.inf:
        raise ValueError(f"beta1 must be finite, got {beta1}")
    return 0.5 * (xi_k + beta1**2 * xi_k / (1.0 + xi_k))
