import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkhyper.covariance import MaternKernel, build_cov_operator
from gkhyper.gengk import gengk_bidiag
from gkhyper.marginal import HyperParams, MarginalModel, objective_exact, objective_gengk
from gkhyper.monitor import (
    err_indicator,
    mc_xi_estimate,
    normal_matrix_apply,
    prop2_bound,
    xi_recurrence,
)
from gkhyper.gengk import truncate_factorization
from gkhyper.operators import DenseOperator, dense_matrix
from gkhyper.problems import build_heat_problem, build_ray_tomo_problem


def dense_setup(rng, m=12, n=10, theta1=0.4):
    A = DenseOperator(rng.standard_normal((m, n)) / np.sqrt(max(m, n)))
    R = theta1
    Q = build_cov_operator(rng.uniform(0, 1, (n, 2)), MaternKernel(1.5, 1.1, 0.3))
    d = rng.standard_normal(m)
    return A, R, Q, d


def dense_xi(A, R, Q, fact):
    # direct trace oracle: xi_k = tr(H Q) - tr(V_k T_k V_k' Q)
    a = dense_matrix(A)
    q = dense_matrix(Q)
    hq = (a.T @ a / R) @ q
    xi0 = np.trace(hq)
    out = np.empty(fact.k)
    for k in range(1, fact.k + 1):
        vk = fact.v_basis[:, :k]
        b = fact.bidiagonal()[: k + 1, :k]
        out[k - 1] = xi0 - np.trace(vk @ (b.T @ b) @ vk.T @ q)
    return xi0, out


def test_mc_xi_estimate_bits_and_counts_match_per_probe_reference(rng):
    # H Q Omega as one block gives the bits of the per-probe loop it replaced,
    # with p forward and p adjoint applies: on a tall dense A (its adjoint
    # dgemv rounds differently on strided columns), heat and sparse rays
    heat = build_heat_problem(n=64, noise_level=0.02, seed=0)
    ray = build_ray_tomo_problem(g=8, n_rays=40, noise_level=0.02, seed=0)
    kernel = MaternKernel(1.5, 0.64, 0.1)
    cases = [dense_setup(rng, m=30, n=20),
             (heat.forward, 1e-4,
              build_cov_operator(heat.geometry, kernel), heat.data),
             (ray.forward, 1e-4,
              build_cov_operator(ray.geometry, kernel), ray.data)]
    for A, R, Q, d in cases:
        fact = gengk_bidiag(A, R, Q, None, d, 12)

        def per_probe(x):
            return np.column_stack([A.apply_adjoint(A.apply(x[:, j]) / R)
                                    for j in range(x.shape[1])])

        for kind, n_mc, p in (("gaussian", 7, 7), ("rademacher", 17, 17),
                              ("identity", 1, A.ncols)):
            before = A.matvec_count.snapshot()
            got = mc_xi_estimate(normal_matrix_apply(A, R), Q, fact, n_mc, seed=5,
                                 probe_kind=kind)
            assert A.matvec_count.snapshot() == (before[0] + p, before[1] + p)
            want = mc_xi_estimate(per_probe, Q, fact, n_mc, seed=5, probe_kind=kind)
            assert [x.hex() for x in got] == [x.hex() for x in want], kind


def test_recurrence_with_zero_coefficients():
    xi = xi_recurrence(np.zeros(5), np.zeros(5), 3.7)
    assert np.allclose(xi, 3.7)


def test_recurrence_matches_dense_trace(rng):
    A, R, Q, d = dense_setup(rng)
    fact = gengk_bidiag(A, R, Q, None, d, 8)
    xi0, reference = dense_xi(A, R, Q, fact)
    xi = xi_recurrence(fact.alphas, fact.betas, xi0)
    assert np.all(np.abs(xi - reference) <= 1e-8 * np.maximum(np.abs(reference), 1e-8 * xi0))


def test_xi_vanishes_at_full_breakdown(rng):
    A, R, Q, d = dense_setup(rng, m=9, n=9)
    fact = gengk_bidiag(A, R, Q, None, d, 9)
    xi0, reference = dense_xi(A, R, Q, fact)
    xi = xi_recurrence(fact.alphas, fact.betas, xi0)
    assert abs(xi[-1]) <= 1e-10 * xi0
    assert abs(reference[-1]) <= 1e-10 * xi0


def test_recurrence_input_validation():
    with pytest.raises(ValueError):
        xi_recurrence(np.array([1.0]), np.array([1.0]), 1.0)
    with pytest.raises(ValueError):
        xi_recurrence(np.ones(3), np.ones(2), 1.0)


def test_identity_probes_reproduce_dense_trace(rng):
    A, R, Q, d = dense_setup(rng)
    fact = gengk_bidiag(A, R, Q, None, d, 7)
    _, reference = dense_xi(A, R, Q, fact)
    est = mc_xi_estimate(normal_matrix_apply(A, R), Q, fact, 1, probe_kind="identity")
    assert np.all(np.abs(est - reference) <= 1e-10 * np.maximum(np.abs(reference), 1.0))


def test_mc_estimator_unbiased(rng):
    A, R, Q, d = dense_setup(rng)
    fact = gengk_bidiag(A, R, Q, None, d, 6)
    _, reference = dense_xi(A, R, Q, fact)
    h_apply = normal_matrix_apply(A, R)
    n_seeds = 400
    samples = np.array([
        mc_xi_estimate(h_apply, Q, fact, 4, seed=s) for s in range(n_seeds)
    ])
    mean = samples.mean(axis=0)
    stderr = samples.std(axis=0, ddof=1) / np.sqrt(n_seeds)
    assert np.all(np.abs(mean - reference) <= 3.0 * stderr + 1e-12)


def test_rademacher_probes_unbiased(rng):
    A, R, Q, d = dense_setup(rng)
    fact = gengk_bidiag(A, R, Q, None, d, 6)
    _, reference = dense_xi(A, R, Q, fact)
    h_apply = normal_matrix_apply(A, R)
    samples = np.array([
        mc_xi_estimate(h_apply, Q, fact, 4, seed=s, probe_kind="rademacher")
        for s in range(400)
    ])
    mean = samples.mean(axis=0)
    stderr = samples.std(axis=0, ddof=1) / np.sqrt(400)
    assert np.all(np.abs(mean - reference) <= 3.0 * stderr + 1e-12)


def test_no_forward_applications_after_probe_batch(rng):
    A, R, Q, d = dense_setup(rng)
    fact = gengk_bidiag(A, R, Q, None, d, 8)
    before = A.matvec_count.snapshot()
    mc_xi_estimate(normal_matrix_apply(A, R), Q, fact, 5, seed=0)
    after = A.matvec_count.snapshot()
    # exactly n_mc forward and n_mc adjoint applications, all in the Y batch
    assert after[0] - before[0] == 5
    assert after[1] - before[1] == 5


def test_mc_estimator_validation(rng):
    A, R, Q, d = dense_setup(rng)
    fact = gengk_bidiag(A, R, Q, None, d, 5)
    with pytest.raises(ValueError):
        mc_xi_estimate(normal_matrix_apply(A, R), Q, fact, 0)
    with pytest.raises(ValueError):
        mc_xi_estimate(normal_matrix_apply(A, R), Q, fact, 4, probe_kind="sobol")


def test_mc_estimator_rejects_a_q_other_than_the_factorizations(rng):
    A, R, Q, d = dense_setup(rng)
    fact = gengk_bidiag(A, R, Q, None, d, 5)
    points = rng.uniform(0, 1, (A.ncols, 2))
    before = A.matvec_count.snapshot(), Q.matvec_count.snapshot()
    for other in (build_cov_operator(points, MaternKernel(1.5, 1.1, 0.3)),
                  build_cov_operator(points, MaternKernel(1.5, 4.0, 0.3))):
        with pytest.raises(ValueError, match="factorization"):
            mc_xi_estimate(normal_matrix_apply(A, R), other, fact, 4, seed=0)
        assert other.matvec_count.snapshot() == (0, 0)
    assert (A.matvec_count.snapshot(), Q.matvec_count.snapshot()) == before


def test_err_indicator_values():
    assert err_indicator(0.0, 2.0) == 0.0
    assert err_indicator(1.0, 2.0) == 1.5
    # small negative excursions clamp silently
    assert err_indicator(-1e-12, 1.0) == 0.0


def test_err_indicator_warns_on_large_negative():
    with pytest.warns(UserWarning, match="clamping"):
        assert err_indicator(-0.5, 1.0) == 0.0


def test_prop2_bound_values():
    assert prop2_bound(0.0, 3.0) == 0.0
    assert np.isclose(prop2_bound(1.0, 2.0), 1.5)
    with pytest.raises(ValueError):
        prop2_bound(-0.1, 1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_bounds_reject_a_gap_or_beta1_that_is_not_finite(bad):
    # each used to return NaN
    with pytest.raises(ValueError, match="trace gap"):
        prop2_bound(bad, 1.0)
    with pytest.raises(ValueError, match="beta1"):
        prop2_bound(1.0, bad)
    with pytest.raises(ValueError, match="trace-gap estimate"):
        err_indicator(bad, 1.0)
    with pytest.raises(ValueError, match="beta1"):
        err_indicator(1.0, bad)
    with pytest.raises(ValueError, match="xi0"):
        xi_recurrence(np.ones(3), np.ones(3), bad)
    with pytest.raises(ValueError, match="xi0"):
        xi_recurrence(np.ones(3), np.ones(3), -bad)


def test_bounds_keep_their_values_on_finite_inputs():
    xi, beta1 = 0.3, 7.0
    bound = 0.5 * (xi + beta1**2 * xi / (1.0 + xi))
    assert prop2_bound(xi, beta1).hex() == bound.hex()
    assert err_indicator(xi, beta1).hex() == bound.hex()
    assert err_indicator(-1e-12, beta1) == 0.0
    alphas, betas = np.array([1.0, 0.5, 0.25]), np.array([2.0, 0.5, 0.125])
    assert np.array_equal(xi_recurrence(alphas, betas, 3.0),
                          3.0 - np.cumsum([1.0 + 0.25, 0.25 + 0.015625]))


def test_prop2_bound_dominates_on_dense_sweep(rng):
    A, R, Q, d = dense_setup(rng, m=16, n=16)
    model = MarginalModel(forward=A, data=d,
                          geometry=rng.uniform(0, 1, (16, 2)), nu=1.5)
    theta = HyperParams(np.array([R, np.sqrt(1.1), 0.3]))
    # rebuild Q from the model so operator and model agree
    q_model = model.prior_cov(theta)
    fact = gengk_bidiag(A, R, q_model, None, d, 16)
    xi0, reference = dense_xi(A, R, q_model, fact)
    exact = objective_exact(model, theta)
    for k in range(1, fact.k + 1):
        approx = objective_gengk(model, theta, k, fact=truncate_factorization(fact, k))
        bound = prop2_bound(max(reference[k - 1], 0.0), fact.beta1)
        assert abs(exact.value - approx.value) <= bound + 1e-9


def test_err_mc_tracks_true_error_on_heat():
    prob = build_heat_problem(n=64, noise_level=0.02, seed=0)
    model = MarginalModel(forward=prob.forward, data=prob.data,
                          geometry=prob.geometry)
    theta = HyperParams(np.array([1e-5, 0.4, 0.08]))
    noise = model.noise_cov(theta)
    q_op = model.prior_cov(theta)
    fact = gengk_bidiag(model.forward, noise, q_op, None, prob.data, 30)
    exact = objective_exact(model, theta)
    xi_hat = mc_xi_estimate(normal_matrix_apply(model.forward, noise), q_op,
                            fact, 10, seed=3)
    for k in range(1, fact.k + 1):
        approx = objective_gengk(model, theta, k, fact=truncate_factorization(fact, k))
        err = abs(exact.value - approx.value)
        indicator = err_indicator(xi_hat[k - 1], fact.beta1)
        if err > 1e-8 * abs(exact.value):
            # within one order of magnitude wherever the error is resolvable
            assert indicator >= err / 10.0


@settings(max_examples=50, deadline=None)
@given(
    coeffs=st.lists(st.floats(0.0, 10.0), min_size=4, max_size=12),
    xi0=st.floats(0.0, 1e4),
)
def test_recurrence_nonincreasing(coeffs, xi0):
    half = len(coeffs) // 2
    alphas = np.asarray(coeffs[:half] + [1.0])
    betas = np.asarray(coeffs[half: 2 * half] + [1.0])
    xi = xi_recurrence(alphas, betas, xi0)
    assert np.all(np.diff(xi) <= 1e-9)
