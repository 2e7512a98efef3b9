import functools
from contextlib import nullcontext
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import run_at_blas_threads
from gkhyper import estimate
from gkhyper.covariance import RegularGrid
from gkhyper.estimate import (
    OptimizeOptions,
    map_reconstruct,
    map_reconstruct_exact,
    optimal_lambda_sweep,
    optimize_hyperparams,
    optimize_two_param,
    precompute_two_param,
)
from gkhyper.gengk import (GenGKFactorization, gengk_bidiag, truncate_factorization,
                           verify_relations)
from gkhyper.marginal import (
    HyperParams,
    Hyperprior,
    MarginalModel,
    objective_gengk,
    objective_rescaled,
)
from gkhyper.operators import DenseOperator
from gkhyper.problems import build_heat_problem, build_ray_tomo_problem, relative_error


WIDE_BOUNDS = np.array([[1e-8, 1e3], [1e-8, 1e3], [1e-8, 1e3]])


def zero_model(rng, m=12):
    d = rng.standard_normal(m)
    return MarginalModel(forward=DenseOperator(np.zeros((m, m))), data=d,
                         geometry=RegularGrid((m,), (1.0 / m,))), d


def test_zero_operator_closed_form_minimizer(rng):
    model, d = zero_model(rng)
    opts = OptimizeOptions(k=4, bounds=WIDE_BOUNDS)
    theta_star, trace = optimize_hyperparams(
        model, HyperParams(np.array([1.0, 1.0, 0.5])), opts)
    closed = d @ d / d.size
    assert abs(theta_star.values[0] - closed) <= 1e-6 * closed
    assert trace.converged
    assert trace.func_count == len(trace.values)


def test_start_outside_bounds_rejected(rng):
    model, _ = zero_model(rng)
    opts = OptimizeOptions(k=4, bounds=np.array([[1.0, 2.0]] * 3))
    with pytest.raises(ValueError, match="outside"):
        optimize_hyperparams(model, HyperParams(np.array([0.5, 1.5, 1.5])), opts)
    # the search runs in log theta within explicit bounds only
    with pytest.raises(ValueError, match="parameterization"):
        OptimizeOptions(k=4, bounds=WIDE_BOUNDS, parameterization="linear")
    with pytest.raises(TypeError, match="bounds"):
        OptimizeOptions(k=4)


def test_func_count_matches_forward_applications():
    prob = build_heat_problem(n=64, noise_level=0.02, seed=0)
    model = MarginalModel(forward=prob.forward, data=prob.data,
                          geometry=prob.geometry)
    k = 10
    before = prob.forward.matvec_count.snapshot()
    opts = OptimizeOptions(k=k, bounds=np.array(
        [[1e-10, 1.0], [1e-3, 10.0], [5e-3, 0.5]]), max_iters=30)
    _, trace = optimize_hyperparams(model, HyperParams(np.array([1e-4, 0.5, 0.1])), opts)
    after = prob.forward.matvec_count.snapshot()
    # every objective evaluation runs one fresh factorization: 2(k+1) applies
    assert after[0] - before[0] == trace.func_count * (k + 1)
    assert after[1] - before[1] == trace.func_count * (k + 1)


@pytest.mark.parametrize("bad_call, value, grad", [(1, np.nan, 1.0), (2, 1.0, np.inf)])
def test_nonfinite_evaluation_raises(monkeypatch, rng, bad_call, value, grad):
    # the check covers every evaluation the optimizer asks for, not only theta0
    model, _ = zero_model(rng)
    thetas = []

    def fake_objective(model, theta, k):
        thetas.append(theta.values)
        if len(thetas) < bad_call:
            return SimpleNamespace(value=float(theta.values @ theta.values),
                                   gradient=2.0 * theta.values)
        return SimpleNamespace(value=value, gradient=np.full(len(theta), grad))

    monkeypatch.setattr(estimate, "objective_gengk", fake_objective)
    with pytest.raises(FloatingPointError, match="not finite"):
        optimize_hyperparams(model, HyperParams(np.ones(3)),
                             OptimizeOptions(k=4, bounds=WIDE_BOUNDS))
    assert len(thetas) == bad_call


# --- two-parameter fast path


def heat_two_param_setup(n=64, seed=1, ell=0.08, hyperprior=Hyperprior()):
    prob = build_heat_problem(n=n, noise_level=0.02, seed=seed)
    model = MarginalModel(forward=prob.forward, data=prob.data,
                          geometry=prob.geometry, hyperprior=hyperprior)
    return prob, model, ell


def two_param_rescale(model, fact_hat, theta1, theta2):
    # closed-form factorization at (theta1, theta2, ell) from the unit run at
    # (1, 1, ell): with R = theta1 I and Q = theta2^2 Q0, U picks up
    # sqrt(theta1), V shrinks by theta2, the bidiagonal scales by
    # theta2/sqrt(theta1) and the initialization norm by 1/sqrt(theta1); it
    # carries the R and Q of the new parameters
    theta1 = float(theta1)
    theta2 = float(theta2)
    if theta1 <= 0 or theta2 <= 0:
        raise ValueError("theta1 and theta2 must be positive")
    root1 = np.sqrt(theta1)
    coeff = theta2 / root1
    betas = fact_hat.betas.copy()
    betas[0] /= root1
    betas[1:] *= coeff
    theta = HyperParams(np.array([theta1, theta2, fact_hat.q_op.kernel.ell]))
    return GenGKFactorization(
        u_basis=fact_hat.u_basis * root1,
        v_basis=fact_hat.v_basis / theta2,
        qv_basis=fact_hat.qv_basis * theta2,   # (theta2^2 Q0)(v/theta2)
        alphas=fact_hat.alphas * coeff,
        betas=betas,
        k=fact_hat.k,
        q_op=model.prior_cov(theta),
        noise_var=model.noise_cov(theta),
        breakdown_at=fact_hat.breakdown_at,
    )


def test_rescale_identity_at_unit_parameters():
    prob, model, ell = heat_two_param_setup()
    fact_hat = precompute_two_param(model, ell, 12)
    fact = two_param_rescale(model, fact_hat, 1.0, 1.0)
    assert np.array_equal(fact.u_basis, fact_hat.u_basis)
    assert np.array_equal(fact.v_basis, fact_hat.v_basis)
    assert np.array_equal(fact.alphas, fact_hat.alphas)
    assert np.array_equal(fact.betas, fact_hat.betas)


def test_rescale_ratio_arithmetic():
    prob, model, ell = heat_two_param_setup()
    fact_hat = precompute_two_param(model, ell, 8)
    fact = two_param_rescale(model, fact_hat, 4.0, 2.0)
    # theta2 / sqrt(theta1) = 1: bidiagonal unchanged, U doubled, V halved
    assert np.allclose(fact.bidiagonal(), fact_hat.bidiagonal())
    assert np.allclose(fact.u_basis, 2.0 * fact_hat.u_basis)
    assert np.allclose(fact.v_basis, 0.5 * fact_hat.v_basis)
    assert np.isclose(fact.beta1, fact_hat.beta1 / 2.0)


def test_rescale_rejects_nonpositive():
    prob, model, ell = heat_two_param_setup()
    fact_hat = precompute_two_param(model, ell, 4)
    with pytest.raises(ValueError):
        two_param_rescale(model, fact_hat, -1.0, 1.0)
    with pytest.raises(ValueError):
        two_param_rescale(model, fact_hat, 1.0, 0.0)


def test_rescaled_objective_matches_fresh_run():
    # the Gamma hyperprior is over all three theta, theta3 included
    for hyperprior in (Hyperprior(), Hyperprior("gamma", 1e-2)):
        prob, model, ell = heat_two_param_setup(n=64, hyperprior=hyperprior)
        k = 20
        fact_hat = precompute_two_param(model, ell, k)
        for theta1, theta2 in [(1.0, 1.0), (3e-5, 0.7), (4.0, 2.0)]:
            theta = HyperParams(np.array([theta1, theta2, ell]))
            fresh = objective_gengk(model, theta, k)
            rescaled = objective_gengk(model, theta, k,
                                       fact=two_param_rescale(model, fact_hat, theta1, theta2))
            closed = objective_rescaled(model, theta, fact_hat)
            assert abs(rescaled.value - fresh.value) <= 1e-8 * abs(fresh.value)
            assert abs(closed.value - fresh.value) <= 1e-8 * abs(fresh.value)
            assert np.allclose(closed.gradient, fresh.gradient[:2], rtol=1e-7)
            # the O(k) rescaled core is the spectrum of the rescaled factorization
            spec = fact_hat.spectrum.rescaled(theta1, theta2)
            fresh_spec = two_param_rescale(model, fact_hat, theta1, theta2).spectrum
            assert np.allclose(spec.s, fresh_spec.s, rtol=0, atol=1e-12 * spec.s[0])
            assert np.isclose(spec.beta1, fresh_spec.beta1, rtol=1e-15)


def test_rescale_preserves_relation_residuals():
    prob, model, ell = heat_two_param_setup(n=48)
    k = 15
    fact_hat = precompute_two_param(model, ell, k)
    res_before = verify_relations(fact_hat, prob.forward, None, prob.data)
    # the rescaled factorization carries R = theta1 I and Q = theta2^2 Q0
    fact = two_param_rescale(model, fact_hat, 2.5e-4, 0.6)
    res_after = verify_relations(fact, prob.forward, None, prob.data)
    assert np.allclose(res_before, res_after, atol=1e-12)


def test_two_param_gradient_matches_finite_differences():
    prob, model, ell = heat_two_param_setup()
    fact_hat = precompute_two_param(model, ell, 16)
    theta1, theta2 = 2e-5, 0.6

    def rescaled(t1, t2):
        return objective_rescaled(model, HyperParams(np.array([t1, t2, ell])), fact_hat)

    ev = rescaled(theta1, theta2)
    fd = np.zeros(2)
    for i, (d1, d2) in enumerate([(1e-6 * theta1, 0.0), (0.0, 1e-6 * theta2)]):
        fp = rescaled(theta1 + d1, theta2 + d2).value
        fm = rescaled(theta1 - d1, theta2 - d2).value
        fd[i] = (fp - fm) / (2 * (d1 + d2))
    assert np.all(np.abs(ev.gradient - fd) <= 1e-6 * np.abs(fd))


def test_optimize_two_param_never_touches_forward_map():
    prob, model, ell = heat_two_param_setup()
    fact_hat = precompute_two_param(model, ell, 20)
    before = prob.forward.matvec_count.snapshot()
    opts = OptimizeOptions(k=20, bounds=np.array([[1e-12, 10.0], [1e-4, 50.0]]))
    theta_star, trace = optimize_two_param(model, fact_hat, np.array([1e-4, 0.3]), opts)
    assert prob.forward.matvec_count.snapshot() == before
    assert trace.converged
    assert theta_star.shape == (2,)


def test_optimize_two_param_reads_ell_from_its_factorization(monkeypatch):
    prob, model, ell = heat_two_param_setup(ell=0.13)
    fact_hat = precompute_two_param(model, ell, 12)
    seen = set()

    def spy(model, theta, fact):
        seen.add(theta.corr_length)
        return objective_rescaled(model, theta, fact)

    monkeypatch.setattr(estimate, "objective_rescaled", spy)
    opts = OptimizeOptions(k=12, bounds=np.array([[1e-12, 10.0], [1e-4, 50.0]]))
    optimize_two_param(model, fact_hat, np.array([1e-4, 0.3]), opts)
    assert seen == {0.13}


def test_two_param_clamps_k_to_min_dimension():
    # a k that optimize_hyperparams and map_reconstruct clamp to min(m, n) = 6
    tomo = build_ray_tomo_problem(g=8, n_rays=6, noise_level=0.02, seed=0)
    model = MarginalModel(forward=tomo.forward, data=tomo.data, geometry=tomo.geometry)
    ell = 0.2
    opts = OptimizeOptions(k=10, bounds=np.array([[1e-12, 10.0], [1e-4, 50.0]]))
    fact_hat = precompute_two_param(model, ell, opts.k)
    full = precompute_two_param(model, ell, 6)
    assert fact_hat.k == full.k <= 6
    assert np.array_equal(fact_hat.alphas, full.alphas)
    assert np.array_equal(fact_hat.betas, full.betas)
    theta_star, _ = optimize_two_param(model, fact_hat, np.array([1e-4, 0.3]), opts)
    assert theta_star.shape == (2,)


def test_two_param_self_consistency_on_tomography():
    # data generated at known (theta1, theta2); the converged estimate lands
    # within 20% of both
    true_theta2, ell = 0.8, 0.08
    tomo = build_ray_tomo_problem(g=24, n_rays=600, noise_level=0.02, seed=2,
                                  nu=1.5, prior_std=true_theta2, ell=ell)
    m = len(tomo.data)
    true_theta1 = (0.02 * np.linalg.norm(tomo.d_clean)) ** 2 / m
    model = MarginalModel(forward=tomo.forward, data=tomo.data, geometry=tomo.geometry,
                          hyperprior=Hyperprior("gamma", 1e-4))
    k = min(m, tomo.forward.ncols)
    fact_hat = precompute_two_param(model, ell, k)
    opts = OptimizeOptions(k=k, bounds=np.array([[1e-12, 10.0], [1e-4, 50.0]]))
    theta_star, _ = optimize_two_param(model, fact_hat, np.array([1e-4, 0.3]), opts)
    assert abs(theta_star[0] - true_theta1) <= 0.2 * true_theta1
    assert abs(theta_star[1] - true_theta2) <= 0.2 * true_theta2


# --- MAP reconstruction


def test_map_reconstruct_returns_prior_mean_for_explained_data(rng):
    n = 10
    A = DenseOperator(rng.standard_normal((n, n)))
    mu = rng.standard_normal(n)
    d = A.apply(mu)
    model = MarginalModel(forward=A, data=d, geometry=rng.uniform(0, 1, (n, 2)),
                          prior_mean=mu)
    s = map_reconstruct(model, HyperParams(np.array([0.5, 1.0, 0.3])), k=5)
    assert np.allclose(s, mu, rtol=0, atol=1e-12)


def test_map_reconstruct_matches_dense_closed_form(rng):
    n = 16
    A = DenseOperator(rng.standard_normal((n, n)) / np.sqrt(n))
    d = rng.standard_normal(n)
    model = MarginalModel(forward=A, data=d, geometry=rng.uniform(0, 1, (n, 2)))
    theta = HyperParams(np.array([0.2, 1.0, 0.3]))
    projected = map_reconstruct(model, theta, k=16)
    closed = map_reconstruct_exact(model, theta)
    assert np.linalg.norm(projected - closed) <= 1e-8 * np.linalg.norm(closed)


def test_map_reconstruct_matches_dense_projected_solve(rng):
    n = 12
    A = DenseOperator(rng.standard_normal((n, n)) / np.sqrt(n))
    mu = rng.standard_normal(n)
    theta = HyperParams(np.array([0.2, 1.0, 0.3]))
    for d in (rng.standard_normal(n), A.apply(mu)):
        model = MarginalModel(forward=A, data=d, geometry=rng.uniform(0, 1, (n, 2)),
                              prior_mean=mu)
        fact = gengk_bidiag(A, model.noise_cov(theta), model.prior_cov(theta), mu, d, 8)
        b = fact.bidiagonal()
        z = np.linalg.solve(np.eye(fact.k) + b.T @ b, fact.beta1 * b[0, :])
        expected = mu + fact.qv_basis[:, : fact.k] @ z
        s_hat = map_reconstruct(model, theta, fact=fact)
        assert np.linalg.norm(fact.spectrum.coefficients() - z) <= 1e-12 * np.linalg.norm(z)
        assert np.linalg.norm(s_hat - expected) <= 1e-12 * np.linalg.norm(expected)
    # the second data vector is explained by the prior mean: beta1 = 0, k = 0
    assert fact.k == 0 and fact.beta1 == 0.0
    assert np.array_equal(s_hat, mu)


def test_map_reconstruct_rejects_a_factorization_at_another_theta():
    prob = build_heat_problem(n=64, noise_level=0.02, seed=0)
    model = MarginalModel(forward=prob.forward, data=prob.data, geometry=prob.geometry)
    theta = HyperParams(np.array([1e-5, 0.4, 0.08]))
    fact = gengk_bidiag(model.forward, model.noise_cov(theta), model.prior_cov(theta),
                        None, model.data, 10)
    for other in ((2e-5, 0.4, 0.08), (1e-5, 0.5, 0.08), (1e-5, 0.4, 0.1)):
        with pytest.raises(ValueError, match="factorization was taken"):
            map_reconstruct(model, HyperParams(np.array(other)), fact=fact)
    assert np.array_equal(map_reconstruct(model, theta, fact=fact),
                          map_reconstruct(model, theta, k=10))


def test_map_reconstruct_reads_k_steps_of_a_supplied_factorization():
    prob = build_heat_problem(n=64, noise_level=0.02, seed=0)
    model = MarginalModel(forward=prob.forward, data=prob.data, geometry=prob.geometry)
    theta = HyperParams(np.array([1e-5, 0.4, 0.08]))
    fact = gengk_bidiag(model.forward, model.noise_cov(theta), model.prior_cov(theta),
                        None, model.data, 20)
    s5 = map_reconstruct(model, theta, 5, fact=fact)
    assert np.array_equal(s5, map_reconstruct(model, theta,
                                              fact=truncate_factorization(fact, 5)))
    fresh = map_reconstruct(model, theta, k=5)
    assert np.linalg.norm(s5 - fresh) <= 1e-12 * np.linalg.norm(fresh)
    assert np.array_equal(map_reconstruct(model, theta, None, fact=fact),
                          map_reconstruct(model, theta, 20, fact=fact))
    with pytest.raises(ValueError, match="must lie in"):
        map_reconstruct(model, theta, 21, fact=fact)


def test_one_svd_per_factorization(monkeypatch):
    prob = build_heat_problem(n=64, noise_level=0.02, seed=0)
    model = MarginalModel(forward=prob.forward, data=prob.data, geometry=prob.geometry)
    theta = HyperParams(np.array([1e-5, 0.4, 0.08]))
    fact = gengk_bidiag(model.forward, model.noise_cov(theta), model.prior_cov(theta),
                        None, model.data, 10)
    calls = []
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    objective_gengk(model, theta, 10, fact=fact).value
    objective_gengk(model, theta, 10, fact=fact).gradient
    map_reconstruct(model, theta, fact=fact)
    assert calls == [(11, 10)]


def test_heat_reconstruction_error_band():
    prob = build_heat_problem(n=256, noise_level=0.02, seed=0)
    model = MarginalModel(forward=prob.forward, data=prob.data,
                          geometry=prob.geometry)
    opts = OptimizeOptions(k=22, bounds=np.array(
        [[1e-10, 1.0], [1e-3, 10.0], [5e-3, 0.5]]))
    theta_star, trace = optimize_hyperparams(
        model, HyperParams(np.array([1e-4, 0.5, 0.1])), opts)
    s_hat = map_reconstruct(model, theta_star, k=22)
    re = relative_error(prob.s_true, s_hat)
    assert trace.converged
    assert 0.10 <= re <= 0.25


# --- optimal-lambda sweep


def test_lambda_sweep_single_point():
    prob, model, ell = heat_two_param_setup()
    fact_hat = precompute_two_param(model, ell, 16)
    best, curve = optimal_lambda_sweep(model, fact_hat, prob.s_true,
                                       np.array([2.0]), 1e-5)
    assert best == 2.0
    assert curve.shape == (1, 2)


def test_lambda_sweep_curve_finite_positive():
    prob, model, ell = heat_two_param_setup()
    fact_hat = precompute_two_param(model, ell, 16)
    grid = np.geomspace(0.1, 10.0, 9)
    _, curve = optimal_lambda_sweep(model, fact_hat, prob.s_true, grid, 1e-5)
    assert np.all(np.isfinite(curve))
    assert np.all(curve[:, 1] > 0)


def test_lambda_sweep_reads_one_spectral_core(monkeypatch):
    prob, model, ell = heat_two_param_setup()
    fact_hat = precompute_two_param(model, ell, 16)
    grid = np.geomspace(0.1, 10.0, 9)
    theta1 = 1e-5
    calls = []
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    _, curve = optimal_lambda_sweep(model, fact_hat, prob.s_true, grid, theta1)
    assert calls == [(17, 16)]
    monkeypatch.undo()
    for lam, re in curve:
        theta = HyperParams(np.array([theta1, 1.0 / lam, ell]))
        s_ref = map_reconstruct(model, theta,
                                fact=two_param_rescale(model, fact_hat, theta1, 1.0 / lam))
        re_ref = relative_error(prob.s_true, s_ref)
        assert abs(re - re_ref) <= 1e-12 * re_ref


def test_lambda_sweep_empty_grid_rejected():
    prob, model, ell = heat_two_param_setup()
    fact_hat = precompute_two_param(model, ell, 8)
    with pytest.raises(ValueError, match="empty"):
        optimal_lambda_sweep(model, fact_hat, prob.s_true, np.array([]), 1e-5)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0])
def test_lambda_sweep_rejects_a_lambda_that_is_not_finite_and_positive(bad):
    prob, model, ell = heat_two_param_setup()
    fact_hat = precompute_two_param(model, ell, 8)
    with pytest.raises(ValueError, match="lambda values must be finite and positive"):
        optimal_lambda_sweep(model, fact_hat, prob.s_true, np.array([0.5, bad, 2.0]), 1e-5)


@pytest.mark.parametrize("bad", [-1.0, 0.0, np.nan, np.inf])
def test_lambda_sweep_rejects_a_noise_variance_that_is_not_finite_and_positive(bad):
    # these used to give an all-NaN curve (or one of 1.0 everywhere at inf)
    prob, model, ell = heat_two_param_setup()
    fact_hat = precompute_two_param(model, ell, 8)
    with pytest.raises(ValueError, match="noise variance must be finite and positive"):
        optimal_lambda_sweep(model, fact_hat, prob.s_true, np.array([0.5, 2.0]), bad)


def test_lambda_sweep_needs_a_unit_factorization():
    prob, model, ell = heat_two_param_setup()
    for values in ((1e-5, 1.0, ell), (1.0, 0.5, ell)):
        theta = HyperParams(np.array(values))
        fact = gengk_bidiag(model.forward, model.noise_cov(theta), model.prior_cov(theta),
                            None, model.data, 8)
        with pytest.raises(ValueError, match="factorization was taken"):
            optimal_lambda_sweep(model, fact, prob.s_true, np.array([2.0]), 1e-5)


def test_lambda_sweep_finds_generative_scale():
    # grid containing the generative prior std: the best reconstruction sits
    # at or adjacent to it
    true_theta2, ell = 0.8, 0.08
    tomo = build_ray_tomo_problem(g=24, n_rays=600, noise_level=0.02, seed=2,
                                  nu=1.5, prior_std=true_theta2, ell=ell)
    model = MarginalModel(forward=tomo.forward, data=tomo.data, geometry=tomo.geometry)
    k = min(len(tomo.data), tomo.forward.ncols)
    fact_hat = precompute_two_param(model, ell, k)
    grid = np.geomspace(0.25, 10.0, 9)  # theta2 = 1/lambda from 4.0 to 0.1
    true_theta1 = (0.02 * np.linalg.norm(tomo.d_clean)) ** 2 / len(tomo.data)
    best, curve = optimal_lambda_sweep(model, fact_hat, tomo.s_true, grid,
                                       true_theta1)
    idx = int(np.argmin(curve[:, 1]))
    closest = int(np.argmin(np.abs(np.log(1.0 / grid) - np.log(true_theta2))))
    assert abs(idx - closest) <= 1


# --- BLAS on the calling thread


def _fake_setters(counts, calls):
    # one stand-in for openblas_set_num_threads_local per library: it sets
    # the library's count and returns the count it replaced
    def make(lib):
        def setter(count):
            calls.append((lib, count))
            previous, counts[lib] = counts[lib], count
            return previous
        return setter
    return tuple(make(lib) for lib in sorted(counts))


@pytest.mark.parametrize("raises", [False, True], ids=["normal-exit", "body-raises"])
def test_blas_scope_restores_each_previous_thread_count(monkeypatch, raises):
    counts, calls = {"numpy": 2, "scipy": 3}, []
    monkeypatch.setattr(estimate, "_openblas_thread_setters",
                        lambda: _fake_setters(counts, calls))
    with pytest.raises(RuntimeError) if raises else nullcontext():
        with estimate._blas_on_calling_thread():
            assert counts == {"numpy": 1, "scipy": 1}
            if raises:
                raise RuntimeError("inside the scope")
    assert counts == {"numpy": 2, "scipy": 3}
    assert calls == [("numpy", 1), ("scipy", 1), ("scipy", 3), ("numpy", 2)]


def test_blas_scope_is_a_no_op_without_openblas(monkeypatch, rng):
    # an estimate and a reconstruction run as before when no OpenBLAS is found
    monkeypatch.setattr(estimate, "_openblas_thread_setters", lambda: ())
    model, _ = zero_model(rng)
    theta_star, trace = optimize_hyperparams(model, HyperParams(np.array([1.0, 1.0, 0.5])),
                                             OptimizeOptions(k=4, bounds=WIDE_BOUNDS))
    assert trace.converged
    assert np.all(np.isfinite(map_reconstruct(model, theta_star, k=4)))


def _blas_threads(setter):
    # openblas_set_num_threads_local reads the count only by replacing it
    count = setter(1)
    setter(count)
    return count


@pytest.mark.skipif("openblas" not in np.show_config(mode="dicts")["Build Dependencies"]
                    ["blas"]["name"], reason="numpy is not built on OpenBLAS")
def test_blas_scope_pins_numpys_openblas_to_one_thread_and_restores_it():
    setters = estimate._openblas_thread_setters()
    assert setters, "numpy's OpenBLAS was not found in the process's mappings"
    before = [_blas_threads(setter) for setter in setters]
    with estimate._blas_on_calling_thread():
        assert [_blas_threads(setter) for setter in setters] == [1] * len(setters)
    assert [_blas_threads(setter) for setter in setters] == before


ESTIMATE_BITS = """
import hashlib
import sys
from gkhyper.cli import _build_problem
from gkhyper.config import load_config
from gkhyper.estimate import map_reconstruct, optimize_hyperparams

def run(cfg):
    prob, model = _build_problem(cfg)
    opts, theta0 = cfg.estimate.records()
    theta_star, trace = optimize_hyperparams(model, theta0, opts)
    s_hat = map_reconstruct(model, theta_star, k=opts.k)
    print(*(float(v).hex() for v in theta_star.values))
    print(*(float(v).hex() for v in trace.values))
    print(hashlib.sha256(s_hat.tobytes()).hexdigest())

configs = sys.argv[1]
heat = load_config(f"{configs}/heat1d.yaml")
heat.problem.n = 512  # the FFT side of the heat operator
run(heat)
# the shipped ray config cut to g = 12, whose phantom is the same field at
# every BLAS thread count
ray = load_config(f"{configs}/ray_tomo.yaml")
ray.problem.grid, ray.problem.n_rays, ray.estimate.k = 12, 90, 30
run(ray)
"""


@functools.cache
def _estimate_bits(threads):
    configs = Path(__file__).parents[1] / "configs"
    lines = run_at_blas_threads(ESTIMATE_BITS, threads, str(configs), timeout=300)
    assert len(lines) == 6
    return lines


@pytest.mark.parametrize("threads", ["1", "2"])
def test_estimate_and_map_keep_bits_at_each_blas_thread_count(threads):
    # the optimizer and the MAP reconstruction run their BLAS on the calling
    # thread, so theta*, every objective value and the MAP estimate have the
    # same bits at any pinned count as at the default
    assert _estimate_bits(threads) == _estimate_bits(None)
