import warnings

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from conftest import fd_gradient, probe_dense
from gkhyper import marginal
from gkhyper.covariance import (CovarianceOperator, MaternKernel, RegularGrid,
                                build_cov_operator, matern_eval)
from gkhyper.gengk import GenGKFactorization, gengk_bidiag, truncate_factorization
from gkhyper.marginal import (
    HyperParams,
    Hyperprior,
    MarginalModel,
    objective_exact,
    objective_gengk,
    objective_rescaled,
    objective_svd,
)
from gkhyper.estimate import (map_reconstruct, map_reconstruct_exact, optimal_lambda_sweep,
                               precompute_two_param)
from gkhyper.monitor import mc_xi_estimate, normal_matrix_apply
from gkhyper.operators import DenseOperator, IdentityOperator, dense_matrix
from gkhyper.problems import build_heat_problem, build_ray_tomo_problem, _heat_1d, ray_tomo_2d


def make_dense_model(rng, m=8, n=8, hyperprior=Hyperprior("flat"), grid=True):
    A = DenseOperator(rng.standard_normal((m, n)) / np.sqrt(max(m, n)))
    d = rng.standard_normal(m)
    geometry = RegularGrid((n,), (1.0 / n,)) if grid else rng.uniform(0, 1, (n, 2))
    return MarginalModel(forward=A, data=d, geometry=geometry, nu=1.5,
                         hyperprior=hyperprior)


def reference_z(model, theta):
    # independent dense assembly of Z = A Q A' + theta1 I from the kernel
    # definition (point-set geometry only)
    a = dense_matrix(model.forward)
    pts = np.atleast_2d(model.geometry)
    n = pts.shape[0]
    kernel = MaternKernel(model.nu, theta.prior_std**2, theta.corr_length)
    q = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            q[i, j] = matern_eval(kernel, np.linalg.norm(pts[i] - pts[j]))
    return a @ q @ a.T + theta.noise_var * np.eye(model.nrows), a


def test_zero_operator_closed_form(rng):
    d = rng.standard_normal(7)
    model = MarginalModel(forward=DenseOperator(np.zeros((7, 7))), data=d,
                          geometry=RegularGrid((7,), (1 / 7,)))
    theta = HyperParams(np.array([1.0, 0.9, 0.2]))
    ev = objective_exact(model, theta)
    # Z = I so the log determinant vanishes and F = ||d||^2 / 2
    assert np.isclose(ev.value, 0.5 * d @ d, rtol=1e-14)
    assert ev.logdet_term == 0.0


def test_term_split_identity(rng):
    model = make_dense_model(rng, hyperprior=Hyperprior("gamma", 1e-4))
    theta = HyperParams(np.array([0.2, 1.1, 0.4]))
    for ev in (objective_exact(model, theta), objective_gengk(model, theta, 8)):
        assert ev.value == ev.neglogprior_term + ev.logdet_term + ev.quad_term


def test_dense_gradient_matches_finite_differences(rng):
    model = make_dense_model(rng)
    theta = HyperParams(np.array([0.1, 1.0, 0.5]))
    ev = objective_exact(model, theta)
    fd = fd_gradient(lambda t: objective_exact(model, HyperParams(t)).value,
                     theta.values)
    assert np.all(np.abs(ev.gradient - fd) <= 1e-5 * np.abs(fd))


def test_theta1_gradient_decomposition(rng):
    # <Z^{-1}, dZ/dtheta1>_F = tr(Z^{-1}) when R = theta1 I; the full first
    # component is then tr(Z^{-1})/2 - ||Z^{-1} r||^2 / 2 for a flat prior
    model = make_dense_model(rng, grid=False)
    theta = HyperParams(np.array([0.3, 0.8, 0.25]))
    z, a = reference_z(model, theta)
    z_inv = np.linalg.inv(z)
    w = z_inv @ (a @ np.zeros(model.ncols) - model.data)
    expected = 0.5 * np.trace(z_inv) - 0.5 * w @ w
    ev = objective_exact(model, theta)
    assert np.isclose(ev.gradient[0], expected, rtol=1e-10)


def test_zero_operator_gengk_equals_exact(rng):
    d = rng.standard_normal(6)
    model = MarginalModel(forward=DenseOperator(np.zeros((6, 6))), data=d,
                          geometry=RegularGrid((6,), (1 / 6,)))
    theta = HyperParams(np.array([0.7, 1.2, 0.3]))
    ex = objective_exact(model, theta)
    gk = objective_gengk(model, theta, 4)
    m, t1 = 6, 0.7
    assert np.isclose(gk.value, 0.5 * m * np.log(t1) + 0.5 * (d @ d) / t1, rtol=1e-14)
    assert np.isclose(gk.value, ex.value, rtol=1e-14)
    assert np.allclose(gk.gradient, ex.gradient, rtol=1e-12, atol=1e-14)
    assert gk.k_used == 0


def test_full_rank_exactness_square(rng):
    model = make_dense_model(rng, m=16, n=16)
    theta = HyperParams(np.array([0.3, 1.0, 0.2]))
    ex = objective_exact(model, theta)
    gk = objective_gengk(model, theta, 16)
    assert abs(gk.value - ex.value) <= 1e-8 * abs(ex.value)
    assert np.all(np.abs(gk.gradient - ex.gradient) <= 1e-8 * np.abs(ex.gradient))


def test_full_rank_exactness_heat48():
    prob = build_heat_problem(n=48, noise_level=0.02, seed=2)
    model = MarginalModel(forward=prob.forward, data=prob.data,
                          geometry=prob.geometry)
    theta = HyperParams(np.array([1e-4, 0.5, 0.08]))
    ex = objective_exact(model, theta)
    gk = objective_gengk(model, theta, 48)
    assert abs(gk.value - ex.value) <= 1e-8 * abs(ex.value)
    assert np.linalg.norm(gk.gradient - ex.gradient) <= 1e-8 * np.linalg.norm(ex.gradient)


def test_heat_k22_accuracy_order():
    # at a representative point the k=22 approximation error sits far below
    # the objective scale (the motivating accuracy regime)
    prob = build_heat_problem(n=256, noise_level=0.02, seed=0)
    model = MarginalModel(forward=prob.forward, data=prob.data,
                          geometry=prob.geometry)
    theta = HyperParams(np.array([7.7e-6, 0.45, 0.185]))
    ex = objective_exact(model, theta)
    gk = objective_gengk(model, theta, 22)
    rel = abs(gk.value - ex.value) / abs(ex.value)
    assert rel < 1e-3
    assert gk.k_used == 22


def test_heat_paper_scale_runs_in_linear_memory():
    # n = 65536 as a dense matrix would take 34 GB; the FFT operator keeps
    # O(n) numbers and one evaluation still makes exactly 2(k+1) applies
    n, k = 65536, 22
    prob = build_heat_problem(n=n, noise_level=0.02, seed=0)
    op = prob.forward
    held = sum(a.nbytes for a in vars(op).values() if isinstance(a, np.ndarray))
    assert 0 < held < 64 * n
    model = MarginalModel(forward=op, data=prob.data, geometry=prob.geometry)
    op.matvec_count.reset()  # the build applied it to the true signal
    ev = objective_gengk(model, HyperParams(np.array([7.7e-6, 0.45, 0.185])), k)
    assert np.isfinite(ev.value) and np.all(np.isfinite(ev.gradient))
    assert ev.k_used == k
    assert op.matvec_count.snapshot() == (k + 1, k + 1)


def test_monotone_logdet_term():
    prob = build_heat_problem(n=64, noise_level=0.02, seed=1)
    model = MarginalModel(forward=prob.forward, data=prob.data,
                          geometry=prob.geometry)
    theta = HyperParams(np.array([1e-5, 0.4, 0.08]))
    noise = model.noise_cov(theta)
    fact = gengk_bidiag(model.forward, noise, model.prior_cov(theta), None,
                        model.data, 40)
    values = [
        objective_gengk(model, theta, k, fact=truncate_factorization(fact, k)).logdet_term
        for k in range(1, fact.k + 1)
    ]
    assert np.all(np.diff(values) >= -1e-10)


def test_k_beyond_breakdown_is_recorded(rng):
    m, n, r = 10, 9, 3
    A = DenseOperator(rng.standard_normal((m, r)) @ rng.standard_normal((r, n)))
    model = MarginalModel(forward=A, data=A.apply(rng.standard_normal(n)),
                          geometry=rng.uniform(0, 1, (n, 2)))
    theta = HyperParams(np.array([0.5, 1.0, 0.3]))
    gk = objective_gengk(model, theta, 9)
    assert gk.k_used < 9


def test_dense_cap_guard(rng):
    # every dense oracle forms m x m and n x n matrices, so the cap bounds
    # max(m, n): a square model, a wide one (m = 6 under the cap, n = 64
    # over it) and a tall one
    theta = HyperParams(np.array([0.5, 1.0, 0.3]))
    for m, n, cap in ((8, 8, 4), (6, 64, 16), (64, 6, 16)):
        model = make_dense_model(rng, m=m, n=n)
        model.dense_cap = cap
        assert not model.dense_ok
        before = model.forward.matvec_count.snapshot()
        with pytest.raises(ValueError, match="dense cap"):
            objective_exact(model, theta)
        with pytest.raises(ValueError, match="dense cap"):
            objective_svd(model, theta, 3)
        with pytest.raises(ValueError, match="dense cap"):
            map_reconstruct_exact(model, theta)
        assert model.forward.matvec_count.snapshot() == before


def test_exact_objective_builds_q_once(rng, monkeypatch):
    # dQ/dtheta2 and dQ/dtheta3 are probed from the Q the value is built with
    builds = []

    def counting_build(*args, **kwargs):
        builds.append(args)
        return build_cov_operator(*args, **kwargs)

    monkeypatch.setattr(marginal, "build_cov_operator", counting_build)
    objective_exact(make_dense_model(rng), HyperParams(np.array([0.2, 1.1, 0.4]))).gradient
    assert len(builds) == 1


@pytest.mark.parametrize("values", [[0.2, 1.1], [0.2, 1.1, 0.4, 0.3]])
def test_objectives_reject_theta_of_wrong_length(rng, values):
    # HyperParams holds the length rule: the theta is refused as it is built,
    # before any objective applies an operator
    model = make_dense_model(rng)
    for objective in (objective_exact, lambda m, t: objective_gengk(m, t, 4),
                      lambda m, t: objective_svd(m, t, 4), map_reconstruct_exact):
        with pytest.raises(ValueError, match="correlation length"):
            objective(model, HyperParams(np.array(values)))
    assert model.forward.matvec_count.snapshot() == (0, 0)


def _six_point_model(geometry):
    A = DenseOperator(np.random.default_rng(11).standard_normal((4, 6)) / 3)
    return MarginalModel(forward=A, data=np.ones(4), geometry=geometry, nu=1.5)


def test_one_d_point_array_is_its_column_point_set():
    # the model counts a 1-d coordinate array as Q does: n points in one
    # dimension, the same model as the (n, 1) array
    x = np.linspace(0, 1, 6)
    flat, column = _six_point_model(x), _six_point_model(x[:, None])
    assert flat.geometry.shape == (6, 1)
    theta = HyperParams(np.array([0.1, 0.8, 0.3]))
    for objective in (objective_exact, lambda m, t: objective_gengk(m, t, 4)):
        assert _hex(objective(flat, theta)) == _hex(objective(column, theta))


def test_geometry_of_three_axes_is_rejected_at_model_construction():
    A = DenseOperator(np.ones((4, 6)))
    with pytest.raises(ValueError, match="point set"):
        MarginalModel(forward=A, data=np.ones(4), geometry=np.zeros((6, 1, 1)))
    assert A.matvec_count.snapshot() == (0, 0)


def test_gradient_gengk_standalone(rng):
    model = make_dense_model(rng, m=12, n=12)
    theta = HyperParams(np.array([0.4, 1.0, 0.3]))
    noise = model.noise_cov(theta)
    fact = gengk_bidiag(model.forward, noise, model.prior_cov(theta), None,
                        model.data, 12)
    grad = objective_gengk(model, theta, 12, fact=fact).gradient
    assert np.allclose(grad, objective_exact(model, theta).gradient, rtol=1e-8)


# --- truncated-SVD variant


def test_svd_full_rank_identity(rng):
    model = make_dense_model(rng, m=12, n=12)
    theta = HyperParams(np.array([0.2, 1.0, 0.3]))
    ex = objective_exact(model, theta)
    sv = objective_svd(model, theta, 12)
    assert abs(sv.value - ex.value) <= 1e-9 * abs(ex.value)


def test_svd_zero_operator(rng):
    d = rng.standard_normal(5)
    model = MarginalModel(forward=DenseOperator(np.zeros((5, 5))), data=d,
                          geometry=RegularGrid((5,), (0.2,)))
    theta = HyperParams(np.array([0.9, 1.0, 0.3]))
    ex = objective_exact(model, theta)
    sv = objective_svd(model, theta, 0)
    assert np.isclose(sv.value, ex.value, rtol=1e-12)


def test_svd_rejects_negative_k():
    # a negative k would slice the spectrum from its end
    model = _guard_models()[0]
    theta = HyperParams(np.array([1e-5, 0.4, 0.08]))
    before = model.forward.matvec_count.snapshot()
    for k in (-1, -63):
        with pytest.raises(ValueError, match="nonnegative"):
            objective_svd(model, theta, k)
    assert model.forward.matvec_count.snapshot() == before


# each count its owner passes through the one count rule, operators._check_count;
# an int() cast read 2.5 as 2 and True as 1
NON_INTEGER_SIZES = {
    "grid-shape-2.7": lambda model, theta, fact: RegularGrid((2.7,), (1.0,)),
    "grid-shape-True": lambda model, theta, fact: RegularGrid((True,), (1.0,)),
    "heat_1d-n": lambda model, theta, fact: _heat_1d(2.5),
    "gengk_bidiag-k": lambda model, theta, fact: gengk_bidiag(
        model.forward, model.noise_cov(theta), model.prior_cov(theta), model.prior_mean,
        model.data, 2.5),
    "objective_gengk-k": lambda model, theta, fact: objective_gengk(model, theta, 2.5),
    "objective_gengk-k-True": lambda model, theta, fact: objective_gengk(model, theta, True),
    "map_reconstruct-k": lambda model, theta, fact: map_reconstruct(model, theta, k=2.5),
    "objective_svd-k": lambda model, theta, fact: objective_svd(model, theta, 2.5),
    "truncate_factorization-k-True": lambda model, theta, fact: truncate_factorization(
        fact, True),
    "truncate_factorization-k": lambda model, theta, fact: truncate_factorization(fact, 2.5),
    "mc_xi_estimate-k_max": lambda model, theta, fact: mc_xi_estimate(
        normal_matrix_apply(model.forward, fact.noise_var), fact.q_op, fact, 4, seed=0,
        k_max=2.5),
    "mc_xi_estimate-n_mc": lambda model, theta, fact: mc_xi_estimate(
        normal_matrix_apply(model.forward, fact.noise_var), fact.q_op, fact, 2.5, seed=0),
    "ray_tomo_2d-n_rays-True": lambda model, theta, fact: ray_tomo_2d(8, True),
    "ray_tomo_2d-g": lambda model, theta, fact: ray_tomo_2d(8.0, 10),
    "IdentityOperator-n": lambda model, theta, fact: IdentityOperator(2.5),
    **{f"MarginalModel-dense_cap-{cap}": (lambda model, theta, fact, cap=cap: MarginalModel(
        forward=model.forward, data=model.data, geometry=model.geometry, dense_cap=cap))
       for cap in (0, 2.5, True, float("nan"))},
}


@pytest.mark.parametrize("name", sorted(NON_INTEGER_SIZES))
def test_sizes_that_are_not_integers_are_refused_before_any_apply(name):
    prob = build_heat_problem(n=64, noise_level=0.02, seed=0)
    model = MarginalModel(forward=prob.forward, data=prob.data, geometry=prob.geometry)
    theta = HyperParams(np.array(GUARD_THETAS[0]))
    fact = model.factorize(theta, 4)
    # the build applied the operator to the true signal, and the factorization
    # applied it too
    model.forward.matvec_count.reset()
    with pytest.raises(ValueError, match="integer"):
        NON_INTEGER_SIZES[name](model, theta, fact)
    assert model.forward.matvec_count.snapshot() == (0, 0)


def _svd_reference(model, theta, k):
    # the n x n formulation objective_svd replaced: Q^{1/2} from the eigh of
    # dense Q, then the SVD of Ahat = A Q^{1/2} / sqrt(theta1)
    a = probe_dense(model.forward)
    q = probe_dense(model.prior_cov(theta))
    evals, evecs = np.linalg.eigh(0.5 * (q + q.T))
    q_half = (evecs * np.sqrt(np.clip(evals, 0.0, None))) @ evecs.T
    u, s, _ = np.linalg.svd(a @ q_half / np.sqrt(theta.noise_var), full_matrices=False)
    sk2 = s[:k] ** 2
    logdet_term = 0.5 * (model.nrows * np.log(theta.noise_var) + np.sum(np.log1p(sk2)))
    r = (a @ model.mean_vector() - model.data) / np.sqrt(theta.noise_var)
    coeff = u[:, :k].T @ r
    quad_term = 0.5 * (r @ r - np.sum(coeff**2 * sk2 / (1.0 + sk2)))
    return logdet_term, quad_term


def _map_reference(model, theta):
    # the n x n formulation map_reconstruct_exact replaced, through Q^{-1}
    a = probe_dense(model.forward)
    q = probe_dense(model.prior_cov(theta))
    q_inv = np.linalg.inv(0.5 * (q + q.T))
    lhs = a.T @ a / theta.noise_var + q_inv
    rhs = a.T @ model.data / theta.noise_var + q_inv @ model.mean_vector()
    return np.linalg.solve(lhs, rhs)


def _oracle_models():
    # heat n = 64, ray g = 8 and a tall dense model with a prior mean
    rng = np.random.default_rng(3)
    tall = MarginalModel(forward=DenseOperator(rng.standard_normal((12, 8)) / np.sqrt(12)),
                         data=rng.standard_normal(12), geometry=rng.uniform(0, 1, (8, 2)),
                         prior_mean=rng.standard_normal(8))
    return _guard_models() + [tall]


def test_data_space_oracles_match_n_by_n_formulations():
    for model in _oracle_models():
        m, n = model.nrows, model.ncols
        for values in GUARD_THETAS:
            theta = HyperParams(np.array(values))
            for k in (0, 1, 5, min(m, n), min(m, n) + 3):
                got = objective_svd(model, theta, k)
                assert got.k_used == min(k, m, n)
                logdet_term, quad_term = _svd_reference(model, theta, min(k, m, n))
                for term, want in ((got.logdet_term, logdet_term), (got.quad_term, quad_term),
                                   (got.value, logdet_term + quad_term)):
                    assert abs(term - want) <= 1e-10 * abs(want), (k, values, term, want)
            got, want = map_reconstruct_exact(model, theta), _map_reference(model, theta)
            assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want), values


def test_svd_bound_holds_on_heat64():
    prob = build_heat_problem(n=64, noise_level=0.02, seed=0)
    model = MarginalModel(forward=prob.forward, data=prob.data,
                          geometry=prob.geometry)
    theta = HyperParams(np.array([1e-5, 0.4, 0.08]))
    ex = objective_exact(model, theta)

    # independent singular-value oracle for the whitened operator
    a = dense_matrix(model.forward)
    q = dense_matrix(model.prior_cov(theta))
    evals, evecs = np.linalg.eigh(q)
    q_half = (evecs * np.sqrt(np.clip(evals, 0, None))) @ evecs.T
    s = np.linalg.svd(a @ q_half / np.sqrt(theta.noise_var), compute_uv=False)
    beta1 = np.linalg.norm(model.data) / np.sqrt(theta.noise_var)

    for k in range(1, 64):
        sv = objective_svd(model, theta, k)
        sk2 = s[k] ** 2 if k < s.size else 0.0
        bound = 0.5 * np.sum(np.log1p(s[k:] ** 2)) + 0.5 * beta1**2 * sk2 / (1 + sk2)
        assert abs(ex.value - sv.value) <= bound + 1e-8


# --- hyperpriors


def test_flat_hyperprior():
    value, grad = Hyperprior("flat").neglog(np.array([2.0, 3.0, 4.0]))
    assert value == 0.0
    assert np.array_equal(grad, np.zeros(3))


def test_gamma_hyperprior_values():
    value, grad = Hyperprior("gamma", 1e-4).neglog(np.array([1.0, 1.0, 1.0]))
    assert np.isclose(value, 3e-4, rtol=1e-15)
    assert np.allclose(grad, 1e-4 * np.ones(3))


def test_gamma_hyperprior_gradient_matches_fd():
    prior = Hyperprior("gamma", 1e-4)
    theta = np.array([0.5, 2.0, 0.1])
    fd = fd_gradient(lambda t: prior.neglog(t)[0], theta, step_rel=1e-4)
    assert np.allclose(prior.neglog(theta)[1], fd, rtol=1e-6)


def test_hyperprior_validation():
    with pytest.raises(ValueError):
        Hyperprior("jeffreys")
    with pytest.raises(ValueError):
        Hyperprior("gamma", -1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["data", "prior_mean"])
def test_model_rejects_non_finite_data_before_any_apply(rng, name, bad):
    forward = DenseOperator(rng.standard_normal((4, 6)))
    values = {"data": np.ones(4), "prior_mean": np.zeros(6)}
    values[name][1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        MarginalModel(forward=forward, geometry=RegularGrid((6,), (1.0 / 6,)), **values)
    assert forward.matvec_count.snapshot() == (0, 0)


def test_hyperparams_validation():
    with pytest.raises(ValueError, match="positive"):
        HyperParams(np.array([1.0, -2.0, 1.0]))
    with pytest.raises(ValueError, match="positive"):
        HyperParams(np.array([0.0, 1.0, 1.0]))
    theta = HyperParams(np.array([1e-6, 0.5, 0.1]))
    assert theta.noise_var == 1e-6
    assert theta.prior_std == 0.5
    assert theta.corr_length == 0.1


_BLOCK_WITH_THETA3 = CovarianceOperator.apply_block_with_theta3_derivative


def _per_column_apply(q, x):
    # the column-at-a-time Q X and dQ/dtheta3 X that the shared-transform
    # block apply replaces: Q by apply, dQ/dtheta3 by single-column blocks
    p = x.shape[1]
    return (np.column_stack([q.apply(x[:, j]) for j in range(p)]),
            np.hstack([_BLOCK_WITH_THETA3(q, x[:, j:j + 1])[1] for j in range(p)]))


def _hex(ev):
    return [float(x).hex() for x in (ev.value, *ev.gradient)]


GUARD_THETAS = ((1e-4, 0.5, 0.1), (7.7e-6, 0.45, 0.185), (1e-5, 0.4, 0.9))


def _guard_models():
    heat = build_heat_problem(n=64, noise_level=0.02, seed=0)
    ray = build_ray_tomo_problem(g=8, n_rays=40, noise_level=0.02, seed=0,
                                 prior_std=0.8, ell=0.08)
    return [MarginalModel(forward=prob.forward, data=prob.data,
                          geometry=prob.geometry, nu=1.5) for prob in (heat, ray)]


def test_gengk_gradient_bits_match_per_column_reference(monkeypatch):
    for model, k in zip(_guard_models(), (12, 30)):
        for values in GUARD_THETAS:
            theta = HyperParams(np.array(values))
            got = objective_gengk(model, theta, k).gradient
            with monkeypatch.context() as patch:
                patch.setattr(CovarianceOperator, "apply_block_with_theta3_derivative",
                              _per_column_apply)
                want = objective_gengk(model, theta, k).gradient
            assert [x.hex() for x in got] == [x.hex() for x in want]


def _own_factorization(fact, k, q_op):
    # the leading k steps as a factorization of their own: its own Q and its
    # own derivative products, taken for V_k alone
    sub = truncate_factorization(fact, k)
    return GenGKFactorization(sub.u_basis, sub.v_basis, sub.qv_basis, sub.alphas,
                              sub.betas, sub.k, q_op, sub.noise_var, sub.breakdown_at)


def _broken_down_model():
    rng = np.random.default_rng(7)
    m, n, r = 10, 9, 3
    A = DenseOperator(rng.standard_normal((m, r)) @ rng.standard_normal((r, n)))
    return MarginalModel(forward=A, data=A.apply(rng.standard_normal(n)),
                         geometry=rng.uniform(0, 1, (n, 2)))


def test_truncation_sweep_bits_match_fresh_per_column_reference(monkeypatch):
    # every truncation reads the leading columns of one dQ V_K; the reference
    # applies a fresh Q and its dQ/dtheta3 to V_k column by column, as a
    # k-step factorization of its own. K covers the small-k dgemv path and
    # both sides of the 16-column chunk edge; the rank-3 model breaks down at
    # step 3 on the dense backend
    models = _guard_models()
    cases = [(models[0], 20, 20, GUARD_THETAS), (models[1], 30, 30, GUARD_THETAS[:2]),
             (_broken_down_model(), 8, 3, ((0.5, 1.0, 0.3),))]
    for model, k_max, k_reached, thetas in cases:
        for values in thetas:
            theta = HyperParams(np.array(values))
            fact = gengk_bidiag(model.forward, model.noise_cov(theta), model.prior_cov(theta),
                                model.prior_mean, model.data, k_max)
            assert fact.k == k_reached
            got = [_hex(objective_gengk(model, theta, k, fact=truncate_factorization(fact, k)))
                   for k in range(1, fact.k + 1)]
            with monkeypatch.context() as patch:
                patch.setattr(CovarianceOperator, "apply_block_with_theta3_derivative",
                              _per_column_apply)
                want = [_hex(objective_gengk(
                    model, theta, k, fact=_own_factorization(fact, k, model.prior_cov(theta))))
                    for k in range(1, fact.k + 1)]
            assert got == want


def _exact_reference(model, theta, data_space):
    # objective_exact's value and gradient from column-at-a-time applies:
    # data_space takes Z = A (Q A') and dZ/dtheta3 = A (dQ/dtheta3 A') on the
    # m columns of A', as objective_exact does; otherwise Z = (A Q) A' from
    # dense n x n Q and dQ/dtheta3, as it did before
    a = probe_dense(model.forward)
    q = model.prior_cov(theta)
    if data_space:
        qa, dq3_a = _per_column_apply(q, a.T)
        z, dz3 = a @ qa, a @ dq3_a
    else:
        q_dense, dq3_dense = _per_column_apply(q, np.eye(model.ncols))
        z, dz3 = a @ q_dense @ a.T, a @ dq3_dense @ a.T
    z[np.diag_indices_from(z)] += theta.noise_var
    z, dz3 = 0.5 * (z + z.T), 0.5 * (dz3 + dz3.T)
    cho = cho_factor(z, lower=True)
    logdet = 2.0 * float(np.sum(np.log(np.diag(cho[0]))))
    r = a @ model.mean_vector() - model.data
    w = cho_solve(cho, r)
    r_w, w_norm2 = float(r @ w), float(w @ w)
    z_inv = cho_solve(cho, np.eye(model.nrows))
    trace_z_inv = float(np.trace(z_inv))
    neglogprior, hgrad = model.hyperprior.neglog(theta.values)
    theta1, theta2 = theta.noise_var, theta.prior_std
    terms = ((trace_z_inv, -0.5 * w_norm2),
             ((2.0 / theta2) * (model.nrows - theta1 * trace_z_inv),
              -(r_w - theta1 * w_norm2) / theta2),
             (float(np.sum(z_inv * dz3)), -0.5 * float(w @ (dz3 @ w))))
    grad = [h + 0.5 * trace + quad for h, (trace, quad) in zip(hgrad, terms)]
    return [neglogprior + 0.5 * logdet + 0.5 * r_w, *grad]


def test_exact_objective_bits_match_data_space_reference():
    # bit for bit the column-at-a-time reference of the same association, and
    # within 1e-8 of the n-column association it replaced
    models = _guard_models() + [make_dense_model(np.random.default_rng(3), m=10, n=12,
                                                 grid=False)]
    for model in models:
        for values in GUARD_THETAS:
            theta = HyperParams(np.array(values))
            got = objective_exact(model, theta)
            assert _hex(got) == [x.hex() for x in _exact_reference(model, theta, True)]
            old = np.array(_exact_reference(model, theta, False))
            new = np.array([got.value, *got.gradient])
            assert np.all(np.abs(new - old) <= 1e-8 * np.abs(old)), (new - old) / old
            m = model.nrows
            assert (got.matvec_report["q"], got.matvec_report["dq"]) == (m, m)


def test_matvec_report_counts_q_and_dq_applies():
    model = _guard_models()[1]
    theta = HyperParams(np.array([1e-4, 0.5, 0.1]))
    k = 12
    # the k + 1 Q applies of the bidiagonalization and one block of k Q and k
    # dQ/dtheta3 columns on V_k, from which dQ/dtheta2 V_k = (2/theta2) Q V_k
    fresh = objective_gengk(model, theta, k)
    assert fresh.matvec_report == {"forward": k + 1, "adjoint": k + 1, "q": 2 * k + 1,
                                   "dq": k}
    # a sweep over one supplied factorization reads a truncation at each k
    # below k_max, whose first gradient read applies Q and dQ/dtheta3 to its
    # own k columns; at k_max it reads the factorization, whose products stay
    # cached after the first read
    k_max = 20
    fact = gengk_bidiag(model.forward, model.noise_cov(theta), model.prior_cov(theta),
                        model.prior_mean, model.data, k_max)
    ks = (5, 1, 20, 17, 20)
    reports = [objective_gengk(model, theta, k, fact=fact).matvec_report for k in ks]
    zero = {"forward": 0, "adjoint": 0}
    assert reports == [{**zero, "q": k, "dq": k} for k in ks[:-1]] + [{**zero, "q": 0, "dq": 0}]


def _refuse_gradient(*args):
    raise AssertionError("the gradient was taken")


def _gengk_cases(model, theta, k=8, k_max=12):
    # a fresh evaluation, whose factorization factorize hands back, and one
    # read from a truncation of a supplied factorization
    root = model.factorize(theta, k_max)
    return [("fresh", lambda: objective_gengk(model, theta, k)),
            ("supplied", lambda: objective_gengk(model, theta, k,
                                                 fact=truncate_factorization(root, k)))]


@pytest.mark.parametrize("model", _guard_models(), ids=["heat64", "ray8"])
def test_gengk_value_is_read_without_taking_the_gradient(model, monkeypatch):
    theta = HyperParams(np.array(GUARD_THETAS[0]))
    # the value and k_used of evaluations whose gradient was read
    want = {}
    for name, call in _gengk_cases(model, theta):
        ev = call()
        want[name] = _hex(ev)[0], ev.k_used
    facts = []
    factorize = MarginalModel.factorize

    def keep_fact(self, *args):
        facts.append(factorize(self, *args))
        return facts[-1]

    monkeypatch.setattr(MarginalModel, "factorize", keep_fact)
    cases = _gengk_cases(model, theta)
    root = facts.pop()
    root_applies = root.cov_applies()
    monkeypatch.setattr(marginal, "_gengk_gradient", _refuse_gradient)
    for name, call in cases:
        ev = call()
        assert (ev.value.hex(), ev.k_used) == want[name]
    # the fresh factorization applied Q in its k + 1 steps only, and the
    # supplied one applied nothing
    (fresh,) = facts
    assert fresh.cov_applies() == (9, 0)
    assert root.cov_applies() == root_applies


@pytest.mark.parametrize("model", _guard_models(), ids=["heat64", "ray8"])
def test_gengk_gradient_is_taken_once_on_first_read(model, monkeypatch):
    theta = HyperParams(np.array(GUARD_THETAS[1]))
    calls = []
    take = marginal._gengk_gradient

    def counting(*args):
        calls.append(args)
        return take(*args)

    monkeypatch.setattr(marginal, "_gengk_gradient", counting)
    for _, call in _gengk_cases(model, theta):
        calls.clear()
        ev = call()
        assert calls == []
        got = ev.gradient
        (args,) = calls
        assert [x.hex() for x in got] == [x.hex() for x in take(*args)]
        assert ev.gradient is got
        assert len(calls) == 1
        # the take drops what it held: the model and the factorization
        assert ev._take_gradient is None


def _dense_guard_models():
    # the guard models and a dense 5 x 4 point set, on which Q takes the
    # dense backend
    rng = np.random.default_rng(5)
    points = RegularGrid((5, 4), (0.2, 0.25)).points()
    forward = DenseOperator(rng.standard_normal((12, 20)) / np.sqrt(20))
    point_set = MarginalModel(forward=forward, data=forward.apply(rng.standard_normal(20)),
                              geometry=points, nu=1.5)
    return _guard_models() + [point_set]


def _eager_exact(model, theta):
    # objective_exact as it was when it took its gradient at once: one paired
    # block apply gives Q A' and dQ/dtheta3 A', and the value and gradient
    # follow in that order
    a = dense_matrix(model.forward)
    qa, dq3_a = model.prior_cov(theta).apply_block_with_theta3_derivative(a.T)
    r, m = a @ model.mean_vector() - model.data, model.nrows
    z = a @ qa
    z[np.diag_indices_from(z)] += theta.noise_var
    cho = cho_factor(0.5 * (z + z.T), lower=True)
    w = cho_solve(cho, r)
    neglogprior, hgrad = model.hyperprior.neglog(theta.values)
    value = neglogprior + float(np.sum(np.log(np.diag(cho[0])))) + 0.5 * float(r @ w)
    z_inv = cho_solve(cho, np.eye(m))
    theta1, theta2 = theta.noise_var, theta.prior_std
    r_w = float(r @ w)
    trace_z_inv, w_norm2 = float(np.trace(z_inv)), float(w @ w)
    dz3 = a @ dq3_a
    dz3 = 0.5 * (dz3 + dz3.T)
    terms = ((trace_z_inv, -0.5 * w_norm2),
             ((2.0 / theta2) * (m - theta1 * trace_z_inv), -(r_w - theta1 * w_norm2) / theta2),
             (float(np.sum(z_inv * dz3)), -0.5 * float(w @ (dz3 @ w))))
    return [value, *(h + 0.5 * trace + quad for h, (trace, quad) in zip(hgrad, terms))]


def _refuse_derivative(*args):
    raise AssertionError("dQ/dtheta3 was applied")


def _keep_prior_cov(monkeypatch):
    # the covariances the model builds, in order
    built = []
    prior_cov = MarginalModel.prior_cov

    def keep(self, theta):
        built.append(prior_cov(self, theta))
        return built[-1]

    monkeypatch.setattr(MarginalModel, "prior_cov", keep)
    return built


@pytest.mark.parametrize("model", _dense_guard_models(), ids=["heat64", "ray8", "points5x4"])
def test_exact_value_is_read_without_applying_the_derivative(model, monkeypatch):
    theta = HyperParams(np.array(GUARD_THETAS[1]))
    want = _eager_exact(model, theta)[0]
    built = _keep_prior_cov(monkeypatch)
    for name in ("apply_theta3_derivative_block", "apply_block_with_theta3_derivative"):
        monkeypatch.setattr(CovarianceOperator, name, _refuse_derivative)
    ev = objective_exact(model, theta)
    assert ev.value.hex() == want.hex()
    (q,) = built
    assert q.dq_count == 0 and q.matvec_count.snapshot() == (model.nrows, 0)


@pytest.mark.parametrize("model", _dense_guard_models(), ids=["heat64", "ray8", "points5x4"])
def test_exact_gradient_is_taken_once_on_first_read(model, monkeypatch):
    m = model.nrows
    for values in GUARD_THETAS:
        theta = HyperParams(np.array(values))
        want = [x.hex() for x in _eager_exact(model, theta)]
        with monkeypatch.context() as patch:
            built = _keep_prior_cov(patch)
            ev = objective_exact(model, theta)
            (q,) = built
            assert ev._take_gradient is not None and q.dq_count == 0
            got = ev.gradient
            assert [x.hex() for x in (ev.value, *got)] == want
            assert ev._take_gradient is None
            report = dict(ev.matvec_report)
            assert (report["q"], report["dq"]) == (m, m) and q.dq_count == m
            # a second read applies nothing
            patch.setattr(CovarianceOperator, "apply_theta3_derivative_block",
                          _refuse_derivative)
            assert ev.gradient is got
            assert ev.matvec_report == report and q.dq_count == m
            assert q.matvec_count.snapshot() == (m, 0)


@pytest.mark.parametrize("path", ["objective_exact", "objective_rescaled", "objective_gengk"])
def test_gengk_gradient_that_is_not_finite_raises_on_each_read(monkeypatch, path):
    # the record holds the one finiteness rule for every path: a gradient
    # given at once raises as the record is built, the dense and the genGK
    # gradients, taken on first read, on each read of .gradient
    model = _guard_models()[0]
    theta = HyperParams(np.array(GUARD_THETAS[0]))
    unit = precompute_two_param(model, theta.corr_length, 8)
    monkeypatch.setattr(marginal, "_assemble_gradient", lambda *args: np.full(3, np.nan))
    if path == "objective_rescaled":
        with pytest.raises(FloatingPointError, match="non-finite gradient"):
            objective_rescaled(model, theta, unit)
    else:
        ev = (objective_exact(model, theta) if path == "objective_exact"
              else objective_gengk(model, theta, 8))
        assert np.isfinite(ev.value)
        for _ in range(2):
            with pytest.raises(FloatingPointError, match="non-finite gradient"):
                ev.gradient


def test_rescaled_gradient_that_overflows_raises():
    # theta1 = 1e-200 gives a finite value but a theta1 component of -inf; the
    # record's FloatingPointError is the one error, even when warnings raise
    prob = build_heat_problem(n=64, noise_level=0.02, seed=0)
    model = MarginalModel(forward=prob.forward, data=prob.data, geometry=prob.geometry)
    unit = precompute_two_param(model, 0.1, 20)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError, match="non-finite gradient"):
            objective_rescaled(model, HyperParams(np.array([1e-200, 1.0, 0.1])), unit)


def test_record_refuses_a_non_finite_term_by_name_before_the_sum():
    # a non-finite term is named; finite terms whose sum overflows name the value
    with pytest.raises(FloatingPointError, match="logdet_term"):
        marginal.ObjectiveEvaluation(0.0, np.inf, 0.0, 0, {})
    with pytest.raises(FloatingPointError, match="term value is not finite"):
        marginal.ObjectiveEvaluation(0.0, 1e308, 1e308, 0, {})


@pytest.mark.parametrize("model", _guard_models(), ids=["heat64", "ray8"])
def test_factorize_is_gengk_bidiag_clamped_to_min_m_n(model):
    # below, at and above min(m, n), against the call written out by hand
    full = min(model.nrows, model.ncols)
    theta = HyperParams(np.array(GUARD_THETAS[0]))
    for k in (12, full, full + 5):
        got = model.factorize(theta, k)
        want = gengk_bidiag(model.forward, model.noise_cov(theta), model.prior_cov(theta),
                            model.prior_mean, model.data, min(k, model.nrows, model.ncols))
        for name in ("u_basis", "v_basis", "qv_basis", "alphas", "betas"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), (k, name)
        assert (got.k, got.breakdown_at) == (want.k, want.breakdown_at)
    before = model.forward.matvec_count.snapshot()
    for values in ([1e-4, 0.5], [1e-4, 0.5, 0.1, 0.2]):
        with pytest.raises(ValueError, match="correlation length"):
            model.factorize(HyperParams(np.array(values)), 8)
    assert model.forward.matvec_count.snapshot() == before


def test_gengk_with_factorization_at_another_theta_raises():
    model = _guard_models()[0]
    theta = HyperParams(np.array([1e-4, 0.5, 0.1]))
    fact = gengk_bidiag(model.forward, model.noise_cov(theta), model.prior_cov(theta),
                        model.prior_mean, model.data, 8)
    before = model.forward.matvec_count.snapshot(), fact.cov_applies()
    for other in ((2e-4, 0.5, 0.1), (1e-4, 0.6, 0.1), (1e-4, 0.5, 0.12)):
        other = HyperParams(np.array(other))
        with pytest.raises(ValueError, match="factorization was taken"):
            objective_gengk(model, other, 8, fact=fact)
    # rejected before any apply
    assert (model.forward.matvec_count.snapshot(), fact.cov_applies()) == before
    # at its own theta it evaluates
    assert objective_gengk(model, theta, 8, fact=fact).k_used == 8


def _heat_model(n):
    prob = build_heat_problem(n=n, noise_level=0.02, seed=0)
    return prob, MarginalModel(forward=prob.forward, data=prob.data, geometry=prob.geometry)


def test_gengk_reads_a_supplied_factorization_at_k():
    # k used to be ignored: k = 5 and k = 40 both gave F_20 and k_used 20
    _, model = _heat_model(64)
    theta = HyperParams(np.array([1e-5, 0.4, 0.08]))
    fact = model.factorize(theta, 20)
    got = objective_gengk(model, theta, 5, fact=fact)
    want = objective_gengk(model, theta, 5, fact=truncate_factorization(fact, 5))
    assert got.k_used == want.k_used == 5
    assert _hex(got) == _hex(want)
    fresh = objective_gengk(model, theta, 5)
    assert abs(got.value - fresh.value) <= 1e-12 * abs(fresh.value)
    assert objective_gengk(model, theta, 20, fact=fact).k_used == 20
    before = model.forward.matvec_count.snapshot(), fact.cov_applies()
    with pytest.raises(ValueError, match="must lie in"):
        objective_gengk(model, theta, 21, fact=fact)
    assert (model.forward.matvec_count.snapshot(), fact.cov_applies()) == before


def _assert_every_reader_refuses(prob, model, other, match):
    # factorizations taken on the other model, at theta and at its unit
    # theta, are refused by each of the four readers of a supplied one,
    # before any apply and before any spectrum
    theta = HyperParams(np.array([1e-5, 0.4, 0.08]))
    fact = other.factorize(theta, 10)
    unit = precompute_two_param(other, theta.corr_length, 10)
    model.forward.matvec_count.reset()
    before = fact.cov_applies(), unit.cov_applies()
    readers = (lambda: objective_gengk(model, theta, 10, fact=fact),
               lambda: objective_rescaled(model, theta, unit),
               lambda: map_reconstruct(model, theta, fact=fact),
               lambda: optimal_lambda_sweep(model, unit, prob.s_true, [1.0, 2.0], 1e-5))
    for read in readers:
        with pytest.raises(ValueError, match=match):
            read()
    assert model.forward.matvec_count.snapshot() == (0, 0)
    assert (fact.cov_applies(), unit.cov_applies()) == before
    assert "spectrum" not in vars(fact) and "spectrum" not in vars(unit)


def test_a_factorization_of_another_size_is_refused_before_any_work():
    # a 96-point heat factorization read on a 64-point model gave a value and
    # a gradient; every reader of a supplied factorization now refuses it
    prob, model = _heat_model(64)
    _assert_every_reader_refuses(prob, model, _heat_model(96)[1], "m = 64 and n = 64 rows")


def test_a_factorization_with_another_nu_is_refused_before_any_work():
    # a nu = 2.5 factorization read on the nu = 1.5 model gave F_10 = -319.0281,
    # where the model's own F_10 is -319.1443
    prob, model = _heat_model(64)
    other = MarginalModel(forward=prob.forward, data=prob.data, geometry=prob.geometry, nu=2.5)
    _assert_every_reader_refuses(prob, model, other, r"factorization was taken .*\(nu=2\.5")


def test_a_factorization_on_another_geometry_is_refused_before_any_work():
    # a factorization on a grid of spacing 2/64 read on the 1/64 model gave
    # F_10 = -317.0532, where the model's own is -319.1443
    prob = build_heat_problem(n=64, noise_level=0.02, seed=0)
    points = prob.geometry.points()

    def on(geometry):
        return MarginalModel(forward=prob.forward, data=prob.data, geometry=geometry)

    # and a point set against its grid, either way, and against other points
    for geometry, taken_on in ((prob.geometry, RegularGrid((64,), (2 / 64,))),
                               (prob.geometry, points), (points, prob.geometry),
                               (points, 2.0 * points)):
        _assert_every_reader_refuses(prob, on(geometry), on(taken_on), "another geometry")
    # an equal point array that is not the model's own is the same geometry
    theta = HyperParams(np.array([1e-5, 0.4, 0.08]))
    fact = on(points.copy()).factorize(theta, 10)
    assert objective_gengk(on(points), theta, 10, fact=fact).k_used == 10


def test_rescaled_needs_a_unit_factorization():
    model = _guard_models()[0]
    theta = HyperParams(np.array([1e-4, 0.5, 0.1]))
    unit = HyperParams(np.array([1.0, 1.0, 0.1]))
    at_theta = gengk_bidiag(model.forward, model.noise_cov(theta), model.prior_cov(theta),
                            model.prior_mean, model.data, 8)
    at_unit = gengk_bidiag(model.forward, model.noise_cov(unit), model.prior_cov(unit),
                           model.prior_mean, model.data, 8)
    for fact, values in ((at_theta, theta.values), (at_unit, (1e-4, 0.5, 0.12))):
        with pytest.raises(ValueError, match="factorization was taken"):
            objective_rescaled(model, HyperParams(np.array(values)), fact)
    assert objective_rescaled(model, theta, at_unit).k_used == 8


# each reader of a supplied factorization, with the theta its factorization
# is taken at: objective_rescaled reads a unit one
SUPPLIED_FACTORIZATION_CALLS = {
    "objective_rescaled": ((1.0, 1.0, 0.1), objective_rescaled),
    "objective_gengk": ((1e-4, 0.5, 0.1), lambda m, t, f: objective_gengk(m, t, 8, fact=f)),
    "map_reconstruct": ((1e-4, 0.5, 0.1), lambda m, t, f: map_reconstruct(m, t, fact=f)),
}


@pytest.mark.parametrize("values", [[1e-4, 0.5], [1e-4, 0.5, 0.1, 7.0]])
@pytest.mark.parametrize("name", sorted(SUPPLIED_FACTORIZATION_CALLS))
def test_supplied_factorization_rejects_theta_of_wrong_length(name, values):
    # the length of theta is checked before it is compared with the
    # factorization's R and Q, and before any apply
    taken_at, call = SUPPLIED_FACTORIZATION_CALLS[name]
    model = _guard_models()[0]
    fact = model.factorize(HyperParams(np.array(taken_at)), 8)
    model.forward.matvec_count.reset()
    before = fact.cov_applies()
    with pytest.raises(ValueError, match=f"got {len(values)} values"):
        call(model, HyperParams(np.array(values)), fact)
    assert model.forward.matvec_count.snapshot() == (0, 0)
    assert fact.cov_applies() == before
