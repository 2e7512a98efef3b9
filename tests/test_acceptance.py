"""Acceptance suite: one test per shipped criterion, run at the stated
tolerances, printing one PASS line each (pytest -s or -v to see them)."""

import time
from pathlib import Path

import numpy as np
import yaml

from conftest import fd_gradient
from gkhyper.cli import main as cli_main
from gkhyper.covariance import RegularGrid
from gkhyper.estimate import (
    OptimizeOptions,
    map_reconstruct,
    optimal_lambda_sweep,
    optimize_hyperparams,
    optimize_two_param,
    precompute_two_param,
)
from gkhyper.gengk import gengk_bidiag, truncate_factorization, verify_relations
from gkhyper.marginal import (
    HyperParams,
    Hyperprior,
    MarginalModel,
    objective_exact,
    objective_gengk,
    objective_rescaled,
    objective_svd,
)
from gkhyper.monitor import mc_xi_estimate, normal_matrix_apply, prop2_bound, xi_recurrence
from gkhyper.operators import DenseOperator, dense_matrix
from gkhyper.problems import build_heat_problem, build_ray_tomo_problem, relative_error

HEAT_THETA = HyperParams(np.array([7.7e-6, 0.45, 0.185]))
HEAT_BOUNDS = np.array([[1e-10, 1.0], [1e-3, 10.0], [5e-3, 0.5]])


def heat_model(n=256, seed=0):
    prob = build_heat_problem(n=n, noise_level=0.02, seed=seed)
    model = MarginalModel(forward=prob.forward, data=prob.data,
                          geometry=prob.geometry, nu=1.5,
                          hyperprior=Hyperprior("flat"))
    return prob, model


def random_dense_model(rng):
    m = int(rng.integers(6, 33))
    n = int(rng.integers(6, 33))
    A = DenseOperator(rng.standard_normal((m, n)) / np.sqrt(max(m, n)))
    d = rng.standard_normal(m)
    points = rng.uniform(0, 1, (n, 2))
    return MarginalModel(forward=A, data=d, geometry=points, nu=1.5)


def dense_xi_oracle(model, theta, fact):
    a = dense_matrix(model.forward)
    q = dense_matrix(model.prior_cov(theta))
    hq = (a.T @ a / theta.noise_var) @ q
    xi0 = float(np.trace(hq))
    direct = np.empty(fact.k)
    for k in range(1, fact.k + 1):
        vk = fact.v_basis[:, :k]
        b = fact.bidiagonal()[: k + 1, :k]
        direct[k - 1] = xi0 - float(np.trace(vk @ (b.T @ b) @ vk.T @ q))
    return xi0, direct


def test_criterion_1_gengk_relations_and_reorthogonalization():
    prob, model = heat_model()
    noise = model.noise_cov(HEAT_THETA)
    q_op = model.prior_cov(HEAT_THETA)

    t0 = time.perf_counter()
    fact = gengk_bidiag(model.forward, noise, q_op, None, prob.data, 50,
                        reorth=True)
    residuals = verify_relations(fact, model.forward, None, prob.data)
    loose = gengk_bidiag(model.forward, noise, q_op, None, prob.data, 50,
                         reorth=False)
    elapsed = time.perf_counter() - t0

    assert all(r < 1e-10 for r in residuals)
    u = loose.u_basis[:, : loose.k + 1]
    defect = np.abs(u.T @ (u / noise) - np.eye(loose.k + 1)).max()
    assert defect > 1e-6
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 1 PASS: relations {max(residuals):.2e} < 1e-10, "
          f"no-reorth defect {defect:.2e} > 1e-6, {elapsed:.2f} s < 5 s")


def test_criterion_2_oracle_equivalence_at_full_rank():
    rng = np.random.default_rng(42)
    worst_f = worst_g = 0.0
    for _ in range(10):
        model = random_dense_model(rng)
        theta = HyperParams(np.array([0.5, 1.1, 0.3]))
        exact = objective_exact(model, theta)
        approx = objective_gengk(model, theta, min(model.nrows, model.ncols))
        worst_f = max(worst_f, abs(approx.value - exact.value) / abs(exact.value))
        worst_g = max(worst_g, np.max(
            np.abs(approx.gradient - exact.gradient) / np.abs(exact.gradient)))
    assert worst_f < 1e-8
    assert worst_g < 1e-8
    print(f"\nACCEPTANCE 2 PASS: full-rank objective rel {worst_f:.2e}, "
          f"gradient per-component rel {worst_g:.2e}, both < 1e-8")


def test_criterion_3_gradient_finite_difference_checks():
    rng = np.random.default_rng(5)
    A = DenseOperator(rng.standard_normal((8, 8)) / np.sqrt(8))
    model = MarginalModel(forward=A, data=rng.standard_normal(8),
                          geometry=RegularGrid((8,), (0.125,)), nu=1.5)
    worst_dense = 0.0
    for _ in range(20):
        theta_values = np.array([
            rng.uniform(0.05, 0.5), rng.uniform(0.5, 2.0), rng.uniform(0.1, 0.4)
        ])
        exact = objective_exact(model, HyperParams(theta_values))
        fd = fd_gradient(
            lambda t: objective_exact(model, HyperParams(t)).value, theta_values)
        worst_dense = max(worst_dense, np.max(np.abs(exact.gradient - fd) / np.abs(fd)))
    assert worst_dense < 1e-5

    prob, heat = heat_model()
    approx = objective_gengk(heat, HEAT_THETA, 22)
    fd = fd_gradient(
        lambda t: objective_gengk(heat, HyperParams(t), 22).value,
        HEAT_THETA.values)
    gengk_rel = np.linalg.norm(approx.gradient - fd) / np.linalg.norm(fd)
    assert gengk_rel < 1e-4
    print(f"\nACCEPTANCE 3 PASS: dense-vs-FD per-component {worst_dense:.2e} < 1e-5, "
          f"genGK-vs-FD {gengk_rel:.2e} < 1e-4")


def test_criterion_4_prop2_bound_with_exact_trace_gap():
    prob, model = heat_model(n=64)
    theta = HyperParams(np.array([1e-5, 0.4, 0.08]))
    noise = model.noise_cov(theta)
    fact = gengk_bidiag(model.forward, noise, model.prior_cov(theta), None,
                        prob.data, 64)
    xi0, direct = dense_xi_oracle(model, theta, fact)
    recur = xi_recurrence(fact.alphas, fact.betas, xi0)

    # recurrence equals the direct trace difference to 1e-8: elementwise
    # wherever the gap is resolvable, and always relative to the trace scale
    gap = np.abs(recur - direct)
    resolvable = direct > 1e-6 * xi0
    assert np.all(gap[resolvable] <= 1e-8 * direct[resolvable])
    assert np.all(gap <= 1e-8 * xi0)

    exact = objective_exact(model, theta)
    min_slack = np.inf
    for k in range(1, fact.k + 1):
        approx = objective_gengk(model, theta, k,
                                 fact=truncate_factorization(fact, k))
        bound = prop2_bound(max(direct[k - 1], 0.0), fact.beta1)
        err = abs(exact.value - approx.value)
        assert err <= bound + 1e-10
        min_slack = min(min_slack, bound - err)
    print(f"\nACCEPTANCE 4 PASS: bound holds for k=1..{fact.k} "
          f"(min slack {min_slack:.2e}), recurrence-vs-trace gap "
          f"{gap.max() / xi0:.2e} of the trace scale")


def test_criterion_5_truncated_svd_bound():
    prob, model = heat_model(n=64)
    theta = HyperParams(np.array([1e-5, 0.4, 0.08]))
    exact = objective_exact(model, theta)

    a = dense_matrix(model.forward)
    q = dense_matrix(model.prior_cov(theta))
    evals, evecs = np.linalg.eigh(q)
    q_half = (evecs * np.sqrt(np.clip(evals, 0, None))) @ evecs.T
    s = np.linalg.svd(a @ q_half / np.sqrt(theta.noise_var), compute_uv=False)
    beta1 = np.linalg.norm(model.data) / np.sqrt(theta.noise_var)

    for k in range(1, 65):
        approx = objective_svd(model, theta, k)
        sk2 = s[k] ** 2 if k < s.size else 0.0
        bound = 0.5 * float(np.sum(np.log1p(s[k:] ** 2))) \
            + 0.5 * beta1**2 * sk2 / (1.0 + sk2)
        assert abs(exact.value - approx.value) <= bound + 1e-8
    full = objective_svd(model, theta, 64)
    assert abs(full.value - exact.value) <= 1e-9 * abs(exact.value)
    print("\nACCEPTANCE 5 PASS: truncated-SVD bound holds for all k, "
          "full-rank identity at 1e-9")


def test_criterion_6_monte_carlo_monitor():
    prob, model = heat_model()
    theta = HEAT_THETA
    noise = model.noise_cov(theta)
    q_op = model.prior_cov(theta)
    fact = gengk_bidiag(model.forward, noise, q_op, None, prob.data, 22)
    xi0, direct = dense_xi_oracle(model, theta, fact)
    h_apply = normal_matrix_apply(model.forward, noise)

    estimates = np.array([
        mc_xi_estimate(h_apply, q_op, fact, 10, seed=s, k_max=22)
        for s in range(100)
    ])
    mean = estimates.mean(axis=0)
    worst = 0.0
    for k in (5, 10, 20):
        rel = abs(mean[k - 1] - direct[k - 1]) / direct[k - 1]
        worst = max(worst, rel)
        assert rel <= 0.10
    exhaustive = mc_xi_estimate(h_apply, q_op, fact, 1, probe_kind="identity",
                                k_max=22)
    gap = np.abs(exhaustive - direct)
    resolvable = direct > 1e-5 * xi0
    assert np.all(gap[resolvable] <= 1e-10 * np.abs(direct[resolvable]))
    assert np.all(gap <= 1e-10 * xi0)
    print(f"\nACCEPTANCE 6 PASS: 100-seed mean within {worst:.3f} <= 0.10 at "
          f"k in (5, 10, 20); exhaustive probing at the 1e-10 scale")


def test_criterion_7_end_to_end_heat():
    t0 = time.perf_counter()
    prob, model = heat_model()
    opts = OptimizeOptions(k=22, bounds=HEAT_BOUNDS)
    theta_star, trace = optimize_hyperparams(
        model, HyperParams(np.array([1e-4, 0.5, 0.1])), opts)
    s_hat = map_reconstruct(model, theta_star, k=22)
    re = relative_error(prob.s_true, s_hat)
    elapsed = time.perf_counter() - t0
    assert trace.converged
    assert 0.10 <= re <= 0.25
    assert elapsed < 120.0
    print(f"\nACCEPTANCE 7 PASS: converged in {trace.iterations} iterations "
          f"({trace.func_count} evaluations), RE {re:.4f} in [0.10, 0.25], "
          f"{elapsed:.1f} s < 120 s")


def test_criterion_8_two_parameter_fast_path():
    # (a) rescaled factorization reproduces the fresh objective on 64 unknowns
    prob = build_heat_problem(n=64, noise_level=0.02, seed=1)
    ell = 0.08
    model = MarginalModel(forward=prob.forward, data=prob.data,
                          geometry=prob.geometry)
    fact_hat = precompute_two_param(model, ell, 20)
    worst = 0.0
    for theta1, theta2 in [(1.0, 1.0), (3e-5, 0.7), (4.0, 2.0)]:
        theta = HyperParams(np.array([theta1, theta2, ell]))
        fresh = objective_gengk(model, theta, 20)
        rescaled = objective_rescaled(model, theta, fact_hat)
        worst = max(worst, abs(rescaled.value - fresh.value) / abs(fresh.value))
    assert worst <= 1e-8

    # (b) tomography analogue: zero applications during optimization and the
    # recovered prior std lies in the sweep bracket
    true_theta2, ell = 0.8, 0.08
    tomo = build_ray_tomo_problem(g=24, n_rays=600, noise_level=0.02, seed=2,
                                  nu=1.5, prior_std=true_theta2, ell=ell)
    m = len(tomo.data)
    tomo_model = MarginalModel(forward=tomo.forward, data=tomo.data,
                               geometry=tomo.geometry, hyperprior=Hyperprior("gamma", 1e-4))
    k = min(m, tomo.forward.ncols)
    fact_tomo = precompute_two_param(tomo_model, ell, k)
    before = tomo.forward.matvec_count.snapshot()
    opts = OptimizeOptions(k=k, bounds=np.array([[1e-12, 10.0], [1e-4, 50.0]]))
    theta_star, _ = optimize_two_param(tomo_model, fact_tomo, np.array([1e-4, 0.3]), opts)
    assert tomo.forward.matvec_count.snapshot() == before

    lam_grid = np.geomspace(0.1, 20.0, 14)
    true_theta1 = (0.02 * np.linalg.norm(tomo.d_clean)) ** 2 / m
    _, curve = optimal_lambda_sweep(tomo_model, fact_tomo, tomo.s_true, lam_grid,
                                    theta_star[0])
    idx = int(np.argmin(curve[:, 1]))
    lo = 1.0 / lam_grid[min(idx + 1, lam_grid.size - 1)]
    hi = 1.0 / lam_grid[max(idx - 1, 0)]
    assert lo <= theta_star[1] <= hi
    assert abs(theta_star[1] - true_theta2) <= 0.2 * true_theta2
    print(f"\nACCEPTANCE 8 PASS: rescale-vs-fresh rel {worst:.2e} <= 1e-8, "
          f"zero applies during optimization, recovered prior std "
          f"{theta_star[1]:.3f} inside sweep bracket [{lo:.3f}, {hi:.3f}]")


def test_criterion_9_cost_model_and_speedup():
    # exact application counts on representative runs
    for n, k in [(128, 10), (256, 22)]:
        prob, model = heat_model(n=n)
        before = model.forward.matvec_count.snapshot()
        objective_gengk(model, HyperParams(np.array([1e-5, 0.4, 0.08])), k)
        after = model.forward.matvec_count.snapshot()
        assert after[0] - before[0] == k + 1
        assert after[1] - before[1] == k + 1

    prob, model = heat_model(n=4096)
    theta = HyperParams(np.array([1e-5, 0.4, 0.05]))
    # the genGK gradient is taken on first read, so it is read inside the span
    t0 = time.perf_counter()
    objective_gengk(model, theta, 22).gradient
    t_fast = time.perf_counter() - t0
    t0 = time.perf_counter()
    objective_exact(model, theta).gradient
    t_exact = time.perf_counter() - t0
    speedup = t_exact / t_fast
    assert speedup >= 10.0
    print(f"\nACCEPTANCE 9 PASS: 2(k+1) applications exact; n=4096 "
          f"objective+gradient speedup {speedup:.0f}x >= 10x")


def test_criterion_10_determinism(tmp_path):
    payload = {
        "problem": {"name": "heat1d", "n": 64, "noise_level": 0.02},
        "estimate": {"k": 10, "theta0": [1e-4, 0.5, 0.1],
                     "bounds": [[1e-10, 1.0], [1e-3, 10.0], [5e-3, 0.5]],
                     "max_iters": 60},
        "monitor": {"k_max": 10, "n_mc": 5, "theta": [1e-5, 0.4, 0.08]},
        "seed": 0,
    }
    cfg = tmp_path / "run.yaml"
    cfg.write_text(yaml.safe_dump(payload))
    for command, names in [
        ("estimate", ["theta_star.json", "reconstruction.csv", "iterates.csv"]),
        ("monitor", ["error_vs_k.csv"]),
    ]:
        out_a = tmp_path / f"{command}_a"
        out_b = tmp_path / f"{command}_b"
        assert cli_main([command, "--config", str(cfg), "--out", str(out_a)]) == 0
        assert cli_main([command, "--config", str(cfg), "--out", str(out_b)]) == 0
        for name in names:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    print("\nACCEPTANCE 10 PASS: identical config + seed reproduces every "
          "numeric output bit-identically")
