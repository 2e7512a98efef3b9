import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from gkhyper.covariance import MaternKernel, RegularGrid
from gkhyper.operators import dense_matrix
from gkhyper.problems import (
    add_noise,
    build_heat_problem,
    build_ray_tomo_problem,
    heat_1d,
    heat_true_signal,
    ray_row,
    ray_tomo_2d,
    relative_error,
    smooth_phantom,
)


# --- 1-d inverse heat


def heat_kernel_value(gap: float, kappa: float = 1.0) -> float:
    """Causal heat kernel value at time gap t - s > 0 (reference for heat_1d).

    k(t - s) = (4 pi kappa^2)^{-1/2} (t - s)^{-3/2} exp(-1 / (4 kappa^2 (t-s))).
    """
    if gap <= 0:
        raise ValueError("the heat kernel is causal; gap must be positive")
    return gap ** (-1.5) * math.exp(-1.0 / (4.0 * kappa**2 * gap)) / math.sqrt(
        4.0 * math.pi * kappa**2
    )


def test_heat_operator_causality():
    n = 32
    op = heat_1d(n)
    e_last = np.zeros(n)
    e_last[-1] = 1.0
    out = op.apply(e_last)
    assert out[-1] > 0
    assert np.all(out[:-1] == 0.0)


def test_heat_operator_lower_triangular():
    mat = dense_matrix(heat_1d(96))
    assert np.array_equal(mat, np.tril(mat))
    assert np.all(np.diag(mat) > 0)


def test_heat_row_matches_independent_assembly(rng):
    # dense quadrature-matrix oracle built directly from the kernel formula
    n, kappa = 24, 1.0
    h = 1.0 / n
    ref = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1):
            gap = (i - j + 0.5) * h
            ref[i, j] = h * heat_kernel_value(gap, kappa)
    op = heat_1d(n, kappa)
    x = rng.standard_normal(n)
    assert np.linalg.norm(op.apply(x) - ref @ x) <= 1e-14 * np.linalg.norm(ref @ x)


def test_heat_entry_against_fine_quadrature():
    # one cell of the Volterra integral, high-order quadrature oracle
    n = 64
    h = 1.0 / n
    i, j = 40, 8
    t_i = (i + 1) * h
    cell = (j * h, (j + 1) * h)
    oracle, _ = quad(lambda s: heat_kernel_value(t_i - s), *cell)
    entry = dense_matrix(heat_1d(n))[i, j]
    assert abs(entry - oracle) <= 1e-4 * abs(oracle)


def test_heat_singular_values_decay():
    s = np.linalg.svd(dense_matrix(heat_1d(64)), compute_uv=False)
    assert np.all(np.diff(s) <= 0)
    assert s[-1] / s[0] < 1e-10  # severely ill-posed


def test_heat_kappa_controls_conditioning():
    s1 = np.linalg.svd(dense_matrix(heat_1d(48, kappa=1.0)), compute_uv=False)
    s5 = np.linalg.svd(dense_matrix(heat_1d(48, kappa=5.0)), compute_uv=False)
    assert s5[-1] / s5[0] > s1[-1] / s1[0]


def test_heat_validation():
    with pytest.raises(ValueError):
        heat_1d(1)
    with pytest.raises(ValueError):
        heat_1d(16, kappa=0.0)
    with pytest.raises(ValueError):
        heat_kernel_value(0.0)


# --- ray tomography


def test_axis_aligned_ray_row():
    g = 8
    y = (3 + 0.5) / g  # through the middle of grid row 3
    idx, lengths, total = ray_row(g, (0.0, y), (1.0, y))
    assert np.allclose(lengths, 1.0 / g)
    assert len(idx) == g
    assert np.isclose(lengths.sum(), 1.0)
    assert np.isclose(total, 1.0)
    # all cells share the same grid row
    assert np.all(idx // g == 3)


def test_uniform_image_integrates_to_ray_length(rng):
    g, n_rays = 16, 40
    op = ray_tomo_2d(g, n_rays, seed=11)
    c = 2.5
    data = op.apply(np.full(g * g, c))
    mat = dense_matrix(op)
    lengths = mat.sum(axis=1)  # row sums are the chord lengths
    assert np.allclose(data, c * lengths, rtol=1e-12)
    assert np.all(lengths > 0)
    assert np.all(lengths <= math.sqrt(2.0) + 1e-12)
    assert np.all(mat >= 0)


def test_ray_row_geometric_oracle():
    # diagonal of the unit square: total intersection length is sqrt(2)
    idx, lengths, total = ray_row(6, (0.0, 0.0), (1.0, 1.0))
    assert np.isclose(total, math.sqrt(2.0))
    assert np.isclose(lengths.sum(), math.sqrt(2.0))


def test_ray_tomo_paper_scale_shape():
    op = ray_tomo_2d(64, 1440, seed=0)
    assert op.shape == (1440, 4096)


def test_ray_tomo_validation():
    with pytest.raises(ValueError):
        ray_tomo_2d(2, 10)
    with pytest.raises(ValueError):
        ray_tomo_2d(8, 0)


# --- phantoms


def test_phantom_zero_truncation():
    grid = RegularGrid((6, 6), (1 / 6, 1 / 6))
    field = smooth_phantom(grid, MaternKernel(1.5, 1.0, 0.2), 0, seed=0)
    assert np.array_equal(field, np.zeros(36))


def test_phantom_mask_zeroes_complement():
    grid = RegularGrid((5, 5), (0.2, 0.2))
    mask = np.array([0, 3, 7, 24])
    field = smooth_phantom(grid, MaternKernel(1.5, 1.0, 0.2), 25, seed=1, mask=mask)
    off = np.setdiff1d(np.arange(25), mask)
    assert np.all(field[off] == 0.0)
    assert np.any(field[mask] != 0.0)


def test_phantom_covariance_statistic(rng):
    # Monte Carlo covariance oracle at a fixed pair of nearby points
    grid = RegularGrid((10, 10), (0.1, 0.1))
    kernel = MaternKernel(1.5, 1.0, 0.25)
    i, j = 44, 45  # horizontally adjacent, distance 0.1
    n_draws = 500
    draws = np.array([
        smooth_phantom(grid, kernel, grid.size, seed=s) for s in range(n_draws)
    ])
    sample_cov = np.mean(draws[:, i] * draws[:, j])
    target = float(kernel(0.1))
    qii = float(kernel(0.0))
    # var of the product-moment estimate for a bivariate gaussian
    sigma = math.sqrt((qii * qii + target * target) / n_draws)
    assert abs(sample_cov - target) <= 3.0 * sigma


def test_phantom_truncation_bounds():
    grid = RegularGrid((4,), (0.25,))
    with pytest.raises(ValueError):
        smooth_phantom(grid, MaternKernel(1.5, 1.0, 0.2), 5, seed=0)


# --- noise and error metrics


def test_add_noise_zero_level(rng):
    d = rng.standard_normal(9)
    noisy, eta = add_noise(d, 0.0, seed=4)
    assert np.array_equal(noisy, d)
    assert not eta.any()


def test_add_noise_norm_identity(rng):
    d = rng.standard_normal(50)
    noisy, eta = add_noise(d, 0.02, seed=4)
    assert abs(np.linalg.norm(eta) - 0.02 * np.linalg.norm(d)) <= 1e-14
    assert np.allclose(noisy, d + eta)


def test_add_noise_seeds_differ(rng):
    d = rng.standard_normal(30)
    _, eta1 = add_noise(d, 0.05, seed=1)
    _, eta2 = add_noise(d, 0.05, seed=2)
    assert not np.allclose(eta1, eta2)
    assert np.isclose(np.linalg.norm(eta1), np.linalg.norm(eta2))


def test_add_noise_zero_data_rejected():
    with pytest.raises(ValueError, match="undefined"):
        add_noise(np.zeros(5), 0.1, seed=0)


def test_relative_error_values(rng):
    s = rng.standard_normal(12)
    assert relative_error(s, s) == 0.0
    assert np.isclose(relative_error(s, np.zeros(12)), 1.0)
    assert np.isclose(relative_error(s, 2 * s), 1.0)
    with pytest.raises(ValueError):
        relative_error(np.zeros(3), np.ones(3))


@settings(max_examples=30, deadline=None)
@given(scale=st.floats(-3.0, 3.0), seed=st.integers(0, 2**31))
def test_relative_error_scaling_property(scale, seed):
    s = np.random.default_rng(seed).standard_normal(8) + 10.0
    assert np.isclose(relative_error(s, scale * s), abs(1.0 - scale), rtol=1e-12)


# --- assembled instances


def test_heat_problem_invariants():
    prob = build_heat_problem(n=128, noise_level=0.02, seed=5)
    recomputed = prob.forward.apply(prob.s_true)
    assert np.allclose(recomputed, prob.d_clean, rtol=1e-12)
    assert abs(np.linalg.norm(prob.data - prob.d_clean)
               - 0.02 * np.linalg.norm(prob.d_clean)) <= 1e-12
    assert isinstance(prob.geometry, RegularGrid)
    assert heat_true_signal(128).max() <= 1.0


def test_ray_problem_invariants():
    prob = build_ray_tomo_problem(g=12, n_rays=60, noise_level=0.05, seed=3)
    recomputed = prob.forward.apply(prob.s_true)
    assert np.allclose(recomputed, prob.d_clean, rtol=1e-12)
    assert abs(np.linalg.norm(prob.noise)
               - 0.05 * np.linalg.norm(prob.d_clean)) <= 1e-10


def test_masked_ray_problem():
    g = 8
    mask = np.arange(20)
    prob = build_ray_tomo_problem(g=g, n_rays=30, noise_level=0.02, seed=3,
                                  mask=mask)
    assert prob.forward.ncols == 20
    assert prob.s_true.shape == (20,)
    assert np.allclose(prob.forward.apply(prob.s_true), prob.d_clean)
