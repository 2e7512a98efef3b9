import logging
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gamma as gamma_fn
from scipy.special import kv

from gkhyper import covariance
from gkhyper.covariance import (
    MaternKernel,
    RegularGrid,
    build_cov_operator,
    _matern_deriv,
    matern_eval,
)
from gkhyper.operators import dense_matrix


def bessel_reference(nu, sigma2, ell, r):
    # independent evaluation straight from the Bessel-function definition
    if r == 0:
        return sigma2
    a = math.sqrt(2 * nu) * r / ell
    return sigma2 * 2.0 ** (1 - nu) / gamma_fn(nu) * a**nu * kv(nu, a)


def dense_reference(points, kernel):
    # entrywise assembly from the kernel definition, independent of the
    # library's dense backend
    points = np.atleast_2d(points)
    n = points.shape[0]
    out = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            out[i, j] = matern_eval(kernel, np.linalg.norm(points[i] - points[j]))
    return out


def test_value_at_origin_is_variance():
    for nu in (0.5, 1.5, 2.5, 1.1):
        assert matern_eval(MaternKernel(nu, 2.7, 0.3), 0.0) == 2.7


def test_exponential_special_case():
    assert np.isclose(matern_eval(MaternKernel(0.5, 1.0, 1.0), 2.0),
                      math.exp(-2.0), rtol=1e-15)


def test_closed_forms_match_bessel_definition():
    for nu in (0.5, 1.5, 2.5):
        k = MaternKernel(nu, 1.0, 0.5)
        for r in (0.1, 0.5, 1.3):
            assert np.isclose(matern_eval(k, r), bessel_reference(nu, 1.0, 0.5, r),
                              rtol=1e-10)
    # the spec's spot value: nu=3/2, ell=0.5, r=0.5
    k = MaternKernel(1.5, 1.0, 0.5)
    a = math.sqrt(3) * 0.5 / 0.5
    assert np.isclose(matern_eval(k, 0.5), (1 + a) * math.exp(-a), rtol=1e-14)


def test_negative_distance_rejected():
    with pytest.raises(ValueError, match="nonnegative"):
        matern_eval(MaternKernel(1.5, 1.0, 1.0), -0.1)
    with pytest.raises(ValueError, match="nonnegative"):
        _matern_deriv(MaternKernel(1.5, 1.0, 1.0), -0.1)


def test_kernel_parameter_validation():
    for bad in [dict(nu=0), dict(sigma2=-1), dict(ell=0)]:
        kwargs = dict(nu=1.5, sigma2=1.0, ell=1.0)
        kwargs.update(bad)
        with pytest.raises(ValueError):
            MaternKernel(**kwargs)


def test_ell_derivative_at_origin_vanishes():
    for nu in (0.5, 1.5, 2.5):
        assert _matern_deriv(MaternKernel(nu, 2.0, 0.4), 0.0) == 0.0


def test_ell_derivative_matches_finite_difference():
    k = MaternKernel(1.5, 1.0, 0.5)
    h = 1e-6 * 0.5
    fd = (matern_eval(MaternKernel(1.5, 1.0, 0.5 + h), 0.5)
          - matern_eval(MaternKernel(1.5, 1.0, 0.5 - h), 0.5)) / (2 * h)
    assert np.isclose(_matern_deriv(k, 0.5), fd, rtol=1e-6)


def test_ell_derivative_random_pairs(rng):
    # 20 random (r, ell) pairs for each supported smoothness
    for nu in (0.5, 1.5, 2.5):
        for _ in range(20):
            r = rng.uniform(0.05, 2.0)
            ell = rng.uniform(0.1, 1.5)
            k = MaternKernel(nu, 1.7, ell)
            h = 1e-6 * ell
            fd = (matern_eval(MaternKernel(nu, 1.7, ell + h), r)
                  - matern_eval(MaternKernel(nu, 1.7, ell - h), r)) / (2 * h)
            assert np.isclose(_matern_deriv(k, r), fd, rtol=1e-5, atol=1e-12)


def test_unsupported_nu_falls_back_to_finite_difference():
    k = MaternKernel(1.2, 1.0, 0.4)
    val = _matern_deriv(k, 0.3)
    h = 1e-6 * 0.4
    fd = (bessel_reference(1.2, 1.0, 0.4 + h, 0.3)
          - bessel_reference(1.2, 1.0, 0.4 - h, 0.3)) / (2 * h)
    assert np.isclose(val, fd, rtol=1e-6)


def test_ell_derivative_is_closed_form_for_every_nu():
    # the Bessel identity gives dM/dell at any nu without a warning; a hair
    # off the elementary nu it agrees with their closed forms
    r = np.linspace(0.0, 1.5, 31)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        general = _matern_deriv(MaternKernel(1.2, 1.3, 0.4), r)
        near = {nu: _matern_deriv(MaternKernel(nu + 1e-9, 1.3, 0.4), r) for nu in (0.5, 1.5, 2.5)}
    assert general[0] == 0.0 and np.all(general[1:] > 0.0)
    for nu, values in near.items():
        exact = _matern_deriv(MaternKernel(nu, 1.3, 0.4), r)
        assert np.allclose(values, exact, rtol=1e-7, atol=0.0)


def test_single_point_grid():
    op = build_cov_operator(RegularGrid((1,), (1.0,)), MaternKernel(1.5, 3.0, 0.5))
    assert np.allclose(op.apply([2.0]), [6.0])


def test_fft_matches_independent_dense_assembly(rng):
    # dense-assembly oracle built in the test, 16-point 1-d grid
    grid = RegularGrid((16,), (1 / 16,))
    kernel = MaternKernel(1.5, 1.3, 0.06)
    reference = dense_reference(grid.points(), kernel)
    op = build_cov_operator(grid, kernel)
    assert op.clipped == 0
    for _ in range(10):
        x = rng.standard_normal(16)
        ref = reference @ x
        assert np.linalg.norm(op.apply(x) - ref) < 1e-10 * np.linalg.norm(ref)


@pytest.mark.parametrize("shape,ell", [((16,), 0.05), ((32, 32), 0.05),
                                       ((8, 8), 0.1), ((32, 32), 0.08)])
def test_fft_and_dense_backends_agree(rng, shape, ell):
    spacing = tuple(1.0 / s for s in shape)
    grid = RegularGrid(shape, spacing)
    kernel = MaternKernel(1.5, 0.9, ell)
    fop = build_cov_operator(grid, kernel)
    dop = build_cov_operator(grid.points(), kernel)
    assert (fop.backend, dop.backend) == ("fft", "dense")
    for _ in range(10):
        x = rng.standard_normal(grid.size)
        ref = dop.apply(x)
        assert np.linalg.norm(fop.apply(x) - ref) <= 1e-10 * np.linalg.norm(ref)


def test_symmetry_and_positive_semidefiniteness(rng):
    grid = RegularGrid((12, 12), (1 / 12, 1 / 12))
    op = build_cov_operator(grid, MaternKernel(2.5, 1.5, 0.07))
    norm_estimate = 0.0
    for _ in range(20):
        x = rng.standard_normal(op.ncols)
        y = rng.standard_normal(op.ncols)
        qx = op.apply(x)
        norm_estimate = max(norm_estimate, np.linalg.norm(qx) / np.linalg.norm(x))
        assert abs(qx @ y - x @ op.apply(y)) < 1e-12 * np.linalg.norm(qx) * np.linalg.norm(y)
        assert x @ qx >= -1e-10 * norm_estimate * (x @ x)


def _derivative_products(q, x):
    # (dQ/dtheta2 X, dQ/dtheta3 X) as the gradient takes them from a basis X
    q_x, dq3_x = q.apply_block_with_theta3_derivative(x)
    q_x *= 2.0 / q.kernel.prior_std
    return q_x, dq3_x


def _theta3_derivative_apply(q, x):
    return q.apply_block_with_theta3_derivative(x[:, None])[1][:, 0]


def test_variance_derivative_operator_is_scaled_q(rng):
    # same code path scaled: exact equality
    grid = RegularGrid((9,), (0.1,))
    kernel = MaternKernel(1.5, 2.25, 0.08)  # theta2 = 1.5
    q = build_cov_operator(grid, kernel)
    x = rng.standard_normal(9)
    dq2 = _derivative_products(build_cov_operator(grid, kernel), x[:, None])[0]
    assert np.array_equal(dq2[:, 0], (2 / 1.5) * q.apply(x))


def test_ell_derivative_operator_matches_dense_fd(rng):
    grid = RegularGrid((10,), (0.1,))
    q = build_cov_operator(grid, MaternKernel(1.5, 1.0, 0.09))
    h = 1e-7 * 0.09
    ref_p = dense_reference(grid.points(), MaternKernel(1.5, 1.0, 0.09 + h))
    ref_m = dense_reference(grid.points(), MaternKernel(1.5, 1.0, 0.09 - h))
    fd = (ref_p - ref_m) / (2 * h)
    x = rng.standard_normal(10)
    assert np.allclose(_theta3_derivative_apply(q, x), fd @ x, rtol=1e-5)


def test_point_set_requires_dense_backend(rng):
    points = rng.uniform(0, 1, (6, 2))
    op = build_cov_operator(points, MaternKernel(1.5, 1.0, 0.3))
    assert op.backend == "dense"


def test_grid_validation():
    with pytest.raises(ValueError):
        RegularGrid((4, 4, 4), (0.1, 0.1, 0.1))
    with pytest.raises(ValueError):
        RegularGrid((4,), (0.1, 0.1))
    with pytest.raises(ValueError):
        RegularGrid((4,), (-0.1,))


def test_negative_embedding_is_clipped_for_q_only():
    # long correlation length on a short grid makes the embedding indefinite
    grid = RegularGrid((16,), (1 / 16,))
    kernel = MaternKernel(1.5, 1.0, 0.9)
    q = build_cov_operator(grid, kernel)
    assert q.clipped > 0 and q.min_embedding_eig < 0

    # dQ/dtheta3 differentiates the clipped Q that is applied: it matches
    # central differences of the clipped Q's applies (the clipped set is the
    # same at ell +- h)
    h = 1e-6 * kernel.ell
    q_p = build_cov_operator(grid, MaternKernel(1.5, 1.0, kernel.ell + h))
    q_m = build_cov_operator(grid, MaternKernel(1.5, 1.0, kernel.ell - h))
    assert q_p.clipped == q_m.clipped == q.clipped
    rng = np.random.default_rng(7)
    for _ in range(5):
        x = rng.standard_normal(16)
        fd = (q_p.apply(x) - q_m.apply(x)) / (2 * h)
        assert np.linalg.norm(_theta3_derivative_apply(q, x) - fd) <= 1e-6 * np.linalg.norm(fd)

    # dQ/dtheta2 is (2/theta2) Q bit for bit, taken from a fresh Q and from
    # the one that has applied dQ/dtheta3
    for q_i in (build_cov_operator(grid, kernel), q):
        x = rng.standard_normal(16)
        dq2 = _derivative_products(q_i, x[:, None])[0]
        assert np.array_equal(dq2[:, 0], (2 / 1.0) * q.apply(x))  # theta2 = 1


def test_clipping_warning_logged_once_per_grid_shape(caplog, monkeypatch):
    # Q is rebuilt per evaluation, so only the first clipping build of a grid
    # shape warns; every operator still records its own clipping
    monkeypatch.setattr(covariance, "_CLIP_WARNED", set())
    caplog.set_level(logging.DEBUG, logger="gkhyper.covariance")
    kernel = MaternKernel(1.5, 1.0, 0.9)
    ops = [build_cov_operator(RegularGrid((n,), (1 / n,)), kernel) for n in (16, 16, 17)]
    levels = [r.levelno for r in caplog.records if "clipping at zero" in r.getMessage()]
    assert levels == [logging.WARNING, logging.DEBUG, logging.WARNING]
    assert all(op.clipped > 0 and op.min_embedding_eig < 0 for op in ops)
    assert ops[0].clipped == ops[1].clipped


def test_dense_variance_derivative_is_scaled_q(rng):
    points = rng.uniform(0, 1, (7, 2))
    kernel = MaternKernel(2.5, 0.49, 0.3)  # theta2 = 0.7
    for geometry in (points, RegularGrid((3, 3), (0.2, 0.2)).points()):
        q = build_cov_operator(geometry, kernel)
        assert q.backend == "dense"
        x = rng.standard_normal(q.ncols)
        dq2 = _derivative_products(q, x[:, None])[0]
        assert np.array_equal(dq2[:, 0], (2 / 0.7) * q.apply(x))


def test_fft_matvec_scales_subquadratically():
    import time

    def median_apply_seconds(n, reps=5):
        grid = RegularGrid((n,), (1.0 / n,))
        op = build_cov_operator(grid, MaternKernel(1.5, 1.0, 0.01))
        x = np.ones(n)
        op.apply(x)  # warm up
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            op.apply(x)
            times.append(time.perf_counter() - t0)
        return float(np.median(times))

    t_small = median_apply_seconds(2048)
    t_big = median_apply_seconds(16384)
    # n grows 8x; n log n predicts ~9.3x, dense matvec would be 64x
    assert t_big / t_small < 32


@settings(max_examples=30, deadline=None)
@given(
    nu=st.sampled_from([0.5, 1.5, 2.5]),
    r1=st.floats(0.0, 3.0),
    r2=st.floats(0.0, 3.0),
    ell=st.floats(0.05, 2.0),
)
def test_kernel_positive_and_nonincreasing(nu, r1, r2, ell):
    k = MaternKernel(nu, 1.0, ell)
    lo, hi = sorted((r1, r2))
    v_lo, v_hi = matern_eval(k, lo), matern_eval(k, hi)
    assert v_lo > 0 and v_hi > 0
    assert v_hi <= v_lo + 1e-12


BLOCK_WIDTHS = (1, 15, 16, 17, 40)  # both sides of the 16-column chunk edges


def _block_operators():
    # 1-d and 2-d FFT grids, a clipping embedding, and the dense backend on
    # a grid's points
    cases = [(RegularGrid((64,), (1 / 64,)), 0.1),
             (RegularGrid((2048,), (1 / 2048,)), 0.05),
             (RegularGrid((8, 8), (1 / 8, 1 / 8)), 0.2),
             (RegularGrid((24, 24), (1 / 24, 1 / 24)), 0.08),
             (RegularGrid((16,), (1 / 16,)), 0.9),
             (RegularGrid((5, 4), (0.2, 0.25)).points(), 0.3)]
    for geometry, ell in cases:
        yield build_cov_operator(geometry, MaternKernel(1.5, 0.64, ell))


def test_apply_block_matches_per_column_apply_bit_for_bit(rng):
    clipped = 0
    for q in _block_operators():
        clipped += getattr(q, "clipped", 0)
        for p in BLOCK_WIDTHS:
            # a column slice of a wider array, as V_k is of the genGK basis
            x = rng.standard_normal((q.ncols, p + 1))[:, :p]
            # the reference applies each column alone: Q by apply, and both
            # products as single-column blocks
            singles = [q.apply_block_with_theta3_derivative(x[:, j:j + 1]) for j in range(p)]
            q_want = np.column_stack([q.apply(x[:, j]) for j in range(p)])
            wants = (q_want, *(np.hstack(cols) for cols in zip(*singles)))
            gots = (q.apply_block(x), *q.apply_block_with_theta3_derivative(x))
            for got, want in zip(gots, wants):
                assert got.shape == (q.ncols, p) and got.flags.c_contiguous
                assert np.array_equal(got, want), (q.ncols, q.backend, p)
            # dQ/dtheta2 X = (2/theta2) Q X, scaled in place
            dq2 = _derivative_products(q, x)[0]
            assert np.array_equal(dq2, (2 / 0.8) * q_want)
        # the identity block is the dense Q the oracles read, equal to probing
        # Q one basis vector at a time
        assert np.array_equal(q.apply_block(np.eye(q.ncols)), dense_matrix(q)), q.backend
    assert clipped > 0


def test_fft_apply_keeps_its_layout(rng):
    # the dot products that read Q.apply round by the layout they see, so
    # the outputs depend on it: on every backend, column 0 of the C-contiguous
    # (n, 1) output of a one-column block apply
    kernel = MaternKernel(1.5, 1.0, 0.3)
    for geometry in (RegularGrid((32,), (1 / 32,)), RegularGrid((6, 5), (0.2, 0.2)),
                     rng.uniform(0, 1, (30, 2))):
        q = build_cov_operator(geometry, kernel)
        out = q.apply(rng.standard_normal(q.ncols))
        assert out.shape == (q.ncols,) and out.strides == (8,) and out.flags.c_contiguous
        assert out.base is not None and out.base.shape == (q.ncols, 1)
        assert out.base.flags.c_contiguous


# (n, ell, clipped modes): 16 points at ell = 0.06 do not clip, 16 at 0.9 and
# 2048 at the heat config's 0.185 do
COMPLEX_CASES = ((1, 0.06, 0), (2, 0.06, 0), (3, 0.06, 0), (16, 0.06, 0), (16, 0.9, 15),
                 (2048, 0.185, 1899))


@pytest.mark.parametrize("n,ell,clipped", COMPLEX_CASES)
def test_1d_real_transforms_match_the_complex_embedding(rng, n, ell, clipped):
    # the 1-d embedding as complex transforms apply it, built here: all 2n
    # eigenvalues, Q's clip mask from them, ifft(eig * fft(x, 2n)).real[:n]
    kernel = MaternKernel(1.5, 0.64, ell)
    grid = RegularGrid((n,), (1 / n,))
    idx = np.arange(2 * n)
    lags = np.minimum(idx, 2 * n - idx) * grid.spacing[0]
    eig = np.fft.fft(matern_eval(kernel, lags)).real
    clip = eig < 0.0
    eigs = [np.where(clip, 0.0, e) for e in (eig, np.fft.fft(_matern_deriv(kernel, lags)).real)]

    def reference(e, x):
        return np.fft.ifft(e[:, None] * np.fft.fft(x, 2 * n, axis=0), axis=0).real[:n]

    q = build_cov_operator(grid, kernel)
    assert q.clipped == np.count_nonzero(clip) == clipped
    x = rng.standard_normal((n, 17))  # across the 16-column chunk edge
    q_ref, dq_ref = (reference(e, x) for e in eigs)
    gots = [(np.column_stack([q.apply(col) for col in x.T]), q_ref), (q.apply_block(x), q_ref),
            *zip(q.apply_block_with_theta3_derivative(x), (q_ref, dq_ref))]
    for got, want in gots:
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def _transform_reference(q, eig, x):
    # the transforms of the FFT backends on the whole block: fftn(s=, axes=)
    # and a per-axis ifft cropped after each pass on a 2-d grid, rfft and
    # irfft on a line
    p = x.shape[1]
    if q.geometry.ndim == 1:
        length = 2 * q.ncols
        spectra = np.fft.rfft(x.T, n=length, axis=1)
        return np.fft.irfft(eig * spectra, n=length, axis=1)[:, :q.ncols].T
    fields = x.T.reshape(p, *q.geometry.shape)
    spectra = eig * np.fft.fftn(fields, s=[2 * s for s in q.geometry.shape], axes=(1, 2))
    for axis in (2, 1):
        crop = (slice(None),) * axis + (slice(0, q.geometry.shape[axis - 1]),)
        spectra = np.fft.ifft(spectra, axis=axis)[crop]
    return spectra.real.reshape(p, -1).T


TRANSFORM_GRIDS = (((64,), 0.1), ((257,), 0.2), ((2048,), 0.05), ((8, 8), 0.2),
                   ((24, 24), 0.08), ((32, 32), 0.3), ((16,), 0.9))


@pytest.mark.parametrize("shape,ell", TRANSFORM_GRIDS)
def test_chunked_applies_keep_the_whole_block_transform_bits(rng, shape, ell):
    # across the 16-column chunk edge, Q, the paired Q and dQ/dtheta3 and the
    # dQ/dtheta3-only apply keep the bits of the transforms taken on the whole
    # block; so the dQ/dtheta3-only apply has the paired apply's second output
    grid = RegularGrid(shape, tuple(1 / s for s in shape))
    q = build_cov_operator(grid, MaternKernel(1.5, 0.64, ell))
    if shape == (16,):
        assert q.clipped  # the clipped embedding
    for p in BLOCK_WIDTHS:
        x = rng.standard_normal((q.ncols, p + 1))[:, :p]
        q_ref, dq_ref = (_transform_reference(q, eig, x) for eig in (q._data, q._ell_data))
        q_x, dq_x = q.apply_block_with_theta3_derivative(x)
        for got, want in ((q.apply_block(x), q_ref), (q_x, q_ref), (dq_x, dq_ref),
                          (q.apply_theta3_derivative_block(x), dq_ref)):
            assert got.shape == (q.ncols, p) and got.flags.c_contiguous
            assert np.array_equal(got, want), (shape, p)


def test_apply_block_counts_p_applies_per_operator(rng):
    q = build_cov_operator(RegularGrid((6, 6), (0.2, 0.2)), MaternKernel(1.5, 1.0, 0.3))
    q.apply_block_with_theta3_derivative(rng.standard_normal((36, 17)))
    assert q.matvec_count.snapshot() == (17, 0)
    q.apply_block(rng.standard_normal((36, 3)))
    assert q.matvec_count.snapshot() == (20, 0)


def test_dq_count_counts_the_theta3_derivative_columns_only(rng):
    # p per call of apply_block_with_theta3_derivative, on both backends;
    # apply and apply_block apply Q alone, and apply_theta3_derivative_block
    # dQ/dtheta3 alone
    for geometry in (RegularGrid((6, 6), (0.2, 0.2)), rng.uniform(0, 1, (36, 2))):
        q = build_cov_operator(geometry, MaternKernel(1.5, 1.0, 0.3))
        q.apply(rng.standard_normal(36))
        q.apply_block(rng.standard_normal((36, 3)))
        assert q.dq_count == 0
        q.apply_block_with_theta3_derivative(rng.standard_normal((36, 17)))
        assert q.dq_count == 17
        q.apply_block_with_theta3_derivative(rng.standard_normal((36, 2)))
        assert (q.dq_count, q.matvec_count.snapshot()) == (19, (1 + 3 + 19, 0))
        q.apply_theta3_derivative_block(rng.standard_normal((36, 5)))
        assert (q.dq_count, q.matvec_count.snapshot()) == (24, (1 + 3 + 19, 0))


def test_apply_block_empty_block(rng):
    q = build_cov_operator(RegularGrid((8,), (0.1,)), MaternKernel(1.5, 1.0, 0.3))
    for out in (q.apply_block(np.zeros((8, 0))),
                *q.apply_block_with_theta3_derivative(np.zeros((8, 0))),
                q.apply_theta3_derivative_block(np.zeros((8, 0)))):
        assert out.shape == (8, 0)
    assert q.matvec_count.snapshot() == (0, 0) and q.dq_count == 0


def test_apply_block_rejects_bad_input_before_any_transform(monkeypatch, rng):
    q = build_cov_operator(RegularGrid((4, 4), (0.2, 0.2)), MaternKernel(1.5, 1.0, 0.3))

    def no_transform(self, x):
        raise AssertionError("transform ran on a rejected block")

    monkeypatch.setattr(type(q), "_forward_block", no_transform)
    good = rng.standard_normal((16, 3))
    bad_values = good.copy()
    bad_values[5, 1] = np.nan
    for bad in (rng.standard_normal((15, 3)), rng.standard_normal(16),
                rng.standard_normal((16, 3, 1)), bad_values, np.where(good > 0, np.inf, good)):
        for apply in (q.apply_block, q.apply_block_with_theta3_derivative,
                      q.apply_theta3_derivative_block):
            with pytest.raises(ValueError):
                apply(bad)
    assert q.matvec_count.snapshot() == (0, 0) and q.dq_count == 0
    # nor is the dQ/dtheta3 embedding built for it
    assert "_ell_data" not in vars(q)
