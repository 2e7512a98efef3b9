import functools

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.fft import next_fast_len
from scipy.linalg import toeplitz
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import probe_dense, run_at_blas_threads
from gkhyper.covariance import MaternKernel, RegularGrid, build_cov_operator
from gkhyper.gengk import gengk_bidiag
from gkhyper.monitor import normal_matrix_apply
from gkhyper.operators import (
    DenseOperator,
    IdentityOperator,
    LowerToeplitzOperator,
    SparseOperator,
    dense_matrix,
)
from gkhyper.problems import build_ray_tomo_problem, _heat_1d, ray_tomo_2d


def adjoint_probe_defect(op, n_probes: int = 20, rng=None) -> float:
    """Max relative defect |<Ax,y> - <x,A'y>| over random probe pairs."""
    rng = np.random.default_rng(rng)
    worst = 0.0
    for _ in range(n_probes):
        x = rng.standard_normal(op.ncols)
        y = rng.standard_normal(op.nrows)
        ax = op.apply(x)
        aty = op.apply_adjoint(y)
        lhs = float(ax @ y)
        rhs = float(x @ aty)
        scale = max(np.linalg.norm(ax) * np.linalg.norm(y), 1e-300)
        worst = max(worst, abs(lhs - rhs) / scale)
    return worst


def test_identity_apply():
    op = IdentityOperator(3)
    assert np.array_equal(op.apply([1.0, 2.0, 3.0]), [1.0, 2.0, 3.0])
    assert np.array_equal(op.apply_adjoint([4.0, 5.0, 6.0]), [4.0, 5.0, 6.0])


def test_dimension_mismatch_rejected():
    op = DenseOperator(np.ones((2, 3)))
    with pytest.raises(ValueError, match="length 3"):
        op.apply([1.0, 2.0])
    with pytest.raises(ValueError, match="length 2"):
        op.apply_adjoint([1.0, 2.0, 3.0])


def test_nonfinite_input_rejected():
    op = IdentityOperator(2)
    with pytest.raises(ValueError, match="non-finite"):
        op.apply([np.nan, 1.0])
    with pytest.raises(ValueError, match="non-finite"):
        op.apply_adjoint([np.inf, 0.0])


def test_counters_increment_by_one(rng):
    op = DenseOperator(rng.standard_normal((4, 6)))
    assert op.matvec_count.snapshot() == (0, 0)
    op.apply(np.ones(6))
    assert op.matvec_count.snapshot() == (1, 0)
    op.apply_adjoint(np.ones(4))
    op.apply_adjoint(np.ones(4))
    assert op.matvec_count.snapshot() == (1, 2)
    op.matvec_count.reset()
    assert op.matvec_count.snapshot() == (0, 0)


def test_adjoint_consistency_random_dense(rng):
    # inner-product probe oracle on a random 8x5 operator
    op = DenseOperator(rng.standard_normal((8, 5)))
    assert adjoint_probe_defect(op, n_probes=20, rng=rng) < 1e-12


@pytest.mark.parametrize("theta1", [0.0, -1.0, np.nan, np.inf, -np.inf])
def test_noise_variance_checked_before_any_apply(theta1):
    # R = theta1 I is passed as theta1 to the two entry points that take it
    rng = np.random.default_rng(0)
    A = DenseOperator(rng.standard_normal((6, 5)))
    Q = build_cov_operator(RegularGrid((5,), (0.2,)), MaternKernel(1.5, 1.0, 0.3))
    with pytest.raises(ValueError, match="noise variance must be finite and positive"):
        gengk_bidiag(A, theta1, Q, None, rng.standard_normal(6), 3)
    with pytest.raises(ValueError, match="noise variance must be finite and positive"):
        normal_matrix_apply(A, theta1)
    assert A.matvec_count.snapshot() == (0, 0)
    assert Q.matvec_count.forward == 0
    # a valid theta1 applies R^{-1} as x / theta1
    x = rng.standard_normal((5, 2))
    assert np.array_equal(normal_matrix_apply(A, 0.5)(x),
                          A.apply_adjoint_block(A.apply_block(x) * 2.0))


def test_dense_matrix_roundtrip(rng):
    mat = rng.standard_normal((6, 9))
    op = DenseOperator(mat)
    assert np.allclose(dense_matrix(op), mat, rtol=0, atol=0)
    mat2 = rng.standard_normal((9, 6))
    assert np.allclose(dense_matrix(DenseOperator(mat2)), mat2, rtol=0, atol=0)


@settings(max_examples=25, deadline=None)
@given(m=st.integers(2, 12), n=st.integers(2, 12), seed=st.integers(0, 2**31))
def test_adjoint_consistency_property(m, n, seed):
    rng = np.random.default_rng(seed)
    op = DenseOperator(rng.standard_normal((m, n)))
    assert adjoint_probe_defect(op, n_probes=5, rng=rng) < 1e-12


# --- block applies

BLOCK_WIDTHS = (1, 15, 16, 17, 40)  # both sides of Q's 16-column chunk edges


def _masked_ray(mask):
    op = build_ray_tomo_problem(g=8, n_rays=40, seed=0, mask=mask).forward
    op.matvec_count.reset()  # the build applied it to the phantom
    return op


def _block_cases():
    # (name, factory): a fresh operator per call, so each case counts from zero
    rng = np.random.default_rng(5)
    tall, wide = rng.standard_normal((30, 12)), rng.standard_normal((12, 30))
    sparse_tall = sp.random(40, 16, density=0.3, random_state=1)
    sparse_wide = sp.random(16, 40, density=0.3, random_state=2)
    # a permuted subset of the 64 pixels: 40 x 25, each row's entries in the
    # full matrix's order
    keep = rng.permutation(64)[:25]
    kernel = MaternKernel(1.5, 0.64, 0.2)
    return [
        ("dense tall", lambda: DenseOperator(tall)),
        ("dense wide", lambda: DenseOperator(wide)),
        ("heat", lambda: _heat_1d(600)),  # the FFT side of heat's kernel switch
        ("sparse tall", lambda: SparseOperator(sparse_tall)),
        ("sparse wide", lambda: SparseOperator(sparse_wide)),
        ("ray tall", lambda: ray_tomo_2d(8, 100, seed=0)),
        ("ray wide", lambda: ray_tomo_2d(8, 40, seed=0)),
        ("masked ray", lambda: _masked_ray(keep)),
        ("identity", lambda: IdentityOperator(9)),
        ("Q fft 1-d", lambda: build_cov_operator(RegularGrid((24,), (1 / 24,)), kernel)),
        ("Q fft 2-d", lambda: build_cov_operator(RegularGrid((6, 5), (0.2, 0.2)), kernel)),
        ("Q dense", lambda: build_cov_operator(RegularGrid((6, 5), (0.2, 0.2)).points(),
                                               kernel)),
    ]


def test_block_applies_match_per_column_applies_bit_for_bit(rng):
    for name, make in _block_cases():
        op = make()
        m, n = op.shape
        for p in BLOCK_WIDTHS:
            # column slices of wider arrays, as the genGK bases are read; each
            # reference column is a contiguous vector, as callers pass them
            x = rng.standard_normal((n, p + 1))[:, :p]
            y = rng.standard_normal((m, p + 1))[:, :p]
            for got, want, rows in (
                    (op.apply_block(x), [op.apply(x[:, j].copy()) for j in range(p)], m),
                    (op.apply_adjoint_block(y),
                     [op.apply_adjoint(y[:, j].copy()) for j in range(p)], n)):
                assert got.shape == (rows, p) and got.flags.c_contiguous, name
                assert np.array_equal(got, np.column_stack(want)), (name, p)


def test_block_applies_count_p_applies(rng):
    for name, make in _block_cases():
        op = make()
        m, n = op.shape
        op.apply_block(rng.standard_normal((n, 17)))
        op.apply_adjoint_block(rng.standard_normal((m, 3)))
        op.apply_block(rng.standard_normal((n, 1)))
        assert op.matvec_count.snapshot() == (18, 3), name


def test_empty_block_applies_nothing():
    for name, make in _block_cases():
        op = make()
        m, n = op.shape
        assert op.apply_block(np.zeros((n, 0))).shape == (m, 0), name
        assert op.apply_adjoint_block(np.zeros((m, 0))).shape == (n, 0), name
        assert op.matvec_count.snapshot() == (0, 0), name


def test_block_applies_reject_bad_input_before_any_apply(monkeypatch, rng):
    def no_apply(self, x):
        raise AssertionError("an apply ran on a rejected block")

    # every operator is built before any class is patched: the masked ray
    # build applies its operator
    for name, op in [(name, make()) for name, make in _block_cases()]:
        for hook in ("_apply_block", "_apply_adjoint_block"):
            monkeypatch.setattr(type(op), hook, no_apply)
        for apply, rows in ((op.apply_block, op.ncols), (op.apply_adjoint_block, op.nrows)):
            good = rng.standard_normal((rows, 3))
            nan, inf = good.copy(), good.copy()
            nan[1, 2] = np.nan
            inf[0, 0] = -np.inf
            for bad in (rng.standard_normal((rows + 1, 3)), rng.standard_normal(rows),
                        rng.standard_normal((rows, 3, 1)), nan, inf):
                with pytest.raises(ValueError):
                    apply(bad)
        assert op.matvec_count.snapshot() == (0, 0), name


@pytest.mark.parametrize("make", [
    lambda: DenseOperator(np.random.default_rng(3).standard_normal((7, 11))),
    lambda: _heat_1d(64),  # the dense side of heat's kernel switch
    lambda: _heat_1d(300),  # the FFT side
    lambda: ray_tomo_2d(8, 40, seed=0),
    lambda: IdentityOperator(9),
], ids=["dense", "toeplitz64", "toeplitz300", "ray", "identity"])
def test_vector_applies_keep_the_one_column_layout(make, rng):
    # a vector apply is column 0 of the C-contiguous (m, 1) output of a
    # one-column block apply, the layout Q's vector apply has: a view of a
    # buffer of m entries (scipy's sparse product is a reshaped 1-d buffer,
    # so the base of its column holds the m entries flat)
    op = make()
    for apply, length, rows in ((op.apply, op.ncols, op.nrows),
                                (op.apply_adjoint, op.nrows, op.ncols)):
        out = apply(rng.standard_normal(length))
        assert out.shape == (rows,) and out.strides == (8,) and out.flags.c_contiguous
        assert out.base is not None and out.base.size == rows
        assert out.base.flags.c_contiguous


def test_dense_matrix_matches_per_column_probe():
    # one block apply of the identity gives the bits and the counts of
    # probing one basis vector at a time
    for name, make in _block_cases():
        op, probed = make(), make()
        got, want = dense_matrix(op), probe_dense(probed)
        assert np.array_equal(got, want), name
        assert op.matvec_count.snapshot() == probed.matvec_count.snapshot(), name


# --- the lower-triangular Toeplitz heat operator

# _heat_1d's dense side up to n = 256, and its FFT side: just above it, n
# whose doubled length has a large prime factor (257, 511, 513), and the
# benchmark's n = 2048
DENSE_SIZES = (2, 3, 63, 64, 65, 256)
FFT_SIZES = (257, 511, 512, 513, 1000, 2048, 4096)
# largest entry error of an FFT apply, relative to the largest entry of the
# exact product
FFT_TOL = 1e-13


def _heat_column(n):
    # _heat_1d's first column (kappa = 1), from the quadrature formula
    gaps = (np.arange(n) + 0.5) / n
    return gaps ** -1.5 * np.exp(-0.25 / gaps) / (n * np.sqrt(4.0 * np.pi))


def _fft_cases(n, rng):
    # (FFT operator, its first column): the heat column underflows to zero
    # near the diagonal; a random one does not. _heat_1d(n) is the FFT
    # operator only above n = 256
    column = rng.standard_normal(n)
    cases = [(LowerToeplitzOperator(column), column)]
    if n in FFT_SIZES:
        cases.append((_heat_1d(n), _heat_column(n)))
    return cases


def _applies_against_full(op, full, scale, rng):
    # (got, want) of vector and block applies, forward and adjoint, against
    # the products of the full matrix
    n = op.ncols
    x, y = scale * rng.standard_normal((2, n))
    xb, yb = scale * rng.standard_normal((2, n, 3))
    return [
        (op.apply(x), full @ x),
        (op.apply_adjoint(y), full.T @ y),
        (op.apply_block(xb), np.column_stack([full @ xb[:, j].copy() for j in range(3)])),
        (op.apply_adjoint_block(yb),
         np.column_stack([full.T @ yb[:, j].copy() for j in range(3)])),
    ]


@pytest.mark.parametrize("n", DENSE_SIZES)
def test_lower_toeplitz_applies_keep_the_full_matvec_bits(n, rng):
    # up to n = 256 _heat_1d is the dense matrix
    op = _heat_1d(n)
    assert isinstance(op, DenseOperator)
    # A e_0 has one product per entry, so it is the column bit for bit
    e0 = np.zeros(n)
    e0[0] = 1.0
    full = toeplitz(op.apply(e0), np.zeros(n))
    op.matvec_count.reset()
    for scale in (1e-8, 1.0, 1e8):
        for got, want in _applies_against_full(op, full, scale, rng):
            assert np.array_equal(got, want)
    assert op.matvec_count.snapshot() == (12, 12)


@pytest.mark.parametrize("n", DENSE_SIZES + FFT_SIZES)
def test_lower_toeplitz_fft_applies_match_the_full_product(n, rng):
    for op, column in _fft_cases(n, rng):
        full = toeplitz(column, np.zeros(n))
        for scale in (1e-8, 1.0, 1e8):
            for got, want in _applies_against_full(op, full, scale, rng):
                assert np.max(np.abs(got - want)) <= FFT_TOL * np.max(np.abs(want))
            # each block column has the bits of its vector apply
            xb = scale * rng.standard_normal((n, 4))
            assert np.array_equal(op.apply_block(xb),
                                  np.column_stack([op.apply(xb[:, j].copy())
                                                   for j in range(4)]))
            assert np.array_equal(op.apply_adjoint_block(xb),
                                  np.column_stack([op.apply_adjoint(xb[:, j].copy())
                                                   for j in range(4)]))
        # per scale: 1 + 3 against the full product, 4 + 4 block against vector
        assert op.matvec_count.snapshot() == (36, 36)


@pytest.mark.parametrize("n", [257, 2048])
def test_heat_fft_block_applies_keep_the_per_column_convolution_bits(n, rng):
    # across the 16-column chunk edge, each column of a block apply has the
    # bits of the per-column convolution irfft(c_hat * rfft(x, L), L)[:n] on
    # a contiguous column (conj(c_hat) for the adjoint)
    op = _heat_1d(n)
    assert isinstance(op, LowerToeplitzOperator) and not hasattr(op, "_mat")
    length = next_fast_len(2 * n, real=True)
    for p in (1, 15, 16, 17, 40):
        x = rng.standard_normal((n, p + 1))[:, :p]
        for apply, kernel in ((op.apply_block, op._chat),
                              (op.apply_adjoint_block, np.conj(op._chat))):
            want = np.column_stack([
                np.fft.irfft(kernel * np.fft.rfft(x[:, j].copy(), length), length)[:n]
                for j in range(p)])
            got = apply(x)
            assert got.flags.c_contiguous
            assert np.array_equal(got, want), (apply.__name__, p)


@pytest.mark.parametrize("n", [n for n in DENSE_SIZES + FFT_SIZES if n <= 1000])
def test_heat_dense_matrix_is_the_lower_toeplitz_matrix(n):
    op = _heat_1d(n)
    mat = dense_matrix(op)
    if n <= 256:
        assert isinstance(op, DenseOperator)
        assert np.array_equal(mat, toeplitz(mat[:, 0], np.zeros(n)))
        assert not np.triu(mat, 1).any()
    else:
        scale = np.max(np.abs(mat))
        assert np.max(np.abs(mat - toeplitz(_heat_column(n), np.zeros(n)))) <= FFT_TOL * scale
        assert np.max(np.abs(np.triu(mat, 1))) <= 1e-14 * scale
    assert op.matvec_count.snapshot() == (n, 0)


@pytest.mark.parametrize("bad", [[], [[1.0, 2.0], [3.0, 4.0]], 1.0, [1.0, np.nan],
                                 [np.inf, 1.0], [1.0, -np.inf]],
                         ids=["empty", "2-d", "0-d", "nan", "inf", "-inf"])
def test_lower_toeplitz_rejects_a_bad_column(bad):
    # a non-finite column used to build and fail only inside a solve
    with pytest.raises(ValueError):
        LowerToeplitzOperator(bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_forward_matrices_with_non_finite_entries_are_refused(bad):
    # such a matrix used to build and fail only inside a solve; the sparse
    # check reads the stored entries
    mat = np.diag([1.0, 2.0, 3.0, 4.0])
    mat[1, 1] = bad
    for build in (DenseOperator, lambda m: SparseOperator(sp.csr_matrix(m))):
        with pytest.raises(ValueError, match="non-finite"):
            build(mat)


THREADS_CHECK = """
import hashlib
import numpy as np
from scipy.linalg import toeplitz
from gkhyper.covariance import MaternKernel, RegularGrid, build_cov_operator
from gkhyper.problems import _heat_1d

def show(out):
    print(hashlib.sha256(out.tobytes()).hexdigest())

for n in (256, 2048):
    op = _heat_1d(n)
    x, y = np.random.default_rng(0).standard_normal((2, n))
    block = np.random.default_rng(1).standard_normal((n, 3))
    if n == 256:
        # the dense path is one BLAS matvec with the bits of the full product
        full = toeplitz(op.apply(np.eye(n)[0]), np.zeros(n))
        assert np.array_equal(op.apply(x), full @ x)
        assert np.array_equal(op.apply_adjoint(y), full.T @ y)
    for out in (op.apply(x), op.apply_adjoint(y), op.apply_block(block),
                op.apply_adjoint_block(block)):
        show(out)

# Q on the heat-estimate benchmark's grid and the shipped ray grid, at their
# configs' theta; 17 columns cross the 16-column chunk edge
for grid, kernel in ((RegularGrid((2048,), (1 / 2048,)), MaternKernel(1.5, 0.45**2, 0.185)),
                     (RegularGrid((24, 24), (1 / 24, 1 / 24)), MaternKernel(1.5, 0.8**2, 0.08))):
    q = build_cov_operator(grid, kernel)
    rng = np.random.default_rng(2)
    x, block = rng.standard_normal(grid.size), rng.standard_normal((grid.size, 17))
    for out in (q.apply(x), q.apply_block(block), *q.apply_block_with_theta3_derivative(block)):
        show(out)
"""

@functools.cache
def _apply_digests(threads):
    digests = run_at_blas_threads(THREADS_CHECK, threads)
    assert len(digests) == 16
    return digests


@pytest.mark.parametrize("threads", ["1", "2"])
def test_heat_panel_applies_keep_bits_at_each_blas_thread_count(threads):
    # the benchmark leaves BLAS threads at the CPU count: every heat apply and
    # every Q apply at a pinned count must have the bits of that default; Q
    # takes numpy.fft only, so its bits must not depend on BLAS at all
    assert _apply_digests(threads) == _apply_digests(None)
