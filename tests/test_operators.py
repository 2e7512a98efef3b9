import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkhyper.operators import (
    DenseOperator,
    IdentityOperator,
    MaskedOperator,
    NoiseCovariance,
    dense_matrix,
)


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


def test_masked_operator_against_dense_mask(rng):
    # dense mask oracle: zero-extension matrix built explicitly
    inner_mat = rng.standard_normal((5, 4))
    keep = np.array([0, 2])  # retain components 1 and 3 (1-based)
    extend = np.zeros((4, 2))
    extend[keep, [0, 1]] = 1.0
    reference = inner_mat @ extend

    masked = MaskedOperator(DenseOperator(inner_mat), keep)
    assert masked.shape == (5, 2)
    x = rng.standard_normal(2)
    assert np.allclose(masked.apply(x), reference @ x, rtol=0, atol=1e-14)
    y = rng.standard_normal(5)
    assert np.allclose(masked.apply_adjoint(y), reference.T @ y, rtol=0, atol=1e-14)
    # adjoint of the inner operator zero-fills the dropped positions
    full_adj = inner_mat.T @ y
    assert np.allclose(masked.apply_adjoint(y), full_adj[keep])


def test_masked_operator_counts_route_through_inner(rng):
    inner = DenseOperator(rng.standard_normal((3, 4)))
    masked = MaskedOperator(inner, [1, 2])
    masked.apply(np.ones(2))
    masked.apply_adjoint(np.ones(3))
    # composite and constituent counters agree
    assert masked.matvec_count.snapshot() == (1, 1)
    assert inner.matvec_count.snapshot() == (1, 1)


def test_masked_operator_validation(rng):
    inner = DenseOperator(rng.standard_normal((3, 4)))
    with pytest.raises(ValueError):
        MaskedOperator(inner, [])
    with pytest.raises(ValueError):
        MaskedOperator(inner, [0, 0])
    with pytest.raises(ValueError):
        MaskedOperator(inner, [4])


def test_noise_covariance_closed_forms():
    r = NoiseCovariance(1.0, 5)
    assert r.logdet() == 0.0
    r2 = NoiseCovariance(0.25, 4)
    assert np.isclose(r2.logdet(), 4 * np.log(0.25), rtol=1e-15)
    x = np.arange(4.0)
    assert np.allclose(NoiseCovariance(0.5, 4).apply_inv(x), 2.0 * x)
    assert np.allclose(NoiseCovariance(4.0, 4).inv_sqrt_apply(x), 0.5 * x)


def test_noise_covariance_domain_errors():
    with pytest.raises(ValueError, match="positive"):
        NoiseCovariance(0.0, 3)
    with pytest.raises(ValueError, match="positive"):
        NoiseCovariance(-1.0, 3)


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
