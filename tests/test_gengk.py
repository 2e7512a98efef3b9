import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkhyper.covariance import MaternKernel, RegularGrid, build_cov_operator
from gkhyper.gengk import (
    BREAKDOWN_RTOL,
    _bidiagonal_matrix,
    gengk_bidiag,
    truncate_factorization,
    verify_relations,
)
from gkhyper.operators import DenseOperator, IdentityOperator
from gkhyper.problems import build_heat_problem, build_ray_tomo_problem


class IdentityCovariance:
    """Q = I stand-in with the covariance-operator interface."""

    def __init__(self, n):
        self.nrows = self.ncols = n

    def apply(self, x):
        return np.asarray(x, dtype=float).copy()


def random_setup(rng, m, n, theta1=0.5):
    A = DenseOperator(rng.standard_normal((m, n)))
    R = theta1
    Q = build_cov_operator(rng.uniform(0, 1, (n, 2)),
                           MaternKernel(1.5, 1.2, 0.3))
    d = rng.standard_normal(m)
    return A, R, Q, d


def test_identity_chain_breaks_down_immediately():
    # A = R = Q = I, d = e1: the Krylov space is one-dimensional
    n = 3
    A = IdentityOperator(n)
    R = 1.0
    Q = IdentityCovariance(n)
    d = np.array([1.0, 0.0, 0.0])
    fact = gengk_bidiag(A, R, Q, None, d, 3)
    assert fact.beta1 == 1.0
    assert np.allclose(fact.u_basis[:, 0], d)
    assert np.isclose(fact.alphas[0], 1.0)
    assert np.allclose(fact.v_basis[:, 0], d)
    assert fact.breakdown_at == 1
    assert fact.betas[1] <= 1e-14


def test_relations_on_random_dense_problem(rng):
    A, R, Q, d = random_setup(rng, 10, 8)
    fact = gengk_bidiag(A, R, Q, None, d, 8, reorth=True)
    res = verify_relations(fact, A, None, d)
    assert all(r < 1e-12 for r in res)


def test_orthogonality_in_weighted_inner_products(rng):
    A, R, Q, d = random_setup(rng, 12, 9)
    fact = gengk_bidiag(A, R, Q, None, d, 9)
    k = fact.k
    u = fact.u_basis
    defect_u = np.abs(u.T @ (u / R) - np.eye(k + 1))
    # a padded zero column is allowed to break orthonormality in its own slot
    if fact.breakdown_at is not None:
        defect_u = defect_u[:k, :k]
    assert defect_u.max() < 1e-10
    vk = fact.v_basis[:, :k]
    qvk = np.column_stack([Q.apply(vk[:, j]) for j in range(k)])
    assert np.abs(vk.T @ qvk - np.eye(k)).max() < 1e-10


def test_bidiagonal_assembly():
    b = _bidiagonal_matrix([2.0, 3.0, 4.0], [1.0, 5.0, 6.0])
    expected = np.array([[2.0, 0.0], [5.0, 3.0], [0.0, 6.0]])
    assert np.array_equal(b, expected)
    assert np.all(b >= 0.0)


def test_counter_contract_on_heat_problem():
    prob = build_heat_problem(n=256, noise_level=0.02, seed=0)
    R = 1e-5
    Q = build_cov_operator(prob.geometry, MaternKernel(1.5, 0.2, 0.06))
    before = prob.forward.matvec_count.snapshot()
    fact = gengk_bidiag(prob.forward, R, Q, None, prob.data, 22)
    after = prob.forward.matvec_count.snapshot()
    assert fact.breakdown_at is None
    assert after[0] - before[0] == 23  # k+1 forward
    assert after[1] - before[1] == 23  # k+1 adjoint


def _relations_per_column(fact, A, d):
    # verify_relations' residuals from the column-at-a-time applies it made
    # before it took block applies
    k, b = fact.k, fact.bidiagonal()
    r0 = d - A.apply(np.zeros(A.ncols))
    res1 = np.linalg.norm(fact.u_basis[:, 0] * fact.beta1 - r0) / max(np.linalg.norm(r0), 1e-300)
    aqv = np.column_stack([A.apply(fact.q_op.apply(fact.v_basis[:, j])) for j in range(k)])
    res2 = np.linalg.norm(aqv - fact.u_basis @ b) / max(np.linalg.norm(aqv), 1e-300)
    atru = np.column_stack([A.apply_adjoint(fact.u_basis[:, j] / fact.noise_var)
                            for j in range(k + 1)])
    rhs = fact.v_basis[:, :k] @ b.T
    rhs[:, k] += fact.alphas[k] * fact.v_basis[:, k]
    res3 = np.linalg.norm(atru - rhs) / max(np.linalg.norm(atru), 1e-300)
    return res1, res2, res3


def test_relations_bits_and_counts_match_per_column_reference(rng):
    # a tall dense A (its adjoint dgemv rounds differently on strided columns),
    # heat on a 1-d grid (Q returns stride-2 columns) and sparse rays on a 2-d grid
    heat = build_heat_problem(n=64, noise_level=0.02, seed=0)
    ray = build_ray_tomo_problem(g=8, n_rays=40, noise_level=0.02, seed=0)
    kernel = MaternKernel(1.5, 0.64, 0.1)
    cases = [random_setup(rng, 30, 20),
             (heat.forward, 1e-4,
              build_cov_operator(heat.geometry, kernel), heat.data),
             (ray.forward, 1e-4,
              build_cov_operator(ray.geometry, kernel), ray.data)]
    for A, R, Q, d in cases:
        fact = gengk_bidiag(A, R, Q, None, d, 17)
        before, q_before = A.matvec_count.snapshot(), Q.matvec_count.forward
        got = verify_relations(fact, A, None, d)
        assert (A.matvec_count.snapshot(), Q.matvec_count.forward) == (
            (before[0] + fact.k + 1, before[1] + fact.k + 1), q_before + fact.k)
        want = _relations_per_column(fact, A, d)
        assert [float(x).hex() for x in got] == [float(x).hex() for x in want]


def test_negative_control_detects_corruption(rng):
    A, R, Q, d = random_setup(rng, 10, 8)
    fact = gengk_bidiag(A, R, Q, None, d, 6)
    fact.u_basis[:, 0] = 0.0
    res = verify_relations(fact, A, None, d)
    assert res[0] > 1e-2


def test_initialization_only_edge():
    rng = np.random.default_rng(7)
    A, R, Q, d = random_setup(rng, 6, 5)
    fact = gengk_bidiag(A, R, Q, None, d, 0)
    assert fact.k == 0
    res = verify_relations(fact, A, None, d)
    assert res[0] < 1e-14


def test_rank_deficient_runs_to_breakdown(rng):
    m, n, r = 12, 10, 4
    low_rank = rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
    A = DenseOperator(low_rank)
    R = 0.8
    Q = build_cov_operator(rng.uniform(0, 1, (n, 2)), MaternKernel(1.5, 1.0, 0.4))
    # consistent data so the initialization vector lies in the range of A
    d = A.apply(rng.standard_normal(n))
    fact = gengk_bidiag(A, R, Q, None, d, 10)
    assert fact.breakdown_at is not None
    res = verify_relations(fact, A, None, d)
    assert all(x < 1e-12 for x in res)


def test_loss_of_orthogonality_without_reorth():
    prob = build_heat_problem(n=256, noise_level=0.02, seed=0)
    R = 7.7e-6
    Q = build_cov_operator(prob.geometry, MaternKernel(1.5, 0.2, 0.06))

    def u_defect(fact):
        k = fact.k
        u = fact.u_basis[:, : k + 1]
        return np.abs(u.T @ (u / R) - np.eye(k + 1)).max()

    with_reorth = gengk_bidiag(prob.forward, R, Q, None, prob.data, 50, reorth=True)
    without = gengk_bidiag(prob.forward, R, Q, None, prob.data, 50, reorth=False)
    assert u_defect(with_reorth) < 1e-10
    assert u_defect(without) > 1e-6


def test_oversized_k_rejected(rng):
    A, R, Q, d = random_setup(rng, 6, 9)
    with pytest.raises(ValueError, match="exceeds"):
        gengk_bidiag(A, R, Q, None, d, 7)


def test_truncate_factorization(rng):
    A, R, Q, d = random_setup(rng, 10, 8)
    fact = gengk_bidiag(A, R, Q, None, d, 6)
    assert truncate_factorization(fact, 6) is fact
    sub = truncate_factorization(fact, 3)
    assert sub.k == 3
    assert sub.u_basis.shape == (10, 4)
    assert np.array_equal(sub.alphas, fact.alphas[:4])
    # the truncation reads the R and the Q of fact, and takes derivative
    # products of its own: one block of its 3 columns, after the 7 Q applies
    # of the bidiagonalization
    assert sub.noise_var == fact.noise_var == R
    assert sub.q_op is fact.q_op is Q
    got = sub.dq_basis
    assert fact.cov_applies() == (7 + 3, 3)
    for block, full in zip(got, fact.dq_basis):
        # the leading columns of fact's products, bit for bit
        assert block.flags.c_contiguous and not np.shares_memory(block, full)
        assert np.array_equal(block, full[:, :3])
    assert fact.cov_applies() == (7 + 3 + 6, 3 + 6)
    res = verify_relations(sub, A, None, d)
    assert all(x < 1e-12 for x in res)
    before = A.matvec_count.snapshot(), fact.cov_applies()
    with pytest.raises(ValueError, match="must lie in"):
        truncate_factorization(fact, 7)
    assert (A.matvec_count.snapshot(), fact.cov_applies()) == before


def test_truncation_of_a_truncation_takes_its_own_products(rng):
    A, R, Q, d = random_setup(rng, 10, 8)
    fact = gengk_bidiag(A, R, Q, None, d, 6)
    sub = truncate_factorization(fact, 4)
    subsub = truncate_factorization(sub, 2)
    assert truncate_factorization(subsub, 2) is subsub
    # each first read applies Q and dQ/dtheta3 to the k columns of its own
    # V_k, and a second read applies nothing
    taken = []
    for part in (subsub, sub, fact):
        before = part.cov_applies()
        first = part.dq_basis
        assert part.dq_basis is first
        taken.append(tuple(np.subtract(part.cov_applies(), before)))
    assert taken == [(2, 2), (4, 4), (6, 6)]
    assert (Q.matvec_count.forward, Q.dq_count) == (7 + 12, 12)
    for k, part in ((2, subsub), (4, sub)):
        for block, full in zip(part.dq_basis, fact.dq_basis):
            assert np.array_equal(block, full[:, :k])


def test_dropped_q_is_freed_by_reference_counting(rng):
    # nothing Q applies or caches refers back to it, so a dropped Q (and a
    # dropped factorization with it) is freed without the cycle collector
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for geometry in (RegularGrid((6, 6), (0.2, 0.2)), rng.uniform(0, 1, (36, 2))):
            q = build_cov_operator(geometry, MaternKernel(1.5, 1.2, 0.3))
            q.apply_block_with_theta3_derivative(rng.standard_normal((36, 5)))
            ref = weakref.ref(q)
            del q
            assert ref() is None

            A, R, _, d = random_setup(rng, 10, 36)
            Q = build_cov_operator(geometry, MaternKernel(1.5, 1.2, 0.3))
            fact = gengk_bidiag(A, R, Q, None, d, 6)
            truncate_factorization(fact, 3).dq_basis
            fact.dq_basis
            refs = (weakref.ref(Q), weakref.ref(fact))
            del Q, fact
            assert all(ref() is None for ref in refs)
    finally:
        if was_enabled:
            gc.enable()


def test_zero_residual_data(rng):
    # d = A mu: the initialization norm vanishes and the factorization is empty
    A, R, Q, d = random_setup(rng, 6, 5)
    mu = rng.standard_normal(5)
    fact = gengk_bidiag(A, R, Q, mu, A.apply(mu), 3)
    assert fact.k == 0
    assert fact.beta1 == 0.0
    assert fact.breakdown_at == 0
    for basis, rows in ((fact.u_basis, 6), (fact.v_basis, 5), (fact.qv_basis, 5)):
        assert basis.shape == (rows, 1)
        assert basis.flags.c_contiguous
        assert not basis.any()


BAD_DATA = {
    # a scalar or a length-1 vector broadcast against A mu and ran the
    # iteration; a NaN was refused only after the first forward apply
    "scalar": lambda d: 1.0,
    "length-1": lambda d: d[:1],
    "column": lambda d: d[:, None],
    "short": lambda d: d[:-1],
    "nan": lambda d: np.where(np.arange(d.shape[0]) == 2, np.nan, d),
    "inf": lambda d: np.where(np.arange(d.shape[0]) == 2, np.inf, d),
}


@pytest.mark.parametrize("bad", sorted(BAD_DATA))
def test_data_that_is_not_a_finite_m_vector_is_refused_before_any_apply(rng, bad):
    A, R, Q, d = random_setup(rng, 6, 5)
    fact = gengk_bidiag(A, R, Q, None, d, 3)
    A.matvec_count.reset()
    before = fact.cov_applies()
    with pytest.raises(ValueError, match="data"):
        gengk_bidiag(A, R, Q, None, BAD_DATA[bad](d), 3)
    with pytest.raises(ValueError, match="data"):
        verify_relations(fact, A, None, BAD_DATA[bad](d))
    assert A.matvec_count.snapshot() == (0, 0)
    assert fact.cov_applies() == before


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31), m=st.integers(3, 10), n=st.integers(3, 10))
def test_coefficients_nonnegative(seed, m, n):
    rng = np.random.default_rng(seed)
    A, R, Q, d = random_setup(rng, m, n)
    fact = gengk_bidiag(A, R, Q, None, d, min(m, n) // 2)
    assert np.all(fact.alphas >= 0.0)
    assert np.all(fact.betas >= 0.0)


def _stacked_bidiag(A, R, Q, d, k, reorth):
    """Reference loop that rebuilds each basis from a list of columns per step.

    The bits of gengk_bidiag on its preallocated bases must match this one.
    """
    m, n = A.shape
    r0 = d - A.apply(np.zeros(n))
    beta1 = float(np.sqrt(max((r0 / R) @ r0, 0.0)))
    tol = BREAKDOWN_RTOL * beta1
    us, alphas, betas = [r0 / beta1], [], [beta1]
    w = A.apply_adjoint(us[0] / R)
    qw = Q.apply(w)
    alpha = float(np.sqrt(max(qw @ w, 0.0)))
    vs, qvs = [w / alpha], [qw / alpha]
    alphas.append(alpha)
    breakdown = None

    def orth(w, cols, weighted):
        for _ in range(2):
            w = w - cols @ (weighted.T @ w)
        return w

    for j in range(1, k + 1):
        w = A.apply(qvs[-1]) - alphas[-1] * us[-1]
        if reorth:
            u_cols = np.column_stack(us)
            w = orth(w, u_cols, u_cols / R)
        beta = float(np.sqrt(max((w / R) @ w, 0.0)))
        if beta <= tol:
            breakdown = j
            betas.append(beta)
            alphas.append(0.0)
            us.append(np.zeros(m))
            vs.append(np.zeros(n))
            qvs.append(np.zeros(n))
            break
        us.append(w / beta)
        betas.append(beta)
        g = A.apply_adjoint(us[-1] / R) - beta * vs[-1]
        if reorth:
            g = orth(g, np.column_stack(vs), np.column_stack(qvs))
        qg = Q.apply(g)
        alpha = float(np.sqrt(max(qg @ g, 0.0)))
        if alpha <= tol:
            breakdown = j
            alphas.append(alpha)
            vs.append(np.zeros(n))
            qvs.append(np.zeros(n))
            break
        vs.append(g / alpha)
        qvs.append(qg / alpha)
        alphas.append(alpha)
    return (np.column_stack(us), np.column_stack(vs), np.column_stack(qvs),
            np.asarray(alphas), np.asarray(betas), breakdown)


def _bit_identity_problems():
    heat = build_heat_problem(n=64, noise_level=0.02, seed=0)
    ray = build_ray_tomo_problem(g=8, n_rays=40, noise_level=0.02, seed=0,
                                 prior_std=0.8, ell=0.08)
    return [(heat, (1e-5, 0.4, 0.1)), (ray, (1e-4, 0.8, 0.08))]


@pytest.mark.parametrize("reorth", [True, False])
def test_bits_match_stacked_reference(reorth):
    # dense heat and sparse ray operators, short runs and a run to k = min(m, n),
    # which breaks down when the bases are kept orthogonal
    for prob, theta in _bit_identity_problems():
        m, n = prob.forward.shape
        R = theta[0]
        Q = build_cov_operator(prob.geometry, MaternKernel(1.5, theta[1], theta[2]))
        for k in (0, 1, 2, 3, 4, 5, min(m, n)):
            fact = gengk_bidiag(prob.forward, R, Q, None, prob.data, k, reorth=reorth)
            u, v, qv, alphas, betas, breakdown = _stacked_bidiag(
                prob.forward, R, Q, prob.data, k, reorth)
            assert fact.breakdown_at == breakdown
            if k == min(m, n) and reorth:
                assert breakdown is not None
            assert fact.k == len(alphas) - 1
            assert np.array_equal(fact.alphas, alphas)
            assert np.array_equal(fact.betas, betas)
            for got, want in ((fact.u_basis, u), (fact.v_basis, v), (fact.qv_basis, qv)):
                assert got.shape == want.shape == (want.shape[0], fact.k + 1)
                assert got.flags.c_contiguous
                assert np.array_equal(got, want)
