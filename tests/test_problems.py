import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from conftest import run_at_blas_threads
from gkhyper import problems
from gkhyper.covariance import MaternKernel, RegularGrid, matern_eval
from gkhyper.operators import dense_matrix
from gkhyper.problems import (
    _add_noise,
    _heat_1d,
    _heat_true_signal,
    _smooth_phantom,
    build_heat_problem,
    build_ray_tomo_problem,
    ray_tomo_2d,
    relative_error,
)


# --- 1-d inverse heat


def heat_kernel_value(gap: float, kappa: float = 1.0) -> float:
    """Causal heat kernel value at time gap t - s > 0 (reference for _heat_1d).

    k(t - s) = (4 pi kappa^2)^{-1/2} (t - s)^{-3/2} exp(-1 / (4 kappa^2 (t-s))).
    """
    if gap <= 0:
        raise ValueError("the heat kernel is causal; gap must be positive")
    return gap ** (-1.5) * math.exp(-1.0 / (4.0 * kappa**2 * gap)) / math.sqrt(
        4.0 * math.pi * kappa**2
    )


def test_heat_operator_causality():
    n = 32
    op = _heat_1d(n)
    e_last = np.zeros(n)
    e_last[-1] = 1.0
    out = op.apply(e_last)
    assert out[-1] > 0
    assert np.all(out[:-1] == 0.0)


def test_heat_operator_lower_triangular():
    mat = dense_matrix(_heat_1d(96))
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
    op = _heat_1d(n, kappa)
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
    entry = dense_matrix(_heat_1d(n))[i, j]
    assert abs(entry - oracle) <= 1e-4 * abs(oracle)


def test_heat_singular_values_decay():
    s = np.linalg.svd(dense_matrix(_heat_1d(64)), compute_uv=False)
    assert np.all(np.diff(s) <= 0)
    assert s[-1] / s[0] < 1e-10  # severely ill-posed


def test_heat_kappa_controls_conditioning():
    s1 = np.linalg.svd(dense_matrix(_heat_1d(48, kappa=1.0)), compute_uv=False)
    s5 = np.linalg.svd(dense_matrix(_heat_1d(48, kappa=5.0)), compute_uv=False)
    assert s5[-1] / s5[0] > s1[-1] / s1[0]


def test_heat_validation():
    with pytest.raises(ValueError):
        _heat_1d(1)
    with pytest.raises(ValueError):
        _heat_1d(16, kappa=0.0)
    with pytest.raises(ValueError):
        heat_kernel_value(0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_kappa_and_noise_level_must_be_finite(bad):
    # each builder refuses the value by its own rule, not a later operator's
    with pytest.raises(ValueError, match="kappa must be finite"):
        _heat_1d(64, kappa=bad)
    with pytest.raises(ValueError, match="noise level must be finite"):
        _add_noise(np.ones(5), bad, seed=0)


def test_kappa_whose_normaliser_overflows_is_refused_before_any_build(monkeypatch):
    # kappa^2 is finite at 1e154 but 4 pi kappa^2 is not, which used to zero
    # every entry; at 1e100 the entries are tiny but not zero
    def no_build(*args):
        raise AssertionError("an operator was built")

    with monkeypatch.context() as patch:
        for name in ("DenseOperator", "LowerToeplitzOperator"):
            patch.setattr(problems, name, no_build)
        for n in (64, 512):
            with pytest.raises(ValueError, match="kappa"):
                _heat_1d(n, kappa=1e154)
    for n in (64, 512):
        assert np.max(np.abs(dense_matrix(_heat_1d(n, kappa=1e100)))) > 0.0


# --- ray tomography


def traced_row(g, p0, p1):
    """The chord p0 -> p1 traced by problems._trace as a batch of one: the
    cells whose piece is longer than 1e-14, those pieces, and the summed
    length of every piece inside the square."""
    _, flat, lengths = problems._trace(g, np.array([p0], dtype=float),
                                       np.array([p1], dtype=float))
    keep = lengths > 1e-14
    return flat[keep], lengths[keep], float(lengths.sum())


def test_axis_aligned_ray_row():
    g = 8
    y = (3 + 0.5) / g  # through the middle of grid row 3
    idx, lengths, total = traced_row(g, (0.0, y), (1.0, y))
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
    idx, lengths, total = traced_row(6, (0.0, 0.0), (1.0, 1.0))
    assert np.isclose(total, math.sqrt(2.0))
    assert np.isclose(lengths.sum(), math.sqrt(2.0))


def test_ray_tomo_paper_scale_shape():
    op = ray_tomo_2d(64, 1440, seed=0)
    assert op.shape == (1440, 4096)


def test_ray_tomo_validation():
    with pytest.raises(ValueError, match="grid size"):
        ray_tomo_2d(2, 10)
    with pytest.raises(ValueError, match="n_rays"):
        ray_tomo_2d(8, 0)


@pytest.mark.parametrize("g", [0, -1, 2.5, True])
def test_ray_row_rejects_a_bad_grid_size_before_tracing(g, monkeypatch):
    # every bad size is refused before any chord is traced; in a one-chord
    # tracer, g = 0 gave cell index -1 and g = 2.5 fractional indices
    def no_trace(*args):
        raise AssertionError("a ray was traced for a rejected grid size")

    monkeypatch.setattr(problems, "_trace", no_trace)
    with pytest.raises(ValueError, match="grid size"):
        ray_tomo_2d(g, 10)


def reference_ray_row(g, p0, p1):
    """The per-ray tracer the batch tracer replaced, kept as its bit reference."""
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    direction = p1 - p0
    total = float(np.linalg.norm(direction))
    if total == 0.0:
        return np.zeros(0, dtype=int), np.zeros(0), 0.0
    ts = [0.0, 1.0]
    for axis in range(2):
        if direction[axis] != 0.0:
            crossings = (np.arange(g + 1) / g - p0[axis]) / direction[axis]
            ts.extend(crossings[(crossings > 0.0) & (crossings < 1.0)])
    ts = np.unique(np.asarray(ts))
    mids = 0.5 * (ts[:-1] + ts[1:])
    seg_len = np.diff(ts) * total
    pts = p0[None, :] + mids[:, None] * direction[None, :]
    inside = np.all((pts >= 0.0) & (pts <= 1.0), axis=1)
    pts, seg_len = pts[inside], seg_len[inside]
    ix = np.clip((pts[:, 0] * g).astype(int), 0, g - 1)
    iy = np.clip((pts[:, 1] * g).astype(int), 0, g - 1)
    flat = iy * g + ix
    keep = seg_len > 1e-14
    return flat[keep], seg_len[keep], float(seg_len.sum())


def reference_ray_tomo_csr(g, n_rays, seed):
    """The per-ray loop ray_tomo_2d replaced: its CSR matrix and attempts made."""
    rng = np.random.default_rng(seed)
    rows, cols, vals = [], [], []
    count = attempts = 0
    while count < n_rays:
        attempts += 1
        sides = rng.choice(4, size=2, replace=False)
        pts = []
        for side in sides:
            t = rng.uniform(0.0, 1.0)
            pts.append({0: (t, 0.0), 1: (t, 1.0), 2: (0.0, t), 3: (1.0, t)}[side])
        idx, lengths, total = reference_ray_row(g, pts[0], pts[1])
        if total < 1e-3 or idx.size == 0:
            continue
        rows.extend([count] * idx.size)
        cols.extend(idx.tolist())
        vals.extend(lengths.tolist())
        count += 1
    mat = sp.coo_matrix((vals, (rows, cols)), shape=(n_rays, g * g)).tocsr()
    return mat, attempts


def assert_same_csr(op, ref):
    mat = op._mat
    assert mat.shape == ref.shape
    for name in ("data", "indices", "indptr"):
        got, want = getattr(mat, name), getattr(ref, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name


def _seed(spec):
    # ("spawn", s) is the child build_ray_tomo_problem passes for the rays
    return np.random.SeedSequence(spec[1]).spawn(3)[0] if isinstance(spec, tuple) else spec


@pytest.mark.parametrize("g, n_rays, seed", [
    (4, 1, 0), (4, 50, 1), (8, 7, 2), (8, 300, ("spawn", 0)), (16, 40, 11),
    (16, 1100, 5), (24, 360, ("spawn", 0)), (24, 360, 7), (32, 360, ("spawn", 1)),
    (32, 100, 3), (64, 1440, 0), (64, 200, ("spawn", 2)),
])
def test_ray_tomo_matches_per_ray_loop_bit_for_bit(g, n_rays, seed):
    ref, _ = reference_ray_tomo_csr(g, n_rays, _seed(seed))
    assert_same_csr(ray_tomo_2d(g, n_rays, seed=_seed(seed)), ref)


class _CornerHuggingGenerator(np.random.Generator):
    """Draws the same stream, but puts two of every three chords at a corner:
    both ends at 0.0 (a zero-length chord when the sides are 0 and 2) or
    within 1.5e-3 of it (chords on both sides of the 1e-3 rejection length)."""

    def __init__(self, seed):
        super().__init__(np.random.PCG64(seed))
        self.calls = 0

    def uniform(self, *args, **kwargs):
        t = super().uniform(*args, **kwargs)
        mode = (self.calls // 2) % 3
        self.calls += 1
        return 0.0 if mode == 0 else 1.5e-3 * t if mode == 1 else t


@pytest.mark.parametrize("batch", [1, 5, 1024])
def test_rejected_chords_are_redrawn_as_the_per_ray_loop_did(monkeypatch, batch):
    monkeypatch.setattr(problems, "RAY_BATCH", batch)
    g, n_rays = 8, 200
    ref, attempts = reference_ray_tomo_csr(g, n_rays, _CornerHuggingGenerator(5))
    assert attempts > n_rays + 5  # the rejection path ran
    assert np.asarray(ref.sum(axis=1)).min() < 1.5e-3  # and accepted chords near it
    assert_same_csr(ray_tomo_2d(g, n_rays, seed=_CornerHuggingGenerator(5)), ref)


@pytest.mark.parametrize("g, p0, p1", [
    (8, (0.0, 3.5 / 8), (1.0, 3.5 / 8)),  # axis-aligned, through a row
    (8, (0.3, 1.0), (0.3, 0.0)),  # axis-aligned, downwards
    (8, (0.0, 3 / 8), (1.0, 3 / 8)),  # on a horizontal grid line
    (4, (0.25, 0.0), (0.25, 1.0)),  # on a vertical grid line
    (6, (0.0, 0.0), (1.0, 1.0)),  # diagonal: x and y crossings coincide
    (7, (1.0, 0.0), (0.0, 1.0)),  # anti-diagonal
    (8, (4e-4, 0.0), (0.0, 5e-4)),  # shorter than 1e-3, at a corner
    (8, (0.3, 0.3), (0.3, 0.3)),  # zero length
    (8, (0.0, 0.0), (0.0, 0.0)),  # zero length at a corner
    (5, (-0.5, 0.2), (1.5, 0.7)),  # partly outside the square
    (16, (0.13, 0.0), (0.91, 1.0)),
    (1, (0.0, 0.3), (1.0, 0.8)),  # one cell
])
def test_ray_row_matches_per_ray_reference(g, p0, p1):
    got, want = traced_row(g, p0, p1), reference_ray_row(g, p0, p1)
    for a, b in zip(got[:2], want[:2]):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)
    assert float.hex(got[2]) == float.hex(want[2])


def test_chord_lengths_match_linalg_norm_bit_for_bit():
    rng = np.random.default_rng(5)
    direction = rng.uniform(-1.0, 1.0, (20000, 2))
    direction[:100, 0] = 0.0
    direction[100:200] = np.round(direction[100:200], 3)
    want = np.array([np.linalg.norm(d) for d in direction])
    assert np.array_equal(problems._chord_lengths(direction), want)


# --- phantoms


def reference_lag_distance_matrix(grid):
    """Pairwise node distances from integer lags and the spacing, n x n."""
    idx = np.indices(grid.shape).reshape(grid.ndim, -1).T
    d2 = np.zeros((grid.size, grid.size))
    for axis in range(grid.ndim):
        lag = (idx[:, axis][:, None] - idx[:, axis][None, :]) * grid.spacing[axis]
        d2 += lag * lag
    return np.sqrt(d2)


@pytest.mark.parametrize("nu", [0.5, 1.5, 2.5, 1.2])
@pytest.mark.parametrize("grid", [
    RegularGrid((17,), (1 / 17,)), RegularGrid((1,), (1.0,)), RegularGrid((5, 7), (0.2, 1 / 7)),
    RegularGrid((20, 20), (0.05, 0.05)), RegularGrid((24, 24), (1 / 24, 1 / 24)),
])
def test_phantom_covariance_matches_lag_distance_matrix_bit_for_bit(grid, nu):
    kernel = MaternKernel(nu, 0.64, 0.08)
    want = matern_eval(kernel, reference_lag_distance_matrix(grid))
    got = problems._grid_covariance(grid, kernel)
    assert got.shape == want.shape
    assert np.array_equal(got, want)


def test_phantom_covariance_statistic(rng):
    # Monte Carlo covariance oracle at a fixed pair of nearby points
    grid = RegularGrid((10, 10), (0.1, 0.1))
    kernel = MaternKernel(1.5, 1.0, 0.25)
    i, j = 44, 45  # horizontally adjacent, distance 0.1
    n_draws = 500
    draws = np.array([
        _smooth_phantom(grid, kernel, seed=s) for s in range(n_draws)
    ])
    sample_cov = np.mean(draws[:, i] * draws[:, j])
    target = matern_eval(kernel, 0.1)
    qii = matern_eval(kernel, 0.0)
    # var of the product-moment estimate for a bivariate gaussian
    sigma = math.sqrt((qii * qii + target * target) / n_draws)
    assert abs(sample_cov - target) <= 3.0 * sigma


# --- noise and error metrics


def test_add_noise_zero_level(rng):
    d = rng.standard_normal(9)
    noisy, eta = _add_noise(d, 0.0, seed=4)
    assert np.array_equal(noisy, d)
    assert not eta.any()


def test_add_noise_norm_identity(rng):
    d = rng.standard_normal(50)
    noisy, eta = _add_noise(d, 0.02, seed=4)
    assert abs(np.linalg.norm(eta) - 0.02 * np.linalg.norm(d)) <= 1e-14
    assert np.allclose(noisy, d + eta)


def test_add_noise_seeds_differ(rng):
    d = rng.standard_normal(30)
    _, eta1 = _add_noise(d, 0.05, seed=1)
    _, eta2 = _add_noise(d, 0.05, seed=2)
    assert not np.allclose(eta1, eta2)
    assert np.isclose(np.linalg.norm(eta1), np.linalg.norm(eta2))


def test_add_noise_zero_data_rejected():
    with pytest.raises(ValueError, match="undefined"):
        _add_noise(np.zeros(5), 0.1, seed=0)


HEAT_DATA_SHA = """
import hashlib
from gkhyper.problems import _THREADED_DOT_MIN, build_heat_problem
for n in (_THREADED_DOT_MIN, 16384):
    print(hashlib.sha256(build_heat_problem(n=n).data.tobytes()).hexdigest())
"""


def test_heat_data_keep_bits_at_each_blas_thread_count():
    # above _THREADED_DOT_MIN _add_noise takes its two norms on the calling
    # thread, where OpenBLAS ddot would split each sum across its threads (at
    # n = 16384 the data followed the thread count); at the limit it needs not
    assert run_at_blas_threads(HEAT_DATA_SHA, "1") == run_at_blas_threads(HEAT_DATA_SHA, "2")


def test_relative_error_values(rng):
    s = rng.standard_normal(12)
    assert relative_error(s, s) == 0.0
    assert np.isclose(relative_error(s, np.zeros(12)), 1.0)
    assert np.isclose(relative_error(s, 2 * s), 1.0)
    with pytest.raises(ValueError):
        relative_error(np.zeros(3), np.ones(3))


def test_relative_error_rejects_mismatched_shapes():
    # a (4,) against a (4, 1) used to broadcast to a 4 x 4 difference
    for s_hat in (0.5 * np.ones((4, 1)), np.ones(3), np.ones((1, 4))):
        with pytest.raises(ValueError, match="shapes"):
            relative_error(np.ones(4), s_hat)
    assert relative_error(np.ones(4), 0.5 * np.ones(4)) == 0.5


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
    assert _heat_true_signal(128).max() <= 1.0


@pytest.mark.parametrize("n", [2.5, True, -1, 0])
def test_heat_problem_rejects_a_bad_count(monkeypatch, n):
    # _heat_1d's count rule refuses n before any operator, signal or noise is made
    def built(*args, **kwargs):
        raise AssertionError("built before the count was checked")

    for name in ("DenseOperator", "LowerToeplitzOperator", "_heat_true_signal", "_add_noise"):
        monkeypatch.setattr(problems, name, built)
    with pytest.raises(ValueError, match="n must be an integer of at least 2") as excinfo:
        build_heat_problem(n)
    assert "_heat_1d" in [entry.name for entry in excinfo.traceback]


def test_heat_true_signal_at_one_and_two_points():
    # midpoints 1/2 (t = 2, outside the hump), then 1/4 and 3/4 (t = 1 and 3)
    assert np.array_equal(_heat_true_signal(1), [0.0])
    assert np.array_equal(_heat_true_signal(2), [0.75, 0.0])


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


def _disk(g):
    centres = (np.arange(g) + 0.5) / g - 0.5
    return np.flatnonzero(np.hypot(*np.meshgrid(centres, centres, indexing="ij")).ravel() < 0.5)


MASKS = {
    "sorted": lambda g: np.arange(3, g * g, 3),
    "permuted": lambda g: np.random.default_rng(4).permutation(g * g)[: g * g // 2],
    "disk": _disk,
}


@pytest.mark.parametrize("g", [8, 16])
@pytest.mark.parametrize("mask", sorted(MASKS))
def test_masked_ray_problem_restricts_the_full_problem(g, mask, rng):
    # the masked operator is the full one applied to zero-extended vectors,
    # with its adjoint restricted, bit for bit, vector and block
    keep = MASKS[mask](g)
    full = build_ray_tomo_problem(g=g, n_rays=6 * g, noise_level=0.02, seed=3, ell=0.1)
    prob = build_ray_tomo_problem(g=g, n_rays=6 * g, noise_level=0.02, seed=3, ell=0.1,
                                  mask=keep)
    op, full_op = prob.forward, full.forward
    assert op.shape == (6 * g, keep.size)

    def extend(x):
        out = np.zeros((g * g,) + x.shape[1:])
        out[keep] = x
        return out

    x, y = rng.standard_normal(keep.size), rng.standard_normal(6 * g)
    xs, ys = rng.standard_normal((keep.size, 17)), rng.standard_normal((6 * g, 17))
    assert np.array_equal(op.apply(x), full_op.apply(extend(x)))
    assert np.array_equal(op.apply_adjoint(y), full_op.apply_adjoint(y)[keep])
    assert np.array_equal(op.apply_block(xs), full_op.apply_block(extend(xs)))
    assert np.array_equal(op.apply_adjoint_block(ys), full_op.apply_adjoint_block(ys)[keep])
    assert np.array_equal(dense_matrix(op), dense_matrix(full_op)[:, keep])

    assert np.array_equal(prob.s_true, full.s_true[keep])
    assert np.array_equal(prob.geometry, full.geometry.points()[keep])
    assert np.array_equal(prob.d_clean, full_op.apply(extend(prob.s_true)))
    assert abs(np.linalg.norm(prob.noise) - 0.02 * np.linalg.norm(prob.d_clean)) <= 1e-12


@pytest.mark.parametrize("mask", [[], [[0, 1], [2, 3]], [5, 1, 5], [0, 64], [-1, 3],
                                  [0.7, 1.9, 2.2, 10.99], [True, False], ["1", "2"]])
def test_bad_mask_is_rejected_before_any_ray_is_traced(mask, monkeypatch):
    def no_trace(*args):
        raise AssertionError("a ray was traced for a rejected mask")

    monkeypatch.setattr(problems, "_trace", no_trace)
    with pytest.raises(ValueError, match="mask"):
        build_ray_tomo_problem(g=8, n_rays=30, seed=3, mask=mask)
