"""Built-in synthetic test problems and data generation.

Ships a 1-d inverse heat (Volterra first kind) operator, a 2-d random-ray
tomography operator, smooth random phantoms from the eigenexpansion of a
Matern covariance, and the norm-calibrated additive noise procedure. A
masked ray problem (a land-mask stand-in) is the full one restricted to the
mask's pixels: columns of the ray matrix, phantom entries and pixel centres.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import toeplitz

from .covariance import MaternKernel, RegularGrid, matern_eval
from .estimate import _blas_on_calling_thread
from .operators import (DenseOperator, LinearOperatorHandle, LowerToeplitzOperator,
                        SparseOperator, _check_count, _check_scale)

__all__ = [
    "ProblemInstance",
    "heat_1d",
    "heat_true_signal",
    "ray_tomo_2d",
    "ray_row",
    "smooth_phantom",
    "add_noise",
    "relative_error",
    "build_heat_problem",
    "build_ray_tomo_problem",
]

PHANTOM_DENSE_CAP = 4096

# the largest n whose heat operator is the dense matrix: one forward plus one
# adjoint dense matvec took 33 us at n = 256 against 41 us for the FFT, and
# 161 us at n = 512 against 56 us (2-CPU x86, 2 BLAS threads)
_HEAT_DENSE_MAX = 256

# OpenBLAS ddot splits a sum across its threads only above this many entries
_THREADED_DOT_MIN = 10_000


@dataclass
class ProblemInstance:
    """A forward operator with ground truth, clean data and noisy data."""

    forward: LinearOperatorHandle
    s_true: np.ndarray
    d_clean: np.ndarray
    data: np.ndarray
    noise: np.ndarray
    noise_level: float
    geometry: object
    seed: int | None


def heat_1d(n: int, kappa: float = 1.0) -> LinearOperatorHandle:
    """Midpoint-quadrature Volterra operator for 1-d inverse heat conduction.

    Output nodes sit at cell right edges t_i = i/n and the integrand is
    sampled at cell midpoints, so entry (i, j) is h * k((i - j + 1/2) h) for
    j <= i and zero above the diagonal: the operator is exactly lower
    triangular and every kernel evaluation happens at a strictly positive gap.
    The kernel is k(t) = (4 pi kappa^2)^{-1/2} t^{-3/2} exp(-1 / (4 kappa^2 t));
    kappa = 1 is severely ill-posed, kappa = 5 essentially well-posed.

    The size picks the kernel, at the measured crossover ``_HEAT_DENSE_MAX``
    = 256. Up to n = 256 the result is a DenseOperator of the lower-triangular
    Toeplitz matrix, applied by one matvec per column with the bits of the
    dense product. Above that it is a LowerToeplitzOperator of the first
    column, which holds O(n) numbers and applies a circulant convolution of
    length at least 2n in O(n log n) time, within round-off of the dense
    product (about 1e-15 relative, not bit for bit), so n = 65536 fits in
    memory.
    """
    n = _check_count(n, "n", 2)
    _check_scale(kappa, "kappa")
    h = 1.0 / n
    gaps = (np.arange(n) + 0.5) * h
    column = h * gaps ** (-1.5) * np.exp(-1.0 / (4.0 * kappa**2 * gaps)) / math.sqrt(
        4.0 * math.pi * kappa**2
    )
    if n <= _HEAT_DENSE_MAX:
        return DenseOperator(toeplitz(column, np.zeros(n)))
    return LowerToeplitzOperator(column)


def heat_true_signal(n: int) -> np.ndarray:
    """Default 1-d phantom: quadratic rise and parabolic hump on the first
    half of the domain, zero afterwards (peak value 1, one jump).

    Sampled at the quadrature midpoints. The jump keeps the reconstruction
    problem honest for smooth priors. n must be a positive integer, else
    ValueError.
    """
    n = _check_count(n, "n", 1)
    s = (np.arange(n) + 0.5) / n
    t = 4.0 * s
    x = np.zeros(n)
    rising = t < 1.0
    x[rising] = 0.75 * t[rising] ** 2
    hump = (t >= 1.0) & (t < 2.0)
    x[hump] = 0.75 + (t[hump] - 1.0) * (2.0 - t[hump])
    return x


# rays traced in one batch: the tracer's temporaries take about ten rows of
# 2g + 4 floats per ray
RAY_BATCH = 1024


def _chord_lengths(direction: np.ndarray) -> np.ndarray:
    """Euclidean length of each row of a (b, 2) array, bit for bit np.linalg.norm.

    The norm of one row takes its square through BLAS ``ddot``, which may fuse
    the multiply-add; a (1, 2) @ (2, 1) matmul per row makes the same call.
    """
    return np.sqrt(np.matmul(direction[:, None, :], direction[:, :, None])[:, 0, 0])


def _trace(g: int, p0: np.ndarray, p1: np.ndarray):
    """Segments of the chords p0[r] -> p1[r] ((b, 2) arrays) on a g x g grid.

    Each chord is split at its parametric crossing times with every grid line
    strictly between its ends; times are merged only where exactly equal. A
    segment is kept when its midpoint lies in the closed unit square. Returns
    (ray, flat, lengths): the chord index, the row-major cell index (x
    fastest) and the length of every kept segment, chord by chord, in order
    along each chord.
    """
    direction = p1 - p0
    total = _chord_lengths(direction)
    b = len(p0)
    with np.errstate(divide="ignore", invalid="ignore"):
        # a zero direction gives no finite crossing, so none is kept
        cross = (np.arange(g + 1) / g - p0[:, :, None]) / direction[:, :, None]
    # a discarded crossing becomes a copy of the end time 1, merged away below
    ts = np.concatenate(
        [np.zeros((b, 1)), np.ones((b, 1)),
         np.where((cross > 0.0) & (cross < 1.0), cross, 1.0).reshape(b, -1)], axis=1)
    ts.sort(axis=1)
    # each new distinct time closes the segment that opened at the one before
    new = ts[:, 1:] != ts[:, :-1]
    ray = np.nonzero(new)[0]
    start, stop = ts[:, :-1][new], ts[:, 1:][new]
    mids = 0.5 * (start + stop)
    lengths = (stop - start) * total[ray]
    x = p0[ray, 0] + mids * direction[ray, 0]
    y = p0[ray, 1] + mids * direction[ray, 1]
    inside = (x >= 0.0) & (x <= 1.0) & (y >= 0.0) & (y <= 1.0)
    x, y = x[inside], y[inside]
    ix = np.clip((x * g).astype(int), 0, g - 1)
    iy = np.clip((y * g).astype(int), 0, g - 1)
    return ray[inside], iy * g + ix, lengths[inside]


def ray_row(g: int, p0, p1) -> tuple[np.ndarray, np.ndarray, float]:
    """Cell indices and intersection lengths of the segment p0 -> p1 on a g x g grid.

    The unit square is split into g x g cells of width 1/g; cells are indexed
    row-major with x fastest. The segment is traced as a batch of one chord
    by the tracer ``ray_tomo_2d`` uses. Returns (flat_indices, lengths,
    total_length): cells whose piece is longer than 1e-14, and the summed
    length of every piece inside the square (0.0 for a zero-length segment).
    g must be a positive integer, or ValueError is raised before any tracing.
    """
    g = _check_count(g, "the grid size g", 1)
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    _, flat, lengths = _trace(g, p0[None, :], p1[None, :])
    keep = lengths > 1e-14
    return flat[keep], lengths[keep], float(lengths.sum())


def _random_chords(rng: np.random.Generator, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Endpoints of `count` random chords, each on two distinct sides of the square.

    Drawn one chord at a time, two sides and then one uniform position per
    side: ``Generator.choice`` takes a data-dependent number of raw bits, so
    only this order keeps the stream of every later draw.
    """
    sides = np.empty((count, 2), dtype=int)
    where = np.empty((count, 2))
    for r in range(count):
        sides[r] = rng.choice(4, size=2, replace=False)
        where[r, 0] = rng.uniform(0.0, 1.0)
        where[r, 1] = rng.uniform(0.0, 1.0)
    # side 0: (t, 0), 1: (t, 1), 2: (0, t), 3: (1, t)
    along_x = sides < 2
    fixed = (sides % 2).astype(float)
    ends = np.stack([np.where(along_x, where, fixed), np.where(along_x, fixed, where)], axis=-1)
    return ends[:, 0], ends[:, 1]


def ray_tomo_2d(g: int, n_rays: int, seed=None) -> LinearOperatorHandle:
    """Sparse random straight-ray tomography operator on the unit square.

    Each row integrates the image along one random chord (cell-intersection
    lengths as weights), giving an n_rays x g^2 operator; useful as a
    significantly underdetermined test problem when n_rays << g^2. A chord is
    rejected and drawn again when its length inside the square (as
    ``ray_row`` sums it) is below 1e-3 or it keeps no cell. Chords are drawn
    in batches of at most RAY_BATCH, each batch exactly the rays still
    needed, so the generator is left where one-chord-at-a-time drawing would
    leave it, and every batch is traced in one vectorized pass.
    """
    return SparseOperator(_ray_matrix(g, n_rays, seed))


def _ray_matrix(g: int, n_rays: int, seed) -> sp.csr_matrix:
    """The n_rays x g^2 CSR matrix of ``ray_tomo_2d``."""
    g = _check_count(g, "the grid size g", 4)
    n_rays = _check_count(n_rays, "n_rays", 1)
    rng = np.random.default_rng(seed)
    rows, cols, vals = [], [], []
    count = 0
    while count < n_rays:
        batch = min(n_rays - count, RAY_BATCH)
        ray, flat, lengths = _trace(g, *_random_chords(rng, batch))
        keep = lengths > 1e-14
        # bincount sums a chord's pieces in order, np.sum (ray_row's total)
        # pairwise; both lie within a relative n 2^-53 of the exact sum of n
        # nonnegative pieces, so only chords under 2e-3 need np.sum's bits
        total = np.bincount(ray, weights=lengths, minlength=batch)
        for r in np.flatnonzero(total < 2e-3):
            total[r] = lengths[ray == r].sum()
        accepted = (total >= 1e-3) & (np.bincount(ray[keep], minlength=batch) > 0)
        take = keep & accepted[ray]
        rows.append((count - 1 + np.cumsum(accepted))[ray[take]])
        cols.append(flat[take])
        vals.append(lengths[take])
        count += int(np.count_nonzero(accepted))
    return sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(n_rays, g * g)).tocsr()


def _grid_covariance(grid: RegularGrid, kernel: MaternKernel) -> np.ndarray:
    """Dense covariance of the grid nodes, the kernel at every pair's lag distance.

    A pair's distance depends only on its integer lag along each axis, taken
    as lag * spacing, squared and summed over the axes in order. So the
    kernel is evaluated once per distinct lag, on a (2 g_a - 1)-per-axis
    table, and gathered by one small index array per axis that broadcasts
    over (i_0, ..., j_0, ...): no n x n index or distance array is built.
    """
    d = grid.ndim
    lags = [np.arange(1 - g, g) * h for g, h in zip(grid.shape, grid.spacing)]
    d2 = np.zeros([lag.size for lag in lags])
    for axis, lag in enumerate(lags):
        d2 += (lag * lag).reshape([-1 if a == axis else 1 for a in range(d)])
    table = matern_eval(kernel, np.sqrt(d2))
    index = []
    for axis, g in enumerate(grid.shape):
        shape = [1] * (2 * d)
        shape[axis] = shape[d + axis] = g
        node = np.arange(g)
        index.append((node[:, None] - node[None, :] + g - 1).reshape(shape))
    return table[tuple(index)].reshape(grid.size, grid.size)


def smooth_phantom(grid: RegularGrid, kernel: MaternKernel, seed=None) -> np.ndarray:
    """Random smooth field from the full eigenexpansion of the covariance.

    The dense covariance is the kernel evaluated at the grid's lag distances.
    Draws i.i.d. standard normal coefficients for its eigenpairs, largest
    eigenvalue first.
    """
    n = grid.size
    if n > PHANTOM_DENSE_CAP:
        raise ValueError(f"grid size {n} exceeds the phantom dense cap {PHANTOM_DENSE_CAP}")
    evals, evecs = np.linalg.eigh(_grid_covariance(grid, kernel))
    order = np.argsort(evals)[::-1]
    coeff = np.random.default_rng(seed).standard_normal(n)
    return evecs[:, order] @ (np.sqrt(np.clip(evals[order], 0.0, None)) * coeff)


def add_noise(d_clean, noise_level: float, seed=None) -> tuple[np.ndarray, np.ndarray]:
    """Additive Gaussian noise scaled to an exact relative norm.

    eta = eps * noise_level * ||d_clean|| / ||eps|| with eps standard normal,
    so ||eta|| = noise_level * ||d_clean|| holds by construction. Norms that
    OpenBLAS would split across its threads run on the calling thread, so the
    data do not follow the thread count; shorter ones skip that scope's cost.
    """
    d_clean = np.asarray(d_clean, dtype=float)
    if not 0.0 <= noise_level < math.inf:
        raise ValueError(f"noise level must be finite and nonnegative, got {noise_level}")
    if noise_level == 0.0:
        return d_clean.copy(), np.zeros_like(d_clean)
    rng = np.random.default_rng(seed)
    eps = rng.standard_normal(d_clean.shape)
    with _blas_on_calling_thread() if eps.size > _THREADED_DOT_MIN else nullcontext():
        norm, eps_norm = np.linalg.norm(d_clean), np.linalg.norm(eps)
    if norm == 0.0:
        raise ValueError("clean data is zero; the noise scale is undefined")
    eta = eps * (noise_level * norm / eps_norm)
    return d_clean + eta, eta


def relative_error(s_true, s_hat) -> float:
    """||s_true - s_hat|| / ||s_true||, for two arrays of one shape (else
    ValueError, so that no broadcast difference is measured)."""
    s_true = np.asarray(s_true, dtype=float)
    s_hat = np.asarray(s_hat, dtype=float)
    if s_true.shape != s_hat.shape:
        raise ValueError(f"the signals have shapes {s_true.shape} and {s_hat.shape}")
    norm = np.linalg.norm(s_true)
    if norm == 0.0:
        raise ValueError("the reference signal is zero")
    return float(np.linalg.norm(s_true - s_hat) / norm)


def build_heat_problem(n: int = 256, noise_level: float = 0.02, seed=0,
                       kappa: float = 1.0) -> ProblemInstance:
    forward = heat_1d(n, kappa)
    s_true = heat_true_signal(n)
    d_clean = forward.apply(s_true)
    data, eta = add_noise(d_clean, noise_level, seed)
    return ProblemInstance(
        forward=forward,
        s_true=s_true,
        d_clean=d_clean,
        data=data,
        noise=eta,
        noise_level=noise_level,
        geometry=RegularGrid((n,), (1.0 / n,)),
        seed=seed,
    )


def build_ray_tomo_problem(g: int = 32, n_rays: int = 360,
                           noise_level: float = 0.02, seed=0,
                           nu: float = 1.5, prior_std: float = 1.0,
                           ell: float = 0.2, mask=None) -> ProblemInstance:
    """Random-ray tomography of a smooth random phantom on a g x g grid.

    mask, when given, lists the retained pixels (row-major, x fastest) in the
    order of the unknowns and is checked before any ray is traced. The
    forward operator is then those columns of the full ray matrix, s_true the
    full phantom's entries there and the geometry those pixels' centres.
    prior_std and its square, the phantom's variance, must be finite and
    positive, or ValueError is raised before any ray is traced.
    """
    _check_scale(prior_std, "prior_std")
    grid = RegularGrid((g, g), (1.0 / g, 1.0 / g))
    if mask is not None:
        # integer-valued numbers only: an int cast reads 1.9 and True as pixel 1
        keep = np.asarray(mask)
        if (keep.ndim != 1 or keep.size == 0 or keep.dtype.kind not in "iuf"
                or np.any(np.floor(keep) != keep) or np.unique(keep).size != keep.size
                or keep.min() < 0 or keep.max() >= grid.size):
            raise ValueError("the mask must be a nonempty 1-d array of distinct pixel "
                             f"indices in [0, {grid.size})")
        keep = keep.astype(int)
    rng = np.random.SeedSequence(seed).spawn(3)
    mat = _ray_matrix(g, n_rays, rng[0])
    s_true = smooth_phantom(grid, MaternKernel(nu, prior_std**2, ell), seed=rng[1])
    geometry = grid
    if mask is not None:
        # the column slice keeps each row's entries in the full matrix's
        # order, so products sum in the order of the unmasked operator
        mat, s_true, geometry = mat[:, keep], s_true[keep], grid.points()[keep]
    forward = SparseOperator(mat)
    d_clean = forward.apply(s_true)
    data, eta = add_noise(d_clean, noise_level, seed=rng[2])
    return ProblemInstance(
        forward=forward,
        s_true=s_true,
        d_clean=d_clean,
        data=data,
        noise=eta,
        noise_level=noise_level,
        geometry=geometry,
        seed=seed,
    )
