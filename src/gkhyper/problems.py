"""Built-in synthetic test problems and data generation.

Ships a 1-d inverse heat (Volterra first kind) operator, a 2-d random-ray
tomography operator, smooth random phantoms from a truncated eigenexpansion
of a Matern covariance, and the norm-calibrated additive noise procedure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import toeplitz

from .covariance import MaternKernel, RegularGrid, matern_eval
from .operators import DenseOperator, LinearOperatorHandle, MaskedOperator, SparseOperator

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
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    h = 1.0 / n
    gaps = (np.arange(n) + 0.5) * h
    column = h * gaps ** (-1.5) * np.exp(-1.0 / (4.0 * kappa**2 * gaps)) / math.sqrt(
        4.0 * math.pi * kappa**2
    )
    return DenseOperator(toeplitz(column, np.zeros(n)))


def heat_true_signal(n: int) -> np.ndarray:
    """Default 1-d phantom: quadratic rise and parabolic hump on the first
    half of the domain, zero afterwards (peak value 1, one jump).

    Sampled at the quadrature midpoints. The jump keeps the reconstruction
    problem honest for smooth priors.
    """
    s = (np.arange(n) + 0.5) / n
    t = 4.0 * s
    x = np.zeros(n)
    rising = t < 1.0
    x[rising] = 0.75 * t[rising] ** 2
    hump = (t >= 1.0) & (t < 2.0)
    x[hump] = 0.75 + (t[hump] - 1.0) * (2.0 - t[hump])
    return x


def ray_row(g: int, p0, p1) -> tuple[np.ndarray, np.ndarray, float]:
    """Cell indices and intersection lengths of the segment p0 -> p1 on a g x g grid.

    The unit square is split into g x g cells of width 1/g; cells are indexed
    row-major with x fastest. Returns (flat_indices, lengths, total_length).
    """
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    direction = p1 - p0
    total = float(np.linalg.norm(direction))
    if total == 0.0:
        return np.zeros(0, dtype=int), np.zeros(0), 0.0
    # parametric crossing times with all grid lines, clipped to [0, 1]
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


def ray_tomo_2d(g: int, n_rays: int, seed=None) -> LinearOperatorHandle:
    """Sparse random straight-ray tomography operator on the unit square.

    Each row integrates the image along one random chord (cell-intersection
    lengths as weights), giving an n_rays x g^2 operator; useful as a
    significantly underdetermined test problem when n_rays << g^2. Degenerate
    rays (no intersection) are resampled.
    """
    if g < 4:
        raise ValueError("grid must be at least 4 x 4")
    if n_rays < 1:
        raise ValueError("need at least one ray")
    rng = np.random.default_rng(seed)
    rows, cols, vals = [], [], []
    count = 0
    while count < n_rays:
        # random chord: pick two points on distinct sides of the square
        sides = rng.choice(4, size=2, replace=False)
        pts = []
        for side in sides:
            t = rng.uniform(0.0, 1.0)
            pts.append({
                0: (t, 0.0), 1: (t, 1.0), 2: (0.0, t), 3: (1.0, t),
            }[side])
        idx, lengths, total = ray_row(g, pts[0], pts[1])
        if total < 1e-3 or idx.size == 0:
            continue
        rows.extend([count] * idx.size)
        cols.extend(idx.tolist())
        vals.extend(lengths.tolist())
        count += 1
    mat = sp.coo_matrix((vals, (rows, cols)), shape=(n_rays, g * g))
    return SparseOperator(mat)


def smooth_phantom(grid: RegularGrid, kernel: MaternKernel, truncation: int,
                   seed=None, mask=None) -> np.ndarray:
    """Random smooth field from a truncated eigenexpansion of the covariance.

    The dense covariance is the kernel evaluated at the grid's lag distances.
    Draws i.i.d. standard normal coefficients for its leading `truncation`
    eigenpairs, then applies the optional retained-index mask (entries off
    the mask are exactly zero).
    """
    n = grid.size
    if n > PHANTOM_DENSE_CAP:
        raise ValueError(f"grid size {n} exceeds the phantom dense cap {PHANTOM_DENSE_CAP}")
    truncation = int(truncation)
    if truncation < 0 or truncation > n:
        raise ValueError("truncation must lie in [0, n]")
    if truncation == 0:
        return np.zeros(n)
    # copied into the heap space of the kernel's freed temporaries, so glibc
    # trims the heap top: a g = 32 build otherwise peaks 8 MB higher in RSS
    cov = matern_eval(kernel, grid.lag_distance_matrix()).copy()
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1][:truncation]
    rng = np.random.default_rng(seed)
    coeff = rng.standard_normal(truncation)
    field = evecs[:, order] @ (np.sqrt(np.clip(evals[order], 0.0, None)) * coeff)
    if mask is not None:
        keep = np.zeros(n, dtype=bool)
        keep[np.asarray(mask, dtype=int)] = True
        field = np.where(keep, field, 0.0)
    return field


def add_noise(d_clean, noise_level: float, seed=None) -> tuple[np.ndarray, np.ndarray]:
    """Additive Gaussian noise scaled to an exact relative norm.

    eta = eps * noise_level * ||d_clean|| / ||eps|| with eps standard normal,
    so ||eta|| = noise_level * ||d_clean|| holds by construction.
    """
    d_clean = np.asarray(d_clean, dtype=float)
    if noise_level < 0:
        raise ValueError("noise level must be nonnegative")
    if noise_level == 0.0:
        return d_clean.copy(), np.zeros_like(d_clean)
    norm = np.linalg.norm(d_clean)
    if norm == 0.0:
        raise ValueError("clean data is zero; the noise scale is undefined")
    rng = np.random.default_rng(seed)
    eps = rng.standard_normal(d_clean.shape)
    eta = eps * (noise_level * norm / np.linalg.norm(eps))
    return d_clean + eta, eta


def relative_error(s_true, s_hat) -> float:
    """||s_true - s_hat|| / ||s_true||."""
    s_true = np.asarray(s_true, dtype=float)
    s_hat = np.asarray(s_hat, dtype=float)
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
                           ell: float = 0.2, truncation: int | None = None,
                           mask=None) -> ProblemInstance:
    """Random-ray tomography of a smooth random phantom on a g x g grid."""
    grid = RegularGrid((g, g), (1.0 / g, 1.0 / g))
    rng = np.random.SeedSequence(seed).spawn(3)
    forward = ray_tomo_2d(g, n_rays, seed=rng[0])
    kernel = MaternKernel(nu, prior_std**2, ell)
    truncation = grid.size if truncation is None else truncation
    s_true = smooth_phantom(grid, kernel, truncation, seed=rng[1], mask=mask)
    if mask is not None:
        forward = MaskedOperator(forward, mask)
        s_true = s_true[np.asarray(mask, dtype=int)]
        grid_or_points = grid.points()[np.asarray(mask, dtype=int)]
    else:
        grid_or_points = grid
    d_clean = forward.apply(s_true)
    data, eta = add_noise(d_clean, noise_level, seed=rng[2])
    return ProblemInstance(
        forward=forward,
        s_true=s_true,
        d_clean=d_clean,
        data=data,
        noise=eta,
        noise_level=noise_level,
        geometry=grid_or_points,
        seed=seed,
    )
