"""Matern prior covariance operators and their hyperparameter derivatives.

The geometry picks the backend, by one rule (normalize_geometry): an
equispaced RegularGrid gets an FFT circulant embedding (O(n log n) matvecs),
and a point set gets the dense kernel matrix of its pairwise distances. The
embedding's eigenvalues are real and symmetric and its inputs real: a 1-d
grid applies it by real transforms on the half spectrum, the real-FFT pair
of ``operators`` that the heat map's convolution also takes, and a 2-d grid
still by complex ones (see _FFTGridCovariance for why). Each backend
implements only Q's block apply; the vector apply is the handle's one-column
block apply, so a block column has the bits of its vector apply by
construction.
The covariance is parameterized by the canonical hyperparameters: prior
standard deviation theta2 (variance sigma^2 = theta2^2) and correlation
length theta3; smoothness nu is fixed, never estimated.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .operators import (LinearOperatorHandle, _apply_chunks, _check_block, _check_count,
                        _irfft_block, _per_column, _rfft_block)

__all__ = [
    "MaternKernel",
    "RegularGrid",
    "CovarianceOperator",
    "matern_eval",
    "build_cov_operator",
    "normalize_geometry",
]

log = logging.getLogger(__name__)

# grid shapes whose clipped embedding has been logged at WARNING in this process
_CLIP_WARNED: set[tuple[int, ...]] = set()


@dataclass(frozen=True)
class MaternKernel:
    """Isotropic Matern covariance function M(r).

    M(0) = sigma2 exactly; for nu in {1/2, 3/2, 5/2} the closed forms are
    used, otherwise the modified-Bessel-K representation. nu, sigma2 and ell
    must be finite and positive, or ValueError is raised.
    """

    nu: float
    sigma2: float
    ell: float

    def __post_init__(self):
        for name, what in (("nu", "smoothness"), ("sigma2", "variance"),
                           ("ell", "correlation length")):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{what} must be finite and positive, got {value}")

    @property
    def prior_std(self) -> float:
        return math.sqrt(self.sigma2)


def _is_close(a: float, b: float) -> bool:
    return abs(a - b) < 1e-12


def matern_eval(kernel: MaternKernel, r):
    """Evaluate the Matern covariance at distance(s) r >= 0.

    The r=0 value is the variance itself (limit value, no Bessel call).
    """
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise ValueError("distances must be nonnegative")
    scalar = r.ndim == 0
    r = np.atleast_1d(r)
    s2, ell, nu = kernel.sigma2, kernel.ell, kernel.nu
    if _is_close(nu, 0.5):
        out = s2 * np.exp(-r / ell)
    elif _is_close(nu, 1.5):
        a = math.sqrt(3.0) * r / ell
        out = s2 * (1.0 + a) * np.exp(-a)
    elif _is_close(nu, 2.5):
        a = math.sqrt(5.0) * r / ell
        out = s2 * (1.0 + a + a * a / 3.0) * np.exp(-a)
    else:
        from scipy.special import gamma, kv  # here: a closed-form nu never loads it

        out = np.full_like(r, s2)
        pos = r > 0
        if np.any(pos):
            a = math.sqrt(2.0 * nu) * r[pos] / ell
            out[pos] = s2 * (2.0 ** (1.0 - nu) / gamma(nu)) * a**nu * kv(nu, a)
    return float(out[0]) if scalar else out


def _matern_deriv(kernel: MaternKernel, r):
    """Derivative dM/dell of the kernel value in the correlation length theta3.

    Closed form for every nu: with a = sqrt(2 nu) r / ell, d(a^nu K_nu(a))/da
    = -a^nu K_{nu-1}(a) gives dM/dell = sigma2 (2^(1-nu)/Gamma(nu))
    a^(nu+1) K_{nu-1}(a) / ell, and 0 at r = 0; nu in {1/2, 3/2, 5/2} take
    its elementary forms. The prior-std derivative needs no kernel:
    dQ/dtheta2 = (2/theta2) Q (see CovarianceOperator).
    """
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise ValueError("distances must be nonnegative")
    scalar = r.ndim == 0
    r = np.atleast_1d(r)
    s2, ell, nu = kernel.sigma2, kernel.ell, kernel.nu
    if _is_close(nu, 0.5):
        out = s2 * np.exp(-r / ell) * r / ell**2
    elif _is_close(nu, 1.5):
        a = math.sqrt(3.0) * r / ell
        out = s2 * a * a * np.exp(-a) / ell
    elif _is_close(nu, 2.5):
        a = math.sqrt(5.0) * r / ell
        out = s2 * a * a * (1.0 + a) * np.exp(-a) / (3.0 * ell)
    else:
        from scipy.special import gamma, kv

        out = np.zeros_like(r)
        pos = r > 0
        if np.any(pos):
            a = math.sqrt(2.0 * nu) * r[pos] / ell
            out[pos] = (s2 * (2.0 ** (1.0 - nu) / gamma(nu)) * a ** (nu + 1.0)
                        * kv(nu - 1.0, a) / ell)
    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class RegularGrid:
    """Equispaced rectangular grid; points are ordered C-style (last axis fastest)."""

    shape: tuple[int, ...]
    spacing: tuple[float, ...]

    def __post_init__(self):
        shape = tuple(_check_count(s, "each grid shape entry", 1) for s in self.shape)
        spacing = tuple(float(h) for h in self.spacing)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "spacing", spacing)
        if len(shape) not in (1, 2):
            raise ValueError("only 1-d and 2-d grids are supported")
        if len(spacing) != len(shape):
            raise ValueError("spacing must match the grid dimension")
        if not all(0.0 < h < math.inf for h in spacing):
            raise ValueError(f"grid spacing must be finite and positive, got {spacing}")

    @property
    def size(self) -> int:
        return int(np.prod(self.shape))

    @property
    def ndim(self) -> int:
        return len(self.shape)

    def points(self) -> np.ndarray:
        """Node coordinates (cell midpoints of a [0, L] box), size x ndim."""
        axes = [
            (np.arange(n) + 0.5) * h for n, h in zip(self.shape, self.spacing)
        ]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)


class CovarianceOperator(LinearOperatorHandle):
    """Symmetric matrix-free Matern covariance Q of the prior.

    ``apply_block`` (the handle's, through its ``_apply_block`` hook) applies
    Q to an (n, p) column block, ``apply_block_with_theta3_derivative`` Q and
    dQ/dtheta3, and ``apply_theta3_derivative_block`` dQ/dtheta3 alone, all in
    the chunk loop of ``operators._apply_chunks``:
    ``_forward_block`` takes each chunk of columns to a transform that
    ``_inverse_block`` finishes into Q X, and into dQ/dtheta3 X from the
    backend's derivative data, built on first use. dQ/dtheta2 = (2/theta2) Q
    needs no operator: callers scale Q X. Q is symmetric, so its adjoint block
    apply is its block apply, and the vector applies are the handle's
    one-column block applies. The counter goes up by the Q columns applied,
    and ``dq_count`` by the dQ/dtheta3 columns. Each backend names itself in
    the class attribute ``backend``: "fft" on a RegularGrid, "dense" on a
    point set, and keeps that grid or point set, as normalize_geometry gives
    it, in ``geometry``. The FFT backend's transforms are real, of L/2 + 1
    modes, on a 1-d grid (the pair ``operators._rfft_block``/``_irfft_block``)
    and complex on a 2-d grid; the forward transform of a chunk is shared by Q
    and dQ/dtheta3 either way.
    """

    # tools that split Q applies from derivative applies read this; every
    # covariance operator is Q itself
    deriv_index = 0

    def __init__(self, kernel: MaternKernel, geometry):
        self.geometry, n = normalize_geometry(geometry)
        super().__init__(n, n)
        self.kernel = kernel
        self.dq_count = 0

    def _forward_block(self, x: np.ndarray):
        raise NotImplementedError

    def _inverse_block(self, shared, data, out: np.ndarray) -> None:
        raise NotImplementedError

    def _apply_block(self, x):
        return _apply_chunks(self._forward_block, self._inverse_block, x, (self._data,))[0]

    # symmetric by construction
    _apply_adjoint_block = _apply_block

    def apply_block_with_theta3_derivative(self, x) -> tuple[np.ndarray, np.ndarray]:
        """(Q X, dQ/dtheta3 X) for an (n, p) block, from one shared transform.

        Checked as ``apply_block``, and counted as p Q columns and p
        dQ/dtheta3 columns (dq_count).
        """
        x = _check_block(x, self.ncols, "apply_block_with_theta3_derivative")
        self.matvec_count.bump_forward(x.shape[1])
        self.dq_count += x.shape[1]
        return tuple(_apply_chunks(self._forward_block, self._inverse_block, x,
                                   (self._data, self._ell_data)))

    def apply_theta3_derivative_block(self, x) -> np.ndarray:
        """dQ/dtheta3 X for an (n, p) block, bit for bit the second output of
        ``apply_block_with_theta3_derivative``: the same chunk loop, with the
        derivative data alone.

        Checked as ``apply_block``, and counted as p dQ/dtheta3 columns
        (dq_count) and no Q column.
        """
        x = _check_block(x, self.ncols, "apply_theta3_derivative_block")
        self.dq_count += x.shape[1]
        return _apply_chunks(self._forward_block, self._inverse_block, x, (self._ell_data,))[0]


def normalize_geometry(geometry) -> tuple[RegularGrid | np.ndarray, int]:
    """(geometry, point count) by the one rule that picks Q's backend: a
    RegularGrid as it is, a 1-d array of n coordinates as (n, 1) points, an
    (n, dim) array as floats; anything else raises ValueError."""
    if isinstance(geometry, RegularGrid):
        return geometry, geometry.size
    points = np.asarray(geometry, dtype=float)
    if points.ndim == 1:
        points = points[:, None]
    if points.ndim != 2:
        raise ValueError(f"point set must be an (n, dim) array, got shape {points.shape}")
    return points, points.shape[0]


def _distance_matrix(points: np.ndarray) -> np.ndarray:
    diff = points[:, None, :] - points[None, :, :]
    return np.sqrt(np.sum(diff * diff, axis=-1))


class _DenseCovariance(CovarianceOperator):
    backend = "dense"

    def __init__(self, kernel, points: np.ndarray):
        # the points, not the n x n distance matrix, are kept for dQ/dtheta3
        super().__init__(kernel, points)
        self._data = matern_eval(kernel, _distance_matrix(points))

    @cached_property
    def _ell_data(self):
        return _matern_deriv(self.kernel, _distance_matrix(self.geometry))

    def _forward_block(self, x):
        return x

    def _inverse_block(self, x, mat, out):
        # one matvec per column: a single matrix product would round differently
        out[...] = _per_column(mat.__matmul__, x, self.ncols)


class _FFTGridCovariance(CovarianceOperator):
    """Circulant embedding of the (block-)Toeplitz grid covariance.

    The base kernel is evaluated on a doubled torus per dimension; applying
    the operator zero-pads the input into the embedding, multiplies by the
    circulant eigenvalues in Fourier space and crops. Negative embedding
    eigenvalues of Q (possible for some nu/ell) are clipped at zero, and
    ``clipped`` counts them over the whole embedding. The first clipping
    build per grid shape in a process logs a WARNING, later ones log at DEBUG.

    dQ/dtheta3 differentiates the clipped Q that is applied: the clipped set
    is locally constant in theta (away from a zero eigenvalue), so its
    eigenvalues are those of the embedded dM/dell, zeroed at Q's clipped
    modes and never clipped by their own sign.

    This class applies the 2-d embedding by complex transforms: ``fftn`` of
    the zero-padded fields, and an inverse one axis at a time that crops each
    axis after its pass; a 1-d grid gets ``_FFTLineCovariance``, which takes
    real transforms of half the length. Real transforms on the 2-d grid wait
    on the ray estimate's theta3 gradient: in a prototype with ``rfftn``
    (2-CPU host, 2 BLAS threads) they cut a ray ``objective_gengk`` from 38-45
    ms to 32-38 ms, but the moved bits turned ray-estimate's failed solves
    over workload seeds 0-4 from 6 into 9 of 25, every one an ``unconverged``
    stop.
    """

    backend = "fft"

    def __init__(self, kernel, grid: RegularGrid):
        super().__init__(kernel, grid)
        self._embed_shape = tuple(2 * s for s in grid.shape)
        eig = self._spectrum(matern_eval(kernel, self._radius()))
        self.min_embedding_eig = float(eig.min())
        self._clip_mask = eig < 0.0
        self.clipped = self._mode_count(self._clip_mask)
        if self.clipped:
            # once per grid shape at WARNING: Q is rebuilt per evaluation
            level = logging.DEBUG if grid.shape in _CLIP_WARNED else logging.WARNING
            _CLIP_WARNED.add(grid.shape)
            log.log(
                level,
                "circulant embedding has %d negative eigenvalues "
                "(min %.3e); clipping at zero",
                self.clipped,
                self.min_embedding_eig,
            )
        self._data = self._clip(eig)

    def _radius(self) -> np.ndarray:
        # lag distance of every embedding node on the doubled torus
        lag_axes = []
        for size, h in zip(self._embed_shape, self.geometry.spacing):
            idx = np.arange(size)
            lag_axes.append(np.minimum(idx, size - idx) * h)
        if self.geometry.ndim == 1:
            return lag_axes[0]
        return np.hypot(lag_axes[0][:, None], lag_axes[1][None, :])

    @staticmethod
    def _spectrum(embedded: np.ndarray) -> np.ndarray:
        # the embedding eigenvalues: the kernel is even on the torus, so its
        # transform is real
        return np.fft.fftn(embedded).real

    @staticmethod
    def _mode_count(mask: np.ndarray) -> int:
        return int(np.count_nonzero(mask))

    def _clip(self, eig: np.ndarray) -> np.ndarray:
        return np.where(self._clip_mask, 0.0, eig) if self.clipped else eig

    @cached_property
    def _ell_data(self):
        return self._clip(self._spectrum(_matern_deriv(self.kernel, self._radius())))

    def _forward_block(self, x):
        # fftn of each column as a grid field, zero-padded to the embedding
        fields = x.T.reshape(x.shape[1], *self.geometry.shape)
        return np.fft.fftn(fields, s=self._embed_shape, axes=tuple(range(1, fields.ndim)))

    def _inverse_block(self, spectra, eig, out):
        # ifftn in fftn's axis order, cropping each axis to the grid after its
        # pass: the later passes skip the padding, the kept entries are the same
        spectra = eig * spectra
        for axis in range(spectra.ndim - 1, 0, -1):
            crop = (slice(None),) * axis + (slice(0, self.geometry.shape[axis - 1]),)
            spectra = np.fft.ifft(spectra, axis=axis)[crop]
        out[...] = spectra.real.reshape(out.shape[1], -1).T


class _FFTLineCovariance(_FFTGridCovariance):
    """The circulant embedding on a 1-d grid, applied by real transforms.

    The embedding of length L = 2n is real and even, so its eigenvalues are
    real and symmetric, and the inputs are real: ``rfft`` and ``irfft`` do
    the work of the complex pair on L/2 + 1 modes, through the real-FFT pair
    that ``LowerToeplitzOperator`` also applies. Q and dQ/dtheta3 keep
    their eigenvalues, and Q its clip mask, on those modes only; ``clipped``
    still counts the whole embedding, each mode but the first and last twice.
    """

    @staticmethod
    def _spectrum(embedded):
        return np.fft.rfft(embedded).real

    @staticmethod
    def _mode_count(mask):
        return int(2 * np.count_nonzero(mask) - mask[0] - mask[-1])

    def _forward_block(self, x):
        return _rfft_block(x, self._embed_shape[0])

    def _inverse_block(self, spectra, eig, out):
        _irfft_block(spectra, eig, self._embed_shape[0], out)


def build_cov_operator(geometry, kernel: MaternKernel) -> CovarianceOperator:
    """Build the matrix-free prior covariance Q of a Matern kernel.

    The geometry picks the backend (normalize_geometry): FFT on a RegularGrid,
    dense on a point set. Q applies its theta-derivatives itself
    (``apply_block_with_theta3_derivative``, ``apply_theta3_derivative_block``).
    """
    geometry, _ = normalize_geometry(geometry)
    if isinstance(geometry, RegularGrid):
        if geometry.ndim == 1:
            return _FFTLineCovariance(kernel, geometry)
        return _FFTGridCovariance(kernel, geometry)
    return _DenseCovariance(kernel, geometry)
