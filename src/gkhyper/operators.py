"""Matrix-free linear operators with forward/adjoint application and matvec accounting.

Every operator is an opaque handle: downstream code may only call ``apply``
and ``apply_adjoint``, never read entries. Application counts are part of the
public contract so that cost claims stay testable.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "LinearOperatorHandle",
    "DenseOperator",
    "SparseOperator",
    "IdentityOperator",
    "MaskedOperator",
    "NoiseCovariance",
    "dense_matrix",
]


class MatvecCounter:
    """Forward/adjoint application counter of one operator.

    It is bumped on every apply, so it takes no lock: nothing in the package
    applies an operator from more than one thread.
    """

    __slots__ = ("forward", "adjoint")

    def __init__(self) -> None:
        self.forward = 0
        self.adjoint = 0

    def bump_forward(self, count: int = 1) -> None:
        self.forward += count

    def bump_adjoint(self) -> None:
        self.adjoint += 1

    def snapshot(self) -> tuple[int, int]:
        return (self.forward, self.adjoint)

    def reset(self) -> None:
        self.forward = 0
        self.adjoint = 0

    def __repr__(self) -> str:
        return f"MatvecCounter(forward={self.forward}, adjoint={self.adjoint})"


def _check_vector(x, length: int, what: str) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.shape[0] != length:
        raise ValueError(
            f"{what}: expected a vector of length {length}, got shape {x.shape}"
        )
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{what}: input contains non-finite entries")
    return x


class LinearOperatorHandle:
    """An m-by-n linear map accessible only through matvecs.

    Subclasses implement ``_apply`` / ``_apply_adjoint``. Handles are immutable
    after construction apart from their counter, which is not thread-safe.
    """

    def __init__(self, nrows: int, ncols: int) -> None:
        if nrows < 1 or ncols < 1:
            raise ValueError(f"operator shape must be positive, got ({nrows}, {ncols})")
        self.nrows = int(nrows)
        self.ncols = int(ncols)
        self.matvec_count = MatvecCounter()

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def apply(self, x) -> np.ndarray:
        """Return op @ x for a length-n vector; bumps the forward counter."""
        x = _check_vector(x, self.ncols, "apply")
        self.matvec_count.bump_forward()
        return self._apply(x)

    def apply_adjoint(self, y) -> np.ndarray:
        """Return op.T @ y for a length-m vector; bumps the adjoint counter."""
        y = _check_vector(y, self.nrows, "apply_adjoint")
        self.matvec_count.bump_adjoint()
        return self._apply_adjoint(y)

    def _apply(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _apply_adjoint(self, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}(shape={self.shape})"


class DenseOperator(LinearOperatorHandle):
    """Operator backed by an explicit 2-d array (kept private to the handle)."""

    def __init__(self, matrix) -> None:
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2:
            raise ValueError("DenseOperator needs a 2-d array")
        super().__init__(*matrix.shape)
        self._mat = matrix

    def _apply(self, x):
        return self._mat @ x

    def _apply_adjoint(self, y):
        return self._mat.T @ y


class SparseOperator(LinearOperatorHandle):
    """Operator backed by a scipy sparse matrix."""

    def __init__(self, matrix) -> None:
        super().__init__(*matrix.shape)
        self._mat = matrix.tocsr()
        # a CSC view of the same arrays, built once instead of per adjoint
        self._mat_t = self._mat.T

    def _apply(self, x):
        return np.asarray(self._mat @ x).ravel()

    def _apply_adjoint(self, y):
        return np.asarray(self._mat_t @ y).ravel()


class IdentityOperator(LinearOperatorHandle):
    def __init__(self, n: int) -> None:
        super().__init__(n, n)

    def _apply(self, x):
        return x.copy()

    def _apply_adjoint(self, y):
        return y.copy()


class MaskedOperator(LinearOperatorHandle):
    """Restrict an operator to a retained subset of its input components.

    Forward application zero-extends the reduced vector onto the inner domain
    (a land-mask analogue); the adjoint restricts back to the retained indices.
    Applications are routed through the inner handle, so composite counts equal
    the sum over constituents.
    """

    def __init__(self, inner: LinearOperatorHandle, keep_indices) -> None:
        keep = np.asarray(keep_indices, dtype=int)
        if keep.ndim != 1 or keep.size == 0:
            raise ValueError("keep_indices must be a nonempty 1-d index array")
        if np.unique(keep).size != keep.size:
            raise ValueError("keep_indices must not contain duplicates")
        if keep.min() < 0 or keep.max() >= inner.ncols:
            raise ValueError("keep_indices out of range for the inner operator")
        super().__init__(inner.nrows, keep.size)
        self.inner = inner
        self.keep_indices = keep

    def _apply(self, x):
        z = np.zeros(self.inner.ncols)
        z[self.keep_indices] = x
        return self.inner.apply(z)

    def _apply_adjoint(self, y):
        return self.inner.apply_adjoint(y)[self.keep_indices]


class NoiseCovariance:
    """Scalar-diagonal noise covariance theta1 * I_m.

    Inverse, inverse square root and log-determinant are closed form. Its only
    hyperparameter derivative is dR/dtheta1 = I, so the gradient code writes
    it in place (<dR/dtheta1, R^{-1}> = m/theta1) instead of asking for it.
    """

    def __init__(self, theta1: float, m: int) -> None:
        theta1 = float(theta1)
        if theta1 <= 0.0:
            raise ValueError(f"noise variance must be positive, got {theta1}")
        if m < 1:
            raise ValueError("dimension must be positive")
        self.theta1 = theta1
        self.m = int(m)

    def apply_inv(self, x):
        return np.asarray(x, dtype=float) / self.theta1

    def inv_sqrt_apply(self, x):
        return np.asarray(x, dtype=float) / np.sqrt(self.theta1)

    def logdet(self) -> float:
        return self.m * np.log(self.theta1)

    def __repr__(self) -> str:
        return f"NoiseCovariance(theta1={self.theta1}, m={self.m})"


def dense_matrix(op: LinearOperatorHandle) -> np.ndarray:
    """Materialize an operator by probing with basis vectors.

    Uses only the public matvec interface (the probing cost shows up in the
    counters, which is the honest accounting for the dense oracle path).
    Probes whichever side needs fewer applications.
    """
    m, n = op.shape
    if n <= m:
        cols = np.empty((m, n))
        e = np.zeros(n)
        for j in range(n):
            e[j] = 1.0
            cols[:, j] = op.apply(e)
            e[j] = 0.0
        return cols
    rows = np.empty((n, m))
    e = np.zeros(m)
    for i in range(m):
        e[i] = 1.0
        rows[:, i] = op.apply_adjoint(e)
        e[i] = 0.0
    return rows.T

