"""Matrix-free linear operators with forward/adjoint application and matvec accounting.

Every operator is an opaque handle: downstream code may only apply it, to a
vector (``apply``, ``apply_adjoint``) or to a block of columns
(``apply_block``, ``apply_adjoint_block``), never read entries. Each operator
implements one hook per direction, its block apply; the vector apply is the
one-column block apply and returns column 0 of a C-contiguous (m, 1) array.
A block apply gives each column the bits of the vector apply of that column,
taken as a contiguous vector, and counts one application per column.
Application counts are part of the public contract so that cost claims stay
testable. A domain restricted to a subset of pixels is not an operator type
of its own: a masked ray problem keeps the mask's columns of its sparse
matrix. Nor is the noise covariance R = theta1 I: it is given by the float
theta1.

The structured operators (the Toeplitz convolution and every prior
covariance) apply a block in chunks of ``_BLOCK_COLUMNS`` columns through one
loop, ``_apply_chunks``, which shares each chunk's forward transform. Every
1-d real circulant, the Toeplitz convolution and Q on a line, takes its
transforms from one real-FFT pair, ``_rfft_block`` and ``_irfft_block``.
"""

from __future__ import annotations

import numbers

import numpy as np
from scipy.fft import next_fast_len

__all__ = [
    "LinearOperatorHandle",
    "DenseOperator",
    "LowerToeplitzOperator",
    "SparseOperator",
    "IdentityOperator",
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

    def bump_adjoint(self, count: int = 1) -> None:
        self.adjoint += count

    def snapshot(self) -> tuple[int, int]:
        return (self.forward, self.adjoint)

    def reset(self) -> None:
        self.forward = 0
        self.adjoint = 0

    def __repr__(self) -> str:
        return f"MatvecCounter(forward={self.forward}, adjoint={self.adjoint})"


def _check_count(value, what: str, low: int) -> int:
    """The one rule for every count (size, steps, probes, iteration limit):
    value as an int if it is an integer, not a bool, of at least low, else
    ValueError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        kind = {0: "a nonnegative integer", 1: "a positive integer"}.get(
            low, f"an integer of at least {low}")
        raise ValueError(f"{what} must be {kind}, got {value!r}")
    return int(value)


def _check_scale(value, what: str) -> None:
    """The rule for a scale that enters squared (a prior std, the heat
    kernel's kappa): it and its square finite and positive, else ValueError.
    The square is a float product, which overflows to inf where ** raises."""
    if not (0.0 < value < np.inf and 0.0 < float(value) * float(value) < np.inf):
        raise ValueError(f"{what} must be finite and positive, with a finite and positive "
                         f"square, got {value!r}")


def _check_vector(x, length: int, what: str) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.shape[0] != length:
        raise ValueError(
            f"{what}: expected a vector of length {length}, got shape {x.shape}"
        )
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{what}: input contains non-finite entries")
    return x


def _check_block(x, rows: int, what: str) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] != rows:
        raise ValueError(f"{what}: expected a ({rows}, p) block, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{what}: input contains non-finite entries")
    return x


class LinearOperatorHandle:
    """An m-by-n linear map accessible only through matvecs.

    Subclasses implement the block hooks ``_apply_block`` /
    ``_apply_adjoint_block`` and no others: ``apply`` / ``apply_adjoint`` check
    and count a vector and return column 0 of the one-column block apply.
    Handles are immutable after construction apart from their counter, which
    is not thread-safe.
    """

    def __init__(self, nrows: int, ncols: int) -> None:
        self.nrows = _check_count(nrows, "the operator's row count", 1)
        self.ncols = _check_count(ncols, "the operator's column count", 1)
        self.matvec_count = MatvecCounter()

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    # the vector applies call the hooks, not the public block applies, so that
    # a wrapper of apply_block is not run (or counted) for a vector apply
    def apply(self, x) -> np.ndarray:
        """Return op @ x for a length-n vector; bumps the forward counter."""
        x = _check_vector(x, self.ncols, "apply")
        self.matvec_count.bump_forward()
        return self._apply_block(x[:, None])[:, 0]

    def apply_adjoint(self, y) -> np.ndarray:
        """Return op.T @ y for a length-m vector; bumps the adjoint counter."""
        y = _check_vector(y, self.nrows, "apply_adjoint")
        self.matvec_count.bump_adjoint()
        return self._apply_adjoint_block(y[:, None])[:, 0]

    def apply_block(self, x) -> np.ndarray:
        """op @ X for an (n, p) block, column j bit for bit ``apply(X[:, j].copy())``.

        The block is checked before any apply; the forward counter goes up by
        p. Returns a C-contiguous (m, p) array.
        """
        x = _check_block(x, self.ncols, "apply_block")
        self.matvec_count.bump_forward(x.shape[1])
        return self._apply_block(x)

    def apply_adjoint_block(self, y) -> np.ndarray:
        """op.T @ Y for an (m, p) block, column j bit for bit ``apply_adjoint(Y[:, j].copy())``.

        The block is checked before any apply; the adjoint counter goes up by
        p. Returns a C-contiguous (n, p) array.
        """
        y = _check_block(y, self.nrows, "apply_adjoint_block")
        self.matvec_count.bump_adjoint(y.shape[1])
        return self._apply_adjoint_block(y)

    def _apply_block(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _apply_adjoint_block(self, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}(shape={self.shape})"


def _per_column(apply, x: np.ndarray, rows: int) -> np.ndarray:
    # each column as a contiguous vector, as a caller's vector apply gets it:
    # OpenBLAS dgemv on a transposed matrix rounds differently on a strided x;
    # a one-column block (a vector apply) is the column's own result
    if x.shape[1] == 1:
        return apply(np.ascontiguousarray(x[:, 0])).reshape(rows, 1)
    out = np.empty((rows, x.shape[1]))
    for j in range(x.shape[1]):
        out[:, j] = apply(np.ascontiguousarray(x[:, j]))
    return out


class DenseOperator(LinearOperatorHandle):
    """Operator backed by an explicit 2-d array of finite numbers (kept
    private to the handle).

    A block apply takes one matvec per column: a single matrix product would
    round differently.
    """

    def __init__(self, matrix) -> None:
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2:
            raise ValueError("DenseOperator needs a 2-d array")
        if not np.all(np.isfinite(matrix)):
            raise ValueError("DenseOperator: matrix contains non-finite entries")
        super().__init__(*matrix.shape)
        self._mat = matrix

    def _apply_block(self, x):
        return _per_column(self._mat.__matmul__, x, self.nrows)

    def _apply_adjoint_block(self, y):
        return _per_column(self._mat.T.__matmul__, y, self.ncols)


# columns per shared forward transform in a block apply: a chunk's spectra
# stay in cache on the shipped grids, where one 120-column block ran slower
# per column than chunks of 16
_BLOCK_COLUMNS = 16


def _apply_chunks(forward, inverse, x: np.ndarray, datas) -> list[np.ndarray]:
    """One C-contiguous output per entry of datas, for an (n, p) block x of a
    square operator: ``forward`` takes each chunk of at most _BLOCK_COLUMNS
    columns to a transform, shared by every entry, that ``inverse(shared,
    data, out)`` finishes into that entry's output columns."""
    outs = [np.empty(x.shape) for _ in datas]
    for start in range(0, x.shape[1], _BLOCK_COLUMNS):
        cols = slice(start, start + _BLOCK_COLUMNS)
        shared = forward(x[:, cols])
        for data, out in zip(datas, outs):
            inverse(shared, data, out[:, cols])
    return outs


def _rfft_block(x: np.ndarray, length: int) -> np.ndarray:
    """The real FFT of each column of x, zero-padded to length, one row each."""
    return np.fft.rfft(x.T, n=length, axis=1)


def _irfft_block(spectra: np.ndarray, eig: np.ndarray, length: int, out: np.ndarray) -> None:
    """Write into the columns of out the leading rows of the inverse real FFT
    of length ``length`` of each row of spectra, multiplied by eig: the
    circulant with eigenvalues eig applied to the columns _rfft_block took."""
    out[...] = np.fft.irfft(eig * spectra, n=length, axis=1)[:, :out.shape[0]].T


class LowerToeplitzOperator(LinearOperatorHandle):
    """Lower-triangular Toeplitz operator ``toeplitz(column, zeros(n))``, applied
    as a circulant convolution in O(n log n) time and O(n) memory.

    The column must be a nonempty 1-d array of finite numbers. The operator
    holds only ``c_hat = rfft(column, L)``, L // 2 + 1 complex numbers, and
    its conjugate, and applies A x = ``irfft(c_hat * rfft(x, L), L)[:n]`` and
    A' y = ``irfft(conj(c_hat) * rfft(y, L), L)[:n]``. L is the smallest
    length of at least 2n with no prime factor above 5 (2n itself at n = 1000,
    2048, 4096): the zero padding past 2n - 1 makes the circular convolution
    (correlation) the Toeplitz product, and the smooth length keeps an n with
    a large prime factor from a transform 4-7 times slower. Those applies agree
    with the dense product to round-off (relative error about 1e-15, and every
    entry within 1e-13 of max|A x|); the entries above the diagonal of a probed
    matrix are round-off, not zeros. A block apply shares the chunk loop and
    the real-FFT pair of the 1-d prior covariance, so its temporaries beyond
    the output are O(n) per chunk column. It uses no BLAS, so its bits do not
    depend on the BLAS thread count.
    """

    def __init__(self, column) -> None:
        column = np.asarray(column, dtype=float)
        if column.ndim != 1 or column.size == 0:
            raise ValueError(
                f"LowerToeplitzOperator needs a nonempty 1-d first column, got shape {column.shape}"
            )
        if not np.all(np.isfinite(column)):
            raise ValueError("LowerToeplitzOperator: first column contains non-finite entries")
        super().__init__(column.size, column.size)
        self._fft_len = next_fast_len(2 * column.size, real=True)
        self._chat = np.fft.rfft(column, self._fft_len)
        self._chat_conj = np.conj(self._chat)

    def _apply_block(self, x):
        return _apply_chunks(self._forward_block, self._inverse_block, x, (self._chat,))[0]

    def _apply_adjoint_block(self, y):
        return _apply_chunks(self._forward_block, self._inverse_block, y, (self._chat_conj,))[0]

    def _forward_block(self, x):
        return _rfft_block(x, self._fft_len)

    def _inverse_block(self, spectra, kernel, out):
        _irfft_block(spectra, kernel, self._fft_len, out)


class SparseOperator(LinearOperatorHandle):
    """Operator backed by a scipy sparse matrix whose stored entries are finite.

    A block apply is one CSR (adjoint: CSC) product with the dense block, which
    sums each output entry in the same order at every block width, so each
    column keeps the bits of its one-column block apply.
    """

    def __init__(self, matrix) -> None:
        super().__init__(*matrix.shape)
        self._mat = matrix.tocsr()
        if not np.all(np.isfinite(self._mat.data)):
            raise ValueError("SparseOperator: matrix contains non-finite entries")
        # a CSC view of the same arrays, built once instead of per adjoint
        self._mat_t = self._mat.T

    def _apply_block(self, x):
        return self._mat @ x

    def _apply_adjoint_block(self, y):
        return self._mat_t @ y


class IdentityOperator(LinearOperatorHandle):
    def __init__(self, n: int) -> None:
        super().__init__(n, n)

    def _apply_block(self, x):
        return x.copy()

    _apply_adjoint_block = _apply_block


def dense_matrix(op: LinearOperatorHandle) -> np.ndarray:
    """Materialize an operator by one block apply of the identity.

    Uses only the public apply interface, so the probing cost shows up in the
    counters, which is the honest accounting for the dense oracle path. Probes
    whichever side needs fewer applications: the forward side gives a
    C-contiguous matrix, the adjoint side the transpose of one.
    """
    m, n = op.shape
    if n <= m:
        return op.apply_block(np.eye(n))
    return op.apply_adjoint_block(np.eye(m)).T

