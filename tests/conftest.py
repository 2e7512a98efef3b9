import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gkhyper

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.fixture(autouse=True)
def _quiet_embedding_warnings():
    # covariance clipping warnings are expected in a few tests; keep the
    # output readable
    logger = logging.getLogger("gkhyper.covariance")
    level = logger.level
    logger.setLevel(logging.ERROR)
    yield
    logger.setLevel(level)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def fd_gradient(fn, theta_values, step_rel=1e-6):
    """Central finite differences of a scalar function of theta."""
    theta_values = np.asarray(theta_values, dtype=float)
    grad = np.zeros_like(theta_values)
    for i in range(theta_values.size):
        h = step_rel * theta_values[i]
        tp = theta_values.copy()
        tp[i] += h
        tm = theta_values.copy()
        tm[i] -= h
        grad[i] = (fn(tp) - fn(tm)) / (2.0 * h)
    return grad


def probe_dense(op):
    """The column-at-a-time identity probe that dense_matrix's one block apply
    replaced: one apply (or adjoint apply) per basis vector, on whichever side
    needs fewer."""
    m, n = op.shape
    side, apply = (n, op.apply) if n <= m else (m, op.apply_adjoint)
    out = np.empty((m + n - side, side))
    e = np.zeros(side)
    for j in range(side):
        e[j] = 1.0
        out[:, j] = apply(e)
        e[j] = 0.0
    return out if n <= m else out.T


def run_at_blas_threads(script, threads, *args, timeout=120):
    """The stdout lines of ``python -c script *args`` at a BLAS thread count.

    The count is fixed when numpy loads, so each count runs in its own
    process; threads=None leaves BLAS at its default, the CPU count.
    """
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = str(Path(gkhyper.__file__).parents[1])
    if threads is not None:
        env.update(dict.fromkeys(BLAS_THREAD_VARS, threads))
    proc = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=timeout)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()
