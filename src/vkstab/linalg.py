"""Dense solves and matrix-vector products on scipy's LAPACK and BLAS.

numpy and scipy each load their own OpenBLAS, each with its own pool of
worker threads, and a pool keeps its workers spinning for a while after each
threaded call.  Alternating threaded calls between the two (a numpy Newton
solve, a scipy eigensolve, numpy again) leaves one pool spinning while the
other works; with as many BLAS threads as cores that stalls calls at random
by tens to hundreds of milliseconds.  The eigensolves need scipy (the
tridiagonal reduction `dsytrd` and its bisection, inverse iteration and
back-transform), so the package's other dense O(n^2) and O(n^3) operations
go through scipy as well, by these two functions and `scipy.linalg`.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import blas, lapack

__all__ = ["solve", "matvec"]


def solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with a x = b, by LU with partial pivoting as np.linalg.solve; b is a
    vector or one right-hand side per column.  A singular a raises
    np.linalg.LinAlgError."""
    _, _, x, info = lapack.dgesv(a, b)
    if info > 0:
        raise np.linalg.LinAlgError("Singular matrix")
    return x


def matvec(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a @ x for a real matrix a and vector x (a C-ordered a is not copied)."""
    return blas.dgemv(1.0, a.T, x, trans=1)
