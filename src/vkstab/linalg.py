"""Dense matrix-vector products on scipy's BLAS, and MINRES.

numpy and scipy each load their own OpenBLAS, each with its own pool of
worker threads, and a pool keeps its workers spinning for a while after each
threaded call.  Alternating threaded calls between the two (a numpy product,
a scipy eigensolve, numpy again) leaves one pool spinning while the other
works; with as many BLAS threads as cores that stalls calls at random by tens
to hundreds of milliseconds.  The eigensolves need scipy (the tridiagonal
reduction `dsytrd` and its bisection), so the package's other dense O(n^2)
and O(n^3) operations go through scipy as well, by `matvec` and
`scipy.linalg`.  The torus's 4 x 4 mode blocks and the orbit tangents' Ritz
matrix (one row and column per symmetry) are the exceptions: numpy's
`eigvalsh` solves them, and so small a problem starts no BLAS thread.

The profile and slope solves build no matrix: `minres` solves a symmetric,
possibly indefinite, operator given as a function, with a positive diagonal
preconditioner (Paige & Saunders 1975).  It is written here, with its inner
products as elementwise sums, so that it calls no BLAS at all.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import blas

__all__ = ["SolverError", "matvec", "minres"]

# MINRES stops when the preconditioned residual norm falls to MINRES_RTOL of
# the right-hand side's, and fails after MINRES_MAXITER iterations.
MINRES_RTOL = 1e-12
MINRES_MAXITER = 500


class SolverError(RuntimeError):
    """A Newton, continuation or inner linear solve that did not converge."""


def matvec(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a @ x for a real matrix a and vector x (a C-ordered a is not copied)."""
    return blas.dgemv(1.0, a.T, x, trans=1)


def minres(apply, b: np.ndarray, precond: np.ndarray) -> np.ndarray:
    """x with apply(x) = b, for apply a symmetric operator on arrays of b's
    shape, preconditioned by the positive array precond (the diagonal M, so
    M^-1 r = r / precond).  Raises SolverError naming the iterations and the
    relative residual, in the M^-1 norm, when it does not converge."""
    x = np.zeros_like(b)
    y = b / precond
    beta1 = math.sqrt(np.sum(b * y))
    if beta1 == 0.0:
        return x
    r1 = r2 = b
    w = w2 = x
    oldb, beta, dbar, epsln, phibar, cs, sn = 0.0, beta1, 0.0, 0.0, beta1, -1.0, 0.0
    for itn in range(1, MINRES_MAXITER + 1):
        # Lanczos step: v is the next M-orthonormal basis vector
        v = y / beta
        y = apply(v)
        if itn > 1:
            y = y - (beta / oldb) * r1
        alfa = np.sum(v * y)
        y = y - (alfa / beta) * r2
        r1, r2 = r2, y
        y = r2 / precond
        oldb, beta = beta, math.sqrt(np.sum(r2 * y))
        # plane rotation that keeps the tridiagonal's QR factor current
        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln = sn * beta
        dbar = -cs * beta
        gamma = math.hypot(gbar, beta)
        if gamma == 0.0:
            raise SolverError(f"MINRES met a singular operator in iteration {itn}")
        cs, sn = gbar / gamma, beta / gamma
        w1, w2 = w2, w
        w = (v - oldeps * w1 - delta * w2) / gamma
        x = x + (cs * phibar) * w
        phibar = sn * phibar
        if phibar <= MINRES_RTOL * beta1:
            return x
    raise SolverError(f"MINRES did not converge in {MINRES_MAXITER} iterations "
                      f"(relative residual {phibar / beta1:.3e})")
