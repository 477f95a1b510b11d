"""Dense products on scipy's BLAS, MINRES and block CG.

numpy and scipy each load their own OpenBLAS, each with its own pool of
worker threads, and a pool keeps its workers spinning for a while after each
threaded call.  Alternating threaded calls between the two (a numpy product,
a scipy eigensolve, numpy again) leaves one pool spinning while the other
works; with as many BLAS threads as cores that stalls calls at random by tens
to hundreds of milliseconds.  The eigensolves run on scipy (`eigvalsh` of
the Schur complements' pencils and of a gridless block), so the package's
other dense operations go through scipy as well: `matvec`, `gram` (the
Schur complements' inner products of rows) and `scipy.linalg`.  The torus's
4 x 4 mode blocks, the orbit tangents' Ritz matrix (one row and column per
symmetry) and a coupled block's 2 x 2 pointwise couplings are the
exceptions: numpy's `eigvalsh` solves them, and so small a problem starts
no BLAS thread.

The profile and slope solves build no matrix: `minres` solves a symmetric,
possibly indefinite, operator given as a function, with a positive diagonal
preconditioner (Paige & Saunders 1975), and `block_cg` a positive definite
one for many right-hand sides at once (the high modes of a Schur
complement), each of whose rows may interleave independent systems
(sectors: the cosine and sine rows that an even Schur complement packs
into one transform), each with its own step lengths and stop.  Both are
written here, with their inner products as elementwise sums, so that they
call no BLAS at all.  Each stops at the accuracy its caller asks for:
`minres` at a relative residual `rtol` (MINRES_RTOL unless a Newton step
asks for less), `block_cg` at an absolute residual norm `tol` per row and
sector.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import blas

__all__ = ["SolverError", "block_cg", "gram", "matvec", "minres"]

# MINRES stops by default when the preconditioned residual norm falls to
# MINRES_RTOL of the right-hand side's, and fails after MINRES_MAXITER
# iterations; block CG fails after CG_MAXITER.
MINRES_RTOL = 1e-12
MINRES_MAXITER = 500
CG_MAXITER = 200


class SolverError(RuntimeError):
    """A Newton, continuation or inner linear solve that did not converge."""


def matvec(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a @ x for a real matrix a and vector x (a C-ordered a is not copied)."""
    return blas.dgemv(1.0, a.T, x, trans=1)


def gram(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b.T for real C-ordered matrices a (k x n) and b (l x n): the inner
    products of their rows (neither is copied)."""
    return blas.dgemm(1.0, a.T, b.T, trans_a=1)


def minres(apply, b: np.ndarray, precond: np.ndarray, rtol: float = MINRES_RTOL) -> np.ndarray:
    """x with apply(x) = b, for apply a symmetric operator on arrays of b's
    shape, preconditioned by the positive array precond (the diagonal M, so
    M^-1 r = r / precond).  It stops when the residual, in the M^-1 norm,
    falls to rtol of b's.  Raises SolverError naming the iterations and that
    relative residual when it does not converge."""
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
        if phibar <= rtol * beta1:
            return x
    raise SolverError(f"MINRES did not converge in {MINRES_MAXITER} iterations "
                      f"(relative residual {phibar / beta1:.3e})")


def block_cg(apply, b: np.ndarray, precond: np.ndarray, x0: np.ndarray, tol: float,
             sectors: int = 1) -> tuple:
    """x with apply(x) = b for each row of b (its leading axis), apply a
    symmetric positive definite operator on each row, acting on all rows at
    once (its result may be a buffer that its next call overwrites):
    preconditioned CG run on every row together from x0, with the positive
    array precond (broadcast against b) as the diagonal M, M^-1 r = r /
    precond.  The last axis may interleave `sectors` systems that apply and
    precond never mix (slot i is in sector i % sectors): each (row, sector)
    then keeps its own step lengths, as a row of its own would.  Returns (x,
    the residual b - apply(x), iterations).  A (row, sector) whose residual
    norm has fallen to tol stops moving; raises SolverError naming the
    iterations and the largest residual norm when they do not all get there."""
    rows, width = len(b), b.shape[-1]

    def dots(u, v):
        """(rows, sectors): the inner products of u's and v's rows, sector by
        sector."""
        u, v = u.reshape(rows, -1, sectors), v.reshape(rows, -1, sectors)
        return np.stack([np.einsum("ij,ij->i", u[..., s], v[..., s]) for s in range(sectors)],
                        axis=1)

    def sized(coef):
        """(rows, sectors) coefficients spread over the slots of b's rows:
        tiled, so that the products below run over contiguous slots."""
        return np.tile(coef, width // sectors).reshape((rows,) + (1,) * (b.ndim - 2) + (width,))

    # the iterates are updated in place: each new array costs page faults
    x = x0.copy()
    r = b - apply(x)
    p = r / precond
    step = np.empty_like(b)
    rz = dots(r, p)
    for itn in range(CG_MAXITER + 1):
        rnorm = np.sqrt(dots(r, r))
        active = rnorm > tol
        if not np.any(active):
            return x, r, itn
        if itn == CG_MAXITER:
            break
        ap = apply(p)
        alpha = sized(np.divide(rz, dots(p, ap), out=np.zeros_like(rz), where=active))
        x += np.multiply(alpha, p, out=step)
        r -= np.multiply(alpha, ap, out=step)
        z = np.divide(r, precond, out=step)
        rz_next = dots(r, z)
        p *= sized(np.divide(rz_next, rz, out=np.zeros_like(rz), where=active))
        p += z
        rz = rz_next
    raise SolverError(f"block CG did not converge in {CG_MAXITER} iterations "
                      f"(residual {np.max(rnorm):.3e}, tolerance {tol:.3e})")
