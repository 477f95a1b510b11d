"""Spectral differentiation by FFT, even functions on the half grid, and the
real Fourier coordinates the line solves and eigensolves work in.

Every line Hessian block is K (x) I_c - M(x): the circulant K = -D2 of the
symbol k^2 on each of c components, minus a pointwise symmetric coupling M
(c x c x n).  No such block is built as a matrix: `second_derivative`
applies D2 by a real FFT, `fourier_solve` solves -d2 - omega - J by MINRES
in Fourier coordinates (on the even functions, or on the whole grid for a
profile that is not even, in the orthonormal real Fourier coordinates of
`whole_coordinates`), and the Hessian's Schur complements
(`hessian._Complement`) split those coordinates into low and high modes.
The dense D1 and D2 stay as public functions, built from K's first column
(`kinetic_column`); the package itself calls neither.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import scipy.linalg

from .core import Grid
from .linalg import MINRES_RTOL, minres


def kinetic_column(grid: Grid) -> np.ndarray:
    """The first column of the circulant K = -D2, ifft(k^2), made exactly
    even under m -> -m (mod n): K is then exactly symmetric and commutes
    with the reflection j -> -j."""
    col = np.real(np.fft.ifft(grid.wavenumbers ** 2))
    return 0.5 * (col + col[-np.arange(grid.n) % grid.n])


def _circulant(col: np.ndarray) -> np.ndarray:
    """The dense circulant with first column col: entry (i, j) = col[(i - j) % n]."""
    return scipy.linalg.circulant(col)


def first_derivative_matrix(grid: Grid) -> np.ndarray:
    """The dense D1, built from ifft(i k) made exactly odd, so that D1 is
    exactly antisymmetric; built on each call."""
    col = np.real(np.fft.ifft(1j * grid.deriv_wavenumbers()))
    return _circulant(0.5 * (col - col[-np.arange(grid.n) % grid.n]))


def second_derivative_matrix(grid: Grid) -> np.ndarray:
    """The dense D2 = -K, exactly symmetric; built on each call."""
    return _circulant(-kinetic_column(grid))


# `unfold`'s index and `even_scale` depend on the size alone, and every
# Newton and slope solve reads them: each is built once per size, read-only
@lru_cache(maxsize=16)
def _unfold_index(h: int) -> np.ndarray:
    index = np.r_[0:h, h - 2:0:-1]
    index.setflags(write=False)
    return index


def unfold(half: np.ndarray) -> np.ndarray:
    """The even full-grid vector(s) with the half-grid values `half` (last axis)."""
    return half[..., _unfold_index(half.shape[-1])]


@lru_cache(maxsize=16)
def even_scale(n: int) -> np.ndarray:
    """sqrt of the number of grid points each of the n/2 + 1 half-grid points
    (or cosine modes) of an even function stands for (read-only)."""
    scale = np.r_[1.0, np.full(n // 2 - 1, np.sqrt(2.0)), 1.0]
    scale.setflags(write=False)
    return scale


def first_derivative(v: np.ndarray, grid: Grid) -> np.ndarray:
    """D1 v for real v (last axis on the grid), by a real FFT; the Nyquist
    coefficient is dropped, as in the dense D1."""
    k = grid.deriv_wavenumbers()[:grid.n // 2 + 1]
    return np.fft.irfft(1j * k * np.fft.rfft(v), grid.n)


def second_derivative(v: np.ndarray, grid: Grid) -> np.ndarray:
    """D2 v for real v (last axis on the grid), by a real FFT, with -k^2
    scaling the transform's real view (the same values as the complex
    product, at a fraction of its cost)."""
    q = np.fft.rfft(v).view(float)
    q *= np.repeat(-grid.wavenumbers[:grid.n // 2 + 1] ** 2, 2)
    return np.fft.irfft(q.view(complex), grid.n)


def whole_coordinates(n: int) -> tuple:
    """(coords, values) for real vectors on an n-point grid (last axis): the
    orthonormal real Fourier coordinates (t rfft(v)).view(float), t =
    `even_scale(n)` / sqrt(n), with Re and Im interleaved (n + 2 of them, of
    which Im of modes 0 and n/2 are always 0), and the map back.  Each writes
    into `out` when given, and `values` takes q / t into `scratch` (q's
    shape) when given: a loop that reuses its arrays allocates nothing."""
    # scaled on the real view, with the products numpy's complex product and
    # quotient by a real t reduce to (the quotient multiplies by 1 / t), at a
    # fraction of their cost
    t = np.repeat(even_scale(n) / np.sqrt(n), 2)
    inv = 1.0 / t

    def coords(v, out=None):
        q = np.fft.rfft(v, out=None if out is None else out.view(complex)).view(float)
        q *= t
        return q

    def values(q, out=None, scratch=None):
        return np.fft.irfft(np.multiply(q, inv, out=scratch).view(complex), n, out=out)

    return coords, values


def fourier_solve(grid: Grid, omega, jac: np.ndarray, rhs: np.ndarray,
                  kernel=None, rtol: float = MINRES_RTOL) -> np.ndarray:
    """The y with (-d2 - omega_j) y_j - sum_k jac_jk y_k = rhs_j, for a
    pointwise symmetric coupling jac (c x c x n), rhs (c x n) and omega_j < 0
    (a float, or one per component), by MINRES in orthonormal Fourier
    coordinates preconditioned by the diagonal k^2 - omega_j; one real FFT
    pair per operator application.  Without `kernel`, jac, rhs and y are even
    about x = 0: the unknown is the cosine series s Re rfft(y) / sqrt(n), s =
    `even_scale(n)`, which excludes L+'s odd translation kernel phi'.  Else
    `kernel` (c x n) is that kernel at a profile that is not even, rhs and y
    are orthogonal to it, the unknown is the whole series (Re and Im
    interleaved), and |omega| times the projector onto the kernel, added to
    the operator, makes it regular.  MINRES stops at the relative residual
    rtol (a Newton step asks for less than the default)."""
    if not np.all(np.less(omega, 0.0)):
        raise ValueError(f"the Fourier solve needs every omega_j < 0 (got {omega})")
    n = grid.n
    h = n // 2 + 1
    whole = kernel is not None
    symbol = np.repeat(grid.wavenumbers[:h] ** 2 - np.reshape(omega, (-1, 1)), 1 + whole, axis=-1)
    if whole:
        coords, values = whole_coordinates(n)
        psi = coords(kernel)
        psi, shift = psi / np.sqrt(np.sum(psi * psi)), np.max(np.abs(omega))
    else:
        t = even_scale(n) / np.sqrt(n)

        def coords(v):
            return t * np.fft.rfft(v).real

        def values(q):
            return np.fft.irfft(q / t, n)

    def apply(q):
        out = symbol * q - coords(np.einsum("jkn,kn->jn", jac, values(q)))
        return out + (shift * np.sum(psi * q)) * psi if whole else out

    y = values(minres(apply, coords(rhs), symbol, rtol))
    return y if whole else unfold(y[..., :h])
