"""Spectral differentiation, dense and by FFT, and the even fold under x -> -x.

The dense matrices D1 and D2 serve the assembled Hessians.  The profile and
slope solves use none: `second_derivative` applies D2 by a real FFT, and
`even_solve` solves -d2 - omega - J on even functions by MINRES in Fourier
coordinates.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import scipy.linalg

from .core import Grid
from .linalg import minres


@lru_cache(maxsize=32)
def _diff_matrices(kind: str, extent: float, n: int):
    """D1 and D2 as circulant matrices, entry (i, j) = col[(i - j) % n], built
    from their first columns ifft(i k) and ifft(-k^2).  Each column is made
    exactly odd (D1) or even (D2) under m -> -m (mod n), so D1 is exactly
    antisymmetric, D2 exactly symmetric (which keeps the assembled Hessians
    self-adjoint to roundoff), and the reflection j -> -j maps D1 to -D1 and
    D2 to itself exactly."""
    from .core import make_grid

    g = make_grid(kind, extent, n)
    col1 = np.real(np.fft.ifft(1j * g.deriv_wavenumbers()))
    col2 = np.real(np.fft.ifft(-g.wavenumbers**2))
    mirror = -np.arange(n) % n
    d1 = scipy.linalg.circulant(0.5 * (col1 - col1[mirror]))
    d2 = scipy.linalg.circulant(0.5 * (col2 + col2[mirror]))
    d1.setflags(write=False)
    d2.setflags(write=False)
    return d1, d2


def first_derivative_matrix(grid: Grid) -> np.ndarray:
    return _diff_matrices(grid.kind, grid.extent, grid.n)[0]


def second_derivative_matrix(grid: Grid) -> np.ndarray:
    return _diff_matrices(grid.kind, grid.extent, grid.n)[1]


def fold(op: np.ndarray, components: int = 1) -> np.ndarray:
    """Restrict an operator on `components` stacked n-point grids to the even
    subspace u_j = u_{n-j}: per n x n block, the rows 0..n/2 with each
    mirrored column added onto its representative."""
    n = op.shape[0] // components
    h = n // 2 + 1
    rows = op.reshape(components, n, components, n)[:, :h]
    half = rows[..., :h].copy()
    half[..., 1:n - h + 1] += rows[..., h:][..., ::-1]
    return half.reshape(components * h, components * h)


def unfold(half: np.ndarray) -> np.ndarray:
    """The even full-grid vector(s) with the half-grid values `half` (last axis)."""
    h = half.shape[-1]
    return half[..., np.r_[0:h, h - 2:0:-1]]


def even_scale(n: int) -> np.ndarray:
    """sqrt of the number of grid points each of the n/2 + 1 half-grid points
    (or cosine modes) of an even function stands for."""
    return np.r_[1.0, np.full(n // 2 - 1, np.sqrt(2.0)), 1.0]


def second_derivative(v: np.ndarray, grid: Grid) -> np.ndarray:
    """D2 v for real v (last axis on the grid), by a real FFT."""
    k2 = grid.wavenumbers[:grid.n // 2 + 1] ** 2
    return np.fft.irfft(-k2 * np.fft.rfft(v), grid.n)


def even_solve(grid: Grid, omega, jac: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """The even y with (-d2 - omega_j) y_j - sum_k jac_jk y_k = rhs_j, for a
    pointwise symmetric coupling jac (c x c x n) and rhs (c x n), both even
    about x = 0, and omega_j < 0 (a float, or one per component).

    The unknown is the cosine series of y, q = s * Re rfft(y) / sqrt(n) with
    s = `even_scale(n)`: coordinates in an orthonormal basis of the even
    functions, on which -d2 - omega_j is the positive diagonal k^2 - omega_j.
    That diagonal preconditions MINRES, and each operator application costs
    one real FFT pair.  Re rfft projects onto the even functions,
    (v + v[-j]) / 2, which also removes the odd translation kernel phi' of
    L+."""
    if not np.all(np.less(omega, 0.0)):
        raise ValueError(f"the even solve needs every omega_j < 0 (got {omega})")
    n = grid.n
    h = n // 2 + 1
    t = even_scale(n) / np.sqrt(n)      # q = t * Re rfft(y)
    symbol = grid.wavenumbers[:h] ** 2 - np.reshape(omega, (-1, 1))

    def apply(q):
        v = np.fft.irfft(q / t, n)
        return symbol * q - t * np.fft.rfft(np.einsum("jkn,kn->jn", jac, v)).real

    q = minres(apply, t * np.fft.rfft(rhs).real, symbol)
    return unfold(np.fft.irfft(q / t, n)[..., :h])
