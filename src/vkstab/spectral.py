"""Dense spectral differentiation matrices and the even fold under x -> -x."""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import scipy.linalg

from .core import Grid


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
