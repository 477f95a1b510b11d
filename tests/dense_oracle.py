"""The dense Hessian, the oracle of the package's matrix-free one, and the
closed-form slope matrices.

The package never builds an n x n Hessian block: it writes each parity part
from the Fourier symbol and the torus mode by mode.  This module keeps the
dense construction it replaced, for the tests to check it against: D1 and D2
as circulant matrices, the dense L+, L- and torus blocks of every model, the
reflection check on a block, its even and odd parts cut by index slicing,
and the fold onto even functions.  The package also reads every slope matrix
from L+ solves; the closed forms of the single soliton and the torus wave
stay here as their oracles.
"""

import numpy as np
import scipy.linalg

from vkstab.model import _OFFSET_SIGNS, field_to_vec, model_for, vec_to_field


def diff_matrices(grid):
    """D1 and D2 as circulant matrices, entry (i, j) = col[(i - j) % n], from
    the columns ifft(i k) and ifft(-k^2) made exactly odd and even."""
    col1 = np.real(np.fft.ifft(1j * grid.deriv_wavenumbers()))
    col2 = np.real(np.fft.ifft(-grid.wavenumbers**2))
    mirror = -np.arange(grid.n) % grid.n
    return (scipy.linalg.circulant(0.5 * (col1 - col1[mirror])),
            scipy.linalg.circulant(0.5 * (col2 + col2[mirror])))


def fold(op, components=1):
    """Restrict an operator on `components` stacked n-point grids to the even
    subspace u_j = u_{n-j}: per n x n block, the rows 0..n/2 with each
    mirrored column added onto its representative."""
    n = op.shape[0] // components
    h = n // 2 + 1
    rows = op.reshape(components, n, components, n)[:, :h]
    half = rows[..., :h].copy()
    half[..., 1:n - h + 1] += rows[..., h:][..., ::-1]
    return half.reshape(components * h, components * h)


def lplus(model, phi, omega, d2):
    """L+ = -d2 - omega - J: -d2 - omega_j - J_jj on the diagonal blocks and
    -J_jk on the diagonals of the others."""
    jac = model.jacobian(phi)
    om = np.reshape(omega, -1)
    comps, n = phi.shape
    out = np.zeros((phi.size, phi.size))
    for j in range(comps):
        for k in range(comps):
            block = out[j * n:(j + 1) * n, k * n:(k + 1) * n]
            if j == k:
                block[...] = -d2
            block[np.diag_indices(n)] -= (om[j] if j == k else 0.0) + jac[j, k]
    return out


def blocks(prof):
    """The dense diagonal blocks of the Hessian at prof: [L+, L-_1, ..] of a
    line profile's rest frame, or the torus wave's one 4n x 4n block."""
    grid = prof.grid
    model = model_for(prof.model, grid)
    d1, d2 = diff_matrices(grid)
    if prof.is_torus:
        m = prof.model
        n = grid.n
        phi = model.rest_profile(prof)
        omega = prof.xi - m.beta * m.k**2
        d2, drift = m.beta * d2, 2.0 * m.beta * m.k * d1
        mat = np.zeros((4 * n, 4 * n))
        mat[:2 * n, :2 * n] = lplus(model, phi, omega, d2)
        for j, (sign, diag) in enumerate(zip(_OFFSET_SIGNS[:, 0],
                                             model._lminus_diagonals(phi, omega))):
            re, im = slice(j * n, (j + 1) * n), slice((2 + j) * n, (3 + j) * n)
            mat[im, im] = -d2 - np.diag(diag)
            mat[re, im] = sign * drift
            mat[im, re] = -sign * drift
        return [mat]
    phi, omega = model.rest_profile(prof), prof.omega
    return [lplus(model, phi, omega, d2)] + [
        -d2 - np.diag(diag) for diag in model._lminus_diagonals(phi, omega)]


def matrix(prof):
    return scipy.linalg.block_diag(*blocks(prof))


def apply(prof, f):
    """The dense Hessian applied to the field f, in the lab frame."""
    op_phase = None if prof.c == 0.0 else np.exp(0.5j * prof.c * prof.grid.nodes)
    return vec_to_field(matrix(prof) @ field_to_vec(f, op_phase), prof.grid, op_phase)


def is_even(block, c, n, tol=1e-13):
    """True iff the block on c stacked n-point grids equals P block P, P the
    reflection j -> -j (mod n) of each grid, to tol of its largest entry."""
    mirror = -np.arange(n) % n
    b4 = block.reshape(c, n, c, n)
    return bool(np.max(np.abs(b4[:, mirror][..., mirror] - b4))
                <= tol * np.max(np.abs(block)))


def even_part(block, c, n):
    """The block on the orthonormal even basis e_0, e_n/2 and
    (e_j + e_{n-j}) / sqrt(2): the fold, symmetrized by the point weights."""
    s = np.tile(np.r_[1.0, np.full(n // 2 - 1, np.sqrt(2.0)), 1.0], c)
    return s[:, None] * fold(block, c) / s[None, :]


def odd_part(block, c, n):
    """The block on the orthonormal odd basis (e_j - e_{n-j}) / sqrt(2),
    j = 1..n/2-1: rows and columns 1..n/2-1 minus the mirrored columns."""
    h = n // 2 + 1
    rows = block.reshape(c, n, c, n)[:, 1:h - 1]
    return (rows[..., 1:h - 1] - rows[..., h:][..., ::-1]).reshape(c * (h - 2), c * (h - 2))


def parts(prof):
    """(kind, matrix) of every eigensolve the dense path made: the even and
    odd part of each block that commutes with the reflection, else the block."""
    out = []
    n = prof.grid.n
    for block in blocks(prof):
        c = block.shape[0] // n
        if is_even(block, c, n):
            out += [("even", even_part(block, c, n)), ("odd", odd_part(block, c, n))]
        else:
            out.append(("whole", block))
    return out


def single_slope(prof):
    """-dF_0/domega of a 1D single soliton in its rest frame, by the scaling
    law d/domega int u^2 = (1/omega)(2/(p-1) - 1/2) int u^2."""
    mass = np.sum(model_for(prof.model, prof.grid).rest_profile(prof) ** 2) * prof.grid.spacing
    return -0.5 * (2.0 / (prof.model.p - 1.0) - 0.5) * mass / prof.omega


def torus_slope(params, length):
    """(L/2) C^-1, the slope matrix of the torus plane wave with coupling
    matrix C = [[alpha, delta], [delta, gamma]] on the period L."""
    det = params.alpha * params.gamma - params.delta**2
    return (length / (2.0 * det)) * np.array(
        [[params.gamma, -params.delta], [-params.delta, params.alpha]])
