"""Constrained-energy gradients and discretized Hessian operators.

For each model the second variation of L_xi = H - xi . F at an equilibrium is
assembled as its dense real symmetric diagonal blocks, acting on consecutive
slices of the stacked (Re, Im) components: [L+, L-] for the single soliton,
[L+ (both components), L-11, L-22] for the coupled soliton and one block for
the torus wave.  Boosted solitons are handled by conjugating with the gauge
phase exp(i c x / 2), so spectra are boost-independent.

`spectrum` eigensolves parts, never the whole operator.  A block that commutes
with the grid reflection j -> -j (mod n, per component), as every block of an
even profile does, splits into an even part (n/2 + 1 points per component)
and an odd part (n/2 - 1), both cut from the block by index slicing; any
other block, and every block of an operator without a grid, is one whole
part.  Each part is reduced once to tridiagonal form by Householder
reflections (LAPACK `dsytrd`), and every query is answered from that one
tridiagonal: its top eigenvalue (for the spectral radius) and its low end by
bisection (`dstebz`), the kernel eigenvectors by inverse iteration (`dstein`)
mapped back through the reflections (`dormqr`), as `dsyevr` does in one call.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np
import scipy.linalg
from scipy.linalg import lapack

from .core import Field, Grid
from .linalg import matvec
from .model import field_to_vec, model_for, vec_to_field
from .profiles import Profile, boost
from .spectral import even_scale, fold, unfold

__all__ = [
    "HessOp",
    "SpectralReport",
    "grad_L",
    "assemble",
    "spectrum",
    "kernel_matches_orbit",
]

KERNEL_ANGLE_TOL = 1e-5     # largest principal angle between kernel and orbit tangents
LOW_SUBSET = 12             # eigenvalues first taken from the low end of each part
PARITY_TOL = 1e-13          # relative to the largest entry: a block commutes with j -> -j

# The residual is taken in the rest frame, where `assemble` builds the
# Hessian: undoing the boost removes the gauge phase, which is discontinuous
# across the truncated-line wrap and would add a spurious residual of the
# boundary amplitude times the Nyquist wavenumber squared.  The closed-form
# profiles (`soliton_explicit`, `coupled_soliton`) are not refined on the
# grid and keep a truncation residual at the line ends (8e-7 at R = 20,
# n = 2048), so the gate stays well above the Newton tolerance of the solvers.
EQUILIBRIUM_TOL = 1e-5


def grad_L(field: Field, model, xi) -> Field:
    """L2-gradient of the constrained energy H - xi . F at an arbitrary field."""
    return model_for(model, field.grid).grad_L(field, np.asarray(xi, dtype=float))


@dataclass(frozen=True)
class HessOp:
    """Real-symmetric Hessian, held as its diagonal blocks, with its
    symmetry-orbit tangent vectors.

    The blocks act on consecutive slices of stacked real vectors [Re u_1, ..,
    Im u_1, ..] in the gauge-rotated frame; `phase` carries the frame change
    for boosted profiles (identity when c = 0).
    """

    blocks: tuple
    grid: Optional[Grid]              # None: a finite-dimensional system
    symmetry_tangent: np.ndarray      # rows: tangent vectors in real coords
    phase: Optional[np.ndarray]

    def __post_init__(self):
        for block in self.blocks:
            block.setflags(write=False)
        self.symmetry_tangent.setflags(write=False)

    @property
    def matrix(self) -> np.ndarray:
        """The dense block-diagonal matrix, built on each access."""
        return scipy.linalg.block_diag(*self.blocks)

    @property
    def dimension(self) -> int:
        return sum(block.shape[0] for block in self.blocks)

    def field_to_vec(self, f: Field) -> np.ndarray:
        return field_to_vec(f, self.phase)

    def vec_to_field(self, v: np.ndarray) -> Field:
        return vec_to_field(v, self.grid, self.phase)

    def apply(self, f: Field) -> Field:
        v = self.field_to_vec(f)
        cuts = np.cumsum([block.shape[0] for block in self.blocks])[:-1]
        hv = [matvec(block, part) for block, part in zip(self.blocks, np.split(v, cuts))]
        return self.vec_to_field(np.concatenate(hv))

    def tangent_fields(self) -> list:
        return [self.vec_to_field(t) for t in self.symmetry_tangent]


@dataclass(frozen=True)
class SpectralReport:
    """Spectrum classification of a Hessian operator."""

    eigenvalues: np.ndarray          # lowest n_eigs
    n_neg: int
    dim_ker: int
    gap_pos: float
    ker_tol: float
    kernel_margin: float             # factor (>= 1) by which the eigenvalues by 0 clear ker_tol
    kernel_vectors: np.ndarray       # rows: real coordinate vectors
    parts: tuple                     # (dimension, "even" | "odd" | "whole") per eigensolve
    part_matrices: tuple = dataclasses.field(repr=False, compare=False)

    @cached_property
    def all_eigenvalues(self) -> np.ndarray:
        """The whole spectrum, ascending: every eigenvalue of every part."""
        return np.sort(np.concatenate(
            [scipy.linalg.eigvalsh(a) for a in self.part_matrices]))

    def to_dict(self) -> dict:
        return {
            "eigenvalues": self.eigenvalues.tolist(),
            "n_neg": self.n_neg,
            "dim_ker": self.dim_ker,
            "gap_pos": self.gap_pos,
            "ker_tol": self.ker_tol,
            "parts": [list(p) for p in self.parts],
        }


def _check_equilibrium(prof: Profile) -> None:
    rest = boost(prof, -prof.c)
    g = grad_L(rest.field, rest.model, rest.xi)
    res = float(np.max(np.abs(g.values)))
    if res > EQUILIBRIUM_TOL:
        raise ValueError(f"profile is not an equilibrium (residual {res:.3e})")


def assemble(prof: Profile) -> HessOp:
    """Second variation of L_xi at an equilibrium profile."""
    _check_equilibrium(prof)
    model = model_for(prof.model, prof.grid)
    tangents, phase = model.tangents(prof)
    return HessOp(tuple(model.hessian(prof)), prof.grid, tangents, phase)


def _is_even(block: np.ndarray, c: int, n: int) -> bool:
    """True iff the block on c stacked n-point grids equals P block P, P the
    reflection j -> -j (mod n) of each grid.  Rows 0..n/2 decide it (the
    other rows are their mirrors), compared on reversed views: row 0 and
    column 0 are their own mirrors, rows and columns j >= 1 mirror to n - j."""
    tol = PARITY_TOL * max(block.max(), -block.min())
    b4 = block.reshape(c, n, c, n)
    h = n // 2 + 1
    rows, mirrors = b4[:, 1:h], b4[:, ::-1][:, :h - 1]      # rows j and n - j
    return bool(max(np.max(np.abs(b4[:, 0, :, 1:] - b4[:, 0, :, :0:-1])),
                    np.max(np.abs(rows[..., 0] - mirrors[..., 0])),
                    np.max(np.abs(rows[..., 1:] - mirrors[..., :0:-1]))) <= tol)


def _even_scale(c: int, n: int) -> np.ndarray:
    """sqrt of the number of grid points each half-grid point stands for."""
    return np.tile(even_scale(n), c)


def _even_part(block: np.ndarray, c: int, n: int) -> np.ndarray:
    """The block on the orthonormal even basis e_0, e_n/2 and
    (e_j + e_{n-j}) / sqrt(2): the fold, symmetrized by the point weights."""
    s = _even_scale(c, n)
    return s[:, None] * fold(block, c) / s[None, :]


def _odd_part(block: np.ndarray, c: int, n: int) -> np.ndarray:
    """The block on the orthonormal odd basis (e_j - e_{n-j}) / sqrt(2),
    j = 1..n/2-1: rows and columns 1..n/2-1 minus the mirrored columns."""
    h = n // 2 + 1
    rows = block.reshape(c, n, c, n)[:, 1:h - 1]
    return (rows[..., 1:h - 1] - rows[..., h:][..., ::-1]).reshape(c * (h - 2), c * (h - 2))


def _lift(kind: str, y: np.ndarray, c: int, n: int) -> np.ndarray:
    """Rows y of part coordinates as rows of block coordinates."""
    if kind == "whole":
        return y
    h = n // 2 + 1
    if kind == "even":
        return unfold((y / _even_scale(c, n)).reshape(-1, c, h)).reshape(-1, c * n)
    half = y.reshape(-1, c, h - 2) / np.sqrt(2.0)
    v = np.zeros((len(y), c, n))
    v[..., 1:h - 1] = half
    v[..., h:] = -half[..., ::-1]
    return v.reshape(-1, c * n)


class _Part(NamedTuple):
    """One eigensolve: a block, or its even or odd part."""

    offset: int          # of the block in the stacked real coordinates
    components: int      # n-point grids the block acts on
    n: int               # grid points (the block's dimension when there is no grid)
    kind: str            # "even" | "odd" | "whole"
    matrix: np.ndarray


def _parts(op: HessOp) -> list:
    parts, offset = [], 0
    for block in op.blocks:
        n = block.shape[0] if op.grid is None else op.grid.n
        c = block.shape[0] // n
        if op.grid is not None and _is_even(block, c, n):
            parts.append(_Part(offset, c, n, "even", _even_part(block, c, n)))
            parts.append(_Part(offset, c, n, "odd", _odd_part(block, c, n)))
        else:
            parts.append(_Part(offset, c, n, "whole", block))
        offset += block.shape[0]
    return parts


class _Tridiagonal(NamedTuple):
    """A part reduced to T = Q^T a Q by Householder reflections (LAPACK
    `dsytrd`, lower): T's diagonal d and off-diagonal e, and Q as its
    reflectors (below the subdiagonal of c) and their factors tau."""

    c: np.ndarray
    d: np.ndarray
    e: np.ndarray
    tau: np.ndarray

    @classmethod
    def reduce(cls, a: np.ndarray) -> "_Tridiagonal":
        lwork, _ = lapack.dsytrd_lwork(a.shape[0], lower=1)
        # a is symmetric, so its transpose is the same matrix in Fortran order
        c, d, e, tau, info = lapack.dsytrd(a.T, lower=1, lwork=int(lwork))
        if info != 0:
            raise np.linalg.LinAlgError(f"dsytrd failed (info {info})")
        return cls(c, d, e, tau)

    def eigenvalues(self, lo: int, hi: int) -> np.ndarray:
        """Eigenvalues lo..hi (0-based, ascending, clipped to T's dimension)."""
        hi = min(hi, self.d.size - 1)
        return scipy.linalg.eigh_tridiagonal(self.d, self.e, eigvals_only=True, select="i",
                                             select_range=(lo, hi), lapack_driver="stebz")

    def eigenvectors(self, lo: int, hi: int) -> np.ndarray:
        """Columns: the eigenvectors lo..hi of a, by inverse iteration on T
        mapped back by Q (`dormqr` on the reflectors is `dormtr` for lower)."""
        z = scipy.linalg.eigh_tridiagonal(self.d, self.e, select="i", select_range=(lo, hi),
                                          lapack_driver="stebz")[1]
        n = self.d.size
        if n > 1:       # Q = 1 on a 1 x 1 part, which has no reflectors
            z[1:], _, info = lapack.dormqr(b"L", b"N", self.c[1:, :n - 1], self.tau, z[1:],
                                           lwork=max(1, z.shape[1]))
            if info != 0:
                raise np.linalg.LinAlgError(f"dormqr failed (info {info})")
        return z


def spectrum(op: HessOp, n_eigs: int = 12) -> SpectralReport:
    """Classify the low end of the Hessian's spectrum.

    Each part is reduced to tridiagonal form once.  It gives at least its
    LOW_SUBSET lowest eigenvalues, and doubles that until its largest computed
    eigenvalue is above the kernel tolerance or the part is exhausted, so the
    negative, kernel and first positive eigenvalues are all computed whatever
    n_eigs, which only trims `eigenvalues`.  Eigenvectors are computed for the
    kernel eigenvalues only."""
    if n_eigs < 0:
        raise ValueError(f"n_eigs must not be negative (got {n_eigs})")
    parts = _parts(op)
    tri = [_Tridiagonal.reduce(p.matrix) for p in parts]
    top = max(float(t.eigenvalues(t.d.size - 1, t.d.size - 1)[0]) for t in tri)
    low = [t.eigenvalues(0, max(LOW_SUBSET, n_eigs) - 1) for t in tri]
    while True:
        ker_tol = 1e-6 * max(top, -min(vals[0] for vals in low))
        short = [i for i, vals in enumerate(low)
                 if vals[-1] <= ker_tol and vals.size < tri[i].d.size]
        if not short:
            break
        for i in short:
            low[i] = tri[i].eigenvalues(0, 2 * low[i].size - 1)

    eigvals = np.sort(np.concatenate(low))
    above = eigvals[eigvals > ker_tol]
    kernel_vals, kernel_vectors = [np.zeros(0)], [np.zeros((0, op.dimension))]
    for p, t, vals in zip(parts, tri, low):
        ker = np.flatnonzero(np.abs(vals) <= ker_tol)      # one run: vals ascend
        if ker.size:
            rows = _lift(p.kind, t.eigenvectors(ker[0], ker[-1]).T, p.components, p.n)
            full = np.zeros((len(rows), op.dimension))
            full[:, p.offset:p.offset + rows.shape[1]] = rows
            kernel_vals.append(vals[ker])
            kernel_vectors.append(full)
    order = np.argsort(np.concatenate(kernel_vals), kind="stable")
    # the factor by which the kernel eigenvalues clear ker_tol from below,
    # and the negative ones from above
    kernel = np.abs(eigvals[np.abs(eigvals) <= ker_tol])
    below = eigvals[eigvals < -ker_tol]
    kernel_margin = min(ker_tol / kernel.max() if kernel.any() else np.inf,
                        -below.max() / ker_tol if below.size else np.inf)
    return SpectralReport(
        eigenvalues=eigvals[:n_eigs].copy(),
        n_neg=int(np.sum(eigvals < -ker_tol)),
        dim_ker=int(order.size),
        gap_pos=float(above[0]) if above.size else np.inf,
        ker_tol=ker_tol,
        kernel_margin=float(kernel_margin),
        kernel_vectors=np.concatenate(kernel_vectors)[order],
        parts=tuple((p.matrix.shape[0], p.kind) for p in parts),
        part_matrices=tuple(p.matrix for p in parts),
    )


def kernel_matches_orbit(rep: SpectralReport, op: HessOp) -> bool:
    """True iff the numerical kernel coincides with the orbit tangent space,
    to KERNEL_ANGLE_TOL in the largest principal angle."""
    n_sym = op.symmetry_tangent.shape[0]
    if rep.dim_ker != n_sym:
        return False
    if n_sym == 0:
        return True
    angles = scipy.linalg.subspace_angles(rep.kernel_vectors.T, op.symmetry_tangent.T)
    return bool(np.max(angles) <= KERNEL_ANGLE_TOL)
