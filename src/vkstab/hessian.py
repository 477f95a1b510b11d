"""Constrained-energy gradients and the Hessian, held in the coordinates
where it splits.

For each model the second variation of L_xi = H - xi . F at an equilibrium
is described by its diagonal blocks, acting on consecutive slices of the
stacked (Re, Im) components, and no block is held as an n x n matrix.  On the
line the blocks are [L+, L-] for the single soliton and [L+ (both
components), L-11, L-22] for the coupled soliton, each -d2 minus a pointwise
coupling (`model.Pointwise`).  The torus wave has one block-circulant block,
held as one 4 x 4 block per Fourier mode (`model.FourierModes`).  Without a
grid (the so3 orbit) a block is a dense matrix.  Boosted solitons are
handled by conjugating with the gauge phase exp(i c x / 2), so spectra are
boost-independent.

`spectrum` eigensolves parts, never the whole operator, and holds one part
in memory at a time.  A line block of an even rest profile (decided on the
profile) splits into an even part (n/2 + 1 points per component) and an odd
part (n/2 - 1), each written from the Fourier symbol's first column
(`spectral.even_part`, `spectral.odd_part`); a block of a profile that is
not even, and a dense block, is one whole part.  Each part is built, reduced
in place to tridiagonal form by Householder reflections (LAPACK `dsytrd`),
queried and dropped.  The tridiagonal gives the part's top eigenvalue (for
the spectral radius) and its low end by bisection (`dstebz`), and the
eigenvectors near 0 by inverse iteration (`dstein`) mapped back through the
reflections (`dormqr`), as `dsyevr` does in one call.  Those vectors are
taken before the part is dropped, for every eigenvalue within 2e-6 of a
Gershgorin bound on the spectral radius: every kernel eigenvalue is among
them, whatever the kernel tolerance turns out to be.  The torus block gives
every eigenvalue at once, from its 4 x 4 mode blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple, Optional

import numpy as np
import scipy.linalg
from scipy.linalg import lapack

from .core import Field, Grid
from .model import FourierModes, Pointwise, field_to_vec, model_for, vec_to_field
from .profiles import Profile, boost
from .spectral import even_part, even_scale, kinetic_column, odd_part, unfold, whole_part

__all__ = [
    "HessOp",
    "SpectralReport",
    "grad_L",
    "assemble",
    "spectrum",
    "lowest_eigenvalues",
    "kernel_matches_orbit",
]

KERNEL_ANGLE_TOL = 1e-5     # largest principal angle between kernel and orbit tangents
LOW_SUBSET = 12             # eigenvalues first taken from the low end of each part

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

    A block is a `model.Pointwise` or a `model.FourierModes` on the grid, or a
    dense matrix when there is no grid.  The blocks act on consecutive slices
    of stacked real vectors [Re u_1, .., Im u_1, ..] in the gauge-rotated
    frame; `phase` carries the frame change for boosted profiles (identity
    when c = 0).
    """

    blocks: tuple
    grid: Optional[Grid]              # None: a finite-dimensional system
    symmetry_tangent: np.ndarray      # rows: tangent vectors in real coords
    phase: Optional[np.ndarray]

    def __post_init__(self):
        for block in self.blocks:
            _data(block).setflags(write=False)
        self.symmetry_tangent.setflags(write=False)

    @property
    def dimension(self) -> int:
        return sum(_dimension(block) for block in self.blocks)

    def field_to_vec(self, f: Field) -> np.ndarray:
        return field_to_vec(f, self.phase)

    def vec_to_field(self, v: np.ndarray) -> Field:
        return vec_to_field(v, self.grid, self.phase)

    def tangent_fields(self) -> list:
        return [self.vec_to_field(t) for t in self.symmetry_tangent]


def _data(block) -> np.ndarray:
    """The array a block is held as."""
    return block if isinstance(block, np.ndarray) else block[0]


def _dimension(block) -> int:
    return block.shape[0] if isinstance(block, np.ndarray) else block.dimension


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
    parts: tuple                     # (dimension, "even" | "odd" | "whole" | "mode m") per part

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


def _even_scale(c: int, n: int) -> np.ndarray:
    """sqrt of the number of grid points each half-grid point stands for."""
    return np.tile(even_scale(n), c)


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
        """a (symmetric, C-ordered) reduced in place: c is a's storage."""
        lwork, _ = lapack.dsytrd_lwork(a.shape[0], lower=1)
        # a is symmetric, so its transpose is the same matrix in Fortran order
        c, d, e, tau, info = lapack.dsytrd(a.T, lower=1, lwork=int(lwork), overwrite_a=1)
        if info != 0:
            raise np.linalg.LinAlgError(f"dsytrd failed (info {info})")
        return cls(c, d, e, tau)

    @property
    def size(self) -> int:
        return self.d.size

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


class _ModeSpectrum:
    """The eigen-decomposition of a `FourierModes` block, with the queries
    of `_Tridiagonal`: every eigenvalue ascending, those of each mode
    0 < m < n/2 twice (the cos and the sin copy)."""

    def __init__(self, modes: np.ndarray):
        self.modes = modes
        vals = np.linalg.eigvalsh(modes)
        values = np.concatenate([vals.ravel(), vals[1:-1].ravel()])   # the sin copies
        order = np.argsort(values, kind="stable")
        self.values = values[order]
        # each value is eigenvalue j of mode m, at m * b + j, in its cos (0)
        # or sin (1) copy
        b, size = modes.shape[1], vals.size
        self._which = np.concatenate([np.arange(size), np.arange(b, size - b)])[order]
        self._copy = np.repeat([0, 1], [size, values.size - size])[order]

    @property
    def size(self) -> int:
        return self.values.size

    def eigenvalues(self, lo: int, hi: int) -> np.ndarray:
        return self.values[lo:hi + 1]

    def eigenvectors(self, lo: int, hi: int) -> np.ndarray:
        """Columns: the eigenvectors lo..hi in block coordinates, each mode
        eigenvector (p, q) written out as the fields of `FourierModes`,
        normalized."""
        h, b, _ = self.modes.shape
        n = 2 * (h - 1)
        theta = 2.0 * np.pi / n * np.arange(n)
        cols = []
        for which, copy in zip(self._which[lo:hi + 1], self._copy[lo:hi + 1]):
            m, j = divmod(int(which), b)
            y = np.linalg.eigh(self.modes[m])[1][:, j]
            cos, sin = np.cos(m * theta), np.sin(m * theta)
            if m in (0, h - 1):
                vec = np.outer(y, cos) / np.sqrt(n)
            else:
                re, im = (cos, -sin) if copy == 0 else (sin, cos)
                vec = np.sqrt(2.0 / n) * np.concatenate([np.outer(y[:b // 2], re),
                                                         np.outer(y[b // 2:], im)])
            cols.append(vec.ravel())
        return np.array(cols).T


class _Part(NamedTuple):
    """One eigensolve: a line block, or its even or odd part; a dense block;
    or the Fourier modes of a block-circulant block.  Nothing is built
    until `solve`."""

    offset: int          # of the block in the stacked real coordinates
    components: int      # n-point grids the block acts on (for modes: b)
    n: int               # grid points (the block's dimension when there is no grid)
    kind: str            # "even" | "odd" | "whole" | "modes"
    dimension: int
    bound: float         # on the block's spectral radius: its largest absolute row sum
    build: Callable[[], np.ndarray]     # a new array: the part's matrix, or the modes

    def solve(self):
        """The part built and reduced, as a `_Tridiagonal` or `_ModeSpectrum`."""
        if self.kind == "modes":
            return _ModeSpectrum(self.build())
        return _Tridiagonal.reduce(self.build())

    def entries(self) -> list:
        """(dimension, kind) of the part, or of each of its modes."""
        if self.kind != "modes":
            return [(self.dimension, self.kind)]
        h = self.n // 2 + 1
        return [(self.components * (1 if m in (0, h - 1) else 2), f"mode {m}")
                for m in range(h)]

    def lift(self, y: np.ndarray) -> np.ndarray:
        """Rows y of part coordinates as rows of block coordinates."""
        c, n = self.components, self.n
        if self.kind in ("whole", "modes"):
            return y
        h = n // 2 + 1
        if self.kind == "even":
            return unfold((y / _even_scale(c, n)).reshape(-1, c, h)).reshape(-1, c * n)
        half = y.reshape(-1, c, h - 2) / np.sqrt(2.0)
        v = np.zeros((len(y), c, n))
        v[..., 1:h - 1] = half
        v[..., h:] = -half[..., ::-1]
        return v.reshape(-1, c * n)


def _parts(blocks, grid: Optional[Grid]) -> list:
    col = None if grid is None else kinetic_column(grid)
    parts, offset = [], 0
    for block in blocks:
        if isinstance(block, Pointwise):
            c, _, n = block.coupling.shape
            h = n // 2 + 1
            bound = float(np.sum(np.abs(col)) + np.max(np.sum(np.abs(block.coupling), axis=1)))
            part = partial(_Part, offset, c, n, bound=bound)
            if block.even:
                parts += [part("even", c * h, build=partial(even_part, col, block.coupling)),
                          part("odd", c * (h - 2), build=partial(odd_part, col, block.coupling))]
            else:
                parts.append(part("whole", c * n, build=partial(whole_part, col, block.coupling)))
        else:
            data = _data(block)
            bound = float(np.max(np.sum(np.abs(data), axis=-1)))
            if isinstance(block, FourierModes):
                parts.append(_Part(offset, data.shape[1], grid.n, "modes", block.dimension, bound,
                                   lambda data=data: data))
            else:
                parts.append(_Part(offset, 1, len(data), "whole", len(data), bound, data.copy))
        offset += _dimension(block)
    return parts


def _low_end(part: _Part, want: int, vec_tol: float, dimension: int) -> tuple:
    """(top eigenvalue, low end, eigenvalues within vec_tol of 0, their
    eigenvectors as rows of the whole operator's coordinates) of one part,
    built, reduced and dropped here.  The low end holds the `want` lowest
    eigenvalues, doubled until it passes vec_tol or the part is exhausted."""
    red = part.solve()
    top = float(red.eigenvalues(red.size - 1, red.size - 1)[0])
    vals = red.eigenvalues(0, want - 1)
    while vals[-1] <= vec_tol and vals.size < red.size:
        vals = red.eigenvalues(0, 2 * vals.size - 1)
    near = np.flatnonzero(np.abs(vals) <= vec_tol)       # one run: vals ascend
    rows = np.zeros((near.size, dimension))
    if near.size:
        lifted = part.lift(red.eigenvectors(near[0], near[-1]).T)
        rows[:, part.offset:part.offset + lifted.shape[1]] = lifted
    return top, vals, vals[near], rows


def spectrum(op: HessOp, n_eigs: int = 12) -> SpectralReport:
    """Classify the low end of the Hessian's spectrum.

    Parts are solved one at a time.  Each gives at least its LOW_SUBSET
    lowest eigenvalues, and doubles that until its largest computed
    eigenvalue is above 2e-6 of the Gershgorin bound (so above the kernel
    tolerance) or the part is exhausted, so the negative, kernel and first
    positive eigenvalues are all computed whatever n_eigs, which only trims
    `eigenvalues`.  Eigenvectors are computed for the eigenvalues below that
    bound only, and kept for the kernel eigenvalues."""
    if n_eigs < 0:
        raise ValueError(f"n_eigs must not be negative (got {n_eigs})")
    parts = _parts(op.blocks, op.grid)
    vec_tol = 2e-6 * max(p.bound for p in parts)
    tops, lows, near_vals, near_rows = zip(
        *[_low_end(p, max(LOW_SUBSET, n_eigs), vec_tol, op.dimension) for p in parts])

    eigvals = np.sort(np.concatenate(lows))
    radius = max(max(tops), -eigvals[0])
    ker_tol = 1e-6 * radius
    above = eigvals[eigvals > ker_tol]
    near_vals = np.concatenate(near_vals)
    ker = np.abs(near_vals) <= ker_tol
    order = np.argsort(near_vals[ker], kind="stable")
    # the factor by which the kernel eigenvalues clear ker_tol from below,
    # and the negative ones from above; an eigenvalue is known only to
    # eps times the spectral radius, so one computed as 0 clears it by
    # ker_tol / (eps radius)
    kernel = np.abs(eigvals[np.abs(eigvals) <= ker_tol])
    below = eigvals[eigvals < -ker_tol]
    floor = max(kernel.max(initial=0.0), np.finfo(float).eps * radius)
    kernel_margin = min(ker_tol / floor if kernel.size and floor else np.inf,
                        -below.max() / ker_tol if below.size else np.inf)
    return SpectralReport(
        eigenvalues=eigvals[:n_eigs].copy(),
        n_neg=int(np.sum(eigvals < -ker_tol)),
        dim_ker=int(order.size),
        gap_pos=float(above[0]) if above.size else np.inf,
        ker_tol=ker_tol,
        kernel_margin=float(kernel_margin),
        kernel_vectors=np.concatenate(near_rows)[ker][order],
        parts=tuple(entry for p in parts for entry in p.entries()),
    )


def lowest_eigenvalues(prof: Profile, count: int) -> np.ndarray:
    """The `count` lowest eigenvalues of the Hessian at an equilibrium,
    ascending: each part's low end only, with no top eigenvalue, no
    eigenvectors and no orbit tangents."""
    _check_equilibrium(prof)
    blocks = model_for(prof.model, prof.grid).hessian(prof)
    lows = [p.solve().eigenvalues(0, count - 1) for p in _parts(blocks, prof.grid)]
    return np.sort(np.concatenate(lows))[:count]


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
