"""Constrained-energy gradients and the Hessian, held in the coordinates
where it splits.

For each model the second variation of L_xi = H - xi . F at an equilibrium
is described by its diagonal blocks, acting on consecutive slices of the
stacked (Re, Im) components, and no block is held as an n x n matrix.  On the
line the blocks are [L+, L-] for the single soliton and [L+ (both
components), L-11, L-22] for the coupled soliton, each -d2 minus a pointwise
coupling (`model.Pointwise`).  The torus wave has one block-circulant block,
held as one 4 x 4 block per Fourier mode (`model.FourierModes`).  Without a
grid (the so3 orbit) a block is a dense matrix.  Boosted and phased
profiles are handled by conjugating with the model's gauge phase (the
boost's exp(i c x / 2) times each component's global phase), so spectra are
independent of both.  `HessOp.apply` applies the blocks with no matrix.

`spectrum` eigensolves parts, never the whole operator, and holds one part
in memory at a time.  A line block of an even rest profile (decided on the
profile) splits into an even part (n/2 + 1 points per component) and an odd
part (n/2 - 1), each written from the Fourier symbol's first column
(`spectral.even_part`, `spectral.odd_part`); a block of a profile that is
not even, and a dense block, is one whole part.  Each part is built, reduced
in place to tridiagonal form by Householder reflections (LAPACK `dsytrd`),
queried and dropped: the tridiagonal gives the part's top eigenvalue (for
the spectral radius) and, by bisection (`dstebz`), its low end up to the
first eigenvalue past the kernel tolerance, which is all the
classification reads; `n_eigs` adds only displayed eigenvalues.  The torus
block gives every eigenvalue at once, from its 4 x 4 mode blocks.  No
eigenvector is computed.

Whether the kernel is the orbit's tangent space (h2) is read from the
tangents themselves: their Ritz values and residual bound how close as many
eigenvalues lie to 0 (Kato-Temple) and the kernel's angle to them
(Davis-Kahan).

`eigenvalue` finds one eigenvalue (h3's gap on the doubled grid) by inertia,
with no part built.  A line block, written in the whole real Fourier basis,
splits into its low modes (A, m of them, m set by the window and the
coupling, not by n) and the rest (D, positive definite below the window's
top); Haynsworth's inertia additivity (1968) makes the count of eigenvalues
below sigma that of the m x m Schur complement A - sigma - B (D - sigma)^-1
B^T, whose D^-1 B^T block CG solves, preconditioned by the symbol k^2 -
sigma.  The block of an even profile never mixes cosines with sines, so
its complement splits into a cosine and a sine sector, and one real
transform carries a row of each.  A secant on the complement's eigenvalue
then reaches the eigenvalue itself.  The torus block's modes give theirs
directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple, Optional

import numpy as np
import scipy.linalg
from scipy.linalg import lapack

from .core import Field, Grid
from .linalg import SolverError, block_cg, gram, matvec
from .model import FourierModes, Pointwise, field_to_vec, model_for, vec_to_field
from .profiles import Profile, boost
from .spectral import (even_part, kinetic_column, odd_part, second_derivative, unfold,
                       whole_coordinates, whole_part)

__all__ = [
    "HessOp",
    "SpectralReport",
    "grad_L",
    "assemble",
    "spectrum",
    "Eigenvalue",
    "eigenvalue",
    "kernel_matches_orbit",
]

LOW_SUBSET = 2              # eigenvalues first bisected at the low end of each part
# `eigenvalue`'s secant stops at |mu_index(sigma) - sigma| <= FIXED_POINT_RTOL
# max(1, |sigma|), and fails after SECANT_MAXITER builds of the complements.
FIXED_POINT_RTOL = 1e-13
SECANT_MAXITER = 30
# the share of that stop that the complements' block CG may take
CG_SHARE = 0.1

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
    frame; `phase` carries the frame change of the model's `gauge` (None
    where it is the identity).
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

    def apply(self, rows: np.ndarray) -> np.ndarray:
        """H applied to each row of stacked real coordinates, block by block
        and with no matrix: -d2 by a real FFT minus the pointwise coupling,
        the torus in each mode's coordinates, a gridless block by matvec."""
        k, out, lo = len(rows), [], 0
        for block in self.blocks:
            x = rows[:, lo:lo + _dimension(block)]
            lo += x.shape[1]
            if isinstance(block, Pointwise):
                v = x.reshape(k, -1, self.grid.n)
                hv = (-second_derivative(v, self.grid)
                      - np.einsum("jlm,klm->kjm", block.coupling, v))
            elif isinstance(block, FourierModes):
                # mode m's (p, q) are (Re, Im) of (Re u-hat_m, -i Im u-hat_m)
                # in the cos copy, minus the imaginary parts in the sin copy:
                # the real mode block acts on both copies at once
                b = block.modes.shape[1]
                hv = np.fft.rfft(x.reshape(k, b, self.grid.n))
                hv[:, b // 2:] *= -1j
                hv = np.einsum("mab,kbm->kam", block.modes, hv)
                hv[:, b // 2:] *= 1j
                hv = np.fft.irfft(hv, self.grid.n)
            else:
                hv = np.array([matvec(block, row) for row in x])
            out.append(hv.reshape(k, -1))
        return np.concatenate(out, axis=1)


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
    ritz_bound: float                # n_sym eigenvalues lie within it of 0 (Kato-Temple)
    angle_bound: float               # on the sine of the kernel's angle to them (Davis-Kahan)
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


class _Tridiagonal(NamedTuple):
    """A part reduced to T = Q^T a Q by Householder reflections (LAPACK
    `dsytrd`, lower): T's diagonal d and off-diagonal e."""

    d: np.ndarray
    e: np.ndarray

    @classmethod
    def reduce(cls, a: np.ndarray) -> "_Tridiagonal":
        """a (symmetric, C-ordered) reduced in place."""
        lwork, _ = lapack.dsytrd_lwork(a.shape[0], lower=1)
        # a is symmetric, so its transpose is the same matrix in Fortran order
        _, d, e, _, info = lapack.dsytrd(a.T, lower=1, lwork=int(lwork), overwrite_a=1)
        if info != 0:
            raise np.linalg.LinAlgError(f"dsytrd failed (info {info})")
        return cls(d, e)

    @property
    def size(self) -> int:
        return self.d.size

    def eigenvalues(self, lo: int, hi: int) -> np.ndarray:
        """Eigenvalues lo..hi (0-based, ascending, clipped to T's dimension)."""
        hi = min(hi, self.d.size - 1)
        return scipy.linalg.eigh_tridiagonal(self.d, self.e, eigvals_only=True, select="i",
                                             select_range=(lo, hi), lapack_driver="stebz")


class _ModeSpectrum:
    """Every eigenvalue of a `FourierModes` block, ascending, with the
    queries of `_Tridiagonal`: those of each mode 0 < m < n/2 twice (the cos
    and the sin copy)."""

    def __init__(self, modes: np.ndarray):
        vals = np.linalg.eigvalsh(modes)
        self.values = np.sort(np.concatenate([vals.ravel(), vals[1:-1].ravel()]))

    @property
    def size(self) -> int:
        return self.values.size

    def eigenvalues(self, lo: int, hi: int) -> np.ndarray:
        return self.values[lo:hi + 1]


class _Part(NamedTuple):
    """One eigensolve: a line block, or its even or odd part; a dense block;
    or the Fourier modes of a block-circulant block.  Nothing is built
    until `solve`."""

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
        h, b, _ = self.build().shape
        return [(b * (1 if m in (0, h - 1) else 2), f"mode {m}") for m in range(h)]


def _parts(blocks, grid: Optional[Grid]) -> list:
    col = None if grid is None else kinetic_column(grid)
    parts = []
    for block in blocks:
        if isinstance(block, Pointwise):
            c, _, n = block.coupling.shape
            h = n // 2 + 1
            bound = float(np.sum(np.abs(col)) + np.max(np.sum(np.abs(block.coupling), axis=1)))
            part = partial(_Part, bound=bound)
            if block.even:
                parts += [part("even", c * h, build=partial(even_part, col, block.coupling)),
                          part("odd", c * (h - 2), build=partial(odd_part, col, block.coupling))]
            else:
                parts.append(part("whole", c * n, build=partial(whole_part, col, block.coupling)))
        else:
            data = _data(block)
            bound = float(np.max(np.sum(np.abs(data), axis=-1)))
            if isinstance(block, FourierModes):
                parts.append(_Part("modes", block.dimension, bound, lambda data=data: data))
            else:
                parts.append(_Part("whole", len(data), bound, data.copy))
    return parts


def _low_end(part: _Part, reach: float, n_eigs: int) -> tuple:
    """(top eigenvalue, low end, shown) of one part, built, reduced and
    dropped here.  The low end holds the LOW_SUBSET lowest eigenvalues,
    doubled until it passes reach or the part is exhausted; shown adds to it
    the part's eigenvalues up to index n_eigs - 1, which only `eigenvalues`
    displays."""
    red = part.solve()
    top = float(red.eigenvalues(red.size - 1, red.size - 1)[0])
    vals = red.eigenvalues(0, LOW_SUBSET - 1)
    while vals[-1] <= reach and vals.size < red.size:
        vals = red.eigenvalues(0, 2 * vals.size - 1)
    shown = vals
    if min(n_eigs, red.size) > vals.size:
        shown = np.concatenate([vals, red.eigenvalues(vals.size, n_eigs - 1)])
    return top, vals, shown


def _orbit_bounds(op: HessOp, separation: float) -> tuple:
    """(ritz_bound, angle_bound) of the orbit tangents, when every other
    eigenvalue is at least `separation` from 0.  With Q the tangents'
    orthonormal basis, theta the eigenvalues of S = Q^T H Q, R = H Q - Q S and
    delta = separation - max |theta| > 0, as many eigenvalues as tangents lie
    within max |theta| + |R|^2 / delta of 0 (Kato-Temple), and |R| / delta
    bounds the sine of the kernel's largest angle to span Q (Davis-Kahan)."""
    if not len(op.symmetry_tangent):
        return 0.0, 0.0
    q = scipy.linalg.qr(op.symmetry_tangent.T, mode="economic")[0].T    # rows: orthonormal
    hq = op.apply(q)
    s = np.einsum("in,jn->ij", q, hq)
    s = 0.5 * (s + s.T)
    theta = float(np.max(np.abs(np.linalg.eigvalsh(s))))
    r = hq - np.einsum("ij,in->jn", s, q)
    norm_r = np.sqrt(max(np.max(np.linalg.eigvalsh(np.einsum("in,jn->ij", r, r))), 0.0))
    delta = separation - theta
    if not delta > 0.0:
        return np.inf, np.inf
    return float(theta + norm_r**2 / delta), float(norm_r / delta)


def spectrum(op: HessOp, n_eigs: int = 12) -> SpectralReport:
    """Classify the low end of the Hessian's spectrum, and bound the kernel
    by the orbit tangents' Ritz values.

    Parts are solved one at a time.  Each bisects its LOW_SUBSET lowest
    eigenvalues, and doubles that until its largest computed eigenvalue is
    above 2e-6 of the Gershgorin bound (so above the kernel tolerance) or
    the part is exhausted: the negative, kernel and first positive
    eigenvalues are all computed, and the classification reads nothing
    else.  n_eigs only adds the eigenvalues that `eigenvalues` displays, in
    a bisection of their own, so the classification does not depend on it.
    The Ritz bounds hold when dim_ker is the number of tangents: the other
    eigenvalues are then those outside the kernel."""
    if n_eigs < 0:
        raise ValueError(f"n_eigs must not be negative (got {n_eigs})")
    parts = _parts(op.blocks, op.grid)
    reach = 2e-6 * max(p.bound for p in parts)
    tops, lows, shown = zip(*[_low_end(p, reach, n_eigs) for p in parts])

    eigvals = np.sort(np.concatenate(lows))
    radius = max(max(tops), -eigvals[0])
    ker_tol = 1e-6 * radius
    above = eigvals[eigvals > ker_tol]
    # the factor by which the kernel eigenvalues clear ker_tol from below,
    # and the negative ones from above; an eigenvalue is known only to
    # eps times the spectral radius, so one computed as 0 clears it by
    # ker_tol / (eps radius)
    kernel = np.abs(eigvals[np.abs(eigvals) <= ker_tol])
    below = eigvals[eigvals < -ker_tol]
    floor = max(kernel.max(initial=0.0), np.finfo(float).eps * radius)
    kernel_margin = min(ker_tol / floor if kernel.size and floor else np.inf,
                        -below.max() / ker_tol if below.size else np.inf)
    gap_pos = float(above[0]) if above.size else np.inf
    ritz_bound, angle_bound = _orbit_bounds(
        op, min(gap_pos, -below.max() if below.size else np.inf))
    return SpectralReport(
        eigenvalues=np.sort(np.concatenate(shown))[:n_eigs],
        n_neg=int(below.size),
        dim_ker=int(kernel.size),
        gap_pos=gap_pos,
        ker_tol=ker_tol,
        kernel_margin=float(kernel_margin),
        ritz_bound=ritz_bound,
        angle_bound=angle_bound,
        parts=tuple(entry for p in parts for entry in p.entries()),
    )


class Eigenvalue(NamedTuple):
    """One eigenvalue of the Hessian, with how `eigenvalue` reached it."""

    value: float
    complement: tuple        # the Schur complement's size m, per line block
    secant_steps: int        # builds of the complements
    cg_iterations: int       # block CG iterations, over every block and build
    residual: float          # the last |mu_index(sigma) - sigma|


class _Complement:
    """A line block H = -d2 (x) I_c - M(x) in the whole real Fourier
    coordinates of `spectral.whole_coordinates`, split into its low modes
    (k^2 <= k_c^2, m of them) and the rest: H = [[A, B], [B^T, D]], with
    k_c^2 = top + 2 max(max_x lambda_max M(x), 0) + 1, so that D - sigma >= 1
    for every sigma <= top.  `eigenvalues(sigma)` is the spectrum of
    F(sigma) = A - B (D - sigma)^-1 B^T; H - sigma has as many negative
    eigenvalues as F(sigma) - sigma (Haynsworth).

    An even M (taken on the half grid and reflected, as the parity parts
    read it) maps cosines to cosines and sines to sines, so H never mixes
    the cosine (Re) slots with the sine (Im) slots: they are two sectors,
    and F is block-diagonal, one block per sector.  Each row of B^T, one low
    mode of one component, lies in one sector, so a cosine row and a sine
    row are packed into one row of coordinates and share one real
    transform: packed row j holds low mode j of each sector.  A block that
    is not even is one sector, whose rows are B^T's own.  m is the same
    either way."""

    def __init__(self, block: Pointwise, grid: Grid, top: float):
        c, _, n = block.coupling.shape
        self.sectors = sectors = 2 if block.even else 1
        self.coupling = coupling = (unfold(block.coupling[..., :n // 2 + 1]) if block.even
                                    else block.coupling)
        self.coords, self.values = whole_coordinates(n)
        self.k2 = np.repeat(grid.wavenumbers[:n // 2 + 1] ** 2, 2)
        real = np.ones(self.k2.size, dtype=bool)
        real[[1, -1]] = False                  # Im of modes 0 and n/2
        lam = np.max(np.linalg.eigvalsh(np.moveaxis(coupling, -1, 0)))
        kc2 = top + 2.0 * max(lam, 0.0) + 1.0
        sector = np.arange(self.k2.size) % sectors
        lows = [np.flatnonzero(real & (self.k2 <= kc2) & (sector == s)) for s in range(sectors)]
        self.high = (real & (self.k2 > kc2)).astype(float)
        self.size = c * sum(low.size for low in lows)
        packed = max(low.size for low in lows)
        unit = np.zeros((packed, self.k2.size))
        for low in lows:
            unit[np.arange(low.size), low] = 1.0
        basis = self.values(unit)
        # row (j, a): M applied to packed row j of component a, in coordinates
        w = self.coords(np.einsum("bax,jx->jabx", coupling, basis, order="C"))
        w = w.reshape(c * packed, c, -1)
        self.a = []
        for s, low in enumerate(lows):
            m = c * low.size
            a = np.diag(np.repeat(self.k2[low], c)) \
                - w[:m, :, low].transpose(0, 2, 1).reshape(m, m)
            self.a.append(0.5 * (a + a.T))
            w[m:, :, s::sectors] = 0.0         # the packed rows this sector leaves empty
        self.g = w * self.high                 # -B^T, row by row
        self.y = np.zeros_like(self.g)
        self.iterations = 0

    def eigenvalues(self, sigma: float) -> np.ndarray:
        """The eigenvalues of F(sigma), ascending, for sigma <= top.  Y =
        (D - sigma)^-1 B^T is solved by block CG, preconditioned by k^2 -
        sigma and started from the last sigma's Y; with its residual R, F =
        A - G^T Y - Y^T R (G = -B^T) is off by R^T (D - sigma)^-1 R only,
        whose 2-norm D - sigma >= 1 bounds by sum_i |r_i|^2.  Each row of
        each sector stops at |r_i|^2 <= CG_SHARE FIXED_POINT_RTOL max(1,
        |sigma|) / m, so (by Weyl's inequality) no eigenvalue moves by more
        than CG_SHARE of the secant's stop."""
        symbol = self.k2 - sigma
        # each CG iteration writes into these: a fresh array of this size
        # would cost its page faults every time
        q, hv = np.empty_like(self.g), np.empty_like(self.g)
        v, mv = (np.empty(self.g.shape[:-1] + self.coupling.shape[-1:]) for _ in range(2))

        def shifted(y):
            """(D - sigma) applied to the rows y, which vanish off the high
            modes, into hv, which the next call overwrites."""
            self.values(y, out=v, scratch=q)
            out = self.coords(np.einsum("jkn,rkn->rjn", self.coupling, v, out=mv), out=hv)
            out -= np.multiply(symbol, y, out=q)
            out *= -self.high
            return out

        precond = np.where(self.high > 0.0, symbol, 1.0)
        tol = np.sqrt(CG_SHARE * FIXED_POINT_RTOL * max(1.0, abs(sigma)) / self.size)
        self.y, r, its = block_cg(shifted, self.g, precond, self.y, tol, self.sectors)
        self.iterations += its
        blocks = []
        for s, a in enumerate(self.a):
            m = len(a)
            g, y, r_s = (np.ascontiguousarray(x.reshape(len(x), -1, self.sectors)[:m, :, s])
                         for x in (self.g, self.y, r))
            f = a - gram(g, y) - gram(y, r_s)
            blocks.append(scipy.linalg.eigvalsh(0.5 * (f + f.T)))
        return np.sort(np.concatenate(blocks))


def eigenvalue(prof: Profile, index: int, guess: float) -> Eigenvalue:
    """Eigenvalue `index` (0-based, ascending) of the Hessian at an
    equilibrium, by inertia: no orbit tangents, and no part of a line block
    held as a matrix beyond its m low modes.

    mu(sigma) is the sorted union of every line block's Schur-complement
    eigenvalues (`_Complement`) and every torus block's mode eigenvalues.
    Each mu_j(sigma) - sigma decreases with slope <= -1, and its root is the
    Hessian's eigenvalue j, so a secant from guess and mu_index(guess) finds
    it; it stops when |mu_index - sigma| <= FIXED_POINT_RTOL max(1, |sigma|).
    The window's top starts at 1.5 |guess| + 1 and doubles, with the
    complements rebuilt, whenever a secant step leaves it or the complements
    hold at most `index` eigenvalues, so the window never decides the value.
    Raises SolverError when a block CG or the secant (SECANT_MAXITER builds)
    does not converge."""
    if not np.isfinite(guess):
        raise ValueError(f"the eigenvalue's guess must be finite (got {guess})")
    _check_equilibrium(prof)
    blocks = model_for(prof.model, prof.grid).hessian(prof)
    fixed = [_ModeSpectrum(b.modes).values for b in blocks if isinstance(b, FourierModes)]
    lines = [b for b in blocks if isinstance(b, Pointwise)]
    if not lines:
        return Eigenvalue(float(np.sort(np.concatenate(fixed))[index]), (), 0, 0, 0.0)
    top, spent = 1.5 * abs(guess) + 1.0, 0
    complements = [_Complement(b, prof.grid, top) for b in lines]
    sigma, last, g = float(guess), None, np.inf
    for step in range(1, SECANT_MAXITER + 1):
        mu = np.sort(np.concatenate(fixed + [c.eigenvalues(sigma) for c in complements]))
        if mu.size > index:
            g = mu[index] - sigma
            if abs(g) <= FIXED_POINT_RTOL * max(1.0, abs(sigma)):
                return Eigenvalue(float(mu[index]), tuple(c.size for c in complements), step,
                                  spent + sum(c.iterations for c in complements), float(abs(g)))
            sigma, last = (mu[index] if last is None or g == last[1]
                           else sigma - g * (sigma - last[0]) / (g - last[1])), (sigma, g)
        if mu.size <= index or sigma > top:
            top *= 2.0
            while top < sigma:
                top *= 2.0
            spent += sum(c.iterations for c in complements)
            complements = [_Complement(b, prof.grid, top) for b in lines]
            last = None
    raise SolverError(f"the refined eigenvalue did not converge in {SECANT_MAXITER} builds "
                      f"(|mu - sigma| = {abs(g):.3e})")


def kernel_matches_orbit(rep: SpectralReport, op: HessOp) -> bool:
    """True iff the numerical kernel coincides with the orbit tangent space:
    as many kernel eigenvalues as tangents, the tangents' Ritz bound within
    ker_tol of 0, and the Davis-Kahan bound on the angle below 1."""
    return bool(rep.dim_ker == op.symmetry_tangent.shape[0]
                and rep.angle_bound < 1.0 and rep.ritz_bound <= rep.ker_tol)
