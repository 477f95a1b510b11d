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

Every eigenvalue comes from one engine, Schur-complement inertia.  A line
block, written in the whole real Fourier basis, splits into its low modes
(A, m of them, m set by a window and the coupling, not by n) and the rest
(D, positive definite below the window's top); by Haynsworth's inertia
additivity (1968) as many eigenvalues lie below sigma as F(sigma) - sigma
has negative ones, F(sigma) = A - B (D - sigma)^-1 B^T the m x m Schur
complement, whose (D - sigma)^-1 B^T block CG solves, preconditioned by the
symbol k^2 - sigma (`_Complement`).  A block whose coupling is even (that
of an even profile, or of an odd one) never mixes cosines with sines, so its
complement splits into a cosine (even) and a sine (odd) sector, and one real
transform carries a row of each; blocks with bitwise-equal couplings share
one complement.  F(tau) - tau, linearized at sigma with the slope -(1 +
Y^T Y) that the solve already holds, has for roots one Newton step on each
eigenvalue, each with a bound on its distance from the eigenvalue that does
not grow with n.  The torus block's eigenvalues come from its 4 x 4 mode
blocks and a gridless block's from one eigvalsh, each known to its
roundoff.  No eigenvector is computed.

`spectrum` classifies from one linearization at 0: the counts below 0 are
exact, the kernel is the eigenvalues nearest 0 (as many as the orbit has
tangents), and its tolerance is their own bound.  Whether that kernel is
the orbit's tangent space (h2) is read from the tangents themselves: their
Ritz values and residual bound how close as many eigenvalues lie to 0
(Kato-Temple) and the kernel's angle to them (Davis-Kahan).  `eigenvalue`
(h3's gap on the doubled grid) and the eigenvalues that `spectrum` displays
run Newton's method on the same complements to FIXED_POINT_RTOL.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
import scipy.linalg

from .core import Field, Grid
from .linalg import SolverError, block_cg, gram, matvec
from .model import FourierModes, Pointwise, _is_even, field_to_vec, model_for, vec_to_field
from .profiles import Profile, boost
from .spectral import second_derivative, unfold, whole_coordinates

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

# Newton's method on an eigenvalue stops when its residual is at most
# FIXED_POINT_RTOL max(1, |value|), and fails after NEWTON_MAXITER builds of
# the complements.
FIXED_POINT_RTOL = 1e-13
NEWTON_MAXITER = 30
# the share of that stop that the complements' block CG may take
CG_SHARE = 0.1
# the stop of `spectrum`'s one linearization at 0: its roots off 0 are first
# Newton steps, off by about 2e-6 lambda^2 anyway, so a tighter CG buys them
# nothing, and the kernel's bound stays near 1e-10
COUNT_RTOL = 1e-8

# The residual is taken in the rest frame, where `assemble` builds the
# Hessian: undoing the boost removes the gauge phase, which is discontinuous
# across the truncated-line wrap and would add a spurious residual of the
# boundary amplitude times the Nyquist wavenumber squared.  The closed-form
# profiles (`soliton_explicit`, `coupled_soliton`) are not refined on the
# grid and keep a truncation residual at the line ends (8e-7 at R = 20,
# n = 2048), so the gate stays well above the Newton tolerance of the solvers.
EQUILIBRIUM_TOL = 1e-5
EPS = np.finfo(float).eps


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
    errors: np.ndarray               # each lies within its error of its eigenvalue
    n_neg: int
    dim_ker: int
    gap_pos: float
    gap_error: float
    ker_tol: float                   # the kernel's eigenvalues lie within it of 0
    separation: float                # distance from 0 of the nearest eigenvalue outside the kernel
    kernel_margin: float             # separation / max(ritz_bound, ker_tol)
    ritz_bound: float                # n_sym eigenvalues lie within it of 0 (Kato-Temple)
    angle_bound: float               # on the sine of the kernel's angle to them (Davis-Kahan)
    # (size, kind) of each matrix eigensolved: a line block's Schur complement
    # per sector ("even" | "odd", or "whole" for a block that is not even),
    # each torus mode ("mode m"), a gridless block ("whole")
    parts: tuple

    def to_dict(self) -> dict:
        return {
            "eigenvalues": self.eigenvalues.tolist(),
            "errors": self.errors.tolist(),
            "n_neg": self.n_neg,
            "dim_ker": self.dim_ker,
            "gap_pos": self.gap_pos,
            "gap_error": self.gap_error,
            "ker_tol": self.ker_tol,
            "parts": [list(p) for p in self.parts],
        }


def _blocks(prof: Profile) -> tuple:
    """(model, the Hessian's diagonal blocks) at an equilibrium profile."""
    rest = boost(prof, -prof.c)
    g = grad_L(rest.field, rest.model, rest.xi)
    res = float(np.max(np.abs(g.values)))
    if res > EQUILIBRIUM_TOL:
        raise ValueError(f"profile is not an equilibrium (residual {res:.3e})")
    model = model_for(prof.model, prof.grid)
    return model, tuple(model.hessian(prof))


def assemble(prof: Profile) -> HessOp:
    """Second variation of L_xi at an equilibrium profile."""
    model, blocks = _blocks(prof)
    tangents, phase = model.tangents(prof)
    return HessOp(blocks, prof.grid, tangents, phase)


def _orbit_bounds(op: HessOp, separation: float) -> tuple:
    """(ritz_bound, angle_bound) of the orbit tangents, when every other
    eigenvalue is at least `separation` from 0.  With Q the tangents'
    orthonormal basis, theta the eigenvalues of S = Q^T H Q and R = H Q - Q
    S, as many eigenvalues as tangents lie within max |theta| + |R| of 0
    (Kahan); with delta = separation - max |theta| > 0, within max |theta| +
    |R|^2 / delta (Kato-Temple), and |R| / delta bounds the sine of the
    kernel's largest angle to span Q (Davis-Kahan), which 1 bounds too."""
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
    if not delta > norm_r:
        return float(theta + norm_r), 1.0
    return float(theta + norm_r**2 / delta), float(norm_r / delta)


class _Roots(NamedTuple):
    """Every eigenvalue of some blocks, as estimated from one linearization:
    values ascending, each with Newton's `residual` (the bound the
    iteration drives down) and its `error` (the residual plus the
    eigensolve's roundoff): the eigenvalue lies within `error` of its value."""

    values: np.ndarray
    residual: np.ndarray
    error: np.ndarray


def _roundoff(values: np.ndarray) -> float:
    """What an eigensolve of a symmetric matrix with these eigenvalues may be
    off by: its size times eps times its norm (LAPACK's backward error)."""
    return values.size * EPS * float(np.max(np.abs(values), initial=0.0))


class Eigenvalue(NamedTuple):
    """One eigenvalue of the Hessian, with how `eigenvalue` reached it."""

    value: float
    complement: tuple        # the Schur complement's size m, per line block
    secant_steps: int        # linearizations: builds of F(sigma) by block CG
    cg_iterations: int       # block CG iterations, over every block and build
    residual: float          # Newton's bound on |lambda - value| at the last build
    error: float             # the residual plus the eigensolve's roundoff


class _Complement:
    """A line block H = -d2 (x) I_c - M(x) in the whole real Fourier
    coordinates of `spectral.whole_coordinates`, split into its low modes
    (k^2 <= k_c^2, m of them) and the rest: H = [[A, B], [B^T, D]], with
    k_c^2 = top + 2 max(max_x lambda_max M(x), 0) + 1, so that D is at least
    `floor` = top + max(max_x lambda_max M(x), 0) + 1, and D - sigma >= 1 for
    every sigma <= top.  F(sigma) = A - B (D - sigma)^-1 B^T, and H -
    sigma has as many negative eigenvalues as F(sigma) - sigma (Haynsworth).

    The parity is read from M itself, by the rule of `model._is_even`: an
    even M (taken on the half grid and reflected) maps cosines to cosines
    and sines to sines, so H never mixes the cosine (Re) slots with the sine
    (Im) slots: they are two sectors, the even and the odd functions, and F
    is block-diagonal, one block per sector.  The coupling of an odd profile
    is even too.  Each row of B^T, one low mode of one component, lies in
    one sector, so a cosine row and a sine row are packed into one row of
    coordinates and share one real transform: packed row j holds low mode j
    of each sector.  A block that is not even is one sector, whose rows are
    B^T's own.  m is the same either way."""

    def __init__(self, block: Pointwise, grid: Grid, top: float):
        c, _, n = block.coupling.shape
        even = _is_even(block.coupling)
        self.sectors = sectors = 2 if even else 1
        self.coupling = coupling = (unfold(block.coupling[..., :n // 2 + 1]) if even
                                    else block.coupling)
        self.coords, self.values = whole_coordinates(n)
        self.k2 = np.repeat(grid.wavenumbers[:n // 2 + 1] ** 2, 2)
        real = np.ones(self.k2.size, dtype=bool)
        real[[1, -1]] = False                  # Im of modes 0 and n/2
        lam = np.max(np.linalg.eigvalsh(np.moveaxis(coupling, -1, 0)))
        kc2 = top + 2.0 * max(lam, 0.0) + 1.0
        self.floor = top + max(lam, 0.0) + 1.0
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
        kinds = ("even", "odd") if sectors == 2 else ("whole",)
        self.parts = [(len(a), kind) for a, kind in zip(self.a, kinds)]

    def roots(self, sigma: float, rtol: float) -> _Roots:
        """F(tau) - tau linearized at sigma <= top, and its roots.  Y = (D -
        sigma)^-1 B^T is solved by block CG, preconditioned by k^2 - sigma
        and started from the last sigma's Y; with its residual R, F(sigma) =
        A - G^T Y - Y^T R (G = -B^T) is off by R^T (D - sigma)^-1 R only, and
        dF/dsigma = -Y^T Y (Hellmann-Feynman).  The roots are the eigenvalues
        of the pencil (F(sigma) - sigma, 1 + Y^T Y), shifted by sigma: each
        is one Newton step on its eigenvalue of F(tau) - tau, whose slope is
        at most -1, and as many of them lie below sigma as the block has
        eigenvalues below sigma.  By the resolvent identity, F(tau) leaves
        its linearization by (tau - sigma)^2 Y^T (D - tau)^-1 Y, at most
        (tau - sigma)^2 |Y|^2 / (floor - tau); with rho the residual's norm
        and e = rho / (floor - sigma) the bound on the error of Y, the CG
        adds rho e + |tau - sigma| e (2 |Y| + e), and |Y| becomes |Y| + e.
        Their sum at root j bounds how far it lies from its eigenvalue
        (Weyl).  Each row of each sector stops at |r_i|^2 <=
        CG_SHARE rtol max(1, |sigma|) / m, so rho^2 takes no more than
        CG_SHARE of a Newton stop of rtol."""
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
        tol = np.sqrt(CG_SHARE * rtol * max(1.0, abs(sigma)) / self.size)
        self.y, r, its = block_cg(shifted, self.g, precond, self.y, tol, self.sectors)
        self.iterations += its
        values, residual, error = [], [], []
        for s, a in enumerate(self.a):
            m = len(a)
            g, y, r_s = (np.ascontiguousarray(x.reshape(len(x), -1, self.sectors)[:m, :, s])
                         for x in (self.g, self.y, r))
            f = a - gram(g, y) - gram(y, r_s)
            slope = gram(y, y)
            steps = scipy.linalg.eigvalsh(0.5 * (f + f.T) - sigma * np.eye(m),
                                          np.eye(m) + 0.5 * (slope + slope.T))
            rho = np.sqrt(np.sum(r_s * r_s))
            e = rho / (self.floor - sigma)
            norm_y = np.sqrt(np.sum(y * y))      # |Y|_F, at least |Y|; Y is near rank one
            reach = self.floor - sigma - steps
            values.append(sigma + steps)
            # with no high mode (Y = 0, R = 0) the linearization is exact
            quadratic = (steps * (norm_y + e))**2
            residual.append(rho * e + np.abs(steps) * e * (2.0 * norm_y + e)
                            + np.divide(quadratic, reach, where=reach > 0.0,
                                        out=np.where(quadratic > 0.0, np.inf, 0.0)))
            error.append(residual[-1] + _roundoff(values[-1]))
        values, residual, error = (np.concatenate(x) for x in (values, residual, error))
        order = np.argsort(values, kind="stable")
        return _Roots(values[order], residual[order], error[order])


class _Exact:
    """A block whose eigenvalues need no window, each known to its
    eigensolve's roundoff: the torus block's from its b x b mode blocks (each
    mode 0 < m < n/2 twice, for its cos and its sin copy), a gridless block's
    from one eigvalsh."""

    def __init__(self, block):
        if isinstance(block, FourierModes):
            vals = np.linalg.eigvalsh(block.modes)
            h, b = vals.shape
            off = np.repeat(b * EPS * np.max(np.abs(vals), axis=1), b)     # each mode's roundoff
            values = np.concatenate([vals.ravel(), vals[1:-1].ravel()])
            error = np.concatenate([off, off[b:-b]])
            self.parts = [(b * (1 if m in (0, h - 1) else 2), f"mode {m}") for m in range(h)]
        else:
            values = scipy.linalg.eigvalsh(block)
            error = np.full(values.size, _roundoff(values))
            self.parts = [(values.size, "whole")]
        self._roots = _Roots(values, np.zeros_like(values), error)

    def roots(self, sigma: float, rtol: float) -> _Roots:
        return self._roots


class _Window:
    """Every eigenvalue of a Hessian's blocks from one source per block: a
    line block's from its `_Complement` below the window's top, rebuilt when
    the window grows, and any other block's from `_Exact`.  Line blocks with
    bitwise-equal couplings (the two L- of a symmetric coupled soliton) are
    one operator: they share one complement, solved once per linearization,
    whose roots count once per block.  Once no line block has a mode above
    the window, F = A at every sigma: the window's top is then infinite, and
    no CG runs."""

    def __init__(self, blocks, grid: Optional[Grid], top: float):
        self.blocks, self.grid, self.spent, self.shared = blocks, grid, 0, {}
        self._build(top)

    def iterations(self) -> int:
        """The CG iterations of the current complements, a shared one once."""
        return sum(c.iterations for c in self.shared.values())

    def _build(self, top: float) -> None:
        self.spent += self.iterations()
        lines = {b.coupling.tobytes(): b for b in self.blocks if isinstance(b, Pointwise)}
        self.shared = {key: _Complement(b, self.grid, top) for key, b in lines.items()}
        self.sources = [self.shared[b.coupling.tobytes()] if isinstance(b, Pointwise)
                        else _Exact(b) for b in self.blocks]
        self.top = top if any(np.any(c.high) for c in self.shared.values()) else np.inf
        self.last = None            # (sigma, its roots)

    def grow(self, past: float = 0.0) -> None:
        """Double the top, and again until it is past `past`."""
        top = 2.0 * self.top
        while top < past:
            top *= 2.0
        self._build(top)

    @property
    def parts(self) -> tuple:
        return tuple(part for s in self.sources for part in s.parts)

    def linearize(self, sigma: float, rtol: float = FIXED_POINT_RTOL) -> _Roots:
        roots = {s: s.roots(sigma, rtol) for s in dict.fromkeys(self.sources)}
        values, residual, error = (np.concatenate(x)
                                   for x in zip(*(roots[s] for s in self.sources)))
        order = np.argsort(values, kind="stable")
        self.last = (sigma, _Roots(values[order], residual[order], error[order]))
        return self.last[1]

    def reaching(self, index: int) -> _Roots:
        """The last linearization's roots, at 0 to COUNT_RTOL, with the
        window grown until it holds root `index` and its error."""
        roots = self.last[1]
        while self.top < np.inf and not (index < roots.values.size
                                         and roots.values[index] + roots.error[index] <= self.top):
            self.grow()
            roots = self.linearize(0.0, COUNT_RTOL)
        return roots

    def eigenvalue(self, index: int, guess: float) -> Eigenvalue:
        """Eigenvalue `index` (0-based, ascending) by Newton's method on
        F(tau) - tau, from the last linearization, or from `guess` when there
        is none.  It stops when the root's residual is at most
        FIXED_POINT_RTOL max(1, |value|), and the window grows when a step
        leaves it or it holds at most `index` roots, so the window never
        decides the value.  Raises SolverError when a block CG or Newton
        (NEWTON_MAXITER builds) does not converge."""
        sigma, roots = self.last or (guess, None)
        builds, res = 0, np.inf
        while True:
            if roots is None:
                if builds == NEWTON_MAXITER:
                    raise SolverError(f"the eigenvalue did not converge in {NEWTON_MAXITER} "
                                      f"builds (residual {res:.3e})")
                roots = self.linearize(sigma)
                builds += 1
            if index < roots.values.size:
                value, res = float(roots.values[index]), float(roots.residual[index])
                if value <= self.top and res <= FIXED_POINT_RTOL * max(1.0, abs(value)):
                    sizes = tuple(s.size for b, s in zip(self.blocks, self.sources)
                                  if isinstance(b, Pointwise))
                    return Eigenvalue(value, sizes, builds, self.spent + self.iterations(),
                                      res, float(roots.error[index]))
                sigma = value
            elif self.top == np.inf:
                raise ValueError(f"eigenvalue {index} of a Hessian of dimension "
                                 f"{roots.values.size}")
            if index >= roots.values.size or sigma > self.top:
                self.grow(sigma)
            roots = None


def spectrum(op: HessOp, n_eigs: int = 12) -> SpectralReport:
    """Classify the low end of the Hessian's spectrum from one linearization
    at 0 (`_Window`), and bound the kernel by the orbit tangents' Ritz values.

    The line blocks' window starts at 1.5 times the continuum's edge (the
    largest -lambda_min M(x)) plus 1, and grows until its roots reach the
    gap.  The counts below 0 are exact (Haynsworth); each root is Newton's
    first step from 0, within its error bound of its eigenvalue.  The kernel
    is the n_sym roots nearest 0, and every root within its error of 0; the
    negative count, the gap and the separation (the distance from 0 of the
    nearest root outside the kernel) are read from the others.  ker_tol
    bounds the kernel's eigenvalues: a kernel root's value, or its error
    where the value is below it, plus its error.  None of these bounds grows
    with n.  n_eigs only adds the eigenvalues that `eigenvalues` displays,
    each by Newton's method on the same complements (grown, for as many as
    the dimension, to every mode), so the classification does not depend on
    it.  The Ritz bounds hold when dim_ker is the number of tangents: the
    other eigenvalues are then those outside the kernel."""
    if n_eigs < 0:
        raise ValueError(f"n_eigs must not be negative (got {n_eigs})")
    edge = max((-np.min(np.linalg.eigvalsh(np.moveaxis(b.coupling, -1, 0)))
                for b in op.blocks if isinstance(b, Pointwise)), default=0.0)
    window = _Window(op.blocks, op.grid, 1.5 * max(edge, 0.0) + 1.0)
    n_sym = len(op.symmetry_tangent)
    roots, seen = window.linearize(0.0, COUNT_RTOL), None
    while roots is not seen:
        seen = roots
        values, error = roots.values, roots.error
        kernel = (np.abs(values) <= error) & (values < window.top)
        kernel[np.argsort(np.abs(values), kind="stable")[:n_sym]] = True
        n_neg = int(np.sum(values[~kernel] < 0.0))
        roots = window.reaching(n_neg + int(np.sum(kernel)))
    parts = window.parts

    rest, rest_error = values[~kernel], error[~kernel]
    gap_pos, gap_error = ((float(rest[n_neg]), float(rest_error[n_neg])) if n_neg < rest.size
                          else (np.inf, np.inf))
    separation = min(gap_pos, -float(rest[n_neg - 1]) if n_neg else np.inf)
    ker_tol = float(np.max(np.maximum(np.abs(values[kernel]), error[kernel]) + error[kernel],
                           initial=0.0))
    ritz_bound, angle_bound = _orbit_bounds(op, separation)
    bound = max(ritz_bound, ker_tol)
    count = min(n_eigs, op.dimension)
    if count:
        window.reaching(count - 1)
    shown = [window.eigenvalue(j, 0.0) for j in range(count)]
    return SpectralReport(
        eigenvalues=np.array([e.value for e in shown]),
        errors=np.array([e.error for e in shown]),
        n_neg=n_neg,
        dim_ker=int(np.sum(kernel)),
        gap_pos=gap_pos,
        gap_error=gap_error,
        ker_tol=ker_tol,
        separation=separation,
        kernel_margin=separation / bound if bound > 0.0 else np.inf,
        ritz_bound=ritz_bound,
        angle_bound=angle_bound,
        parts=parts,
    )


def eigenvalue(prof: Profile, index: int, guess: float) -> Eigenvalue:
    """Eigenvalue `index` (0-based, ascending) of the Hessian at an
    equilibrium, by Newton's method on the `_Window` of its blocks, started
    at guess: no orbit tangents, and no part of a line block held as a
    matrix beyond its m low modes.  The window's top starts at 1.5 |guess| +
    1.  Raises SolverError when a block CG or Newton does not converge."""
    if not np.isfinite(guess):
        raise ValueError(f"the eigenvalue's guess must be finite (got {guess})")
    return _Window(_blocks(prof)[1], prof.grid,
                   1.5 * abs(guess) + 1.0).eigenvalue(index, float(guess))


def kernel_matches_orbit(rep: SpectralReport, op: HessOp) -> bool:
    """True iff the numerical kernel coincides with the orbit tangent space:
    as many kernel eigenvalues as tangents, the tangents' Ritz bound below
    the separation (so it encloses the kernel and nothing else), and the
    Davis-Kahan bound on the angle below 1."""
    return bool(rep.dim_ker == op.symmetry_tangent.shape[0]
                and rep.angle_bound < 1.0 and rep.ritz_bound < rep.separation)
