"""Relative-equilibrium profiles and continuable families.

Solitons on the truncated line (explicit for the cubic case, Newton-solved
for general exponents), symmetric coupled solitons, torus plane waves, and
xi-parametrized families that re-solve their rest members on demand for
finite-difference derivatives of the conserved quantities.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field as dc_field
from functools import partial
from typing import Callable, Optional

import numpy as np

from .core import (
    Coupled,
    Field,
    Grid,
    SingleNLS,
    boundary_decay_check,
    invariants_of,
    make_grid,
)
from .linalg import MINRES_RTOL, SolverError
from .model import model_for
from .spectral import fourier_solve

__all__ = [
    "Profile",
    "Family",
    "SolverError",
    "soliton_explicit",
    "soliton_solve",
    "coupled_soliton",
    "plane_wave",
    "boost",
    "make_family",
    "continue_family",
]


@dataclass(frozen=True)
class Profile:
    """A relative-equilibrium candidate with its group parameters xi.  Its
    model and grid are a pair `model_for` describes, and its field, xi and
    zeta (when given) have the model's sizes: else a ValueError."""

    field: Field
    xi: np.ndarray
    model: object            # SingleNLS or Coupled
    zeta: Optional[tuple] = None   # amplitudes for coupled/torus profiles

    def __post_init__(self):
        xi = np.asarray(self.xi, dtype=float)
        desc = model_for(self.model, self.grid)
        desc.check_components(self.field.values)
        size = self.model.components + desc.translations
        if xi.shape != (size,) or not np.all(np.isfinite(xi)):
            raise ValueError(f"the {desc.tag} model needs xi of {size} finite entries "
                             f"(got {xi.tolist()!r})")
        if self.zeta is not None:
            zeta = np.asarray(self.zeta, dtype=float)
            if zeta.shape != (self.model.components,) or not np.all(np.isfinite(zeta)):
                raise ValueError(f"the {desc.tag} model needs zeta of "
                                 f"{self.model.components} finite entries (got {self.zeta!r})")
        xi.setflags(write=False)
        object.__setattr__(self, "xi", xi)

    @property
    def grid(self) -> Grid:
        return self.field.grid

    @property
    def is_torus(self) -> bool:
        return self.grid.kind == "periodic"

    @property
    def c(self) -> float:
        """Boost velocity (last xi component on line grids)."""
        return model_for(self.model, self.grid).c(self.xi)

    @property
    def omega(self):
        """Frequency parameter(s) recovered from xi."""
        return model_for(self.model, self.grid).omega(self.xi)

    def invariants(self) -> dict:
        return invariants_of(self.field, self.model)

    def to_dict(self) -> dict:
        vals = []
        for comp in self.field.values:
            interleaved = np.empty(2 * comp.size)
            interleaved[0::2] = comp.real
            interleaved[1::2] = comp.imag
            vals.append(interleaved.tolist())
        return {
            "model": {"type": self.model.model, **asdict(self.model)},
            "xi": self.xi.tolist(),
            "zeta": None if self.zeta is None else [float(z) for z in self.zeta],
            "grid": {"kind": self.grid.kind, "extent": self.grid.extent, "n": self.grid.n},
            "values": vals,
        }

    @staticmethod
    def from_dict(doc: dict) -> "Profile":
        try:
            g = make_grid(doc["grid"]["kind"], doc["grid"]["extent"], doc["grid"]["n"])
            mdl = dict(doc["model"])
            try:
                model = _PARAMS[mdl.pop("type")](**mdl)
            except (KeyError, TypeError) as exc:
                raise ValueError(f"malformed model entry {doc['model']!r}") from exc
            comps = []
            for interleaved in doc["values"]:
                arr = np.asarray(interleaved)
                comps.append(arr[0::2] + 1j * arr[1::2])
            zeta = doc.get("zeta")
            return Profile(Field(np.array(comps), g), np.asarray(doc["xi"]), model,
                           zeta=None if zeta is None else tuple(zeta))
        except (KeyError, TypeError, IndexError) as exc:
            if not isinstance(doc, dict):
                what = f"is a JSON object, not {type(doc).__name__}"
            elif isinstance(exc, KeyError):
                what = f"lacks the entry {exc}"
            else:
                what = f"is malformed ({exc})"
            raise ValueError(f"a profile document {what}") from exc


# Model parameter classes by the type tag that Profile.to_dict writes.
_PARAMS = {"single_nls": SingleNLS, "coupled": Coupled}


def closed_soliton(omega: float, p: float, x: np.ndarray) -> np.ndarray:
    """d = 1 closed-form positive bound state for general exponent p."""
    amp = ((p + 1.0) * abs(omega) / 2.0) ** (1.0 / (p - 1.0))
    width = (p - 1.0) * np.sqrt(abs(omega)) / 2.0
    return amp * np.cosh(width * x) ** (-2.0 / (p - 1.0))


def soliton_explicit(omega: float, grid: Grid) -> Profile:
    """Cubic (p = 3) soliton sqrt(-2 omega) sech(sqrt(-omega) x)."""
    if omega >= 0:
        raise ValueError("omega must be negative")
    u = np.sqrt(-2.0 * omega) / np.cosh(np.sqrt(-omega) * grid.nodes)
    f = Field(u[None, :].astype(complex), grid)
    boundary_decay_check(f)
    return Profile(f, np.array([omega, 0.0]), SingleNLS(p=3.0))


# Newton stops when max|residual| falls to NEWTON_TOL or to NEWTON_FLOOR times
# the roundoff floor of the FFT second derivative, eps * k_max^2 * max|phi|,
# whichever is larger.  Measured from the closed-form seed at n = 2048-16384
# (R = 20; p = 2, 3, 4.5 and 6), the residual stalls at 0.4-0.9x that estimate
# (the dense D2's stalled at up to 6x), so 32 leaves over 30x headroom; where
# the floor is below NEWTON_TOL the stop is the absolute one.
NEWTON_TOL = 1e-11
NEWTON_FLOOR = 32.0
# Each step's MINRES stops at the loosest relative residual the step can use
# (inexact Newton: Dembo, Eisenstat & Steihaug 1982; Eisenstat & Walker 1996),
#     eta = min(1/2, max(MINRES_RTOL, FORCING_THETA tol / err, (err / max|phi|)^2)),
# for the step's residual err and Newton's stop tol.  The squared term keeps
# the convergence quadratic; FORCING_THETA tol / err lets the last step stop
# where its result meets tol, with two orders of magnitude between MINRES's
# M^-1 norm and Newton's max norm; and the floor MINRES_RTOL, where every
# other solve stops, keeps a step from solving tighter.  At p = 3,
# omega = -1, n = 1024 a step takes one MINRES iteration (six at
# MINRES_RTOL) and lands the same residual.
FORCING_THETA = 1e-2


def _newton_even(model, phi0: np.ndarray, omega, grid: Grid, max_iter: int) -> np.ndarray:
    """Newton solve of model.stationary(phi) = 0 for a real profile phi (one
    row per component) even about x = 0.  The stationary Jacobian is -L+, so
    each step is one matrix-free even solve L+ step = residual, with no
    parity check: every iterate is even by construction."""
    roundoff = np.finfo(float).eps * float(np.max(grid.wavenumbers**2))
    phi = 0.5 * (phi0 + phi0[:, -np.arange(grid.n) % grid.n])   # symmetrize the seed
    for it in range(max_iter + 1):
        res = model.stationary(phi, omega, grid)
        err = float(np.max(np.abs(res)))
        scale = float(np.max(np.abs(phi)))
        tol = max(NEWTON_TOL, NEWTON_FLOOR * roundoff * scale)
        if err < tol:
            return phi
        if it == max_iter:
            break
        eta = min(0.5, max(MINRES_RTOL, FORCING_THETA * tol / err, (err / scale) ** 2))
        phi = phi + fourier_solve(grid, omega, model.jacobian(phi), res, rtol=eta)
    raise SolverError(f"Newton did not converge in {max_iter} iterations "
                      f"(residual {err:.3e}, floor {tol:.3e})")


def soliton_solve(omega: float, p: float, grid: Grid, max_iter: int = 50) -> Profile:
    """Positive even bound state of Delta u + |u|^(p-1) u = -omega u."""
    if omega >= 0:
        raise ValueError("omega must be negative")
    if p <= 1:
        raise ValueError("p must exceed 1")
    params = SingleNLS(p=p, d=1)
    u = _newton_even(model_for(params, grid), closed_soliton(omega, p, grid.nodes)[None],
                     omega, grid, max_iter)
    if np.min(u) < -1e-8 * np.max(np.abs(u)):
        raise SolverError("converged to a sign-changing profile")
    f = Field(u.astype(complex), grid)
    boundary_decay_check(f)
    return Profile(f, np.array([omega, 0.0]), params)


def coupled_amplitudes(params: Coupled) -> tuple:
    """Solve alpha z1 + delta z2 = 1, delta z1 + gamma z2 = 1 for z_i = zeta_i^2."""
    det = params.alpha * params.gamma - params.delta**2
    if abs(det) < 1e-14:
        raise ValueError("degenerate couplings: alpha*gamma equals delta^2")
    z1 = (params.gamma - params.delta) / det
    z2 = (params.alpha - params.delta) / det
    if z1 <= 0 or z2 <= 0:
        raise ValueError(
            "inadmissible couplings: delta must lie outside [min(alpha,gamma), max(alpha,gamma)]"
        )
    return np.sqrt(z1), np.sqrt(z2)


def coupled_soliton(omega_star: float, params: Coupled, grid: Grid) -> Profile:
    """Symmetric two-component soliton zeta * u_omega with cubic scalar factor."""
    if omega_star >= 0:
        raise ValueError("omega_star must be negative")
    if grid.kind != "line":
        raise ValueError("coupled solitons live on a line grid")
    z1, z2 = coupled_amplitudes(params)
    scalar = soliton_explicit(omega_star, grid).field.values[0]
    vals = np.array([z1 * scalar, z2 * scalar])
    f = Field(vals, grid)
    boundary_decay_check(f)
    return Profile(f, np.array([omega_star, omega_star, 0.0]), params, zeta=(z1, z2))


def plane_wave(zeta1: float, zeta2: float, params: Coupled, grid: Grid) -> Profile:
    """Constant two-component plane wave with xi from the dispersion relation."""
    if zeta1 == 0 or zeta2 == 0:
        raise ValueError("plane-wave amplitudes must be nonzero")
    if grid.kind != "periodic":
        raise ValueError("plane waves live on a periodic grid")
    params.validate_torus_offset(grid)
    # the dispersion relation xi_j = beta k^2 - V_j(zeta)
    xi = params.beta * params.k**2 - model_for(params, grid).potential(np.abs([[zeta1], [zeta2]]))
    ones = np.ones(grid.n, dtype=complex)
    f = Field(np.array([zeta1 * ones, zeta2 * ones]), grid)
    return Profile(f, xi[:, 0], params, zeta=(zeta1, zeta2))


def boost(prof: Profile, c: float) -> Profile:
    """Multiply by exp(i c x / 2) and shift the group parameters accordingly."""
    if c == 0.0:
        return prof
    if prof.is_torus:
        raise ValueError("boost is incompatible with the fixed-offset torus model")
    phase = np.exp(0.5j * c * prof.grid.nodes)
    vals = prof.field.values * phase
    c_tot = prof.c + c
    # xi = (omega_i - c^2/4, c): the frequencies stay, the velocities add up
    xi = np.append(np.subtract(prof.omega, c_tot**2 / 4.0), c_tot)
    return Profile(Field(vals, prof.grid), xi, prof.model, zeta=prof.zeta)


# ---------------------------------------------------------------------------
# Families

@dataclass
class Family:
    """A re-solvable map xi -> Profile with memoized solves.  With a `model`
    (`make_family` sets it), `solver` maps omega(xi) to the rest member,
    memoized by omega, and `profile(xi)` boosts it by c(xi): members that
    differ in c alone share one solve.  Else `solver` maps xi to the member."""

    solver: Callable[..., Profile]
    fd_step: float
    model: object = None
    _memo: dict = dc_field(default_factory=dict, repr=False)

    def profile(self, xi) -> Profile:
        xi = np.asarray(xi, dtype=float)
        arg, c = (xi, 0.0) if self.model is None else (self.model.omega(xi), self.model.c(xi))
        key = tuple(np.round(np.atleast_1d(arg), 12))
        rest = self._memo.get(key)
        if rest is None:
            rest = self._memo[key] = self.solver(arg)
        return boost(rest, c)

    def fhat(self, xi) -> np.ndarray:
        return self.profile(xi).invariants()["F"]


def default_fd_step(xi) -> float:
    return 1e-4 * (1.0 + float(np.linalg.norm(xi)))


CONTINUATION_HALVINGS = 6      # step halvings before the coupled continuation fails


def _continue_coupled(model, phi0, om_from, om_to, grid):
    """Damped straight-line continuation in (omega1, omega2)."""
    start = np.asarray(om_from, dtype=float)
    target = np.asarray(om_to, dtype=float)
    phi = phi0.copy()
    t, step = 0.0, 1.0
    halvings = 0
    while t < 1.0 - 1e-12:
        t_next = min(1.0, t + step)
        om = start + t_next * (target - start)
        try:
            phi_next = _newton_even(model, phi, om, grid, max_iter=60)
        except SolverError:
            halvings += 1
            if halvings > CONTINUATION_HALVINGS:
                raise SolverError("coupled continuation failed after step halving")
            step *= 0.5
            continue
        phi, t = phi_next, t_next
    return phi


def make_family(prof: Profile) -> Family:
    """Build the re-solvable family through an existing equilibrium."""
    model = model_for(prof.model, prof.grid)
    return Family(partial(model.resolve, prof, grid=prof.grid), default_fd_step(prof.xi), model)


def continue_family(prof: Profile, target_xi) -> Family:
    """Continue an equilibrium to target_xi and return its family, with the
    member at target_xi solved.  Each model re-solves from the equilibrium
    itself, so no path of intermediate solves is needed."""
    target = np.asarray(target_xi, dtype=float)
    if target.shape != prof.xi.shape:
        raise ValueError("target xi has the wrong dimension")
    fam = make_family(prof)
    fam.profile(target)
    return fam
