"""One description per model: residual, invariants, Hessian, flow and family.

The toolkit treats three relative equilibria with one theory: the single NLS
soliton on the line, the coupled soliton on the line and the coupled plane
wave on the torus.  Each has one small object here that holds everything
model-specific.  `model_for(params, grid)` picks it, and is the only code that
branches on the model type or the grid kind to select formulas.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import Coupled, Field, Grid, boundary_decay_check, gradient, laplacian
from .linalg import matvec
from .spectral import first_derivative_matrix, second_derivative_matrix

__all__ = ["SingleLine", "CoupledLine", "CoupledTorus", "model_for", "field_to_vec",
           "vec_to_field"]


def model_for(params, grid: Grid):
    """The description of the model that params and grid define."""
    if params.model == "single_nls":
        return SingleLine(params)
    if grid.kind == "periodic":
        return CoupledTorus(params)
    return CoupledLine(params)


def field_to_vec(f: Field, phase=None) -> np.ndarray:
    """Stacked real coordinates [Re u_1, .., Im u_1, ..] of f in the frame
    that `phase` (from `tangents`; None is the identity) rotates away."""
    vals = f.values
    if phase is not None:
        vals = vals * np.conj(phase)
    return np.concatenate([np.real(vals).ravel(), np.imag(vals).ravel()])


def vec_to_field(v: np.ndarray, grid: Grid, phase=None) -> Field:
    """The field with stacked real coordinates v: the inverse of field_to_vec."""
    half = v.size // 2
    vals = v[:half].reshape(-1, grid.n) + 1j * v[half:].reshape(-1, grid.n)
    if phase is not None:
        vals = vals * phase
    return Field(vals, grid)


def _rest_profile(prof) -> np.ndarray:
    """The real profile of a line equilibrium: its field with the boost's
    gauge phase exp(i c x / 2) removed."""
    return np.real(prof.field.values * np.exp(-0.5j * prof.c * prof.grid.nodes))


def _orbit_tangents(phi: np.ndarray, d1=None) -> np.ndarray:
    """Orbit tangents of a real profile (one row per component) in stacked
    (Re, Im) coordinates: the phase rotation i phi_j of each component, then
    the translation phi' when the derivative matrix d1 is given."""
    zero = np.zeros_like(phi)
    rows = []
    for j in range(len(phi)):
        rotated = zero.copy()
        rotated[j] = phi[j]
        rows.append(np.concatenate([zero.ravel(), rotated.ravel()]))
    if d1 is not None:
        rows.append(np.concatenate([matvec(d1, p) for p in phi] + [zero.ravel()]))
    return np.array(rows)


@dataclass(frozen=True)
class _Model:
    """What the three models share.  The defaults are those of a line model:
    xi ends with the boost velocity c, and translations are a symmetry."""

    params: object
    translations = True
    empirical_only = False    # True: stable evolution verdicts get a note

    def c(self, xi) -> float:
        return float(xi[-1])

    def invariants(self, f: Field) -> dict:
        """Energy H and momentum map F: the component masses, then the
        momentum where translations are a symmetry."""
        H, F = self.stacked_invariants(f.values, f.grid)
        return {"H": float(H), "F": F}

    def check_components(self, vals: np.ndarray) -> None:
        """Fields (..., components, n) must have the model's component count."""
        if vals.shape[-2] != self.params.components:
            raise ValueError(
                f"{self.tag} model requires a {self.params.components}-component field")

    def stacked_invariants(self, vals: np.ndarray, grid: Grid) -> tuple:
        """(H, F) of fields stacked along the leading axes of vals, shape
        (..., components, n): H has shape (...), F (..., m)."""
        self.check_components(vals)
        dx = grid.spacing
        ik = 1j * grid.deriv_wavenumbers()
        du = np.fft.ifft(ik * np.fft.fft(vals, axis=-1), axis=-1)
        F = 0.5 * dx * np.sum(np.abs(vals) ** 2, axis=-1)
        if self.translations:
            mom = np.sum(np.sum(np.conj(vals) * (-1j) * du, axis=-1), axis=-1)
            F = np.concatenate([F, 0.5 * dx * np.real(mom)[..., None]], axis=-1)
        return self.energy(vals, du, dx), F

    def tangents(self, prof) -> tuple:
        """(orbit tangents, gauge phase) at an equilibrium: the tangents are
        rows of stacked real coordinates in the frame the phase rotates away
        (None when c = 0)."""
        grid = prof.grid
        tangents = _orbit_tangents(_rest_profile(prof), first_derivative_matrix(grid))
        phase = None if prof.c == 0.0 else np.exp(0.5j * prof.c * grid.nodes)
        return tangents, phase

    def linear_phases(self, grid: Grid, dt: float) -> np.ndarray:
        """Free flow over dt in Fourier space, one row per component."""
        return np.tile(np.exp(-1j * grid.wavenumbers**2 * dt), (self.params.components, 1))

    def orbit_overlap(self, z: np.ndarray):
        """Largest overlap over the phase group, from the complex overlaps z
        of the components (axis 0)."""
        return np.sum(np.abs(self.phase_overlaps(z)), axis=0)

    def orbit_phases(self, z: np.ndarray) -> np.ndarray:
        """The phases of the group that attain it, one row per phase."""
        return np.angle(self.phase_overlaps(z))


class SingleLine(_Model):
    """Single-component NLS soliton on the line; xi = (omega - c^2/4, c)."""

    tag = "single_nls"

    @property
    def empirical_only(self) -> bool:
        return self.params.p < 3.0

    def omega(self, xi) -> float:
        shift = self.c(xi) ** 2 / 4.0
        return float(xi[0] + shift)

    def grad_L(self, field: Field, xi: np.ndarray) -> Field:
        lap = laplacian(field).values
        grad = gradient(field).values
        u = field.values[0]
        out = -lap[0] - np.abs(u) ** (self.params.p - 1.0) * u - xi[0] * u + 1j * xi[1] * grad[0]
        return Field(out[None, :], field.grid)

    def energy(self, vals: np.ndarray, du: np.ndarray, dx: float) -> np.ndarray:
        """Energy of stacked fields vals (..., 1, n) with derivatives du."""
        p = self.params.p
        return 0.5 * dx * np.sum(np.abs(du[..., 0, :]) ** 2, axis=-1) - dx / (p + 1) * np.sum(
            np.abs(vals[..., 0, :]) ** (p + 1), axis=-1
        )

    def stationary(self, phi: np.ndarray, omega: float, d2: np.ndarray) -> np.ndarray:
        """Residual of D2 u + |u|^(p-1) u + omega u = 0 at the real profile phi
        (one row)."""
        u = phi[0]
        p = self.params.p
        return (matvec(d2, u) + np.abs(u) ** (p - 1.0) * u + omega * u)[None]

    def lplus(self, phi: np.ndarray, omega: float, d2: np.ndarray) -> np.ndarray:
        """L+, the real-part Hessian block: minus the Jacobian of `stationary`."""
        p = self.params.p
        return -d2 - np.diag(p * np.abs(phi[0]) ** (p - 1.0) + omega)

    def hessian(self, prof) -> list:
        """Diagonal blocks [L+, L-] at an equilibrium, in the frame of
        `tangents`."""
        d2 = second_derivative_matrix(prof.grid)
        omega = prof.omega
        phi = _rest_profile(prof)
        p = self.params.p
        lm = -d2 - np.diag(np.abs(phi[0]) ** (p - 1.0) + omega)
        return [self.lplus(phi, omega, d2), lm]

    def potential(self, mod: np.ndarray) -> np.ndarray:
        """Nonlinear potential |u|^(p-1) from the modulus |u|."""
        return mod ** (self.params.p - 1.0)

    def phase_overlaps(self, z: np.ndarray) -> np.ndarray:
        """One phase rotates the whole field: the overlap it acts on is the
        sum over the components (axis 0)."""
        return np.sum(z, axis=0, keepdims=True)

    def resolve(self, prof, xi: np.ndarray, grid: Grid):
        """The member of the family of prof at xi, on grid: a Newton solve at
        omega, then a boost by c."""
        from .profiles import SolverError, boost, soliton_solve

        omega = self.omega(xi)
        if omega >= 0:
            raise SolverError("xi outside the soliton region (omega >= 0)")
        return boost(soliton_solve(omega, self.params.p, grid), float(xi[1]))


def _quartic_integral(params: Coupled, u1: np.ndarray, u2: np.ndarray, dx: float) -> np.ndarray:
    a1 = np.abs(u1) ** 2
    a2 = np.abs(u2) ** 2
    return (
        0.25
        * dx
        * np.sum(params.alpha * a1**2 + 2.0 * params.delta * a1 * a2 + params.gamma * a2**2,
                 axis=-1)
    )


class _Coupled(_Model):
    """What the two coupled cubic models share: the nonlinear flow and the
    phase group."""

    @cached_property
    def _couplings(self) -> tuple:
        """Columns of the coupling matrix [[alpha, delta], [delta, gamma]]."""
        m = self.params
        return np.array([[m.alpha], [m.delta]]), np.array([[m.delta], [m.gamma]])

    def potential(self, mod: np.ndarray) -> np.ndarray:
        """Nonlinear potential of each component from the moduli |u_j|."""
        a = mod * mod
        c1, c2 = self._couplings
        return c1 * a[0] + c2 * a[1]

    def phase_overlaps(self, z: np.ndarray) -> np.ndarray:
        """One phase per component: each component's overlap (axis 0)."""
        return z


class CoupledLine(_Coupled):
    """Two-component cubic soliton on the line; xi = (omega_i - c^2/4, c)."""

    tag = "coupled"

    def omega(self, xi) -> tuple:
        shift = self.c(xi) ** 2 / 4.0
        return (float(xi[0] + shift), float(xi[1] + shift))

    def grad_L(self, field: Field, xi: np.ndarray) -> Field:
        m = self.params
        lap = laplacian(field).values
        grad = gradient(field).values
        u1, u2 = field.values
        a1 = np.abs(u1) ** 2
        a2 = np.abs(u2) ** 2
        g1 = -lap[0] - (m.alpha * a1 + m.delta * a2) * u1 - xi[0] * u1 + 1j * xi[2] * grad[0]
        g2 = -lap[1] - (m.delta * a1 + m.gamma * a2) * u2 - xi[1] * u2 + 1j * xi[2] * grad[1]
        return Field(np.array([g1, g2]), field.grid)

    def energy(self, vals: np.ndarray, du: np.ndarray, dx: float) -> np.ndarray:
        """Energy of stacked fields vals (..., 2, n) with derivatives du."""
        H = 0.5 * dx * np.sum(np.abs(du[..., 0, :]) ** 2 + np.abs(du[..., 1, :]) ** 2, axis=-1)
        return H - _quartic_integral(self.params, vals[..., 0, :], vals[..., 1, :], dx)

    def stationary(self, phi: np.ndarray, omega: tuple, d2: np.ndarray) -> np.ndarray:
        """Residual of the real stationary system at the profile phi (one row
        per component)."""
        m = self.params
        p1, p2 = phi
        om1, om2 = omega
        r1 = matvec(d2, p1) + om1 * p1 + (m.alpha * p1**2 + m.delta * p2**2) * p1
        r2 = matvec(d2, p2) + om2 * p2 + (m.delta * p1**2 + m.gamma * p2**2) * p2
        return np.array([r1, r2])

    def lplus(self, phi: np.ndarray, omega: tuple, d2: np.ndarray) -> np.ndarray:
        """L+, the real-part Hessian block: minus the Jacobian of `stationary`."""
        m = self.params
        p1, p2 = phi
        om1, om2 = omega
        lp11 = -d2 - np.diag(om1 + 3 * m.alpha * p1**2 + m.delta * p2**2)
        lp22 = -d2 - np.diag(om2 + 3 * m.gamma * p2**2 + m.delta * p1**2)
        lp12 = -np.diag(2 * m.delta * p1 * p2)
        return np.block([[lp11, lp12], [lp12, lp22]])

    def hessian(self, prof) -> list:
        """Gauge-rotate the boost away; the real profile then gives the
        diagonal blocks [L+ (both components), L-11, L-22]."""
        m = self.params
        d2 = second_derivative_matrix(prof.grid)
        phi = _rest_profile(prof)
        p1, p2 = phi
        om1, om2 = prof.omega
        lm11 = -d2 - np.diag(om1 + m.alpha * p1**2 + m.delta * p2**2)
        lm22 = -d2 - np.diag(om2 + m.delta * p1**2 + m.gamma * p2**2)
        return [self.lplus(phi, prof.omega, d2), lm11, lm22]

    def resolve(self, prof, xi: np.ndarray, grid: Grid):
        """The member of the family of prof at xi, on grid: continued from the
        symmetric soliton at the mean frequency of prof, then boosted by c."""
        from .profiles import Profile, SolverError, _continue_coupled, boost, coupled_soliton

        om1, om2 = self.omega(xi)
        if om1 >= 0 or om2 >= 0:
            raise SolverError("xi outside the coupled soliton region")
        params = self.params
        om = prof.omega
        omega_star = 0.5 * (om[0] + om[1])
        base_phi = np.real(coupled_soliton(omega_star, params, grid).field.values)
        phi = _continue_coupled(self, base_phi, (omega_star, omega_star), (om1, om2), grid)
        f = Field(phi.astype(complex), grid)
        boundary_decay_check(f)
        return boost(Profile(f, np.array([om1, om2, 0.0]), params), float(xi[2]))


class CoupledTorus(_Coupled):
    """Two-component plane wave on the torus with wavenumber offset k; xi =
    (xi1, xi2) from the dispersion relation, no translation invariant."""

    tag = "torus"
    translations = False

    def c(self, xi) -> float:
        return 0.0

    def omega(self, xi) -> None:
        return None

    def grad_L(self, field: Field, xi: np.ndarray) -> Field:
        m = self.params
        lap = laplacian(field).values
        grad = gradient(field).values
        u1, u2 = field.values
        a1 = np.abs(u1) ** 2
        a2 = np.abs(u2) ** 2
        k = m.k
        b = m.beta
        g1 = -b * lap[0] - 2j * b * k * grad[0] + b * k**2 * u1
        g2 = -b * lap[1] + 2j * b * k * grad[1] + b * k**2 * u2
        g1 -= (m.alpha * a1 + m.delta * a2) * u1 + xi[0] * u1
        g2 -= (m.delta * a1 + m.gamma * a2) * u2 + xi[1] * u2
        return Field(np.array([g1, g2]), field.grid)

    def energy(self, vals: np.ndarray, du: np.ndarray, dx: float) -> np.ndarray:
        """Covariant kinetic energy with the offset k, of stacked fields."""
        m = self.params
        u1, u2 = vals[..., 0, :], vals[..., 1, :]
        d1 = du[..., 0, :] + 1j * m.k * u1
        d2 = du[..., 1, :] - 1j * m.k * u2
        H = 0.5 * m.beta * dx * np.sum(np.abs(d1) ** 2 + np.abs(d2) ** 2, axis=-1)
        return H - _quartic_integral(m, u1, u2, dx)

    def _amplitudes(self, prof) -> np.ndarray:
        return prof.zeta if prof.zeta is not None else np.real(prof.field.values[:, 0])

    def tangents(self, prof) -> tuple:
        """The two phase rotations of the constant wave; no gauge phase."""
        ones = np.ones(prof.grid.n)
        return _orbit_tangents(np.outer(self._amplitudes(prof), ones)), None

    def hessian(self, prof) -> list:
        """One block: the drift terms 2 b k d1 couple the real and imaginary
        parts."""
        m = self.params
        grid = prof.grid
        n = grid.n
        zero = np.zeros((n, n))
        z1, z2 = self._amplitudes(prof)
        d2 = second_derivative_matrix(grid)
        d1 = first_derivative_matrix(grid)
        b, k = m.beta, m.k
        base1 = -b * d2 + (b * k**2 - prof.xi[0]) * np.eye(n)
        base2 = -b * d2 + (b * k**2 - prof.xi[1]) * np.eye(n)
        a1c = m.alpha * z1**2 + m.delta * z2**2
        a2c = m.delta * z1**2 + m.gamma * z2**2
        cross = -2.0 * m.delta * z1 * z2 * np.eye(n)
        mat = np.block(
            [
                [base1 - (a1c + 2 * m.alpha * z1**2) * np.eye(n), cross, 2 * b * k * d1, zero],
                [cross, base2 - (a2c + 2 * m.gamma * z2**2) * np.eye(n), zero, -2 * b * k * d1],
                [-2 * b * k * d1, zero, base1 - a1c * np.eye(n), zero],
                [zero, -(-2 * b * k * d1), zero, base2 - a2c * np.eye(n)],
            ]
        )
        return [mat]

    def linear_phases(self, grid: Grid, dt: float) -> np.ndarray:
        k = grid.wavenumbers
        return np.array(
            [
                np.exp(-1j * self.params.beta * (k + self.params.k) ** 2 * dt),
                np.exp(-1j * self.params.beta * (k - self.params.k) ** 2 * dt),
            ]
        )

    def resolve(self, prof, xi: np.ndarray, grid: Grid):
        """The member of the family of prof at xi, on grid: the plane wave
        whose amplitudes invert the dispersion relation."""
        from .profiles import SolverError, plane_wave

        params = self.params
        bk2 = params.beta * params.k**2
        mat = np.array([[params.alpha, params.delta], [params.delta, params.gamma]])
        try:
            z = np.linalg.solve(mat, np.array([bk2 - xi[0], bk2 - xi[1]]))
        except np.linalg.LinAlgError as exc:
            raise SolverError("dispersion relation not invertible") from exc
        if z[0] <= 0 or z[1] <= 0:
            raise SolverError("xi outside the plane-wave region")
        return plane_wave(np.sqrt(z[0]), np.sqrt(z[1]), params, grid)
