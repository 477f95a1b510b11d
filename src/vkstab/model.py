"""One description per model: its nonlinearity and its geometry.

The toolkit treats three relative equilibria with one theory: the single NLS
soliton on the line, the coupled soliton on the line and the coupled plane
wave on the torus.  Each has H = kinetic term - int G(|u|), so each model
object holds only its nonlinearity (the potential V_j(|u|), the Jacobian of
V(phi) phi at a real profile, the primitive G) and its geometry (the line's,
or the torus's covariant kinetic term with offset k).  `_Model` writes from
them, once, the gradient of L_xi = H - xi . F, the stationary equation, L+
(dense for the Hessian, and as a matrix-free even solve for Newton and the
slope matrix), L- and the energy.  `model_for(params, grid)` picks the
object; the closed forms of one model (`slope.d2w_closed`,
`slope.vk_integral`, `certify.coupled_stability_criteria`) branch on the
model themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import Field, Grid, boundary_decay_check, gradient, laplacian
from .linalg import matvec
from .spectral import (
    even_solve,
    first_derivative_matrix,
    second_derivative,
    second_derivative_matrix,
)

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


def _minus_d2(d2: np.ndarray, diag: np.ndarray, out=None) -> np.ndarray:
    """-d2 - diag(diag), written into one new array (or into out) without
    the n x n temporaries of np.diag and the subtraction."""
    out = np.negative(d2, out=out)
    out[np.diag_indices(len(diag))] -= diag
    return out


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
    """What the three models share, written once from each one's `potential`,
    `jacobian` and `primitive`.  The defaults are those of a line model: xi =
    (omega_j - c^2/4, c) ends with the boost velocity c, translations are a
    symmetry, and the kinetic energy is 1/2 int |u'|^2."""

    params: object
    translations = True
    empirical_only = False    # True: stable evolution verdicts get a note

    def c(self, xi) -> float:
        return float(xi[-1])

    def omega(self, xi):
        """The frequencies omega_j = xi_j + c^2/4: a float for one component,
        a tuple for two."""
        shift = self.c(xi) ** 2 / 4.0
        om = tuple(float(x + shift) for x in xi[:-1])
        return om if len(om) > 1 else om[0]

    def _kinetic_gradient(self, field: Field, xi) -> np.ndarray:
        """-u'' + i c u': the gradient of the kinetic energy minus c times
        the momentum."""
        return -laplacian(field).values + 1j * self.c(xi) * gradient(field).values

    def _kinetic_energy(self, vals: np.ndarray, du: np.ndarray, dx: float) -> np.ndarray:
        """1/2 int |u'|^2 of fields stacked along the leading axes of vals,
        with derivatives du."""
        return 0.5 * dx * np.sum(np.abs(du) ** 2, axis=(-2, -1))

    def grad_L(self, field: Field, xi: np.ndarray) -> Field:
        """L2-gradient of L_xi = H - xi . F at field: the kinetic gradient
        minus (V_j(|u|) + xi_j) u_j."""
        u = field.values
        pot = self.potential(np.abs(u)) + np.reshape(xi[:len(u)], (-1, 1))
        return Field(self._kinetic_gradient(field, xi) - pot * u, field.grid)

    def _lminus_diagonals(self, phi: np.ndarray, omega) -> np.ndarray:
        """omega_j + V_j(phi), one row per component: L-_j is -d2 minus its
        diagonal, and L- phi = 0 is the stationary equation."""
        return np.reshape(omega, (-1, 1)) + self.potential(np.abs(phi))

    def stationary(self, phi: np.ndarray, omega, grid: Grid) -> np.ndarray:
        """Residual phi_j'' + (omega_j + V_j(phi)) phi_j of the real stationary
        equation at the profile phi (one row per component), by FFT."""
        return second_derivative(phi, grid) + self._lminus_diagonals(phi, omega) * phi

    def lplus(self, phi: np.ndarray, omega, d2: np.ndarray) -> np.ndarray:
        """L+ = -d2 - omega - J, the real-part Hessian block: minus the
        Jacobian of `stationary`.  Its blocks are -d2 - omega_j - J_jj on the
        diagonal and -J_jk on the diagonals of the others."""
        jac = self.jacobian(phi)
        om = np.reshape(omega, -1)
        comps, n = phi.shape
        out = np.empty((phi.size, phi.size))    # each block written whole below
        for j in range(comps):
            for k in range(comps):
                block = out[j * n:(j + 1) * n, k * n:(k + 1) * n]
                if j == k:
                    _minus_d2(d2, om[j] + jac[j, j], out=block)
                else:
                    block[...] = 0.0
                    block[np.diag_indices(n)] = -jac[j, k]
        return out

    def lplus_solve(self, phi: np.ndarray, omega, grid: Grid, rhs: np.ndarray) -> np.ndarray:
        """The even y with L+ y = rhs at the even profile phi, matrix-free: the
        Newton step and the slope solves."""
        return even_solve(grid, omega, self.jacobian(phi), rhs)

    def hessian(self, prof) -> list:
        """Diagonal blocks [L+, L-_1, ..] at an equilibrium, in the frame of
        `tangents`: those of the rest profile, with the boost's gauge phase
        rotated away."""
        d2 = second_derivative_matrix(prof.grid)
        phi, omega = _rest_profile(prof), prof.omega
        lminus = [_minus_d2(d2, diag) for diag in self._lminus_diagonals(phi, omega)]
        return [self.lplus(phi, omega, d2)] + lminus

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
        mod = np.abs(vals)
        F = 0.5 * dx * np.sum(mod * mod, axis=-1)
        if self.translations:
            mom = np.sum(np.sum(np.conj(vals) * (-1j) * du, axis=-1), axis=-1)
            F = np.concatenate([F, 0.5 * dx * np.real(mom)[..., None]], axis=-1)
        H = self._kinetic_energy(vals, du, dx) - dx * np.sum(self.primitive(mod), axis=-1)
        return H, F

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

    def potential(self, mod: np.ndarray) -> np.ndarray:
        """Nonlinear potential |u|^(p-1) from the modulus |u|."""
        return mod ** (self.params.p - 1.0)

    def jacobian(self, phi: np.ndarray) -> np.ndarray:
        """p |phi|^(p-1), the 1 x 1 x n Jacobian of V(phi) phi."""
        p = self.params.p
        return (p * np.abs(phi) ** (p - 1.0))[None]

    def primitive(self, mod: np.ndarray) -> np.ndarray:
        """G = |u|^(p+1) / (p+1) from the moduli (..., 1, n)."""
        p = self.params.p
        return np.sum(mod ** (p + 1.0), axis=-2) / (p + 1.0)

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


class _Coupled(_Model):
    """The cubic nonlinearity of the two coupled models, and their phase
    group: one phase per component."""

    @cached_property
    def _couplings(self) -> tuple:
        """The columns of the coupling matrix C = [[alpha, delta], [delta,
        gamma]], each of shape (2, 1)."""
        m = self.params
        return np.array([[m.alpha], [m.delta]]), np.array([[m.delta], [m.gamma]])

    def potential(self, mod: np.ndarray) -> np.ndarray:
        """V_j = sum_k C_jk |u_k|^2 from the moduli (..., 2, n), in broadcast
        form: it runs once per split step."""
        a = mod * mod
        c1, c2 = self._couplings
        return c1 * a[..., :1, :] + c2 * a[..., 1:, :]

    def jacobian(self, phi: np.ndarray) -> np.ndarray:
        """J_jk = V_j delta_jk + 2 C_jk phi_j phi_k, the 2 x 2 x n Jacobian of
        V(phi) phi."""
        jac = 2.0 * np.hstack(self._couplings)[:, :, None] * phi[:, None] * phi[None]
        jac[[0, 1], [0, 1]] += self.potential(np.abs(phi))
        return jac

    def primitive(self, mod: np.ndarray) -> np.ndarray:
        """G = 1/4 sum_j V_j |u_j|^2 from the moduli (..., 2, n)."""
        return 0.25 * np.sum(self.potential(mod) * mod * mod, axis=-2)

    def phase_overlaps(self, z: np.ndarray) -> np.ndarray:
        """One phase per component: each component's overlap (axis 0)."""
        return z


class CoupledLine(_Coupled):
    """Two-component cubic soliton on the line; xi = (omega_i - c^2/4, c)."""

    tag = "coupled"

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


# The wavenumber offset of each component of the torus wave: +k, then -k.
_OFFSET_SIGNS = np.array([[1.0], [-1.0]])


class CoupledTorus(_Coupled):
    """Two-component plane wave on the torus with wavenumber offset k; xi =
    (xi1, xi2) from the dispersion relation, no translation invariant.  The
    kinetic energy is beta/2 int |u_j' +- i k u_j|^2."""

    tag = "torus"
    translations = False

    def c(self, xi) -> float:
        return 0.0

    def omega(self, xi) -> None:
        return None

    def _kinetic_gradient(self, field: Field, xi) -> np.ndarray:
        m = self.params
        return m.beta * (m.k**2 * field.values - laplacian(field).values
                         - 2j * m.k * _OFFSET_SIGNS * gradient(field).values)

    def _kinetic_energy(self, vals: np.ndarray, du: np.ndarray, dx: float) -> np.ndarray:
        m = self.params
        cov = du + 1j * m.k * _OFFSET_SIGNS * vals
        return 0.5 * m.beta * dx * np.sum(np.abs(cov) ** 2, axis=(-2, -1))

    def _amplitudes(self, prof) -> np.ndarray:
        return prof.zeta if prof.zeta is not None else np.real(prof.field.values[:, 0])

    def tangents(self, prof) -> tuple:
        """The two phase rotations of the constant wave; no gauge phase."""
        ones = np.ones(prof.grid.n)
        return _orbit_tangents(np.outer(self._amplitudes(prof), ones)), None

    def hessian(self, prof) -> list:
        """One block: L+ and L- with beta d2 in place of d2 and xi - beta k^2
        in place of omega, the real and imaginary parts of each component
        coupled by its drift +-2 beta k d1."""
        m = self.params
        n = prof.grid.n
        phi = np.outer(self._amplitudes(prof), np.ones(n))
        omega = prof.xi - m.beta * m.k**2
        d2 = m.beta * second_derivative_matrix(prof.grid)
        drift = 2.0 * m.beta * m.k * first_derivative_matrix(prof.grid)
        mat = np.zeros((4 * n, 4 * n))
        mat[:2 * n, :2 * n] = self.lplus(phi, omega, d2)
        diags = self._lminus_diagonals(phi, omega)
        for j, sign in enumerate(_OFFSET_SIGNS[:, 0]):
            re, im = slice(j * n, (j + 1) * n), slice((2 + j) * n, (3 + j) * n)
            _minus_d2(d2, diags[j], out=mat[im, im])
            np.multiply(drift, sign, out=mat[re, im])
            np.multiply(drift, -sign, out=mat[im, re])
        return [mat]

    def linear_phases(self, grid: Grid, dt: float) -> np.ndarray:
        m = self.params
        return np.exp(-1j * m.beta * (grid.wavenumbers + m.k * _OFFSET_SIGNS) ** 2 * dt)

    def resolve(self, prof, xi: np.ndarray, grid: Grid):
        """The member of the family of prof at xi, on grid: the plane wave
        whose amplitudes invert the dispersion relation."""
        from .profiles import SolverError, plane_wave

        params = self.params
        bk2 = params.beta * params.k**2
        try:
            z = np.linalg.solve(np.hstack(self._couplings), bk2 - np.asarray(xi))
        except np.linalg.LinAlgError as exc:
            raise SolverError("dispersion relation not invertible") from exc
        if z[0] <= 0 or z[1] <= 0:
            raise SolverError("xi outside the plane-wave region")
        return plane_wave(np.sqrt(z[0]), np.sqrt(z[1]), params, grid)
