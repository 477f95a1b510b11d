"""One description per model: its nonlinearity and its geometry.

The toolkit treats three relative equilibria with one theory: the single NLS
soliton on the line, the coupled soliton on the line and the coupled plane
wave on the torus.  Each has H = kinetic term - int G(|u|), so each model
object holds only its nonlinearity (the potential V_j(|u|), the Jacobian of
V(phi) phi at a real profile, the primitive G) and its geometry (the line's,
or the torus's covariant kinetic term with offset k).  `_Model` writes from
them, once, the gauge phase (the boost's times each component's global
phase) and the rest profile it leaves, the gradient of L_xi = H - xi . F, the
stationary equation, L+ (the pointwise coupling of a Hessian block, and a
matrix-free solve for the slope matrix), L-, the orbit tangents and the
energy.  No Hessian block is built here as a matrix: a line block is its
pointwise coupling (`Pointwise`), whose parity `hessian` reads from the
coupling itself (`_is_even`), and the torus Hessian is one small block
per Fourier mode (`FourierModes`); the torus's L+ solve is a closed 2 x 2
inverse on the constant mode.  `model_for(params, grid)` picks the object or
rejects the pair; the closed forms of one model (`slope.vk_integral`,
`certify.coupled_stability_criteria`) branch on the model themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .core import Field, Grid, boundary_decay_check, gradient, laplacian
from .spectral import first_derivative, fourier_solve, second_derivative

__all__ = ["SingleLine", "CoupledLine", "CoupledTorus", "Pointwise", "FourierModes",
           "model_for", "field_to_vec", "vec_to_field"]

PARITY_TOL = 1e-13          # relative to the largest entry: an array is even about x = 0


class Pointwise(NamedTuple):
    """A line Hessian block -d2 (x) I_c - M(x): the circulant of the symbol
    k^2 on each of c components, minus the pointwise symmetric coupling M."""

    coupling: np.ndarray      # c x c x n

    @property
    def dimension(self) -> int:
        return self.coupling.shape[0] * self.coupling.shape[2]


class FourierModes(NamedTuple):
    """A block-circulant Hessian on b/2 complex components, as one real
    symmetric b x b block per Fourier mode m = 0..n/2.  Mode m's block acts on
    the real coefficients (p, q) of the fields u_j = p_j cos(m theta) -
    i q_j sin(m theta), theta = 2 pi x / L, and equally on p_j sin(m theta) +
    i q_j cos(m theta): its eigenvalues count twice for 0 < m < n/2."""

    modes: np.ndarray         # (n/2 + 1) x b x b

    @property
    def dimension(self) -> int:
        return self.modes.shape[1] * 2 * (self.modes.shape[0] - 1)


def model_for(params, grid: Grid):
    """The description of the model that params and grid define.  The single
    NLS is described on the line only, and the coupled model on the line has
    beta = 1 and k = 0: another pair is a ValueError."""
    if params.model == "single_nls":
        if grid.kind == "periodic":
            raise ValueError("the single NLS model is described on a line grid only")
        return SingleLine(params)
    if grid.kind == "periodic":
        return CoupledTorus(params)
    if params.beta != 1.0 or params.k != 0.0:
        raise ValueError("the coupled model on a line grid needs beta = 1 and k = 0")
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


def _is_even(phi: np.ndarray) -> bool:
    """True iff the real array phi (a profile, one row per component, or a
    pointwise coupling) is even about x = 0 along its last axis, phi_j =
    phi_{-j} (mod n), to PARITY_TOL of its largest entry."""
    return bool(np.max(np.abs(phi[..., 1:] - phi[..., :0:-1]))
                <= PARITY_TOL * np.max(np.abs(phi)))


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

    def lplus_coupling(self, phi: np.ndarray, omega) -> np.ndarray:
        """omega_j delta_jk + J_jk (c x c x n): L+ = -d2 - omega - J, the
        real-part Hessian block, is minus the Jacobian of `stationary`."""
        comps = len(phi)
        return self.jacobian(phi) + np.eye(comps)[:, :, None] * np.reshape(omega, (-1, 1, 1))

    def gauge(self, prof):
        """The phase that takes the rest profile to the field of an
        equilibrium, one row per component, or None where it is 1: the
        boost's exp(i c x / 2) times each component's global phase theta_j,
        half the phase of sum (u_j exp(-i c x / 2))^2.  That sum is
        exp(2 i theta_j) |phi_j|^2 at a real phi_j, so theta_j is defined for
        every profile, also one of zero mean, up to pi: a sign of phi_j.  A
        field times a global phase is the same orbit, and its rest profile
        is the same."""
        boost = np.exp(0.5j * prof.c * prof.grid.nodes)
        rest = prof.field.values * np.conj(boost)
        theta = 0.5 * np.angle(np.sum(rest * rest, axis=1))
        if prof.c == 0.0 and not np.any(theta):
            return None
        return boost * np.exp(1j * theta)[:, None]

    def rest_profile(self, prof) -> np.ndarray:
        """The real profile of an equilibrium, one row per component: its
        field with the `gauge` phase removed."""
        gauge = self.gauge(prof)
        vals = prof.field.values
        return np.real(vals if gauge is None else vals * np.conj(gauge))

    def lplus_solve(self, phi: np.ndarray, omega, grid: Grid, rhs: np.ndarray) -> np.ndarray:
        """The y with L+ y = rhs at the profile phi, matrix-free (the slope
        solves): even at an even phi and rhs, else orthogonal to the
        translation kernel phi', as rhs must be."""
        kernel = None if _is_even(phi) else first_derivative(phi, grid)
        return fourier_solve(grid, omega, self.jacobian(phi), rhs, kernel)

    def hessian(self, prof) -> list:
        """Diagonal blocks [L+, L-_1, ..] at an equilibrium, in the frame of
        `tangents`: those of the rest profile, with the `gauge` phase
        rotated away.  Each is -d2 minus its pointwise coupling."""
        phi, omega = self.rest_profile(prof), prof.omega
        lminus = [diag[None, None] for diag in self._lminus_diagonals(phi, omega)]
        return [Pointwise(m) for m in [self.lplus_coupling(phi, omega)] + lminus]

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
        """(orbit tangents, gauge phase) at an equilibrium: the phase rotation
        i phi_j of each component of the rest profile phi, then, where it is a
        symmetry, the translation phi' (by FFT), as rows of stacked (Re, Im)
        coordinates in the frame the `gauge` phase rotates away."""
        grid, phi = prof.grid, self.rest_profile(prof)
        zero = np.zeros_like(phi)
        rows = [np.concatenate([zero, np.where(np.arange(len(phi))[:, None] == j, phi, 0.0)])
                for j in range(len(phi))]
        if self.translations:
            rows.append(np.concatenate([first_derivative(phi, grid), zero]))
        return np.array(rows).reshape(len(rows), -1), self.gauge(prof)

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

    def resolve(self, prof, omega: float, grid: Grid):
        """The rest member of the family of prof at frequency omega, on grid:
        a Newton solve."""
        from .profiles import SolverError, soliton_solve

        if omega >= 0:
            raise SolverError("xi outside the soliton region (omega >= 0)")
        return soliton_solve(omega, self.params.p, grid)


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

    def resolve(self, prof, omega: tuple, grid: Grid):
        """The rest member of the family of prof at frequencies omega, on
        grid: continued from the symmetric soliton at the mean frequency of
        prof."""
        from .profiles import Profile, SolverError, _continue_coupled, coupled_soliton

        om1, om2 = omega
        if om1 >= 0 or om2 >= 0:
            raise SolverError("xi outside the coupled soliton region")
        params = self.params
        om = prof.omega
        omega_star = 0.5 * (om[0] + om[1])
        base_phi = np.real(coupled_soliton(omega_star, params, grid).field.values)
        phi = _continue_coupled(self, base_phi, (omega_star, omega_star), (om1, om2), grid)
        f = Field(phi.astype(complex), grid)
        boundary_decay_check(f)
        return Profile(f, np.array([om1, om2, 0.0]), params)


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

    def omega(self, xi) -> tuple:
        """The frequencies omega_j = xi_j - beta k^2 that the covariant kinetic
        term leaves in the stationary equation."""
        bk2 = self.params.beta * self.params.k**2
        return tuple(float(x) - bk2 for x in xi)

    def lplus_solve(self, phi: np.ndarray, omega, grid: Grid, rhs: np.ndarray) -> np.ndarray:
        """The constant y with L+ y = rhs at the constant wave phi, for a
        constant rhs: on the constant mode the kinetic term and the drift
        vanish, and L+ is minus its 2 x 2 pointwise coupling, inverted in
        closed form."""
        (a, b), (c, d) = self.lplus_coupling(phi, omega)
        det = a * d - b * c
        if np.any(np.abs(det) <= 1e-14 * (np.abs(a * d) + np.abs(b * c))):
            raise ValueError("slope matrix is undefined when alpha*gamma = delta^2")
        return np.array([b * rhs[1] - d * rhs[0], c * rhs[0] - a * rhs[1]]) / det

    def _kinetic_gradient(self, field: Field, xi) -> np.ndarray:
        m = self.params
        return m.beta * (m.k**2 * field.values - laplacian(field).values
                         - 2j * m.k * _OFFSET_SIGNS * gradient(field).values)

    def _kinetic_energy(self, vals: np.ndarray, du: np.ndarray, dx: float) -> np.ndarray:
        m = self.params
        cov = du + 1j * m.k * _OFFSET_SIGNS * vals
        return 0.5 * m.beta * dx * np.sum(np.abs(cov) ** 2, axis=(-2, -1))

    def rest_profile(self, prof) -> np.ndarray:
        """The constant wave of the amplitudes of the field's first column,
        with the `gauge` phase removed."""
        return np.outer(super().rest_profile(prof)[:, 0], np.ones(prof.grid.n))

    def hessian(self, prof) -> list:
        """One block, block-circulant: L+ and L- with beta d2 in place of d2
        and omega = xi - beta k^2 (`omega`), the real and imaginary parts of
        each component coupled by its drift +-2 beta k d1.  At mode m, d2 is
        -k_m^2 and d1 is i q_m, with the grid's wavenumbers k and q (q's
        Nyquist entry 0); in the (cos, sin) coordinates of `FourierModes` the
        drift is the real -+2 beta k q_m."""
        m = self.params
        grid = prof.grid
        h = grid.n // 2 + 1
        zeta = self.rest_profile(prof)[:, :1]
        omega = prof.omega
        kinetic = m.beta * grid.wavenumbers[:h] ** 2
        drift = 2.0 * m.beta * m.k * grid.deriv_wavenumbers()[:h]
        modes = np.zeros((h, 4, 4))
        modes[:, :2, :2] = -self.lplus_coupling(zeta, omega)[..., 0]
        modes[:, [2, 3], [2, 3]] = -self._lminus_diagonals(zeta, omega)[:, 0]
        modes[:, [0, 1, 2, 3], [0, 1, 2, 3]] += kinetic[:, None]
        modes[:, [0, 1], [2, 3]] = modes[:, [2, 3], [0, 1]] = -np.outer(drift, _OFFSET_SIGNS[:, 0])
        return [FourierModes(modes)]

    def linear_phases(self, grid: Grid, dt: float) -> np.ndarray:
        m = self.params
        return np.exp(-1j * m.beta * (grid.wavenumbers + m.k * _OFFSET_SIGNS) ** 2 * dt)

    def resolve(self, prof, omega: tuple, grid: Grid):
        """The member of the family of prof at frequencies omega, on grid: the
        plane wave whose amplitudes invert the dispersion relation
        C zeta^2 = -omega."""
        from .profiles import SolverError, plane_wave

        params = self.params
        try:
            z = np.linalg.solve(np.hstack(self._couplings), np.negative(omega))
        except np.linalg.LinAlgError as exc:
            raise SolverError("dispersion relation not invertible") from exc
        if z[0] <= 0 or z[1] <= 0:
            raise SolverError("xi outside the plane-wave region")
        return plane_wave(np.sqrt(z[0]), np.sqrt(z[1]), params, grid)
