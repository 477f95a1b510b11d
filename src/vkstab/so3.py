"""Finite-dimensional rotation-invariant central-force example.

A point mass with Hamiltonian |p|^2/2 + omega |q|^2/2 - alpha |q x p|^2 has
circular relative equilibria whose stability indices can be written in closed
form; this module provides the equilibria, the brute-force 6x6 Hessian of the
constrained energy, the reduced-energy Hessian and its restriction to the
isotropy direction, and the exact flow.  The flow is in closed form, because
the oscillator and the coupling Poisson-commute: the isotropic oscillator
followed by a rigid rotation about the conserved angular momentum, evaluated
as arrays over all step times at once.  It conserves the angular momentum to
roundoff at every time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from .core import step_count

__all__ = [
    "SO3State",
    "circular_orbit",
    "grad_L6",
    "hessian6",
    "w_so3",
    "integrate_so3",
    "orbit_distance",
]


def _quadratic_potential(omega_pot: float):
    def v(r):
        return 0.5 * omega_pot * r**2

    def vp(r):
        return omega_pot * r

    def vpp(r):
        return omega_pot

    return v, vp, vpp


def _cross_matrix(v: np.ndarray) -> np.ndarray:
    return np.array([[0, -v[2], v[1]], [v[2], 0, -v[0]], [-v[1], v[0], 0]])


class _AxisParts(NamedTuple):
    """Vectors v (last axis 3) split about a unit axis a: the rotation of v
    about a by an angle with cosine c and sine s is par + c perp + s cross."""

    par: np.ndarray       # (a . v) a
    perp: np.ndarray      # v - par
    cross: np.ndarray     # a x perp

    @classmethod
    def of(cls, axis: np.ndarray, v: np.ndarray) -> "_AxisParts":
        par = (v @ axis)[..., None] * axis
        perp = v - par
        return cls(par, perp, np.cross(axis, perp))

    def rotated(self, c, s) -> np.ndarray:
        return self.par + c * self.perp + s * self.cross


@dataclass(frozen=True)
class SO3State:
    q: np.ndarray
    p: np.ndarray
    alpha: float
    omega_pot: float
    xi: np.ndarray

    def __post_init__(self):
        for name in ("q", "p", "xi"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def angular_momentum(self) -> np.ndarray:
        return np.cross(self.q, self.p)

    def energy(self) -> float:
        return float(_energy(self, self.q, self.p))

    @cached_property
    def _reference(self) -> _AxisParts:
        """(q, p) split about the angular-momentum axis, each part as one
        6-vector (q part, then p part), for orbit_distance."""
        mu = self.angular_momentum
        parts = _AxisParts.of(mu / np.linalg.norm(mu), np.array([self.q, self.p]))
        return _AxisParts(*(x.ravel() for x in parts))


def _energy(state: SO3State, q: np.ndarray, p: np.ndarray):
    """Energy at (q, p), broadcast over leading axes."""
    f = np.cross(q, p)
    return (0.5 * np.sum(p * p, axis=-1) + 0.5 * state.omega_pot * np.sum(q * q, axis=-1)
            - state.alpha * np.sum(f * f, axis=-1))


def circular_orbit(rho: float, omega_pot: float, alpha: float) -> SO3State:
    """Circular relative equilibrium in the x-y plane."""
    if rho <= 0:
        raise ValueError("radius must be positive")
    if not omega_pot > 0:
        raise ValueError(f"omega_pot must be positive (got {omega_pot:g})")
    if 2.0 * alpha <= rho**-2:
        raise ValueError("need 2*alpha > 1/rho^2 for the circular equilibrium")
    sigma = np.sqrt(omega_pot) * rho
    q = np.array([rho, 0.0, 0.0])
    p = np.array([0.0, sigma, 0.0])
    eta = (1.0 - 2.0 * alpha * rho**2) / rho**2
    xi = eta * np.cross(q, p)
    return SO3State(q, p, alpha, omega_pot, xi)


def grad_L6(state: SO3State, q: Optional[np.ndarray] = None,
            p: Optional[np.ndarray] = None) -> np.ndarray:
    """Gradient of the constrained energy at (q, p); defaults to the state."""
    q = state.q if q is None else np.asarray(q, dtype=float)
    p = state.p if p is None else np.asarray(p, dtype=float)
    alpha, xi = state.alpha, state.xi
    _, vp, _ = _quadratic_potential(state.omega_pot)
    r = np.linalg.norm(q)
    qp = np.dot(q, p)
    gq = vp(r) * q / r - 2.0 * alpha * (np.dot(p, p) * q - qp * p) - np.cross(p, xi)
    gp = p - 2.0 * alpha * (np.dot(q, q) * p - qp * q) - np.cross(xi, q)
    return np.concatenate([gq, gp])


def _hessian6_analytic(state: SO3State) -> np.ndarray:
    q, p = state.q, state.p
    alpha, xi = state.alpha, state.xi
    _, vp, vpp = _quadratic_potential(state.omega_pot)
    r = np.linalg.norm(q)
    qhat = q / r
    eye = np.eye(3)
    proj = np.outer(qhat, qhat)
    hqq = vpp(r) * proj + vp(r) / r * (eye - proj) - 2.0 * alpha * (
        np.dot(p, p) * eye - np.outer(p, p)
    )
    hpp = eye - 2.0 * alpha * (np.dot(q, q) * eye - np.outer(q, q))
    hqp = -2.0 * alpha * (
        2.0 * np.outer(q, p) - np.outer(p, q) - np.dot(q, p) * eye
    ) + _cross_matrix(xi)
    return np.block([[hqq, hqp], [hqp.T, hpp]])


def _hessian6_fd(state: SO3State, h: float = 1e-5) -> np.ndarray:
    mat = np.empty((6, 6))
    base = np.concatenate([state.q, state.p])
    for j in range(6):
        e = np.zeros(6)
        e[j] = h
        up = base + e
        dn = base - e
        gp = grad_L6(state, up[:3], up[3:])
        gm = grad_L6(state, dn[:3], dn[3:])
        mat[:, j] = (gp - gm) / (2.0 * h)
    return 0.5 * (mat + mat.T)


def hessian6(state: SO3State, ker_tol: float = 1e-8, cross_check_tol: float = 1e-6):
    """6x6 Hessian of the constrained energy with its index counts.

    Analytic second derivatives cross-validated against central differences.
    Returns (matrix, eigenvalues, n_neg, dim_ker).
    """
    mat = _hessian6_analytic(state)
    fd = _hessian6_fd(state)
    mismatch = float(np.max(np.abs(mat - fd)))
    if mismatch > cross_check_tol:
        raise RuntimeError(f"analytic/finite-difference Hessian mismatch {mismatch:.3e}")
    eigs = np.linalg.eigvalsh(mat)
    n_neg = int(np.sum(eigs < -ker_tol))
    dim_ker = int(np.sum(np.abs(eigs) <= ker_tol))
    return mat, eigs, n_neg, dim_ker


def symmetry_tangent(state: SO3State) -> np.ndarray:
    """Generator of the residual symmetry: rotation about the momentum axis."""
    mu = state.angular_momentum
    mu_hat = mu / np.linalg.norm(mu)
    return np.concatenate([np.cross(mu_hat, state.q), np.cross(mu_hat, state.p)])


def w_so3(xi, omega_pot: float, alpha: float):
    """Reduced energy W and its 3x3 Hessian at a nonzero xi.

    W depends only on |xi| by isotropy: W = (omega/4 alpha)(1 + |xi|/sqrt(omega))^2.
    """
    xi = np.asarray(xi, dtype=float)
    r = np.linalg.norm(xi)
    if r == 0.0:
        raise ValueError("xi must be nonzero")
    sw = np.sqrt(omega_pot)
    w_val = (omega_pot / (4.0 * alpha)) * (1.0 + r / sw) ** 2
    xh = xi / r
    d2w = (1.0 / (2.0 * alpha)) * (1.0 + sw / r) * np.eye(3) - (
        sw / (2.0 * alpha * r)
    ) * np.outer(xh, xh)
    return float(w_val), d2w


def w_so3_fd(xi, omega_pot: float, alpha: float, h: float = 1e-5) -> np.ndarray:
    """Finite-difference Hessian of the closed-form W, for cross-validation."""
    xi = np.asarray(xi, dtype=float)

    def w(v):
        r = np.linalg.norm(v)
        return (omega_pot / (4.0 * alpha)) * (1.0 + r / np.sqrt(omega_pot)) ** 2

    mat = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            ei = np.zeros(3)
            ej = np.zeros(3)
            ei[i] = h
            ej[j] = h
            mat[i, j] = (
                w(xi + ei + ej) - w(xi + ei - ej) - w(xi - ei + ej) + w(xi - ei - ej)
            ) / (4.0 * h**2)
    return 0.5 * (mat + mat.T)


# ---------------------------------------------------------------------------
# Exact flow

_DRIFT_CHUNK = 4096        # steps per array evaluation of the angular-momentum drift


def _flow(state: SO3State, q0: np.ndarray, p0: np.ndarray, t: np.ndarray) -> tuple:
    """(q, p) at the times t (shape (m,)), each of shape (m, 3).

    The isotropic oscillator |p|^2/2 + omega |q|^2/2 rotates (q, p) in phase
    space; the coupling -alpha |F|^2 rotates q and p rigidly about F = q x p
    at the rate -2 alpha |F|.  The two Hamiltonians Poisson-commute and both
    conserve F, so the exact flow is the oscillator at time t followed by the
    rotation about F0 by the angle -2 alpha |F0| t.
    """
    sw = np.sqrt(state.omega_pot)
    c, s = np.cos(sw * t)[:, None], np.sin(sw * t)[:, None]
    q = q0 * c + (p0 / sw) * s
    p = p0 * c - sw * q0 * s
    f0 = np.cross(q0, p0)
    nf = np.linalg.norm(f0)
    if nf == 0.0:
        return q, p
    angle = (-2.0 * state.alpha * nf) * t[:, None]
    parts = _AxisParts.of(f0 / nf, np.stack([q, p]))
    q, p = parts.rotated(np.cos(angle), np.sin(angle))
    return q, p


def integrate_so3(state: SO3State, dt: float, t_end: float,
                  q0: Optional[np.ndarray] = None, p0: Optional[np.ndarray] = None,
                  sample_stride: int = 10):
    """The exact flow of the perturbed state on the lattice t_k = k dt.

    The state at t_k is the closed form of `_flow`, evaluated as arrays over
    the lattice rather than stepped: the samples are the steps k with
    k % sample_stride == 0 and the last step, at times k * dt, and t_end / dt
    must be a non-negative integer (`core.step_count`).  The drift of the
    angular momentum, max_k |q x p - F0| over every step, is evaluated in
    chunks of _DRIFT_CHUNK steps, so memory grows with the samples only.
    Returns (times, qs, ps, energies, f_norm_drift).
    """
    q0 = np.array(state.q if q0 is None else q0, dtype=float)
    p0 = np.array(state.p if p0 is None else p0, dtype=float)
    n_steps = step_count(dt, t_end, sample_stride)
    f0 = np.cross(q0, p0)

    steps = np.arange(0, n_steps + 1, sample_stride)
    if steps[-1] != n_steps:
        steps = np.append(steps, n_steps)
    times = steps * dt
    qs, ps = _flow(state, q0, p0, times)

    f_drift = 0.0
    for first in range(1, n_steps + 1, _DRIFT_CHUNK):
        t = np.arange(first, min(first + _DRIFT_CHUNK, n_steps + 1)) * dt
        q, p = _flow(state, q0, p0, t)
        f_drift = max(f_drift, float(np.max(np.linalg.norm(np.cross(q, p) - f0, axis=1))))
    return times, qs, ps, _energy(state, qs, ps), f_drift


def orbit_distance(state: SO3State, q: np.ndarray, p: np.ndarray):
    """Distance to the isotropy-group orbit of the reference circular orbit.

    Minimizes over the rotation angle about the angular-momentum axis in
    closed form (the objective is a single harmonic in the angle).  q and p
    may carry the same leading axes (last axis 3); a float for one pair.
    """
    ref = state._reference
    w = np.concatenate([np.asarray(q, dtype=float), np.asarray(p, dtype=float)], axis=-1)
    phi = np.arctan2(w @ ref.cross, w @ ref.perp)[..., None]
    # evaluate at the optimal angle directly; the difference of nearly equal
    # vectors keeps full precision where the expanded form cancels
    diff = ref.rotated(np.cos(phi), np.sin(phi)) - w
    d = np.sqrt(np.sum(diff * diff, axis=-1))
    return float(d) if d.ndim == 0 else d
