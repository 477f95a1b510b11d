"""Finite-dimensional rotation-invariant central-force example.

A point mass with Hamiltonian |p|^2/2 + omega |q|^2/2 - alpha |q x p|^2 has
circular relative equilibria whose stability indices can be written in closed
form; this module provides the equilibria, the analytic 6x6 Hessian of the
constrained energy, the closed-form reduced energy and its Hessian, and the
exact flow.  The flow is in closed form, because the oscillator and the
coupling Poisson-commute: the isotropic oscillator followed by a rigid
rotation about the conserved angular momentum, evaluated as arrays over the
sample times at once.  It conserves the angular momentum to roundoff at
every time, and no step depends on another, so the drift is read from the
samples the run returns.  The distance of one state to the reference orbit
is computed in Python floats, since numpy's per-call overhead exceeds its
40 flops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from .core import check_positive, step_count

__all__ = [
    "SO3State",
    "circular_orbit",
    "grad_L6",
    "hessian6",
    "w_so3",
    "integrate_so3",
    "orbit_distance",
]


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

    @cached_property
    def _reference_floats(self) -> _AxisParts:
        """`_reference` as tuples of Python floats, for `_pair_distance`."""
        return _AxisParts(*(tuple(x.tolist()) for x in self._reference))


def _energy(state: SO3State, q: np.ndarray, p: np.ndarray):
    """Energy at (q, p), broadcast over leading axes."""
    f = np.cross(q, p)
    return (0.5 * np.sum(p * p, axis=-1) + 0.5 * state.omega_pot * np.sum(q * q, axis=-1)
            - state.alpha * np.sum(f * f, axis=-1))


def circular_orbit(rho: float, omega_pot: float, alpha: float) -> SO3State:
    """Circular relative equilibrium in the x-y plane."""
    check_positive("rho", rho)
    check_positive("omega_pot", omega_pot)
    check_positive("alpha", alpha)
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
    qp = np.dot(q, p)
    gq = state.omega_pot * q - 2.0 * alpha * (np.dot(p, p) * q - qp * p) - np.cross(p, xi)
    gp = p - 2.0 * alpha * (np.dot(q, q) * p - qp * q) - np.cross(xi, q)
    return np.concatenate([gq, gp])


def hessian6(state: SO3State) -> np.ndarray:
    """Analytic 6x6 Hessian of the constrained energy at the state, in (q, p)."""
    q, p = state.q, state.p
    alpha, xi = state.alpha, state.xi
    eye = np.eye(3)
    hqq = state.omega_pot * eye - 2.0 * alpha * (np.dot(p, p) * eye - np.outer(p, p))
    hpp = eye - 2.0 * alpha * (np.dot(q, q) * eye - np.outer(q, q))
    hqp = -2.0 * alpha * (
        2.0 * np.outer(q, p) - np.outer(p, q) - np.dot(q, p) * eye
    ) + _cross_matrix(xi)
    return np.block([[hqq, hqp], [hqp.T, hpp]])


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


# ---------------------------------------------------------------------------
# Exact flow

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
    must be a non-negative integer (`core.step_count`).  q0 and p0 (default:
    the state's) must be finite 3-vectors with a finite q0 x p0, else a
    ValueError.  The drift of the angular momentum is max |q x p - F0| over
    the samples: the closed form carries no state from step to step, so a
    step between samples adds no error of its own.  It is NaN when the flow
    is.  Returns (times, qs, ps, energies, f_norm_drift).
    """
    q0 = np.array(state.q if q0 is None else q0, dtype=float)
    p0 = np.array(state.p if p0 is None else p0, dtype=float)
    for name, v in (("q0", q0), ("p0", p0)):
        if v.shape != (3,) or not np.all(np.isfinite(v)):
            raise ValueError(f"{name} must be a finite 3-vector")
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.all(np.isfinite(np.cross(q0, p0))):
            raise ValueError("the angular momentum q0 x p0 must be finite")
    n_steps = step_count(dt, t_end, sample_stride)

    steps = np.arange(0, n_steps + 1, sample_stride)
    if steps[-1] != n_steps:
        steps = np.append(steps, n_steps)
    times = steps * dt
    qs, ps = _flow(state, q0, p0, times)
    drift = np.max(np.linalg.norm(np.cross(qs, ps) - np.cross(q0, p0), axis=-1))
    return times, qs, ps, _energy(state, qs, ps), float(drift)


def _pair_distance(ref: _AxisParts, q: np.ndarray, p: np.ndarray) -> float:
    """`orbit_distance` of one pair (q and p of shape (3,)) in Python floats,
    from `SO3State._reference_floats`.  It builds no array and no container,
    so the garbage collector never runs inside it."""
    (a0, a1, a2, a3, a4, a5), (b0, b1, b2, b3, b4, b5), (x0, x1, x2, x3, x4, x5) = ref
    w0, w1, w2 = q.item(0), q.item(1), q.item(2)
    w3, w4, w5 = p.item(0), p.item(1), p.item(2)
    phi = math.atan2(w0 * x0 + w1 * x1 + w2 * x2 + w3 * x3 + w4 * x4 + w5 * x5,
                     w0 * b0 + w1 * b1 + w2 * b2 + w3 * b3 + w4 * b4 + w5 * b5)
    c, s = math.cos(phi), math.sin(phi)
    return math.hypot(a0 + c * b0 + s * x0 - w0, a1 + c * b1 + s * x1 - w1,
                      a2 + c * b2 + s * x2 - w2, a3 + c * b3 + s * x3 - w3,
                      a4 + c * b4 + s * x4 - w4, a5 + c * b5 + s * x5 - w5)


def orbit_distance(state: SO3State, q, p):
    """Distance to the isotropy-group orbit of the reference circular orbit.

    Minimizes over the rotation angle about the angular-momentum axis in
    closed form (the objective is a single harmonic in the angle), and
    evaluates the difference of the two vectors at the optimal angle: the
    difference of nearly equal vectors keeps full precision where the
    expanded form cancels.  One pair (q and p of shape (3,), arrays or lists)
    is computed in Python floats (`_pair_distance`: at 40 flops, numpy's
    per-call overhead would be most of the cost) and returns a float; q and
    p with the same leading axes (last axis 3) are computed as arrays and
    return an array of the leading shape.  The two paths agree to roundoff
    (`tests/test_so3.py::test_orbit_distance_on_stacked_states`).
    """
    q, p = np.asarray(q, dtype=float), np.asarray(p, dtype=float)
    if q.shape[-1:] != (3,) or p.shape[-1:] != (3,):
        raise ValueError("q and p must have a last axis of length 3")
    if q.ndim == p.ndim == 1:
        return _pair_distance(state._reference_floats, q, p)
    ref = state._reference
    w = np.concatenate([q, p], axis=-1)
    phi = np.arctan2(w @ ref.cross, w @ ref.perp)[..., None]
    diff = ref.rotated(np.cos(phi), np.sin(phi)) - w
    return np.sqrt(np.sum(diff * diff, axis=-1))
