"""Slope matrix D^2 W of the reduced energy and its signature.

W(xi) is the constrained energy evaluated along the equilibrium family; its
Hessian equals minus the Jacobian of the conserved quantities F along the
family.  `d2w_closed` computes it exactly from the profile alone, by one
solve over L+ per component for every model, and is what `certify` reads;
`d2w_fd` differentiates re-solved family members and is the cross-check.
The restricted form on a subalgebra basis supports the comparison with the
classical sufficient condition.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import model_for
from .profiles import Family, Profile, SolverError
from .spectral import fourier_solve, second_derivative

__all__ = [
    "SlopeReport",
    "signature_of",
    "d2w_fd",
    "d2w_closed",
    "vk_integral",
    "vk_slope_sign",
    "d2w_tilde",
]


@dataclass(frozen=True)
class SlopeReport:
    d2w: np.ndarray
    signature: tuple          # (positives, zeros, negatives)
    method: str               # "linear_solve", "finite_difference" or (so3) "closed_form"
    asymmetry: float = 0.0
    condition_number: Optional[float] = None
    restricted: Optional[dict] = None
    # The eigenvalues of d2w, or of a better-conditioned matrix congruent to
    # it (the same signature by Sylvester's law of inertia): the signature,
    # the condition number and certify's h1 are read from them.
    _eigenvalues: Optional[np.ndarray] = dataclasses.field(default=None, repr=False,
                                                           compare=False)

    def to_dict(self) -> dict:
        doc = {
            "d2w": self.d2w.ravel().tolist(),
            "shape": list(self.d2w.shape),
            "signature": list(self.signature),
            "method": self.method,
            "asymmetry": self.asymmetry,
        }
        if self.condition_number is not None:
            doc["condition_number"] = self.condition_number
        if self.restricted is not None:
            doc["restricted"] = {
                "d2w_tilde": self.restricted["d2w_tilde"].ravel().tolist(),
                "signature_tilde": list(self.restricted["signature_tilde"]),
            }
        return doc


def signature_of(mat: np.ndarray, z_tol: Optional[float] = None) -> tuple:
    """Inertia (p, z, n) of a symmetric matrix."""
    return _signature(np.linalg.eigvalsh(0.5 * (mat + mat.T)), z_tol)


def _signature(eigs: np.ndarray, z_tol: Optional[float] = None) -> tuple:
    if z_tol is None:
        z_tol = 1e-6 * max(np.max(np.abs(eigs)), 1e-300)
    p = int(np.sum(eigs > z_tol))
    n = int(np.sum(eigs < -z_tol))
    return (p, eigs.size - p - n, n)


def _report_from_matrix(raw: np.ndarray, method: str, asymmetry: float = 0.0,
                        congruent: Optional[np.ndarray] = None) -> SlopeReport:
    """The report of raw's symmetric part, with the eigenvalues of
    `congruent` when given, a symmetric matrix congruent to it."""
    sym = 0.5 * (raw + raw.T)
    eigs = np.linalg.eigvalsh(sym if congruent is None else congruent)
    sig = _signature(eigs)
    cond = None
    if sig[1] == 0:
        cond = float(np.max(np.abs(eigs)) / np.min(np.abs(eigs)))
    return SlopeReport(sym, sig, method, asymmetry=asymmetry, condition_number=cond,
                       _eigenvalues=eigs)


def d2w_fd(fam: Family, xi) -> SlopeReport:
    """D^2 W = -D_xi F by centered differences over the family, with its
    step `fam.fd_step`."""
    xi = np.asarray(xi, dtype=float)
    h = fam.fd_step
    m = xi.size
    jac = np.empty((m, m))
    for j in range(m):
        e = np.zeros(m)
        e[j] = h
        try:
            fp = fam.fhat(xi + e)
            fm = fam.fhat(xi - e)
        except SolverError as exc:
            raise SolverError(f"family solve failed on the fd stencil: {exc}") from exc
        jac[:, j] = (fp - fm) / (2.0 * h)
    raw = -jac
    asym = float(np.max(np.abs(raw - raw.T)))
    return _report_from_matrix(raw, "finite_difference", asymmetry=asym)


def vk_slope_sign(p: float, d: int) -> int:
    """Sign of d/domega of the squared-norm invariant along the soliton family.

    Scaling the soliton in omega gives d/domega int u^2 proportional to
    (d/2 - 2/(p-1)) / |omega|, so the slope is negative exactly when
    p < 1 + 4/d (the classical subcritical range).
    """
    if p <= 1 or d not in (1, 2, 3):
        raise ValueError("need p > 1 and d in {1, 2, 3}")
    val = d / 2.0 - 2.0 / (p - 1.0)
    if abs(val) < 1e-12:
        return 0
    return 1 if val > 0 else -1


def vk_integral(prof: Profile) -> float:
    """int u Ldelta^{-1} u for the symmetric coupled soliton, in its rest frame."""
    m = prof.model
    if m.model != "coupled" or prof.is_torus:
        raise ValueError("requires a coupled line soliton")
    if prof.zeta is None:
        raise ValueError("requires the symmetric closed-form soliton")
    z1, z2 = prof.zeta
    s = z1**2 + z2**2
    if m.delta == 0.0 or (m.delta == m.alpha == m.gamma):
        raise ValueError("Ldelta is degenerate for this coupling")
    grid = prof.grid
    omega = prof.omega[0]
    scalar = model_for(m, grid).rest_profile(prof)[0] / z1
    pot = (3.0 - 2.0 * m.delta * s) * scalar**2       # Ldelta = -d2 - omega - pot
    y = fourier_solve(grid, omega, pot[None, None], scalar[None])[0]
    resid = np.max(np.abs(-second_derivative(y, grid) - (omega + pot) * y - scalar))
    if resid > 1e-9 * max(np.max(np.abs(scalar)), 1.0):
        raise ValueError(f"Ldelta solve residual too large ({resid:.3e})")
    return float(np.sum(scalar * y) * grid.spacing)


def _galilean_lift(w0: np.ndarray, masses: np.ndarray, c: float) -> tuple:
    """Slope matrix in xi = (omega_i - c^2/4, c) from the rest-frame block
    w0 = -dF/domega and the component masses int phi_i^2 of the rest frame,
    and the matrix D it is congruent to.  The slope matrix is L^T D L with
    L = [[I, (c/2) 1], [0, 1]] and D = blockdiag(w0, -sum(masses) / 4): it has
    D's signature, but its eigenvalue ratio falls like c^-4 where D's does not
    depend on c."""
    m = len(masses)
    d = np.zeros((m + 1, m + 1))
    d[:m, :m] = 0.5 * (w0 + w0.T)
    d[m, m] = -0.25 * np.sum(masses)
    mat = d.copy()
    mat[:m, m] = mat[m, :m] = 0.5 * c * np.sum(w0, axis=1)
    mat[m, m] += 0.25 * c**2 * np.sum(w0)
    return mat, d


def d2w_closed(prof: Profile) -> SlopeReport:
    """Exact slope matrix of an abelian model, with no family solve.

    Differentiating the stationary equation in omega_j gives
    L+ dphi/domega_j = e_j phi_j, so the rest-frame block w0 = -dF/domega is
    w0_jk = -<phi_j, (L+^-1 e_k phi_k)_j>: one `lplus_solve` per component.
    Where translations are a symmetry, the boost lifts w0 to xi.
    """
    if getattr(prof.model, "d", 1) != 1:
        raise ValueError(
            "matrix entries need grid quadrature, available for d = 1 only; "
            "use vk_slope_sign for the symbolic criterion"
        )
    grid = prof.grid
    model = model_for(prof.model, grid)
    phi = model.rest_profile(prof)
    dphi = np.array([model.lplus_solve(phi, prof.omega, grid, rhs)   # rhs = e_j phi_j
                     for rhs in np.eye(len(phi))[:, :, None] * phi])
    w0 = -np.einsum("in,jin->ij", phi, dphi) * grid.spacing
    asym = float(np.max(np.abs(w0 - w0.T)))
    if not model.translations:
        return _report_from_matrix(w0, "linear_solve", asymmetry=asym)
    masses = np.sum(phi**2, axis=1) * grid.spacing
    mat, rest = _galilean_lift(w0, masses, prof.c)
    return _report_from_matrix(mat, "linear_solve", asymmetry=asym, congruent=rest)


def d2w_tilde(report: SlopeReport, basis: np.ndarray) -> SlopeReport:
    """Restriction B^T (D^2 W) B to a subalgebra spanned by the basis columns."""
    basis = np.atleast_2d(np.asarray(basis, dtype=float))
    if basis.shape[0] != report.d2w.shape[0]:
        basis = basis.T
    if basis.shape[0] != report.d2w.shape[0]:
        raise ValueError("basis dimension does not match the slope matrix")
    if np.linalg.matrix_rank(basis) < basis.shape[1]:
        raise ValueError("rank-deficient subalgebra basis")
    tilde = basis.T @ report.d2w @ basis
    # zero to the tolerance of D^2 W itself, on the scale |B|^2 the restriction
    # can reach: a 1x1 restriction is never zero to its own relative tolerance
    scale = np.max(np.abs(np.linalg.eigvalsh(report.d2w))) * np.linalg.norm(basis, 2) ** 2
    sig = signature_of(tilde, 1e-6 * max(scale, 1e-300))
    return dataclasses.replace(
        report, restricted={"basis": basis, "d2w_tilde": tilde, "signature_tilde": sig})
