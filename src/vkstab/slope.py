"""Slope matrix D^2 W of the reduced energy and its signature.

W(xi) is the constrained energy evaluated along the equilibrium family; its
Hessian equals minus the Jacobian of the conserved quantities F along the
family, which is what both the finite-difference and closed-form paths
compute.  The restricted form on a subalgebra basis supports the comparison
with the classical sufficient condition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import model_for
from .profiles import Family, Profile, SolverError
from .spectral import first_derivative_matrix, fold, second_derivative_matrix, unfold

__all__ = [
    "SlopeReport",
    "signature_of",
    "d2w_fd",
    "d2w_closed",
    "vk_integral",
    "single_vk_integral",
    "vk_slope_sign",
    "d2w_tilde",
]


@dataclass(frozen=True)
class SlopeReport:
    d2w: np.ndarray
    signature: tuple          # (positives, zeros, negatives)
    method: str               # "closed_form" or "finite_difference"
    asymmetry: float = 0.0
    condition_number: Optional[float] = None
    restricted: Optional[dict] = None

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
    eigs = np.linalg.eigvalsh(0.5 * (mat + mat.T))
    if z_tol is None:
        z_tol = 1e-6 * max(np.max(np.abs(eigs)), 1e-300)
    p = int(np.sum(eigs > z_tol))
    n = int(np.sum(eigs < -z_tol))
    return (p, mat.shape[0] - p - n, n)


def _report_from_matrix(raw: np.ndarray, method: str, asymmetry: float = 0.0) -> SlopeReport:
    sym = 0.5 * (raw + raw.T)
    sig = signature_of(sym)
    cond = None
    if sig[1] == 0:
        eigs = np.abs(np.linalg.eigvalsh(sym))
        cond = float(np.max(eigs) / np.min(eigs))
    return SlopeReport(sym, sig, method, asymmetry=asymmetry, condition_number=cond)


def d2w_fd(fam: Family, xi, h: Optional[float] = None) -> SlopeReport:
    """D^2 W = -D_xi F by centered differences over the family."""
    xi = np.asarray(xi, dtype=float)
    if h is None:
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

    The scaling identity gives d/domega int u^2 proportional to
    (d/2 - 2/(p-1)) / |omega|, so the slope is negative exactly when
    p < 1 + 4/d (the classical subcritical range).
    """
    if p <= 1 or d not in (1, 2, 3):
        raise ValueError("need p > 1 and d in {1, 2, 3}")
    val = d / 2.0 - 2.0 / (p - 1.0)
    if abs(val) < 1e-12:
        return 0
    return 1 if val > 0 else -1


def _even_solve(mat: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve mat y = rhs restricted to even functions about x = 0."""
    return unfold(np.linalg.solve(fold(mat), rhs[:rhs.size // 2 + 1]))


def single_vk_integral(prof: Profile, check_tol: float = 1e-6) -> float:
    """int u Lplus^{-1} u for a single soliton, with a scaling-identity check.

    The generator S = x d/dx + 2/(p-1) satisfies Lplus(S u) = 2 omega u
    exactly; the residual of that identity validates the assembled operator
    before the solve.
    """
    if prof.model.model != "single_nls" or prof.c != 0.0:
        raise ValueError("requires an unboosted single-component soliton")
    grid = prof.grid
    u = np.real(prof.field.values[0])
    p = prof.model.p
    omega = prof.omega
    lp = model_for(prof.model, grid).lplus(u[None], omega, second_derivative_matrix(grid))
    su = grid.nodes * (first_derivative_matrix(grid) @ u) + 2.0 / (p - 1.0) * u
    # The x-weight is discontinuous across the periodic wrap, which pollutes
    # the spectral derivative near the edges; check the identity away from
    # the boundary where the profile carries all its mass.
    interior = np.abs(grid.nodes) <= 0.5 * grid.extent
    resid_vec = lp @ su - 2.0 * omega * u
    resid = np.max(np.abs(resid_vec[interior])) / max(np.max(np.abs(u)), 1.0)
    if resid > check_tol:
        raise ValueError(f"scaling identity violated (residual {resid:.3e})")
    y = _even_solve(lp, u)
    return float(np.sum(u * y) * grid.spacing)


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
    scalar = np.real(prof.field.values[0] * np.exp(-0.5j * prof.c * grid.nodes)) / z1
    d2 = second_derivative_matrix(grid)
    ld = -d2 - np.diag((3.0 - 2.0 * m.delta * s) * scalar**2 + omega)
    y = _even_solve(ld, scalar)
    resid = np.max(np.abs(ld @ y - scalar))
    if resid > 1e-9 * max(np.max(np.abs(scalar)), 1.0):
        raise ValueError(f"Ldelta solve residual too large ({resid:.3e})")
    return float(np.sum(scalar * y) * grid.spacing)


def _single_closed(prof: Profile) -> SlopeReport:
    grid = prof.grid
    conj = np.exp(-0.5j * prof.c * grid.nodes)
    u = np.real(prof.field.values[0] * conj)
    omega = prof.omega
    p = prof.model.p
    mass = float(np.sum(u**2) * grid.spacing)
    # Scaling law: d/domega int u^2 = (1/omega)(2/(p-1) - 1/2) int u^2 in 1D.
    dmass = (2.0 / (p - 1.0) - 0.5) * mass / omega
    f = -0.5 * mass
    fprime = -0.5 * dmass
    c = prof.c
    mat = np.array(
        [
            [fprime, 0.5 * c * fprime],
            [0.5 * c * fprime, 0.25 * c**2 * fprime + 0.5 * f],
        ]
    )
    return _report_from_matrix(mat, "closed_form")


def _coupled_closed(prof: Profile) -> SlopeReport:
    if prof.zeta is None:
        raise ValueError("requires the symmetric closed-form soliton")
    z1, z2 = prof.zeta
    s = z1**2 + z2**2
    grid = prof.grid
    conj = np.exp(-0.5j * prof.c * grid.nodes)
    scalar = np.real(prof.field.values[0] * conj) / z1
    omega = prof.omega[0]
    mass = float(np.sum(scalar**2) * grid.spacing)
    a_int = mass / (4.0 * omega)          # int u Lplus^{-1} u in 1D
    b_int = vk_integral(prof)
    df11 = (z1**2 / s) * (z1**2 * a_int + z2**2 * b_int)
    df22 = (z2**2 / s) * (z2**2 * a_int + z1**2 * b_int)
    df12 = (z1**2 * z2**2 / s) * (a_int - b_int)
    w0 = -np.array([[df11, df12], [df12, df22]])
    f1 = 0.5 * z1**2 * mass
    f2 = 0.5 * z2**2 * mass
    c = prof.c
    mat = np.zeros((3, 3))
    mat[:2, :2] = w0
    mat[0, 2] = mat[2, 0] = 0.5 * c * (w0[0, 0] + w0[0, 1])
    mat[1, 2] = mat[2, 1] = 0.5 * c * (w0[1, 0] + w0[1, 1])
    mat[2, 2] = 0.25 * c**2 * np.sum(w0) - 0.5 * (f1 + f2)
    return _report_from_matrix(mat, "closed_form")


def _torus_closed(m, length: float) -> SlopeReport:
    det = m.alpha * m.gamma - m.delta**2
    if abs(det) < 1e-14:
        raise ValueError("slope matrix is undefined when alpha*gamma = delta^2")
    mat = (length / (2.0 * det)) * np.array([[m.gamma, -m.delta], [-m.delta, m.alpha]])
    return _report_from_matrix(mat, "closed_form")


def d2w_closed(prof: Profile) -> SlopeReport:
    """Closed-form slope matrix for the three analyzed models."""
    if prof.model.model == "single_nls":
        if prof.model.d != 1:
            raise ValueError(
                "matrix entries need grid quadrature, available for d = 1 only; "
                "use vk_slope_sign for the symbolic criterion"
            )
        return _single_closed(prof)
    if prof.is_torus:
        return _torus_closed(prof.model, prof.grid.extent)
    return _coupled_closed(prof)


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
    sig = signature_of(tilde)
    return SlopeReport(
        report.d2w,
        report.signature,
        report.method,
        asymmetry=report.asymmetry,
        condition_number=report.condition_number,
        restricted={"basis": basis, "d2w_tilde": tilde, "signature_tilde": sig},
    )
