"""Constrained-energy gradients and discretized Hessian operators.

For each model the second variation of L_xi = H - xi . F at an equilibrium is
assembled as a dense real symmetric matrix acting on the stacked (Re, Im)
components.  Boosted solitons are handled by conjugating with the gauge phase
exp(i c x / 2), so spectra are boost-independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg

from .core import Field, Grid
from .model import model_for
from .profiles import Profile, boost

__all__ = [
    "HessOp",
    "SpectralReport",
    "grad_L",
    "assemble",
    "spectrum",
    "kernel_matches_orbit",
]

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
    """Dense real-symmetric Hessian with its symmetry-orbit tangent vectors.

    The matrix acts on stacked real vectors [Re u_1, .., Im u_1, ..] in the
    gauge-rotated frame; `phase` carries the frame change for boosted
    profiles (identity when c = 0).
    """

    matrix: np.ndarray
    grid: Grid
    components: int
    symmetry_tangent: np.ndarray      # rows: tangent vectors in real coords
    phase: Optional[np.ndarray]

    def __post_init__(self):
        self.matrix.setflags(write=False)
        self.symmetry_tangent.setflags(write=False)

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    def field_to_vec(self, f: Field) -> np.ndarray:
        vals = f.values
        if self.phase is not None:
            vals = vals * np.conj(self.phase)
        return np.concatenate([np.real(vals).ravel(), np.imag(vals).ravel()])

    def vec_to_field(self, v: np.ndarray) -> Field:
        half = v.size // 2
        re = v[:half].reshape(self.components, -1)
        im = v[half:].reshape(self.components, -1)
        vals = re + 1j * im
        if self.phase is not None:
            vals = vals * self.phase
        return Field(vals, self.grid)

    def apply(self, f: Field) -> Field:
        return self.vec_to_field(self.matrix @ self.field_to_vec(f))

    def tangent_fields(self) -> list:
        return [self.vec_to_field(t) for t in self.symmetry_tangent]


@dataclass(frozen=True)
class SpectralReport:
    """Spectrum classification of a Hessian operator."""

    eigenvalues: np.ndarray          # lowest n_eigs
    n_neg: int
    dim_ker: int
    gap_pos: float
    ker_tol: float
    kernel_vectors: np.ndarray       # rows: real coordinate vectors
    all_eigenvalues: np.ndarray

    def to_dict(self) -> dict:
        return {
            "eigenvalues": self.eigenvalues.tolist(),
            "n_neg": self.n_neg,
            "dim_ker": self.dim_ker,
            "gap_pos": self.gap_pos,
            "ker_tol": self.ker_tol,
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
    mat, tangents, phase = model.hessian(prof)
    return HessOp(mat, prof.grid, prof.model.components, tangents, phase)


def spectrum(op: HessOp, n_eigs: int = 12) -> SpectralReport:
    """Classify the lowest eigenvalues of the Hessian."""
    eigvals, eigvecs = scipy.linalg.eigh(op.matrix)
    ker_tol = 1e-6 * float(np.max(np.abs(eigvals)))
    n_neg = int(np.sum(eigvals < -ker_tol))
    ker_mask = np.abs(eigvals) <= ker_tol
    dim_ker = int(np.sum(ker_mask))
    above = eigvals[eigvals > ker_tol]
    gap_pos = float(above[0]) if above.size else np.inf
    kernel_vectors = eigvecs[:, ker_mask].T.copy()
    return SpectralReport(
        eigenvalues=eigvals[:n_eigs].copy(),
        n_neg=n_neg,
        dim_ker=dim_ker,
        gap_pos=gap_pos,
        ker_tol=ker_tol,
        kernel_vectors=kernel_vectors,
        all_eigenvalues=eigvals,
    )


def kernel_matches_orbit(rep: SpectralReport, op: HessOp, tol: float = 1e-5) -> bool:
    """True iff the numerical kernel coincides with the orbit tangent space."""
    n_sym = op.symmetry_tangent.shape[0]
    if rep.dim_ker != n_sym:
        return False
    if n_sym == 0:
        return True
    angles = scipy.linalg.subspace_angles(rep.kernel_vectors.T, op.symmetry_tangent.T)
    return bool(np.max(angles) <= tol)
