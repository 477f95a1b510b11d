"""Stability certification: hypothesis checks and verdict assembly.

A certificate records four checks: non-degeneracy of the slope matrix,
kernel-equals-orbit-tangent, a positive spectral gap that is stable under
grid refinement, and the index match between the slope matrix and the
Hessian.  The slope matrix is the exact one of `d2w_closed`, so certifying
solves no other member of the family; the finite-difference slope stays the
cross-check.  Verdicts near a decision boundary are reported as indeterminate
rather than rounded to a side.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import make_grid
from .hessian import KERNEL_ANGLE_TOL, assemble, kernel_matches_orbit, spectrum
from .model import model_for
from .profiles import Profile, SolverError
from .slope import d2w_closed, d2w_tilde, signature_of, vk_integral

__all__ = [
    "Certificate",
    "certify",
    "certify_so3",
    "coupled_stability_criteria",
]

SCHEMA_VERSION = 1
MARGIN_FACTOR = 3.0


@dataclass
class Certificate:
    checks: dict
    gss: dict
    verdict: str
    provenance: dict
    schema: int = SCHEMA_VERSION

    @property
    def certified(self) -> bool:
        return self.verdict == "certified_coercive"

    def to_json(self) -> str:
        def _clean(obj):
            if isinstance(obj, dict):
                return {k: _clean(v) for k, v in obj.items()}
            if isinstance(obj, (list, tuple)):
                return [_clean(v) for v in obj]
            if isinstance(obj, np.ndarray):
                return obj.tolist()
            if isinstance(obj, (np.floating, np.integer)):
                return obj.item()
            if isinstance(obj, (np.bool_,)):
                return bool(obj)
            return obj

        doc = {
            "schema": self.schema,
            "checks": _clean(self.checks),
            "gss": _clean(self.gss),
            "verdict": self.verdict,
            "provenance": _clean(self.provenance),
        }
        return json.dumps(doc, sort_keys=True)

    def text_report(self) -> str:
        lines = [f"verdict: {self.verdict}"]
        for name, data in sorted(self.checks.items()):
            lines.append(f"  {name}: {'ok' if data['ok'] else 'FAIL'}")
        if self.gss:
            lines.append(
                f"  stronger slope condition applies: {self.gss.get('applies')}"
            )
        return "\n".join(lines)


def _refined_gap(prof: Profile) -> float:
    """Hessian gap of the same equilibrium, re-solved on the doubled grid."""
    grid = prof.grid
    fine = make_grid(grid.kind, grid.extent, 2 * grid.n)
    return spectrum(assemble(model_for(prof.model, grid).resolve(prof, prof.xi, fine))).gap_pos


def certify(prof: Profile, *, refine: bool = True,
            subalgebra_basis: Optional[np.ndarray] = None) -> Certificate:
    """Run the four hypothesis checks on an equilibrium and assemble a verdict."""
    try:
        slope_rep = d2w_closed(prof)
        op = assemble(prof)
    except (SolverError, ValueError) as exc:
        return Certificate(
            checks={"error": {"ok": False, "detail": str(exc)}},
            gss={},
            verdict="indeterminate(solver)",
            provenance={"error": str(exc)},
        )
    spec_rep = spectrum(op)

    checks = {}
    indeterminate = []
    failed = []

    # h1: slope matrix non-degenerate
    p_w, z_w, n_w = slope_rep.signature
    eigs_w = np.linalg.eigvalsh(slope_rep.d2w)
    z_tol = 1e-6 * max(np.max(np.abs(eigs_w)), 1e-300)
    min_abs = float(np.min(np.abs(eigs_w)))
    h1_ok = z_w == 0
    checks["h1_nondegenerate_W"] = {
        "ok": bool(h1_ok),
        "signature": [p_w, z_w, n_w],
        "smallest_abs_eigenvalue": min_abs,
        "zero_tol": z_tol,
        "asymmetry": slope_rep.asymmetry,
    }
    if not h1_ok:
        failed.append("h1")
    elif min_abs < MARGIN_FACTOR * z_tol:
        indeterminate.append("h1")

    # h2: kernel equals the orbit tangent
    h2_ok = kernel_matches_orbit(spec_rep, op)
    checks["h2_kernel_equals_orbit"] = {
        "ok": bool(h2_ok),
        "dim_ker": spec_rep.dim_ker,
        "n_symmetries": int(op.symmetry_tangent.shape[0]),
        "ker_tol": spec_rep.ker_tol,
    }
    if not h2_ok:
        failed.append("h2")

    # h3: positive gap, stable under refinement
    gap = spec_rep.gap_pos
    h3_ok = np.isfinite(gap) and gap > spec_rep.ker_tol
    ratio = None
    if h3_ok and refine:
        try:
            gap2 = _refined_gap(prof)
            ratio = float(gap2 / gap)
            h3_ok = abs(ratio - 1.0) <= 0.05
        except (SolverError, ValueError) as exc:
            h3_ok = False
            indeterminate.append("h3")
            checks.setdefault("notes", {})["h3_refinement_error"] = str(exc)
    checks["h3_positive_gap"] = {
        "ok": bool(h3_ok),
        "gap": float(gap),
        "refinement_ratio": ratio,
    }
    if not h3_ok and "h3" not in indeterminate:
        failed.append("h3")
    elif h3_ok and gap < MARGIN_FACTOR * spec_rep.ker_tol:
        indeterminate.append("h3")

    # h4: index match
    h4_ok = p_w == spec_rep.n_neg
    checks["h4_index_match"] = {
        "ok": bool(h4_ok),
        "p_d2w": p_w,
        "n_d2l": spec_rep.n_neg,
    }
    if not h4_ok:
        failed.append("h4")

    # restricted slope comparison (informational)
    if subalgebra_basis is None:
        subalgebra_basis = np.eye(prof.xi.size)
    try:
        tilde_rep = d2w_tilde(slope_rep, subalgebra_basis)
        p_tilde = tilde_rep.restricted["signature_tilde"][0]
        gss = {
            "p_w_tilde": p_tilde,
            "applies": bool(p_tilde == spec_rep.n_neg),
            "chain_ok": bool(p_tilde <= p_w <= spec_rep.n_neg),
        }
    except ValueError as exc:
        gss = {"error": str(exc)}

    if failed:
        verdict = "failed(" + ",".join(failed) + ")"
    elif indeterminate:
        verdict = "indeterminate(" + ",".join(indeterminate) + ")"
    else:
        verdict = "certified_coercive"

    provenance = {
        "slope_method": slope_rep.method,
        "ker_tol": spec_rep.ker_tol,
        "kernel_angle_tol": KERNEL_ANGLE_TOL,
        "spectrum_parts": [list(p) for p in spec_rep.parts],
        "refinement_surrogate": refine,
        "margin_factor": MARGIN_FACTOR,
        "grid": {"kind": prof.grid.kind, "extent": prof.grid.extent, "n": prof.grid.n},
    }
    return Certificate(checks=checks, gss=gss, verdict=verdict, provenance=provenance)


def certify_so3(rho: float, omega_pot: float, alpha: float) -> Certificate:
    """Certificate for the rotation-invariant mechanical example."""
    from .so3 import circular_orbit, hessian6, symmetry_tangent, w_so3, w_so3_fd

    state = circular_orbit(rho, omega_pot, alpha)
    mat, eigs, n_neg, dim_ker = hessian6(state)
    _, d2w = w_so3(state.xi, omega_pot, alpha)
    fd = w_so3_fd(state.xi, omega_pot, alpha)
    fd_err = float(np.max(np.abs(d2w - fd)))
    sig = signature_of(d2w)
    p_w = sig[0]

    tangent = symmetry_tangent(state)
    # kernel alignment of the 6x6 brute-force Hessian
    evals, evecs = np.linalg.eigh(mat)
    ker = evecs[:, np.abs(evals) <= 1e-8]
    t_hat = tangent / np.linalg.norm(tangent)
    aligned = ker.shape[1] == 1 and abs(np.dot(ker[:, 0], t_hat)) > 1.0 - 1e-8

    xi_hat = state.xi / np.linalg.norm(state.xi)
    tilde = float(xi_hat @ d2w @ xi_hat)
    p_tilde = 1 if tilde > 1e-12 else 0

    above = evals[evals > 1e-8]
    gap = float(above[0]) if above.size else np.inf

    checks = {
        "h1_nondegenerate_W": {"ok": sig[1] == 0, "signature": list(sig), "fd_mismatch": fd_err},
        "h2_kernel_equals_orbit": {"ok": bool(aligned), "dim_ker": dim_ker},
        "h3_positive_gap": {"ok": gap > 0, "gap": gap, "refinement_ratio": None},
        "h4_index_match": {"ok": p_w == n_neg, "p_d2w": p_w, "n_d2l": n_neg},
    }
    ok = all(c["ok"] for c in checks.values())
    gss = {"p_w_tilde": p_tilde, "applies": bool(p_tilde == n_neg)}
    verdict = "certified_coercive" if ok else "failed(" + ",".join(
        k[:2] for k, c in checks.items() if not c["ok"]
    ) + ")"
    provenance = {"example": "so3_central_force", "rho": rho, "omega_pot": omega_pot,
                  "alpha": alpha, "ker_tol": 1e-8}
    return Certificate(checks=checks, gss=gss, verdict=verdict, provenance=provenance)


def coupled_stability_criteria(prof: Profile) -> dict:
    """Closed-form stability cases for the symmetric coupled soliton.

    Case 1 (delta above both self-couplings): one negative Hessian direction;
    stable exactly when the resolvent integral is positive.  Case 2 (delta
    below both): two negative directions; stable exactly when the integral is
    negative.
    """
    m = prof.model
    if m.model != "coupled" or prof.is_torus or prof.zeta is None:
        raise ValueError("requires a symmetric coupled line soliton")
    lo, hi = min(m.alpha, m.gamma), max(m.alpha, m.gamma)
    if lo <= m.delta <= hi:
        raise ValueError("inadmissible coupling: delta between the self-couplings")
    integral = vk_integral(prof)
    if m.delta > hi:
        case = 1
        stable = integral > 0.0
    else:
        case = 2
        stable = integral < 0.0
    closed = d2w_closed(prof)
    return {
        "case": case,
        "vk_integral": integral,
        "stable": bool(stable),
        "d2w_signature": list(closed.signature),
    }
