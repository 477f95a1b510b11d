"""Stability certification: hypothesis checks and verdict assembly.

A certificate records four checks: non-degeneracy of the slope matrix,
kernel-equals-orbit-tangent, a positive spectral gap that is stable under
grid refinement, and the index match between the slope matrix and the
Hessian.  They are assembled once, by `_certificate`, for the grid models
(`certify`) and for the central-force orbit (`certify_so3`, whose analytic
6x6 Hessian is one gridless block).  The slope matrix is the exact one of
`d2w_closed`, so certifying solves no other member of the family; the
finite-difference slope stays the cross-check.  Verdicts near a decision
boundary are reported as indeterminate rather than rounded to a side.  h1,
h2 and h3 record the margin by which they clear their tolerance
(`smallest_abs_eigenvalue / zero_tol`, the spectrum's `kernel_margin`,
`gap / ker_tol`); ker_tol bounds the kernel's eigenvalues and comes from
their accuracy, not from the grid (`hessian.spectrum`).  h2 records the
orbit tangents' `ritz_bound` and `angle_bound` and the `separation` of the
nearest eigenvalue outside the kernel, h3 the gap's `gap_error` and the
size of its refinement grid.  h3's refined gap is found by inertia
(`hessian.eigenvalue`, Newton's method from the base grid's gap), and for a
line profile h3 records how: the Schur complement's size per block, the
builds (`refinement_secant_steps`), the CG iterations and the last
residual.  The `gss` block restricts the slope matrix to the one-parameter
subgroup generated by xi, the classical (Grillakis-Shatah-Strauss)
condition's: it applies when that restricted index equals the Hessian's
negative index.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .core import make_grid
from .hessian import (
    Eigenvalue,
    HessOp,
    SpectralReport,
    assemble,
    eigenvalue,
    kernel_matches_orbit,
    spectrum,
)
from .model import model_for
from .profiles import Profile, SolverError
from .so3 import circular_orbit, hessian6, symmetry_tangent, w_so3
from .slope import SlopeReport, _report_from_matrix, d2w_closed, d2w_tilde, vk_integral

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
        doc = {
            "schema": self.schema,
            "checks": self.checks,
            "gss": self.gss,
            "verdict": self.verdict,
            "provenance": self.provenance,
        }
        # np.float64 is a float; other numpy scalars and arrays by tolist
        return json.dumps(doc, sort_keys=True, default=lambda o: o.tolist())

    def text_report(self) -> str:
        lines = [f"verdict: {self.verdict}"]
        for name, data in sorted(self.checks.items()):
            if name == "notes":
                lines.extend(f"  note {key}: {note}" for key, note in sorted(data.items()))
            else:
                lines.append(f"  {name}: {'ok' if data['ok'] else 'FAIL'}")
        if self.gss:
            lines.append(
                f"  stronger slope condition applies: {self.gss.get('applies')}"
            )
        return "\n".join(lines)


def _refined_gap(prof: Profile, index: int, guess: float) -> Eigenvalue:
    """Hessian gap of the same equilibrium's rest member, re-solved on the
    doubled grid: its eigenvalue `index` from below, the base grid's negative
    and kernel counts, found by inertia from the base grid's gap `guess`."""
    grid = prof.grid
    fine = make_grid(grid.kind, grid.extent, 2 * grid.n)
    refined = model_for(prof.model, grid).resolve(prof, prof.omega, fine)
    return eigenvalue(refined, index, guess)


def _certificate(slope_rep: SlopeReport, op: HessOp, spec_rep: SpectralReport, xi,
                 provenance: dict,
                 refinement: Optional[Tuple[int, Callable[[], Eigenvalue]]] = None
                 ) -> Certificate:
    """The four checks and the verdict, from the slope matrix and the Hessian
    of an equilibrium with generator xi.  `refinement` is (grid size, gap on
    that grid): the h3 gap must hold there too.  `provenance` adds to the
    tolerances recorded here."""
    checks = {}
    indeterminate = []
    failed = []

    # h1: slope matrix non-degenerate, judged on the eigenvalues of its
    # best-conditioned congruent form (the rest-frame form of a boost)
    p_w, z_w, n_w = slope_rep.signature
    eigs_w = slope_rep._eigenvalues
    z_tol = 1e-6 * max(np.max(np.abs(eigs_w)), 1e-300)
    min_abs = float(np.min(np.abs(eigs_w)))
    h1_ok = z_w == 0
    checks["h1_nondegenerate_W"] = {
        "ok": bool(h1_ok),
        "signature": [p_w, z_w, n_w],
        "smallest_abs_eigenvalue": min_abs,
        "zero_tol": z_tol,
        "margin": min_abs / z_tol,
        "asymmetry": slope_rep.asymmetry,
    }
    if not h1_ok:
        failed.append("h1")
    elif min_abs < MARGIN_FACTOR * z_tol:
        indeterminate.append("h1")

    # h2: kernel equals the orbit tangent, by the tangents' Ritz and
    # Davis-Kahan bounds.  The counts are decided when the nearest
    # eigenvalue outside the kernel clears MARGIN_FACTOR ker_tol; else h2
    # and h4 both are undecided.  A tangent that misses the kernel fails h2,
    # and a Ritz bound inside the separation by less than MARGIN_FACTOR
    # leaves it undecided.
    h2_ok = kernel_matches_orbit(spec_rep, op)
    counts_sharp = spec_rep.separation >= MARGIN_FACTOR * spec_rep.ker_tol
    checks["h2_kernel_equals_orbit"] = {
        "ok": bool(h2_ok),
        "dim_ker": spec_rep.dim_ker,
        "n_symmetries": int(op.symmetry_tangent.shape[0]),
        "ker_tol": spec_rep.ker_tol,
        "separation": spec_rep.separation,
        "margin": spec_rep.kernel_margin,
        "ritz_bound": spec_rep.ritz_bound,
        "angle_bound": spec_rep.angle_bound,
    }
    if not counts_sharp:
        indeterminate.append("h2")
    elif not h2_ok:
        failed.append("h2")
    elif spec_rep.kernel_margin < MARGIN_FACTOR:
        indeterminate.append("h2")

    # h3: positive gap, stable under refinement
    gap = spec_rep.gap_pos
    h3_ok = np.isfinite(gap) and gap > spec_rep.ker_tol
    ratio = fine_n = solve = None
    if h3_ok and refinement is not None:
        fine_n, refined_gap = refinement
        try:
            solve = refined_gap()
            ratio = float(solve.value / gap)
            h3_ok = abs(ratio - 1.0) <= 0.05
        except (SolverError, ValueError) as exc:
            h3_ok = False
            indeterminate.append("h3")
            checks.setdefault("notes", {})["h3_refinement_error"] = str(exc)
    checks["h3_positive_gap"] = {
        "ok": bool(h3_ok),
        "gap": float(gap),
        "gap_error": float(spec_rep.gap_error),
        "margin": float(gap / spec_rep.ker_tol) if spec_rep.ker_tol > 0.0 else np.inf,
        "refinement_n": fine_n,
        "refinement_ratio": ratio,
    }
    if solve is not None and solve.complement:
        # how the line blocks' Schur complements reached the refined gap
        checks["h3_positive_gap"].update({
            "refinement_complement": list(solve.complement),
            "refinement_secant_steps": solve.secant_steps,
            "refinement_cg_iterations": solve.cg_iterations,
            "refinement_residual": solve.residual,
        })
    # a gap within MARGIN_FACTOR of ker_tol is not told apart from the kernel
    if "h3" not in indeterminate:
        if np.isfinite(gap) and gap < MARGIN_FACTOR * spec_rep.ker_tol:
            indeterminate.append("h3")
        elif not h3_ok:
            failed.append("h3")

    # h4: index match
    h4_ok = p_w == spec_rep.n_neg
    checks["h4_index_match"] = {
        "ok": bool(h4_ok),
        "p_d2w": p_w,
        "n_d2l": spec_rep.n_neg,
    }
    if not h4_ok and counts_sharp:
        failed.append("h4")

    # restricted slope comparison (informational): the one-parameter
    # subgroup generated by xi, the classical condition's
    try:
        tilde_rep = d2w_tilde(slope_rep, (xi / max(np.linalg.norm(xi), 1e-300))[:, None])
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
        "spectrum_parts": [list(p) for p in spec_rep.parts],
        "margin_factor": MARGIN_FACTOR,
        **provenance,
    }
    return Certificate(checks=checks, gss=gss, verdict=verdict, provenance=provenance)


def certify(prof: Profile) -> Certificate:
    """Run the four hypothesis checks on an equilibrium and assemble a
    verdict; h3's gap is checked again on the doubled grid."""
    try:
        slope_rep = d2w_closed(prof)
        op = assemble(prof)
        rep = spectrum(op, n_eigs=0)
    except (SolverError, ValueError) as exc:
        return Certificate(
            checks={"error": {"ok": False, "detail": str(exc)}},
            gss={},
            verdict="indeterminate(solver)",
            provenance={"error": str(exc)},
        )
    grid = prof.grid
    return _certificate(
        slope_rep, op, rep, prof.xi,
        {"grid": {"kind": grid.kind, "extent": grid.extent, "n": grid.n}},
        refinement=(2 * grid.n,
                    lambda: _refined_gap(prof, rep.n_neg + rep.dim_ker, rep.gap_pos)),
    )


def certify_so3(rho: float, omega_pot: float, alpha: float) -> Certificate:
    """Certificate for the rotation-invariant mechanical example: its analytic
    6x6 Hessian is one block, with the residual rotation as its orbit tangent,
    and its slope matrix the closed-form one."""
    state = circular_orbit(rho, omega_pot, alpha)
    op = HessOp((hessian6(state),), None, symmetry_tangent(state)[None], None)
    slope_rep = _report_from_matrix(w_so3(state.xi, omega_pot, alpha)[1], "closed_form")
    return _certificate(
        slope_rep, op, spectrum(op, n_eigs=0), state.xi,
        {"example": "so3_central_force", "rho": rho, "omega_pot": omega_pot, "alpha": alpha},
    )


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
