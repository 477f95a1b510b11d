"""Closed-form spectral and linear-stability analysis of torus plane waves.

Everything here is per-Fourier-mode arithmetic: the Hessian eigenvalues of a
constant two-component wave, the eigenvalues of the time linearization (exact
when k = 0 or when alpha zeta1^2 = gamma zeta2^2; otherwise quartic roots are
reported without a stability verdict) and the coercivity verdict.  Each
decision is made once: `coercivity_condition` decides coercivity, and
`linearization_eigs` decides between the closed form and the quartic;
`mode_table` reports both.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, dataclass
from typing import List, Union

import numpy as np

from .core import check_positive

__all__ = [
    "ModeTable",
    "c_plusminus",
    "hessian_mode_eigs",
    "coercivity_condition",
    "linearization_eigs",
    "mode_table",
]


def _zeta_pair(zeta) -> tuple:
    z1, z2 = float(zeta[0]), float(zeta[1])
    if not (np.isfinite(z1) and np.isfinite(z2)):
        raise ValueError(f"plane-wave amplitudes zeta1, zeta2 must be finite "
                         f"(got {z1:g}, {z2:g})")
    if z1 == 0.0 or z2 == 0.0:
        raise ValueError("plane-wave amplitudes must be nonzero")
    return z1, z2


def c_plusminus(params, zeta) -> tuple:
    """The two constants governing the n = 0 Hessian block."""
    z1, z2 = _zeta_pair(zeta)
    trace = params.alpha * z1**2 + params.gamma * z2**2
    disc = trace**2 - 4.0 * z1**2 * z2**2 * (params.alpha * params.gamma - params.delta**2)
    # disc = (alpha z1^2 - gamma z2^2)^2 + 4 z1^2 z2^2 delta^2 >= 0 always.
    root = np.sqrt(max(disc, 0.0))
    return (-trace + root, -trace - root)


def _n_L(n: int, length: float) -> float:
    """The wavenumber 2 pi n / L of mode n; every public function with a
    torus length reaches it."""
    check_positive("length", length)
    return 2.0 * np.pi * n / length


def hessian_mode_eigs(n: int, params, zeta, length: float) -> np.ndarray:
    """The four Hessian eigenvalues at Fourier mode n."""
    if n < 0:
        raise ValueError("mode index must be nonnegative")
    cp, cm = c_plusminus(params, zeta)
    b, k = params.beta, params.k
    nl2 = _n_L(n, length) ** 2
    out = []
    for c in (cp, cm):
        root = np.sqrt(c**2 + 16.0 * b**2 * k**2 * nl2)
        out.append(b * nl2 + 0.5 * (c + root))
        out.append(b * nl2 + 0.5 * (c - root))
    return np.array(out)   # order: lam+_{+,n}, lam+_{-,n}, lam-_{+,n}, lam-_{-,n}


def coercivity_condition(params, zeta, length: float) -> tuple:
    """First-mode positivity margin beta (2 pi/L)^2 + C_- - 4 beta k^2.

    Coercive iff the margin clears the roundoff of its three terms.  Then
    every mode n >= 1 is positive, and mode 0 holds the two phase directions
    and as many negative directions as the slope matrix has positive ones.
    """
    if abs(params.alpha * params.gamma - params.delta**2) < 1e-14:
        raise ValueError("condition undefined when alpha*gamma = delta^2")
    _, cm = c_plusminus(params, zeta)
    kinetic, offset = params.beta * _n_L(1, length) ** 2, 4.0 * params.beta * params.k**2
    margin = kinetic + cm - offset
    return margin > 1e-12 * (kinetic + abs(cm) + offset), float(margin)


def _quartic_coeffs(n: int, params, zeta, length: float) -> np.ndarray:
    z1, z2 = _zeta_pair(zeta)
    b, k = params.beta, params.k
    nl = _n_L(n, length)
    bn = b * nl**2
    tr = params.alpha * z1**2 + params.gamma * z2**2
    det = params.alpha * params.gamma - params.delta**2
    c4 = 1.0
    c3 = 0.0
    c2 = -2.0 * bn * (-bn + tr - 4.0 * b * k**2)
    c1 = 8.0j * bn * b * k * nl * (params.alpha * z1**2 - params.gamma * z2**2)
    c0 = (
        bn**3 * (bn - 2.0 * tr)
        + 4.0 * bn**2 * z1**2 * z2**2 * det
        + 8.0 * bn * (b * k * nl) ** 2 * (-bn + tr + 2.0 * b * k**2)
    )
    return np.array([c4, c3, c2, c1, c0], dtype=complex)


def linearization_eigs(n: int, params, zeta, length: float) -> Union[tuple, np.ndarray]:
    """Eigenvalue data of the time linearization at mode n.

    Returns the pair (lambda^2_+, lambda^2_-) when the closed form applies
    (k = 0, or alpha zeta1^2 = gamma zeta2^2); otherwise the four complex
    roots of the characteristic quartic.
    """
    if n < 0:
        raise ValueError("mode index must be nonnegative")
    z1, z2 = _zeta_pair(zeta)
    b, k = params.beta, params.k
    nl2 = _n_L(n, length) ** 2
    tr = params.alpha * z1**2 + params.gamma * z2**2
    diff = params.alpha * z1**2 - params.gamma * z2**2
    if k == 0.0:
        root = np.sqrt(diff**2 + 4.0 * z1**2 * z2**2 * params.delta**2)
        return (b * nl2 * (-b * nl2 + tr + root), b * nl2 * (-b * nl2 + tr - root))
    if abs(diff) <= 1e-12 * max(abs(tr), 1.0):
        inside = 4.0 * z1**2 * z2**2 * params.delta**2 + 16.0 * b * k**2 * (b * nl2 - tr)
        root = np.emath.sqrt(inside)
        base = -b * nl2 + tr - 4.0 * b * k**2
        return (
            complex(b * nl2 * (base + root)),
            complex(b * nl2 * (base - root)),
        )
    return np.roots(_quartic_coeffs(n, params, zeta, length))


# The CSV columns: the mode, its Hessian eigenvalues in the order of
# hessian_mode_eigs, and lambda^2 where the closed form applies.
_COLUMNS = ("n", "lam_plus_plus", "lam_plus_minus", "lam_minus_plus", "lam_minus_minus",
            "lin_sq_plus", "lin_sq_minus")


@dataclass(frozen=True)
class ModeTable:
    rows: List[dict]
    c_plus: float
    c_minus: float
    coercive: bool
    coercivity_margin: float
    n_neg_total: int
    linearly_stable: Union[bool, str]
    max_growth_rate: float

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=_COLUMNS)
        writer.writeheader()
        for row in self.rows:
            writer.writerow({f: row.get(f, "") for f in _COLUMNS})
        return buf.getvalue()


def mode_table(params, zeta, length: float, n_max: int = 8) -> ModeTable:
    """Tabulate per-mode spectra and render the stability verdicts."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    cp, cm = c_plusminus(params, zeta)
    coercive, margin = coercivity_condition(params, zeta, length)

    rows = []
    n_neg = 0
    max_growth = 0.0
    lin_ok = True
    closed_lin = True
    for n in range(n_max + 1):
        eigs = hessian_mode_eigs(n, params, zeta, length)
        scale = max(abs(cp), abs(cm), params.beta * _n_L(max(n, 1), length) ** 2)
        mult = 1 if n == 0 else 2   # modes +-n both contribute for n >= 1
        n_neg += mult * int(np.sum(eigs < -1e-12 * scale))
        row = dict(zip(_COLUMNS, (n, *eigs)))
        lin = linearization_eigs(n, params, zeta, length)
        if isinstance(lin, tuple):   # the closed form (lambda^2_+, lambda^2_-)
            lsqs = [float(np.real(v)) for v in lin]
            row["lin_sq_plus"], row["lin_sq_minus"] = lsqs
            lin_tol = 1e-12 * max(params.beta * _n_L(max(n, 1), length) ** 2, 1.0)
            for lsq in lsqs:
                if lsq > lin_tol:
                    lin_ok = False
                    max_growth = max(max_growth, float(np.sqrt(lsq)))
        else:
            closed_lin = False
            growth = float(np.max(np.real(lin)))
            row["quartic_roots_re"] = np.real(lin).tolist()
            row["quartic_roots_im"] = np.imag(lin).tolist()
            max_growth = max(max_growth, max(growth, 0.0))
        rows.append(row)

    return ModeTable(
        rows=rows,
        c_plus=float(cp),
        c_minus=float(cm),
        coercive=bool(coercive),
        coercivity_margin=margin,
        n_neg_total=int(n_neg),
        linearly_stable=lin_ok if closed_lin else "numerical only",
        max_growth_rate=float(max_growth),
    )
