"""Split-step time evolution and empirical orbital-stability experiments.

The propagator is a Strang splitting: the nonlinear flow only rotates the
phase pointwise (the modulus is conserved), so both half-steps are exact and
the scheme conserves every quadratic invariant to roundoff.  Samples are kept
in one array; their invariants and their alignment to the orbit are computed
as stacked arrays, in blocks of `CHUNK` samples.
"""

from __future__ import annotations

import csv
import io
import struct
from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional

import numpy as np

from .core import Field, Grid, gradient, h1_norm, step_count
from .model import field_to_vec, model_for, vec_to_field
from .profiles import Profile

__all__ = [
    "BlowUpError",
    "Trajectory",
    "OrbitDistanceSeries",
    "evolve",
    "apply_group",
    "align_to_orbit",
    "make_perturbation",
    "stability_experiment",
    "trajectory_to_csv",
    "distances_to_csv",
    "dump_binary",
]

BLOWUP_GUARD = 1e6
STABLE_ENVELOPE = 10.0      # a run is stable while its orbit distance stays below this times eps
CHUNK = 32                  # samples per stacked block of invariants and alignment
NEWTON_STEPS = 8            # cap on the Newton steps of the sub-grid shift
NEWTON_TOL = 1e-14          # shift step below which the Newton search stops


class BlowUpError(RuntimeError):
    """The evolved field left the sup-norm bound BLOWUP_GUARD, or stopped
    being finite."""


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    values: np.ndarray        # shape (samples, components, n), read-only
    grid: Grid
    energy: np.ndarray
    momenta: np.ndarray       # shape (samples, m)
    dt: float
    scheme: str = "strang"

    @cached_property
    def snapshots(self) -> List[Field]:
        """The samples as Fields, built on first access."""
        return [Field(v, self.grid) for v in self.values]


@dataclass(frozen=True)
class OrbitDistanceSeries:
    times: np.ndarray
    distances: np.ndarray
    group_params: List[dict]
    verdict: str
    max_distance: float
    growth_rate: Optional[float] = None


def _cis(x: np.ndarray) -> np.ndarray:
    """exp(i x) for real x, by one cosine and one sine: half the time of the
    complex exponential."""
    out = np.empty(x.shape, dtype=complex)
    np.cos(x, out=out.real)
    np.sin(x, out=out.imag)
    return out


def evolve(u0: Field, params, dt: float, t_end: float,
           sample_stride: int = 1) -> Trajectory:
    """Propagate the field to t_end with Strang splitting, sampling snapshots.

    The closing nonlinear half-step of one step and the opening one of the
    next are fused into one full step; a sample takes the closing half-step
    on a copy.
    """
    n_steps = step_count(dt, t_end, sample_stride)
    grid = u0.grid
    model = model_for(params, grid)
    model.check_components(u0.values)
    lin = model.linear_phases(grid, dt)
    sample_steps = np.unique(np.r_[0:n_steps + 1:sample_stride, n_steps])
    values = np.empty((sample_steps.size,) + u0.values.shape, dtype=complex)
    values[0] = u0.values

    half = 0.5 * dt
    tau = half                  # the first step opens with a half-step
    vals = u0.values
    pot = model.potential(np.abs(vals))
    for s in range(1, sample_steps.size):
        for step in range(sample_steps[s - 1] + 1, sample_steps[s] + 1):
            vals = np.fft.ifft(lin * np.fft.fft(vals * _cis(tau * pot), axis=1), axis=1)
            mod = np.abs(vals)      # the nonlinear flow keeps the modulus
            if not mod.max() <= BLOWUP_GUARD:
                raise BlowUpError(
                    f"blow-up detected at t = {step * dt:.4g} "
                    f"(sup-norm exceeds {BLOWUP_GUARD:g})"
                )
            pot = model.potential(mod)
            tau = dt
        values[s] = vals * _cis(half * pot)
    values.setflags(write=False)

    inv = [model.stacked_invariants(values[lo:lo + CHUNK], grid)
           for lo in range(0, len(values), CHUNK)]
    return Trajectory(
        times=sample_steps * dt,
        values=values,
        grid=grid,
        energy=np.concatenate([h for h, _ in inv]),
        momenta=np.concatenate([f for _, f in inv]),
        dt=dt,
    )


# ---------------------------------------------------------------------------
# Orbit alignment

def apply_group(f: Field, g: dict) -> Field:
    """Apply phases (and a translation, when present) to a field."""
    vals = f.values.copy()
    thetas = g.get("theta")
    if thetas is not None:
        thetas = np.atleast_1d(thetas)
        for c in range(vals.shape[0]):
            vals[c] = np.exp(1j * thetas[min(c, thetas.size - 1)]) * vals[c]
    a = g.get("shift", 0.0)
    if a:
        phase = np.exp(-1j * f.grid.wavenumbers * a)
        vals = np.fft.ifft(phase * np.fft.fft(vals, axis=1), axis=1)
    return Field(vals, f.grid)


def _align(values: np.ndarray, ref: Profile, model) -> tuple:
    """Align fields stacked along axis 0 of values, shape (S, components, n),
    to the symmetry orbit of ref in H1.

    Returns (phases, shifts, distances) of shapes (phases, S), (S,) and (S,).
    The shift is the best integer shift, refined by Newton steps on the
    overlap within one grid spacing of it (0 without translations).  The
    distance is the H1 norm of the aligned residual.
    """
    grid = ref.grid
    k = grid.wavenumbers
    w = 1.0 + k**2
    scale = grid.spacing / grid.n
    uhat = np.fft.fft(np.moveaxis(values, 1, 0), axis=-1)     # (components, S, n)
    rhat = np.fft.fft(ref.field.values, axis=-1)[:, None, :]
    # per component, the H1 overlap of u with ref translated by -a is
    # sum_k cross e^{i k a}
    cross = (w * scale) * np.conj(uhat) * rhat
    shifts = np.zeros(len(values))
    if model.translations:
        # all integer shifts at once: the overlaps are the inverse transform
        corr = np.fft.ifft(cross, axis=-1) * grid.n
        a0 = np.argmax(model.orbit_overlap(corr), axis=-1) * grid.spacing
        a0[a0 > grid.extent] -= 2.0 * grid.extent   # unwrap to the line [-R, R)
        shifts = a0
        for _ in range(NEWTON_STEPS):
            terms = cross * _cis(np.multiply.outer(shifts, k))
            g0, g1, g2 = (model.phase_overlaps(np.sum(terms * f, axis=-1))
                          for f in (1.0, 1j * k, -(k**2)))
            # first and second derivatives of the overlap sum_j |g_j| in a
            mod = np.abs(g0)
            d1 = np.real(np.conj(g0) * g1) / mod
            d2 = (np.abs(g1) ** 2 + np.real(np.conj(g0) * g2) - d1**2) / mod
            new = np.clip(shifts - np.sum(d1, axis=0) / np.sum(d2, axis=0),
                          a0 - grid.spacing, a0 + grid.spacing)
            done = np.max(np.abs(new - shifts)) < NEWTON_TOL
            shifts = new
            if done:
                break
    translate = _cis(np.multiply.outer(shifts, k))
    phases = model.orbit_phases(np.sum(cross * translate, axis=-1))
    residual = uhat - _cis(-phases)[:, :, None] * translate * rhat
    dist2 = np.sum(np.sum(w * (residual.real**2 + residual.imag**2), axis=-1), axis=0)
    return phases, shifts, np.sqrt(dist2 * scale)


def align_to_orbit(u: Field, ref: Profile) -> tuple:
    """Minimize the H1 distance from u to the symmetry orbit of ref.

    Returns (group parameters, distance); the group parameters take u to
    ref by `apply_group`.  Phases are per component for the two-component
    models; the translation parameter exists on line grids only.
    """
    model = model_for(ref.model, ref.grid)
    phases, shifts, dists = _align(u.values[None], ref, model)
    group = {"theta": phases[:, 0]}
    if model.translations:
        group["shift"] = float(shifts[0])
    return group, float(dists[0])


# ---------------------------------------------------------------------------
# Perturbations and the stability experiment

def make_perturbation(prof: Profile, kind: str, rng: np.random.Generator,
                      mode_n: int = 1) -> Field:
    """H1-normalized perturbation field of the requested class."""
    if kind not in ("band_limited", "single_mode", "kernel_orthogonal"):
        raise ValueError(f"unknown perturbation kind {kind!r}")
    grid = prof.grid
    n = grid.n
    comps = prof.field.components

    if kind == "single_mode":
        wave = np.cos(2.0 * np.pi * mode_n * grid.nodes / grid.length)
        # distinct complex amplitudes per component so every symmetric and
        # antisymmetric combination of the mode is excited
        amps = [1.0 + 0.37j, -0.81 + 0.23j][:comps]
        vals = np.array([a * wave.astype(complex) for a in amps])
    else:
        n_band = max(n // 8, 4)
        vals = np.zeros((comps, n), dtype=complex)
        for c in range(comps):
            coef = np.zeros(n, dtype=complex)
            live = np.r_[0:n_band, n - n_band:n]
            coef[live] = rng.standard_normal(live.size) + 1j * rng.standard_normal(live.size)
            vals[c] = np.fft.ifft(coef)
        if grid.kind == "line":
            envelope = np.exp(-((3.0 * grid.nodes / grid.extent) ** 2))
            vals = vals * envelope

    f = Field(vals, grid)
    if kind == "kernel_orthogonal":
        tangents, phase = model_for(prof.model, grid).tangents(prof)
        v = field_to_vec(f, phase)
        directions = list(tangents)
        # conserved-quantity gradients: each component mass gives the profile
        # itself, the momentum gives its derivative rotated by -i.
        directions.append(field_to_vec(prof.field, phase))
        gp = gradient(prof.field)
        directions.append(field_to_vec(gp.map_values(lambda x: -1j * x), phase))
        basis = np.linalg.qr(np.array(directions).T)[0]
        v = v - basis @ (basis.T @ v)
        f = vec_to_field(v, grid, phase)
    nrm = h1_norm(f)
    if nrm == 0.0:
        raise ValueError("degenerate perturbation")
    return f * (1.0 / nrm)


def _fit_growth_rate(times: np.ndarray, dists: np.ndarray, eps: float) -> Optional[float]:
    mask = (dists >= 10.0 * eps) & (dists <= 0.1)
    if np.sum(mask) < 3:
        return None
    coeffs = np.polyfit(times[mask], np.log(dists[mask]), 1)
    return float(coeffs[0])


def stability_experiment(prof: Profile, eps: float, dt: float, t_end: float,
                         kind: str = "band_limited", seed: int = 0,
                         mode_n: int = 1, sample_stride: int = 10) -> OrbitDistanceSeries:
    """Perturb, evolve, align the samples, and classify the orbit excursion."""
    if not (np.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be finite and positive (got {eps})")
    rng = np.random.default_rng(seed)
    pert = make_perturbation(prof, kind, rng, mode_n=mode_n)
    u0 = prof.field + eps * pert
    traj = evolve(u0, prof.model, dt, t_end, sample_stride=sample_stride)
    model = model_for(prof.model, prof.grid)
    aligned = [_align(traj.values[lo:lo + CHUNK], prof, model)
               for lo in range(0, len(traj.values), CHUNK)]
    phases = np.concatenate([p for p, _, _ in aligned], axis=1).T.tolist()
    shifts = np.concatenate([a for _, a, _ in aligned]).tolist()
    dists = np.concatenate([d for _, _, d in aligned])
    if model.translations:
        gs = [{"theta": th, "shift": a} for th, a in zip(phases, shifts)]
    else:
        gs = [{"theta": th} for th in phases]
    max_d = float(np.max(dists))
    rate = _fit_growth_rate(traj.times, dists, eps)
    verdict = "stable" if max_d <= STABLE_ENVELOPE * eps else "unstable"
    if model.empirical_only:
        verdict += " (empirical only)"
    return OrbitDistanceSeries(
        times=traj.times,
        distances=dists,
        group_params=gs,
        verdict=verdict,
        max_distance=max_d,
        growth_rate=rate,
    )


# ---------------------------------------------------------------------------
# Serialization

def trajectory_to_csv(traj: Trajectory) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    m = traj.momenta.shape[1]
    writer.writerow(["t", "H"] + [f"F{i + 1}" for i in range(m)])
    for i, t in enumerate(traj.times):
        writer.writerow([t, traj.energy[i]] + list(traj.momenta[i]))
    return buf.getvalue()


def distances_to_csv(series: OrbitDistanceSeries) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["t", "distance"])
    for t, d in zip(series.times, series.distances):
        writer.writerow([t, d])
    return buf.getvalue()


def dump_binary(traj: Trajectory, path: str, stride: int = 1) -> None:
    """Binary snapshot dump.

    Layout: a 32-byte little-endian header (struct "<qqdq": int64 n, int64
    components, float64 dt, int64 stride), then per snapshot one row per
    component of n interleaved re/im float64 pairs.
    """
    snaps = traj.values[::stride]
    _, comps, n = snaps.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack("<qqdq", n, comps, traj.dt, stride))
        fh.write(snaps.astype("<c16").tobytes())
