"""Split-step time evolution and empirical orbital-stability experiments.

The propagator is a Strang splitting: the nonlinear flow only rotates the
phase pointwise (the modulus is conserved), so both half-steps are exact and
the scheme conserves every quadratic invariant to roundoff.  A step costs
two FFTs of a few hundred points and a few pointwise operations, so numpy's
per-call overhead is a large part of it: the loop writes into buffers
allocated once per run (`out=`) rather than allocating a temporary per
operation.  Samples are kept in one array; their alignment to the orbit, and
their invariants when first asked for, are computed as stacked arrays, in
blocks of `CHUNK` samples.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional

import numpy as np
import scipy.linalg

from .core import Field, Grid, check_positive, h1_norm, step_count
from .linalg import matvec
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
    "distances_to_csv",
]

BLOWUP_GUARD = 1e6
STABLE_ENVELOPE = 10.0      # a run is stable while its orbit distance stays below this times eps
CHUNK = 32                  # samples per stacked block of invariants and alignment
NEWTON_STEPS = 8            # cap on the Newton steps of the sub-grid shift
NEWTON_TOL = 1e-14          # shift step below which the Newton search stops
# Largest Fourier amplitude, relative to the peak, that a line profile may
# have in the outer eighth of the band.  Measured on Coupled(1, 1, 2) at
# n = 256, R = 20, eps = 1e-4, dt = 0.01: boosts whose fields reach 1.3e-5
# (c = 20) and above evolve to a wrong "unstable"; 2.8e-6 (c = 18) and below
# stay stable, as does the unboosted cubic soliton at n = 128 (2.1e-6).
RESOLVED_TAIL = 1e-5


class BlowUpError(RuntimeError):
    """The evolved field left the sup-norm bound BLOWUP_GUARD, or stopped
    being finite."""


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    values: np.ndarray        # shape (samples, components, n), read-only
    grid: Grid
    params: object            # the model parameters of the evolution
    dt: float

    @cached_property
    def snapshots(self) -> List[Field]:
        """The samples as Fields, built on first access."""
        return [Field(v, self.grid) for v in self.values]

    @cached_property
    def _invariants(self) -> tuple:
        model = model_for(self.params, self.grid)
        inv = [model.stacked_invariants(self.values[lo:lo + CHUNK], self.grid)
               for lo in range(0, len(self.values), CHUNK)]
        return np.concatenate([h for h, _ in inv]), np.concatenate([f for _, f in inv])

    @property
    def energy(self) -> np.ndarray:
        """Energy of each sample, computed on first access."""
        return self._invariants[0]

    @property
    def momenta(self) -> np.ndarray:
        """Momentum map of each sample, shape (samples, m), computed on first
        access."""
        return self._invariants[1]


@dataclass(frozen=True)
class OrbitDistanceSeries:
    times: np.ndarray
    distances: np.ndarray
    group_params: List[dict]
    verdict: str
    max_distance: float
    growth_rate: Optional[float] = None


def _cis(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """exp(i x) for real x, by one cosine and one sine: half the time of the
    complex exponential.  Written into the complex array out when given."""
    if out is None:
        out = np.empty(x.shape, dtype=complex)
    np.cos(x, out=out.real)
    np.sin(x, out=out.imag)
    return out


def evolve(u0: Field, params, dt: float, t_end: float,
           sample_stride: int = 1) -> Trajectory:
    """Propagate the field to t_end with Strang splitting, sampling snapshots.

    The closing nonlinear half-step of one step and the opening one of the
    next are fused into one full step; a sample takes the closing half-step
    on a copy.  Each step runs in buffers allocated once, with `out=`, in
    the operand order of the unbuffered expression
    ifft(lin * fft(vals * exp(i tau V))), so the trajectory is the same to
    the bit.
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
    vals = u0.values.copy()     # the field, transformed in place
    spec = np.empty_like(vals)  # its spectrum
    rot = np.empty_like(vals)   # exp(i tau V), then the rotated field
    arg = np.empty(vals.shape)  # tau V
    mod = np.abs(vals)
    pot = model.potential(mod)
    for s in range(1, sample_steps.size):
        for step in range(sample_steps[s - 1] + 1, sample_steps[s] + 1):
            np.multiply(vals, _cis(np.multiply(tau, pot, out=arg), rot), out=rot)
            np.fft.fft(rot, axis=1, out=spec)
            np.fft.ifft(np.multiply(lin, spec, out=spec), axis=1, out=vals)
            np.abs(vals, out=mod)   # the nonlinear flow keeps the modulus
            if not mod.max() <= BLOWUP_GUARD:
                raise BlowUpError(
                    f"blow-up detected at t = {step * dt:.4g} "
                    f"(sup-norm exceeds {BLOWUP_GUARD:g})"
                )
            pot = model.potential(mod)
            tau = dt
        np.multiply(vals, _cis(np.multiply(half, pot, out=arg), rot), out=values[s])
    values.setflags(write=False)
    return Trajectory(times=sample_steps * dt, values=values, grid=grid, params=params, dt=dt)


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
        # the conserved-quantity gradients J^-1 T_k, J^-1 (a, b) = (b, -a)
        re, im = np.hsplit(tangents, 2)
        directions = np.vstack([tangents, np.hstack([im, -re])])
        basis = scipy.linalg.qr(directions.T, mode="economic")[0]
        v = field_to_vec(f, phase)
        v = v - matvec(basis, matvec(basis.T, v))
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


def _check_resolved(prof: Profile) -> None:
    """ValueError unless the grid resolves the lab-frame field of a line
    profile: the boost's carrier wavenumber |c|/2 lies below the Nyquist
    wavenumber, and the field's Fourier amplitudes in the outer eighth of the
    band stay within RESOLVED_TAIL of its peak."""
    grid = prof.grid
    if grid.kind != "line":
        return
    k = np.abs(grid.wavenumbers)
    k_nyq = k[grid.n // 2]
    if abs(prof.c) / 2.0 >= k_nyq:
        raise ValueError(f"boost c = {prof.c:g} puts the carrier wavenumber |c|/2 at or "
                         f"beyond the grid's Nyquist wavenumber {k_nyq:.4g}")
    amp = np.abs(np.fft.fft(prof.field.values, axis=-1))
    tail = float(np.max(amp[:, k >= 0.875 * k_nyq]) / np.max(amp))
    if tail > RESOLVED_TAIL:
        raise ValueError(f"the grid does not resolve the lab-frame field: its Fourier "
                         f"amplitude in the outer eighth of the band is {tail:.1e} of the "
                         f"peak (limit {RESOLVED_TAIL:g})")


def stability_experiment(prof: Profile, eps: float, dt: float, t_end: float,
                         kind: str = "band_limited", seed: int = 0,
                         mode_n: int = 1, sample_stride: int = 10) -> OrbitDistanceSeries:
    """Perturb, evolve, align the samples, and classify the orbit excursion.
    A line profile whose lab-frame field the grid does not resolve (see
    `_check_resolved`) is a ValueError."""
    check_positive("eps", eps)
    _check_resolved(prof)
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

def distances_to_csv(series: OrbitDistanceSeries) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["t", "distance"])
    for t, d in zip(series.times, series.distances):
        writer.writerow([t, d])
    return buf.getvalue()
