"""Split-step time evolution and empirical orbital-stability experiments.

The propagator is a Strang splitting: the nonlinear flow only rotates the
phase pointwise (the modulus is conserved), so both half-steps are exact and
the scheme conserves every quadratic invariant to roundoff.
"""

from __future__ import annotations

import csv
import io
import struct
from dataclasses import dataclass
from typing import List, Optional

import numpy as np
import scipy.optimize

from .core import Field, gradient, h1_norm, step_count
from .model import field_to_vec, model_for, vec_to_field
from .profiles import Profile

__all__ = [
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


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    snapshots: List[Field]
    energy: np.ndarray
    momenta: np.ndarray       # shape (samples, m)
    dt: float
    scheme: str = "strang"


@dataclass(frozen=True)
class OrbitDistanceSeries:
    times: np.ndarray
    distances: np.ndarray
    group_params: List[dict]
    verdict: str
    max_distance: float
    growth_rate: Optional[float] = None


def evolve(u0: Field, params, dt: float, t_end: float,
           sample_stride: int = 1) -> Trajectory:
    """Propagate the field to t_end with Strang splitting, sampling snapshots."""
    n_steps = step_count(dt, t_end, sample_stride)
    grid = u0.grid
    model = model_for(params, grid)
    lin = model.linear_phases(grid, dt)
    vals = u0.values.copy()

    times = [0.0]
    snaps = [u0]
    inv = model.invariants(u0)
    energies = [inv["H"]]
    momenta = [inv["F"]]

    for step in range(1, n_steps + 1):
        vals = model.nonlinear_phase(vals, 0.5 * dt)
        vals = np.fft.ifft(lin * np.fft.fft(vals, axis=1), axis=1)
        vals = model.nonlinear_phase(vals, 0.5 * dt)
        if np.max(np.abs(vals)) > BLOWUP_GUARD:
            raise RuntimeError(
                f"blow-up detected at t = {step * dt:.4g} (sup-norm exceeds {BLOWUP_GUARD:g})"
            )
        if step % sample_stride == 0 or step == n_steps:
            f = Field(vals.copy(), grid)
            times.append(step * dt)
            snaps.append(f)
            inv = model.invariants(f)
            energies.append(inv["H"])
            momenta.append(inv["F"])

    return Trajectory(
        times=np.array(times),
        snapshots=snaps,
        energy=np.array(energies),
        momenta=np.array(momenta),
        dt=dt,
    )


# ---------------------------------------------------------------------------
# Orbit alignment

def _h1_weights(grid) -> np.ndarray:
    return 1.0 + grid.wavenumbers**2


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


def align_to_orbit(u: Field, ref: Profile) -> tuple:
    """Minimize the H1 distance from u to the symmetry orbit of ref.

    Returns (group parameters, distance).  Phases are per component for the
    two-component models; the translation parameter exists on line grids only.
    """
    grid = u.grid
    w = _h1_weights(grid)
    scale = grid.spacing / grid.n
    uhat = np.fft.fft(u.values, axis=1)
    rhat = np.fft.fft(ref.field.values, axis=1)
    norm_u2 = float(np.sum(w * np.abs(uhat) ** 2) * scale)
    norm_r2 = float(np.sum(w * np.abs(rhat) ** 2) * scale)
    model = model_for(ref.model, ref.grid)

    def overlap_at(a):
        ph = np.exp(1j * grid.wavenumbers * a)
        return np.sum(w * np.conj(uhat) * ph * rhat, axis=1) * scale

    def cost(a):
        return norm_u2 + norm_r2 - 2.0 * model.orbit_overlap(overlap_at(a))

    a_best = 0.0
    if model.translations:
        # Coarse search over integer shifts: correlations for all shifts at
        # once.  <u(.-a), r> per component is the inverse transform of
        # w conj(uhat) rhat.
        corr = np.fft.ifft(w * np.conj(uhat) * rhat, axis=1) * (scale * grid.n)
        j = int(np.argmax(model.orbit_overlap(corr)))
        a0 = j * grid.spacing
        if a0 > grid.extent:
            a0 -= 2.0 * grid.extent     # unwrap to the symmetric line [-R, R)
        res = scipy.optimize.minimize_scalar(
            cost,
            bracket=(a0 - grid.spacing, a0, a0 + grid.spacing),
            method="brent",
            options={"xtol": 1e-12},
        )
        a_best = float(res.x)
    z = overlap_at(a_best)
    group = {"theta": model.orbit_phases(z)}
    if model.translations:
        group["shift"] = a_best
    dist2 = norm_u2 + norm_r2 - 2.0 * model.orbit_overlap(z)
    return group, float(np.sqrt(max(dist2, 0.0)))


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
    """Perturb, evolve, align each sample, and classify the orbit excursion."""
    rng = np.random.default_rng(seed)
    pert = make_perturbation(prof, kind, rng, mode_n=mode_n)
    u0 = prof.field + eps * pert
    traj = evolve(u0, prof.model, dt, t_end, sample_stride=sample_stride)
    dists = []
    gs = []
    for snap in traj.snapshots:
        g, d = align_to_orbit(snap, prof)
        gs.append({k: np.asarray(v).tolist() for k, v in g.items()})
        dists.append(d)
    dists = np.array(dists)
    max_d = float(np.max(dists))
    rate = _fit_growth_rate(traj.times, dists, eps)
    verdict = "stable" if max_d <= STABLE_ENVELOPE * eps else "unstable"
    if model_for(prof.model, prof.grid).empirical_only:
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
    snaps = traj.snapshots[::stride]
    n = snaps[0].grid.n
    comps = snaps[0].components
    with open(path, "wb") as fh:
        fh.write(struct.pack("<qqdq", n, comps, traj.dt, stride))
        for snap in snaps:
            inter = np.empty((comps, 2 * n))
            inter[:, 0::2] = np.real(snap.values)
            inter[:, 1::2] = np.imag(snap.values)
            fh.write(inter.astype("<f8").tobytes())
