"""Split-step propagation, orbit alignment, and stability experiments."""

import tracemalloc

import numpy as np
import pytest
import scipy.optimize

import vkstab as vk
from vkstab.core import gradient, h1_norm, step_count
from vkstab.dynamics import (
    BLOWUP_GUARD,
    STABLE_ENVELOPE,
    _fit_growth_rate,
    apply_group,
    distances_to_csv,
    make_perturbation,
)
from vkstab.model import SingleLine, model_for

from test_certify import times_phases


def strang_reference(u0, params, dt, t_end, sample_stride=1):
    """The stepper without fused half-steps: two nonlinear half-steps per
    step, one Field and one invariants call per sample.  Returns (times,
    snapshot values, energies, momenta)."""
    n_steps = step_count(dt, t_end, sample_stride)
    grid = u0.grid
    model = model_for(params, grid)
    lin = model.linear_phases(grid, dt)

    def half_step(vals):
        return vals * np.exp(0.5j * dt * model.potential(np.abs(vals)))

    vals = u0.values.copy()
    times, snaps = [0.0], [u0]
    for step in range(1, n_steps + 1):
        vals = half_step(np.fft.ifft(lin * np.fft.fft(half_step(vals), axis=1), axis=1))
        if np.max(np.abs(vals)) > BLOWUP_GUARD:
            raise RuntimeError(f"blow-up detected at t = {step * dt:.4g}")
        if step % sample_stride == 0 or step == n_steps:
            times.append(step * dt)
            snaps.append(vk.Field(vals.copy(), grid))
    inv = [model.invariants(f) for f in snaps]
    return (np.array(times), np.array([f.values for f in snaps]),
            np.array([i["H"] for i in inv]), np.array([i["F"] for i in inv]))


def brent_align(u, ref):
    """Alignment by a Brent search per field around the best integer shift,
    with the distance from the expanded square norm."""
    grid = u.grid
    w = 1.0 + grid.wavenumbers**2
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
        corr = np.fft.ifft(w * np.conj(uhat) * rhat, axis=1) * (scale * grid.n)
        a0 = int(np.argmax(model.orbit_overlap(corr))) * grid.spacing
        if a0 > grid.extent:
            a0 -= 2.0 * grid.extent
        a_best = float(scipy.optimize.minimize_scalar(
            cost, bracket=(a0 - grid.spacing, a0, a0 + grid.spacing),
            method="brent", options={"xtol": 1e-12}).x)
    z = overlap_at(a_best)
    group = {"theta": model.orbit_phases(z)}
    if model.translations:
        group["shift"] = a_best
    dist2 = norm_u2 + norm_r2 - 2.0 * model.orbit_overlap(z)
    return group, float(np.sqrt(max(dist2, 0.0)))


def experiment_run(prof, eps, dt, t_end, kind="band_limited", seed=0, mode_n=1,
                   sample_stride=10):
    """The initial field and the `evolve` arguments of `stability_experiment`
    with these arguments."""
    pert = make_perturbation(prof, kind, np.random.default_rng(seed), mode_n=mode_n)
    return prof.field + eps * pert, {"dt": dt, "t_end": t_end, "sample_stride": sample_stride}


SOLITON_RUN = {"eps": 1e-4, "dt": 0.01, "t_end": 5.0}
TORUS_RUN = {"eps": 1e-5, "dt": 1e-3, "t_end": 12.0, "kind": "single_mode",
             "mode_n": 1, "sample_stride": 10}
# (profile, experiment arguments, snapshot tolerance against the reference):
# the unstable runs amplify the roundoff of the two schemes
EXPERIMENTS = {
    "cubic_n512_dense": ("cubic", dict(SOLITON_RUN, sample_stride=1), 1e-12),
    "cubic_n512_kernel_orthogonal": ("cubic", dict(SOLITON_RUN, kind="kernel_orthogonal"), 1e-12),
    "p6_n512": ("p6", SOLITON_RUN, 1e-10),
    "coupled_1_1_2_n256": ("coupled", SOLITON_RUN, 1e-12),
    "torus_mi_n64": ("torus_mi", TORUS_RUN, 1e-10),
    "torus_stable_n64": ("torus_stable", TORUS_RUN, 1e-12),
}


@pytest.fixture(scope="module")
def profiles():
    line = vk.make_grid("line", 20.0, 512)
    torus = vk.make_grid("periodic", 2 * np.pi, 64)
    return {
        "cubic": vk.soliton_solve(-1.0, 3.0, line),
        "p6": vk.soliton_solve(-1.0, 6.0, line),
        "coupled": vk.coupled_soliton(-1.0, vk.Coupled(1.0, 1.0, 2.0),
                                      vk.make_grid("line", 20.0, 256)),
        "torus_mi": vk.plane_wave(1.0, 1.0, vk.Coupled(-1.0, -1.0, -2.0), torus),
        "torus_stable": vk.plane_wave(1.0, 1.0, vk.Coupled(-1.0, -1.0, -0.5), torus),
    }


@pytest.fixture(scope="module")
def soliton():
    g = vk.make_grid("line", 20.0, 256)
    return vk.soliton_solve(-1.0, 3.0, g)


def test_plane_wave_evolution_is_exact():
    g = vk.make_grid("periodic", 2 * np.pi, 64)
    params = vk.Coupled(-1.0, -1.0, -0.5)
    prof = vk.plane_wave(1.0, 1.0, params, g)
    traj = vk.evolve(prof.field, params, dt=0.01, t_end=1.0, sample_stride=100)
    # u(t) = e^{-i xi t} u(0) for the constant profile
    final = traj.snapshots[-1].values
    exact = prof.field.values * np.exp(-1j * prof.xi[:, None] * 1.0)
    assert np.max(np.abs(final - exact)) < 1e-12


def test_strang_splitting_is_second_order(soliton):
    u0 = vk.Field(soliton.field.values * (1.0 + 1e-2), soliton.grid)
    ref = vk.evolve(u0, soliton.model, dt=1.25e-4, t_end=0.4, sample_stride=10**9)
    errs = []
    for dt in (4e-3, 2e-3):
        traj = vk.evolve(u0, soliton.model, dt=dt, t_end=0.4, sample_stride=10**9)
        errs.append(
            np.max(np.abs(traj.snapshots[-1].values - ref.snapshots[-1].values))
        )
    ratio = errs[0] / errs[1]
    assert 3.5 < ratio < 4.5


def test_conserved_quantities_drift_only_by_roundoff(soliton):
    traj = vk.evolve(soliton.field, soliton.model, dt=0.01, t_end=2.0,
                     sample_stride=10)
    drift = np.max(np.abs(traj.momenta - traj.momenta[0]), axis=0)
    assert np.max(drift) < 1e-10 * traj.times.size


def test_time_reversal(soliton):
    u0 = vk.Field(soliton.field.values * (1.0 + 5e-3), soliton.grid)
    fwd = vk.evolve(u0, soliton.model, dt=0.01, t_end=0.5, sample_stride=10**9)
    back = vk.evolve(
        vk.Field(np.conj(fwd.snapshots[-1].values), soliton.grid),
        soliton.model, dt=0.01, t_end=0.5, sample_stride=10**9,
    )
    assert np.max(np.abs(np.conj(back.snapshots[-1].values) - u0.values)) < 1e-12


def test_evolve_requires_commensurate_times(soliton):
    with pytest.raises(ValueError):
        vk.evolve(soliton.field, soliton.model, dt=0.3, t_end=1.0)


def test_alignment_recovers_group_translates(soliton):
    shifted = apply_group(
        soliton.field, {"shift": 1.37, "theta": np.array([0.8])}
    )
    g, dist = vk.align_to_orbit(shifted, soliton)
    assert dist < 1e-10
    assert abs(abs(float(np.atleast_1d(g["shift"])[0])) - 1.37) < 1e-8


def test_alignment_distance_bounds_the_perturbation(soliton):
    rng = np.random.default_rng(5)
    pert = make_perturbation(soliton, "band_limited", rng)
    u = soliton.field + 1e-4 * pert
    _, dist = vk.align_to_orbit(u, soliton)
    assert dist <= 1e-4 * (1.0 + 1e-6)
    assert dist > 1e-6


def test_perturbations_are_h1_normalized(soliton):
    rng = np.random.default_rng(7)
    for kind in ("band_limited", "single_mode", "kernel_orthogonal"):
        pert = make_perturbation(soliton, kind, rng)
        assert abs(h1_norm(pert) - 1.0) < 1e-10


def test_kernel_orthogonal_perturbation_avoids_tangents(soliton):
    rng = np.random.default_rng(11)
    pert = make_perturbation(soliton, "kernel_orthogonal", rng)
    op = vk.assemble(soliton)
    for t in op.tangent_fields():
        assert abs(vk.inner(pert, t)) < 1e-12


def test_stable_soliton_experiment(soliton):
    series = vk.stability_experiment(soliton, eps=1e-4, dt=0.01, t_end=5.0)
    assert series.verdict == "stable"
    assert series.max_distance <= 10 * 1e-4


def test_unstable_plane_wave_growth_rate():
    g = vk.make_grid("periodic", 2 * np.pi, 64)
    params = vk.Coupled(-1.0, -1.0, -2.0)
    prof = vk.plane_wave(1.0, 1.0, params, g)
    series = vk.stability_experiment(
        prof, eps=1e-5, dt=1e-3, t_end=12.0, kind="single_mode", mode_n=1
    )
    assert series.verdict == "unstable"
    assert series.growth_rate == pytest.approx(1.0, rel=0.10)


def test_serialization_round_trips(soliton):
    series = vk.stability_experiment(soliton, eps=1e-4, dt=0.01, t_end=0.5)
    csv_text = distances_to_csv(series)
    assert len(csv_text.splitlines()) == series.times.size + 1


@pytest.mark.parametrize("dt, t_end, stride", [
    (0.01, -0.5, 1),        # negative step count
    (-0.01, 0.5, 1),        # steps away from t_end
    (0.0, 0.5, 1),          # no step size
    (0.01, 0.5, 0),         # no sampling
])
def test_evolve_rejects_an_invalid_time_lattice(soliton, dt, t_end, stride):
    with pytest.raises(ValueError):
        vk.evolve(soliton.field, soliton.model, dt=dt, t_end=t_end, sample_stride=stride)


@pytest.mark.parametrize("case", ["cubic_n512", "boosted", "coupled_1_1_2",
                                  "coupled_1_1_2_phased", "torus"])
def test_kernel_orthogonal_perturbation_builds_no_hessian(case, monkeypatch):
    from vkstab.model import CoupledLine, CoupledTorus, SingleLine

    line = vk.make_grid("line", 20.0, 512)
    coupled = vk.Coupled(1.0, 1.0, 2.0)
    prof = {
        "cubic_n512": lambda: vk.soliton_solve(-1.0, 3.0, line),
        "boosted": lambda: vk.boost(vk.soliton_solve(-1.0, 3.0, line), 0.5),
        "coupled_1_1_2": lambda: vk.coupled_soliton(
            -1.0, coupled, vk.make_grid("line", 20.0, 256)),
        # the tangents' frame carries each component's phase
        "coupled_1_1_2_phased": lambda: times_phases(vk.coupled_soliton(
            -1.0, coupled, vk.make_grid("line", 20.0, 256)), (0.4, 1.1)),
        "torus": lambda: vk.plane_wave(
            1.0, 1.0, vk.Coupled(-1.0, -1.0, -0.5), vk.make_grid("periodic", 2 * np.pi, 64)),
    }[case]()
    expected = make_perturbation(prof, "kernel_orthogonal", np.random.default_rng(3))

    def no_hessian(self, prof):
        raise AssertionError("make_perturbation built a Hessian")

    for cls in (SingleLine, CoupledLine, CoupledTorus):
        monkeypatch.setattr(cls, "hessian", no_hessian)
    pert = make_perturbation(prof, "kernel_orthogonal", np.random.default_rng(3))
    assert np.array_equal(pert.values, expected.values)
    monkeypatch.undo()
    for t in vk.assemble(prof).tangent_fields():
        assert abs(vk.inner(pert, t)) < 1e-12
    # and to the gradient of each conserved quantity: each component's mass,
    # then the momentum where translations are a symmetry
    vals = prof.field.values
    grads = [vk.Field(vals * (np.arange(len(vals)) == j)[:, None], prof.grid)
             for j in range(len(vals))]
    if prof.grid.kind == "line":
        grads.append(-1j * gradient(prof.field))
    for g in grads:
        assert abs(vk.inner(pert, g)) < 1e-12 * np.sqrt(vk.inner(g, g))


@pytest.mark.parametrize("case", sorted(EXPERIMENTS))
def test_experiment_matches_the_per_step_reference(case, profiles):
    name, run, snap_tol = EXPERIMENTS[case]
    prof = profiles[name]
    series = vk.stability_experiment(prof, **run)
    u0, kw = experiment_run(prof, **run)
    traj = vk.evolve(u0, prof.model, **kw)
    times, snaps, energy, momenta = strang_reference(u0, prof.model, **kw)

    assert np.array_equal(traj.times, times) and np.array_equal(series.times, times)
    assert np.max(np.abs(traj.values - snaps)) < snap_tol
    assert np.max(np.abs(traj.energy - energy)) < 1e-12
    assert np.max(np.abs(traj.momenta - momenta)) < 1e-12

    aligned = [brent_align(vk.Field(v, prof.grid), prof) for v in snaps]
    dists = np.array([d for _, d in aligned])
    if "shift" in aligned[0][0]:
        shifts = np.array([g["shift"] for g, _ in aligned])
        assert np.max(np.abs([g["shift"] for g in series.group_params] - shifts)) < 1e-7
    assert np.max(np.abs(series.distances / dists - 1.0)) < 1e-4
    verdict = "stable" if np.max(dists) <= STABLE_ENVELOPE * run["eps"] else "unstable"
    assert series.verdict.split(" ")[0] == verdict
    rate = _fit_growth_rate(times, dists, run["eps"])
    assert (series.growth_rate is None) == (rate is None)
    if rate is not None:
        assert series.growth_rate == pytest.approx(rate, rel=1e-8)


@pytest.mark.parametrize("case", ["cubic_n512_dense", "torus_mi_n64"])
def test_distances_are_norms_of_the_aligned_residual(case, profiles):
    name, run, _ = EXPERIMENTS[case]
    prof = profiles[name]
    series = vk.stability_experiment(prof, **run)
    u0, kw = experiment_run(prof, **run)
    traj = vk.evolve(u0, prof.model, **kw)
    for snap, g, d in zip(traj.snapshots, series.group_params, series.distances):
        group = {k: np.asarray(v) for k, v in g.items()}
        assert h1_norm(apply_group(snap, group) - prof.field) == pytest.approx(d, rel=1e-10)
    if name == "torus_mi":
        # the single mode is orthogonal to the constant wave: no phase absorbs it
        assert series.distances[0] == pytest.approx(run["eps"], rel=1e-10)


@pytest.mark.parametrize("eps", [0.0, -1e-4, np.nan, np.inf])
def test_experiment_rejects_an_eps_that_is_not_positive(soliton, eps):
    with pytest.raises(ValueError, match="eps"):
        vk.stability_experiment(soliton, eps=eps, dt=0.01, t_end=0.5)


@pytest.fixture(scope="module")
def coupled_n256():
    return vk.coupled_soliton(-1.0, vk.Coupled(1.0, 1.0, 2.0), vk.make_grid("line", 20.0, 256))


@pytest.mark.parametrize("c, reason", [
    (20.0, "outer eighth of the band is 1.3e-05 of the peak"),
    (30.0, "outer eighth of the band is 3.4e-02 of the peak"),   # spectrum reaches Nyquist
    (45.0, "carrier wavenumber"),                                 # c/2 beyond Nyquist (20.1)
    (60.0, "carrier wavenumber"),
])
def test_a_boost_the_grid_does_not_resolve_is_rejected(coupled_n256, c, reason):
    """These boosts certify in the rest frame, but their lab-frame fields
    alias: evolved, they read unstable."""
    with pytest.raises(ValueError, match=reason):
        vk.stability_experiment(vk.boost(coupled_n256, c), eps=1e-4, dt=0.01, t_end=1.0)


def test_a_resolved_boost_still_runs(coupled_n256):
    series = vk.stability_experiment(vk.boost(coupled_n256, 15.0), eps=1e-4, dt=0.01, t_end=1.0)
    assert series.verdict == "stable"


def test_a_non_finite_field_mid_run_trips_the_blowup_guard(soliton, monkeypatch):
    calls = []
    potential = SingleLine.potential

    def poisoned(self, mod):
        calls.append(None)
        out = potential(self, mod)
        return out * np.nan if len(calls) == 6 else out

    monkeypatch.setattr(SingleLine, "potential", poisoned)
    # the sixth potential is the one after step 5; step 6 applies it
    with pytest.raises(RuntimeError, match=r"blow-up detected at t = 0\.06"):
        vk.evolve(soliton.field, soliton.model, dt=0.01, t_end=0.5)


def test_experiment_memory_is_its_snapshot_array():
    prof = vk.soliton_solve(-1.0, 3.0, vk.make_grid("line", 20.0, 512))
    snapshot_bytes = 5001 * 512 * 16
    tracemalloc.start()
    try:
        series = vk.stability_experiment(prof, eps=1e-4, dt=1e-3, t_end=5.0, sample_stride=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert series.times.size == 5001
    assert peak - snapshot_bytes < 4e6     # blocks of samples, not copies of the array


def test_invariants_are_computed_only_when_asked_for(soliton, monkeypatch):
    from vkstab.model import _Model

    calls = []
    stacked = _Model.stacked_invariants

    def counted(self, vals, grid):
        calls.append(len(vals))
        return stacked(self, vals, grid)

    monkeypatch.setattr(_Model, "stacked_invariants", counted)
    vk.stability_experiment(soliton, eps=1e-3, dt=0.01, t_end=1.0, sample_stride=1)
    assert calls == []
    traj = vk.evolve(soliton.field, soliton.model, dt=0.01, t_end=1.0)
    assert calls == []
    assert traj.energy.shape == (101,) and traj.momenta.shape == (101, 2)
    assert calls == [32, 32, 32, 5]          # blocks of CHUNK samples, once for both
