"""Split-step propagation, orbit alignment, and stability experiments."""

import numpy as np
import pytest

import vkstab as vk
from vkstab.dynamics import (
    distances_to_csv,
    dump_binary,
    make_perturbation,
    trajectory_to_csv,
)


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
    from vkstab.dynamics import apply_group

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
    from vkstab.core import h1_norm

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


def test_serialization_round_trips(tmp_path, soliton):
    traj = vk.evolve(soliton.field, soliton.model, dt=0.01, t_end=0.1,
                     sample_stride=5)
    text = trajectory_to_csv(traj)
    assert text.splitlines()[0].startswith("t,")
    series = vk.stability_experiment(soliton, eps=1e-4, dt=0.01, t_end=0.5)
    csv_text = distances_to_csv(series)
    assert len(csv_text.splitlines()) == series.times.size + 1

    path = tmp_path / "traj.bin"
    dump_binary(traj, str(path))
    import struct

    with open(path, "rb") as fh:
        n, comps, dt, stride = struct.unpack("<qqdq", fh.read(32))
        data = np.frombuffer(fh.read(), dtype="<f8")
    assert n == soliton.grid.n and comps == 1 and dt == 0.01
    frames = data.reshape(len(traj.snapshots), comps, n, 2)
    rebuilt = frames[..., 0] + 1j * frames[..., 1]
    assert np.max(np.abs(rebuilt[-1] - traj.snapshots[-1].values)) < 1e-15


@pytest.mark.parametrize("dt, t_end, stride", [
    (0.01, -0.5, 1),        # negative step count
    (-0.01, 0.5, 1),        # steps away from t_end
    (0.0, 0.5, 1),          # no step size
    (0.01, 0.5, 0),         # no sampling
])
def test_evolve_rejects_an_invalid_time_lattice(soliton, dt, t_end, stride):
    with pytest.raises(ValueError):
        vk.evolve(soliton.field, soliton.model, dt=dt, t_end=t_end, sample_stride=stride)


@pytest.mark.parametrize("case", ["cubic_n512", "boosted", "coupled_1_1_2", "torus"])
def test_kernel_orthogonal_perturbation_builds_no_hessian(case, monkeypatch):
    from vkstab.model import CoupledLine, CoupledTorus, SingleLine

    line = vk.make_grid("line", 20.0, 512)
    prof = {
        "cubic_n512": lambda: vk.soliton_solve(-1.0, 3.0, line),
        "boosted": lambda: vk.boost(vk.soliton_solve(-1.0, 3.0, line), 0.5),
        "coupled_1_1_2": lambda: vk.coupled_soliton(
            -1.0, vk.Coupled(1.0, 1.0, 2.0), vk.make_grid("line", 20.0, 256)),
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
