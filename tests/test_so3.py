"""Rotation-invariant central-force example with closed-form indices."""

import numpy as np
import pytest

import vkstab as vk
from vkstab.so3 import grad_L6, symmetry_tangent, w_so3_fd


@pytest.fixture(scope="module")
def orbit():
    return vk.circular_orbit(1.0, 1.0, 1.0)


def test_circular_orbit_is_critical_point(orbit):
    assert np.max(np.abs(grad_L6(orbit))) < 1e-14
    assert np.isclose(np.linalg.norm(orbit.angular_momentum), 1.0)


def test_orbit_requires_strong_coupling():
    with pytest.raises(ValueError):
        vk.circular_orbit(1.0, 1.0, 0.4)


@pytest.mark.parametrize("omega_pot", [-1.0, 0.0, np.nan])
def test_orbit_requires_a_confining_potential(omega_pot):
    with pytest.raises(ValueError, match="omega_pot"):
        vk.circular_orbit(1.0, omega_pot, 1.0)


def test_hessian_exact_spectrum(orbit):
    _, eigs, n_neg, dim_ker = vk.hessian6(orbit)
    assert np.allclose(eigs, [-4.0, -1.0, -1.0, 0.0, 2.0, 2.0], atol=1e-9)
    assert n_neg == 3
    assert dim_ker == 1


def test_kernel_is_residual_rotation(orbit):
    mat, eigs, _, _ = vk.hessian6(orbit)
    t = symmetry_tangent(orbit)
    assert np.max(np.abs(mat @ t)) < 1e-12


def test_reduced_energy_closed_form(orbit):
    w_val, d2w = vk.w_so3(orbit.xi, 1.0, 1.0)
    # W = (omega/4 alpha)(1 + |xi|/sqrt(omega))^2 with |xi| = 1 here
    assert np.isclose(w_val, 1.0)
    eigs = np.sort(np.linalg.eigvalsh(d2w))
    assert np.allclose(eigs, [0.5, 1.0, 1.0], atol=1e-12)
    fd = w_so3_fd(orbit.xi, 1.0, 1.0)
    assert np.max(np.abs(d2w - fd)) < 1e-6


def test_restricted_slope_separates_from_full_index(orbit):
    _, d2w = vk.w_so3(orbit.xi, 1.0, 1.0)
    xi_hat = orbit.xi / np.linalg.norm(orbit.xi)
    tilde = float(xi_hat @ d2w @ xi_hat)
    assert np.isclose(tilde, 0.5)
    # restricted positive index 1 < full positive index 3 = Morse index
    _, _, n_neg, _ = vk.hessian6(orbit)
    assert 1 < 3 == n_neg


def test_integrator_reproduces_the_relative_equilibrium(orbit):
    times, qs, ps, energies, f_drift = vk.integrate_so3(orbit, 1e-2, 100.0)
    assert f_drift < 1e-12
    assert np.max(np.abs(energies - energies[0])) < 1e-12
    dists = [vk.orbit_distance(orbit, q, p) for q, p in zip(qs, ps)]
    assert max(dists) < 1e-10


def test_integrator_matches_exact_oscillator_when_decoupled():
    # with alpha = 0 the flow is a plain isotropic oscillator
    state = vk.SO3State(
        q=np.array([1.0, 0.0, 0.0]),
        p=np.array([0.0, 1.0, 0.0]),
        alpha=0.0,
        omega_pot=4.0,
        xi=np.zeros(3),
    )
    t_end = 0.7
    times, qs, ps, _, _ = vk.integrate_so3(state, 1e-3, t_end, sample_stride=10**9)
    sw = 2.0
    q_exact = state.q * np.cos(sw * t_end) + state.p / sw * np.sin(sw * t_end)
    p_exact = state.p * np.cos(sw * t_end) - sw * state.q * np.sin(sw * t_end)
    assert np.max(np.abs(qs[-1] - q_exact)) < 1e-12
    assert np.max(np.abs(ps[-1] - p_exact)) < 1e-12


def test_perturbed_orbit_stays_close(orbit):
    rng = np.random.default_rng(0)
    eps = 1e-3
    dq = rng.standard_normal(3)
    dp = rng.standard_normal(3)
    scale = eps / np.sqrt(np.sum(dq**2) + np.sum(dp**2))
    _, qs, ps, _, _ = vk.integrate_so3(
        orbit, 1e-2, 100.0, q0=orbit.q + scale * dq, p0=orbit.p + scale * dp
    )
    dists = [vk.orbit_distance(orbit, q, p) for q, p in zip(qs, ps)]
    assert max(dists) <= 10 * eps


def test_orbit_distance_invariant_under_residual_rotation(orbit):
    mu_hat = orbit.angular_momentum / np.linalg.norm(orbit.angular_momentum)
    ang = 0.9

    def rot(v):
        c, s = np.cos(ang), np.sin(ang)
        return c * v + s * np.cross(mu_hat, v) + (1 - c) * np.dot(mu_hat, v) * mu_hat

    assert vk.orbit_distance(orbit, rot(orbit.q), rot(orbit.p)) < 1e-12


# ---------------------------------------------------------------------------
# The closed-form flow against a Strang stepper

def _rotate_about(axis, angle, v):
    c, s = np.cos(angle), np.sin(angle)
    return c * v + s * np.cross(axis, v) + (1.0 - c) * np.dot(axis, v) * axis


def _coupling_half(q, p, alpha, dt):
    """Exact flow of the -alpha |q x p|^2 term: rigid rotation about F."""
    f = np.cross(q, p)
    nf = np.linalg.norm(f)
    if nf == 0.0:
        return q, p
    axis = f / nf
    angle = -2.0 * alpha * nf * dt
    return _rotate_about(axis, angle, q), _rotate_about(axis, angle, p)


def strang_reference(state, dt, t_end, q0=None, p0=None, sample_stride=10):
    """Reference stepper: coupling half-step, exact oscillator step, coupling
    half-step; both sub-flows exact, so it differs from the exact flow by the
    roundoff it accumulates.  Same return as integrate_so3."""
    q = np.array(state.q if q0 is None else q0, dtype=float)
    p = np.array(state.p if p0 is None else p0, dtype=float)
    n_steps = int(round(t_end / dt))
    f0 = np.cross(q, p)

    def energy(q, p):
        f = np.cross(q, p)
        return (0.5 * np.dot(p, p) + 0.5 * state.omega_pot * np.dot(q, q)
                - state.alpha * np.dot(f, f))

    times, qs, ps, energies = [0.0], [q.copy()], [p.copy()], [energy(q, p)]
    f_drift = 0.0
    sw = np.sqrt(state.omega_pot)
    cw, swt = np.cos(sw * dt), np.sin(sw * dt)
    for step in range(1, n_steps + 1):
        q, p = _coupling_half(q, p, state.alpha, 0.5 * dt)
        q, p = q * cw + (p / sw) * swt, p * cw - sw * q * swt
        q, p = _coupling_half(q, p, state.alpha, 0.5 * dt)
        f_drift = max(f_drift, float(np.linalg.norm(np.cross(q, p) - f0)))
        if step % sample_stride == 0 or step == n_steps:
            times.append(step * dt)
            qs.append(q.copy())
            ps.append(p.copy())
            energies.append(energy(q, p))
    return np.array(times), np.array(qs), np.array(ps), np.array(energies), f_drift


def _perturbed_start(orbit, seed=0, eps=1e-3):
    rng = np.random.default_rng(seed)
    dq = rng.standard_normal(3)
    dp = rng.standard_normal(3)
    scale = eps / np.sqrt(np.sum(dq**2) + np.sum(dp**2))
    return orbit.q + scale * dq, orbit.p + scale * dp


def _decoupled():
    return vk.SO3State(q=np.array([1.0, 0.0, 0.0]), p=np.array([0.0, 1.0, 0.0]),
                       alpha=0.0, omega_pot=4.0, xi=np.zeros(3))


def _cases():
    orbit = vk.circular_orbit(1.0, 1.0, 1.0)
    q_par = np.array([1.0, -2.0, 0.5])
    return {
        "circular": (orbit, orbit.q, orbit.p),
        "perturbed": (orbit, *_perturbed_start(orbit)),
        "alpha_0": (_decoupled(), None, None),
        "q_parallel_p": (orbit, q_par, 0.5 * q_par),
    }


@pytest.fixture(scope="module", params=["circular", "perturbed", "alpha_0", "q_parallel_p"])
def long_runs(request):
    state, q0, p0 = _cases()[request.param]
    args = (state, 1e-2, 100.0)
    return (request.param, vk.integrate_so3(*args, q0=q0, p0=p0),
            strang_reference(*args, q0=q0, p0=p0))


def test_closed_form_matches_the_stepper(long_runs):
    _, (times, qs, ps, energies, _), (t_ref, q_ref, p_ref, e_ref, _) = long_runs
    assert np.array_equal(times, t_ref)
    assert np.max(np.abs(qs - q_ref)) < 1e-9
    assert np.max(np.abs(ps - p_ref)) < 1e-9
    assert np.max(np.abs(energies - e_ref)) < 1e-9


def test_closed_form_conserves_the_angular_momentum(long_runs):
    name, run, _ = long_runs
    assert np.isfinite(run[4])
    if name == "circular":
        assert run[4] < 1e-13
    else:
        assert run[4] < 1e-12


@pytest.mark.parametrize("stride", [1, 7, 10, 10**9])
def test_sampling_matches_the_stepper(stride):
    orbit = vk.circular_orbit(1.0, 1.0, 1.0)
    q0, p0 = _perturbed_start(orbit)
    run = vk.integrate_so3(orbit, 1e-2, 1.0, q0=q0, p0=p0, sample_stride=stride)
    ref = strang_reference(orbit, 1e-2, 1.0, q0=q0, p0=p0, sample_stride=stride)
    assert run[0].size == ref[0].size == run[1].shape[0] == run[3].size
    assert np.array_equal(run[0], ref[0])
    assert np.max(np.abs(run[1] - ref[1])) < 1e-12


def _exact_at(state, q0, p0, t):
    """The oscillator at time t, then the rotation about F0 by -2 alpha |F0| t."""
    sw = np.sqrt(state.omega_pot)
    q = q0 * np.cos(sw * t) + p0 / sw * np.sin(sw * t)
    p = p0 * np.cos(sw * t) - sw * q0 * np.sin(sw * t)
    f0 = np.cross(q0, p0)
    axis = f0 / np.linalg.norm(f0)
    angle = -2.0 * state.alpha * np.linalg.norm(f0) * t
    return _rotate_about(axis, angle, q), _rotate_about(axis, angle, p)


def test_long_run_memory_grows_with_the_samples_only():
    import tracemalloc

    orbit = vk.circular_orbit(1.0, 1.0, 1.0)
    q0, p0 = _perturbed_start(orbit)
    tracemalloc.start()
    try:
        times, qs, ps, _, f_drift = vk.integrate_so3(
            orbit, 1e-4, 100.0, q0=q0, p0=p0, sample_stride=10**5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one float array of q over 10^6 steps alone would take 24 MB
    assert peak < 4e6
    assert times.size == 11
    assert times[-1] == 10**6 * 1e-4
    assert np.isfinite(f_drift) and f_drift < 1e-12
    q_end, p_end = _exact_at(orbit, q0, p0, times[-1])
    assert np.max(np.abs(qs[-1] - q_end)) < 1e-12
    assert np.max(np.abs(ps[-1] - p_end)) < 1e-12


def test_orbit_distance_on_stacked_states():
    orbit = vk.circular_orbit(1.0, 1.0, 1.0)
    _, qs, ps, _, _ = vk.integrate_so3(orbit, 1e-2, 10.0, *_perturbed_start(orbit),
                                       sample_stride=1)
    stacked = vk.orbit_distance(orbit, qs, ps)
    assert stacked.shape == (qs.shape[0],)
    loop = np.array([vk.orbit_distance(orbit, q, p) for q, p in zip(qs, ps)])
    assert isinstance(vk.orbit_distance(orbit, qs[0], ps[0]), float)
    assert np.max(np.abs(stacked - loop)) <= 1e-15


@pytest.mark.parametrize("dt, t_end, stride", [
    (0.0, 100.0, 10),       # no step size
    (-0.01, 100.0, 10),     # steps away from t_end
    (0.01, -0.5, 10),       # negative step count
    (0.03, 1.0, 10),        # t_end is not on the lattice
    (0.01, 1.0, 0),         # no sampling
])
def test_integrator_rejects_an_invalid_time_lattice(dt, t_end, stride):
    orbit = vk.circular_orbit(1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        vk.integrate_so3(orbit, dt, t_end, sample_stride=stride)
