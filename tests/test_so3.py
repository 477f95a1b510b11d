"""Rotation-invariant central-force example with closed-form indices."""

import numpy as np
import pytest

import vkstab as vk
from vkstab.so3 import grad_L6, symmetry_tangent

# Every admissible (rho, omega_pot, alpha) of a grid: 2 alpha rho^2 > 1.
ORBIT_SWEEP = [(rho, omega_pot, alpha)
               for rho in (0.5, 1.0, 2.0, 3.0)
               for omega_pot in (0.25, 1.0, 4.0)
               for alpha in (0.2, 0.6, 1.0, 3.0, 10.0)
               if 2.0 * alpha * rho**2 > 1.0]


def hessian6_fd(state, h=1e-5):
    """Central differences of grad_L6: the oracle of the analytic Hessian."""
    mat = np.empty((6, 6))
    base = np.concatenate([state.q, state.p])
    for j in range(6):
        e = np.zeros(6)
        e[j] = h
        up = base + e
        dn = base - e
        mat[:, j] = (grad_L6(state, up[:3], up[3:]) - grad_L6(state, dn[:3], dn[3:])) / (2.0 * h)
    return 0.5 * (mat + mat.T)


def w_so3_fd(xi, omega_pot, alpha, h=1e-5):
    """Second differences of the closed-form W: the oracle of its Hessian."""
    xi = np.asarray(xi, dtype=float)

    def w(v):
        r = np.linalg.norm(v)
        return (omega_pot / (4.0 * alpha)) * (1.0 + r / np.sqrt(omega_pot)) ** 2

    mat = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            ei = np.zeros(3)
            ej = np.zeros(3)
            ei[i] = h
            ej[j] = h
            mat[i, j] = (
                w(xi + ei + ej) - w(xi + ei - ej) - w(xi - ei + ej) + w(xi - ei - ej)
            ) / (4.0 * h**2)
    return 0.5 * (mat + mat.T)


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
    eigs = np.linalg.eigvalsh(vk.hessian6(orbit))
    assert np.allclose(eigs, [-4.0, -1.0, -1.0, 0.0, 2.0, 2.0], atol=1e-9)
    assert np.sum(eigs < -1e-8) == 3
    assert np.sum(np.abs(eigs) <= 1e-8) == 1


@pytest.mark.parametrize("rho, omega_pot, alpha", ORBIT_SWEEP)
def test_hessian_matches_finite_differences(rho, omega_pot, alpha):
    state = vk.circular_orbit(rho, omega_pot, alpha)
    assert np.max(np.abs(vk.hessian6(state) - hessian6_fd(state))) < 1e-6
    # second differences of W carry a roundoff of about eps W / h^2 = 2e-6 W
    w_val, d2w = vk.w_so3(state.xi, omega_pot, alpha)
    assert np.max(np.abs(d2w - w_so3_fd(state.xi, omega_pot, alpha))) < 1e-5 * max(w_val, 1.0)


def test_kernel_is_residual_rotation(orbit):
    mat = vk.hessian6(orbit)
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
    n_neg = int(np.sum(np.linalg.eigvalsh(vk.hessian6(orbit)) < -1e-8))
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
    # one pair is computed in floats, stacked states as arrays: they agree
    orbit = vk.circular_orbit(1.0, 1.0, 1.0)
    _, qs, ps, _, _ = vk.integrate_so3(orbit, 1e-2, 10.0, *_perturbed_start(orbit),
                                       sample_stride=1)
    z = np.array([0.0, 0.0, 1.0])           # the orbit's angular-momentum axis
    special = [
        (_rotate_about(z, 0.9, orbit.q), _rotate_about(z, 0.9, orbit.p)),   # on the orbit
        (0.5 * z, -0.3 * z),                 # on the axis: the angle is atan2(0, 0)
        (np.array([-1.0, 0.5, 0.2]), np.array([0.3, -0.8, 0.4])),         # far
    ]
    qs = np.vstack([qs] + [q for q, _ in special])
    ps = np.vstack([ps] + [p for _, p in special])
    stacked = vk.orbit_distance(orbit, qs, ps)
    assert stacked.shape == (qs.shape[0],)
    loop = np.array([vk.orbit_distance(orbit, q, p) for q, p in zip(qs, ps)])
    assert isinstance(vk.orbit_distance(orbit, qs[0], ps[0]), float)
    assert np.max(np.abs(stacked - loop)) <= 1e-15
    for q, p in special:
        assert vk.orbit_distance(orbit, q.tolist(), p.tolist()) == vk.orbit_distance(orbit, q, p)

    on_orbit, on_axis, far = loop[-3:]
    assert on_orbit < 1e-15
    # off the orbit's plane, |ref - w|^2 = |ref|^2 + |w|^2 at every angle
    assert abs(on_axis - np.sqrt(2.0 + 0.5**2 + 0.3**2)) < 1e-15
    # the expanded form |ref|^2 + |w|^2 - 2 |(w . perp, w . cross)|, which
    # does not cancel this far from the orbit
    (q, p) = special[2]
    perp, cross = np.r_[orbit.q, orbit.p], np.r_[np.cross(z, orbit.q), np.cross(z, orbit.p)]
    w = np.r_[q, p]
    expanded = np.sqrt(2.0 + w @ w - 2.0 * np.hypot(w @ perp, w @ cross))
    assert abs(far - expanded) < 1e-14
    assert far > 0.5


@pytest.mark.parametrize("q, p", [
    ([1.0, 0.0], [0.0, 1.0]),                   # two components
    ([1.0, 0.0, 0.0, 0.0], [0.0, 1.0]),         # six in all, split 4 + 2
    (np.ones((2, 4)), np.ones((2, 2))),         # stacked, split 4 + 2
])
def test_orbit_distance_rejects_a_state_without_three_components(q, p):
    orbit = vk.circular_orbit(1.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="last axis of length 3"):
        vk.orbit_distance(orbit, q, p)


@pytest.mark.parametrize("q0, p0", [
    ([np.nan, 0.0, 0.0], None),
    (None, [0.0, np.inf, 0.0]),
    ([1.0, 0.0], None),                     # a 2-vector
    (None, [0.0, 1.0, 0.0, 0.0]),
    (np.ones((1, 3)), None),
])
def test_integrator_rejects_a_start_that_is_not_a_finite_3_vector(q0, p0):
    orbit = vk.circular_orbit(1.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="must be a finite 3-vector"):
        vk.integrate_so3(orbit, 1e-2, 1.0, q0=q0, p0=p0)


def test_integrator_rejects_a_start_whose_angular_momentum_overflows():
    orbit = vk.circular_orbit(1.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="q0 x p0 must be finite"):
        vk.integrate_so3(orbit, 1e-2, 1.0, q0=[1e200, 0.0, 0.0], p0=[0.0, 1e200, 0.0])


def test_a_flow_that_is_not_finite_shows_in_the_drift():
    # a NaN coupling makes every rotated state NaN: the drift must say so
    # rather than read 0
    state = vk.SO3State(q=np.array([1.0, 0.0, 0.0]), p=np.array([0.0, 1.0, 0.0]),
                        alpha=np.nan, omega_pot=1.0, xi=np.zeros(3))
    _, qs, _, _, f_drift = vk.integrate_so3(state, 1e-2, 1.0)
    assert np.all(np.isnan(qs[1:]))
    assert np.isnan(f_drift)


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
