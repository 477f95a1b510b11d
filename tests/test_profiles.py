"""Equilibrium profiles: explicit formulas, Newton solves, families."""

import json

import numpy as np
import pytest

import vkstab as vk
from vkstab import profiles
from vkstab.model import model_for
from vkstab.profiles import closed_soliton, coupled_amplitudes


@pytest.fixture(scope="module")
def line_grid():
    return vk.make_grid("line", 20.0, 512)


def test_explicit_soliton_matches_formula(line_grid):
    prof = vk.soliton_explicit(-1.0, line_grid)
    exact = np.sqrt(2.0) / np.cosh(line_grid.nodes)
    assert np.max(np.abs(prof.field.values[0] - exact)) < 1e-14
    assert prof.omega == -1.0
    assert prof.c == 0.0


def test_general_exponent_closed_form_is_a_solution(line_grid):
    x = line_grid.nodes
    for p, omega in ((3.0, -1.0), (4.0, -0.7), (5.1, -1.3)):
        u = closed_soliton(omega, p, x)
        prof = vk.Profile(
            vk.Field(u[None, :].astype(complex), line_grid),
            np.array([omega, 0.0]),
            vk.SingleNLS(p),
        )
        res = vk.grad_L(prof.field, prof.model, prof.xi)
        assert np.max(np.abs(res.values)) < 1e-5


def test_newton_solve_reproduces_explicit(line_grid):
    prof = vk.soliton_solve(-1.0, 3.0, line_grid)
    exact = vk.soliton_explicit(-1.0, line_grid)
    # the discrete bound state differs from the sampled continuum profile by
    # the periodic truncation of the tails
    assert np.max(np.abs(prof.field.values - exact.field.values)) < 1e-7
    res = vk.grad_L(prof.field, prof.model, prof.xi)
    assert np.max(np.abs(res.values)) < 1e-11


def test_soliton_solve_rejects_positive_omega(line_grid):
    with pytest.raises(ValueError):
        vk.soliton_solve(0.5, 3.0, line_grid)


def test_coupled_amplitudes_closed_form():
    z1, z2 = coupled_amplitudes(vk.Coupled(1.0, 1.0, 2.0))
    # alpha z1^2 + delta z2^2 = 1 and delta z1^2 + gamma z2^2 = 1
    assert np.isclose(1.0 * z1**2 + 2.0 * z2**2, 1.0)
    assert np.isclose(2.0 * z1**2 + 1.0 * z2**2, 1.0)
    assert z1 > 0 and z2 > 0


def test_coupled_soliton_is_equilibrium():
    g = vk.make_grid("line", 20.0, 256)
    params = vk.Coupled(1.0, 1.0, 2.0)
    prof = vk.coupled_soliton(-1.0, params, g)
    res = vk.grad_L(prof.field, prof.model, prof.xi)
    assert np.max(np.abs(res.values)) < 1e-6
    assert prof.field.components == 2


def test_plane_wave_dispersion():
    g = vk.make_grid("periodic", 2 * np.pi, 64)
    params = vk.Coupled(-1.0, -1.0, -0.5, beta=1.0, k=0.0)
    prof = vk.plane_wave(1.0, 1.0, params, g)
    res = vk.grad_L(prof.field, prof.model, prof.xi)
    assert np.max(np.abs(res.values)) < 1e-12
    # xi_j = beta k^2 - alpha z1^2 - delta z2^2 etc.
    assert np.allclose(prof.xi, [1.5, 1.5])


def test_boost_preserves_modulus_and_shifts_parameters(line_grid):
    prof = vk.soliton_solve(-1.0, 3.0, line_grid)
    pb = vk.boost(prof, 2.0)
    assert np.allclose(np.abs(pb.field.values), np.abs(prof.field.values))
    assert np.isclose(pb.c, 2.0)
    assert np.isclose(pb.omega, -1.0)       # omega = xi_1 + c^2/4
    assert np.isclose(pb.xi[0], -2.0)


def test_boost_rejected_on_torus():
    g = vk.make_grid("periodic", 2 * np.pi, 64)
    prof = vk.plane_wave(1.0, 1.0, vk.Coupled(-1.0, -1.0, -0.5), g)
    with pytest.raises(ValueError):
        vk.boost(prof, 1.0)


def test_profile_json_round_trip(line_grid):
    prof = vk.boost(vk.soliton_solve(-1.0, 3.0, line_grid), 0.6)
    doc = json.loads(json.dumps(prof.to_dict()))
    back = vk.Profile.from_dict(doc)
    assert np.array_equal(back.field.values, prof.field.values)
    assert np.array_equal(back.xi, prof.xi)
    assert back.model == prof.model
    assert back.grid.kind == prof.grid.kind and back.grid.n == prof.grid.n


def test_profile_json_round_trip_keeps_zeta_for_every_model():
    line = vk.make_grid("line", 20.0, 128)
    torus = vk.make_grid("periodic", 2 * np.pi, 32)
    for prof in (
        vk.soliton_solve(-1.0, 3.0, line),
        vk.coupled_soliton(-1.0, vk.Coupled(1.0, 1.0, 2.0), line),
        vk.plane_wave(1.0, 0.5, vk.Coupled(-1.0, -1.0, -0.5, k=1.0), torus),
    ):
        back = vk.Profile.from_dict(json.loads(json.dumps(prof.to_dict())))
        assert np.array_equal(back.field.values, prof.field.values)
        assert np.array_equal(back.xi, prof.xi)
        assert back.model == prof.model
        assert back.zeta == prof.zeta


def test_family_conserved_quantities(line_grid):
    prof = vk.soliton_solve(-1.0, 3.0, line_grid)
    fam = vk.make_family(prof)
    f0 = fam.fhat(prof.xi)
    assert np.allclose(f0, [2.0, 0.0], atol=1e-9)
    # nearby members solve too, and the memo returns identical arrays
    f1 = fam.fhat(prof.xi + [1e-4, 0.0])
    assert not np.allclose(f0, f1)
    assert np.array_equal(fam.fhat(prof.xi), f0)


def test_continuation_reaches_distant_frequency(line_grid):
    prof = vk.soliton_solve(-1.0, 3.0, line_grid)
    fam = vk.continue_family(prof, np.array([-1.2, 0.0]))
    got = fam.profile(np.array([-1.2, 0.0]))
    exact = vk.soliton_explicit(-1.2, line_grid)
    assert np.max(np.abs(got.field.values - exact.field.values)) < 1e-8


def test_coupled_continuation_off_diagonal():
    g = vk.make_grid("line", 20.0, 256)
    prof = vk.coupled_soliton(-1.0, vk.Coupled(1.0, 1.0, 2.0), g)
    fam = vk.make_family(prof)
    off = fam.profile(np.array([-1.05, -0.95, 0.0]))
    res = vk.grad_L(off.field, off.model, off.xi)
    assert np.max(np.abs(res.values)) < 1e-8
    # unequal frequencies break the component symmetry
    m1 = np.max(np.abs(off.field.values[0]))
    m2 = np.max(np.abs(off.field.values[1]))
    assert abs(m1 - m2) > 1e-3


def _recorded_newton(monkeypatch):
    """Record each continuation Newton solve as (target omega, converged)."""
    outcomes = []
    newton = profiles._newton_even

    def recorded(model, phi, omega, grid, **kwargs):
        try:
            out = newton(model, phi, omega, grid, **kwargs)
        except vk.SolverError:
            outcomes.append((tuple(omega), False))
            raise
        outcomes.append((tuple(omega), True))
        return out

    monkeypatch.setattr(profiles, "_newton_even", recorded)
    return outcomes


def test_the_coupled_continuation_halves_a_step_that_fails(monkeypatch):
    """The whole step from (-1, -1) to (-1, -4) fails; its half and the
    rest converge, and the member is an equilibrium."""
    outcomes = _recorded_newton(monkeypatch)
    base = vk.coupled_soliton(-1.0, vk.Coupled(2.0, 1.0, 0.3), vk.make_grid("line", 20.0, 512))
    target = np.array([-1.0, -4.0, 0.0])
    got = vk.continue_family(base, target).profile(target)
    assert outcomes == [((-1.0, -4.0), False), ((-1.0, -2.5), True), ((-1.0, -4.0), True)]
    assert np.max(np.abs(vk.grad_L(got.field, got.model, got.xi).values)) < 1e-8


def test_the_coupled_continuation_fails_after_its_halvings(monkeypatch):
    outcomes = _recorded_newton(monkeypatch)
    base = vk.coupled_soliton(-1.0, vk.Coupled(1.0, 3.0, -0.5), vk.make_grid("line", 20.0, 256))
    with pytest.raises(vk.SolverError, match="coupled continuation failed after step halving"):
        vk.continue_family(base, np.array([-3.0, -1.0, 0.0]))
    failed = [omega for omega, ok in outcomes if not ok]
    assert len(failed) == profiles.CONTINUATION_HALVINGS + 1


@pytest.mark.parametrize("params", [vk.Coupled(1.0, 1.0, 1.0), vk.Coupled(1.0, 4.0, 2.0)],
                         ids=["1_1_1", "1_4_2"])
def test_a_coupled_soliton_with_alpha_gamma_equal_to_delta_squared_is_refused(params):
    with pytest.raises(ValueError, match="alpha\\*gamma equals delta\\^2"):
        vk.coupled_soliton(-1.0, params, vk.make_grid("line", 20.0, 256))


def test_torus_family_inverts_dispersion():
    g = vk.make_grid("periodic", 2 * np.pi, 64)
    params = vk.Coupled(-1.0, -1.0, -0.5)
    prof = vk.plane_wave(1.0, 1.0, params, g)
    fam = vk.make_family(prof)
    other = fam.profile(prof.xi + [0.1, -0.05])
    res = vk.grad_L(other.field, other.model, other.xi)
    assert np.max(np.abs(res.values)) < 1e-12


@pytest.mark.parametrize("n", [4096, 8192])
def test_newton_stops_at_the_roundoff_floor(n):
    """From n = 4096 the FFT residual's roundoff keeps it above 1e-11;
    Newton stops at NEWTON_FLOOR times eps k_max^2 max|u| instead."""
    g = vk.make_grid("line", 20.0, n)
    prof = vk.soliton_solve(-1.0, 3.0, g)
    u = np.real(prof.field.values)
    res = np.max(np.abs(model_for(prof.model, g).stationary(u, -1.0, g)))
    floor = profiles.NEWTON_FLOOR * np.finfo(float).eps * np.max(g.wavenumbers**2) * np.max(u)
    assert 1e-11 < res <= floor
    assert np.max(np.abs(prof.field.values - vk.soliton_explicit(-1.0, g).field.values)) < 1e-7


def test_under_resolved_soliton_still_fails():
    with pytest.raises(vk.SolverError):
        vk.soliton_solve(-2.0, 6.0, vk.make_grid("line", 20.0, 256))


def test_a_stalled_newton_names_its_residual_and_floor(monkeypatch):
    monkeypatch.setattr(profiles, "NEWTON_FLOOR", 0.0)     # the absolute stop alone
    with pytest.raises(vk.SolverError, match=r"in 3 iterations \(residual [1-9]\.\d{3}e-11, "
                                             r"floor 1\.000e-11\)"):
        vk.soliton_solve(-4.0, 2.0, vk.make_grid("line", 20.0, 4096), max_iter=3)


def _solves(n):
    g = vk.make_grid("line", 20.0, n)
    base = vk.coupled_soliton(-1.0, vk.Coupled(1.0, 1.0, 2.0), g)
    target = (-1.0, -1.3, 0.0)
    return [vk.soliton_solve(-1.0, 3.0, g), vk.soliton_solve(-1.0, 6.0, g),
            vk.continue_family(base, target).profile(target)]


@pytest.mark.parametrize("n", [256, 512])
def test_floor_leaves_resolved_solves_bitwise_unchanged(monkeypatch, n):
    """Where the residual reaches 1e-11, the floor changes nothing."""
    default = _solves(n)
    monkeypatch.setattr(profiles, "NEWTON_FLOOR", 0.0)
    for a, b in zip(default, _solves(n)):
        assert np.array_equal(a.field.values, b.field.values)


@pytest.mark.parametrize("make, solves", [
    (lambda: vk.soliton_solve(-1.0, 3.0, vk.make_grid("line", 20.0, 256)), 3),
    (lambda: vk.coupled_soliton(-1.0, vk.Coupled(1.0, 1.0, 2.0), vk.make_grid("line", 20.0, 256)), 5),
    (lambda: vk.plane_wave(1.0, 1.0, vk.Coupled(-1.0, -1.0, -0.5),
                           vk.make_grid("periodic", 2 * np.pi, 64)), 4),
], ids=["cubic", "coupled_1_1_2", "torus"])
def test_the_fd_stencil_solves_each_rest_member_once(make, solves):
    """At c = 0 the two points of the c-stencil share one omega, so one rest
    member, boosted each way."""
    prof = make()
    fam = vk.make_family(prof)
    solver, calls = fam.solver, []
    fam.solver = lambda omega: calls.append(omega) or solver(omega)
    vk.d2w_fd(fam, prof.xi)
    assert len(calls) == solves == len(set(calls))
    if prof.grid.kind == "line":
        # the member at +h in c: the rest member at its omega, boosted by h
        xi = prof.xi + fam.fd_step * np.eye(prof.xi.size)[-1]
        expected = vk.boost(solver(fam.model.omega(xi)), fam.fd_step)
        assert np.array_equal(fam.profile(xi).field.values, expected.field.values)


def test_a_family_without_a_model_solves_each_xi():
    """Family(solver, fd_step): solver maps xi itself to the member, one
    solve per xi, and nothing is boosted."""
    g = vk.make_grid("line", 20.0, 256)
    calls = []

    def solver(xi):
        calls.append(tuple(xi))
        return vk.boost(vk.soliton_solve(xi[0] + xi[1] ** 2 / 4.0, 3.0, g), xi[1])

    fam = vk.Family(solver, 1e-4)
    xi = np.array([-1.0, 0.5])
    assert fam.profile(xi) is fam.profile(xi.copy())
    assert calls == [(-1.0, 0.5)]
    fd = vk.d2w_fd(fam, xi)
    assert len(calls) == 5 and fd.signature == (1, 0, 1)


def test_a_profile_is_checked_against_its_model():
    line = vk.make_grid("line", 20.0, 128)
    cubic = vk.soliton_explicit(-1.0, line)
    for xi in ([-1.0], [-1.0, 0.0, 0.0], [np.nan, 0.0], [[-1.0, 0.0]]):
        with pytest.raises(ValueError, match="needs xi of 2 finite entries"):
            vk.Profile(cubic.field, np.array(xi), cubic.model)
    with pytest.raises(ValueError, match="1-component field"):
        vk.Profile(vk.Field(np.vstack([cubic.field.values] * 2), line), cubic.xi, cubic.model)
    with pytest.raises(ValueError, match="needs zeta of 1 finite entries"):
        vk.Profile(cubic.field, cubic.xi, cubic.model, zeta=(1.0, 1.0))
    torus = vk.make_grid("periodic", 2 * np.pi, 128)
    with pytest.raises(ValueError, match="single NLS model is described on a line grid only"):
        vk.Profile(vk.Field(cubic.field.values, torus), cubic.xi, cubic.model)
    for params in (vk.Coupled(1.0, 1.0, 2.0, beta=2.0), vk.Coupled(1.0, 1.0, 2.0, k=1.0)):
        with pytest.raises(ValueError, match="needs beta = 1 and k = 0"):
            vk.coupled_soliton(-1.0, params, line)
