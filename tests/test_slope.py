"""Slope matrix of the reduced energy: closed forms vs finite differences."""

import numpy as np
import pytest

import vkstab as vk
from vkstab.slope import signature_of

from dense_oracle import single_slope, torus_slope


@pytest.fixture(scope="module")
def soliton():
    g = vk.make_grid("line", 20.0, 512)
    return vk.soliton_solve(-1.0, 3.0, g)


def test_cubic_soliton_closed_slope_matrix(soliton):
    rep = vk.d2w_closed(soliton)
    assert np.allclose(rep.d2w, [[1.0, 0.0], [0.0, -1.0]], atol=1e-12)
    assert rep.signature == (1, 0, 1)


def test_finite_difference_matches_closed_form(soliton):
    fam = vk.make_family(soliton)
    fd = vk.d2w_fd(fam, soliton.xi)
    closed = vk.d2w_closed(soliton)
    assert np.max(np.abs(fd.d2w - closed.d2w)) < 1e-6
    assert fd.asymmetry < 1e-10
    assert fd.signature == closed.signature


def test_mass_slope_value(soliton):
    # d/domega int u^2 = -2 at omega = -1 for the cubic soliton
    fam = vk.make_family(soliton)
    h = 1e-4
    m = lambda om: 2.0 * fam.fhat(np.array([om, 0.0]))[0]
    slope = (m(-1.0 + h) - m(-1.0 - h)) / (2 * h)
    assert abs(slope + 2.0) < 1e-3


def test_resolvent_integral_cubic(soliton):
    # d2w[0, 0] = -int u Lplus^{-1} u, by one even solve
    val = -vk.d2w_closed(soliton).d2w[0, 0]
    assert abs(val + 1.0) < 1e-8
    assert abs(val + single_slope(soliton)) < 1e-9


@pytest.mark.parametrize("p, n", [(3.0, 256), (4.9, 512), (5.1, 512), (6.0, 512)])
def test_resolvent_integral_is_the_mass_slope(p, n):
    # int u Lplus^{-1} u = d/domega int u^2 / 2, which the scaling law gives
    # in closed form; for the cubic soliton at omega = -2 it is -1/sqrt(2)
    prof = vk.soliton_solve(-2.0, p, vk.make_grid("line", 20.0, n))
    val = -vk.d2w_closed(prof).d2w[0, 0]
    assert abs(val + single_slope(prof)) < 1e-9
    if p == 3.0:
        assert abs(val + 1.0 / np.sqrt(2.0)) < 1e-10


def test_a_profile_off_the_reflection_axis_has_the_slope_of_the_centered_one():
    # the L+ solves run over the whole grid, with the translation kernel phi'
    # projected out: a rolled profile is the centered one on the same grid
    g = vk.make_grid("line", 20.0, 256)
    base = vk.coupled_soliton(-1.0, vk.Coupled(1.0, 1.0, 2.0), g)
    target = (-1.0, -1.3, 0.0)
    for rest, c in ((vk.soliton_solve(-1.0, 3.0, g), 0.0), (vk.soliton_solve(-1.0, 4.9, g), 0.7),
                    (vk.continue_family(base, target).profile(target), 0.0)):
        prof = vk.boost(rest, c)
        rolled = vk.boost(vk.Profile(vk.Field(np.roll(rest.field.values, 7, axis=1), g),
                                     rest.xi, rest.model), c)
        want = vk.d2w_closed(prof).d2w
        got = vk.d2w_closed(rolled).d2w
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        if prof.model.components == 1:
            # the continuum scaling law, to the resolution of n = 256 at p = 4.9
            assert abs(got[0, 0] - single_slope(rolled)) < 1e-8
    # centred half a grid spacing off x = 0, where no roll brings it back
    x = g.nodes - 0.5 * g.spacing
    shifted = vk.Profile(vk.Field((np.sqrt(2.0) / np.cosh(x))[None].astype(complex), g),
                         np.array([-1.0, 0.0]), vk.SingleNLS(3.0))
    assert abs(vk.d2w_closed(shifted).d2w[0, 0] - single_slope(shifted)) < 1e-9


def test_symbolic_slope_sign_threshold():
    assert vk.vk_slope_sign(3.0, 1) == -1
    assert vk.vk_slope_sign(4.9, 1) == -1
    assert vk.vk_slope_sign(5.0, 1) == 0
    assert vk.vk_slope_sign(5.1, 1) == 1
    # critical exponent moves with dimension: p = 1 + 4/d
    assert vk.vk_slope_sign(3.0, 2) == 0
    assert vk.vk_slope_sign(3.0, 3) == 1
    with pytest.raises(ValueError):
        vk.vk_slope_sign(0.5, 1)


def test_boosted_slope_matrix_chain_rule():
    g = vk.make_grid("line", 20.0, 512)
    prof = vk.boost(vk.soliton_solve(-1.0, 3.0, g), 2.0)
    closed = vk.d2w_closed(prof)
    c, fprime, f = 2.0, 1.0, -2.0
    expected = np.array(
        [
            [fprime, 0.5 * c * fprime],
            [0.5 * c * fprime, 0.25 * c**2 * fprime + 0.5 * f],
        ]
    )
    assert np.allclose(closed.d2w, expected, atol=1e-10)
    fam = vk.make_family(prof)
    fd = vk.d2w_fd(fam, prof.xi)
    assert np.max(np.abs(fd.d2w - closed.d2w)) < 1e-5


def test_coupled_slope_signatures():
    g = vk.make_grid("line", 20.0, 256)
    strong = vk.coupled_soliton(-1.0, vk.Coupled(1.0, 1.0, 2.0), g)
    weak = vk.coupled_soliton(-1.0, vk.Coupled(1.0, 1.0, 0.5), g)
    rep_s = vk.d2w_closed(strong)
    rep_w = vk.d2w_closed(weak)
    assert rep_s.d2w.shape == (3, 3)
    assert vk.vk_integral(strong) > 0.0
    assert vk.vk_integral(weak) < 0.0
    fam = vk.make_family(strong)
    fd = vk.d2w_fd(fam, strong.xi)
    assert np.max(np.abs(fd.d2w - rep_s.d2w)) < 1e-4
    assert fd.signature == rep_s.signature
    fam_w = vk.make_family(weak)
    fd_w = vk.d2w_fd(fam_w, weak.xi)
    assert np.max(np.abs(fd_w.d2w - rep_w.d2w)) < 1e-4


def test_coupled_slope_solve_covers_continued_profiles():
    g = vk.make_grid("line", 20.0, 256)
    base = vk.coupled_soliton(-1.0, vk.Coupled(1.0, 1.0, 2.0), g)
    fam = vk.make_family(base)
    xi = np.array([-1.05, -0.95, 0.0])
    off = fam.profile(xi)
    assert off.zeta is None
    exact = vk.d2w_closed(off)
    fd = vk.d2w_fd(fam, xi)
    assert exact.method == "linear_solve"
    assert np.max(np.abs(exact.d2w - fd.d2w)) < 1e-6
    assert exact.signature == fd.signature


def test_torus_slope_matrix_closed_form():
    g = vk.make_grid("periodic", 2 * np.pi, 64)
    params = vk.Coupled(-1.0, -1.0, -0.5)
    prof = vk.plane_wave(1.0, 1.0, params, g)
    closed = vk.d2w_closed(prof)
    assert np.allclose(closed.d2w, torus_slope(params, g.extent), atol=1e-12)
    assert closed.method == "linear_solve"
    fam = vk.make_family(prof)
    fd = vk.d2w_fd(fam, prof.xi)
    assert np.max(np.abs(fd.d2w - closed.d2w)) < 1e-6
    assert closed.signature == (0, 0, 2)


def test_restricted_slope_matrix(soliton):
    rep = vk.d2w_closed(soliton)
    sub = vk.d2w_tilde(rep, np.array([[1.0], [0.0]]))
    assert sub.restricted["signature_tilde"] == (1, 0, 0)
    # a restriction zero to the tolerance of D^2 W is zero, also when 1 x 1
    rep = vk.SlopeReport(np.diag([1.0, -1.0]), (1, 0, 1), "closed_form")
    near_null = np.array([[1.0], [1.0 + 1e-9]]) / np.sqrt(2.0)
    assert vk.d2w_tilde(rep, near_null).restricted["signature_tilde"] == (0, 1, 0)
    assert vk.d2w_tilde(rep, 1e3 * near_null).restricted["signature_tilde"] == (0, 1, 0)
    with pytest.raises(ValueError):
        vk.d2w_tilde(rep, np.array([[1.0, 1.0], [0.0, 0.0]]))


def test_signature_of_handles_near_zero():
    mat = np.diag([1.0, 1e-18, -2.0])
    assert signature_of(mat) == (1, 1, 1)


def test_higher_dimension_needs_symbolic_route():
    g = vk.make_grid("line", 20.0, 256)
    u = vk.soliton_solve(-1.0, 3.0, g)
    prof3 = vk.Profile(u.field, u.xi, vk.SingleNLS(3.0, d=3))
    with pytest.raises(ValueError):
        vk.d2w_closed(prof3)


def test_vk_integral_is_boost_invariant():
    g = vk.make_grid("line", 20.0, 256)
    prof = vk.coupled_soliton(-1.0, vk.Coupled(1.0, 1.0, 2.0), g)
    rest = vk.vk_integral(prof)
    assert abs(rest - 4.80277) < 1e-5
    assert abs(vk.vk_integral(vk.boost(prof, 0.6)) - rest) < 1e-12


@pytest.mark.parametrize("p, omega", [(2.0, -2.0), (2.0, -4.0), (2.5, -4.0)])
def test_narrow_soliton_family_solves_at_n1024(p, omega):
    """These solves (and their fd stencils) stalled on the grid's roundoff
    floor under an absolute Newton tolerance."""
    prof = vk.soliton_solve(omega, p, vk.make_grid("line", 20.0, 1024))
    fd = vk.d2w_fd(vk.make_family(prof), prof.xi).d2w[0, 0]
    closed = vk.d2w_closed(prof).d2w[0, 0]
    assert abs(fd - closed) <= 1e-6 * abs(closed)
    assert int(np.sign(-closed)) == vk.vk_slope_sign(p, 1)
