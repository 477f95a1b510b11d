"""Matrix-free even solves over L+ and Ldelta, against the folded dense LU."""

import importlib

import numpy as np
import pytest
import scipy.linalg

import vkstab as vk
from vkstab import linalg, spectral
from vkstab.model import model_for
from vkstab.spectral import fourier_solve, unfold

from dense_oracle import diff_matrices, fold, lplus


def line(n):
    return vk.make_grid("line", 20.0, n)


def dense_even_solve(mat, rhs):
    """The oracle: mat restricted to even functions by the fold, solved by
    LU on the half grid.  rhs holds one row per component."""
    comps, n = rhs.shape
    h = n // 2 + 1
    y = scipy.linalg.solve(fold(mat, comps), rhs[:, :h].ravel())
    return unfold(y.reshape(comps, h))


def assert_close(got, ref, rel):
    assert np.max(np.abs(got - ref)) <= rel * np.max(np.abs(ref))


def _continued():
    base = vk.coupled_soliton(-1.0, vk.Coupled(1.0, 1.0, 2.0), line(256))
    target = (-1.0, -1.3, 0.0)
    return vk.continue_family(base, target).profile(target)


LPLUS_CASES = {
    "p3": lambda: vk.soliton_solve(-1.0, 3.0, line(512)),
    "p4.5": lambda: vk.soliton_solve(-1.0, 4.5, line(512)),
    "p6": lambda: vk.soliton_solve(-1.0, 6.0, line(512)),
    "coupled_1_1_2": lambda: vk.coupled_soliton(-1.0, vk.Coupled(1.0, 1.0, 2.0), line(256)),
    "coupled_1_1_0.5": lambda: vk.coupled_soliton(-1.0, vk.Coupled(1.0, 1.0, 0.5), line(256)),
    "continued_asymmetric": _continued,
}


@pytest.mark.parametrize("case", list(LPLUS_CASES))
def test_lplus_solve_matches_the_folded_dense_lu(case):
    prof = LPLUS_CASES[case]()
    grid = prof.grid
    model = model_for(prof.model, grid)
    phi = np.real(prof.field.values)
    lplus_mat = lplus(model, phi, prof.omega, diff_matrices(grid)[1])
    bump = grid.nodes**2 * np.exp(-grid.nodes**2)
    # the slope solves' right-hand sides e_j phi_j, and an even bump in each
    rhs = list(np.eye(len(phi))[:, :, None] * phi) + [np.tile(bump, (len(phi), 1))]
    for r in rhs:
        assert_close(model.lplus_solve(phi, prof.omega, grid, r), dense_even_solve(lplus_mat, r),
                     1e-10)


@pytest.mark.parametrize("delta", [2.0, 0.5])
def test_ldelta_solve_matches_the_folded_dense_lu(delta):
    prof = vk.coupled_soliton(-1.0, vk.Coupled(1.0, 1.0, delta), line(256))
    grid = prof.grid
    z1, z2 = prof.zeta
    scalar = np.real(prof.field.values[0]) / z1
    pot = (3.0 - 2.0 * delta * (z1**2 + z2**2)) * scalar**2
    ldelta = -diff_matrices(grid)[1] - np.diag(pot - 1.0)
    got = fourier_solve(grid, -1.0, pot[None, None], scalar[None])
    assert_close(got, dense_even_solve(ldelta, scalar[None]), 1e-10)


def _check_the_operator_handed_to_minres(case, shift, monkeypatch):
    seen = []

    def checked(apply, b, precond, rtol):
        cols = [apply(e.reshape(b.shape)).ravel() for e in np.eye(b.size)]
        seen.append((np.array(cols).T, precond))
        assert rtol == linalg.MINRES_RTOL     # a slope solve is not a Newton step
        return linalg.minres(apply, b, precond, rtol)

    monkeypatch.setattr(spectral, "minres", checked)
    g = line(32) if case == "p4.5" else vk.make_grid("line", 8.0, 32)
    params = vk.SingleNLS(4.5) if case == "p4.5" else vk.Coupled(1.0, 1.0, 2.0)
    x = g.nodes
    phi = np.array([np.exp(-(x - shift)**2 / (j + 1.0)) for j in range(params.components)])
    omega = -1.0 if params.components == 1 else (-1.0, -1.3)
    model_for(params, g).lplus_solve(phi, omega, g, phi)
    (mat, precond), = seen
    assert np.max(np.abs(mat - mat.T)) <= 1e-13 * np.max(np.abs(mat))
    assert np.min(precond) > 0


@pytest.mark.parametrize("case", ["p4.5", "coupled_1_1_2"])
def test_minres_gets_a_symmetric_operator_and_a_positive_preconditioner(case, monkeypatch):
    """MINRES needs both: the operator it is handed, written out column by
    column on a small grid, is symmetric, and the symbol is positive."""
    _check_the_operator_handed_to_minres(case, 0.0, monkeypatch)


@pytest.mark.parametrize("case", ["p4.5", "coupled_1_1_2"])
def test_the_whole_grid_solve_hands_minres_a_symmetric_operator(case, monkeypatch):
    """Off x = 0 the solve runs over the whole grid, with the kernel's
    projector added: the operator is still symmetric."""
    _check_the_operator_handed_to_minres(case, 0.3, monkeypatch)


@pytest.mark.parametrize("case", ["p4.5", "continued_asymmetric"])
def test_the_whole_grid_solve_of_a_rolled_profile_is_the_rolled_even_solve(case):
    prof = LPLUS_CASES[case]()
    grid = prof.grid
    model = model_for(prof.model, grid)
    phi = np.real(prof.field.values)
    rolled = np.roll(phi, 7, axis=1)
    for j in range(len(phi)):
        rhs = np.eye(len(phi))[j][:, None] * phi
        want = np.roll(model.lplus_solve(phi, prof.omega, grid, rhs), 7, axis=1)
        got = model.lplus_solve(rolled, prof.omega, grid, np.roll(rhs, 7, axis=1))
        assert_close(got, want, 1e-10)


@pytest.mark.parametrize("n", [256, 512, 1024, 2048])
def test_the_second_derivative_is_the_complex_product_bitwise(n):
    """-k^2 scales the real view of the transform: on every certify_grid
    line grid (the base and 2n grids), for one profile and stacked rows, the
    values are those of the complex product."""
    grid = line(n)
    rows = np.random.default_rng(n).standard_normal((3, 2, n))
    k2 = grid.wavenumbers[:n // 2 + 1] ** 2
    for v in (np.real(vk.soliton_explicit(-1.0, grid).field.values[0]), rows, rows[:, 0]):
        want = np.fft.irfft(-k2 * np.fft.rfft(v), n)
        assert np.array_equal(spectral.second_derivative(v, grid), want)


def test_the_even_solve_returns_an_even_function():
    prof = vk.soliton_solve(-1.0, 4.5, line(256))
    phi = np.real(prof.field.values)
    y = model_for(prof.model, prof.grid).lplus_solve(phi, -1.0, prof.grid, phi)
    assert np.array_equal(y, y[:, (256 - np.arange(256)) % 256])


# Values of the folded dense LU solves, kept from before the matrix-free solve.
SINGLE_VK = {3.0: -1.000000000000062, 4.5: -0.10430363095550856, 6.0: 0.12145016109090301}
VK_INTEGRAL = {2.0: 4.802771390238166, 0.5: -4.127389815340701}
D2W_CLOSED = {
    "coupled_1_1_2": [-0.6337952317063564, 0.9671285650396905, 0.0,
                      0.9671285650396905, -0.6337952317063557, 0.0, 0.0, 0.0,
                      -0.6666666666666666],
    "coupled_1_1_0.5": [1.7091299384469327, -1.0424632717802582, 0.0,
                        -1.0424632717802582, 1.7091299384469223, 0.0, 0.0, 0.0,
                        -1.3333333333333333],
    "coupled_1_1_2_boosted_0.7": [-0.6337952317063564, 0.9671285650396905, 0.11666666666666788,
                                  0.9671285650396905, -0.6337952317063557, 0.11666666666666621,
                                  0.11666666666666788, 0.11666666666666621, -0.5849999999999997],
    "continued_asymmetric": [-0.7210975803503595, 0.9195246724538924, 0.0,
                             0.9195246724538924, -0.5164644244915485, 0.0, 0.0, 0.0,
                             -0.7224054144545982],
}


@pytest.mark.parametrize("p", list(SINGLE_VK))
def test_single_vk_integral_keeps_its_dense_value(p):
    # the integral int u Lplus^{-1} u is -d2w[0, 0] of the rest soliton
    got = -vk.d2w_closed(vk.soliton_solve(-1.0, p, line(512))).d2w[0, 0]
    assert got == pytest.approx(SINGLE_VK[p], rel=1e-9)


@pytest.mark.parametrize("delta", list(VK_INTEGRAL))
def test_vk_integral_keeps_its_dense_value(delta):
    prof = vk.coupled_soliton(-1.0, vk.Coupled(1.0, 1.0, delta), line(256))
    for c in (0.0, 0.7):
        assert vk.vk_integral(vk.boost(prof, c)) == pytest.approx(VK_INTEGRAL[delta], rel=1e-9)


@pytest.mark.parametrize("case", list(D2W_CLOSED))
def test_d2w_closed_keeps_its_dense_value(case):
    if case == "continued_asymmetric":
        prof = _continued()
    else:
        delta = 2.0 if case.startswith("coupled_1_1_2") else 0.5
        prof = vk.coupled_soliton(-1.0, vk.Coupled(1.0, 1.0, delta), line(256))
        prof = vk.boost(prof, 0.7 if case.endswith("0.7") else 0.0)
    ref = np.reshape(D2W_CLOSED[case], (3, 3))
    assert_close(vk.d2w_closed(prof).d2w, ref, 1e-9)


def test_profile_and_slope_solves_build_no_dense_matrix(monkeypatch):
    """With the dense differentiation matrices unavailable, Newton (up to
    n = 16384), continuation and every slope solve still work."""
    def no_dense(*args):
        raise AssertionError("dense differentiation matrix built")

    monkeypatch.setattr(spectral, "_circulant", no_dense)
    for n in (8192, 16384):
        g = line(n)
        prof = vk.soliton_solve(-1.0, 3.0, g)
        assert np.max(np.abs(prof.field.values - vk.soliton_explicit(-1.0, g).field.values)) < 1e-7
    base = vk.coupled_soliton(-1.0, vk.Coupled(1.0, 1.0, 2.0), line(256))
    target = np.array([-1.0, -1.3, 0.0])
    fam = vk.continue_family(base, target)
    assert vk.d2w_fd(fam, target).signature == vk.d2w_closed(fam.profile(target)).signature
    assert vk.d2w_closed(base).method == "linear_solve"
    assert vk.vk_integral(base) == pytest.approx(VK_INTEGRAL[2.0], rel=1e-9)
    assert vk.d2w_closed(vk.soliton_solve(-1.0, 3.0, line(512))).d2w[0, 0] == pytest.approx(1.0)


def test_a_second_solve_at_the_same_n_builds_nothing(monkeypatch):
    """The even solve's scale and unfold index are built once per n, and
    read-only."""
    builds = []
    r_ = np.r_

    class Counted:
        def __getitem__(self, key):
            builds.append(key)
            return r_[key]

    spectral.even_scale.cache_clear()
    spectral._unfold_index.cache_clear()
    monkeypatch.setattr(np, "r_", Counted())
    first = vk.soliton_solve(-1.0, 3.0, line(256))
    assert len(builds) == 2
    second = vk.soliton_solve(-1.0, 3.0, line(256))
    assert len(builds) == 2
    assert np.array_equal(first.field.values, second.field.values)
    assert not spectral.even_scale(256).flags.writeable
    assert not spectral._unfold_index(129).flags.writeable


MINRES_FAILURE = r"MINRES did not converge in 1 iterations \(relative residual \d\.\d{3}e-\d\d\)"


def test_a_failed_inner_solve_names_itself(monkeypatch):
    cubic = vk.soliton_explicit(-1.0, line(256))
    # a soliton whose 2n re-solve takes a Newton step that needs more than
    # one MINRES iteration
    quartic = vk.soliton_solve(-2.0, 4.5, line(256))
    quartic_slope = vk.d2w_closed(quartic)
    monkeypatch.setattr(linalg, "MINRES_MAXITER", 1)
    # a Newton step whose MINRES needs more than one iteration (the cubic's
    # needs only one)
    with pytest.raises(vk.SolverError, match=MINRES_FAILURE):
        vk.soliton_solve(-4.0, 5.1, line(512))
    # certify reports it as it reports a failed Newton: in the slope matrix,
    # which solves over L+ for every line model
    for prof in (vk.coupled_soliton(-1.0, vk.Coupled(1.0, 1.0, 2.0), line(256)), cubic):
        cert = vk.certify(prof)
        assert cert.verdict == "indeterminate(solver)"
        assert "MINRES did not converge in 1 iterations" in cert.checks["error"]["detail"]
    # and, given the slope matrix, in the 2n refinement of h3
    monkeypatch.setattr(importlib.import_module("vkstab.certify"), "d2w_closed",
                        lambda prof: quartic_slope)
    cert = vk.certify(quartic)
    assert cert.verdict == "indeterminate(h3)"
    assert "MINRES did not converge in 1 iterations" in cert.checks["notes"]["h3_refinement_error"]


def test_a_frequency_that_is_not_negative_is_named():
    """The preconditioner k^2 - omega_j is positive only for omega_j < 0: a
    line profile read with another xi is refused by name, not solved."""
    prof = vk.coupled_soliton(-1.0, vk.Coupled(1.0, 1.0, 2.0), line(256))
    bad = vk.Profile(prof.field, np.array([0.5, -1.0, 0.0]), prof.model, zeta=prof.zeta)
    cert = vk.certify(bad)
    assert cert.verdict == "indeterminate(solver)"
    assert "needs every omega_j < 0 (got (0.5, -1.0))" in cert.checks["error"]["detail"]
    with pytest.raises(ValueError, match="omega_j < 0"):
        fourier_solve(line(256), 0.0, np.zeros((1, 1, 256)), np.ones((1, 256)))
