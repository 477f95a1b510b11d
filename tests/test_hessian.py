"""Constrained-energy Hessians: exact spectra, kernels, boost invariance."""

import numpy as np
import pytest

import vkstab as vk


@pytest.fixture(scope="module")
def soliton():
    g = vk.make_grid("line", 20.0, 512)
    return vk.soliton_solve(-1.0, 3.0, g)


@pytest.fixture(scope="module")
def soliton_report(soliton):
    op = vk.assemble(soliton)
    return op, vk.spectrum(op)


def test_second_variation_has_exact_low_spectrum(soliton_report):
    _, rep = soliton_report
    # the real-part block is a transparent Poschl-Teller operator:
    # eigenvalues -3 (ground state) and 0 (translation); the imaginary-part
    # block starts at 0 (phase)
    assert abs(rep.eigenvalues[0] + 3.0) < 1e-4
    assert rep.n_neg == 1
    assert rep.dim_ker == 2
    assert rep.gap_pos > 0.5


def test_kernel_coincides_with_symmetry_tangents(soliton_report):
    op, rep = soliton_report
    assert vk.kernel_matches_orbit(rep, op)


def test_hessian_matrix_is_symmetric(soliton_report):
    op, _ = soliton_report
    assert np.max(np.abs(op.matrix - op.matrix.T)) < 1e-12


def test_boost_leaves_spectrum_invariant(soliton, soliton_report):
    _, rep = soliton_report
    pb = vk.boost(soliton, 2.0)
    repb = vk.spectrum(vk.assemble(pb))
    assert np.max(np.abs(repb.all_eigenvalues - rep.all_eigenvalues)) < 1e-8


def test_apply_matches_quadratic_form(soliton):
    op = vk.assemble(soliton)
    rng = np.random.default_rng(0)
    v = vk.Field(
        (rng.standard_normal((1, soliton.grid.n))
         + 1j * rng.standard_normal((1, soliton.grid.n))),
        soliton.grid,
    )
    hv = op.apply(v)
    # <v, H v> is real for a symmetric operator
    quad = vk.inner(v, hv)
    assert np.isfinite(quad)
    # inner() integrates (carries the grid weight); the matrix form does not
    w = op.field_to_vec(v)
    assert np.isclose(quad, float(w @ op.matrix @ w) * soliton.grid.spacing,
                      rtol=1e-12)


def test_non_equilibrium_is_rejected(soliton):
    bad = vk.Profile(
        vk.Field(1.1 * soliton.field.values, soliton.grid),
        soliton.xi,
        soliton.model,
    )
    with pytest.raises(ValueError):
        vk.assemble(bad)


def test_coupled_hessian_counts():
    g = vk.make_grid("line", 20.0, 256)
    prof = vk.coupled_soliton(-1.0, vk.Coupled(1.0, 1.0, 2.0), g)
    rep = vk.spectrum(vk.assemble(prof))
    assert rep.n_neg == 1
    assert rep.dim_ker == 3     # two phases + translation
    prof2 = vk.coupled_soliton(-1.0, vk.Coupled(1.0, 1.0, 0.5), g)
    rep2 = vk.spectrum(vk.assemble(prof2))
    assert rep2.n_neg == 2
    assert rep2.dim_ker == 3


def test_torus_hessian_kernel_is_two_phases():
    g = vk.make_grid("periodic", 2 * np.pi, 64)
    prof = vk.plane_wave(1.0, 1.0, vk.Coupled(-1.0, -1.0, -0.5), g)
    op = vk.assemble(prof)
    rep = vk.spectrum(op)
    assert rep.n_neg == 0
    assert rep.dim_ker == 2
    assert vk.kernel_matches_orbit(rep, op)


def test_hessian_is_derivative_of_gradient(soliton):
    op = vk.assemble(soliton)
    rng = np.random.default_rng(1)
    v = vk.Field(
        (rng.standard_normal((1, soliton.grid.n))
         + 1j * rng.standard_normal((1, soliton.grid.n))),
        soliton.grid,
    )
    errs = []
    for h in (1e-3, 5e-4):
        gp = vk.grad_L(soliton.field + h * v, soliton.model, soliton.xi)
        gm = vk.grad_L(soliton.field + (-h) * v, soliton.model, soliton.xi)
        fd = (gp.values - gm.values) / (2 * h)
        errs.append(np.max(np.abs(fd - op.apply(v).values)))
    order = np.log(errs[0] / errs[1]) / np.log(2.0)
    assert order > 1.9


def test_boosted_equilibrium_is_checked_in_the_rest_frame():
    g = vk.make_grid("line", 20.0, 512)
    boosted = vk.boost(vk.soliton_solve(-1.0, 3.0, g), 0.5)
    # the 2n refinement used to fail the lab-frame residual gate
    cert = vk.certify(boosted)
    assert cert.verdict == "certified_coercive"
    assert abs(cert.checks["h3_positive_gap"]["refinement_ratio"] - 1.0) < 1e-6
    scaled = vk.Profile(vk.Field(1.1 * boosted.field.values, g), boosted.xi, boosted.model)
    with pytest.raises(ValueError, match="not an equilibrium"):
        vk.assemble(scaled)
