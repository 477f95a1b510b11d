"""Grids, spectral calculus, and conserved quantities."""

import numpy as np
import pytest

import vkstab as vk
from vkstab.core import boundary_decay_check, gradient, h1_norm, laplacian
from vkstab.spectral import first_derivative_matrix, second_derivative_matrix, unfold

from dense_oracle import fold


def test_line_grid_nodes_and_spacing():
    g = vk.make_grid("line", 20.0, 512)
    assert g.n == 512
    assert g.kind == "line"
    assert np.isclose(g.spacing, 40.0 / 512)
    assert np.isclose(g.nodes[0], -20.0)
    # uniform, endpoint excluded (periodic identification)
    assert np.allclose(np.diff(g.nodes), g.spacing)
    assert g.nodes[-1] < 20.0


def test_periodic_grid_covers_one_period():
    L = 2 * np.pi
    g = vk.make_grid("periodic", L, 64)
    assert np.isclose(g.spacing, L / 64)
    assert np.isclose(g.nodes[-1] + g.spacing - g.nodes[0], L)


def test_grid_rejects_bad_input():
    with pytest.raises(ValueError):
        vk.make_grid("line", -1.0, 64)
    with pytest.raises(ValueError):
        vk.make_grid("line", 10.0, 0)
    with pytest.raises(ValueError):
        vk.make_grid("circle", 10.0, 64)


def test_spectral_derivatives_exact_on_plane_waves():
    g = vk.make_grid("periodic", 2 * np.pi, 64)
    kappa = 3
    f = vk.Field(np.exp(1j * kappa * g.nodes)[None, :], g)
    lap = laplacian(f).values[0]
    grad = gradient(f).values[0]
    assert np.max(np.abs(lap + kappa**2 * f.values[0])) < 1e-11
    assert np.max(np.abs(grad - 1j * kappa * f.values[0])) < 1e-11


def test_laplacian_matches_analytic_sech():
    g = vk.make_grid("line", 20.0, 512)
    u = np.cosh(g.nodes) ** -1.0
    # (sech)'' = sech - 2 sech^3
    exact = u - 2 * u**3
    lap = laplacian(vk.Field(u[None, :].astype(complex), g)).values[0]
    # periodic truncation of the sech tail dominates near the boundary
    assert np.max(np.abs(lap - exact)) < 1e-6
    interior = np.abs(g.nodes) <= 10.0
    assert np.max(np.abs((lap - exact)[interior])) < 1e-8


def test_inner_product_and_h1_norm():
    g = vk.make_grid("periodic", 2 * np.pi, 64)
    f = vk.Field(np.exp(1j * g.nodes)[None, :], g)
    # |f|_{L2}^2 = 2 pi, |f'|^2 = 2 pi -> H1 norm sqrt(4 pi)
    assert np.isclose(vk.inner(f, f), 2 * np.pi)
    assert np.isclose(h1_norm(f), np.sqrt(4 * np.pi))


def test_single_soliton_invariants():
    g = vk.make_grid("line", 20.0, 512)
    prof = vk.soliton_explicit(-1.0, g)
    inv = prof.invariants()
    # mass of sqrt(2) sech is 4; F = (mass/2, momentum) convention
    assert np.isclose(inv["F"][0], 2.0, atol=1e-10)
    assert np.isclose(inv["F"][1], 0.0, atol=1e-12)
    # H = int |u'|^2/2 - |u|^4/4 = -2/3 for sqrt(2) sech
    assert abs(inv["H"] + 2.0 / 3.0) < 1e-10


def test_boosted_invariants_shift_momentum():
    g = vk.make_grid("line", 20.0, 512)
    prof = vk.soliton_solve(-1.0, 3.0, g)
    pb = vk.boost(prof, 2.0)
    inv = pb.invariants()
    assert np.allclose(inv["F"], [2.0, 2.0], atol=1e-10)


def test_boundary_decay_check():
    g = vk.make_grid("line", 20.0, 512)
    prof = vk.soliton_explicit(-1.0, g)
    boundary_decay_check(prof.field)  # decays fine
    flat = vk.Field(np.ones((1, g.n), dtype=complex), g)
    with pytest.raises(ValueError):
        boundary_decay_check(flat)


def test_field_arithmetic_preserves_grid():
    g = vk.make_grid("line", 10.0, 64)
    a = vk.Field(np.ones((1, 64), dtype=complex), g)
    b = 2.0 * a + a
    assert np.allclose(b.values, 3.0)
    assert b.grid is g


@pytest.mark.parametrize("components", [1, 2])
def test_even_fold_and_unfold(components):
    g = vk.make_grid("line", 10.0, 64)
    n, h = g.n, g.n // 2 + 1
    mirror = (n - np.arange(n)) % n
    d2 = second_derivative_matrix(g)
    x = g.nodes
    # d2 + diag(even potential) per component, even couplings between them
    coupling = np.eye(components) + 1.0
    a = np.kron(np.eye(components), d2) + np.kron(coupling, np.diag(np.exp(-x**2)))
    v = np.array([np.cosh(x / (j + 2.0)) ** -2 for j in range(components)])
    v = 0.5 * (v + v[:, mirror])          # exactly even
    av = (a @ v.ravel()).reshape(components, n)
    assert np.allclose(av[:, mirror], av, rtol=0, atol=1e-12)
    folded = fold(a, components) @ v[:, :h].ravel()
    assert np.allclose(folded, av[:, :h].ravel(), rtol=0, atol=1e-12)
    assert np.array_equal(unfold(v[:, :h]), v)
    assert np.array_equal(unfold(v[0, :h]), v[0])


def _fft_of_identity(g):
    """D1 and D2 by FFTs of the n x n identity, symmetrized."""
    spec = np.fft.fft(np.eye(g.n), axis=0)
    d1 = np.real(np.fft.ifft(1j * g.deriv_wavenumbers()[:, None] * spec, axis=0))
    d2 = np.real(np.fft.ifft(-(g.wavenumbers[:, None] ** 2) * spec, axis=0))
    return 0.5 * (d1 - d1.T), 0.5 * (d2 + d2.T)


@pytest.mark.parametrize("kind, extent, n", [("line", 20.0, 256), ("periodic", 2 * np.pi, 64)])
def test_circulant_diff_matrices_match_the_fft_of_the_identity(kind, extent, n):
    g = vk.make_grid(kind, extent, n)
    d1, d2 = first_derivative_matrix(g), second_derivative_matrix(g)
    for built, ref in zip((d1, d2), _fft_of_identity(g)):
        assert np.max(np.abs(built - ref)) <= 1e-12 * np.max(np.abs(ref))
    # exactly antisymmetric and symmetric, odd and even under j -> -j
    mirror = -np.arange(n) % n
    assert np.array_equal(d1.T, -d1) and np.array_equal(d2.T, d2)
    assert np.array_equal(d1[mirror][:, mirror], -d1)
    assert np.array_equal(d2[mirror][:, mirror], d2)
