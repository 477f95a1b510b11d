"""Inexact Newton: each profile solve's MINRES stops at the relative residual
its Newton step can use, with the answers of the tight solve and at a
counted fraction of its work."""

import numpy as np
import pytest

import vkstab as vk
from vkstab import linalg, profiles, spectral
from vkstab.model import model_for


def line(n):
    return vk.make_grid("line", 20.0, n)


COUPLED = vk.Coupled(1.0, 1.0, 2.0)
TARGETS = ((-1.0, -1.3, 0.0), (-1.2, -1.0, 0.0), (-1.0, -1.0, 0.4))


def _tighten(monkeypatch):
    """Run every Newton step's MINRES to MINRES_RTOL, as the other solves do."""
    solve = spectral.fourier_solve
    monkeypatch.setattr(profiles, "fourier_solve",
                        lambda *args, rtol: solve(*args, rtol=linalg.MINRES_RTOL))


def _below_newton_stop(phi, omega, grid, model):
    res = np.max(np.abs(model.stationary(phi, omega, grid)))
    roundoff = np.finfo(float).eps * np.max(grid.wavenumbers**2) * np.max(np.abs(phi))
    return res < max(profiles.NEWTON_TOL, profiles.NEWTON_FLOOR * roundoff)


def _agree(loose, tight_, fd_loose, fd_tight):
    assert np.max(np.abs(loose - tight_)) <= 1e-13 * np.max(np.abs(tight_))
    assert np.max(np.abs(fd_loose.d2w - fd_tight.d2w)) <= 1e-10 * np.max(np.abs(fd_tight.d2w))
    assert fd_loose.signature == fd_tight.signature


@pytest.mark.parametrize("n", [512, 1024])
@pytest.mark.parametrize("omega", [-1.0, -4.0])
@pytest.mark.parametrize("p", [2.0, 3.0, 4.9, 5.1, 6.0])
def test_a_loose_newton_step_keeps_the_soliton_and_its_slope(monkeypatch, p, omega, n):
    def solve():
        prof = vk.soliton_solve(omega, p, line(n))
        return np.real(prof.field.values), vk.d2w_fd(vk.make_family(prof), prof.xi)

    phi, fd = solve()
    grid = line(n)
    assert _below_newton_stop(phi, omega, grid, model_for(vk.SingleNLS(p), grid))
    _tighten(monkeypatch)
    phi_tight, fd_tight = solve()
    _agree(phi, phi_tight, fd, fd_tight)


@pytest.mark.parametrize("target", TARGETS, ids=lambda t: "_".join(f"{x:g}" for x in t))
def test_a_loose_newton_step_keeps_the_continuation_and_its_slope(monkeypatch, target):
    base = vk.coupled_soliton(-1.0, COUPLED, line(256))
    model = model_for(COUPLED, base.grid)
    omega = model.omega(np.array(target))

    def solve():
        rest = np.real(model.resolve(base, omega, base.grid).field.values)
        return rest, vk.d2w_fd(vk.continue_family(base, target), target)

    phi, fd = solve()
    assert _below_newton_stop(phi, omega, base.grid, model)
    _tighten(monkeypatch)
    phi_tight, fd_tight = solve()
    _agree(phi, phi_tight, fd, fd_tight)


@pytest.fixture
def work(monkeypatch):
    """Counters of MINRES operator applications and of Newton steps."""
    counts = {"applies": 0, "steps": 0}
    minres, solve = spectral.minres, profiles.fourier_solve

    def counted_minres(apply, *args):
        def counted(q):
            counts["applies"] += 1
            return apply(q)
        return minres(counted, *args)

    def counted_solve(*args, **kwargs):
        counts["steps"] += 1
        return solve(*args, **kwargs)

    monkeypatch.setattr(spectral, "minres", counted_minres)
    monkeypatch.setattr(profiles, "fourier_solve", counted_solve)
    return counts


def test_the_key_slope_point_takes_a_bounded_number_of_minres_applications(work):
    """p = 3, omega = -1, n = 1024: its four Newton steps (its own and the
    d2w_fd members') take one application each; d2w_closed's solve, which
    keeps MINRES_RTOL, takes the rest (six per step at MINRES_RTOL)."""
    prof = vk.soliton_solve(-1.0, 3.0, line(1024))
    vk.d2w_fd(vk.make_family(prof), prof.xi)
    vk.d2w_closed(prof)
    assert work["steps"] == 4
    assert work["applies"] <= 16


def test_the_continuation_takes_a_bounded_number_of_minres_applications(work):
    """The coupled continuation to (-1, -1.3, 0) and its d2w_fd: the same 24
    Newton steps, in at most 140 applications (253 with every step at
    MINRES_RTOL)."""
    target = TARGETS[0]
    base = vk.coupled_soliton(-1.0, COUPLED, line(256))
    vk.d2w_fd(vk.continue_family(base, target), target)
    assert work["steps"] == 24
    assert work["applies"] <= 140
