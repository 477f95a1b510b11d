"""Dense solves and products on scipy's LAPACK and BLAS."""

import numpy as np
import pytest

import vkstab as vk
from vkstab.linalg import matvec, solve


@pytest.fixture
def system():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((300, 300)) + 30.0 * np.eye(300)
    return a, rng.standard_normal(300), rng.standard_normal((300, 3))


def test_solve_matches_numpy(system):
    a, b, rhs = system
    for right in (b, rhs):
        x = solve(a, right)
        assert x.shape == right.shape
        assert np.allclose(x, np.linalg.solve(a, right), rtol=1e-12, atol=1e-14)


def test_solve_leaves_its_inputs_alone(system):
    a, b, _ = system
    a0, b0 = a.copy(), b.copy()
    solve(a, b)
    assert np.array_equal(a, a0) and np.array_equal(b, b0)


def test_singular_solve_raises_linalg_error():
    with pytest.raises(np.linalg.LinAlgError):
        solve(np.zeros((4, 4)), np.ones(4))


def test_matvec_matches_matmul(system):
    a, b, _ = system
    assert np.allclose(matvec(a, b), a @ b, rtol=1e-14, atol=1e-12)
    strided = a[::2, ::2]
    assert np.allclose(matvec(strided, b[::2]), strided @ b[::2], rtol=1e-14, atol=1e-12)


def test_certify_makes_no_numpy_solve(monkeypatch):
    """The Newton, slope and refinement solves share one BLAS with the
    eigensolves."""
    def no_numpy_solve(*args, **kwargs):
        raise AssertionError("np.linalg.solve called")

    g = vk.make_grid("line", 20.0, 256)
    profs = (vk.soliton_solve(-1.0, 3.0, g),
             vk.coupled_soliton(-1.0, vk.Coupled(1.0, 1.0, 2.0), g))
    monkeypatch.setattr(np.linalg, "solve", no_numpy_solve)
    for prof in profs:
        assert vk.certify(prof).verdict == "certified_coercive"
    assert vk.soliton_solve(-1.0, 6.0, g).omega == -1.0
    assert vk.coupled_stability_criteria(profs[1])["stable"]
