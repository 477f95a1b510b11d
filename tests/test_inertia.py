"""h3's refined eigenvalue by Schur-complement inertia, against the dense
oracle: the values, the counts below a shift, the window that grows, and a
refinement that does not converge."""

import numpy as np
import pytest
import scipy.linalg

import vkstab as vk
from vkstab import hessian, linalg
from vkstab.cli import main
from vkstab.model import Pointwise, model_for

import dense_oracle as dense
from test_hessian import ORACLE_CASES


def line(n):
    return vk.make_grid("line", 20.0, n)


def _refined(prof):
    """The rest member of prof's family on the doubled grid, as h3 reads it."""
    fine = line(2 * prof.grid.n)
    return model_for(prof.model, prof.grid).resolve(prof, prof.omega, fine)


# the line cases of the benchmark's certify_grid whose refinement grid has
# at most 1024 points (the boosted soliton refines to cubic_n512's member)
CERTIFY_GRID_LINES = {
    "cubic_n256": lambda: vk.soliton_solve(-1.0, 3.0, line(256)),
    "cubic_n512": lambda: vk.soliton_solve(-1.0, 3.0, line(512)),
    "boosted_c0.5_n512": lambda: vk.boost(vk.soliton_solve(-1.0, 3.0, line(512)), 0.5),
    "p6_n512": lambda: vk.soliton_solve(-1.0, 6.0, line(512)),
    "coupled_1_1_2_n256": lambda: vk.coupled_soliton(-1.0, vk.Coupled(1.0, 1.0, 2.0), line(256)),
    "coupled_1_1_0.5_n256": lambda: vk.coupled_soliton(-1.0, vk.Coupled(1.0, 1.0, 0.5),
                                                       line(256)),
}
ORACLE_LINES = [case for case in ORACLE_CASES if not case.startswith("torus")]


def _case(case):
    """(profile, guesses, index): an oracle line profile on its own grid,
    guessed at 1, or a certify_grid line case's refined member, guessed at
    the base grid's eigenvalues, as h3 guesses its gap."""
    base = ORACLE_CASES[case]() if case in ORACLE_CASES else CERTIFY_GRID_LINES[case]()
    rep = vk.spectrum(vk.assemble(base))
    index = rep.n_neg + rep.dim_ker
    if case in ORACLE_CASES:
        return base, np.ones(index + 2), index
    return _refined(base), rep.eigenvalues[:index + 2], index


@pytest.mark.parametrize("case", ORACLE_LINES + list(CERTIFY_GRID_LINES))
def test_the_eigenvalues_by_inertia_match_the_dense_oracle(case):
    prof, guesses, index = _case(case)
    want = np.linalg.eigvalsh(dense.matrix(prof))
    floor = np.finfo(float).eps * np.max(np.abs(want))
    for j in range(index + 2):
        got = vk.eigenvalue(prof, j, guesses[j])
        assert abs(got.value - want[j]) <= max(1e-9 * abs(want[j]), floor), j
        assert got.residual <= hessian.FIXED_POINT_RTOL * max(1.0, abs(got.value))
    # the complements count the eigenvalues below a shift: between the
    # clusters of the low end (the kernel's eigenvalues lie within
    # roundoff of each other), and at the window's top
    low = want[:index + 2]
    shifts = [0.5 * (a + b) for a, b in zip(low, low[1:]) if b - a > 1e-6] + [low[-1] + 1e-3]
    top = max(shifts)
    blocks = model_for(prof.model, prof.grid).hessian(prof)
    complements = [hessian._Complement(b, prof.grid, top) for b in blocks
                   if isinstance(b, Pointwise)]
    for sigma in shifts:
        below = sum(int(np.sum(c.eigenvalues(sigma) < sigma)) for c in complements)
        assert below == np.sum(want < sigma), sigma


def test_the_window_doubles_when_the_guess_is_half_the_eigenvalue(monkeypatch):
    """The cubic soliton at omega = -9: its gap 9 lies above the first
    window's top (1.5 * 4.5 + 1), which doubles, and the value is the same."""
    prof = vk.soliton_solve(-9.0, 3.0, line(512))
    want = np.linalg.eigvalsh(dense.matrix(prof))[3]
    tops = []
    complement = hessian._Complement

    def recorded(block, grid, top):
        tops.append(top)
        return complement(block, grid, top)

    monkeypatch.setattr(hessian, "_Complement", recorded)
    got = vk.eigenvalue(prof, 3, 0.5 * want)
    assert tops[0] == 1.5 * 0.5 * want + 1.0 < want
    assert tops[-1] == 2.0 * tops[0] > want
    assert abs(got.value - want) <= 1e-9 * want
    tops.clear()
    assert vk.eigenvalue(prof, 3, want).value == pytest.approx(got.value, rel=1e-12)
    assert len(set(tops)) == 1


@pytest.mark.parametrize("module, name, n, message", [
    (linalg, "CG_MAXITER", 256, "block CG did not converge in 1 iterations"),
    # the n = 128 gap is 1.6e-9 off the refined one: one build cannot reach it
    (hessian, "SECANT_MAXITER", 128, "did not converge in 1 builds"),
], ids=["cg", "secant"])
def test_a_refinement_that_does_not_converge_is_indeterminate(monkeypatch, capsys, tmp_path,
                                                              module, name, n, message):
    prof = vk.soliton_solve(-1.0, 3.0, line(n))
    assert vk.certify(prof).certified
    monkeypatch.setattr(module, name, 1)
    cert = vk.certify(prof)
    assert cert.verdict == "indeterminate(h3)"
    assert message in cert.checks["notes"]["h3_refinement_error"]
    assert cert.checks["h3_positive_gap"]["refinement_ratio"] is None
    code = main(["certify", "--model", "nls", "--omega", "-1", "--p", "3", "--extent", "20",
                 "--n", str(n), "--out", str(tmp_path / "cert.json")])
    assert code == 4
    assert "Traceback" not in capsys.readouterr().err


def test_certify_reduces_only_the_base_grid_parts(monkeypatch):
    """The 2n refinement builds and reduces no part: every dsytrd is one of
    the base grid's, none larger than its even part."""
    n = 512
    prof = vk.soliton_solve(-1.0, 3.0, line(n))
    sizes = []
    dsytrd = scipy.linalg.lapack.dsytrd

    def counted(a, *args, **kwargs):
        sizes.append(a.shape[0])
        return dsytrd(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg.lapack, "dsytrd", counted)
    cert = vk.certify(prof)
    assert cert.certified and cert.checks["h3_positive_gap"]["refinement_n"] == 2 * n
    assert len(sizes) == len(cert.provenance["spectrum_parts"]) == 4
    assert max(sizes) <= n // 2 + 1


def test_the_certificate_records_how_the_refined_gap_was_reached():
    prof = vk.coupled_soliton(-1.0, vk.Coupled(1.0, 1.0, 2.0), line(256))
    h3 = vk.certify(prof).checks["h3_positive_gap"]
    # L+ on both components, then L-11 and L-22
    assert h3["refinement_complement"] == [94, 29, 29]
    assert h3["refinement_secant_steps"] >= 1 and h3["refinement_cg_iterations"] >= 1
    assert 0.0 <= h3["refinement_residual"] <= hessian.FIXED_POINT_RTOL
    # the torus wave's modes are solved exactly: there is no complement
    torus = vk.plane_wave(1.0, 1.0, vk.Coupled(-1.0, -1.0, -0.5),
                          vk.make_grid("periodic", 2 * np.pi, 64))
    h3 = vk.certify(torus).checks["h3_positive_gap"]
    assert h3["refinement_n"] == 128 and "refinement_complement" not in h3


def test_a_guess_that_is_not_finite_is_refused():
    with pytest.raises(ValueError, match="guess must be finite"):
        vk.eigenvalue(vk.soliton_solve(-1.0, 3.0, line(256)), 3, np.nan)
