"""h3's refined eigenvalue by Schur-complement inertia, against the dense
oracle: the values, the counts below a shift, the window that grows, and a
refinement that does not converge."""

import functools

import numpy as np
import pytest

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


def _roots(complement, sigma):
    """The complement's roots linearized at sigma, to Newton's stop."""
    return complement.roots(sigma, hessian.FIXED_POINT_RTOL)


@functools.cache
def _dense(case):
    """`_case`, with every eigenvalue of its profile's dense oracle."""
    prof, guesses, index = _case(case)
    return prof, guesses, index, np.linalg.eigvalsh(dense.matrix(prof))


def _shifts(want, index):
    """Shifts between the clusters of the low end (the kernel's eigenvalues
    lie within roundoff of each other), and one at the window's top."""
    low = want[:index + 2]
    return [0.5 * (a + b) for a, b in zip(low, low[1:]) if b - a > 1e-6] + [low[-1] + 1e-3]


@pytest.mark.parametrize("case", ORACLE_LINES + list(CERTIFY_GRID_LINES))
def test_the_eigenvalues_by_inertia_match_the_dense_oracle(case):
    prof, guesses, index, want = _dense(case)
    floor = np.finfo(float).eps * np.max(np.abs(want))
    for j in range(index + 2):
        got = vk.eigenvalue(prof, j, guesses[j])
        assert abs(got.value - want[j]) <= max(1e-9 * abs(want[j]), floor), j
        assert got.residual <= hessian.FIXED_POINT_RTOL * max(1.0, abs(got.value))
    # the complements count the eigenvalues below a shift
    shifts = _shifts(want, index)
    top = max(shifts)
    blocks = model_for(prof.model, prof.grid).hessian(prof)
    complements = [hessian._Complement(b, prof.grid, top) for b in blocks
                   if isinstance(b, Pointwise)]
    for sigma in shifts:
        below = sum(int(np.sum(_roots(c, sigma).values < sigma)) for c in complements)
        assert below == np.sum(want < sigma), sigma


EVEN_LINES = [case for case in ORACLE_LINES + list(CERTIFY_GRID_LINES) if case != "rolled"]


@pytest.mark.parametrize("case", EVEN_LINES)
def test_the_sectors_give_the_single_sector_complement(case):
    """An even block's complement, split into its cosine and sine sectors,
    has the roots and the size of the same block rolled by one node, which
    is not even and is one sector, in no more CG iterations.  Rolling turns
    each low mode's cosine and sine into two combinations of them, whose
    CG stops elsewhere: the roots agree within their own bounds."""
    prof, _, index, want = _dense(case)
    shifts = _shifts(want, index)
    for block in model_for(prof.model, prof.grid).hessian(prof):
        if not isinstance(block, Pointwise):
            continue
        split = hessian._Complement(block, prof.grid, max(shifts))
        whole = hessian._Complement(Pointwise(np.roll(block.coupling, 1, axis=-1)), prof.grid,
                                    max(shifts))
        assert (split.sectors, whole.sectors) == (2, 1)
        assert split.size == whole.size
        for sigma in shifts:
            got, ref = _roots(split, sigma), _roots(whole, sigma)
            # eigvalsh knows an eigenvalue far above the window, where F's
            # norm lies (42 for p = 6), to a few eps |F| only
            bound = (got.residual + ref.residual
                     + 1e-13 * np.maximum(max(1.0, abs(sigma)), np.abs(ref.values)))
            assert np.all(np.abs(got.values - ref.values) <= bound), sigma
        assert split.iterations <= whole.iterations


def test_a_window_below_the_first_sine_mode_leaves_its_sector_empty():
    """On a line of length 2, k_1^2 = pi^2 lies above k_c^2 = 0.5 + 2 * 3 +
    1 for the coupling 3 sech^2 at top 0.5: the sine sector holds no row."""
    grid = vk.make_grid("line", 1.0, 64)
    coupling = (3.0 / np.cosh(grid.nodes) ** 2)[None, None]
    split = hessian._Complement(Pointwise(coupling), grid, 0.5)
    whole = hessian._Complement(Pointwise(np.roll(coupling, 1, axis=-1)), grid, 0.5)
    assert [len(a) for a in split.a] == [1, 0] and split.size == whole.size == 1
    assert _roots(split, 0.3).values == pytest.approx(_roots(whole, 0.3).values, abs=1e-13)


@pytest.mark.parametrize("case, rows", [("cubic", [24, 15]), ("coupled_1_1_2", [48, 15, 15])])
def test_a_cg_application_transforms_one_row_per_cosine_and_sine_row(monkeypatch, case, rows):
    """Packed rows per real transform of each line block's complement, at the
    window of a guess of 1: L+ holds 47 rows of B^T (94 on two components)
    and L- 29, one more cosine than sine row each."""
    transformed = []
    whole_coordinates = hessian.whole_coordinates

    def counted(n):
        coords, values = whole_coordinates(n)

        def counted_coords(v, out=None):
            transformed.append(len(v))
            return coords(v, out)

        def counted_values(q, out=None, scratch=None):
            transformed.append(len(q))
            return values(q, out, scratch)

        return counted_coords, counted_values

    monkeypatch.setattr(hessian, "whole_coordinates", counted)
    prof = ORACLE_CASES[case]()
    blocks = model_for(prof.model, prof.grid).hessian(prof)
    for block, want in zip(blocks, rows, strict=True):
        complement = hessian._Complement(block, prof.grid, 1.5 + 1.0)
        transformed.clear()
        _roots(complement, 1.0)
        # one values and one coords call per application: the start's
        # residual, then one per iteration
        assert transformed == [want] * 2 * (complement.iterations + 1)


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


@pytest.mark.parametrize("module, name, value, message", [
    # the base grid's complements need 4 CG iterations each, the refined
    # ones 6
    (linalg, "CG_MAXITER", 5, "block CG did not converge in 5 iterations"),
    # a stop below roundoff, which no linearization of Newton's meets
    (hessian, "FIXED_POINT_RTOL", 1e-17, f"did not converge in {hessian.NEWTON_MAXITER} builds"),
], ids=["cg", "secant"])
def test_a_refinement_that_does_not_converge_is_indeterminate(monkeypatch, capsys, tmp_path,
                                                              module, name, value, message):
    n = 256
    prof = vk.soliton_solve(-1.0, 3.0, line(n))
    assert vk.certify(prof).certified
    monkeypatch.setattr(module, name, value)
    cert = vk.certify(prof)
    assert cert.verdict == "indeterminate(h3)"
    assert message in cert.checks["notes"]["h3_refinement_error"]
    assert cert.checks["h3_positive_gap"]["refinement_ratio"] is None
    code = main(["certify", "--model", "nls", "--omega", "-1", "--p", "3", "--extent", "20",
                 "--n", str(n), "--out", str(tmp_path / "cert.json")])
    assert code == 4
    assert "Traceback" not in capsys.readouterr().err


def test_a_base_spectrum_that_does_not_converge_is_indeterminate(monkeypatch):
    """The base grid's complements run block CG too: when it fails, the
    certificate is indeterminate(solver), with no traceback."""
    monkeypatch.setattr(linalg, "CG_MAXITER", 1)
    cert = vk.certify(vk.soliton_solve(-1.0, 3.0, line(256)))
    assert cert.verdict == "indeterminate(solver)"
    assert "block CG did not converge in 1 iterations" in cert.checks["error"]["detail"]


def test_certify_reduces_only_the_base_grid_parts(monkeypatch):
    """The base grid's classification is one linearization at 0, to
    COUNT_RTOL: one block CG per line block; the refinement linearizes the
    2n blocks, each build once per block."""
    n = 512
    prof = vk.soliton_solve(-1.0, 3.0, line(n))
    calls = []
    roots = hessian._Complement.roots

    def counted(self, sigma, rtol):
        calls.append((self.coupling.shape[-1], sigma, rtol))
        return roots(self, sigma, rtol)

    monkeypatch.setattr(hessian._Complement, "roots", counted)
    cert = vk.certify(prof)
    h3 = cert.checks["h3_positive_gap"]
    assert cert.certified and h3["refinement_n"] == 2 * n
    assert calls[:2] == [(n, 0.0, hessian.COUNT_RTOL)] * 2
    refined = calls[2:]
    assert len(refined) == 2 * h3["refinement_secant_steps"]
    assert all(size == 2 * n and rtol == hessian.FIXED_POINT_RTOL for size, _, rtol in refined)


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


@pytest.mark.parametrize("delta", [2.0, 0.5])
def test_the_two_equal_lminus_blocks_share_one_complement(monkeypatch, delta):
    """L-11 and L-22 of a symmetric coupled soliton have bitwise-equal
    couplings: on the base grid and on h3's 2n grid they share one
    complement, built once and solved once per linearization, whose roots
    count once per block, and which is still listed per block."""
    prof = vk.coupled_soliton(-1.0, vk.Coupled(1.0, 1.0, delta), line(256))
    assert np.array_equal(*(b.coupling for b in vk.assemble(prof).blocks[1:]))
    builds, calls = [], []
    complement, roots = hessian._Complement, hessian._Complement.roots

    def built(block, grid, top):
        builds.append(grid.n)
        return complement(block, grid, top)

    def counted(self, sigma, rtol):
        calls.append((self.coupling.shape[-1], sigma))
        return roots(self, sigma, rtol)

    monkeypatch.setattr(hessian._Complement, "roots", counted)
    monkeypatch.setattr(hessian, "_Complement", built)
    cert = vk.certify(prof)
    h3 = cert.checks["h3_positive_gap"]
    assert cert.certified
    assert builds == [256, 256, 512, 512]
    # two solves per linearization: one at 0 on the base grid, then h3's builds
    assert calls[:2] == [(256, 0.0)] * 2
    assert [n for n, _ in calls[2:]] == [512] * 2 * h3["refinement_secant_steps"]
    assert all(a == b for a, b in zip(calls[::2], calls[1::2]))
    assert h3["refinement_complement"] == [94, 29, 29]
    assert [kind for _, kind in cert.provenance["spectrum_parts"]] == ["even", "odd"] * 3
    # the counts take the shared block's eigenvalues twice, as the dense oracle does
    want = np.linalg.eigvalsh(dense.matrix(prof))
    assert cert.checks["h4_index_match"]["n_d2l"] == np.sum(want < -1e-6)
    assert cert.checks["h2_kernel_equals_orbit"]["dim_ker"] == np.sum(np.abs(want) <= 1e-6) == 3
