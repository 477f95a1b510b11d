"""Hessian parts built in their own coordinates, against the dense oracle:
the parity sectors of each line block's Schur complement, the torus mode by
mode, one part in memory at a time."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg

import vkstab as vk
from vkstab import dynamics, hessian, model
from vkstab.model import FourierModes, Pointwise

import dense_oracle as dense


def line(n=256):
    return vk.make_grid("line", 20.0, n)


def torus(n=64):
    return vk.make_grid("periodic", 2 * np.pi, n)


def _continued():
    base = vk.coupled_soliton(-1.0, vk.Coupled(1.0, 1.0, 2.0), line())
    target = np.array([-1.0, -1.3, 0.0])
    return vk.continue_family(base, target).profile(target)


def _half_shifted():
    """The cubic soliton centred half a grid spacing off x = 0: no grid point
    mirrors onto another, so no block splits by parity."""
    g = line()
    u = np.sqrt(2.0) / np.cosh(g.nodes - 0.5 * g.spacing)
    return vk.Profile(vk.Field(u[None].astype(complex), g), np.array([-1.0, 0.0]),
                      vk.SingleNLS(3.0))


LINE_CASES = {
    "p3": lambda: vk.soliton_solve(-1.0, 3.0, line()),
    "p4.5": lambda: vk.soliton_solve(-1.0, 4.5, line()),
    "p6": lambda: vk.soliton_solve(-1.0, 6.0, line()),
    "boosted": lambda: vk.boost(vk.soliton_solve(-1.0, 3.0, line()), 0.7),
    "coupled_1_1_2": lambda: vk.coupled_soliton(-1.0, vk.Coupled(1.0, 1.0, 2.0), line()),
    "coupled_1_1_0.5": lambda: vk.coupled_soliton(-1.0, vk.Coupled(1.0, 1.0, 0.5), line()),
    "continued": _continued,
    "half_shifted": _half_shifted,
}
TORUS_CASES = {
    "k0": lambda: vk.plane_wave(1.0, 1.0, vk.Coupled(-1.0, -1.0, -0.5), torus()),
    "k1_beta0.7": lambda: vk.plane_wave(1.0, 1.0, vk.Coupled(-1.0, -1.0, -0.5, beta=0.7, k=1.0),
                                        torus()),
}


@pytest.mark.parametrize("case", list(LINE_CASES))
def test_line_parts_match_the_dense_parts(case):
    """A window above every mode leaves no high mode: each line block's
    complement is A, and its cosine and sine sectors are the block on the
    even and the odd functions."""
    prof = LINE_CASES[case]()
    op = vk.assemble(prof)
    top = np.max(op.grid.wavenumbers) ** 2
    ours = []
    for block in op.blocks:
        complement = hessian._Complement(block, op.grid, top)
        assert not np.any(complement.high)
        ours += [(kind, np.linalg.eigvalsh(a)) for a, (_, kind) in zip(complement.a,
                                                                       complement.parts)]
    ref = [(kind, np.linalg.eigvalsh(mat)) for kind, mat in dense.parts(prof)]
    assert [kind for kind, _ in ours] == [kind for kind, _ in ref]
    radius = max(np.max(np.abs(vals)) for _, vals in ref)
    for (_, got), (_, want) in zip(ours, ref):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * radius
    if case == "half_shifted":
        assert [kind for kind, _ in ours] == ["whole", "whole"]


@pytest.mark.parametrize("case", list(TORUS_CASES))
def test_torus_modes_match_the_dense_block(case):
    prof = TORUS_CASES[case]()
    op = vk.assemble(prof)
    (block,) = op.blocks
    assert isinstance(block, FourierModes) and block.dimension == 4 * prof.grid.n
    want = np.linalg.eigvalsh(dense.matrix(prof))
    got = vk.spectrum(op, n_eigs=op.dimension).eigenvalues
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_torus_modes_are_the_closed_form_where_k_is_0():
    params, zeta, length = vk.Coupled(-1.0, -1.0, -0.5, beta=0.7), (1.0, 1.3), 2 * np.pi
    prof = vk.plane_wave(*zeta, params, torus())
    (block,) = vk.assemble(prof).blocks
    for m, mode in enumerate(block.modes):
        want = np.sort(vk.hessian_mode_eigs(m, params, zeta, length))
        assert np.max(np.abs(np.linalg.eigvalsh(mode) - want)) <= 1e-12 * np.max(np.abs(want))


def _so3():
    state = vk.circular_orbit(1.0, 1.0, 1.0)
    op = vk.HessOp((vk.hessian6(state),), None, vk.so3.symmetry_tangent(state)[None], None)
    return op, op.blocks[0]


APPLY_CASES = {
    "p3": LINE_CASES["p3"],
    "boosted_coupled": lambda: vk.boost(
        vk.coupled_soliton(-1.0, vk.Coupled(1.0, 1.0, 2.0), line()), 0.7),
    "torus_k1_beta0.7": TORUS_CASES["k1_beta0.7"],
}


@pytest.mark.parametrize("case", list(APPLY_CASES) + ["so3"])
def test_the_block_apply_matches_the_dense_matrix(case):
    """Every column of the matrix-free apply: -d2 by FFT and the pointwise
    coupling; the torus in each mode's cos and sin copy, and the single
    copies of modes 0 and n/2; the gridless block by matvec."""
    if case == "so3":
        op, mat = _so3()
    else:
        prof = APPLY_CASES[case]()
        op, mat = vk.assemble(prof), dense.matrix(prof)
    got = op.apply(np.eye(op.dimension))
    assert np.max(np.abs(got - mat)) <= 1e-14 * np.max(np.abs(mat))


def test_parity_is_read_from_each_block():
    """A line block's complement splits by parity when the block's own
    coupling is even, by the rule that `model._is_even` applies to a
    profile, for the coupled L+ (2 x 2 x n) as for a 1 x 1 x n block."""
    prof = vk.soliton_solve(-1.0, 3.0, line())
    phi = np.real(prof.field.values)
    n = prof.grid.n
    assert model._is_even(phi)

    def sectors(blocks):
        return [hessian._Complement(b, line(), 1.0).sectors for b in blocks]

    assert sectors(vk.assemble(vk.boost(prof, 0.7)).blocks) == [2, 2]
    assert sectors(vk.assemble(_half_shifted()).blocks) == [1, 1]
    lplus = vk.assemble(LINE_CASES["coupled_1_1_2"]()).blocks[0].coupling
    for j in (1, 5, n // 2 - 1, n // 2 + 1, n - 1):      # one point of a mirrored pair
        broken = phi.copy()
        broken[0, j] += 1e-9 * np.max(phi)
        assert not model._is_even(broken)
        coupling = lplus.copy()
        coupling[[0, 1], [1, 0], j] += 1e-9 * np.max(np.abs(lplus))
        assert sectors([Pointwise(coupling)]) == [1]
    for j in (0, n // 2):                                  # each its own mirror
        broken = phi.copy()
        broken[0, j] += 1e-3
        assert model._is_even(broken)
        coupling = lplus.copy()
        coupling[[0, 1], [1, 0], j] += 1e-3
        assert sectors([Pointwise(coupling)]) == [2]


def test_the_report_holds_no_matrix():
    rep = vk.spectrum(vk.assemble(vk.coupled_soliton(-1.0, vk.Coupled(1.0, 1.0, 2.0), line())))
    assert not any(isinstance(v, np.ndarray) and v.ndim == 2 for v in vars(rep).values())


def test_eigenvalues_by_inertia_need_no_reduction_top_vectors_or_tangents(monkeypatch):
    prof = vk.coupled_soliton(-1.0, vk.Coupled(1.0, 1.0, 0.5), line())
    op = vk.assemble(prof)
    want = vk.spectrum(op, n_eigs=8).eigenvalues

    def forbidden(*args, **kwargs):
        raise AssertionError("the eigenvalue asked for more than the Schur complements")

    monkeypatch.setattr(hessian, "_orbit_bounds", forbidden)
    monkeypatch.setattr(model._Model, "tangents", forbidden)
    monkeypatch.setattr(scipy.linalg.lapack, "dsytrd", forbidden)
    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", forbidden)
    got = [vk.eigenvalue(prof, j, 1.0).value for j in range(8)]
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_the_translation_tangent_by_fft_matches_the_dense_d1():
    for prof in (vk.soliton_solve(-1.0, 4.5, line()),
                 vk.boost(vk.coupled_soliton(-1.0, vk.Coupled(1.0, 1.0, 2.0), line()), 0.7)):
        desc = model.model_for(prof.model, prof.grid)
        tangents, _ = desc.tangents(prof)
        phi = desc.rest_profile(prof)
        d1 = dense.diff_matrices(prof.grid)[0]
        want = np.concatenate([d1 @ p for p in phi])
        got = tangents[-1][:phi.size]
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        assert not np.any(tangents[-1][phi.size:])


def test_the_kernel_orthogonal_perturbation_matches_the_dense_d1(monkeypatch):
    prof = vk.boost(vk.soliton_solve(-1.0, 3.0, line()), 0.5)
    got = dynamics.make_perturbation(prof, "kernel_orthogonal", np.random.default_rng(5))
    monkeypatch.setattr(model, "first_derivative",
                        lambda v, grid: v @ dense.diff_matrices(grid)[0].T)
    want = dynamics.make_perturbation(prof, "kernel_orthogonal", np.random.default_rng(5))
    assert np.max(np.abs(got.values - want.values)) <= 1e-12 * np.max(np.abs(want.values))


@pytest.mark.parametrize("n", [512, 1024])
def test_the_torus_wave_certifies_where_the_refined_kernel_tolerance_passes_the_gap(n):
    """At n = 1024 the 2048 grid's kernel tolerance (1.05) is above the gap
    (1.0): the refined gap is taken by its index, the base grid's negative
    and kernel counts, not as the first eigenvalue above that tolerance."""
    prof = vk.plane_wave(1.0, 1.0, vk.Coupled(-1.0, -1.0, -0.5), torus(n))
    cert = vk.certify(prof)
    assert cert.verdict == "certified_coercive"
    h3 = cert.checks["h3_positive_gap"]
    assert h3["refinement_n"] == 2 * n
    assert abs(h3["refinement_ratio"] - 1.0) <= 1e-9
    assert h3["margin"] >= 3.0
    # the kernel eigenvalues of mode 0 come out exactly 0: ker_tol is mode
    # 0's roundoff, which does not grow with n, and the tangents are exact
    h2 = cert.checks["h2_kernel_equals_orbit"]
    assert h2["ker_tol"] <= 1e-13 and h2["ritz_bound"] <= h2["ker_tol"]
    assert h2["margin"] == h2["separation"] / h2["ker_tol"] >= 1e12


@pytest.mark.parametrize("case", ["p3", "coupled_1_1_0.5"])
def test_the_refined_gap_by_index_is_the_refined_spectrum_gap(case):
    prof = LINE_CASES[case]()
    rep = vk.spectrum(vk.assemble(prof))
    fine = model.model_for(prof.model, prof.grid).resolve(prof, prof.omega, line(512))
    index = rep.n_neg + rep.dim_ker
    by_index = vk.eigenvalue(fine, index, rep.gap_pos).value
    fine_rep = vk.spectrum(vk.assemble(fine), n_eigs=index + 1)
    assert by_index == pytest.approx(fine_rep.eigenvalues[index], rel=1e-12)
    assert abs(by_index - fine_rep.gap_pos) <= fine_rep.gap_error


@pytest.mark.parametrize("params, n, limit_mib", [
    (vk.SingleNLS(3.0), 1024, 64), (vk.Coupled(1.0, 1.0, 2.0), 512, 48)],
    ids=["cubic_n1024", "coupled_1_1_2_n512"])
def test_certify_holds_one_part_at_a_time(params, n, limit_mib):
    """A warm certificate's peak traced allocation: the rows of the 2n
    refinement's Schur complements, and CG's iterates on them (9 and 17
    MB), not a dense block."""
    if isinstance(params, vk.SingleNLS):
        prof = vk.soliton_solve(-1.0, params.p, line(n))
    else:
        prof = vk.coupled_soliton(-1.0, params, line(n))
    assert vk.certify(prof).certified
    tracemalloc.start()
    try:
        assert vk.certify(prof).certified
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit_mib * 2**20


def test_each_block_describes_itself():
    op = vk.assemble(vk.coupled_soliton(-1.0, vk.Coupled(1.0, 1.0, 2.0), line()))
    assert [type(b) for b in op.blocks] == [Pointwise] * 3
    assert [b.coupling.shape for b in op.blocks] == [(2, 2, 256), (1, 1, 256), (1, 1, 256)]
    assert op.dimension == 4 * 256
    with pytest.raises(ValueError):
        op.blocks[0].coupling[0, 0, 0] = 1.0
