"""Constrained-energy Hessians: exact spectra, kernels, boost invariance."""

import numpy as np
import pytest
import scipy.linalg

import vkstab as vk

from vkstab.model import Pointwise, model_for

import dense_oracle as dense


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


def test_hessian_matrix_is_symmetric(soliton, soliton_report):
    op, _ = soliton_report
    applied = op.apply(np.eye(op.dimension))          # every column, matrix-free
    assert np.max(np.abs(applied - applied.T)) < 1e-12 * np.max(np.abs(applied))
    mat = dense.matrix(soliton)
    assert np.max(np.abs(mat - mat.T)) < 1e-12


def _every_eigenvalue(op):
    return vk.spectrum(op, n_eigs=op.dimension).eigenvalues


def test_boost_leaves_spectrum_invariant(soliton, soliton_report):
    op, _ = soliton_report
    pb = vk.boost(soliton, 2.0)
    assert np.max(np.abs(_every_eigenvalue(vk.assemble(pb)) - _every_eigenvalue(op))) < 1e-8


def test_apply_matches_quadratic_form(soliton):
    op = vk.assemble(soliton)
    rng = np.random.default_rng(0)
    v = vk.Field(
        (rng.standard_normal((1, soliton.grid.n))
         + 1j * rng.standard_normal((1, soliton.grid.n))),
        soliton.grid,
    )
    hv = dense.apply(soliton, v)
    # <v, H v> is real for a symmetric operator
    quad = vk.inner(v, hv)
    assert np.isfinite(quad)
    # inner() integrates (carries the grid weight); the matrix form does not
    w = op.field_to_vec(v)
    assert np.isclose(quad, float(w @ dense.matrix(soliton) @ w) * soliton.grid.spacing,
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


def _torus(k):
    return vk.plane_wave(1.0, 1.0, vk.Coupled(-1.0, -1.0, -0.5, k=k),
                         vk.make_grid("periodic", 2 * np.pi, 64))


GRADIENT_CASES = {
    "cubic": lambda: vk.soliton_solve(-1.0, 3.0, vk.make_grid("line", 20.0, 512)),
    "p4.5": lambda: vk.soliton_solve(-1.0, 4.5, vk.make_grid("line", 20.0, 512)),
    "boosted_coupled_1_1_2": lambda: vk.boost(
        vk.coupled_soliton(-1.0, vk.Coupled(1.0, 1.0, 2.0), vk.make_grid("line", 20.0, 256)), 0.5),
    "coupled_1_1_0.5": lambda: vk.coupled_soliton(-1.0, vk.Coupled(1.0, 1.0, 0.5),
                                                  vk.make_grid("line", 20.0, 256)),
    "torus_k0": lambda: _torus(0.0),
    "torus_k1": lambda: _torus(1.0),      # k = 2 pi / L: the drift blocks
}


@pytest.mark.parametrize("case", list(GRADIENT_CASES))
def test_hessian_is_derivative_of_gradient(case):
    prof = GRADIENT_CASES[case]()
    g = prof.grid
    rng = np.random.default_rng(1)
    shape = prof.field.values.shape
    v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if prof.c != 0.0:
        # the boost's gauge phase wraps discontinuously at the ends of the
        # line: a smooth perturbation that vanishes there
        v = np.fft.ifft(np.fft.fft(v) * (np.abs(g.wavenumbers) < 2.0)) * np.exp(-g.nodes**2 / 8)
    v = vk.Field(v, g)
    errs = []
    for h in (1e-3, 5e-4):
        gp = vk.grad_L(prof.field + h * v, prof.model, prof.xi)
        gm = vk.grad_L(prof.field + (-h) * v, prof.model, prof.xi)
        fd = (gp.values - gm.values) / (2 * h)
        errs.append(np.max(np.abs(fd - dense.apply(prof, v).values)))
    order = np.log(errs[0] / errs[1]) / np.log(2.0)
    assert order > 1.9


@pytest.mark.parametrize("params", [vk.SingleNLS(4.5), vk.Coupled(1.0, 1.0, 2.0)],
                         ids=["p4.5", "coupled_1_1_2"])
def test_lplus_is_minus_the_jacobian_of_stationary(params):
    g = vk.make_grid("line", 10.0, 32)
    model = model_for(params, g)
    d2 = dense.diff_matrices(g)[1]
    phi = 0.5 + np.random.default_rng(4).random((params.components, g.n))
    omega = -1.0 if params.components == 1 else (-1.0, -1.3)
    h = 1e-6
    jac = np.empty((phi.size, phi.size))
    for j in range(phi.size):
        step = h * np.eye(phi.size)[j].reshape(phi.shape)
        diff = model.stationary(phi + step, omega, g) - model.stationary(phi - step, omega, g)
        jac[:, j] = diff.ravel() / (2 * h)
    assert np.max(np.abs(dense.lplus(model, phi, omega, d2) + jac)) < 1e-7 * np.max(np.abs(jac))
    # the coupling of the package's L+ block: -d2 (x) I minus it
    coupling = model.lplus_coupling(phi, omega)
    block = np.kron(np.eye(len(phi)), -d2) - np.block(
        [[np.diag(m) for m in row] for row in coupling])
    assert np.max(np.abs(block + jac)) < 1e-7 * np.max(np.abs(jac))


def test_boosted_equilibrium_is_checked_in_the_rest_frame():
    g = vk.make_grid("line", 20.0, 512)
    boosted = vk.boost(vk.soliton_solve(-1.0, 3.0, g), 0.5)
    # the 2n refinement used to fail the lab-frame residual gate
    cert = vk.certify(boosted)
    assert cert.verdict == "certified_coercive"
    assert abs(refined_over_base(cert, boosted) - 1.0) < 1e-6
    scaled = vk.Profile(vk.Field(1.1 * boosted.field.values, g), boosted.xi, boosted.model)
    with pytest.raises(ValueError, match="not an equilibrium"):
        vk.assemble(scaled)


def refined_over_base(cert, prof):
    """The refined gap of a certificate over the base grid's gap, each
    solved to Newton's stop, and a check that the base grid's gap, which
    the certificate reads from one linearization, lies within its recorded
    bound of it."""
    h3 = cert.checks["h3_positive_gap"]
    h2 = cert.checks["h2_kernel_equals_orbit"]
    index = cert.checks["h4_index_match"]["n_d2l"] + h2["dim_ker"]
    exact = vk.spectrum(vk.assemble(prof), n_eigs=index + 1).eigenvalues[index]
    assert abs(h3["gap"] - exact) <= h3["gap_error"]
    return h3["refinement_ratio"] * h3["gap"] / exact


def _line(n=256):
    return vk.make_grid("line", 20.0, n)


def _cubic():
    return vk.soliton_solve(-1.0, 3.0, _line())


def _rolled(prof, shift=7):
    """The same equilibrium with its center moved off the reflection axis."""
    vals = np.roll(prof.field.values, shift, axis=1)
    return vk.Profile(vk.Field(vals, prof.grid), prof.xi, prof.model)


def _continued():
    base = vk.coupled_soliton(-1.0, vk.Coupled(1.0, 1.0, 2.0), _line())
    target = np.array([-1.0, -1.3, 0.0])
    return vk.continue_family(base, target).profile(target)


ORACLE_CASES = {
    "cubic": _cubic,
    "boosted": lambda: vk.boost(_cubic(), 0.5),
    "p6": lambda: vk.soliton_solve(-1.0, 6.0, _line()),
    "coupled_1_1_2": lambda: vk.coupled_soliton(-1.0, vk.Coupled(1.0, 1.0, 2.0), _line()),
    "coupled_1_1_0.5": lambda: vk.coupled_soliton(-1.0, vk.Coupled(1.0, 1.0, 0.5), _line()),
    "continued": _continued,
    "torus_stable": lambda: vk.plane_wave(
        1.0, 1.0, vk.Coupled(-1.0, -1.0, -0.5), vk.make_grid("periodic", 2 * np.pi, 64)),
    "rolled": lambda: _rolled(_cubic()),
    # the drift terms 2 b k d1 are odd under the reflection: one whole block
    "torus_drift": lambda: vk.plane_wave(
        1.0, 1.0, vk.Coupled(-1.0, -1.0, -0.5, k=1.0), vk.make_grid("periodic", 2 * np.pi, 64)),
}


@pytest.mark.parametrize("case", list(ORACLE_CASES))
def test_spectrum_matches_the_dense_oracle(case):
    """The counts equal the dense oracle's at its own tolerance (1e-6 of the
    spectral radius); the gap and every displayed eigenvalue lie within
    their recorded bounds of the oracle's, and the kernel within ker_tol of
    0."""
    prof = ORACLE_CASES[case]()
    op = vk.assemble(prof)
    rep = vk.spectrum(op)
    vals = np.linalg.eigvalsh(dense.matrix(prof))
    radius = np.max(np.abs(vals))
    ker_tol = 1e-6 * radius
    assert np.max(np.abs(_every_eigenvalue(op) - vals)) <= 1e-9 * radius
    assert rep.n_neg == np.sum(vals < -ker_tol)
    assert rep.dim_ker == np.sum(np.abs(vals) <= ker_tol)
    roundoff = 64 * np.finfo(float).eps * radius
    assert abs(rep.gap_pos - vals[vals > ker_tol][0]) <= rep.gap_error + roundoff
    assert np.all(np.abs(rep.eigenvalues - vals[:rep.eigenvalues.size])
                  <= rep.errors + roundoff)
    assert np.max(np.abs(vals[np.abs(vals) <= ker_tol])) <= rep.ker_tol + roundoff


@pytest.mark.parametrize("case", ["cubic", "coupled_1_1_0.5"])
def test_subset_size_does_not_come_from_n_eigs(case):
    op = vk.assemble(ORACLE_CASES[case]())
    few, many = vk.spectrum(op, n_eigs=1), vk.spectrum(op, n_eigs=12)
    assert few.eigenvalues.size == 1
    assert (few.n_neg, few.dim_ker, few.gap_pos) == (many.n_neg, many.dim_ker, many.gap_pos)


@pytest.mark.parametrize("case", list(ORACLE_CASES))
def test_the_classification_does_not_depend_on_n_eigs(case):
    """n_eigs adds displayed eigenvalues only: every field the checks read
    is the same, bit for bit, from none of them to all of them."""
    op = vk.assemble(ORACLE_CASES[case]())
    sizes = (0, 1, 12, op.dimension)
    reports = [vk.spectrum(op, n_eigs=k) for k in sizes]
    read = ("n_neg", "dim_ker", "gap_pos", "ker_tol", "kernel_margin", "ritz_bound",
            "angle_bound", "parts")
    for rep in reports[1:]:
        assert [getattr(rep, f) for f in read] == [getattr(reports[0], f) for f in read]
    assert tuple(rep.eigenvalues.size for rep in reports) == sizes


def test_low_end_grows_until_it_passes_the_kernel(monkeypatch):
    """Two negative and three kernel directions, and 150 eigenvalues to
    display, far past the kernel and the gap: the window's top doubles
    until it holds them, each time rebuilding the complements, and the
    classification is the one read before it grew."""
    op = vk.assemble(ORACLE_CASES["coupled_1_1_0.5"]())
    ref = vk.spectrum(op, n_eigs=0)
    tops = []
    complement = vk.hessian._Complement

    def recorded(block, grid, top):
        tops.append(top)
        return complement(block, grid, top)

    monkeypatch.setattr(vk.hessian, "_Complement", recorded)
    rep = vk.spectrum(op, n_eigs=150)
    # two complements per build: L+, and the one that L-11 and L-22 share
    assert len(set(tops)) > 1 and all(b == 2.0 * a for a, b in zip(tops[::2], tops[2::2]))
    assert (rep.n_neg, rep.dim_ker, rep.gap_pos) == (ref.n_neg, ref.dim_ker, ref.gap_pos) \
        == (2, 3, ref.gap_pos)
    want = np.linalg.eigvalsh(dense.matrix(ORACLE_CASES["coupled_1_1_0.5"]()))[:150]
    assert np.all(np.abs(rep.eigenvalues - want) <= rep.errors + 1e-12)
    assert vk.kernel_matches_orbit(rep, op)


def test_spectrum_reports_its_parts():
    rep = vk.spectrum(vk.assemble(_cubic()))
    # the Schur complements of L+ and L- of the even soliton, each split into
    # its cosine (even) and sine (odd) sector, below the window's top 2.5
    assert rep.parts == ((24, "even"), (23, "odd"), (15, "even"), (14, "odd"))
    assert rep.to_dict()["parts"] == [[24, "even"], [23, "odd"], [15, "even"], [14, "odd"]]
    rolled = vk.spectrum(vk.assemble(_rolled(_cubic())))
    assert rolled.parts == ((47, "whole"), (29, "whole"))


EVEN_CASES = ["cubic", "coupled_1_1_2", "torus_stable"]


@pytest.mark.parametrize("case", EVEN_CASES)
def test_every_block_of_an_even_profile_is_even(case):
    """Every dense block of an even profile commutes with the reflection,
    and the package reads each line block's coupling as even and splits
    its complement by parity."""
    prof = ORACLE_CASES[case]()
    n = prof.grid.n
    for block in dense.blocks(prof):
        assert dense.is_even(block, block.shape[0] // n, n)
    op = vk.assemble(prof)
    assert all(vk.hessian._Complement(b, op.grid, 1.0).sectors == 2
               for b in op.blocks if isinstance(b, Pointwise))


# (row, column) within one n x n component block; n = 256, so 128 is Nyquist
BROKEN_AT = {
    "row_0": (0, 3),
    "column_0": (3, 0),
    "nyquist_row": (128, 3),
    "interior": (5, 9),
    "interior_mirror": (256 - 5, 256 - 9),
}


@pytest.mark.parametrize("where", list(BROKEN_AT))
@pytest.mark.parametrize("case, c", [("cubic", 1), ("coupled_1_1_2", 2)])
def test_a_block_broken_by_one_entry_is_not_even(case, c, where):
    """The oracle's reflection check, which the test above rests on, sees a
    single broken entry."""
    prof = ORACLE_CASES[case]()
    block, n = dense.blocks(prof)[0], prof.grid.n
    assert block.shape[0] == c * n
    row, col = BROKEN_AT[where]
    # for c = 2 the entry sits in the coupling block of component 2 to 1
    broken = block.copy()
    broken[(c - 1) * n + row, col] += 1e-6 * np.max(np.abs(block))
    assert not dense.is_even(broken, c, n)


def _gridless(blocks, tangents):
    return vk.HessOp(tuple(blocks), None, np.array(tangents, dtype=float), None)


def _so3():
    state = vk.circular_orbit(1.0, 1.0, 1.0)
    return vk.HessOp((vk.hessian6(state),), None, vk.so3.symmetry_tangent(state)[None], None)


SMALL_PARTS = {
    "so3": _so3,
    # 1 x 1 parts (no reflectors), one of them a kernel direction, and 2 x 2,
    # with the two kernel directions as the tangents
    "1x1_and_2x2": lambda: _gridless(
        [np.array([[0.0]]), np.array([[-2.0]]), np.array([[1.0, 3.0], [3.0, 1.0]]),
         np.array([[1.0, 1.0], [1.0, 1.0]])],
        [[1.0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 1.0, -1.0]]),
}


def _op_and_matrix(case):
    """The operator of an oracle or small-parts case, and its dense matrix."""
    if case in SMALL_PARTS:
        op = SMALL_PARTS[case]()
        return op, scipy.linalg.block_diag(*op.blocks)
    prof = ORACLE_CASES[case]()
    return vk.assemble(prof), dense.matrix(prof)


@pytest.mark.parametrize("case", list(ORACLE_CASES) + list(SMALL_PARTS))
def test_one_reduction_per_part_gives_the_whole_low_end(monkeypatch, case):
    """One Schur reduction per line block, linearized once at 0, classifies
    the spectrum; with scipy's dense eigh raising, the displayed low end
    matches the dense oracle: the line blocks' eigenvalues from their
    complements, the torus modes' and the gridless blocks' from eigvalsh."""
    op, mat = _op_and_matrix(case)
    builds = []
    complement = vk.hessian._Complement

    def counted(block, grid, top):
        builds.append(top)
        return complement(block, grid, top)

    def no_dense_eigh(*args, **kwargs):
        raise AssertionError("dense eigh called")

    monkeypatch.setattr(vk.hessian, "_Complement", counted)
    monkeypatch.setattr(scipy.linalg, "eigh", no_dense_eigh)
    classified = vk.spectrum(op, n_eigs=0)
    # one per distinct coupling: the two L- of a symmetric coupled soliton share one
    assert len(builds) == len({b.coupling.tobytes() for b in op.blocks
                               if isinstance(b, Pointwise)})
    rep = vk.spectrum(op)
    monkeypatch.undo()
    assert (rep.n_neg, rep.dim_ker, rep.ker_tol) == (classified.n_neg, classified.dim_ker,
                                                     classified.ker_tol)
    every = np.linalg.eigvalsh(mat)
    top = np.max(np.abs(every))
    assert np.max(np.abs(rep.eigenvalues - every[:rep.eigenvalues.size])) <= 1e-12 * top
    # the kernel's tolerance comes from its eigenvalues, not from the radius
    kernel = np.sort(np.abs(every))[:rep.dim_ker]
    assert rep.ker_tol <= 2.0 * np.max(kernel) + 1e-9
    # torus_drift has two kernel directions beyond its two tangents
    assert vk.kernel_matches_orbit(rep, op) == (rep.dim_ker == len(op.symmetry_tangent))


def test_small_parts_keep_their_kernel():
    op = SMALL_PARTS["1x1_and_2x2"]()
    rep = vk.spectrum(op)
    assert rep.parts == ((1, "whole"), (1, "whole"), (2, "whole"), (2, "whole"))
    assert (rep.n_neg, rep.dim_ker) == (2, 2)
    # the tangents are exact kernel vectors: no residual, no Ritz value
    assert (rep.ritz_bound, rep.angle_bound) == (0.0, 0.0)
    assert vk.kernel_matches_orbit(rep, op)


# the bounds hold for a kernel of as many directions as there are tangents,
# which torus_drift's is not (4 against 2)
@pytest.mark.parametrize("case", [c for c in ORACLE_CASES if c != "torus_drift"]
                         + list(SMALL_PARTS))
def test_the_orbit_bounds_hold_on_the_dense_kernel(case):
    """Kato-Temple and Davis-Kahan against the dense oracle: its kernel
    eigenvalues lie within ritz_bound of 0, and the sine of its kernel's
    largest principal angle to the tangents is at most angle_bound, both up
    to the oracle's own roundoff."""
    op, mat = _op_and_matrix(case)
    rep = vk.spectrum(op)
    vals, vecs = np.linalg.eigh(mat)
    ker = np.abs(vals) <= 1e-6 * np.max(np.abs(vals))     # the oracle's own kernel
    assert rep.dim_ker == np.sum(ker) == len(op.symmetry_tangent)
    assert vk.kernel_matches_orbit(rep, op)
    roundoff = 64 * np.finfo(float).eps * np.max(np.abs(vals))
    assert np.max(np.abs(vals[ker])) <= rep.ritz_bound + roundoff
    angles = scipy.linalg.subspace_angles(vecs[:, ker], op.symmetry_tangent.T)
    assert np.sin(np.max(angles)) <= rep.angle_bound + roundoff / rep.gap_pos


def _swap_translation(tangents, phase):
    """The cubic soliton's tangents with phi' replaced by phi in the real
    part: L+ phi = -2 phi^3 is not 0."""
    swapped = tangents.copy()
    swapped[1] = np.roll(tangents[0], -tangents.shape[1] // 2)
    return swapped, phase


def test_h2_fails_when_a_tangent_misses_the_kernel(monkeypatch):
    # the right count, the wrong direction: the Ritz value of e2 is 1, the
    # eigenvalue next to the kernel
    op = _gridless([np.diag([0.0, 1.0])], [[0.0, 1.0]])
    rep = vk.spectrum(op)
    assert rep.dim_ker == 1 and not vk.kernel_matches_orbit(rep, op)
    prof = _cubic()
    assert vk.certify(prof).checks["h2_kernel_equals_orbit"]["ok"]
    tangents = model_for(prof.model, prof.grid).tangents
    monkeypatch.setattr(type(model_for(prof.model, prof.grid)), "tangents",
                        lambda self, p: _swap_translation(*tangents(p)))
    cert = vk.certify(prof)
    h2 = cert.checks["h2_kernel_equals_orbit"]
    assert cert.verdict == "failed(h2)"
    assert (h2["dim_ker"], h2["n_symmetries"]) == (2, 2)
    assert h2["angle_bound"] >= 1.0 or h2["ritz_bound"] > h2["ker_tol"]


def test_the_n128_cubic_soliton_certifies_by_its_ritz_values():
    """At n = 128 the grid breaks translation: the translation eigenvalue
    (4.9e-8) is the grid's own, and the FFT phi' leaves a residual |H Q|
    above it.  The kernel is the eigenvalues nearest 0, and the tangents'
    Ritz enclosure of them clears the separation by far: a rule on the raw
    residual, or a tolerance at the resolution, would fail h2 on a certified
    soliton."""
    prof = vk.soliton_solve(-1.0, 3.0, _line(128))
    cert = vk.certify(prof)
    assert cert.verdict == "certified_coercive"
    h2 = cert.checks["h2_kernel_equals_orbit"]
    q = scipy.linalg.qr(vk.assemble(prof).symmetry_tangent.T, mode="economic")[0]
    residual = np.linalg.norm(dense.matrix(prof) @ q, 2)
    assert residual > h2["ritz_bound"] > h2["ker_tol"] > 1e-8
    assert h2["margin"] == h2["separation"] / h2["ritz_bound"] > 1e5
