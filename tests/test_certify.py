"""End-to-end coercivity certificates."""

import dataclasses
import importlib
import json

import numpy as np
import pytest
import scipy.linalg

import vkstab as vk

import dense_oracle as dense
from test_hessian import refined_over_base
from test_so3 import ORBIT_SWEEP

certify_module = importlib.import_module("vkstab.certify")


def test_cubic_soliton_is_certified():
    g = vk.make_grid("line", 20.0, 256)
    prof = vk.soliton_solve(-1.0, 3.0, g)
    cert = vk.certify(prof)
    assert cert.certified
    assert cert.verdict == "certified_coercive"
    checks = cert.checks
    assert checks["h1_nondegenerate_W"]["ok"]
    assert checks["h2_kernel_equals_orbit"]["ok"]
    assert checks["h3_positive_gap"]["ok"]
    assert checks["h4_index_match"]["ok"]
    assert checks["h4_index_match"]["p_d2w"] == 1
    assert checks["h4_index_match"]["n_d2l"] == 1
    assert checks["h2_kernel_equals_orbit"]["dim_ker"] == 2


def test_supercritical_soliton_fails_index_match():
    g = vk.make_grid("line", 20.0, 256)
    prof = vk.soliton_solve(-1.0, 5.1, g)
    cert = vk.certify(prof)
    assert not cert.certified
    assert cert.verdict.startswith("failed(")
    assert "h4" in cert.verdict


def test_grid_refinement_gap_is_stable():
    g = vk.make_grid("line", 20.0, 256)
    prof = vk.soliton_solve(-1.0, 3.0, g)
    cert = vk.certify(prof)
    ratio = cert.checks["h3_positive_gap"]["refinement_ratio"]
    assert ratio is not None
    assert abs(ratio - 1.0) <= 0.05


def test_certificate_json_is_stable_and_clean():
    g = vk.make_grid("line", 20.0, 256)
    prof = vk.soliton_solve(-1.0, 3.0, g)
    cert = vk.certify(prof)
    doc = json.loads(cert.to_json())
    assert doc["schema"] == 1
    assert doc["verdict"] == "certified_coercive"
    assert cert.to_json() == cert.to_json()          # deterministic
    assert list(doc) == sorted(doc)                  # sorted keys
    text = cert.text_report()
    assert "verdict: certified_coercive" in text


def test_inequality_chain_on_certified_cases():
    g = vk.make_grid("line", 20.0, 256)
    for prof in (
        vk.soliton_solve(-1.0, 3.0, g),
        vk.coupled_soliton(-1.0, vk.Coupled(1.0, 1.0, 2.0), g),
        vk.coupled_soliton(-1.0, vk.Coupled(1.0, 1.0, 0.5), g),
    ):
        cert = vk.certify(prof)
        assert cert.certified
        assert cert.gss["chain_ok"]
        assert cert.gss["p_w_tilde"] <= cert.checks["h4_index_match"]["p_d2w"]


def test_coupled_stability_cases():
    g = vk.make_grid("line", 20.0, 256)
    strong = vk.coupled_soliton(-1.0, vk.Coupled(1.0, 1.0, 2.0), g)
    crit_s = vk.coupled_stability_criteria(strong)
    assert crit_s["case"] == 1
    assert crit_s["vk_integral"] > 0.0
    assert crit_s["stable"]

    weak = vk.coupled_soliton(-1.0, vk.Coupled(1.0, 1.0, 0.5), g)
    crit_w = vk.coupled_stability_criteria(weak)
    assert crit_w["case"] == 2
    assert crit_w["vk_integral"] < 0.0
    assert crit_w["stable"]

    with pytest.raises(ValueError):
        vk.coupled_stability_criteria(
            vk.coupled_soliton(-1.0, vk.Coupled(1.0, 2.0, 1.5), g)
        )


def test_torus_certificates():
    g = vk.make_grid("periodic", 2 * np.pi, 64)
    stable = vk.plane_wave(1.0, 1.0, vk.Coupled(-1.0, -1.0, -0.5), g)
    cert = vk.certify(stable)
    assert cert.certified
    assert cert.checks["h4_index_match"]["p_d2w"] == 0
    assert cert.checks["h4_index_match"]["n_d2l"] == 0

    unstable = vk.plane_wave(1.0, 1.0, vk.Coupled(-1.0, -1.0, -2.0), g)
    cert_u = vk.certify(unstable)
    assert not cert_u.certified
    assert "h4" in cert_u.verdict


def test_so3_certificate_and_separating_example():
    cert = vk.certify_so3(1.0, 1.0, 1.0)
    assert cert.certified
    assert cert.checks["h4_index_match"]["p_d2w"] == 3
    assert cert.checks["h4_index_match"]["n_d2l"] == 3
    # the restricted slope index is strictly smaller: the classical
    # sufficient condition would stay silent here
    assert cert.gss["p_w_tilde"] == 1
    assert not cert.gss["applies"]


@pytest.mark.parametrize("rho, omega_pot, alpha", ORBIT_SWEEP)
def test_so3_certificates_across_the_orbit_sweep(rho, omega_pot, alpha):
    """Every circular orbit of the sweep is certified with slope index and
    Morse index 3 while the one-parameter restriction has index 1, with the
    fields and margins of a grid certificate."""
    cert = vk.certify_so3(rho, omega_pot, alpha)
    assert cert.verdict == "certified_coercive"
    h1, h2, h3, h4 = (cert.checks[k] for k in sorted(cert.checks))
    assert (h4["p_d2w"], h4["n_d2l"], h2["dim_ker"], h2["n_symmetries"]) == (3, 3, 1, 1)
    assert cert.gss == {"p_w_tilde": 1, "applies": False, "chain_ok": True}
    assert min(h1["margin"], h2["margin"], h3["margin"]) > 1e3
    assert h3["margin"] == h3["gap"] / h2["ker_tol"] and h3["refinement_n"] is None
    assert cert.provenance["spectrum_parts"] == [[6, "whole"]]
    assert cert.to_json() == vk.certify_so3(rho, omega_pot, alpha).to_json()


def _near_threshold(rho, omega_pot, eps):
    """alpha a relative eps above the existence threshold 2 alpha rho^2 = 1,
    where two Hessian eigenvalues are of size eps."""
    return vk.certify_so3(rho, omega_pot, (1.0 + eps) / (2.0 * rho**2))


@pytest.mark.parametrize("eps", [1.8e-6, 3.2e-6])
def test_so3_near_the_threshold_counts_by_the_closed_form(eps):
    """The two Hessian eigenvalues -eps lie far outside the 6 x 6 block's
    roundoff: they count as negative, so n_neg = 3, as the signs of the
    closed-form Hessian's eigenvalues give, and equals the slope matrix's
    positive index.  h2 is decided; the verdict waits only on h1, whose
    fixed tolerance (1e-6 of the slope's largest eigenvalue) the smallest
    slope eigenvalue clears by eps / 1e-6."""
    cert = _near_threshold(1.0, 1.0, eps)
    alpha = (1.0 + eps) / 2.0
    state = vk.circular_orbit(1.0, 1.0, alpha)
    hess = np.linalg.eigvalsh(vk.hessian6(state))
    p_w = int(np.sum(np.linalg.eigvalsh(vk.w_so3(state.xi, 1.0, alpha)[1]) > 0.0))
    h1, h2, h4 = (cert.checks[k] for k in ("h1_nondegenerate_W", "h2_kernel_equals_orbit",
                                           "h4_index_match"))
    assert h4["n_d2l"] == np.sum(hess < -1e-3 * eps) == p_w == h4["p_d2w"] == 3
    assert h2["ok"] and h2["margin"] >= 1e3 * cert.provenance["margin_factor"]
    assert cert.verdict == ("certified_coercive" if h1["margin"] >= 3.0 else "indeterminate(h1)")


@pytest.mark.parametrize("rho", [0.5, 1.0, 2.0, 3.0])
@pytest.mark.parametrize("omega_pot", [0.25, 1.0, 4.0])
def test_so3_near_the_threshold_never_fails_a_nondegenerate_slope(rho, omega_pot):
    for eps in (1.2e-6, 1.8e-6, 2.5e-6, 3.2e-6, 5e-6, 1e-5, 1e-4, 1e-3):
        cert = _near_threshold(rho, omega_pot, eps)
        assert not cert.verdict.startswith("failed"), (eps, cert.verdict)
    # below eps = 1e-6 the slope matrix is degenerate to its own tolerance
    for eps in (1e-8, 1e-7, 6e-7, 1e-6):
        assert _near_threshold(rho, omega_pot, eps).verdict.startswith("failed(h1")


def test_continued_coupled_profile_refines_to_itself():
    g = vk.make_grid("line", 20.0, 256)
    base = vk.coupled_soliton(-1.0, vk.Coupled(1.0, 1.0, 2.0), g)
    target = np.array([-1.0, -1.3, 0.0])
    fam = vk.continue_family(base, target)
    prof = fam.profile(target)
    cert = vk.certify(prof)
    assert cert.verdict == "certified_coercive"
    assert abs(refined_over_base(cert, prof) - 1.0) < 1e-6


def test_certify_solves_no_family_member(monkeypatch):
    g = vk.make_grid("line", 20.0, 256)
    base = vk.coupled_soliton(-1.0, vk.Coupled(1.0, 1.0, 2.0), g)
    target = np.array([-1.0, -1.3, 0.0])
    continued = vk.continue_family(base, target).profile(target)

    def no_solve(self, xi):
        raise AssertionError("certify solved a family member")

    monkeypatch.setattr(vk.profiles.Family, "profile", no_solve)
    for prof in (vk.soliton_solve(-1.0, 3.0, g), continued):
        cert = vk.certify(prof)
        assert cert.verdict == "certified_coercive"
        assert "slope_method" in cert.provenance
        assert "fd_step" not in cert.provenance


def test_certify_refuses_a_soliton_outside_one_dimension():
    # the slope matrix of a d = 3 soliton needs 3D quadrature; the 1D family
    # would certify the (supercritical, unstable) 3D cubic soliton
    g = vk.make_grid("line", 20.0, 256)
    u = vk.soliton_solve(-1.0, 3.0, g)
    cert = vk.certify(vk.Profile(u.field, u.xi, vk.SingleNLS(3.0, d=3)))
    assert cert.verdict == "indeterminate(solver)"


def test_rolled_soliton_certifies_like_the_centered_one():
    # off the reflection axis the Hessian blocks do not split by parity
    g = vk.make_grid("line", 20.0, 256)
    centered = vk.soliton_solve(-1.0, 3.0, g)
    rolled = vk.Profile(vk.Field(np.roll(centered.field.values, 7, axis=1), g),
                        centered.xi, centered.model)
    a, b = vk.certify(centered), vk.certify(rolled)
    assert b.verdict == a.verdict == "certified_coercive"
    assert b.provenance["spectrum_parts"] == [[47, "whole"], [29, "whole"]]
    for check, key in (("h2_kernel_equals_orbit", "dim_ker"), ("h4_index_match", "n_d2l")):
        assert b.checks[check][key] == a.checks[check][key]
    for key in ("gap", "refinement_ratio"):
        assert abs(b.checks["h3_positive_gap"][key] - a.checks["h3_positive_gap"][key]) < 1e-10
    h1a, h1b = a.checks["h1_nondegenerate_W"], b.checks["h1_nondegenerate_W"]
    assert h1b["signature"] == h1a["signature"] == [1, 0, 1]
    assert abs(h1b["margin"] - h1a["margin"]) <= 1e-10 * h1a["margin"]


def _leaves(doc, path=""):
    """(path, value) of every scalar in a JSON document."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _leaves(value, f"{path}/{key}")
    elif isinstance(doc, list):
        for j, value in enumerate(doc):
            yield from _leaves(value, f"{path}[{j}]")
    else:
        yield path, doc


def times_phases(prof, thetas):
    """prof with component j times exp(i thetas_j): the same orbit."""
    vals = prof.field.values * np.exp(1j * np.asarray(thetas))[:, None]
    return vk.Profile(vk.Field(vals, prof.grid), prof.xi, prof.model, zeta=prof.zeta)


def _phased_case(case):
    line = vk.make_grid("line", 20.0, 256)
    return {
        "cubic": lambda: vk.soliton_solve(-1.0, 3.0, line),
        "boosted": lambda: vk.boost(vk.soliton_solve(-1.0, 3.0, line), 0.5),
        "coupled": lambda: vk.coupled_soliton(-1.0, vk.Coupled(1.0, 1.0, 2.0), line),
        "torus": lambda: vk.plane_wave(1.0, -1.0, vk.Coupled(-1.0, -1.0, -0.5),
                                       vk.make_grid("periodic", 2.0 * np.pi, 128)),
        # on a line of length 80 the pair's interaction (e^-40) lies below
        # the eigensolve's resolution: its four kernel directions are 0
        "boosted_odd": lambda: vk.boost(_odd_pair(vk.soliton_solve(
            -1.0, 3.0, vk.make_grid("line", 40.0, 512))), 0.5),
    }[case]()


def _odd_pair(prof):
    """The soliton a quarter box to the right minus the one to the left: odd,
    of zero mean, and no equilibrium, so it fails h2 and h4."""
    s, vals = prof.grid.n // 4, prof.field.values
    odd = np.roll(vals, s, axis=1) - np.roll(vals, -s, axis=1)
    return vk.Profile(vk.Field(odd, prof.grid), prof.xi, prof.model)


@pytest.mark.parametrize("case, thetas, verdict", [
    ("cubic", (0.3,), "certified_coercive"), ("cubic", (np.pi / 2,), "certified_coercive"),
    ("cubic", (np.pi,), "certified_coercive"), ("boosted", (0.3,), "certified_coercive"),
    ("coupled", (0.4, 1.1), "certified_coercive"), ("torus", (0.7, -2.0), "certified_coercive"),
    ("boosted_odd", (0.3,), "failed(h2,h4)"),
], ids=["cubic_0.3", "cubic_i", "cubic_-1", "boosted_0.3", "coupled_0.4_1.1",
        "torus_0.7_-2", "boosted_odd_0.3"])
def test_a_global_phase_certifies_like_the_unphased_profile(case, thetas, verdict):
    # u_j exp(i theta_j) is the same orbit: the gauge removes each
    # component's phase before the rest profile is read, also where the
    # component's mean is zero
    prof = _phased_case(case)
    a, b = (json.loads(vk.certify(p).to_json()) for p in (prof, times_phases(prof, thetas)))
    assert b["verdict"] == a["verdict"] == verdict
    leaves_a, leaves_b = dict(_leaves(a)), dict(_leaves(b))
    assert leaves_a.keys() == leaves_b.keys()
    for path, x in leaves_a.items():
        y = leaves_b[path]
        if isinstance(x, float):
            # the roundoff-level bounds (ritz_bound and asymmetry near 1e-16,
            # angle_bound near 1e-9) move by roundoff
            assert abs(x - y) <= 1e-9 * abs(x) + 1e-12, path
        else:
            assert x == y, path


def test_the_interacting_odd_pair_is_undecided_under_any_phase():
    """On a line of length 40 the odd pair's interaction splits its four
    kernel directions into eigenvalues of 1e-8 to 1.5e-7, the orbit's two
    at 4.9e-8, above the relative mode's 1.6e-8: the kernel (the two
    nearest 0) and the gap cannot be told apart, so h2 and h3 are undecided,
    with or without a phase.  Each margin is a ratio of two of these
    eigenvalues, which the Schur complements know to about 1e-15: it
    repeats under the phase to 1e-6 of itself, not to roundoff."""
    prof = vk.boost(_odd_pair(vk.soliton_solve(-1.0, 3.0, vk.make_grid("line", 20.0, 256))),
                    0.5)
    a, b = (vk.certify(p) for p in (prof, times_phases(prof, (0.3,))))
    assert a.verdict == b.verdict == "indeterminate(h2,h3)"
    for check in ("h2_kernel_equals_orbit", "h3_positive_gap"):
        x, y = a.checks[check]["margin"], b.checks[check]["margin"]
        assert x < 1.0 and abs(x - y) <= 1e-6 * x
    h2 = a.checks["h2_kernel_equals_orbit"]
    assert (h2["dim_ker"], a.checks["h4_index_match"]["n_d2l"]) == (2, 2)
    assert 1e-8 < h2["ker_tol"] < 1e-7 and h2["separation"] < 1e-7
    assert np.sum(np.linalg.eigvalsh(dense.matrix(prof)) < 0.0) == 2
    # the profile is odd, but each block's coupling is even: each block
    # splits into its cosine and sine sectors
    assert a.provenance["spectrum_parts"] == [
        [24, "even"], [23, "odd"], [15, "even"], [14, "odd"]]


def test_certify_never_forms_the_dense_hessian(monkeypatch):
    """No n x n block: the line blocks' Schur complements hold their low
    modes only, the torus is solved mode by mode, and the package's one dense
    circulant (the public D1 and D2) is never reached."""
    def no_matrix(*args):
        raise AssertionError("certify built a dense n x n matrix")

    monkeypatch.setattr(vk.spectral, "_circulant", no_matrix)
    monkeypatch.setattr(scipy.linalg, "circulant", no_matrix)
    monkeypatch.setattr(scipy.linalg, "block_diag", no_matrix)
    g = vk.make_grid("line", 20.0, 256)
    for prof in (
        vk.soliton_solve(-1.0, 3.0, g),
        vk.coupled_soliton(-1.0, vk.Coupled(1.0, 1.0, 2.0), g),
        vk.plane_wave(1.0, 1.0, vk.Coupled(-1.0, -1.0, -0.5),
                      vk.make_grid("periodic", 2 * np.pi, 64)),
    ):
        cert = vk.certify(prof)
        assert cert.verdict == "certified_coercive"
        n = prof.grid.n
        assert all(dim <= 2 * (n // 2 + 1) for dim, _ in cert.provenance["spectrum_parts"])


def test_certificate_records_the_spectrum_parts():
    g = vk.make_grid("line", 20.0, 256)
    prof = vk.coupled_soliton(-1.0, vk.Coupled(1.0, 1.0, 2.0), g)
    first, second = vk.certify(prof), vk.certify(prof)
    assert first.to_json() == second.to_json()
    # L+ couples the two components; L-11 and L-22 are separate blocks; each
    # is its Schur complement's cosine and sine sector
    assert json.loads(first.to_json())["provenance"]["spectrum_parts"] == [
        [48, "even"], [46, "odd"], [15, "even"], [14, "odd"], [15, "even"], [14, "odd"]]


@pytest.mark.parametrize("n", [256, 512, 1024])
def test_cubic_soliton_certifies_across_grid_sizes(n):
    """Newton stops at the grid's roundoff floor, so the 2n refinement
    converges however fine the base grid."""
    prof = vk.soliton_solve(-1.0, 3.0, vk.make_grid("line", 20.0, n))
    cert = vk.certify(prof)
    assert cert.verdict == "certified_coercive"
    h3 = cert.checks["h3_positive_gap"]
    assert h3["refinement_n"] == 2 * n
    assert abs(refined_over_base(cert, prof) - 1.0) <= 1e-9


def test_certificate_records_margins_and_is_reproducible():
    g = vk.make_grid("line", 20.0, 256)
    cert = vk.certify(vk.soliton_solve(-1.0, 3.0, g))
    h1, h3 = cert.checks["h1_nondegenerate_W"], cert.checks["h3_positive_gap"]
    assert h1["margin"] == h1["smallest_abs_eigenvalue"] / h1["zero_tol"]
    assert h3["margin"] == h3["gap"] / cert.checks["h2_kernel_equals_orbit"]["ker_tol"]
    assert h3["margin"] > 3.0
    assert h3["refinement_n"] == 512
    # the margins are ratios of recorded values: the JSON repeats byte for byte
    again = vk.certify(vk.soliton_solve(-1.0, 3.0, g))
    assert again.to_json() == cert.to_json()


@pytest.mark.parametrize("case, applies, n_neg", [
    ("cubic", True, 1),
    (vk.Coupled(1.0, 1.0, 2.0), True, 1),
    (vk.Coupled(1.0, 1.0, 0.5), False, 2),
])
def test_gss_comparison_restricts_to_the_subgroup_of_xi(case, applies, n_neg):
    """Coupled(1,1,0.5) is coercive with two negative Hessian directions, but
    the slope matrix on span(xi) has index 1: the one-parameter condition is
    silent there."""
    g = vk.make_grid("line", 20.0, 256)
    prof = (vk.soliton_solve(-1.0, 3.0, g) if case == "cubic"
            else vk.coupled_soliton(-1.0, case, g))
    cert = vk.certify(prof)
    assert cert.certified
    assert cert.checks["h4_index_match"]["n_d2l"] == n_neg
    assert cert.gss == {"p_w_tilde": 1, "applies": applies, "chain_ok": True}


def _cubic_n1024():
    return vk.soliton_solve(-1.0, 3.0, vk.make_grid("line", 20.0, 1024))


@pytest.mark.parametrize("make, c", [
    (_cubic_n1024, 60.0),
    (_cubic_n1024, 80.0),
    (lambda: vk.coupled_soliton(-1.0, vk.Coupled(1.0, 1.0, 2.0),
                                vk.make_grid("line", 20.0, 256)), 60.0),
], ids=["cubic-60", "cubic-80", "coupled_1_1_2-60"])
def test_a_strong_boost_keeps_the_h1_margin_of_the_rest_frame(make, c):
    """The boost maps D^2 W to L^T D L with D the rest-frame form: the same
    signature, but an eigenvalue ratio that falls like c^-4.  h1 reads D."""
    rest = make()
    at_rest = vk.certify(rest).checks["h1_nondegenerate_W"]
    cert = vk.certify(vk.boost(rest, c))
    assert cert.verdict == "certified_coercive"
    h1 = cert.checks["h1_nondegenerate_W"]
    assert h1["signature"] == at_rest["signature"]
    assert h1["margin"] == pytest.approx(at_rest["margin"], rel=1e-9)


@pytest.mark.parametrize("k, beta", [(0.0, 1.0), (1.0, 0.7)])
def test_a_degenerate_torus_coupling_is_indeterminate(k, beta):
    """alpha gamma = delta^2: L+ is singular on the constant mode."""
    prof = vk.plane_wave(1.0, 1.0, vk.Coupled(1.0, 1.0, 1.0, beta=beta, k=k),
                         vk.make_grid("periodic", 2 * np.pi, 32))
    cert = vk.certify(prof)
    assert cert.verdict == "indeterminate(solver)"
    assert cert.checks["error"]["detail"] == "slope matrix is undefined when alpha*gamma = delta^2"


@pytest.mark.parametrize("factor, verdict", [
    (1.04, "certified_coercive"), (1.06, "failed(h3)"), (0.94, "failed(h3)")])
def test_a_refined_gap_more_than_five_percent_off_fails_h3(monkeypatch, factor, verdict):
    """A gap that clears MARGIN_FACTOR ker_tol but moves by more than 5% on
    the doubled grid fails h3; inside 5% it holds."""
    refined_gap = certify_module._refined_gap

    def moved(prof, index, guess):
        got = refined_gap(prof, index, guess)
        return got._replace(value=factor * got.value)

    monkeypatch.setattr(certify_module, "_refined_gap", moved)
    cert = vk.certify(vk.soliton_solve(-1.0, 3.0, vk.make_grid("line", 20.0, 256)))
    h3 = cert.checks["h3_positive_gap"]
    assert cert.verdict == verdict
    assert h3["ok"] == (verdict == "certified_coercive")
    assert h3["margin"] >= certify_module.MARGIN_FACTOR
    assert h3["refinement_ratio"] == pytest.approx(factor, rel=1e-5)


def test_a_kernel_margin_below_the_factor_leaves_h2_undecided(monkeypatch):
    """Sharp counts (the separation clears MARGIN_FACTOR ker_tol) and a
    kernel that matches the orbit, but a Ritz bound at half the separation:
    h2 holds by a margin of 2 only, and is undecided."""
    spectrum = certify_module.spectrum

    def wide_ritz_bound(op, n_eigs=12):
        rep = spectrum(op, n_eigs)
        return dataclasses.replace(rep, ritz_bound=0.5 * rep.separation, kernel_margin=2.0)

    monkeypatch.setattr(certify_module, "spectrum", wide_ritz_bound)
    cert = vk.certify(vk.soliton_solve(-1.0, 3.0, vk.make_grid("line", 20.0, 256)))
    h2 = cert.checks["h2_kernel_equals_orbit"]
    assert cert.verdict == "indeterminate(h2)"
    assert h2["ok"] and h2["margin"] == 2.0
    assert h2["separation"] >= certify_module.MARGIN_FACTOR * h2["ker_tol"]


def test_a_wave_at_xi_0_reads_its_restricted_slope_as_an_error():
    """The torus wave with zeta_j^2 = 2/3 and offset k = 1 has xi = 0: the
    subgroup xi generates is trivial, so the gss block records the error
    and the verdict stands on the four checks."""
    z = np.sqrt(2.0 / 3.0)
    prof = vk.plane_wave(z, z, vk.Coupled(1.0, 1.0, 0.5, k=1.0),
                         vk.make_grid("periodic", 2 * np.pi, 64))
    assert not np.any(prof.xi)
    cert = vk.certify(prof)
    assert cert.verdict == "failed(h4)"
    assert cert.gss == {"error": "rank-deficient subalgebra basis"}
