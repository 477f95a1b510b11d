"""Refining the grid never turns a certified case indeterminate: every
tolerance comes from the accuracy of the eigenvalue it judges, none from the
grid's largest wavenumber.  The cases below read `indeterminate`, or a
`failed(h2)` that no kernel deserved, on fine grids while the kernel
tolerance was 1e-6 of the spectral radius."""

import numpy as np
import pytest

import vkstab as vk
from vkstab.certify import MARGIN_FACTOR


def line(n):
    return vk.make_grid("line", 20.0, n)


FINE_CASES = {
    # ker_tol 1.05 against mode 0's and mode 1's eigenvalues at 1.0
    "torus_n2048": lambda: vk.plane_wave(1.0, 1.0, vk.Coupled(-1.0, -1.0, -0.5),
                                         vk.make_grid("periodic", 2 * np.pi, 2048)),
    # the polarization eigenvalue -0.0407 inside ker_tol 0.0259
    "coupled_1_1_0.97_n2048": lambda: vk.coupled_soliton(-1.0, vk.Coupled(1.0, 1.0, 0.97),
                                                         line(2048)),
    # h3's margin 1.52
    "coupled_1_1_1.03_n2048": lambda: vk.coupled_soliton(-1.0, vk.Coupled(1.0, 1.0, 1.03),
                                                         line(2048)),
    "cubic_n4096": lambda: vk.soliton_solve(-1.0, 3.0, line(4096)),
    # ker_tol 0.41 against the gap 1.0, indeterminate(h3)
    "cubic_n8192": lambda: vk.soliton_solve(-1.0, 3.0, line(8192)),
}


@pytest.mark.parametrize("case", list(FINE_CASES))
def test_a_fine_grid_certifies_with_wide_margins(case):
    cert = vk.certify(FINE_CASES[case]())
    assert cert.verdict == "certified_coercive"
    for check in ("h2_kernel_equals_orbit", "h3_positive_gap"):
        assert cert.checks[check]["margin"] >= 100 * MARGIN_FACTOR, check


def _poschl_teller(delta):
    """The polarization eigenvalue of Coupled(1, 1, delta) at omega = -1: the
    difference mode's L+ is -d2 + 1 - 2 s sech^2, s = (3 - delta) / (1 +
    delta), whose ground state is 1 - nu^2 with nu (nu + 1) = 2 s."""
    s = (3.0 - delta) / (1.0 + delta)
    nu = 0.5 * (np.sqrt(1.0 + 8.0 * s) - 1.0)
    return 1.0 - nu**2


@pytest.mark.parametrize("delta", [1.001, 0.999])
def test_near_manakov_couplings_read_one_verdict_at_every_n(delta):
    """The polarization eigenvalue, +-1.33e-3, lay inside the old tolerance
    from n = 512 on; now each coupling reads one verdict at every n, and the
    eigenvalue, shown through n_eigs, is Poschl-Teller's."""
    want = _poschl_teller(delta)
    verdicts = set()
    for n in (512, 1024, 2048):
        prof = vk.coupled_soliton(-1.0, vk.Coupled(1.0, 1.0, delta), line(n))
        verdicts.add(vk.certify(prof).verdict)
        shown = vk.spectrum(vk.assemble(prof), n_eigs=6).eigenvalues
        assert np.min(np.abs(shown - want)) <= 1e-6, n
    assert len(verdicts) == 1


@pytest.mark.parametrize("p, omega, n", [(7.0, -1.0, 256), (7.0, -4.0, 512), (5.5, -9.0, 512)])
def test_an_under_resolved_supercritical_soliton_never_fails_h2(p, omega, n):
    """On these grids the translation eigenvalue is the grid's own (8e-5 to
    5e-3); it is a kernel candidate, which the tangents' Ritz bound
    encloses, not a positive eigenvalue that leaves the kernel a dimension
    short.  Each soliton is supercritical (p > 5), so h4 fails."""
    cert = vk.certify(vk.soliton_solve(omega, p, line(n)))
    assert cert.verdict == "failed(h4)" or cert.verdict.startswith("indeterminate(")
