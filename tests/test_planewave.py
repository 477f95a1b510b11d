"""Per-mode plane-wave analysis on the torus."""

import csv
import io
import itertools
import json

import numpy as np
import pytest

import vkstab as vk

from dense_oracle import torus_slope

L = 2 * np.pi
STABLE = vk.Coupled(-1.0, -1.0, -0.5)
UNSTABLE = vk.Coupled(-1.0, -1.0, -2.0)
ZETA = (1.0, 1.0)


def test_quadratic_form_constants():
    cp, cm = vk.c_plusminus(STABLE, ZETA)
    # C_pm = -(alpha z1^2 + gamma z2^2) +- sqrt((alpha z1^2 - gamma z2^2)^2
    #        + 4 z1^2 z2^2 delta^2)
    assert np.isclose(cp, 3.0)
    assert np.isclose(cm, 1.0)
    cp_u, cm_u = vk.c_plusminus(UNSTABLE, ZETA)
    assert np.isclose(cp_u, 6.0)
    assert np.isclose(cm_u, -2.0)


def test_coercivity_margin():
    ok, margin = vk.coercivity_condition(STABLE, ZETA, L)
    assert ok and np.isclose(margin, 2.0)
    ok_u, margin_u = vk.coercivity_condition(UNSTABLE, ZETA, L)
    assert (not ok_u) and margin_u < 0


def test_a_margin_at_roundoff_is_not_coercive():
    # The margin is an exact 0 up to roundoff (4.4e-16): mode 1 holds an
    # extra kernel direction, which certify reads as a failed h2.
    params, zeta = vk.Coupled(-1.0, 2.0, -2.0), (2.0, 0.3)
    ok, margin = vk.coercivity_condition(params, zeta, L)
    assert not ok and abs(margin) < 1e-14
    assert not vk.mode_table(params, zeta, L).coercive
    cert = vk.certify(vk.plane_wave(*zeta, params, vk.make_grid("periodic", L, 32)))
    assert cert.verdict == "failed(h2)"


TORUS_CASES = list(itertools.product(
    [-1.0, -0.5, 1.0], [-1.0, -2.0], [-2.0, -0.5, 0.3, 0.9, 1.5],
    [(1.0, 1.0), (0.7, 1.3)], [0.0, 1.0], [1.0, 0.7]))


def test_mode_table_coercivity_and_certify_agree():
    grid = vk.make_grid("periodic", L, 32)
    for alpha, gamma, delta, zeta, k, beta in TORUS_CASES:
        params = vk.Coupled(alpha, gamma, delta, beta=beta, k=k)
        closed = bool(vk.coercivity_condition(params, zeta, L)[0])
        table = vk.mode_table(params, zeta, L, n_max=8)
        cert = vk.certify(vk.plane_wave(*zeta, params, grid))
        assert table.coercive == closed == cert.certified, (params, zeta)


def test_the_slope_matrix_is_the_closed_form_on_every_wave():
    grid = vk.make_grid("periodic", L, 32)
    for alpha, gamma, delta, zeta, k, beta in TORUS_CASES:
        params = vk.Coupled(alpha, gamma, delta, beta=beta, k=k)
        wave = vk.plane_wave(*zeta, params, grid)
        # the same orbit times a global phase: its amplitudes are its zeta
        rotated = vk.Profile(vk.Field(1j * wave.field.values, grid), wave.xi, params,
                             zeta=wave.zeta)
        expected = torus_slope(params, L)
        for prof in (wave, rotated):
            got = vk.d2w_closed(prof).d2w
            assert np.max(np.abs(got - expected)) <= 1e-10 * np.max(np.abs(expected)), (params, zeta)


def test_mode_eigenvalues_match_assembled_operator():
    n_grid = 64
    g = vk.make_grid("periodic", L, n_grid)
    prof = vk.plane_wave(*ZETA, STABLE, g)
    op = vk.assemble(prof)
    every = vk.spectrum(op, n_eigs=op.dimension).eigenvalues

    per_mode = []
    for n in range(n_grid // 2 + 1):
        mult = 1 if n in (0, n_grid // 2) else 2
        per_mode.extend(list(vk.hessian_mode_eigs(n, STABLE, ZETA, L)) * mult)
    per_mode = np.sort(per_mode)
    assert per_mode.size == every.size
    assert np.max(np.abs(per_mode - every)) < 1e-8


def test_stable_case_has_no_negative_modes():
    table = vk.mode_table(STABLE, ZETA, L, n_max=8)
    assert table.coercive
    assert table.n_neg_total == 0
    assert table.linearly_stable is True
    assert table.max_growth_rate == 0.0


def test_unstable_case_growth_rate_is_one():
    table = vk.mode_table(UNSTABLE, ZETA, L, n_max=8)
    assert not table.coercive
    assert table.n_neg_total > 0
    assert table.linearly_stable is False
    # lambda^2 = 1 for the n = 1 Fourier mode
    assert abs(table.max_growth_rate - 1.0) < 1e-10
    row1 = table.rows[1]
    assert abs(row1["lin_sq_plus"] - 1.0) < 1e-10


def test_linearization_closed_form_k_zero():
    for n in range(1, 5):
        lp, lm = vk.linearization_eigs(n, STABLE, ZETA, L)
        nl2 = float(n) ** 2
        tr = STABLE.alpha + STABLE.gamma            # zeta = (1, 1)
        for lsq, sgn in ((lp, 1.0), (lm, -1.0)):
            expected = nl2 * (
                -nl2 + tr + sgn * np.sqrt(
                    (STABLE.alpha - STABLE.gamma) ** 2 + 4 * STABLE.delta**2
                )
            )
            assert abs(np.real(lsq) - expected) < 1e-10


def test_nonzero_offset_uses_quartic_roots():
    g_len = 2 * np.pi
    params = vk.Coupled(-1.0, -0.5, -0.25, beta=1.0, k=1.0)
    eigs = vk.linearization_eigs(2, params, (1.0, 1.0), g_len)
    eigs = np.asarray(eigs)
    assert eigs.shape == (4,)
    # the characteristic polynomial has real even and imaginary odd
    # coefficients, so the root set is symmetric across the imaginary axis;
    # in this spectrally stable case all roots are purely imaginary
    for lam in eigs:
        assert np.min(np.abs(eigs + np.conj(lam))) < 1e-8
    assert np.max(np.abs(np.real(eigs))) < 1e-10
    table = vk.mode_table(params, (1.0, 1.0), g_len, n_max=4)
    assert table.linearly_stable == "numerical only"


def test_mode_table_reads_the_closed_form_where_linearization_eigs_does():
    # alpha zeta1^2 - gamma zeta2^2 = -1.5e-12 is within linearization_eigs'
    # tolerance 1e-12 max(|trace|, 1) = 2e-12: row 1 holds lambda^2, not
    # quartic roots, and the growth rate is its neighbours'.
    params = vk.Coupled(1.0, 1.0, 2.0, k=1.0)
    table = vk.mode_table(params, (1.0, 1.0 + 7.5e-13), L)
    assert "lin_sq_plus" in table.rows[1] and "lin_sq_minus" in table.rows[1]
    assert abs(table.max_growth_rate - 1.926866088) < 1e-9


def test_mode_table_serialization():
    table = vk.mode_table(STABLE, ZETA, L, n_max=4)
    doc = json.loads(table.to_json())
    assert doc["coercive"] is True
    assert len(doc["rows"]) == 5
    rows = list(csv.DictReader(io.StringIO(table.to_csv())))
    assert len(rows) == 5
    assert float(rows[0]["lam_plus_plus"]) == pytest.approx(
        table.rows[0]["lam_plus_plus"]
    )


def test_mode_table_rejects_empty_range():
    with pytest.raises(ValueError):
        vk.mode_table(STABLE, ZETA, L, n_max=0)
