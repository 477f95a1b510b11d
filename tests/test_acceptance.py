"""Acceptance gate: one test per headline capability, one pass/fail line each.

Every test prints a single `PASS`/`FAIL` summary line (visible with -s or on
failure) and enforces the stated tolerances and runtime budgets.
"""

import time

import numpy as np

import vkstab as vk
from vkstab.dynamics import make_perturbation

import dense_oracle
from test_so3 import w_so3_fd


def _report(name, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} {name}: {detail}"
    print(line)
    assert ok, line


def test_soliton_certification_with_exact_spectral_oracles():
    t0 = time.perf_counter()
    g = vk.make_grid("line", 20.0, 512)
    prof = vk.soliton_solve(-1.0, 3.0, g)

    cert = vk.certify(prof)
    rep = vk.spectrum(vk.assemble(prof))
    lowest = float(rep.eigenvalues[0])

    fam = vk.make_family(prof)
    h = 1e-4
    mass = lambda om: 2.0 * fam.fhat(np.array([om, 0.0]))[0]
    slope = (mass(-1.0 + h) - mass(-1.0 - h)) / (2 * h)

    p_w = cert.checks["h4_index_match"]["p_d2w"]
    elapsed = time.perf_counter() - t0
    ok = (
        cert.verdict == "certified_coercive"
        and rep.n_neg == 1
        and rep.dim_ker == 2
        and p_w == 1
        and abs(lowest + 3.0) < 1e-4
        and abs(slope + 2.0) < 1e-3
        and elapsed < 30.0
    )
    _report(
        "soliton-certification",
        ok,
        f"verdict={cert.verdict} n_neg={rep.n_neg} dim_ker={rep.dim_ker} "
        f"p_d2w={p_w} lowest={lowest:.6f} mass_slope={slope:.6f} "
        f"time={elapsed:.1f}s",
    )


def test_slope_sign_flips_at_the_critical_exponent():
    g = vk.make_grid("line", 20.0, 512)
    details = []
    ok = True
    for p in (3.0, 4.0, 4.9, 5.1):
        prof = vk.soliton_solve(-1.0, p, g)
        symbolic = vk.vk_slope_sign(p, 1)
        closed = vk.d2w_closed(prof)
        fd = vk.d2w_fd(vk.make_family(prof), prof.xi)
        # the omega-omega entry carries the one-parameter slope
        s_closed = closed.d2w[0, 0]
        s_fd = fd.d2w[0, 0]
        sign_match = symbolic == int(np.sign(-s_fd)) == int(np.sign(-s_closed))
        within = True
        if p <= 4.9:
            within = abs(s_fd - s_closed) <= 0.05 * abs(s_closed)
        # the matrix signature flips together with the slope sign
        ok = ok and sign_match and within and (fd.signature == closed.signature)
        details.append(f"p={p}:sign={symbolic},fd={s_fd:.4f},cf={s_closed:.4f}")
    _report("slope-threshold-crossing", ok, " ".join(details))


def test_coupled_soliton_certification_both_coupling_regimes():
    t0 = time.perf_counter()
    g = vk.make_grid("line", 20.0, 256)

    strong = vk.coupled_soliton(-1.0, vk.Coupled(1.0, 1.0, 2.0), g)
    rep_s = vk.spectrum(vk.assemble(strong))
    crit_s = vk.coupled_stability_criteria(strong)
    cert_s = vk.certify(strong)

    weak = vk.coupled_soliton(-1.0, vk.Coupled(1.0, 1.0, 0.5), g)
    rep_w = vk.spectrum(vk.assemble(weak))
    crit_w = vk.coupled_stability_criteria(weak)
    cert_w = vk.certify(weak)

    elapsed = time.perf_counter() - t0
    ok = (
        rep_s.n_neg == 1
        and rep_s.dim_ker == 3
        and crit_s["vk_integral"] > 0.0
        and crit_s["case"] == 1
        and crit_s["stable"]
        and cert_s.certified
        and rep_w.n_neg == 2
        and crit_w["case"] == 2
        and crit_w["stable"] == (crit_w["vk_integral"] < 0.0)
        and cert_w.certified
        and elapsed < 60.0
    )
    _report(
        "coupled-soliton-certification",
        ok,
        f"strong(n={rep_s.n_neg},ker={rep_s.dim_ker},B={crit_s['vk_integral']:.3f},"
        f"stable={crit_s['stable']}) "
        f"weak(n={rep_w.n_neg},B={crit_w['vk_integral']:.3f},"
        f"stable={crit_w['stable']}) time={elapsed:.1f}s",
    )


def test_plane_wave_spectra_certificates_and_growth_rate():
    t0 = time.perf_counter()
    length = 2 * np.pi
    g = vk.make_grid("periodic", length, 64)

    stable_params = vk.Coupled(-1.0, -1.0, -0.5)
    prof = vk.plane_wave(1.0, 1.0, stable_params, g)
    op = vk.assemble(prof)
    rep = vk.spectrum(op, n_eigs=op.dimension)
    every = rep.eigenvalues
    per_mode = []
    for n in range(g.n // 2 + 1):
        mult = 1 if n in (0, g.n // 2) else 2
        per_mode.extend(list(vk.hessian_mode_eigs(n, stable_params, (1, 1), length)) * mult)
    mode_err = float(np.max(np.abs(np.sort(per_mode) - every)))
    cert = vk.certify(prof)
    p_w = cert.checks["h4_index_match"]["p_d2w"]

    unstable_params = vk.Coupled(-1.0, -1.0, -2.0)
    prof_u = vk.plane_wave(1.0, 1.0, unstable_params, g)
    cert_u = vk.certify(prof_u)
    series = vk.stability_experiment(
        prof_u, eps=1e-5, dt=1e-3, t_end=12.0, kind="single_mode", mode_n=1
    )
    rate = series.growth_rate

    elapsed = time.perf_counter() - t0
    ok = (
        mode_err < 1e-8
        and cert.certified
        and p_w == 0
        and rep.n_neg == 0
        and "h4" in cert_u.verdict
        and cert_u.verdict.startswith("failed(")
        and rate is not None
        and abs(rate - 1.0) <= 0.10
        and elapsed < 120.0
    )
    _report(
        "plane-wave-stability",
        ok,
        f"mode_vs_operator={mode_err:.2e} stable={cert.verdict} p_d2w={p_w} "
        f"unstable={cert_u.verdict} growth_rate={rate} time={elapsed:.1f}s",
    )


def test_central_force_orbit_certificate_and_long_run():
    t0 = time.perf_counter()
    orbit = vk.circular_orbit(1.0, 1.0, 1.0)
    n_neg = int(np.sum(np.linalg.eigvalsh(vk.hessian6(orbit)) < -1e-8))
    _, d2w = vk.w_so3(orbit.xi, 1.0, 1.0)
    fd_err = float(np.max(np.abs(d2w - w_so3_fd(orbit.xi, 1.0, 1.0))))
    w_eigs = np.sort(np.linalg.eigvalsh(d2w))
    cert = vk.certify_so3(1.0, 1.0, 1.0)
    p_tilde = cert.gss["p_w_tilde"]
    p_full = cert.checks["h4_index_match"]["p_d2w"]

    eps = 1e-3
    rng = np.random.default_rng(0)
    dq, dp = rng.standard_normal(3), rng.standard_normal(3)
    scale = eps / np.sqrt(np.sum(dq**2) + np.sum(dp**2))
    _, qs, ps, _, _ = vk.integrate_so3(
        orbit, 1e-2, 100.0, q0=orbit.q + scale * dq, p0=orbit.p + scale * dp
    )
    max_dist = max(vk.orbit_distance(orbit, q, p) for q, p in zip(qs, ps))

    elapsed = time.perf_counter() - t0
    ok = (
        n_neg == 3
        and np.allclose(w_eigs, [0.5, 1.0, 1.0], atol=1e-9)
        and fd_err < 1e-6
        and p_tilde == 1
        and p_full == 3
        and max_dist <= 10 * eps
        and elapsed < 10.0
    )
    _report(
        "central-force-orbit",
        ok,
        f"n_neg={n_neg} w_eigs={np.round(w_eigs, 6).tolist()} fd_err={fd_err:.1e} "
        f"p_tilde={p_tilde}<p={p_full} max_dist={max_dist:.2e} time={elapsed:.1f}s",
    )


def test_structural_identities_hold_on_the_workhorse_cases():
    g = vk.make_grid("line", 20.0, 256)
    prof = vk.soliton_solve(-1.0, 3.0, g)
    fam = vk.make_family(prof)

    # slope matrix symmetry
    fd = vk.d2w_fd(fam, prof.xi)
    sym_ok = fd.asymmetry <= 1e-6

    # quadratic form of the Hessian on the family derivative equals minus the
    # slope form in the same direction
    eta = np.array([1.0, 0.0])
    h = 1e-4
    up = fam.profile(prof.xi + h * eta).field
    um = fam.profile(prof.xi - h * eta).field
    du = (1.0 / (2 * h)) * (up + (-1.0) * um)
    lhs = vk.inner(du, dense_oracle.apply(prof, du))
    rhs = -float(eta @ fd.d2w @ eta)
    ident_err = abs(lhs - rhs) / abs(rhs)
    ident_ok = ident_err <= 1e-4

    # the family derivative is Hessian-orthogonal to variations that keep the
    # conserved quantities fixed
    v = make_perturbation(prof, "kernel_orthogonal", np.random.default_rng(2))
    ortho = abs(vk.inner(du, dense_oracle.apply(prof, v)))
    ortho_ok = ortho <= 1e-6 * max(abs(lhs), 1.0)

    # Hessian linearizes the gradient at second order
    rng = np.random.default_rng(3)
    w = vk.Field(
        rng.standard_normal((1, g.n)) + 1j * rng.standard_normal((1, g.n)), g
    )
    errs = []
    for step in (1e-3, 5e-4):
        gp = vk.grad_L(prof.field + step * w, prof.model, prof.xi)
        gm = vk.grad_L(prof.field + (-step) * w, prof.model, prof.xi)
        errs.append(np.max(np.abs((gp.values - gm.values) / (2 * step)
                                  - dense_oracle.apply(prof, w).values)))
    order = float(np.log(errs[0] / errs[1]) / np.log(2.0))
    order_ok = order >= 1.9

    # Strang second-order convergence and conservation
    u0 = vk.Field(prof.field.values * (1.0 + 1e-2), g)
    ref = vk.evolve(u0, prof.model, dt=1.25e-4, t_end=0.4, sample_stride=10**9)
    e = []
    for dt in (4e-3, 2e-3):
        traj = vk.evolve(u0, prof.model, dt=dt, t_end=0.4, sample_stride=10**9)
        e.append(np.max(np.abs(traj.snapshots[-1].values - ref.snapshots[-1].values)))
    ratio = e[0] / e[1]
    strang_ok = 3.5 <= ratio <= 4.5

    traj = vk.evolve(prof.field, prof.model, dt=0.01, t_end=2.0, sample_stride=1)
    n_steps = traj.times.size - 1
    drift = float(np.max(np.abs(traj.momenta - traj.momenta[0])))
    drift_ok = drift <= 1e-10 * n_steps

    # index inequality chain on every certified case in the suite
    chain_ok = True
    for case in (
        prof,
        vk.coupled_soliton(-1.0, vk.Coupled(1.0, 1.0, 2.0), g),
        vk.coupled_soliton(-1.0, vk.Coupled(1.0, 1.0, 0.5), g),
        vk.plane_wave(1.0, 1.0, vk.Coupled(-1.0, -1.0, -0.5),
                      vk.make_grid("periodic", 2 * np.pi, 64)),
    ):
        cert = vk.certify(case)
        chain_ok = chain_ok and cert.certified and cert.gss["chain_ok"]

    ok = (sym_ok and ident_ok and ortho_ok and order_ok and strang_ok
          and drift_ok and chain_ok)
    _report(
        "structural-identities",
        ok,
        f"slope_asym={fd.asymmetry:.1e} family_identity={ident_err:.1e} "
        f"orthogonality={ortho:.1e} grad_order={order:.2f} "
        f"strang_ratio={ratio:.2f} drift/step={drift / max(n_steps, 1):.1e} "
        f"chain_ok={chain_ok}",
    )
