"""The three benchmark workloads: inputs, operations and their oracles.

Each workload's `setup(seed)` builds the inputs, computes every oracle from a
closed form (or from the profile before serialization) and fills the
differentiation-matrix cache for each grid it will use, including the 2n
refinement grids.  It returns the list of ops of one pass.  An op runs
public vkstab calls and checks their output, returning one of:

- OK: the output agrees with its oracle;
- WRONG: the program asserted something the oracle contradicts;
- FAILED: no usable answer (an exception, a non-converged solve or an
  indeterminate verdict), with the reason.
"""

from __future__ import annotations

import importlib
import json
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

import vkstab as vk

OK, WRONG, FAILED = "ok", "wrong", "failed"
R = 20.0                      # half-width of every line grid
TORUS_L = 2.0 * np.pi


@dataclass
class Op:
    name: str
    fn: Callable[[], tuple]   # returns (status, reason)
    key: bool = False         # counts towards key_op_s
    base_n: Optional[int] = None   # input grid size of a certify op

    def run(self) -> tuple:
        try:
            return self.fn()
        except Exception as exc:   # one failed op must not stop the loop
            return FAILED, f"{type(exc).__name__}: {exc}"


def line(n):
    return vk.make_grid("line", R, n)


def torus(n):
    return vk.make_grid("periodic", TORUS_L, n)


def warm_diff_cache(grids) -> None:
    """Fill the dense differentiation-matrix cache for each grid."""
    spectral = importlib.import_module("vkstab.spectral")
    for fn_name in ("first_derivative_matrix", "second_derivative_matrix"):
        fn = getattr(spectral, fn_name, None)
        if fn is not None:
            for g in grids:
                fn(g)


def _verdict_outcome(verdict: str, expect_stable: bool, stable_word: str,
                     unstable_prefix: str) -> tuple:
    if verdict == stable_word:
        return (OK, verdict) if expect_stable else (WRONG, verdict)
    if verdict.startswith(unstable_prefix):
        return (OK, verdict) if not expect_stable else (WRONG, verdict)
    return FAILED, verdict


# ---------------------------------------------------------------------------
# certify_grid

CUBIC_N512_REPEATS = 3


def setup_certify_grid(seed: int) -> list:
    """`certify` after a JSON round trip, on every model and size.

    The seed is unused: the cases are fixed.
    """
    del seed
    warm_diff_cache([line(n) for n in (256, 512, 1024, 2048)]
                    + [torus(n) for n in (128, 256)])
    cubic = {n: vk.soliton_solve(-1.0, 3.0, line(n)) for n in (256, 512, 1024)}
    stable_pw = vk.Coupled(-1.0, -1.0, -0.5)
    mi_pw = vk.Coupled(-1.0, -1.0, -2.0)
    cases = [
        ("cubic_n256", cubic[256]),
        ("cubic_n512", cubic[512]),
        ("cubic_n1024", cubic[1024]),
        ("boosted_c0.5_n512", vk.boost(vk.soliton_solve(-1.0, 3.0, line(512)), 0.5)),
        ("p6_n512", vk.soliton_solve(-1.0, 6.0, line(512))),
        ("coupled_1_1_2_n256", vk.coupled_soliton(-1.0, vk.Coupled(1.0, 1.0, 2.0), line(256))),
        ("coupled_1_1_0.5_n256", vk.coupled_soliton(-1.0, vk.Coupled(1.0, 1.0, 0.5), line(256))),
        ("torus_stable_n128", vk.plane_wave(1.0, 1.0, stable_pw, torus(128))),
        ("torus_mi_n128", vk.plane_wave(1.0, 1.0, mi_pw, torus(128))),
    ]
    ops = []
    for name, prof in cases:
        expect = _certify_oracle(prof)
        text = json.dumps(prof.to_dict())        # as `vkstab profile --out`
        op = Op(name, _certify_op(text, expect), base_n=prof.grid.n)
        ops.append(op)
        if name == "cubic_n512":
            op.key = True
            ops.extend(Op(name, op.fn, key=True, base_n=op.base_n)
                       for _ in range(CUBIC_N512_REPEATS - 1))
    return ops


def _certify_oracle(prof) -> bool:
    """True when the equilibrium is orbitally stable, from a closed form."""
    model = prof.model
    if model.model == "single_nls":
        return vk.vk_slope_sign(model.p, 1) < 0
    if prof.is_torus:
        return bool(vk.coercivity_condition(model, prof.zeta, prof.grid.extent)[0])
    return bool(vk.coupled_stability_criteria(prof)["stable"])


def _certify_op(text: str, expect_stable: bool):
    def op():
        prof = vk.Profile.from_dict(json.loads(text))   # `vkstab certify --from`
        cert = vk.certify(prof)
        cert.to_json()
        return _verdict_outcome(cert.verdict, expect_stable, "certified_coercive", "failed(")
    return op


# ---------------------------------------------------------------------------
# slope_scan

SLOPE_P = (2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 4.9, 5.1, 5.5, 6.0)
SLOPE_OMEGA = (-1.0, -2.0, -4.0)
SLOPE_N = (512, 1024)
SLOPE_KEY = (3.0, -1.0, 1024)
SLOPE_KEY_REPEATS = 3
CONTINUATION_TARGETS = ((-1.0, -1.3, 0.0), (-1.2, -1.0, 0.0), (-1.0, -1.0, 0.4))


def setup_slope_scan(seed: int) -> list:
    """Slope matrix by finite differences and in closed form across p = 5.

    The seed is unused: the parameter grid is fixed.
    """
    del seed
    warm_diff_cache([line(n) for n in (256,) + SLOPE_N])
    ops = []
    for n in SLOPE_N:
        grid = line(n)
        for p in SLOPE_P:
            for omega in SLOPE_OMEGA:
                name = f"slope_p{p:g}_w{omega:g}_n{n}"
                fn = _slope_op(p, omega, grid)
                key = (p, omega, n) == SLOPE_KEY
                ops.extend(Op(name, fn, key=key)
                           for _ in range(SLOPE_KEY_REPEATS if key else 1))
    base = vk.coupled_soliton(-1.0, vk.Coupled(1.0, 1.0, 2.0), line(256))
    for target in CONTINUATION_TARGETS:
        name = "continue_1_1_2_to_" + "_".join(f"{x:g}" for x in target)
        ops.append(Op(name, _continuation_op(base, np.array(target))))
    return ops


def _slope_op(p: float, omega: float, grid):
    def op():
        prof = vk.soliton_solve(omega, p, grid)
        fd = vk.d2w_fd(vk.make_family(prof), prof.xi)
        closed = vk.d2w_closed(prof)
        symbolic = vk.vk_slope_sign(p, 1)
        # the omega-omega entry carries the one-parameter slope
        s_fd, s_closed = fd.d2w[0, 0], closed.d2w[0, 0]
        detail = f"fd={s_fd:.6g} closed={s_closed:.6g} symbolic={symbolic}"
        if not symbolic == int(np.sign(-s_fd)) == int(np.sign(-s_closed)):
            return WRONG, "slope sign disagrees: " + detail
        if fd.signature != closed.signature:
            return WRONG, f"signatures differ: fd={fd.signature} closed={closed.signature}"
        if abs(p - 5.0) > 0.2 and abs(s_fd - s_closed) > 0.05 * abs(s_closed):
            return WRONG, "fd and closed form differ by more than 5%: " + detail
        return OK, detail
    return op


def _continuation_op(base, target: np.ndarray):
    def op():
        fam = vk.continue_family(base, target)
        fd = vk.d2w_fd(fam, target)
        if not np.all(np.isfinite(fd.d2w)):
            return WRONG, "non-finite slope matrix"
        if fd.asymmetry > 1e-6:
            return WRONG, f"slope matrix asymmetry {fd.asymmetry:.3e} > 1e-6"
        return OK, f"signature={fd.signature} asymmetry={fd.asymmetry:.2e}"
    return op


# ---------------------------------------------------------------------------
# dynamics

SOLITON_RUN = {"eps": 1e-4, "dt": 0.01, "t_end": 5.0}
TORUS_RUN = {"eps": 1e-5, "dt": 1e-3, "t_end": 12.0, "kind": "single_mode",
             "mode_n": 1, "sample_stride": 10}
SO3_EPS = 1e-3
SO3_DT, SO3_TEND = 1e-2, 100.0
F_DRIFT_TOL = 1e-11           # roundoff on |F| = O(1) over 10^4 steps


def setup_dynamics(seed: int) -> list:
    """Split-step evolution with orbit alignment, and the so3 ODE run.

    The seed drives the band-limited perturbations and the so3 perturbation.
    """
    warm_diff_cache([line(512), line(256)])
    cubic = vk.soliton_solve(-1.0, 3.0, line(512))
    p6 = vk.soliton_solve(-1.0, 6.0, line(512))
    coupled = vk.coupled_soliton(-1.0, vk.Coupled(1.0, 1.0, 2.0), line(256))
    mi_params = vk.Coupled(-1.0, -1.0, -2.0)
    mi = vk.plane_wave(1.0, 1.0, mi_params, torus(64))
    stable_pw = vk.plane_wave(1.0, 1.0, vk.Coupled(-1.0, -1.0, -0.5), torus(64))
    lam2 = vk.linearization_eigs(1, mi_params, (1.0, 1.0), TORUS_L)
    mi_rate = float(np.sqrt(max(np.real(lam2))))

    run = dict(SOLITON_RUN, seed=seed)
    ops = [
        Op("cubic_n512_dense", _evolve_op(cubic, dict(run, sample_stride=1))),
        Op("cubic_n512_kernel_orthogonal",
           _evolve_op(cubic, dict(run, kind="kernel_orthogonal"))),
        Op("p6_n512", _evolve_op(p6, run)),
        Op("coupled_1_1_2_n256", _evolve_op(coupled, run)),
        Op("torus_mi_n64", _evolve_op(mi, TORUS_RUN, rate=mi_rate)),
        Op("torus_stable_n64", _evolve_op(stable_pw, TORUS_RUN)),
    ]
    rng = np.random.default_rng(seed)
    dq, dp = rng.standard_normal(3), rng.standard_normal(3)
    ops.append(Op("so3_run", _so3_op(dq, dp), key=True))
    return ops


def _evolve_op(prof, kwargs: dict, rate: Optional[float] = None):
    expect_stable = _certify_oracle(prof)

    def op():
        series = vk.stability_experiment(prof, **kwargs)
        verdict = series.verdict.split(" ")[0]
        status, _ = _verdict_outcome(verdict, expect_stable, "stable", "unstable")
        reason = f"{series.verdict} max_distance={series.max_distance:.3e}"
        if status == OK and rate is not None:
            got = series.growth_rate
            if got is None or abs(got - rate) > 0.10 * rate:
                return WRONG, f"growth rate {got} vs oracle {rate:.4f}"
            reason += f" growth_rate={got:.4f} oracle={rate:.4f}"
        return status, reason
    return op


def _so3_op(dq, dp):
    """The work of `vkstab so3 --tend 100`: certificate, run, orbit distances."""
    def op():
        cert = vk.certify_so3(1.0, 1.0, 1.0)
        orbit = vk.circular_orbit(1.0, 1.0, 1.0)
        scale = SO3_EPS / np.sqrt(np.dot(dq, dq) + np.dot(dp, dp))
        _, qs, ps, _, f_drift = vk.integrate_so3(
            orbit, SO3_DT, SO3_TEND, q0=orbit.q + scale * dq, p0=orbit.p + scale * dp)
        max_d = max(vk.orbit_distance(orbit, q, p) for q, p in zip(qs, ps))
        reason = f"{cert.verdict} max_distance={max_d:.3e} f_drift={f_drift:.2e}"
        if not cert.certified or max_d > 10.0 * SO3_EPS or f_drift > F_DRIFT_TOL:
            return WRONG, reason
        return OK, reason
    return op


# Seconds of one pass on the machine the benchmark was written on (2-vCPU
# VM, OpenBLAS 0.3.31); a run of --seconds makes round(seconds / PASS_S)
# passes, at least one, so that every run of a workload makes the same ops.
PASS_S = {"certify_grid": 23.0, "slope_scan": 8.0, "dynamics": 6.4}

WORKLOADS = {
    "certify_grid": setup_certify_grid,
    "slope_scan": setup_slope_scan,
    "dynamics": setup_dynamics,
}
