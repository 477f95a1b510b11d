"""Command-line interface for the stability toolkit.

Subcommands: profile, spectrum, slope, certify, planewave, evolve, so3.
Options can be preloaded from an INI-style or JSON config file and overridden
by flags.  Exit codes: 0 success/certified, 2 input or solver error,
3 certification failed, 4 indeterminate.
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
from typing import Optional

import numpy as np

from .certify import certify, certify_so3, coupled_stability_criteria
from .core import Coupled, make_grid
from .dynamics import BlowUpError, distances_to_csv, stability_experiment
from .hessian import assemble, grad_L, spectrum
from .planewave import mode_table
from .profiles import (
    Profile,
    SolverError,
    boost,
    coupled_soliton,
    make_family,
    plane_wave,
    soliton_solve,
)
from .slope import d2w_closed, d2w_fd

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_FAILED = 3
EXIT_INDETERMINATE = 4

_CONFIG_KEYS = {
    "model": {"model", "p", "alpha", "gamma", "delta", "beta", "k"},
    "grid": {"kind", "extent", "n"},
    "run": {
        "omega", "c", "zeta1", "zeta2", "nmax", "eps", "dt", "tend", "seed",
        "kind", "mode", "rho", "omega_pot", "out",
    },
}
# Option names of the config keys whose flag is named differently.
_CONFIG_DEST = {"grid.kind": "grid_kind", "run.kind": "perturbation"}


def _load_config(path: str) -> dict:
    """Flat {option: value} dict from an INI or JSON config file.  Values
    stay strings, which argparse converts with the type of their option."""
    flat = {}
    if path.endswith(".json"):
        with open(path) as fh:
            doc = json.load(fh)
        items = doc.items()
    else:
        parser = configparser.ConfigParser()
        with open(path) as fh:
            parser.read_file(fh)
        items = ((s, dict(parser[s])) for s in parser.sections())
    for section, block in items:
        if section not in _CONFIG_KEYS:
            raise ValueError(f"unknown config section {section!r}")
        for key, value in block.items():
            if key not in _CONFIG_KEYS[section]:
                raise ValueError(f"unknown config key {section}.{key}")
            name = f"{section}.{key}"
            flat[_CONFIG_DEST.get(name, key.replace("-", "_"))] = str(value)
    return flat


def _emit(doc, out: str) -> None:
    text = doc if isinstance(doc, str) else json.dumps(doc, sort_keys=True)
    if out:
        with open(out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _build_profile(args) -> Profile:
    if args.from_file:
        with open(args.from_file) as fh:
            return Profile.from_dict(json.load(fh))
    grid = make_grid(args.grid_kind, args.extent, args.n)
    if args.model == "nls":
        return boost(soliton_solve(args.omega, args.p, grid), args.c)
    if args.model != "coupled":
        raise ValueError(f"unknown model {args.model!r}")
    params = Coupled(alpha=args.alpha, gamma=args.gamma, delta=args.delta,
                     beta=args.beta, k=args.k)
    if args.grid_kind == "periodic":
        return plane_wave(args.zeta1, args.zeta2, params, grid)
    return boost(coupled_soliton(args.omega, params, grid), args.c)


def _add_profile_args(sub, with_from: bool = True):
    if with_from:
        sub.add_argument("--from", dest="from_file", default=None,
                         help="load the profile from a JSON file instead of solving")
    sub.add_argument("--model", default="nls", choices=["nls", "coupled"],
                     help="model family: nls (single component) or coupled")
    sub.add_argument("--p", type=float, default=3.0, help="nonlinearity exponent")
    sub.add_argument("--omega", type=float, default=-1.0,
                     help="frequency parameter (negative)")
    sub.add_argument("--c", type=float, default=0.0, help="boost velocity")
    sub.add_argument("--alpha", type=float, default=1.0, help="self-coupling 1")
    sub.add_argument("--gamma", type=float, default=1.0, help="self-coupling 2")
    sub.add_argument("--delta", type=float, default=2.0, help="cross-coupling")
    sub.add_argument("--beta", type=float, default=1.0, help="dispersion coefficient")
    sub.add_argument("--k", type=float, default=0.0, help="wavenumber offset (torus)")
    sub.add_argument("--zeta1", type=float, default=1.0, help="plane-wave amplitude 1")
    sub.add_argument("--zeta2", type=float, default=1.0, help="plane-wave amplitude 2")
    sub.add_argument("--grid-kind", default="line", choices=["line", "periodic"],
                     help="grid type")
    sub.add_argument("--extent", type=float, default=20.0,
                     help="half-width (line) or period (periodic)")
    sub.add_argument("--n", type=int, default=512, help="grid points")
    sub.add_argument("--out", default="", help="output file (default stdout)")


def _cmd_profile(args) -> int:
    prof = _build_profile(args)
    res = float(np.max(np.abs(grad_L(prof.field, prof.model, prof.xi).values)))
    inv = prof.invariants()
    doc = prof.to_dict()
    doc["residual"] = res
    doc["invariants"] = {"H": inv["H"], "F": inv["F"].tolist()}
    if prof.zeta is not None:
        doc["zeta_squared"] = [float(z) ** 2 for z in prof.zeta]
    _emit(doc, args.out)
    print(f"residual {res:.3e}", file=sys.stderr)
    return EXIT_OK


def _cmd_spectrum(args) -> int:
    prof = _build_profile(args)
    rep = spectrum(assemble(prof), n_eigs=args.n_eigs)
    _emit(rep.to_dict(), args.out)
    return EXIT_OK


def _cmd_slope(args) -> int:
    prof = _build_profile(args)
    fam = make_family(prof)
    rep = d2w_fd(fam, prof.xi)
    doc = {"finite_difference": rep.to_dict()}
    try:
        doc["closed_form"] = d2w_closed(prof).to_dict()
    except ValueError:
        pass
    _emit(doc, args.out)
    return EXIT_OK


def _cmd_certify(args) -> int:
    prof = _build_profile(args)
    cert = certify(prof, refine=not args.no_refine)
    _emit(cert.to_json(), args.out)
    print(cert.text_report(), file=sys.stderr)
    try:
        crit = coupled_stability_criteria(prof)
    except ValueError:
        pass        # no closed form for this profile
    else:
        print(f"closed-form case {crit['case']}: "
              f"{'stable' if crit['stable'] else 'unstable'}", file=sys.stderr)
    if cert.certified:
        return EXIT_OK
    if cert.verdict.startswith("indeterminate"):
        return EXIT_INDETERMINATE
    return EXIT_FAILED


def _cmd_planewave(args) -> int:
    params = Coupled(alpha=args.alpha, gamma=args.gamma, delta=args.delta,
                     beta=args.beta, k=args.k)
    table = mode_table(params, (args.zeta1, args.zeta2), args.length, n_max=args.nmax)
    if args.json:
        _emit(table.to_json(), args.out)
    else:
        _emit(table.to_csv(), args.out)
    print(f"coercive {table.coercive}; linearly stable {table.linearly_stable}",
          file=sys.stderr)
    return EXIT_OK


def _cmd_evolve(args) -> int:
    prof = _build_profile(args)
    try:
        series = stability_experiment(
            prof, eps=args.eps, dt=args.dt, t_end=args.tend,
            kind=args.perturbation, seed=args.seed, mode_n=args.mode,
            sample_stride=args.stride,
        )
    except BlowUpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    _emit(distances_to_csv(series), args.out)
    line = f"max distance {series.max_distance:.6e}; verdict {series.verdict}"
    if series.growth_rate is not None:
        line += f"; growth rate {series.growth_rate:.4f}"
    print(line, file=sys.stderr)
    return EXIT_OK


def _cmd_so3(args) -> int:
    cert = certify_so3(args.rho, args.omega_pot, args.so3_alpha)
    from .so3 import circular_orbit, integrate_so3, orbit_distance

    state = circular_orbit(args.rho, args.omega_pot, args.so3_alpha)
    rng = np.random.default_rng(args.seed)
    dq = rng.standard_normal(3)
    dp = rng.standard_normal(3)
    scale = args.eps / np.sqrt(np.dot(dq, dq) + np.dot(dp, dp))
    times, qs, ps, energies, f_drift = integrate_so3(
        state, args.dt, args.tend, q0=state.q + scale * dq, p0=state.p + scale * dp
    )
    dists = orbit_distance(state, qs, ps)
    doc = json.loads(cert.to_json())
    doc["experiment"] = {
        "eps": args.eps,
        "max_distance": float(np.max(dists)),
        "energy_drift": float(np.max(np.abs(energies - energies[0]))),
        "angular_momentum_drift": f_drift,
    }
    _emit(doc, args.out)
    if cert.certified:
        return EXIT_OK
    return EXIT_FAILED


def build_parser(defaults: Optional[dict] = None) -> argparse.ArgumentParser:
    """The vkstab parser; `defaults` (from a config file) replace the option
    defaults of the root parser and of every subcommand."""
    parser = argparse.ArgumentParser(
        prog="vkstab",
        description="relative-equilibrium computation and stability certification",
    )
    parser.add_argument("--config", default=None,
                        help="INI or JSON config file providing option defaults")
    parser.add_argument("--seed", type=int, default=0, help="RNG seed")
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("profile", help="solve and emit an equilibrium profile")
    _add_profile_args(sp)
    sp.set_defaults(func=_cmd_profile)

    sp = subs.add_parser("spectrum", help="Hessian spectrum of a profile")
    _add_profile_args(sp)
    sp.add_argument("--n-eigs", type=int, default=12, help="eigenvalues to report")
    sp.set_defaults(func=_cmd_spectrum)

    sp = subs.add_parser("slope", help="slope matrix of the reduced energy")
    _add_profile_args(sp)
    sp.set_defaults(func=_cmd_slope)

    sp = subs.add_parser("certify", help="full stability certificate")
    _add_profile_args(sp)
    sp.add_argument("--no-refine", action="store_true",
                    help="skip the grid-refinement check of the spectral gap")
    sp.set_defaults(func=_cmd_certify)

    sp = subs.add_parser("planewave", help="plane-wave mode table and verdicts")
    sp.add_argument("--alpha", type=float, required=True, help="self-coupling 1")
    sp.add_argument("--gamma", type=float, required=True, help="self-coupling 2")
    sp.add_argument("--delta", type=float, required=True, help="cross-coupling")
    sp.add_argument("--beta", type=float, default=1.0, help="dispersion coefficient")
    sp.add_argument("--k", type=float, default=0.0, help="wavenumber offset")
    sp.add_argument("--zeta1", type=float, default=1.0, help="amplitude 1")
    sp.add_argument("--zeta2", type=float, default=1.0, help="amplitude 2")
    sp.add_argument("--length", type=float, default=2 * np.pi, help="torus length")
    sp.add_argument("--nmax", type=int, default=8, help="highest Fourier mode")
    sp.add_argument("--json", action="store_true", help="emit JSON instead of CSV")
    sp.add_argument("--out", default="", help="output file (default stdout)")
    sp.set_defaults(func=_cmd_planewave)

    sp = subs.add_parser("evolve", help="perturb, evolve, and track orbit distance")
    _add_profile_args(sp)
    sp.add_argument("--eps", type=float, default=1e-3, help="perturbation size")
    sp.add_argument("--dt", type=float, default=1e-3, help="time step")
    sp.add_argument("--tend", type=float, default=20.0, help="final time")
    sp.add_argument("--perturbation", default="band_limited",
                    choices=["band_limited", "single_mode", "kernel_orthogonal"],
                    help="perturbation class")
    sp.add_argument("--mode", type=int, default=1, help="mode index for single_mode")
    sp.add_argument("--stride", type=int, default=100, help="sampling stride")
    sp.set_defaults(func=_cmd_evolve)

    sp = subs.add_parser("so3", help="central-force example report")
    sp.add_argument("--rho", type=float, default=1.0, help="orbit radius")
    sp.add_argument("--omega-pot", type=float, default=1.0, dest="omega_pot",
                    help="potential stiffness")
    sp.add_argument("--alpha", type=float, default=1.0, dest="so3_alpha",
                    help="momentum-squared coupling")
    sp.add_argument("--eps", type=float, default=1e-3, help="perturbation size")
    sp.add_argument("--dt", type=float, default=1e-2, help="time step")
    sp.add_argument("--tend", type=float, default=100.0, help="final time")
    sp.add_argument("--out", default="", help="output file (default stdout)")
    sp.set_defaults(func=_cmd_so3)

    if defaults:
        # A subcommand copies its own defaults over the root namespace, so
        # the root option --seed takes its config value from the root only.
        parser.set_defaults(**defaults)
        for sub in subs.choices.values():
            sub.set_defaults(**{k: v for k, v in defaults.items() if k != "seed"})
    return parser


def main(argv=None) -> int:
    # a config file provides defaults; explicit flags still win
    args, _ = build_parser().parse_known_args(argv)
    defaults = {}
    if args.config:
        try:
            defaults = _load_config(args.config)
        except (OSError, ValueError, configparser.Error) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT
    args = build_parser(defaults).parse_args(argv)
    try:
        return args.func(args)
    except (SolverError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
