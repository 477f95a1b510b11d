"""Command-line interface: subcommands, configs, exit codes."""

import json

import numpy as np
import pytest

import vkstab as vk
from vkstab.cli import main

import dense_oracle as dense


def run(args):
    return main([str(a) for a in args])


def test_profile_then_spectrum_round_trip(tmp_path):
    prof_file = tmp_path / "prof.json"
    spec_file = tmp_path / "spec.json"
    assert run(["profile", "--model", "nls", "--omega", -1.0, "--p", 3,
                "--extent", 20, "--n", 256, "--out", prof_file]) == 0
    doc = json.loads(prof_file.read_text())
    assert "field" in doc or "values" in doc or "re" in json.dumps(doc)

    assert run(["spectrum", "--from", prof_file, "--out", spec_file]) == 0
    spec = json.loads(spec_file.read_text())
    assert spec["n_neg"] == 1
    assert spec["dim_ker"] == 2


def test_spectrum_lists_its_eigensolves(tmp_path):
    spec_file = tmp_path / "spec.json"
    assert run(["spectrum", "--model", "nls", "--omega", -1.0, "--p", 3, "--extent", 20,
                "--n", 256, "--n-eigs", 1, "--out", spec_file]) == 0
    spec = json.loads(spec_file.read_text())
    assert len(spec["eigenvalues"]) == 1
    assert (spec["n_neg"], spec["dim_ker"]) == (1, 2)
    # the Schur complements of L+ and L-, each in its cosine and sine sector
    assert spec["parts"] == [[24, "even"], [23, "odd"], [15, "even"], [14, "odd"]]


def test_spectrum_shows_the_lowest_eigenvalues_within_their_bounds(tmp_path):
    """`--n-eigs 12` shows the 12 lowest eigenvalues, each by Newton's method
    on the Schur complements, within its recorded error of the dense
    oracle's."""
    spec_file = tmp_path / "spec.json"
    assert run(["spectrum", "--model", "nls", "--omega", -1.0, "--p", 3, "--extent", 20,
                "--n", 256, "--n-eigs", 12, "--out", spec_file]) == 0
    spec = json.loads(spec_file.read_text())
    prof = vk.soliton_solve(-1.0, 3.0, vk.make_grid("line", 20.0, 256))
    want = np.linalg.eigvalsh(dense.matrix(prof))
    roundoff = 64 * np.finfo(float).eps * np.max(np.abs(want))
    got, errors = np.array(spec["eigenvalues"]), np.array(spec["errors"])
    assert got.size == errors.size == 12
    assert np.all(np.abs(got - want[:12]) <= errors + roundoff)
    assert np.all(errors <= 1e-12)


def test_slope_reports_both_methods(tmp_path):
    out = tmp_path / "slope.json"
    assert run(["slope", "--model", "nls", "--omega", -1.0, "--p", 3,
                "--extent", 20, "--n", 256, "--out", out]) == 0
    doc = json.loads(out.read_text())
    closed = np.array(doc["closed_form"]["d2w"]).reshape(2, 2)
    fd = np.array(doc["finite_difference"]["d2w"]).reshape(2, 2)
    assert np.allclose(closed, [[1, 0], [0, -1]], atol=1e-10)
    assert np.max(np.abs(fd - closed)) < 1e-6


def test_certify_exit_codes(tmp_path):
    ok = run(["certify", "--model", "nls", "--omega", -1.0, "--p", 3,
              "--extent", 20, "--n", 256, "--out", tmp_path / "c.json"])
    assert ok == 0
    bad = run(["certify", "--model", "nls", "--omega", -1.0, "--p", 5.1,
               "--extent", 20, "--n", 256, "--out", tmp_path / "c2.json"])
    assert bad == 3
    doc = json.loads((tmp_path / "c2.json").read_text())
    assert doc["verdict"].startswith("failed(")


def test_planewave_json_and_csv(tmp_path, capsys):
    out = tmp_path / "pw.json"
    code = run(["planewave", "--alpha", -1, "--gamma", -1, "--delta", -0.5,
                "--zeta1", 1, "--zeta2", 1, "--length", 2 * np.pi,
                "--nmax", 6, "--json", "--out", out])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["coercive"] is True
    # CSV to stdout
    assert run(["planewave", "--alpha", -1, "--gamma", -1, "--delta", -0.5,
                "--zeta1", 1, "--zeta2", 1, "--length", 2 * np.pi,
                "--nmax", 4]) == 0
    captured = capsys.readouterr().out
    assert "lam_plus_plus" in captured


def test_evolve_writes_distance_series(tmp_path):
    out = tmp_path / "dist.csv"
    code = run(["evolve", "--model", "nls", "--omega", -1.0, "--p", 3,
                "--extent", 20, "--n", 128, "--eps", 1e-4, "--dt", 0.01,
                "--tend", 1.0, "--out", out])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,distance"
    assert len(lines) > 2


def test_so3_subcommand(tmp_path):
    out = tmp_path / "so3.json"
    assert run(["so3", "--tend", 5, "--eps", 1e-3, "--out", out]) == 0
    doc = json.loads(out.read_text())
    assert doc["verdict"] == "certified_coercive"
    assert doc["experiment"]["max_distance"] <= 1e-2


def test_so3_exit_code_follows_the_verdict(tmp_path):
    """alpha = 0.5000016 and 0.5000009 are 3.2e-6 and 1.8e-6 above the
    existence threshold: two Hessian eigenvalues of that size count as
    negative, as the closed form's signs give, and match the slope index.
    The smallest slope eigenvalue clears h1's fixed tolerance by 3.2 and
    1.8: certified, exit 0, and indeterminate, exit 4, as from `certify`."""
    out = tmp_path / "so3.json"
    assert run(["so3", "--alpha", 0.5000016, "--tend", 1, "--out", out]) == 0
    assert json.loads(out.read_text())["verdict"] == "certified_coercive"
    assert run(["so3", "--alpha", 0.5000009, "--tend", 1, "--out", out]) == 4
    assert json.loads(out.read_text())["verdict"] == "indeterminate(h1)"


def test_ini_config_supplies_defaults(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[model]\nmodel = nls\np = 3\n"
        "[grid]\nkind = line\nextent = 20\nn = 256\n"
        "[run]\nomega = -1.0\n"
    )
    out = tmp_path / "cert.json"
    assert run(["--config", cfg, "certify", "--out", out]) == 0
    assert json.loads(out.read_text())["verdict"] == "certified_coercive"


def test_json_config_and_flag_override(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "model": {"model": "nls", "p": 5.1},
        "grid": {"kind": "line", "extent": 20, "n": 256},
        "run": {"omega": -1.0},
    }))
    # config alone: supercritical fails
    assert run(["--config", cfg, "certify", "--out", tmp_path / "a.json"]) == 3
    # explicit flag overrides the config value
    assert run(["--config", cfg, "certify", "--p", 3,
                "--out", tmp_path / "b.json"]) == 0


def test_config_kinds_select_grid_and_perturbation(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[model]\nmodel = coupled\nalpha = -1\ngamma = -1\ndelta = -0.5\n"
        "[grid]\nkind = periodic\nextent = 6.283185307179586\nn = 16\n"
        "[run]\nkind = single_mode\neps = 1e-5\ndt = 0.01\ntend = 0.1\n"
    )
    out = tmp_path / "dist.csv"
    assert run(["--config", cfg, "evolve", "--out", out]) == 0
    assert out.read_text().splitlines()[0] == "t,distance"
    cfg.write_text(cfg.read_text().replace("single_mode", "bogus"))
    assert run(["--config", cfg, "evolve", "--out", out]) == 2


def test_solver_section_is_rejected(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[solver]\nfd_step = 5.0\n")
    assert run(["--config", cfg, "slope", "--n", 128]) == 2


def test_plane_wave_profile_file_certifies(tmp_path):
    for delta, code in ((-0.5, 0), (-2.0, 3)):
        prof_file = tmp_path / f"pw{delta}.json"
        assert run(["profile", "--model", "coupled", "--grid-kind", "periodic",
                    "--alpha", -1, "--gamma", -1, "--delta", delta,
                    "--extent", 2 * np.pi, "--n", 128, "--out", prof_file]) == 0
        assert run(["certify", "--from", prof_file,
                    "--out", tmp_path / "cert.json"]) == code


def test_coupled_profile_file_has_closed_form_slope(tmp_path):
    prof_file = tmp_path / "c.json"
    out = tmp_path / "slope.json"
    assert run(["profile", "--model", "coupled", "--n", 256, "--out", prof_file]) == 0
    assert run(["slope", "--from", prof_file, "--out", out]) == 0
    assert "closed_form" in json.loads(out.read_text())


def test_unknown_config_entries_are_rejected(tmp_path):
    bad_section = tmp_path / "bad1.ini"
    bad_section.write_text("[banana]\nomega = -1\n")
    assert run(["--config", bad_section, "certify"]) == 2
    bad_key = tmp_path / "bad2.ini"
    bad_key.write_text("[model]\nbogus = 1\n")
    assert run(["--config", bad_key, "certify"]) == 2
    dead_key = tmp_path / "bad3.ini"
    dead_key.write_text("[model]\nd = 3\n")
    assert run(["--config", dead_key, "certify"]) == 2


@pytest.mark.parametrize("doc", ["[1]", '{"model": 3}'])
def test_a_config_that_is_not_an_object_of_sections_is_rejected(tmp_path, doc):
    config = tmp_path / "bad.json"
    config.write_text(doc)
    assert run(["--config", config, "certify"]) == 2


def _without(key):
    doc = vk.soliton_explicit(-1.0, vk.make_grid("line", 20.0, 64)).to_dict()
    del doc[key]
    return doc


@pytest.mark.parametrize("command", ["certify", "spectrum", "slope", "evolve"])
@pytest.mark.parametrize("doc, named", [
    ({}, "'grid'"),
    (_without("xi"), "'xi'"),
    (_without("values"), "'values'"),
    ({**_without("values"), "values": [3]}, "malformed"),
    ([1, 2], "not list"),
])
def test_a_malformed_profile_file_is_an_input_error(tmp_path, capsys, command, doc, named):
    prof_file = tmp_path / "prof.json"
    prof_file.write_text(json.dumps(doc))
    assert run([command, "--from", prof_file]) == 2
    assert named in capsys.readouterr().err


def test_missing_profile_file_is_an_input_error(tmp_path):
    assert run(["spectrum", "--from", tmp_path / "nope.json"]) == 2


@pytest.mark.parametrize("dt, tend", [
    (0, 100),          # no step size
    (-0.01, 100),      # steps away from the final time
    (0.03, 1),         # the final time is not on the step lattice
])
def test_so3_rejects_an_invalid_time_lattice(tmp_path, dt, tend):
    out = tmp_path / "so3.json"
    assert run(["so3", "--dt", dt, "--tend", tend, "--out", out]) == 2
    assert not out.exists()


@pytest.mark.parametrize("eps, message", [
    # at seed 0 the perturbation direction is shorter than 1, so this eps
    # overflows its scale and the start is not finite
    (1.7e308, "q0 must be a finite 3-vector"),
    # a finite start whose angular momentum q0 x p0 overflows
    (1e200, "q0 x p0 must be finite"),
])
def test_so3_rejects_a_start_that_overflows(tmp_path, capsys, eps, message):
    out = tmp_path / "so3.json"
    with np.errstate(over="ignore"):
        assert run(["--seed", 0, "so3", "--eps", eps, "--tend", 1, "--out", out]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


EVOLVE = ["evolve", "--n", 256, "--tend", 0.5, "--dt", 0.01]


@pytest.mark.parametrize("eps", [0, -1e-3, "nan"])
def test_evolve_rejects_an_eps_that_is_not_positive(tmp_path, capsys, eps):
    out = tmp_path / "dist.csv"
    assert run(EVOLVE + ["--eps", eps, "--out", out]) == 2
    assert "eps must be finite and positive" in capsys.readouterr().err
    assert not out.exists()


def test_evolve_rejects_a_boost_the_grid_does_not_resolve(tmp_path, capsys):
    out = tmp_path / "dist.csv"
    assert run(EVOLVE + ["--model", "coupled", "--c", 45, "--eps", 1e-4, "--out", out]) == 2
    assert "beyond the grid's Nyquist wavenumber" in capsys.readouterr().err
    assert not out.exists()


def test_evolve_blowup_is_an_input_error(tmp_path, capsys):
    out = tmp_path / "dist.csv"
    assert run(EVOLVE + ["--eps", 1e9, "--out", out]) == 2
    assert "error: blow-up detected at t = 0.01" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("omega_pot", [-1, 0])
def test_so3_rejects_a_potential_that_is_not_confining(tmp_path, capsys, omega_pot):
    out = tmp_path / "so3.json"
    assert run(["so3", "--omega-pot", omega_pot, "--out", out]) == 2
    assert "omega_pot must be finite and positive" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args, name", [
    (["so3", "--eps", "nan", "--tend", 1], "eps"),
    (["so3", "--eps", -1, "--tend", 1], "eps"),
    (["so3", "--rho", "nan"], "rho"),
    (["so3", "--alpha", "nan"], "alpha"),
    (EVOLVE + ["--extent", "nan"], "extent"),
])
def test_an_input_that_is_not_finite_and_positive_is_named(tmp_path, capsys, args, name):
    out = tmp_path / "out"
    assert run(args + ["--out", out]) == 2
    assert f"error: {name} must be finite and positive" in capsys.readouterr().err
    assert not out.exists()


PLANEWAVE = ["planewave", "--alpha", 1, "--gamma", 1, "--delta", 2]


@pytest.mark.parametrize("args, name", [
    (PLANEWAVE + ["--length", 0], "length"),
    (PLANEWAVE + ["--length", -1], "length"),
    (PLANEWAVE + ["--length", "nan"], "length"),
    (PLANEWAVE + ["--length", "inf"], "length"),
    (PLANEWAVE + ["--alpha", "nan"], "alpha"),
    (PLANEWAVE + ["--beta", "nan"], "beta"),
    (PLANEWAVE + ["--k", "nan"], "k"),
    (PLANEWAVE + ["--zeta2", "inf"], "zeta2"),
    (["certify", "--model", "coupled", "--grid-kind", "periodic", "--extent", 2 * np.pi,
      "--n", 64, "--beta", "nan"], "beta"),
    (["profile", "--p", "nan", "--n", 64], "p"),
])
def test_a_model_or_plane_wave_input_that_is_not_finite_is_named(tmp_path, capsys, args,
                                                                 name):
    out = tmp_path / "out"
    assert run(args + ["--out", out]) == 2
    assert f"{name} must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_spectrum_rejects_a_negative_eigenvalue_count(tmp_path, capsys):
    out = tmp_path / "spec.json"
    assert run(["spectrum", "--n", 256, "--n-eigs", -3, "--out", out]) == 2
    assert "n_eigs must not be negative" in capsys.readouterr().err
    assert not out.exists()


def _mutations(doc):
    """(name, document) for each one-entry mutation of a profile document:
    every top-level key dropped, null, of the wrong type, of the wrong
    length, NaN; a wrong n; the grid's kind or the model's type swapped."""
    out = []
    for key, value in doc.items():
        out += [(f"{key}_dropped", {k: v for k, v in doc.items() if k != key}),
                (f"{key}_null", {**doc, key: None}),
                (f"{key}_string", {**doc, key: "x"}),
                (f"{key}_nan", {**doc, key: float("nan")})]
        if isinstance(value, list):
            out += [(f"{key}_short", {**doc, key: value[:-1]}),
                    (f"{key}_long", {**doc, key: value + value[:1]})]
            if value and not isinstance(value[0], list):
                out.append((f"{key}_nan_entry", {**doc, key: [float("nan")] + value[1:]}))
        elif isinstance(value, dict):
            out.append((f"{key}_short", {**doc, key: dict(list(value.items())[:-1])}))
        else:
            out.append((f"{key}_long", {**doc, key: [1.0, 1.0, 1.0]}))
    kind = {"line": "periodic", "periodic": "line"}[doc["grid"]["kind"]]
    out += [("n_halved", {**doc, "grid": {**doc["grid"], "n": doc["grid"]["n"] // 2}}),
            ("kind_swapped", {**doc, "grid": {**doc["grid"], "kind": kind}})]
    other = {"single_nls": {"type": "coupled", "alpha": 1.0, "gamma": 1.0, "delta": 2.0,
                            "beta": 1.0, "k": 0.0},
             "coupled": {"type": "single_nls", "p": 3.0, "d": 1}}[doc["model"]["type"]]
    out += [("model_swapped", {**doc, "model": other}),
            ("type_swapped", {**doc, "model": {**doc["model"], "type": other["type"]}})]
    return out


FUZZ_DOCS = {
    "cubic": vk.soliton_explicit(-1.0, vk.make_grid("line", 20.0, 128)).to_dict(),
    "torus": vk.plane_wave(1.0, 1.0, vk.Coupled(-1.0, -1.0, -0.5),
                           vk.make_grid("periodic", 2 * np.pi, 32)).to_dict(),
}


@pytest.mark.parametrize("base", sorted(FUZZ_DOCS))
@pytest.mark.parametrize("command", ["certify", "spectrum", "slope", "evolve"])
def test_a_mutated_profile_document_never_ends_in_a_traceback(tmp_path, capsys, base, command):
    prof_file = tmp_path / "prof.json"
    extra = ["--dt", 0.01, "--tend", 0.05, "--stride", 1] if command == "evolve" else []
    for name, doc in _mutations(FUZZ_DOCS[base]):
        prof_file.write_text(json.dumps(doc))
        code = run([command, "--from", prof_file, "--out", tmp_path / "out"] + extra)
        err = capsys.readouterr().err
        assert code in (0, 2, 3, 4), name
        assert (code == 2) == err.startswith("error: "), (name, err)
