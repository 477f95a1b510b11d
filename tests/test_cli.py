"""Command-line interface: subcommands, configs, exit codes."""

import json

import numpy as np
import pytest

from vkstab.cli import main


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
    assert spec["parts"] == [[129, "even"], [127, "odd"], [129, "even"], [127, "odd"]]


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


EVOLVE = ["evolve", "--n", 256, "--tend", 0.5, "--dt", 0.01]


@pytest.mark.parametrize("eps", [0, -1e-3, "nan"])
def test_evolve_rejects_an_eps_that_is_not_positive(tmp_path, capsys, eps):
    out = tmp_path / "dist.csv"
    assert run(EVOLVE + ["--eps", eps, "--out", out]) == 2
    assert "eps must be finite and positive" in capsys.readouterr().err
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
    assert "omega_pot must be positive" in capsys.readouterr().err
    assert not out.exists()
