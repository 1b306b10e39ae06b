import csv
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import magflow
from magflow import SeedLoop, critical_values, latitude_loop, lifted_action_A, variational
from magflow.cli import _DEPRECATED, _SCHEMA, main, parse_config
from magflow.critical_values import _symmetric_witness
from magflow.errors import NearZeroVector, ParseError, ValidationError
from magflow.loop_space import lifted_to_dict

MINIMAL = """
# minimal round system with the shifted height density
system.density = height(1.0, 0.2)
run.energy = 0.02
"""


def write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def nan_node_loop():
    nodes = latitude_loop(0.0, 32).nodes.copy()
    nodes[3, 1] = np.nan
    return nodes


def polynomial_oracle(system, e_max, out, tol=1e-4):
    """The critical-values payload and witness of a zonal round system, with
    the latitude threshold evaluated by numpy Polynomial objects on numpy
    scalars and maximized by a grid scan and golden-section search."""
    poly = np.polynomial.Polynomial
    cap = poly(system.density.zonal_coeffs).integ(lbnd=-1.0)
    pot = poly(system.potential.zonal_coeffs)

    def threshold(z):
        p = 2.0 * np.pi * cap(z) / (2.0 * np.pi)
        return np.where(p < 0.0, pot(z) + p * p / (2.0 * (1.0 - z * z)), -np.inf)

    candidates = np.concatenate(([-1.0, 1.0], np.clip(pot.deriv().roots().real, -1.0, 1.0)))
    e0 = float(pot(candidates).max())
    z_grid = np.linspace(-1.0, 1.0, 403)[1:-1]
    vals = threshold(z_grid)
    k = int(np.argmax(vals))
    lo, hi = z_grid[max(k - 1, 0)], z_grid[min(k + 1, len(z_grid) - 1)]
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    c, d = hi - inv_phi * (hi - lo), lo + inv_phi * (hi - lo)
    fc, fd = -threshold(c), -threshold(d)
    while hi - lo > 1e-12:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - inv_phi * (hi - lo)
            fc = -threshold(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + inv_phi * (hi - lo)
            fd = -threshold(d)
    z_star, peak = (float(c), -float(fc)) if fc < fd else (float(d), -float(fd))
    if not peak > vals[k]:
        z_star, peak = float(z_grid[k]), float(vals[k])
    value = min(e_max, peak)
    assert value > e0
    for back in (tol, 2 * tol, 5 * tol, 1e-2, 5e-2):
        e_w = value - back
        if e_w <= e0:
            break
        u = pot(z_star)
        circle = 2.0 * np.pi * np.sqrt(1.0 - z_star**2) * np.sqrt(2.0 * (e_w - u))
        if e_w <= u or circle + 2.0 * np.pi * cap(z_star) >= 0:
            continue
        witness = _symmetric_witness(system, e_w, z_star)
        action = lifted_action_A(system, e_w, witness)
        if action < 0:
            break
    certificate = {
        "energy": e_w,
        "action_value": float(action),
        "loop_file": str(out / "e1_witness.json"),
    }
    return {
        "schema_version": 1,
        "command": "critical-values",
        "e0": e0,
        "e1_lower_bound": value,
        "negative_configuration_found": True,
        "method": "symmetric-latitude-oracle",
        "certificate": certificate,
    }, witness


class TestParseConfig:
    def test_minimal_defaults(self, tmp_path):
        cfg = parse_config(write(tmp_path, MINIMAL))
        assert cfg.system().is_round
        assert cfg["discretization.loop_nodes"] == 128
        assert cfg["solver.tol"] == 1e-6
        assert cfg["run.energy"] == 0.02
        assert cfg["system.density"].coeffs == (0.0, 0.0, 1.0, 0.2)

    def test_unknown_key(self, tmp_path):
        path = write(tmp_path, MINIMAL + "sigma.foo = 1\n")
        with pytest.raises(ValidationError) as err:
            parse_config(path)
        assert err.value.key == "sigma.foo"

    def test_node_minimum_enforced(self, tmp_path):
        path = write(tmp_path, MINIMAL + "discretization.loop_nodes = 8\n")
        with pytest.raises(ValidationError) as err:
            parse_config(path)
        assert err.value.key == "discretization.loop_nodes"

    def test_malformed_line(self, tmp_path):
        path = write(tmp_path, "system.density height(1,0)\n")
        with pytest.raises(ParseError) as err:
            parse_config(path)
        assert err.value.line_no == 1

    def test_bad_field_spec(self, tmp_path):
        path = write(tmp_path, "system.density = wiggle(1.0)\n")
        with pytest.raises(ValidationError):
            parse_config(path)

    def test_grid_forms(self, tmp_path):
        cfg = parse_config(write(tmp_path, "run.energy_grid = 0.02:0.06:0.02\n"))
        assert cfg["run.energy_grid"] == pytest.approx([0.02, 0.04, 0.06])
        cfg = parse_config(write(tmp_path, "run.energy_grid = 0.1,0.2\n"))
        assert cfg["run.energy_grid"] == pytest.approx([0.1, 0.2])

    def test_labels(self, tmp_path):
        cfg = parse_config(write(tmp_path, "run.labels = (1,0);(2,0);(1,1)\n"))
        assert cfg["run.labels"] == [(1, 0), (2, 0), (1, 1)]

    def test_metric_key_cannot_drop_the_exponent(self, tmp_path, capsys):
        text = MINIMAL + "system.metric = round\nsystem.conformal_exponent = height(0.5, 0.0)\n"
        system = parse_config(write(tmp_path, text)).system()
        assert system.is_round is False
        assert system.conformal_exponent == magflow.ScalarField.height(0.5, 0.0)
        warning = capsys.readouterr().err.splitlines()
        assert len(warning) == 1 and warning[0].startswith("warning: system.metric is ignored")

    def test_drift_rate(self, tmp_path):
        assert parse_config(write(tmp_path, MINIMAL)).system().drift == 0.0
        cfg = parse_config(write(tmp_path, MINIMAL + "system.drift = azimuthal(0.25)\n"))
        assert cfg.system().drift == 0.25
        with pytest.raises(ValidationError):
            parse_config(write(tmp_path, MINIMAL + "system.drift = azimuthal(0.25, 1)\n"))

    def test_schema_size(self):
        assert len(_SCHEMA) == 21

    def test_readme_config_table_names_every_key(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        table = readme.split("### Config schema", 1)[1].split("\n\n", 2)[1]
        rows = [line.split("|")[1] for line in table.splitlines()[2:]]
        documented = {key for cell in rows for key in re.findall(r"`([a-z_]+\.[a-z0-9_]+)`", cell)}
        assert documented == set(_SCHEMA) | set(_DEPRECATED)

    def test_system_construction(self, tmp_path):
        cfg = parse_config(write(tmp_path, MINIMAL))
        system = cfg.system()
        assert system.density.coeffs[2] == 1.0


class TestCommands:
    def test_flow_csv(self, tmp_path, capsys):
        cfg = write(
            tmp_path,
            """
system.density = constant(1.0)
flow.q0 = 1,0,0
flow.v0 = 0,1,0
flow.time = 2.0
flow.step = 1e-2
""",
        )
        code = main(["flow", "--config", cfg, "--out", str(tmp_path)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == 1
        assert payload["energy_drift"] < 1e-8
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "t,qx,qy,qz,vx,vy,vz,E"
        assert len(lines) == 202
        first = [float(tok) for tok in lines[1].split(",")]
        assert first[:4] == [0.0, 1.0, 0.0, 0.0]
        assert first[7] == pytest.approx(0.5)

    def test_critical_values_json(self, tmp_path, capsys):
        cfg = write(tmp_path, "system.density = height(1.0, 0.0)\nrun.e_max = 0.3\n")
        code = main(["critical-values", "--config", cfg, "--out", str(tmp_path)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["e0"] == pytest.approx(0.0, abs=1e-12)
        assert payload["e1_lower_bound"] == pytest.approx(0.125, abs=1e-3)
        assert payload["negative_configuration_found"] is True
        assert (tmp_path / "e1_witness.json").exists()

    @pytest.mark.parametrize(
        "line",
        ["system.drift = azimuthal(1e300)", "system.conformal_exponent = height(800, 0)"],
        ids=["drift-overflow", "metric-overflow"],
    )
    @pytest.mark.filterwarnings("error")
    def test_overflowing_system_exits_one(self, tmp_path, capsys, line):
        # the general descent meets an infinite or NaN action on its first
        # seed; it stops there instead of running every seed's whole budget.
        # A numpy RuntimeWarning would print before the error line, and here
        # it raises instead
        cfg = write(tmp_path, f"system.density = height(1.0, 0.0)\n{line}\n")
        start = time.perf_counter()
        code = main(["critical-values", "--config", cfg, "--out", str(tmp_path)])
        assert time.perf_counter() - start < 10.0
        err = capsys.readouterr().err
        assert code == 1
        assert len(err.splitlines()) == 1 and "error: NonFiniteAction" in err

    @pytest.mark.parametrize("command", ["flow", "orbit-check"])
    def test_math_overflow_exits_one(self, tmp_path, command):
        # the conformal factor exp(800) overflows math.exp in the RK4
        # equations; the process prints one error line, not a traceback
        lines = "system.conformal_exponent = constant(-400)\n"
        if command == "orbit-check":
            loop_path = tmp_path / "loop.json"
            loop = {"nodes": latitude_loop(0.0, 32).nodes.tolist(), "p": 1.0, "flux": 0.0}
            loop_path.write_text(json.dumps(loop))
            lines += f"run.energy = 0.02\nrun.loop_file = {loop_path}\n"
        cfg = write(tmp_path, lines)
        src = str(Path(magflow.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-m", "magflow.cli", command, "--config", cfg, "--out", str(tmp_path)],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
        )
        assert out.returncode == 1
        assert "Traceback" not in out.stderr
        assert len(out.stderr.splitlines()) == 1
        assert out.stderr.startswith("error: OverflowError")

    def test_symmetric_oracle_error_is_not_a_fallback(self, tmp_path, capsys, monkeypatch):
        # only a non-symmetric system sends critical-values to the general
        # descent; a failed witness lift is an error of the oracle's run
        def near_zero(sys, e, z0):
            raise NearZeroVector("norm 0.000e+00 too small to project")

        def refuse(*args, **kwargs):
            pytest.fail("the general descent ran")

        monkeypatch.setattr(critical_values, "_symmetric_witness", near_zero)
        monkeypatch.setattr(critical_values, "e1_lower_bound_general", refuse)
        cfg = write(tmp_path, "system.density = height(1.0, 0.0)\nrun.e_max = 0.3\n")
        code = main(["critical-values", "--config", cfg, "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.splitlines() == [
            "error: NearZeroVector: norm 0.000e+00 too small to project"
        ]

    @pytest.mark.parametrize(
        "system_lines",
        [
            "system.density = height(1.0, 0.0)",
            "system.density = height(1.0, 0.2)\nsystem.potential = zonal_poly(0.0, 0.0, 0.05)",
            "system.density = zonal_poly(0.0, -1.0, 0.0, 3.0)",
        ],
        ids=["z", "z+0.2-quadratic-potential", "3z^3-z"],
    )
    def test_critical_values_match_polynomial_formula(self, tmp_path, capsys, system_lines):
        # stdout and witness bytes equal those of the oracle evaluated with
        # numpy Polynomial objects and numpy scalars, written by json.dumps
        cfg = write(tmp_path, f"{system_lines}\nrun.e_max = 0.3\n")
        code = main(["critical-values", "--config", cfg, "--out", str(tmp_path)])
        assert code == 0
        payload, witness = polynomial_oracle(parse_config(cfg).system(), 0.3, tmp_path)
        expect = json.dumps(payload, sort_keys=True, indent=1) + "\n"
        assert capsys.readouterr().out == expect
        assert (tmp_path / "e1_witness.json").read_text() == json.dumps(
            lifted_to_dict(witness), indent=1, sort_keys=True
        )

    def test_waist_valley_seed_exit_one(self, tmp_path, capsys):
        cfg = write(
            tmp_path,
            """
system.density = height(1.0, 0.0)
run.energy = 0.02
run.seed_z0 = 0.9995
run.seed_amplitude = 0.0
discretization.loop_nodes = 32
""",
        )
        code = main(["waist", "--config", cfg, "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "ValleyCollapse" in err

    def test_waist_nonconvergence_exit_two(self, tmp_path, capsys):
        cfg = write(
            tmp_path,
            """
system.density = height(1.0, 0.0)
run.energy = 0.02
solver.max_iter = 2
solver.tol = 1e-14
discretization.loop_nodes = 32
""",
        )
        code = main(["waist", "--config", cfg, "--out", str(tmp_path)])
        assert code == 2
        assert "nonconvergence" in capsys.readouterr().err

    def test_config_error_exit_one(self, tmp_path, capsys):
        cfg = write(tmp_path, "sigma.foo = 1\n")
        code = main(["waist", "--config", cfg, "--out", str(tmp_path)])
        assert code == 1
        assert "sigma.foo" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, line, loop",
        [
            ("waist", "run.energy = -1", None),
            ("waist", "run.energy = nan", None),
            ("waist", "run.energy = inf", None),
            ("flow", "flow.q0 = 1,nan,0", None),
            ("flow", "flow.v0 = 0,1e200,0", None),
            ("scan", "run.energy_grid = 0.1:0.2:0", None),
            ("scan", "run.energy_grid = 0.1,inf", None),
            ("orbit-check", "", 2.0 * latitude_loop(0.0, 32).nodes),
            ("orbit-check", "", nan_node_loop()),
            ("orbit-check", "run.loop_file = {tmp}/absent.json", None),
            ("orbit-check", "run.loop_file = {tmp}", None),
            ("orbit-check", "", {"nodes": latitude_loop(0.0, 32).nodes.tolist(), "flux": 0.0}),
            ("orbit-check", "", {"nodes": latitude_loop(0.0, 32).nodes.tolist(), "p": 1.0}),
            ("orbit-check", "", [1.0, 0.0, 0.0]),
            ("waist", None, None),
            ("scan", "run.energy_grid = 0.1:0.05:0.01", None),
            ("scan", "run.energy_grid = 0.01:0.05:-0.01", None),
            ("scan", "run.energy_grid = 0:1:1e-15", None),
            ("critical-values", "system.drift = azimuthal(0.1)\nrun.grid_step = 1e-9", None),
            ("flow", "flow.time = 1e13", None),
            ("flow", "flow.time = 1.0\nflow.step = 2.0", None),
            ("critical-values", "system.potential = zonal_poly(nan, 1.0)", None),
            ("critical-values", "system.density = height(inf, 0.0)", None),
            ("critical-values", "system.drift = none(5)", None),
            ("scan", "run.labels = (1,0)\nrun.energy_grid = 0.02", None),
            ("waist", "run.seed_amplitude = 1e300", None),
            ("orbit-check", "system.potential = constant(1.0)\nrun.energy = 0.02", latitude_loop(0.0, 32).nodes),
        ],
        ids=["energy-neg", "energy-nan", "energy-inf", "vec3-nan", "v0-overflow", "grid-step-0",
             "grid-inf", "loop-radius-2", "loop-nan-node", "loop-file-missing",
             "loop-file-dir", "loop-no-p", "loop-no-flux", "loop-not-object",
             "config-missing", "grid-reversed", "grid-step-away", "grid-oversized",
             "descent-grid-oversized", "flow-steps-oversized", "flow-step-over-time", "potential-nan",
             "density-inf", "drift-none-args", "scan-one-label", "seed-amplitude-huge",
             "loop-energy-below-potential"],
    )
    def test_malformed_input_exit_one(self, tmp_path, capsys, command, line, loop):
        # loop: node array (saved with p = 1, flux = 0) or a raw JSON payload,
        # named by a line after the given one; line None: --config names a
        # file that does not exist
        if isinstance(loop, np.ndarray):
            loop = {"nodes": loop.tolist(), "p": 1.0, "flux": 0.0}
        if loop is not None:
            loop_path = tmp_path / "loop.json"
            loop_path.write_text(json.dumps(loop))
            line = f"{line}\nrun.loop_file = {loop_path}"
        if line is None:
            cfg = str(tmp_path / "absent.cfg")
        else:
            cfg = write(tmp_path, f"system.density = height(1.0, 0.0)\n{line.format(tmp=tmp_path)}\n")
        code = main([command, "--config", cfg, "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert len(err.splitlines()) == 1 and "error:" in err

    @pytest.mark.parametrize(
        "argv",
        [["wiast", "--config", "{cfg}"], ["waist", "--config", "{cfg}", "--seed", "abc"], ["waist"]],
        ids=["unknown-command", "seed-not-int", "config-flag-missing"],
    )
    def test_malformed_command_line_exit_one(self, tmp_path, capsys, argv):
        # exit code 2 is reserved for nonconvergence
        cfg = write(tmp_path, MINIMAL)
        code = main([arg.format(cfg=cfg) for arg in argv])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error:")

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage:")

    def test_orbit_check_roundtrip(self, tmp_path, capsys):
        cfg = write(
            tmp_path,
            """
system.density = height(1.0, 0.0)
run.energy = 0.02
run.seed_amplitude = 0.02
discretization.loop_nodes = 64
solver.max_iter = 6000
""",
        )
        code = main(["waist", "--config", cfg, "--out", str(tmp_path)])
        assert code == 0
        loop_file = json.loads(capsys.readouterr().out)["loop_file"]
        cfg2 = write(
            tmp_path,
            f"""
system.density = height(1.0, 0.0)
run.energy = 0.02
run.loop_file = {loop_file}
""",
            name="check.cfg",
        )
        code = main(["orbit-check", "--config", cfg2, "--out", str(tmp_path)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        # N = 64 carries a ~2e-3 discretization offset in the action
        assert payload["action"] == pytest.approx(-0.6 * np.pi, abs=4e-3)
        assert abs(payload["report"]["mean_energy_residual"]) < 1e-6

    @pytest.mark.parametrize(
        "command, lines",
        [
            ("waist", "run.seed_amplitude = 0.02\ndiscretization.loop_nodes = 64\nsolver.max_iter = 6000"),
            ("minimax", "run.labels = (1,0);(2,0)\ndiscretization.path_loop_nodes = 512"),
        ],
        ids=["waist", "minimax"],
    )
    def test_orbit_check_reproduces_solver_report(self, tmp_path, capsys, command, lines):
        # certify_orbit builds the whole report from the loop as saved, so a
        # saved waist or saddle reproduces its solver's report bit for bit
        cfg = write(tmp_path, f"system.density = height(1.0, 0.0)\nrun.energy = 0.02\n{lines}\n")
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 0
        solved = json.loads(capsys.readouterr().out)
        cfg2 = write(
            tmp_path,
            f"""
system.density = height(1.0, 0.0)
run.energy = 0.02
run.loop_file = {solved["loop_file"]}
""",
            name="check.cfg",
        )
        assert main(["orbit-check", "--config", cfg2, "--out", str(tmp_path)]) == 0
        assert json.loads(capsys.readouterr().out)["report"] == solved["report"]

    @pytest.mark.parametrize(
        "command, nodes", [("waist", 64), ("minimax", 256), ("scan", 256), ("multiplicity", 256)]
    )
    def test_seed_built_from_all_three_keys(self, tmp_path, capsys, monkeypatch, command, nodes):
        lifts = []

        def refuse(self, sys, e, n):
            lifts.append((self, n))
            raise ValueError("seed recorded, nothing solved")

        monkeypatch.setattr(SeedLoop, "lift", refuse)
        cfg = write(
            tmp_path,
            """
system.density = height(1.0, 0.0)
run.energy = 0.02
run.energy_grid = 0.02
run.seed_z0 = 0.3
run.seed_amplitude = 0.02
run.seed_mode = 5
discretization.loop_nodes = 64
discretization.path_loop_nodes = 256
""",
        )
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) != 0
        capsys.readouterr()
        assert lifts == [(SeedLoop(0.3, 0.02, 5), nodes)]

    def test_waist_nodes_csv_is_numeric(self, tmp_path, capsys):
        cfg = write(
            tmp_path,
            """
system.density = height(1.0, 0.0)
run.energy = 0.02
run.seed_amplitude = 0.02
discretization.loop_nodes = 64
solver.max_iter = 6000
""",
        )
        assert main(["waist", "--config", cfg, "--out", str(tmp_path)]) == 0
        loop_file = json.loads(capsys.readouterr().out)["loop_file"]
        lines = (tmp_path / "waist_nodes.csv").read_text().splitlines()
        assert lines[0] == "x,y,z"
        nodes = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
        assert nodes == json.loads(Path(loop_file).read_text())["nodes"]

    def test_scan_empty_grid(self, tmp_path, capsys):
        cfg = write(tmp_path, "system.density = height(1.0, 0.0)\n")
        code = main(["scan", "--config", cfg, "--out", str(tmp_path)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rows"] == []
        lines = (tmp_path / "scan.csv").read_text().splitlines()
        assert len(lines) == 1  # header only

    def test_scan_csv_quotes_a_status_with_a_comma(self, tmp_path, capsys):
        # the 4-fold waist would have 48 / 4 = 12 nodes, so the row's status
        # is an error message that holds a comma
        cfg = write(
            tmp_path,
            """
system.density = height(1.0, 0.0)
run.energy_grid = 0.02
run.labels = (1,0);(4,0)
discretization.path_loop_nodes = 48
""",
        )
        assert main(["scan", "--config", cfg, "--out", str(tmp_path)]) == 2
        status = json.loads(capsys.readouterr().out)["rows"][0]["status"]
        assert status == "error: ValueError: need at least 16 nodes, got 12"
        with open(tmp_path / "scan.csv", newline="") as fh:
            header, *rows = csv.reader(fh)
        assert [len(row) for row in rows] == [len(header)]
        assert rows[0][header.index("status")] == repr(status)

    def test_unpolished_saddle_has_one_verdict(self, tmp_path, capsys, monkeypatch):
        # with Newton failing, minimax, scan and multiplicity judge the
        # unpolished chain maximum by one rule and give one reason
        monkeypatch.setattr(variational, "refine_stationary", lambda sys, e, loop, tol: (loop, 1.0))
        cfg = write(tmp_path, TestSchemaStability.TINY + "run.energy_grid = 0.02\n")
        out = {}
        for command in ("minimax", "scan", "multiplicity"):
            assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
            out[command] = json.loads(capsys.readouterr().out)
        assert not out["minimax"]["converged"]
        reason = f"nonconvergence (saddle grad {out['minimax']['saddle_gradient_norm']:.2e})"
        assert out["scan"]["rows"][0]["status"] == reason
        assert [failure["reason"] for failure in out["multiplicity"]["failures"]] == [reason]


class TestSchemaStability:
    EXPECTED = {
        "flow": {"schema_version", "command", "steps", "energy_drift", "final_energy", "trajectory_csv"},
        "waist": {
            "schema_version", "command", "energy", "action", "gradient_norm",
            "period", "iterations", "report", "loop_file",
        },
        "minimax": {
            "schema_version", "command", "energy", "labels", "value", "converged",
            "saddle_gradient_norm", "report", "loop_file",
        },
        "scan": {"schema_version", "command", "rows", "scan_csv"},
        "multiplicity": {"schema_version", "command", "energy", "distinct_count", "orbits", "failures"},
        "critical-values": {
            "schema_version", "command", "e0", "e1_lower_bound",
            "negative_configuration_found", "method", "certificate",
        },
        "orbit-check": {"schema_version", "command", "energy", "action", "loop", "report"},
    }
    REPORT_KEYS = {"gradient_norm", "mean_energy_residual", "closure_residual", "self_intersections"}
    ROW_KEYS = {
        "e", "status", "waist_action", "waist_gradient_norm", "waist_self_intersections",
        "minimax_value", "minimax_converged", "saddle_gradient_norm", "saddle_closure",
        "saddle_energy_residual",
    }
    ORBIT_KEYS = {"source", "action", "period", "primitive_period", "report", "loop_file"}
    TINY = """
system.density = height(1.0, 0.0)
run.energy = 0.02
run.seed_amplitude = 0.02
discretization.loop_nodes = 64
discretization.path_loop_nodes = 128
solver.max_iter = 6000
flow.time = 1.0
"""

    def run(self, tmp_path, capsys, command, text, code=0):
        cfg = write(tmp_path, text)
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == code
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == self.EXPECTED[command]
        if "report" in payload:
            assert set(payload["report"]) == self.REPORT_KEYS
        return payload

    def test_emitted_keys_frozen(self, tmp_path, capsys):
        for command in ("flow", "waist", "minimax", "critical-values"):
            # the converged (1,0)-(2,0) saddle fails certification at N = 128
            # (closure 4.7e-4 > 1e-4), so minimax exits 2
            code = 2 if command == "minimax" else 0
            payload = self.run(tmp_path, capsys, command, self.TINY, code=code)
            if command == "minimax":
                assert payload["report"]["gradient_norm"] == payload["saddle_gradient_norm"]

    def test_scan_keys_frozen(self, tmp_path, capsys):
        # the row's saddle fails certification at N = 128, so the scan exits 2
        payload = self.run(tmp_path, capsys, "scan", self.TINY + "run.energy_grid = 0.02\n", code=2)
        assert len(payload["rows"]) == 1
        assert payload["rows"][0]["status"].startswith("certification failed (closure ")
        assert all(set(row) == self.ROW_KEYS for row in payload["rows"])

    def test_multiplicity_keys_frozen(self, tmp_path, capsys):
        # the (1,0)-(2,0) saddle fails certification at N = 128, so the run exits 2
        payload = self.run(tmp_path, capsys, "multiplicity", self.TINY, code=2)
        assert len(payload["orbits"]) == 1 and len(payload["failures"]) == 1
        for orbit in payload["orbits"]:
            assert set(orbit) == self.ORBIT_KEYS
            assert set(orbit["report"]) == self.REPORT_KEYS
        assert all(set(failure) == {"pair", "reason"} for failure in payload["failures"])

    def test_orbit_check_keys_frozen(self, tmp_path, capsys):
        loop_path = tmp_path / "loop.json"
        loop_path.write_text(json.dumps({"nodes": latitude_loop(0.0, 64).nodes.tolist(), "p": 30.0, "flux": 0.0}))
        payload = self.run(tmp_path, capsys, "orbit-check", self.TINY + f"run.loop_file = {loop_path}\n")
        assert set(payload["loop"]) == {"nodes", "period", "flux"}

    def test_general_descent_keys_frozen(self, tmp_path, capsys):
        # a non-zonal density leaves the latitude oracle for the descent over an energy grid
        text = "system.density = linear(0.3, 0, 1, 0)\nrun.e_max = 0.1\nrun.grid_step = 0.05\n"
        payload = self.run(tmp_path, capsys, "critical-values", text)
        assert payload["method"] == "general-descent"
        assert set(payload["certificate"]) == {"energy", "action_value", "loop_file"}


class TestDeprecatedKeys:
    BASE = """
system.density = height(1.0, 0.0)
run.energy = 0.02
run.seed_amplitude = 0.02
discretization.loop_nodes = 64
solver.max_iter = 6000
"""
    # a valid value for every deprecated key; a new key without one fails here
    VALUES = {
        "solver.certify_h": "1e-2",
        "system.extension_radius": "3.0",
        "rng.seed": "5",
        "system.quad_depth": "6",
        "system.lift_depth": "2",
        "system.metric": "conformal",
        "solver.max_sweeps": "1500",
        "discretization.path_nodes": "12",
    }

    def waist(self, tmp_path, capsys, text, *extra):
        code = main(["waist", "--config", write(tmp_path, text), "--out", str(tmp_path), *extra])
        assert code == 0
        return capsys.readouterr()

    @pytest.mark.parametrize("key", sorted(_DEPRECATED))
    def test_warns_once_and_is_ignored(self, tmp_path, capsys, key):
        plain = self.waist(tmp_path, capsys, self.BASE)
        deprecated = self.waist(tmp_path, capsys, self.BASE + f"{key} = {self.VALUES[key]}\n")
        assert plain.err == ""
        warning = deprecated.err.splitlines()
        assert len(warning) == 1 and warning[0].startswith(f"warning: {key} is ignored;")
        assert deprecated.out.encode() == plain.out.encode()

    def test_seed_flag_is_ignored(self, tmp_path, capsys):
        plain = self.waist(tmp_path, capsys, self.BASE)
        seeded = self.waist(tmp_path, capsys, self.BASE, "--seed", "5")
        assert seeded.err == ""
        assert seeded.out.encode() == plain.out.encode()


class TestDeterminism:
    @pytest.mark.parametrize(
        "out, loop_file",
        [
            ("out", "out/e1_witness.json"),
            ("./out", "out/e1_witness.json"),
            ("out/", "out/e1_witness.json"),
            ("a//b", "a/b/e1_witness.json"),
        ],
    )
    def test_loop_file_spelling(self, tmp_path, capsys, monkeypatch, out, loop_file):
        # the printed path is pathlib's spelling of --out, on every call
        monkeypatch.chdir(tmp_path)
        cfg = write(tmp_path, "system.density = height(1.0, 0.0)\nrun.e_max = 0.3\n")
        for _ in range(2):
            assert main(["critical-values", "--config", cfg, "--out", out]) == 0
            assert json.loads(capsys.readouterr().out)["certificate"]["loop_file"] == loop_file
        assert (tmp_path / loop_file).is_file()

    def test_repeat_runs_byte_identical(self, tmp_path, capsys):
        cfg = write(
            tmp_path,
            """
system.density = height(1.0, 0.0)
run.energy = 0.02
run.seed_amplitude = 0.03
discretization.loop_nodes = 64
solver.max_iter = 6000
rng.seed = ７
""".replace("７", "7"),
        )
        outputs = []
        for _ in range(2):
            code = main(["waist", "--config", cfg, "--out", str(tmp_path)])
            assert code == 0
            outputs.append(capsys.readouterr().out.encode())
        assert outputs[0] == outputs[1]


def test_import_leaves_scipy_unloaded(tmp_path):
    # the package needs numpy only: neither the entry point nor a minimax
    # solve (waists, chain, Newton-Krylov polish, certification) loads scipy
    src = str(Path(magflow.__file__).resolve().parents[1])
    cfg = write(tmp_path, TestSchemaStability.TINY)
    probe = (
        "import contextlib, io, sys, magflow.cli\n"
        "after_import = 'scipy' in sys.modules\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    magflow.cli.main(['minimax', '--config', sys.argv[1], '--out', sys.argv[2]])\n"
        "print(after_import, 'scipy' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", probe, cfg, str(tmp_path)], env=env, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False False"


@pytest.mark.parametrize("workload", ["waist", "minimax", "critical-values"])
def test_benchmark_solves_skip_lapack_numpy_polynomial_and_fft(tmp_path, workload):
    # the flux depth's Gauss-Legendre rules are tabulated, the zonal
    # coefficients derived in the package and the H^1 metric inverted by two
    # cyclic recurrences, so the benchmark's seed-0 solves run with numpy's
    # eigenvalue routines raising and never import numpy.polynomial or
    # numpy.fft
    root = Path(__file__).resolve().parents[1]
    probe = (
        "import contextlib, io, sys\n"
        "import numpy.linalg\n"
        "def lapack(*args, **kwargs):\n"
        "    raise RuntimeError('LAPACK called')\n"
        "for name in [n for n in dir(numpy.linalg) if n.startswith('eig')]:\n"
        "    setattr(numpy.linalg, name, lapack)\n"
        "import magflow.cli, workloads\n"
        "workload, cfg, out = sys.argv[1:]\n"
        "with open(cfg, 'w') as f:\n"
        "    f.write(workloads.config_text(workload, workloads.amplitude_for(workload, 0)))\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = magflow.cli.main([workload, '--config', cfg, '--out', out])\n"
        "print(code, 'numpy.polynomial' in sys.modules, 'numpy.fft' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "perfbench")]))
    out = subprocess.run(
        [sys.executable, "-c", probe, workload, str(tmp_path / "run.cfg"), str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "0 False False"
