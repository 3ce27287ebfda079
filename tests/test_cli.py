import json

import numpy as np
import pytest

from fpxlap import semilinear as semilinear_module
from fpxlap.cli import ConfigError, main, parse_config


def minimal_poisson_config(**overrides):
    cfg = {
        "seed": 7,
        "mesh": {"R": 2.0, "n_cells": 64},
        "omega": {"intervals": [[-1.0, 1.0]]},
        "order": {"s": 0.4},
        "exponent": {"kind": "constant", "params": {"value": 2.0}},
        "growth": {"r": {"kind": "constant", "params": {"value": 3.0}}},
        "data": {"h": {"kind": "constant", "params": {"value": 1.0}},
                 "g": {"kind": "constant", "params": {"value": 0.0}}},
    }
    cfg.update(overrides)
    return cfg


def run_cli(tmp_path, mode, cfg, name="config.json", extra=()):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    return main([mode, "--config", str(path), "--out", str(out), *extra]), out


class TestParseConfig:
    def test_minimal_valid(self):
        cfg = parse_config(json.dumps(minimal_poisson_config()), mode="poisson")
        assert cfg.mode == "poisson"
        assert cfg.seed == 7

    def test_missing_field_is_named(self):
        bad = minimal_poisson_config()
        del bad["mesh"]["n_cells"]
        with pytest.raises(ConfigError, match="mesh.n_cells"):
            parse_config(json.dumps(bad), mode="poisson")

    def test_unknown_key_rejected(self):
        bad = minimal_poisson_config()
        bad["mesh"]["cells"] = 10
        with pytest.raises(ConfigError, match="mesh.cells"):
            parse_config(json.dumps(bad), mode="poisson")
        # the problem is one-dimensional: a dimension section is a typo too
        bad = minimal_poisson_config(dimension={"N": 1})
        with pytest.raises(ConfigError, match="'dimension'"):
            parse_config(json.dumps(bad), mode="poisson")
        # the Armijo step floor is a fixed constant of the solver
        bad = minimal_poisson_config(tolerances={"step": 1e-20})
        with pytest.raises(ConfigError, match="tolerances.step"):
            parse_config(json.dumps(bad), mode="poisson")

    def test_mode_requirements(self):
        bad = minimal_poisson_config()
        del bad["growth"]
        with pytest.raises(ConfigError, match="growth"):
            parse_config(json.dumps(bad), mode="poisson")

    def test_error_list_accumulates(self):
        bad = minimal_poisson_config()
        del bad["mesh"]["n_cells"]
        bad["typo"] = 1
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(bad), mode="poisson")
        assert len(err.value.errors) >= 2


class TestRun:
    def test_zero_data_poisson(self, tmp_path):
        cfg = minimal_poisson_config()
        cfg["data"]["h"] = {"kind": "constant", "params": {"value": 0.0}}
        code, out = run_cli(tmp_path, "poisson", cfg)
        assert code == 0
        rows = (out / "solution.csv").read_text().strip().splitlines()
        assert rows[0] == "x,u,interior_flag"
        u = np.array([float(r.split(",")[1]) for r in rows[1:]])
        assert np.all(u == 0.0)

    def test_poisson_reports_solver_totals(self, tmp_path):
        cfg = minimal_poisson_config()
        cfg["exponent"]["params"]["value"] = 1.5
        cfg["growth"]["r"]["params"]["value"] = 2.2
        code, out = run_cli(tmp_path, "poisson", cfg)
        assert code == 0
        report = dict(line.split(": ", 1)
                      for line in (out / "report").read_text().splitlines())
        iterations = int(report["solver.iterations"])
        assert iterations > 1
        assert int(report["solver.cg_iterations_total"]) >= iterations
        assert int(report["solver.backtracks_total"]) >= 0

    def test_omega_outside_box_surfaces_mesh_error(self, tmp_path, capsys):
        cfg = minimal_poisson_config()
        cfg["omega"]["intervals"] = [[-3.0, 3.0]]
        code, _ = run_cli(tmp_path, "poisson", cfg)
        assert code == 1
        assert "collar" in capsys.readouterr().err

    def test_validate_mode(self, tmp_path):
        cfg = {
            "mesh": {"R": 2.0, "n_cells": 32},
            "omega": {"intervals": [[-1.0, 1.0]]},
            "order": {"s": 0.4},
            "exponent": {"kind": "constant", "params": {"value": 2.0}},
        }
        code, out = run_cli(tmp_path, "validate", cfg)
        assert code == 0
        report = (out / "report").read_text()
        assert "exponent.passed: True" in report

    def test_validate_mode_failure_exit_code(self, tmp_path):
        cfg = {
            "mesh": {"R": 2.0, "n_cells": 32},
            "omega": {"intervals": [[-1.0, 1.0]]},
            "order": {"s": 0.55},  # s * p+ >= 1: subcritical check fails
            "exponent": {"kind": "constant", "params": {"value": 2.0}},
        }
        code, out = run_cli(tmp_path, "validate", cfg)
        assert code == 1
        assert "exponent.passed: False" in (out / "report").read_text()

    def test_verify_mode_report_completeness(self, tmp_path):
        cfg = {
            "seed": 3,
            "mesh": {"R": 2.0, "n_cells": 64},
            "omega": {"intervals": [[-1.0, 1.0]]},
            "checks": {"norm_modular": 25, "holder": 25},
        }
        code, out = run_cli(tmp_path, "verify", cfg)
        assert code == 0
        report = (out / "report").read_text()
        for name in ("norm_modular", "holder"):
            assert f"check.{name}.passed: True" in report
        assert "check.cara" not in report
        assert "check.edm" not in report

    def test_semilinear_mode_outputs(self, tmp_path):
        cfg = minimal_poisson_config()
        del cfg["data"]["h"]
        cfg["nonlinearity"] = {
            "kind": "arctan",
            "params": {"eps": 0.05, "a": {"kind": "gaussian",
                                          "params": {"amplitude": 0.5, "center": 0.0,
                                                     "width": 0.7}}},
        }
        cfg["fixedpoint"] = {"theta": 0.5, "max_iter": 200}
        code, out = run_cli(tmp_path, "semilinear", cfg)
        assert code == 0
        trace = (out / "trace.csv").read_text().strip().splitlines()
        assert trace[0] == "sweep,shell,k,increment,residual"
        assert len(trace) > 1
        # a single fixed point is sweep 1, shell 0
        assert [r.split(",")[:3] for r in trace[1:]] == \
            [["1", "0", str(k)] for k in range(len(trace) - 1)]
        report = (out / "report").read_text()
        assert "solver.converged: True" in report
        assert "solver.theta_final: 0.5" in report  # the key still caps the damping

    def test_theta_defaults_to_the_solver(self, tmp_path):
        cfg = minimal_poisson_config()
        del cfg["data"]["h"]
        cfg["nonlinearity"] = {
            "kind": "arctan",
            "params": {"eps": 0.05, "a": {"kind": "constant", "params": {"value": 0.3}}},
        }
        cfg["fixedpoint"] = {"max_iter": 200}
        code, out = run_cli(tmp_path, "semilinear", cfg)
        assert code == 0
        assert "solver.theta_final: 1\n" in (out / "report").read_text()

    @pytest.mark.parametrize("section", ("fixedpoint", "tolerances"))
    @pytest.mark.parametrize("max_iter", (0, 2.7))
    def test_max_iter_must_be_positive_integer(self, tmp_path, capsys, section, max_iter):
        cfg = minimal_poisson_config()
        cfg["nonlinearity"] = {
            "kind": "arctan",
            "params": {"eps": 0.05, "a": {"kind": "constant", "params": {"value": 0.3}}},
        }
        cfg[section] = {"max_iter": max_iter}
        code, out = run_cli(tmp_path, "semilinear", cfg)
        assert code == 1
        assert f"error: invalid config:\n  - {section}.max_iter must be a positive integer" \
            in capsys.readouterr().err
        assert not (out / "report").exists()

    def test_stiff_semilinear_exits_two(self, tmp_path):
        cfg = minimal_poisson_config()
        del cfg["data"]["h"]
        cfg["nonlinearity"] = {
            "kind": "linear",
            "params": {"coef": -50.0, "a": {"kind": "constant", "params": {"value": 1.0}}},
        }
        cfg["fixedpoint"] = {"theta": 1.0, "max_iter": 8}
        code, out = run_cli(tmp_path, "semilinear", cfg)
        assert code == 2
        report = (out / "report").read_text()
        assert "solver.converged: False" in report
        increments = [float(r.split(",")[3])
                      for r in (out / "trace.csv").read_text().strip().splitlines()[1:]]
        assert max(increments) > increments[0]  # visible oscillation growth

    def test_decompose_mode(self, tmp_path):
        cfg = minimal_poisson_config()
        del cfg["data"]["h"]
        cfg["nonlinearity"] = {
            "kind": "arctan",
            "params": {"eps": 0.05, "a": {"kind": "constant", "params": {"value": 0.3}}},
        }
        cfg["decompose"] = {"shells": 3}
        code, out = run_cli(tmp_path, "decompose", cfg)
        assert code == 0
        report = (out / "report").read_text()
        assert "solver.sweeps:" in report
        assert "solver.mixed_sweeps:" in report
        assert "solver.shell_2_measure:" in report

    @pytest.mark.parametrize("mode,shells", [("semilinear", None), ("decompose", 3)])
    def test_trace_rows_name_sweep_and_shell(self, tmp_path, mode, shells, monkeypatch):
        solves = []
        original = semilinear_module.solve_poisson

        def recording(*args, **kwargs):
            # one extra backtrack per inner solve, so the report's total must
            # sum every solve, not read one of them
            sol = original(*args, **kwargs)
            sol.backtracks += 1
            solves.append(sol)
            return sol

        monkeypatch.setattr(semilinear_module, "solve_poisson", recording)
        cfg = minimal_poisson_config()
        del cfg["data"]["h"]
        cfg["nonlinearity"] = {
            "kind": "arctan",
            "params": {"eps": 0.05, "a": {"kind": "constant", "params": {"value": 0.3}}},
        }
        if shells:
            cfg["decompose"] = {"shells": shells}
        code, out = run_cli(tmp_path, mode, cfg)
        assert code == 0
        report = dict(line.split(": ", 1)
                      for line in (out / "report").read_text().strip().splitlines())
        lines = (out / "trace.csv").read_text().strip().splitlines()
        assert lines[0] == "sweep,shell,k,increment,residual"
        rows = [tuple(int(v) for v in r.split(",")[:3]) for r in lines[1:]]
        sweeps = int(report.get("solver.sweeps", 1))
        assert {(sweep, shell) for sweep, shell, _ in rows} == \
            {(sweep, shell) for sweep in range(1, sweeps + 1) for shell in range(shells or 1)}
        # k restarts at 0 for each (sweep, shell) and counts up within it
        for prev, row in zip(rows, rows[1:]):
            same = row[:2] == prev[:2]
            assert row[2] == (prev[2] + 1 if same else 0)
        # one Poisson solve per Picard iteration plus each final certified solve
        assert int(report["solver.poisson_solves"]) == len(rows) + sweeps * (shells or 1)
        assert int(report["solver.cg_iterations_total"]) >= 1
        assert int(report["solver.poisson_solves"]) == len(solves)
        total = int(report["solver.backtracks_total"])
        assert total == sum(s.backtracks for s in solves) >= len(solves)

    def test_determinism_byte_identical(self, tmp_path):
        cfg = minimal_poisson_config()
        code1, out1 = run_cli(tmp_path, "poisson", cfg, name="a.json")
        csv1 = (out1 / "solution.csv").read_bytes()
        (out1 / "solution.csv").unlink()
        code2, out2 = run_cli(tmp_path, "poisson", cfg, name="b.json")
        assert code1 == code2 == 0
        assert (out2 / "solution.csv").read_bytes() == csv1

    def test_seed_override_changes_verify_stream(self, tmp_path):
        cfg = {
            "seed": 3,
            "mesh": {"R": 2.0, "n_cells": 64},
            "omega": {"intervals": [[-1.0, 1.0]]},
            "checks": {"norm_modular": 10},
        }
        _, out1 = run_cli(tmp_path, "verify", cfg)
        r1 = (out1 / "report").read_text()
        (out1 / "report").unlink()
        _, out2 = run_cli(tmp_path, "verify", cfg, extra=("--seed", "4"))
        r2 = (out2 / "report").read_text()
        slack1 = [l for l in r1.splitlines() if "worst_slack" in l]
        slack2 = [l for l in r2.splitlines() if "worst_slack" in l]
        assert slack1 != slack2

    def test_weights_dump(self, tmp_path):
        cfg = minimal_poisson_config()
        cfg["mesh"]["dump_weights"] = True
        cfg["mesh"]["n_cells"] = 16
        code, out = run_cli(tmp_path, "poisson", cfg)
        assert code == 0
        w = np.loadtxt(out / "weights.csv", delimiter=",")
        assert w.shape == (16, 16)
        assert np.array_equal(w, w.T)
