import json
import math
from pathlib import Path

import numpy as np
import pytest

from fpxlap import semilinear as semilinear_module
from fpxlap.cli import ConfigError, main, parse_config

CONFIGS = Path(__file__).resolve().parents[1] / "scripts" / "configs"
A_ENTRY = {"kind": "constant", "params": {"value": 0.3}}


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
    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.name)
    def test_shipped_configs_parse(self, path):
        doc = json.loads(path.read_text())
        cfg = parse_config(path.read_text())
        assert (cfg.mode, cfg.raw) == (doc["mode"], doc)

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
        bad = minimal_poisson_config(nonlinearity={"kind": "arctan",
                                                   "params": {"eps": 0.05, "a": A_ENTRY}},
                                     decompose={"shells": 2})
        del bad["growth"]
        for mode in ("semilinear", "decompose"):
            with pytest.raises(ConfigError, match=f"mode '{mode}' requires section 'growth'"):
                parse_config(json.dumps(bad), mode=mode)

    def test_poisson_needs_no_growth(self):
        cfg = minimal_poisson_config()
        del cfg["growth"]
        assert parse_config(json.dumps(cfg), mode="poisson").raw == cfg
        # a growth section the run ignores is still checked against the schema
        cfg["growth"] = {}
        with pytest.raises(ConfigError, match="growth.r missing"):
            parse_config(json.dumps(cfg), mode="poisson")

    def test_error_list_accumulates(self):
        bad = minimal_poisson_config()
        del bad["mesh"]["n_cells"]
        bad["typo"] = 1
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(bad), mode="poisson")
        assert len(err.value.errors) >= 2


class TestRejections:
    """Inputs the CLI refuses with exit 1 and an ``error:`` line, before any report."""

    @pytest.mark.parametrize("text,message", (
        ("{", "not valid JSON"),
        ("[1, 2]", "config: expected an object"),
        (json.dumps({**minimal_poisson_config(), "mode": None}), "mode missing"),
        (json.dumps({**minimal_poisson_config(), "mode": "verify"}),
         "config mode 'verify' conflicts with requested mode 'poisson'"),
    ), ids=("invalid_json", "not_an_object", "no_mode", "conflicting_mode"))
    def test_bad_document(self, tmp_path, capsys, text, message):
        path = tmp_path / "config.json"
        path.write_text(text)
        code = main(["poisson", "--config", str(path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("error: ") and message in err
        assert not (tmp_path / "out").exists()

    def test_unreadable_config(self, tmp_path, capsys):
        code = main(["poisson", "--config", str(tmp_path / "absent.json")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: cannot read config ")


class TestShippedConfigs:
    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.name)
    def test_runs_end_to_end(self, tmp_path, path):
        mode = json.loads(path.read_text())["mode"]
        out = tmp_path / "out"
        assert main([mode, "--config", str(path), "--out", str(out)]) == 0
        report = (out / "report").read_text().splitlines()
        if mode == "verify":
            checks = [line for line in report if line.startswith("check.") and ".passed: " in line]
            assert checks and all(line.endswith(".passed: True") for line in checks)
        elif mode == "validate":
            assert "exponent.passed: True" in report
        else:
            assert "solver.converged: True" in report


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

    @pytest.mark.parametrize("mode,section,key", (
        ("poisson", "mesh", "n_cells"), ("decompose", "decompose", "shells"),
        ("verify", "checks", "norm_modular"), ("verify", "checks", "holder"),
        ("verify", "checks", "cara"), ("verify", "checks", "edm")))
    @pytest.mark.parametrize("value", (0, -5, 96.9, True))
    def test_counts_must_be_positive_integers(self, tmp_path, capsys, mode, section, key, value):
        if mode == "verify":
            cfg = {"mesh": {"R": 2.0, "n_cells": 64}, "omega": {"intervals": [[-1.0, 1.0]]},
                   "checks": {"norm_modular": 10}}
        else:
            cfg = minimal_poisson_config()
            cfg["nonlinearity"] = {
                "kind": "arctan",
                "params": {"eps": 0.05, "a": {"kind": "constant", "params": {"value": 0.3}}},
            }
            cfg["decompose"] = {"shells": 3}
        cfg[section][key] = value
        code, out = run_cli(tmp_path, mode, cfg)
        assert code == 1
        assert capsys.readouterr().err == \
            f"error: invalid config:\n  - {section}.{key} must be a positive integer\n"
        assert not (out / "report").exists()

    def test_empty_check_list_rejected(self, tmp_path, capsys):
        # verify mode with no suite to run would report "all checks passed"
        cfg = {"mesh": {"R": 2.0, "n_cells": 64}, "omega": {"intervals": [[-1.0, 1.0]]},
               "checks": {}}
        code, out = run_cli(tmp_path, "verify", cfg)
        assert code == 1
        assert capsys.readouterr().err == \
            "error: invalid config:\n  - checks must name at least one suite\n"
        assert not (out / "report").exists()

    @pytest.mark.parametrize("section", ("fixedpoint", "tolerances"))
    @pytest.mark.parametrize("value", (5, [200]))
    def test_section_must_be_object(self, tmp_path, capsys, section, value):
        cfg = minimal_poisson_config()
        cfg["nonlinearity"] = {
            "kind": "arctan",
            "params": {"eps": 0.05, "a": {"kind": "constant", "params": {"value": 0.3}}},
        }
        cfg[section] = value
        code, out = run_cli(tmp_path, "semilinear", cfg)
        assert code == 1
        assert capsys.readouterr().err == \
            f"error: invalid config:\n  - {section}: expected an object\n"
        assert not (out / "report").exists()

    # json reads Infinity and NaN and a bool is an int, so each is named
    # as an error; an infinite tolerance would certify an unsolved field.
    # A section of None replaces the whole top-level key; a message that
    # starts with "  - " is a line of the config error list.
    @pytest.mark.parametrize("mode,section,key,value,message", (
        ("semilinear", "tolerances", "el_residual", math.inf,
         "  - tolerances.el_residual must be a finite positive number"),
        ("semilinear", "tolerances", "el_residual", math.nan,
         "  - tolerances.el_residual must be a finite positive number"),
        ("semilinear", "tolerances", "el_residual", True,
         "  - tolerances.el_residual must be a finite positive number"),
        ("semilinear", "mesh", "R", math.inf, "  - mesh.R must be a finite number"),
        ("semilinear", "mesh", "R", True, "  - mesh.R must be a finite number"),
        ("semilinear", "mesh", "R", [2], "  - mesh.R must be a finite number"),
        # json reads integers of any size, and float() overflows past 1.8e308
        ("semilinear", "mesh", "R", 10**400, "  - mesh.R must be a finite number"),
        ("semilinear", "order", "s", math.nan, "  - order.s must be a finite number"),
        ("semilinear", "order", "s", True, "  - order.s must be a finite number"),
        ("semilinear", "fixedpoint", "theta", math.inf,
         "  - fixedpoint.theta must be a finite number"),
        ("semilinear", "fixedpoint", "theta", True,
         "  - fixedpoint.theta must be a finite number"),
        ("semilinear", "omega", "intervals", 5,
         "  - omega.intervals must be a list of [a, b] pairs of finite numbers"),
        ("semilinear", "omega", "intervals", [[-1.0, [1.0]]],
         "  - omega.intervals must be a list of [a, b] pairs of finite numbers"),
        ("semilinear", "output", "dir", 5, "  - output.dir must be a string"),
        ("semilinear", None, "seed", True, "  - seed must be an integer"),
        # every catalog entry sets kind and params, and required keys are required in every mode
        ("semilinear", None, "exponent", {"params": {"value": 2.0}}, "  - exponent.kind missing"),
        ("semilinear", None, "nonlinearity", {},
         "  - nonlinearity.kind missing\n  - nonlinearity.params missing"),
        ("semilinear", "data", "h", {}, "  - data.h.kind missing\n  - data.h.params missing"),
        ("semilinear", None, "growth", {}, "  - growth.r missing"),
        ("decompose", None, "decompose", {}, "  - decompose.shells missing"),
        ("validate", None, "order", {}, "  - order.s missing"),
        ("semilinear", None, "mode", {},
         "  - mode {} not one of ('validate', 'poisson', 'semilinear', 'decompose', 'verify')"),
        ("semilinear", "exponent", "params", 5, "  - exponent.params must be an object"),
        ("poisson", "mesh", "dump_weights", "no", "  - mesh.dump_weights must be a boolean"),
        # the catalog checks the names and values of its params when the run builds them
        ("semilinear", "exponent", "params", {"value": [2.0]},
         "exponent.constant: params ['value'] must be finite numbers"),
        ("poisson", "data", "h", {"kind": "constant", "params": {"value": "3"}},
         "data.constant: params ['value'] must be finite numbers"),
        ("semilinear", "nonlinearity", "params", {"eps": 0.05, "a": 5},
         "nonlinearity.arctan: param 'a' must be a {kind, params} object"),
    ))
    def test_bad_value_is_rejected(self, tmp_path, capsys, mode, section, key, value, message):
        cfg = minimal_poisson_config()
        cfg["nonlinearity"] = {
            "kind": "arctan",
            "params": {"eps": 0.05, "a": {"kind": "constant", "params": {"value": 0.3}}},
        }
        if section is None:
            cfg[key] = value
        else:
            cfg.setdefault(section, {})[key] = value
        code, out = run_cli(tmp_path, mode, cfg)
        assert code == 1
        invalid = "invalid config:\n" if message.startswith("  - ") else ""
        assert capsys.readouterr().err == f"error: {invalid}{message}\n"
        assert not (out / "report").exists()
        assert not (out / "weights.csv").exists()

    def test_failing_growth_pair_exits_one(self, tmp_path):
        cfg = minimal_poisson_config()
        cfg["growth"]["r"]["params"]["value"] = 2.0  # r- = pbar+
        cfg["nonlinearity"] = {"kind": "arctan", "params": {"eps": 0.05, "a": A_ENTRY}}
        code, out = run_cli(tmp_path, "semilinear", cfg)
        assert code == 1
        report = (out / "report").read_text().splitlines()
        assert "growth_pair_ok: False" in report
        assert not any(line.startswith("solver.") for line in report)

    def test_poisson_does_not_read_the_growth_exponent(self, tmp_path):
        """No Poisson computation reads r: a run without growth, one whose
        (r, p) is not a growth pair and one whose pair holds write the same
        solution, and none reports growth_pair_ok."""
        solutions = []
        for name, r_value in (("none", None), ("r_at_pbar", 2.0), ("pair", 3.0)):
            cfg = minimal_poisson_config()
            if r_value is None:
                del cfg["growth"]
            else:
                cfg["growth"]["r"]["params"]["value"] = r_value
            (tmp_path / name).mkdir()
            code, out = run_cli(tmp_path / name, "poisson", cfg)
            assert code == 0
            report = (out / "report").read_text().splitlines()
            assert "solver.converged: True" in report
            assert not any(line.startswith("growth_pair_ok") for line in report)
            solutions.append((out / "solution.csv").read_bytes())
        assert solutions[0] == solutions[1] == solutions[2]

    def test_negative_growth_offset_exits_one(self, tmp_path, capsys):
        cfg = minimal_poisson_config()
        a = {"kind": "constant", "params": {"value": -0.3}}
        cfg["nonlinearity"] = {"kind": "arctan", "params": {"eps": 0.05, "a": a}}
        code, out = run_cli(tmp_path, "semilinear", cfg)
        assert code == 1
        assert capsys.readouterr().err == "error: growth offset a(x) must be nonnegative\n"
        assert not (out / "report").exists()

    def test_out_naming_a_file_exits_one(self, tmp_path, capsys):
        config, taken = tmp_path / "config.json", tmp_path / "taken"
        config.write_text(json.dumps(minimal_poisson_config()))
        taken.write_text("")
        code = main(["poisson", "--config", str(config), "--out", str(taken)])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: i/o failure at {taken}: ")
        assert taken.read_text() == ""

    def test_failing_growth_screen_exits_one(self, tmp_path):
        # f = a + t grows like |t|, faster than the declared |t|^(pbar - 1) at p = 1.5
        cfg = minimal_poisson_config()
        cfg["exponent"]["params"]["value"] = 1.5
        cfg["nonlinearity"] = {"kind": "linear", "params": {"coef": 1.0, "a": A_ENTRY}}
        code, out = run_cli(tmp_path, "semilinear", cfg)
        assert code == 1
        report = (out / "report").read_text().splitlines()
        assert "check.growth_screen.passed: False" in report
        assert not any(line.startswith("solver.") for line in report)

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

    def test_failing_shell_solve_exits_two_with_a_report(self, tmp_path, capsys):
        cfg = minimal_poisson_config()
        del cfg["data"]["h"]
        cfg["mesh"]["n_cells"] = 96
        cfg["exponent"] = {"kind": "constant", "params": {"value": 1.5}}
        cfg["growth"] = {"r": {"kind": "constant", "params": {"value": 2.2}}}
        cfg["nonlinearity"] = {"kind": "arctan", "params": {"eps": 0.05, "a": A_ENTRY}}
        cfg["decompose"] = {"shells": 3}
        cfg["tolerances"] = {"max_iter": 1}
        code, out = run_cli(tmp_path, "decompose", cfg)
        assert code == 2
        assert capsys.readouterr().err == ""
        report = (out / "report").read_text().splitlines()
        assert "solver.converged: False" in report
        assert "solver.failed_shell: 0" in report
        assert "solver.failed_sweep: 1" in report
        failure = [line for line in report if line.startswith("solver.failure: ")]
        assert len(failure) == 1
        assert failure[0].startswith("solver.failure: Poisson solve did not converge (EL residual ")
        assert report[-1].startswith("wallclock_seconds: ")
        # no field is certified, so none is written
        assert sorted(f.name for f in out.iterdir()) == ["report"]

    def test_decompose_ignores_the_fixedpoint_section(self, tmp_path, capsys):
        # a decomposition has no Picard loop: the section is only schema-checked
        cfg = minimal_poisson_config()
        del cfg["data"]["h"]
        cfg["nonlinearity"] = {"kind": "arctan", "params": {"eps": 0.05, "a": A_ENTRY}}
        cfg["decompose"] = {"shells": 3}
        code, out = run_cli(tmp_path, "decompose", cfg, name="plain.json")
        plain = (out / "solution.csv").read_bytes()
        (out / "solution.csv").unlink()
        cfg["fixedpoint"] = {"theta": 0.5, "max_iter": 3}
        code_fp, out = run_cli(tmp_path, "decompose", cfg, name="fixedpoint.json")
        assert code == code_fp == 0
        assert (out / "solution.csv").read_bytes() == plain
        cfg["fixedpoint"] = {"max_iter": 0}
        assert run_cli(tmp_path, "decompose", cfg, name="bad.json")[0] == 1
        assert "fixedpoint.max_iter must be a positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize("stem", ("semilinear_arctan", "decompose_three_shells"))
    def test_semilinear_modes_do_not_build_the_source(self, tmp_path, stem):
        """Their source is N_f(u): a data.h, even of a kind the catalog does
        not know, is only schema-checked and leaves the report unchanged."""
        cfg = json.loads((CONFIGS / f"{stem}.json").read_text())
        reports = []
        for name in ("plain", "unknown_h"):
            if name == "unknown_h":
                cfg["data"]["h"] = {"kind": "no_such_kind", "params": {}}
            (tmp_path / name).mkdir()
            code, out = run_cli(tmp_path / name, cfg["mode"], cfg)
            assert code == 0
            reports.append([line for line in (out / "report").read_text().splitlines()
                            if not line.startswith(("config.json: ", "wallclock_seconds: "))])
        assert "solver.converged: True" in reports[0]
        assert reports[0] == reports[1]

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
        # one Poisson solve per Picard iteration: a converged run certifies
        # the field of its last solve without solving again
        assert int(report["solver.poisson_solves"]) == len(rows)
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
