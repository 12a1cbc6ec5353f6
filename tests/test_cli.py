import hashlib
import json
import math
import os

import numpy as np
import pytest

from subdiff.cli import ConfigError, load_config, main, parse_model


def write_config(tmp_path, body, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(body))
    return str(p)


BM_CFG = {
    "model": {"kind": "brownian"},
    "subordinator": {"components": [{"beta": 0.5, "weight": 1.0}]},
    "solver": {"t_max": 1.0, "n_t": 120, "x_min": -8.5, "x_max": 8.5,
               "n_x": 160},
    "seed": 0,
}


class TestLoadConfig:
    def test_defaults_applied(self, tmp_path):
        cfg = load_config(write_config(tmp_path, {"model": {"kind": "brownian"}}))
        assert cfg["solver"].n_x == 400
        assert cfg["solver"].n_t == 400
        assert cfg["seed"] == 0

    def test_unknown_top_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="bogus"):
            load_config(write_config(tmp_path,
                                     {"model": {"kind": "brownian"},
                                      "bogus": 1}))

    def test_hurst_out_of_range_names_field(self, tmp_path):
        with pytest.raises(ConfigError, match="model.h"):
            load_config(write_config(tmp_path,
                                     {"model": {"kind": "fbm", "h": 1.2}}))

    def test_unknown_model_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="model.hh"):
            load_config(write_config(
                tmp_path, {"model": {"kind": "fbm", "h": 0.5, "hh": 2}}
            ))

    def test_mixture_weights_any_positive_total(self, tmp_path):
        body = {
            "model": {"kind": "brownian"},
            "subordinator": {"components": [
                {"beta": 0.4, "weight": 2.0}, {"beta": 0.8, "weight": 1.5},
            ]},
        }
        cfg = load_config(write_config(tmp_path, body))
        assert cfg["subordinator"].laplace_exponent(np.array([1.0]))[0] == 3.5

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/cfg.json")

    def test_bad_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(str(p))

    def test_parse_model_variants(self):
        parse_model({"kind": "ou", "alpha": 1.0, "sigma": 1.0})
        parse_model({"kind": "variable_hurst", "preset": "mobius",
                     "a": 0.6, "b": 0.2})
        parse_model({"kind": "piecewise_hurst", "breakpoints": [0.5],
                     "values": [0.5, 0.8]})
        parse_model({"kind": "mixed", "terms": [
            {"coef": 1.0, "model": {"kind": "brownian"}},
            {"coef": 0.5, "model": {"kind": "fbm", "h": 0.7}},
        ]})
        with pytest.raises(ConfigError):
            parse_model({"kind": "spam"})


class TestCommands:
    def test_unknown_subcommand_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_simulate_paths_zero_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BM_CFG)
        rc = main(["simulate", "--config", cfg, "--paths", "0",
                   "--out", str(tmp_path / "out")])
        assert rc == 2

    def test_simulate_writes_artifacts(self, tmp_path):
        cfg = write_config(tmp_path, {**BM_CFG, "paths": 4,
                                      "sample_points": 6})
        out = str(tmp_path / "out")
        assert main(["simulate", "--config", cfg, "--out", out]) == 0
        lines = open(os.path.join(out, "paths.csv")).read().splitlines()
        assert lines[0] == "path_id,t,value"
        assert len(lines) == 1 + 4 * 7
        meta = json.loads(open(os.path.join(out, "paths.meta.json")).read())
        assert meta["seed"] == 0

    def test_simulate_determinism(self, tmp_path):
        cfg = write_config(tmp_path, {**BM_CFG, "paths": 3,
                                      "sample_points": 5})
        hashes = []
        for d in ("a", "b"):
            out = str(tmp_path / d)
            assert main(["simulate", "--config", cfg, "--out", out]) == 0
            data = open(os.path.join(out, "paths.csv"), "rb").read()
            hashes.append(hashlib.sha256(data).hexdigest())
        assert hashes[0] == hashes[1]

    def test_moments_row(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        rc = main(["moments", "--beta", "0.5", "--gamma", "1", "--t", "1",
                   "--out", out])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "1.1283791670955126" in printed

    def test_density_artifact(self, tmp_path):
        cfg = write_config(tmp_path, {**BM_CFG, "times": [0.5, 1.0]})
        out = str(tmp_path / "out")
        assert main(["density", "--config", cfg, "--out", out]) == 0
        lines = open(os.path.join(out, "density.csv")).read().splitlines()
        assert lines[0] == "t,x,q"
        assert len(lines) == 1 + 2 * 160
        meta = json.loads(open(os.path.join(out,
                                            "density.meta.json")).read())
        assert max(meta["mass_error"]) < 1e-6

    def test_validate_passes_and_reports(self, tmp_path):
        cfg = write_config(tmp_path, {
            **BM_CFG,
            "solver": {"t_max": 1.0, "n_t": 200, "x_min": -8.5,
                       "x_max": 8.5, "n_x": 200},
        })
        out = str(tmp_path / "out")
        assert main(["validate", "--config", cfg, "--out", out]) == 0
        report = json.loads(open(os.path.join(out, "report.json")).read())
        assert report["passed"]
        names = {c["name"] for c in report["checks"]}
        assert "solver_vs_subordination" in names
        for c in report["checks"]:
            assert {"name", "measured", "tolerance", "passed",
                    "runtime_s"} <= set(c)
        # the subordination integral behind this check takes milliseconds
        timed = {c["name"]: c["runtime_s"] for c in report["checks"]}
        assert timed["solver_vs_subordination"] > 1e-4
        # the checks time disjoint stretches of the run
        assert sum(timed.values()) <= report["runtime_s"] + 1e-3

    def test_validate_failure_exits_1(self, tmp_path):
        body = {**BM_CFG, "tolerance": 1e-9,
                "solver": {"t_max": 1.0, "n_t": 100, "x_min": -8.5,
                           "x_max": 8.5, "n_x": 120}}
        cfg = write_config(tmp_path, body)
        rc = main(["validate", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 1

    def test_solve_fbm_fractional_rejected(self, tmp_path):
        body = {
            "model": {"kind": "fbm", "h": 0.7},
            "subordinator": {"components": [{"beta": 0.5}]},
            "equation": "fractional",
        }
        cfg = write_config(tmp_path, body)
        rc = main(["solve", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_numerics_failure_exits_3(self, tmp_path, monkeypatch):
        import subdiff.cli as cli
        from subdiff.errors import NumericsError

        def boom(*a, **kw):
            raise NumericsError("synthetic failure")

        monkeypatch.setattr(cli, "inverse_time_moment", boom)
        rc = main(["moments", "--beta", "0.5", "--gamma", "1", "--t", "1",
                   "--out", str(tmp_path / "o")])
        assert rc == 3

    def test_model_json_round_trip(self):
        bodies = [
            {"kind": "brownian"},
            {"kind": "fbm", "h": 0.7},
            {"kind": "ou", "alpha": 1.0, "sigma": 2.0},
            {"kind": "piecewise_hurst", "breakpoints": [0.5],
             "values": [0.5, 0.8]},
            {"kind": "variable_hurst", "preset": "mobius", "a": 0.6,
             "b": 0.2, "horizon": 2.0},
        ]
        for body in bodies:
            model = parse_model(body)
            again = parse_model(model.to_json())
            assert model == again

    def test_convergence_table(self, tmp_path):
        body = {
            "model": {"kind": "fbm", "h": 0.7},
            "solver": {"t_max": 1.0, "n_t": 100, "x_min": -8.0,
                       "x_max": 8.0, "n_x": 200},
        }
        cfg = write_config(tmp_path, body)
        out = str(tmp_path / "out")
        assert main(["convergence", "--config", cfg, "--out", out]) == 0
        lines = open(os.path.join(out, "convergence.csv")).read().splitlines()
        assert lines[0] == "h,error,order"
        assert len(lines) == 4
        last_order = float(lines[-1].split(",")[2])
        assert last_order > 1.8


@pytest.mark.parametrize("body, field", [
    ({**BM_CFG, "solver": {**BM_CFG["solver"], "breakpoints": [0.5, "x"]}},
     "solver.breakpoints[1]: expected a number"),
    ({"model": {"kind": "variable_hurst", "preset": "poly",
                "coeffs": [0.7, "a"]}},
     "model.coeffs[1]: expected a number"),
    # H(t) = 0.6 + 0.5 t / (1 + t) reaches 1 on the default horizon 4
    ({"model": {"kind": "variable_hurst", "preset": "mobius", "a": 0.6,
                "b": 0.5}},
     "model: H(t) must stay inside (1/2, 1)"),
    # JSON's NaN and Infinity parse, and fail no range comparison
    ({**BM_CFG, "solver": {**BM_CFG["solver"], "t_max": float("nan")}},
     "solver.t_max: expected a finite number"),
    ({**BM_CFG, "solver": {**BM_CFG["solver"], "n_t": float("inf")}},
     "solver.n_t: expected a finite number"),
    ({**BM_CFG, "solver": {**BM_CFG["solver"], "t_max": 10**400}},
     "solver.t_max: expected a finite number"),
    ({"model": {"kind": "fbm", "h": float("nan")}},
     "model.h: expected a finite number"),
    ({**BM_CFG, "times": [float("inf")]},
     "config.times[0]: expected a finite number"),
    ({**BM_CFG, "times": [True]}, "config.times[0]: expected a number"),
    ({**BM_CFG, "times": [0.5, 0.0]}, "config.times[1]: must be > 0"),
])
def test_bad_config_value_exits_2_with_field(tmp_path, capsys, body, field):
    rc = main(["simulate", "--config", write_config(tmp_path, body),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert field in capsys.readouterr().err


OFF_ORIGIN_CFG = {**BM_CFG,
                  "solver": {**BM_CFG["solver"], "x_min": 1.0, "x_max": 5.0}}


@pytest.mark.parametrize("command", ["solve", "validate"])
def test_fractional_solve_without_origin_exits_2_with_field(tmp_path, capsys,
                                                            command):
    rc = main([command, "--config", write_config(tmp_path, OFF_ORIGIN_CFG),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert ("solver.x_min/solver.x_max: domain must contain the origin"
            in capsys.readouterr().err)


@pytest.mark.parametrize("clock", [
    [{"beta": 0.5, "weight": 1.0}],
    [{"beta": 0.4, "weight": 0.5}, {"beta": 0.8, "weight": 0.5}],
], ids=["fractional", "distributed"])
@pytest.mark.parametrize("command", ["solve", "validate"])
def test_fractional_solve_with_breakpoints_exits_2_with_field(
        tmp_path, capsys, command, clock):
    body = {**BM_CFG, "subordinator": {"components": clock},
            "solver": {**BM_CFG["solver"], "breakpoints": [0.5]}}
    rc = main([command, "--config", write_config(tmp_path, body),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert ("solver.breakpoints: fractional memory does not admit "
            "breakpoints" in capsys.readouterr().err)


@pytest.mark.parametrize("command", ["density", "simulate"])
def test_off_origin_window_needs_no_solver(tmp_path, command):
    # neither subcommand builds the solvers' initial delta
    assert main([command, "--config", write_config(tmp_path, OFF_ORIGIN_CFG),
                 "--out", str(tmp_path / "o")]) == 0


def test_simulate_mixed_model_with_piecewise_term(tmp_path):
    body = {**BM_CFG, "paths": 3, "sample_points": 4,
            "model": {"kind": "mixed", "terms": [
                {"coef": 1.0, "model": {"kind": "piecewise_hurst",
                                        "breakpoints": [0.5],
                                        "values": [0.5, 0.8]}},
                {"coef": 0.5, "model": {"kind": "brownian"}},
            ]}}
    out = str(tmp_path / "out")
    assert main(["simulate", "--config", write_config(tmp_path, body),
                 "--out", out]) == 0
    lines = open(os.path.join(out, "paths.csv")).read().splitlines()
    assert len(lines) == 1 + 3 * 5


# each flag is held to the range its config field or the library needs
@pytest.mark.parametrize("argv, message", [
    (["moments", "--beta", "1.5", "--gamma", "1", "--t", "1"],
     "--beta: must be <= 1.0"),
    (["moments", "--beta", "0", "--gamma", "1", "--t", "1"],
     "--beta: must be > 0.0"),
    (["moments", "--beta", "0.5", "--gamma", "nan", "--t", "1"],
     "--gamma: expected a finite number"),
    (["moments", "--beta", "0.5", "--gamma", "0", "--t", "1"],
     "--gamma: must be > 0.0"),
    (["moments", "--beta", "0.5", "--gamma", "1", "--t", "nan"],
     "--t: expected a finite number"),
    (["moments", "--beta", "0.5", "--gamma", "1", "--t", "1", "--t", "0"],
     "--t: must be > 0.0"),
    (["moments", "--config", "CFG", "--gamma", "0"], "--gamma: must be > 0.0"),
    (["moments", "--config", "CFG", "--gamma=-inf"],
     "--gamma: expected a finite number"),
    (["operators", "--config", "CFG", "--gamma", "1.5"],
     "--gamma: must be < 1.0"),
    (["operators", "--config", "CFG", "--gamma", "-1"],
     "--gamma: must be > -1.0"),
], ids=["beta-high", "beta-zero", "gamma-nan", "gamma-zero", "t-nan",
        "t-zero", "config-gamma-zero", "config-gamma-inf",
        "operators-gamma-high", "operators-gamma-low"])
def test_bad_flag_exits_2_naming_it(tmp_path, capsys, argv, message):
    cfg = write_config(tmp_path, BM_CFG)
    out = tmp_path / "o"
    rc = main([cfg if a == "CFG" else a for a in argv] + ["--out", str(out)])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not any(out.glob("*.csv"))


def test_moments_config_takes_the_gamma_flag(tmp_path):
    out = tmp_path / "o"
    assert main(["moments", "--config", write_config(tmp_path, BM_CFG),
                 "--gamma", "0.5", "--out", str(out)]) == 0
    lines = (out / "moments.csv").read_text().splitlines()
    assert lines[0] == "t,gamma,moment"
    assert [line.split(",")[:2] for line in lines[1:]] == [["1", "0.5"]]


@pytest.mark.parametrize("flag, value", [("--beta", "0.3"), ("--t", "5")])
def test_moments_config_rejects_clock_flags(tmp_path, capsys, flag, value):
    out = tmp_path / "o"
    rc = main(["moments", "--config", write_config(tmp_path, BM_CFG),
               flag, value, "--gamma", "1", "--out", str(out)])
    assert rc == 2
    assert f"{flag}: cannot be combined with --config" in capsys.readouterr().err
    assert not any(out.glob("*.csv"))


def test_operators_beta_one_exits_2_naming_it(tmp_path, capsys):
    body = {**BM_CFG, "subordinator": {"components": [{"beta": 1.0}]}}
    out = tmp_path / "o"
    rc = main(["operators", "--config", write_config(tmp_path, body),
               "--out", str(out)])
    assert rc == 2
    assert "subordinator.components[0].beta: must be < 1.0" in (
        capsys.readouterr().err)
    assert not any(out.glob("*.csv"))


def test_moments_large_gamma(tmp_path, capsys):
    # about 1e247: its Gamma(201) factor alone is no float
    out = tmp_path / "o"
    assert main(["moments", "--beta", "0.5", "--gamma", "200", "--t", "2",
                 "--out", str(out)]) == 0
    row = (out / "moments.csv").read_text().splitlines()[1].split(",")
    want = math.exp(math.lgamma(201.0) + 100.0 * math.log(2.0)
                    - math.lgamma(101.0))
    assert abs(float(row[2]) / want - 1.0) < 1e-12
    rc = main(["moments", "--beta", "0.5", "--gamma", "400", "--t", "2",
               "--out", str(tmp_path / "o2")])
    assert rc == 3
    assert "outside the float range" in capsys.readouterr().err
