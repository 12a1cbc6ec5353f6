import contextlib
import hashlib
import io
import json
import math
import os
import pathlib
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from subdiff.cli import ConfigError, load_config, main, parse_model


CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


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

    def test_solve_fbm_fractional_rejected(self, tmp_path, capsys):
        # the pure clock picks the fractional equation, which needs an
        # autonomous operator; fBm's coefficient varies in time
        body = {
            "model": {"kind": "fbm", "h": 0.7},
            "subordinator": {"components": [{"beta": 0.5}]},
        }
        cfg = write_config(tmp_path, body)
        rc = main(["solve", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert ("model.kind: fractional solves need an autonomous operator "
                "(brownian or ou model)" in capsys.readouterr().err)

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
    # a solve is set by its model, clock and grid: no key picks its
    # equation or its time steps
    ({**BM_CFG, "solver": {**BM_CFG["solver"], "breakpoints": [0.5]}},
     "solver.breakpoints: unknown key"),
    ({"model": {"kind": "variable_hurst", "preset": "poly",
                "coeffs": [0.7, "a"]}},
     "model.coeffs[1]: expected a number"),
    # H(t) = 0.6 + 0.5 t / (1 + t) reaches 1 on the default horizon 4
    ({"model": {"kind": "variable_hurst", "preset": "mobius", "a": 0.6,
                "b": 0.5}},
     "model.a/model.b/model.horizon: H(t) must stay inside (1/2, 1)"),
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
    # a seed is a SeedSequence entropy value, which cannot be negative
    ({**BM_CFG, "seed": -3}, "config.seed: expected an integer >= 0"),
    ({**BM_CFG, "seed": 1.5}, "config.seed: expected an integer >= 0"),
    ({**BM_CFG, "equation": "fractional"}, "config.equation: unknown key"),
])
def test_bad_config_value_exits_2_with_field(tmp_path, capsys, body, field):
    rc = main(["simulate", "--config", write_config(tmp_path, body),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert field in capsys.readouterr().err


# a mollified delta wider than the horizon's variance allows, or narrower
# than two cells of the grid (the convergence study's own width), is a
# configuration error; it names init_width only where the config sets it
@pytest.mark.parametrize("command, solver, field", [
    ("solve", {"t_max": 0.001}, "solver.t_max"),
    ("validate", {"t_max": 0.001}, "solver.t_max"),
    ("convergence", {"t_max": 0.001}, "solver.t_max"),
    ("solve", {"init_width": 3.0}, "solver.init_width"),
    ("validate", {"init_width": 3.0}, "solver.init_width"),
])
def test_classical_mollifier_misfit_exits_2_with_field(tmp_path, capsys,
                                                       command, solver, field):
    body = {"model": {"kind": "brownian"}, "solver": solver}
    out = tmp_path / "o"
    rc = main([command, "--config", write_config(tmp_path, body),
               "--out", str(out)])
    assert rc == 2
    assert f"{field}: init_width" in capsys.readouterr().err
    assert not any(out.glob("*"))


ZERO_MIXED = {"kind": "mixed", "terms": [
    {"coef": 0.0, "model": {"kind": "brownian"}},
    {"coef": 0.0, "model": {"kind": "fbm", "h": 0.7}},
]}


@pytest.mark.parametrize("command, clock", [
    ("density", True), ("solve", False), ("validate", False),
    ("convergence", False),
])
def test_zero_mixed_model_exits_2_with_field(tmp_path, capsys, command,
                                              clock):
    # all coefficients zero is the zero process, which has no density
    body = {**BM_CFG, "model": ZERO_MIXED}
    if not clock:
        del body["subordinator"]
    out = tmp_path / "o"
    rc = main([command, "--config", write_config(tmp_path, body),
               "--out", str(out)])
    assert rc == 2
    assert "model.terms: mixed model needs a nonzero coefficient" in (
        capsys.readouterr().err)
    assert not any(out.glob("*"))


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


def test_simulate_headline_config_is_reproducible(tmp_path):
    # Moebius variable Hurst on a beta 0.7 clock: a per-path Cholesky of
    # the Volterra covariance at each path's distinct clock values
    cfg = os.path.join(CONFIGS, "mobius_beta07.json")
    data = []
    for d in ("a", "b"):
        out = str(tmp_path / d)
        assert main(["simulate", "--config", cfg, "--paths", "3",
                     "--out", out]) == 0
        data.append(open(os.path.join(out, "paths.csv"), "rb").read())
    assert data[0] == data[1]
    assert len(data[0].splitlines()) == 1 + 3 * 51


def test_simulate_past_the_hurst_horizon_exits_2(tmp_path, capsys):
    # H(t) = 0.6 + 0.1 t is checked on the horizon [0, 2] and reaches 1 at
    # t = 4, which a beta 0.7 clock run to t 20 passes
    body = {"model": {"kind": "variable_hurst", "preset": "poly",
                      "coeffs": [0.6, 0.1], "horizon": 2.0},
            "subordinator": {"components": [{"beta": 0.7}]},
            "solver": {"t_max": 20.0}, "paths": 3}
    out = tmp_path / "o"
    rc = main(["simulate", "--config", write_config(tmp_path, body),
               "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "model.horizon: H(t) leaves (1/2, 1)" in err
    assert "Traceback" not in err
    assert not any(out.glob("*"))


def test_density_past_the_hurst_horizon_exits_2(tmp_path, capsys):
    # the subordination integral reads the variance at clock values up to
    # the clock's support at t 20, where H(tau) = 0.6 + 0.1 tau passes 1
    body = {"model": {"kind": "variable_hurst", "preset": "poly",
                      "coeffs": [0.6, 0.1], "horizon": 2.0},
            "subordinator": {"components": [{"beta": 0.7}]},
            "solver": {"t_max": 20.0}}
    out = tmp_path / "o"
    rc = main(["density", "--config", write_config(tmp_path, body),
               "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "model.horizon: H(t) leaves (1/2, 1)" in err
    assert "Traceback" not in err
    assert not any(out.glob("*"))


@pytest.mark.parametrize("times", [[0.5, 0.5], [1.0, 0.5]])
def test_density_needs_increasing_times(tmp_path, capsys, times):
    # the times are the rows of one grid density
    out = tmp_path / "o"
    rc = main(["density", "--config",
               write_config(tmp_path, {**BM_CFG, "times": times}),
               "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config.times: density needs increasing times" in err
    assert "Traceback" not in err
    assert not any(out.glob("*"))


def test_density_headline_config_stays_in_range(tmp_path):
    # Moebius H(t) = 0.6 + 0.3 t / (1 + t) stays in (1/2, 1) at every
    # clock value
    cfg = os.path.join(CONFIGS, "mobius_beta07.json")
    assert main(["density", "--config", cfg, "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("command", ["solve", "validate"])
def test_headline_config_has_no_solve(tmp_path, command, capsys):
    # a fractional solve needs an autonomous operator (Brownian or OU)
    cfg = os.path.join(CONFIGS, "mobius_beta07.json")
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "autonomous operator" in capsys.readouterr().err


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
    (["simulate", "--config", "CFG", "--paths", "0"],
     "--paths: expected an integer >= 1"),
    (["simulate", "--config", "CFG", "--paths", "-2"],
     "--paths: expected an integer >= 1"),
], ids=["beta-high", "beta-zero", "gamma-nan", "gamma-zero", "t-nan",
        "t-zero", "config-gamma-zero", "config-gamma-inf",
        "operators-gamma-high", "operators-gamma-low", "paths-zero",
        "paths-negative"])
def test_bad_flag_exits_2_naming_it(tmp_path, capsys, argv, message):
    cfg = write_config(tmp_path, BM_CFG)
    out = tmp_path / "o"
    rc = main([cfg if a == "CFG" else a for a in argv] + ["--out", str(out)])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not any(out.glob("*.csv"))


@pytest.mark.parametrize("key, value", [
    ("n_x", 120.9), ("n_t", 40.5), ("n_x", 16.5),
])
def test_fractional_grid_size_exits_2_naming_it(tmp_path, capsys, key,
                                                value):
    # a grid size is a count: 120.9 is not silently read as 120
    body = {**BM_CFG, "solver": {**BM_CFG["solver"], key: value}}
    out = tmp_path / "o"
    rc = main(["density", "--config", write_config(tmp_path, body),
               "--out", str(out)])
    assert rc == 2
    assert f"solver.{key}: expected a whole number" in capsys.readouterr().err
    assert not any(out.glob("*"))


@pytest.mark.parametrize("key", ["n_x", "n_t"])
def test_whole_float_grid_size_accepted(tmp_path, key):
    body = {**BM_CFG, "solver": {**BM_CFG["solver"], key: 200.0}}
    solver = load_config(write_config(tmp_path, body))["solver"]
    assert getattr(solver, key) == 200
    assert isinstance(getattr(solver, key), int)


CONVERGENCE_CFG = {"model": {"kind": "brownian"},
                   "solver": {"n_t": 160, "n_x": 160}}


def test_convergence_uses_configured_init_width(tmp_path, monkeypatch):
    import subdiff.cli as cli

    widths = []

    def recording(op, solver):
        widths.append(solver.init_width)
        return solve_classical(op, solver)

    solve_classical = cli.solve_classical
    monkeypatch.setattr(cli, "solve_classical", recording)
    tables = []
    for name, extra in (("a", {}), ("b", {"init_width": 0.6})):
        body = {**CONVERGENCE_CFG,
                "solver": {**CONVERGENCE_CFG["solver"], **extra}}
        out = tmp_path / name
        assert main(["convergence", "--config",
                     write_config(tmp_path, body, f"{name}.json"),
                     "--out", str(out)]) == 0
        tables.append((out / "convergence.csv").read_text())
    # the study's own width is min(4 cells of its coarsest grid, half the
    # final spread) = min(0.81, 0.5); the configured one serves all levels
    assert widths[:3] == [0.5] * 3
    assert widths[3:] == [0.6] * 3
    assert tables[0] != tables[1]


def test_convergence_init_width_too_narrow_exits_2(tmp_path, capsys):
    # 0.1 is 2.5 cells of the configured 400-point grid, but under 2 cells
    # of the study's coarsest (100 points)
    body = {"model": {"kind": "brownian"}, "solver": {"init_width": 0.1}}
    out = tmp_path / "o"
    rc = main(["convergence", "--config", write_config(tmp_path, body),
               "--out", str(out)])
    assert rc == 2
    assert ("solver.init_width: init_width must be at least 2 grid cells"
            in capsys.readouterr().err)
    assert not any(out.glob("*"))


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


def test_convergence_past_the_hurst_horizon_exits_2(tmp_path, capsys):
    # the default mollifier reads the variance at t_max = 5, past the
    # horizon 1 of H(t) = 0.6 + 0.1 t
    body = {"model": {"kind": "variable_hurst", "preset": "poly",
                      "coeffs": [0.6, 0.1], "horizon": 1.0},
            "solver": {"t_max": 5.0}}
    out = tmp_path / "o"
    rc = main(["convergence", "--config", write_config(tmp_path, body),
               "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "model.horizon: H(t) leaves (1/2, 1)" in err
    assert "Traceback" not in err
    assert not any(out.glob("*"))


BETA_ONE = {"model": {"kind": "brownian"},
            "subordinator": {"components": [{"beta": 1.0}]}}


@pytest.mark.parametrize("command", ["solve", "validate"])
def test_beta_one_clock_too_coarse_exits_2(tmp_path, capsys, command):
    # 4 cells of a 40-point grid are wider than the variance at t_max allows
    body = {**BETA_ONE, "solver": {"n_x": 40}}
    out = tmp_path / "o"
    rc = main([command, "--config", write_config(tmp_path, body),
               "--out", str(out)])
    assert rc == 2
    assert ("solver.t_max: init_width too large for the solve horizon"
            in capsys.readouterr().err)
    assert not any(out.glob("*"))


@pytest.mark.parametrize("model, weight", [
    ({"kind": "brownian"}, 2.0),
    ({"kind": "ou", "alpha": 1.0, "sigma": 1.0}, 0.5),
    ({"kind": "fbm", "h": 0.7}, 1.0),
])
def test_beta_one_clock_solves_classically(tmp_path, model, weight):
    # E_t = t / w: the classical solve to t_max / w, its times read as t
    body = {"model": model,
            "subordinator": {"components": [{"beta": 1.0, "weight": weight}]},
            "solver": {"n_t": 100, "n_x": 200}}
    cfg = write_config(tmp_path, body)
    out = tmp_path / "o"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    meta = json.loads((out / "solution.meta.json").read_text())
    assert meta["equation"] == "classical"
    t = np.loadtxt(out / "solution.csv", delimiter=",", skiprows=1,
                   usecols=0)
    assert abs(t.max() - 1.0) < 1e-15
    rep = tmp_path / "r"
    assert main(["validate", "--config", cfg, "--out", str(rep)]) == 0
    checks = {c["name"]: c for c in json.loads(
        (rep / "report.json").read_text())["checks"]}
    assert checks["solver_vs_subordination"]["passed"]
    assert ("solver_variance_vs_moment" in checks) == (
        model["kind"] == "brownian")


@pytest.mark.parametrize("beta", [0.5, 1.0])
def test_validate_reads_the_moment_at_any_weight(tmp_path, beta):
    # Var B(E_t) = E[E_t] = t^beta / (w Gamma(1 + beta)) for a weight-w clock
    body = {**BM_CFG,
            "subordinator": {"components": [{"beta": beta, "weight": 2.0}]},
            "solver": {"n_t": 200, "n_x": 300}}
    out = tmp_path / "o"
    assert main(["validate", "--config", write_config(tmp_path, body),
                 "--out", str(out)]) == 0
    checks = {c["name"]: c for c in json.loads(
        (out / "report.json").read_text())["checks"]}
    assert checks["solver_variance_vs_moment"]["passed"]


def test_validate_positivity_defect_is_never_negative_zero(tmp_path, capsys):
    # a beta = 1 clock solves classically, and that solution's minimum is
    # exactly 0: the defect must read +0.0, not -0.0, in the report and on
    # stdout
    body = {"model": {"kind": "brownian"},
            "subordinator": {"components": [{"beta": 1.0, "weight": 2.0}]}}
    out = tmp_path / "o"
    assert main(["validate", "--config", write_config(tmp_path, body),
                 "--out", str(out)]) == 0
    checks = {c["name"]: c for c in json.loads(
        (out / "report.json").read_text())["checks"]}
    measured = checks["positivity_defect"]["measured"]
    assert measured == 0.0
    assert math.copysign(1.0, measured) == 1.0
    assert "positivity_defect: 0.000e+00" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# every subcommand on drawn configurations keeps the exit-code contract
# ---------------------------------------------------------------------------

_FBM = st.builds(lambda h: {"kind": "fbm", "h": h}, st.floats(0.05, 0.95))
_SIMPLE = st.one_of(st.just({"kind": "brownian"}), _FBM)
_MODELS = st.one_of(
    st.just({"kind": "brownian"}),
    _FBM,
    st.builds(lambda a, s: {"kind": "ou", "alpha": a, "sigma": s},
              st.floats(0.0, 2.0), st.floats(0.5, 2.0)),
    st.builds(lambda terms: {"kind": "mixed", "terms": terms},
              st.lists(st.builds(lambda c, m: {"coef": c, "model": m},
                                 st.floats(0.5, 2.0), _SIMPLE),
                       min_size=1, max_size=2)),
    st.builds(lambda a, b, horizon: {"kind": "variable_hurst",
                                     "preset": "mobius", "a": a, "b": b,
                                     "horizon": horizon},
              st.floats(0.5, 0.8), st.floats(0.0, 0.3), st.floats(1.0, 4.0)),
    st.builds(lambda c0, c1, horizon: {"kind": "variable_hurst",
                                       "preset": "poly", "coeffs": [c0, c1],
                                       "horizon": horizon},
              st.floats(0.5, 0.8), st.floats(0.0, 0.1), st.floats(1.0, 4.0)),
    st.builds(lambda cuts, hs: {"kind": "piecewise_hurst",
                                "breakpoints": sorted(cuts),
                                "values": hs[: len(cuts) + 1]},
              st.lists(st.floats(0.1, 4.0), min_size=1, max_size=2,
                       unique=True),
              st.lists(st.floats(0.05, 0.95), min_size=3, max_size=3)),
)
_CLOCKS = st.integers(0, 2).flatmap(lambda n: st.lists(
    st.builds(lambda b, w: {"beta": b, "weight": w},
              st.floats(0.1, 1.0),
              st.one_of(st.just(1.0), st.floats(0.5, 2.0))),
    min_size=n, max_size=n))
_SOLVERS = st.builds(
    lambda n_t, n_x, t_max, lo, hi: {"t_max": t_max, "n_t": n_t,
                                     "x_min": -lo, "x_max": hi, "n_x": n_x},
    st.integers(16, 40), st.integers(16, 40), st.floats(0.05, 5.0),
    st.floats(2.0, 10.0), st.floats(2.0, 10.0))
_COMMANDS = ("simulate", "density", "solve", "operators", "moments",
             "validate", "convergence")
_FIELDS = ("model.", "solver.", "subordinator", "config.")


def _finite_csv(path, command):
    """Every cell of a written CSV is a finite number, except the order of
    the convergence study's first level, which has no coarser level to
    compare with and is NaN by definition."""
    rows = [line.split(",") for line in
            path.read_text().splitlines()[1:]]
    for i, row in enumerate(rows):
        for j, cell in enumerate(row):
            if command == "convergence" and (i, j) == (0, 2):
                assert math.isnan(float(cell))
            else:
                assert math.isfinite(float(cell)), (i, j, cell)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(model=_MODELS, clock=_CLOCKS, solver=_SOLVERS,
       times=st.one_of(st.none(), st.lists(st.floats(0.05, 5.0),
                                           min_size=1, max_size=3)))
def test_every_command_keeps_the_exit_code_contract(model, clock, solver,
                                                    times):
    body = {"model": model, "solver": solver, "paths": 3}
    if clock:
        body["subordinator"] = {"components": clock}
    if times is not None:
        body["times"] = times
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "cfg.json")
        with open(cfg, "w") as fh:
            json.dump(body, fh)
        for command in _COMMANDS:
            out = pathlib.Path(tmp, command)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                rc = main([command, "--config", cfg, "--out", str(out)])
            where = (command, body, err.getvalue())
            assert rc in (0, 1, 2, 3), where
            assert rc != 1 or command == "validate", where
            if rc == 2:
                assert any(f in err.getvalue() for f in _FIELDS), where
            if rc == 0 and command == "validate":
                report = json.loads((out / "report.json").read_text())
                assert all(math.isfinite(c["measured"])
                           for c in report["checks"]), where
            elif rc == 0:
                name = {"simulate": "paths",
                        "solve": "solution"}.get(command, command)
                _finite_csv(out / f"{name}.csv", command)
