"""Command-line front end.

Subcommands::

    simulate     sample Gaussian or time-changed paths   -> paths.csv
    density      subordination-integral densities        -> density.csv
    solve        classical / fractional FPKE solve       -> solution.csv
    operators    nonlocal-operator value tables          -> operators.csv
    moments      inverse-clock moment table              -> moments.csv
    validate     solver-vs-subordination triangulation   -> report.json
    convergence  classical refinement study              -> convergence.csv

Exit status: 0 success, 1 a validation check failed, 2 bad usage or a
configuration/schema error, 3 an internal numerical failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time

import numpy as np

from .config import MASS_TOL, NONNEG_TOL, SolverConfig
from .errors import HurstRangeError, NumericsError
from . import io as artifact_io
from .fpke import (
    OUGenerator,
    ScaledLaplacian,
    operator_from_model,
    solve_classical,
    solve_distributed_order,
    solve_fractional,
)
from .gaussian import (
    Brownian,
    FractionalBrownian,
    GaussianSpec,
    Mixed,
    MobiusHurst,
    OrnsteinUhlenbeck,
    PiecewiseHurst,
    PolynomialHurst,
    VariableHurst,
    gaussian_transition_density,
    sample_gaussian_paths,
)
from .lambdaop import (
    GOperator,
    LambdaOperator,
    constant_transform,
    eval_G,
    eval_Lambda,
)
from .subordinators import SeededRng, SubordinatorSpec, inverse_time_moment
from .timechange import (
    TimeChangedSpec,
    sample_timechanged_paths,
    subordinated_density,
    subordinated_grid_density,
)


class ConfigError(ValueError):
    """Schema violation; the message carries the offending field path."""


# ---------------------------------------------------------------------------
# strict JSON schema
# ---------------------------------------------------------------------------

def _expect_mapping(obj, path):
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object")


def _reject_unknown(obj, allowed, path):
    unknown = set(obj) - set(allowed)
    if unknown:
        raise ConfigError(f"{path}.{sorted(unknown)[0]}: unknown key")


def _finite(v, where) -> float:
    """v as a float; JSON's NaN and Infinity (every range comparison with
    NaN is false) and booleans are refused."""
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        raise ConfigError(f"{where}: expected a number")
    try:
        v = float(v)
    except OverflowError:  # an integer literal beyond the float range
        v = math.inf
    if not math.isfinite(v):
        raise ConfigError(f"{where}: expected a finite number")
    return v


def _ranged(v, where, *, lo=None, hi=None, lo_open=False,
            hi_open=False) -> float:
    """v as a finite float inside the stated bounds."""
    v = _finite(v, where)
    if lo is not None and (v <= lo if lo_open else v < lo):
        raise ConfigError(f"{where}: must be {'>' if lo_open else '>='} {lo}")
    if hi is not None and (v >= hi if hi_open else v > hi):
        raise ConfigError(f"{where}: must be {'<' if hi_open else '<='} {hi}")
    return v


def _number(obj, key, path, *, default=None, required=False, **bounds):
    if key not in obj:
        if required:
            raise ConfigError(f"{path}.{key}: required")
        return default
    return _ranged(obj[key], f"{path}.{key}", **bounds)


def _numbers(obj, key, path) -> tuple[float, ...]:
    """obj[key] as a list of numbers; a bad entry is named by its index."""
    vals = obj.get(key)
    if not isinstance(vals, list):
        raise ConfigError(f"{path}.{key}: expected a list")
    return tuple(_finite(v, f"{path}.{key}[{i}]") for i, v in enumerate(vals))


def parse_model(obj, path="model"):
    _expect_mapping(obj, path)
    if "kind" not in obj:
        raise ConfigError(f"{path}.kind: required")
    kind = obj["kind"]
    if kind == "brownian":
        _reject_unknown(obj, {"kind"}, path)
        return Brownian()
    if kind == "fbm":
        _reject_unknown(obj, {"kind", "h"}, path)
        h = _number(obj, "h", path, lo=0.0, hi=1.0, lo_open=True,
                    hi_open=True, required=True)
        return FractionalBrownian(h)
    if kind == "ou":
        _reject_unknown(obj, {"kind", "alpha", "sigma"}, path)
        alpha = _number(obj, "alpha", path, lo=0.0, required=True)
        sigma = _number(obj, "sigma", path, lo=0.0, lo_open=True,
                        required=True)
        return OrnsteinUhlenbeck(alpha, sigma)
    if kind == "mixed":
        _reject_unknown(obj, {"kind", "terms"}, path)
        terms = obj.get("terms")
        if not isinstance(terms, list) or not terms:
            raise ConfigError(f"{path}.terms: expected a nonempty list")
        parsed = []
        for i, term in enumerate(terms):
            tp = f"{path}.terms[{i}]"
            _expect_mapping(term, tp)
            _reject_unknown(term, {"coef", "model"}, tp)
            coef = _number(term, "coef", tp, required=True)
            parsed.append((coef, parse_model(term.get("model"), f"{tp}.model")))
        try:
            return Mixed(tuple(parsed))
        except ValueError as ex:
            raise ConfigError(f"{path}.terms: {ex}") from ex
    if kind == "variable_hurst":
        _reject_unknown(obj, {"kind", "preset", "a", "b", "coeffs", "horizon"},
                        path)
        horizon = _number(obj, "horizon", path, lo=0.0, lo_open=True,
                          default=4.0)
        preset = obj.get("preset")
        if preset == "mobius":
            hurst = MobiusHurst(_number(obj, "a", path, required=True),
                                _number(obj, "b", path, required=True))
            fields = f"{path}.a/{path}.b"
        elif preset == "poly":
            coeffs = _numbers(obj, "coeffs", path)
            if not coeffs:
                raise ConfigError(f"{path}.coeffs: expected a nonempty list")
            hurst = PolynomialHurst(coeffs)
            fields = f"{path}.coeffs"
        else:
            raise ConfigError(f"{path}.preset: expected 'mobius' or 'poly'")
        try:
            return VariableHurst(hurst, horizon)
        except ValueError as ex:
            raise ConfigError(f"{fields}/{path}.horizon: {ex}") from ex
    if kind == "piecewise_hurst":
        _reject_unknown(obj, {"kind", "breakpoints", "values"}, path)
        bps = _numbers(obj, "breakpoints", path)
        vals = _numbers(obj, "values", path)
        try:
            return PiecewiseHurst(bps, vals)
        except ValueError as ex:
            raise ConfigError(f"{path}.breakpoints/{path}.values: {ex}") \
                from ex
    raise ConfigError(f"{path}.kind: unknown model kind {kind!r}")


def parse_subordinator(obj, path="subordinator"):
    _expect_mapping(obj, path)
    _reject_unknown(obj, {"components"}, path)
    comps = obj.get("components")
    if not isinstance(comps, list) or not comps:
        raise ConfigError(f"{path}.components: expected a nonempty list")
    parsed = []
    for i, c in enumerate(comps):
        cp = f"{path}.components[{i}]"
        _expect_mapping(c, cp)
        _reject_unknown(c, {"beta", "weight"}, cp)
        beta = _number(c, "beta", cp, lo=0.0, hi=1.0, lo_open=True,
                       required=True)
        weight = _number(c, "weight", cp, lo=0.0, lo_open=True, default=1.0)
        parsed.append((beta, weight))
    try:
        return SubordinatorSpec(tuple(parsed))
    except ValueError as ex:
        raise ConfigError(f"{path}: {ex}") from ex


def parse_solver(obj, path="solver"):
    _expect_mapping(obj, path)
    allowed = {"t_max", "n_t", "x_min", "x_max", "n_x", "init_width",
               "quadrature_tol", "inversion_tol"}
    _reject_unknown(obj, allowed, path)
    kw = {}
    kw["t_max"] = _number(obj, "t_max", path, lo=0.0, lo_open=True, default=1.0)
    for key, dflt in (("n_t", 400), ("n_x", 400)):
        v = _number(obj, key, path, lo=16, default=dflt)
        if v != int(v):
            raise ConfigError(f"{path}.{key}: expected a whole number")
        kw[key] = int(v)
    kw["x_min"] = _number(obj, "x_min", path, default=-8.0)
    kw["x_max"] = _number(obj, "x_max", path, default=8.0)
    if "init_width" in obj:
        kw["init_width"] = _number(obj, "init_width", path, lo=0.0,
                                   lo_open=True)
    for key in ("quadrature_tol", "inversion_tol"):
        if key in obj:
            kw[key] = _number(obj, key, path, lo=0.0, lo_open=True)
    try:
        return SolverConfig(**kw)
    except ValueError as ex:
        raise ConfigError(f"{path}: {ex}") from ex


TOP_KEYS = {"model", "subordinator", "solver", "seed", "paths", "times",
            "sample_points", "tolerance"}


def load_config(path: str) -> dict:
    """Parse and validate an experiment configuration file.

    Returns a dict with parsed objects under the same keys; unknown keys
    anywhere are rejected with the offending field path in the message.
    """
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError as ex:
        raise ConfigError(f"config file not found: {path}") from ex
    except json.JSONDecodeError as ex:
        raise ConfigError(f"config is not valid JSON: {ex}") from ex
    _expect_mapping(raw, "config")
    _reject_unknown(raw, TOP_KEYS, "config")
    out = {"raw": raw}
    out["model"] = parse_model(raw["model"]) if "model" in raw else None
    out["subordinator"] = (
        parse_subordinator(raw["subordinator"])
        if "subordinator" in raw else None
    )
    out["solver"] = parse_solver(raw.get("solver", {}))
    seed = raw.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ConfigError("config.seed: expected an integer >= 0")
    out["seed"] = seed
    paths = raw.get("paths", 100)
    if not isinstance(paths, int) or isinstance(paths, bool) or paths < 1:
        raise ConfigError("config.paths: expected an integer >= 1")
    out["paths"] = paths
    pts = raw.get("sample_points", 50)
    if not isinstance(pts, int) or pts < 2:
        raise ConfigError("config.sample_points: expected an integer >= 2")
    out["sample_points"] = pts
    times = None
    if raw.get("times") is not None:
        times = [_ranged(t, f"config.times[{i}]", lo=0.0, lo_open=True)
                 for i, t in enumerate(_numbers(raw, "times", "config"))]
    out["times"] = times
    out["tolerance"] = _number(raw, "tolerance", "config", lo=0.0,
                               lo_open=True, default=5e-3)
    return out


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------

def _outdir(args) -> str:
    out = args.out or os.environ.get("SUBDIFF_OUT", "subdiff-out")
    os.makedirs(out, exist_ok=True)
    return out


def _emit(args, name: str, csv: str, meta: dict, echo: bool = False) -> int:
    """Write ``name``.csv and its sidecar, echo the CSV to stdout if asked,
    then print the written paths."""
    written = artifact_io.write_artifact(_outdir(args), name, csv, meta)
    if echo:
        sys.stdout.write(csv)
    print("\n".join(written))
    return 0


# VariableHurst checks H(t) on [0, horizon] only; a clock or a solve may run
# past it, and ``main`` reports the HurstRangeError raised there with this
_PAST_HORIZON = ("model.horizon: H(t) leaves (1/2, 1) at a clock value past "
                 "the horizon")


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    if cfg["model"] is None:
        raise ConfigError("config.model: required for simulate")
    if args.paths is not None and args.paths < 1:
        raise ConfigError("--paths: expected an integer >= 1")
    n_paths = cfg["paths"] if args.paths is None else args.paths
    solver = cfg["solver"]
    grid = np.linspace(0.0, solver.t_max, cfg["sample_points"] + 1)
    gauss = GaussianSpec.univariate(cfg["model"])
    rng = SeededRng(cfg["seed"])
    spec, sample = gauss, sample_gaussian_paths
    if cfg["subordinator"] is not None:
        spec = TimeChangedSpec(gauss, cfg["subordinator"])
        sample = sample_timechanged_paths
    ens = sample(spec, grid, n_paths, rng)
    meta = artifact_io.provenance(cfg["raw"], seed=cfg["seed"])
    return _emit(args, "paths", artifact_io.paths_csv(ens), meta)


def cmd_density(args) -> int:
    cfg = load_config(args.config)
    if cfg["model"] is None or cfg["subordinator"] is None:
        raise ConfigError("config.model and config.subordinator: required")
    solver = cfg["solver"]
    spec = TimeChangedSpec(GaussianSpec.univariate(cfg["model"]),
                           cfg["subordinator"])
    times = cfg["times"] or [solver.t_max]
    # the times are the rows of one grid density
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ConfigError("config.times: density needs increasing times")
    xg = np.linspace(solver.x_min, solver.x_max, solver.n_x)
    gd = subordinated_grid_density(spec, times, xg, config=solver)
    meta = artifact_io.provenance(cfg["raw"], seed=cfg["seed"])
    meta["mass_error"] = [float(m) for m in gd.mass_error]
    return _emit(args, "density", artifact_io.grid_density_csv(gd), meta)


def _classical_solve(cfg, weight=1.0, **grid):
    """``solve_classical`` of the configured model on the configured solver
    grid, with ``grid`` fields replaced, on the clock E_t = t / ``weight``
    (a beta = 1 clock of that weight; 1 is no clock): the solve runs to
    E_{t_max}, and its times are read back as t.

    A mollifier too narrow for the grid or too wide for the horizon is a
    configuration error: it names ``solver.init_width`` when the config
    sets it and ``solver.t_max`` otherwise; a variable-Hurst model run past
    its horizon is left to ``main``.
    """
    try:
        solver = dataclasses.replace(cfg["solver"], **grid)
        if weight != 1.0:
            solver = dataclasses.replace(solver, t_max=solver.t_max / weight)
        gd = solve_classical(operator_from_model(cfg["model"]), solver)
    except HurstRangeError:
        raise  # a model error, which ``main`` reports
    except ValueError as ex:
        field = ("init_width" if "init_width" in cfg["raw"].get("solver", {})
                 else "t_max")
        raise ConfigError(f"solver.{field}: {ex}") from ex
    if weight != 1.0:
        gd = dataclasses.replace(gd, t_grid=gd.t_grid * weight)
    return gd


def _solver_route(cfg):
    """(equation kind, GridDensity) for the configured model; the clock
    picks the kind: none classical, pure fractional, mixture distributed."""
    model = cfg["model"]
    sub = cfg["subordinator"]
    solver = cfg["solver"]
    if sub is None:
        return "classical", _classical_solve(cfg)
    if sub.is_deterministic:
        # E_t = t / w: the classical equation, w times slower
        return "classical", _classical_solve(cfg, sub.components[0][1])
    if isinstance(model, OrnsteinUhlenbeck):
        op = OUGenerator(model.alpha, model.sigma)
    elif isinstance(model, Brownian):
        op = ScaledLaplacian(0.5)
    else:
        raise ConfigError(
            "model.kind: fractional solves need an autonomous operator "
            "(brownian or ou model)"
        )
    # the fractional solvers start from a split delta at x = 0
    # (fpke._split_delta); the classical solve and the subordination
    # routes evaluate x pointwise and take any window
    if not solver.x_min <= 0.0 <= solver.x_max:
        raise ConfigError(
            "solver.x_min/solver.x_max: domain must contain the origin"
        )
    if sub.is_pure:
        return "fractional", solve_fractional(op, sub.components[0][0], solver)
    return "distributed", solve_distributed_order(op, sub, solver)


def cmd_solve(args) -> int:
    cfg = load_config(args.config)
    if cfg["model"] is None:
        raise ConfigError("config.model: required for solve")
    eq, gd = _solver_route(cfg)
    meta = artifact_io.provenance(cfg["raw"], seed=cfg["seed"])
    meta["equation"] = eq
    meta["mass_error_max"] = float(gd.mass_error.max())
    return _emit(args, "solution", artifact_io.grid_density_csv(gd), meta)


def cmd_moments(args) -> int:
    # E[(E_t)^gamma] is defined for gamma > 0 only
    gamma = (None if args.gamma is None
             else _ranged(args.gamma, "--gamma", lo=0.0, lo_open=True))
    if args.config:
        # the config fixes the clock and the times
        for flag, value in (("--beta", args.beta), ("--t", args.t)):
            if value is not None:
                raise ConfigError(f"{flag}: cannot be combined with --config")
        cfg = load_config(args.config)
        sub = cfg["subordinator"]
        if sub is None:
            raise ConfigError("config.subordinator: required for moments")
        raw = cfg["raw"]
        times = cfg["times"] or [cfg["solver"].t_max]
        gammas = [gamma] if gamma is not None else [1.0, 2.0]
    else:
        if args.beta is None or gamma is None or not args.t:
            raise ConfigError("moments needs --config or --beta/--gamma/--t")
        # the ranges of subordinator.components[].beta and config.times[]
        beta = _ranged(args.beta, "--beta", lo=0.0, hi=1.0, lo_open=True)
        sub = SubordinatorSpec.pure(beta)
        raw = {"beta": beta}
        times = [_ranged(t, "--t", lo=0.0, lo_open=True) for t in args.t]
        gammas = [gamma]
    rows = []
    for t in times:
        for g in gammas:
            rows.append([float(t), float(g),
                         inverse_time_moment(sub, float(t), float(g))])
    csv = artifact_io.table_csv(["t", "gamma", "moment"], rows)
    return _emit(args, "moments", csv, artifact_io.provenance(raw), echo=True)


def cmd_operators(args) -> int:
    # the power kernel u^-(gamma+1) of GOperator needs gamma in (-1, 1)
    gamma = (0.0 if args.gamma is None
             else _ranged(args.gamma, "--gamma", lo=-1.0, hi=1.0,
                          lo_open=True, hi_open=True))
    cfg = load_config(args.config)
    sub = cfg["subordinator"]
    if sub is None or not sub.is_pure:
        raise ConfigError("config.subordinator: pure beta required")
    # GOperator needs beta in (0, 1); the config also admits beta = 1
    beta = _ranged(sub.components[0][0], "subordinator.components[0].beta",
                   lo=0.0, hi=1.0, lo_open=True, hi_open=True)
    times = cfg["times"] or [cfg["solver"].t_max]
    one = constant_transform(1.0)
    rows = []
    for t in times:
        gv = eval_G(GOperator(beta, gamma), one, float(t))
        row = [float(t), gamma, gv.value, gv.error]
        rows.append(row)
    header = ["t", "gamma", "G_value", "G_error"]
    if cfg["model"] is not None and cfg["model"].laplace_profile() is not None:
        header += ["Lambda_value", "Lambda_error"]
        lam = LambdaOperator(sub, cfg["model"])
        for row, t in zip(rows, times):
            lv = eval_Lambda(lam, one, float(t))
            row += [lv.value, lv.error]
    csv = artifact_io.table_csv(header, rows)
    return _emit(args, "operators", csv, artifact_io.provenance(cfg["raw"]),
                 echo=True)


def cmd_validate(args) -> int:
    cfg = load_config(args.config)
    if cfg["model"] is None:
        raise ConfigError("config.model: required for validate")
    model = cfg["model"]
    sub = cfg["subordinator"]
    solver = cfg["solver"]
    tol = cfg["tolerance"]
    checks = []

    def record(name, measured, tolerance):
        nonlocal t_check
        now = time.perf_counter()
        checks.append({
            "name": name,
            "measured": float(measured),
            "tolerance": float(tolerance),
            "passed": bool(measured <= tolerance),
            "runtime_s": round(now - t_check, 6),
        })
        t_check = now

    t0 = time.time()
    _, gd = _solver_route(cfg)
    # a check's runtime_s is the wall time since the previous check ended
    # (or since the shared solve), which is the computation of its figure
    t_check = time.perf_counter()
    if sub is None:
        ref = gaussian_transition_density(GaussianSpec.univariate(model),
                                          solver.t_max, gd.x_grid)
        record("classical_solver_vs_density",
               np.abs(gd.values[-1] - ref).max(), tol)
        record("mass_conservation", gd.mass_error.max(), MASS_TOL * 10)
    else:
        spec = TimeChangedSpec(GaussianSpec.univariate(model), sub)
        q = subordinated_density(spec, solver.t_max, gd.x_grid, config=solver)
        record("solver_vs_subordination", np.abs(gd.values[-1] - q).max(), tol)
        record("mass_conservation", gd.mass_error.max(), MASS_TOL * 10)
        # max keeps its first argument on a tie: -0.0 must not win
        record("positivity_defect", max(0.0, -gd.values.min()), NONNEG_TOL)
        sym = np.abs(q - q[::-1]).max()
        record("density_symmetry", sym, 10 * tol)
        if isinstance(model, Brownian) and len(sub.components) == 1:
            # Var B(E_t) = E[E_t]
            var = np.trapezoid(gd.values[-1] * gd.x_grid**2, gd.x_grid)
            want = inverse_time_moment(sub, solver.t_max, 1.0)
            record("solver_variance_vs_moment", abs(var - want), 1e-3)
    runtime = time.time() - t0

    report = {
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
        "runtime_s": round(runtime, 3),
        "provenance": artifact_io.provenance(cfg["raw"], seed=cfg["seed"]),
    }
    out = os.path.join(_outdir(args), "report.json")
    artifact_io.atomic_write(out, json.dumps(report, indent=2, sort_keys=True) + "\n")
    for c in checks:
        status = "PASS" if c["passed"] else "FAIL"
        print(f"{status} {c['name']}: {c['measured']:.3e} "
              f"(tol {c['tolerance']:.1e})")
    print(out)
    return 0 if report["passed"] else 1


def cmd_convergence(args) -> int:
    cfg = load_config(args.config)
    if cfg["model"] is None:
        raise ConfigError("config.model: required for convergence")
    model = cfg["model"]
    solver = cfg["solver"]
    gauss = GaussianSpec.univariate(model)
    base = max(solver.n_x // 4, 80)
    # the configured mollifier serves every level; without one the study
    # takes 4 cells of its coarsest grid, at most half the final spread
    width = solver.init_width
    if width is None:
        dx0 = (solver.x_max - solver.x_min) / (base - 1)
        var_end = float(model.var(solver.t_max))
        width = min(4.0 * dx0, 0.5 * math.sqrt(var_end))
    rows = []
    prev_err = None
    for level in range(3):
        n = base * 2**level
        gd = _classical_solve(cfg, n_t=n, n_x=n, init_width=width)
        ref = gaussian_transition_density(gauss, solver.t_max, gd.x_grid)
        err = float(np.abs(gd.values[-1] - ref).max())
        h = (solver.x_max - solver.x_min) / (n - 1)
        order = math.log2(prev_err / err) if prev_err else float("nan")
        rows.append([h, err, order])
        prev_err = err
    csv = artifact_io.table_csv(["h", "error", "order"], rows)
    return _emit(args, "convergence", csv, artifact_io.provenance(cfg["raw"]),
                 echo=True)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="subdiff",
        description="time-changed Gaussian processes and their FPK equations",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, config_required=True):
        p.add_argument("--config", required=config_required,
                       help="experiment configuration (JSON)")
        p.add_argument("--out", default=None,
                       help="output directory (default $SUBDIFF_OUT or ./subdiff-out)")

    p = sub.add_parser("simulate", help="sample process paths")
    common(p)
    p.add_argument("--paths", type=int, default=None)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("density", help="subordination-integral density")
    common(p)
    p.set_defaults(fn=cmd_density)

    p = sub.add_parser("solve", help="FPKE finite-difference solve")
    common(p)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("operators", help="nonlocal operator tables")
    common(p)
    p.add_argument("--gamma", type=float, default=None)
    p.set_defaults(fn=cmd_operators)

    p = sub.add_parser("moments", help="inverse-clock moments")
    common(p, config_required=False)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--t", type=float, action="append", default=None)
    p.set_defaults(fn=cmd_moments)

    p = sub.add_parser("validate", help="triangulation checks")
    common(p)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("convergence", help="refinement study")
    common(p)
    p.set_defaults(fn=cmd_convergence)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as ex:
        return int(ex.code) if ex.code else 0
    try:
        return args.fn(args)
    except ConfigError as ex:
        print(f"configuration error: {ex}", file=sys.stderr)
        return 2
    except HurstRangeError:
        print(f"configuration error: {_PAST_HORIZON}", file=sys.stderr)
        return 2
    except NumericsError as ex:
        print(f"numerical failure: {ex}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
