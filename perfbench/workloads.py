"""Seeded inputs, tasks and correctness checks of the four workloads.

Every call into the library goes through a module attribute
(``subordinators.sample_inverse_ensemble(...)``, never a name imported with
``from ... import``), so the traced worker's wrappers, installed after this
module is imported, see each call.

Task j of a workload is a pure function of the seed, j and the run's
number of tasks: the traced run replays exactly the tasks of the untraced
run.  A task either returns a
dict of route gaps, or raises ``subdiff.NumericsError`` (the library could
not deliver its accuracy contract) or ``CheckFailed`` (an output was
wrong).  Tasks are never retried or skipped.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os

import numpy as np
from scipy.special import chdtrc

import subdiff
from subdiff import cli, fpke, fraccalc, gaussian, lambdaop, subordinators
from subdiff import timechange

# --- the package's own tolerances, each used as a pass/fail gate ---------
# `subdiff validate`'s default tolerance and acceptance criteria 3-4
SOLVER_VS_SUBORDINATION_TOL = 5e-3
# caputo_l1 against an independent evaluation (tests/test_fraccalc.py)
CAPUTO_RTOL = 1e-3
# a solve's residual against its own equation on its own grid is round-off
# (tests/test_fpke.py)
SELF_RESIDUAL_TOL = 1e-9
# field residual of the Brownian reduction (tests/test_lambdaop.py)
FBM_RESIDUAL_TOL = 5e-3
# Laplace-domain subordination identity, pure clock (acceptance criterion 8)
LAPLACE_IDENTITY_TOL = 1e-4
# operator spread: the gate eval_G / eval_Lambda apply to single values
OPERATOR_SPREAD_TOL = lambdaop.ContourConfig().fail_tol
# Monte Carlo: |z| < 4 per moment test; the chi-square test fails at the
# same two-sided tail probability
Z_MAX = 4.0
CHI2_MIN_P = math.erfc(Z_MAX / math.sqrt(2.0))

BETA_RANGE = (0.1, 0.95)
WORKLOAD_IDS = {"cli_configs": 1, "fpke_triangulation": 2,
                "monte_carlo": 3, "operators": 4}

# Clock inputs live on grids, so that it is known which of them the library
# fails on today.  A 0.01 scan of BETA_GRID, through each workload's own
# calls, found the pure clocks whose subordination integral raises
# (QuadratureError; InversionError at 0.94): BAND for Brownian motion and
# OU alike; OU adds 0.82, and operators' Laplace identity at x = 0.5 adds
# 0.82, 0.87 and 0.89.
BETA_GRID = tuple(k / 100 for k in range(10, 96))
BAND = (0.72, 0.73, 0.74, 0.76, 0.77, 0.78, 0.79, 0.80, 0.81, 0.84, 0.94)
PURE_FAILURES = {"brownian": BAND, "ou": BAND + (0.82,),
                 0.0: BAND, 0.5: BAND + (0.82, 0.87, 0.89)}
# Two-component mixtures (b1, w): weight w on b1, 1 - w on 1.05 - b1.  The
# same scan found these to raise InversionError, Brownian and OU alike.
MIXTURE_GRID = tuple((k / 100, w) for k in range(10, 51)
                     for w in (0.35, 0.5, 0.65))
MIXTURE_FAILURES = ((0.11, 0.35), (0.11, 0.5), (0.12, 0.35), (0.14, 0.5),
                    (0.17, 0.65), (0.19, 0.35), (0.2, 0.5))


def passing(grid, failing) -> tuple:
    return tuple(g for g in grid if g not in failing)


def failure_modes(failing) -> tuple:
    """The band fails in two ways: below 0.79 the quadrature gives up
    within half a second at a peak of about 230 MB, from 0.79 on only after
    about a second, at about 310 MB."""
    return (tuple(b for b in failing if b < 0.79),
            tuple(b for b in failing if b >= 0.79))


def pure_betas(inputs, keys: list, stream: int = 0) -> list:
    """Betas of pure-clock tasks whose known failures are
    ``PURE_FAILURES[keys[i]]``: the first two tasks take a failing beta of
    each mode, so every run shows both and peaks alike; the rest passing
    betas, stratified."""
    modes = [failure_modes(PURE_FAILURES[k])[i] for i, k in enumerate(keys[:2])]
    return inputs.draw(
        modes, [passing(BETA_GRID, PURE_FAILURES[k]) for k in keys[2:]],
        stream)


class CheckFailed(Exception):
    """An output of the program failed a correctness check."""


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


class Inputs:
    """Seeded input generator of one workload.  ``rng(j)`` is the
    independent generator of task j."""

    def __init__(self, seed: int, workload: str):
        self.seed = seed
        self.wid = WORKLOAD_IDS[workload]

    def rng(self, j: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, self.wid, j])

    def draw(self, failing: list, ok: list, stream: int) -> list:
        """Inputs of len(failing) + len(ok) tasks, in that order.

        Task i < len(failing) takes a seeded pick of ``failing[i]``, inputs
        the library fails on today.  Each later task takes a seeded pick
        from its own stratum, one of equal strata of its (ordered) passing
        inputs ``ok[i]``, handed out in a seeded order.  So every run spans
        the whole grid and fails at the same number of tasks, whatever its
        seed.
        """
        rng = np.random.default_rng([self.seed, self.wid, 1 << 20, stream])
        out = [pool[int(rng.integers(len(pool)))] for pool in failing]
        k = len(ok)
        for pool, s in zip(ok, rng.permutation(k)):
            lo = min(len(pool) * int(s) // k, len(pool) - 1)
            hi = max(len(pool) * (int(s) + 1) // k, lo + 1)
            out.append(pool[int(rng.integers(lo, hi))])
        return out


def _mixture(b1: float, w: float) -> subordinators.SubordinatorSpec:
    """b1 <= 0.5 and its mirror image in BETA_RANGE, so every mixture pairs
    a slow component with a fast one."""
    lo, hi = BETA_RANGE
    return subordinators.SubordinatorSpec(((b1, w), (round(lo + hi - b1, 2),
                                                     1.0 - w)))


def _brownian_or_ou(kind: str):
    if kind == "brownian":
        return fpke.ScaledLaplacian(0.5), gaussian.Brownian()
    return fpke.OUGenerator(1.0, 1.0), gaussian.OrnsteinUhlenbeck(1.0, 1.0)


def _spec(model, sub):
    return timechange.TimeChangedSpec(gaussian.GaussianSpec.univariate(model),
                                      sub)


def _z(samples: np.ndarray, mean: float, var: float) -> float:
    """|z| of a sample mean against the closed-form mean and variance.
    The sample's own standard deviation would couple the numerator and the
    denominator: for skewed samples its |z| tail is far heavier than the
    normal one that Z_MAX assumes."""
    return abs(samples.mean() - mean) / math.sqrt(var / len(samples))


class Workload:
    """Task j runs in ``run(j)``.  A run of ``seconds`` is a fixed number of
    tasks, ``n_tasks``: whole rounds of ``round_size`` tasks at
    ``task_s`` seconds each (their mean on a 2-core x86-64 host), so that
    what a run attempts, and which of its tasks fail, depend on the seed
    only, never on how fast the host is.  ``tiny`` overrides ``full`` sizes
    for the smoke test."""

    name = ""
    round_size = 1
    task_s = 1.0
    full: dict = {}
    tiny: dict = {}

    def __init__(self, root: str, workdir: str, seed: int, size: str,
                 seconds: float):
        self.root, self.workdir = root, workdir
        self.size = {**self.full, **(self.tiny if size == "tiny" else {})}
        self.inputs = Inputs(seed, self.name)
        rounds = round(seconds / (self.round_size * self.task_s))
        self.n_tasks = self.round_size * max(1, rounds)

    def setup(self) -> None:
        """Input generation that must finish before the first task."""

    def run(self, j: int) -> dict:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# cli_configs
# ---------------------------------------------------------------------------

def _forget_caches() -> None:
    """Empty the library's process-wide memo tables, so that each
    ``cli.main`` call pays what a fresh ``subdiff`` process pays: the
    pure-clock spline per beta, the clock-support probes and the Volterra
    normaliser per Hurst index."""
    subordinators._PURE_CLOCK_SPLINES.clear()
    timechange._SUPPORT_RATIO.clear()
    gaussian._volterra_norm.cache_clear()


CONFIGS = ("bm_beta05", "fbm_h07", "mixture_04_08", "ou_beta07")
# The documented valid subcommand x shipped-config pairs.  The four left
# out exit 2 by design: fbm_h07 has no subordinator (density, operators,
# moments) and mixture_04_08 is not a pure clock (operators).
CLI_PAIRS = (
    [("simulate", c) for c in CONFIGS]
    + [("density", c) for c in ("bm_beta05", "mixture_04_08", "ou_beta07")]
    + [("solve", c) for c in CONFIGS]
    + [("operators", c) for c in ("bm_beta05", "ou_beta07")]
    + [("moments", c) for c in ("bm_beta05", "mixture_04_08", "ou_beta07")]
    + [("validate", c) for c in CONFIGS]
    + [("convergence", c) for c in CONFIGS]
    + [("moments", None)]
)


class CliConfigs(Workload):
    """Each valid subcommand x config pair through ``cli.main(argv)``,
    on copies of the shipped configs whose seed is the workload seed.
    A round is all 25 pairs; rounds repeat the same argv, so every CSV
    must come back byte-identical.  The library's caches are emptied
    before every call, so no call is faster for a call made before it."""

    name = "cli_configs"
    round_size = len(CLI_PAIRS)  # the shipped configs are desk-sized already
    task_s = 0.2

    def __init__(self, *args):
        super().__init__(*args)
        self.first_hashes: dict[int, dict] = {}

    def setup(self) -> None:
        cfg_dir = os.path.join(self.workdir, "configs")
        os.makedirs(cfg_dir)
        for name in CONFIGS:
            with open(os.path.join(self.root, "configs", f"{name}.json")) as fh:
                cfg = json.load(fh)
            cfg["seed"] = self.inputs.seed
            with open(os.path.join(cfg_dir, f"{name}.json"), "w") as fh:
                json.dump(cfg, fh)
        rng = self.inputs.rng(0)
        self.moments = (float(rng.uniform(*BETA_RANGE)),
                        float(rng.uniform(0.5, 2.0)), (0.5, 2.0))

    def argv(self, i: int, out: str) -> list[str]:
        command, config = CLI_PAIRS[i]
        if config is None:
            beta, gamma, ts = self.moments
            argv = [command, "--beta", repr(beta), "--gamma", repr(gamma)]
            for t in ts:
                argv += ["--t", repr(t)]
        else:
            argv = [command, "--config",
                    os.path.join(self.workdir, "configs", f"{config}.json")]
        return argv + ["--out", out]

    def run(self, j: int) -> dict:
        i = j % self.round_size
        out = os.path.join(self.workdir, "out", str(i))
        _forget_caches()
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = cli.main(self.argv(i, out))
        if rc == 3:
            raise subdiff.NumericsError(f"exit 3: {sink.getvalue()[-300:]}")
        check(rc == 0, f"exit status {rc}")
        gaps = {}
        hashes = {}
        for fname in sorted(os.listdir(out)):
            path = os.path.join(out, fname)
            if fname.endswith(".csv"):
                with open(path, "rb") as fh:
                    hashes[fname] = hashlib.sha256(fh.read()).hexdigest()
            elif fname.endswith(".json"):
                try:
                    with open(path) as fh:
                        blob = json.load(fh)
                except ValueError:
                    raise CheckFailed(f"{fname} is not JSON") from None
                if fname == "report.json":
                    check(blob["passed"] is True, "validate report failed")
                    gaps["validate"] = max(c["measured"] / c["tolerance"]
                                           for c in blob["checks"])
        command, config = CLI_PAIRS[i]
        if command == "moments" and config is None:
            self._check_moments(os.path.join(out, "moments.csv"))
        first = self.first_hashes.setdefault(i, hashes)
        check(first == hashes, "CSV differs from the first round")
        return {"gaps": gaps, "hashes": hashes, "command": command}

    def _check_moments(self, path: str) -> None:
        beta, gamma, _ = self.moments
        with open(path) as fh:
            rows = [line.split(",") for line in fh.read().split()[1:]]
        for t, g, moment in ((float(a), float(b), float(c)) for a, b, c in rows):
            want = (math.gamma(g + 1.0) * t ** (g * beta)
                    / math.gamma(g * beta + 1.0))
            check(abs(moment / want - 1.0) < 1e-12, "moments closed form")
        check(len(rows) == 2, "moments row count")


# ---------------------------------------------------------------------------
# fpke_triangulation
# ---------------------------------------------------------------------------

class FpkeTriangulation(Workload):
    """One clock and one model per task: the L1 solve, the subordination
    integral at three of its times, the solve's residual against its own
    equation, and caputo_l1 of t^a against its closed form.  Three tasks
    in four use a pure clock (spline-cached clock density), one a
    two-component mixture (direct inversion per slice, and a residual
    twice as dear).  Models alternate between Brownian and OU.

    Pure betas and mixtures are drawn stratified over their grids, with
    one known failure of each kind first: tasks 0 and 1 are pure clocks in
    the band, one of each failure mode, and task 3 a failing mixture."""

    name = "fpke_triangulation"
    # coarser grids miss SOLVER_VS_SUBORDINATION_TOL, so "tiny" is full size
    full = {"n_t": 400, "n_x": 400, "x_max": 12.0, "caputo_points": 1601}
    task_s = 2.0

    def __init__(self, *args):
        super().__init__(*args)
        n = self.n_tasks
        self.models = [("brownian", "ou")[(j + j // 4) % 2] for j in range(n)]
        pure = [j for j in range(n) if j % 4 != 3]
        mixed = [j for j in range(n) if j % 4 == 3]
        betas = pure_betas(self.inputs, [self.models[j] for j in pure])
        mixtures = self.inputs.draw(
            [MIXTURE_FAILURES][:len(mixed)],
            [passing(MIXTURE_GRID, MIXTURE_FAILURES)] * (len(mixed) - 1),
            stream=1)
        self.clocks = {
            **{j: subordinators.SubordinatorSpec.pure(b)
               for j, b in zip(pure, betas)},
            **{j: _mixture(*m) for j, m in zip(mixed, mixtures)}}

    def run(self, j: int) -> dict:
        s = self.size
        rng = self.inputs.rng(j)
        model_kind, sub = self.models[j], self.clocks[j]
        op, model = _brownian_or_ou(model_kind)
        cfg = subdiff.SolverConfig(t_max=1.0, n_t=s["n_t"], x_min=-s["x_max"],
                                   x_max=s["x_max"], n_x=s["n_x"])
        if sub.is_pure:
            beta = sub.components[0][0]
            gd = fpke.solve_fractional(op, beta, cfg)
            eq = fpke.FractionalEquation(op, beta)
        else:
            gd = fpke.solve_distributed_order(op, sub, cfg)
            eq = fpke.DistributedOrderEquation(op, sub)
        rows = [s["n_t"] // 4, s["n_t"] // 2, s["n_t"]]
        q = timechange.subordinated_grid_density(
            _spec(model, sub), gd.t_grid[rows], gd.x_grid, config=cfg)
        sup = [float(np.abs(gd.values[r] - q.values[k]).max())
               for k, r in enumerate(rows)]
        check(max(sup) <= SOLVER_VS_SUBORDINATION_TOL,
              "solver vs subordination")
        rel = max(d / float(q.values[k].max()) for k, d in enumerate(sup))

        resid = fpke.residual_norm(gd, eq).overall_linf
        check(resid <= SELF_RESIDUAL_TOL, "solve residual")

        a = float(rng.uniform(1.0, 2.0))
        b = sub.components[0][0]
        tg = np.linspace(0.0, 1.0, s["caputo_points"])
        d = fraccalc.caputo_l1(fraccalc.SampledFunction(tg, tg**a), b).values
        keep = tg >= 0.25
        want = math.gamma(a + 1.0) / math.gamma(a + 1.0 - b) * tg[keep] ** (a - b)
        cap = float(np.max(np.abs(d[keep] / want - 1.0)))
        check(cap <= CAPUTO_RTOL, "caputo_l1 closed form")
        return {"gaps": {"solver_vs_subordination": rel, "caputo_l1": cap}}


# ---------------------------------------------------------------------------
# monte_carlo
# ---------------------------------------------------------------------------

class MonteCarlo(Workload):
    """Task 0 samples a variable-Hurst path ensemble (six covariance
    entries by nested quadrature).  Every later task samples the inverse
    clock, the composed marginal, fBm paths and composed paths for one
    beta, and tests each against its closed form.  The betas are drawn as
    in fpke_triangulation: tasks 1 and 2 are in the band."""

    name = "monte_carlo"
    full = {"clock_paths": 20_000, "marginal_paths": 20_000,
            "fbm_points": 500, "fbm_paths": 2000, "composed_points": 50,
            "composed_paths": 400, "vh_grid": (0.5, 1.0, 2.0),
            "vh_paths": 20_000}
    tiny = {"clock_paths": 2000, "marginal_paths": 2000, "fbm_points": 20,
            "fbm_paths": 200, "composed_points": 5, "composed_paths": 20,
            "vh_grid": (0.5, 1.0), "vh_paths": 2000}
    clock_times = (0.5, 1.0, 2.0)
    bins = np.linspace(-3.0, 3.0, 31)
    task_s = 3.0

    def __init__(self, *args):
        super().__init__(*args)
        self.models = [("brownian", "ou")[j % 2] for j in range(self.n_tasks)]
        self.betas = [None] + pure_betas(self.inputs, self.models[1:])

    def run(self, j: int) -> dict:
        if j == 0:
            return self._variable_hurst()
        s = self.size
        beta = self.betas[j]
        draws = self.inputs.rng(j)
        rng = subordinators.SeededRng(int(draws.integers(2**31)))
        pure = subordinators.SubordinatorSpec.pure(beta)
        _, model = _brownian_or_ou(self.models[j])
        z = []

        # reference first: inside the failing beta band it raises at once
        spec = _spec(model, pure)
        fine = np.linspace(self.bins[0], self.bins[-1],
                           8 * (len(self.bins) - 1) + 1)
        qf = timechange.subordinated_density(spec, 1.0, fine)
        probs = np.array([np.trapezoid(qf[8 * i:8 * i + 9], fine[8 * i:8 * i + 9])
                          for i in range(len(self.bins) - 1)])
        x = timechange.sample_timechanged_marginal(
            spec, 1.0, s["marginal_paths"], rng.stream(0))[:, 0]
        counts, _ = np.histogram(x, bins=self.bins)
        counts = np.append(counts, len(x) - counts.sum())
        probs = np.append(probs, max(1.0 - probs.sum(), 0.0))
        expect = len(x) * probs
        keep = expect >= 10.0
        stat = float(np.sum((counts[keep] - expect[keep]) ** 2 / expect[keep]))
        check(chdtrc(int(keep.sum()) - 1, stat) >= CHI2_MIN_P,
              "composed marginal chi-square")

        E = subordinators.sample_inverse_ensemble(
            pure, list(self.clock_times), s["clock_paths"], rng.stream(1))
        for k, t in enumerate(self.clock_times):
            m1, m2 = (subordinators.inverse_time_moment(pure, t, g)
                      for g in (1.0, 2.0))
            z.append(_z(E[:, k], m1, m2 - m1 * m1))
            # E[exp(-u E_t)] = E_beta(-u t^beta)
            l1, l2 = (fraccalc.mittag_leffler(beta, -u * t**beta)
                      for u in (1.0, 2.0))
            z.append(_z(np.exp(-E[:, k]), l1, l2 - l1 * l1))

        hurst = float(draws.uniform(0.55, 0.9))
        grid = np.linspace(0.0, 1.0, s["fbm_points"] + 1)
        ens = gaussian.sample_gaussian_paths(
            gaussian.GaussianSpec.univariate(gaussian.FractionalBrownian(hurst)),
            grid, s["fbm_paths"], rng.stream(2))
        for i in (len(grid) // 2, len(grid) - 1):
            z.append(_variance_z(ens.paths[:, i, 0], grid[i] ** (2.0 * hurst)))

        grid = np.linspace(0.0, 1.0, s["composed_points"] + 1)
        ens = timechange.sample_timechanged_paths(
            _spec(gaussian.Brownian(), pure), grid, s["composed_paths"],
            rng.stream(3))
        # E[cos B(E_1)] = E[exp(-E_1 / 2)] = E_beta(-1/2), and
        # E[cos^2 B(E_1)] = (1 + E_beta(-2)) / 2.  A bounded functional: the
        # mean of B(E_1)^2 over a few hundred paths is too skewed for a
        # z-test, which then failed far more often than |z| < 4 allows.
        c1 = fraccalc.mittag_leffler(beta, -0.5)
        c2 = 0.5 * (1.0 + fraccalc.mittag_leffler(beta, -2.0))
        z.append(_z(np.cos(ens.paths[:, -1, 0]), c1, c2 - c1 * c1))
        worst = max(z)
        check(worst < Z_MAX, "Monte Carlo z-test")
        return {"gaps": {}, "max_abs_z": worst}

    def _variable_hurst(self) -> dict:
        s = self.size
        model = gaussian.VariableHurst(gaussian.MobiusHurst(0.6, 0.2),
                                       horizon=2.0)
        grid = np.array(s["vh_grid"])
        ens = gaussian.sample_gaussian_paths(
            gaussian.GaussianSpec.univariate(model), grid, s["vh_paths"],
            subordinators.SeededRng(int(self.inputs.rng(0).integers(2**31))))
        want = model.var(grid)
        worst = max(_variance_z(ens.paths[:, i, 0], float(want[i]))
                    for i in range(len(grid)))
        check(worst < Z_MAX, "variable-Hurst variance z-test")
        return {"gaps": {}, "max_abs_z": worst}


def _variance_z(x: np.ndarray, var: float) -> float:
    """|z| of the sample second moment of centred Gaussian draws."""
    return abs(float(np.mean(x * x)) - var) / (var * math.sqrt(2.0 / len(x)))


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------

class Operators(Workload):
    """The Laplace-domain subordination identity at three s, the G and
    Lambda operators on 10 times, and the field residual of a fractional
    solve, for one beta and one gamma per task.

    The cost of a task triples from beta 0.5 down to 0.1, so the betas are
    drawn as in fpke_triangulation, stratified over the grid with tasks 1
    and 2 in the band: every run holds the same mix of dear and cheap betas.
    Task 0 of every run takes the corner (lowest beta, lowest gamma), the
    costliest task, and the one with the largest peak memory (set by
    eval_Lambda_grid, which grows as beta and gamma fall), so every run
    times it and reports its peak.  gamma stays in [0.2, 0.8] (fBm with
    H in [0.6, 0.9], as in the shipped fbm_h07 config)."""

    name = "operators"
    task_s = 2.6
    # coarser solves and profiles miss their tolerances: "tiny" only
    # evaluates the operators at fewer times
    full = {"n_times": 10, "n_t": 200, "n_x": 200, "x_max": 12.0,
            "profile_nodes": 700}
    tiny = {"n_times": 3}
    gamma_range = (0.2, 0.8)
    s_values = (1.0, 2.0, 4.0)
    # the points acceptance criterion 8 holds the identity at; near x = 0.1
    # it exceeds its 1e-4 tolerance for beta around 0.6 today
    x_values = (0.0, 0.5)

    def __init__(self, *args):
        super().__init__(*args)
        self.xs = [self.x_values[j % 2] for j in range(self.n_tasks)]
        self.betas = [BETA_RANGE[0]] + pure_betas(self.inputs, self.xs[1:])

    def run(self, j: int) -> dict:
        s = self.size
        beta, x = self.betas[j], self.xs[j]
        gamma = (self.gamma_range[0] if j == 0
                 else float(self.inputs.rng(j).uniform(*self.gamma_range)))
        pure = subordinators.SubordinatorSpec.pure(beta)

        # first: inside the failing beta band it raises at once
        lsr = float(np.max(timechange.laplace_subordination_residual(
            _spec(gaussian.Brownian(), pure), list(self.s_values), x,
            profile_nodes=s["profile_nodes"])))
        check(lsr <= LAPLACE_IDENTITY_TOL, "Laplace subordination identity")

        one = lambdaop.constant_transform(1.0)
        t_grid = np.linspace(2.0 / s["n_times"], 2.0, s["n_times"])
        spread = 0.0
        for values, errors in (
            lambdaop.eval_G_grid(lambdaop.GOperator(beta, gamma), one, t_grid),
            lambdaop.eval_Lambda_grid(
                lambdaop.LambdaOperator(
                    pure, gaussian.FractionalBrownian(0.5 * (1.0 + gamma))),
                one, t_grid),
        ):
            spread = max(spread, float(np.max(errors / np.abs(values))))
        check(spread <= OPERATOR_SPREAD_TOL, "operator spread")

        cfg = subdiff.SolverConfig(t_max=1.0, n_t=s["n_t"], x_min=-s["x_max"],
                                   x_max=s["x_max"], n_x=s["n_x"])
        gd = fpke.solve_fractional(fpke.ScaledLaplacian(0.5), beta, cfg)
        field = lambdaop.fbm_fpke_residual(0.5, pure, gd,
                                           x_exclude=0.3).overall_linf
        check(field <= FBM_RESIDUAL_TOL, "field residual")
        return {"gaps": {"operator_spread": spread, "laplace_identity": lsr}}


WORKLOADS = {w.name: w for w in (CliConfigs, FpkeTriangulation, MonteCarlo,
                                 Operators)}
