"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints a PASS/FAIL line with the measured figure, its budget,
and the runtime, so `pytest -s tests/test_acceptance.py` doubles as the
acceptance report.
"""
import math
import time

import numpy as np
import pytest
from scipy.stats import chi2

from subdiff.config import SolverConfig
from subdiff.fpke import (
    OUGenerator,
    ScaledLaplacian,
    solve_classical,
    solve_distributed_order,
    solve_fractional,
)
from subdiff.fraccalc import SampledFunction, caputo_l1
from subdiff.gaussian import (
    Brownian,
    FractionalBrownian,
    GaussianSpec,
    MobiusHurst,
    OrnsteinUhlenbeck,
    PiecewiseHurst,
    VariableHurst,
    gaussian_transition_density,
    sample_gaussian_paths,
)
from subdiff.lambdaop import (
    GOperator,
    LambdaOperator,
    constant_transform,
    eval_G,
    eval_Lambda_grid,
)
from subdiff.subordinators import (
    SeededRng,
    SubordinatorSpec,
    inverse_time_density,
    inverse_time_moment,
    sample_inverse_ensemble,
)
from subdiff.timechange import (
    TimeChangedSpec,
    laplace_subordination_residual,
    subordinated_density,
)

from oracles import (bm_pure_clock_density, exp_transform,
                     fourier_ml_bm_half, inverse_half_density,
                     riemann_liouville_integral)

ONE = constant_transform(1.0)


def report(num, name, measured, tolerance, elapsed, passed=None):
    ok = measured <= tolerance if passed is None else passed
    tag = "PASS" if ok else "FAIL"
    print(f"{tag} criterion {num:>2} [{name}]: measured {measured:.3e} "
          f"vs tolerance {tolerance:.1e} ({elapsed:.1f}s)")
    return ok


def test_criterion_01_inverse_clock_closed_form():
    t0 = time.time()
    taus = np.linspace(0.05, 5.0, 120)
    got = inverse_time_density(SubordinatorSpec.pure(0.5), 1.0, taus)
    want = inverse_half_density(1.0, taus)
    err = float(np.max(np.abs(got / want - 1.0)))
    el = time.time() - t0
    assert report(1, "clock density closed form", err, 1e-5, el)
    assert el < 10.0


def test_criterion_02_moments_monte_carlo():
    t0 = time.time()
    worst = 0.0
    times = [0.5, 1.0, 2.0]
    for i, (beta, gam) in enumerate(((0.5, 1.0), (0.7, 2.0), (0.9, 0.5))):
        spec = SubordinatorSpec.pure(beta)
        E = sample_inverse_ensemble(spec, times, 100_000, SeededRng(300 + i))
        for k, t in enumerate(times):
            x = E[:, k] ** gam
            want = (math.gamma(gam + 1.0) * t ** (gam * beta)
                    / math.gamma(gam * beta + 1.0))
            se = x.std() / math.sqrt(len(x))
            worst = max(worst, abs(x.mean() - want) / (3.0 * se))
    el = time.time() - t0
    assert report(2, "clock moments vs Monte Carlo", worst, 1.0, el)
    assert el < 60.0


def test_criterion_03_brownian_fractional_triangulation():
    t0 = time.time()
    cfg = SolverConfig(t_max=1.0, n_t=400, x_min=-8.5, x_max=8.5, n_x=400)
    gd = solve_fractional(ScaledLaplacian(0.5), 0.5, cfg)
    spec = TimeChangedSpec(GaussianSpec.univariate(Brownian()),
                           SubordinatorSpec.pure(0.5))
    q_sub = subordinated_density(spec, 1.0, gd.x_grid)
    q_fourier = np.array([fourier_ml_bm_half(1.0, x) for x in gd.x_grid])
    pair = max(
        float(np.abs(gd.values[-1] - q_sub).max()),
        float(np.abs(gd.values[-1] - q_fourier).max()),
        float(np.abs(q_sub - q_fourier).max()),
    )
    el = time.time() - t0
    assert report(3, "BM solver/subordination/Fourier", pair, 5e-3, el)
    assert el < 120.0


def test_fourier_oracle_matches_closed_form():
    # criterion 3's Fourier route, at its points, against the M-Wright form
    x = np.linspace(-8.5, 8.5, 400)
    want = bm_pure_clock_density(0.5, 1.0, x)
    got = np.array([fourier_ml_bm_half(1.0, v) for v in x])
    assert np.abs(got - want).max() <= 1e-10 * want.max()


def test_criterion_04_ou_equivalence():
    t0 = time.time()
    cfg = SolverConfig(t_max=1.0, n_t=400, x_min=-6.0, x_max=6.0, n_x=400)
    gd = solve_fractional(OUGenerator(1.0, 1.0), 0.7, cfg)
    spec = TimeChangedSpec(
        GaussianSpec.univariate(OrnsteinUhlenbeck(1.0, 1.0)),
        SubordinatorSpec.pure(0.7),
    )
    q = subordinated_density(spec, 1.0, gd.x_grid)
    err = float(np.abs(gd.values[-1] - q).max())
    el = time.time() - t0
    assert report(4, "OU generator vs subordination", err, 5e-3, el)
    assert el < 120.0


def test_criterion_05_classical_fbm():
    t0 = time.time()
    H = 0.7
    op = ScaledLaplacian(FractionalBrownian(H))
    cfg = SolverConfig(t_max=1.0, n_t=400, x_min=-8.0, x_max=8.0, n_x=400)
    gd = solve_classical(op, cfg)
    want = np.exp(-gd.x_grid**2 / 2.0) / math.sqrt(2.0 * math.pi)
    err = float(np.abs(gd.values[-1] - want).max())
    ok1 = report(5, "classical power-variance solve", err, 1e-3,
                 time.time() - t0)

    w = 4.0 * (16.0 / 99.0)
    errs = []
    for n in (100, 200, 400):
        c = SolverConfig(t_max=1.0, n_t=n, x_min=-8.0, x_max=8.0, n_x=n,
                         init_width=w)
        g = solve_classical(op, c)
        ref = np.exp(-g.x_grid**2 / 2.0) / math.sqrt(2.0 * math.pi)
        errs.append(np.abs(g.values[-1] - ref).max())
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    ok2 = report(5, "classical convergence order", -float(orders.min()),
                 -1.9, time.time() - t0, passed=bool(orders.min() >= 1.9))
    assert ok1 and ok2


def test_criterion_06_operator_correspondence():
    t0 = time.time()
    beta, H = 0.5, 0.7
    lam = LambdaOperator(SubordinatorSpec.pure(beta), FractionalBrownian(H))
    worst = 0.0
    for g in (ONE, exp_transform(1.0)):
        for t in (0.5, 1.0, 2.0):
            n = 500
            tau = t * (np.arange(n + 1) / n) ** 3
            lv = np.zeros(n + 1)
            lv[1:], _ = eval_Lambda_grid(lam, g, tau[1:])
            lhs = riemann_liouville_integral(
                SampledFunction(tau, lv), 1.0 - beta
            ).values[-1]
            rhs = H * eval_G(GOperator(beta, 2.0 * H - 1.0), g, t).value
            worst = max(worst, abs(lhs / rhs - 1.0))
    el = time.time() - t0
    assert report(6, "J^(1-b) Lambda vs H G", worst, 1e-3, el)


def test_criterion_07_moment_projected_fpke():
    t0 = time.time()
    beta, H = 0.5, 0.7
    tg = np.linspace(0.0, 2.2, 4001)
    var = np.array([
        inverse_time_moment(SubordinatorSpec.pure(beta), t, 2.0 * H)
        if t > 0 else 0.0 for t in tg
    ])
    dvar = caputo_l1(SampledFunction(tg, var), beta).values
    worst = 0.0
    for t in (0.4, 0.8, 1.2, 1.6, 2.0):
        i = int(np.argmin(np.abs(tg - t)))
        rhs = 2.0 * H * eval_G(GOperator(beta, 2.0 * H - 1.0), ONE,
                               float(tg[i])).value
        worst = max(worst, abs(dvar[i] / rhs - 1.0))
    el = time.time() - t0
    assert report(7, "memory-derivative moment identity", worst, 1e-3, el)


def test_criterion_08_laplace_subordination_identity():
    t0 = time.time()
    bm = GaussianSpec.univariate(Brownian())
    spec = TimeChangedSpec(bm, SubordinatorSpec.pure(0.5))
    worst_pure = 0.0
    for x in (0.0, 0.5):
        r = laplace_subordination_residual(spec, [1.0, 2.0, 4.0], x)
        worst_pure = max(worst_pure, float(np.max(r)))
    ok1 = report(8, "subordination identity (pure)", worst_pure, 1e-4,
                 time.time() - t0)
    spec_mix = TimeChangedSpec(bm, SubordinatorSpec(((0.4, 0.5), (0.8, 0.5))))
    r_mix = laplace_subordination_residual(spec_mix, 1.5, 0.0,
                                           profile_nodes=400)
    ok2 = report(8, "subordination identity (mixture)", float(r_mix), 1e-3,
                 time.time() - t0)
    assert ok1 and ok2


def test_criterion_09_distributed_order_reduction():
    t0 = time.time()
    pure = SubordinatorSpec.pure(0.5)
    single = SubordinatorSpec(((0.5, 1.0),))
    taus = np.linspace(0.05, 4.0, 60)
    d_gap = float(np.max(np.abs(
        inverse_time_density(pure, 1.0, taus)
        - inverse_time_density(single, 1.0, taus)
    )))
    m_gap = max(
        abs(inverse_time_moment(pure, t, g) - inverse_time_moment(single, t, g))
        for t in (0.5, 1.0, 2.0) for g in (1.0, 2.0)
    )
    cfg = SolverConfig(t_max=1.0, n_t=200, x_min=-8.5, x_max=8.5, n_x=200)
    s_gap = float(np.max(np.abs(
        solve_distributed_order(ScaledLaplacian(0.5), single, cfg).values
        - solve_fractional(ScaledLaplacian(0.5), 0.5, cfg).values
    )))
    worst = max(d_gap, m_gap, s_gap)
    el = time.time() - t0
    assert report(9, "one-component mixture reduction", worst, 1e-8, el)


def test_criterion_10_piecewise_hurst():
    t0 = time.time()
    model = PiecewiseHurst((0.5,), (0.5, 0.8))
    cfg = SolverConfig(t_max=1.0, n_t=400, x_min=-8.0, x_max=8.0, n_x=400)
    gd = solve_classical(ScaledLaplacian(model), cfg)
    var = float(np.trapezoid(gd.values[-1] * gd.x_grid**2, gd.x_grid))
    want = float(model.var(1.0))  # segment-integrated closed form
    ok1 = report(10, "piecewise variance", abs(var - want), 1e-3,
                 time.time() - t0)

    # pathwise construction Monte Carlo against the solver density
    ens = sample_gaussian_paths(GaussianSpec.univariate(model),
                                [0.25, 0.5, 0.75, 1.0], 100_000,
                                SeededRng(404))
    samples = ens.paths[:, -1, 0]
    bins = 40
    edges = np.linspace(-3.2, 3.2, bins + 1)
    counts, _ = np.histogram(samples, bins=edges)
    fine = np.linspace(edges[0], edges[-1], bins * 8 + 1)
    qf = np.interp(fine, gd.x_grid, gd.values[-1])
    probs = np.array([
        np.trapezoid(qf[8 * i: 8 * i + 9], fine[8 * i: 8 * i + 9])
        for i in range(bins)
    ])
    n = len(samples)
    keep = probs * n >= 10.0
    stat = float(np.sum(
        (counts[keep] - n * probs[keep]) ** 2 / (n * probs[keep])
    ))
    crit = float(chi2.ppf(0.99, int(keep.sum()) - 1))
    ok2 = report(10, "piecewise pathwise chi-square", stat, crit,
                 time.time() - t0)
    assert ok1 and ok2


def test_criterion_11_variable_hurst():
    t0 = time.time()
    # calibrated-kernel covariance against constant-H closed form
    vh_const = VariableHurst(MobiusHurst(0.75, 0.0), horizon=3.0)
    fbm = FractionalBrownian(0.75)
    gen = np.random.default_rng(11)
    worst_cov = 0.0
    for _ in range(5):
        s, t = np.sort(gen.uniform(0.1, 2.5, 2))
        got = vh_const.cov(s, t)
        want = fbm.cov(s, t)
        worst_cov = max(worst_cov, abs(got - want) / abs(want))
    ok1 = report(11, "calibrated kernel vs closed form", worst_cov, 1e-5,
                 time.time() - t0)

    vh = VariableHurst(MobiusHurst(0.6, 0.2), horizon=2.0)
    worst_var = 0.0
    for t in (0.25, 0.7, 1.2, 1.6, 2.0):
        v = float(vh.var(t))
        want = t ** (2.0 * vh.hurst(t))
        worst_var = max(worst_var, abs(v - want) / want)
    ok2 = report(11, "variable-H variance identity", worst_var, 1e-8,
                 time.time() - t0)
    assert ok1 and ok2
