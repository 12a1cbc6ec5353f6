#!/usr/bin/env python3
"""Operator contours: wall time of G and Lambda on 100 times beside their
accuracy.

For each (beta, gamma) the G operator and the Lambda operator of fBm with
H = (1 + gamma)/2 on a pure clock are evaluated on the constant input at
100 times in [0.02, 2].  Both have closed forms there:
G[1](t) = Gamma(gamma+1) t^(gamma beta) / Gamma(gamma beta + 1), and
Lambda[1](t) = (1/2) d/dt E[E_t^(2H)]
             = Gamma(2H+1) t^(2H beta - 1) / (2 Gamma(2H beta)).
Printed per operator: wall seconds, the peak of memory traced by
tracemalloc during a second, untimed call (MB), the reported value's
largest relative error against the closed form, and the largest reported
spread / |value|.  One untimed call first takes the process's first touch
of the largest contour arrays out of the table.  The reported value is a
de Hoog inversion at degree 18; beside the columns, the node count of its
inner line (graded, on the contour of the largest time), and the
Gaver-Stehfest check at degree 12, whose distance to the value is the
spread: its own largest relative error against the closed form, for G
and for Lambda.

A second table times the field residual ``fbm_fpke_residual`` at H = 1/2
on a 200 x 200 fractional Brownian solve (x in [-12, 12], t in [0, 1],
band |x| <= 0.3 excluded) at beta 0.1, 0.5 and 0.9: the best wall of three
calls, after one untimed call, beside the residual's largest |value| and
its route gap.  The solve's grid is uniform, so the residual's operator
takes the closed-form hat transform; the same density on the grid with
its odd-indexed interior times moved 8 ulp of t_n down takes the general,
differenced transform.  The route gap is the largest difference of the
two residuals' per-x sup norms over the largest of them.

A last row times G(0.4, 0.4) on a sampled input, (1 + t) e^-t on 121
points of [0, 3], at 29 times in [0.1, 2.9]: the best wall of three
``eval_G_grid`` calls on the ``SampledFunction``, after one untimed call,
beside the largest reported spread / |value|.
"""
import math
import time
import tracemalloc

import numpy as np

from subdiff import (
    FractionalBrownian,
    GridDensity,
    SampledFunction,
    ScaledLaplacian,
    SolverConfig,
    SubordinatorSpec,
    solve_fractional,
)
from subdiff import lambdaop
from subdiff.fraccalc import _dehoog_contour
from subdiff.lambdaop import (
    ContourConfig,
    GOperator,
    LambdaOperator,
    constant_transform,
    eval_G_grid,
    eval_Lambda_grid,
    fbm_fpke_residual,
)

ONE = constant_transform(1.0)
T = np.linspace(0.02, 2.0, 100)
CASES = ((0.1, 0.2), (0.3, 0.35), (0.5, 0.5), (0.7, 0.65), (0.9, 0.8))
FIELD_BETAS = (0.1, 0.5, 0.9)
FIELD_CFG = SolverConfig(t_max=1.0, n_t=200, n_x=200, x_min=-12.0, x_max=12.0)
SAMPLE_GRID = np.linspace(0.0, 3.0, 121)
SAMPLED = SampledFunction(SAMPLE_GRID,
                          (1.0 + SAMPLE_GRID) * np.exp(-SAMPLE_GRID))
SAMPLED_T = np.linspace(0.1, 2.9, 29)


def g_closed(beta, gamma):
    return (math.gamma(gamma + 1.0) * T ** (gamma * beta)
            / math.gamma(gamma * beta + 1.0))


def lambda_closed(beta, gamma):
    h2 = 1.0 + gamma
    return (math.gamma(h2 + 1.0) * T ** (h2 * beta - 1.0)
            / (2.0 * math.gamma(h2 * beta)))


def row(fn, op, want):
    t0 = time.perf_counter()
    vals, errs = fn(op, ONE, T)
    wall = time.perf_counter() - t0
    tracemalloc.start()
    try:
        fn(op, ONE, T)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (wall, peak / 1e6, float(np.max(np.abs(vals / want - 1.0))),
            float(np.max(errs / np.abs(vals))))


def value_nodes(op):
    """Node count of the reported value's graded inner line."""
    s = _dehoog_contour(float(T.max()), ContourConfig.degree, 1e-10)[2]
    zeta, _ = lambdaop._inner_line(
        op, s,
        ContourConfig.node_spacing * (1.0 - ContourConfig.offset_ratio) / 2.0,
        lambdaop._vmax_for(op, 1.0), graded=True)
    return len(zeta)


def stehfest_check(op, want):
    """Largest relative error of the Gaver-Stehfest check."""
    vals = lambdaop._stehfest_values(op, ONE.fn, 0.0, T)
    return float(np.max(np.abs(vals / want - 1.0)))


print(f"{'beta':>5} {'gamma':>6} | {'G s':>7} {'G MB':>6} {'G err':>8} "
      f"{'G spread':>8} | {'Lam s':>7} {'Lam MB':>6} {'Lam err':>8} "
      f"{'Lam spread':>10} | {'dH nodes':>8} {'St G err':>8} "
      f"{'St Lam err':>10}")
eval_G_grid(GOperator(*CASES[0]), ONE, T)
for beta, gamma in CASES:
    gop = GOperator(beta, gamma)
    lop = LambdaOperator(SubordinatorSpec.pure(beta),
                         FractionalBrownian(0.5 * (1.0 + gamma)))
    g = row(eval_G_grid, gop, g_closed(beta, gamma))
    lam = row(eval_Lambda_grid, lop, lambda_closed(beta, gamma))
    g_check = stehfest_check(gop, g_closed(beta, gamma))
    lam_check = stehfest_check(lop, lambda_closed(beta, gamma))
    print(f"{beta:5.2f} {gamma:6.2f} | {g[0]:7.3f} {g[1]:6.1f} {g[2]:8.1e} "
          f"{g[3]:8.1e} | {lam[0]:7.3f} {lam[1]:6.1f} {lam[2]:8.1e} "
          f"{lam[3]:10.1e} | {value_nodes(gop):8d} {g_check:8.1e} "
          f"{lam_check:10.1e}")

print()
def nudged(gd):
    """gd with its odd-indexed interior times moved 8 ulp of t_n down: no
    longer uniform to the 4-ulp test, so its operator takes the general
    transform route."""
    tg = gd.t_grid.copy()
    tg[1:-1:2] -= 8.0 * np.spacing(tg[-1])
    return GridDensity(tg, gd.x_grid, gd.values, gd.mass_error)


print(f"{'beta':>5} | {'field s':>7} {'field linf':>10} {'route gap':>9}")
for beta in FIELD_BETAS:
    gd = solve_fractional(ScaledLaplacian(0.5), beta, FIELD_CFG)
    clock = SubordinatorSpec.pure(beta)
    fbm_fpke_residual(0.5, clock, gd, x_exclude=0.3)
    walls = []
    for _ in range(3):
        t0 = time.perf_counter()
        rep = fbm_fpke_residual(0.5, clock, gd, x_exclude=0.3)
        walls.append(time.perf_counter() - t0)
    general = fbm_fpke_residual(0.5, clock, nudged(gd), x_exclude=0.3)
    gap = (np.max(np.abs(rep.linf_per_x - general.linf_per_x))
           / general.overall_linf)
    print(f"{beta:5.2f} | {min(walls):7.3f} {rep.overall_linf:10.2e} "
          f"{gap:9.1e}")

print()
print(f"{'beta':>5} {'gamma':>6} | {'sampled s':>9} {'spread':>8}")
op = GOperator(0.4, 0.4)
eval_G_grid(op, SAMPLED, SAMPLED_T)
walls = []
for _ in range(3):
    t0 = time.perf_counter()
    vals, errs = eval_G_grid(op, SAMPLED, SAMPLED_T)
    walls.append(time.perf_counter() - t0)
print(f"{op.beta:5.2f} {op.gamma:6.2f} | {min(walls):9.3f} "
      f"{float(np.max(errs / np.abs(vals))):8.1e}")
