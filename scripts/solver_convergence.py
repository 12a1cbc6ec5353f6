#!/usr/bin/env python3
"""Refinement studies of the classical and the L1 solvers.

The classical table solves the fBm (H 0.7) equation against its Gaussian
endpoint.  Beside the sup error and the order it gives the best of three
wall times of the steps in the sine basis (the solver's route) and of the
tridiagonal loop on the same time grid, mollifier and step integrals, and
the sup gap between the two relative to the maximum (the script fails if
it exceeds 1e-12).
The L1 table solves the fractional Brownian equation at beta 1/2
against the closed-form density of B(E_1), the M-Wright function of order
beta/2, away from its kink at x = 0, with the best of three wall times.
The caputo_l1 table takes t^1.5 at beta 1/2 on uniform grids (the lag-table
route) and on a graded (j/N)^2 grid (one power per weight), with the best
of three wall times beside the sup relative error against the closed form
Gamma(2.5)/Gamma(2.5 - beta) t^(1.5 - beta) on t >= 0.25.
The last row writes the CSV artifact of a 401 x 400 L1 solve: the best of
three wall times of grid_density_csv beside whether its bytes equal those
of formatting every cell on its own (the script fails if they differ), and
how many cells took the scalar %.17g fallback.
"""
import math
import time

import numpy as np

from subdiff import (FractionalBrownian, ScaledLaplacian, SolverConfig,
                     solve_classical, solve_fractional)
from subdiff.fpke import _cn_loop, _cn_sine, _laplacian_rows
from subdiff.fraccalc import SampledFunction, caputo_l1
from subdiff.io import format_float, grid_density_csv, scalar_fallbacks
from subdiff.subordinators import unit_clock_density


def best_of_3(step, gd, *args):
    """Best wall time of three runs of ``step`` from the solve's first row,
    and the rows it leaves."""
    out = np.empty_like(gd.values)
    walls = []
    for _ in range(3):
        out[0] = gd.values[0]
        t0 = time.perf_counter()
        step(out, *args)
        walls.append(time.perf_counter() - t0)
    return min(walls), out


model = FractionalBrownian(0.7)
op = ScaledLaplacian(model)
width = 4.0 * (16.0 / 99.0)  # fixed across the ladder

print(f"classical solve, fBm H {model.hurst}, t = 1, sine basis vs loop")
print(f"{'n':>5} {'h':>10} {'sup error':>12} {'order':>7} {'sine ms':>8} "
      f"{'loop ms':>8} {'route gap':>10}")
prev = None
worst_gap = 0.0
for n in (100, 200, 400, 800):
    cfg = SolverConfig(t_max=1.0, n_t=n, x_min=-8.0, x_max=8.0, n_x=n,
                       init_width=width)
    gd = solve_classical(op, cfg)
    ref = np.exp(-gd.x_grid**2 / 2.0) / math.sqrt(2.0 * math.pi)
    err = float(np.abs(gd.values[-1] - ref).max())
    order = f"{math.log2(prev / err):7.3f}" if prev else "      -"
    c = 0.5 * np.diff(model.var(gd.t_grid))
    sine_s, sine = best_of_3(_cn_sine, gd, gd.x_grid, c)
    loop_s, loop = best_of_3(_cn_loop, gd, [_laplacian_rows(gd.x_grid)],
                             c[:, None])
    gap = float(np.abs(sine - loop).max() / np.abs(loop).max())
    worst_gap = max(worst_gap, gap)
    print(f"{n:5d} {16.0 / (n - 1):10.5f} {err:12.3e} {order} "
          f"{1e3 * sine_s:8.2f} {1e3 * loop_s:8.2f} {gap:10.2e}")
    prev = err
if worst_gap > 1e-12:
    raise SystemExit("the sine route and the loop differ by "
                     f"{worst_gap:.2e} of the maximum")

BETA = 0.5
print(f"\nL1 solve, beta {BETA}, t = 1, n_x 800 on [-12, 12], |x| > 0.5")
print(f"{'n_t':>5} {'sup error':>12} {'order':>7} {'wall s':>8}")
prev = None
for n_t in (100, 200, 400, 800):
    cfg = SolverConfig(t_max=1.0, n_t=n_t, x_min=-12.0, x_max=12.0, n_x=800)
    walls = []
    for _ in range(3):
        t0 = time.perf_counter()
        gd = solve_fractional(ScaledLaplacian(0.5), BETA, cfg)
        walls.append(time.perf_counter() - t0)
    keep = np.abs(gd.x_grid) > 0.5
    # q(1, x) = M_{beta/2}(sqrt(2) |x|) / sqrt(2)
    ref = unit_clock_density(BETA / 2.0,
                             math.sqrt(2.0) * np.abs(gd.x_grid[keep]))
    err = float(np.abs(gd.values[-1, keep] - ref / math.sqrt(2.0)).max())
    order = f"{math.log2(prev / err):7.3f}" if prev else "      -"
    print(f"{n_t:5d} {err:12.3e} {order} {min(walls):8.3f}")
    prev = err

print(f"\ncaputo_l1 of t^1.5, beta {BETA}, t in [0, 1], error on t >= 0.25")
print(f"{'grid':>8} {'points':>7} {'sup rel error':>14} {'wall ms':>8}")
for kind, n in (("uniform", 401), ("uniform", 1601), ("uniform", 6401),
                ("graded", 1601)):
    j = np.arange(n) / (n - 1)
    t = j if kind == "uniform" else j * j
    g = SampledFunction(t, t**1.5)
    walls = []
    for _ in range(3):
        t0 = time.perf_counter()
        d = caputo_l1(g, BETA).values
        walls.append(time.perf_counter() - t0)
    keep = t >= 0.25
    want = math.gamma(2.5) / math.gamma(2.5 - BETA) * t[keep] ** (1.5 - BETA)
    err = float(np.max(np.abs(d[keep] / want - 1.0)))
    print(f"{kind:>8} {n:7d} {err:14.3e} {1e3 * min(walls):8.2f}")

print(f"\nsolution.csv of the L1 solve, beta {BETA}, n_t 400, n_x 400")
print(f"{'cells':>7} {'bytes':>9} {'per-cell bytes':>15} {'fallbacks':>10} "
      f"{'wall ms':>8}")
cfg = SolverConfig(t_max=1.0, n_t=400, x_min=-8.5, x_max=8.5, n_x=400)
gd = solve_fractional(ScaledLaplacian(0.5), BETA, cfg)
walls = []
for _ in range(3):
    t0 = time.perf_counter()
    text = grid_density_csv(gd)
    walls.append(time.perf_counter() - t0)
per_cell = "t,x,q\n" + "".join(
    f"{format_float(t)},{format_float(x)},{format_float(q)}\n"
    for t, row in zip(gd.t_grid.tolist(), gd.values.tolist())
    for x, q in zip(gd.x_grid.tolist(), row))
same = "equal" if text == per_cell else "DIFFER"
print(f"{gd.values.size:7d} {len(text):9d} {same:>15} "
      f"{scalar_fallbacks(gd.values):10d} {1e3 * min(walls):8.2f}")
if text != per_cell:
    raise SystemExit("grid_density_csv differs from the per-cell writer")
