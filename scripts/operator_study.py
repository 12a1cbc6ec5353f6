#!/usr/bin/env python3
"""Operator contours: wall time of G and Lambda on 100 times beside their
accuracy.

For each (beta, gamma) the G operator and the Lambda operator of fBm with
H = (1 + gamma)/2 on a pure clock are evaluated on the constant input at
100 times in [0.02, 2].  Both have closed forms there:
G[1](t) = Gamma(gamma+1) t^(gamma beta) / Gamma(gamma beta + 1), and
Lambda[1](t) = (1/2) d/dt E[E_t^(2H)]
             = Gamma(2H+1) t^(2H beta - 1) / (2 Gamma(2H beta)).
Printed per operator: wall seconds, the largest relative error against the
closed form, and the largest reported spread / |value|.  One untimed call
first takes the process's first touch of the largest contour arrays out of
the table.
"""
import math
import time

import numpy as np

from subdiff import FractionalBrownian, SubordinatorSpec
from subdiff.lambdaop import (
    GOperator,
    LambdaOperator,
    constant_transform,
    eval_G_grid,
    eval_Lambda_grid,
)

ONE = constant_transform(1.0)
T = np.linspace(0.02, 2.0, 100)
CASES = ((0.1, 0.2), (0.3, 0.35), (0.5, 0.5), (0.7, 0.65), (0.9, 0.8))


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
    return (wall, float(np.max(np.abs(vals / want - 1.0))),
            float(np.max(errs / np.abs(vals))))


print(f"{'beta':>5} {'gamma':>6} | {'G s':>7} {'G err':>8} {'G spread':>8} "
      f"| {'Lam s':>7} {'Lam err':>8} {'Lam spread':>10}")
eval_G_grid(GOperator(*CASES[0]), ONE, T)
for beta, gamma in CASES:
    g = row(eval_G_grid, GOperator(beta, gamma), g_closed(beta, gamma))
    lam = row(eval_Lambda_grid,
              LambdaOperator(SubordinatorSpec.pure(beta),
                             FractionalBrownian(0.5 * (1.0 + gamma))),
              lambda_closed(beta, gamma))
    print(f"{beta:5.2f} {gamma:6.2f} | {g[0]:7.3f} {g[1]:8.1e} {g[2]:8.1e} "
          f"| {lam[0]:7.3f} {lam[1]:8.1e} {lam[2]:10.1e}")
