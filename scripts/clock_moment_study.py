#!/usr/bin/env python3
"""Inverse-clock moments by four routes against closed forms: three
sampling routes (the level-crossing walk, exact passage-law paths and
exact one-time draws), the cross moment E[E_s E_t] of both path routes,
and the exact density f_{E_t} (M-Wright series and Kanter-Zolotarev
integral), whose mass and moments come from quadrature.  Exits 1 when any
sampling route is 4 or more standard errors from its closed form, or the
density's mass or a moment is more than 1e-12 from it, relatively."""
import math
import sys

import numpy as np
from scipy.integrate import quad

from subdiff import (
    SeededRng,
    SubordinatorSpec,
    sample_inverse_ensemble,
    sample_inverse_marginal,
)
from subdiff.subordinators import _level_crossing_paths, clock_density_fast

N = 100_000
times = [0.5, 1.0, 2.0]
devs = []  # every dev/se printed


def cells(samples, closed):
    """'mean dev/se' for each sample array."""
    out = []
    for x in samples:
        dev = (x.mean() - closed) / (x.std() / math.sqrt(len(x)))
        devs.append(dev)
        out.append(f"{x.mean():12.6f} {dev:+7.2f}")
    return " ".join(out)


def cross_moment(beta, s, t):
    """E[E_s E_t], s <= t (Leonenko, Meerschaert & Sikorskii, 2013)."""
    val, _ = quad(lambda u: (t - u) ** beta + (s - u) ** beta, 0.0, s,
                  weight="alg", wvar=(beta - 1.0, 0.0))
    return val / (math.gamma(beta) * math.gamma(1.0 + beta))


routes = ("level cross", "exact paths", "exact draw")
print(f"{'beta':>5} {'gamma':>6} {'t':>4} "
      + " ".join(f"{r:>12} {'dev/se':>7}" for r in routes)
      + f" {'closed form':>12}")
paths = {}
for i, (beta, gam) in enumerate(((0.5, 1.0), (0.7, 2.0), (0.9, 0.5))):
    spec = SubordinatorSpec.pure(beta)
    walk = _level_crossing_paths(spec, np.array(times), N,
                                 SeededRng(42 + i).generator())
    exact = sample_inverse_ensemble(spec, times, N, SeededRng(42 + i, 10))
    paths[beta] = (walk, exact)
    for k, t in enumerate(times):
        closed = (math.gamma(gam + 1.0) * t ** (gam * beta)
                  / math.gamma(gam * beta + 1.0))
        draw = sample_inverse_marginal(spec, t, N, SeededRng(42 + i, 1 + k))
        row = cells([walk[:, k] ** gam, exact[:, k] ** gam, draw ** gam],
                    closed)
        print(f"{beta:5.1f} {gam:6.1f} {t:4.1f} {row} {closed:12.6f}")

print()
print(f"{'beta':>5} {'s':>4} {'t':>4} "
      + " ".join(f"{r:>12} {'dev/se':>7}" for r in routes[:2])
      + f" {'E[E_s E_t]':>12}")
for beta, (walk, exact) in paths.items():
    for i, k in ((0, 1), (1, 2), (0, 2)):
        closed = cross_moment(beta, times[i], times[k])
        row = cells([walk[:, i] * walk[:, k], exact[:, i] * exact[:, k]],
                    closed)
        print(f"{beta:5.1f} {times[i]:4.1f} {times[k]:4.1f} {row} "
              f"{closed:12.6f}")

print()
print(f"{'beta':>5} {'t':>4} {'mass - 1':>10} "
      + " ".join(f"{f'E[E^{g}] quad':>14} {'closed form':>12} {'rel':>9}"
                 for g in (1, 2)))
rels = []  # every density-route relative error printed
for beta in paths:
    spec = SubordinatorSpec.pure(beta)
    for t in times:
        def moment(g):
            val, _ = quad(lambda tau: tau**g * float(
                clock_density_fast(spec, t, np.array([tau]))[0]),
                0.0, np.inf, epsabs=0.0, epsrel=1e-13, limit=200)
            return val

        mass = moment(0)
        rels.append(abs(mass - 1.0))
        row = f"{beta:5.1f} {t:4.1f} {mass - 1.0:+10.1e}"
        for g in (1, 2):
            closed = (math.gamma(g + 1.0) * t ** (g * beta)
                      / math.gamma(g * beta + 1.0))
            val = moment(g)
            rels.append(abs(val / closed - 1.0))
            row += f" {val:14.10f} {closed:12.8f} {val / closed - 1.0:+9.1e}"
        print(row)

worst = max(abs(d) for d in devs)
worst_rel = max(rels)
print(f"\nworst |dev/se| = {worst:.2f} (gate 4); worst density-route "
      f"relative error = {worst_rel:.1e} (gate 1e-12)")
sys.exit(1 if worst >= 4.0 or worst_rel > 1e-12 else 0)
