#!/usr/bin/env python3
"""Inverse-clock moments: first-passage Monte Carlo and exact one-time
draws against closed forms."""
import math

from subdiff import (
    SeededRng,
    SubordinatorSpec,
    sample_inverse_ensemble,
    sample_inverse_marginal,
)

times = [0.5, 1.0, 2.0]
print(f"{'beta':>5} {'gamma':>6} {'t':>4} {'level cross':>12} {'dev/se':>7} "
      f"{'exact draw':>12} {'dev/se':>7} {'closed form':>12}")
for i, (beta, gam) in enumerate(((0.5, 1.0), (0.7, 2.0), (0.9, 0.5))):
    spec = SubordinatorSpec.pure(beta)
    E = sample_inverse_ensemble(spec, times, 100_000, SeededRng(42 + i))
    for k, t in enumerate(times):
        closed = (math.gamma(gam + 1.0) * t ** (gam * beta)
                  / math.gamma(gam * beta + 1.0))
        exact = sample_inverse_marginal(spec, t, 100_000,
                                        SeededRng(42 + i, 1 + k))
        cells = []
        for x in (E[:, k] ** gam, exact ** gam):
            se = x.std() / math.sqrt(len(x))
            cells.append(f"{x.mean():12.6f} {(x.mean() - closed) / se:+7.2f}")
        print(f"{beta:5.1f} {gam:6.1f} {t:4.1f} {' '.join(cells)} "
              f"{closed:12.6f}")
