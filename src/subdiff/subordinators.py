"""Stable subordinators, finite mixtures, and their inverse processes.

A subordinator here is a nondecreasing process W whose increments over
disjoint intervals are independent, with E[exp(-s W_t)] = exp(-t rho(s))
and rho(s) = sum_k w_k s^{beta_k}.  The inverse (first passage) process
E_t = inf{u : W_u > t} is the random clock used by the time-change module.

Four routes to the law of E_t coexist on purpose:

* pathwise Monte Carlo (`sample_inverse_ensemble`), joint over many times,
* exact one-time draws from Kanter's representation
  (`sample_inverse_marginal`; one-component clocks),
* Laplace inversion of the known transform (`inverse_time_density`),
* closed-form moments where they exist (`inverse_time_moment`),

and the test suite plays them against each other.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_CONFIG, SolverConfig
from .errors import NumericsError
from .fraccalc import laplace_inverse_batch

__all__ = [
    "SubordinatorSpec",
    "MonotonePath",
    "SeededRng",
    "sample_positive_stable",
    "sample_subordinator_path",
    "invert_subordinator_path",
    "sample_inverse_ensemble",
    "sample_inverse_marginal",
    "inverse_time_density",
    "inverse_time_moment",
]


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SubordinatorSpec:
    """Stability indices and weights of a finite mixture.

    ``components`` is a tuple of (beta, weight) pairs; a single pair with
    weight 1 is the pure stable case.  beta = 1 denotes the degenerate
    deterministic clock W_t = t and is only allowed on its own.
    """

    components: tuple[tuple[float, float], ...]

    def __post_init__(self):
        comps = tuple((float(b), float(w)) for b, w in self.components)
        object.__setattr__(self, "components", comps)
        if len(comps) == 0:
            raise ValueError("need at least one component")
        betas = [b for b, _ in comps]
        for b, w in comps:
            if not 0.0 < b <= 1.0:
                raise ValueError(f"beta={b} outside (0, 1]")
            if w <= 0.0:
                raise ValueError("weights must be positive")
        if len(set(betas)) != len(betas):
            raise ValueError("stability indices must be pairwise distinct")
        if any(b == 1.0 for b in betas) and len(comps) > 1:
            raise ValueError("beta = 1 only supported as a pure component")

    @classmethod
    def pure(cls, beta: float) -> "SubordinatorSpec":
        return cls(((beta, 1.0),))

    @property
    def is_pure(self) -> bool:
        return len(self.components) == 1 and self.components[0][1] == 1.0

    @property
    def is_deterministic(self) -> bool:
        return len(self.components) == 1 and self.components[0][0] == 1.0

    def laplace_exponent(self, s):
        """rho(s) = sum_k w_k s^{beta_k} (principal powers)."""
        s = np.asarray(s)
        return sum(w * s**b for b, w in self.components)

    def order_mixture(self, z):
        """m(z) = sum_k w_k beta_k z^{beta_k} / rho(z)."""
        z = np.asarray(z)
        num = sum(w * b * z**b for b, w in self.components)
        return num / self.laplace_exponent(z)

    def inverse_scale(self, t: float) -> float:
        """Order of magnitude of E_t (fastest component dominates)."""
        return min(t**b / w for b, w in self.components)


@dataclass(frozen=True)
class MonotonePath:
    """Nondecreasing samples starting at 0 (a subordinator or its inverse)."""

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        if len(grid) != len(values):
            raise ValueError("grid and values must have equal length")
        if values[0] != 0.0:
            raise ValueError("paths start at 0")
        if np.any(np.diff(values) < 0.0):
            raise ValueError("values must be nondecreasing")
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite")


@dataclass(frozen=True)
class SeededRng:
    """Reproducible stream: same (master_seed, stream_index) => same draws."""

    master_seed: int
    stream_index: int = 0

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(self.master_seed,
                                    spawn_key=(self.stream_index,))
        return np.random.default_rng(ss)

    def stream(self, index: int) -> "SeededRng":
        return SeededRng(self.master_seed, index)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def kanter_a(beta: float, u: np.ndarray) -> np.ndarray:
    """Kanter's function A(u) = [sin(beta u)^beta sin((1-beta) u)^(1-beta)
    / sin u]^(1/(1-beta)) on (0, pi)."""
    return (
        np.sin(beta * u) ** beta
        * np.sin((1.0 - beta) * u) ** (1.0 - beta)
        / np.sin(u)
    ) ** (1.0 / (1.0 - beta))


def _kanter(beta: float, u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Kanter's representation of the standard positive stable law:
    (A(U)/W)^((1-beta)/beta) for U uniform on (0, pi), W exponential."""
    return (kanter_a(beta, u) / w) ** ((1.0 - beta) / beta)


def sample_positive_stable(beta, scale, rng: SeededRng, size=None):
    """Draws with Laplace transform exp(-scale * s^beta), beta in (0, 1).

    Exact Chambers-Mallows-Stuck/Kanter construction; strictly positive.
    """
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie strictly inside (0, 1)")
    if np.any(np.asarray(scale) <= 0.0):
        raise ValueError("scale must be positive")
    gen = rng.generator() if isinstance(rng, SeededRng) else rng
    n = 1 if size is None else size
    u = gen.uniform(0.0, np.pi, n)
    w = gen.exponential(1.0, n)
    x = np.asarray(scale) ** (1.0 / beta) * _kanter(beta, u, w)
    return float(x[0]) if size is None else x


def _component_increments(spec, dt, shape, gen):
    """Increment matrix of W over steps of length dt (may be an array)."""
    total = np.zeros(shape)
    for b, w in spec.components:
        if b == 1.0:
            total += w * dt
            continue
        u = gen.uniform(0.0, np.pi, shape)
        e = gen.exponential(1.0, shape)
        total += (w * dt) ** (1.0 / b) * _kanter(b, u, e)
    return total


def sample_subordinator_path(
    spec: SubordinatorSpec, grid, rng: SeededRng
) -> MonotonePath:
    """One path of the mixture subordinator W on the given operational grid.

    Component k contributes independent stable increments scaled so that
    the increment of W over dt has Laplace transform exp(-dt * rho(s)).
    """
    grid = np.asarray(grid, dtype=float)
    if len(grid) == 0:
        raise ValueError("grid is empty")
    if grid[0] != 0.0 or np.any(np.diff(grid) <= 0):
        raise ValueError("grid must increase strictly from 0")
    gen = rng.generator()
    inc = _component_increments(spec, np.diff(grid), len(grid) - 1, gen)
    values = np.concatenate([[0.0], np.cumsum(inc)])
    return MonotonePath(grid, values)


def invert_subordinator_path(w: MonotonePath, t_grid) -> MonotonePath:
    """First passage times E_t = inf{s : W_s > t} from a sampled path.

    Binary search on the path values with linear interpolation of the
    operational-time grid inside the crossing step.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(t_grid < 0.0) or np.any(t_grid >= w.values[-1]):
        raise ValueError("t_grid must lie within [0, max(W))")
    idx = np.searchsorted(w.values, t_grid, side="right")
    lo = w.values[idx - 1]
    hi = w.values[idx]
    frac = np.where(hi > lo, (t_grid - lo) / np.where(hi > lo, hi - lo, 1.0), 0.0)
    e = w.grid[idx - 1] + frac * (w.grid[idx] - w.grid[idx - 1])
    if t_grid[0] == 0.0:
        e[0] = 0.0
    return MonotonePath(t_grid, e) if t_grid[0] == 0.0 else MonotonePath(
        np.concatenate([[0.0], t_grid]), np.concatenate([[0.0], e])
    )


def _pilot_step(spec, t_max, gen):
    """Operational step size: 1/400 of the mean crossing time of t_max in
    a coarse 256-path pilot run."""
    step = spec.inverse_scale(t_max) / 32.0
    s_cross = np.zeros(256)
    w_cur = np.zeros(256)
    alive = np.arange(256)
    k = 0
    while alive.size and k < 10_000:
        inc = _component_increments(spec, step, alive.size, gen)
        w_cur[alive] += inc
        s_cross[alive] += step
        alive = alive[w_cur[alive] <= t_max]
        k += 1
    return max(float(np.mean(s_cross)), step) / 400


def sample_inverse_ensemble(
    spec: SubordinatorSpec,
    t_grid,
    n_paths: int,
    rng: SeededRng,
) -> np.ndarray:
    """First-passage Monte Carlo: E at every t in t_grid for n_paths paths.

    Paths are advanced level by level with independent stable increments
    (exact skeleton); the crossing step is linearly interpolated.  The
    step, from a pilot run, keeps the interpolation bias around 1/400 of
    the typical crossing time, well under Monte Carlo noise at desk scale.
    Returns an array shaped (n_paths, len(t_grid)).
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(np.diff(t_grid) <= 0) or np.any(t_grid <= 0.0):
        raise ValueError("t_grid must be strictly increasing and positive")
    if spec.is_deterministic:
        w1 = spec.components[0][1]
        return np.tile(t_grid / w1, (n_paths, 1))
    gen = rng.generator()
    step = _pilot_step(spec, float(t_grid[-1]), gen)

    out = np.empty((n_paths, len(t_grid)))
    w_cur = np.zeros(n_paths)      # W at the current step boundary
    s_cur = np.zeros(n_paths)      # operational time at that boundary
    w_lo_last = np.zeros(n_paths)  # W at the start of the last crossing step
    s_lo_last = np.zeros(n_paths)  # operational time at that step start
    chunk = 32
    for j, level in enumerate(t_grid):
        # a single jump can straddle several levels: reuse the stored step
        covered = np.flatnonzero(w_cur > level)
        if covered.size:
            frac = (level - w_lo_last[covered]) / (
                w_cur[covered] - w_lo_last[covered]
            )
            out[covered, j] = s_lo_last[covered] + frac * step
        active = np.flatnonzero(w_cur <= level)
        while active.size:
            inc = _component_increments(spec, step, (active.size, chunk), gen)
            w_path = w_cur[active, None] + np.cumsum(inc, axis=1)
            crossed = w_path[:, -1] > level
            rows = np.flatnonzero(crossed)
            if rows.size:
                paths = active[rows]
                cols = (w_path[rows] > level).argmax(axis=1)
                w_hi = w_path[rows, cols]
                w_lo = np.where(cols > 0,
                                w_path[rows, np.maximum(cols - 1, 0)],
                                w_cur[paths])
                frac = (level - w_lo) / (w_hi - w_lo)
                out[paths, j] = s_cur[paths] + (cols + frac) * step
                w_lo_last[paths] = w_lo
                s_lo_last[paths] = s_cur[paths] + cols * step
                w_cur[paths] = w_hi
                s_cur[paths] += (cols + 1) * step
            stay = ~crossed
            w_cur[active[stay]] = w_path[stay, -1]
            s_cur[active[stay]] += chunk * step
            active = active[stay]
    return out


def sample_inverse_marginal(
    spec: SubordinatorSpec,
    t: float,
    n_paths: int,
    rng: SeededRng,
) -> np.ndarray:
    """Exact draws of E_t at one time t > 0, shaped (n_paths,).

    A one-component clock of weight w has E_t = (t/D)^b / w in law, with D
    standard positive stable (E_t = inf{u : w^{1/b} u^{1/b} D > t} by
    self-similarity).  Kanter's D = (A(U)/W)^((1-b)/b) turns this into
    t^b (W/A(U))^(1-b) / w (Meerschaert & Scheffler, J. Appl. Probab. 41,
    2004), which never forms D: its power (1-b)/b overflows at small b.
    The deterministic clock gives t / w; mixtures have no such form and
    take the level-crossing route.
    """
    if t <= 0.0:
        raise ValueError("t must be positive")
    if len(spec.components) > 1:
        return sample_inverse_ensemble(spec, [t], n_paths, rng)[:, 0]
    b, w = spec.components[0]
    if b == 1.0:
        return np.full(n_paths, t / w)
    gen = rng.generator()
    u = gen.uniform(0.0, np.pi, n_paths)
    e = gen.exponential(1.0, n_paths)
    return t**b / w * (e / kanter_a(b, u)) ** (1.0 - b)


# ---------------------------------------------------------------------------
# density and moments of the inverse process
# ---------------------------------------------------------------------------

def _tail_log_bound(spec: SubordinatorSpec, t: float, taus: np.ndarray):
    """log of an envelope for f_{E_t}(tau) deep in the tau tail.

    P(E_t > u) = P(W_u < t) <= exp(min_l [l t - u rho(l)]) (Chernoff), and
    f is decreasing out there, so f(tau) <= P(E_t > tau - d)/d for small d.
    Only used to decide what is numerically zero; O(1) looseness is fine.
    """
    d = 0.05 * spec.inverse_scale(t)
    u = np.maximum(taus - d, 0.0)
    lam = np.logspace(-3.0, 8.0, 150)
    rho = spec.laplace_exponent(lam).real
    g = lam[None, :] * t - u[:, None] * rho[None, :]
    bound = g.min(axis=1) - math.log(d)
    bound[taus <= d] = math.inf
    return bound


def inverse_time_density(
    spec: SubordinatorSpec,
    t: float,
    tau,
    *,
    config: SolverConfig = DEFAULT_CONFIG,
):
    """Density f_{E_t}(tau) by Laplace inversion in t.

    Pure case: invert s^{beta-1} exp(-tau s^beta); mixtures invert
    (rho(s)/s) exp(-tau rho(s)).  Scalar tau gives a float; an array of
    tau values is inverted in one batched call (shared contours).
    Ringing in (-nonneg_tol, 0) is clamped to 0; anything more negative
    raises.
    """
    if t <= 0.0:
        raise ValueError("t must be positive")
    if spec.is_deterministic:
        raise ValueError("E_t has a point-mass law for beta = 1")
    taus = np.atleast_1d(np.asarray(tau, dtype=float))
    if np.any(taus < 0.0):
        raise ValueError("tau must be nonnegative")

    scale = 1.0 / spec.inverse_scale(t)
    vals = np.zeros(len(taus))
    # skip tau where a Chernoff envelope already puts f below noise
    live = _tail_log_bound(spec, t, taus) > math.log(1e-16 * scale)
    if np.any(live):
        taus_live = taus[live]

        def F(s):
            rho = spec.laplace_exponent(s)
            return (rho / s)[None, :] * np.exp(
                -taus_live[:, None] * rho[None, :]
            )

        def logF(s):
            rho = spec.laplace_exponent(s)
            return (np.log(rho) - np.log(s))[None, :] - taus_live[
                :, None
            ] * rho[None, :]

        vals[live] = laplace_inverse_batch(
            F, t, int(live.sum()), logF=logF, config=config, abs_scale=scale
        )
    floor = vals.min()
    # ringing within the inversion gate's own guarantee is clamped; worse
    # than that means the transform was not inverted reliably
    band = max(config.nonneg_tol, 10.0 * config.inversion_tol) * scale
    if floor < -band:
        raise NumericsError(
            f"density negative beyond tolerance: {floor:.3e} at "
            f"tau={taus[int(np.argmin(vals))]:.4g}"
        )
    vals = np.maximum(vals, 0.0)
    return float(vals[0]) if np.isscalar(tau) or np.ndim(tau) == 0 else vals


def _inversion_tolerances(config: SolverConfig) -> tuple[float, float]:
    """The only config fields ``inverse_time_density`` reads; every cache
    of its results keys on them."""
    return config.inversion_tol, config.nonneg_tol


_PURE_CLOCK_SPLINES: dict = {}


def clock_density_fast(
    spec: SubordinatorSpec,
    t: float,
    taus: np.ndarray,
    *,
    config: SolverConfig = DEFAULT_CONFIG,
) -> np.ndarray:
    """f_{E_t} evaluated via the pure clock's exact self-similarity.

    For a single stable component, f_{E_t}(tau) = t^-b phi(tau t^-b) with
    phi = f_{E_1}; phi is tabulated once through the dual-gated inversion
    and reused through a log-log cubic spline (relative error ~ 1e-9).
    Mixtures fall back to direct inversion.
    """
    if not spec.is_pure or spec.is_deterministic:
        return inverse_time_density(spec, t, taus, config=config)
    beta = spec.components[0][0]
    key = (beta, *_inversion_tolerances(config))
    entry = _PURE_CLOCK_SPLINES.get(key)
    if entry is None:
        from scipy.interpolate import CubicSpline

        u = np.geomspace(1e-7, 120.0, 4000)
        phi = inverse_time_density(spec, 1.0, u, config=config)
        pos = phi > 0.0
        # support endpoint: last strictly positive value
        last = int(np.flatnonzero(pos)[-1])
        u_live = u[: last + 1]
        phi_live = np.maximum(phi[: last + 1], 1e-320)
        spline = CubicSpline(np.log(u_live), np.log(phi_live))
        entry = (spline, u_live[0], u_live[-1], float(phi[0]))
        _PURE_CLOCK_SPLINES[key] = entry
    spline, u_lo, u_hi, phi0 = entry
    scale = t**beta
    u = np.asarray(taus, dtype=float) / scale
    out = np.zeros_like(u)
    inside = (u >= u_lo) & (u <= u_hi)
    out[inside] = np.exp(spline(np.log(u[inside])))
    out[u < u_lo] = phi0
    return out / scale


def inverse_time_moment(
    spec: SubordinatorSpec,
    t: float,
    gamma: float,
    *,
    config: SolverConfig = DEFAULT_CONFIG,
) -> float:
    """E[(E_t)^gamma]; closed form for pure beta, inversion for mixtures.

    Where a gamma function or power leaves the float range the closed-form
    factors are recomputed from their logarithms, so a large gamma gives
    the moment whenever it is a finite float, and NumericsError otherwise.
    """
    if t <= 0.0 or gamma <= 0.0:
        raise ValueError("need t > 0 and gamma > 0")
    if len(spec.components) == 1:
        b, w = spec.components[0]
        # a weight-w clock is the weight-1 clock run at speed w
        # (E[e^{-s W_u}] = e^{-u w s^b}), so E_t =d E'_t / w
        return _in_float_range(
            lambda: math.gamma(gamma + 1.0) * t ** (gamma * b)
            / math.gamma(gamma * b + 1.0) / w**gamma,
            math.lgamma(gamma + 1.0) + gamma * b * math.log(t)
            - math.lgamma(gamma * b + 1.0) - gamma * math.log(w),
            f"moment of order {gamma}",
        )

    lg = _in_float_range(lambda: math.gamma(gamma + 1.0),
                         math.lgamma(gamma + 1.0), f"Gamma({gamma} + 1)")

    def F(s):
        rho = spec.laplace_exponent(s)
        return (lg / (s * rho**gamma))[None, :]

    scale = lg * spec.inverse_scale(t) ** gamma
    return float(
        laplace_inverse_batch(F, t, 1, config=config, abs_scale=scale)[0]
    )


def _in_float_range(direct, log_value: float, what: str) -> float:
    """``direct()`` if it is a positive finite float, else exp(log_value);
    NumericsError when that is no positive finite float either."""
    for value in (direct, lambda: math.exp(log_value)):
        try:
            v = value()
        except OverflowError:
            continue
        if 0.0 < v < math.inf:
            return v
    raise NumericsError(
        f"{what} is exp({log_value:.6g}), outside the float range"
    )
