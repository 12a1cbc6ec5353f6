"""Stable subordinators, finite mixtures, and their inverse processes.

A subordinator here is a nondecreasing process W whose increments over
disjoint intervals are independent, with E[exp(-s W_t)] = exp(-t rho(s))
and rho(s) = sum_k w_k s^{beta_k}.  The inverse (first passage) process
E_t = inf{u : W_u > t} is the random clock used by the time-change module.

Five routes to the law of E_t coexist on purpose:

* pathwise Monte Carlo (`sample_inverse_ensemble`), joint over many times:
  exact paths from the first-passage law for one-component clocks (one
  passage draw per time at most; Bertoin, *Levy Processes*, 1996, ch.
  III), a level-crossing walk of W for mixtures,
* exact one-time draws from Kanter's representation
  (`sample_inverse_marginal`; one-component clocks),
* the exact density of a one-component clock (`unit_clock_density`, at
  any t and weight by self-similarity through `clock_density_fast`): the M-Wright series for
  small arguments, the Kanter-Zolotarev integral of positive terms beyond,
* Laplace inversion of the known transform (`inverse_time_density`; the
  only density route for mixtures),
* closed-form moments where they exist (`inverse_time_moment`),

and the test suite plays them against each other.  Kanter's function A,
which the samplers and the exact density share, is formed once, as its
logarithm (`_log_kanter_a`): A itself overflows near pi at beta near 1.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .config import INVERSION_TOL, NONNEG_TOL
from .errors import NumericsError
from .fraccalc import _gauss_panels, laplace_inverse_batch

__all__ = [
    "SubordinatorSpec",
    "SeededRng",
    "sample_inverse_ensemble",
    "sample_inverse_marginal",
    "inverse_time_density",
    "inverse_time_moment",
    "unit_clock_density",
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

def _log_kanter_a(beta: float, u: np.ndarray) -> np.ndarray:
    """log of Kanter's function A(u) = [sin(beta u)^beta sin((1-beta)
    u)^(1-beta) / sin u]^(1/(1-beta)) on (0, pi), finite where A itself
    overflows (u near pi at beta near 1)."""
    return (
        beta * np.log(np.sin(beta * u))
        + (1.0 - beta) * np.log(np.sin((1.0 - beta) * u))
        - np.log(np.sin(u))
    ) / (1.0 - beta)


def _kanter(beta: float, u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Kanter's representation of the standard positive stable law:
    (A(U)/W)^((1-beta)/beta) for U uniform on (0, pi), W exponential,
    formed from log A so that A never leaves the float range."""
    return np.exp((1.0 - beta) / beta * (_log_kanter_a(beta, u) - np.log(w)))


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


def _level_crossing_paths(spec, t_grid, n_paths, gen) -> np.ndarray:
    """E at every level of the increasing t_grid by walking W in steps.

    Paths are advanced level by level with independent stable increments
    (exact skeleton); the crossing step is linearly interpolated.  The
    step, from a pilot run, keeps the interpolation bias around 1/400 of
    the typical crossing time, well under Monte Carlo noise at desk scale.
    """
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


def _log_uniform(n: int, gen) -> np.ndarray:
    """log V for V uniform on (0, 1]: finite, unlike log of a draw on [0, 1)."""
    return np.log1p(-gen.uniform(size=n))


def _log_gamma_draws(a: float, n: int, gen) -> np.ndarray:
    """log G for G ~ Gamma(a, 1), accurate where G underflows (a << 1):
    G_a =d G_{a+1} U^{1/a}."""
    return np.log(gen.gamma(a + 1.0, size=n)) + _log_uniform(n, gen) / a


def _passage_draws(beta, levels, gen):
    """First passage of the weight-1 beta-stable subordinator over each of
    the given positive levels: (E, log W_E - log level) per level.

    The undershoot is y = level B with B ~ Beta(beta, 1 - beta), the
    overshooting jump is (level - y) V^(-1/beta) with V uniform, and given
    y the passage time is y^beta (G / A(U'))^(1-beta) with G ~ Gamma(2 -
    beta) and U' of density proportional to A^-(1-beta) on (0, pi), drawn
    by rejection against A(0+).  Every piece is formed from logarithms, so
    neither a Beta draw that underflows to 0 nor V^(-1/beta) at small beta
    nor A near pi at beta near 1 leaves the float range.
    """
    n = len(levels)
    b1 = 1.0 - beta
    log_ga = _log_gamma_draws(beta, n, gen)
    log_gb = _log_gamma_draws(b1, n, gen)
    log_sum = np.logaddexp(log_ga, log_gb)
    log_lv = np.log(levels)
    log_y = log_lv + log_ga - log_sum            # y = level B
    log_gap = log_lv + log_gb - log_sum          # level - y = level (1 - B)
    log_jump = log_gap - _log_uniform(n, gen) / beta
    # W_E = y + jump, above level; kept as its log ratio to the level
    log_over = np.logaddexp(log_y, log_jump) - log_lv

    log_a0 = (beta * math.log(beta) + b1 * math.log(b1)) / b1  # log A(0+)
    log_a = np.empty(n)
    todo = np.arange(n)
    while todo.size:
        # on (0, pi]: sin(pi) rounds to 1.2e-16, so log A stays finite
        u = np.pi * (1.0 - gen.uniform(size=todo.size))
        la = _log_kanter_a(beta, u)
        ok = _log_uniform(todo.size, gen) < b1 * (log_a0 - la)
        log_a[todo[ok]] = la[ok]
        todo = todo[~ok]
    log_g = np.log(gen.gamma(2.0 - beta, size=n))
    e = np.exp(beta * log_y + b1 * (log_g - log_a))
    return e, log_over


def _exact_paths(beta, weight, t_grid, n_paths, gen) -> np.ndarray:
    """E at every level of the increasing t_grid from passage draws.

    At a passage the clock restarts from W_E (strong Markov property): a
    later level below W_E keeps the current E, any other level adds a
    fresh passage over the level minus W_E.  A weight-w clock is the
    weight-1 clock run at speed w, so its E is the weight-1 E over w.
    """
    out = np.empty((n_paths, len(t_grid)))
    e_cur = np.zeros(n_paths)
    w_cur = np.zeros(n_paths)  # W at the latest passage
    for j, level in enumerate(t_grid):
        need = np.flatnonzero(w_cur < level)
        if need.size:
            gap = level - w_cur[need]
            e, log_over = _passage_draws(beta, gap, gen)
            e_cur[need] += e
            # an overshoot past the top level covers every later level
            w_cur[need] += gap * np.exp(
                np.minimum(log_over, np.log(t_grid[-1] / gap + 2.0)))
        out[:, j] = e_cur
    return out / weight


def sample_inverse_ensemble(
    spec: SubordinatorSpec,
    t_grid,
    n_paths: int,
    rng: SeededRng,
) -> np.ndarray:
    """First-passage Monte Carlo: E at every t in t_grid for n_paths paths.

    A one-component clock is drawn exactly, level by level, from the
    first-passage law of its subordinator (Bertoin, *Levy Processes*,
    1996, ch. III): at most one passage draw per time and path, with no
    step and no interpolation.  Mixtures have no such law and walk W in
    pilot-sized steps with the crossing step linearly interpolated, which
    leaves a bias around 1/400 of the typical crossing time, well under
    Monte Carlo noise at desk scale.  The deterministic clock gives t / w.
    Returns an array shaped (n_paths, len(t_grid)).
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(np.diff(t_grid) <= 0) or not np.all(t_grid > 0.0):
        raise ValueError("t_grid must be strictly increasing and positive")
    if spec.is_deterministic:
        w1 = spec.components[0][1]
        return np.tile(t_grid / w1, (n_paths, 1))
    gen = rng.generator()
    if len(spec.components) == 1:
        b, w = spec.components[0]
        return _exact_paths(b, w, t_grid, n_paths, gen)
    return _level_crossing_paths(spec, t_grid, n_paths, gen)


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
    if not t > 0.0:
        raise ValueError("t must be positive")
    if len(spec.components) > 1:
        return sample_inverse_ensemble(spec, [t], n_paths, rng)[:, 0]
    b, w = spec.components[0]
    if b == 1.0:
        return np.full(n_paths, t / w)
    gen = rng.generator()
    u = gen.uniform(0.0, np.pi, n_paths)
    e = gen.exponential(1.0, n_paths)
    # in logs: A(u) overflows near pi at b near 1
    return t**b / w * np.exp((1.0 - b) * (np.log(e) - _log_kanter_a(b, u)))


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
):
    """Density f_{E_t}(tau) by Laplace inversion in t.

    Pure case: invert s^{beta-1} exp(-tau s^beta); mixtures invert
    (rho(s)/s) exp(-tau rho(s)).  Scalar tau gives a float; an array of
    tau values is inverted in one batched call (shared contours).
    Ringing in (-NONNEG_TOL, 0) is clamped to 0; anything more negative
    raises.
    """
    if not t > 0.0:
        raise ValueError("t must be positive")
    if spec.is_deterministic:
        raise ValueError("E_t has a point-mass law for beta = 1")
    taus = np.atleast_1d(np.asarray(tau, dtype=float))
    if not np.all(taus >= 0.0):
        raise ValueError("tau must be nonnegative")

    scale = 1.0 / spec.inverse_scale(t)
    vals = np.zeros(len(taus))
    # skip tau where a Chernoff envelope already puts f below noise
    live = _tail_log_bound(spec, t, taus) > math.log(1e-16 * scale)
    if np.any(live):
        taus_live = taus[live]

        def logF(s):
            rho = spec.laplace_exponent(s)
            return (np.log(rho) - np.log(s))[None, :] - taus_live[
                :, None
            ] * rho[None, :]

        vals[live] = laplace_inverse_batch(
            logF, t, int(live.sum()), abs_scale=scale
        )
    floor = vals.min()
    # ringing within the inversion gate's own guarantee is clamped; worse
    # than that means the transform was not inverted reliably
    band = max(NONNEG_TOL, 10.0 * INVERSION_TOL) * scale
    if floor < -band:
        raise NumericsError(
            f"density negative beyond tolerance: {floor:.3e} at "
            f"tau={taus[int(np.argmin(vals))]:.4g}"
        )
    vals = np.maximum(vals, 0.0)
    return float(vals[0]) if np.isscalar(tau) or np.ndim(tau) == 0 else vals


def _mwright_series(beta: float, u: np.ndarray) -> np.ndarray:
    """f_{E_1}(u) = sum_k (-u)^k / (k! Gamma(1 - beta - beta k)), the
    M-Wright function (Mainardi, Mura & Pagnini, Int. J. Differ. Equ.
    2010, 104505), for 0 <= u <= 1 / (beta^beta (1-beta)^(1-beta)).

    By reflection 1/Gamma(1 - x) = Gamma(x) sin(pi x) / pi with x = beta
    (k + 1) > 0, so each term is a sine times the exponential of its log
    magnitude k log u + lgamma(x) - lgamma(k + 1): no pole and no
    overflow.  The sum stops where that magnitude at the largest u has
    fallen e^40 below its peak; the terms up to there never exceed that
    peak, which on this range is within a few units of the sum.  At the
    range's end that takes about 20 / (1 - beta) terms, and a beta so
    close to 1 that it would take more than 2^14 raises ``NumericsError``
    instead of building a (len(u), terms) matrix of that width.
    """
    log_u = np.log(np.maximum(u, 1e-300))
    n = 64
    while True:
        if n > 2**14:
            raise NumericsError(
                f"clock density: the M-Wright series at beta {beta:.17g} "
                "needs more than 2^14 terms (beta too close to 1)")
        k = np.arange(n, dtype=float)
        x = beta * (k + 1.0)
        log_mag = gammaln(x) - gammaln(k + 1.0)
        top = log_mag + k * log_u.max()
        if top[-1] < top.max() - 40.0 and top[-1] < top[-2]:
            break
        n *= 2
    m = int(np.flatnonzero(top >= top.max() - 40.0)[-1]) + 1
    k, x, log_mag = k[:m], x[:m], log_mag[:m]
    sign = np.where(k % 2 == 0, 1.0, -1.0) * np.sin(np.pi * x) / np.pi
    return np.exp(log_mag + k * log_u[:, None]) @ sign


@functools.cache
def _kanter_rule():
    """Fixed composite 16-point Gauss rule on (0, pi), 384 nodes: 12
    panels graded geometrically (ratio 1/2) toward 0, where the
    Kanter-Zolotarev integrand peaks with a width that shrinks like
    (beta z A(0))^(-1/2), and 12 (ratio 0.7) toward pi, where A blows up
    like (pi - phi)^(-1/(1-beta)) and exp(-z A) cuts the integrand off.
    Built on first use; callers share the arrays and never write them."""
    lo = 0.5 * np.pi * 0.5 ** np.arange(11.0, -1.0, -1.0)
    hi = np.pi - 0.5 * np.pi * 0.7 ** np.arange(1.0, 12.0)
    return _gauss_panels(np.concatenate([[0.0], lo, hi, [np.pi]]), 16)


def _kanter_integral(beta: float, u: np.ndarray) -> np.ndarray:
    """f_{E_1}(u) = u^(b/(1-b)) / (pi (1-b)) int_0^pi A exp(-z A) dphi with
    z = u^(1/(1-b)) and A Kanter's function, read from ``_log_kanter_a``
    (Kanter, Ann. Probab. 3, 1975; Zolotarev, *One-dimensional Stable
    Distributions*, 1986), for u beyond
    1 / (b^b (1-b)^(1-b)), where z A(0) >= 1 and the positive integrand
    decreases in phi.

    exp(-z A(0)) is taken out of the integral and put back in logs, so the
    tail keeps its relative accuracy down to the float range; a u whose
    bound u^(b/(1-b)) exp(-z A(0)) A(0) / (1-b) is below it gives 0.  The
    exponents z A(0) and z (A - A(0)) reach hundreds there, and the power
    1/(1-b) amplifies the rounding of log u and of A's sines, so z A(0)
    and A - A(0) are formed in extended precision (``np.longdouble``;
    where that is a plain double, the far tail loses about three digits).
    """
    ld = np.longdouble
    b = ld(beta)
    b1 = 1 - b
    log_a0 = (b * np.log(b) + b1 * np.log(b1)) / b1
    a0 = np.exp(log_a0)
    log_u = np.log(u.astype(ld))
    # z overflows where log u / (1 - b) leaves the float range, in the far
    # tail of a clock with beta near 1, where exp(-z A(0)) is 0 long
    # before: z = inf gives that 0 (log_pre = -inf)
    with np.errstate(over="ignore"):
        z = np.exp(log_u / b1)
    log_pre = b / b1 * log_u - z * a0
    out = np.zeros(len(u))
    live = log_pre + log_a0 - np.log(b1) > -746.0
    phi, w = _kanter_rule()
    # A overflows near pi at beta near 1, where exp(-z A) is 0 anyway
    a = np.exp(np.minimum(_log_kanter_a(b, phi.astype(ld)), 700))
    gap = (a - a0).astype(float)
    with np.errstate(over="ignore"):
        inner = np.exp(-z[live, None].astype(float) * gap) @ (
            w * a.astype(float))
    out[live] = np.exp(log_pre[live] + np.log(inner)) / (np.pi * b1)
    return out


def unit_clock_density(beta: float, u) -> np.ndarray:
    """f_{E_1}(u) of the pure beta-stable clock, 0 < beta < 1, exactly and
    vectorised over u >= 0; any other u (negative or NaN) raises.

    The M-Wright series serves u up to 1 / (beta^beta (1-beta)^(1-beta))
    (between 1 and 2), the Kanter-Zolotarev integral of positive terms
    beyond it.  Both stay within a few 1e-15 relative of 30-digit mpmath
    values, the integral down to where the density leaves the float range.
    """
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie strictly inside (0, 1)")
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if not np.all(u >= 0.0):
        raise ValueError("u must be nonnegative")
    b1 = 1.0 - beta
    u0 = math.exp(-beta * math.log(beta) - b1 * math.log(b1))
    out = np.empty(len(u))
    small = u <= u0
    if np.any(small):
        out[small] = _mwright_series(beta, u[small])
    if not np.all(small):
        out[~small] = _kanter_integral(beta, u[~small])
    return out


# always empty (nothing is tabulated); perfbench/workloads.py clears it
_PURE_CLOCK_SPLINES: dict = {}


def clock_density_fast(
    spec: SubordinatorSpec,
    t: float,
    taus: np.ndarray,
) -> np.ndarray:
    """f_{E_t} at the nodes ``taus``, exactly for a one-component clock.

    A single stable component of weight w is self-similar, f_{E_t}(tau) =
    f_{E_1}(tau / c) / c with c = t^b / w (``inverse_scale``) and f_{E_1}
    the weight-1 unit density ``unit_clock_density``: the M-Wright series
    for small arguments, the Kanter-Zolotarev integral beyond, no table and
    no cache; a negative or NaN node raises, as ``unit_clock_density``
    refuses it.  Mixtures go through ``inverse_time_density`` (dual
    Laplace inversion), the one route that reads ``config.INVERSION_TOL``.
    """
    if len(spec.components) > 1 or spec.is_deterministic:
        return inverse_time_density(spec, t, taus)
    beta = spec.components[0][0]
    scale = spec.inverse_scale(t)
    u = np.asarray(taus, dtype=float).ravel() / scale
    return unit_clock_density(beta, u).reshape(np.shape(taus)) / scale


def inverse_time_moment(
    spec: SubordinatorSpec,
    t: float,
    gamma: float,
) -> float:
    """E[(E_t)^gamma]; closed form for pure beta, inversion for mixtures.

    Where a gamma function or power leaves the float range the closed-form
    factors are recomputed from their logarithms, so a large gamma gives
    the moment whenever it is a finite float, and NumericsError otherwise.
    """
    if not (t > 0.0 and gamma > 0.0):
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

    def logF(s):
        rho = spec.laplace_exponent(s)
        return (math.log(lg) - np.log(s) - gamma * np.log(rho))[None, :]

    scale = lg * spec.inverse_scale(t) ** gamma
    return float(
        laplace_inverse_batch(logF, t, 1, abs_scale=scale)[0]
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
