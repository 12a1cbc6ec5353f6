"""Composition of Gaussian processes with inverse subordinators.

The composed process X. E inherits its one-time law from the mixing
identity q(t, x) = int_0^inf f_{E_t}(tau) p(tau, x) dtau, which this module
evaluates by shared-node quadrature over many times at once.  The clock
nodes are shared across x: one clock-density batch serves a whole x-grid.
For a pure clock they are shared across t as well, since E_t = t^beta E_1
in law: one set of nodes v and weights w(v) f_{E_1}(v) serves every time,
and only the Gaussian factor p(t^beta v, x) changes.  Monte Carlo path
composition and a Laplace-domain residual check of the same identity
provide two independent routes to the same numbers.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .config import DEFAULT_CONFIG, SolverConfig
from .errors import NumericsError, QuadratureError
from .fraccalc import laplace_forward
from .gaussian import (
    GaussianSpec,
    PathEnsemble,
    _checked_cholesky,
    covariance_matrix,
)
from .subordinators import (
    SeededRng,
    SubordinatorSpec,
    _inversion_tolerances,
    clock_density_fast,
    inverse_time_density,
    sample_inverse_ensemble,
    sample_inverse_marginal,
)

__all__ = [
    "TimeChangedSpec",
    "GridDensity",
    "Histogram",
    "sample_timechanged_paths",
    "sample_timechanged_marginal",
    "subordinated_density",
    "subordinated_grid_density",
    "laplace_subordination_residual",
    "empirical_density",
]


@dataclass(frozen=True)
class TimeChangedSpec:
    """A Gaussian base process run on an independent inverse-subordinator clock."""

    gauss: GaussianSpec
    sub: SubordinatorSpec


@dataclass(frozen=True)
class GridDensity:
    """Density values on a (time x space) grid with bookkeeping.

    ``mass_error`` records |1 - integral| per time slice as produced by the
    generating routine; values are clamped nonnegative within tolerance.
    """

    t_grid: np.ndarray
    x_grid: np.ndarray
    values: np.ndarray
    mass_error: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t_grid, dtype=float)
        x = np.asarray(self.x_grid, dtype=float)
        v = np.asarray(self.values, dtype=float)
        m = np.asarray(self.mass_error, dtype=float)
        for name, arr in (("t_grid", t), ("x_grid", x)):
            if np.any(np.diff(arr) <= 0):
                raise ValueError(f"{name} must be strictly increasing")
        if v.shape != (len(t), len(x)):
            raise ValueError("values must be (n_t, n_x)")
        object.__setattr__(self, "t_grid", t)
        object.__setattr__(self, "x_grid", x)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "mass_error", m)

    def slice_at(self, t: float) -> np.ndarray:
        i = int(np.argmin(np.abs(self.t_grid - t)))
        if abs(self.t_grid[i] - t) > 1e-9 * max(1.0, abs(t)):
            raise ValueError(f"t={t} not on the density grid")
        return self.values[i]


# ---------------------------------------------------------------------------
# path-level composition
# ---------------------------------------------------------------------------

def sample_timechanged_paths(
    spec: TimeChangedSpec, grid, n_paths: int, rng: SeededRng
) -> PathEnsemble:
    """Sample X at the random times E_t, exactly in distribution.

    The clock is sampled first; the Gaussian part is then drawn jointly at
    the realized times via a per-path Cholesky of R(E_i, E_j) (conditioning
    on the clock keeps the non-Markov covariance exact), assembled by
    ``covariance_matrix`` so every model in the catalog works.  Repeated
    clock values reuse the same Gaussian value, since a process evaluated
    twice at one time is one random variable.
    """
    grid = np.asarray(grid, dtype=float)
    has_zero = grid[0] == 0.0
    tpos = grid[1:] if has_zero else grid
    E = sample_inverse_ensemble(spec.sub, tpos, n_paths, rng.stream(0))
    gen = rng.stream(1).generator()
    n_dim = spec.gauss.dimension
    out = np.zeros((n_paths, len(grid), n_dim))
    col0 = 1 if has_zero else 0
    for p in range(n_paths):
        taus, inverse = np.unique(E[p], return_inverse=True)
        live = taus > 0.0
        taus_live = taus[live]
        if taus_live.size:
            for j, model in enumerate(spec.gauss.components):
                L = _checked_cholesky(covariance_matrix(model, taus_live))
                draws = L @ gen.standard_normal(len(taus_live))
                full = np.zeros(len(taus))
                full[live] = draws
                out[p, col0:, j] = full[inverse]
    for j in range(n_dim):
        out[:, col0:, j] += spec.gauss.mean_at(j, E)
    return PathEnsemble(grid, out, seed=rng)


def sample_timechanged_marginal(
    spec: TimeChangedSpec, t: float, n_paths: int, rng: SeededRng
) -> np.ndarray:
    """Draws of X_{E_t} at a single time, (n_paths, dimension): an exact
    clock draw (``sample_inverse_marginal``), then X given E_t."""
    E = sample_inverse_marginal(spec.sub, t, n_paths, rng.stream(0))
    gen = rng.stream(1).generator()
    n_dim = spec.gauss.dimension
    out = np.empty((n_paths, n_dim))
    for j, model in enumerate(spec.gauss.components):
        sd = np.sqrt(np.maximum(model.var(E), 0.0))
        out[:, j] = sd * gen.standard_normal(n_paths) + spec.gauss.mean_at(j, E)
    return out


# ---------------------------------------------------------------------------
# subordination integral
# ---------------------------------------------------------------------------

_SUPPORT_RATIO: dict = {}


def _clock_support(spec: TimeChangedSpec, t: float, config) -> float:
    """tau* with the clock density negligible beyond it.

    For a pure clock the support/scale ratio is t-free (self-similarity),
    so one probe per spec suffices; a mixture's profile shape drifts with
    t, so its ratio is cached per decade of t.  The key also holds the
    tolerances the probe's inversion reads.
    """
    sub = spec.sub
    scale = sub.inverse_scale(t)
    decade = None if sub.is_pure else math.floor(math.log10(t))
    key = (sub, decade, *_inversion_tolerances(config))
    ratio = _SUPPORT_RATIO.get(key)
    if ratio is None:
        t_ref = 1.0 if decade is None else 10.0 ** (decade + 0.5)
        ref_scale = sub.inverse_scale(t_ref)
        probe = ref_scale * np.geomspace(1e-3, 80.0, 120)
        f = inverse_time_density(sub, t_ref, probe, config=config)
        peak = f.max()
        live = np.flatnonzero(f > 1e-13 * peak)
        if live.size == 0:
            raise NumericsError("clock density vanished on the probe grid")
        ratio = float(probe[min(live[-1] + 2, len(probe) - 1)]) / ref_scale
        if not sub.is_pure:
            ratio *= 1.5
        _SUPPORT_RATIO[key] = ratio
    return ratio * scale


_GL12 = leggauss(12)


def _panel_rule(u_max: float, n_panels: int):
    """Composite 12-point Gauss-Legendre nodes/weights, panels graded
    toward 0."""
    xg, wg = _GL12
    edges = u_max * (np.linspace(0.0, 1.0, n_panels + 1) ** 2)
    a, b = edges[:-1, None], edges[1:, None]
    nodes = 0.5 * (b - a) * xg + 0.5 * (a + b)
    return nodes.ravel(), (0.5 * (b - a) * wg).ravel()


def _product_density(spec: GaussianSpec, taus: np.ndarray, x: np.ndarray):
    """p(tau_m, x_i) for all nodes and points; shape (len(taus), npts)."""
    dens = np.ones((len(taus), x.shape[0]))
    for j, model in enumerate(spec.components):
        v = np.maximum(np.asarray(model.var(taus), dtype=float), 0.0)[:, None]
        xj = x[:, j][None, :]
        # centered models skip the (nodes x points) shift
        mus = spec.mean_at(j, taus)[:, None] if spec.means else 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            d = np.exp(-((xj - mus) ** 2) / (2.0 * v)) / np.sqrt(
                2.0 * math.pi * v
            )
        d = np.where(v > 0.0, d, 0.0)
        dens *= d
    return dens


def _as_points(spec: TimeChangedSpec, x):
    """(points (npts, n), whether ``x`` was a single scalar)."""
    x = np.asarray(x, dtype=float)
    n = spec.gauss.dimension
    if n == 1 and x.ndim <= 1:
        pts = np.atleast_1d(x)[:, None]
    else:
        pts = np.atleast_2d(x)
    if pts.shape[1] != n:
        raise ValueError(f"points must have dimension {n}")
    return pts, x.ndim == 0


def subordinated_density(
    spec: TimeChangedSpec,
    t: float,
    x,
    *,
    config: SolverConfig = DEFAULT_CONFIG,
) -> np.ndarray:
    """q(t, x) = int f_{E_t}(tau) p(tau, x) dtau by shared-node quadrature.

    One batched clock-density evaluation serves every point in ``x``.  The
    tau -> 0 endpoint (where p collapses to a point mass) is regularized by
    the substitution tau = u^kappa with kappa chosen from the variance's
    small-time exponent; panel counts double until the result stabilizes.
    """
    if t <= 0.0:
        raise ValueError("t must be positive")
    pts, scalar = _as_points(spec, x)
    vals, _ = _subordinate_slices(spec, [t], pts, config)
    return float(vals[0, 0]) if scalar else vals[0]


#: cells (rows x nodes x points) of one block of the product density: a
#: block holds at most this many, or one row, so a 400-point slice at 64
#: panels (768 nodes) takes no more memory than a single time did, while a
#: one-point time profile fills a block with hundreds of rows
_MIX_BLOCK_CELLS = 1 << 18


def _slice_nodes(spec, ts, kappa, n_panels, config):
    """(taus (len(ts), nodes), clock weights (1 or len(ts), nodes)).

    A pure clock is self-similar, E_t = t^beta E_1 in law: the nodes are
    t^beta v with t-free v, and the weights w(v) f_{E_1}(v) are t-free, so
    one clock evaluation at t = 1 serves every row.  A mixture's support
    and clock values are computed per row.
    """
    sub = spec.sub
    taus, weights = [], []
    for t in [1.0] if sub.is_pure else ts:
        u, wu = _panel_rule(_clock_support(spec, t, config) ** (1.0 / kappa),
                            n_panels)
        tau = u**kappa
        jac = kappa * u ** (kappa - 1.0)
        taus.append(tau)
        weights.append(wu * jac * clock_density_fast(sub, t, tau,
                                                     config=config))
    taus = np.array(taus)
    if sub.is_pure:
        taus = ts[:, None] ** sub.components[0][0] * taus
    return taus, np.array(weights)


def _mix(gauss, taus, clock_w, pts):
    """Row r is clock_w[r] @ p(taus[r], pts) (a single weight row serves
    every row), with the product density built in ``_MIX_BLOCK_CELLS``
    blocks."""
    n_rows, n_nodes = taus.shape
    out = np.empty((n_rows, len(pts)))
    step = max(1, _MIX_BLOCK_CELLS // (n_nodes * len(pts)))
    for a in range(0, n_rows, step):
        b = min(a + step, n_rows)
        P = _product_density(gauss, taus[a:b].ravel(), pts)
        w = clock_w if len(clock_w) == 1 else clock_w[a:b]
        out[a:b] = (w[:, None, :] @ P.reshape(b - a, n_nodes, -1))[:, 0]
    return out


def _subordinate_slices(spec, ts, pts, config):
    """Mixing integral at every time in ``ts`` on shared nodes; returns
    (values (n_t, n_pts), clock-mass defects (n_t,)).

    Panel counts double, 16 -> 32 -> 64, until a row stabilizes; a
    stabilized row drops out of the finer levels, and a row still moving
    at 64 panels raises.  The x-integral of the product form is exactly
    the clock mass, so a row's defect |1 - sum w f| at its final level
    measures the quadrature itself with no spatial discretization in the
    way.
    """
    ts = np.asarray(ts, dtype=float)
    if np.any(ts <= 0.0):
        raise ValueError("t must be positive")
    if spec.sub.is_deterministic:
        # the clock is the point mass E_t = t / w
        w1 = spec.sub.components[0][1]
        return _product_density(spec.gauss, ts / w1, pts), np.zeros(len(ts))
    n = pts.shape[1]
    e_min = min(m.small_time_exponent for m in spec.gauss.components)
    sing = 0.5 * n * e_min  # p(tau, 0) ~ tau^{-sing}
    if sing >= 1.0 and np.any(np.all(pts == 0.0, axis=1)):
        raise QuadratureError(
            "subordinated density diverges at the origin for n*e/2 >= 1"
        )
    kappa = float(math.ceil(1.0 / max(1.0 - sing, 0.25)) + 1)

    vals = np.empty((len(ts), len(pts)))
    defects = np.empty(len(ts))
    rows = np.arange(len(ts))  # rows not yet stable
    prev = None
    for n_panels in (16, 32, 64):
        taus, clock_w = _slice_nodes(spec, ts[rows], kappa, n_panels, config)
        level = _mix(spec.gauss, taus, clock_w, pts)
        if prev is not None:
            err = np.max(np.abs(level - prev), axis=1)
            # clock values carry inversion noise ~10x the quadrature target
            done = err <= np.maximum(1e-9, 10.0 * config.quadrature_tol
                                     * np.maximum(level.max(axis=1), 1e-12))
            mass = np.abs(1.0 - clock_w.sum(axis=1))
            vals[rows[done]] = np.maximum(level[done], 0.0)
            defects[rows[done]] = np.broadcast_to(mass, done.shape)[done]
            rows, level = rows[~done], level[~done]
            if rows.size == 0:
                return vals, defects
        prev = level
    raise QuadratureError("subordination quadrature did not stabilize")


def subordinated_grid_density(
    spec: TimeChangedSpec,
    t_grid,
    x_grid,
    *,
    config: SolverConfig = DEFAULT_CONFIG,
) -> GridDensity:
    """Tabulate q on a (t, x) grid, recording per-slice mass defects (n=1)."""
    if spec.gauss.dimension != 1:
        raise ValueError("grid densities are one-dimensional in space")
    t_grid = np.asarray(t_grid, dtype=float)
    x_grid = np.asarray(x_grid, dtype=float)
    vals, mass = _subordinate_slices(spec, t_grid, x_grid[:, None], config)
    return GridDensity(t_grid, x_grid, vals, mass)


# ---------------------------------------------------------------------------
# Laplace-domain identity check
# ---------------------------------------------------------------------------

def _weighted_profile_transform(tg, w, p, s):
    """Laplace transform of t^{-p} W(t) with W piecewise linear on tg.

    Per segment, int e^{-st} t^{nu-1} dt comes out in regularized lower
    incomplete gammas, so the t -> 0 power needs no special rule.
    """
    from scipy.special import gammainc

    a = tg[:-1]
    b = tg[1:]
    wa = w[:-1]
    wb = w[1:]
    m = (wb - wa) / (b - a)
    c = wa - m * a  # W(t) = c + m t on the segment

    def inc(nu):
        g = math.gamma(nu)
        return (gammainc(nu, s * b) - gammainc(nu, s * a)) * g / s**nu

    return float(np.sum(c * inc(1.0 - p) + m * inc(2.0 - p)))


def _subordinated_profile(spec, x, horizon, n_nodes, config):
    """(t_grid, q(t, x) samples) on a geometric grid up to the horizon."""
    tg = np.concatenate([[0.0], horizon * np.geomspace(1e-5, 1.0, n_nodes)])
    pts, _ = _as_points(spec, x)
    if len(pts) != 1:
        raise ValueError("the identity is checked at one point x")
    vals, _ = _subordinate_slices(spec, tg[1:], pts, config)
    return tg, np.concatenate([[0.0], vals[:, 0]])


def laplace_subordination_residual(
    spec: TimeChangedSpec,
    s,
    x,
    *,
    config: SolverConfig = DEFAULT_CONFIG,
    profile_nodes: int = 700,
) -> float | np.ndarray:
    """Relative defect of q~(s, x) = (rho(s)/s) p~(rho(s), x).

    The left side transforms the sampled time profile of the subordinated
    density on [0, max(16 / min s, 8)] (one profile serves every requested
    s); the right side runs an independent quadrature on the base density.
    An eventual t -> 0 power of the profile is split off and transformed
    exactly.  A failing base density raises; it is never read as 0.
    """
    from .gaussian import gaussian_transition_density

    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
    if np.any(s_arr <= 0.0):
        raise ValueError("s must be positive and real")
    x = np.asarray(x, dtype=float)

    horizon = max(16.0 / s_arr.min(), 8.0)

    if spec.sub.is_deterministic:
        # q is the base density on a rescaled clock; both sides reduce to
        # plain forward quadratures
        w1 = spec.sub.components[0][1]
        out = np.empty_like(s_arr)
        for i, sv in enumerate(s_arr):
            def qdet(t):
                if t <= 0.0:
                    return 0.0
                return float(gaussian_transition_density(spec.gauss, t / w1,
                                                         x))

            q_tilde, _ = laplace_forward(qdet, sv, config=config,
                                         t_max=horizon)
            rho = float(np.real(spec.sub.laplace_exponent(sv)))
            p_tilde, _ = laplace_forward(
                lambda t: qdet(t * w1), rho, config=config, t_max=horizon
            )
            rhs = (rho / sv) * complex(p_tilde).real
            out[i] = abs(complex(q_tilde).real - rhs) / abs(
                complex(q_tilde).real
            )
        return float(out[0]) if np.ndim(s) == 0 else out

    tg, q_prof = _subordinated_profile(spec, x, horizon, profile_nodes,
                                       config)
    # split a power from the t -> 0 end so the interpolant is tame
    if q_prof[1] > 0.0 and q_prof[3] > 0.0:
        p_pow = -math.log(q_prof[3] / q_prof[1]) / math.log(tg[3] / tg[1])
        p_pow = min(max(p_pow, 0.0), 0.95)
    else:
        p_pow = 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        w_prof = q_prof * np.where(tg > 0.0, tg**p_pow, 1.0)
    w_prof[0] = w_prof[1] - (w_prof[2] - w_prof[1]) / (tg[2] - tg[1]) * tg[1]

    def pfun(t):
        if t <= 0.0:
            return 0.0
        return float(gaussian_transition_density(spec.gauss, t, x))

    out = np.empty_like(s_arr)
    for i, sv in enumerate(s_arr):
        q_tilde = _weighted_profile_transform(tg, w_prof, p_pow, sv)
        rho = float(np.real(spec.sub.laplace_exponent(sv)))
        p_probe = pfun(1e-5 * horizon)
        p_pow2 = 0.0
        if p_probe > 0.0:
            hi = pfun(2e-5 * horizon)
            if hi > 0.0:
                p_pow2 = min(max(-math.log(hi / p_probe) / math.log(2.0),
                                 0.0), 0.95)
        p_tilde, _ = laplace_forward(pfun, rho, config=config,
                                     power_at_zero=-p_pow2, t_max=horizon)
        lhs = q_tilde
        rhs = (rho / sv) * complex(p_tilde).real
        out[i] = abs(lhs - rhs) / abs(lhs)
    return float(out[0]) if np.ndim(s) == 0 else out


# ---------------------------------------------------------------------------
# empirical densities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Histogram:
    edges: np.ndarray
    density: np.ndarray
    std_error: np.ndarray

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.edges[:-1] + self.edges[1:])


def empirical_density(
    ensemble: PathEnsemble, t: float, bins: int, component: int = 0
) -> Histogram:
    """Normalized histogram of one time slice with per-bin standard errors."""
    if bins < 10:
        raise ValueError("need at least 10 bins")
    i = int(np.argmin(np.abs(ensemble.grid - t)))
    if abs(ensemble.grid[i] - t) > 1e-9 * max(1.0, abs(t)):
        raise ValueError(f"t={t} is not on the ensemble grid")
    x = ensemble.paths[:, i, component]
    counts, edges = np.histogram(x, bins=bins)
    n = len(x)
    widths = np.diff(edges)
    dens = counts / (n * widths)
    se = np.sqrt(np.maximum(counts, 1.0)) / (n * widths)
    return Histogram(edges, dens, se)
