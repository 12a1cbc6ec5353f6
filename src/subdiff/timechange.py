"""Composition of Gaussian processes with inverse subordinators.

The composed process X. E inherits its one-time law from the mixing
identity q(t, x) = int_0^inf f_{E_t}(tau) p(tau, x) dtau, which this module
evaluates by shared-node quadrature over many times at once.  The clock
nodes are shared across x: one clock-density batch serves a whole x-grid.
For a one-component clock they are shared across t as well, since
E_t = t^beta E_1 in law: one set of nodes v and weights w(v) f_{E_1}(v)
serves every time, and only the Gaussian factor p(t^beta v, x) changes.
That factor is ``gaussian.gaussian_transition_density`` with one row per
node, and the panels are ``fraccalc._gauss_panels``: neither formula is
written here.  Monte Carlo path composition and a Laplace-domain residual
check of the same identity provide two independent routes to the same
numbers.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import QUADRATURE_TOL
from .errors import NumericsError, QuadratureError
from .fraccalc import _gauss_panels, laplace_forward
from .gaussian import (
    GaussianSpec,
    PathEnsemble,
    _checked_cholesky,
    covariance_matrix,
    gaussian_transition_density,
)
from .subordinators import (
    SeededRng,
    SubordinatorSpec,
    clock_density_fast,
    inverse_time_density,
    sample_inverse_ensemble,
    sample_inverse_marginal,
    unit_clock_density,
)

__all__ = [
    "TimeChangedSpec",
    "GridDensity",
    "sample_timechanged_paths",
    "sample_timechanged_marginal",
    "subordinated_density",
    "subordinated_grid_density",
    "laplace_subordination_residual",
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


# ---------------------------------------------------------------------------
# path-level composition
# ---------------------------------------------------------------------------

def _markov_draws(model, E: np.ndarray, gen) -> np.ndarray:
    """A Brownian or OU component at the clock values E (rows nondecreasing),
    by exact Gaussian increments over each row, vectorised over rows.

    Over a clock increment d, X <- e^{-alpha d} X + sqrt(R(d)) Z with R the
    model's variance (Brownian motion: alpha = 0).  A zero increment leaves
    X unchanged, so a clock plateau repeats one value.
    """
    alpha = model.alpha if model.kind == "ou" else 0.0
    d = np.diff(E, axis=1, prepend=0.0)
    decay = np.exp(-alpha * d)
    step = np.sqrt(model.var(d)) * gen.standard_normal(E.shape)
    x = np.empty_like(E)
    prev = np.zeros(len(E))
    for k in range(E.shape[1]):
        prev = decay[:, k] * prev + step[:, k]
        x[:, k] = prev
    return x


def _cholesky_draws(model, E: np.ndarray, gen) -> np.ndarray:
    """Any covariance model at the clock values E, one path at a time: a
    Cholesky factor of R at the row's distinct positive values (a process
    evaluated twice at one time is one random variable)."""
    x = np.zeros_like(E)
    for p, row in enumerate(E):
        taus, inverse = np.unique(row, return_inverse=True)
        live = taus > 0.0
        if np.any(live):
            L = _checked_cholesky(covariance_matrix(model, taus[live]))
            full = np.zeros(len(taus))
            full[live] = L @ gen.standard_normal(int(live.sum()))
            x[p] = full[inverse]
    return x


def sample_timechanged_paths(
    spec: TimeChangedSpec, grid, n_paths: int, rng: SeededRng
) -> PathEnsemble:
    """Sample X at the random times E_t, exactly in distribution.

    The clock is sampled first; each Gaussian component is then drawn
    jointly at the realized times, conditioning on the clock.  Brownian and
    OU components are Markov and take exact increments over the clock
    values of all paths at once; every other model takes a per-path
    Cholesky of R(E_i, E_j), assembled by ``covariance_matrix`` so every
    model in the catalog works.  Repeated clock values reuse the same
    Gaussian value, since a process evaluated twice at one time is one
    random variable.
    """
    grid = np.asarray(grid, dtype=float)
    has_zero = grid[0] == 0.0
    tpos = grid[1:] if has_zero else grid
    E = sample_inverse_ensemble(spec.sub, tpos, n_paths, rng.stream(0))
    gen = rng.stream(1).generator()
    n_dim = spec.gauss.dimension
    out = np.zeros((n_paths, len(grid), n_dim))
    col0 = 1 if has_zero else 0
    for j, model in enumerate(spec.gauss.components):
        draw = (_markov_draws
                if getattr(model, "kind", "") in ("brownian", "ou")
                else _cholesky_draws)
        out[:, col0:, j] = draw(model, E, gen)
    return PathEnsemble(grid, out)


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
        sd = np.sqrt(model.var(E))
        out[:, j] = sd * gen.standard_normal(n_paths)
    return out


# ---------------------------------------------------------------------------
# subordination integral
# ---------------------------------------------------------------------------

#: always empty (no clock support is cached); perfbench/workloads.py clears it
_SUPPORT_RATIO: dict = {}

#: probe grid of the support ratio, in units of the clock's scale
_SUPPORT_PROBE = np.geomspace(1e-3, 80.0, 120)


def _support_edge(probe: np.ndarray, f: np.ndarray) -> float:
    """The probe point two past the last clock-density value above 1e-13
    of the peak."""
    live = np.flatnonzero(f > 1e-13 * f.max())
    if live.size == 0:
        raise NumericsError("clock density vanished on the probe grid")
    return float(probe[min(live[-1] + 2, len(probe) - 1)])


def _clock_support(sub: SubordinatorSpec, ts) -> np.ndarray:
    """tau* per time in ``ts``, with the clock density negligible beyond it.

    For a one-component clock the support/scale ratio is t-free
    (self-similarity) and comes from one probe of the exact f_{E_1}.  A
    mixture's profile shape drifts with t, so each decade of t present in
    ``ts`` gets its ratio from one probe inversion at mid-decade, at the
    fixed ``config.INVERSION_TOL``.  Nothing is kept between calls.
    """
    scales = np.array([sub.inverse_scale(t) for t in ts])
    if len(sub.components) == 1 and not sub.is_deterministic:
        beta = sub.components[0][0]
        f = unit_clock_density(beta, _SUPPORT_PROBE)
        return _support_edge(_SUPPORT_PROBE, f) * scales
    decades = [math.floor(math.log10(t)) for t in ts]
    ratio = {}
    for decade in sorted(set(decades)):
        t_ref = 10.0 ** (decade + 0.5)
        ref_scale = sub.inverse_scale(t_ref)
        probe = ref_scale * _SUPPORT_PROBE
        f = inverse_time_density(sub, t_ref, probe)
        ratio[decade] = _support_edge(probe, f) / ref_scale * 1.5
    return np.array([ratio[d] for d in decades]) * scales


def _panel_rule(u_max: float, n_panels: int):
    """Composite 12-point Gauss-Legendre nodes/weights, panels graded
    toward 0."""
    return _gauss_panels(u_max * np.linspace(0.0, 1.0, n_panels + 1) ** 2, 12)


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
) -> np.ndarray:
    """q(t, x) = int f_{E_t}(tau) p(tau, x) dtau by shared-node quadrature.

    One batched clock-density evaluation serves every point in ``x``.  The
    tau -> 0 endpoint (where p collapses to a point mass) is regularized by
    the substitution tau = u^kappa with kappa chosen from the variance's
    small-time exponent; panel counts double until the result stabilizes.
    """
    if not t > 0.0:
        raise ValueError("t must be positive")
    pts, scalar = _as_points(spec, x)
    vals, _ = _subordinate_slices(spec, [t], pts)
    return float(vals[0, 0]) if scalar else vals[0]


#: cells (rows x nodes x points) of one block of the product density: a
#: block holds at most this many, or one row, so a 400-point slice at 64
#: panels (768 nodes) takes no more memory than a single time did, while a
#: one-point time profile fills a block with hundreds of rows
_MIX_BLOCK_CELLS = 1 << 18


def _slice_nodes(spec, ts, supports, kappa, n_panels):
    """(taus (len(ts), nodes), clock weights (1 or len(ts), nodes)).

    A one-component clock is self-similar, E_t = t^beta E_1 in law: the
    nodes are t^beta v with t-free v, and the weights w(v) f_{E_1}(v) are
    t-free, so one clock evaluation at t = 1 serves every row.  A
    mixture's clock values are computed per row.  ``supports`` holds tau*
    per row of ``ts``, or, for one component, the one tau* at t = 1.
    """
    sub = spec.sub
    single = len(sub.components) == 1
    taus, weights = [], []
    for t, tau_star in zip([1.0] if single else ts, supports):
        u, wu = _panel_rule(tau_star ** (1.0 / kappa), n_panels)
        tau = u**kappa
        jac = kappa * u ** (kappa - 1.0)
        taus.append(tau)
        weights.append(wu * jac * clock_density_fast(sub, t, tau))
    taus = np.array(taus)
    if single:
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
        P = gaussian_transition_density(gauss, taus[a:b].ravel(), pts)
        w = clock_w if len(clock_w) == 1 else clock_w[a:b]
        out[a:b] = (w[:, None, :] @ P.reshape(b - a, n_nodes, -1))[:, 0]
    return out


def _subordinate_slices(spec, ts, pts):
    """Mixing integral at every time in ``ts`` on shared nodes; returns
    (values (n_t, n_pts), clock-mass defects (n_t,)).

    Panel counts double, 16 -> 32 -> 64 -> 128, until a row stabilizes; a
    stabilized row drops out of the finer levels, and a row still moving
    at 128 panels raises (near beta = 1 the clock density is a narrow bump
    that fBm rows need 128 panels to resolve).  The x-integral of the
    product form is exactly the clock mass, so a row's defect |1 - sum w
    f| at its final level measures the quadrature itself with no spatial
    discretization in the way.
    """
    ts = np.asarray(ts, dtype=float)
    if not np.all(ts > 0.0):
        raise ValueError("t must be positive")
    if spec.sub.is_deterministic:
        # the clock is the point mass E_t = t / w
        w1 = spec.sub.components[0][1]
        return (gaussian_transition_density(spec.gauss, ts / w1, pts),
                np.zeros(len(ts)))
    n = pts.shape[1]
    e_min = min(m.small_time_exponent for m in spec.gauss.components)
    sing = 0.5 * n * e_min  # p(tau, 0) ~ tau^{-sing}
    if sing >= 1.0 and np.any(np.all(pts == 0.0, axis=1)):
        raise QuadratureError(
            "subordinated density diverges at the origin for n*e/2 >= 1"
        )
    kappa = float(math.ceil(1.0 / max(1.0 - sing, 0.25)) + 1)
    single = len(spec.sub.components) == 1
    support = _clock_support(spec.sub, [1.0] if single else ts)

    vals = np.empty((len(ts), len(pts)))
    defects = np.empty(len(ts))
    rows = np.arange(len(ts))  # rows not yet stable
    prev = None
    for n_panels in (16, 32, 64, 128):
        taus, clock_w = _slice_nodes(spec, ts[rows],
                                     support if single else support[rows],
                                     kappa, n_panels)
        level = _mix(spec.gauss, taus, clock_w, pts)
        if prev is not None:
            err = np.max(np.abs(level - prev), axis=1)
            # a mixture's inverted clock values carry noise ~10x the
            # quadrature target
            done = err <= np.maximum(1e-9, 10.0 * QUADRATURE_TOL
                                     * np.maximum(level.max(axis=1), 1e-12))
            mass = np.abs(1.0 - clock_w.sum(axis=1))
            vals[rows[done]] = level[done]
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
    config=None,
) -> GridDensity:
    """Tabulate q on a (t, x) grid, recording per-slice mass defects (n=1).

    ``config`` is accepted and ignored: the tolerances are the fixed
    ``config.QUADRATURE_TOL`` and ``config.INVERSION_TOL``.  The keyword
    stays only because the benchmark's ``FpkeTriangulation.run``
    (``perfbench/workloads.py``) passes it.
    """
    if spec.gauss.dimension != 1:
        raise ValueError("grid densities are one-dimensional in space")
    t_grid = np.asarray(t_grid, dtype=float)
    x_grid = np.asarray(x_grid, dtype=float)
    vals, mass = _subordinate_slices(spec, t_grid, x_grid[:, None])
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


def _subordinated_profile(spec, x, horizon, n_nodes):
    """(t_grid, q(t, x) samples) on a geometric grid up to the horizon."""
    tg = np.concatenate([[0.0], horizon * np.geomspace(1e-5, 1.0, n_nodes)])
    pts, _ = _as_points(spec, x)
    if len(pts) != 1:
        raise ValueError("the identity is checked at one point x")
    vals, _ = _subordinate_slices(spec, tg[1:], pts)
    return tg, np.concatenate([[0.0], vals[:, 0]])


def _power_at_zero(t1: float, f1: float, t2: float, f2: float) -> float:
    """p with f ~ t^-p from the samples f1 at t1 < t2 and f2 at t2, clamped
    to [0, 0.95]; 0 unless both samples are positive."""
    if f1 > 0.0 and f2 > 0.0:
        return min(max(-math.log(f2 / f1) / math.log(t2 / t1), 0.0), 0.95)
    return 0.0


def laplace_subordination_residual(
    spec: TimeChangedSpec,
    s,
    x,
    *,
    profile_nodes: int = 700,
) -> float | np.ndarray:
    """Relative defect of q~(s, x) = (rho(s)/s) p~(rho(s), x).

    The left side transforms the sampled time profile of the subordinated
    density on [0, max(16 / min s, 8)] (one profile serves every requested
    s); the right side runs an independent quadrature on the base density.
    An eventual t -> 0 power of the profile is split off and transformed
    exactly.  A failing base density raises; it is never read as 0.
    """
    # the right side reads the kernel from its module at call time
    from .gaussian import gaussian_transition_density

    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
    if not np.all(s_arr > 0.0):
        raise ValueError("s must be positive and real")
    x = np.asarray(x, dtype=float)

    horizon = max(16.0 / s_arr.min(), 8.0)

    def pfun(t):
        return gaussian_transition_density(spec.gauss, t, x)

    # the base density's power at t -> 0, declared to its forward quadratures
    t_probe = 1e-5 * horizon
    f1, f2 = pfun(np.array([t_probe, 2.0 * t_probe]))
    power = -_power_at_zero(t_probe, f1, 2.0 * t_probe, f2)

    out = np.empty_like(s_arr)
    if spec.sub.is_deterministic:
        # q is the base density on a rescaled clock; both sides reduce to
        # plain forward quadratures
        w1 = spec.sub.components[0][1]
        for i, sv in enumerate(s_arr):
            q_tilde, _ = laplace_forward(lambda t: pfun(t / w1), sv,
                                         power_at_zero=power, t_max=horizon)
            rho = float(np.real(spec.sub.laplace_exponent(sv)))
            p_tilde, _ = laplace_forward(pfun, rho, power_at_zero=power,
                                         t_max=horizon)
            rhs = (rho / sv) * p_tilde.real
            out[i] = abs(q_tilde.real - rhs) / abs(q_tilde.real)
        return float(out[0]) if np.ndim(s) == 0 else out

    tg, q_prof = _subordinated_profile(spec, x, horizon, profile_nodes)
    # split a power from the t -> 0 end so the interpolant is tame
    p_pow = _power_at_zero(tg[1], q_prof[1], tg[3], q_prof[3])
    with np.errstate(divide="ignore", invalid="ignore"):
        w_prof = q_prof * np.where(tg > 0.0, tg**p_pow, 1.0)
    w_prof[0] = w_prof[1] - (w_prof[2] - w_prof[1]) / (tg[2] - tg[1]) * tg[1]

    for i, sv in enumerate(s_arr):
        q_tilde = _weighted_profile_transform(tg, w_prof, p_pow, sv)
        rho = float(np.real(spec.sub.laplace_exponent(sv)))
        p_tilde, _ = laplace_forward(pfun, rho, power_at_zero=power,
                                     t_max=horizon)
        rhs = (rho / sv) * p_tilde.real
        out[i] = abs(q_tilde - rhs) / abs(q_tilde)
    return float(out[0]) if np.ndim(s) == 0 else out

