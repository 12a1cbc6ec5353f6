"""Time-nonlocal operators of the fractional FPKEs for general variance data.

These operators replace the time-dependent diffusion coefficient when a
Gaussian process is run on an inverse-subordinator clock.  Both families
are double-transform objects: an inner complex-line integral producing a
Laplace image, and an outer inversion back to the time domain:

* ``eval_G``       gamma-indexed kernel family (power-law variance data);
  the outer fractional integral is folded into the inversion as s^(beta-1)
* ``eval_Lambda``  variance-driven operator for any model with analytic
  Laplace data (power, rational, and finite sums thereof)

The inner line is a sinh-stretched vertical contour; the integrand's
non-integer power is kept on one analytic branch by unwrapping the
argument along the line, anchored at the real axis.  The outer inversion
runs twice on unrelated Fourier contours and the spread is reported as the
error estimate.  Everything here is validated downstream against scalar
moment identities, which is where these operators meet hard data.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .config import DEFAULT_CONFIG, SolverConfig
from .errors import NumericsError
from .fraccalc import (
    SampledFunction,
    _dehoog_batch,
    _interp_transform,
    caputo_l1_columns,
)
from .subordinators import SubordinatorSpec
from .timechange import GridDensity

__all__ = [
    "ContourConfig",
    "GOperator",
    "LambdaOperator",
    "AnalyticTransform",
    "OperatorValue",
    "constant_transform",
    "exp_transform",
    "power_transform",
    "eval_G",
    "eval_G_grid",
    "eval_Lambda",
    "eval_Lambda_grid",
    "fbm_fpke_residual",
    "FbmResidualReport",
]


# ---------------------------------------------------------------------------
# specs and inputs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ContourConfig:
    """Numerical layout of the double transform.

    ``offset_ratio`` places the inner vertical line at that fraction of the
    outer contour's abscissa (the defining constraint 0 < C < s needs the
    line left of every outer node).  ``node_spacing`` is the resolution of
    the sinh-stretched trapezoid; the truncation half-length follows from
    the integrand's algebraic tail and is capped by ``v_cap``.
    """

    offset_ratio: float = 0.5
    node_spacing: float = 0.05
    v_cap: float = 300.0
    degree: int = 18
    degree_check: int = 24
    fail_tol: float = 5e-3
    singularity_margin: float = 0.2

    def __post_init__(self):
        if not 0.0 < self.offset_ratio < 1.0:
            raise ValueError("offset_ratio must lie in (0, 1)")


@dataclass(frozen=True)
class GOperator:
    beta: float
    gamma: float
    contour: ContourConfig = ContourConfig()

    def __post_init__(self):
        if not 0.0 < self.beta < 1.0:
            raise ValueError("beta must lie in (0, 1)")
        if not -1.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie in (-1, 1)")


@dataclass(frozen=True)
class LambdaOperator:
    sub: SubordinatorSpec
    model: object
    contour: ContourConfig = ContourConfig()

    def __post_init__(self):
        if self.model.laplace_profile() is None:
            raise ValueError(
                "Lambda operators need analytic variance Laplace data "
                "(power, rational, or finite sums); this model has none"
            )


@dataclass(frozen=True)
class AnalyticTransform:
    """A known Laplace image g~(z), with its rightmost singularity."""

    fn: Callable[[np.ndarray], np.ndarray]
    max_singularity_real: float = 0.0
    decay_power: float = 1.0

    def __call__(self, z):
        return self.fn(z)


def constant_transform(c: float = 1.0) -> AnalyticTransform:
    return AnalyticTransform(lambda z: c / z)


def exp_transform(a: float = 1.0) -> AnalyticTransform:
    """Transform of e^{-a t}."""
    return AnalyticTransform(lambda z: 1.0 / (z + a),
                             max_singularity_real=-a)


def power_transform(a: float) -> AnalyticTransform:
    """Transform of t^a (a > -1)."""
    g = math.gamma(a + 1.0)
    return AnalyticTransform(lambda z: g * z ** (-a - 1.0),
                             decay_power=min(a + 1.0, 2.0))


class OperatorValue(NamedTuple):
    value: float
    error: float


# ---------------------------------------------------------------------------
# transforms of inputs
# ---------------------------------------------------------------------------

def _transform_matrix(tg: np.ndarray, z: np.ndarray) -> np.ndarray:
    """T with (T @ values) = transform of the linear interpolant of values.

    Columns collect each sample's contribution from its two segments, so a
    whole field of columns sharing one time grid transforms as one matmul.
    """
    a = tg[:-1][None, :]
    b = tg[1:][None, :]
    zc = z[:, None]
    ea = np.exp(-zc * a)
    eb = np.exp(-zc * b)
    d = (ea - eb) / (zc * zc * (b - a))
    coef_a = ea / zc - d
    coef_b = -eb / zc + d
    T = np.zeros((len(z), len(tg)), dtype=complex)
    T[:, :-1] += coef_a
    T[:, 1:] += coef_b
    return T


def _as_gtilde(g, tg_hint=None):
    """(callable z -> g~(z), decay_power, rightmost singularity)."""
    if isinstance(g, AnalyticTransform):
        return g.fn, g.decay_power, g.max_singularity_real
    if isinstance(g, SampledFunction):
        tg, vals = g.grid, g.values

        def fn(z):
            return _interp_transform(tg, vals, np.asarray(z, dtype=complex))

        # g ~ c t^a near 0 transforms with tail |z|^-(1+a); fit a from the
        # first usable samples and stay conservative outside [0, 1]
        decay = 1.0
        pos = np.flatnonzero(np.abs(vals) > 1e-300)
        if len(pos) >= 2 and tg[pos[0]] > 0.0:
            i, j = pos[0], pos[1]
            a_fit = math.log(abs(vals[j]) / abs(vals[i])) / math.log(
                tg[j] / tg[i]
            )
            decay = 1.0 + min(max(a_fit, 0.0), 1.0)
        return fn, decay, 0.0
    raise TypeError("g must be an AnalyticTransform or SampledFunction")


# ---------------------------------------------------------------------------
# inner contour machinery
# ---------------------------------------------------------------------------

def _line_nodes(C: float, spacing: float, vmax: float):
    n_half = max(int(vmax / spacing), 400)
    v = np.linspace(-vmax, vmax, 2 * n_half + 1)
    z = C + 1j * np.sinh(v)
    dz = 1j * np.cosh(v) * (v[1] - v[0])
    return z, dz


def _unwrapped_log(w: np.ndarray) -> np.ndarray:
    """log w continuous along the line's axis (last), anchored at center."""
    aw = np.angle(w)
    mid = w.shape[-1] // 2
    left = np.unwrap(aw[..., mid::-1], axis=-1)[..., ::-1]
    right = np.unwrap(aw[..., mid:], axis=-1)
    aw_cont = np.concatenate([left[..., :-1], right], axis=-1)
    return np.log(np.abs(w)) + 1j * aw_cont


def _kernel_tail_power(op) -> float:
    """Algebraic decay exponent of the kernel factor for |z| -> inf."""
    if isinstance(op, GOperator):
        return op.beta * (op.gamma + 1.0)
    profile = op.model.laplace_profile()
    b_max = max(b for b, _ in op.sub.components)

    def power_of(p):
        kind = p[0]
        if kind == "power":
            return b_max * p[2]
        if kind == "ou":
            return b_max
        return min(power_of(q) for _, q in p[1])

    return power_of(profile)


def _kernel_on_line(op, s_nodes: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Kernel factor of the inner integrand, shaped (len(s), len(z))."""
    if isinstance(op, GOperator):
        beta = op.beta
        zb = np.exp(beta * np.log(z))[None, :]
        sb = np.exp(beta * np.log(s_nodes))[:, None]
        logw = _unwrapped_log(sb - zb)
        return np.exp(-(op.gamma + 1.0) * logw)
    # Lambda: (rho(s) - rho(z)) R~(rho(s) - rho(z)) m(z) = R~'(u) m(z)
    rho_s = op.sub.laplace_exponent(s_nodes)[:, None]
    rho_z = op.sub.laplace_exponent(z)[None, :]
    u = rho_s - rho_z
    m = op.sub.order_mixture(z)[None, :] if not op.sub.is_pure else None
    if op.sub.is_pure:
        m = op.sub.components[0][0]

    profile = op.model.laplace_profile()
    logu = None

    def rprime(p):
        nonlocal logu
        kind = p[0]
        if kind == "power":
            if logu is None:
                logu = _unwrapped_log(u)
            return p[1] * np.exp(-p[2] * logu)
        if kind == "ou":
            alpha, sigma = p[1], p[2]
            return sigma * sigma / (u + 2.0 * alpha)
        return sum(a2 * rprime(q) for a2, q in p[1])

    return rprime(profile) * m


def _phi_on_contour(op, gt, s_nodes, C, spacing, vmax):
    z, dz = _line_nodes(C, spacing, vmax)
    kern = _kernel_on_line(op, s_nodes, z)
    gz = gt(z)
    return (kern * (gz * dz)[None, :]).sum(axis=1) / (2j * np.pi)


def _prefactor(op) -> float:
    if isinstance(op, GOperator):
        return op.beta * math.gamma(op.gamma + 1.0)
    # the order factor m(z) (constant beta in the pure case) lives in the
    # kernel, so the pure and mixture forms share the 1/2 out front
    return 0.5


def _fold_power(op) -> float:
    """Exponent of the s-power folded into the outer inversion."""
    if isinstance(op, GOperator):
        return op.beta - 1.0  # realizes the outer fractional integral
    return 0.0


_LN2 = math.log(2.0)


def _salzer_weights(M: int) -> np.ndarray:
    M2 = M // 2
    V = np.zeros(M)
    for k in range(1, M + 1):
        s = 0.0
        for j in range((k + 1) // 2, min(k, M2) + 1):
            num = float(j) ** M2 * math.factorial(2 * j)
            den = (
                math.factorial(M2 - j) * math.factorial(j)
                * math.factorial(j - 1) * math.factorial(k - j)
                * math.factorial(2 * j - k)
            )
            s += num / den
        V[k - 1] = (-1.0) ** (k + M2) * s
    return V


_SALZER = {M: _salzer_weights(M) for M in (12, 16)}


def _vmax_for(op, cc: ContourConfig) -> float:
    # truncation from the slowest admissible tail (transforms decay at
    # least like 1/z); a fixed bound keeps the rule identical across
    # inputs, so the evaluation stays exactly linear in g
    tail = 1.0 + _kernel_tail_power(op)
    if tail <= 1.02:
        raise NumericsError("contour integrand decays too slowly to truncate")
    return min(max(_LN2 + 30.0 / (tail - 1.0), 12.0), cc.v_cap)


def _stehfest_values(op, gt, g_sing, t_grid, M, cc):
    """Gaver-Stehfest outer inversion: linear, real contour-admissible."""
    V = _SALZER[M]
    k = np.arange(1, M + 1)
    vmax = _vmax_for(op, cc)
    out = np.empty(len(t_grid))
    for i, t in enumerate(t_grid):
        s = k * _LN2 / t + 0j
        C = cc.offset_ratio * (_LN2 / t)
        if C <= g_sing + cc.singularity_margin * (_LN2 / t):
            raise NumericsError(
                "inner contour too close to a transform singularity"
            )
        phi = _phi_on_contour(op, gt, s, C, cc.node_spacing, vmax)
        F = _prefactor(op) * np.exp(_fold_power(op) * np.log(s)) * phi
        out[i] = _LN2 / t * float(np.dot(V, F.real))
    return out


def _dehoog_values(op, gt, g_sing, t_grid, cc, M=None, tol=1e-10):
    """Accelerated-Fourier outer inversion on shared dyadic contours.

    Its kernel singularity sits at height Im s, where the sinh-stretched
    line is coarse, so the spacing shrinks with the line-to-singularity
    margin.
    """
    out = np.empty(len(t_grid))
    t_top = float(np.max(t_grid))
    blocks: dict[int, list[int]] = {}
    for idx in range(len(t_grid)):
        b = max(int(math.floor(math.log2(t_top / t_grid[idx]))), 0)
        blocks.setdefault(b, []).append(idx)
    vmax = _vmax_for(op, cc)
    spacing = cc.node_spacing * (1.0 - cc.offset_ratio) / 2.0
    if M is None:
        M = cc.degree
    for b, idxs in blocks.items():
        T = t_top / 2.0**b
        gam = -math.log(tol) / (4.0 * T)
        NP = 2 * M + 1
        p = gam + 1j * np.pi * np.arange(NP) / (2.0 * T)
        C = cc.offset_ratio * gam
        if C <= g_sing + cc.singularity_margin * gam:
            raise NumericsError(
                "inner contour too close to a transform singularity"
            )
        phi = _phi_on_contour(op, gt, p, C, spacing, vmax)
        F = _prefactor(op) * np.exp(_fold_power(op) * np.log(p)) * phi

        def Ffn(s, _F=F):
            return _F[None, :]

        for idx in idxs:
            v, _ = _dehoog_batch(Ffn, float(t_grid[idx]), M, 1,
                                 tmax=T, tol=tol)
            out[idx] = v[0]
    return out


def _eval_grid(op, g, t_grid, config: SolverConfig):
    """Operator values on a positive time grid.

    Primary values come from the linear Stehfest rule at two degrees; an
    accelerated-Fourier inversion on unrelated complex contours arbitrates.
    The reported error is the largest spread among the three.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(t_grid <= 0.0):
        raise ValueError("operator evaluation needs t > 0")
    gt, _g_decay, g_sing = _as_gtilde(g)
    cc = op.contour
    if isinstance(g, SampledFunction):
        # window-truncated transforms carry an edge the global Gaver
        # functionals smear across scales; two Fourier contours at
        # unrelated abscissas localize instead
        v1 = _dehoog_values(op, gt, g_sing, t_grid, cc, M=cc.degree,
                            tol=1e-10)
        v2 = _dehoog_values(op, gt, g_sing, t_grid, cc, M=cc.degree_check,
                            tol=1e-12)
        return v1, np.abs(v1 - v2)
    # degree 12 keeps the Salzer cancellation factor ~1e6, so the output
    # stays linear in g down to ~1e-9; degree 16 and the Fourier contour
    # serve as the cross-checks
    v12 = _stehfest_values(op, gt, g_sing, t_grid, 12, cc)
    v16 = _stehfest_values(op, gt, g_sing, t_grid, 16, cc)
    vdh = _dehoog_values(op, gt, g_sing, t_grid, cc)
    err = np.maximum(np.abs(v16 - v12), np.abs(v12 - vdh))
    return v12, err


def _gate(value: float, error: float, cc: ContourConfig, what: str):
    if error > cc.fail_tol * max(abs(value), 1e-8):
        raise NumericsError(
            f"{what}: outer inversions disagree beyond tolerance "
            f"(value {value:.6e}, spread {error:.2e})"
        )


def eval_G(op: GOperator, g, t: float) -> OperatorValue:
    """G-family operator value at one time, with a stacked error estimate."""
    vals, errs = _eval_grid(op, g, [t], DEFAULT_CONFIG)
    _gate(vals[0], errs[0], op.contour, "G operator")
    return OperatorValue(float(vals[0]), float(errs[0]))


def eval_G_grid(op: GOperator, g, t_grid,
                config: SolverConfig = DEFAULT_CONFIG):
    vals, errs = _eval_grid(op, g, t_grid, config)
    return vals, errs


def eval_Lambda(op: LambdaOperator, g, t: float) -> OperatorValue:
    """Variance-driven nonlocal operator value at one time."""
    vals, errs = _eval_grid(op, g, [t], DEFAULT_CONFIG)
    _gate(vals[0], errs[0], op.contour, "Lambda operator")
    return OperatorValue(float(vals[0]), float(errs[0]))


def eval_Lambda_grid(op: LambdaOperator, g, t_grid,
                     config: SolverConfig = DEFAULT_CONFIG):
    return _eval_grid(op, g, t_grid, config)


# ---------------------------------------------------------------------------
# full-field FPKE residual for the power-law (fBm) family
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FbmResidualReport:
    x_points: np.ndarray
    l2_per_x: np.ndarray
    linf_per_x: np.ndarray
    t_window: tuple[float, float]
    contour: ContourConfig = ContourConfig()
    error_estimate: float = 0.0

    @property
    def overall_linf(self) -> float:
        return float(self.linf_per_x.max())

    def to_json(self) -> dict:
        return {
            "x": [float(v) for v in self.x_points],
            "l2_per_x": [float(v) for v in self.l2_per_x],
            "linf_per_x": [float(v) for v in self.linf_per_x],
            "t_window": list(self.t_window),
            "error_estimate": float(self.error_estimate),
            "contour": {
                "offset_ratio": self.contour.offset_ratio,
                "node_spacing": self.contour.node_spacing,
                "degree": self.contour.degree,
            },
        }


def fbm_fpke_residual(
    H: float,
    spec: SubordinatorSpec,
    density: GridDensity,
    *,
    config: SolverConfig = DEFAULT_CONFIG,
    contour: ContourConfig = ContourConfig(),
    t_skip: float = 0.25,
    t_stop: float = 0.75,
    x_band: int | None = None,
    x_exclude: float = 0.0,
) -> FbmResidualReport:
    """Field residual of the time-changed power-variance FPKE.

    Per interior x the memory derivative of the density column is compared
    with the gamma = 2H-1 operator applied to the spatial Laplacian's
    column; at H = 1/2 this degenerates to the Brownian check.  One
    transform matrix serves every column (they share the time grid), so
    the double transform runs as dense linear algebra over the field.
    The operator is causal but sampled columns end at the grid's horizon,
    so the window [t_skip, t_stop] (fractions of the horizon) keeps the
    evaluation away from both the rough start and the truncated end.
    """
    if not 0.0 < H < 1.0:
        raise ValueError("H must lie in (0, 1)")
    if not spec.is_pure or spec.is_deterministic:
        raise ValueError("field residual needs a pure stable clock")
    beta = spec.components[0][0]
    tg = density.t_grid
    if tg[0] != 0.0:
        raise ValueError("residual needs the time grid to start at 0")
    x = density.x_grid
    q = density.values
    n_t, n_x = q.shape
    dx = x[1] - x[0]
    nb = x_band if x_band is not None else max(3, n_x // 12)
    cols = np.arange(nb, n_x - nb)
    if x_exclude > 0.0:
        # the density has a ray of reduced smoothness at the origin where
        # second differences are not classical
        cols = cols[np.abs(x[cols]) > x_exclude]

    lap = (q[:, cols - 1] - 2.0 * q[:, cols] + q[:, cols + 1]) / dx**2
    dbeta = caputo_l1_columns(tg, q[:, cols], ((beta, 1.0),))

    op = GOperator(beta, 2.0 * H - 1.0, contour)
    cc = contour
    i_start = max(int(t_skip * n_t), 1)
    i_stop = min(int(t_stop * n_t) + 1, n_t)
    t_eval = tg[i_start:i_stop]
    gvals = np.empty((len(t_eval), len(cols)))

    t_top = float(t_eval.max())
    blocks: dict[int, list[int]] = {}
    for k, tv in enumerate(t_eval):
        b = max(int(math.floor(math.log2(t_top / tv))), 0)
        blocks.setdefault(b, []).append(k)
    tail = 2.0 + _kernel_tail_power(op)
    for b, idxs in blocks.items():
        T = t_top / 2.0**b
        M, tol = cc.degree, 1e-10
        gam = -math.log(tol) / (4.0 * T)
        NP = 2 * M + 1
        p = gam + 1j * np.pi * np.arange(NP) / (2.0 * T)
        C = cc.offset_ratio * gam
        vmax = min(max(math.log(2.0) + 30.0 / max(tail - 1.0, 0.05), 12.0),
                   cc.v_cap)
        z, dz = _line_nodes(C, cc.node_spacing * (1.0 - cc.offset_ratio) / 2.0,
                            vmax)
        kern = _kernel_on_line(op, p, z)
        Tmat = _transform_matrix(tg, z)          # (n_z, n_t)
        Gz = Tmat @ lap                          # g~ of every Laplacian column
        phi = (kern * dz[None, :]) @ Gz / (2j * np.pi)   # (n_s, n_cols)
        F = _prefactor(op) * np.exp(
            _fold_power(op) * np.log(p)
        )[:, None] * phi

        def Ffn(s, _F=F):
            return _F.T  # (n_cols, n_s)

        for k in idxs:
            v, _ = _dehoog_batch(Ffn, float(t_eval[k]), M, len(cols),
                                 tmax=T, tol=tol)
            gvals[k] = v

    resid = dbeta[i_start:i_stop] - H * gvals
    l2 = np.sqrt(np.sum(resid * resid, axis=0) * (tg[1] - tg[0]))
    linf = np.abs(resid).max(axis=0)
    return FbmResidualReport(x[cols], l2, linf,
                             (float(t_eval[0]), float(t_eval[-1])),
                             contour=cc)
