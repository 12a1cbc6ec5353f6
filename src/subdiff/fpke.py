"""Finite-difference solvers for classical and time-fractional FPK equations.

Three solvers share one spatial toolkit (second-order central diffusion,
conservative flux-form OU drift):

* ``solve_classical``          Crank-Nicolson for d_t p = theta(t) p_xx
* ``solve_fractional``         implicit L1 stepping for D*^beta q = A q
* ``solve_distributed_order``  L1 with mixture-weighted memory kernels

Every model is centered, so a classical solve is a scaled Laplacian with
theta = R'/2, and a step integrates its coefficient exactly: theta over a
step is half the increment of the closed-form variance R.  The OU
generator solves as the scaled Laplacian of its model: from a delta at 0
both give N(0, R(t)).  Every Crank-Nicolson step is diagonal in the sine
(DST-I) basis, so ``_cn_sine`` takes all of them at once: one cumulative
product of the per-mode amplification factors along time and one DST-I
of every row, with no time loop.  The L1 solvers step one LAPACK
tridiagonal solve of (b0 I - A) q = rhs at a time on the interior nodes,
with exact zeros on the two Dirichlet boundary nodes (``_step_factor``,
``dgttrf``, and ``_step_apply``, ``dgttrs``), and take their memory
weights one block of rows at a time (``l1_weight_blocks``): the history
from before the block is one matrix product for all its rows, and each
step adds only its in-block columns.  An L1 step matrix is factored again
only when its shift W[n, n-1] changes; on a uniform grid that shift is one
lag weight, so a solve factors once and each step is one ``dgttrs``.
Nothing assumes a uniform time grid.

The classical solver warm-starts: the mollified delta (a Gaussian of width
``init_width``) is placed at the time where the true solution has exactly
that width, R(t_init) = init_width^2, so no spurious variance enters; its
steps are uniform, since exact increments cross a kink in theta.  The
fractional solvers cannot warm-start (the memory term needs the full
history), so they start from a two-cell split of the delta that preserves
mass and first moment exactly.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.fft import dst
from scipy.linalg.lapack import dgttrf, dgttrs

from .config import DEFAULT_CONFIG, MASS_TOL, NONNEG_TOL, SolverConfig
from .errors import StabilityError
from .fraccalc import caputo_l1  # noqa: F401 -- kept importable as fpke.caputo_l1
from .fraccalc import caputo_l1_columns, l1_weight_blocks
from .gaussian import OrnsteinUhlenbeck
from .subordinators import SubordinatorSpec
from .timechange import GridDensity

__all__ = [
    "ScaledLaplacian",
    "OUGenerator",
    "ClassicalEquation",
    "FractionalEquation",
    "DistributedOrderEquation",
    "solve_classical",
    "solve_fractional",
    "solve_distributed_order",
    "residual_norm",
]


# ---------------------------------------------------------------------------
# spatial operators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScaledLaplacian:
    """A q = theta(t) q_xx.

    ``coefficient`` is a constant theta, or a Gaussian model whose variance
    R (``var``) and slope R' (``dvar``) take arrays: theta = R'/2.
    """

    coefficient: float | object

    def __post_init__(self):
        c = self.coefficient
        if not (isinstance(c, numbers.Real)
                or (hasattr(c, "var") and hasattr(c, "dvar"))):
            raise TypeError("coefficient must be a number or a model with "
                            "var and dvar")

    @property
    def autonomous(self) -> bool:
        return isinstance(self.coefficient, numbers.Real)

    def theta(self, t):
        """theta at a time or at an array of times."""
        if self.autonomous:
            return np.full(np.shape(t), float(self.coefficient))
        return 0.5 * self.coefficient.dvar(t)

    def variance(self, t):
        """R(t) = 2 int_0^t theta: the variance of the delta-started solution."""
        if self.autonomous:
            return 2.0 * float(self.coefficient) * np.asarray(t, dtype=float)
        return self.coefficient.var(t)


@dataclass(frozen=True)
class OUGenerator:
    """A q = alpha (x q)_x + (sigma^2/2) q_xx (the adjoint OU generator)."""

    alpha: float
    sigma: float

    def __post_init__(self):
        if self.alpha < 0.0 or self.sigma <= 0.0:
            raise ValueError("need alpha >= 0 and sigma > 0")

    def variance(self, t):
        """Variance of the delta-started solution: the OU variance."""
        return OrnsteinUhlenbeck(self.alpha, self.sigma).var(t)


SpatialOperator = ScaledLaplacian | OUGenerator


# ---------------------------------------------------------------------------
# grids, initial data, matrices
# ---------------------------------------------------------------------------

def _x_grid(cfg: SolverConfig) -> np.ndarray:
    return np.linspace(cfg.x_min, cfg.x_max, cfg.n_x)


def _split_delta(x: np.ndarray) -> np.ndarray:
    """Unit mass with zero first moment on the cells bracketing x = 0."""
    dx = x[1] - x[0]
    q0 = np.zeros_like(x)
    if x[0] > 0.0 or x[-1] < 0.0:
        raise ValueError("domain must contain the origin")
    i = int(np.searchsorted(x, 0.0)) - 1
    if i + 1 >= len(x) or abs(x[i]) < 1e-14 * dx:
        i = max(i, 0)
        q0[i] = 1.0 / dx
        return q0
    xl, xr = x[i], x[i + 1]
    wl = xr / (xr - xl)
    q0[i] = wl / dx
    q0[i + 1] = (1.0 - wl) / dx
    return q0


def _drift_flux_rows(alpha: float, sigma: float, x: np.ndarray):
    """Tridiagonal rows of the flux-form OU operator (mass-telescoping)."""
    n = len(x)
    dx = x[1] - x[0]
    D = 0.5 * sigma * sigma
    xh = 0.5 * (x[:-1] + x[1:])
    vh = -alpha * xh  # drift velocity in F = v q - D q_x
    right, left = vh[1:], vh[:-1]  # face velocities of nodes 1..n-2
    lo = np.zeros(n)
    di = np.zeros(n)
    up = np.zeros(n)
    up[1:-1] = -(right / 2.0 - D / dx) / dx
    di[1:-1] = -(right / 2.0 + D / dx) / dx + (left / 2.0 - D / dx) / dx
    lo[1:-1] = (left / 2.0 + D / dx) / dx
    return lo, di, up


def _laplacian_rows(x: np.ndarray):
    n = len(x)
    dx = x[1] - x[0]
    lo = np.zeros(n)
    di = np.zeros(n)
    up = np.zeros(n)
    lo[1:-1] = 1.0 / dx**2
    di[1:-1] = -2.0 / dx**2
    up[1:-1] = 1.0 / dx**2
    return lo, di, up


def _apply_rows(rows, q):
    """Tridiagonal rows applied along the last axis of q (one or many slices)."""
    lo, di, up = rows
    out = di * q
    out[..., 1:] += lo[..., 1:] * q[..., :-1]
    out[..., :-1] += up[..., :-1] * q[..., 1:]
    return out


def _step_factor(shift, rows):
    """LU factors of (shift I - rows) on the interior nodes, for
    ``_step_apply``.

    With q = 0 on the boundary its couplings there drop out, so the
    interior rows are one tridiagonal system, factored by LAPACK
    ``dgttrf`` (partial pivoting); no pivot mixes the boundary in.  A
    singular system raises; it never yields a number.
    """
    lo, di, up = rows
    dl, d, du, du2, ipiv, info = dgttrf(-lo[2:-1], shift - di[1:-1],
                                        -up[1:-2], overwrite_dl=True,
                                        overwrite_d=True, overwrite_du=True)
    if info != 0:
        raise StabilityError(f"singular time step (LAPACK dgttrf info {info})")
    return dl, d, du, du2, ipiv


def _step_apply(factor, rhs):
    """q with the factored system times q = rhs on the interior nodes
    (LAPACK ``dgttrs``) and q exactly 0 on the two boundary nodes."""
    q, _ = dgttrs(*factor, rhs[1:-1], overwrite_b=True)
    return np.concatenate(([0.0], q, [0.0]))


# ---------------------------------------------------------------------------
# classical Crank-Nicolson solver
# ---------------------------------------------------------------------------

def _cn_sine(out, x, c):
    """Crank-Nicolson steps of d_t p = theta(t) p_xx from ``out[0]`` into
    ``out[1:]``, where ``c[k-1]`` is the integral of theta over step k.

    With q = 0 on both ends the interior Laplacian is S diag(lambda) S in
    the orthonormal DST-I basis S (S = S^-1), with lambda_j =
    -(4/dx^2) sin^2(j pi / (2 (n_x - 1))).  Step k multiplies mode j by
    g = (1 + h)/(1 - h), h = c_k lambda_j / 2, so the modes of every step
    are one cumulative product along time and each row returns through one
    DST-I.  The factors are built in ``out`` itself.  The first step's
    right-hand side applies the full rows to ``out[0]``, whose boundary
    values need not be 0.
    """
    n = len(x)
    lam = (-4.0 / (x[1] - x[0]) ** 2
           * np.sin(np.arange(1, n - 1) * (0.5 * np.pi / (n - 1))) ** 2)
    rhs = out[0] + 0.5 * c[0] * _apply_rows(_laplacian_rows(x), out[0])
    modes = out[1:, 1:-1]
    np.multiply(-0.5 * c[:, None], lam, out=modes)
    modes += 1.0  # 1 - h
    first = dst(rhs[1:-1], type=1, norm="ortho") / modes[0]
    np.divide(2.0, modes, out=modes)
    modes -= 1.0  # (1 + h)/(1 - h) = 2/(1 - h) - 1
    modes[0] = first
    np.cumprod(modes, axis=0, out=modes)
    out[1:, 1:-1] = dst(modes, type=1, norm="ortho", axis=1, overwrite_x=True)
    out[1:, [0, -1]] = 0.0


#: times ``_variance_root`` reads R at per pass
_ROOT_POINTS = 64


def _variance_root(variance, target: float, t_max: float) -> float:
    """The float t in (1e-300, t_max] where R(t) = target, to one ulp: R
    (``variance``) takes an array of times, and R(t_max) >= target.

    Positive floats order as their bit patterns, so each pass reads R at
    about ``_ROOT_POINTS`` patterns spread evenly over the bracket and
    keeps the step where R first reaches the target: about 11 passes
    narrow (1e-300, t_max] to two neighbouring floats, and the one whose
    R is nearer the target is returned.  R(1e-300) >= target raises
    ``ValueError``.
    """
    lo, hi = np.array([1e-300, t_max]).view(np.int64)
    if not float(variance(np.array([1e-300]))[0]) < target:
        raise ValueError("the variance reaches init_width^2 at t = 0")
    while hi - lo > 1:
        step = max((hi - lo) // _ROOT_POINTS, 1)
        bits = np.append(np.arange(lo + step, hi, step), hi)
        above = np.asarray(variance(bits.view(float))) >= target
        k = int(np.argmax(above))
        lo, hi = (bits[k - 1] if k else lo), bits[k]
    t = np.array([lo, hi]).view(float)
    return float(t[np.argmin(np.abs(np.asarray(variance(t)) - target))])


def solve_classical(
    op: SpatialOperator,
    cfg: SolverConfig = DEFAULT_CONFIG,
) -> GridDensity:
    """Crank-Nicolson solve of d_t p = theta(t) p_xx from a mollified delta.

    Step k's diffusion coefficient is the exact integral of theta over the
    step, (R(t_k) - R(t_{k-1}))/2 from the operator's closed-form variance
    R, so an integrable coefficient singularity at t = 0 (fBm with H < 1/2)
    costs nothing.  The start time solves R(t_init) = init_width^2; the
    steps are uniform from there to t_max, and one holding a kink in theta
    costs nothing.  Every step is taken at once in the sine basis
    (``_cn_sine``); the OU generator solves as the scaled Laplacian of its
    model, whose delta-started density N(0, R(t)) it shares.
    """
    if isinstance(op, OUGenerator):
        op = ScaledLaplacian(OrnsteinUhlenbeck(op.alpha, op.sigma))
    x = _x_grid(cfg)
    w = cfg.delta_width
    if w * w >= 0.8 * float(op.variance(cfg.t_max)):
        raise ValueError("init_width too large for the solve horizon")
    t_init = _variance_root(op.variance, w * w, cfg.t_max)
    t_grid = np.linspace(t_init, cfg.t_max, cfg.n_t + 1)

    out = np.empty((len(t_grid), cfg.n_x))
    out[0] = np.exp(-(x**2) / (2.0 * w * w)) / (w * math.sqrt(2 * math.pi))
    _cn_sine(out, x, 0.5 * np.diff(op.variance(t_grid)))
    return _package(t_grid, x, out, cfg)


# ---------------------------------------------------------------------------
# fractional / distributed-order L1 solvers
# ---------------------------------------------------------------------------

def _operator_rows(op: SpatialOperator, x: np.ndarray):
    if isinstance(op, OUGenerator):
        return _drift_flux_rows(op.alpha, op.sigma, x)
    if isinstance(op, ScaledLaplacian) and op.autonomous:
        th = op.theta(0.0)
        return tuple(th * r for r in _laplacian_rows(x))
    raise ValueError(
        "fractional solves need a time-autonomous operator "
        "(constant scaled_laplacian or ou_generator)"
    )


def solve_distributed_order(
    op: SpatialOperator,
    spec: SubordinatorSpec,
    cfg: SolverConfig = DEFAULT_CONFIG,
) -> GridDensity:
    """Implicit L1 stepping for the distributed-order FPKE D^mu q = A q.

    The memory weights are the rows of W (``fraccalc.l1_weight_blocks``)
    for the mixture, the same weights ``caputo_l1`` and ``residual_norm``
    apply, so a one-component mixture runs the identical arithmetic as the
    pure fractional solve and the residual on the solver's own grid is
    round-off.  Step n solves (W[n, n-1] - A) q_n = W[n, n-1] q_{n-1} -
    sum_{k < n-1} W[n, k] (q_{k+1} - q_k); the step matrix is factored
    again only when W[n, n-1] changes, so on this uniform grid once.
    Initial data is the moment-preserving split delta.
    """
    for b, _ in spec.components:
        if not 0.0 < b < 1.0:
            raise ValueError("distributed orders need beta_k in (0, 1)")
    x = _x_grid(cfg)
    rows = _operator_rows(op, x)
    n_t = cfg.n_t
    t_grid = np.linspace(0.0, cfg.t_max, n_t + 1)

    out = np.empty((n_t + 1, cfg.n_x))
    out[0] = _split_delta(x)
    diffs = np.empty((n_t, cfg.n_x))  # diffs[k] = q_{k+1} - q_k
    factored = None  # the b0 that ``factor`` is the step matrix of
    for start, w_block in l1_weight_blocks(t_grid, spec.components):
        # the memory of every step in the block up to its start, as one GEMM
        past = w_block[:, : start - 1] @ diffs[: start - 1]
        for n, (w, memory) in enumerate(zip(w_block, past), start):
            b0 = w[n - 1]
            if b0 != factored:
                factor, factored = _step_factor(b0, rows), b0
            memory += w[start - 1 : n - 1] @ diffs[start - 1 : n - 1]
            out[n] = _step_apply(factor, b0 * out[n - 1] - memory)
            diffs[n - 1] = out[n] - out[n - 1]

    return _package(t_grid, x, out, cfg)


def solve_fractional(
    op: SpatialOperator,
    beta: float,
    cfg: SolverConfig = DEFAULT_CONFIG,
) -> GridDensity:
    """Time-fractional FPKE solve; beta = 1 degenerates to the classical CN."""
    if not 0.0 < beta <= 1.0:
        raise ValueError("beta must lie in (0, 1]")
    if beta == 1.0:
        return solve_classical(op, cfg)
    return solve_distributed_order(op, SubordinatorSpec.pure(beta), cfg)


def _package(t_grid, x, values, cfg) -> GridDensity:
    floor = values.min()
    if floor < -NONNEG_TOL:
        raise StabilityError(f"solution went negative beyond budget: {floor:.2e}")
    values = np.maximum(values, 0.0)
    mass = np.abs(1.0 - np.trapezoid(values, x, axis=1))
    worst = mass.max()
    if worst > MASS_TOL * max(cfg.t_max, 1.0) * 10.0:
        raise StabilityError(f"mass defect {worst:.2e} beyond budget")
    return GridDensity(t_grid, x, values, mass)


# ---------------------------------------------------------------------------
# residual diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassicalEquation:
    op: SpatialOperator


@dataclass(frozen=True)
class FractionalEquation:
    op: SpatialOperator
    beta: float


@dataclass(frozen=True)
class DistributedOrderEquation:
    op: SpatialOperator
    spec: SubordinatorSpec


@dataclass(frozen=True)
class ResidualReport:
    t_slices: np.ndarray
    l2: np.ndarray
    linf: np.ndarray

    @property
    def overall_linf(self) -> float:
        return float(self.linf.max()) if len(self.linf) else 0.0

    def to_json(self) -> dict:
        return {
            "t_slices": [float(t) for t in self.t_slices],
            "l2": [float(v) for v in self.l2],
            "linf": [float(v) for v in self.linf],
            "overall_linf": self.overall_linf,
        }


def _spatial_term(op: SpatialOperator, t: np.ndarray, x: np.ndarray,
                  q: np.ndarray) -> np.ndarray:
    """A q for every time slice q[i] at time t[i]; the rows are built once."""
    if isinstance(op, OUGenerator):
        return _apply_rows(_drift_flux_rows(op.alpha, op.sigma, x), q)
    return op.theta(t)[:, None] * _apply_rows(_laplacian_rows(x), q)


def residual_norm(density: GridDensity, equation) -> ResidualReport:
    """Discrete L2/Linf residual of a density against its stated equation.

    Time derivatives use second-order differences (classical) or the
    solvers' own L1 weights (fractional, which needs the grid to start at
    0): one ``fraccalc.caputo_l1_columns`` call over every interior column,
    with a mixture's components summed into one weight matrix.  Boundary
    bands of max(2, n_x // 25) points in x and the first 15% of the time
    rows are excluded.  On a solver's own grid the defect measures
    round-off; a subsampled grid turns it into a truncation-order probe.
    """
    t = density.t_grid
    x = density.x_grid
    q = density.values
    n_t, n_x = q.shape
    if n_x < 16:
        raise ValueError("grid too coarse for residual diagnostics")
    nb = max(2, n_x // 25)
    sl = slice(nb, n_x - nb)

    if isinstance(equation, ClassicalEquation):
        comps = ((1.0, 1.0),)  # d/dt is the order-1 case
    elif t[0] != 0.0:
        raise ValueError("fractional residuals need a grid starting at 0")
    elif isinstance(equation, FractionalEquation):
        comps = ((equation.beta, 1.0),)
    else:
        comps = equation.spec.components
    if comps == ((1.0, 1.0),):
        # order 1 is the plain derivative, as in caputo_l1
        dtq = np.gradient(q[:, sl], t, axis=0, edge_order=2)
    else:
        dtq = caputo_l1_columns(t, q[:, sl], comps)

    i_start = max(int(0.15 * n_t), 1)
    dx = x[1] - x[0]
    r = dtq[i_start:] - _spatial_term(equation.op, t[i_start:], x,
                                      q[i_start:])[:, sl]
    return ResidualReport(t[i_start:].copy(),
                          np.sqrt(np.sum(r * r, axis=1) * dx),
                          np.abs(r).max(axis=1))
