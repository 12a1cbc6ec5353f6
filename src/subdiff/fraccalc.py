"""Fractional-calculus and Laplace-transform primitives.

Everything downstream (subordinator densities, nonlocal operators, the
fractional solvers) is built on the four operations in this module:

* ``caputo_l1``        -- Caputo derivative, L1 product rule
* ``mittag_leffler``   -- E_alpha(z) to 1e-10 relative
* ``laplace_forward``  -- numerical transform of an array callable, with
                          error estimate
* ``laplace_inverse_batch`` -- fixed-Talbot / de Hoog dual inversion

The L1 rule is written once, in ``_row_builder``: the memory-weight matrix W
of a pure clock or a mixture on any increasing grid.  On a uniform grid W
is Toeplitz, W[i, k] = a[i - k], so its rows are windows of one table of
n lag weights per component (n powers, not n^2/2); any other grid takes
one power per entry.  ``caputo_l1``, the
column form ``caputo_l1_columns`` (behind ``fpke.residual_norm`` and
``lambdaop.fbm_fpke_residual``) and the time stepping of
``fpke.solve_distributed_order`` all draw their weights from it, one fixed
block of rows at a time (``l1_weight_blocks``), so the solvers and their
residual diagnostics discretise the memory term identically.  The solver
applies a block's columns before its first row to the history in one
matrix product and steps through the block with only its in-block
columns, so it too takes any increasing grid.  The power kernel is one
cell rule for every order below 1, so the same weights at order -alpha
give a Riemann-Liouville integral.  The composite Gauss-Legendre rule is
written once too, in ``_gauss_panels``: the subordination panels, the
Kanter-Zolotarev integral, the forward transform (panels graded toward
t = 0, every panel halved per level until two levels agree) and the
Mittag-Leffler function (its spectral integral in a variable where the
integrand falls from 1 to 0, vectorised over the argument) all take
their nodes from it, so the
package needs neither QUADPACK nor a root finder: ``scipy.integrate`` and
``scipy.optimize`` are never imported.  Likewise the transform of sampled
data, the closed form for its linear interpolant, lives only here, behind
one entry point, ``_interp_transform``: it makes the grid decision with
the lag table's test (``_uniform_step``) and takes the closed-form hat
transform of a uniform grid (``_hat_transform``, about 2 sqrt(n)
exponentials per node) or differences one exponential per (node, time)
on any other grid; the operators in ``lambdaop`` are its one caller.

The inversion is deliberately redundant: two unrelated algorithms must
agree or an ``InversionError`` is raised, so an ill-suited transform shows
up as a failure instead of a quietly wrong number.  ``laplace_inverse_batch``
takes each image once, as its logarithm: fixed Talbot folds log F into its
own exponential, and de Hoog reads exp(log F) on its right-half-plane
nodes; one image is a batch of one.  The de Hoog contour
(nodes, quotient-difference table, continued fraction) lives only in
``_dehoog_batch``, which inverts a batch of transforms at a vector of
times sharing one horizon, summing the continued fraction for all of
them at once; ``lambdaop`` feeds it one dyadic block of times at a time.
It works batch-last and keeps only the current columns of the
quotient-difference table, so its memory is O(M * n_batch) for degree M,
and the arbiter contour inverts only the disputed columns.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import gammaln

from .config import INVERSION_TOL, QUADRATURE_TOL
from .errors import InversionError, NumericsError, QuadratureError

__all__ = [
    "SampledFunction",
    "TransformResult",
    "caputo_l1",
    "caputo_l1_columns",
    "l1_weight_blocks",
    "mittag_leffler",
    "laplace_forward",
    "laplace_inverse_batch",
]

_EPS = np.finfo(float).eps

#: node counts of the two inversion contours; the de Hoog arbiter runs at
#: DEHOOG_DEGREE + 7, and Talbot's convergence check at 3/4 of its degree
TALBOT_DEGREE = 40
DEHOOG_DEGREE = 25


def _gamma(x: float) -> float:
    return math.gamma(x)


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SampledFunction:
    """Real samples on a strictly increasing grid starting at 0."""

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        if grid.ndim != 1 or values.ndim != 1 or len(grid) != len(values):
            raise ValueError("grid and values must be 1-d of equal length")
        if len(grid) < 2:
            raise ValueError("need at least 2 grid points")
        if grid[0] != 0.0:
            raise ValueError("grid must start at 0")
        if np.any(np.diff(grid) <= 0):
            raise ValueError("grid must be strictly increasing")
        if not (np.all(np.isfinite(grid)) and np.all(np.isfinite(values))):
            raise ValueError("grid and values must be finite")

    def __len__(self) -> int:
        return len(self.grid)


class TransformResult(NamedTuple):
    value: complex
    error: float


# ---------------------------------------------------------------------------
# composite Gauss-Legendre rule
# ---------------------------------------------------------------------------

_leggauss = functools.cache(leggauss)


def _gauss_panels(edges, n: int):
    """Composite n-point Gauss-Legendre rule on the panels between
    consecutive ``edges``: (nodes, weights), flat and panel by panel.
    Edges shaped (P + 1, m) are m rules side by side, and give nodes
    shaped (P n, m).  The reference rule is built once per n; callers
    never write it."""
    xg, wg = _leggauss(n)
    edges = np.asarray(edges, dtype=float)
    shape = (n,) + (1,) * (edges.ndim - 1)
    xg, wg = xg.reshape(shape), wg.reshape(shape)
    a, b = edges[:-1, None], edges[1:, None]
    flat = (-1,) + edges.shape[1:]
    return ((0.5 * (b - a) * xg + 0.5 * (a + b)).reshape(flat),
            (0.5 * (b - a) * wg).reshape(flat))


# ---------------------------------------------------------------------------
# Caputo derivative (L1 scheme, nonuniform grid)
# ---------------------------------------------------------------------------

#: rows of the L1 weight matrix built at a time: an application holds at
#: most this many rows of W, whatever the grid length, and blocks this
#: small stay in cache (of 16-512 rows on a 2-core host, 64 ran fastest
#: for a 1601-point uniform column, 16-64 for a graded one, and 16-128
#: alike for a 400-step L1 solve)
_L1_BLOCK_ROWS = 64

#: a grid counts as uniform (``_uniform_step``) when every t_k lies within
#: this many ulp of t_n of t_0 + k h
_UNIFORM_ULPS = 4


def _uniform_step(t: np.ndarray) -> float | None:
    """The step h = (t_n - t_0) / n of a uniform grid, or None if some t_k
    is more than ``_UNIFORM_ULPS`` ulp of t_n away from t_0 + k h (or the
    grid has one point).  The L1 lag table and the operators' closed-form
    transform take a grid as uniform by this one test."""
    n = len(t) - 1
    if n < 1:
        return None
    h = (t[-1] - t[0]) / n
    drift = np.abs(t - (t[0] + np.arange(n + 1) * h))
    if np.max(drift) > _UNIFORM_ULPS * np.spacing(abs(t[-1])):
        return None
    return h


def _lag_table(t: np.ndarray, components):
    """The L1 weights of a uniform grid by lag, or None if t is not uniform.

    On t_k = t_0 + k h (h = (t_n - t_0) / n) the weights are Toeplitz,
    W[i, k] = a[i - k], with

        a[m] = sum_j w_j h^(-beta_j) / Gamma(2 - beta_j)
               * (m^(1-beta_j) - (m-1)^(1-beta_j))

    for m >= 1 and a[m] = 0 for m <= 0: n powers per component.  The
    table is returned reversed and padded with zeros, r[p] = a[n - p], so
    that row i of W is the window r[n - i :] (see ``_lag_rows``).  It
    depends on the whole grid only, never on the rows asked for.
    """
    h = _uniform_step(t)
    if h is None:
        return None
    n = len(t) - 1
    m = np.arange(n + 1, dtype=float)
    a = 0.0
    for beta, wgt in components:
        p = m ** (1.0 - beta)
        a = a + (p[1:] - p[:-1]) * (wgt * h**-beta / _gamma(2.0 - beta))
    r = np.zeros(2 * n)
    r[:n] = a[::-1]
    return r


def _lag_rows(r: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Rows ``start..stop-1`` of W, columns k < stop - 1, from the lag
    table r of ``_lag_table``: a windowed view of r, copied once."""
    n = len(r) // 2
    windows = np.lib.stride_tricks.sliding_window_view(r, stop - 1)
    return windows[n - stop + 1 : n - start + 1][::-1].copy()


def _row_builder(t, components):
    """rows(start, stop) -> rows ``start..stop-1`` of the L1 memory-weight
    matrix W on the grid t.

    With h_k = t_{k+1} - t_k and ``components`` the (beta_j, w_j) pairs of
    a mixture (a pure clock is the one pair (beta, 1); any beta < 1 works,
    and beta = -alpha gives J^(alpha+1) of the piecewise-constant
    derivative),

        W[i, k] = sum_j w_j / Gamma(2 - beta_j)
                  * ((t_i - t_k)^(1-beta_j) - (t_i - t_{k+1})^(1-beta_j)) / h_k

    for k < i and 0 otherwise, so that sum_k W[i, k] (y_{k+1} - y_k) is the
    L1 value of the memory derivative D^mu y at t_i.  Only the columns
    k < stop - 1, which hold every nonzero entry of these rows, are
    returned: the shape is (stop - start, stop - 1).

    A uniform grid (every t_k within ``_UNIFORM_ULPS`` ulp of t_n of
    t_0 + k h) reads its rows from one table of lag weights
    (``_lag_table``), with no per-entry power; any other strictly
    increasing grid evaluates every entry from its own (i, k).  Either
    way a row does not depend on the rows asked for with it.
    """
    for beta, _ in components:
        if not beta < 1.0:
            raise ValueError("L1 weights need beta < 1")
    t = np.asarray(t, dtype=float)
    r = _lag_table(t, components)
    if r is not None:
        return functools.partial(_lag_rows, r)
    return functools.partial(_entry_weights, t, components)


def _entry_weights(t, components, start, stop):
    """Rows of W on any increasing grid, one power per entry."""
    # zero on and above the diagonal, where the power below is then 0 too
    gap = np.maximum(t[start:stop, None] - t[None, :stop], 0.0)
    h = np.diff(t[:stop])
    w = 0.0
    for beta, wgt in components:
        p = gap ** (1.0 - beta)
        w = w + (p[:, :-1] - p[:, 1:]) * ((wgt / _gamma(2.0 - beta)) / h)
    return w


def l1_weight_blocks(t: np.ndarray, components):
    """Yield (start, rows start.. of W) over all rows i >= 1 of the grid,
    in blocks of ``_L1_BLOCK_ROWS`` (row 0 of W is empty).  A uniform
    grid's lag table is built once for all the blocks."""
    rows = _row_builder(t, components)
    n = len(t)
    for start in range(1, n, _L1_BLOCK_ROWS):
        yield start, rows(start, min(start + _L1_BLOCK_ROWS, n))


def caputo_l1_columns(t: np.ndarray, Y: np.ndarray, components) -> np.ndarray:
    """L1 memory derivative of every column of Y (sampled on t): W @ dY.

    Row 0 is zero.  The rows of W are built and applied one block at a
    time, so memory stays bounded on long grids.
    """
    Y = np.asarray(Y, dtype=float)
    dY = np.diff(Y, axis=0)
    out = np.zeros_like(Y)
    for start, w in l1_weight_blocks(t, components):
        out[start : start + len(w)] = w @ dY[: w.shape[1]]
    return out


def caputo_l1(g: SampledFunction, beta: float) -> SampledFunction:
    """Caputo derivative of order beta via the L1 product rule.

    The samples are treated as piecewise linear, so the convolution of g'
    with the power kernel is integrated exactly per cell (the weights are
    the rows of W, ``_row_builder``).  ``beta == 1`` falls back to the plain
    derivative (second-order finite differences).
    """
    b = float(beta)
    if not 0.0 < b <= 1.0:
        raise ValueError("beta must lie in (0, 1]")
    t = g.grid
    if b == 1.0:
        return SampledFunction(t, np.gradient(g.values, t, edge_order=2))
    return SampledFunction(
        t, caputo_l1_columns(t, g.values[:, None], ((b, 1.0),))[:, 0]
    )


# ---------------------------------------------------------------------------
# Mittag-Leffler function
# ---------------------------------------------------------------------------

def _ml_series(alpha: float, z: float):
    """Power series with a cancellation audit; returns (value, ok)."""
    total = 1.0
    term = 1.0
    max_abs = 1.0
    k = 1
    lg_prev = 0.0
    while k < 10_000:
        lg = gammaln(alpha * k + 1.0)
        term = term * z * math.exp(lg_prev - lg)
        lg_prev = lg
        total += term
        max_abs = max(max_abs, abs(term))
        if abs(term) <= 1e-12 * max(abs(total), 1e-300) and k > 3:
            break
        if not math.isfinite(total):
            return total, False
        k += 1
    else:
        return total, False
    # cancellation estimate: largest intermediate term times eps
    ok = math.isfinite(total) and (
        max_abs * _EPS <= 1e-10 * max(abs(total), 1e-300)
    )
    return total, ok


#: panel edges of ``_ml_negative``: u = (x w)^(1/alpha) on a geometric
#: run toward 0 and steps of 2 out to 50, where e^-u is below 2e-22; and
#: delta at alpha pi 2^-k and alpha pi (1 - 2^-k), k = 1..10, which grade
#: the panels toward the map's two singular ends
_ML_U_EDGES = np.concatenate([[0.0], np.geomspace(1e-15, 1.0, 26),
                              np.arange(2.0, 52.0, 2.0)])
_ML_DELTA_EDGES = np.concatenate([0.5 ** np.arange(1, 11),
                                  1.0 - 0.5 ** np.arange(1, 11), [1.0]])


def _ml_negative(alpha: float, x: np.ndarray) -> np.ndarray:
    """E_alpha(-x) for an array of x > 0 and 0 < alpha < 1.

    The spectral integral of E_alpha(-x), with the substitution that
    flattens its Lorentzian factor, is

        E_alpha(-x) = 1/(alpha pi) int_0^(alpha pi)
                      exp(-(x sin d / sin(alpha pi - d))^(1/alpha)) dd,

    an integrand in (0, 1] that falls from 1 to 0: there is no
    cancellation, so the rule holds its relative accuracy for every x.
    Each x gets its own composite 16-point Gauss rule, on the union of the
    d images of ``_ML_U_EDGES`` (atan2(w sin(alpha pi), 1 + w cos(alpha pi))
    at w = u^alpha / x) and of ``_ML_DELTA_EDGES``; all x run as one array.
    Held to 1e-10 relative over alpha 0.1-0.99 and x 1e-4 to 1e6 (about
    4e-15 against 30-digit references).
    """
    x = np.asarray(x, dtype=float)
    ap = math.pi * alpha
    sa, ca = math.sin(ap), math.cos(ap)
    w = _ML_U_EDGES**alpha / x[:, None]
    edges = np.concatenate(
        [np.arctan2(w * sa, 1.0 + w * ca),
         np.broadcast_to(ap * _ML_DELTA_EDGES, (len(x), len(_ML_DELTA_EDGES)))],
        axis=1)
    edges = np.minimum(np.sort(edges, axis=1), ap)
    nodes, weights = _gauss_panels(edges.T, 16)
    with np.errstate(over="ignore", divide="ignore"):
        u = (x * np.sin(nodes) / np.sin(ap - nodes)) ** (1.0 / alpha)
    return np.einsum("ij,ij->j", np.exp(-u), weights) / ap


def mittag_leffler(alpha: float, z: float) -> float:
    """One-parameter Mittag-Leffler function E_alpha(z), alpha in (0, 1].

    Negative z takes the spectral rule ``_ml_negative``, positive z the
    power series, which raises ``NumericsError`` where its own
    cancellation audit fails.  Relative accuracy 1e-10 on the supported
    region; parameters outside it raise rather than degrade silently.
    E_alpha(-inf) is its limit 0, and a NaN z raises ``ValueError``.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    if math.isnan(z):
        raise ValueError("z must be a number")
    if z == 0.0:
        return 1.0
    if z == -math.inf:
        return 0.0
    if alpha == 1.0:
        return math.exp(z)
    if z < 0.0:
        return float(_ml_negative(alpha, np.array([-z]))[0])
    val, ok = _ml_series(alpha, z)
    if not ok:
        raise NumericsError(
            f"E_alpha({z}) not representable to tolerance at alpha={alpha}"
        )
    return val


# ---------------------------------------------------------------------------
# forward Laplace transform
# ---------------------------------------------------------------------------

# Taylor coefficients in u of phi1(u) = (e^u - 1) / u,
# phi2(u) = (e^u - 1 - u) / u^2 and psi(u) = (1 - e^u (1 - u)) / u^2, for
# |u| < 1, where the closed forms cancel: 20 terms reach 1e-17 there
_HAT_SERIES = np.array([[1.0 / math.factorial(k + 1),
                         1.0 / math.factorial(k + 2),
                         (k + 1.0) / math.factorial(k + 2)]
                        for k in range(20)])


def _hat_factors(u: np.ndarray) -> np.ndarray:
    """phi1(u)^2, phi2(u) and psi(u) (``_HAT_SERIES``) at u = -z h,
    shaped (3, len(u)): the column factors of ``_hat_transform``.  Each
    ratio is divided by u twice rather than by u^2, which could overflow
    far up the line."""
    em = np.expm1(u)
    f = np.array([em / u, (em - u) / u / u,
                  (1.0 - np.exp(u) * (1.0 - u)) / u / u])
    small = np.abs(u) < 1.0
    if small.any():
        us = u[small]
        acc = np.zeros((3, len(us)), dtype=complex)
        for c in _HAT_SERIES[::-1]:
            acc = acc * us + c[:, None]
        f[:, small] = acc
    f[0] *= f[0]
    return f


def _hat_transform(t0: float, h: float, n: int, z: np.ndarray) -> np.ndarray:
    """T of ``_interp_transform`` on the uniform grid t_j = t0 + j h,
    j = 0..n, at nodes z with Re z > 0, shaped (n + 1, len(z)).

    With w = z h and e_m = exp(-z t_m), the hat functions transform in
    closed form:

        T_0 = e_0 h phi2(-w),   T_n = e_{n-1} h psi(-w),
        T_j = e_{j-1} h phi1(-w)^2 = e_j 4 sinh^2(w/2) / (z^2 h),  0 < j < n,

    factored so that nothing overflows for large Re w and nothing cancels
    as |w| -> 0, where the differences of exponentials lose digits.  The
    e_m are products e_{aB+k} = exp(-z (t0 + aBh)) exp(-z kh),
    B = ceil(sqrt(n)): about 2 sqrt(n) exponentials per node, not n + 1,
    and one complex product per entry, of an anchor already scaled by its
    column factor and an offset.
    """
    B = math.isqrt(n - 1) + 1
    n_a = -(-n // B)
    anchors = np.exp(-(t0 + np.arange(0, n_a * B, B) * h)[:, None] * z)
    offsets = np.exp(-(np.arange(B) * h)[:, None] * z)
    f = h * _hat_factors(-(z * h))
    last = anchors[(n - 1) // B] * offsets[(n - 1) % B] * f[2]
    T = np.empty((1 + n_a * B, len(z)), dtype=complex)
    np.multiply((anchors * f[0])[:, None, :], offsets[None],
                out=T[1:].reshape(n_a, B, len(z)))
    T[0] = anchors[0] * f[1]
    T[n] = last
    return T[: n + 1]


def _interp_transform(t: np.ndarray, z: np.ndarray) -> np.ndarray:
    """T with T.T @ y the Laplace transform, at the nodes z (Re z > 0), of
    the linear interpolant of (t, y) on any increasing grid t.

    Shaped (len(t), len(z)), time-major, so that a field of columns sharing
    the grid transforms as one matmul and T's float view lists each node's
    real and imaginary parts side by side.  A uniform grid
    (``_uniform_step``, the L1 lag table's test) takes the closed form of
    ``_hat_transform``.  Any other grid differences the exponentials
    e_j = exp(-z t_j): with d_j = (e_j - e_{j+1}) / (z^2 (t_{j+1} - t_j)) a
    sample's coefficient is e_0/z - d_0 at the left end, d_{j-1} - d_j
    inside (its two segments' e_j/z terms cancel) and d_{n-1} - e_n/z at
    the right end.
    """
    h = _uniform_step(t)
    if h is not None:
        return _hat_transform(t[0], h, len(t) - 1, z)
    e = np.exp(-t[:, None] * z)
    d = (e[:-1] - e[1:]) / (z * z)
    # numpy divides a complex by a real h as a complex by h + 0i, which
    # scales both parts by 1/h; doing that on the parts skips the cast
    d.view(float)[...] *= (1.0 / np.diff(t))[:, None]
    T = np.empty_like(e)
    T[0] = e[0] / z - d[0]
    np.subtract(d[:-1], d[1:], out=T[1:-1])
    T[-1] = d[-1] - e[-1] / z
    return T


#: base panels of ``laplace_forward`` on [0, U]: 8 equal ones, the first
#: graded geometrically (ratio 4) down to 4^-25 U / 8 < 1e-16 U
_FORWARD_EDGES = np.concatenate([[0.0], 0.125 * 0.25 ** np.arange(25, 0, -1),
                                 np.arange(1, 9) / 8.0])
#: levels of ``laplace_forward``: level L cuts each base panel into 2^L
_FORWARD_LEVELS = 7


def laplace_forward(
    g: Callable[[np.ndarray], np.ndarray],
    s: complex,
    *,
    power_at_zero: float = 0.0,
    t_max: float | None = None,
) -> TransformResult:
    """Numerical Laplace transform of g at a single point s.

    g maps a 1-D array of positive times to the array of its values.  The
    window [0, U] is pushed out (doubling U from ``t_max``, default 1)
    until e^(-Re s U) |g(U)| is negligible; ``power_at_zero`` declares a
    t^p (p > -1) singular factor at the origin, absorbed by the power
    substitution t = u^kappa.  The integral over u in [0, U^(1/kappa)]
    takes a composite 16-point Gauss rule (``_gauss_panels``) on panels
    graded geometrically toward u = 0 (``_FORWARD_EDGES``), every panel
    cut in two from one level to the next until two levels agree to
    ``config.QUADRATURE_TOL``; g is called once per level, on all its
    nodes.  Returns the finer level's value with the level gap plus the
    truncation bound as its error, and raises ``QuadratureError`` past
    that budget.  Declare a singularity: the levels converge only
    algebraically on one left undeclared (an undeclared t^-1/2 stops
    near 2e-9 relative, with a level gap of a third of that).  Sampled
    data are transformed only inside the operators, as the linear
    interpolant's closed form (``_interp_transform``).
    """
    s = complex(s)
    re = s.real
    if not re > 0.0:
        raise ValueError("Re s must exceed the abscissa of convergence")
    if power_at_zero <= -1.0:
        raise ValueError("power_at_zero must exceed -1")

    def at(t):
        return np.asarray(g(np.asarray(t, dtype=float)), dtype=float)

    upper = t_max if t_max is not None else 1.0
    # push the window until e^{-Re s t} |g| is negligible
    g_half, g_upper = np.abs(at([upper * 0.5, upper]))
    scale = max(g_half, g_upper, 1e-300)
    while upper < 1e6:
        if g_upper * math.exp(-re * upper) < 1e-16 * scale:
            break
        upper *= 2.0
        g_upper = abs(at([upper])[0])
    else:
        raise QuadratureError("integrand does not decay; abscissa violated?")

    kappa = 1.0
    if power_at_zero < 0.0:
        kappa = math.ceil(1.0 / (1.0 + power_at_zero)) + 1.0
    u_max = upper ** (1.0 / kappa)

    def level(cuts):
        edges = u_max * _FORWARD_EDGES
        edges = (edges[:-1, None]
                 + np.diff(edges)[:, None] * (np.arange(cuts) / cuts))
        u, w = _gauss_panels(np.append(edges.ravel(), u_max), 16)
        t = u**kappa
        w = w * (kappa * u ** (kappa - 1.0))
        # t = u^kappa underflows to 0 only where the weight has too
        live = t > 0.0
        w[live] *= at(t[live]) * np.exp(-re * t[live])
        w[~live] = 0.0
        if s.imag == 0.0:
            return complex(np.sum(w))  # a real s has a real transform
        return complex(np.sum(w * np.cos(-s.imag * t)),
                       np.sum(w * np.sin(-s.imag * t)))

    value = level(1)
    for lev in range(1, _FORWARD_LEVELS + 1):
        prev, value = value, level(2**lev)
        gap = abs(value - prev)
        if gap <= max(QUADRATURE_TOL * abs(value), 1e-13):
            break
    err = gap + g_upper * math.exp(-re * upper) / re
    if err > max(QUADRATURE_TOL * 100 * abs(value), 1e-9):
        raise QuadratureError(
            f"forward transform did not converge at s={s} (err={err:.2e})"
        )
    return TransformResult(value, err)


# ---------------------------------------------------------------------------
# inverse Laplace transform: fixed Talbot + de Hoog, cross-checked
# ---------------------------------------------------------------------------

def _eval_batch(F, s, n_batch):
    """Evaluate F on contour nodes; result shaped (n_batch, len(s))."""
    out = np.asarray(F(s))
    if out.ndim == 1:
        out = out[None, :]
    if out.shape != (n_batch, len(s)):
        raise ValueError("batch evaluator returned wrong shape")
    return out


def _talbot_batch(logF, t: float, M: int, n_batch: int):
    """Fixed-Talbot rule on the image's logarithm, so that e^{ts} F(s) is
    one exponential; returns (values, cancellation_error_estimate).  A
    column whose exponent is nan or has real part above 690 at some node
    leaves that node out and gets an infinite error estimate."""
    r = 2.0 * M / 5.0
    theta = np.pi * np.arange(1, M) / M
    cot = 1.0 / np.tan(theta)
    s0 = np.array([r / t + 0j])
    sk = (r / t) * theta * (cot + 1j)
    mult = 1.0 + 1j * theta * (1.0 + cot * cot) - 1j * cot
    with np.errstate(over="ignore", invalid="ignore", under="ignore",
                     divide="ignore"):
        e0 = t * s0[0] + _eval_batch(logF, s0, n_batch)[:, 0]
        ek = t * sk[None, :] + _eval_batch(logF, sk, n_batch)
        skip0 = ~(e0.real <= 690.0) | np.isnan(e0.imag)
        skipk = ~(ek.real <= 690.0) | np.isnan(ek.imag)
        bad = skipk.any(axis=1) | skip0
        g0 = 0.5 * np.exp(np.where(skip0, -np.inf, e0))
        gk = np.exp(np.where(skipk, -np.inf, ek)) * mult[None, :]
    vals = (2.0 / (5.0 * t)) * (g0.real + gk.real.sum(axis=1))
    mag = (2.0 / (5.0 * t)) * (np.abs(g0) + np.abs(gk).sum(axis=1))
    err = _EPS * mag * M
    err = np.where(bad, np.inf, err)
    return vals, err


def _dehoog_contour(tmax: float, M: int, tol: float):
    """(period T, abscissa gamma, nodes p) of the de Hoog rule with horizon
    tmax.  Halving tmax doubles every node exactly (powers of two scale
    without rounding), which ``lambdaop`` relies on across dyadic blocks."""
    T = 2.0 * tmax
    gam = -math.log(tol) / (2.0 * T)
    return T, gam, gam + 1j * np.pi * np.arange(2 * M + 1) / T


def _dehoog_batch(F, t, M: int, n_batch: int, *,
                  tmax: float | None = None, tol: float = 1e-12) -> np.ndarray:
    """de Hoog/Knight/Stokes accelerated Fourier inversion, batched.

    ``t`` is one time or a vector of times sharing the horizon ``tmax``
    (default: the largest time).  F is evaluated once on the 2M+1 contour
    nodes and the quotient-difference (QD) table is built once; the
    continued fraction is then summed for all times together, as one
    (n_times, n_batch) recurrence.  The result is (n_batch, len(t)), each
    column bitwise what a call with that one time would give: every
    element sees the same operations in the same order, and every
    column's arithmetic is its own.

    Layout: the image is transposed to node-major (2M+1, n_batch), so
    every array operation runs over contiguous rows of the batch.  The QD
    table is never held whole: only its current q and e columns are kept,
    and the continued-fraction coefficients d[2r-1] = -q_0 and
    d[2r] = -e_0 are written as each column appears; the A/B recurrence
    keeps its last two rows per time, in blocks of under 2^14 entries.
    Memory is O((2M+1) n_batch), against O(M^2 n_batch) for the full
    table.  The values are bitwise those of the full table: each element
    sees the same operations in the same order, and the one entry dropped
    per column (the last q, a product with a never-written zero e entry)
    is never read.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    T, gam, p = _dehoog_contour(tmax if tmax is not None else float(t.max()),
                                M, tol)
    NP = 2 * M + 1
    fp = np.ascontiguousarray(_eval_batch(F, p, n_batch).T, dtype=complex)
    tiny = np.finfo(float).tiny * 1e4
    fp = np.where(np.abs(fp) < tiny, tiny, fp)

    d = np.empty((NP, n_batch), dtype=complex)
    d[0] = fp[0] / 2.0
    q = np.empty((2 * M, n_batch), dtype=complex)
    q[0] = fp[1] / (fp[0] / 2.0)
    q[1:] = fp[2:] / fp[1:-1]
    del fp
    e = np.zeros((2 * M, n_batch), dtype=complex)
    for r in range(1, M + 1):
        mr = 2 * (M - r) + 1
        e = q[1 : mr + 1] - q[:mr] + e[1 : mr + 1]
        d[2 * r - 1] = -q[0]
        d[2 * r] = -e[0]
        if r < M:
            denom = np.where(np.abs(e[: mr - 1]) < tiny, tiny, e[: mr - 1])
            q = q[1:mr] * e[1:mr] / denom
    # the continued fraction runs over a block of times at once, one row
    # per time.  Every operand is 2-D, so a lone time and column rounds as
    # in a 1-D call, and a block stays under 2^14 entries unless one row
    # is that long: numpy reuses a temporary of 256 KiB or more in place,
    # swapping a product's operands, and FMA complex products round the
    # two orders differently
    out = np.empty((n_batch, len(t)))
    rows = max(1, (2**14 - 1) // n_batch)
    dr = d[:, None, :]
    for lo in range(0, len(t), rows):
        tb = t[lo : lo + rows].tolist()
        z = np.array([complex(np.exp(1j * np.pi * tj / T)) for tj in tb])
        z = z[:, None]
        a0 = np.zeros((len(tb), n_batch), dtype=complex)
        a1 = np.broadcast_to(dr[0], a0.shape)
        b0 = b1 = np.ones(a0.shape, dtype=complex)
        for i in range(1, 2 * M):
            a0, a1 = a1, a1 + dr[i] * a0 * z
            b0, b1 = b1, b1 + dr[i] * b0 * z
        brem = (1.0 + (dr[2 * M - 1] - dr[2 * M]) * z) / 2.0
        rem = brem * (np.sqrt(1.0 + dr[2 * M] * z / (brem * brem)) - 1.0)
        scale = np.array([math.exp(gam * tj) / T for tj in tb])[:, None]
        out[:, lo : lo + rows] = (
            scale * ((a1 + rem * a0) / (b1 + rem * b0)).real
        ).T
    return out


def laplace_inverse_batch(
    logF,
    t: float,
    n_batch: int,
    *,
    abs_scale: float | None = None,
) -> np.ndarray:
    """Invert a family of transforms sharing contours at a single time t.

    ``logF`` maps an array of contour nodes s to log F(s), an array shaped
    (n_batch, len(s)): Talbot sums exp(ts + log F), and de Hoog reads
    exp(log F) on its right-half-plane nodes.  The two must agree within
    ``config.INVERSION_TOL`` relative to the batch scale.
    Where Talbot's own cancellation estimate already explains the gap
    (deep tails), a second de Hoog evaluation at shifted parameters
    arbitrates instead.
    """
    if not t > 0.0:
        raise ValueError("t must be positive")

    def F(s):
        with np.errstate(over="ignore", under="ignore"):
            return np.exp(_eval_batch(logF, s, n_batch))

    M = TALBOT_DEGREE
    vt, tcanc = _talbot_batch(logF, t, M, n_batch)
    vt2, _ = _talbot_batch(logF, t, max(16, (3 * M) // 4), n_batch)
    # cancellation plus degree-convergence estimate of Talbot's error
    terr = np.maximum(tcanc, 2.0 * np.abs(vt - vt2))
    vd = _dehoog_batch(F, t, DEHOOG_DEGREE, n_batch)[:, 0]
    scale = abs_scale if abs_scale is not None else max(
        np.max(np.abs(vd)), 1e-300
    )
    tol = INVERSION_TOL
    gap = np.abs(vt - vd)
    ok = gap <= tol * np.maximum(np.abs(vd), scale)
    out = np.where(ok, 0.5 * (vt + vd), vd)
    if np.any(~ok):
        # Talbot knows when it is struggling (steep flanks, contour wrap);
        # arbitrate those entries with an independent de Hoog contour.
        bad = np.flatnonzero(~ok)
        explained = terr[bad] >= 0.25 * gap[bad]
        # only the disputed columns are inverted again (each column's
        # arithmetic is its own, so their values are unchanged)
        vd2 = _dehoog_batch(lambda s: F(s)[bad], t,
                            DEHOOG_DEGREE + 7, len(bad), tol=1e-10)[:, 0]
        agree2 = np.abs(vd2 - vd[bad]) <= 10.0 * tol * np.maximum(
            np.abs(vd[bad]), scale
        )
        # both de Hoog runs negligible at the caller's scale and Talbot in
        # its garbage regime: the value is numerically zero
        negligible = (
            (terr[bad] >= 0.25 * np.maximum(np.abs(vt[bad]), gap[bad]))
            & (np.abs(vd[bad]) <= tol * scale)
            & (np.abs(vd2) <= tol * scale)
        )
        resolved = negligible | (explained & agree2)
        if not np.all(resolved):
            i = int(bad[np.argmax(~resolved)])
            raise InversionError(
                f"inversion methods disagree at t={t}: talbot={vt[i]:.6e} "
                f"dehoog={vd[i]:.6e} (tol {tol:.1e}, scale {scale:.1e})"
            )
        out[bad] = np.where(negligible, 0.0, vd[bad])
    return out
