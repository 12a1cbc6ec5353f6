"""Time-nonlocal operators of the fractional FPKEs for general variance data.

These operators replace the time-dependent diffusion coefficient when a
Gaussian process is run on an inverse-subordinator clock.  Both are one
double-transform object: an inner complex-line integral of the kernel
R~'(rho(s) - rho(z)) m(z), read from the operator's ``profile`` by
``gaussian.profile_derivative``, producing a Laplace image, and an outer
inversion back to the time domain:

* ``eval_Lambda``  variance-driven operator for any model with analytic
  Laplace data (power, rational, and finite sums thereof)
* ``eval_G``       the gamma-indexed family, the power case of the same
  kernel on a pure clock; the outer fractional integral is folded into
  the inversion as s^(beta-1)

The inner line is a sinh-stretched vertical contour z = C + i sinh(v),
built on v >= 0 and mirrored, so that z(-v) = conj z(v) and
dz(-v) = dz(v) bit for bit, and summed by the trapezoid rule in a
variable w with v = phi(w) (``_line_nodes``).  For the de Hoog image of
an analytic input the line is graded: half the de Hoog step out to a
margin past the kernel singularity z = s, at height v = asinh(Im s), and
a step about 16 times coarser beyond, where the integrand is smooth,
does not oscillate and decays algebraically; phi is analytic in a strip,
so the rule keeps its geometric convergence at about a sixth of the
nodes.  The Stehfest check and sampled inputs keep a uniform line: the
check must not share the graded line's error, and a sampled transform
oscillates as exp(-z t) along the line, where coarse steps lose it.  On
the line, u = rho(s) - rho(z) never crosses the negative real axis, so
the integrand's non-integer power takes log u on the principal branch,
which is the branch continuous along the line (``_kernel_on_line`` has
the proof).  The kernel is built in row blocks
of about 2^14 entries (256 KiB), so no temporary is the kernel's size; a
kernel rebuilt per scale for one transform is summed block by block and
never held whole.  The line scales
with the time: the outer nodes of an inversion rule are reference nodes s times
a scale r (1/t for Stehfest's k ln2 / t, 2^b for de Hoog's dyadic block
b), and the inner line is the reference line zeta times the same r.
``_image`` takes the reference nodes and the list of scales and returns
one image per scale: of one transform, given as a callable g~(z), or of
any number of sampled columns, given as a (grid, columns) pair.  For a
pure stable clock with a power variance profile (every G, and Lambda for
Brownian motion or fBm) the kernel is homogeneous,
K(r s, r z) = r^(-beta p) K(s, z), so it is built once per call on
(s, zeta) and each scale costs one evaluation of g~ on the scaled line,
one contraction and a scalar factor; rational profiles and mixture clocks
rebuild it per scale on the same scaled line.  The pair is the one route
for sampled data: a ``SampledFunction``'s values are one column, the
field residual's Laplacians many.  The columns' transform matrix T
satisfies T(conj z) = conj T(z), so it is formed on the line's upper half
only, the kernel times dz is contracted into it first, and the small
(outer nodes x times) result maps every column at once.  T comes from
one entry point, ``fraccalc._interp_transform``, which alone decides how
to form it from the grid: the hat functions' closed form on a uniform
grid (every solver grid is one), with about 2 sqrt(n) exponentials per
line node, and differenced exponentials on any other.

One outer rule reports every value, of an analytic or a sampled input:
a de Hoog inversion at degree 18 and tolerance 1e-10.  Its error
estimate is its distance to one independent check.  For an analytic
input the check is the linear Gaver-Stehfest rule at degree 12, on the
uniform line, whose error is not the graded line's; for a sampled input
it is a second de Hoog inversion at an unrelated abscissa and degree
(24, tolerance 1e-12).  A value or spread that is not finite raises
``NumericsError``.
Every de Hoog inversion, the field residual's included, goes
through ``_dehoog_values``: one ``_image`` call for all dyadic blocks of
times, then one ``fraccalc._dehoog_batch`` call per block, whose
continued fraction sums all of the block's times at once.  The top
block's line is the one its own nodes would give (offset_ratio times the
abscissa); a lower block reads the top line scaled by 2^b, and each
block's transform is formed afresh on its own line.  Everything
here is validated downstream against scalar moment identities, which is
where these operators meet hard data.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, ClassVar, NamedTuple

import numpy as np

from .errors import NumericsError
from .fraccalc import (
    SampledFunction,
    _dehoog_batch,
    _dehoog_contour,
    _interp_transform,
    caputo_l1_columns,
)
from .gaussian import profile_decay, profile_derivative
from .subordinators import SubordinatorSpec
from .timechange import GridDensity

__all__ = [
    "ContourConfig",
    "GOperator",
    "LambdaOperator",
    "AnalyticTransform",
    "OperatorValue",
    "constant_transform",
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

class ContourConfig:
    """Numerical layout of the double transform, the same for every contour.

    ``offset_ratio`` places the inner vertical line at that fraction of the
    outer contour's abscissa (the defining constraint 0 < C < s needs the
    line left of every outer node).  ``node_spacing`` is the resolution of
    the sinh-stretched trapezoid; the truncation half-length follows from
    the integrand's algebraic tail and is capped by ``v_cap``.
    """

    offset_ratio: ClassVar[float] = 0.5
    node_spacing: ClassVar[float] = 0.05
    v_cap: ClassVar[float] = 300.0
    degree: ClassVar[int] = 18
    degree_check: ClassVar[int] = 24
    fail_tol: ClassVar[float] = 5e-3
    singularity_margin: ClassVar[float] = 0.2


# layout of the graded line of an analytic de Hoog image (``_inner_line``):
# the step rises from fine to _COARSE_STRETCH times that across
# _FINE_MARGIN past the kernel singularity's height in v, by a logistic
# step of width _RISE_WIDTH; at the singularity's height, eight widths
# below, it is still within 0.5% of the fine step
_FINE_MARGIN = 2.0
_COARSE_STRETCH = 16.0
_RISE_WIDTH = 0.25


@dataclass(frozen=True)
class GOperator:
    """The Lambda kernel's power case 2 Gamma(gamma+1) u^-(gamma+1) on a
    pure clock, with s^(beta-1) folded into the outer inversion."""

    beta: float
    gamma: float

    def __post_init__(self):
        if not 0.0 < self.beta < 1.0:
            raise ValueError("beta must lie in (0, 1)")
        if not -1.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie in (-1, 1)")

    @property
    def sub(self) -> SubordinatorSpec:
        return SubordinatorSpec.pure(self.beta)

    @property
    def profile(self):
        return ("power", 2.0 * math.gamma(self.gamma + 1.0), self.gamma + 1.0)

    @property
    def fold_power(self) -> float:
        return self.beta - 1.0


@dataclass(frozen=True)
class LambdaOperator:
    sub: SubordinatorSpec
    model: object
    fold_power: ClassVar[float] = 0.0

    def __post_init__(self):
        if self.model.laplace_profile() is None:
            raise ValueError(
                "Lambda operators need analytic variance Laplace data "
                "(power, rational, or finite sums); this model has none"
            )

    @property
    def profile(self):
        return self.model.laplace_profile()


@dataclass(frozen=True)
class AnalyticTransform:
    """A known Laplace image g~(z), with its rightmost singularity."""

    fn: Callable[[np.ndarray], np.ndarray]
    max_singularity_real: float = 0.0


def constant_transform(c: float = 1.0) -> AnalyticTransform:
    return AnalyticTransform(lambda z: c / z)


class OperatorValue(NamedTuple):
    value: float
    error: float


# ---------------------------------------------------------------------------
# inner contour machinery
# ---------------------------------------------------------------------------

def _line_nodes(C: float, spacing: float, vmax: float,
                v_fine: float = math.inf):
    """Nodes z = C + i sinh(v) and weights dz = i cosh(v) phi'(w) h at
    v = phi(w), w = k h, k = -n..n, built on w >= 0 and mirrored:
    z(-v) = conj z(v) and dz(-v) = dz(v) bit for bit, the centre node is C
    and the end nodes sit at v = +-vmax.

    phi is the identity when v_fine >= vmax: a uniform line of step about
    ``spacing``.  Otherwise h is about half of ``spacing``, phi is odd and
    monotone, and phi' is 1 well below v_fine and rises across it to about
    ``_COARSE_STRETCH``, by a logistic step of width ``_RISE_WIDTH``, so
    that phi is analytic in a strip and the trapezoid rule keeps its
    geometric convergence; the stretch is set so that phi reaches vmax at
    the end node."""
    graded = v_fine < vmax
    w_end, step = vmax, spacing
    if graded:
        w_end = (vmax + (_COARSE_STRETCH - 1.0) * v_fine) / _COARSE_STRETCH
        step = 0.5 * spacing
    n_half = max(int(w_end / step), 400)
    h = w_end / n_half
    w = np.arange(n_half + 1) * h
    v, dv = w, h
    if graded:
        def rise(x):  # odd in x, and its derivative times _RISE_WIDTH
            a = (x - v_fine) / _RISE_WIDTH
            b = (-x - v_fine) / _RISE_WIDTH
            return (np.logaddexp(0.0, a) - np.logaddexp(0.0, b),
                    1.0 + 0.5 * (np.tanh(0.5 * a) + np.tanh(0.5 * b)))

        stretch = (vmax - w_end) / (_RISE_WIDTH * rise(w_end)[0])
        r, dr = rise(w)
        v = w + stretch * _RISE_WIDTH * r
        dv = h * (1.0 + stretch * dr)
        # the end node's cell reaches half a fine step past vmax, as on
        # the uniform line, not half a coarse one
        dv[-1] = 0.5 * (h + dv[-1])
    y, wt = np.sinh(v), np.cosh(v) * dv
    z = C + 1j * np.concatenate([-y[:0:-1], y])
    dz = 1j * np.concatenate([wt[:0:-1], wt])
    return z, dz


def _inner_line(op, s, spacing: float, vmax: float, graded: bool = False):
    """The inner line (zeta, dzeta) for reference outer nodes ``s``, at
    C = offset_ratio * min Re s: uniform at ``spacing``, or ``graded``
    (an analytic de Hoog image) at half that step out to
    v_fine = asinh(max |Im s|) + ``_FINE_MARGIN``, past the kernel
    singularity z = s, and coarse beyond, where the integrand is smooth
    and decays algebraically."""
    v_fine = (math.asinh(float(np.abs(s.imag).max())) + _FINE_MARGIN
              if graded else math.inf)
    return _line_nodes(ContourConfig.offset_ratio * float(s.real.min()),
                       spacing, vmax, v_fine)


def _kernel_tail_power(op) -> float:
    """Algebraic decay exponent of the kernel factor for |z| -> inf."""
    return max(b for b, _ in op.sub.components) * profile_decay(op.profile)


# entries of a kernel built at once (256 KiB of complex): a block's
# temporaries stay in cache, and none of them is the kernel's size
_BLOCK_ENTRIES = 2**14


def _principal_log(u: np.ndarray) -> np.ndarray:
    """log u as log|u| + i arg u (``np.log(u)`` can differ by an ulp)."""
    return np.log(np.abs(u)) + 1j * np.angle(u)


def _kernel_on_line(op, s_nodes: np.ndarray, z: np.ndarray,
                    g: np.ndarray | None = None) -> np.ndarray:
    """Kernel factor R~'(rho(s) - rho(z)) m(z), shaped (len(s), len(z)); or,
    given g on the line, the row sums of kernel * g, shaped (len(s),).

    The power terms take log u, u = rho(s) - rho(z), on the principal
    branch: u never crosses the negative real axis on the line.  Below the
    real axis Im rho(z) < 0 <= Im rho(s).  Above it Im rho(z) increases
    along the line, so u crosses the real axis at most once, on the level
    curve Im rho = Im rho(s); along that curve d Re rho / dx =
    |rho'|^2 / Re rho' > 0, since Re rho'(z) = Re sum_k w_k beta_k
    z^(beta_k - 1) > 0 for Re z > 0, and the line sits at C < Re s, so
    Re u > 0 at the crossing.

    The kernel is built in blocks of rows of about ``_BLOCK_ENTRIES``
    entries.  With g, each block is summed as it is built, by the same
    per-row pairwise sum as the full product, and the full kernel is never
    held.
    """
    rho_s = op.sub.laplace_exponent(s_nodes)
    rho_z = op.sub.laplace_exponent(z)[None, :]
    # the order factor m(z) is the constant beta for a pure clock
    m = (op.sub.components[0][0] if op.sub.is_pure
         else op.sub.order_mixture(z)[None, :])
    out = np.empty(len(s_nodes) if g is not None else (len(s_nodes), len(z)),
                   dtype=complex)
    rows = max(_BLOCK_ENTRIES // len(z), 1)
    for i in range(0, len(s_nodes), rows):
        u = rho_s[i : i + rows, None] - rho_z
        k = profile_derivative(op.profile, u, _principal_log) * m
        out[i : i + rows] = k if g is None else (k * g).sum(axis=1)
    return out


def _kernel_degree(op) -> float | None:
    """d with K(r s, r z) = r^d K(s, z) for every r > 0, or None.

    A pure stable clock with a power profile c u^-p has
    K(s, z) = beta c (s^beta - z^beta)^-p, so d = -beta p; the principal
    log only shifts by beta log r.  Rational profiles and mixture clocks
    have no degree."""
    if op.sub.is_pure and op.profile[0] == "power":
        return -op.sub.components[0][0] * op.profile[2]
    return None


def _mirror_weights(kd: np.ndarray) -> np.ndarray:
    """Real matrix W with W @ V.T = [Re A; Im A], A the sum over a mirrored
    line of kd[:, j] T(z_j), for the time-major T of ``_interp_transform``
    formed on the v >= 0 half (centre first) and a real time grid, where
    T(conj z) = conj T(z), and V its float view: W's columns run node by
    node, (Re, Im) for each, as V's do.

    With K+ the half's columns of kd and K- their mirrors (zero at the
    centre, which is counted once), A = (K+ + K-) Re T + i (K+ - K-) Im T.
    """
    n = kd.shape[1] // 2
    kp = kd[:, n:]
    km = np.zeros_like(kp)
    km[:, 1:] = kd[:, n - 1 :: -1]
    P, Q = kp + km, kp - km
    m = len(kd)
    # W[row part, outer node, line node, column part]
    W = np.empty((2, m, n + 1, 2))
    W[0, ..., 0], W[0, ..., 1] = P.real, -Q.imag
    W[1, ..., 0], W[1, ..., 1] = P.imag, Q.real
    return W.reshape(2 * m, -1)


def _image(op, gt, g_sing, s, scales, spacing: float, vmax: float,
           graded: bool = False) -> list:
    """Laplace images of the operator applied to g, one per scale r, on the
    outer nodes r s.

    The inner line for scale r is r zeta, where zeta is the sinh-stretched
    line at C = offset_ratio * min Re s (``_inner_line``): uniform at
    ``spacing``, or, with ``graded``, at half that step out past the
    kernel singularity and coarse beyond; each scale's line must clear
    g~'s rightmost singularity by the contour's margin.  ``gt`` is one
    transform or any number of sampled ones.  A callable maps line nodes
    z to one transform g~(z), shaped (n_z,), and each image is (len(s),).
    A pair (t_grid, Y) holds n_cols real columns sampled on one grid,
    whose transforms are T(z) @ Y with T the transform of the linear
    interpolant, and each image is (n_cols, len(s)): T is formed on the
    line's v >= 0 half only, by ``_interp_transform`` on any grid and
    time-major, the kernel times dz is contracted into its float view
    first (``_mirror_weights``), and the (len(s), len(t_grid)) result is
    applied to Y once.  Every scale forms its own T, so no state passes
    between scales.  A homogeneous kernel is built once, on (s, zeta), and
    every scale's contraction is multiplied by r^(1+d) (dz = r dzeta); any
    other kernel is built per scale on (r s, r zeta).
    """
    re_min = float(s.real.min())
    C = ContourConfig.offset_ratio * re_min
    if any(r * C <= g_sing + ContourConfig.singularity_margin * r * re_min
           for r in scales):
        raise NumericsError(
            "inner contour too close to a transform singularity"
        )
    zeta, dzeta = _inner_line(op, s, spacing, vmax, graded)
    degree = _kernel_degree(op)
    kern = None if degree is None else _kernel_on_line(op, s, zeta)
    sampled = isinstance(gt, tuple)
    if sampled:
        tg, Y = gt
        if degree is not None:
            W_kern = _mirror_weights(kern * dzeta)
    images = []
    for r in scales:
        z = r * zeta
        if sampled:
            if degree is None:
                k = _kernel_on_line(op, r * s, z)
                W, f = _mirror_weights(k * dzeta), r
            else:
                W, f = W_kern, r ** (1.0 + degree)
            T = _interp_transform(tg, z[len(z) // 2 :])
            # rows: Re and Im of the sum over the line of kernel dz T(z) Y;
            # W's columns pair each node's Re and Im, as T's float view does
            AY = (W @ T.view(float).T) @ Y
            phi = f * (AY[: len(s)] + 1j * AY[len(s) :])
        else:
            gz = gt(z) * dzeta
            if degree is not None:
                phi = r ** (1.0 + degree) * (kern @ gz)
            else:
                # numpy's pairwise sum over the rebuilt kernel, block by
                # block: a BLAS mat-vec's roundoff, amplified by the Salzer
                # weights, moves OU's Stehfest check by 1e-8 relative
                phi = r * _kernel_on_line(op, r * s, z, gz)
        # the order factor m(z) lives in the kernel, so every operator
        # shares the 1/2 out front
        fold = np.exp(op.fold_power * np.log(r * s))
        images.append(0.5 / (2j * np.pi) * fold * phi.T)
    return images


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


_SALZER_12 = _salzer_weights(12)


def _vmax_for(op, g_tail: float) -> float:
    """Half-length of the inner line for a transform decaying like
    |z|^-g_tail (1 for pointwise g, 2 for the Laplacian columns of the
    field residual)."""
    # truncation from the slowest admissible tail; a fixed bound keeps the
    # rule identical across inputs, so the evaluation stays exactly linear
    # in g
    tail = g_tail + _kernel_tail_power(op)
    if tail <= 1.02:
        raise NumericsError("contour integrand decays too slowly to truncate")
    return min(max(_LN2 + 30.0 / (tail - 1.0), 12.0), ContourConfig.v_cap)


def _stehfest_values(op, gt, g_sing, t_grid):
    """Gaver-Stehfest outer inversion at degree 12 of an analytic input:
    the independent check on its de Hoog values.

    Time t reads the image on the nodes k ln2 / t, k = 1..12, the t = 1
    nodes scaled by 1/t, with the uniform inner line (C = offset_ratio ln2)
    scaled alike.  The line is not graded: the graded line's error is the
    de Hoog value's own, so a check on it would not see it."""
    F = np.array(_image(op, gt, g_sing, np.arange(1, 13) * _LN2 + 0j,
                        1.0 / t_grid, ContourConfig.node_spacing,
                        _vmax_for(op, 1.0)))
    return _LN2 / t_grid * (F.real @ _SALZER_12)


def _dehoog_values(op, gt, g_sing, t_grid, M: int, tol: float, *,
                   g_tail: float = 1.0) -> np.ndarray:
    """Accelerated-Fourier outer inversion on shared dyadic contours.

    Times are grouped into dyadic blocks (T/2, T] below the largest; each
    block is one ``_dehoog_batch`` call with horizon T, so its quotient-
    difference table is built once.  Block b's contour nodes are exactly
    2^b times the top block's, so all images come from one ``_image`` call
    with scales 2^b, and the inner line of block b is the top block's line
    scaled by 2^b.  Returns (len(t_grid), n_cols): one column for a
    callable ``gt``, Y's columns for a pair (t_grid, Y).  The image's
    kernel singularity sits at height Im s, where the sinh-stretched line
    is coarse, so the spacing shrinks with the line-to-singularity margin.
    A callable's line is graded (``_inner_line``); a pair's is uniform.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    t_top = float(np.max(t_grid))
    blocks: dict[int, list[int]] = {}
    for idx, t in enumerate(t_grid):
        b = max(int(math.floor(math.log2(t_top / t))), 0)
        blocks.setdefault(b, []).append(idx)
    spacing = (ContourConfig.node_spacing
               * (1.0 - ContourConfig.offset_ratio) / 2.0)
    sampled = isinstance(gt, tuple)
    images = _image(op, gt, g_sing, _dehoog_contour(t_top, M, tol)[2],
                    [2.0**b for b in blocks], spacing, _vmax_for(op, g_tail),
                    graded=not sampled)
    n_cols = gt[1].shape[1] if sampled else 1
    out = np.empty((len(t_grid), n_cols))
    for (b, idxs), F in zip(blocks.items(), images):
        out[idxs] = _dehoog_batch(lambda p, F=F: F, t_grid[idxs], M, n_cols,
                                  tmax=t_top / 2.0**b, tol=tol).T
    return out


def _check_times(g, t_grid: np.ndarray) -> None:
    """Raise ValueError, naming the first offending time, unless t_grid is
    a nonempty 1-d array of finite times t > 0, each before the end of a
    sampled input's window (the operators are causal, and the window's
    edge is where the truncated transform is wrong)."""
    if t_grid.ndim != 1 or len(t_grid) == 0:
        raise ValueError("operator evaluation needs a nonempty 1-d time "
                         f"grid, not one of shape {t_grid.shape}")
    end = g.grid[-1] if isinstance(g, SampledFunction) else math.inf
    for bad, need in ((~np.isfinite(t_grid), "finite times"),
                      (t_grid <= 0.0, "t > 0"),
                      (t_grid >= end, f"t < {end:.6g}, the end of the "
                                      "sampled window")):
        if bad.any():
            raise ValueError(f"operator evaluation needs {need}, "
                             f"got t = {t_grid[bad][0]:.6g}")


@np.errstate(over="ignore", invalid="ignore")
def _eval_grid(op, g, t_grid):
    """G or Lambda operator values on a positive time grid, with errors.

    Every value, of an analytic or a sampled input, is one de Hoog
    inversion at degree 18 and tolerance 1e-10 (``_dehoog_values``).  The
    reported error is its distance to one independent check: Gaver-Stehfest
    at degree 12 on the uniform line for an analytic input, and de Hoog at
    degree 24 and tolerance 1e-12 for a sampled one, which is a one-column
    (grid, columns) pair.  A time grid that is empty, not 1-d, not finite,
    not positive or, for a sampled input, not inside its window raises
    ``ValueError`` (``_check_times``).  A value or spread that is not
    finite raises ``NumericsError`` naming its time; an overflow inside an
    inversion shows only that way, not as a warning.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    _check_times(g, t_grid)
    if isinstance(g, SampledFunction):
        # a window-truncated transform carries an edge that the global
        # Gaver functionals smear across scales; a second Fourier contour
        # at an unrelated abscissa and degree localizes it instead
        gt, g_sing = (g.grid, g.values[:, None]), 0.0
        check = _dehoog_values(op, gt, g_sing, t_grid,
                               ContourConfig.degree_check, 1e-12)[:, 0]
    elif isinstance(g, AnalyticTransform):
        gt, g_sing = g.fn, g.max_singularity_real
        check = _stehfest_values(op, gt, g_sing, t_grid)
    else:
        raise TypeError("g must be an AnalyticTransform or SampledFunction")
    vals = _dehoog_values(op, gt, g_sing, t_grid, ContourConfig.degree,
                          1e-10)[:, 0]
    err = np.abs(vals - check)
    bad = ~(np.isfinite(vals) & np.isfinite(err))
    if bad.any():
        raise NumericsError(
            f"operator value or spread not finite at t = {t_grid[bad][0]:.6g}")
    return vals, err


def eval_G(op, g, t: float) -> OperatorValue:
    """G or Lambda operator value at one time, with its spread against the
    check (``_eval_grid``); raises ``NumericsError`` when the value and the
    check disagree or a value is not finite."""
    vals, errs = _eval_grid(op, g, [t])
    value, error = float(vals[0]), float(errs[0])
    if error > ContourConfig.fail_tol * max(abs(value), 1e-8):
        what = "G" if isinstance(op, GOperator) else "Lambda"
        raise NumericsError(
            f"{what} operator: outer inversions disagree beyond tolerance "
            f"(value {value:.6e}, spread {error:.2e})"
        )
    return OperatorValue(value, error)


# one body per pair: the operator type selects the kernel
eval_Lambda = eval_G
eval_G_grid = eval_Lambda_grid = _eval_grid


# ---------------------------------------------------------------------------
# full-field FPKE residual for the power-law (fBm) family
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FbmResidualReport:
    x_points: np.ndarray
    l2_per_x: np.ndarray
    linf_per_x: np.ndarray
    t_window: tuple[float, float]

    @property
    def overall_linf(self) -> float:
        return float(self.linf_per_x.max())

    def to_json(self) -> dict:
        return {
            "x": [float(v) for v in self.x_points],
            "l2_per_x": [float(v) for v in self.l2_per_x],
            "linf_per_x": [float(v) for v in self.linf_per_x],
            "t_window": list(self.t_window),
            "contour": {
                "offset_ratio": ContourConfig.offset_ratio,
                "node_spacing": ContourConfig.node_spacing,
                "degree": ContourConfig.degree,
            },
        }


def _time_window(tg: np.ndarray) -> tuple[int, int]:
    """Row range [i0, i1) of the grid points with 0.25 T <= t <= 0.75 T,
    T = tg[-1].  A grid point meant to sit on an end of the window may
    miss it by round-off, so the ends are widened by a few ulps of T."""
    T = float(tg[-1])
    slack = 4.0 * np.finfo(float).eps * T
    i0 = int(np.searchsorted(tg, 0.25 * T - slack, side="left"))
    i1 = int(np.searchsorted(tg, 0.75 * T + slack, side="right"))
    return i0, i1


def fbm_fpke_residual(
    H: float,
    spec: SubordinatorSpec,
    density: GridDensity,
    *,
    x_exclude: float = 0.0,
) -> FbmResidualReport:
    """Field residual of the time-changed power-variance FPKE.

    Per interior x the memory derivative of the density column is compared
    with the gamma = 2H-1 operator applied to the spatial Laplacian's
    column; at H = 1/2 this degenerates to the Brownian check.  The
    columns share the time grid, so the double transform runs as dense
    real linear algebra over the field: per dyadic block, the kernel times
    dz is contracted into the transform matrix of the mirrored line's
    upper half first, and the (nodes x times) result maps every Laplacian
    column at once (``_image``); the de Hoog continued fraction then sums
    all of a block's times together.  The operator is causal but sampled
    columns end at the grid's horizon T, so only the rows with
    0.25 T <= t <= 0.75 T are compared (``_time_window``), which keeps the
    evaluation away from both the rough start and the truncated end on
    any increasing grid, and bands of max(3, n_x // 12) points keep it off
    the x boundaries.  The l2 norm over the window weights row i by
    (t_{i+1} - t_{i-1}) / 2.
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
    n_x = q.shape[1]
    dx = x[1] - x[0]
    nb = max(3, n_x // 12)
    cols = np.arange(nb, n_x - nb)
    if x_exclude > 0.0:
        # the density has a ray of reduced smoothness at the origin where
        # second differences are not classical
        cols = cols[np.abs(x[cols]) > x_exclude]

    lap = (q[:, cols - 1] - 2.0 * q[:, cols] + q[:, cols + 1]) / dx**2
    dbeta = caputo_l1_columns(tg, q[:, cols], ((beta, 1.0),))

    op = GOperator(beta, 2.0 * H - 1.0)
    i_start, i_stop = _time_window(tg)
    t_eval = tg[i_start:i_stop]
    gvals = _dehoog_values(op, (tg, lap), 0.0, t_eval, ContourConfig.degree,
                           1e-10, g_tail=2.0)

    resid = dbeta[i_start:i_stop] - H * gvals
    # each row's trapezoid weight: half the span of its two neighbours
    tp = np.concatenate([tg[:1], tg, tg[-1:]])
    w = 0.5 * (tp[2:] - tp[:-2])[i_start:i_stop]
    l2 = np.sqrt(w @ (resid * resid))
    linf = np.abs(resid).max(axis=0)
    return FbmResidualReport(x[cols], l2, linf,
                             (float(t_eval[0]), float(t_eval[-1])))
