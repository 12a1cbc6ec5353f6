"""Gaussian-process catalog: covariances, variance data, sampling, densities.

Every model exposes the same small surface: the two-argument covariance
R(s, t), the variance R(t) with its derivative, Laplace data for the
variance, and enough structure for exact joint sampling.  What makes a
model useful downstream is its *variance function*; the transition density
of a centered Gaussian process depends on nothing else.

The Laplace data has one form, the tagged tuple ``laplace_profile()`` of
R~'(u), the transform of R' (power, OU-rational or a weighted sum; ``None``
without a closed form), read only here: by ``profile_derivative`` and
``profile_decay`` for the nonlocal operators, and by ``variance_laplace``.

The normal density is written once, in ``gaussian_transition_density``:
at one time, or at an array of times with a row per time, which is how
the subordination integral reads it on its clock nodes.  Its rules (a
negative time is refused, a zero variance raises) hold for every caller.

Models:

* ``Brownian``            R(s,t) = min(s,t)
* ``FractionalBrownian``  R(s,t) = (s^2H + t^2H - |s-t|^2H)/2
* ``Mixed``               finite combination sum a_l X_l (independent)
* ``OrnsteinUhlenbeck``   stationary-kernel Ito integral, R'(t)=sigma^2 e^{-2at}
* ``VariableHurst``       Volterra kernel with t-dependent Hurst exponent
* ``PiecewiseHurst``      independent fBm increments glued at breakpoints
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.integrate import quad
from scipy.special import beta as beta_fn, hyp2f1

from .errors import DegenerateDensityError, NumericsError
from .fraccalc import laplace_forward
from .subordinators import SeededRng

__all__ = [
    "Brownian",
    "FractionalBrownian",
    "Mixed",
    "OrnsteinUhlenbeck",
    "VariableHurst",
    "PiecewiseHurst",
    "MobiusHurst",
    "PolynomialHurst",
    "MeanFunction",
    "GaussianSpec",
    "PathEnsemble",
    "covariance",
    "variance_and_derivative",
    "variance_laplace",
    "sample_gaussian_paths",
    "gaussian_transition_density",
    "calibrate_volterra_constant",
]


# ---------------------------------------------------------------------------
# Hurst functions for the variable-Hurst model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MobiusHurst:
    """H(t) = a + b t / (1 + t); smooth ramp from a to a + b."""

    a: float
    b: float

    def __call__(self, t):
        return self.a + self.b * t / (1.0 + t)

    def deriv(self, t):
        return self.b / (1.0 + t) ** 2

    def to_json(self):
        return {"preset": "mobius", "a": self.a, "b": self.b}


@dataclass(frozen=True)
class PolynomialHurst:
    """H(t) = sum c_k t^k."""

    coeffs: tuple[float, ...]

    def __call__(self, t):
        return sum(c * t**k for k, c in enumerate(self.coeffs))

    def deriv(self, t):
        return sum(k * c * t ** (k - 1) for k, c in enumerate(self.coeffs) if k)

    def to_json(self):
        return {"preset": "poly", "coeffs": list(self.coeffs)}


# ---------------------------------------------------------------------------
# Volterra kernel machinery (variable Hurst)
# ---------------------------------------------------------------------------

def _kernel_core(H: float, t: float, r: float) -> float:
    """int_r^t (u-r)^{H-3/2} u^{H-1/2} du; the kernel without c_H r^{1/2-H}.

    Euler's integral for 2F1 gives, with a = H - 1/2 and w = r/t,
    core = (t(t-r))^a / a * 2F1(-a, 1; a+1; 1-w).  As w -> 0 the argument
    of that 2F1 tends to 1, where ``hyp2f1`` loses digits (1.6e-7 relative
    at H = 0.51, w = 1e-12), so for w < 1/4 the z -> 1 connection formula
    is used; its second 2F1 collapses to (1-w)^-a, leaving
    core = t^{2a}/a * [(1-w)^a 2F1(-a, 1; 1-2a; w) / 2
                       + Gamma(a+1) Gamma(-2a) / Gamma(-a) * w^{2a}].
    """
    if r >= t:
        return 0.0
    a = H - 0.5
    w = r / t
    if w < 0.25:
        tail = math.gamma(a + 1.0) * math.gamma(-2.0 * a) / math.gamma(-a)
        f = (0.5 * (1.0 - w) ** a * hyp2f1(-a, 1.0, 1.0 - 2.0 * a, w)
             + tail * w ** (2.0 * a))
        return float(t ** (2.0 * a) / a * f)
    return float((t * (t - r)) ** a / a * hyp2f1(-a, 1.0, a + 1.0, 1.0 - w))


@lru_cache(maxsize=None)
def _volterra_norm(H: float) -> float:
    """int_0^1 r^{1-2H} core(H,1,r)^2 dr = B(2-2H, H-1/2) / (H (2H-1))
    (c_H = this to the -1/2).

    Calibration imposes int_0^1 K_H(1,r)^2 dr = 1; the constant is then
    verified against the two-argument covariance at (s, t) = (1, 2), which
    the calibration never saw.  Both run once per H.
    """
    val = beta_fn(2.0 - 2.0 * H, H - 0.5) / (H * (2.0 * H - 1.0))
    c = 1.0 / math.sqrt(val)
    got = c * c * _volterra_product(H, H, 2.0, 1.0)
    want = 0.5 * (1.0 + 2.0 ** (2 * H) - 1.0)
    if abs(got - want) > 1e-5 * abs(want):
        raise NumericsError(
            f"calibration verification failed at H={H}: {got} vs {want}"
        )
    return val


def calibrate_volterra_constant(H: float) -> float:
    """Kernel constant c_H fixed by matching the variance at t = 1, and
    verified at (s, t) = (1, 2); computed once per H."""
    if not 0.5 < H < 1.0:
        raise ValueError("variable-Hurst kernels need H in (1/2, 1)")
    return 1.0 / math.sqrt(_volterra_norm(H))


def _volterra_product(Ht: float, Hs: float, t: float, s: float) -> float:
    """int_0^s r^{1-Ht-Hs} core(Ht,t,r) core(Hs,s,r) dr for s <= t: the
    covariance without its kernel constants c_Ht c_Hs."""
    return quad(
        lambda r: _kernel_core(Ht, t, r) * _kernel_core(Hs, s, r),
        0.0,
        s,
        weight="alg",
        wvar=(1.0 - Ht - Hs, 0.0),
        epsabs=1e-13,
        epsrel=1e-10,
        limit=200,
    )[0]


def _volterra_cov(model: "VariableHurst", s: float, t: float) -> float:
    if s > t:
        s, t = t, s
    if s <= 0.0:
        return 0.0
    Ht = model.hurst(t)
    Hs = model.hurst(s)
    ct = calibrate_volterra_constant(Ht)
    cs = calibrate_volterra_constant(Hs)
    return ct * cs * _volterra_product(Ht, Hs, t, s)


# ---------------------------------------------------------------------------
# covariance models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Brownian:
    kind = "brownian"

    def cov(self, s, t):
        return np.minimum(s, t)

    def var(self, t):
        return np.asarray(t, dtype=float)

    def dvar(self, t):
        return np.ones_like(np.asarray(t, dtype=float))

    small_time_exponent = 1.0

    def laplace_profile(self):
        # R~'(u) = 1/u
        return ("power", 1.0, 1.0)

    def to_json(self):
        return {"kind": "brownian"}


@dataclass(frozen=True)
class FractionalBrownian:
    hurst: float
    kind = "fbm"

    def __post_init__(self):
        if not 0.0 < self.hurst < 1.0:
            raise ValueError("Hurst parameter must lie in (0, 1)")

    def cov(self, s, t):
        h2 = 2.0 * self.hurst
        s = np.asarray(s, dtype=float)
        t = np.asarray(t, dtype=float)
        return 0.5 * (s**h2 + t**h2 - np.abs(s - t) ** h2)

    def var(self, t):
        return np.asarray(t, dtype=float) ** (2.0 * self.hurst)

    def dvar(self, t):
        h2 = 2.0 * self.hurst
        return h2 * np.asarray(t, dtype=float) ** (h2 - 1.0)

    @property
    def small_time_exponent(self):
        return 2.0 * self.hurst

    def laplace_profile(self):
        # R~'(u) = Gamma(2H+1) u^{-2H}
        h2 = 2.0 * self.hurst
        return ("power", math.gamma(h2 + 1.0), h2)

    def to_json(self):
        return {"kind": "fbm", "h": self.hurst}


@dataclass(frozen=True)
class OrnsteinUhlenbeck:
    """Centered OU: sigma int_0^t e^{-alpha(t-u)} dB_u (alpha = 0 is sigma B)."""

    alpha: float
    sigma: float
    kind = "ou"

    def __post_init__(self):
        if self.alpha < 0.0 or self.sigma <= 0.0:
            raise ValueError("need alpha >= 0 and sigma > 0")

    def cov(self, s, t):
        s = np.asarray(s, dtype=float)
        t = np.asarray(t, dtype=float)
        if self.alpha == 0.0:
            return self.sigma**2 * np.minimum(s, t)
        a = self.alpha
        # expm1: e^x - 1 keeps its digits as t -> 0
        return (
            self.sigma**2
            / (2.0 * a)
            * np.exp(-a * (s + t))
            * np.expm1(2.0 * a * np.minimum(s, t))
        )

    def var(self, t):
        t = np.asarray(t, dtype=float)
        if self.alpha == 0.0:
            return self.sigma**2 * t
        return self.sigma**2 / (2.0 * self.alpha) * -np.expm1(
            -2.0 * self.alpha * t)

    def dvar(self, t):
        t = np.asarray(t, dtype=float)
        return self.sigma**2 * np.exp(-2.0 * self.alpha * t)

    small_time_exponent = 1.0

    def laplace_profile(self):
        # R~'(u) = sigma^2 / (u + 2 alpha)
        return ("ou", self.alpha, self.sigma)

    def to_json(self):
        return {"kind": "ou", "alpha": self.alpha, "sigma": self.sigma}


@dataclass(frozen=True)
class Mixed:
    """sum_l a_l X_l with independent centered parts: R = sum a_l^2 R_l."""

    terms: tuple[tuple[float, object], ...]
    kind = "mixed"

    def __post_init__(self):
        if len(self.terms) == 0:
            raise ValueError("mixed model needs at least one term")
        if all(a == 0.0 for a, _ in self.terms):
            raise ValueError("mixed model needs a nonzero coefficient "
                             "(all zero is the zero process)")

    def cov(self, s, t):
        return sum(a * a * m.cov(s, t) for a, m in self.terms)

    def var(self, t):
        return sum(a * a * m.var(t) for a, m in self.terms)

    def dvar(self, t):
        return sum(a * a * m.dvar(t) for a, m in self.terms)

    @property
    def small_time_exponent(self):
        return min(m.small_time_exponent for _, m in self.terms)

    def laplace_profile(self):
        parts = []
        for a, m in self.terms:
            p = m.laplace_profile()
            if p is None:
                return None
            parts.append((a * a, p))
        return ("sum", tuple(parts))

    def to_json(self):
        return {
            "kind": "mixed",
            "terms": [{"coef": a, "model": m.to_json()} for a, m in self.terms],
        }


@dataclass(frozen=True)
class VariableHurst:
    """Volterra process with slowly varying Hurst exponent H(t) in (1/2, 1).

    The covariance comes from the kernel representation with H replaced by
    H(t) in the first slot; the variance is t^{2 H(t)} exactly.  ``horizon``
    bounds the usable time range (the kernel definition is consistent
    across horizons, so this is a promise about usage, not semantics).
    """

    hurst: MobiusHurst | PolynomialHurst
    horizon: float = 4.0
    kind = "variable_hurst"

    def __post_init__(self):
        ts = np.linspace(1e-6, self.horizon, 64)
        hs = np.array([self.hurst(u) for u in ts])
        if np.any(hs <= 0.5) or np.any(hs >= 1.0):
            raise ValueError("H(t) must stay inside (1/2, 1) on the horizon")

    def cov(self, s, t):
        return _volterra_cov(self, float(s), float(t))

    def var(self, t):
        t = np.asarray(t, dtype=float)
        return np.where(t > 0.0, t ** (2.0 * np.vectorize(self.hurst)(t)), 0.0)

    def dvar(self, t):
        t = np.asarray(t, dtype=float)
        h = np.vectorize(self.hurst)(t)
        dh = np.vectorize(self.hurst.deriv)(t)
        return t ** (2.0 * h) * (2.0 * h / t + 2.0 * dh * np.log(t))

    @property
    def small_time_exponent(self):
        return 2.0 * self.hurst(1e-9)

    def laplace_profile(self):
        return None

    def to_json(self):
        return {"kind": "variable_hurst", "horizon": self.horizon,
                **self.hurst.to_json()}


@dataclass(frozen=True)
class PiecewiseHurst:
    """Independent fBm increments with Hurst H_k on [T_k, T_{k+1}).

    The path glues increments of independent fractional Brownian motions,
    one per segment, so increments in different segments are independent
    while within-segment correlation is the fBm one (started afresh at the
    segment's left edge).  The covariance below follows mechanically.
    """

    breakpoints: tuple[float, ...]
    hursts: tuple[float, ...]
    kind = "piecewise_hurst"

    def __post_init__(self):
        if len(self.hursts) != len(self.breakpoints) + 1:
            raise ValueError("need one more Hurst value than breakpoints")
        if any(not 0.0 < h < 1.0 for h in self.hursts):
            raise ValueError("Hurst values must lie in (0, 1)")
        bp = self.breakpoints
        if any(b <= 0 for b in bp) or any(
            b2 <= b1 for b1, b2 in zip(bp, bp[1:])
        ):
            raise ValueError("breakpoints must be positive and increasing")

    def _edges(self):
        return (0.0,) + self.breakpoints

    def segment(self, t: float) -> int:
        edges = self._edges()
        k = int(np.searchsorted(np.asarray(edges), t, side="right")) - 1
        return min(max(k, 0), len(self.hursts) - 1)

    def _var_to_edge(self, k: int) -> float:
        """Variance accumulated over completed segments 0..k-1."""
        edges = self._edges() + (math.inf,)
        total = 0.0
        for j in range(k):
            total += (edges[j + 1] - edges[j]) ** (2.0 * self.hursts[j])
        return total

    def cov(self, s, t):
        s, t = float(min(s, t)), float(max(s, t))
        if s <= 0.0:
            return 0.0
        a, b = self.segment(s), self.segment(t)
        edges = self._edges() + (math.inf,)
        total = self._var_to_edge(a)
        Ta = edges[a]
        h2 = 2.0 * self.hursts[a]
        if a == b:
            total += 0.5 * (
                (s - Ta) ** h2 + (t - Ta) ** h2 - (t - s) ** h2
            )
        else:
            Tnext = edges[a + 1]
            total += 0.5 * (
                (s - Ta) ** h2 + (Tnext - Ta) ** h2 - (Tnext - s) ** h2
            )
        return total

    def var(self, t):
        t = np.asarray(t, dtype=float)
        if t.ndim == 0:
            return self.cov(float(t), float(t))
        return np.array([self.var(float(u)) for u in t])

    def dvar(self, t):
        t = np.asarray(t, dtype=float)
        if t.ndim == 0:
            tt = float(t)
            if any(abs(tt - b) < 1e-12 for b in self.breakpoints):
                raise ValueError(f"variance not differentiable at t={tt}")
            k = self.segment(tt)
            Ta = self._edges()[k]
            h2 = 2.0 * self.hursts[k]
            return h2 * (tt - Ta) ** (h2 - 1.0)
        return np.array([self.dvar(float(u)) for u in t])

    @property
    def small_time_exponent(self):
        return 2.0 * self.hursts[0]

    def laplace_profile(self):
        return None

    def to_json(self):
        return {
            "kind": "piecewise_hurst",
            "breakpoints": list(self.breakpoints),
            "values": list(self.hursts),
        }


# ---------------------------------------------------------------------------
# module-level operations (spec surface)
# ---------------------------------------------------------------------------

def covariance(model, s: float, t: float) -> float:
    if s < 0 or t < 0:
        raise ValueError("covariance arguments must be nonnegative")
    return float(model.cov(s, t))


def variance_and_derivative(model, t: float) -> tuple[float, float]:
    if t <= 0.0:
        raise ValueError("t must be positive")
    return float(model.var(t)), float(model.dvar(t))


def _has_power(profile) -> bool:
    if profile[0] == "sum":
        return any(_has_power(q) for _, q in profile[1])
    return profile[0] == "power"


def _profile_value(profile, u, logu):
    kind = profile[0]
    if kind == "power":
        return profile[1] * np.exp(-profile[2] * logu)
    if kind == "ou":  # ("ou", alpha, sigma)
        return profile[2] * profile[2] / (u + 2.0 * profile[1])
    return sum(a2 * _profile_value(q, u, logu) for a2, q in profile[1])


def profile_derivative(profile, u, log):
    """R~'(u) from a Laplace profile, elementwise in u.

    ``log`` gives the branch of log u the power terms use (the operators
    take the principal branch, which their contour never leaves).  It is
    called at most once, and only when the profile has a power term.  The
    recursion is a module-level function, not a closure: a closure that
    calls itself is a reference cycle, which keeps each call's u and log u
    arrays alive until the cyclic collector runs.
    """
    logu = log(u) if _has_power(profile) else None
    return _profile_value(profile, u, logu)


def profile_decay(profile) -> float:
    """Algebraic exponent e of R~'(u) ~ |u|^-e as |u| -> inf."""
    kind = profile[0]
    if kind == "power":
        return profile[2]
    if kind == "ou":
        return 1.0
    return min(profile_decay(q) for _, q in profile[1])


def variance_laplace(model, s: complex) -> tuple[complex, complex]:
    """(R~(s), R~'(s)); the variance transform is R~'(s)/s since R(0)=0.

    Every variance in the catalog grows at most polynomially, so the
    transforms exist for Re s > 0.  Models without a Laplace profile
    (variable and piecewise Hurst) get one numeric forward transform.
    """
    s = complex(s)
    if s.real <= 0.0:
        raise ValueError("Re s must exceed the abscissa 0")
    profile = model.laplace_profile()
    if profile is None:
        rv, _ = laplace_forward(lambda u: float(model.var(u)), s)
        return rv, s * rv
    rp = complex(profile_derivative(profile, s, np.log))
    return rp / s, rp


# ---------------------------------------------------------------------------
# joint sampling and densities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MeanFunction:
    """Mean m(t) with derivative, for models with deterministic drift."""

    m: Callable[[float], float]
    dm: Callable[[float], float]


@dataclass(frozen=True)
class GaussianSpec:
    """Independent components, each a covariance model, optional means."""

    components: tuple[object, ...]
    means: tuple[MeanFunction | None, ...] | None = None

    def __post_init__(self):
        if len(self.components) < 1:
            raise ValueError("need at least one component")
        if self.means is not None and len(self.means) != len(self.components):
            raise ValueError("means must match components")

    @classmethod
    def univariate(cls, model, mean: MeanFunction | None = None):
        return cls((model,), (mean,) if mean is not None else None)

    @property
    def dimension(self) -> int:
        return len(self.components)

    def mean_at(self, j: int, t):
        if self.means is None or self.means[j] is None:
            return np.zeros_like(np.asarray(t, dtype=float))
        return np.vectorize(self.means[j].m)(t)


@dataclass(frozen=True)
class PathEnsemble:
    """Sampled paths on a common grid; shape (n_paths, n_times, dimension)."""

    grid: np.ndarray
    paths: np.ndarray
    seed: SeededRng | None = None

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        paths = np.asarray(self.paths, dtype=float)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "paths", paths)
        if paths.ndim != 3 or paths.shape[1] != len(grid):
            raise ValueError("paths must be (n_paths, n_times, dimension)")
        if not np.all(np.isfinite(paths)):
            raise ValueError("paths must be finite")

    @property
    def n_paths(self) -> int:
        return self.paths.shape[0]

    def component(self, j: int = 0) -> np.ndarray:
        return self.paths[:, :, j]


def _needs_scalar_cov(model) -> bool:
    """Whether ``model.cov`` takes scalar times only, as the variable- and
    piecewise-Hurst kernels do (and so a mixture holding one of them)."""
    kind = getattr(model, "kind", "")
    if kind == "mixed":
        return any(_needs_scalar_cov(m) for _, m in model.terms)
    return kind in ("variable_hurst", "piecewise_hurst")


def covariance_matrix(model, grid: np.ndarray) -> np.ndarray:
    g = np.asarray(grid, dtype=float)
    if _needs_scalar_cov(model):
        n = len(g)
        R = np.empty((n, n))
        for i in range(n):
            for j in range(i + 1):
                R[i, j] = R[j, i] = model.cov(g[i], g[j])
        return R
    return np.asarray(model.cov(g[:, None], g[None, :]), dtype=float)


def _checked_cholesky(R: np.ndarray) -> np.ndarray:
    trace = np.trace(R)
    eig_floor = -1e-10 * max(trace, 1e-30)
    w = np.linalg.eigvalsh(R)
    if w.min() < eig_floor:
        raise NumericsError(
            f"covariance matrix indefinite: min eig {w.min():.3e} "
            f"(floor {eig_floor:.3e})"
        )
    jitter = 0.0
    for _ in range(3):
        try:
            return np.linalg.cholesky(R + jitter * np.eye(len(R)))
        except np.linalg.LinAlgError:
            jitter = max(jitter * 10.0, 1e-13 * max(trace, 1e-30))
            if jitter > 1e-10 * max(trace, 1e-30):
                break
    raise NumericsError("Cholesky failed within the jitter budget")


def sample_gaussian_paths(
    spec: GaussianSpec, grid, n_paths: int, rng: SeededRng
) -> PathEnsemble:
    """Exact joint draws on the grid via Cholesky, per component.

    A leading grid point at 0 is pinned to X_0 = 0 (plus the mean).
    """
    grid = np.asarray(grid, dtype=float)
    if n_paths < 1:
        raise ValueError("n_paths must be at least 1")
    if np.any(np.diff(grid) <= 0) or grid[0] < 0:
        raise ValueError("grid must be strictly increasing and nonnegative")
    has_zero = grid[0] == 0.0
    tpos = grid[1:] if has_zero else grid
    gen = rng.generator()
    out = np.zeros((n_paths, len(grid), spec.dimension))
    for j, model in enumerate(spec.components):
        L = _checked_cholesky(covariance_matrix(model, tpos))
        z = gen.standard_normal((n_paths, len(tpos)))
        draws = z @ L.T
        out[:, 1 if has_zero else 0 :, j] = draws
        out[:, :, j] += spec.mean_at(j, grid)[None, :]
    return PathEnsemble(grid, out, seed=rng)


def gaussian_transition_density(spec: GaussianSpec, t, x) -> np.ndarray:
    """Product of centered (or mean-shifted) normal densities at time t.

    ``x`` is a point in n-space or an array of points (..., n); for n = 1 a
    bare scalar/vector is accepted.  ``t`` is one time, or a 1-D array of
    times, which gives one row per time: shape (len(t),) + points shape.
    A zero variance is a point mass, which has no density, and raises.
    """
    n = spec.dimension
    x = np.asarray(x, dtype=float)
    if n == 1 and (x.ndim == 0 or x.shape[-1] != 1):
        x = x[..., None]
    if x.shape[-1] != n:
        raise ValueError(f"points must have dimension {n}")
    t = np.asarray(t, dtype=float)
    if t.min() < 0.0:
        raise ValueError("t must be nonnegative")
    # models take t as given (some loop over a 1-D t); each row of their
    # values then broadcasts over the points
    rows = t.shape + (1,) * (x.ndim - 1) if t.ndim else ()
    dens = 1.0
    for j, model in enumerate(spec.components):
        v = np.asarray(model.var(t), dtype=float).reshape(rows)
        if not v.min() > 0.0:
            raise DegenerateDensityError(
                "transition law is a point mass (zero variance)"
            )
        # centered models skip the shift
        mu = spec.mean_at(j, t).reshape(rows) if spec.means else 0.0
        dens = dens * (np.exp(-((x[..., j] - mu) ** 2) / (2.0 * v))
                       / np.sqrt(2.0 * math.pi * v))
    return dens
