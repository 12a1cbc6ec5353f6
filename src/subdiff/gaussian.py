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
from functools import cache, lru_cache
from typing import Callable

import numpy as np
from scipy.special import beta as beta_fn, gamma, hyp2f1

from .errors import DegenerateDensityError, HurstRangeError, NumericsError
from .fraccalc import _leggauss, laplace_forward
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

def _core_parts(a, x, r):
    """(P, A) with core = P + A r^{2a} for w = r/x < 1/4 (a = H - 1/2).

    Euler's integral for 2F1 gives core = (x(x-r))^a / a * 2F1(-a, 1; a+1;
    1-w).  As w -> 0 that argument tends to 1, where ``hyp2f1`` loses
    digits (1.6e-7 relative at H = 0.51, w = 1e-12), so for w < 1/4 the
    z -> 1 connection formula is used; its second 2F1 collapses to
    (1-w)^-a, leaving core = x^{2a}/a * [(1-w)^a 2F1(-a, 1; 1-2a; w) / 2
    + Gamma(a+1) Gamma(-2a) / Gamma(-a) * w^{2a}].  The first term, P, is
    analytic in r for |r| < x; the second is A r^{2a} with A free of x.
    """
    w = r / x
    P = x ** (2.0 * a) / (2.0 * a) * (1.0 - w) ** a * hyp2f1(
        -a, 1.0, 1.0 - 2.0 * a, w)
    return P, gamma(a + 1.0) * gamma(-2.0 * a) / (gamma(-a) * a)


def _core_gap(a, x, gap):
    """core / gap^a = x^a / a * 2F1(-a, 1; a+1; gap/x), gap = x - r, for
    r/x >= 1/4: analytic in r up to r = x, where core vanishes like gap^a.
    ``gap`` is passed as a complement, so it keeps its digits near r = x."""
    return x ** a / a * hyp2f1(-a, 1.0, a + 1.0, gap / x)


def _kernel_core(H, x, r, gap=None):
    """int_r^x (u-r)^{H-3/2} u^{H-1/2} du, the kernel without c_H r^{1/2-H},
    elementwise; 0 for r >= x.  ``gap`` is x - r when the caller has it
    more accurately than the difference."""
    a, x, r = np.broadcast_arrays(np.asarray(H, dtype=float) - 0.5,
                                  np.asarray(x, dtype=float),
                                  np.asarray(r, dtype=float))
    gap = x - r if gap is None else np.broadcast_to(gap, a.shape)
    out = np.zeros(a.shape)
    small = r < 0.25 * x
    P, A = _core_parts(a[small], x[small], r[small])
    out[small] = P + A * r[small] ** (2.0 * a[small])
    big = ~small & (gap > 0.0)
    out[big] = gap[big] ** a[big] * _core_gap(a[big], x[big], gap[big])
    return out[()]


# One node set serves the whole rule: a Gauss-Legendre rule on [0, 1] of
# this size, used as it is and as the interpolation nodes of the product
# rules (see ``_jacobi_weights``).
_RULE_NODES = 16


@cache
def _rule_tables():
    """Nodes x_k and weights w_k of the Gauss-Legendre rule on [0, 1], and
    B[j, k] = (2j + 1) P~_j(x_k) w_k with P~_j the Legendre polynomials
    shifted to [0, 1]; built on first use, read-only."""
    y, w = _leggauss(_RULE_NODES)
    x, w = 0.5 * (y + 1.0), 0.5 * w
    P = np.polynomial.legendre.legvander(y, _RULE_NODES - 1).T
    B = (2 * np.arange(_RULE_NODES)[:, None] + 1) * P * w
    for arr in (x, w, B):
        arr.flags.writeable = False
    return x, w, B


def _jacobi_weights(mu):
    """W[..., k] with int_0^1 x^mu f(x) dx = sum_k W_k f(x_k) for every
    polynomial f of degree below the rule size, one row per exponent.

    A product rule (Piessens): f is replaced by its Legendre interpolant at
    the fixed nodes, and the weight x^mu is integrated exactly against each
    P~_j through the modified moments m_0 = 1/(mu+1),
    m_j = m_{j-1} (mu - j + 1)/(mu + j + 1).  Every exponent shares the
    nodes, so the rule vectorises over entries whose exponents all differ,
    and an analytic f converges geometrically for any mu > -1.
    """
    _, _, B = _rule_tables()
    mu = np.asarray(mu, dtype=float)[..., None]
    j = np.arange(1, _RULE_NODES)
    m = np.cumprod(np.concatenate(
        (1.0 / (mu + 1.0), (mu - j + 1.0) / (mu + j + 1.0)), axis=-1), axis=-1)
    return m @ B


def _volterra_products(Ht, Hs, t, s):
    """int_0^s r^{1-Ht-Hs} core(Ht,t,r) core(Hs,s,r) dr for 0 < s <= t,
    elementwise: the covariance without its kernel constants c_Ht c_Hs.

    With a_x = H_x - 1/2 and lambda = 1 - Ht - Hs in (-1, 0) the integral
    is split at s/4, and every piece is a fixed rule:

    * On [0, s/4] each core is P_x(r) + A_x r^{2 a_x} (``_core_parts``), so
      the integrand is four terms r^mu (analytic), mu in {lambda,
      lambda + 2a_t, lambda + 2a_s, lambda + 2a_t + 2a_s}, and each term
      gets its own Jacobi weight (``_jacobi_weights``).  One weight r^lambda
      would leave the factors r^{+-(Ht-Hs)}, and the rule would then
      converge only algebraically.
    * On [s/4, s], in u = s - r, the weight is u^{a_s}, or u^{2 a_s} when
      t = s.  The last panel [0, u_1] carries that weight; the others are
      dyadic, [u_1 2^k, u_1 2^{k+1}], and take the plain Gauss-Legendre
      rule.  There are at least two panels, so that r^lambda's singularity
      at r = 0 stays a panel width away, and when 0 < t - s < 3s/8 they
      halve down to u_1 <= t - s, since core_t ~ (t - r)^{a_t} branches at
      t - s beyond the last panel.  s - r and t - r = (t - s) + u enter the
      cores as complements, not as differences of r.

    Against adaptive QAWSE quadrature the rule agrees to within 5e-14
    relative for H in [0.51, 0.99] and t/s from 1 to 1e4.  A tanh-sinh
    rule would not do: in double precision its nodes stop near r = 1e-17 s,
    and the share of the weight's mass below that point, (1e-17)^{1+lambda},
    is 2% at H = 0.95 (lambda = -0.9).
    """
    Ht, Hs, t, s = (np.ravel(v) for v in np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (Ht, Hs, t, s))))
    x, w, _ = _rule_tables()
    at, as_ = Ht - 0.5, Hs - 0.5
    lam = -(at + as_)

    # [0, s/4]: four Jacobi-weighted terms at shared nodes r = (s/4) x_k
    c = 0.25 * s
    r = c[:, None] * x
    Pt, At = _core_parts(at[:, None], t[:, None], r)
    Ps, As = _core_parts(as_[:, None], s[:, None], r)
    head = 0.0
    for mu, f in ((lam, Pt * Ps), (lam + 2.0 * at, At * Ps),
                  (lam + 2.0 * as_, As * Pt), (-lam, At * As)):
        head = head + c ** (mu + 1.0) * np.sum(_jacobi_weights(mu) * f,
                                               axis=-1)

    # [s/4, s]: n_plain dyadic panels, then the weighted panel [0, u_1]
    eps = t - s
    n_plain = np.ones(len(s), dtype=int)
    near = (eps > 0.0) & (eps < 0.375 * s)
    n_plain[near] = np.ceil(np.log2(0.75 * s[near] / eps[near]))
    u1 = 0.75 * s * 0.5 ** n_plain
    owner = np.repeat(np.arange(len(s)), n_plain)
    k = np.arange(len(owner)) - np.repeat(np.cumsum(n_plain) - n_plain,
                                          n_plain)
    lo = u1[owner] * 2.0 ** k
    u = lo[:, None] * (1.0 + x)
    so, bo = s[owner, None], as_[owner, None]
    f = ((so - u) ** lam[owner, None]
         * _kernel_core(Ht[owner, None], t[owner, None], so - u,
                        eps[owner, None] + u)
         * u ** bo * _core_gap(bo, so, u))
    body = np.bincount(owner, lo * (f @ w), minlength=len(s))

    u = u1[:, None] * x
    same = eps == 0.0
    nu = np.where(same, 2.0 * as_, as_)
    ft = np.empty_like(u)
    ft[same] = _core_gap(at[same, None], t[same, None], u[same])
    ft[~same] = _kernel_core(Ht[~same, None], t[~same, None],
                             s[~same, None] - u[~same],
                             eps[~same, None] + u[~same])
    f = ((s[:, None] - u) ** lam[:, None] * ft
         * _core_gap(as_[:, None], s[:, None], u))
    tail = u1 ** (nu + 1.0) * np.sum(_jacobi_weights(nu) * f, axis=-1)
    return head + body + tail


def _volterra_norm_values(H):
    """int_0^1 r^{1-2H} core(H,1,r)^2 dr = B(2-2H, H-1/2) / (H (2H-1)),
    elementwise (c_H is this to the -1/2)."""
    return beta_fn(2.0 - 2.0 * H, H - 0.5) / (H * (2.0 * H - 1.0))


def _verify_norms(H, norm, check):
    """Raise unless c_H^2 * check, the product rule at (s, t) = (1, 2),
    is the fBm covariance R(1, 2) = 2^{2H}/2, which the calibration at
    t = 1 never saw."""
    got = check / norm
    want = 0.5 * 2.0 ** (2.0 * H)
    bad = np.abs(got - want) > 1e-5 * np.abs(want)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise NumericsError(f"calibration verification failed at "
                            f"H={H[i]}: {got[i]} vs {want[i]}")


def _check_hurst_range(H):
    if not np.all((H > 0.5) & (H < 1.0)):
        raise HurstRangeError("variable-Hurst kernels need H in (1/2, 1)")


@lru_cache(maxsize=None)
def _volterra_norm(H: float) -> float:
    """The closed-form norm at one H, verified once per H against the
    two-argument covariance at (s, t) = (1, 2)."""
    val = float(_volterra_norm_values(H))
    _verify_norms(np.array([H]), val, _volterra_products(H, H, 2.0, 1.0))
    return val


def calibrate_volterra_constant(H: float) -> float:
    """Kernel constant c_H fixed by matching the variance at t = 1, and
    verified at (s, t) = (1, 2); computed once per H."""
    _check_hurst_range(H)
    return 1.0 / math.sqrt(_volterra_norm(H))


def _volterra_cov(hurst, s, t):
    """R(s, t) of the variable-Hurst model, elementwise over broadcast s, t.

    Each distinct pair (min, max) of positive times is one entry of a
    single ``_volterra_products`` call, which also carries one calibration
    check (1, 2) per distinct Hurst value, so every entry and every check
    runs in one batch; the norms are closed forms.  A time <= 0 gives 0.
    """
    s, t = np.broadcast_arrays(np.asarray(s, dtype=float),
                               np.asarray(t, dtype=float))
    lo, hi = np.minimum(s, t), np.maximum(s, t)
    out = np.zeros(lo.shape)
    live = lo > 0.0
    pairs, inverse = np.unique(np.stack((lo[live], hi[live])), axis=1,
                               return_inverse=True)
    Hp = hurst(pairs)
    _check_hurst_range(Hp)
    Hu, hidx = np.unique(Hp, return_inverse=True)
    hidx = hidx.reshape(Hp.shape)
    m = pairs.shape[1]
    prod = _volterra_products(
        np.concatenate((Hp[1], Hu)), np.concatenate((Hp[0], Hu)),
        np.concatenate((pairs[1], np.full(len(Hu), 2.0))),
        np.concatenate((pairs[0], np.ones(len(Hu)))))
    norm = _volterra_norm_values(Hu)
    _verify_norms(Hu, norm, prod[m:])
    entries = prod[:m] / np.sqrt(norm[hidx[0]] * norm[hidx[1]])
    out[live] = entries[inverse.ravel()]
    return out[()]


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
        hs = self.hurst(np.linspace(1e-6, self.horizon, 64))
        if np.any(hs <= 0.5) or np.any(hs >= 1.0):
            raise ValueError("H(t) must stay inside (1/2, 1) on the horizon")

    def cov(self, s, t):
        return _volterra_cov(self.hurst, s, t)

    def var(self, t):
        """t^(2 H(t)); raises ``HurstRangeError`` where H leaves (1/2, 1)
        at a t > 0 (a clock may run past the horizon)."""
        t = np.asarray(t, dtype=float)
        h = np.asarray(self.hurst(t))
        _check_hurst_range(h[t > 0.0])
        return np.where(t > 0.0, t ** (2.0 * h), 0.0)

    def dvar(self, t):
        t = np.asarray(t, dtype=float)
        h = self.hurst(t)
        return t ** (2.0 * h) * (2.0 * h / t
                                 + 2.0 * self.hurst.deriv(t) * np.log(t))

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

    def segment(self, t):
        """Index of the segment holding t (elementwise)."""
        k = np.searchsorted(np.asarray(self._edges()), t, side="right") - 1
        return np.clip(k, 0, len(self.hursts) - 1)

    def cov(self, s, t):
        lo, hi = np.minimum(s, t), np.maximum(s, t)
        edges = np.array(self._edges() + (math.inf,))
        h2 = 2.0 * np.array(self.hursts)
        # variance accumulated over the completed segments 0..k-1
        done = np.concatenate(
            ([0.0], np.cumsum(np.diff(edges[:-1]) ** h2[:-1])))
        a = self.segment(lo)
        Ta, h = edges[a], h2[a]
        # the increment over segment a runs from Ta to hi, or to the next
        # edge when hi lies beyond it
        right = np.where(self.segment(hi) == a, hi, edges[a + 1])
        total = done[a] + 0.5 * ((lo - Ta) ** h + (right - Ta) ** h
                                 - (right - lo) ** h)
        return np.where(lo > 0.0, total, 0.0)

    def var(self, t):
        return self.cov(t, t)

    def dvar(self, t):
        t = np.asarray(t, dtype=float)
        near = np.abs(t[..., None] - np.array(self.breakpoints)) < 1e-12
        if near.any():
            tt = float(t[near.any(axis=-1)].flat[0])
            raise ValueError(f"variance not differentiable at t={tt}")
        k = self.segment(t)
        h2 = 2.0 * np.array(self.hursts)[k]
        return (h2 * (t - np.array(self._edges())[k]) ** (h2 - 1.0))[()]

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
        rv, _ = laplace_forward(model.var, s)
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


def covariance_matrix(model, grid: np.ndarray) -> np.ndarray:
    g = np.asarray(grid, dtype=float)
    return np.asarray(model.cov(g[:, None], g[None, :]), dtype=float)


def _checked_cholesky(R: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a covariance matrix, which certifies itself.

    A plain factorisation runs first, and when it succeeds its factor is
    returned as it is.  By Cholesky's backward-error bound (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2nd ed., Thm 10.3)
    a factorisation that runs to completion gives L L^T = R + dR with
    |dR| <= gamma_{n+1} |L| |L^T|, so ||dR||_2 <= gamma_{n+1} trace(R) to
    first order, with gamma_{n+1} = (n+1)u / (1 - (n+1)u) and u = 2^-53.
    Since L L^T is positive semidefinite, lambda_min(R) >=
    -gamma_{n+1} trace(R), which is above the indefiniteness floor
    -1e-10 trace(R) for every n below about 9e5.  So the eigenvalue check
    can only refuse a matrix whose factorisation failed, and it runs only
    then: below the floor the matrix is indefinite and raises; otherwise
    a diagonal jitter of 1e-13, then 1e-12, times the trace is tried.
    """
    try:
        return np.linalg.cholesky(R)
    except np.linalg.LinAlgError:
        pass
    scale = max(np.trace(R), 1e-30)
    eig_floor = -1e-10 * scale
    w = np.linalg.eigvalsh(R)
    if w.min() < eig_floor:
        raise NumericsError(
            f"covariance matrix indefinite: min eig {w.min():.3e} "
            f"(floor {eig_floor:.3e})"
        )
    for jitter in (1e-13 * scale, 1e-12 * scale):
        try:
            return np.linalg.cholesky(R + jitter * np.eye(len(R)))
        except np.linalg.LinAlgError:
            pass
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
