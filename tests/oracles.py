"""Independent oracles for the test suite.

Everything here is deliberately built on scipy/closed forms only, never on
the code paths being tested: brute-force quadratures of defining
integrals, the Fourier representation of the time-changed Brownian
density, and special-function identities.  The ``*_loop`` references are
the earlier, slower forms of library routines, kept to hold their batched
replacements to the same numbers; the per-time subordination reference
reuses the library's clock density, support probe and product density,
which are not what it checks, and checks only the batching over t.  The
``*_FROZEN`` tables are operator values recorded when every value became
a de Hoog inversion (degree 18, on the graded inner line).
The ``*_csv_cells`` writers are the artifact writers as they were when
every cell was formatted on its own: the byte contract of ``subdiff.io``.
``interp_transform_segments`` is the transform of a piecewise-linear
interpolant summed segment by segment, as it was before the transform
became one matrix, and ``transform_matrix`` is that matrix formed on
every point by differencing exponentials, as the library forms it on a
non-uniform grid; ``hat_transform_quadrature`` is that matrix by
Gauss-Legendre quadrature of the defining integral.
``riemann_liouville_integral`` is the fractional integral J^alpha of a
sampled function as the library once exported it: the L1 rule at order
-alpha (``caputo_l1_columns``), which ``rl_integral_loop`` holds to the
per-row closed form.  ``dehoog_full_line`` is the operator on sampled
columns as it was when the transform matrix was formed on every node of a
``linspace`` line and applied to the columns before the kernel, and
``field_residual_full_line`` is the field residual on that route.  The
``volterra_*_nested`` functions are the variable-Hurst covariance as it
was when the kernel core was an inner quadrature, and
``KERNEL_CORE_MPMATH`` holds that core to 40 digits.
``volterra_product_qawse`` is that covariance as it was before the
product rule: one QAWSE quadrature per entry over ``kernel_core_hyp2f1``,
the scalar closed-form core of that time.  ``piecewise_cov_loop`` is the
piecewise-Hurst covariance at one pair of times, summed segment by
segment, as it was before it took arrays.
``UNIT_CLOCK_MPMATH`` holds the inverse-stable density f_{E_1} to 30
digits, from the far left into the far tail.  ``kernel_unwrapped`` is the
operator kernel as it was when the whole array was built at once and its
log was unwrapped along the line (``unwrapped_log``), not taken on the
principal branch.  ``uniform_line`` is the inner line as it was before
the analytic de Hoog image took a graded one: the trapezoid of one step
on the sinh-stretched line, which the Stehfest and sampled images keep.
``mittag_leffler_neg`` is E_beta(-x) by QUADPACK on its spectral integral
in the tangent variable.  ``power_eigenvalue`` is the closed-form eigenvalue of
G on a power of t, and ``exp_transform`` and ``power_transform`` are the
analytic Laplace images of e^{-a t} and t^a that the operator tests feed
to G and Lambda.  ``bm_pure_clock_density``
is the closed form of Brownian motion on a pure clock, an M-Wright
function read from the library's clock density (itself held to the
mpmath table), which neither the subordination quadrature nor the L1
solve uses.  ``panel_integrals`` is the classical solver's step
coefficient as it was when theta was integrated over each step by an
8-point Gauss-Legendre rule, before the steps took half the increment of
the closed-form variance.  ``cn_laplacian_loop`` is the classical
Crank-Nicolson solve as it was before its steps ran at once in the sine
basis: one banded solve per step.
"""
import math

import numpy as np
from scipy.integrate import quad
from scipy.special import erfcx, gamma, hyp2f1
from scipy.stats import chi2


def caputo_quadrature(g_prime, t, beta):
    """Defining integral of the memory derivative, by adaptive quadrature."""
    val, _ = quad(
        lambda u: g_prime(u) * (t - u) ** (-beta),
        0.0,
        t,
        epsabs=1e-13,
        epsrel=1e-11,
        limit=400,
    )
    return val / gamma(1.0 - beta)


def mittag_leffler_neg(beta, x):
    """E_beta(-x) for x > 0 and 0 < beta < 1, by QUADPACK on

        E_beta(-x) = 1/(beta pi) int_{pi/2 - beta pi}^{pi/2}
                     exp(-[x (sin(beta pi) tan(theta) - cos(beta pi))]^(1/beta))
                     dtheta,

    the spectral integral of E_beta with its Lorentzian factor flattened by
    the tangent.  With phi = theta - (pi/2 - beta pi) the bracket is
    x sin(phi) / sin(beta pi - phi); the left half of the range runs in
    phi and the right half in psi = beta pi - phi, so that a scale far
    below 1 at either end stays resolved.  The integrand falls from 1 to 0
    where the bracket passes 1; each half is split where the bracket is
    10^k, k = -12..3, so the pieces grade toward both ends, and the range
    ends where e^-u underflows.
    """
    bp = math.pi * beta
    sa, ca = math.sin(bp), math.cos(bp)

    def left(phi):
        return math.exp(-((x * math.sin(phi) / math.sin(bp - phi))
                          ** (1.0 / beta)))

    def right(psi):
        return math.exp(-((x * math.sin(bp - psi) / math.sin(psi))
                          ** (1.0 / beta)))

    def pieces(pts):
        pts = sorted(pts)
        return zip(pts, pts[1:])

    mid = 0.5 * bp
    ws = [10.0**k / x for k in range(-12, 4)]  # bracket x w = 10^k
    phis = [math.atan2(w * sa, 1.0 + w * ca) for w in ws]
    psis = [math.atan2(sa, w + ca) for w in ws]
    top = math.atan2(sa, 750.0**beta / x + ca)  # beyond, below e^-750
    total = 0.0
    for f, lo, cuts in ((left, 0.0, phis), (right, top, psis)):
        for a, b in pieces({lo, mid, *(c for c in cuts if lo < c < mid)}):
            total += quad(f, a, b, epsabs=0.0, epsrel=1e-12, limit=200)[0]
    return total / bp


def caputo_l1_loop(t, y, beta):
    """L1 Caputo derivative written one grid row at a time.

    The slow per-row reference for the library's blocked weight matrix:
    out[i] = sum_k slope_k ((t_i - t_k)^(1-b) - (t_i - t_{k+1})^(1-b))
    / Gamma(2 - b) on any increasing grid.
    """
    n = len(t)
    out = np.zeros(n)
    slopes = np.diff(y) / np.diff(t)
    c = 1.0 / gamma(2.0 - beta)
    for i in range(1, n):
        ti = t[i]
        lo = (ti - t[1 : i + 1]) ** (1.0 - beta)
        hi = (ti - t[:i]) ** (1.0 - beta)
        out[i] = c * np.dot(slopes[:i], hi - lo)
    return out


def dehoog_table_loop(F, t, M, n_batch, *, tmax=None, tol=1e-12):
    """de Hoog/Knight/Stokes inversion from the full quotient-difference table.

    The slow reference for the library's rolling inverter: the whole QD
    table is held as (n_batch, 2M+1, M+1) and (n_batch, 2M, M) complex
    arrays, and the continued fraction as (n_batch, 2M+2) arrays per time.
    ``F`` maps contour nodes to (n_batch, len(s)); returns (n_batch, len(t)).
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    T = 2.0 * (tmax if tmax is not None else float(t.max()))
    gam = -math.log(tol) / (2.0 * T)
    NP = 2 * M + 1
    p = gam + 1j * np.pi * np.arange(NP) / T
    fp = np.asarray(F(p))
    if fp.ndim == 1:
        fp = fp[None, :]
    fp = fp.astype(complex)
    tiny = np.finfo(float).tiny * 1e4
    fp = np.where(np.abs(fp) < tiny, tiny, fp)

    e = np.zeros((n_batch, NP, M + 1), dtype=complex)
    q = np.zeros((n_batch, 2 * M, M), dtype=complex)
    q[:, 0, 0] = fp[:, 1] / (fp[:, 0] / 2.0)
    q[:, 1:, 0] = fp[:, 2:] / fp[:, 1:-1]
    for r in range(1, M + 1):
        mr = 2 * (M - r) + 1
        e[:, :mr, r] = q[:, 1 : mr + 1, r - 1] - q[:, :mr, r - 1] + e[:, 1 : mr + 1, r - 1]
        if r < M:
            rq = r + 1
            mr = 2 * (M - rq) + 3
            denom = e[:, :mr, rq - 1]
            denom = np.where(np.abs(denom) < tiny, tiny, denom)
            q[:, :mr, rq - 1] = (
                q[:, 1 : mr + 1, rq - 2] * e[:, 1 : mr + 1, rq - 1] / denom
            )
    d = np.zeros((n_batch, NP), dtype=complex)
    d[:, 0] = fp[:, 0] / 2.0
    for r in range(1, M + 1):
        d[:, 2 * r - 1] = -q[:, 0, r - 1]
        d[:, 2 * r] = -e[:, 0, r]
    out = np.empty((n_batch, len(t)))
    for j, tj in enumerate(t.tolist()):
        A = np.zeros((n_batch, NP + 1), dtype=complex)
        B = np.ones((n_batch, NP + 1), dtype=complex)
        A[:, 1] = d[:, 0]
        z = complex(np.exp(1j * np.pi * tj / T))
        for i in range(1, 2 * M):
            A[:, i + 1] = A[:, i] + d[:, i] * A[:, i - 1] * z
            B[:, i + 1] = B[:, i] + d[:, i] * B[:, i - 1] * z
        brem = (1.0 + (d[:, 2 * M - 1] - d[:, 2 * M]) * z) / 2.0
        rem = brem * (np.sqrt(1.0 + d[:, 2 * M] * z / (brem * brem)) - 1.0)
        A[:, NP] = A[:, 2 * M] + rem * A[:, 2 * M - 1]
        B[:, NP] = B[:, 2 * M] + rem * B[:, 2 * M - 1]
        out[:, j] = (math.exp(gam * tj) / T) * (A[:, NP] / B[:, NP]).real
    return out


def transform_matrix(t, s):
    """T with T @ y the Laplace transform of the linear interpolant of
    (t, y) on the points s, formed on every point from the differences of
    the exponentials e_j = exp(-s t_j): with
    d_j = (e_j - e_{j+1}) / (s^2 (t_{j+1} - t_j)) a sample's coefficient is
    e_0/s - d_0 at the left end, d_{j-1} - d_j inside and d_{n-1} - e_n/s
    at the right end."""
    sc = np.asarray(s, dtype=complex)[:, None]
    e = np.exp(-sc * t[None, :])
    d = (e[:, :-1] - e[:, 1:]) / (sc * sc * np.diff(t)[None, :])
    T = np.empty_like(e)
    T[:, 0] = e[:, 0] / sc[:, 0] - d[:, 0]
    T[:, 1:-1] = d[:, :-1] - d[:, 1:]
    T[:, -1] = d[:, -1] - e[:, -1] / sc[:, 0]
    return T


def hat_transform_quadrature(t, s, n_nodes=16):
    """``transform_matrix`` by quadrature: every cell [t_j, t_{j+1}] is cut
    into a power of two of panels, each at most 1 / |s| wide, and each
    panel integrated by the n_nodes-point Gauss-Legendre rule.  exp(-s t)
    is factored at the panel's left end p, exp(-s p) exp(-s (t - p)), so
    that no phase larger than about 1 is rounded once s p is exact (s and
    the grid with few significant bits)."""
    from numpy.polynomial.legendre import leggauss

    u, wu = leggauss(n_nodes)
    u, wu = 0.5 * (u + 1.0), 0.5 * wu
    out = np.zeros((len(s), len(t)), dtype=complex)
    for i, si in enumerate(np.asarray(s, dtype=complex)):
        for j in range(len(t) - 1):
            h = t[j + 1] - t[j]
            P = 2 ** max(math.ceil(math.log2(abs(si) * h)), 0)
            k = np.arange(P)[:, None]
            ends = t[j] + (h / P) * k
            e = np.exp(-si * ends) * np.exp(-si * (h / P) * u)[None, :]
            right = (k + u[None, :]) / P  # (t - t_j) / h at the nodes
            out[i, j] += (h / P) * np.sum(e * (1.0 - right) * wu)
            out[i, j + 1] += (h / P) * np.sum(e * right * wu)
    return out


def dehoog_full_line(op, tg, cols, t_eval, M, tol, *, g_tail=1.0):
    """``lambdaop._dehoog_values`` on sampled columns by the full-line route.

    The inner line is a ``linspace`` over [-vmax, vmax]; per dyadic block
    of times the transform matrix is formed on every node of the block's
    scaled line and applied to the columns, then the kernel contracts the
    result, in that order.  A kernel with a degree is built once and
    scaled; any other is built per scale.  The library's kernel and de
    Hoog inverter are used as they are.  Returns (len(t_eval), n_cols).
    """
    from subdiff.fraccalc import _dehoog_batch, _dehoog_contour
    from subdiff.lambdaop import (ContourConfig, _kernel_degree,
                                  _kernel_on_line, _vmax_for)

    cc = ContourConfig
    t_top = float(t_eval.max())
    blocks = {}
    for idx, t in enumerate(t_eval):
        blocks.setdefault(max(int(math.floor(math.log2(t_top / t))), 0),
                          []).append(idx)
    s = _dehoog_contour(t_top, M, tol)[2]
    C = cc.offset_ratio * float(s.real.min())
    vmax = _vmax_for(op, g_tail)
    spacing = cc.node_spacing * (1.0 - cc.offset_ratio) / 2.0
    n_half = max(int(vmax / spacing), 400)
    v = np.linspace(-vmax, vmax, 2 * n_half + 1)
    zeta = C + 1j * np.sinh(v)
    dzeta = 1j * np.cosh(v) * (v[1] - v[0])
    degree = _kernel_degree(op)
    kern = None if degree is None else _kernel_on_line(op, s, zeta)
    out = np.empty((len(t_eval), cols.shape[1]))
    for b, idxs in blocks.items():
        r = 2.0**b
        gz = (transform_matrix(tg, r * zeta) @ cols) * dzeta[:, None]
        if degree is None:
            phi = r * (_kernel_on_line(op, r * s, r * zeta) @ gz)
        else:
            phi = r ** (1.0 + degree) * (kern @ gz)
        fold = np.exp(op.fold_power * np.log(r * s))
        F = 0.5 / (2j * np.pi) * fold * phi.T
        out[idxs] = _dehoog_batch(lambda p, F=F: F, t_eval[idxs], M,
                                  cols.shape[1], tmax=t_top / r, tol=tol).T
    return out


def field_residual_full_line(H, spec, density, *, x_exclude=0.0):
    """``lambdaop.fbm_fpke_residual`` by the full-line route
    (``dehoog_full_line``).

    The window, the columns and the library's kernel and de Hoog inverter
    are the residual's own.  Returns a dict with the window's times ``t``,
    row weights ``w`` = (t_{i+1} - t_{i-1}) / 2, the Laplacian columns
    ``lap`` (every row), the memory derivative ``dbeta`` and operator
    values ``g`` on the window, and ``resid``.
    """
    from subdiff.fraccalc import caputo_l1_columns
    from subdiff.lambdaop import ContourConfig, GOperator, _time_window

    beta = spec.components[0][0]
    tg, x, q = density.t_grid, density.x_grid, density.values
    n_x = q.shape[1]
    nb = max(3, n_x // 12)
    cols = np.arange(nb, n_x - nb)
    if x_exclude > 0.0:
        cols = cols[np.abs(x[cols]) > x_exclude]
    dx = x[1] - x[0]
    lap = (q[:, cols - 1] - 2.0 * q[:, cols] + q[:, cols + 1]) / dx**2
    dbeta = caputo_l1_columns(tg, q[:, cols], ((beta, 1.0),))
    i0, i1 = _time_window(tg)
    t_eval = tg[i0:i1]
    op = GOperator(beta, 2.0 * H - 1.0)
    g = dehoog_full_line(op, tg, lap, t_eval, ContourConfig.degree, 1e-10,
                         g_tail=2.0)
    tp = np.concatenate([tg[:1], tg, tg[-1:]])
    return {"t": t_eval, "w": 0.5 * (tp[2:] - tp[:-2])[i0:i1], "lap": lap,
            "dbeta": dbeta[i0:i1], "g": g, "resid": dbeta[i0:i1] - H * g}


def unwrapped_log(w):
    """log w continuous along the line's axis (last), anchored at its
    centre, by ``np.unwrap`` from the centre outward."""
    aw = np.angle(w)
    mid = w.shape[-1] // 2
    left = np.unwrap(aw[..., mid::-1], axis=-1)[..., ::-1]
    right = np.unwrap(aw[..., mid:], axis=-1)
    aw_cont = np.concatenate([left[..., :-1], right], axis=-1)
    return np.log(np.abs(w)) + 1j * aw_cont


def kernel_unwrapped(op, s, z):
    """``lambdaop._kernel_on_line(op, s, z)`` as one full-size build with
    the log unwrapped along the line."""
    from subdiff.gaussian import profile_derivative

    rho_s = op.sub.laplace_exponent(s)[:, None]
    rho_z = op.sub.laplace_exponent(z)[None, :]
    m = (op.sub.components[0][0] if op.sub.is_pure
         else op.sub.order_mixture(z)[None, :])
    return profile_derivative(op.profile, rho_s - rho_z, unwrapped_log) * m


def uniform_line(C, spacing, vmax):
    """Nodes C + i sinh(v) and weights i cosh(v) h at v = k h, |k| <= n,
    h = vmax / n, n = max(int(vmax / spacing), 400), built on v >= 0 and
    mirrored."""
    n_half = max(int(vmax / spacing), 400)
    h = vmax / n_half
    v = np.arange(n_half + 1) * h
    y, w = np.sinh(v), np.cosh(v) * h
    z = C + 1j * np.concatenate([-y[:0:-1], y])
    dz = 1j * np.concatenate([w[:0:-1], w])
    return z, dz


def power_eigenvalue(beta, gam, a):
    """c(a) with G[t^a](t) = c(a) t^(a + beta gam) for the G operator of
    order beta and index gam (a > -1).  At a = 0 it is the constant
    input's Gamma(1+gam) / Gamma(1+beta gam)."""
    return (math.gamma(1.0 + a) * math.gamma(1.0 + gam + a / beta)
            / (math.gamma(1.0 + a / beta) * math.gamma(1.0 + a + beta * gam)))


def exp_transform(a: float = 1.0):
    """Transform of e^{-a t}."""
    from subdiff.lambdaop import AnalyticTransform

    return AnalyticTransform(lambda z: 1.0 / (z + a),
                             max_singularity_real=-a)


def power_transform(a: float):
    """Transform of t^a (a > -1).

    Taken as g exp(-(a+1) log z): numpy raises an integer power of z by
    repeated products, and z^3 overflows where the inner line reaches
    |z| ~ 1e108 (beta 0.1), although z^-3 only underflows."""
    from subdiff.lambdaop import AnalyticTransform

    g = math.gamma(a + 1.0)
    return AnalyticTransform(lambda z: g * np.exp(-(a + 1.0) * np.log(z)))


def interp_transform_segments(t, y, s):
    """Laplace transform of the linear interpolant of (t, y) on the points
    s, one closed-form segment integral per column, summed."""
    s = s[:, None]
    a = t[:-1][None, :]
    b = t[1:][None, :]
    ya = y[:-1][None, :]
    yb = y[1:][None, :]
    m = (yb - ya) / (b - a)
    ea = np.exp(-s * a)
    eb = np.exp(-s * b)
    term = (ea * ya - eb * yb) / s + m * (ea - eb) / (s * s)
    return term.sum(axis=1)


def riemann_liouville_integral(g, alpha):
    """J^alpha g by product quadrature, exact for piecewise-linear g.

    This is the L1 rule at order -alpha: J^alpha g = g(0) t^alpha /
    Gamma(alpha+1) + J^(alpha+1) g', and with g' piecewise constant the
    last term is exactly ``caputo_l1_columns`` with beta = -alpha, whose
    weights integrate the kernel in closed form on every cell, so the
    endpoint singularity at tau = t costs nothing.
    """
    from subdiff.fraccalc import SampledFunction, caputo_l1_columns

    a = float(alpha)
    if a <= 0.0:
        raise ValueError("alpha must be positive")
    t = g.grid
    y = g.values
    memory = caputo_l1_columns(t, y[:, None], ((-a, 1.0),))[:, 0]
    return SampledFunction(t, memory + y[0] * t**a / math.gamma(a + 1.0))


def rl_integral_loop(t, y, alpha):
    """Riemann-Liouville integral J^alpha of the linear interpolant, by rows.

    The slow per-row reference for the library's blocked product
    quadrature: each row integrates (t_i - tau)^(alpha-1) in closed form
    against the interpolant on every cell below t_i.
    """
    a = float(alpha)
    n = len(t)
    out = np.zeros(n)
    slopes = np.diff(y) / np.diff(t)
    inv_gamma = 1.0 / gamma(a)
    for i in range(1, n):
        ti = t[i]
        bb = ti - t[:i]          # upper kernel argument per cell
        aa = ti - t[1 : i + 1]   # lower
        pa = (bb**a - aa**a) / a
        pa1 = (bb ** (a + 1.0) - aa ** (a + 1.0)) / (a + 1.0)
        # int u^{a-1} (g_left + m (b - u)) du over [aa, bb]
        out[i] = inv_gamma * np.dot(y[:i], pa) + inv_gamma * np.dot(
            slopes[:i], bb * pa - pa1
        )
    return out


def l1_uniform_solve(beta, coefficient, x, t_max, n_t):
    """Implicit L1 stepping for D^beta q = c q_xx on a uniform time grid.

    Written without the library's weight builder: the memory weights are
    the closed-form uniform-grid ones b_k = ((k+1)^(1-b) - k^(1-b)) h^-b /
    Gamma(2-b), the Laplacian is a dense three-point matrix with zero
    Dirichlet rows, and every step is a dense solve of
    (b_0 - A) q_m = b_0 q_{m-1} - sum_{k<m-1} b_{m-1-k} (q_{k+1} - q_k).
    The delta starts split over the two nodes around 0, which keeps mass
    and first moment exact.  Returns the (n_t + 1, len(x)) solution.
    """
    n = len(x)
    dx = x[1] - x[0]
    h = t_max / n_t
    k = np.arange(n_t, dtype=float)
    b = ((k + 1.0) ** (1.0 - beta) - k ** (1.0 - beta)) * h**-beta / gamma(
        2.0 - beta
    )
    inner = np.arange(1, n - 1)
    A = np.zeros((n, n))
    A[inner, inner - 1] = A[inner, inner + 1] = coefficient / dx**2
    A[inner, inner] = -2.0 * coefficient / dx**2
    M = b[0] * np.eye(n) - A
    M[[0, -1]] = 0.0
    M[0, 0] = M[-1, -1] = 1.0
    q = np.zeros((n_t + 1, n))
    j = int(np.searchsorted(x, 0.0)) - 1
    wl = x[j + 1] / (x[j + 1] - x[j])
    q[0, j], q[0, j + 1] = wl / dx, (1.0 - wl) / dx
    for m in range(1, n_t + 1):
        memory = b[1:m][::-1] @ np.diff(q[:m], axis=0)
        rhs = b[0] * q[m - 1] - memory
        rhs[0] = rhs[-1] = 0.0
        q[m] = np.linalg.solve(M, rhs)
    return q


def panel_integrals(fn, edges) -> np.ndarray:
    """int fn over each panel between consecutive ``edges``, by the
    8-point Gauss-Legendre rule, one scalar call of fn per node."""
    from subdiff.fraccalc import _gauss_panels

    nodes, w = _gauss_panels(edges, 8)
    return (w * np.array([fn(u) for u in nodes])).reshape(-1, 8).sum(axis=1)


def ou_flux_rows_loop(alpha, sigma, x):
    """Tridiagonal rows of the flux-form OU operator, one node at a time."""
    n = len(x)
    dx = x[1] - x[0]
    D = 0.5 * sigma * sigma
    xh = 0.5 * (x[:-1] + x[1:])
    vh = -alpha * xh
    lo = np.zeros(n)
    di = np.zeros(n)
    up = np.zeros(n)
    for i in range(1, n - 1):
        up[i] = -(vh[i] / 2.0 - D / dx) / dx
        di[i] = -(vh[i] / 2.0 + D / dx) / dx + (vh[i - 1] / 2.0 - D / dx) / dx
        lo[i] = (vh[i - 1] / 2.0 + D / dx) / dx
    return lo, di, up


def cn_laplacian_loop(out, x, c):
    """Crank-Nicolson steps of d_t p = theta(t) p_xx from ``out[0]`` into
    ``out[1:]``, one banded solve per step, where ``c[k-1]`` is the integral
    of theta over step k and p is 0 on the two boundary nodes.

    The tridiagonal loop as it was before every step ran at once in the
    sine basis: step k solves (I - c_k L / 2) p_k = (I + c_k L / 2) p_{k-1}
    on the interior nodes, with L the central second difference, which
    reads the boundary values of ``out[0]`` on the first step.
    """
    from scipy.linalg import solve_banded

    inv_dx2 = 1.0 / (x[1] - x[0]) ** 2
    p = out[0]
    for k, ck in enumerate(c, 1):
        h = 0.5 * ck * inv_dx2
        bands = np.empty((3, len(x) - 2))
        bands[0], bands[1], bands[2] = -h, 1.0 + 2.0 * h, -h
        rhs = p[1:-1] + h * (p[:-2] - 2.0 * p[1:-1] + p[2:])
        p = np.zeros(len(x))
        p[1:-1] = solve_banded((1, 1), bands, rhs)
        out[k] = p


def bm_pure_clock_density(beta, t, x):
    """Density of B(E_t) on the pure beta clock, in closed form.

    B(E_t) = t^(beta/2) E_1^(1/2) Z in law, whose density is the M-Wright
    function of order beta/2 (Mainardi, Mura & Pagnini, Int. J. Differ.
    Equ. 2010): q(t, x) = M_{beta/2}(sqrt(2) |x| / s) / (sqrt(2) s) with
    s = t^(beta/2), and M_nu = f_{E_1} of the nu clock.
    """
    from subdiff.subordinators import unit_clock_density

    s = t ** (beta / 2.0)
    u = math.sqrt(2.0) * np.abs(np.asarray(x, dtype=float)) / s
    return unit_clock_density(beta / 2.0, u) / (math.sqrt(2.0) * s)


def inverse_half_density(t, tau):
    """Closed-form clock density at stability 1/2."""
    return (np.pi * t) ** -0.5 * np.exp(-(tau**2) / (4.0 * t))


def subordinated_bm_half(t, x):
    """Time-changed BM density at beta = 1/2 by direct quadrature."""
    def integrand(u):
        return (
            inverse_half_density(t, u)
            * np.exp(-(x * x) / (2.0 * u))
            / np.sqrt(2.0 * np.pi * u)
        )

    val, _ = quad(integrand, 0.0, 14.0 * np.sqrt(t),
                  epsabs=1e-14, epsrel=1e-13, limit=400)
    return val


def fourier_ml_bm_half(t, x):
    """Fourier route to the same density via E_{1/2}(-u) = erfcx(u).

    q(t, x) = (1/pi) int_0^inf cos(k x) erfcx(a k^2) dk with a = sqrt(t)/2.
    The transform decays only like c/k^2, c = 1/(a sqrt(pi)), too slowly
    for QUADPACK's Fourier rule, so its tail c/(b^2 + k^2) +
    c b^2/(b^2 + k^2)^2 is taken off and transformed in closed form: the
    two integrate against cos(k x) to pi c e^(-b x) (3 + b x) / (4 b).
    The remainder decays like k^-6, and b^2 = 2c makes it vanish at k = 0.
    """
    a = np.sqrt(t) / 2.0
    x = abs(x)
    c = 1.0 / (a * np.sqrt(np.pi))
    b2 = 2.0 * c
    b = np.sqrt(b2)

    def rest(k):
        return erfcx(a * k * k) - c / (b2 + k * k) - c * b2 / (b2 + k * k) ** 2

    if x < 1e-12:
        val, _ = quad(rest, 0.0, np.inf, epsabs=1e-13, epsrel=1e-12,
                      limit=400)
    else:
        val, _ = quad(rest, 0.0, np.inf, weight="cos", wvar=x,
                      epsabs=1e-13, epsrel=1e-12, limit=400)
    return val / np.pi + c * np.exp(-b * x) * (3.0 + b * x) / (4.0 * b)


def subordinated_ou(t, x, alpha, sigma, beta, clock_density):
    """Subordinated OU density by direct quadrature over a clock density."""
    def integrand(u):
        v = sigma**2 / (2.0 * alpha) * (1.0 - np.exp(-2.0 * alpha * u))
        return clock_density(u) * np.exp(-(x * x) / (2.0 * v)) / np.sqrt(
            2.0 * np.pi * v
        )

    val, _ = quad(integrand, 1e-12, 60.0, epsabs=1e-12, epsrel=1e-10,
                  limit=400)
    return val


def panel_rule_loop(u_max, n_panels):
    """Composite 12-point Gauss-Legendre rule built one panel at a time:
    the reference for the library's array-built graded panel rule."""
    from numpy.polynomial.legendre import leggauss

    xg, wg = leggauss(12)
    edges = u_max * (np.linspace(0.0, 1.0, n_panels + 1) ** 2)
    nodes, weights = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        nodes.append(0.5 * (b - a) * xg + 0.5 * (a + b))
        weights.append(0.5 * (b - a) * wg)
    return np.concatenate(nodes), np.concatenate(weights)


def subordinate_slice_loop(spec, t, pts):
    """Mixing integral at one time, with its own clock nodes at that time:
    the per-time reference for the library's batched quadrature over t.
    Returns (values, clock-mass defect)."""
    from subdiff.config import QUADRATURE_TOL
    from subdiff.errors import QuadratureError
    from subdiff.gaussian import gaussian_transition_density
    from subdiff.timechange import _clock_support, clock_density_fast

    n = pts.shape[1]
    e_min = min(m.small_time_exponent for m in spec.gauss.components)
    sing = 0.5 * n * e_min  # p(tau, 0) ~ tau^{-sing}
    if sing >= 1.0 and np.any(np.all(pts == 0.0, axis=1)):
        raise QuadratureError(
            "subordinated density diverges at the origin for n*e/2 >= 1"
        )
    kappa = float(math.ceil(1.0 / max(1.0 - sing, 0.25)) + 1)

    tau_star = _clock_support(spec.sub, [t])[0]
    u_max = tau_star ** (1.0 / kappa)

    prev = None
    for n_panels in (16, 32, 64, 128):
        u, wu = panel_rule_loop(u_max, n_panels)
        taus = u**kappa
        jac = kappa * u ** (kappa - 1.0)
        f = clock_density_fast(spec.sub, t, taus)
        clock_w = wu * jac * f
        P = gaussian_transition_density(spec.gauss, taus, pts)
        vals = clock_w @ P
        if prev is not None:
            err = np.max(np.abs(vals - prev))
            # clock values carry inversion noise ~10x the quadrature target
            if err <= max(1e-9,
                          10.0 * QUADRATURE_TOL * max(vals.max(), 1e-12)):
                break
        prev = vals
    else:
        raise QuadratureError("subordination quadrature did not stabilize")
    return np.maximum(vals, 0.0), abs(1.0 - float(clock_w.sum()))


def subordinated_profile_loop(spec, x, horizon, n_nodes):
    """(t_grid, q(t, x) samples) of the Laplace identity's time profile,
    one quadrature per profile node through ``subordinate_slice_loop``."""
    tg = np.concatenate([[0.0], horizon * np.geomspace(1e-5, 1.0, n_nodes)])
    pts = np.atleast_2d(np.asarray(x, dtype=float)).reshape(1, -1)
    vals = np.empty_like(tg)
    vals[0] = 0.0
    for i, t in enumerate(tg[1:], start=1):
        vals[i] = float(subordinate_slice_loop(spec, t, pts)[0][0])
    return tg, vals


def chi_square_gof(samples, cdf, bins=50, alpha=0.01, lo_q=0.001, hi_q=0.999):
    """Equal-probability-bin chi-square test; returns (stat, critical)."""
    qs = np.linspace(lo_q, hi_q, bins + 1)
    # invert the cdf numerically on a fine grid
    xs = np.linspace(np.min(samples) - 1.0, np.max(samples) + 1.0, 4001)
    cds = np.array([cdf(x) for x in xs])
    edges = np.interp(qs, cds, xs)
    counts, _ = np.histogram(samples, bins=edges)
    n_eff = counts.sum()
    expected = n_eff / bins
    stat = float(np.sum((counts - expected) ** 2 / expected))
    return stat, float(chi2.ppf(1.0 - alpha, bins - 1))


def mc_laplace_check(draws, s, target, n_se=3.0):
    """(deviation in standard errors, passed) of E[exp(-s X)] vs target."""
    vals = np.exp(-s * draws)
    se = vals.std(ddof=1) / np.sqrt(len(vals))
    dev = (vals.mean() - target) / se
    return float(dev), abs(dev) <= n_se



def format_float(x: float) -> str:
    return "%.17g" % float(x)


def paths_csv_cells(ensemble) -> str:
    """path_id,t,value rows (value_1..value_n columns for n > 1)."""
    n_dim = ensemble.paths.shape[2]
    if n_dim == 1:
        header = "path_id,t,value"
    else:
        header = "path_id,t," + ",".join(
            f"value_{j + 1}" for j in range(n_dim)
        )
    lines = [header]
    for p in range(ensemble.paths.shape[0]):
        for i, t in enumerate(ensemble.grid):
            vals = ",".join(
                format_float(ensemble.paths[p, i, j]) for j in range(n_dim)
            )
            lines.append(f"{p},{format_float(t)},{vals}")
    return "\n".join(lines) + "\n"


def grid_density_csv_cells(gd) -> str:
    lines = ["t,x,q"]
    for i, t in enumerate(gd.t_grid):
        for j, x in enumerate(gd.x_grid):
            lines.append(
                f"{format_float(t)},{format_float(x)},"
                f"{format_float(gd.values[i, j])}"
            )
    return "\n".join(lines) + "\n"

# Operator values on t = FROZEN_T.  G_ON_ONE_FROZEN is keyed by (beta,
# gamma) on the constant input 1; G_ON_EXP_FROZEN is G at beta 0.5, gamma
# 0.4 on e^{-t}; LAMBDA_ON_ONE_FROZEN is keyed by (model, clock) for the
# models Brownian, fBm H 0.7, OU (1, 1) and 1 fBm(0.7) + 0.5 OU(1, 1), on
# the pure clock beta 0.5 and the mixture 0.5 E^0.4 + 0.5 E^0.8.
FROZEN_T = (0.5, 1.0, 2.0)
G_ON_ONE_FROZEN = {
    (0.1, -0.5): (1.7790033992503642, 1.718404012616711,
                  1.6598688635567236),
    (0.1, 0.4): (0.8820194684141287, 0.9068164108563883,
                 0.9323104902400976),
    (0.5, -0.5): (1.7200799747639108, 1.4464090847286468,
                  1.216280214338749),
    (0.5, 0.4): (0.8412484334931152, 0.9663406916973646,
                 1.1100339629194602),
    (0.9, -0.5): (1.4981789213470025, 1.096731164355668,
                  0.8028542050153132),
    (0.9, 0.4): (0.7766081238306588, 0.9967189783820035,
                 1.2792149494479004),
}
G_ON_EXP_FROZEN = (0.39277698105486436, 0.16409906036576585,
                   -0.08288618083034781)
LAMBDA_ON_ONE_FROZEN = {
    ("bm", "pure"): (0.3989422804192568, 0.28209479178647373,
                     0.1994711402096284),
    ("bm", "mixture"): (0.4703962456330997, 0.34513692139457314,
                        0.24733685397946323),
    ("fbm", "pure"): (0.5890695914672373, 0.47847318728984767,
                      0.3886409929683891),
    ("fbm", "mixture"): (0.6556409340060179, 0.5764098873388789,
                         0.4907582992500635),
    ("ou", "pure"): (0.06273827795591007, 0.02669911546367106,
                     0.01064985759689175),
    ("ou", "mixture"): (0.08130205142361502, 0.029583942163076436,
                        0.010026491808290119),
    ("mixed", "pure"): (0.6047541609562105, 0.48514796615575684,
                        0.3913034573675854),
    ("mixed", "mixture"): (0.67596644686182, 0.5838058728796902,
                           0.4932649222021289),
}


def _kernel_core_nested(H, t, r):
    if r >= t:
        return 0.0
    return quad(lambda u: u ** (H - 0.5), r, t, weight="alg",
                wvar=(H - 1.5, 0.0), epsabs=1e-13, epsrel=1e-10,
                limit=200)[0]


def volterra_product_nested(Ht, Hs, t, s):
    """int_0^s r^{1-Ht-Hs} core(Ht,t,r) core(Hs,s,r) dr for s <= t."""
    return quad(
        lambda r: _kernel_core_nested(Ht, t, r) * _kernel_core_nested(Hs, s, r),
        0.0, s, weight="alg", wvar=(1.0 - Ht - Hs, 0.0), epsabs=1e-13,
        epsrel=1e-10, limit=200,
    )[0]


def volterra_norm_nested(H):
    """int_0^1 r^{1-2H} core(H,1,r)^2 dr."""
    return quad(lambda r: _kernel_core_nested(H, 1.0, r) ** 2, 0.0, 1.0,
                weight="alg", wvar=(1.0 - 2.0 * H, 0.0), epsabs=1e-12,
                epsrel=1e-9, limit=200)[0]


def volterra_cov_nested(hurst, s, t):
    """Variable-Hurst covariance R(s, t), 0 < s <= t, from the nested
    quadratures."""
    Ht, Hs = hurst(t), hurst(s)
    return volterra_product_nested(Ht, Hs, t, s) / math.sqrt(
        volterra_norm_nested(Ht) * volterra_norm_nested(Hs))


def kernel_core_hyp2f1(H, t, r):
    """int_r^t (u-r)^{H-3/2} u^{H-1/2} du at one point: with a = H - 1/2
    and w = r/t, Euler's (t(t-r))^a / a 2F1(-a, 1; a+1; 1-w), or for
    w < 1/4 its z -> 1 connection formula t^{2a}/a [(1-w)^a 2F1(-a, 1;
    1-2a; w) / 2 + Gamma(a+1) Gamma(-2a) / Gamma(-a) w^{2a}]."""
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


def volterra_product_qawse(Ht, Hs, t, s):
    """int_0^s r^{1-Ht-Hs} core(Ht,t,r) core(Hs,s,r) dr for s <= t, one
    adaptive QAWSE quadrature (the algebraic weight r^{1-Ht-Hs} exact)."""
    return quad(
        lambda r: kernel_core_hyp2f1(Ht, t, r) * kernel_core_hyp2f1(Hs, s, r),
        0.0, s, weight="alg", wvar=(1.0 - Ht - Hs, 0.0), epsabs=1e-13,
        epsrel=1e-10, limit=200,
    )[0]


def piecewise_cov_loop(model, s, t):
    """PiecewiseHurst covariance at one pair of times: the variance of the
    completed segments before min(s, t), plus the fBm covariance of the
    shared increment over min(s, t)'s own segment."""
    s, t = min(s, t), max(s, t)
    if s <= 0.0:
        return 0.0
    edges = (0.0,) + tuple(model.breakpoints) + (math.inf,)
    a, b = (sum(bp <= u for bp in model.breakpoints) for u in (s, t))
    total = 0.0
    for j in range(a):
        total += (edges[j + 1] - edges[j]) ** (2.0 * model.hursts[j])
    h2 = 2.0 * model.hursts[a]
    right = t if a == b else edges[a + 1]
    Ta = edges[a]
    return total + 0.5 * ((s - Ta) ** h2 + (right - Ta) ** h2
                          - (right - s) ** h2)


# core(H, 1, r) = int_r^1 (u-r)^{H-3/2} u^{H-1/2} du keyed by (H, r), at
# the binary values of the float literals, to 40 digits: mpmath at 50-digit
# precision through 2F1(-a, 1; a+1; 1-r) (1-r)^a / a, a = H - 1/2, which
# agreed to 1e-50 with mpmath's tanh-sinh quadrature of the integral.
KERNEL_CORE_MPMATH = {
    (0.51, 0.0): "49.99999999999995559107901499377782609999",
    (0.51, 1e-12): "78.78153448988045682734507650189197650794",
    (0.51, 1e-06): "87.9414507770753312261913142104959234914",
    (0.51, 0.01): "95.60550595884938289495625319722974120975",
    (0.51, 0.5): "98.63130865573216395637678662441352213813",
    (0.51, 0.999): "93.32450561012724790671073504534622490882",
    (0.6, 0.0): "5.000000000000001110223024625156786942665",
    (0.6, 1e-12): "5.020631106591894494770582398983668930597",
    (0.6, 1e-06): "5.326979878921670246320142913489051240849",
    (0.6, 0.01): "7.05181286198605350324278797165323337985",
    (0.6, 0.5): "8.771260593293812306871966306193298975027",
    (0.6, 0.999): "5.011416516127363887559127862638704557003",
    (0.75, 0.0): "2.0",
    (0.75, 1e-12): "2.000002622056054292119783658185996994619",
    (0.75, 1e-06): "2.002620557553854619510581028712357577002",
    (0.75, 0.01): "2.247161763180883812559270475013286193264",
    (0.75, 0.5): "2.948335158885016563452822983362542361133",
    (0.75, 0.999): "0.7111694542164310943102902316215645809337",
    (0.9, 0.0): "1.249999999999999930611060960927720075383",
    (0.9, 1e-12): "1.250000000855824628924427762621608275014",
    (0.9, 1e-06): "1.250051188174702110980923709612935752308",
    (0.9, 0.01): "1.305842279562164184591289484793995876488",
    (0.9, 0.5): "1.578592990804232863678697728810681169011",
    (0.9, 0.999): "0.1576942564658990152762458718664169627317",
    (0.99, 0.0): "1.02040816326530614094498999792014261637",
    (0.99, 1e-12): "1.020408163284487373909347799710506082348",
    (0.99, 1e-06): "1.020416557446280057638325899267212410413",
    (0.99, 0.01): "1.047289773831360096218973028005868460167",
    (0.99, 0.5): "1.18219906860983226584067771935426198702",
    (0.99, 0.999): "0.06912912272144810672632638880966927499126",
}


# f_{E_1}(u) of the pure beta-stable clock keyed by (beta, u), at the binary
# values of the float literals, to 30 digits.  For u <= 1: the M-Wright
# series sum_k (-u)^k / (k! Gamma(1 - beta(k+1))) in mpmath at 50 and at 70
# digits.  For u > 1: mpmath's tanh-sinh quadrature of the Kanter-Zolotarev
# integral u^(b/(1-b)) / (pi (1-b)) int_0^pi A exp(-u^(1/(1-b)) A) dphi,
# split at pi 10^-j and pi (1 - 10^-j), at 40 and at 50 digits with
# different extra split points, and, where f > 1e-25 and u < 2.5, the
# series at 200 digits.  The evaluations agreed to 1e-31, and the
# beta = 1/2 values match exp(-u^2/4)/sqrt(pi) to 3e-30.  The tail points
# sit where u^(1/(1-b)) A(0+) is 2, 20, 100, 300, 560 and 700.
UNIT_CLOCK_MPMATH = {
    (0.1, 1e-06): "9.35777861976238736070640869313e-1",
    (0.1, 0.01): "9.27227758197027785984285904577e-1",
    (0.1, 0.3): "7.09924700007909742666836535621e-1",
    (0.1, 1.0): "3.70290462751490843345143781753e-1",
    (0.1, 2.583): "8.25064505605474983048787848777e-2",
    (0.1, 20.52): "6.08522326872980663599693708878e-10",
    (0.1, 87.33): "5.96129494108843188275109663944e-45",
    (0.1, 234.7): "5.64074291640601975809376621504e-132",
    (0.1, 411.7): "4.81050717698113226449862091252e-245",
    (0.1, 503.2): "7.65160818708344026316704720847e-306",
    (0.25, 1e-06): "8.1604837490881734115223962606e-1",
    (0.25, 0.01): "8.10420833961156622419510119681e-1",
    (0.25, 0.3): "6.59140418096679420808155733201e-1",
    (0.25, 1.0): "3.83335416570683535775233448597e-1",
    (0.25, 2.951): "6.50193096121762197550744860598e-2",
    (0.25, 16.6): "5.8247371995086055536211985214e-10",
    (0.25, 55.49): "7.13114909371688648228531926625e-45",
    (0.25, 126.5): "7.2878545166189279819063052884e-132",
    (0.25, 202.0): "7.89022717681061368202833324138e-245",
    (0.25, 238.8): "1.18268057425382297891802501467e-305",
    (0.4, 1e-06): "6.71504754617103229889579716313e-1",
    (0.4, 0.01): "6.69318179311871403387736103985e-1",
    (0.4, 0.3): "5.99637019918928018183095215758e-1",
    (0.4, 1.0): "4.10233594043826820157769700866e-1",
    (0.4, 2.971): "6.67946752525365744070901753797e-2",
    (0.4, 11.83): "8.12856694439474616590495194075e-10",
    (0.4, 31.07): "1.23170778233534432606871960369e-44",
    (0.4, 60.06): "1.51242042635870145967817931622e-131",
    (0.4, 87.34): "1.72018785017654418335082229805e-244",
    (0.4, 99.85): "2.71717604729603649177164485977e-305",
    (0.5, 1e-06): "5.64189583547615239552192530133e-1",
    (0.5, 0.01): "5.64175478984475368664467947818e-1",
    (0.5, 0.3): "5.51637063325411921706188202079e-1",
    (0.5, 1.0): "4.39391289467722397046861977412e-1",
    (0.5, 2.828): "7.64008892923867458214481088013e-2",
    (0.5, 8.944): "1.16429632775803686712848350877e-9",
    (0.5, 20.0): "2.09882811567720844504355997818e-44",
    (0.5, 34.64): "2.95613372125924658225058385758e-131",
    (0.5, 47.33): "3.4081606523241016300352737866e-244",
    (0.5, 52.92): "4.87679587027412232559158244145e-305",
    (0.6, 1e-06): "4.50824370981727804432908323231e-1",
    (0.6, 0.01): "4.52533297564634252866276668405e-1",
    (0.6, 0.3): "4.92850621232099543852605493245e-1",
    (0.6, 1.0): "4.83235433348061842096341967168e-1",
    (0.6, 2.586): "9.61297694369653400275265641408e-2",
    (0.6, 6.497): "1.82531541391060059009820005284e-9",
    (0.6, 12.37): "3.69002557514555675043169083927e-44",
    (0.6, 19.19): "6.62137222239184920880904795675e-131",
    (0.6, 24.64): "5.95761004020538621467874362032e-244",
    (0.6, 26.94): "9.28755317813680381661011401329e-305",
    (0.72, 1e-06): "3.10863223937472032074901416928e-1",
    (0.72, 0.01): "3.13640843348811607518750889752e-1",
    (0.72, 0.3): "4.0001943530339111748413947743e-1",
    (0.72, 1.0): "5.72704804661493901454982123194e-1",
    (0.72, 2.197): "1.48239428743284028017328016797e-1",
    (0.72, 4.186): "3.70670541960678659225928848073e-9",
    (0.72, 6.569): "9.64611670546199856446454294706e-44",
    (0.72, 8.935): "1.74220129388436861596490033681e-130",
    (0.72, 10.64): "3.17645520983733267746806406174e-243",
    (0.72, 11.33): "2.35560854435562176404801597534e-304",
    (0.78, 1e-06): "2.40936174596316765974280143755e-1",
    (0.78, 0.01): "2.43734264778831066052532475048e-1",
    (0.78, 0.3): "3.40298858508174210183864106444e-1",
    (0.78, 1.0): "6.48334888481844794228182461152e-1",
    (0.78, 1.973): "2.02025211716237893863244580792e-1",
    (0.78, 3.274): "5.76884676779428173804953179781e-9",
    (0.78, 4.665): "1.60680309383794284378894734775e-43",
    (0.78, 5.94): "3.21538588403798264505590960094e-130",
    (0.78, 6.815): "3.7037175990555544663750108553e-243",
    (0.78, 7.157): "8.90670789563556398162558576915e-304",
    (0.85, 1e-06): "1.60764885357462448522170633992e-1",
    (0.85, 0.01): "1.63126369374311057409099536355e-1",
    (0.85, 0.3): "2.55188952997005663784666793705e-1",
    (0.85, 1.0): "7.98621675266612712670767222233e-1",
    (0.85, 1.693): "3.32148631232090867880508824155e-1",
    (0.85, 2.392): "1.10502094905767136931484738132e-8",
    (0.85, 3.045): "3.48780796595644679712508353403e-43",
    (0.85, 3.59): "9.1831417455934242294589400141e-130",
    (0.85, 3.943): "9.22670937637623577188764453288e-243",
    (0.85, 4.077): "1.93142558721352897252169258398e-303",
    (0.9, 1e-06): "1.05113874871284018225819230455e-1",
    (0.9, 0.01): "1.0687637801054519383361150326e-1",
    (0.9, 0.3): "1.81940694507501658852662032742e-1",
    (0.9, 1.0): "1.00814674562127120442616125262",
    (0.9, 1.483): "5.54813268183894778343997814159e-1",
    (0.9, 1.868): "1.99486878082659525403570055798e-8",
    (0.9, 2.194): "6.28981426255773139376666355212e-43",
    (0.9, 2.448): "2.70374681997930688156660291279e-129",
    (0.9, 2.606): "3.33579450663662577565114907583e-242",
    (0.9, 2.665): "3.75732960883674316546077413562e-303",
    (0.94, 1e-06): "6.1936001795095600231338654834e-2",
    (0.94, 0.01): "6.30697246511320324282641177441e-2",
    (0.94, 0.3): "1.14848656125748334682795795175e-1",
    (0.94, 1.0): "1.37165866150995626161504691835",
    (0.94, 1.308): "1.02247425152384033783691905793",
    (0.94, 1.502): "4.10076651300266462126743817385e-8",
    (0.94, 1.654): "1.76516676890418036270993737011e-42",
    (0.94, 1.767): "2.22205342964794926242849352598e-129",
    (0.94, 1.834): "2.11796896353933234655015833933e-241",
    (0.94, 1.859): "8.93549068159276099190660705474e-303",
    (0.95, 1e-06): "5.13609378660408186206653008888e-2",
    (0.95, 0.01): "5.23196546393380711427514655173e-2",
    (0.95, 0.3): "9.68570105334198054813224800926e-2",
    (0.95, 1.0): "1.53611379922056168759905862772",
    (0.95, 1.263): "1.25008810387814293938354798537",
    (0.95, 1.417): "4.85781193322229723113775542935e-8",
    (0.95, 1.535): "3.21751800763792143859402142955e-42",
    (0.95, 1.622): "5.87198424421986309944769579522e-129",
    (0.95, 1.673): "1.91306899307717730789288984112e-240",
    (0.95, 1.692): "1.14700616609473321641543156244e-301",
}
