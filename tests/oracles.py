"""Independent oracles for the test suite.

Everything here is deliberately built on scipy/closed forms only, never on
the code paths being tested: brute-force quadratures of defining
integrals, the Fourier representation of the time-changed Brownian
density, and special-function identities.  The ``*_loop`` references are
the earlier, slower forms of library routines, kept to hold their batched
replacements to the same numbers; the per-time subordination reference
reuses the library's clock density, support probe and product density,
which are not what it checks, and checks only the batching over t.  The
``*_FROZEN`` tables are operator values recorded while G still had a
kernel of its own, before it became the power case of the Lambda kernel.
The ``*_csv_cells`` writers are the artifact writers as they were when
every cell was formatted on its own: the byte contract of ``subdiff.io``.
The ``volterra_*_nested`` functions are the variable-Hurst covariance as
it was when the kernel core was an inner quadrature, and
``KERNEL_CORE_MPMATH`` holds that core to 40 digits.
"""
import math

import numpy as np
from scipy.integrate import quad
from scipy.special import erfcx, gamma
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
    """Fourier route to the same density via E_{1/2}(-u) = erfcx(u)."""
    a = np.sqrt(t) / 2.0
    x = abs(x)
    f = lambda k: erfcx(a * k * k)  # noqa: E731
    if x < 1e-12:
        K = 25.0
        head, _ = quad(f, 0.0, K, epsabs=1e-13, epsrel=1e-12, limit=300)
        sp = np.sqrt(np.pi)
        tail = (
            (1.0 / (a * sp)) / K
            - (1.0 / (2.0 * a**3 * sp)) / (5.0 * K**5)
            + (3.0 / (4.0 * a**5 * sp)) / (9.0 * K**9)
        )
        return (head + tail) / np.pi
    val, _ = quad(f, 0.0, np.inf, weight="cos", wvar=x,
                  epsabs=1e-12, epsrel=1e-11, limit=400)
    return val / np.pi


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


def subordinate_slice_loop(spec, t, pts, config):
    """Mixing integral at one time, with its own clock nodes at that time:
    the per-time reference for the library's batched quadrature over t.
    Returns (values, clock-mass defect)."""
    from subdiff.errors import QuadratureError
    from subdiff.timechange import (_clock_support, _product_density,
                                    clock_density_fast)

    n = pts.shape[1]
    e_min = min(m.small_time_exponent for m in spec.gauss.components)
    sing = 0.5 * n * e_min  # p(tau, 0) ~ tau^{-sing}
    if sing >= 1.0 and np.any(np.all(pts == 0.0, axis=1)):
        raise QuadratureError(
            "subordinated density diverges at the origin for n*e/2 >= 1"
        )
    kappa = float(math.ceil(1.0 / max(1.0 - sing, 0.25)) + 1)

    tau_star = _clock_support(spec, t, config)
    u_max = tau_star ** (1.0 / kappa)

    prev = None
    for n_panels in (16, 32, 64):
        u, wu = panel_rule_loop(u_max, n_panels)
        taus = u**kappa
        jac = kappa * u ** (kappa - 1.0)
        f = clock_density_fast(spec.sub, t, taus, config=config)
        clock_w = wu * jac * f
        P = _product_density(spec.gauss, taus, pts)
        vals = clock_w @ P
        if prev is not None:
            err = np.max(np.abs(vals - prev))
            # clock values carry inversion noise ~10x the quadrature target
            if err <= max(1e-9,
                          10.0 * config.quadrature_tol * max(vals.max(), 1e-12)):
                break
        prev = vals
    else:
        raise QuadratureError("subordination quadrature did not stabilize")
    return np.maximum(vals, 0.0), abs(1.0 - float(clock_w.sum()))


def subordinated_profile_loop(spec, x, horizon, n_nodes, config):
    """(t_grid, q(t, x) samples) of the Laplace identity's time profile,
    one quadrature per profile node through ``subordinate_slice_loop``."""
    tg = np.concatenate([[0.0], horizon * np.geomspace(1e-5, 1.0, n_nodes)])
    pts = np.atleast_2d(np.asarray(x, dtype=float)).reshape(1, -1)
    vals = np.empty_like(tg)
    vals[0] = 0.0
    for i, t in enumerate(tg[1:], start=1):
        vals[i] = float(subordinate_slice_loop(spec, t, pts, config)[0][0])
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
    for p in range(ensemble.n_paths):
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
    (0.1, -0.5): (1.7790033172385293, 1.7184039437280225,
                  1.65986880825678),
    (0.1, 0.4): (0.8820194756457459, 0.9068164170819988,
                 0.9323104972086099),
    (0.5, -0.5): (1.7200792210807772, 1.4464084497986525,
                  1.216279681971625),
    (0.5, 0.4): (0.8412483653628838, 0.9663406128453182,
                 1.1100338726776153),
    (0.9, -0.5): (1.498177376658385, 1.096730031636444,
                  0.8028533778345823),
    (0.9, 0.4): (0.7766079672448427, 0.9967187772083631,
                 1.2792146916776783),
}
G_ON_EXP_FROZEN = (0.392775665627682, 0.1640707622205733,
                   -0.08278285041565715)
LAMBDA_ON_ONE_FROZEN = {
    ("bm", "pure"): (0.39894182659988564, 0.2820944712286596,
                     0.19947091346132872),
    ("bm", "mixture"): (0.4703957791121508, 0.3451364400882628,
                        0.24733639542160957),
    ("fbm", "pure"): (0.5890692443932809, 0.4784729054115979,
                      0.3886407644535355),
    ("fbm", "mixture"): (0.6556413331777683, 0.5764102054006663,
                         0.49075840865965414),
    ("ou", "pure"): (0.06273791684778127, 0.026699302151242305,
                     0.01065025315003221),
    ("ou", "mixture"): (0.08129572522277488, 0.029579967433337673,
                        0.010030234489239308),
    ("mixed", "pure"): (0.6047537232824545, 0.48514773151425916,
                        0.3913033274989647),
    ("mixed", "mixture"): (0.6759652651290057, 0.5838051970572684,
                           0.4932659666767668),
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
