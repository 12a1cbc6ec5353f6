import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy.special import erfcx, rgamma

from subdiff import fraccalc
from subdiff.errors import InversionError, NumericsError
from subdiff.fraccalc import (
    SampledFunction,
    _row_builder,
    caputo_l1,
    caputo_l1_columns,
    laplace_forward,
    laplace_inverse_batch,
    mittag_leffler,
)

from oracles import (
    caputo_l1_loop,
    caputo_quadrature,
    dehoog_table_loop,
    hat_transform_quadrature,
    interp_transform_segments,
    mittag_leffler_neg,
    riemann_liouville_integral,
    rl_integral_loop,
    transform_matrix,
)

GRID = np.linspace(0.0, 2.0, 1201)


class TestTransformMatrix:
    T = np.concatenate([[0.0], np.sort(
        np.random.default_rng(5).uniform(0.0, 3.0, 700))])
    Y = np.column_stack([np.exp(-T), np.sin(5.0 * T) * np.exp(-T),
                         T * T / (1.0 + T)])

    @pytest.mark.parametrize("s", [
        0.3 + 1j * np.sinh(np.linspace(-12.0, 12.0, 1201)),
        2.0 + 1j * np.linspace(-50.0, 50.0, 801),
        np.array([0.5, 1.0, 7.0, 40.0], dtype=complex),
    ])
    def test_matches_segment_sum(self, s):
        T = transform_matrix(self.T, s)
        assert T.shape == (len(s), len(self.T))
        for y in self.Y.T:
            want = interp_transform_segments(self.T, y, s)
            scale = np.max(np.abs(want))
            assert np.max(np.abs(T @ y - want)) <= 1e-13 * scale

    def test_columns_transform_together(self):
        s = 1.0 + 1j * np.linspace(-20.0, 20.0, 81)
        T = transform_matrix(self.T, s)
        both = T @ self.Y
        for j, y in enumerate(self.Y.T):
            assert_allclose(both[:, j], T @ y, rtol=1e-14)

    def test_entry_point_matches_segment_sum(self):
        # the random grid is not uniform, so ``_interp_transform`` takes its
        # differenced route; its time-major matrix maps a column as T.T @ y
        s = 0.3 + 1j * np.sinh(np.linspace(-12.0, 12.0, 1201))
        T = fraccalc._interp_transform(self.T, s)
        assert T.shape == (len(self.T), len(s))
        for y in self.Y.T:
            want = interp_transform_segments(self.T, y, s)
            scale = np.max(np.abs(want))
            assert np.max(np.abs(T.T @ y - want)) <= 1e-13 * scale

    def test_two_samples(self):
        # one segment: the left and right end coefficients only
        s = np.array([0.5 + 2.0j, 3.0 + 0.0j])
        t, y = np.array([0.0, 2.0]), np.array([1.0, -0.5])
        assert_allclose(transform_matrix(t, s) @ y,
                        interp_transform_segments(t, y, s), rtol=1e-14)


class TestHatTransform:
    """The closed-form hat transform of a uniform grid against quadrature
    of the defining integral.  The step and the nodes have few significant
    bits, so every phase z t is exact in both and |Im z| up to 1e9 costs
    no digits."""

    H = 2.0**-20
    Z = np.array([3.0 + 1j * y for y in (
        0.0, 2.0**10, 2.0**13, 2.0**16, 0.75 * 2.0**20, 2.0**20, 2.0**23,
        2.0**27, 3.0 * 2.0**27, -(2.0**27), 2.0**29, 2.0**30, -(2.0**30))]
        + [1024.0, 0.75 * 2.0**20 + 2.0**19 * 1j])

    @pytest.mark.parametrize("n", [1, 2, 5, 16, 17])
    @pytest.mark.parametrize("start", [0, 3])
    def test_matches_quadrature(self, n, start):
        # |z h| from 3e-6 to 1e3, either side of the series' |z h| < 1,
        # and rows with |Im z| >= 1.3e8; n = 17 leaves anchor rows unused
        t = (start + np.arange(n + 1)) * self.H
        want = hat_transform_quadrature(t, self.Z)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = fraccalc._hat_transform(t[0], self.H, n, self.Z).T
        assert got.shape == want.shape
        scale = np.max(np.abs(want), axis=1, keepdims=True)
        assert np.all(np.abs(got - want) <= 1e-13 * scale)

    def test_matches_differenced_form_away_from_zero(self):
        # the differenced form (``oracles.transform_matrix``, the route of
        # ``_interp_transform`` on a non-uniform grid) holds where
        # |z h| >= 0.5; below, its differences cancel
        t = np.arange(17) * self.H
        z = self.Z[np.abs(self.Z * self.H) >= 0.5]
        got = fraccalc._hat_transform(0.0, self.H, 16, z).T
        want = transform_matrix(t, z)
        scale = np.max(np.abs(want), axis=1, keepdims=True)
        assert np.all(np.abs(got - want) <= 1e-13 * scale)


def test_sampled_function_validation():
    with pytest.raises(ValueError):
        SampledFunction(np.array([0.1, 0.2]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        SampledFunction(np.array([0.0, 0.0, 1.0]), np.zeros(3))
    with pytest.raises(ValueError):
        SampledFunction(np.array([0.0, 1.0]), np.array([np.inf, 0.0]))


class TestCaputo:
    def test_linear_half_order(self):
        # D^{1/2} t = t^{1/2} / Gamma(3/2); frozen at t = 1 and t = 2
        d = caputo_l1(SampledFunction(GRID, GRID), 0.5)
        i1 = np.argmin(np.abs(GRID - 1.0))
        assert_allclose(d.values[i1], 1.1283791670955126, rtol=1e-6)
        assert_allclose(d.values[-1], 1.595769121605731, rtol=1e-6)

    def test_against_quadrature_oracle(self):
        # independent evaluation of the defining integral for g = t^2;
        # the L1 scheme is order 2 - beta, ~ 2e-4 at this grid
        d = caputo_l1(SampledFunction(GRID, GRID**2), 0.7)
        for t in (0.5, 1.0, 1.8):
            want = caputo_quadrature(lambda u: 2.0 * u, t, 0.7)
            i = np.argmin(np.abs(GRID - t))
            assert_allclose(d.values[i], want, rtol=1e-3)

    def test_constant_is_zero(self):
        d = caputo_l1(SampledFunction(GRID, np.full_like(GRID, 3.7)), 0.6)
        assert np.all(d.values == 0.0)

    def test_beta_one_is_derivative(self):
        d = caputo_l1(SampledFunction(GRID, GRID**2), 1.0)
        assert_allclose(d.values, 2.0 * GRID, atol=1e-10)

    @pytest.mark.parametrize("beta", [0.0, 1.2])
    def test_order_outside_unit_interval_rejected(self, beta):
        with pytest.raises(ValueError):
            caputo_l1(SampledFunction(GRID, GRID), beta)

    def test_power_law_convergence_order(self):
        # pointwise error against Gamma(a+1)/Gamma(a-b+1) t^{a-b} at t = 1
        # shrinks at the scheme's order 2 - beta (the t -> 0 corner cell is
        # first-order and excluded)
        a, b = 1.5, 0.5
        errs = []
        for n in (200, 400, 800):
            t = np.linspace(0.0, 1.0, n + 1)
            d = caputo_l1(SampledFunction(t, t**a), b)
            want = math.gamma(a + 1.0) / math.gamma(a - b + 1.0)
            errs.append(abs(d.values[-1] - want))
        order = np.log2(errs[0] / errs[1]), np.log2(errs[1] / errs[2])
        assert min(order) > 2.0 - b - 0.25

    @settings(max_examples=20, deadline=None)
    @given(
        a=st.floats(-3.0, 3.0),
        b=st.floats(-3.0, 3.0),
        beta=st.floats(0.1, 0.95),
    )
    def test_linearity(self, a, b, beta):
        t = np.linspace(0.0, 1.0, 65)
        g = np.sin(t)
        h = t**2
        lhs = caputo_l1(SampledFunction(t, a * g + b * h), beta).values
        rhs = a * caputo_l1(SampledFunction(t, g), beta).values + (
            b * caputo_l1(SampledFunction(t, h), beta).values
        )
        assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


# graded mesh t_j = (j/N)^2: the L1 weights must not assume uniform steps
GRADED = (np.arange(241) / 240.0) ** 2
# a uniform mesh reads its weights from one lag table
UNIFORM = np.linspace(0.0, 1.3, 241)
MIXTURE = ((0.3, 0.25), (0.55, 0.35), (0.85, 0.4))


def mixture_loop(t, y, components):
    return sum(w * caputo_l1_loop(t, y, b) for b, w in components)


class TestL1Weights:
    @pytest.mark.parametrize("beta", [0.1, 0.5, 0.9])
    def test_matches_per_row_loop_on_graded_grid(self, beta):
        y = GRADED**1.5 + np.sin(GRADED)
        got = caputo_l1(SampledFunction(GRADED, y), beta).values
        assert_allclose(got, caputo_l1_loop(GRADED, y, beta), rtol=1e-13,
                        atol=0.0)

    def test_power_closed_form_on_graded_grid(self):
        # D^b t^a = Gamma(a+1)/Gamma(a+1-b) t^(a-b); tolerance as in
        # test_against_quadrature_oracle
        a, b = 1.3, 0.6
        t = 2.0 * (np.arange(801) / 800.0) ** 2
        got = caputo_l1(SampledFunction(t, t**a), b).values
        keep = t >= 0.25
        want = math.gamma(a + 1.0) / math.gamma(a + 1.0 - b) * t[keep] ** (a - b)
        assert_allclose(got[keep], want, rtol=1e-3)

    def test_mixture_is_weighted_sum_of_components(self):
        Y = np.column_stack([GRADED, np.cos(3.0 * GRADED), GRADED**2.5])
        mixed = caputo_l1_columns(GRADED, Y, MIXTURE)
        parts = sum(w * caputo_l1_columns(GRADED, Y, ((b, 1.0),))
                    for b, w in MIXTURE)
        assert_allclose(mixed, parts, rtol=1e-13, atol=1e-13 * np.abs(parts).max())
        n = len(GRADED)
        W = _row_builder(GRADED, MIXTURE)(0, n)
        Wsum = sum(w * _row_builder(GRADED, ((b, 1.0),))(0, n)
                   for b, w in MIXTURE)
        assert_allclose(W, Wsum, rtol=1e-13, atol=0.0)

    def test_lower_triangular_shape(self):
        W = _row_builder(GRADED, MIXTURE)(5, 40)
        assert W.shape == (35, 39)
        rows = np.arange(5, 40)[:, None]
        assert np.all(W[np.arange(39)[None, :] >= rows] == 0.0)
        assert np.all(W[np.arange(39)[None, :] < rows] > 0.0)

    def test_rows_do_not_depend_on_block_split(self):
        # on the per-entry route (graded) and the lag-table route (uniform)
        for t in (GRADED, UNIFORM):
            n = len(t)
            whole = _row_builder(t, MIXTURE)(0, n)
            for cuts in ([0, 1, 2, 77, n], [0, 120, 121, 239, n]):
                for lo, hi in zip(cuts[:-1], cuts[1:]):
                    assert np.array_equal(_row_builder(t, MIXTURE)(lo, hi),
                                          whole[lo:hi, : hi - 1])

    @pytest.mark.parametrize("rows", [1, 7, 1000])
    def test_application_does_not_depend_on_block_rows(self, rows,
                                                       monkeypatch):
        Y = np.column_stack([GRADED**1.5, np.exp(-GRADED)])
        ref = caputo_l1_columns(GRADED, Y, MIXTURE)
        monkeypatch.setattr(fraccalc, "_L1_BLOCK_ROWS", rows)
        assert_allclose(caputo_l1_columns(GRADED, Y, MIXTURE), ref,
                        rtol=1e-13, atol=1e-13 * np.abs(ref).max())

    def test_order_outside_open_interval_rejected(self):
        with pytest.raises(ValueError):
            _row_builder(GRADED, ((1.0, 1.0),))


class TestLagTable:
    @pytest.mark.parametrize("beta", [0.1, 0.5, 0.9])
    def test_matches_per_row_loop_on_uniform_grid(self, beta):
        assert fraccalc._lag_table(UNIFORM, ((beta, 1.0),)) is not None
        y = UNIFORM**1.5 + np.sin(UNIFORM)
        got = caputo_l1(SampledFunction(UNIFORM, y), beta).values
        assert_allclose(got, caputo_l1_loop(UNIFORM, y, beta), rtol=1e-12,
                        atol=0.0)

    def test_mixture_matches_per_row_loop_on_uniform_grid(self):
        Y = np.column_stack([UNIFORM**1.5 + np.sin(UNIFORM), UNIFORM])
        got = caputo_l1_columns(UNIFORM, Y, MIXTURE)
        for j in range(Y.shape[1]):
            assert_allclose(got[:, j], mixture_loop(UNIFORM, Y[:, j], MIXTURE),
                            rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9, 1.7])
    def test_rl_integral_matches_per_row_loop_on_uniform_grid(self, alpha):
        y = UNIFORM**1.5 + np.sin(UNIFORM)
        got = riemann_liouville_integral(SampledFunction(UNIFORM, y), alpha)
        assert_allclose(got.values, rl_integral_loop(UNIFORM, y, alpha),
                        rtol=1e-12, atol=0.0)

    def test_moved_point_takes_the_per_entry_route(self):
        t = UNIFORM.copy()
        t[100] += 1e-9
        assert fraccalc._lag_table(t, MIXTURE) is None
        y = t**1.5 + np.sin(t)
        for beta in (0.1, 0.5, 0.9):
            got = caputo_l1(SampledFunction(t, y), beta).values
            assert_allclose(got, caputo_l1_loop(t, y, beta), rtol=1e-13,
                            atol=0.0)
        got = caputo_l1_columns(t, y[:, None], MIXTURE)[:, 0]
        assert_allclose(got, mixture_loop(t, y, MIXTURE), rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("T", [0.7, 1.0, 3.0, 50.0])
    @pytest.mark.parametrize("n", [2, 11, 401, 1601, 6401])
    def test_linspace_grids_are_uniform(self, T, n):
        assert fraccalc._lag_table(np.linspace(0.0, T, n), ((0.5, 1.0),)) \
            is not None


class TestRiemannLiouville:
    def test_plain_integral(self):
        r = riemann_liouville_integral(
            SampledFunction(GRID, np.ones_like(GRID)), 1.0
        )
        assert_allclose(r.values, GRID, atol=1e-12)

    def test_half_integral_of_one(self):
        r = riemann_liouville_integral(
            SampledFunction(GRID, np.ones_like(GRID)), 0.5
        )
        i1 = np.argmin(np.abs(GRID - 1.0))
        assert_allclose(r.values[i1], 1.1283791670955126, rtol=1e-10)

    def test_composition_recovers_caputo(self):
        # J^{1-b} dg/dt agrees with the L1 Caputo output for g = t^2
        dg = np.gradient(GRID**2, GRID, edge_order=2)
        comp = riemann_liouville_integral(SampledFunction(GRID, dg), 0.5)
        cap = caputo_l1(SampledFunction(GRID, GRID**2), 0.5)
        assert_allclose(comp.values, cap.values, atol=5e-5)

    def test_semigroup(self):
        ra = riemann_liouville_integral(
            riemann_liouville_integral(SampledFunction(GRID, GRID), 0.4), 0.8
        )
        rb = riemann_liouville_integral(SampledFunction(GRID, GRID), 1.2)
        assert_allclose(ra.values, rb.values, atol=2e-6)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            riemann_liouville_integral(SampledFunction(GRID, GRID), -0.5)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 1.0, 1.7])
    def test_matches_per_row_loop_on_graded_grid(self, alpha):
        y = GRADED**1.5 + np.sin(GRADED)
        got = riemann_liouville_integral(SampledFunction(GRADED, y), alpha)
        assert_allclose(got.values, rl_integral_loop(GRADED, y, alpha),
                        rtol=1e-13, atol=0.0)


class TestMittagLeffler:
    def test_reduces_to_exp(self):
        assert_allclose(mittag_leffler(1.0, 1.0), math.e, rtol=1e-14)
        assert_allclose(mittag_leffler(1.0, -2.5), math.exp(-2.5), rtol=1e-14)

    def test_at_zero(self):
        for a in (0.2, 0.5, 0.9, 1.0):
            assert mittag_leffler(a, 0.0) == 1.0

    def test_half_order_identity(self):
        # E_{1/2}(-x) = exp(x^2) erfc(x), evaluated independently
        assert_allclose(mittag_leffler(0.5, -1.0), 0.427583576155807,
                        rtol=1e-10)
        for x in (0.3, 2.0, 5.0, 8.0, 40.0, 300.0):
            assert_allclose(mittag_leffler(0.5, -x), erfcx(x), rtol=1e-10)

    def test_small_alpha_negative(self):
        # the series cancels here; the spectral rule does not
        v = mittag_leffler(0.1, -3.0)
        assert 0.0 < v < 1.0

    @pytest.mark.parametrize("alpha", [0.1, 0.2, 0.3, 0.5, 0.6, 0.7, 0.8,
                                       0.9, 0.95, 0.99])
    def test_matches_the_spectral_oracle(self, alpha):
        # x from 1e-4 to 1e6, against QUADPACK on the tangent form
        for x in np.logspace(-4.0, 6.0, 21):
            try:
                got = mittag_leffler(alpha, -x)
            except NumericsError:
                continue
            assert_allclose(got, mittag_leffler_neg(alpha, x), rtol=1e-10)

    def test_just_past_five_near_alpha_one(self):
        # the old spectral branch weighted its second piece by
        # (u - c)^(alpha - 1) and returned 0.0344223 here; a 50-digit
        # series gives 0.0343182
        got = mittag_leffler(0.9, -5.01)
        assert_allclose(got, mittag_leffler_neg(0.9, 5.01), rtol=1e-10)
        assert abs(got - 0.0343182) < 1e-7

    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.7, 0.9, 0.99])
    def test_power_series_at_small_x(self, alpha):
        # up to x = 0.5 the terms shrink from the first: nothing cancels
        for x in (1e-4, 1e-2, 0.1, 0.5):
            terms = [(-x) ** k / math.gamma(alpha * k + 1.0)
                     for k in range(60)]
            assert_allclose(mittag_leffler(alpha, -x), math.fsum(terms),
                            rtol=1e-13)

    @pytest.mark.parametrize("alpha", [0.1, 0.2, 0.6, 0.9])
    def test_asymptotic_series_at_large_x(self, alpha):
        # E_alpha(-x) = sum_{k=1}^{K} (-1)^(k+1) x^-k / Gamma(1 - alpha k)
        # + O(x^-(K+1)): at x >= 1e3 eight terms leave under 1e-20 relative
        for x in (1e3, 1e4, 1e6):
            want = math.fsum((-1) ** (k + 1) * x**-k * rgamma(1.0 - alpha * k)
                             for k in range(1, 9))
            assert_allclose(mittag_leffler(alpha, -x), want, rtol=1e-12)

    def test_complete_monotonicity(self):
        for a in (0.3, 0.6, 0.9):
            xs = np.linspace(0.0, 30.0, 121)
            vals = np.array([mittag_leffler(a, -x) for x in xs])
            assert np.all(vals > 0.0)
            assert np.all(np.diff(vals) < 0.0)

    def test_unrepresentable_reported(self):
        with pytest.raises(NumericsError):
            mittag_leffler(0.5, 40.0)  # exp(1600) scale

    def test_alpha_range(self):
        with pytest.raises(ValueError):
            mittag_leffler(1.3, -1.0)

    @pytest.mark.parametrize("alpha", [0.5, 0.9, 1.0])
    def test_non_finite_argument(self, alpha):
        # E_alpha(-x) -> 0 as x -> inf; a NaN argument is an input error,
        # not an unrepresentable value
        assert mittag_leffler(alpha, -math.inf) == 0.0
        with pytest.raises(ValueError):
            mittag_leffler(alpha, math.nan)


class TestLaplaceForward:
    def test_constant(self):
        v, err = laplace_forward(np.ones_like, 2.0)
        assert_allclose(v, 0.5, rtol=1e-9)
        assert err < 1e-6

    def test_exponential(self):
        v, _ = laplace_forward(lambda t: np.exp(-t), 1.0)
        assert_allclose(v, 0.5, rtol=1e-9)

    def test_ou_variance_derivative(self):
        # R'(t) = sigma^2 e^{-2 alpha t} transforms to sigma^2/(s+2alpha)
        alpha, sigma, s = 1.0, math.sqrt(2.0), 1.5
        v, _ = laplace_forward(lambda t: sigma**2 * np.exp(-2 * alpha * t), s)
        assert_allclose(v, sigma**2 / (s + 2 * alpha), rtol=1e-9)

    def test_abscissa_guard(self):
        with pytest.raises(ValueError):
            laplace_forward(np.ones_like, -1.0)

    @pytest.mark.parametrize("x", [0.0, 0.05, 0.1, 0.5, 2.0])
    def test_brownian_kernel_closed_form(self, x):
        # int_0^inf e^{-rho t} N(x; 0, t) dt = e^{-|x| sqrt(2 rho)} / sqrt(2 rho);
        # at x = 0 the kernel's t^-1/2 is declared
        def kernel(t):
            return np.exp(-x * x / (2.0 * t)) / np.sqrt(2.0 * math.pi * t)

        for rho in (0.05, 0.5, 1.0, 4.0, 50.0):
            v, err = laplace_forward(kernel, rho, t_max=16.0,
                                     power_at_zero=-0.5 if x == 0.0 else 0.0)
            want = math.exp(-x * math.sqrt(2.0 * rho)) / math.sqrt(2.0 * rho)
            assert v.imag == 0.0
            assert_allclose(v.real, want, rtol=1e-12)
            assert err < 1e-9

    def test_complex_s_brownian_kernel(self):
        # the same closed form off the real axis, on the principal root
        def kernel(t):
            return np.exp(-0.125 / t) / np.sqrt(2.0 * math.pi * t)

        for s in (1.0 + 2.0j, 0.3 + 5.0j):
            v, _ = laplace_forward(kernel, s)
            want = np.exp(-0.5 * np.sqrt(2.0 * s)) / np.sqrt(2.0 * s)
            assert_allclose(v, want, rtol=1e-12)

    @pytest.mark.parametrize("g, p", [
        (lambda t: np.exp(-t), 0.0),
        (lambda t: np.exp(-t * t), 0.0),
        (lambda t: t**-0.5, -0.5),
    ])
    def test_real_s_skips_the_imaginary_quadrature(self, g, p):
        # a real s would sum sin(0 t) = 0.  An s a hair off the axis sums
        # that part too, on the same real part, since cos(1e-300 t) is 1,
        # and reads g on the very same nodes
        calls = []

        def counted(t):
            calls.append(t)
            return g(t)

        real = laplace_forward(counted, 1.5, power_at_zero=p)
        real_calls = list(calls)
        calls.clear()
        off = laplace_forward(counted, 1.5 + 1e-300j, power_at_zero=p)
        assert len(calls) == len(real_calls)
        for a, b in zip(calls, real_calls):
            assert np.array_equal(a, b)
        assert real.value.imag == 0.0
        assert real.value.real == off.value.real
        assert real.error == off.error


def invert_one(logF, t):
    """One closed-form image log F through the batched dual inverter."""
    return float(laplace_inverse_batch(lambda s: logF(s)[None, :], t, 1)[0])


class TestLaplaceInverse:
    def test_constant_pair(self):
        assert_allclose(invert_one(lambda s: -np.log(s), 3.0), 1.0,
                        rtol=1e-8)

    def test_ramp_pair(self):
        assert_allclose(invert_one(lambda s: -2.0 * np.log(s), 2.5), 2.5,
                        rtol=1e-8)

    def test_clock_transform_pair(self):
        # frozen from the closed form pi^{-1/2} exp(-1/4)
        got = invert_one(lambda s: -0.5 * np.log(s) - np.sqrt(s), 1.0)
        assert_allclose(got, 0.4393912894677224, rtol=1e-8)

    def test_disagreement_raises(self):
        # a transform with a singularity right of every contour: both
        # methods produce garbage and must refuse to agree
        with pytest.raises(InversionError):
            invert_one(lambda s: -np.log(s - 60.0), 1.0)

    def test_t_positive(self):
        with pytest.raises(ValueError):
            invert_one(lambda s: -np.log(s), 0.0)


def assert_matches_full_table(got, want):
    # Equal bit for bit where numpy's complex loops round contiguous and
    # strided operands alike, as the pinned numpy does.  The QD table is
    # ill-conditioned: a 1-ulp change in every image value moves clock
    # outputs by up to 5.4e-11 of their maximum, so a build whose loops
    # round the two layouts differently is held to a margin above that,
    # and a real defect (a wrong sign, a stale column) still misses by O(1).
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()


class TestDehoogBatch:
    """One de Hoog call over a block of times against one call per time."""

    # 3000 columns at 8 times exceed 2^14 entries, so the block is split
    @pytest.mark.parametrize("n_batch", [1, 40, 3000])
    @pytest.mark.parametrize("tmax", [0.5, 2.0])
    def test_times_match_scalar_calls(self, n_batch, tmax):
        rng = np.random.default_rng(7)
        rates = rng.uniform(0.2, 3.0, n_batch)
        calls = []

        def F(s):  # column k is the image of exp(-rates[k] t)
            calls.append(len(s))
            return 1.0 / (s[None, :] + rates[:, None])

        # one dyadic block (T/2, T], unsorted, so a misaligned column shows
        t = rng.permutation(np.linspace(0.5 * tmax, tmax, 9)[1:])
        got = fraccalc._dehoog_batch(F, t, 18, n_batch, tmax=tmax, tol=1e-10)
        assert got.shape == (n_batch, len(t))
        assert len(calls) == 1  # one image, one table for the whole block
        for j, tj in enumerate(t):
            one = fraccalc._dehoog_batch(F, float(tj), 18, n_batch,
                                         tmax=tmax, tol=1e-10)
            assert one.shape == (n_batch, 1)
            assert np.array_equal(got[:, j], one[:, 0])
        assert_allclose(got, np.exp(-rates[:, None] * t[None, :]), rtol=1e-7)

    @staticmethod
    def _clock_image(beta, taus):
        # (s^b / s) exp(-tau s^b): the transform of the clock density in t
        def F(s):
            rho = s**beta
            return (rho / s)[None, :] * np.exp(-taus[:, None] * rho[None, :])
        return F

    @pytest.mark.parametrize("beta", [0.15, 0.5, 0.9])
    @pytest.mark.parametrize("M, tol", [(25, 1e-12), (32, 1e-10)])
    def test_matches_full_table(self, beta, M, tol):
        taus = np.geomspace(1e-7, 120.0, 400)
        F = self._clock_image(beta, taus)
        got = fraccalc._dehoog_batch(F, 1.0, M, len(taus), tol=tol)
        assert_matches_full_table(got, dehoog_table_loop(F, 1.0, M, len(taus),
                                                         tol=tol))

    def test_times_match_full_table(self):
        rng = np.random.default_rng(11)
        rates = rng.uniform(0.2, 3.0, 25)

        def F(s):
            return 1.0 / (s[None, :] + rates[:, None]) ** 1.5

        t = rng.permutation(np.linspace(1.0, 2.0, 12)[1:])
        got = fraccalc._dehoog_batch(F, t, 18, 25, tmax=2.0, tol=1e-10)
        assert_matches_full_table(got, dehoog_table_loop(F, t, 18, 25, tmax=2.0,
                                                         tol=1e-10))

    def test_lambdaop_batch_matches_full_table(self):
        # three sampled columns through the operator image, as
        # lambdaop._dehoog_values hands them over
        from subdiff.lambdaop import (ContourConfig, GOperator, _image,
                                      _vmax_for)

        op = GOperator(0.4, 0.4)
        cc = ContourConfig
        spacing = cc.node_spacing * (1.0 - cc.offset_ratio) / 2.0
        tg = np.linspace(0.0, 3.0, 121)
        cols = np.column_stack([np.exp(-tg), (1.0 + tg) * np.exp(-tg),
                                np.sin(tg) * np.exp(-tg)])

        def image(p):
            return _image(op, (tg, cols), 0.0, p, [1.0], spacing,
                          _vmax_for(op, 2.0))[0]

        t = np.array([0.9, 0.6, 0.75, 1.0])
        got = fraccalc._dehoog_batch(image, t, 18, 3, tmax=1.0, tol=1e-10)
        assert_matches_full_table(got, dehoog_table_loop(image, t, 18, 3,
                                                         tmax=1.0, tol=1e-10))

    @pytest.mark.parametrize("tmax", [3.0, 1.0, 0.7, 1e-3])
    @pytest.mark.parametrize("M, tol", [(18, 1e-10), (24, 1e-12)])
    def test_halved_horizon_doubles_nodes_exactly(self, tmax, M, tol):
        # lambdaop reads every dyadic block's image off the top block's
        # nodes scaled by 2^b, which needs these nodes bit for bit
        p0 = fraccalc._dehoog_contour(tmax, M, tol)[2]
        for b in range(1, 12):
            pb = fraccalc._dehoog_contour(tmax / 2.0**b, M, tol)[2]
            assert np.array_equal(pb, 2.0**b * p0)

    def test_batched_columns_within_sampled_error_estimate(self):
        # the three columns of test_lambdaop_batch_matches_full_table,
        # inverted as one three-column pair and as three one-column pairs:
        # the summation-order gap must stay inside the spread of the two
        # sampled-input inversions at the same times
        from subdiff.lambdaop import (ContourConfig, GOperator, _dehoog_values,
                                      eval_G_grid)

        op = GOperator(0.4, 0.4)
        tg = np.linspace(0.0, 3.0, 121)
        cols = np.column_stack([np.exp(-tg), (1.0 + tg) * np.exp(-tg),
                                np.sin(tg) * np.exp(-tg)])
        t = np.array([0.9, 0.6, 0.75, 1.0])
        batch = _dehoog_values(op, (tg, cols), 0.0, t, ContourConfig.degree,
                               1e-10)
        for j in range(3):
            one, est = eval_G_grid(op, SampledFunction(tg, cols[:, j]), t)
            assert np.all(np.abs(batch[:, j] - one) <= est)

    def test_peak_memory_linear_in_nodes_times_batch(self):
        import tracemalloc

        n_batch, M = 4000, 32
        taus = np.linspace(0.0, 8.0, n_batch)
        F = self._clock_image(0.5, taus)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            fraccalc._dehoog_batch(F, 1.0, M, n_batch, tol=1e-10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the full QD table alone would take (2M+1)(M+1) + 2M M complex
        # entries per column, about 270 MB here
        assert peak < 12 * (2 * M + 1) * n_batch * 16
