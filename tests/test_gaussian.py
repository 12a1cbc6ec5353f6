import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from subdiff.errors import DegenerateDensityError
from subdiff.gaussian import (
    Brownian,
    FractionalBrownian,
    GaussianSpec,
    MeanFunction,
    Mixed,
    MobiusHurst,
    OrnsteinUhlenbeck,
    PiecewiseHurst,
    PolynomialHurst,
    VariableHurst,
    _kernel_core,
    _volterra_norm,
    calibrate_volterra_constant,
    covariance,
    covariance_matrix,
    gaussian_transition_density,
    sample_gaussian_paths,
    variance_and_derivative,
    variance_laplace,
)
from subdiff.subordinators import SeededRng

from oracles import (
    KERNEL_CORE_MPMATH,
    volterra_cov_nested,
    volterra_norm_nested,
)

FBM7 = FractionalBrownian(0.7)
OU = OrnsteinUhlenbeck(1.0, math.sqrt(2.0))
PW = PiecewiseHurst((0.5,), (0.5, 0.8))
VH = VariableHurst(MobiusHurst(0.6, 0.2), horizon=2.5)

ALL_MODELS = [Brownian(), FBM7, OU,
              Mixed(((1.0, Brownian()), (0.5, FBM7))), PW]


class TestCovariance:
    def test_half_hurst_is_brownian(self):
        assert covariance(FractionalBrownian(0.5), 2.0, 3.0) == 2.0

    def test_unit_variance_at_one(self):
        assert_allclose(covariance(FBM7, 1.0, 1.0), 1.0)

    def test_mixed_combination(self):
        m = Mixed(((1.0, Brownian()), (0.5, FBM7)))
        t = 2.0
        assert_allclose(covariance(m, t, t), t + 0.25 * t**1.4)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            covariance(FBM7, -1.0, 2.0)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10**6))
    def test_symmetric_psd_on_random_grids(self, seed):
        gen = np.random.default_rng(seed)
        grid = np.sort(gen.uniform(0.02, 2.4, size=gen.integers(4, 32)))
        grid = np.unique(grid)
        for model in ALL_MODELS:
            R = covariance_matrix(model, grid)
            assert_allclose(R, R.T, atol=1e-12)
            w = np.linalg.eigvalsh(R)
            assert w.min() >= -1e-10 * np.trace(R)


class TestVarianceData:
    def test_fbm_closed_form(self):
        assert_allclose(variance_and_derivative(FractionalBrownian(0.75), 4.0),
                        (8.0, 3.0), rtol=1e-13)

    def test_ou_saturates(self):
        v, dv = variance_and_derivative(OU, 40.0)
        assert_allclose(v, 1.0, atol=1e-12)
        # finite-difference cross-check of the derivative
        v1, _ = variance_and_derivative(OU, 1.0)
        v2, _ = variance_and_derivative(OU, 1.0 + 1e-6)
        _, dv1 = variance_and_derivative(OU, 1.0 + 5e-7)
        assert_allclose((v2 - v1) / 1e-6, dv1, rtol=1e-5)

    def test_variable_hurst_constant_reduces_to_fbm(self):
        vh = VariableHurst(MobiusHurst(0.75, 0.0), horizon=3.0)
        for t in (0.5, 1.0, 2.0):
            got = variance_and_derivative(vh, t)
            want = variance_and_derivative(FractionalBrownian(0.75), t)
            assert_allclose(got, want, rtol=1e-10)

    def test_piecewise_breakpoint_rejected(self):
        with pytest.raises(ValueError):
            variance_and_derivative(PW, 0.5)


class TestVarianceLaplace:
    def test_fbm_closed_form(self):
        # frozen 2H Gamma(2H)/s^{2H} at H = 0.6, s = 2
        _, rp = variance_laplace(FractionalBrownian(0.6), 2.0)
        assert_allclose(rp, 0.4795873895382034, rtol=1e-12)

    def test_ou_rational(self):
        _, rp = variance_laplace(OrnsteinUhlenbeck(0.5, 1.0), 1.0)
        assert_allclose(rp, 0.5, rtol=1e-12)

    def test_brownian_closed_form(self):
        # R~(s) = 1/s^2 and R~'(s) = 1/s
        assert_allclose(variance_laplace(Brownian(), 2.0), (0.25, 0.5),
                        rtol=1e-15)

    def test_mixed_sums_its_terms(self):
        # 1/s + 4 / (s + 1) at s = 1, and R~ = R~'/s
        m = Mixed(((1.0, Brownian()), (2.0, OrnsteinUhlenbeck(0.5, 1.0))))
        assert_allclose(variance_laplace(m, 1.0), (3.0, 3.0), rtol=1e-15)
        m = Mixed(((1.0, FBM7), (0.5, OU)))
        want = (variance_laplace(FBM7, 2.0 + 1.0j)[1]
                + 0.25 * variance_laplace(OU, 2.0 + 1.0j)[1])
        assert_allclose(variance_laplace(m, 2.0 + 1.0j)[1], want, rtol=1e-14)

    def test_mixed_numeric_term_transforms_numerically(self):
        # a term without a profile sends the whole mixture to one
        # numeric forward transform
        m = Mixed(((1.0, Brownian()), (1.0, PW)))
        rv, rp = variance_laplace(m, 2.0)
        want = 0.25 + variance_laplace(PW, 2.0)[0]
        assert_allclose(rv, want, rtol=1e-8)
        assert_allclose(rp, 2.0 * rv, rtol=1e-15)

    def test_quadrature_identity(self):
        # R~'(s) = s R~(s) with both sides by independent quadratures
        from subdiff.fraccalc import laplace_forward

        for s in (1.0, 2.0, 4.0):
            rv, rp = variance_laplace(VH, s)
            direct, _ = laplace_forward(lambda t: float(VH.dvar(t)) if t > 0
                                        else 0.0, s, power_at_zero=-0.3)
            assert_allclose(rp.real, direct.real, rtol=1e-6)

    def test_abscissa_guard(self):
        with pytest.raises(ValueError):
            variance_laplace(FBM7, -0.5)


class TestSampling:
    def test_brownian_covariance_mc(self, rng):
        spec = GaussianSpec.univariate(Brownian())
        ens = sample_gaussian_paths(spec, [0.0, 0.5, 1.0], 100_000, rng)
        x = ens.component()
        prod = x[:, 1] * x[:, 2]
        se = prod.std() / math.sqrt(len(prod))
        assert abs(prod.mean() - 0.5) < 3.0 * se

    def test_zero_mean(self, rng):
        spec = GaussianSpec.univariate(FBM7)
        ens = sample_gaussian_paths(spec, [0.25, 0.75], 50_000, rng)
        x = ens.component()
        for k in range(2):
            se = x[:, k].std() / math.sqrt(len(x))
            assert abs(x[:, k].mean()) < 3.0 * se

    def test_fbm_unit_variance(self, rng):
        spec = GaussianSpec.univariate(FractionalBrownian(0.8))
        ens = sample_gaussian_paths(spec, [0.5, 1.0], 100_000, rng)
        v = ens.component()[:, 1].var()
        se = math.sqrt(2.0 / len(ens.component()))  # var of unit normal^2
        assert abs(v - 1.0) < 3.0 * se

    def test_zero_time_pinned(self, rng):
        ens = sample_gaussian_paths(GaussianSpec.univariate(Brownian()),
                                    [0.0, 1.0], 100, rng)
        assert np.all(ens.component()[:, 0] == 0.0)

    def test_piecewise_continuity_rate(self, rng):
        # Var(X_{T+e} - X_{T-e}) ~ e^{2H} on either side of a breakpoint
        T1 = 0.5
        for eps, tol in ((0.02, None), (0.005, None)):
            g = [T1 - eps, T1 + eps]
            ens = sample_gaussian_paths(GaussianSpec.univariate(PW), g,
                                        60_000, rng)
            d = ens.component()[:, 1] - ens.component()[:, 0]
            want = eps ** (2 * 0.5) + eps ** (2 * 0.8)
            assert abs(d.var() - want) < 5.0 * want / math.sqrt(len(d)) + 0.1 * want

    def test_mixed_with_piecewise_term(self, rng):
        # a mixture holding a scalar-only kernel: sample variance against
        # the closed form, with the exact sd of a Gaussian sample variance
        model = Mixed(((1.0, PW), (0.5, Brownian())))
        grid = [0.3, 0.8]
        ens = sample_gaussian_paths(GaussianSpec.univariate(model), grid,
                                    40_000, rng)
        x = ens.component()
        for k, t in enumerate(grid):
            v = model.var(t)
            z = (np.mean(x[:, k] ** 2) - v) / (v * math.sqrt(2.0 / len(x)))
            assert abs(z) < 4.0

    def test_mean_function_added(self, rng):
        mean = MeanFunction(lambda t: 2.0 * t, lambda t: 2.0)
        spec = GaussianSpec.univariate(Brownian(), mean)
        ens = sample_gaussian_paths(spec, [1.0], 50_000, rng)
        x = ens.component()[:, 0]
        se = x.std() / math.sqrt(len(x))
        assert abs(x.mean() - 2.0) < 3.0 * se


class TestTransitionDensity:
    def test_standard_normal_peak(self):
        spec = GaussianSpec.univariate(Brownian())
        got = gaussian_transition_density(spec, 1.0, 0.0)
        assert_allclose(got, 0.3989422804014327, rtol=1e-13)

    def test_two_dimensional_product(self):
        spec = GaussianSpec((FractionalBrownian(0.6), FractionalBrownian(0.6)))
        got = gaussian_transition_density(spec, 1.0, [0.0, 0.0])
        assert_allclose(got, 1.0 / (2.0 * math.pi), rtol=1e-13)

    def test_normalization(self):
        spec = GaussianSpec.univariate(FBM7)
        x = np.linspace(-10, 10, 4001)
        vals = gaussian_transition_density(spec, 0.8, x)
        assert_allclose(np.trapezoid(vals, x), 1.0, atol=1e-9)

    def test_mean_shift(self):
        mean = MeanFunction(lambda t: t, lambda t: 1.0)
        spec = GaussianSpec.univariate(Brownian(), mean)
        d1 = gaussian_transition_density(spec, 1.0, 1.3)
        d2 = gaussian_transition_density(GaussianSpec.univariate(Brownian()),
                                         1.0, 0.3)
        assert_allclose(d1, d2, rtol=1e-13)

    def test_point_mass_reported(self):
        with pytest.raises(DegenerateDensityError):
            gaussian_transition_density(GaussianSpec.univariate(Brownian()),
                                        0.0, 0.0)


class TestVolterra:
    def test_calibration_positive(self):
        for H in (0.6, 0.75, 0.9):
            assert calibrate_volterra_constant(H) > 0.0

    def test_verified_at_held_out_point(self):
        # by construction R(1,1) = 1; the (1,2) value is sqrt(2) for H=0.75
        vh = VariableHurst(MobiusHurst(0.75, 0.0), horizon=3.0)
        assert_allclose(covariance(vh, 1.0, 1.0), 1.0, rtol=1e-6)
        assert_allclose(covariance(vh, 1.0, 2.0), 1.4142135623730951,
                        rtol=1e-5)

    def test_constant_h_matches_fbm_at_random_points(self):
        gen = np.random.default_rng(3)
        vh = VariableHurst(MobiusHurst(0.75, 0.0), horizon=3.0)
        fbm = FractionalBrownian(0.75)
        for _ in range(5):
            s, t = np.sort(gen.uniform(0.1, 2.5, 2))
            assert_allclose(covariance(vh, s, t), covariance(fbm, s, t),
                            rtol=1e-5)

    def test_variance_identity(self):
        # variance of the variable-H model is t^{2H(t)}
        for t in (0.3, 0.8, 1.3, 1.9, 2.4):
            v, _ = variance_and_derivative(VH, t)
            assert_allclose(v, t ** (2.0 * VH.hurst(t)), rtol=1e-12)

    def test_horizon_consistency(self):
        a = covariance(VariableHurst(MobiusHurst(0.6, 0.2), 1.0), 0.4, 0.8)
        b = covariance(VariableHurst(MobiusHurst(0.6, 0.2), 2.0), 0.4, 0.8)
        assert abs(a - b) < 1e-8

    def test_verification_runs_once_per_h(self, monkeypatch):
        import subdiff.gaussian as gaussian

        c = calibrate_volterra_constant(0.65)

        def no_quadrature(*args, **kwargs):
            raise AssertionError("calibration re-ran a quadrature")

        monkeypatch.setattr(gaussian, "quad", no_quadrature)
        assert calibrate_volterra_constant(0.65) == c

    @pytest.mark.parametrize("key", sorted(KERNEL_CORE_MPMATH),
                             ids=lambda k: f"H{k[0]}-r{k[1]:g}")
    def test_kernel_core_against_mpmath(self, key):
        H, r = key
        want = float(KERNEL_CORE_MPMATH[key])
        assert abs(_kernel_core(H, 1.0, r) / want - 1.0) < 1e-13

    def test_kernel_core_scales_with_t(self):
        # core(H, t, r) = t^{2H-1} core(H, 1, r/t)
        for H in (0.55, 0.8):
            assert_allclose(_kernel_core(H, 4.0, 1.0),
                            4.0 ** (2.0 * H - 1.0) * _kernel_core(H, 1.0, 0.25),
                            rtol=1e-14)

    def test_norm_matches_nested_quadrature(self):
        for H in (0.6, 0.75, 0.9):
            assert_allclose(_volterra_norm(H),
                            volterra_norm_nested(H), rtol=1e-9)

    def test_covariance_matches_nested_quadrature(self):
        vh = VariableHurst(MobiusHurst(0.6, 0.2), horizon=2.0)
        for s, t in ((0.3, 0.3), (0.4, 1.7), (1.9, 2.0)):
            assert_allclose(covariance(vh, s, t),
                            volterra_cov_nested(vh.hurst, s, t),
                            rtol=1e-9)

    def test_matrix_assembly_time(self):
        # 55 entries and 10 calibrations; the nested quadrature took 9 s
        _volterra_norm.cache_clear()
        vh = VariableHurst(MobiusHurst(0.6, 0.2), horizon=2.0)
        start = time.perf_counter()
        R = covariance_matrix(vh, np.linspace(0.2, 2.0, 10))
        assert time.perf_counter() - start < 3.0
        assert np.all(np.linalg.eigvalsh(R) > 0.0)

    def test_hurst_range_enforced(self):
        with pytest.raises(ValueError):
            VariableHurst(MobiusHurst(0.4, 0.0))
        with pytest.raises(ValueError):
            calibrate_volterra_constant(0.4)


class TestPiecewise:
    def test_variance_profile(self):
        # frozen: 0.5 + 0.5^{1.6}
        assert_allclose(PW.var(1.0), 0.8298769776932235, rtol=1e-13)
        assert_allclose(PW.var(0.3), 0.3, rtol=1e-13)

    def test_cross_segment_covariance(self):
        # cov(X_s, X_t) for s in segment 0, t in segment 1 touches only the
        # shared-segment increment
        got = PW.cov(0.3, 0.8)
        want = 0.5 * (0.3 + 0.5 - 0.2)
        assert_allclose(got, want, rtol=1e-13)

    def test_monte_carlo_covariance(self, rng):
        # the derived covariance matches the pathwise construction sampled
        # segment by segment with independent fBms
        gen = rng.generator()
        n = 200_000
        b1 = math.sqrt(0.3) * gen.standard_normal(n)          # BM at 0.3
        inc1 = gen.standard_normal(n) * math.sqrt(0.5 - 0.3)  # BM inc to 0.5
        # fBm(0.8) increments over [0.5, 0.9]: one draw of B^{H}_{0.4}
        inc2 = gen.standard_normal(n) * 0.4**0.8
        xs = b1
        xt = b1 + inc1 + inc2
        got = np.mean(xs * xt)
        want = PW.cov(0.3, 0.9)
        se = np.std(xs * xt) / math.sqrt(n)
        assert abs(got - want) < 3.0 * se

    def test_validation(self):
        with pytest.raises(ValueError):
            PiecewiseHurst((0.5,), (0.5,))
        with pytest.raises(ValueError):
            PiecewiseHurst((0.5, 0.4), (0.5, 0.6, 0.7))
        with pytest.raises(ValueError):
            PiecewiseHurst((0.5,), (0.5, 1.2))
