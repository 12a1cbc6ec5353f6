import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from subdiff import gaussian
from subdiff.errors import DegenerateDensityError, NumericsError
from subdiff.fraccalc import laplace_forward
from subdiff.gaussian import (
    Brownian,
    FractionalBrownian,
    GaussianSpec,
    Mixed,
    MobiusHurst,
    OrnsteinUhlenbeck,
    PiecewiseHurst,
    PolynomialHurst,
    VariableHurst,
    _check_hurst_range,
    _checked_cholesky,
    _kernel_core,
    _volterra_norm,
    _volterra_products,
    covariance_matrix,
    gaussian_transition_density,
    profile_derivative,
    sample_gaussian_paths,
)
from subdiff.subordinators import SeededRng

from oracles import (
    KERNEL_CORE_MPMATH,
    piecewise_cov_loop,
    volterra_cov_nested,
    volterra_norm_nested,
    volterra_product_qawse,
)

FBM7 = FractionalBrownian(0.7)
OU = OrnsteinUhlenbeck(1.0, math.sqrt(2.0))
PW = PiecewiseHurst((0.5,), (0.5, 0.8))
VH = VariableHurst(MobiusHurst(0.6, 0.2), horizon=2.5)

ALL_MODELS = [Brownian(), FBM7, OU,
              Mixed(((1.0, Brownian()), (0.5, FBM7))), PW]


class TestCovariance:
    def test_half_hurst_is_brownian(self):
        assert FractionalBrownian(0.5).cov(2.0, 3.0) == 2.0

    def test_unit_variance_at_one(self):
        assert_allclose(FBM7.cov(1.0, 1.0), 1.0)

    def test_mixed_combination(self):
        m = Mixed(((1.0, Brownian()), (0.5, FBM7)))
        t = 2.0
        assert_allclose(m.cov(t, t), t + 0.25 * t**1.4)

    def test_mixed_all_zero_rejected(self):
        with pytest.raises(ValueError, match="nonzero coefficient"):
            Mixed(((0.0, Brownian()), (0.0, FBM7)))

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
        fbm = FractionalBrownian(0.75)
        assert_allclose((fbm.var(4.0), fbm.dvar(4.0)), (8.0, 3.0), rtol=1e-13)

    def test_ou_saturates(self):
        assert_allclose(OU.var(40.0), 1.0, atol=1e-12)
        # finite-difference cross-check of the derivative
        v1 = OU.var(1.0)
        v2 = OU.var(1.0 + 1e-6)
        dv1 = OU.dvar(1.0 + 5e-7)
        assert_allclose((v2 - v1) / 1e-6, dv1, rtol=1e-5)

    def test_ou_small_time_closed_form(self):
        # 1 - e^{-2t} formed directly lost 2.2e-5 relative at t = 1e-12
        ou = OrnsteinUhlenbeck(1.0, 1.0)
        t = np.geomspace(1e-12, 1e-4, 33)
        want = -np.expm1(-2.0 * t) / 2.0
        assert np.max(np.abs(ou.var(t) / want - 1.0)) <= 1e-14
        assert np.max(np.abs(ou.cov(t, t) / want - 1.0)) <= 1e-14

    def test_variable_hurst_constant_reduces_to_fbm(self):
        vh = VariableHurst(MobiusHurst(0.75, 0.0), horizon=3.0)
        for t in (0.5, 1.0, 2.0):
            got = (vh.var(t), vh.dvar(t))
            want = (FractionalBrownian(0.75).var(t),
                    FractionalBrownian(0.75).dvar(t))
            assert_allclose(got, want, rtol=1e-10)

    def test_piecewise_breakpoint_rejected(self):
        with pytest.raises(ValueError):
            PW.dvar(0.5)


def _profile_at(model, s):
    """R~'(s) from the model's Laplace profile; R~(s) = R~'(s)/s."""
    return complex(profile_derivative(model.laplace_profile(), complex(s),
                                      np.log))


class TestVarianceLaplace:
    def test_fbm_closed_form(self):
        # frozen 2H Gamma(2H)/s^{2H} at H = 0.6, s = 2
        rp = _profile_at(FractionalBrownian(0.6), 2.0)
        assert_allclose(rp, 0.4795873895382034, rtol=1e-12)

    def test_ou_rational(self):
        rp = _profile_at(OrnsteinUhlenbeck(0.5, 1.0), 1.0)
        assert_allclose(rp, 0.5, rtol=1e-12)

    def test_brownian_closed_form(self):
        # R~(s) = 1/s^2 and R~'(s) = 1/s
        rp = _profile_at(Brownian(), 2.0)
        assert_allclose((rp / 2.0, rp), (0.25, 0.5), rtol=1e-15)

    def test_mixed_sums_its_terms(self):
        # 1/s + 4 / (s + 1) at s = 1, and R~ = R~'/s
        m = Mixed(((1.0, Brownian()), (2.0, OrnsteinUhlenbeck(0.5, 1.0))))
        rp = _profile_at(m, 1.0)
        assert_allclose((rp / 1.0, rp), (3.0, 3.0), rtol=1e-15)
        m = Mixed(((1.0, FBM7), (0.5, OU)))
        want = (_profile_at(FBM7, 2.0 + 1.0j)
                + 0.25 * _profile_at(OU, 2.0 + 1.0j))
        assert_allclose(_profile_at(m, 2.0 + 1.0j), want, rtol=1e-14)

    def test_mixed_numeric_term_transforms_numerically(self):
        # a term without a profile leaves the whole mixture without one,
        # and its variance transform is one numeric forward transform
        m = Mixed(((1.0, Brownian()), (1.0, PW)))
        assert m.laplace_profile() is None
        rv, _ = laplace_forward(m.var, 2.0)
        want = 0.25 + laplace_forward(PW.var, 2.0)[0]
        assert_allclose(rv, want, rtol=1e-8)

    def test_quadrature_identity(self):
        # R~'(s) = s R~(s) with both sides by independent quadratures
        assert VH.laplace_profile() is None
        for s in (1.0, 2.0, 4.0):
            rv, _ = laplace_forward(VH.var, s)
            direct, _ = laplace_forward(VH.dvar, s, power_at_zero=-0.3)
            assert_allclose((s * rv).real, direct.real, rtol=1e-6)


class TestSampling:
    def test_brownian_covariance_mc(self, rng):
        spec = GaussianSpec.univariate(Brownian())
        ens = sample_gaussian_paths(spec, [0.0, 0.5, 1.0], 100_000, rng)
        x = ens.paths[:, :, 0]
        prod = x[:, 1] * x[:, 2]
        se = prod.std() / math.sqrt(len(prod))
        assert abs(prod.mean() - 0.5) < 3.0 * se

    def test_zero_mean(self, rng):
        spec = GaussianSpec.univariate(FBM7)
        ens = sample_gaussian_paths(spec, [0.25, 0.75], 50_000, rng)
        x = ens.paths[:, :, 0]
        for k in range(2):
            se = x[:, k].std() / math.sqrt(len(x))
            assert abs(x[:, k].mean()) < 3.0 * se

    def test_fbm_unit_variance(self, rng):
        spec = GaussianSpec.univariate(FractionalBrownian(0.8))
        ens = sample_gaussian_paths(spec, [0.5, 1.0], 100_000, rng)
        v = ens.paths[:, 1, 0].var()
        se = math.sqrt(2.0 / ens.paths.shape[0])  # var of unit normal^2
        assert abs(v - 1.0) < 3.0 * se

    def test_zero_time_pinned(self, rng):
        ens = sample_gaussian_paths(GaussianSpec.univariate(Brownian()),
                                    [0.0, 1.0], 100, rng)
        assert np.all(ens.paths[:, 0, 0] == 0.0)

    def test_piecewise_continuity_rate(self, rng):
        # Var(X_{T+e} - X_{T-e}) ~ e^{2H} on either side of a breakpoint
        T1 = 0.5
        for eps, tol in ((0.02, None), (0.005, None)):
            g = [T1 - eps, T1 + eps]
            ens = sample_gaussian_paths(GaussianSpec.univariate(PW), g,
                                        60_000, rng)
            d = ens.paths[:, 1, 0] - ens.paths[:, 0, 0]
            want = eps ** (2 * 0.5) + eps ** (2 * 0.8)
            assert abs(d.var() - want) < 5.0 * want / math.sqrt(len(d)) + 0.1 * want

    def test_mixed_with_piecewise_term(self, rng):
        # a mixture holding a piecewise term: sample variance against
        # the closed form, with the exact sd of a Gaussian sample variance
        model = Mixed(((1.0, PW), (0.5, Brownian())))
        grid = [0.3, 0.8]
        ens = sample_gaussian_paths(GaussianSpec.univariate(model), grid,
                                    40_000, rng)
        x = ens.paths[:, :, 0]
        for k, t in enumerate(grid):
            v = model.var(t)
            z = (np.mean(x[:, k] ** 2) - v) / (v * math.sqrt(2.0 / len(x)))
            assert abs(z) < 4.0


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

    def test_point_mass_reported(self):
        with pytest.raises(DegenerateDensityError):
            gaussian_transition_density(GaussianSpec.univariate(Brownian()),
                                        0.0, 0.0)


TIMES = np.array([0.05, 0.3, 0.5, 1.0, 2.5])


class TestTransitionDensityOverTimes:
    """An array of times gives one row per time, each the per-time call."""

    @pytest.mark.parametrize("spec, x", [
        (GaussianSpec.univariate(FBM7), np.linspace(-4.0, 4.0, 33)),
        (GaussianSpec.univariate(OU), 0.7),
        (GaussianSpec.univariate(PW), np.linspace(-3.0, 3.0, 9)[:, None]),
        (GaussianSpec((Brownian(), FBM7)),
         np.column_stack([np.linspace(-2.0, 2.0, 7),
                          np.linspace(1.5, -1.0, 7)])),
        (GaussianSpec((Brownian(), FBM7)), [0.3, -0.2]),
    ], ids=["fbm-1d", "ou-scalar", "piecewise-column", "2d", "2d-point"])
    def test_rows_match_per_time_calls(self, spec, x):
        got = gaussian_transition_density(spec, TIMES, x)
        want = np.stack([gaussian_transition_density(spec, t, x)
                         for t in TIMES])
        assert got.shape == want.shape
        assert want.shape[0] == len(TIMES)
        # rows and single times differ only in the rounding of array powers
        assert_allclose(got, want, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("times", [[0.5, 0.0, 1.0], [0.0]])
    def test_zero_variance_at_any_time_raises(self, times):
        spec = GaussianSpec((Brownian(), FBM7))
        with pytest.raises(DegenerateDensityError):
            gaussian_transition_density(spec, np.array(times), [0.1, 0.2])

    def test_negative_time_rejected(self):
        spec = GaussianSpec.univariate(Brownian())
        with pytest.raises(ValueError, match="nonnegative"):
            gaussian_transition_density(spec, np.array([1.0, -0.5]), 0.0)


BM_SPEC = GaussianSpec.univariate(Brownian())


@pytest.mark.parametrize("call", [
    lambda: gaussian_transition_density(BM_SPEC, math.nan, 0.0),
    lambda: gaussian_transition_density(BM_SPEC,
                                        np.array([0.5, math.nan, 1.0]), 0.0),
], ids=["density", "density-rows"])
def test_nan_argument_refused(call):
    # a NaN fails every comparison, so a guard written as "x < 0" lets it
    # through to a NaN value, or to a point-mass error it is not
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is ValueError


class TestVolterra:
    def test_calibration_positive(self):
        for H in (0.6, 0.75, 0.9):
            _check_hurst_range(H)
            assert 1.0 / math.sqrt(_volterra_norm(H)) > 0.0

    def test_verified_at_held_out_point(self):
        # by construction R(1,1) = 1; the (1,2) value is sqrt(2) for H=0.75
        vh = VariableHurst(MobiusHurst(0.75, 0.0), horizon=3.0)
        assert_allclose(vh.cov(1.0, 1.0), 1.0, rtol=1e-6)
        assert_allclose(vh.cov(1.0, 2.0), 1.4142135623730951,
                        rtol=1e-5)

    def test_constant_h_matches_fbm_at_random_points(self):
        gen = np.random.default_rng(3)
        vh = VariableHurst(MobiusHurst(0.75, 0.0), horizon=3.0)
        fbm = FractionalBrownian(0.75)
        for _ in range(5):
            s, t = np.sort(gen.uniform(0.1, 2.5, 2))
            assert_allclose(vh.cov(s, t), fbm.cov(s, t),
                            rtol=1e-5)

    def test_variance_identity(self):
        # variance of the variable-H model is t^{2H(t)}
        for t in (0.3, 0.8, 1.3, 1.9, 2.4):
            assert_allclose(VH.var(t), t ** (2.0 * VH.hurst(t)), rtol=1e-12)

    def test_horizon_consistency(self):
        a = VariableHurst(MobiusHurst(0.6, 0.2), 1.0).cov(0.4, 0.8)
        b = VariableHurst(MobiusHurst(0.6, 0.2), 2.0).cov(0.4, 0.8)
        assert abs(a - b) < 1e-8

    def test_verification_runs_once_per_h(self, monkeypatch):
        c = _volterra_norm(0.65)

        def no_rule(*args, **kwargs):
            raise AssertionError("calibration re-ran the product rule")

        monkeypatch.setattr(gaussian, "_volterra_products", no_rule)
        assert _volterra_norm(0.65) == c

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
            assert_allclose(vh.cov(s, t),
                            volterra_cov_nested(vh.hurst, s, t),
                            rtol=1e-9)

    @pytest.mark.parametrize("ratio", [1.0, 1.0 + 1e-9, 1.0 + 1e-3, 2.0,
                                       300.0])
    def test_product_rule_matches_qawse(self, ratio):
        # every (H_t, H_s) pair on [0.51, 0.95], one entry each, in one call
        hs = (0.51, 0.6, 0.75, 0.9, 0.95)
        pairs = [(a, b) for a in hs for b in hs if ratio != 1.0 or a == b]
        Ht, Hs = (np.array(v) for v in zip(*pairs))
        s = 0.7
        got = _volterra_products(Ht, Hs, s * ratio, s)
        want = [volterra_product_qawse(a, b, s * ratio, s) for a, b in pairs]
        assert_allclose(got, want, rtol=1e-10, atol=0.0)

    def test_matrix_matches_entry_by_entry(self):
        # one broadcast call against each entry on its own, through zero
        grid = np.array([0.0, 0.3, 0.3 + 1e-12, 0.9, 1.7, 2.4])
        R = covariance_matrix(VH, grid)
        want = np.array([[VH.cov(a, b) for b in grid] for a in grid])
        assert np.array_equal(R, R.T)
        assert np.all(R[0] == 0.0)
        assert_allclose(R, want, rtol=1e-14, atol=0.0)

    def test_verification_failure_raises(self, monkeypatch):
        # a wrong rule at the held-out point (1, 2) is refused in the batch
        rule = gaussian._volterra_products
        monkeypatch.setattr(gaussian, "_volterra_products",
                            lambda *a: rule(*a) * 1.001)
        with pytest.raises(NumericsError, match="verification failed"):
            covariance_matrix(VH, np.array([0.5, 1.0]))

    @pytest.mark.parametrize("hurst", [
        MobiusHurst(0.6, 0.3), PolynomialHurst((0.55, 0.1, -0.02, 0.003))])
    def test_variance_arrays_match_scalars_exactly(self, hurst):
        vh = VariableHurst(hurst, horizon=3.0)
        t = np.concatenate(([0.0], np.geomspace(1e-6, 3.0, 61)))
        assert np.array_equal(vh.var(t), [vh.var(float(u)) for u in t])
        assert np.array_equal(vh.dvar(t[1:]),
                              [vh.dvar(float(u)) for u in t[1:]])

    def test_horizon_check_is_one_array_call(self):
        calls = []

        class Recording(MobiusHurst):
            def __call__(self, t):
                calls.append(np.shape(t))
                return super().__call__(t)

        VariableHurst(Recording(0.6, 0.3), horizon=2.0)
        assert calls == [(64,)]

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
            _check_hurst_range(0.4)


class TestCheckedCholesky:
    """The factorisation is its own certificate: the eigenvalue check runs
    only when a plain Cholesky fails."""

    def test_indefinite_still_raises(self):
        q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((6, 6)))
        w = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 0.0])
        w[-1] = -1e-6 * w.sum() / (1.0 + 1e-6)  # lambda_min = -1e-6 trace
        R = (q * w) @ q.T
        R = 0.5 * (R + R.T)
        assert_allclose(np.linalg.eigvalsh(R).min(), -1e-6 * np.trace(R),
                        rtol=1e-6)
        with pytest.raises(NumericsError, match="indefinite"):
            _checked_cholesky(R)

    def test_rank_deficient_returns_through_jitter(self):
        # a repeated time: two identical rows, an exact zero pivot
        R = covariance_matrix(Brownian(), np.array([0.5, 1.0, 1.0, 2.0]))
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(R)
        L = _checked_cholesky(R)
        assert np.max(np.abs(L @ L.T - R)) <= 1e-10 * np.trace(R)

    def test_definite_skips_eigenvalues_and_is_lapack_bitwise(
            self, monkeypatch):
        R = covariance_matrix(FBM7, np.linspace(0.01, 1.0, 100))
        want = np.linalg.cholesky(R)

        def no_eigvalsh(*args, **kwargs):
            raise AssertionError("eigvalsh ran on a definite matrix")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
        assert np.array_equal(_checked_cholesky(R), want)


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

    def test_matrix_matches_segment_sums(self):
        model = PiecewiseHurst((0.3, 1.0, 1.7), (0.6, 0.3, 0.9, 0.55))
        grid = np.array([0.0, 0.1, 0.3, 0.5, 1.0, 1.2, 1.7, 2.0, 3.5])
        want = [[piecewise_cov_loop(model, a, b) for b in grid] for a in grid]
        # array and scalar powers may round apart by an ulp
        assert_allclose(covariance_matrix(model, grid), want, rtol=1e-15,
                        atol=0.0)

    def test_slope_arrays_match_segment_formula(self):
        model = PiecewiseHurst((0.3, 0.55), (0.7, 0.5, 0.9))
        t = np.linspace(0.001, 1.0, 997)
        want = []
        for u in t:
            k = int(np.searchsorted((0.0, 0.3, 0.55), u, side="right")) - 1
            h2 = 2.0 * model.hursts[k]
            want.append(h2 * (float(u) - (0.0, 0.3, 0.55)[k]) ** (h2 - 1.0))
        assert_allclose(model.dvar(t), want, rtol=1e-15, atol=0.0)
        assert np.ndim(model.dvar(0.7)) == 0
        # within 1e-12 of a breakpoint the slope is refused, in an array too
        with pytest.raises(ValueError, match="not differentiable"):
            model.dvar(np.array([0.2, 0.55 + 5e-13]))

    def test_validation(self):
        with pytest.raises(ValueError):
            PiecewiseHurst((0.5,), (0.5,))
        with pytest.raises(ValueError):
            PiecewiseHurst((0.5, 0.4), (0.5, 0.6, 0.7))
        with pytest.raises(ValueError):
            PiecewiseHurst((0.5,), (0.5, 1.2))
