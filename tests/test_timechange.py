import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.integrate import quad
from scipy.stats import chi2, ks_2samp

from subdiff.config import DEFAULT_CONFIG, SolverConfig
from subdiff.errors import (
    DegenerateDensityError,
    InversionError,
    NumericsError,
    QuadratureError,
)
from subdiff.gaussian import (
    Brownian,
    FractionalBrownian,
    GaussianSpec,
    MobiusHurst,
    OrnsteinUhlenbeck,
    PiecewiseHurst,
    VariableHurst,
    covariance_matrix,
    gaussian_transition_density,
    sample_gaussian_paths,
)
from subdiff.subordinators import (
    SeededRng,
    SubordinatorSpec,
    inverse_time_density,
    inverse_time_moment,
    sample_inverse_ensemble,
)
import subdiff.timechange as tc
from subdiff.timechange import (
    GridDensity,
    TimeChangedSpec,
    empirical_density,
    laplace_subordination_residual,
    sample_timechanged_marginal,
    sample_timechanged_paths,
    subordinated_density,
    subordinated_grid_density,
)

from oracles import (
    bm_pure_clock_density,
    fourier_ml_bm_half,
    inverse_half_density,
    panel_rule_loop,
    subordinate_slice_loop,
    subordinated_bm_half,
    subordinated_profile_loop,
)

BM = GaussianSpec.univariate(Brownian())
SPEC_HALF = TimeChangedSpec(BM, SubordinatorSpec.pure(0.5))
SPEC_MIX = TimeChangedSpec(BM, SubordinatorSpec(((0.4, 0.5), (0.8, 0.5))))


class TestPathComposition:
    def test_beta_one_matches_gaussian_sampling(self, rng, rng2):
        # with the deterministic clock the laws coincide slice by slice
        grid = [0.0, 0.5, 1.0]
        det = TimeChangedSpec(BM, SubordinatorSpec.pure(1.0))
        a = sample_timechanged_paths(det, grid, 4000, rng).component()
        b = sample_gaussian_paths(BM, grid, 4000, rng2).component()
        for k in (1, 2):
            assert ks_2samp(a[:, k], b[:, k]).pvalue > 0.01

    def test_bm_variance_is_mean_clock(self, rng):
        x = sample_timechanged_marginal(SPEC_HALF, 1.0, 60_000, rng)[:, 0]
        want = 1.0 / math.gamma(1.5)  # E[E_1]
        se = np.std(x**2) / math.sqrt(len(x))
        assert abs(x.var() - want) < 3.0 * se

    def test_fbm_variance_via_moment_oracle(self, rng):
        H, beta = 0.7, 0.5
        spec = TimeChangedSpec(GaussianSpec.univariate(FractionalBrownian(H)),
                               SubordinatorSpec.pure(beta))
        x = sample_timechanged_marginal(spec, 1.0, 60_000, rng)[:, 0]
        want = inverse_time_moment(SubordinatorSpec.pure(beta), 1.0, 2.0 * H)
        se = np.std(x**2) / math.sqrt(len(x))
        assert abs(x.var() - want) < 3.0 * se

    def test_paths_share_clock_across_components(self, rng):
        # both components jump with the same clock: their squared values
        # correlate even though the Gaussians are independent
        spec2 = TimeChangedSpec(
            GaussianSpec((Brownian(), Brownian())), SubordinatorSpec.pure(0.4)
        )
        ens = sample_timechanged_paths(spec2, [1.0], 8000, rng)
        a, b = ens.paths[:, 0, 0], ens.paths[:, 0, 1]
        corr = np.corrcoef(a * a, b * b)[0, 1]
        assert corr > 0.1

    def test_constancy_intervals_reuse_values(self, rng, monkeypatch):
        # a clock plateau (repeated E values) must map to one Gaussian draw
        import subdiff.timechange as tc

        tied = np.tile(np.array([[0.2, 0.7, 0.7, 0.7, 1.1]]), (50, 1))

        def fake_ensemble(spec, t_grid, n_paths, rng_, **kw):
            return tied[:n_paths]

        monkeypatch.setattr(tc, "sample_inverse_ensemble", fake_ensemble)
        ens = sample_timechanged_paths(SPEC_HALF, np.linspace(0.1, 0.5, 5),
                                       50, rng)
        x = ens.component()
        assert np.all(x[:, 1] == x[:, 2])
        assert np.all(x[:, 2] == x[:, 3])
        assert not np.allclose(x[:, 0], x[:, 1])


    def test_piecewise_hurst_composed_paths(self, rng):
        # Var X_{E_t} = E[R(E_t)]; at beta = 1/2 the clock density is the
        # half-normal closed form, so both moments of R(E_t) are quadratures
        pw = PiecewiseHurst((0.5,), (0.5, 0.8))
        spec = TimeChangedSpec(GaussianSpec.univariate(pw),
                               SubordinatorSpec.pure(0.5))
        n = 4000
        x = sample_timechanged_paths(spec, [0.0, 0.5, 1.0], n, rng).component()
        assert np.all(x[:, 0] == 0.0)
        for k, t in ((1, 0.5), (2, 1.0)):
            m1, m2 = (quad(lambda u: float(pw.var(u)) ** p
                           * inverse_half_density(t, u), 0.0, 40.0,
                           points=[0.5], limit=200)[0] for p in (1, 2))
            # E[X^4] = 3 E[R(E_t)^2] for a centered normal given the clock
            z = (np.mean(x[:, k] ** 2) - m1) / math.sqrt((3.0 * m2 - m1**2) / n)
            assert abs(z) < 4.0

    def test_variable_hurst_path_at_two_times(self, rng, monkeypatch):
        # one path: the draw is the Cholesky factor of the model's own
        # covariance at the realized clock values times the normal stream
        import subdiff.timechange as tc

        clock = np.array([[0.4, 0.9]])
        monkeypatch.setattr(tc, "sample_inverse_ensemble",
                            lambda spec, t_grid, n_paths, rng_: clock)
        vh = VariableHurst(MobiusHurst(0.6, 0.2), horizon=2.0)
        spec = TimeChangedSpec(GaussianSpec.univariate(vh),
                               SubordinatorSpec.pure(0.5))
        ens = sample_timechanged_paths(spec, [0.5, 1.0], 1, rng)
        assert ens.paths.shape == (1, 2, 1)
        L = np.linalg.cholesky(covariance_matrix(vh, clock[0]))
        want = L @ rng.stream(1).generator().standard_normal(2)
        assert_allclose(ens.paths[0, :, 0], want, rtol=1e-12)


class TestMarkovComposition:
    """Exact Markov increments over the clock against the per-path Cholesky
    route, at one shared clock draw (beta 1/2)."""

    TIMES = [0.25, 0.5, 1.0, 2.0]

    @pytest.mark.parametrize("model", [Brownian(),
                                       OrnsteinUhlenbeck(0.8, 1.3)])
    def test_product_moments_match_cholesky(self, rng, model):
        n = 5000
        E = sample_inverse_ensemble(SubordinatorSpec.pure(0.5), self.TIMES,
                                    n, rng.stream(0))
        a = tc._markov_draws(model, E, rng.stream(1).generator())
        b = tc._cholesky_draws(model, E, rng.stream(2).generator())
        for i in range(len(self.TIMES)):
            for k in range(i, len(self.TIMES)):
                # both routes share the clock: the per-path difference of
                # the products has mean 0
                d = a[:, i] * a[:, k] - b[:, i] * b[:, k]
                assert abs(d.mean()) < 4.0 * d.std() / math.sqrt(n), (i, k)
        for k in range(len(self.TIMES)):
            assert ks_2samp(a[:, k], b[:, k]).pvalue > 1e-3

    def test_brownian_cross_moment_is_mean_clock(self, rng):
        # E[B(E_s) B(E_t)] = E[min(E_s, E_t)] = E[E_s] = s^beta / Gamma(1+beta)
        n = 40_000
        ens = sample_timechanged_paths(SPEC_HALF, self.TIMES, n, rng)
        x = ens.component()
        for i in range(len(self.TIMES)):
            for k in range(i, len(self.TIMES)):
                p = x[:, i] * x[:, k]
                want = self.TIMES[i] ** 0.5 / math.gamma(1.5)
                assert abs(p.mean() - want) < 4.0 * p.std() / math.sqrt(n)

    def test_ou_at_alpha_zero_is_scaled_brownian(self, rng):
        E = sample_inverse_ensemble(SubordinatorSpec.pure(0.5), self.TIMES,
                                    50, rng.stream(0))
        ou = tc._markov_draws(OrnsteinUhlenbeck(0.0, 2.0), E,
                              rng.stream(1).generator())
        bm = tc._markov_draws(Brownian(), E, rng.stream(1).generator())
        assert_array_equal(ou, 2.0 * bm)


class TestSubordinatedDensity:
    def test_beta_one_is_gaussian(self):
        det = TimeChangedSpec(BM, SubordinatorSpec.pure(1.0))
        assert_allclose(
            subordinated_density(det, 1.0, 0.5),
            gaussian_transition_density(BM, 1.0, 0.5), rtol=1e-14,
        )

    def test_half_bm_against_fourier_oracle(self):
        for x in (0.0, 0.3, 1.0, 2.5):
            got = subordinated_density(SPEC_HALF, 1.0, x)
            want = fourier_ml_bm_half(1.0, x)
            assert abs(got - want) < 1e-5

    @pytest.mark.parametrize("beta", [0.3, 0.5, 0.8])
    def test_bm_matches_mwright_closed_form(self, beta):
        # the quadrature over the clock against M_{beta/2} in closed form
        spec = TimeChangedSpec(BM, SubordinatorSpec.pure(beta))
        x = np.linspace(-6.0, 6.0, 241)
        times = [0.01, 0.25, 1.0, 5.0]
        gd = subordinated_grid_density(spec, times, x)
        for row, t in zip(gd.values, times):
            want = bm_pure_clock_density(beta, t, x)
            assert np.max(np.abs(row - want)) <= 1e-7 * np.max(want)

    def test_frozen_peak_value(self):
        assert_allclose(subordinated_density(SPEC_HALF, 1.0, 0.0),
                        0.577033738616475, rtol=1e-7)

    def test_ou_mass(self):
        spec = TimeChangedSpec(
            GaussianSpec.univariate(OrnsteinUhlenbeck(1.0, 1.0)),
            SubordinatorSpec.pure(0.7),
        )
        gd = subordinated_grid_density(spec, [1.0], np.linspace(-6, 6, 101))
        assert gd.mass_error[0] < 1e-6

    def test_mass_recorded_per_slice(self):
        gd = subordinated_grid_density(SPEC_HALF, [0.5, 1.0],
                                       np.linspace(-8, 8, 81))
        assert gd.mass_error.shape == (2,)
        assert np.all(gd.mass_error < 1e-6)

    def test_symmetry(self):
        xs = np.linspace(-3.0, 3.0, 61)
        q = subordinated_density(SPEC_HALF, 0.7, xs)
        assert_allclose(q, q[::-1], rtol=1e-9, atol=1e-12)

    def test_monotone_spread(self):
        # Var under q equals t^b/Gamma(1+b): nondecreasing in t
        xs = np.linspace(-10, 10, 1601)
        prev = 0.0
        for t in (0.25, 0.5, 1.0, 2.0):
            q = subordinated_density(SPEC_HALF, t, xs)
            var = np.trapezoid(q * xs**2, xs)
            assert var > prev
            assert_allclose(var, t**0.5 / math.gamma(1.5), rtol=2e-3)
            prev = var

    def test_mixture_reduction(self):
        xs = np.linspace(-2, 2, 21)
        a = subordinated_density(SPEC_HALF, 1.0, xs)
        b = subordinated_density(
            TimeChangedSpec(BM, SubordinatorSpec(((0.5, 1.0),))), 1.0, xs
        )
        assert_allclose(a, b, atol=1e-8)

    @pytest.mark.parametrize("beta", [0.3, 0.6, 0.9])
    def test_weighted_single_clock_is_rescaled_pure(self, beta):
        # a weight-w clock is the unit clock run at speed w, E_t = t^b E_1 / w
        # in law: the weight-1 clock at time t / w^(1/b)
        w, ts = 2.0, np.array([0.25, 0.5, 1.0])
        xs = np.linspace(-12.0, 12.0, 400)
        for model in (Brownian(), OrnsteinUhlenbeck(1.0, 1.0)):
            gauss = GaussianSpec.univariate(model)
            got = subordinated_grid_density(
                TimeChangedSpec(gauss, SubordinatorSpec(((beta, w),))), ts, xs
            ).values
            want = subordinated_grid_density(
                TimeChangedSpec(gauss, SubordinatorSpec.pure(beta)),
                ts / w ** (1.0 / beta), xs,
            ).values
            assert_allclose(got, want, rtol=0.0,
                            atol=1e-13 * want.max())

    def test_zero_variance_raises(self):
        # a point-mass transition law has no density at the clock nodes
        class Frozen(Brownian):
            def var(self, t):
                return np.zeros_like(np.asarray(t, dtype=float))

        spec = TimeChangedSpec(GaussianSpec.univariate(Frozen()),
                               SubordinatorSpec.pure(0.5))
        with pytest.raises(DegenerateDensityError):
            subordinated_density(spec, 1.0, [0.5, 1.0])

    def test_origin_divergence_flagged(self):
        spec2 = TimeChangedSpec(
            GaussianSpec((FractionalBrownian(0.6), FractionalBrownian(0.6))),
            SubordinatorSpec.pure(0.5),
        )
        with pytest.raises(QuadratureError):
            subordinated_density(spec2, 1.0, [0.0, 0.0])


SPEC_OU = TimeChangedSpec(GaussianSpec.univariate(OrnsteinUhlenbeck(1.0, 1.0)),
                          SubordinatorSpec.pure(0.7))


class TestBatchedSubordination:
    """One quadrature over an array of times against the per-time route."""

    @pytest.mark.parametrize("n_panels", [16, 32, 64, 128])
    @pytest.mark.parametrize("u_max", [0.37, 3.0, 41.5])
    def test_panel_rule_matches_per_panel_loop(self, u_max, n_panels):
        u, w = tc._panel_rule(u_max, n_panels)
        u0, w0 = panel_rule_loop(u_max, n_panels)
        assert_allclose(u, u0, rtol=1e-15, atol=0.0)
        assert_allclose(w, w0, rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("x", [0.0, 0.5])
    @pytest.mark.parametrize("beta", [0.1, 0.4, 0.64, 0.9])
    def test_pure_profile_matches_per_node_loop(self, beta, x):
        # the Laplace identity's profile: 700 times, horizon 16
        spec = TimeChangedSpec(BM, SubordinatorSpec.pure(beta))
        tg, got = tc._subordinated_profile(spec, x, 16.0, 700, DEFAULT_CONFIG)
        tg0, want = subordinated_profile_loop(spec, x, 16.0, 700,
                                              DEFAULT_CONFIG)
        assert_array_equal(tg, tg0)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(want)

    def test_mixture_profile_matches_per_node_loop(self):
        args = (SPEC_MIX, 0.0, 16.0 / 1.5, 60, DEFAULT_CONFIG)
        _, got = tc._subordinated_profile(*args)
        _, want = subordinated_profile_loop(*args)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(want)

    @pytest.mark.parametrize("spec", [SPEC_HALF, SPEC_OU, SPEC_MIX],
                             ids=["pure", "ou", "mixture"])
    def test_grid_rows_equal_single_times(self, spec):
        ts = [0.05, 0.3, 1.0, 2.5]
        xs = np.linspace(-4.0, 4.0, 41)
        gd = subordinated_grid_density(spec, ts, xs)
        for i, t in enumerate(ts):
            q = subordinated_density(spec, t, xs)
            assert_allclose(gd.values[i], q, rtol=0.0, atol=1e-14 * q.max())
            # each row's defect comes from that row's own final level
            q0, defect0 = subordinate_slice_loop(spec, t, xs[:, None],
                                                 DEFAULT_CONFIG)
            assert np.max(np.abs(gd.values[i] - q0)) <= 1e-12 * q0.max()
            assert abs(gd.mass_error[i] - defect0) <= 1e-13

    def test_rows_stabilize_at_their_own_level(self):
        # fBm on a beta 0.9 clock at x near 0.5: the two early times settle
        # at 32 panels and the three late ones need 64 (t 0.07 never
        # settled while the clock density came from a spline)
        spec = TimeChangedSpec(GaussianSpec.univariate(FractionalBrownian(0.7)),
                               SubordinatorSpec.pure(0.9))
        ts, xs = [0.001, 0.0137, 0.07, 0.2111, 1.0], np.array([0.499, 0.5])
        gd = subordinated_grid_density(spec, ts, xs)
        for i, t in enumerate(ts):
            q0, defect0 = subordinate_slice_loop(spec, t, xs[:, None],
                                                 DEFAULT_CONFIG)
            assert np.max(np.abs(gd.values[i] - q0)) <= 1e-12 * q0.max()
            assert abs(gd.mass_error[i] - defect0) <= 1e-13
        # one row still moving at 128 panels fails the whole call: at beta
        # 0.97 the clock density is a bump too narrow for t 0.07
        steep = TimeChangedSpec(spec.gauss, SubordinatorSpec.pure(0.97))
        with pytest.raises(QuadratureError):
            subordinate_slice_loop(steep, 0.07, xs[:, None], DEFAULT_CONFIG)
        with pytest.raises(QuadratureError):
            subordinated_grid_density(steep, [0.001, 0.07, 1.0], xs)

    def test_former_band_matches_dual_inversion(self, monkeypatch):
        # beta 0.78 lay in the band where the clock spline spiked and both
        # routes raised: both now return one profile, and it is the profile
        # the dual Laplace inversion gives as the clock density, within
        # that inversion's tolerance of the profile's maximum
        spec = TimeChangedSpec(BM, SubordinatorSpec.pure(0.78))
        args = (spec, 0.0, 16.0, 700, DEFAULT_CONFIG)
        _, got = tc._subordinated_profile(*args)
        _, want = subordinated_profile_loop(*args)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(want)
        monkeypatch.setattr(tc, "clock_density_fast", inverse_time_density)
        _, inverted = tc._subordinated_profile(*args)
        assert np.max(np.abs(got - inverted)) <= (
            DEFAULT_CONFIG.inversion_tol * np.max(inverted))

    @pytest.mark.parametrize("model", [Brownian(), OrnsteinUhlenbeck(1.0, 1.0),
                                       FractionalBrownian(0.7)],
                             ids=["brownian", "ou", "fbm"])
    def test_beta_grid_scan_raises_nowhere(self, model):
        # every beta of 0.10, 0.11, ..., 0.95 at 25 times from 1e-4 to 50:
        # the spline's tail spikes made a band of them raise, and fBm rows
        # near beta 0.95 and OU rows at t <= 2e-4 need the 128-panel level
        spec = GaussianSpec.univariate(model)
        ts = np.geomspace(1e-4, 50.0, 25)
        xs = np.linspace(-4.0, 4.0, 33)
        for k in range(10, 96):
            gd = subordinated_grid_density(
                TimeChangedSpec(spec, SubordinatorSpec.pure(k / 100)), ts, xs)
            assert np.all(np.isfinite(gd.values)) and np.all(gd.values >= 0.0)
            assert np.all(gd.mass_error <= DEFAULT_CONFIG.quadrature_tol)

    def test_pure_profile_evaluates_the_clock_once_per_level(self,
                                                             monkeypatch):
        # self-similarity: one clock evaluation per panel level serves all
        # 700 profile times (the per-time route made one per time and level)
        calls = []
        real = tc.clock_density_fast

        def counting(*args, **kwargs):
            calls.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(tc, "clock_density_fast", counting)
        r = laplace_subordination_residual(SPEC_HALF, 2.0, 0.3,
                                           profile_nodes=700)
        assert r <= 1e-4
        assert 1 <= len(calls) <= 3

    def test_nonpositive_time_rejected(self):
        with pytest.raises(ValueError, match="t must be positive"):
            subordinated_grid_density(SPEC_HALF, [0.0, 1.0],
                                      np.linspace(-1.0, 1.0, 5))


class TestLaplaceResidual:
    def test_beta_one_identity(self):
        det = TimeChangedSpec(BM, SubordinatorSpec.pure(1.0))
        assert laplace_subordination_residual(det, 1.5, 0.2) < 1e-6

    def test_bm_half(self):
        r = laplace_subordination_residual(SPEC_HALF, 2.0, 0.3)
        assert r <= 1e-4

    def test_mixture(self):
        r = laplace_subordination_residual(SPEC_MIX, 1.5, 0.0,
                                           profile_nodes=300)
        assert r <= 1e-3

    @pytest.mark.parametrize("beta", [0.5, 1.0])
    def test_base_density_failure_raises(self, monkeypatch, beta):
        # a failing base density must surface, never count as density 0
        import subdiff.gaussian as gaussian

        def boom(*args, **kwargs):
            raise NumericsError("synthetic density failure")

        monkeypatch.setattr(gaussian, "gaussian_transition_density", boom)
        spec = TimeChangedSpec(BM, SubordinatorSpec.pure(beta))
        with pytest.raises(NumericsError, match="synthetic"):
            laplace_subordination_residual(spec, 2.0, 0.3, profile_nodes=40)


def test_clock_support_keeps_no_state():
    # every call probes afresh under its own tolerances: a mixture support
    # found at the defaults does not answer a call at a tolerance the
    # probe's inversion cannot meet
    ts = [0.3, 1.0]
    tc._clock_support(SPEC_MIX.sub, ts, DEFAULT_CONFIG)
    tight = replace(DEFAULT_CONFIG, inversion_tol=1e-13)
    with pytest.raises(InversionError):
        tc._clock_support(SPEC_MIX.sub, ts, tight)
    # a pure clock reads its support from the exact density: no inversion
    # and no tolerance
    assert_array_equal(tc._clock_support(SPEC_HALF.sub, ts, tight),
                       tc._clock_support(SPEC_HALF.sub, ts, DEFAULT_CONFIG))


def test_mixture_density_leaves_no_cache():
    subordinated_grid_density(SPEC_MIX, [0.3, 1.0], np.linspace(-2, 2, 9))
    assert tc._SUPPORT_RATIO == {}


class TestEmpiricalDensity:
    def test_chi_square_against_normal(self, rng):
        ens = sample_gaussian_paths(BM, [0.5, 1.0], 100_000, rng)
        hist = empirical_density(ens, 1.0, 50)
        # chi-square against N(0,1) probabilities per bin
        from scipy.stats import norm

        probs = np.diff(norm.cdf(hist.edges))
        counts = hist.density * len(ens.component()) * np.diff(hist.edges)
        keep = probs * len(ens.component()) >= 5.0
        stat = np.sum(
            (counts[keep] - len(ens.component()) * probs[keep]) ** 2
            / (len(ens.component()) * probs[keep])
        )
        assert stat < chi2.ppf(0.99, keep.sum() - 1)

    def test_integrates_to_one(self, rng):
        ens = sample_gaussian_paths(BM, [1.0], 5000, rng)
        hist = empirical_density(ens, 1.0, 25)
        assert_allclose(np.sum(hist.density * np.diff(hist.edges)), 1.0,
                        rtol=1e-12)

    def test_timechanged_against_subordination(self, rng):
        x = sample_timechanged_marginal(SPEC_HALF, 1.0, 100_000, rng)[:, 0]
        counts, edges = np.histogram(x, bins=40, range=(-4.0, 4.0))
        centers = 0.5 * (edges[:-1] + edges[1:])
        fine = np.linspace(edges[0], edges[-1], 40 * 8 + 1)
        qf = subordinated_density(SPEC_HALF, 1.0, fine)
        probs = np.array([
            np.trapezoid(qf[8 * i: 8 * i + 9], fine[8 * i: 8 * i + 9])
            for i in range(40)
        ])
        n = len(x)
        inside = counts.sum()
        keep = probs * n >= 5.0
        stat = np.sum((counts[keep] - n * probs[keep]) ** 2 / (n * probs[keep]))
        assert stat < chi2.ppf(0.99, keep.sum() - 1)

    def test_bad_time_rejected(self, rng):
        ens = sample_gaussian_paths(BM, [1.0], 100, rng)
        with pytest.raises(ValueError):
            empirical_density(ens, 0.7, 20)
        with pytest.raises(ValueError):
            empirical_density(ens, 1.0, 5)


class TestTriangulation:
    def test_three_routes_at_three_slices(self):
        # subordination integral vs Fourier oracle vs the fractional solver
        from subdiff.fpke import ScaledLaplacian, solve_fractional

        cfg = SolverConfig(t_max=1.0, n_t=240, x_min=-8.5, x_max=8.5, n_x=240)
        gd = solve_fractional(ScaledLaplacian(0.5), 0.5, cfg)
        for t in (0.4, 0.7, 1.0):
            i = np.argmin(np.abs(gd.t_grid - t))
            xg = gd.x_grid
            q_sub = subordinated_density(SPEC_HALF, float(gd.t_grid[i]), xg)
            q_four = np.array([fourier_ml_bm_half(float(gd.t_grid[i]), x)
                               for x in xg[::12]])
            assert np.abs(gd.values[i] - q_sub).max() < 5e-3
            assert np.abs(q_sub[::12] - q_four).max() < 1e-5


def test_grid_density_validation():
    with pytest.raises(ValueError):
        GridDensity(np.array([0.0, 1.0]), np.array([0.0, 1.0]),
                    np.zeros((3, 2)), np.zeros(3))
    with pytest.raises(ValueError):
        GridDensity(np.array([1.0, 0.5]), np.array([0.0, 1.0]),
                    np.zeros((2, 2)), np.zeros(2))
