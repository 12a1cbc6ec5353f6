import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad
from scipy.stats import ks_2samp

from subdiff.config import DEFAULT_CONFIG
from subdiff.errors import InversionError, NumericsError
from subdiff.subordinators import (
    MonotonePath,
    _level_crossing_paths,
    SeededRng,
    SubordinatorSpec,
    clock_density_fast,
    inverse_time_density,
    inverse_time_moment,
    invert_subordinator_path,
    sample_inverse_ensemble,
    sample_inverse_marginal,
    sample_positive_stable,
    sample_subordinator_path,
    unit_clock_density,
)

from oracles import UNIT_CLOCK_MPMATH, inverse_half_density, mc_laplace_check

MIX = SubordinatorSpec(((0.4, 1.0), (0.8, 1.0)))


class TestSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            SubordinatorSpec(())
        with pytest.raises(ValueError):
            SubordinatorSpec(((1.2, 1.0),))
        with pytest.raises(ValueError):
            SubordinatorSpec(((0.5, -1.0),))
        with pytest.raises(ValueError):
            SubordinatorSpec(((0.5, 1.0), (0.5, 2.0)))  # repeated index
        with pytest.raises(ValueError):
            SubordinatorSpec(((1.0, 1.0), (0.5, 1.0)))  # mixed determinism

    def test_laplace_exponent(self):
        s = np.array([2.0])
        assert_allclose(MIX.laplace_exponent(s), 2.0**0.4 + 2.0**0.8)

    def test_weights_need_no_normalization(self):
        spec = SubordinatorSpec(((0.3, 2.5), (0.7, 0.1)))
        assert_allclose(spec.laplace_exponent(np.array([1.0])), 2.6)


class TestStableSampling:
    def test_laplace_transform_oracle(self, rng):
        # E[e^{-sX}] = e^{-s^beta} within 3 standard errors, 1e5 draws
        x = sample_positive_stable(0.7, 1.0, rng, size=100_000)
        dev, ok = mc_laplace_check(x, 1.0, math.exp(-1.0))
        assert ok, f"deviation {dev:.2f} standard errors"

    def test_positivity(self, rng):
        x = sample_positive_stable(0.3, 2.0, rng, size=10_000)
        assert np.all(x > 0.0)

    def test_scaling_property(self, rng, rng2):
        # scale c draws match c^{1/beta}-scaled unit draws in distribution
        beta, c = 0.6, 3.0
        a = sample_positive_stable(beta, c, rng, size=100_000)
        b = c ** (1.0 / beta) * sample_positive_stable(beta, 1.0, rng2,
                                                       size=100_000)
        for s in (0.3, 1.0):
            ea = np.exp(-s * a)
            eb = np.exp(-s * b)
            se = math.hypot(ea.std() / 316.0, eb.std() / 316.0)
            assert abs(ea.mean() - eb.mean()) < 3.5 * se

    def test_half_against_levy_representation(self, rng, rng2):
        # X = 1/(2 Z^2) has transform e^{-sqrt(s)}; compare empirical means
        z = rng2.generator().standard_normal(100_000)
        alt = 1.0 / (2.0 * z * z)
        x = sample_positive_stable(0.5, 1.0, rng, size=100_000)
        ea, eb = np.exp(-x), np.exp(-alt)
        se = math.hypot(ea.std() / 316.0, eb.std() / 316.0)
        assert abs(ea.mean() - eb.mean()) < 3.5 * se

    def test_rejects_beta_one(self, rng):
        with pytest.raises(ValueError):
            sample_positive_stable(1.0, 1.0, rng)

    @pytest.mark.parametrize("beta", [0.99, 0.995])
    def test_finite_near_beta_one(self, beta):
        # Kanter's A overflows as u -> pi at beta near 1; formed directly it
        # turned 7 (beta 0.99) and 267 (beta 0.995) of these draws into inf
        x = sample_positive_stable(beta, 1.0, SeededRng(1), size=2_000_000)
        assert np.all(np.isfinite(x))


class TestPaths:
    def test_path_laplace_transform(self, rng):
        grid = np.linspace(0.0, 1.0, 51)
        vals = np.array([
            sample_subordinator_path(SubordinatorSpec.pure(0.5), grid,
                                     rng.stream(i)).values[-1]
            for i in range(4000)
        ])
        dev, ok = mc_laplace_check(vals, 2.0, math.exp(-(2.0**0.5)))
        assert ok, dev

    def test_mixture_path_laplace_transform(self, rng):
        grid = np.linspace(0.0, 1.0, 51)
        vals = np.array([
            sample_subordinator_path(MIX, grid, rng.stream(i)).values[-1]
            for i in range(4000)
        ])
        dev, ok = mc_laplace_check(vals, 1.0, math.exp(-2.0))
        assert ok, dev

    def test_strictly_increasing(self, rng):
        grid = np.linspace(0.0, 2.0, 201)
        p = sample_subordinator_path(SubordinatorSpec.pure(0.7), grid, rng)
        assert np.all(np.diff(p.values) > 0.0)

    def test_beta_one_is_identity(self, rng):
        grid = np.linspace(0.0, 1.0, 11)
        p = sample_subordinator_path(SubordinatorSpec.pure(1.0), grid, rng)
        assert_allclose(p.values, grid, rtol=0, atol=0)

    def test_finite_near_beta_one(self):
        # this stream drew an infinite increment while Kanter's A was
        # formed directly, and the path was refused as not finite
        grid = np.linspace(0.0, 1.0, 10001)
        p = sample_subordinator_path(SubordinatorSpec.pure(0.99), grid,
                                     SeededRng(3, 5))
        assert np.all(np.isfinite(p.values))


class TestInversion:
    def test_degenerate_clock(self):
        grid = np.linspace(0.0, 1.0, 101)
        w = MonotonePath(grid, grid.copy())
        e = invert_subordinator_path(w, np.linspace(0.0, 0.9, 10))
        assert_allclose(e.values, e.grid, atol=1e-14)

    def test_flat_under_jump(self):
        # W jumps from 1 to 3 at s = 0.5: E is constant on (1, 3)
        grid = np.array([0.0, 0.5, 1.0])
        w = MonotonePath(grid, np.array([0.0, 1.0, 3.0]))
        ts = np.array([1.2, 1.8, 2.4, 2.9])
        e = invert_subordinator_path(w, ts)
        # inf-definition: all inside the jump map into the crossing step
        assert np.all(np.diff(e.values) >= 0.0)
        assert e.values[-1] <= 1.0
        direct = [min(s for s, wv in zip(grid, w.values) if wv > t)
                  for t in ts]
        assert np.all(e.values[1:] <= np.array(direct) + 1e-12)

    def test_nondecreasing_for_sampled_paths(self, rng):
        grid = np.linspace(0.0, 3.0, 301)
        for i in range(25):
            w = sample_subordinator_path(SubordinatorSpec.pure(0.6), grid,
                                         rng.stream(i))
            ts = np.linspace(0.0, w.values[-1] * 0.9, 40)
            e = invert_subordinator_path(w, ts)
            assert np.all(np.diff(e.values) >= 0.0)

    def test_out_of_range(self, rng):
        grid = np.linspace(0.0, 1.0, 11)
        w = sample_subordinator_path(SubordinatorSpec.pure(0.5), grid, rng)
        with pytest.raises(ValueError):
            invert_subordinator_path(w, [w.values[-1] * 1.1])

    def test_refinement_improves_accuracy(self):
        # for fixed randomness, refining the operational grid brings E
        # closer to a 10x finer reference inversion
        base = SeededRng(7)
        fine_grid = np.linspace(0.0, 4.0, 8001)
        w_fine = sample_subordinator_path(SubordinatorSpec.pure(0.5),
                                          fine_grid, base)
        ts = np.linspace(0.1, w_fine.values[-1] * 0.8, 60)
        ref = invert_subordinator_path(w_fine, ts).values
        errs = []
        for stride in (40, 10):
            sub = MonotonePath(fine_grid[::stride], w_fine.values[::stride])
            got = invert_subordinator_path(sub, ts).values
            errs.append(np.max(np.abs(got - ref)))
        assert errs[1] <= errs[0]


class TestEnsemble:
    def test_moments_against_closed_form(self, rng):
        E = sample_inverse_ensemble(SubordinatorSpec.pure(0.5),
                                    [0.5, 1.0, 2.0], 60_000, rng)
        for k, t in enumerate((0.5, 1.0, 2.0)):
            want = t**0.5 / math.gamma(1.5)
            se = E[:, k].std() / math.sqrt(len(E))
            assert abs(E[:, k].mean() - want) < 3.0 * se

    def test_rows_nondecreasing(self, rng):
        E = sample_inverse_ensemble(MIX, [0.3, 0.7, 1.2], 5_000, rng)
        assert np.all(np.diff(E, axis=1) >= 0.0)

    def test_deterministic_clock(self, rng):
        E = sample_inverse_ensemble(SubordinatorSpec.pure(1.0), [0.5, 1.0],
                                    10, rng)
        assert_allclose(E, np.tile([0.5, 1.0], (10, 1)))

    def test_self_similarity(self, rng, rng2):
        # E_{ct} =d c^beta E_t: compare gamma in {1, 2} moments
        beta, c = 0.7, 2.0
        a = sample_inverse_ensemble(SubordinatorSpec.pure(beta), [c], 50_000,
                                    rng)[:, 0]
        b = c**beta * sample_inverse_ensemble(SubordinatorSpec.pure(beta),
                                              [1.0], 50_000, rng2)[:, 0]
        for g in (1.0, 2.0):
            pa, pb = a**g, b**g
            se = math.hypot(pa.std() / math.sqrt(len(pa)),
                            pb.std() / math.sqrt(len(pb)))
            assert abs(pa.mean() - pb.mean()) < 3.0 * se

    def test_kolmogorov_smirnov_vs_density(self, rng):
        # empirical CDF against the quadrature CDF of the inverted density
        spec = SubordinatorSpec.pure(0.5)
        E = np.sort(sample_inverse_ensemble(spec, [1.0], 100_000, rng)[:, 0])
        taus = np.linspace(1e-4, 8.0, 1200)
        f = inverse_time_density(spec, 1.0, taus)
        cdf = np.concatenate([[0.0], np.cumsum(
            0.5 * (f[1:] + f[:-1]) * np.diff(taus)
        )]) + taus[0] * f[0]
        emp = np.searchsorted(E, taus, side="right") / len(E)
        ks = np.max(np.abs(emp - cdf))
        assert ks < 1.628 / math.sqrt(len(E))  # 1% critical value



# one-component clocks (beta, weight) for the exact one-time draw
MARGINAL_CLOCKS = [(0.1, 1.0), (0.5, 1.0), (0.9, 1.0), (0.6, 0.5)]


class TestMarginal:
    """The Kanter draw of E_1 against the two routes it stands beside."""

    @pytest.mark.parametrize("beta, weight", MARGINAL_CLOCKS)
    def test_matches_level_crossing(self, rng, rng2, beta, weight):
        spec = SubordinatorSpec(((beta, weight),))
        exact = sample_inverse_marginal(spec, 1.0, 20_000, rng)
        paths = _level_crossing_paths(spec, np.array([1.0]), 20_000,
                                      rng2.generator())[:, 0]
        assert ks_2samp(exact, paths).pvalue > 1e-3

    @pytest.mark.parametrize("beta, weight", MARGINAL_CLOCKS)
    def test_kolmogorov_smirnov_vs_density(self, rng, beta, weight):
        spec = SubordinatorSpec(((beta, weight),))
        E = np.sort(sample_inverse_marginal(spec, 1.0, 100_000, rng))
        taus = np.linspace(1e-4, 16.0 / weight, 3000)
        f = inverse_time_density(spec, 1.0, taus)
        cdf = np.concatenate([[0.0], np.cumsum(
            0.5 * (f[1:] + f[:-1]) * np.diff(taus)
        )]) + taus[0] * f[0]
        emp = np.searchsorted(E, taus, side="right") / len(E)
        ks = np.max(np.abs(emp - cdf))
        assert ks < 1.628 / math.sqrt(len(E))  # 1% critical value

    def test_small_beta_stays_finite(self, rng):
        # (t/D)^beta overflows here: D's Kanter power (1-b)/b is 99
        E = sample_inverse_marginal(SubordinatorSpec.pure(0.01), 2.0,
                                    100_000, rng)
        assert np.all(np.isfinite(E)) and np.all(E > 0.0)
        se = E.std() / math.sqrt(len(E))
        assert abs(E.mean() - 2.0**0.01 / math.gamma(1.01)) < 4.0 * se

    def test_beta_near_one_stays_finite(self, rng):
        # A(U) overflows near pi here, which once gave E = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            E = sample_inverse_marginal(SubordinatorSpec.pure(0.99), 1.0,
                                        1_000_000, rng)
        assert np.all(np.isfinite(E)) and np.all(E > 0.0)
        se = E.std() / math.sqrt(len(E))
        assert abs(E.mean() - 1.0 / math.gamma(1.99)) < 4.0 * se

    def test_deterministic_and_mixture_routes(self, rng):
        assert_allclose(
            sample_inverse_marginal(SubordinatorSpec(((1.0, 2.0),)), 3.0, 4,
                                    rng), np.full(4, 1.5))
        # a mixture falls back to the level-crossing column, stream for stream
        assert_allclose(sample_inverse_marginal(MIX, 0.7, 50, rng),
                        sample_inverse_ensemble(MIX, [0.7], 50, rng)[:, 0])

def flat_period_atom(beta: float, s: float, t: float) -> float:
    """P(E_s = E_t) = P(W at the passage over s exceeds t)
    = E_B[((s - sB) / (t - sB))^beta] with B ~ Beta(beta, 1 - beta)."""
    val, _ = quad(lambda b: ((s - s * b) / (t - s * b)) ** beta, 0.0, 1.0,
                  weight="alg", wvar=(beta - 1.0, -beta))
    return val * math.sin(math.pi * beta) / math.pi


def cross_moment(beta: float, weight: float, s: float, t: float) -> float:
    """E[E_s E_t] for s <= t (Leonenko, Meerschaert & Sikorskii, Comput.
    Math. Appl. 66, 2013); a weight-w clock's E is the weight-1 E over w."""
    val, _ = quad(lambda u: (t - u) ** beta + (s - u) ** beta, 0.0, s,
                  weight="alg", wvar=(beta - 1.0, 0.0))
    return val / (math.gamma(beta) * math.gamma(1.0 + beta) * weight**2)


# one-component clocks (beta, weight) for the exact multi-time paths
PATH_CLOCKS = [(0.1, 1.0), (0.5, 1.0), (0.9, 1.0), (0.6, 0.5)]


class TestExactPaths:
    """Passage-law paths of one-component clocks against closed forms and
    against the level-crossing walk."""

    @pytest.mark.parametrize("beta, weight", PATH_CLOCKS)
    def test_flat_period_atom(self, rng, beta, weight):
        # one jump covers both levels exactly when E_1 = E_1.2
        spec = SubordinatorSpec(((beta, weight),))
        E = sample_inverse_ensemble(spec, [1.0, 1.2], 200_000, rng)
        got = np.mean(E[:, 0] == E[:, 1])
        want = flat_period_atom(beta, 1.0, 1.2)
        assert abs(got - want) < 4.0 * math.sqrt(want * (1 - want) / len(E))

    @pytest.mark.parametrize("beta, weight", PATH_CLOCKS)
    def test_cross_moments(self, rng, beta, weight):
        spec = SubordinatorSpec(((beta, weight),))
        times = [0.5, 1.0, 1.2, 2.0]
        E = sample_inverse_ensemble(spec, times, 200_000, rng)
        for i, k in ((1, 2), (0, 3), (2, 2)):
            x = E[:, i] * E[:, k]
            want = cross_moment(beta, weight, times[i], times[k])
            se = x.std() / math.sqrt(len(x))
            assert abs(x.mean() - want) < 4.0 * se, (times[i], times[k])

    @pytest.mark.parametrize("beta, weight", PATH_CLOCKS)
    def test_matches_level_crossing(self, rng, rng2, beta, weight):
        spec = SubordinatorSpec(((beta, weight),))
        times = np.array([0.5, 1.0, 2.0])
        exact = sample_inverse_ensemble(spec, times, 20_000, rng)
        walk = _level_crossing_paths(spec, times, 20_000, rng2.generator())
        for k in range(len(times)):
            assert ks_2samp(exact[:, k], walk[:, k]).pvalue > 1e-3

    @pytest.mark.parametrize("beta", [0.01, 0.99])
    def test_tail_betas_stay_finite(self, rng, beta):
        # a Beta(0.01, 0.99) draw underflows to 0, V^(-1/0.01) overflows,
        # and A(u) overflows near pi at 0.99: every piece is drawn in logs
        times = [0.5, 1.0, 2.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            E = sample_inverse_ensemble(SubordinatorSpec.pure(beta), times,
                                        100_000, rng)
        assert np.all(np.isfinite(E)) and np.all(E > 0.0)
        assert np.all(np.diff(E, axis=1) >= 0.0)
        for k, t in enumerate(times):
            se = E[:, k].std() / math.sqrt(len(E))
            want = t**beta / math.gamma(1.0 + beta)
            assert abs(E[:, k].mean() - want) < 4.0 * se


class TestDensity:
    def test_half_closed_form(self):
        # acceptance-grade check lives in test_acceptance; spot values here
        taus = np.array([0.05, 0.5, 1.0, 3.0, 5.0])
        f = inverse_time_density(SubordinatorSpec.pure(0.5), 1.0, taus)
        assert_allclose(f, inverse_half_density(1.0, taus), rtol=1e-7)

    def test_normalization(self):
        spec = SubordinatorSpec.pure(0.7)
        val, _ = quad(lambda u: inverse_time_density(spec, 2.0, u),
                      0.0, 40.0, limit=400)
        assert abs(val - 1.0) < 1e-6

    def test_singleton_mixture_matches_pure(self):
        taus = np.linspace(0.05, 4.0, 40)
        pure = inverse_time_density(SubordinatorSpec.pure(0.5), 1.0, taus)
        single = inverse_time_density(SubordinatorSpec(((0.5, 1.0),)), 1.0,
                                      taus)
        assert_allclose(pure, single, atol=1e-8)

    @pytest.mark.parametrize("beta", [0.3, 0.7])
    def test_weighted_single_clock_matches_inversion(self, beta):
        # the exact self-similar route at scale t^b / w against the dual
        # Laplace inversion of (w s^b / s) exp(-tau w s^b)
        spec = SubordinatorSpec(((beta, 2.5),))
        taus = np.linspace(0.0, 3.0, 31) * spec.inverse_scale(1.5)
        exact = clock_density_fast(spec, 1.5, taus)
        assert_allclose(exact, inverse_time_density(spec, 1.5, taus),
                        rtol=0.0, atol=1e-7 * exact.max())

    def test_laplace_forward_recovers_transform(self):
        # numerically transform f_{E_t}(tau) in t; compare s^{b-1}e^{-tau s^b}
        from subdiff.fraccalc import laplace_forward

        spec = SubordinatorSpec.pure(0.5)
        for s in (0.5, 1.0, 2.0):
            for tau in (0.5, 1.0):
                v, _ = laplace_forward(
                    lambda t: np.array([inverse_time_density(spec, tj, tau)
                                        for tj in t]),
                    s, t_max=25.0,
                )
                want = s**-0.5 * math.exp(-tau * math.sqrt(s))
                assert_allclose(v.real, want, rtol=1e-5)

    def test_beta_one_rejected(self):
        with pytest.raises(ValueError):
            inverse_time_density(SubordinatorSpec.pure(1.0), 1.0, 0.5)

    def test_negative_tau_rejected(self):
        with pytest.raises(ValueError):
            inverse_time_density(SubordinatorSpec.pure(0.5), 1.0, -0.1)

    def test_mixture_density_keys_on_tolerances(self):
        # a mixture's clock density is inverted at the caller's tolerances:
        # values computed at the defaults must not answer a call at a
        # tolerance the inversion cannot meet
        taus = np.array([0.5, 1.0])
        clock_density_fast(MIX, 1.0, taus)
        tight = replace(DEFAULT_CONFIG, inversion_tol=1e-13)
        with pytest.raises(InversionError):
            clock_density_fast(MIX, 1.0, taus, config=tight)
        # a pure clock's density is exact and reads no tolerance
        pure = SubordinatorSpec.pure(0.55)
        assert_allclose(clock_density_fast(pure, 1.0, taus, config=tight),
                        clock_density_fast(pure, 1.0, taus), rtol=0.0)


class TestUnitClockDensity:
    """The exact f_{E_1} (M-Wright series, Kanter-Zolotarev integral)."""

    @pytest.mark.parametrize("key", sorted(UNIT_CLOCK_MPMATH),
                             ids=lambda k: f"{k[0]}-{k[1]}")
    def test_mpmath_values(self, key):
        beta, u = key
        want = float(UNIT_CLOCK_MPMATH[key])
        got = float(unit_clock_density(beta, u)[0])
        if want > 1e-250:
            assert abs(got / want - 1.0) <= 1e-12
        else:
            assert abs(got - want) <= 1e-262

    def test_vectorised_over_both_branches(self):
        # one call over the series and the integral ranges gives each
        # value it gives alone
        u = np.array([0.0, 1e-6, 0.9, 1.3, 2.0, 3.0, 1e3])
        one_by_one = [float(unit_clock_density(0.6, x)[0]) for x in u]
        assert_allclose(unit_clock_density(0.6, u), one_by_one, rtol=1e-15)
        assert unit_clock_density(0.6, 0.0)[0] == pytest.approx(
            1.0 / math.gamma(0.4), rel=1e-15)
        assert unit_clock_density(0.6, 1e3)[0] == 0.0

    @pytest.mark.parametrize("beta", [0.1, 0.3, 0.5, 0.6, 0.72, 0.78, 0.84,
                                      0.9, 0.94, 0.95])
    def test_monotone_beyond_mode(self, beta):
        f = unit_clock_density(beta, np.geomspace(1e-6, 120.0, 20_000))
        assert np.all(np.isfinite(f)) and np.all(f >= 0.0)
        assert np.all(np.diff(f[int(np.argmax(f)):]) <= 0.0)

    @pytest.mark.parametrize("beta", [0.72, 0.75, 0.78, 0.82])
    def test_no_value_above_the_mode(self, beta):
        # regression: a log-log spline through inverted values of f_{E_1}
        # spiked between its knots in the tail, up to 1e88 at beta 0.78
        # where the density is O(1).  The mode value comes from the dual
        # inversion, which is accurate there, near its own argmax.
        spec = SubordinatorSpec.pure(beta)
        coarse = np.geomspace(1e-3, 5.0, 400)
        k = int(np.argmax(inverse_time_density(spec, 1.0, coarse)))
        near = np.linspace(coarse[k - 1], coarse[k + 1], 2001)
        mode = inverse_time_density(spec, 1.0, near).max()
        fine = clock_density_fast(spec, 1.0, np.geomspace(1e-6, 120.0,
                                                          200_000))
        assert fine.max() <= mode * (1.0 + DEFAULT_CONFIG.inversion_tol)

    @pytest.mark.parametrize("beta", [0.2, 0.5, 0.78, 0.95])
    @pytest.mark.parametrize("t", [0.3, 1.0, 3.0])
    def test_matches_dual_inversion(self, beta, t):
        spec = SubordinatorSpec.pure(beta)
        taus = t**beta * np.geomspace(1e-3, 20.0, 200)
        inverted = inverse_time_density(spec, t, taus)
        exact = clock_density_fast(spec, t, taus)
        assert np.max(np.abs(exact - inverted)) <= (
            DEFAULT_CONFIG.inversion_tol * inverted.max())

    @pytest.mark.parametrize("beta", [0.1, 0.5, 0.85, 0.95])
    def test_mass_and_moments(self, beta):
        spec = SubordinatorSpec.pure(beta)

        def f(u):
            return float(unit_clock_density(beta, u)[0])

        for gamma in (0.0, 1.0, 2.0):
            val, _ = quad(lambda u: u**gamma * f(u), 0.0, np.inf,
                          epsabs=0.0, epsrel=1e-13, limit=200)
            want = 1.0 if gamma == 0.0 else inverse_time_moment(spec, 1.0,
                                                                 gamma)
            assert abs(val / want - 1.0) <= 1e-12

    def test_beta_outside_open_interval_rejected(self):
        for beta in (0.0, 1.0):
            with pytest.raises(ValueError):
                unit_clock_density(beta, [0.5])

    def test_beta_an_ulp_below_one(self):
        # the clock is E_1 = 1 to the last bit: past u0 = 1 + 4e-15 the
        # integral's z = u^(1/(1-beta)) overflows even in extended
        # precision, and the density is exactly 0, with no warning
        beta = 1.0 - 2.0**-53
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.all(unit_clock_density(beta, [1.01, 2.0, 80.0]) == 0.0)

    def test_series_too_long_near_one_raises(self):
        # the series serves u up to u0 = 1.0043 at beta 0.9995, and at
        # u = 1.004 it would take more than the 2^14 terms it builds, while
        # beta 0.995 stops below 2^11
        assert np.isfinite(unit_clock_density(0.995, [1.004])[0])
        with pytest.raises(NumericsError, match="beta too close to 1"):
            unit_clock_density(0.9995, [1.004])


class TestMoments:
    def test_closed_form_values(self):
        # frozen: Gamma(2) 1^{0.5}/Gamma(1.5) and 2 * 2^{1.6}/Gamma(2.6)
        assert_allclose(
            inverse_time_moment(SubordinatorSpec.pure(0.5), 1.0, 1.0),
            1.1283791670955126, rtol=1e-12,
        )
        assert_allclose(
            inverse_time_moment(SubordinatorSpec.pure(0.8), 2.0, 2.0),
            4.2408800467689955, rtol=1e-12,
        )

    def test_beta_one_gives_power(self):
        assert_allclose(
            inverse_time_moment(SubordinatorSpec.pure(1.0), 2.0, 1.5),
            2.0**1.5, rtol=1e-12,
        )

    def test_against_density_quadrature(self):
        # integrate tau f_{E_t}(tau) directly
        spec = SubordinatorSpec.pure(0.5)
        val, _ = quad(lambda u: u * inverse_time_density(spec, 1.0, u),
                      0.0, 12.0, limit=300)
        assert_allclose(inverse_time_moment(spec, 1.0, 1.0), val, rtol=1e-7)

    def test_against_monte_carlo(self, rng):
        spec = SubordinatorSpec.pure(0.5)
        E = sample_inverse_ensemble(spec, [1.0], 60_000, rng)[:, 0]
        want = inverse_time_moment(spec, 1.0, 1.0)
        se = E.std() / math.sqrt(len(E))
        assert abs(E.mean() - want) < 3.0 * se

    def test_mixture_inversion_vs_quadrature(self):
        got = inverse_time_moment(MIX, 1.0, 1.0)
        val, _ = quad(lambda u: u * inverse_time_density(MIX, 1.0, u),
                      0.0, 30.0, limit=300)
        assert_allclose(got, val, rtol=1e-7)


def test_export_roundtrip(tmp_path, rng):
    # path ensembles export as path_id,t,value CSV with a JSON sidecar
    import json

    from subdiff.gaussian import Brownian, GaussianSpec, sample_gaussian_paths
    from subdiff.io import paths_csv, provenance, write_artifact

    ens = sample_gaussian_paths(GaussianSpec.univariate(Brownian()),
                                np.linspace(0.0, 1.0, 5), 3, rng)
    csv = paths_csv(ens)
    assert csv.splitlines()[0] == "path_id,t,value"
    assert len(csv.splitlines()) == 1 + 3 * 5
    files = write_artifact(str(tmp_path), "paths", csv,
                           provenance({"demo": True}, seed=1))
    meta = json.loads(open(files[1]).read())
    assert meta["seed"] == 1 and "config_sha256" in meta
