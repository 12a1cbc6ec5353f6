import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad
from scipy.stats import ks_2samp

from subdiff.config import DEFAULT_CONFIG
from subdiff.errors import InversionError
from subdiff.subordinators import (
    MonotonePath,
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
)

from oracles import inverse_half_density, mc_laplace_check

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
        paths = sample_inverse_ensemble(spec, [1.0], 20_000, rng2)[:, 0]
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

    def test_deterministic_and_mixture_routes(self, rng):
        assert_allclose(
            sample_inverse_marginal(SubordinatorSpec(((1.0, 2.0),)), 3.0, 4,
                                    rng), np.full(4, 1.5))
        # a mixture falls back to the level-crossing column, stream for stream
        assert_allclose(sample_inverse_marginal(MIX, 0.7, 50, rng),
                        sample_inverse_ensemble(MIX, [0.7], 50, rng)[:, 0])

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

    def test_laplace_forward_recovers_transform(self):
        # numerically transform f_{E_t}(tau) in t; compare s^{b-1}e^{-tau s^b}
        from subdiff.fraccalc import laplace_forward

        spec = SubordinatorSpec.pure(0.5)
        for s in (0.5, 1.0, 2.0):
            for tau in (0.5, 1.0):
                v, _ = laplace_forward(
                    lambda t: inverse_time_density(spec, t, tau)
                    if t > 0 else 0.0,
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


    def test_spline_cache_keys_on_tolerances(self):
        # a spline tabulated at the default tolerances must not answer a
        # call at a tolerance the inversion cannot meet
        spec = SubordinatorSpec.pure(0.55)
        taus = np.array([0.5, 1.0])
        clock_density_fast(spec, 1.0, taus)
        tight = replace(DEFAULT_CONFIG, inversion_tol=1e-13)
        with pytest.raises(InversionError):
            clock_density_fast(spec, 1.0, taus, config=tight)


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
