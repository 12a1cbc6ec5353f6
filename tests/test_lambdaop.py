import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import subdiff
from subdiff import fpke, fraccalc, lambdaop
from subdiff.errors import NumericsError
from subdiff.fraccalc import (
    SampledFunction,
    _dehoog_contour,
    caputo_l1,
    caputo_l1_columns,
)
from subdiff.gaussian import (
    Brownian,
    FractionalBrownian,
    GaussianSpec,
    Mixed,
    OrnsteinUhlenbeck,
    VariableHurst,
    MobiusHurst,
)
from subdiff.lambdaop import (
    AnalyticTransform,
    ContourConfig,
    GOperator,
    LambdaOperator,
    constant_transform,
    eval_G,
    eval_G_grid,
    eval_Lambda,
    eval_Lambda_grid,
    fbm_fpke_residual,
)
from subdiff.subordinators import SubordinatorSpec, inverse_time_moment
from subdiff.timechange import GridDensity, TimeChangedSpec, subordinated_density

from oracles import (
    FROZEN_T,
    G_ON_EXP_FROZEN,
    G_ON_ONE_FROZEN,
    LAMBDA_ON_ONE_FROZEN,
    dehoog_full_line,
    exp_transform,
    field_residual_full_line,
    kernel_unwrapped,
    power_eigenvalue,
    power_transform,
    riemann_liouville_integral,
    uniform_line,
)

ONE = constant_transform(1.0)


def g_of_one(beta, gamma, t):
    """Scalar oracle for the operator on the constant input: the memory
    derivative of the second moment of the time-changed power process must
    equal the operator value (checked independently in the moment tests)."""
    return math.gamma(gamma + 1.0) * t ** (gamma * beta) / math.gamma(
        gamma * beta + 1.0
    )


class TestGOperator:
    def test_gamma_zero_is_identity(self):
        # required so the H = 1/2 equations match the Brownian pair
        for t in (0.5, 1.0, 2.0):
            assert_allclose(eval_G(GOperator(0.5, 0.0), ONE, t).value, 1.0,
                            atol=1e-3)
            assert_allclose(eval_G(GOperator(0.5, 0.0),
                                   power_transform(1.0), t).value, t,
                            rtol=1e-3)

    def test_constant_input_against_moment_identity(self):
        # D^beta applied to Var(X_{E_t}) (power model, H from gamma) must
        # equal 2H G[1]; Var comes from the inverse-clock moment
        beta, gamma = 0.6, 0.4
        H = (gamma + 1.0) / 2.0
        tg = np.linspace(0.0, 1.1, 2201)
        var = np.array([
            inverse_time_moment(SubordinatorSpec.pure(beta), t, 2.0 * H)
            if t > 0 else 0.0 for t in tg
        ])
        dvar = caputo_l1(SampledFunction(tg, var), beta)
        i = np.argmin(np.abs(tg - 1.0))
        got = eval_G(GOperator(beta, gamma), ONE, 1.0).value
        assert_allclose(2.0 * H * got, dvar.values[i], rtol=1e-3)
        # frozen closed-form value for the same point
        assert_allclose(got, 0.9766023686058249, rtol=1e-3)

    def test_near_unit_beta_contract(self):
        got = eval_G(GOperator(0.999, 0.4), ONE, 1.0).value
        want = g_of_one(0.999, 0.4, 1.0)
        assert_allclose(got, want, rtol=1e-2)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            GOperator(1.0, 0.5)
        with pytest.raises(ValueError):
            GOperator(0.5, 1.0)
        with pytest.raises(ValueError):
            eval_G(GOperator(0.5, 0.4), ONE, 0.0)

    def test_linearity(self):
        op = GOperator(0.5, 0.4)
        ga = eval_G(op, ONE, 1.0).value
        gb = eval_G(op, exp_transform(1.0), 1.0).value
        comb = AnalyticTransform(lambda z: 2.0 / z + 3.0 / (z + 1.0),
                                 max_singularity_real=-1.0)
        gc = eval_G(op, comb, 1.0).value
        assert_allclose(gc, 2.0 * ga + 3.0 * gb, rtol=1e-8, atol=1e-8)

    def test_contour_invariance(self):
        base = eval_G(GOperator(0.5, 0.4), ONE, 1.0)
        for name, value in (("offset_ratio", 0.3), ("offset_ratio", 0.7),
                            ("node_spacing", 0.025)):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(ContourConfig, name, value)
                v = eval_G(GOperator(0.5, 0.4), ONE, 1.0)
            assert abs(v.value - base.value) <= 10 * (
                base.error + v.error
            ) + 1e-7

    def test_semigroup_spot_check(self):
        # composed operators close within the family: the composition on
        # the constant input reproduces the summed-index value
        g1, g2, beta = 0.3, 0.2, 0.5
        for t in (0.5, 1.0, 2.0):
            n = 700
            window = 1.4 * t
            tau = np.concatenate([[0.0],
                                  window * np.geomspace(1e-6, 1.0, n)])
            inner = np.zeros(n + 1)
            inner[1:], _ = eval_G_grid(GOperator(beta, g2), ONE, tau[1:])
            op = GOperator(beta, g1)
            outer = eval_G(op, SampledFunction(tau, inner), t)
            want = g_of_one(beta, g1 + g2, t)
            assert_allclose(outer.value, want, rtol=5e-3)
            # the full-line route on the same samples: the gap measured at
            # most 9.5e-9 relative, three decades inside the spread
            full = dehoog_full_line(op, tau, inner[:, None], np.array([t]),
                                    ContourConfig.degree, 1e-10)[0, 0]
            assert_allclose(outer.value, full, rtol=2e-8)

    def test_non_finite_value_raises(self):
        # a unit hat at t 0.885 on 801 samples: in the dyadic block of
        # t 0.002 below a 0.95 horizon the de Hoog recurrence overflows,
        # and a nan value and spread would pass a tolerance gate
        tg = np.linspace(0.0, 1.0, 801)
        y = np.zeros(801)
        y[707] = 1.0
        with pytest.raises(NumericsError, match="not finite at t = 0.002"):
            eval_G_grid(GOperator(0.5, 0.4), SampledFunction(tg, y),
                        [0.002, 0.004, 0.5, 0.95])

    @pytest.mark.parametrize("g", [ONE, SampledFunction(
        np.linspace(0.0, 4.0, 41), np.ones(41))], ids=["analytic", "sampled"])
    def test_empty_time_grid_rejected(self, g):
        with pytest.raises(ValueError, match="nonempty 1-d"):
            eval_G_grid(GOperator(0.5, 0.4), g, [])

    def test_time_grid_must_be_1d(self):
        with pytest.raises(ValueError, match=r"shape \(2, 1\)"):
            eval_G_grid(GOperator(0.5, 0.4), ONE, [[0.5], [1.0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("g", [ONE, SampledFunction(
        np.linspace(0.0, 4.0, 41), np.ones(41))], ids=["analytic", "sampled"])
    def test_non_finite_time_rejected(self, g, bad):
        with pytest.raises(ValueError, match=f"finite times, got t = {bad}"):
            eval_G_grid(GOperator(0.5, 0.4), g, [0.5, bad])

    @pytest.mark.parametrize("t", [1.0, 3.0])
    def test_sampled_window_must_extend_past_the_time(self, t):
        # read at t 3, a constant sampled on [0, 1] gave -0.227 (spread
        # 4.9e-6) where G[1](3) is 1.204
        g = SampledFunction(np.linspace(0.0, 1.0, 101), np.ones(101))
        with pytest.raises(ValueError, match=f"sampled window, got t = {t:g}"):
            eval_G(GOperator(0.5, 0.4), g, t)

    def test_singularity_guard(self):
        # transform singularity on the wrong side of the line is refused
        bad = AnalyticTransform(lambda z: 1.0 / (z - 50.0),
                                max_singularity_real=50.0)
        with pytest.raises(NumericsError):
            eval_G(GOperator(0.5, 0.2), bad, 1.0)


class TestLambdaOperator:
    def test_bm_moment_identity(self):
        # d/dt Var(B_{E_t}) = 2 Lambda[1] with Var = t^b/Gamma(1+b)
        beta = 0.5
        lam = LambdaOperator(SubordinatorSpec.pure(beta), Brownian())
        for t in (0.5, 1.0, 2.0):
            want = t ** (beta - 1.0) / (2.0 * math.gamma(beta))
            assert_allclose(eval_Lambda(lam, ONE, t).value, want, rtol=1e-3)

    def test_correspondence_with_g_family(self):
        # J^{1-b} Lambda (power model) equals H G_{2H-1} on two inputs
        beta, H = 0.5, 0.7
        lam = LambdaOperator(SubordinatorSpec.pure(beta),
                             FractionalBrownian(H))
        for g in (ONE, exp_transform(1.0)):
            for t in (0.5, 1.0, 2.0):
                n = 500
                tau = t * (np.arange(n + 1) / n) ** 3
                lv = np.zeros(n + 1)
                lv[1:], _ = eval_Lambda_grid(lam, g, tau[1:])
                J = riemann_liouville_integral(SampledFunction(tau, lv),
                                               1.0 - beta)
                rhs = H * eval_G(GOperator(beta, 2 * H - 1), g, t).value
                assert_allclose(J.values[-1], rhs, rtol=1e-3)

    def test_singleton_mixture_equals_pure(self):
        lam_p = LambdaOperator(SubordinatorSpec.pure(0.5), Brownian())
        lam_m = LambdaOperator(SubordinatorSpec(((0.5, 1.0),)), Brownian())
        a = eval_Lambda(lam_p, ONE, 1.0).value
        b = eval_Lambda(lam_m, ONE, 1.0).value
        assert abs(a - b) < 1e-8

    def test_mixture_moment_identity(self):
        # d/dt E[E^mu_t] = 2 Lambda^mu_BM[1] via the mixture moment
        spec = SubordinatorSpec(((0.4, 0.5), (0.8, 0.5)))
        lam = LambdaOperator(spec, Brownian())
        h = 5e-4
        for t in (0.5, 1.0):
            m_plus = inverse_time_moment(spec, t + h, 1.0)
            m_minus = inverse_time_moment(spec, t - h, 1.0)
            want = (m_plus - m_minus) / (2.0 * h)
            got = 2.0 * eval_Lambda(lam, ONE, t).value
            assert_allclose(got, want, rtol=2e-3)

    def test_ou_runs_and_is_positive(self):
        lam = LambdaOperator(SubordinatorSpec.pure(0.7),
                             OrnsteinUhlenbeck(1.0, 1.0))
        v = eval_Lambda(lam, ONE, 1.0)
        assert v.value > 0.0 and v.error < 1e-4

    def test_numeric_only_model_rejected(self):
        vh = VariableHurst(MobiusHurst(0.6, 0.2), horizon=2.0)
        with pytest.raises(ValueError):
            LambdaOperator(SubordinatorSpec.pure(0.5), vh)


CLOSED_FORM_CASES = [(0.1, 0.2), (0.3, 0.7), (0.5, 0.4), (0.8, -0.4),
                     (0.9, 0.2)]


class TestClosedForms:
    """Operator values against closed forms, each within the spread the
    evaluation reports (measured: the gap reaches 0.32 of it) and within
    1e-7 relative, 1e-8 on t^a for a <= 1 and on Lambda[1] (measured:
    1.75e-8 on t^3, 7.0e-10 on the others)."""

    T = np.array([0.5, 1.0, 2.0])

    @pytest.mark.parametrize("a", [0.0, 0.5, 1.0, 2.0, 3.0])
    @pytest.mark.parametrize("beta, gamma", CLOSED_FORM_CASES)
    def test_g_on_powers(self, beta, gamma, a):
        # powers are eigenfunctions: G[t^a] = c(a) t^(a + beta gamma); at
        # beta 0.1 the inner line reaches |z| ~ 1e108, where an integer
        # z^(a+1) overflows while z^-(a+1) only underflows
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, err = eval_G_grid(GOperator(beta, gamma),
                                   power_transform(a), self.T)
        want = power_eigenvalue(beta, gamma, a) * self.T ** (a + beta * gamma)
        assert np.all(np.abs(got - want) <= err)
        assert np.max(np.abs(got / want - 1.0)) <= (1e-8 if a <= 1.0 else 1e-7)

    @pytest.mark.parametrize("beta, gamma", CLOSED_FORM_CASES)
    def test_lambda_fbm_on_one(self, beta, gamma):
        # fBm with H = (1 + gamma)/2 on a pure clock, p = beta (1 + gamma):
        # Lambda[1](t) = H Gamma(1 + gamma) t^(p - 1) / Gamma(p)
        H = 0.5 * (1.0 + gamma)
        lam = LambdaOperator(SubordinatorSpec.pure(beta),
                             FractionalBrownian(H))
        got, err = eval_Lambda_grid(lam, ONE, self.T)
        p = beta * (1.0 + gamma)
        want = (H * math.gamma(1.0 + gamma) * self.T ** (p - 1.0)
                / math.gamma(p))
        assert np.all(np.abs(got - want) <= err)
        assert np.max(np.abs(got / want - 1.0)) <= 1e-8


def assert_frozen(got, want):
    # 1e-8 of the grid's maximum leaves room for other hosts' roundoff
    want = np.asarray(want)
    assert np.max(np.abs(got - want)) <= 1e-8 * np.max(np.abs(want))


FROZEN_MODELS = {
    "bm": Brownian(),
    "fbm": FractionalBrownian(0.7),
    "ou": OrnsteinUhlenbeck(1.0, 1.0),
    "mixed": Mixed(((1.0, FractionalBrownian(0.7)),
                    (0.5, OrnsteinUhlenbeck(1.0, 1.0)))),
}
FROZEN_CLOCKS = {
    "pure": SubordinatorSpec.pure(0.5),
    "mixture": SubordinatorSpec(((0.4, 0.5), (0.8, 0.5))),
}


class TestFrozenValues:
    @pytest.mark.parametrize("beta, gamma", sorted(G_ON_ONE_FROZEN))
    def test_g_on_one(self, beta, gamma):
        got, _ = eval_G_grid(GOperator(beta, gamma), ONE, FROZEN_T)
        assert_frozen(got, G_ON_ONE_FROZEN[beta, gamma])

    def test_g_on_exp(self):
        got, _ = eval_G_grid(GOperator(0.5, 0.4), exp_transform(1.0),
                             FROZEN_T)
        assert_frozen(got, G_ON_EXP_FROZEN)

    @pytest.mark.parametrize("model, clock", sorted(LAMBDA_ON_ONE_FROZEN))
    def test_lambda_on_one(self, model, clock):
        lam = LambdaOperator(FROZEN_CLOCKS[clock], FROZEN_MODELS[model])
        got, _ = eval_Lambda_grid(lam, ONE, FROZEN_T)
        assert_frozen(got, LAMBDA_ON_ONE_FROZEN[model, clock])

    def test_tables_meet_closed_forms(self):
        # G[1], and Lambda[1] for Brownian motion and fBm on the pure clock,
        # within 1e-8 relative (measured at most 1.8e-10).  G(0.1, -0.5) is
        # held to 2.5e-7 (measured 1.87e-7, 4.7 spreads): at beta 0.1 its
        # integrand decays as |z|^-1.05, and the inner line, cut at v_cap,
        # drops a tail that the Stehfest check's line drops too
        t = np.array(FROZEN_T)
        for (beta, gamma), vals in G_ON_ONE_FROZEN.items():
            tol = 2.5e-7 if (beta, gamma) == (0.1, -0.5) else 1e-8
            assert_allclose(vals, g_of_one(beta, gamma, t), rtol=tol, atol=0)
        beta, H = 0.5, 0.7
        p = 2.0 * H * beta
        assert_allclose(LAMBDA_ON_ONE_FROZEN["bm", "pure"],
                        t ** (beta - 1.0) / (2.0 * math.gamma(beta)),
                        rtol=1e-8, atol=0)
        assert_allclose(LAMBDA_ON_ONE_FROZEN["fbm", "pure"],
                        H * math.gamma(2.0 * H) * t ** (p - 1.0)
                        / math.gamma(p), rtol=1e-8, atol=0)


class TestKernelReuse:
    """A pure clock with a power profile has a homogeneous kernel,
    K(r s, r z) = r^-(beta p) K(s, z), so each inversion rule builds it
    once and reads every time (Stehfest) or dyadic block (de Hoog) off the
    one array."""

    T100 = np.linspace(0.02, 2.0, 100)

    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []
        fresh = lambdaop._kernel_on_line

        def counted(op, s, z, *g):
            calls.append(len(s))
            return fresh(op, s, z, *g)

        monkeypatch.setattr(lambdaop, "_kernel_on_line", counted)
        return calls

    def test_one_build_per_rule(self, builds):
        lam = LambdaOperator(SubordinatorSpec.pure(0.5),
                             FractionalBrownian(0.7))
        eval_Lambda_grid(lam, ONE, self.T100)
        # the Stehfest check's 12 nodes, then the de Hoog value on the top
        # block's 37
        assert builds == [12, 2 * ContourConfig.degree + 1]

    def test_field_residual_builds_once(self, builds):
        tg = np.linspace(0.0, 1.0, 81)
        xg = np.linspace(-4.0, 4.0, 101)
        dens = GridDensity(tg, xg, np.zeros((81, 101)), np.zeros(81))
        fbm_fpke_residual(0.5, SubordinatorSpec.pure(0.5), dens)
        assert len(builds) == 1

    def test_ou_builds_per_time_and_block(self, builds):
        lam = LambdaOperator(SubordinatorSpec.pure(0.7),
                             OrnsteinUhlenbeck(1.0, 1.0))
        eval_Lambda_grid(lam, ONE, self.T100)
        n_blocks = len({int(math.floor(math.log2(2.0 / t)))
                        for t in self.T100})
        assert n_blocks == 7
        assert len(builds) == len(self.T100) + n_blocks

    @pytest.mark.parametrize("beta", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("make", [
        lambda b: GOperator(b, 0.4),
        lambda b: LambdaOperator(SubordinatorSpec.pure(b),
                                 FractionalBrownian(0.8)),
    ])
    def test_scaled_kernel_matches_fresh_build(self, beta, make):
        op = make(beta)
        cc = ContourConfig
        degree = lambdaop._kernel_degree(op)
        assert degree is not None
        s_steh = np.arange(1, 13) * math.log(2.0) + 0j
        s_dh = _dehoog_contour(2.0, cc.degree, 1e-10)[2]
        dh_spacing = cc.node_spacing * (1.0 - cc.offset_ratio) / 2.0
        # Stehfest's line, the sampled de Hoog line and the analytic one
        for s, spacing, graded in ((s_steh, cc.node_spacing, False),
                                   (s_dh, dh_spacing, False),
                                   (s_dh, dh_spacing, True)):
            zeta, _ = lambdaop._inner_line(op, s, spacing,
                                           lambdaop._vmax_for(op, 1.0), graded)
            ref = lambdaop._kernel_on_line(op, s, zeta)
            for r in (1.0 / 0.02, 1.0 / 2.0, 8.0, 64.0):
                fresh = lambdaop._kernel_on_line(op, r * s, r * zeta)
                scaled = r**degree * ref
                assert np.max(np.abs(scaled - fresh) / np.abs(fresh)) <= 1e-12

    def test_no_degree_for_rational_profile_or_mixture(self):
        assert lambdaop._kernel_degree(LambdaOperator(
            SubordinatorSpec.pure(0.5), OrnsteinUhlenbeck(1.0, 1.0))) is None
        assert lambdaop._kernel_degree(LambdaOperator(
            SubordinatorSpec(((0.4, 0.5), (0.8, 0.5))), Brownian())) is None

    # worst relative error of G on the constant input over T100 before the
    # kernel was reused (Stehfest line fixed, one kernel per time)
    CLOSED_FORM_ERR = {(0.1, 0.2): 6.684e-9, (0.3, 0.35): 1.100e-8,
                       (0.5, 0.5): 1.268e-7, (0.7, 0.65): 1.999e-7,
                       (0.9, 0.8): 2.920e-7}

    @pytest.mark.parametrize("beta, gamma", sorted(CLOSED_FORM_ERR))
    def test_closed_form_accuracy_kept(self, beta, gamma):
        got, _ = eval_G_grid(GOperator(beta, gamma), ONE, self.T100)
        want = g_of_one(beta, gamma, self.T100)
        err = np.max(np.abs(got / want - 1.0))
        assert err <= 2.0 * self.CLOSED_FORM_ERR[beta, gamma]


def _node_sets(op):
    """(s, spacing, scale, g_tail, graded) of the kernel builds the
    inversions make: Stehfest's 12 nodes at scales 1/t, de Hoog's degree
    18 contour on the graded line of an analytic input, and de Hoog's
    degree 18 and 24 contours on the uniform line of a sampled one, at
    scales 2^b.  A homogeneous kernel is built only at scale 1, and only
    its line's shape matters, so one horizon serves; it also takes the
    field residual's line (g_tail 2).  Any other kernel is built per
    scale, at horizons 0.1 and 10."""
    cc = ContourConfig
    steh = np.arange(1, 13) * math.log(2.0) + 0j
    dh_spacing = cc.node_spacing * (1.0 - cc.offset_ratio) / 2.0
    dh_rules = ((cc.degree, 1e-10, True), (cc.degree, 1e-10, False),
                (cc.degree_check, 1e-12, False))
    if lambdaop._kernel_degree(op) is not None:
        s18 = _dehoog_contour(2.0, cc.degree, 1e-10)[2]
        return ([(steh, cc.node_spacing, 1.0, 1.0, False),
                 (s18, dh_spacing, 1.0, 2.0, False)]
                + [(_dehoog_contour(2.0, M, tol)[2], dh_spacing, 1.0, 1.0,
                    graded) for M, tol, graded in dh_rules])
    return ([(steh, cc.node_spacing, r, 1.0, False)
             for r in (1.0 / 0.1, 1.0 / 10.0)]
            + [(_dehoog_contour(horizon, M, tol)[2], dh_spacing, r, 1.0,
                graded)
               for M, tol, graded in dh_rules for horizon in (0.1, 10.0)
               for r in (1.0, 8.0)])


BRANCH_OPERATORS = {
    # every G whose contour integrand decays fast enough to truncate
    **{f"G({b}, {g})": GOperator(b, g)
       for b in (0.1, 0.3, 0.55, 0.8, 0.97) for g in (-0.8, -0.6, 0.1, 0.95)
       if b * (1.0 + g) > 0.02},
    "fbm pure 0.2": LambdaOperator(SubordinatorSpec.pure(0.2),
                                   FractionalBrownian(0.3)),
    # its de Hoog kernels are built 4 rows at a time
    "ou pure 0.3": LambdaOperator(SubordinatorSpec.pure(0.3),
                                  OrnsteinUhlenbeck(1.0, 1.0)),
    "ou pure 0.9": LambdaOperator(SubordinatorSpec.pure(0.9),
                                  OrnsteinUhlenbeck(0.5, 2.0)),
    "mixed pure 0.5": LambdaOperator(SubordinatorSpec.pure(0.5),
                                     FROZEN_MODELS["mixed"]),
    **{f"{m} mixture {c}": LambdaOperator(SubordinatorSpec(c),
                                          FROZEN_MODELS[m])
       for m in ("bm", "fbm", "ou")
       for c in (((0.4, 0.5), (0.8, 0.5)), ((0.15, 0.3), (0.9, 0.7)))},
}


@pytest.mark.parametrize("name", sorted(BRANCH_OPERATORS))
def test_principal_branch_kernel_is_the_unwrapped_one(name):
    # on the inner line u = rho(s) - rho(z) never crosses the negative
    # real axis, so the principal log is the unwrapped one bit for bit,
    # and the row blocks change no value; a kernel without a degree is
    # also summed against one transform block by block, by the same
    # per-row pairwise sum as the full product
    op = BRANCH_OPERATORS[name]
    for s, spacing, r, g_tail, graded in _node_sets(op):
        zeta, dzeta = lambdaop._inner_line(op, s, spacing,
                                           lambdaop._vmax_for(op, g_tail),
                                           graded)
        want = kernel_unwrapped(op, r * s, r * zeta)
        assert np.array_equal(lambdaop._kernel_on_line(op, r * s, r * zeta),
                              want)
        if lambdaop._kernel_degree(op) is None:
            g = dzeta / (r * zeta)
            assert np.array_equal(
                lambdaop._kernel_on_line(op, r * s, r * zeta, g),
                (want * g).sum(axis=1))


def _dehoog_kernel_bytes(op):
    """Bytes of the analytic de Hoog kernel, on its graded line, on 10
    times up to 2 at scale 1."""
    cc = ContourConfig
    s = _dehoog_contour(2.0, cc.degree, 1e-10)[2]
    z, _ = lambdaop._inner_line(
        op, s, cc.node_spacing * (1.0 - cc.offset_ratio) / 2.0,
        lambdaop._vmax_for(op, 1.0), graded=True)
    return len(s) * len(z) * np.dtype(complex).itemsize


def _traced_peak(evaluate, op):
    """tracemalloc peak of one evaluation on 10 times in [0.2, 2]."""
    import tracemalloc

    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        evaluate(op, ONE, np.linspace(0.2, 2.0, 10))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_g_grid_peak_memory_is_one_kernel():
    # the de Hoog kernel at beta 0.1 (37 x 6825 complex on the graded
    # line, 4.0 MB) is the one full-size array: its row blocks keep every
    # temporary small (measured 1.36 kernels; 5.1 with the whole kernel's
    # temporaries at once)
    op = GOperator(0.1, 0.2)
    assert _traced_peak(eval_G_grid, op) <= 1.5 * _dehoog_kernel_bytes(op)


def test_rebuilt_kernel_is_never_held_whole():
    # OU has no degree, so each scale's kernel is rebuilt and summed
    # against g block by block: the peak stays below half of one de Hoog
    # kernel (measured 0.38 of it; 3.1 when each kernel is held whole)
    op = LambdaOperator(SubordinatorSpec.pure(0.1),
                        OrnsteinUhlenbeck(1.0, 1.0))
    assert _traced_peak(eval_Lambda_grid, op) <= 0.5 * _dehoog_kernel_bytes(op)


@pytest.mark.parametrize("beta", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("g_tail", [1.0, 2.0])
@pytest.mark.parametrize("rule", ["stehfest", "dehoog", "graded"])
def test_line_nodes_exact_mirror(beta, g_tail, rule):
    # the sampled route forms the transform matrix on v >= 0 only and reads
    # the lower half as its conjugate, which needs the line mirrored exactly
    op = GOperator(beta, 0.4)
    cc = ContourConfig
    if rule == "stehfest":
        s, spacing = np.arange(1, 13) * math.log(2.0) + 0j, cc.node_spacing
    else:
        s = _dehoog_contour(2.0, cc.degree, 1e-10)[2]
        spacing = cc.node_spacing * (1.0 - cc.offset_ratio) / 2.0
    C = cc.offset_ratio * float(s.real.min())
    vmax = lambdaop._vmax_for(op, g_tail)
    z, dz = lambdaop._inner_line(op, s, spacing, vmax, rule == "graded")
    assert len(z) % 2 == 1 and len(z) > 800
    assert np.array_equal(z[::-1], np.conj(z))
    assert np.array_equal(dz[::-1], dz)
    assert z[len(z) // 2] == C
    assert np.isclose(np.arcsinh(z[-1].imag), vmax, rtol=1e-12)
    if rule == "graded":
        # steps in v: half the de Hoog step up to the kernel singularity's
        # height, then rising monotonically to at most 16 times that (13.3
        # at beta 0.9 on g_tail 2, whose coarse part ends within two rise
        # widths of v_fine)
        v = np.arcsinh(z[len(z) // 2 :].imag)
        dv = np.diff(v)
        fine = v[1:] <= np.arcsinh(float(s.imag.max()))
        assert np.allclose(dv[fine], 0.5 * spacing, rtol=0.01)
        assert np.all(np.diff(dv) > -1e-12 * vmax)
        assert 13.0 < dv[-2] / dv[0] <= 16.0


def test_only_the_analytic_dehoog_image_is_graded(monkeypatch):
    # the Stehfest check, sampled pairs and the field residual keep the
    # uniform line as it was: a check on the graded line would share the
    # value's inner-line error, and a sampled transform oscillates as
    # exp(-z t) along the line, where coarse steps lose it
    calls = []
    fresh = lambdaop._line_nodes

    def recorded(C, spacing, vmax, v_fine=math.inf):
        z, dz = fresh(C, spacing, vmax, v_fine)
        calls.append((C, spacing, vmax, v_fine, z, dz))
        return z, dz

    monkeypatch.setattr(lambdaop, "_line_nodes", recorded)
    op = GOperator(0.3, 0.4)
    cc = ContourConfig
    dh_spacing = cc.node_spacing * (1.0 - cc.offset_ratio) / 2.0
    t = np.array([0.3, 1.0, 2.5])
    eval_G_grid(op, ONE, t)
    tg = np.linspace(0.0, 3.0, 61)
    eval_G_grid(op, SampledFunction(tg, np.exp(-tg)), t)
    dens = GridDensity(tg, np.linspace(-4.0, 4.0, 41), np.zeros((61, 41)),
                       np.zeros(61))
    fbm_fpke_residual(0.7, SubordinatorSpec.pure(0.3), dens)
    # the Stehfest check, the analytic de Hoog image, sampled de Hoog 24
    # and 18, and the residual's de Hoog 18
    assert [c[1] for c in calls] == [cc.node_spacing] + [dh_spacing] * 4
    assert [c[3] < c[2] for c in calls] == [False, True, False, False, False]
    for C, spacing, vmax, v_fine, z, dz in calls[:1] + calls[2:]:
        assert v_fine == math.inf
        want_z, want_dz = uniform_line(C, spacing, vmax)
        assert np.array_equal(z, want_z) and np.array_equal(dz, want_dz)


@pytest.mark.parametrize("op", [
    GOperator(0.5, 0.4),
    LambdaOperator(SubordinatorSpec(((0.4, 0.5), (0.8, 0.5))), Brownian()),
], ids=["G 0.5", "bm mixture"])
def test_dehoog_values_linear_on_analytic_inputs(op):
    # the graded line depends on the outer nodes only, never on g, so the
    # image is linear in g; de Hoog's continued fraction is not, at about
    # 1e-13 here (2e-12 at beta 0.1 and on OU, on either line)
    t = np.array([0.05, 0.3, 0.7, 1.0, 3.0])

    def dehoog(fn, sing):
        return lambdaop._dehoog_values(op, fn, sing, t, ContourConfig.degree,
                                       1e-10)[:, 0]

    combined = dehoog(lambda z: 2.0 / z + 3.0 / (z + 1.0), -1.0)
    parts = (2.0 * dehoog(lambda z: 1.0 / z, 0.0)
             + 3.0 * dehoog(lambda z: 1.0 / (z + 1.0), -1.0))
    assert_allclose(combined, parts, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("g", [ONE, power_transform(2.0), exp_transform(1.0)],
                         ids=["1", "t^2", "exp"])
@pytest.mark.parametrize("op", [
    GOperator(0.1, 0.2),
    GOperator(0.5, 0.4),
    LambdaOperator(SubordinatorSpec.pure(0.7), OrnsteinUhlenbeck(1.0, 1.0)),
    LambdaOperator(SubordinatorSpec(((0.4, 0.5), (0.8, 0.5))), Brownian()),
], ids=["G(0.1, 0.2)", "G(0.5, 0.4)", "ou 0.7", "bm mixture"])
def test_value_alone_matches_value_in_batch(op, g):
    # the de Hoog value anchors its dyadic blocks at the call's largest
    # time, so a time's value depends on its companions: alone and among
    # TestKernelReuse.T100 it may move by 1e-2 of the reported spread
    # (measured at most 8.5e-4 of it)
    t = TestKernelReuse.T100
    vals, spread = eval_G_grid(op, g, t)
    alone = np.array([eval_G_grid(op, g, [ti])[0][0] for ti in t])
    assert np.all(np.abs(alone - vals) <= 1e-2 * spread)


GRADED_CASES = {
    # v_max reaches v_cap, where the integrand is still alive at the end
    "G(0.1, -0.5)": GOperator(0.1, -0.5),
    "G(0.5, 0.2)": GOperator(0.5, 0.2),
    "G(0.97, 0.8)": GOperator(0.97, 0.8),
    "ou pure 0.5": LambdaOperator(SubordinatorSpec.pure(0.5),
                                  OrnsteinUhlenbeck(1.0, 1.0)),
    "bm mixture": LambdaOperator(SubordinatorSpec(((0.4, 0.5), (0.8, 0.5))),
                                 Brownian()),
}


def _line_image(op, g, s, line):
    """The image of g on the outer nodes s at scale 1, summed on ``line``
    row block by row block, so that no kernel is held whole."""
    zeta, dzeta = line
    phi = lambdaop._kernel_on_line(op, s, zeta, g.fn(zeta) * dzeta)
    return 0.5 / (2j * np.pi) * np.exp(op.fold_power * np.log(s)) * phi


@pytest.mark.parametrize("horizon", [0.05, 50.0])
@pytest.mark.parametrize("g", [ONE, exp_transform(1.0)], ids=["1", "exp"])
@pytest.mark.parametrize("name", sorted(GRADED_CASES))
def test_graded_image_is_as_close_as_the_uniform_one(name, g, horizon):
    # against a uniform line at a quarter of the de Hoog step, the graded
    # line of the analytic image may be no farther than the uniform line
    # it replaces, up to 1e-10 of the image: the check's own tolerance
    op = GRADED_CASES[name]
    cc = ContourConfig
    s = _dehoog_contour(horizon, cc.degree, 1e-10)[2]
    spacing = cc.node_spacing * (1.0 - cc.offset_ratio) / 2.0
    vmax = lambdaop._vmax_for(op, 1.0)
    ref, uniform, graded = (
        _line_image(op, g, s, lambdaop._inner_line(op, s, h, vmax, grade))
        for h, grade in ((spacing / 4.0, False), (spacing, False),
                         (spacing, True)))
    assert (np.max(np.abs(graded - ref))
            <= np.max(np.abs(uniform - ref)) + 1e-10 * np.max(np.abs(ref)))


def test_lambda_grid_peak_memory():
    # the (nodes x line) kernel arrays, 30 MB each at beta 0.1, must be
    # freed when the kernel returns; a reference cycle through the profile
    # reader once kept them until the cyclic collector ran (315 MB peak)
    import tracemalloc

    lam = LambdaOperator(SubordinatorSpec.pure(0.1), FractionalBrownian(0.6))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        eval_Lambda_grid(lam, ONE, np.linspace(0.2, 2.0, 10))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 150e6


class TestFieldResidual:
    @pytest.fixture(scope="class")
    def bm_half_density(self):
        spec = TimeChangedSpec(GaussianSpec.univariate(Brownian()),
                               SubordinatorSpec.pure(0.5))
        tg = np.linspace(0.0, 1.2, 241)
        xg = np.linspace(-7.0, 7.0, 281)
        rows = [np.zeros_like(xg)]
        for t in tg[1:]:
            rows.append(subordinated_density(spec, float(t), xg))
        return GridDensity(tg, xg, np.array(rows), np.zeros(len(tg)))

    def test_brownian_reduction(self, bm_half_density):
        # H = 1/2: the equation collapses to the Brownian pair; the cusp
        # ray at the origin is excluded (second differences are not
        # classical across it)
        rep = fbm_fpke_residual(0.5, SubordinatorSpec.pure(0.5),
                                bm_half_density, x_exclude=0.3)
        assert rep.overall_linf < 5e-3

    def test_moment_projection(self, bm_half_density):
        # x^2-projection of the H = 0.7 residual is the moment identity
        H, beta = 0.7, 0.5
        spec = TimeChangedSpec(
            GaussianSpec.univariate(FractionalBrownian(H)),
            SubordinatorSpec.pure(beta),
        )
        tg = np.linspace(0.0, 1.1, 221)
        # x^2-weighted integrals feel the heavy subdiffusive tails: the
        # domain reaches out to ~12 deviations
        xg = np.linspace(-14.0, 14.0, 451)
        rows = [np.zeros_like(xg)]
        for t in tg[1:]:
            rows.append(subordinated_density(spec, float(t), xg))
        var_g = np.trapezoid(np.array(rows) * xg**2, xg, axis=1)
        dvar = caputo_l1(SampledFunction(tg, var_g), beta).values
        for t in (0.5, 0.7, 0.9):
            i = np.argmin(np.abs(tg - t))
            rhs = 2.0 * H * eval_G(GOperator(beta, 2 * H - 1), ONE,
                                   float(tg[i])).value
            assert_allclose(dvar[i], rhs, rtol=1e-3)

    def test_report_serializes(self, bm_half_density):
        import json

        rep = fbm_fpke_residual(0.5, SubordinatorSpec.pure(0.5),
                                bm_half_density, x_exclude=0.3)
        blob = rep.to_json()
        assert "contour" in blob and "linf_per_x" in blob
        json.dumps(blob)

    def test_zero_density(self):
        tg = np.linspace(0.0, 1.0, 81)
        xg = np.linspace(-4.0, 4.0, 101)
        dens = GridDensity(tg, xg, np.zeros((81, 101)), np.zeros(81))
        rep = fbm_fpke_residual(0.5, SubordinatorSpec.pure(0.5), dens)
        assert rep.overall_linf < 1e-12

    def test_requires_zero_start(self):
        tg = np.linspace(0.1, 1.0, 81)
        xg = np.linspace(-4.0, 4.0, 101)
        dens = GridDensity(tg, xg, np.zeros((81, 101)), np.zeros(81))
        with pytest.raises(ValueError):
            fbm_fpke_residual(0.5, SubordinatorSpec.pure(0.5), dens)

    def test_requires_pure_clock(self):
        tg = np.linspace(0.0, 1.0, 81)
        xg = np.linspace(-4.0, 4.0, 101)
        dens = GridDensity(tg, xg, np.zeros((81, 101)), np.zeros(81))
        with pytest.raises(ValueError):
            fbm_fpke_residual(0.5, SubordinatorSpec(((0.4, 0.5), (0.8, 0.5))),
                              dens)


def _fractional_brownian(beta, n=200):
    cfg = subdiff.SolverConfig(t_max=1.0, n_t=n, n_x=n, x_min=-12.0,
                               x_max=12.0)
    return fpke.solve_fractional(fpke.ScaledLaplacian(0.5), beta, cfg)


def _nudged(tg):
    """tg with its odd-indexed interior points moved 8 ulp of t_n down:
    past the 4-ulp uniformity test, so a pair on it takes the general
    route; the window's ends (even rows of an even grid) and the dyadic
    blocks of its times stay where they were."""
    out = tg.copy()
    out[1:-1:2] -= 8.0 * np.spacing(tg[-1])
    assert fraccalc._uniform_step(tg) is not None
    assert fraccalc._uniform_step(out) is None
    return out


def test_one_uniformity_test_for_lag_table_and_transform(monkeypatch):
    # a point 3 ulp of t_n off a linspace grid keeps it uniform for the L1
    # lag table and for fraccalc's transform entry point, which then takes
    # the closed form; 5 ulp sends both to their general routes.  The
    # operators reach the transform only through that entry point
    hats, grids = [], []
    hat, entry = fraccalc._hat_transform, fraccalc._interp_transform

    def hat_spy(*args):
        hats.append(args)
        return hat(*args)

    def entry_spy(t, z):
        grids.append(t)
        return entry(t, z)

    monkeypatch.setattr(fraccalc, "_hat_transform", hat_spy)
    monkeypatch.setattr(lambdaop, "_interp_transform", entry_spy)
    op = GOperator(0.5, 0.4)
    z = 1.0 + 1j * np.linspace(0.0, 50.0, 11)
    for ulps, uniform in ((3, True), (5, False)):
        tg = np.linspace(0.0, 1.0, 81)
        tg[40] += ulps * np.spacing(1.0)
        assert (fraccalc._lag_table(tg, ((0.5, 1.0),)) is not None) == uniform
        hats.clear()
        assert fraccalc._interp_transform(tg, z).shape == (81, len(z))
        assert len(hats) == uniform
        hats.clear()
        grids.clear()
        lambdaop._dehoog_values(op, (tg, np.exp(-tg)[:, None]), 0.0,
                                np.array([0.5]), ContourConfig.degree, 1e-10)
        assert len(grids) == 1 and grids[0] is tg
        assert len(hats) == uniform


class TestFieldResidualRoute:
    """The kernel-first route on the mirrored half line against the
    full-line route it replaced (``oracles.field_residual_full_line``)."""

    @pytest.mark.parametrize("beta", [0.1, 0.5, 0.9])
    def test_matches_full_line_route(self, beta):
        spec = SubordinatorSpec.pure(beta)
        dens = _fractional_brownian(beta)
        for H in (0.5, 0.7):
            want = field_residual_full_line(H, spec, dens, x_exclude=0.3)
            scale = np.max(np.abs(want["dbeta"]))
            op = GOperator(beta, 2.0 * H - 1.0)
            got = lambdaop._dehoog_values(
                op, (dens.t_grid, want["lap"]), 0.0, want["t"],
                ContourConfig.degree, 1e-10, g_tail=2.0)
            assert np.max(np.abs(got - want["g"])) <= 1e-6 * scale
            rep = fbm_fpke_residual(H, spec, dens, x_exclude=0.3)
            resid = want["resid"]
            gap = H * 1e-6 * scale
            assert np.max(np.abs(rep.linf_per_x
                                 - np.abs(resid).max(axis=0))) <= gap
            l2 = np.sqrt(want["w"] @ (resid * resid))
            assert np.max(np.abs(rep.l2_per_x - l2)) <= gap * np.sqrt(
                want["w"].sum())

    @pytest.mark.parametrize("op", [
        LambdaOperator(SubordinatorSpec.pure(0.7),
                       OrnsteinUhlenbeck(1.0, 1.0)),
        LambdaOperator(SubordinatorSpec(((0.4, 0.5), (0.8, 0.5))),
                       FractionalBrownian(0.7)),
    ], ids=["ou", "mixture"])
    def test_rebuilt_kernel_columns_match_callable_route(self, op):
        # kernels without a degree are folded per scale; times over three
        # dyadic blocks, each forming its own transform on its scaled line.
        # The reference is the full-line route that once took the columns
        # as a callable (oracles.dehoog_full_line)
        tg = np.linspace(0.0, 2.0, 161)
        cols = np.column_stack([np.exp(-tg), np.sin(3.0 * tg) * np.exp(-tg)])
        t = np.linspace(0.3, 1.6, 12)
        got = lambdaop._dehoog_values(op, (tg, cols), 0.0, t, 18, 1e-10)
        want = dehoog_full_line(op, tg, cols, t, 18, 1e-10)
        # the lower blocks agree to 1e-11;
        # the top block carries the quotient-difference table's
        # amplification of summation-order roundoff (about 3e-6 here)
        scale = np.max(np.abs(want))
        low = t <= 0.8
        assert np.max(np.abs(got[low] - want[low])) <= 1e-10 * scale
        assert np.max(np.abs(got - want)) <= 1e-5 * scale

    @pytest.mark.parametrize("beta", [0.1, 0.5, 0.9])
    def test_uniform_and_general_routes_agree(self, beta):
        # the linspace grid takes the closed-form transform, the nudged one
        # the differenced form; both are held to the full-line route's bound
        spec = SubordinatorSpec.pure(beta)
        dens = _fractional_brownian(beta)
        nudged = GridDensity(_nudged(dens.t_grid), dens.x_grid, dens.values,
                             dens.mass_error)
        for H in (0.5, 0.7):
            want = fbm_fpke_residual(H, spec, nudged, x_exclude=0.3)
            got = fbm_fpke_residual(H, spec, dens, x_exclude=0.3)
            q = dens.values[:, np.abs(dens.x_grid) > 0.3]
            scale = np.max(np.abs(caputo_l1_columns(
                dens.t_grid, q, ((beta, 1.0),))))
            gap = H * 1e-6 * scale
            assert got.t_window == want.t_window
            assert np.max(np.abs(got.linf_per_x - want.linf_per_x)) <= gap
            assert np.max(np.abs(got.l2_per_x - want.l2_per_x)) <= gap

    def test_l2_weights_rows_on_a_graded_grid(self):
        # t_j = (j/N)^2: each row's weight is half its neighbours' span,
        # which a uniform step t_1 - t_0 misses by orders of magnitude
        tg = (np.arange(161) / 160.0) ** 2
        xg = np.linspace(-6.0, 6.0, 121)
        var = 0.2 + tg[:, None]
        q = np.exp(-0.5 * xg[None, :] ** 2 / var) / np.sqrt(2.0 * np.pi * var)
        dens = GridDensity(tg, xg, q, np.zeros(len(tg)))
        spec = SubordinatorSpec.pure(0.6)
        rep = fbm_fpke_residual(0.7, spec, dens)
        want = field_residual_full_line(0.7, spec, dens)
        resid, w = want["resid"], want["w"]
        # the window is 0.25 <= t <= 0.75: rows 80..138 of 161
        assert np.array_equal(w, 0.5 * (tg[2:] - tg[:-2])[79:138])
        assert rep.t_window == (tg[80], tg[138])
        assert 0.25 <= rep.t_window[0] and rep.t_window[1] <= 0.75
        l2 = np.sqrt(w @ (resid * resid))
        gap = 0.7 * 1e-6 * np.max(np.abs(want["dbeta"])) * np.sqrt(w.sum())
        assert np.max(np.abs(rep.l2_per_x - l2)) <= gap
        uniform = np.sqrt(np.sum(resid * resid, axis=0) * (tg[1] - tg[0]))
        assert np.min(np.abs(uniform - l2)) > 0.5 * np.min(l2)

    @pytest.mark.parametrize("n", [160, 200, 400])
    @pytest.mark.parametrize("t_max", [1.0, 0.7, 3.0])
    def test_window_on_even_uniform_grids_is_the_index_window(self, n, t_max):
        # rows n/4..3n/4, as when the window was chosen by index; a grid
        # point meant for 0.25 T may sit an ulp below it
        tg = np.linspace(0.0, t_max, n + 1)
        assert lambdaop._time_window(tg) == (n // 4, 3 * n // 4 + 1)


class TestSampledRoute:
    """A ``SampledFunction`` reaches the operators as a one-column
    (grid, columns) pair, held to the full-line route that forms the
    transform matrix on every line node (``oracles.dehoog_full_line``)."""

    TG = np.linspace(0.0, 3.0, 121)
    COLS = np.column_stack([np.exp(-TG), (1.0 + TG) * np.exp(-TG),
                            np.sin(TG) * np.exp(-TG)])
    T = np.linspace(0.1, 2.9, 29)

    def test_samples_are_a_one_column_pair(self):
        op = GOperator(0.4, 0.4)
        cc = ContourConfig
        y = self.COLS[:, 1]
        vals, errs = eval_G_grid(op, SampledFunction(self.TG, y), self.T)
        pair = (self.TG, y[:, None])
        v1 = lambdaop._dehoog_values(op, pair, 0.0, self.T, cc.degree,
                                     1e-10)[:, 0]
        v2 = lambdaop._dehoog_values(op, pair, 0.0, self.T, cc.degree_check,
                                     1e-12)[:, 0]
        assert np.array_equal(vals, v1)
        assert np.array_equal(errs, np.abs(v1 - v2))

    @pytest.mark.parametrize("op", [
        GOperator(0.4, 0.4),
        LambdaOperator(SubordinatorSpec.pure(0.7),
                       OrnsteinUhlenbeck(1.0, 1.0)),
        LambdaOperator(SubordinatorSpec(((0.4, 0.5), (0.8, 0.5))),
                       FractionalBrownian(0.7)),
    ], ids=["G", "ou", "mixture"])
    def test_columns_match_full_line_route(self, op):
        # the routes differ in rounding only (half line against full line,
        # kernel first against transform first), which the top block's
        # quotient-difference table amplifies: the gap reached 1.74 times
        # the larger of the two routes' spreads (the mixture at t 2.0)
        cc = ContourConfig
        want = dehoog_full_line(op, self.TG, self.COLS, self.T, cc.degree,
                                1e-10)
        check = dehoog_full_line(op, self.TG, self.COLS, self.T,
                                 cc.degree_check, 1e-12)
        for j, y in enumerate(self.COLS.T):
            got, spread = eval_G_grid(op, SampledFunction(self.TG, y), self.T)
            spread = np.maximum(spread, np.abs(want[:, j] - check[:, j]))
            assert np.all(np.abs(got - want[:, j]) <= 2.5 * spread)

    @pytest.mark.parametrize("op", [
        GOperator(0.4, 0.4),
        LambdaOperator(SubordinatorSpec.pure(0.7),
                       OrnsteinUhlenbeck(1.0, 1.0)),
        LambdaOperator(SubordinatorSpec(((0.4, 0.5), (0.8, 0.5))),
                       FractionalBrownian(0.7)),
    ], ids=["G", "ou", "mixture"])
    def test_uniform_and_general_routes_agree(self, op):
        # the linspace grid takes the closed-form transform, the nudged one
        # the differenced form.  The top block's quotient-difference table
        # amplifies rounding: on the differenced form alone the nudge moved
        # values by up to 1.97 times the larger spread (the mixture at
        # t 2.2), so the routes are held to the 2.5 times of the full-line
        # comparison above
        nudged = _nudged(self.TG)
        for y in self.COLS.T:
            got, spread = eval_G_grid(op, SampledFunction(self.TG, y), self.T)
            want, check = eval_G_grid(op, SampledFunction(nudged, y), self.T)
            assert np.all(np.abs(got - want)
                          <= 2.5 * np.maximum(spread, check))
