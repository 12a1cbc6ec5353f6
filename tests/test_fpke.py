import math
from dataclasses import dataclass

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad
from scipy.optimize import brentq

from subdiff import fpke
from subdiff.config import SolverConfig
from subdiff.errors import StabilityError
from subdiff.fpke import (
    ClassicalEquation,
    DiffusionWithDrift,
    DistributedOrderEquation,
    FractionalEquation,
    OUGenerator,
    ScaledLaplacian,
    _drift_flux_rows,
    _laplacian_rows,
    _step_apply,
    _step_factor,
    operator_from_model,
    residual_norm,
    solve_classical,
    solve_distributed_order,
    solve_fractional,
)
from subdiff.gaussian import (
    Brownian,
    FractionalBrownian,
    GaussianSpec,
    MeanFunction,
    Mixed,
    MobiusHurst,
    OrnsteinUhlenbeck,
    PiecewiseHurst,
    VariableHurst,
    gaussian_transition_density,
)
from subdiff.subordinators import SubordinatorSpec
from subdiff.timechange import GridDensity, TimeChangedSpec, subordinated_density

from oracles import (
    bm_pure_clock_density,
    l1_uniform_solve,
    ou_flux_rows_loop,
    panel_integrals,
)

EPS = np.finfo(float).eps
CFG400 = SolverConfig(t_max=1.0, n_t=400, x_min=-8.0, x_max=8.0, n_x=400)
MIX = SubordinatorSpec(((0.4, 0.5), (0.8, 0.5)))
DRIFT_03 = MeanFunction(lambda t: 0.3 * t, lambda t: 0.3)


@dataclass(frozen=True)
class GlobalPiecewise:
    """R(t) = t up to T1, then T1 + t^1.6 - T1^1.6: theta is 1/2, then
    0.8 t^0.6 in global time."""

    T1: float

    def var(self, t):
        t = np.asarray(t, dtype=float)
        return np.where(t < self.T1, t, self.T1 + t**1.6 - self.T1**1.6)

    def dvar(self, t):
        t = np.asarray(t, dtype=float)
        return np.where(t < self.T1, 1.0, 1.6 * t**0.6)


def normal_pdf(x, var):
    return np.exp(-x * x / (2.0 * var)) / np.sqrt(2.0 * math.pi * var)


#: one operator of every kind and coefficient the classical solve takes
WARM_START_OPS = {
    "constant": ScaledLaplacian(0.5),
    "brownian": ScaledLaplacian(Brownian()),
    "fbm_h03": ScaledLaplacian(FractionalBrownian(0.3)),
    "fbm_h08": ScaledLaplacian(FractionalBrownian(0.8)),
    "ou_model": ScaledLaplacian(OrnsteinUhlenbeck(1.0, 1.0)),
    "mixed": ScaledLaplacian(Mixed(((1.0, Brownian()),
                                    (0.5, FractionalBrownian(0.7))))),
    "piecewise": ScaledLaplacian(PiecewiseHurst((0.5,), (0.6, 0.8))),
    "global_piecewise": ScaledLaplacian(GlobalPiecewise(0.5)),
    "mobius": ScaledLaplacian(VariableHurst(MobiusHurst(0.6, 0.2), 2.0)),
    "ou_generator": OUGenerator(1.0, 1.0),
    "ou_generator_no_drift": OUGenerator(0.0, 1.5),
    "drift": DiffusionWithDrift(Brownian(), DRIFT_03),
}


class TestClassical:
    @pytest.mark.parametrize("kind", sorted(WARM_START_OPS))
    def test_warm_start_time_matches_brentq(self, kind):
        # R(t_init) = init_width^2, held to brentq at xtol 1e-15: its own
        # bound xtol + 4 eps t, plus the one ulp of the bracketed root
        op = WARM_START_OPS[kind]
        for width in (1e-3, 0.02, 0.08, 0.3):
            want = brentq(lambda u: float(op.variance(u)) - width**2,
                          1e-300, 1.0, xtol=1e-15)
            got = fpke._variance_root(op.variance, width**2, 1.0)
            assert abs(got - want) <= 1e-15 + 5.0 * EPS * want
        cfg = SolverConfig(n_t=16)
        gd = solve_classical(op, cfg)
        assert gd.t_grid[0] == fpke._variance_root(
            op.variance, cfg.delta_width**2, 1.0)

    def test_heat_kernel(self):
        gd = solve_classical(ScaledLaplacian(0.5), CFG400)
        assert np.abs(gd.values[-1] - normal_pdf(gd.x_grid, 1.0)).max() < 1e-3

    def test_fbm_coefficient(self):
        H = 0.7
        gd = solve_classical(ScaledLaplacian(FractionalBrownian(H)), CFG400)
        want = normal_pdf(gd.x_grid, 1.0)
        assert np.abs(gd.values[-1] - want).max() < 1e-3

    def test_singular_coefficient_low_hurst(self):
        # H < 1/2 makes theta(t) singular-but-integrable at 0
        H = 0.3
        gd = solve_classical(ScaledLaplacian(FractionalBrownian(H)), CFG400)
        want = normal_pdf(gd.x_grid, 1.0)
        assert np.abs(gd.values[-1] - want).max() < 1e-3

    def test_piecewise_theta_variance(self):
        # a global-time piecewise coefficient integrates to
        # T1 + (1 - T1^{1.6}) when (H0, H1) = (0.5, 0.8), T1 = 0.5
        T1 = 0.5
        cfg = SolverConfig(t_max=1.0, n_t=400, x_min=-9, x_max=9, n_x=400)
        gd = solve_classical(ScaledLaplacian(GlobalPiecewise(T1)), cfg)
        var = np.trapezoid(gd.values[-1] * gd.x_grid**2, gd.x_grid)
        assert abs(var - (T1 + 1.0 - T1**1.6)) < 1e-3

    def test_classical_ou_form(self):
        # time-dependent form of the OU equation: theta(t) = s^2 e^{-2at}/2
        alpha, sigma = 1.0, 1.0
        model = OrnsteinUhlenbeck(alpha, sigma)
        gd = solve_classical(
            ScaledLaplacian(model),
            SolverConfig(t_max=1.0, n_t=400, x_min=-6, x_max=6, n_x=400),
        )
        want = normal_pdf(gd.x_grid, float(model.var(1.0)))
        assert np.abs(gd.values[-1] - want).max() < 1e-3

    def test_ou_generator_form(self):
        # autonomous drift-diffusion form of the same equation
        gd = solve_classical(OUGenerator(1.0, 1.0),
                             SolverConfig(t_max=1.0, n_t=400, x_min=-6,
                                          x_max=6, n_x=400))
        model = OrnsteinUhlenbeck(1.0, 1.0)
        want = normal_pdf(gd.x_grid, float(model.var(1.0)))
        assert np.abs(gd.values[-1] - want).max() < 1.5e-3

    def test_drift_shifts_density(self):
        op = DiffusionWithDrift(Brownian(), MeanFunction(lambda t: t,
                                                         lambda t: 1.0))
        gd = solve_classical(op, SolverConfig(t_max=1.0, n_t=400,
                                              x_min=-7, x_max=9, n_x=400))
        want = normal_pdf(gd.x_grid - 1.0, 1.0)
        assert np.abs(gd.values[-1] - want).max() < 1e-3

    def test_convergence_order(self):
        H = 0.7
        w = 4 * (16.0 / 99)
        errs = []
        for n in (100, 200, 400):
            cfg = SolverConfig(t_max=1.0, n_t=n, x_min=-8, x_max=8, n_x=n,
                               init_width=w)
            gd = solve_classical(ScaledLaplacian(FractionalBrownian(H)), cfg)
            errs.append(np.abs(gd.values[-1]
                               - normal_pdf(gd.x_grid, 1.0)).max())
        orders = np.log2(np.array(errs[:-1]) / errs[1:])
        assert orders.min() > 1.9

    def test_mass_conserved(self):
        gd = solve_classical(ScaledLaplacian(0.5), CFG400)
        assert gd.mass_error.max() < 1e-6


class TestFractional:
    def test_beta_one_degenerates_to_classical(self):
        a = solve_fractional(ScaledLaplacian(0.5), 1.0, CFG400)
        b = solve_classical(ScaledLaplacian(0.5), CFG400)
        assert np.array_equal(a.values, b.values)

    def test_bm_against_subordination(self):
        cfg = SolverConfig(t_max=1.0, n_t=400, x_min=-8.5, x_max=8.5, n_x=400)
        gd = solve_fractional(ScaledLaplacian(0.5), 0.5, cfg)
        spec = TimeChangedSpec(GaussianSpec.univariate(Brownian()),
                               SubordinatorSpec.pure(0.5))
        q = subordinated_density(spec, 1.0, gd.x_grid)
        assert np.abs(gd.values[-1] - q).max() < 5e-3

    def test_ou_against_subordination(self):
        cfg = SolverConfig(t_max=1.0, n_t=400, x_min=-6, x_max=6, n_x=400)
        gd = solve_fractional(OUGenerator(1.0, 1.0), 0.7, cfg)
        spec = TimeChangedSpec(
            GaussianSpec.univariate(OrnsteinUhlenbeck(1.0, 1.0)),
            SubordinatorSpec.pure(0.7),
        )
        q = subordinated_density(spec, 1.0, gd.x_grid)
        assert np.abs(gd.values[-1] - q).max() < 5e-3

    def test_subdiffusive_variance(self):
        cfg = SolverConfig(t_max=1.0, n_t=400, x_min=-8.5, x_max=8.5, n_x=400)
        gd = solve_fractional(ScaledLaplacian(0.5), 0.5, cfg)
        for i in (len(gd.t_grid) // 2, len(gd.t_grid) - 1):
            t = gd.t_grid[i]
            var = np.trapezoid(gd.values[i] * gd.x_grid**2, gd.x_grid)
            assert abs(var - t**0.5 / math.gamma(1.5)) < 1e-3

    def test_time_order_on_bm_benchmark(self):
        # order in dt at fixed fine space, against the subordination oracle
        spec = TimeChangedSpec(GaussianSpec.univariate(Brownian()),
                               SubordinatorSpec.pure(0.5))
        errs = []
        for n_t in (50, 100, 200):
            cfg = SolverConfig(t_max=1.0, n_t=n_t, x_min=-8.5, x_max=8.5,
                               n_x=801)
            gd = solve_fractional(ScaledLaplacian(0.5), 0.5, cfg)
            q = subordinated_density(spec, 1.0, gd.x_grid)
            errs.append(np.abs(gd.values[-1] - q).max())
        # spatial error floors the finest level; demand first-step order >= 1
        order = math.log2(errs[0] / errs[1])
        assert order > 0.9 or errs[1] < 5e-4

    @pytest.mark.parametrize("beta", [0.5, 0.8])
    def test_time_order_against_closed_form(self, beta):
        # first order in dt against the exact M-Wright density; the kink
        # at x = 0 limits the spatial order there, so |x| <= 0.5 is left out
        errs = []
        for n_t in (100, 200, 400):
            cfg = SolverConfig(t_max=1.0, n_t=n_t, x_min=-12.0, x_max=12.0,
                               n_x=800)
            gd = solve_fractional(ScaledLaplacian(0.5), beta, cfg)
            keep = np.abs(gd.x_grid) > 0.5
            want = bm_pure_clock_density(beta, 1.0, gd.x_grid[keep])
            errs.append(np.max(np.abs(gd.values[-1, keep] - want)))
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(orders >= 0.9), orders

    def test_mass_and_positivity(self):
        # subdiffusive tails are heavier than Gaussian: at beta = 0.4 the
        # 1e-6 mass budget needs the boundary out near 12 deviations
        cfg = SolverConfig(t_max=1.0, n_t=200, x_min=-12.0, x_max=12.0,
                           n_x=240)
        gd = solve_fractional(ScaledLaplacian(0.5), 0.4, cfg)
        assert gd.mass_error.max() < 1e-6
        assert gd.values.min() >= 0.0

    def test_nonautonomous_rejected(self):
        with pytest.raises(ValueError):
            solve_fractional(ScaledLaplacian(FractionalBrownian(0.7)), 0.5,
                             CFG400)

    def test_beta_range(self):
        with pytest.raises(ValueError):
            solve_fractional(ScaledLaplacian(0.5), 1.2, CFG400)


class TestDistributedOrder:
    def test_single_component_bitwise(self):
        cfg = SolverConfig(t_max=1.0, n_t=200, x_min=-8, x_max=8, n_x=200)
        a = solve_distributed_order(ScaledLaplacian(0.5),
                                    SubordinatorSpec.pure(0.5), cfg)
        b = solve_fractional(ScaledLaplacian(0.5), 0.5, cfg)
        assert np.array_equal(a.values, b.values)

    def test_pure_order_matches_uniform_weight_oracle(self):
        # independent stepping with the closed-form uniform-grid weights;
        # moving the solver onto the shared weight builder moved its output
        # by <= 1.1e-14, so 1e-12 leaves room for round-off only
        cfg = SolverConfig(t_max=1.0, n_t=200, x_min=-8, x_max=8, n_x=200)
        gd = solve_fractional(ScaledLaplacian(0.5), 0.5, cfg)
        ref = l1_uniform_solve(0.5, 0.5, gd.x_grid, 1.0, 200)
        assert_allclose(gd.t_grid, np.linspace(0.0, 1.0, 201), rtol=0,
                        atol=1e-15)
        assert_allclose(gd.values, ref, rtol=0, atol=1e-12)

    def test_mixture_against_subordination(self):
        cfg = SolverConfig(t_max=1.0, n_t=400, x_min=-8.5, x_max=8.5, n_x=400)
        gd = solve_distributed_order(ScaledLaplacian(0.5), MIX, cfg)
        spec = TimeChangedSpec(GaussianSpec.univariate(Brownian()), MIX)
        q = subordinated_density(spec, 1.0, gd.x_grid)
        assert np.abs(gd.values[-1] - q).max() < 1e-2

    def test_mass(self):
        cfg = SolverConfig(t_max=1.0, n_t=200, x_min=-8.5, x_max=8.5, n_x=200)
        gd = solve_distributed_order(ScaledLaplacian(0.5), MIX, cfg)
        assert gd.mass_error[-1] < 1e-6

    def test_deterministic_component_rejected(self):
        with pytest.raises(ValueError):
            solve_distributed_order(ScaledLaplacian(0.5),
                                    SubordinatorSpec.pure(1.0), CFG400)


class TestResiduals:
    def test_closed_form_density_in_classical_equation(self):
        H = 0.7
        tg = np.linspace(0.5, 1.0, 101)
        xg = np.linspace(-8.0, 8.0, 601)
        vals = np.array([normal_pdf(xg, t ** (2 * H)) for t in tg])
        dens = GridDensity(tg, xg, vals, np.zeros(len(tg)))
        eq = ClassicalEquation(ScaledLaplacian(FractionalBrownian(H)))
        rep = residual_norm(dens, eq)
        assert rep.overall_linf < 1e-3

    def test_solver_self_residual_truncation_order(self):
        # on a strided grid the defect reflects scheme truncation and
        # shrinks under refinement
        linfs = []
        for n in (200, 400):
            cfg = SolverConfig(t_max=1.0, n_t=n, x_min=-8.5, x_max=8.5,
                               n_x=301)
            gd = solve_fractional(ScaledLaplacian(0.5), 0.5, cfg)
            strided = GridDensity(gd.t_grid[::2], gd.x_grid, gd.values[::2],
                                  gd.mass_error[::2])
            rep = residual_norm(strided,
                                FractionalEquation(ScaledLaplacian(0.5), 0.5))
            linfs.append(rep.overall_linf)
        assert linfs[1] < linfs[0]
        assert linfs[0] > 0.0

    def test_native_grid_residual_is_roundoff(self):
        cfg = SolverConfig(t_max=1.0, n_t=100, x_min=-8, x_max=8, n_x=120)
        gd = solve_fractional(ScaledLaplacian(0.5), 0.5, cfg)
        rep = residual_norm(gd, FractionalEquation(ScaledLaplacian(0.5), 0.5))
        assert rep.overall_linf < 1e-9

    def test_distributed_equation_residual(self):
        cfg = SolverConfig(t_max=1.0, n_t=150, x_min=-8, x_max=8, n_x=120)
        gd = solve_distributed_order(ScaledLaplacian(0.5), MIX, cfg)
        rep = residual_norm(gd, DistributedOrderEquation(ScaledLaplacian(0.5),
                                                         MIX))
        assert rep.overall_linf < 1e-9

    @pytest.mark.parametrize("clock", ["pure", "mixture"])
    def test_native_grid_ou_residual_is_roundoff(self, clock):
        cfg = SolverConfig(t_max=1.0, n_t=100, x_min=-8, x_max=8, n_x=120)
        op = OUGenerator(1.0, 1.0)
        if clock == "pure":
            gd = solve_fractional(op, 0.5, cfg)
            eq = FractionalEquation(op, 0.5)
        else:
            gd = solve_distributed_order(op, MIX, cfg)
            eq = DistributedOrderEquation(op, MIX)
        assert residual_norm(gd, eq).overall_linf <= 1e-9

    def test_report_serializes(self):
        cfg = SolverConfig(t_max=1.0, n_t=100, x_min=-8, x_max=8, n_x=120)
        gd = solve_fractional(ScaledLaplacian(0.5), 0.5, cfg)
        rep = residual_norm(gd, FractionalEquation(ScaledLaplacian(0.5), 0.5))
        blob = rep.to_json()
        assert set(blob) == {"t_slices", "l2", "linf", "overall_linf"}
        import json

        json.dumps(blob)

    def test_zero_density_zero_residual(self):
        tg = np.linspace(0.0, 1.0, 51)
        xg = np.linspace(-4.0, 4.0, 101)
        dens = GridDensity(tg, xg, np.zeros((51, 101)), np.zeros(51))
        eq = FractionalEquation(ScaledLaplacian(0.5), 0.5)
        assert residual_norm(dens, eq).overall_linf == 0.0

    def test_coarse_grid_rejected(self):
        tg = np.linspace(0.0, 1.0, 21)
        xg = np.linspace(-1.0, 1.0, 10)
        with pytest.raises(ValueError):
            residual_norm(GridDensity(tg, xg, np.zeros((21, 10)),
                                      np.zeros(21)),
                          ClassicalEquation(ScaledLaplacian(0.5)))


SOLVES = {
    "heat": lambda cfg: solve_classical(ScaledLaplacian(0.5), cfg),
    "ou": lambda cfg: solve_classical(OUGenerator(1.0, 1.0), cfg),
    "drift": lambda cfg: solve_classical(
        DiffusionWithDrift(Brownian(), DRIFT_03), cfg),
    "fractional": lambda cfg: solve_fractional(ScaledLaplacian(0.5), 0.5, cfg),
    "fractional_ou": lambda cfg: solve_fractional(OUGenerator(1.0, 1.0), 0.7,
                                                  cfg),
    "distributed": lambda cfg: solve_distributed_order(ScaledLaplacian(0.5),
                                                       MIX, cfg),
}


@pytest.mark.parametrize("kind", sorted(SOLVES))
def test_dirichlet_boundary_exactly_zero_every_step(kind):
    cfg = SolverConfig(t_max=1.0, n_t=200, x_min=-8.0, x_max=8.0, n_x=200)
    gd = SOLVES[kind](cfg)
    assert np.all(gd.values[1:, [0, -1]] == 0.0)


def _step_solve(shift, rows, rhs):
    """q with (shift I - rows) q = rhs on the interior nodes and q = 0 on
    the two boundary nodes (Dirichlet): one factorisation and one solve.
    ``rhs`` is overwritten."""
    return _step_apply(_step_factor(shift, rows), rhs)


def test_step_solve_raises_on_singular_system():
    # a zero pivot in an interior row with no coupling: no number comes back
    x = np.linspace(-1.0, 1.0, 9)
    rows = _laplacian_rows(x)
    rows[1][4] = 1.0
    rows[0][4] = rows[2][4] = 0.0
    rows[2][3] = rows[0][5] = 0.0
    with pytest.raises(StabilityError, match="singular"):
        _step_solve(1.0, rows, np.ones(9))


def test_step_solve_matches_dense_dirichlet_system():
    x = np.linspace(-2.0, 2.0, 11)
    rows = _drift_flux_rows(0.7, 1.3, x)
    rhs = np.linspace(1.0, 2.0, 11)
    A = 3.0 * np.eye(11) - (np.diag(rows[1]) + np.diag(rows[0][1:], -1)
                            + np.diag(rows[2][:-1], 1))
    A[[0, -1]] = 0.0
    A[0, 0] = A[-1, -1] = 1.0
    # the boundary entries of rhs are not read: q is 0 there
    want = np.linalg.solve(A, np.concatenate(([0.0], rhs[1:-1], [0.0])))
    assert_allclose(_step_solve(3.0, rows, rhs.copy()), want, rtol=0,
                    atol=1e-14 * np.abs(want).max())


def test_factor_serves_every_right_hand_side():
    x = np.linspace(-2.0, 2.0, 11)
    rows = _drift_flux_rows(0.7, 1.3, x)
    factor = _step_factor(3.0, rows)
    for rhs in (np.linspace(1.0, 2.0, 11), np.cos(x)):
        assert np.array_equal(_step_apply(factor, rhs.copy()),
                              _step_solve(3.0, rows, rhs.copy()))


@pytest.mark.parametrize("spec", [SubordinatorSpec.pure(0.6), MIX],
                         ids=["pure", "mixture"])
def test_l1_solve_factors_its_step_matrix_once(spec, monkeypatch):
    # on a uniform time grid every step's shift W[n, n-1] is the same
    # lag weight, so one factorisation serves all n_t steps
    from subdiff import fpke

    calls = []

    def counted(shift, rows):
        calls.append(shift)
        return _step_factor(shift, rows)

    monkeypatch.setattr(fpke, "_step_factor", counted)
    cfg = SolverConfig(t_max=1.0, n_t=200, x_min=-8.0, x_max=8.0, n_x=200)
    gd = solve_distributed_order(ScaledLaplacian(0.5), spec, cfg)
    assert len(calls) == 1
    assert len(gd.t_grid) == 201


def test_ou_flux_rows_match_per_node_loop():
    x = np.linspace(-6.0, 6.0, 97)
    for got, want in zip(_drift_flux_rows(0.7, 1.3, x),
                         ou_flux_rows_loop(0.7, 1.3, x)):
        assert np.array_equal(got, want)


def test_operator_from_model_matches_variance():
    op = operator_from_model(FractionalBrownian(0.7))
    assert_allclose(op.theta(1.0), 0.7, rtol=1e-12)
    mean = MeanFunction(lambda t: 2 * t, lambda t: 2.0)
    op2 = operator_from_model(Brownian(), mean)
    assert op2.drift(0.3) == 2.0


def test_piecewise_model_route():
    # acceptance-10 route: theta from the pathwise model's variance slope,
    # on uniform steps that need not land on a breakpoint; at n 100 the
    # 4-cell mollifier starts the 3-segment solve past its first breakpoint
    for pw, n in ((PiecewiseHurst((0.5,), (0.5, 0.8)), 400),
                  (PiecewiseHurst((0.3, 0.55), (0.7, 0.5, 0.9)), 100)):
        cfg = SolverConfig(t_max=1.0, n_t=n, x_min=-8, x_max=8, n_x=n)
        gd = solve_classical(operator_from_model(pw), cfg)
        var = np.trapezoid(gd.values[-1] * gd.x_grid**2, gd.x_grid)
        assert abs(var - float(pw.var(1.0))) < 1e-3


def test_scaled_laplacian_rejects_a_bare_callable():
    with pytest.raises(TypeError, match="var and dvar"):
        ScaledLaplacian(lambda t: 0.5)


def _sine_and_loop(x, t_grid, p0, c):
    """Both Crank-Nicolson routes from p0 with step integrals c."""
    sine = np.empty((len(t_grid), len(x)))
    sine[0] = p0
    loop = sine.copy()
    fpke._cn_sine(sine, x, c)
    fpke._cn_loop(loop, [_laplacian_rows(x)], c[:, None])
    return sine, loop


FBM07 = FractionalBrownian(0.7)
SINE_CASES = {
    "fbm07_n400": (FBM07, CFG400),
    "fbm07_n200": (FBM07, SolverConfig(n_t=200, n_x=200)),  # n_x - 1 prime
    "fbm07_n401": (FBM07, SolverConfig(n_x=401)),  # n_x - 1 = 2^4 5^2
    "fbm03_n400": (FractionalBrownian(0.3), CFG400),
    "fbm03_n200": (FractionalBrownian(0.3), SolverConfig(n_t=200, n_x=200)),
    "ou_variance": (OrnsteinUhlenbeck(1.0, 1.0),
                    SolverConfig(x_min=-6.0, x_max=6.0)),
    "mixed": (Mixed(((1.0, FBM07), (0.5, Brownian()))),
              SolverConfig(x_min=-9.0, x_max=9.0)),
    "piecewise": (PiecewiseHurst((0.5,), (0.5, 0.8)), SolverConfig()),
}


@pytest.mark.parametrize("case", sorted(SINE_CASES))
def test_sine_route_matches_loop(case):
    # the loop on the Laplacian rows is the sine route's reference: the
    # same steps, one tridiagonal solve each
    model, cfg = SINE_CASES[case]
    gd = solve_classical(ScaledLaplacian(model), cfg)
    c = 0.5 * np.diff(model.var(gd.t_grid))
    sine, loop = _sine_and_loop(gd.x_grid, gd.t_grid, gd.values[0], c)
    assert np.array_equal(np.maximum(sine, 0.0), gd.values)
    assert_allclose(sine, loop, rtol=0, atol=1e-13 * loop.max())


def test_sine_route_matches_loop_with_mollifier_on_the_ends():
    # a narrow domain: the mollifier is 4% of its peak at x = +-1, which
    # the first step's full rows must read as the loop does
    x = np.linspace(-1.0, 1.0, 201)
    t_grid = np.linspace(0.2, 0.5, 101)
    p0 = normal_pdf(x, 0.16)
    c = 0.5 * np.diff(FBM07.var(t_grid))
    sine, loop = _sine_and_loop(x, t_grid, p0, c)
    assert p0[0] > 0.04 * p0.max()
    assert_allclose(sine, loop, rtol=0, atol=1e-13 * loop.max())


@pytest.mark.parametrize("model", [
    FBM07, FractionalBrownian(0.3), Brownian(), OrnsteinUhlenbeck(1.0, 1.0),
    Mixed(((1.0, FBM07), (0.5, Brownian()))),
], ids=["fbm07", "fbm03", "bm", "ou", "mixed"])
def test_step_integrals_match_panel_rule(model):
    # on smooth panels the exact increments agree with the 8-point rule
    # they replaced
    gd = solve_classical(ScaledLaplacian(model), CFG400)
    want = panel_integrals(lambda u: 0.5 * float(model.dvar(u)), gd.t_grid)
    assert_allclose(0.5 * np.diff(model.var(gd.t_grid)), want, rtol=1e-12)


def test_step_integral_after_breakpoint_matches_adaptive_quadrature():
    # theta jumps from 1/2 to ~ (t - 1/2)^0.6 inside the step straddling
    # the breakpoint: the 8-point rule misses that step, the exact
    # increment does not
    pw = PiecewiseHurst((0.5,), (0.5, 0.8))
    gd = solve_classical(ScaledLaplacian(pw), SolverConfig())
    t = gd.t_grid
    k = int(np.searchsorted(t, 0.5)) - 1
    assert t[k] < 0.5 < t[k + 1]

    def theta(u):
        return 0.5 * float(pw.dvar(u))

    got = 0.5 * np.diff(pw.var(t))
    want, _ = quad(theta, t[k], t[k + 1], points=[0.5], epsabs=0.0,
                   epsrel=1e-13)
    assert_allclose(got[k], want, rtol=1e-12)
    assert abs(panel_integrals(theta, t[k:k + 2])[0] / want - 1.0) > 1e-5
    assert_allclose(got[:k], panel_integrals(theta, t[:k + 1]), rtol=1e-12)


def test_sine_route_negative_floor_is_rounding(monkeypatch):
    # the sine route leaves cells a few ulps below 0 where the loop had
    # none; _package clamps them, far inside NONNEG_TOL
    seen = []

    def capture(t_grid, x, values, cfg):
        seen.append(values.copy())
        return package(t_grid, x, values, cfg)

    package = fpke._package
    monkeypatch.setattr(fpke, "_package", capture)
    solve_classical(ScaledLaplacian(FBM07), CFG400)
    (values,) = seen
    assert values.min() >= -1e-13 * values.max()


@pytest.mark.parametrize("op, rows", [
    (OUGenerator(1.0, 1.0), lambda t: np.diff(t)[:, None]),
    (DiffusionWithDrift(Brownian(), DRIFT_03),
     lambda t: np.stack([0.5 * np.diff(t), -np.diff(0.3 * t)], axis=1)),
], ids=["ou", "drift"])
def test_cn_loop_factors_each_distinct_step_once(op, rows, monkeypatch):
    # a step's factors depend only on its coefficient row, and linspace
    # steps take few distinct values
    calls = []

    def counted(shift, rows):
        calls.append(shift)
        return _step_factor(shift, rows)

    monkeypatch.setattr(fpke, "_step_factor", counted)
    gd = solve_classical(op, CFG400)
    assert len(calls) == len(np.unique(rows(gd.t_grid), axis=0))
    assert len(calls) <= 32 < len(gd.t_grid) - 1
