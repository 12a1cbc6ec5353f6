"""Solver grid and tolerance configuration.

The PDE grid and the tolerances every numerical contract (and
``validate``) is stated against live here: the two a config may set in
``SolverConfig``, the two fixed ones as module constants.  Fixed layouts
are constants of their modules: the inversion degrees are
``fraccalc.TALBOT_DEGREE`` and ``fraccalc.DEHOOG_DEGREE``.  Instances are
immutable; use `dataclasses.replace` to derive variants.
"""
from __future__ import annotations

from dataclasses import dataclass

#: clamp band for density ringing and the solvers' positivity budget
NONNEG_TOL = 1e-8
#: mass conservation budget per unit time
MASS_TOL = 1e-6


@dataclass(frozen=True)
class SolverConfig:
    # space-time grid for PDE solves
    t_max: float = 1.0
    n_t: int = 400
    x_min: float = -8.0
    x_max: float = 8.0
    n_x: int = 400
    #: std of the Gaussian mollifier standing in for the delta initial
    #: condition; None means 4 grid cells.
    init_width: float | None = None

    # tolerances
    quadrature_tol: float = 1e-8
    inversion_tol: float = 1e-6      # cross-method agreement, relative

    def __post_init__(self):
        if self.n_t < 16 or self.n_x < 16:
            raise ValueError("grids need at least 16 points")
        if self.t_max <= 0:
            raise ValueError("t_max must be positive")
        if self.x_min >= self.x_max:
            raise ValueError("x_min must be below x_max")
        if self.init_width is not None and self.init_width < 2 * self.dx:
            raise ValueError("init_width must be at least 2 grid cells")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.n_x - 1)

    @property
    def delta_width(self) -> float:
        """Effective mollifier width (default 4 cells)."""
        return self.init_width if self.init_width is not None else 4.0 * self.dx


DEFAULT_CONFIG = SolverConfig()
