"""Exception types shared across the package."""


class NumericsError(RuntimeError):
    """A numerical routine could not deliver its accuracy contract."""


class InversionError(NumericsError):
    """Dual-method Laplace inversion disagreed beyond tolerance."""


class QuadratureError(NumericsError):
    """Adaptive quadrature failed to converge."""


class StabilityError(NumericsError):
    """A PDE solve became unstable or lost mass beyond budget."""


class DegenerateDensityError(ValueError):
    """Density requested where the law is a point mass (zero variance)."""


class HurstRangeError(ValueError):
    """A variable-Hurst kernel met a time where H(t) leaves (1/2, 1)."""
