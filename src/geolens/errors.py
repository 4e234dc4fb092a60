"""Exception types shared across the package."""


class GeolensError(Exception):
    """Base class for all package-specific errors."""


class OffManifoldError(GeolensError):
    """A point or tangent vector violates the model constraint beyond tolerance."""


class InjectivityError(GeolensError):
    """A logarithm was requested at or beyond the injectivity radius."""


class ChartError(GeolensError):
    """A computation left the certified chart of a numeric manifold."""


class ShootingError(GeolensError):
    """The two-point geodesic shooting solver failed to converge."""


class NestingError(GeolensError):
    """A sequence of point clouds violates its declared nesting beyond slack."""


class TangencyError(GeolensError):
    """A lens expected to have sample points came back empty."""


class DefectError(GeolensError):
    """An internal consistency guard tripped; indicates an integration defect."""


class ConfigError(GeolensError):
    """A run configuration is malformed or violates an operation precondition."""
