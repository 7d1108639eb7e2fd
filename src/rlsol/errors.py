"""Exception types shared across the package."""


class RlsolError(Exception):
    """Base class for all package errors."""


class DimensionError(RlsolError, ValueError):
    """Operands have incompatible shapes."""


class InputError(RlsolError, ValueError):
    """An input value is malformed (non-finite, empty, wrong kind)."""


class ConfigError(RlsolError, ValueError):
    """A configuration value is out of range or unknown."""


class FactorizationError(RlsolError, ArithmeticError):
    """Symmetric factorization hit a non-positive pivot.

    Attributes:
        pivot_index: index of the failing pivot.
    """

    def __init__(self, pivot_index: int, message: str | None = None):
        self.pivot_index = pivot_index
        super().__init__(message or f"non-positive pivot at index {pivot_index}")


class DegeneracyError(RlsolError, ArithmeticError):
    """Precision matrix lost positive definiteness.

    Attributes:
        step: time index at which degeneracy was detected.
        layer: offending layer index when raised from a multi-layer update.
    """

    def __init__(self, step: int, message: str | None = None, layer: int | None = None):
        self.step = step
        self.layer = layer
        super().__init__(message or f"precision matrix degenerate at step {step}")


class DivergenceError(RlsolError, ArithmeticError):
    """A gradient update stage diverged: ``bgd_update``'s cost increased for
    3 consecutive iterations, or a stage's stepped weights are not finite.

    The update-stage contract (``rlsol.optimizers``): entry checks once,
    iterations unchecked, and stepped weights that are not finite raise this
    error, built only by ``linalg.stepped_weights``.

    Attributes:
        iteration: iteration index at which divergence was declared.
        layer: offending layer index when raised from a multi-layer update.
        step: the precision step, when the stage advances a precision state.
    """

    def __init__(
        self,
        iteration: int,
        message: str | None = None,
        layer: int | None = None,
        step: int | None = None,
    ):
        self.iteration = iteration
        self.layer = layer
        self.step = step
        super().__init__(message or f"cost increased for 3 consecutive iterations (iteration {iteration})")


class ProtocolError(RlsolError, ValueError):
    """Event stream violated session ordering rules."""
