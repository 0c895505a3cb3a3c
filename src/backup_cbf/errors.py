"""Exception hierarchy shared across the toolkit.

Two families matter to callers: `ValidationError` for bad inputs or
configuration (CLI exit code 2) and `NumericalError` for failures that
arise while computing (CLI exit code 3).
"""


class ValidationError(ValueError):
    """Invalid configuration, parameters, or file contents."""


class ScenarioError(ValidationError):
    """Scenario file fails schema or range validation."""


class GeometryError(ValidationError):
    """Grid geometries are inconsistent or malformed (at ``axis``, if set)."""

    def __init__(self, message: str, axis: int | None = None):
        super().__init__(message)
        self.axis = axis


class NumericalError(RuntimeError):
    """A numeric computation failed (divergence, solver breakdown, ...)."""


class EvaluationError(NumericalError):
    """A model evaluator produced a non-finite value."""


class FlowDivergenceError(NumericalError):
    """The closed-loop integration produced non-finite state; ``row`` is
    the first diverging state of a batch (``None`` for a single state)."""

    def __init__(self, message: str, step: int, row: int | None = None):
        super().__init__(message)
        self.step = step
        self.row = row


class QpSolverError(NumericalError):
    """The QP solver hit its iteration cap (pathological conditioning)."""


class ConvergenceWarning(RuntimeWarning):
    """An iteration stopped at its step cap before meeting its tolerance."""
