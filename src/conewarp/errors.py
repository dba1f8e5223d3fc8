"""Exception taxonomy shared across the package."""


class ConewarpError(Exception):
    """Base class for all package errors."""


class DomainError(ConewarpError):
    """Evaluation or construction outside the admissible domain."""


class SingularityError(ConewarpError):
    """Non-finite evaluation (pole, axis point, division blow-up)."""


class JoinFailure(ConewarpError):
    """A mollified join could not satisfy its requested constraints."""


class ConstructionFailure(ConewarpError):
    """A builder could not realize the required properties."""


class ParameterError(ConewarpError):
    """Builder invoked with parameters outside its certified range."""


class UnderflowError_(ConewarpError):
    """A closed-form constant is not representable in double precision."""


class DegenerateMetricError(ConewarpError):
    """A warp factor vanished or the metric lost positive definiteness."""


class ChartError(ConewarpError):
    """Declared frame not invertible / chart data inconsistent."""


class ConditioningError(ConewarpError):
    """Finite-difference oracle rejected a nearly singular metric."""


class NotFreeError(ConewarpError):
    """Group action has a fixed point on the unit sphere."""


class UnsupportedCaseError(ConewarpError):
    """Input outside the implemented portion of the construction."""


class PipelineError(ConewarpError):
    """Resolution run could not complete (matching or aggregation failed)."""
