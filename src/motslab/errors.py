"""Exception types shared across the package."""


class MotslabError(Exception):
    """Base class for all package errors."""


class DegenerateMetricError(MotslabError):
    """Induced metric fails positive definiteness at some node."""

    def __init__(self, node, detail=""):
        self.node = node
        msg = f"metric not positive definite at node {node}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class NonFiniteInputError(MotslabError):
    """A field contains NaN or Inf entries."""


class InvalidInputError(MotslabError):
    """Input values have the wrong shape or lie outside their valid range."""


class TopologyError(MotslabError):
    """Operation requested on an unsupported grid topology."""


class DomainError(MotslabError):
    """Evaluation point lies outside the chart domain of an initial data set."""


class ImmersionError(MotslabError):
    """Surface chart fails to be an immersion at some node."""


class IterationFailureError(MotslabError):
    """Eigenvalue iteration failed to converge."""


class UnsupportedOperationError(MotslabError):
    """Operation not defined for the given operator or surface configuration."""
