"""Exception types shared across the package."""


class HeartBnError(Exception):
    """Base class for all heartbn errors."""


class CycleDetectedError(HeartBnError):
    """The edge set admits no topological order (includes self-loops)."""


class UnknownNodeError(HeartBnError):
    """A referenced node is not declared in the graph or network."""


class DuplicateEdgeError(HeartBnError):
    """The same directed edge was declared twice."""


class ZeroEvidenceError(HeartBnError):
    """The supplied evidence has probability exactly zero under the model."""


class SchemaMismatchError(HeartBnError):
    """Data columns do not cover the variables an operation needs."""


class InsufficientDataError(HeartBnError):
    """An independence test was attempted on effectively empty data."""


class MalformedRowError(HeartBnError):
    """A data row has the wrong number of cells, or a cell that cannot be read."""

    def __init__(self, line_number: int, column: int, message: str):
        super().__init__(f"line {line_number}, column {column}: {message}")
        self.line_number = line_number


class UnknownCategoryError(HeartBnError):
    """A categorical cell holds a code outside the attribute's domain."""


class NonMonotoneCutpointsError(HeartBnError):
    """Discretization thresholds are not strictly increasing."""


class ConflictingOrientationWarning(UserWarning):
    """Both directions of an edge were forced during orientation."""
