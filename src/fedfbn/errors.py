"""Exception types shared across the simulator."""


class FedfbnError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(FedfbnError):
    """Tensor dimensions are inconsistent with the requested operation."""


class ConfigError(FedfbnError):
    """A configuration value or key is invalid."""


class DataError(FedfbnError):
    """A dataset or batch violates an operation's preconditions."""


class ProtocolError(FedfbnError):
    """Parameter bundles disagree in structure, or a merge rule is violated."""


class FrozenStatsError(ProtocolError):
    """Frozen batch-norm tensors were found to differ across nodes."""


class LabelError(FedfbnError):
    """A requested label is unknown to the model or dataset."""


class MetricError(FedfbnError):
    """A metric is undefined for the given inputs."""


class ParseError(FedfbnError):
    """A text file could not be parsed; message carries the location."""


class WorkerError(FedfbnError):
    """A worker process ended without returning the work it took."""


class NodeFailure(FedfbnError):
    """A node failed during a federation round.

    Wraps the original exception; names the node and round so a failed
    simulation can be traced back to its source.
    """

    def __init__(self, node_id: int, round_index: int, cause: BaseException):
        self.node_id = node_id
        self.round_index = round_index
        super().__init__(
            f"node {node_id} failed in round {round_index}: {cause!r}"
        )
