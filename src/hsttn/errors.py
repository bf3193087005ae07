"""Exception taxonomy shared across the package."""


class HsttnError(Exception):
    """Base class for all package errors."""


class ShapeError(HsttnError):
    """Tensor shapes are incompatible for the requested operation."""


class ConfigError(HsttnError):
    """A configuration or command-line value violates a documented invariant:
    a config key, a forecast origin or plotted turbine outside the data, an
    `HSTTN_LOG` level, or a dataset that differs from its checkpoint."""


class ContractError(HsttnError):
    """A caller broke an API precondition (not a shape problem)."""


class OracleError(HsttnError):
    """A verification oracle could not be evaluated (e.g. non-finite values)."""


class IngestError(HsttnError):
    """A dataset file could not be parsed into a record grid."""


class DatasetError(HsttnError):
    """A dataset is structurally valid but unusable (empty split, no valid cells)."""


class TrainingError(HsttnError):
    """Training diverged or received unusable gradients."""


class EvaluationError(HsttnError):
    """Evaluation was requested on an empty or fully-invalid sample set."""
