"""Error types shared across the package."""


class SafuzzError(Exception):
    """Base class for all package errors."""


class GraphParseError(SafuzzError):
    """A program/graph definition is structurally invalid."""


class RegistryError(SafuzzError):
    """The kernel registry file is malformed."""


class CapabilityError(SafuzzError):
    """The requested kernel/oracle/rewrite is not implemented."""


class UsageError(SafuzzError):
    """The caller violated an API precondition."""


class OracleUnavailable(SafuzzError):
    """finite_diff_grad met a non-finite value, so it cannot judge this input."""


class GenerationFailure(SafuzzError):
    """Dataset generation could not produce enough samples of every class."""


class TrainingError(SafuzzError):
    """The training set cannot produce a usable classifier."""


class FileFormatError(SafuzzError):
    """A dataset/model/report file failed to load (version or corruption) or to save."""
