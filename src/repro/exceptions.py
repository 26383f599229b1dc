"""Exception hierarchy for the ``repro`` library.

All library-specific errors derive from :class:`ReproError` so that callers
can catch any failure originating in this package with a single ``except``
clause while still being able to discriminate finer-grained failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ConfigurationError(ReproError):
    """Raised when a component is configured with invalid parameters."""


class NotFittedError(ReproError):
    """Raised when ``predict``/``transform`` is called before ``fit``."""


class DataValidationError(ReproError):
    """Raised when input data fails structural validation."""


class ConvergenceError(ReproError):
    """Raised when an iterative algorithm fails to converge."""


class EmbeddingError(ReproError):
    """Raised when an embedding model cannot encode the given input."""


class DatasetError(ReproError):
    """Raised when a benchmark dataset cannot be generated or loaded."""


class ExperimentError(ReproError):
    """Raised when an experiment definition or run is invalid."""


class SerializationError(ReproError):
    """Raised when a model checkpoint cannot be written or read back."""


class RetiredCheckpointError(SerializationError):
    """Raised when a checkpoint stores a class this release removed.

    The file is intact; the fix is to rebuild it with a current backend,
    so the serving layer answers 400, not the 500 of a corrupt file.
    """


class ServingError(ReproError):
    """Raised when the online inference layer receives an unservable request."""


class JobError(ReproError):
    """Raised when an async job submission or transition is invalid."""


class ExportError(ReproError):
    """Raised when a result export is invalid or an exporter is unknown."""


class StreamingError(ReproError):
    """Raised when a streaming-ingestion or incremental-update step is invalid."""


class VectorIndexError(ReproError):
    """Raised when a vector index is queried or mutated invalidly."""


class IndexMismatchError(VectorIndexError):
    """Raised when a query or checkpoint contradicts an index's contract.

    The first slice of the versioned vector contracts: an index stamped
    with one dimensionality/metric must reject queries (and corrupted
    checkpoints) carrying another, instead of silently returning garbage
    distances.
    """


class WALError(ReproError):
    """Raised when a write-ahead-log record or journal is invalid."""
