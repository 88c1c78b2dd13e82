"""Exception hierarchy for the ``repro`` package.

All library errors derive from :class:`ReproError` so callers can catch a
single base class.  Sub-hierarchies mirror the subsystems: compression,
modeling, the HDF5-like substrate, the SPMD runtime, and the event simulator.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class CompressionError(ReproError):
    """Raised when a codec cannot compress or decompress a buffer."""


class CorruptStreamError(CompressionError):
    """Raised when a compressed stream fails structural validation."""


class VerificationError(ReproError):
    """Raised when end-to-end verification fails: a certified read-back
    breaches its declared error bound, a cross-backend fingerprint differs,
    or a written field cannot be read back at all."""


class ModelingError(ReproError):
    """Raised by the prediction models (ratio / throughput / write-time)."""


class CalibrationError(ModelingError):
    """Raised when offline calibration cannot fit the requested model."""


class HDF5Error(ReproError):
    """Base error for the HDF5-like file substrate."""


class FileFormatError(HDF5Error):
    """Raised when an on-disk container fails format validation."""


class ObjectExistsError(HDF5Error):
    """Raised when creating a group/dataset whose name is already linked."""


class ObjectNotFoundError(HDF5Error, KeyError):
    """Raised when resolving a path that does not exist in the file."""


class FilterError(HDF5Error):
    """Raised for a dataset filter other than SZ, options SZ refuses, or an
    SZ decode that returns the wrong arrays."""


class InvalidStateError(HDF5Error):
    """Raised when an operation is attempted on a closed or torn-down object."""


class ReadOnlyError(InvalidStateError):
    """Raised when a write is attempted on a file opened in read mode."""


class ShapeMismatchError(HDF5Error):
    """Raised when assigned data does not match the selected region's shape."""


class UnwrittenDataError(InvalidStateError):
    """Raised when reading a dataset that has never been written."""


class IncompleteWriteError(InvalidStateError):
    """Raised when a staged predictive write does not cover the full dataset
    by the time it must flush (facade close, or a read of the dataset)."""


class RuntimeLayerError(ReproError):
    """Base error for the SPMD thread runtime."""


class CommunicatorError(RuntimeLayerError):
    """Raised on misuse of the thread communicator (rank mismatch, reuse)."""


class SimulationError(ReproError):
    """Base error for the discrete-event simulation engine."""


class SchedulingError(ReproError):
    """Raised by the compression-order optimizer on invalid task queues."""


class OverflowHandlingError(ReproError):
    """Raised when overflow resolution cannot place exceeded data."""


class ConfigError(ReproError, ValueError):
    """Raised for invalid user-facing configuration values."""


class UnknownStrategyError(ConfigError):
    """Raised when a requested write-strategy name is not one of the four."""
