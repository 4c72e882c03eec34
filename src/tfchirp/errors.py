"""Exception hierarchy shared across the library."""


class TfchirpError(Exception):
    """Base class for all library errors."""


class ParameterError(TfchirpError):
    """An argument is outside its documented domain."""


class ShapeError(TfchirpError):
    """Array shapes are inconsistent with each other or with a grid."""


class UnsupportedWindowError(TfchirpError):
    """The requested window family cannot be used for this operation."""


class EmptyCloudError(TfchirpError):
    """High-energy selection produced no points."""


class DegenerateCloudError(TfchirpError):
    """All selected points coincide; no distance scale exists."""


class ExtractionError(TfchirpError):
    """Ridge extraction failed (e.g. a cluster is empty at every frame)."""


class ReconstructionError(TfchirpError):
    """Mode reconstruction failed on every frame."""


class MetricError(TfchirpError):
    """A metric is undefined for the given inputs."""


class ResourceError(TfchirpError):
    """An analysis does not fit in the memory available."""


class FormatError(TfchirpError):
    """A file does not conform to the expected on-disk format."""
