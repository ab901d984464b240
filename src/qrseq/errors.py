"""Domain exceptions shared across the package."""


class QrseqError(Exception):
    """Base class for all package-specific failures."""


class ConfigError(QrseqError):
    """A configuration field is missing, unknown, or has an invalid value."""


class ParseError(QrseqError):
    """Input rows could not be parsed; carries the offending line numbers."""

    def __init__(self, message: str, lines: list[int] | None = None):
        super().__init__(message)
        self.lines = lines or []


class EmptyDatasetError(QrseqError):
    """Preprocessing filtered out every user."""


class SamplingError(QrseqError):
    """Not enough items remain to draw the requested negative sample."""


class CompatibilityError(QrseqError):
    """A checkpoint and a dataset (or file format version) do not match."""


class TrainingDivergedError(QrseqError):
    """A training step produced a non-finite loss or gradient."""
