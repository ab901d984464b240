"""Domain exceptions shared across the package, and the config type check."""
import functools
import math
import numbers
import sys
import typing


class QrseqError(Exception):
    """Base class for all package-specific failures."""


class ConfigError(QrseqError):
    """A configuration field is missing, unknown, or has an invalid value."""


# Resolving a class's string annotations takes ~0.1 ms, so it is done once.
_field_types = functools.cache(typing.get_type_hints)


def _type_ok(kind, value) -> bool:
    if kind is bool or kind is str:
        return isinstance(value, kind)
    if kind == tuple[int, ...] | None:
        return value is None or (isinstance(value, (list, tuple))
                                 and all(_type_ok(int, w) for w in value))
    # kind is int or float; a bool is an Integral, but neither takes one
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    if isinstance(value, numbers.Integral):  # a float field takes one that float() can hold
        return kind is int or abs(value) <= sys.float_info.max
    return kind is float and math.isfinite(value)


def check_types(config) -> None:
    """Raise ConfigError naming, sorted, every field of a config dataclass
    whose value its annotation does not admit. An int is any Integral (NumPy
    ints too) and a float any finite Real, neither of them a bool. Admitted
    values are then stored as Python ints, floats and tuples of ints, so a
    config given NumPy scalars still serialises as JSON."""
    types = _field_types(type(config))
    wrong = sorted(name for name, kind in types.items()
                   if not _type_ok(kind, getattr(config, name)))
    if wrong:
        raise ConfigError(f"wrong type {wrong}")
    for name, kind in types.items():
        value = getattr(config, name)
        if kind is int or kind is float:
            setattr(config, name, kind(value))
        elif isinstance(value, (list, tuple)):  # a tuple[int, ...] field
            setattr(config, name, tuple(int(w) for w in value))


class ParseError(QrseqError):
    """Input rows could not be parsed; carries the offending line numbers."""

    def __init__(self, message: str, lines: list[int] | None = None):
        super().__init__(message)
        self.lines = lines or []


class EmptyDatasetError(QrseqError):
    """Preprocessing filtered out every user."""


class SplitError(QrseqError):
    """A user has too few interactions for the leave-one-out split."""


class SamplingError(QrseqError):
    """Not enough items remain to draw the requested negative sample."""


class CompatibilityError(QrseqError):
    """A checkpoint and a dataset (or file format version) do not match."""


class TrainingDivergedError(QrseqError):
    """A training step produced a non-finite loss or gradient."""
