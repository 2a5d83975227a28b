"""Exception types shared across the package."""

import copy


class ParkrankError(Exception):
    """Base class for every package-specific error."""


class DataError(ParkrankError):
    """Malformed, inconsistent, or insufficient input data."""

    def in_file(self, path) -> "DataError":
        """The same error, type and fields kept, with the file it came
        from named in front."""
        named = copy.copy(self)
        named.args = (f"{path}: {self}",)
        return named


class EmptyDatasetError(DataError):
    """An input that must contain records contained none."""


class ParseError(DataError):
    """A record could not be parsed. Carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ConfigError(ParkrankError):
    """Invalid configuration value or combination of values."""


class DimensionError(ParkrankError):
    """Shape mismatch in a tensor operation. The message names the op."""


class TrainingDiverged(ParkrankError):
    """The training loss became non-finite."""
