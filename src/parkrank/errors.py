"""Exception types shared across the package, and the one owner of
reading an input file.

Every loader parses inside ``reading(path)``, so any read or parse
failure of an input surfaces as a ``DataError`` that names the file
once; the CLI exits 2 for it, and 3 for a bad option (``ConfigError``).
"""

import contextlib
import copy
import csv


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


@contextlib.contextmanager
def reading(path):
    """Parse the input file at path inside this block. A DataError raised
    in it gets the file named in front; a file that cannot be opened, bytes
    that are not UTF-8, and what the standard parsers raise on bad content
    (bad JSON or numbers, a payload of the wrong shape, an over-long CSV
    field, an infinite integer, nesting deeper than the stack) become a
    DataError naming the file. A ConfigError passes through unchanged."""
    try:
        yield
    except DataError as exc:
        raise exc.in_file(path) from None
    except OSError as exc:
        raise DataError(f"{path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise DataError(f"{path}: undecodable bytes") from None
    except KeyError as exc:
        raise DataError(f"{path}: missing field {exc}") from None
    except (
        ValueError, TypeError, csv.Error, OverflowError, RecursionError
    ) as exc:
        raise DataError(f"{path}: malformed: {exc}") from None
