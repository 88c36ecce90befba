"""Error types shared across the package, the integer check that input
fields go through, and `echo` and `clip`, which abridge a value an error
repeats.

The CLI maps these onto exit codes: InputError -> 1, ModelInvalidError -> 2,
InternalError -> 3.
"""

import reprlib


class HomcobError(Exception):
    """Base class for all package errors."""

    exit_code = 3


class InputError(HomcobError):
    """Malformed or inconsistent user input (bad file, bad dimensions, ...)."""

    exit_code = 1


class ModelInvalidError(HomcobError):
    """Structurally valid input that fails a semantic requirement,
    e.g. a chain model without the expected tower structure."""

    exit_code = 2


class InternalError(HomcobError):
    """A consistency assertion failed inside the library; always a bug."""

    exit_code = 3


def clip(text: str, limit: int = 60) -> str:
    """text cut to at most `limit` characters, ending in "..." when cut."""
    return text if len(text) <= limit else text[:limit - 3] + "..."


def echo(value) -> str:
    """A bad input value as an error repeats it: its repr abridged by
    reprlib, then clipped to 60 characters.  A value holding an integer
    past Python's digit limit for str() is named by its type."""
    try:
        return clip(reprlib.repr(value))
    except ValueError:
        return f"<{type(value).__name__} past Python's integer digit limit>"


def as_int(value, kind: str, field: str) -> int:
    """An integer field of a `kind` input.  Anything that is not an integer
    (bool, float, str, None, ...) is an InputError, never truncated or parsed."""
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise InputError(f"malformed {kind} input: {field} must be an integer, got {echo(value)}")
    return value.__index__()
