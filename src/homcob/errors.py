"""Error types shared across the package, the integer check that input
fields go through, and `echo`, which abridges a value an error repeats.

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


def echo(value) -> str:
    """A bad input value as an error repeats it: its repr abridged by
    reprlib, then cut to 60 characters."""
    text = reprlib.repr(value)
    return text if len(text) <= 60 else text[:57] + "..."


def as_int(value, kind: str, field: str) -> int:
    """An integer field of a `kind` input.  Anything that is not an integer
    (bool, float, str, None, ...) is an InputError, never truncated or parsed."""
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise InputError(f"malformed {kind} input: {field} must be an integer, got {echo(value)}")
    return value.__index__()
