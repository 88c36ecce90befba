"""Error types shared across the package, and the integer check that
input fields go through.

The CLI maps these onto exit codes: InputError -> 1, ModelInvalidError -> 2,
InternalError -> 3.
"""


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


def as_int(value, kind: str, field: str) -> int:
    """An integer field of a `kind` input.  Anything that is not an integer
    (bool, float, str, None, ...) is an InputError, never truncated or parsed."""
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise InputError(f"malformed {kind} input: {field} must be an integer, got {value!r}")
    return value.__index__()
