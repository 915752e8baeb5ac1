"""Error taxonomy shared across the package.

Every failure the library raises on purpose carries a short machine-readable
``name`` (stable across releases, used by the CLI's stderr protocol and exit
codes) next to the human-readable message.

``_check_tol`` and ``_check_count`` check tolerance and count arguments, and
``_number`` and ``_numbers`` read the numbers of every JSON document and
``_text_number`` those of the CLI's grid and pair flags.
"""

from __future__ import annotations

import numpy as np

__all__ = ["SymflowError", "InputError", "DomainError"]


class SymflowError(Exception):
    """Base class; ``name`` is the structured error identifier."""

    name = "error"

    def __init__(self, message: str, name: str | None = None):
        super().__init__(message)
        if name is not None:
            self.name = name


class InputError(SymflowError):
    """Malformed input: bad JSON, schema violations, inconsistent shapes."""

    name = "input"


class DomainError(SymflowError):
    """Structurally valid input outside an operation's domain.

    Examples: reducible transition matrix where irreducibility is required,
    spectrum target outside the Birkhoff range, enumeration budget exceeded.
    """

    name = "domain"


def _check_tol(**tols) -> None:
    """Raise ``InputError`` unless every given tolerance is finite and positive."""
    for name, value in tols.items():
        if not 0.0 < value < float("inf"):
            raise InputError(f"{name} must be finite and positive, got {value}")


def _check_count(name: str, value, least: int) -> None:
    """Raise InputError unless value is an integer (not a bool) >= least."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise InputError(f"{name} must be an integer >= {least}, got {value!r}")


def _number(name: str, value) -> float:
    """The float of a JSON number; InputError for a string, null, bool or other value."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InputError(f"{name} must be a number, got {value!r}")
    return float(value)


def _text_number(name: str, text: str) -> float:
    """The float of a number written in a command-line flag; InputError for other text."""
    try:
        return float(text)
    except ValueError:
        raise InputError(f"{name} must be a number, got {text!r}") from None


def _numbers(name: str, value) -> np.ndarray:
    """The float array of a JSON number or nested list of numbers; InputError
    for a ragged list or an entry that is not a number (``_number``)."""
    arr = np.array(value, dtype=object)
    if not {type(v) for v in arr.flat} <= {int, float}:  # then name the first non-number
        for v in arr.flat:
            _number(name, v)
    return arr.astype(float)
