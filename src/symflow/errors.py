"""Error taxonomy shared across the package.

Every failure the library raises on purpose carries a short machine-readable
``name`` (stable across releases, used by the CLI's stderr protocol and exit
codes) next to the human-readable message.

``_check_tol`` is the one check of a tolerance argument, for every public
call that takes one and for the CLI.
"""

from __future__ import annotations

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
