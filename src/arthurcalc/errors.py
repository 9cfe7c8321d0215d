"""Error types shared across the package.

Two failure channels are kept apart on purpose: bad input from the caller
(ValidationError) versus the engine contradicting itself (InvariantViolation).
The CLI maps them to exit codes 1 and 2.
"""

from __future__ import annotations


class ValidationError(ValueError):
    """Caller-supplied data is malformed or inconsistent.

    `field` names the offending input in dotted-path form when known,
    e.g. "places[2].scenario.sl2.partition".
    """

    def __init__(self, message: str, field: str | None = None):
        self.field = field
        self.raw_message = message
        if field is not None:
            message = f"{field}: {message}"
        super().__init__(message)

    def under(self, prefix: str) -> "ValidationError":
        """The same message with the field re-rooted: `prefix.field`."""
        field = f"{prefix}.{self.field}" if self.field else prefix
        return ValidationError(self.raw_message, field=field)


class InvariantViolation(AssertionError):
    """An internal cross-check failed; indicates a bug, not bad input."""
