"""Shared exception types."""


class DomainError(ValueError):
    """Argument lies outside the mathematical domain of an operation."""


class NonIntegrableTermError(ValueError):
    """A projection input term is not square-integrable against the domain volume."""

    def __init__(self, label: str, reason: str):
        self.label = label
        super().__init__(f"term {label!r} is not integrable: {reason}")
