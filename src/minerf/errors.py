"""Shared exception types, mapped to CLI exit codes in cli.py."""


class UsageError(ValueError):
    """An operation was called outside its contract (bad argument, shapes that do
    not fit, wrong tape, ...)."""


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


class NumericError(ArithmeticError):
    """Non-finite values where finite ones are required."""


class DivergenceError(NumericError):
    """Training loss exceeded the divergence guard."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}
