"""Exception hierarchy shared across the package."""

from __future__ import annotations


class ProvPolicyError(Exception):
    """Base class for every error raised by this package."""


class GraphFormatError(ProvPolicyError):
    """Malformed graph document (JSON syntax, missing fields, bad enums)."""

    def __init__(self, message: str, location: str | None = None) -> None:
        self.location = location
        if location:
            message = f"{location}: {message}"
        super().__init__(message)


class UnknownVertexError(ProvPolicyError):
    """A vertex id was referenced that the graph does not contain."""


class ExprSyntaxError(ProvPolicyError):
    """Syntax error in a path or partition expression.

    Carries the byte offset of the failure and the set of tokens that
    would have been accepted there.
    """

    def __init__(self, message: str, offset: int, expected: tuple[str, ...] = ()) -> None:
        self.offset = offset
        self.expected = expected
        detail = f"at offset {offset}: {message}"
        if expected:
            detail += " (expected " + " | ".join(expected) + ")"
        super().__init__(detail)


class QueryError(ProvPolicyError):
    """A parsed expression cannot be evaluated as a plain path query."""


class PathLimitError(ProvPolicyError):
    """Path enumeration exceeded the configured result cap."""

    def __init__(self, limit: int) -> None:
        self.limit = limit
        super().__init__(
            f"path enumeration exceeded the cap of {limit} results; narrow the "
            "expression, or pass a larger max_paths to eval_query, "
            "eval_directed_path or eval_general_path"
        )


class PolicyParseError(ProvPolicyError):
    """Malformed policy document, category dictionary, or merge table."""


class TransformError(ProvPolicyError):
    """A graph transformation could not be applied."""


class EvaluationError(ProvPolicyError):
    """Request evaluation failed (bad request, duplicate policy ids, ...)."""


class InfeasibleConfigError(ProvPolicyError):
    """A generator configuration that cannot produce a valid graph."""
