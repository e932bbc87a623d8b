"""Exception types shared across the package."""

from __future__ import annotations


class CkSpectraError(Exception):
    """Base class for all errors raised by this package."""


class UnknownVertex(CkSpectraError):
    """A vertex name is not part of the graph."""


class InvalidPath(CkSpectraError):
    """A boundary path object is not a valid path of the given graph."""


class NotAMaximalTail(CkSpectraError):
    """The vertex set does not satisfy the axioms required to realize it as a tail."""


class SizeLimitExceeded(CkSpectraError):
    """A size cap was passed: more admissible pairs than the enumeration limit,
    or an exhaustive sweep of more than 2^20 subsets."""


class NotSaturatedHereditary(CkSpectraError):
    """The vertex set is not saturated hereditary where one is required."""


class ConditionKRequired(CkSpectraError):
    """The operation is only meaningful for graphs satisfying Condition (K)."""


class VerificationFailure(CkSpectraError):
    """A property check found a counterexample.

    The offending input is kept on ``counterexample`` so callers can report it.
    """

    def __init__(self, message: str, counterexample=None):
        super().__init__(message)
        self.counterexample = counterexample


class ParseError(CkSpectraError):
    """Positioned error in the graph text format (1-based line and column)."""

    def __init__(self, line: int, col: int, message: str):
        super().__init__(message)
        self.line = line
        self.col = col
        self.message = message

    def __str__(self) -> str:
        return f"{self.line}:{self.col}: {self.message}"


class DuplicateLabel(ParseError):
    """An edge label was declared twice."""


class UndeclaredVertex(ParseError):
    """An edge statement referenced a vertex before its declaration."""
