"""Exception hierarchy shared across the package."""

from __future__ import annotations


class GropeError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(GropeError):
    """A structure or argument violates an invariant."""


class ParseError(GropeError):
    """Malformed textual input (word, expression, or JSON document)."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class RewriteError(GropeError):
    """A splitting move was applied where its preconditions fail."""


class MoveError(GropeError):
    """A contraction or pushoff was applied where its preconditions fail."""


class NotDyadicError(MoveError):
    """Contraction requires every stage of the piece to have genus 1."""


class SplitFirstError(MoveError):
    """A cap still carries more than one distinct label value."""


class LabelMismatchError(MoveError):
    """The two caps chosen for contraction carry different label values."""


class HypothesisError(GropeError):
    """A kernel fails the class-versus-label-count requirement."""


class PigeonholeFailure(GropeError):
    """No two caps of a piece share a label value, so surgery cannot proceed."""

    def __init__(self, message: str, piece: str | None = None):
        super().__init__(message)
        self.piece = piece


class GrowthLimitError(GropeError):
    """A rewrite or a depth computation would exceed its size guard."""
