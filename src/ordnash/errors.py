"""Exception types shared across the package.

Every error raised deliberately by ordnash derives from :class:`OrdnashError`
so callers (and the CLI) can distinguish tool failures from genuine bugs.
:func:`shown_number` is how a message shows a number read from a problem file.
"""

from __future__ import annotations


# A number with more digits than this is named by its digit count in messages.
_SHOWN_DIGITS = 20


def shown_number(value) -> str:
    """``value`` as an error message shows it: as written, or, past
    ``_SHOWN_DIGITS`` digits, by its digit count, so that a huge literal in a
    problem file cannot flood the report."""
    text = str(value)
    digits = sum(c.isdigit() for c in text)
    if digits <= _SHOWN_DIGITS:
        return text
    kind = "integer" if text.lstrip("-").isdigit() else "number"
    return f"a {digits}-digit {kind}"


class OrdnashError(Exception):
    """Base class for all errors raised by this package."""


class ExpressionError(OrdnashError):
    """Malformed utility or coefficient expression.

    ``position`` is the character offset in the source text where parsing
    failed, or ``None`` when the error is not positional.
    """

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class EvaluationError(OrdnashError):
    """Expression evaluated to a non-finite value."""


class ProfileError(OrdnashError):
    """Blocks do not assemble into a valid strategy profile."""


class GameFormatError(OrdnashError):
    """Problem file is syntactically or semantically invalid."""


class InfeasibleRegionError(OrdnashError):
    """The constraint set is empty; projection has no target."""


class InfeasiblePointError(OrdnashError):
    """A point required to be feasible violates its constraint set."""


class InteriorPointError(OrdnashError):
    """Normal-cone query at a point strictly inside the contour set.

    The normal cone of an open set at an interior point is trivial, so the
    query carries no information and is treated as a caller error.
    """


class SeparatorError(OrdnashError):
    """No separating direction exists for the given sample set."""


class GridBudgetError(OrdnashError):
    """A requested grid enumeration exceeds the hard point budget."""
