"""Exception hierarchy shared by every module in the package.

All failures raised on purpose derive from :class:`CoxorbitsError`, so callers
can catch one type at the CLI boundary and report cleanly.  Budget overruns use
:class:`CapExceeded`, which records which cap fired; a caught overrun is a
"skipped" result, never a partial answer.
"""
from __future__ import annotations


class CoxorbitsError(Exception):
    """Base class for all errors raised deliberately by this package."""


class ParseError(CoxorbitsError):
    """Malformed textual input (group label, scalar literal, CLI value)."""

    def __init__(self, text: str, reason: str, position: int | None = None):
        self.text = text
        self.reason = reason
        self.position = position
        at = "" if position is None else f" at position {position}"
        super().__init__(f"cannot parse {text!r}{at}: {reason}")


class UnsupportedType(CoxorbitsError):
    """Operation not available for this group type (e.g. whole-group E7/E8)."""


class CapExceeded(CoxorbitsError):
    """A configured resource cap was hit before the computation finished."""

    def __init__(self, cap: str, limit: float, needed: int | None = None):
        self.cap = cap
        self.limit = limit
        self.needed = needed
        detail = f" (needed {needed})" if needed is not None else ""
        super().__init__(f"cap {cap!r} = {limit} exceeded{detail}")


class GroupMismatch(CoxorbitsError):
    """Two objects from different group instances were combined."""


class IndexOutOfRange(CoxorbitsError):
    """A reflection or position index is outside its valid range."""


class NotDistinct(CoxorbitsError):
    """Indices that must be pairwise distinct were not."""


class BadFactorization(CoxorbitsError):
    """A tuple of reflections violates a required factorization property."""


class TypeMismatch(CoxorbitsError):
    """Input belongs to a group family the operation does not handle."""


class NotGenerating(CoxorbitsError):
    """A reflection set was required to generate the group but does not."""


class ShapeNotFound(CoxorbitsError):
    """No factorization of the requested normal shape exists in the orbit."""
