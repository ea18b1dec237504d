"""Type errors raised by the FCL checker.

Every rejection the checker can produce is a distinct exception class so
tests (and the Table 1 capability matrix) can assert on the *reason* a
program is rejected, not just that it is rejected.
"""

from __future__ import annotations

from typing import Optional

from ..lang.tokens import SourceSpan


class TypeError_(Exception):
    """Base class of all FCL type errors.

    Named with a trailing underscore to avoid shadowing the builtin.
    """

    def __init__(self, message: str, span: Optional[SourceSpan] = None):
        location = f"{span}: " if span is not None and span.line else ""
        super().__init__(f"{location}{message}")
        self.message = message
        self.span = span


class UnboundVariable(TypeError_):
    """Use of a variable that is not bound (or was invalidated)."""


class RegionConsumed(TypeError_):
    """Use of a variable whose region capability has been consumed."""


class TypeMismatch(TypeError_):
    """Expression type differs from what the context requires."""


class UnknownName(TypeError_):
    """Reference to an undeclared struct, field, or function."""


class IsoFieldNotTrackable(TypeError_):
    """An iso field access could not be focused/explored (e.g. the base is
    not a variable, or its region already has a different tracked variable
    that cannot be unfocused)."""


class InvalidatedField(TypeError_):
    """Use of a tracked iso field that was invalidated (⊥) — e.g. by an
    ``if disconnected`` split — before being reassigned (fig 5)."""


class PinnedViolation(TypeError_):
    """An operation requires an unpinned region or variable."""


class SeparationError(TypeError_):
    """The checker could not establish that two values occupy disjoint
    regions (e.g. passing the same region to two distinct parameters)."""


class SendError(TypeError_):
    """A ``send`` whose argument region cannot be isolated: non-empty
    tracking context or inbound tracked references."""


class UnificationError(TypeError_):
    """Branch join / loop invariant could not be unified even with search."""


class ArityError(TypeError_):
    """Function called with the wrong number of arguments."""


class AnnotationError(TypeError_):
    """Malformed function annotation (consumes/before/after paths)."""


class InferenceError(TypeError_):
    """A type that must be inferred from context (e.g. bare ``none``) had
    no expected type available."""


class DominationError(TypeError_):
    """An operation would break tempered domination (e.g. making an iso
    field a non-dominating untracked reference)."""


class NestingTooDeep(TypeError_):
    """The program nests deeper than the recursive parser, checker or
    verifier can follow.  The public entry points report this in place of
    Python's ``RecursionError``, so deep input gets a diagnostic, not a
    traceback."""

    def __init__(self) -> None:
        super().__init__("program nests too deeply to parse, check or verify")
