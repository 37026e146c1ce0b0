"""Domain errors raised by this package.

Everything user-facing derives from CbdError so callers (and the CLI) can
catch one type and map it to a nonzero exit without masking real bugs.
"""

from __future__ import annotations

from fractions import Fraction


class CbdError(Exception):
    """Base class for all domain errors."""


class EmptySystem(CbdError):
    """A system must contain at least one context."""


class DuplicateContext(CbdError):
    """Two context blocks share the same context id."""


class DuplicateContentInContext(CbdError):
    """A context lists the same content twice (same content, same context,
    two variables is not representable)."""


class UnknownContent(CbdError):
    """A context references a content id missing from the registry."""


class DomainMismatch(CbdError):
    """Outcome data does not fit the declared outcome set: wrong tuple arity,
    an outcome label outside the content's set, or two marginals over
    different outcome sets."""


class InvalidProbability(CbdError):
    """A probability is negative, above 1, or not an exact rational."""


class ProbabilitySumMismatch(CbdError):
    """A context distribution does not sum to exactly 1."""

    def __init__(self, context: str, total: Fraction):
        from .systems import exact_text  # systems imports this module

        self.context = context
        self.total = total
        super().__init__(
            f"distribution of context {context!r} sums to {exact_text(total)}, "
            f"expected 1"
        )


class VariableNotInContext(CbdError):
    """The requested content does not appear in the given context."""


class NotPlusMinusOne(CbdError):
    """Operation requires the canonical binary outcome labels '+1'/'-1'."""


NotBinary = NotPlusMinusOne  # earlier name of the same error


class NotDeterministic(CbdError):
    """The system has at least one non-point-mass context distribution."""


class NotCyclic(CbdError):
    """The system is not one ring of two-content contexts."""


class CapExceeded(CbdError):
    """Work would need more atoms than the configured cap.

    Raised for the coupling LP's atoms and for the epistemic assignment
    space; both are the product of every variable's outcome-set size.
    """

    def __init__(self, required: int, cap: int):
        from .systems import int_text  # systems imports this module

        self.required = required
        self.cap = cap
        super().__init__(
            f"{int_text(required)} atoms needed, above the cap of {cap}; raise it "
            f"with the CBD_ATOM_CAP environment variable (or analyze --atom-cap)"
        )


AtomCapExceeded = CapExceeded  # earlier name of the same error


class InvalidArgument(CbdError, ValueError):
    """A caller's argument is out of range: an atom cap that is not a
    positive integer, or a Liar ring of rank below 2.  Also a ValueError,
    so a caller that catches ValueError for these refusals still does."""


class InternalError(CbdError):
    """An internal consistency check failed: a bug, not bad input."""


class EmptyVariantSet(CbdError):
    """No deterministic variant satisfies some context's constraint."""


class SystemFileError(CbdError):
    """A system file cannot be parsed: bad JSON or bad structure."""
