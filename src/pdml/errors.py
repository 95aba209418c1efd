"""Exception hierarchy shared by all pdml modules."""


class PdmlError(Exception):
    """Base class for all library errors."""


class DomainError(PdmlError):
    """Mathematically invalid input (zero denominator, inverse of zero, ...)."""


class UsageError(PdmlError):
    """API misuse such as mixing elements with different moduli."""


class ResourceLimitError(PdmlError):
    """A configured cap (degree, term count, search depth) was exceeded."""


class UnsupportedError(PdmlError):
    """The input is outside the implemented fragment; callers should fall back
    to bounded search."""


class ConstructionError(PdmlError):
    """The requested construction is outside what can be built; nothing was
    emitted."""


class ParseError(PdmlError):
    """Malformed textual input."""


class ValidationError(PdmlError):
    """Input parsed but failed semantic validation."""


class InternalError(PdmlError):
    """An internal invariant or a self-check failed: a bug, not bad input."""
