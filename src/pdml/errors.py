"""Exception hierarchy shared by all pdml modules, with the CLI exit code
and stderr prefix of each class."""


class PdmlError(Exception):
    """Base class for all library errors."""

    exit_code = 3
    prefix = "error"


class DomainError(PdmlError):
    """Mathematically invalid input (zero denominator, inverse of zero, ...)."""


class UsageError(PdmlError):
    """API misuse such as mixing elements with different moduli."""


class ResourceLimitError(PdmlError):
    """A configured cap (degree, term count, search depth) was exceeded."""

    exit_code = 4
    prefix = "resource cap"


class UnsupportedError(PdmlError):
    """The input is outside the implemented fragment; callers should fall back
    to bounded search."""

    prefix = "validation error"


class ConstructionError(PdmlError):
    """The requested construction is outside what can be built; nothing was
    emitted."""


class ParseError(PdmlError):
    """Malformed textual input."""

    exit_code = 2
    prefix = "parse error"


class ValidationError(PdmlError):
    """Input parsed but failed semantic validation."""

    prefix = "validation error"


class InternalError(PdmlError):
    """An internal invariant or a self-check failed: a bug, not bad input."""

    exit_code = 5
    prefix = "internal invariant failure"
