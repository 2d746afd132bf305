"""Exception hierarchy shared across the package.

The command line front end maps these onto process exit codes: parse
failures exit 2, cap overruns exit 3, domain errors exit 4.
"""


_EXCERPT_CHARS = 40


def excerpt(text: str) -> str:
    """Quote user input for an error message: at most _EXCERPT_CHARS
    characters of it, plus its total length when it is longer."""
    if len(text) <= _EXCERPT_CHARS:
        return repr(text)
    return f"{text[:_EXCERPT_CHARS]!r}... ({len(text)} characters)"


class GermTraceError(Exception):
    """Base class for all package errors."""


class ParseError(GermTraceError):
    """Malformed textual input (machine, point, element, expression)."""


class MachineParseError(ParseError):
    pass


class PointParseError(ParseError):
    pass


class ElementParseError(ParseError):
    pass


class CapExceededError(GermTraceError):
    """A configurable resource cap was hit before the computation finished."""


class StateCapError(CapExceededError):
    """Too many states materialised while building a product, an inverse,
    a state expression (its freely reduced words) or a bucket's pattern
    graph."""


class PatternCapError(CapExceededError):
    """Too many germ-coincidence configurations in a zero/singular search."""


class DomainError(GermTraceError):
    """Structurally valid input outside an operation's domain."""


class SingularSystemError(GermTraceError):
    """The fixed-measure linear system was singular.

    The system is provably invertible for any finite-state automorphism,
    so raising this signals an implementation bug, not a user error.
    """
