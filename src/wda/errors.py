"""Exception types shared across the package.

Everything raised on purpose derives from :class:`WdaError` so callers (and
the command-line layer) can separate expected failures from bugs.
"""


class WdaError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(WdaError):
    """An input violates a shape, type, or value precondition."""


class DegenerateInputError(WdaError):
    """Structurally degenerate input: rank deficiency, zero dispersion, empty classes."""


class NumericalRangeError(WdaError):
    """A computation left the representable floating-point range."""


class ParseError(WdaError):
    """A data file could not be parsed; the message locates the offending cell."""
