"""Shared exception types.

Exit-code mapping in the CLI: ParseError -> 2, everything else here -> 1.
"""


def check(cond, msg: str = "check failed"):
    """Raise AssertionError(msg) unless cond holds; unlike assert, kept under -O."""
    if not cond:
        raise AssertionError(msg)


class DimensionError(ValueError):
    """Operands have incompatible shapes or lengths."""


class ContextError(ValueError):
    """Operands belong to different groups, or the group kind is unsupported."""


class CapExceeded(RuntimeError):
    """An enumeration or scan would exceed its configured size cap."""


class ParseError(ValueError):
    """Malformed textual input; carries a character position when known."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"parse error at position {position}: {message}"
        super().__init__(message)
        self.position = position


class MorphismValidationError(ValueError):
    """Parameter blocks fail one of the defining constraints; names the identity."""

    def __init__(self, identity, detail=""):
        self.identity = identity
        msg = f"invalid: {identity}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)
