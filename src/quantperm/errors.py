"""Shared error type for domain violations, and how a message shows a value.

Raised whenever an operation's preconditions are broken (index out of
range, mismatched radicands, malformed model file, inadmissible
permutation).  The CLI maps it to exit code 1.
"""


class DomainError(ValueError):
    pass


def shown(x) -> str:
    """repr(x) for a message; an int with more digits than str() prints
    (past sys.get_int_max_str_digits()) is shown by its sign and bit count."""
    try:
        return repr(x)
    except ValueError:
        return f"<{'negative ' if x < 0 else ''}int of {x.bit_length()} bits>"
