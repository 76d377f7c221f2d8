"""Shared error type for domain violations, and how a message shows a value.

Raised whenever an operation's preconditions are broken (index out of
range, mismatched radicands, malformed model file, inadmissible
permutation).  The CLI maps it to exit code 1.
"""


class DomainError(ValueError):
    pass


def shown(x) -> str:
    """repr(x) for a message; an int with more digits than str() prints
    (past sys.get_int_max_str_digits()) is shown by its sign and bit count,
    also as an entry of a tuple or list."""
    try:
        return repr(x)
    except ValueError:
        if isinstance(x, (tuple, list)):
            left, right = "[]" if isinstance(x, list) else "()"
            return left + ", ".join(map(shown, x)) + right
        return f"<{'negative ' if x < 0 else ''}int of {x.bit_length()} bits>"
