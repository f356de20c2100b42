"""Shared exception types.

Anything raised on bad input derives from UsageError; anything raised when a
quantity cannot be pinned down at the working precision derives from
PrecisionError.  A computation that finishes but contradicts a certified
expectation raises VerificationError (the CLI maps these to exit code 2),
and a search the mathematics guarantees to succeed that comes up empty
raises a bare EigensplitError (a bug; also exit code 2).

A refusal raises its category unless a caller tells it apart: a subclass
is defined here only if an ``except`` in the package or the README names
it.  The library catches PrecisionExhausted (the L-value ladder) and
IndistinguishableFromZero (valuations); the README names RingMismatch and
KummerVandiverRequired.

Every int argument of a public entry in the package, a precision, an
index, an exponent, a truncation or a rank, is read by ``check_int``: a
non-int (a bool or any int subclass too) or an int out of range is
refused with a ``UsageError`` that names the argument, never truncated.
An argument of one class is read by ``check_type``; a cyclotomic ring or
element, with its level, by ``cyclotomic.check_level``, which calls it.
"""


class EigensplitError(Exception):
    pass


class UsageError(EigensplitError, ValueError):
    pass


class PrecisionError(EigensplitError, ArithmeticError):
    pass


class VerificationError(EigensplitError):
    pass


def check_int(n, what: str, lo: int | None = None,
              hi: int | None = None) -> int:
    """n, if it is a plain int in lo..hi; otherwise a UsageError naming `what`
    with the bound it was read against: ">= lo", "in lo..hi" (hi is used
    with lo) or, with no bound, "an int"."""
    if (type(n) is int and (lo is None or n >= lo)
            and (hi is None or n <= hi)):
        return n
    bound = ("an int" if lo is None else f">= {lo}" if hi is None
             else f"in {lo}..{hi}")
    raise UsageError(f"{what} must be {bound}, got {n!r}")


def check_type(cls, *values):
    """A UsageError unless every value is a cls."""
    for x in values:
        if not isinstance(x, cls):
            raise UsageError(f"expected a {cls.__name__}, got {x!r}")


# the subclasses a caller tells apart

class RingMismatch(UsageError):
    pass


class KummerVandiverRequired(UsageError):
    pass


class PrecisionExhausted(PrecisionError):
    pass


class IndistinguishableFromZero(PrecisionError):
    pass
