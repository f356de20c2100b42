"""Shared exception types.

Anything raised on bad input derives from UsageError; anything raised when a
quantity cannot be pinned down at the working precision derives from
PrecisionError.  A computation that finishes but contradicts a certified
expectation raises VerificationError (the CLI maps these to exit code 2).

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


# p-adic scalars

class NotAUnit(UsageError):
    pass


class ZeroResidue(UsageError):
    pass


# truncated series

class RingMismatch(UsageError):
    pass


class NonzeroConstantTerm(UsageError):
    pass


class NonUnitConstantTerm(UsageError):
    pass


class PrecisionExhausted(PrecisionError):
    pass


# formal groups

class NonIntegralCoefficient(VerificationError):
    pass


# cyclotomic rings

class NotAUnitExponent(UsageError):
    pass


class NotInSubfield(VerificationError):
    pass


class NotInBaseField(VerificationError):
    pass


class NotOneUnit(UsageError):
    pass


class IndistinguishableFromZero(PrecisionError):
    pass


# Kummer homomorphisms

class LambdaIsOne(UsageError):
    pass


class NoneFound(EigensplitError, RuntimeError):
    """A search the mathematics guarantees to succeed came up empty: a bug."""


# L-values

class PoleAtZeroCharacter(UsageError):
    pass


# graded modules

class KummerVandiverRequired(UsageError):
    pass
