"""Shared exception types.

Anything raised on bad input derives from UsageError; anything raised when a
quantity cannot be pinned down at the working precision derives from
PrecisionError.  A computation that finishes but contradicts a certified
expectation raises VerificationError (the CLI maps these to exit code 2).
"""


class EigensplitError(Exception):
    pass


class UsageError(EigensplitError, ValueError):
    pass


class PrecisionError(EigensplitError, ArithmeticError):
    pass


class VerificationError(EigensplitError):
    pass


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

class CongruenceClassMismatch(UsageError):
    pass


class PoleAtZeroCharacter(UsageError):
    pass


# graded modules

class WindowInsufficient(UsageError):
    pass


class KummerVandiverRequired(UsageError):
    pass
