"""Truncated power series with exact-rational coefficients.

A series is known mod X^trunc.  Every coefficient is a Fraction; ints
coerce exactly, and any other coefficient or scalar, a PadicInt included,
is refused with RingMismatch.  Results always carry trunc = min over the
inputs, and the invariant derivative drops trunc by one.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (
    NonUnitConstantTerm,
    NonzeroConstantTerm,
    RingMismatch,
    UsageError,
)


def _exact(c) -> Fraction:
    """An int or Fraction as a Fraction; anything else is refused."""
    if not isinstance(c, (int, Fraction)):
        raise RingMismatch(f"unsupported coefficient type {type(c).__name__}")
    return Fraction(c)


class TruncSeries:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        if len(coeffs) < 1:
            raise UsageError("a series needs at least its constant term")
        self.coeffs = [_exact(c) for c in coeffs]

    # -- ring plumbing ---------------------------------------------------

    @property
    def trunc(self) -> int:
        return len(self.coeffs)

    def constant_term(self):
        return self.coeffs[0]

    def truncate(self, T: int) -> "TruncSeries":
        if T < 1 or T > self.trunc:
            raise UsageError(f"cannot truncate to {T} (trunc {self.trunc})")
        return TruncSeries(self.coeffs[:T])

    def __eq__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        T = min(self.trunc, other.trunc)
        return all(self.coeffs[k] == other.coeffs[k] for k in range(T))

    def __repr__(self):
        shown = ", ".join(repr(c) for c in self.coeffs[:6])
        tail = ", ..." if self.trunc > 6 else ""
        return f"TruncSeries([{shown}{tail}] mod X^{self.trunc})"

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, TruncSeries):
            out = list(self.coeffs)
            out[0] = out[0] + _exact(other)
            return TruncSeries(out)
        T = min(self.trunc, other.trunc)
        return TruncSeries(
            [self.coeffs[k] + other.coeffs[k] for k in range(T)]
        )

    __radd__ = __add__

    def __neg__(self):
        return TruncSeries([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, TruncSeries):
            return self.scale(other)
        T = min(self.trunc, other.trunc)
        out = [Fraction(0)] * T
        for i in range(T):
            a = self.coeffs[i]
            if not a:
                continue
            for j in range(T - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] = out[i + j] + a * b
        return TruncSeries(out)

    __rmul__ = __mul__

    def scale(self, c) -> "TruncSeries":
        c = _exact(c)
        return TruncSeries([c * a for a in self.coeffs])

    # -- composition and friends ----------------------------------------

    def compose(self, g: "TruncSeries") -> "TruncSeries":
        """self(g), requiring g(0) = 0; Horner from the top coefficient."""
        if g.coeffs[0]:
            raise NonzeroConstantTerm("inner series must have zero constant term")
        T = min(self.trunc, g.trunc)
        gT = g.truncate(T)
        result = TruncSeries([self.coeffs[T - 1]] + [0] * (T - 1))
        for k in range(T - 2, -1, -1):
            result = result * gT + self.coeffs[k]
        return result

    def derivative(self) -> "TruncSeries":
        if self.trunc < 2:
            raise UsageError("cannot differentiate below trunc 2")
        return TruncSeries(
            [k * self.coeffs[k] for k in range(1, self.trunc)]
        )

    def invariant_derivative(self) -> "TruncSeries":
        """(1+X) f'(X); knowledge drops to mod X^{trunc-1}."""
        d = self.derivative()
        out = list(d.coeffs)
        for k in range(1, len(out)):
            out[k] = out[k] + d.coeffs[k - 1]
        return TruncSeries(out)

    def log(self) -> "TruncSeries":
        """log f as (f-1) - (f-1)^2/2 + ..., for constant term exactly 1."""
        if self.coeffs[0] != 1:
            raise NonUnitConstantTerm("log needs constant term exactly 1")
        g = self - 1
        out = TruncSeries([0] * self.trunc)
        power = g
        for k in range(1, self.trunc):
            out = out + power.scale(Fraction((-1) ** (k + 1), k))
            if k < self.trunc - 1:
                power = power * g
        return out


def log_one_plus_x(T: int) -> TruncSeries:
    """log(1+X) = X - X^2/2 + X^3/3 - ... over the rationals."""
    return TruncSeries(
        [Fraction(0)] + [Fraction((-1) ** (k + 1), k) for k in range(1, T)]
    )
