"""Truncated power series with exact-rational or p-adic coefficients.

A series is known mod X^trunc.  The coefficient ring is either all Fraction
(exact) or all PadicInt sharing one context; plain ints coerce into the
ambient ring.  Results always carry trunc = min over the inputs, and the
invariant derivative drops trunc by one.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (
    NonUnitConstantTerm,
    NonzeroConstantTerm,
    RingMismatch,
    UsageError,
)
from .padic import PadicInt


def _normalize(coeffs):
    """Coerce a coefficient list into one ring (Fraction or shared-ctx PadicInt)."""
    ctx = None
    saw_fraction = False
    for c in coeffs:
        if isinstance(c, PadicInt):
            if ctx is None:
                ctx = c.ctx
            elif c.ctx != ctx:
                raise RingMismatch("PadicInt coefficients from different contexts")
        elif isinstance(c, Fraction):
            saw_fraction = True
        elif not isinstance(c, int):
            raise RingMismatch(f"unsupported coefficient type {type(c).__name__}")
    if ctx is not None and saw_fraction:
        raise RingMismatch("cannot mix Fraction and PadicInt coefficients")
    if ctx is not None:
        return [c if isinstance(c, PadicInt) else ctx.of(c) for c in coeffs], ctx
    return [Fraction(c) for c in coeffs], None


class TruncSeries:
    __slots__ = ("coeffs", "ctx")

    def __init__(self, coeffs):
        if len(coeffs) < 1:
            raise UsageError("a series needs at least its constant term")
        self.coeffs, self.ctx = _normalize(list(coeffs))

    # -- ring plumbing ---------------------------------------------------

    @property
    def trunc(self) -> int:
        return len(self.coeffs)

    def _zero(self):
        return self.ctx.of(0) if self.ctx is not None else Fraction(0)

    def _same_ring(self, other: "TruncSeries"):
        if (self.ctx is None) != (other.ctx is None) or (
            self.ctx is not None and self.ctx != other.ctx
        ):
            raise RingMismatch("series over different coefficient rings")

    def _coerce_scalar(self, c):
        if self.ctx is not None:
            if isinstance(c, PadicInt):
                if c.ctx != self.ctx:
                    raise RingMismatch("scalar from a different context")
                return c
            if isinstance(c, int):
                return self.ctx.of(c)
            raise RingMismatch("rational scalar on a p-adic series")
        if isinstance(c, PadicInt):
            raise RingMismatch("p-adic scalar on a rational series")
        return Fraction(c)

    def constant_term(self):
        return self.coeffs[0]

    def truncate(self, T: int) -> "TruncSeries":
        if T < 1 or T > self.trunc:
            raise UsageError(f"cannot truncate to {T} (trunc {self.trunc})")
        return TruncSeries(self.coeffs[:T])

    def __eq__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        self._same_ring(other)
        T = min(self.trunc, other.trunc)
        return all(self.coeffs[k] == other.coeffs[k] for k in range(T))

    def __repr__(self):
        shown = ", ".join(repr(c) for c in self.coeffs[:6])
        tail = ", ..." if self.trunc > 6 else ""
        return f"TruncSeries([{shown}{tail}] mod X^{self.trunc})"

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction, PadicInt)):
            c = self._coerce_scalar(other)
            out = list(self.coeffs)
            out[0] = out[0] + c
            return TruncSeries(out)
        self._same_ring(other)
        T = min(self.trunc, other.trunc)
        return TruncSeries(
            [self.coeffs[k] + other.coeffs[k] for k in range(T)]
        )

    __radd__ = __add__

    def __neg__(self):
        return TruncSeries([-c for c in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, TruncSeries):
            return self + (-other)
        return self + (-self._coerce_scalar(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, PadicInt)):
            return self.scale(other)
        self._same_ring(other)
        T = min(self.trunc, other.trunc)
        out = [self._zero() for _ in range(T)]
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
        c = self._coerce_scalar(c)
        return TruncSeries([c * a for a in self.coeffs])

    # -- composition and friends ----------------------------------------

    def compose(self, g: "TruncSeries") -> "TruncSeries":
        """self(g), requiring g(0) = 0; Horner from the top coefficient."""
        self._same_ring(g)
        if g.coeffs[0]:
            raise NonzeroConstantTerm("inner series must have zero constant term")
        T = min(self.trunc, g.trunc)
        gT = g.truncate(T)
        result = TruncSeries([self.coeffs[T - 1]] + [self._zero()] * (T - 1))
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
        out = TruncSeries([self._zero()] * self.trunc)
        power = g
        for k in range(1, self.trunc):
            if self.ctx is not None:
                term = TruncSeries([c.div_int(k) for c in power.coeffs])
            else:
                term = power.scale(Fraction(1, k))
            out = out + (term if k % 2 == 1 else -term)
            if k < self.trunc - 1:
                power = power * g
        return out


def log_one_plus_x(T: int) -> TruncSeries:
    """log(1+X) = X - X^2/2 + X^3/3 - ... over the rationals."""
    return TruncSeries(
        [Fraction(0)] + [Fraction((-1) ** (k + 1), k) for k in range(1, T)]
    )
