"""Truncated polynomials: one packed integer kernel and exact series.

The kernel packs digit k of a vector at bit k w of one int, so a product
of polynomials is one integer multiply (Kronecker substitution); rings,
theta mod p^N and the exact series all multiply on it, and the ring's
changes of basis are its Taylor shift by +-1.  A series is known
mod X^trunc.  Every coefficient is a Fraction; ints coerce exactly, and any
other coefficient or scalar, a PadicInt included, is refused with
RingMismatch.  Results always carry trunc = min over the inputs, and the
invariant derivative drops trunc by one.  No layer reads the exact series:
the tests' exact formal group and their oracles do.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import RingMismatch, UsageError, check_int


def pack_digits(digits, w: int) -> int:
    """sum_k digits[k] 2^(k w)."""
    n = 0
    for c in reversed(digits):
        n = (n << w) + c
    return n


def unpack_digits(n: int, w: int, count: int) -> list:
    """The low ``count`` w-bit slots of n, each in [0, 2^w)."""
    mask = (1 << w) - 1
    out = []
    for _ in range(count):
        out.append(n & mask)
        n >>= w
    return out


def _unpack_signed(n: int, w: int, count: int) -> list:
    """The low ``count`` w-bit slots of n, each in [-2^(w-1), 2^(w-1))."""
    half = 1 << (w - 1)
    bias = half * ((1 << (w * count)) - 1) // ((1 << w) - 1)
    return [s - half for s in unpack_digits(n + bias, w, count)]


def taylor_shift(coeffs, s: int) -> list:
    """The coefficients of sum_k coeffs[k] (X + s)^k for n int coeffs and
    s = +-1, by Horner on one packed int (von zur Gathen and Gerhard, 1997).

    Coefficient j is sum_k C(k, j) s^(k-j) coeffs[k], at most max|c|
    C(n, j+1) < 2^(bitlen(max|c|) + n - 1) in size, so slots of
    bitlen(max|c|) + n bits hold it as a signed digit; one bit less
    misreads a single positive coefficient shifted by -1."""
    if not isinstance(s, int) or s not in (1, -1):
        raise UsageError(f"shift must be +1 or -1, got {s}")
    n = len(coeffs)
    w = max(map(abs, coeffs)).bit_length() + n
    acc = 0
    for c in reversed(coeffs):
        acc = (acc << w) + c + acc if s == 1 else (acc << w) + c - acc
    return _unpack_signed(acc, w, n)


def _numerators(coeffs) -> tuple:
    # integer numerators over the lcm of the denominators, and that lcm
    den = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


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
        check_int(T, "truncation", 1, self.trunc)
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
        # one packed product of the numerators: a slot sums fewer than
        # 2^bitlen(T) terms, each below 2^(bitlen(max|a|) + bitlen(max|b|))
        # in size, so it lies strictly between -2^(w-1) and 2^(w-1)
        T = min(self.trunc, other.trunc)
        a, da = _numerators(self.coeffs[:T])
        b, db = _numerators(other.coeffs[:T])
        w = (max(map(abs, a)).bit_length() + max(map(abs, b)).bit_length()
             + T.bit_length() + 1)
        prod = pack_digits(a, w) * pack_digits(b, w)
        return TruncSeries(
            [Fraction(s, da * db) for s in _unpack_signed(prod, w, T)])

    __rmul__ = __mul__

    def scale(self, c) -> "TruncSeries":
        c = _exact(c)
        return TruncSeries([c * a for a in self.coeffs])

    # -- composition and friends ----------------------------------------

    def compose(self, g: "TruncSeries") -> "TruncSeries":
        """self(g), requiring g(0) = 0; Horner from the top coefficient."""
        if g.coeffs[0]:
            raise UsageError("inner series must have zero constant term")
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
        """log f = g - g^2/2 + g^3/3 - ... with g = f - 1, by Horner in g,
        for constant term exactly 1."""
        if self.coeffs[0] != 1:
            raise UsageError("log needs constant term exactly 1")
        g = self - 1
        acc = TruncSeries([0] * self.trunc)
        for k in range(self.trunc - 1, 0, -1):
            acc = g * (Fraction(1, k) - acc)
        return acc

