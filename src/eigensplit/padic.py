"""p-adic integers at fixed absolute precision.

An element is a residue mod p^prec together with the number of guaranteed
digits ``prec``.  Arithmetic propagates precision by the min rule; dividing by
p^v costs v digits.  Convention: precision is absolute (digits of the value),
not relative to the valuation.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (
    IndistinguishableFromZero,
    NonIntegralCoefficient,
    NotAUnit,
    PrecisionExhausted,
    RingMismatch,
    UsageError,
    ZeroResidue,
)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def check_odd_prime(p: int) -> int:
    if not is_prime(p) or p == 2:
        raise UsageError(f"{p} is not an odd prime")
    return p


def check_precision(N: int) -> None:
    if N < 1:
        raise UsageError(f"precision must be >= 1, got {N}")


def vp(n: int, p: int) -> int:
    """The exponent of p in the nonzero integer n."""
    if n == 0:
        raise UsageError("valuation of zero")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


# -- packed digit vectors: digit k in bits [k w, (k+1) w), all < 2^w -------

def pack_digits(digits, w: int) -> int:
    n = 0
    for c in reversed(digits):
        n = (n << w) | c
    return n


def unpack_digits(n: int, w: int, count: int) -> list:
    mask = (1 << w) - 1
    out = []
    for _ in range(count):
        out.append(n & mask)
        n >>= w
    return out


def power_product(mul, bases, exponents):
    """prod_k bases[k]^exponents[k] in a commutative ring with product
    ``mul``, for exponents >= 0; None when every exponent is 0.

    One left-to-right squaring chain serves all bases (Straus, 1964).  It
    starts at the highest set bit, so it never multiplies by an identity:
    L - 1 squarings, L the bit length of the largest exponent, and one
    product per set bit after the first."""
    acc = None
    for bit in reversed(range(max(exponents).bit_length())):
        if acc is not None:
            acc = mul(acc, acc)
        for b, e in zip(bases, exponents):
            if e >> bit & 1:
                acc = b if acc is None else mul(acc, b)
    return acc


class PadicCtx:
    """Fixed odd prime p and absolute precision N (work mod p^N)."""

    __slots__ = ("p", "N", "modulus", "_teich", "_beta")

    def __init__(self, p: int, N: int):
        check_odd_prime(p)
        check_precision(N)
        self.p = p
        self.N = N
        self.modulus = p ** N
        self._teich = {}
        self._beta = None

    def __eq__(self, other):
        return (
            isinstance(other, PadicCtx)
            and self.p == other.p
            and self.N == other.N
        )

    def __hash__(self):
        return hash((self.p, self.N))

    def __repr__(self):
        return f"PadicCtx(p={self.p}, N={self.N})"

    def of(self, value, prec: int | None = None) -> "PadicInt":
        return PadicInt(self, value, prec)

    def from_rational(self, q) -> "PadicInt":
        """Reduce an exact rational with denominator prime to p."""
        q = Fraction(q)
        if q.denominator % self.p == 0:
            raise NonIntegralCoefficient(
                f"denominator of {q} is divisible by p={self.p}"
            )
        den_inv = pow(q.denominator, -1, self.modulus)
        return PadicInt(self, q.numerator * den_inv)

    def teichmuller(self, a) -> "PadicInt":
        """The (p-1)th root of unity congruent to a mod p: a^(p^(N-1)).

        Write a = omega(a)<a> with <a> in 1 + pZ_p.  Then <a>^(p^(N-1)) = 1
        mod p^N, and omega(a)^(p^(N-1)) = omega(a) because p^(N-1) = 1
        mod p-1."""
        a0 = int(a.value if isinstance(a, PadicInt) else a) % self.p
        if a0 == 0:
            raise ZeroResidue("Teichmuller lift needs a nonzero residue mod p")
        cached = self._teich.get(a0)
        if cached is None:
            cached = self._teich[a0] = PadicInt(
                self, pow(a0, self.p ** (self.N - 1), self.modulus))
        return cached

    def beta(self) -> "PadicInt":
        """The unique (p-1)th root of 1-p congruent to 1 mod p:
        (1-p)^c with c = (p-1)^(-1) mod p^(N-1).

        The group 1 + pZ mod p^N has order p^(N-1), so (1-p)^(c(p-1)) = 1-p."""
        if self._beta is None:
            c = pow(self.p - 1, -1, self.p ** (self.N - 1))
            self._beta = PadicInt(self, pow(1 - self.p, c, self.modulus))
        return self._beta


class PadicInt:
    __slots__ = ("ctx", "value", "prec")

    def __init__(self, ctx: PadicCtx, value: int, prec: int | None = None):
        if prec is None:
            prec = ctx.N
        if prec < 1:
            raise PrecisionExhausted("no guaranteed digits remain")
        if prec > ctx.N:
            prec = ctx.N
        self.ctx = ctx
        self.prec = prec
        self.value = int(value) % ctx.p ** prec

    # -- helpers ---------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, PadicInt):
            if other.ctx != self.ctx:
                raise RingMismatch("mixed p-adic contexts")
            return other
        if isinstance(other, int):
            return PadicInt(self.ctx, other)
        return None

    def lift(self) -> int:
        return self.value

    def residue(self, k: int) -> int:
        if k > self.prec:
            raise PrecisionExhausted(
                f"residue mod p^{k} requested but only {self.prec} digits known"
            )
        return self.value % self.ctx.p ** k

    def reduce_to(self, prec: int) -> "PadicInt":
        return PadicInt(self.ctx, self.value, min(prec, self.prec))

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return PadicInt(self.ctx, self.value + o.value, min(self.prec, o.prec))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return PadicInt(self.ctx, self.value - o.value, min(self.prec, o.prec))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return PadicInt(self.ctx, self.value * o.value, min(self.prec, o.prec))

    __rmul__ = __mul__

    def __neg__(self):
        return PadicInt(self.ctx, -self.value, self.prec)

    def __pow__(self, n: int):
        if n < 0:
            return self.invert() ** (-n)
        return PadicInt(
            self.ctx, pow(self.value, n, self.ctx.p ** self.prec), self.prec
        )

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        k = min(self.prec, o.prec)
        pk = self.ctx.p ** k
        return self.value % pk == o.value % pk

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return f"{self.value} + O({self.ctx.p}^{self.prec})"

    # -- structure -------------------------------------------------------

    def valuation(self) -> int:
        if self.value == 0:
            raise IndistinguishableFromZero(
                f"the residue vanishes mod p^{self.prec}")
        return vp(self.value, self.ctx.p)

    def is_unit(self) -> bool:
        return self.value % self.ctx.p != 0

    def invert(self) -> "PadicInt":
        if not self.is_unit():
            raise NotAUnit(f"{self!r} has positive valuation")
        pk = self.ctx.p ** self.prec
        return PadicInt(self.ctx, pow(self.value, -1, pk), self.prec)

    def div_int(self, k: int) -> "PadicInt":
        """Exact division by a nonzero integer; the p-part of k costs digits."""
        if k == 0:
            raise ZeroDivisionError
        if k < 0:
            return (-self).div_int(-k)
        p = self.ctx.p
        v = vp(k, p)
        u = k // p ** v
        if v == 0:
            return self * PadicInt(self.ctx, pow(u, -1, p ** self.prec))
        if v >= self.prec:
            raise PrecisionExhausted(
                f"dividing by p^{v} leaves no guaranteed digits (prec {self.prec})"
            )
        if self.value % p ** v != 0:
            raise NonIntegralCoefficient(
                f"{self!r} is not divisible by p^{v} at the working precision"
            )
        new_prec = self.prec - v
        pk = p ** new_prec
        val = (self.value // p ** v) * pow(u, -1, pk)
        return PadicInt(self.ctx, val, new_prec)
