"""Cyclotomic rings Z_p[zeta] at levels 0 and 1, on the zeta-power basis.

Level n holds zeta of order P = p^{n+1} and degree d = p^n (p-1); pi =
zeta - 1 is a uniformizer with Eisenstein minimal polynomial Phi_P(1+X).
An element is stored as its coefficients of 1, zeta, ..., zeta^(P-1): a
tuple of int residues mod p^prec, with one absolute precision ``prec`` for
the whole element, propagated by the min rule.  The vector is redundant,
mod zeta^P - 1: the multiples of Phi_P(zeta) are the vectors constant on
each class k mod P/p, so taking the class of each k >= d off its class
normalizes it to degree < d.

sigma_a permutes the stored coefficients, and the level-0 ring sits at
the level-1 positions divisible by p.  A product is one big-integer
multiply (Kronecker substitution, coefficient k at bit slot k) whose slots
from P up fold onto slot 0 in one shift-add, since zeta^P = 1.  A folded
slot sums P terms below p^(2N), so 2 bitlen(p^N) + bitlen(P) bits hold it.

The pi-adic digits, sum_j c_j pi^j (j < d), are the Taylor shift by +1
of the normalized coefficients (zeta = 1 + pi), computed when first read
and kept with the element; one built from digits keeps them and is
converted once, by the shift by -1.  As p = (unit) pi^d and the digit
positions j + d*v_p(c_j) are pairwise distinct, pi-valuations are read
straight off the digits.  Equality always means equality mod pi^{pi_prec}.

There is one ring per (context, level, pi_prec), compared by identity, as
contexts are; mixing elements of two rings raises RingMismatch.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from .errors import (
    IndistinguishableFromZero,
    PrecisionExhausted,
    RingMismatch,
    UsageError,
    VerificationError,
    check_int,
    check_type,
)
from .padic import PadicCtx, PadicInt, power_product, primitive_root
from .series import pack_digits, taylor_shift, unpack_digits


class CycRing:
    __slots__ = ("ctx", "level", "degree", "order", "pi_prec", "_slot")
    _instances = {}

    def __new__(cls, ctx: PadicCtx, level: int, pi_prec: int | None = None):
        check_type(PadicCtx, ctx)
        check_int(level, "level", 0, 1)
        p = ctx.p
        if ctx.N < level + 1:
            raise UsageError(
                f"need at least {level + 1} p-adic digits for the level-{level} "
                f"Galois action, ctx has {ctx.N}"
            )
        # the level-0 window at both levels: a level-1 ring hands its
        # pi_prec to its base ring, which holds at most N (p-1)
        top = ctx.N * (p - 1)
        pi_prec = check_int(min(p + 3, top) if pi_prec is None else pi_prec,
                            "pi_prec", 1, top)
        key = (ctx, level, pi_prec)
        self = cls._instances.get(key)
        if self is None:
            self = cls._instances[key] = object.__new__(cls)
            self.ctx, self.level, self.pi_prec = key
            self.degree = p ** level * (p - 1)
            self.order = p ** (level + 1)
            # a slot of a folded product sums P terms below p^(2N)
            self._slot = 2 * ctx.modulus.bit_length() + self.order.bit_length()
        return self

    def __repr__(self):
        return (
            f"CycRing(p={self.ctx.p}, level={self.level}, "
            f"pi_prec={self.pi_prec})"
        )

    # -- constructors ----------------------------------------------------

    def zero(self) -> "CycElt":
        return self.from_scalar(0)

    def one(self) -> "CycElt":
        return self.from_scalar(1)

    def from_scalar(self, c) -> "CycElt":
        """[c, 0, ..., 0] on the zeta basis, c read by `PadicCtx.of`."""
        c = self.ctx.of(c)
        return _on_zeta(self, [c.value] + [0] * (self.order - 1), c.prec)

    def uniformizer(self) -> "CycElt":
        return self.from_zeta([-1, 1])

    def zeta(self) -> "CycElt":
        return _on_zeta(self, [0, 1] + [0] * (self.order - 2), self.ctx.N)

    def from_coeffs(self, coeffs) -> "CycElt":
        """The leading pi-adic digits, the rest 0 (read as in `CycElt`)."""
        coeffs = list(coeffs)
        return CycElt(self, coeffs + [0] * (self.degree - len(coeffs)),
                      self.ctx.N)

    def from_zeta(self, coeffs) -> "CycElt":
        """sum_k coeffs[k] zeta^k for int coeffs, folded by zeta^P = 1 and
        reduced mod p^N."""
        if not all(isinstance(c, int) for c in coeffs):
            raise RingMismatch("zeta-power coefficients must be ints")
        P, q = self.order, self.ctx.modulus
        return _on_zeta(self, [sum(coeffs[k::P]) % q for k in range(P)],
                        self.ctx.N)

    def base_ring(self) -> "CycRing":
        if self.level == 0:
            raise UsageError("level 0 has no lower cyclotomic level")
        return CycRing(self.ctx, 0, self.pi_prec)


def cyc_ring(p: int, level: int, prec: int = 4, pi_prec: int | None = None) -> CycRing:
    """The one ring over PadicCtx(p, prec) at the level and window, keyed
    by the window after its default and bound: cyc_ring(5, 0) is
    cyc_ring(5, 0, 4, 8).  Rings and contexts compare by identity, and
    mixing elements of two rings raises RingMismatch."""
    return CycRing(PadicCtx(p, prec), level, pi_prec)


def check_level(cls, x, level: int | None = None):
    """x if it is a cls (CycRing or CycElt) at the level (any if None)."""
    check_type(cls, x)
    have = (x if cls is CycRing else x.ring).level
    if level is not None and have != level:
        raise UsageError(
            f"needs a level-{level} {cls.__name__}, got level {have}")
    return x


# -- the two changes of basis ------------------------------------------------

def _pi_to_zeta(ring: CycRing, digits: tuple, prec: int) -> tuple:
    """The order-P coefficient vector of sum digits[j] pi^j, mod p^prec:
    the Taylor shift by -1, as pi = zeta - 1, of digits a caller hands in
    (`from_scalar` writes a scalar on the zeta basis)."""
    q = ring.ctx.p ** prec
    return tuple([c % q for c in taylor_shift(digits, -1)]
                 + [0] * (ring.order - ring.degree))


def _zeta_to_pi(ring: CycRing, coeffs: tuple, prec: int) -> tuple:
    """The pi-adic digits of sum coeffs[k] zeta^k, mod p^prec: the top
    class k >= d comes off each class, then the Taylor shift by +1, as
    zeta = 1 + pi."""
    q = ring.ctx.p ** prec
    top = coeffs[ring.degree:] * (ring.ctx.p - 1)
    normal = [(c - t) % q for c, t in zip(coeffs, top)]
    return tuple([c % q for c in taylor_shift(normal, 1)])


def _on_zeta(ring: CycRing, coeffs: list, prec: int) -> "CycElt":
    """The element with order-P coefficient vector ``coeffs``, already
    reduced mod p^prec, kept as a tuple (elements are shared, so never
    written); its digits are computed when first read."""
    x = object.__new__(CycElt)
    x.ring, x.zeta_coeffs, x.prec, x._digits = ring, tuple(coeffs), prec, None
    return x


class CycElt:
    __slots__ = ("ring", "zeta_coeffs", "prec", "_digits")

    def __init__(self, ring: CycRing, digits: list, prec: int):
        """The ``ring.degree`` pi-adic digits, each read by `PadicCtx.of`, at
        ``prec`` in 1..N, lowered to that of a PadicInt digit known to fewer;
        reduced mod p^prec and converted once to the zeta-power basis."""
        ctx = check_level(CycRing, ring).ctx
        prec, values = check_int(prec, "precision", 1, ctx.N), []
        for c in digits:
            if type(c) is not int:  # an int is read without a PadicInt
                c = ctx.of(c)
                prec, c = min(prec, c.prec), c.value
            values.append(c)
        if len(values) != ring.degree:
            raise UsageError(f"needs {ring.degree} digits, got {len(values)}")
        q = ctx.p ** prec
        digits = tuple([c % q for c in values])
        self.ring, self.prec, self._digits = ring, prec, digits
        self.zeta_coeffs = _pi_to_zeta(ring, digits, prec)

    @property
    def digits(self) -> tuple:
        """The pi-adic digits mod p^prec, computed when first read."""
        if self._digits is None:
            self._digits = _zeta_to_pi(self.ring, self.zeta_coeffs, self.prec)
        return self._digits

    @property
    def coeffs(self) -> tuple:
        """The digits as PadicInts at the element's prec (a read view)."""
        ctx = self.ring.ctx
        return tuple(PadicInt(ctx, c, self.prec) for c in self.digits)

    def _coerce(self, other):
        if isinstance(other, CycElt):
            if other.ring is not self.ring:
                raise RingMismatch("mixed cyclotomic rings")
            return other
        if isinstance(other, (int, PadicInt)):
            return self.ring.from_scalar(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        prec = min(self.prec, o.prec)
        q = self.ring.ctx.p ** prec
        return _on_zeta(self.ring, [
            (a + b) % q for a, b in zip(self.zeta_coeffs, o.zeta_coeffs)
        ], prec)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        prec = min(self.prec, o.prec)
        q = self.ring.ctx.p ** prec
        return _on_zeta(self.ring, [
            (a - b) % q for a, b in zip(self.zeta_coeffs, o.zeta_coeffs)
        ], prec)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        q = self.ring.ctx.p ** self.prec
        return _on_zeta(
            self.ring, [-a % q for a in self.zeta_coeffs], self.prec
        )

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        ring = self.ring
        P, w = ring.order, ring._slot
        prec = min(self.prec, o.prec)
        q = ring.ctx.p ** prec
        a = pack_digits(self.zeta_coeffs, w)
        prod = a * (a if o is self else pack_digits(o.zeta_coeffs, w))
        # zeta^P = 1: slot P + k lands on slot k
        low = P * w
        prod = (prod & ((1 << low) - 1)) + (prod >> low)
        return _on_zeta(ring, [c % q for c in unpack_digits(prod, w, P)], prec)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        acc = power_product(mul, [self], [check_int(n, "exponent", 0)])
        return self.ring.one() if acc is None else acc

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).vanishes_mod_pi(self.ring.pi_prec)

    def __repr__(self):
        digs = ", ".join(str(c) for c in self.digits)
        return f"CycElt[{digs}]"

    # -- pi-adic structure ----------------------------------------------

    def vanishes_mod_pi(self, M: int) -> bool:
        """Whether pi^M divides the element: j + degree*v_p(c_j) >= M at
        every digit position j.  Refused when M exceeds degree*prec, the
        depth the digits resolve."""
        need = -(-check_int(M, "pi-power M") // self.ring.degree)
        if need > self.prec:
            raise PrecisionExhausted(
                f"digits have {self.prec} p-adic digits, need {need} "
                f"to test mod pi^{M}"
            )
        try:
            return self.pi_valuation() >= M
        except IndistinguishableFromZero:
            return True

    def pi_valuation(self) -> int:
        """Exact pi-valuation read off the digit positions: the least
        j + degree*v_p(c_j).  Every candidate lies below degree*prec, where
        a vanished digit could start, so one prec never hides a smaller
        valuation."""
        p = self.ring.ctx.p
        digits = self.digits
        pv = 1
        for v in range(self.prec):
            pv *= p
            for j, c in enumerate(digits):
                if c % pv:
                    return j + self.ring.degree * v
        raise IndistinguishableFromZero(
            "every digit vanishes at the working precision"
        )

    def _residue(self) -> int:
        """The element mod pi, in F_p: zeta = 1 mod pi, so it is the sum
        of the coefficients mod p, whatever the representative, since a
        multiple of Phi_P(zeta) has coefficients summing to p times an int."""
        return sum(self.zeta_coeffs) % self.ring.ctx.p

    def is_one_unit(self) -> bool:
        """Whether the element is 1 mod pi."""
        return self._residue() == 1


# -- Galois action and norms -----------------------------------------------

def galois_apply(a: int, x: CycElt) -> CycElt:
    """sigma_a, the automorphism zeta -> zeta^a, i.e. pi -> (1+pi)^a - 1:
    at level n it sends zeta^k to zeta^(ak mod p^(n+1)), a permutation of
    the stored coefficients, and the image keeps x's prec.  It reads a
    mod p^(n+1), so a PadicInt a needs n+1 digits."""
    ring = check_level(CycElt, x).ring
    P = ring.order
    r = ring.ctx.of(a).residue(ring.level + 1)
    if r % ring.ctx.p == 0:
        raise UsageError(f"{a!r} is not a unit mod {P}")
    if r == 1:
        return x
    # the coefficient of zeta^j is that of zeta^(j/a)
    z = x.zeta_coeffs
    b = pow(r, -1, P)
    return _on_zeta(ring, [z[k % P] for k in range(0, b * P, b)], x.prec)


def _orbit_product(x: CycElt, g: int, n: int) -> CycElt:
    """prod_{k<n} sigma_(g^k)(x), by doubling along the orbit (the
    addition-chain norm of Itoh and Tsujii, 1988).

    With P_m the product over k < m, each bit of n after the leading one
    doubles, P_2m = P_m sigma_(g^m)(P_m), and a set bit then steps,
    P_(m+1) = x sigma_g(P_m): (bit_length(n) - 1) + (popcount(n) - 1)
    conjugates and as many products, where the plain loop pays n - 1 of
    each.  No digit is lost: products are exact, commutative and
    associative in (Z/p^prec)[zeta], and each sigma_a is a ring map there,
    so the digits and prec are those of the conjugate-by-conjugate product."""
    q = x.ring.ctx.p ** (x.ring.level + 1)
    acc, m = x, 1
    for bit in bin(n)[3:]:
        acc = acc * galois_apply(pow(g, m, q), acc)
        m *= 2
        if bit == "1":
            acc = x * galois_apply(g, acc)
            m += 1
    return acc


def norm_down(x: CycElt) -> CycElt:
    """Norm from level 1 to level 0: the product of the p conjugates
    sigma_(1+kp), k < p, read off the zeta_1-positions divisible by p,
    where zeta_0 = zeta_1^p puts the level-0 ring.  That slice is the
    level-0 element exactly when the product lies in the subring: a
    multiple of Phi_(p^2)(zeta_1) puts the same coefficient on every
    position divisible by p, and so adds a multiple of Phi_p(zeta_0).

    Since (1+p)^k = 1 + kp mod p^2, that product is the orbit product of
    sigma_(1+p) over p steps, taken by doubling in O(log p) conjugates and
    products (_orbit_product), which loses no digit."""
    ring = check_level(CycElt, x, 1).ring
    p = ring.ctx.p
    acc = _orbit_product(x, 1 + p, p)
    out = _on_zeta(ring.base_ring(), acc.zeta_coeffs[::p], acc.prec)
    if not (acc - embed_up(out, ring)).vanishes_mod_pi(ring.pi_prec):
        raise VerificationError("norm does not lie in the level-0 subring")
    return out


def embed_up(x: CycElt, ring1: CycRing) -> CycElt:
    """Include level 0 into level 1 via zeta_0 -> zeta_1^p: the
    coefficient of zeta_0^k moves to position p k."""
    check_level(CycElt, x, 0)
    if check_level(CycRing, ring1, 1).base_ring() is not x.ring:
        raise RingMismatch("rings are not aligned")
    coeffs = [0] * ring1.order
    coeffs[::ring1.ctx.p] = x.zeta_coeffs
    return _on_zeta(ring1, coeffs, x.prec)


def norm_to_qp(x: CycElt) -> PadicInt:
    """Norm all the way to Z_p; at level 1 it factors through norm_down.

    At level 0 the Galois group is cyclic, generated by sigma_g for the
    least primitive root g mod p, so the norm is the orbit product of
    sigma_g over p-1 steps, taken by doubling in O(log p) conjugates and
    products (_orbit_product), which loses no digit."""
    ring = check_level(CycElt, x).ring
    if ring.level == 1:
        return norm_to_qp(norm_down(x))
    acc = _orbit_product(x, primitive_root(ring.ctx.p), ring.ctx.p - 1)
    scalar = ring.ctx.of(acc.digits[0], acc.prec)
    if not (acc - scalar).vanishes_mod_pi(ring.pi_prec):
        raise VerificationError("norm has nonscalar digits")
    return scalar


# -- Z_p-powers of one-units and the eigenprojection -----------------------

def _exponent_digits(u: CycElt) -> int:
    """The p-adic digits of a Z_p exponent c that fix u^c: the k p-power
    steps that carry v = v(u - 1) past pi_prec, each of which moves v to
    min(degree + v, p v), or 0 (u stands for 1) when u - 1 is
    indistinguishable from zero."""
    try:
        v = (u - 1).pi_valuation()
    except IndistinguishableFromZero:
        return 0
    ring, k = u.ring, 0
    while v < ring.pi_prec:
        v = min(ring.degree + v, ring.ctx.p * v)
        k += 1
    return k


def unit_pow_zp(u: CycElt, c) -> CycElt:
    """u^c for a 1-unit u and a Z_p exponent c.

    u^c depends only on c mod p^k, k = _exponent_digits(u), so a PadicInt
    c needs k digits, and the power is one squaring chain on that residue.
    """
    if not check_level(CycElt, u).is_one_unit():
        raise UsageError("Z_p-powers need a 1-unit base")
    return u ** u.ring.ctx.of(c).residue(_exponent_digits(u))


def eigen_unit(i: int, u: CycElt) -> CycElt:
    """The omega^i idempotent applied to a one-unit:
    product over a in F_p^* of sigma_{omega(a)}(u)^{omega(a)^{-i}/(p-1)}.

    The p-1 conjugates go through one squaring chain, their exponents
    reduced by u's _exponent_digits: sigma_a(u) - 1 = sigma_a(u - 1) and
    sigma_a is an isometry (see eigen_valuation).  Those digits are at
    most N, all the exponents hold, since each p-power step adds at least
    p - 1 to v(u - 1) >= 1 and pi_prec <= N (p - 1).  The Bernoulli
    surrogate of `kummer` is this projection of one unit, to a power."""
    if not check_level(CycElt, u).is_one_unit():
        raise UsageError("eigenprojection acts on 1-units")
    ctx = u.ring.ctx
    p = ctx.p
    i = check_int(i, "character index i") % (p - 1)
    inv_order = ctx.of(p - 1).invert()
    q = p ** _exponent_digits(u)
    conjugates, exponents = [], []
    for a in range(1, p):
        conjugates.append(galois_apply(ctx.teichmuller(a), u))
        c = ctx.teichmuller(pow(a, -1, p)) ** i * inv_order
        exponents.append(c.value % q)
    acc = power_product(mul, conjugates, exponents)
    return u.ring.one() if acc is None else acc


def eigen_valuation(u: CycElt) -> Fraction:
    """Average pi-valuation of the Teichmuller-twisted conjugates, the
    valuation the omega-eigenprojection sees; 1/(p-1) sum_a v(sigma_a u).

    That average is v(u): sigma_a sends pi to a unit times pi and maps
    p^prec O onto itself, so it is an isometry of O/p^prec.  Every
    conjugate has the valuation of u, and is indistinguishable from zero
    exactly when u is."""
    return Fraction(check_level(CycElt, u).pi_valuation())


# -- the omega^1 non-torsion certificate -----------------------------------

def as_mu_element(ctx: PadicCtx, lam) -> PadicInt:
    """Normalize lambda, read by `PadicCtx.of`: an int is read as a
    residue and lifted to its Teichmuller representative, a PadicInt of
    the ring's context is taken as given.  lambda = 0 and lambda = 1
    mod p are refused."""
    x = ctx.of(lam)
    residue = x.residue(1)
    if residue == 0:
        raise UsageError(f"lambda = 0 mod {ctx.p} is excluded")
    if residue == 1:
        raise UsageError("lambda = 1 is excluded")
    return x if isinstance(lam, PadicInt) else ctx.teichmuller(residue)


def eps1_intermediate_congruence(ring: CycRing, lam) -> bool:
    """(1 - pi/(lambda-1))^p = 1 - p pi/(lambda-1) mod pi^{p+1}."""
    ctx = check_level(CycRing, ring).ctx
    p = ctx.p
    lam = as_mu_element(ctx, lam)
    w = (lam - 1).invert()
    pi = ring.uniformizer()
    lhs = (ring.one() - pi * w) ** p
    rhs = ring.one() - pi * (w * p)
    return (lhs - rhs).vanishes_mod_pi(p + 1)


def unit_is_p_torsion(u: CycElt) -> bool:
    """Whether a 1-unit satisfies u^p = 1 mod pi^{p+1}.

    Caution: this window is too shallow to detect non-torsion.  For any
    1-unit congruent to a p-th root of unity mod pi^2, u^p - 1 lands in
    pi^{2p-1} or deeper, so the test is satisfied by plenty of units of
    infinite order; see nontorsion_certified for a sound criterion.
    """
    p = check_level(CycElt, u).ring.ctx.p
    if u.ring.pi_prec < p + 2:
        raise PrecisionExhausted(
            f"need pi_prec >= {p + 2} to certify mod pi^{p + 1}"
        )
    return (u ** p - 1).vanishes_mod_pi(p + 1)


def nontorsion_certified(u: CycElt) -> bool:
    """Certify that u is not a root of unity, omega(a) zeta^k at level n
    (k < p^(n+1)).  A non-unit is none; else u / omega(r), r = u mod pi,
    is a 1-unit, torsion exactly when u is, and certified once it
    differs from each zeta^k at the stored resolution.  Returns False when
    some comparison is indistinguishable from zero; that is honest
    inconclusiveness, not a torsion proof.

    Only the k = digit_1 mod p of that 1-unit need the comparison: one k
    at level 0, p of them at level 1.  zeta^k = 1 + k pi + ..., and the
    Eisenstein tail that reduces the higher powers of pi is 0 mod p, so
    zeta^k has digit_0 = 1 and digit_1 = k mod p.  For a 1-unit u and any
    other k, u - zeta^k has pi-valuation 1, which its digits show at any
    prec >= 1.
    """
    ring = check_level(CycElt, u).ring
    p, P = ring.ctx.p, ring.order
    r = u._residue()
    if r == 0:
        return True
    u = u * ring.ctx.teichmuller(pow(r, -1, p))
    for k in range(u.digits[1] % p, P, p):
        zeta_k = _on_zeta(ring, [0] * k + [1] + [0] * (P - 1 - k), ring.ctx.N)
        try:
            (u - zeta_k).pi_valuation()
        except IndistinguishableFromZero:
            return False
    return True


class NormCompatiblePair:
    """A level-1 unit with its norm at level 0, checked on construction."""

    __slots__ = ("u1", "u0")

    def __init__(self, u1: CycElt, u0: CycElt):
        check_level(CycElt, u1, 1)
        check_level(CycElt, u0, 0)
        if norm_down(u1) != u0:
            raise VerificationError("norm_down(u1) differs from u0")
        self.u1 = u1
        self.u0 = u0

    def __repr__(self):
        return f"NormCompatiblePair(u1={self.u1!r}, u0={self.u0!r})"
