"""Cyclotomic rings Z_p[zeta] at levels 0 and 1, in pi-adic digits.

Level n holds zeta of order p^{n+1}; pi = zeta - 1 is a uniformizer with
Eisenstein minimal polynomial Phi_{p^{n+1}}(1+X), and an element is stored as
its digit vector sum c_j pi^j, j < degree: a list of int residues mod p^prec
with one absolute precision ``prec`` for the whole element, propagated by the
min rule.  Since p = (unit) pi^degree and the digit positions
j + degree*v_p(c_j) are pairwise distinct, pi-valuations are read straight
off the digits.  Equality always means equality mod pi^{pi_prec}.

The Galois action, the norm one level down and the embedding one level up
all go through the zeta-power basis 1, zeta, ..., zeta^(degree-1), at both
levels: sigma_a permutes it, and since zeta_0 = zeta_1^p the level-0 ring
sits at the level-1 positions divisible by p.

A product is one big-integer multiply (Kronecker substitution): each digit
vector is packed into an integer, digit k in bit slot k, with slots wide
enough that no coefficient of the product can carry into the next.  The
product's slots of degree >= degree are folded back with the packed residues
of X^degree, X^(degree+1), ... modulo the Eisenstein modulus.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb
from operator import mul

from .errors import (
    IndistinguishableFromZero,
    NotAUnitExponent,
    NotInBaseField,
    NotInSubfield,
    NotOneUnit,
    PrecisionExhausted,
    UsageError,
)
from .padic import (PadicCtx, PadicInt, pack_digits, power_product,
                    unpack_digits)


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _combine(columns, coeffs) -> int:
    """sum_k coeffs[k] * columns[k] on packed vectors."""
    acc = 0
    for c, col in zip(coeffs, columns):
        if c:
            acc += c * col
    return acc


class CycRing:
    __slots__ = (
        "ctx", "level", "degree", "pi_prec", "modulus_tail",
        "_slot", "_fold", "_to_zeta", "_from_zeta", "_base",
    )

    def __init__(self, ctx: PadicCtx, level: int, pi_prec: int | None = None):
        if level not in (0, 1):
            raise UsageError(f"level must be 0 or 1, got {level}")
        p = ctx.p
        if ctx.N < level + 1:
            raise UsageError(
                f"need at least {level + 1} p-adic digits for the level-{level} "
                f"Galois action, ctx has {ctx.N}"
            )
        # the level-0 window at both levels: a level-1 ring hands its
        # pi_prec to its base ring, which holds at most N (p-1)
        top = ctx.N * (p - 1)
        if pi_prec is None:
            pi_prec = min(p + 3, top)
        if not 1 <= pi_prec <= top:
            raise UsageError(
                f"pi_prec {pi_prec} outside 1..{top} supported by ctx"
            )
        d = p ** level * (p - 1)
        self.ctx = ctx
        self.level = level
        self.degree = d
        self.pi_prec = pi_prec
        # lower coefficients of the monic Eisenstein modulus of pi,
        # sum_{k<p} (1 + pi)^(k p^level)
        full = [0] * (d + 1)
        for k in range(0, p * p ** level, p ** level):
            for j in range(min(k, d) + 1):
                full[j] += comb(k, j)
        assert full[d] == 1
        tail = full[:d]
        assert tail[0] == p
        m = ctx.modulus
        self.modulus_tail = [t % m for t in tail]
        # a slot of a product, folded, sums fewer than 2d terms below p^(2N)
        self._slot = w = 2 * m.bit_length() + d.bit_length() + 1
        self._fold = self._fold_columns()
        # row n of Pascal's triangle mod m: zeta^n = sum_i C(n,i) pi^i and
        # pi^n = sum_i (-1)^(n-i) C(n,i) zeta^i
        self._to_zeta, self._from_zeta = [], []
        row = [1]
        for n in range(d):
            self._from_zeta.append(pack_digits(row, w))
            signed = [(-1) ** (n - i) * c % m for i, c in enumerate(row)]
            self._to_zeta.append(pack_digits(signed, w))
            row = [1] + [(a + b) % m for a, b in zip(row, row[1:])] + [1]
        self._base = None

    def _fold_columns(self) -> list:
        # X^(d+k) mod the modulus for k < d - 1, the degrees a product reaches
        m, tail = self.ctx.modulus, self.modulus_tail
        r = [-t % m for t in tail]
        cols = []
        for _ in range(self.degree - 1):
            cols.append(pack_digits(r, self._slot))
            top = r[-1]
            r = [(c - top * t) % m for c, t in zip([0] + r[:-1], tail)]
        return cols

    def __eq__(self, other):
        return (
            isinstance(other, CycRing)
            and self.ctx == other.ctx
            and self.level == other.level
            and self.pi_prec == other.pi_prec
        )

    def __hash__(self):
        return hash((self.ctx, self.level, self.pi_prec))

    def __repr__(self):
        return (
            f"CycRing(p={self.ctx.p}, level={self.level}, "
            f"pi_prec={self.pi_prec})"
        )

    # -- constructors ----------------------------------------------------

    def zero(self) -> "CycElt":
        return CycElt(self, [0] * self.degree, self.ctx.N)

    def one(self) -> "CycElt":
        return self.from_scalar(1)

    def from_scalar(self, c) -> "CycElt":
        return self.from_coeffs([c])

    def uniformizer(self) -> "CycElt":
        return self.from_coeffs([0, 1])

    def zeta(self) -> "CycElt":
        return self.from_coeffs([1, 1])

    def from_coeffs(self, coeffs) -> "CycElt":
        """Digits from ints or PadicInts; a PadicInt known to fewer
        p-adic digits lowers the element's prec to its own."""
        coeffs = list(coeffs)
        if len(coeffs) > self.degree:
            raise UsageError("too many digits")
        prec = self.ctx.N
        for c in coeffs:
            if isinstance(c, PadicInt):
                if c.ctx != self.ctx:
                    raise UsageError("mixed p-adic contexts")
                prec = min(prec, c.prec)
        q = self.ctx.p ** prec
        digits = [
            (c.value if isinstance(c, PadicInt) else int(c)) % q for c in coeffs
        ]
        digits += [0] * (self.degree - len(digits))
        return CycElt(self, digits, prec)

    def base_ring(self) -> "CycRing":
        if self.level == 0:
            raise UsageError("level 0 has no lower cyclotomic level")
        if self._base is None:
            self._base = CycRing(self.ctx, 0, self.pi_prec)
        return self._base


@lru_cache(maxsize=None)
def cyc_ring(p: int, level: int, prec: int = 4, pi_prec: int | None = None) -> CycRing:
    """Canonical ring instances keyed by (p, level, prec, pi_prec)."""
    return CycRing(PadicCtx(p, prec), level, pi_prec)


class CycElt:
    __slots__ = ("ring", "digits", "prec")

    def __init__(self, ring: CycRing, digits: list, prec: int):
        """``digits``: ``ring.degree`` ints, already reduced mod p^prec."""
        assert len(digits) == ring.degree
        self.ring = ring
        self.digits = digits
        self.prec = prec

    @property
    def coeffs(self) -> tuple:
        """The digits as PadicInts at the element's prec (a read view)."""
        ctx = self.ring.ctx
        return tuple(PadicInt(ctx, c, self.prec) for c in self.digits)

    def _coerce(self, other):
        if isinstance(other, CycElt):
            if other.ring != self.ring:
                raise UsageError("mixed cyclotomic rings")
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
        return CycElt(
            self.ring, [(a + b) % q for a, b in zip(self.digits, o.digits)], prec
        )

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        prec = min(self.prec, o.prec)
        q = self.ring.ctx.p ** prec
        return CycElt(
            self.ring, [(a - b) % q for a, b in zip(self.digits, o.digits)], prec
        )

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        q = self.ring.ctx.p ** self.prec
        return CycElt(self.ring, [-a % q for a in self.digits], self.prec)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        ring = self.ring
        d, w = ring.degree, ring._slot
        prec = min(self.prec, o.prec)
        q = ring.ctx.p ** prec
        prod = pack_digits(self.digits, w) * pack_digits(o.digits, w)
        low = d * w
        high = [h % q for h in unpack_digits(prod >> low, w, d - 1)]
        acc = (prod & ((1 << low) - 1)) + _combine(ring._fold, high)
        return CycElt(ring, [c % q for c in unpack_digits(acc, w, d)], prec)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise UsageError("negative powers are not defined here")
        acc = power_product(mul, [self], [n])
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
        need = _ceil_div(M, self.ring.degree)
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
        pv = 1
        for v in range(self.prec):
            pv *= p
            for j, c in enumerate(self.digits):
                if c % pv:
                    return j + self.ring.degree * v
        raise IndistinguishableFromZero(
            "every digit vanishes at the working precision"
        )

    def is_one_unit(self) -> bool:
        """Whether the element is 1 mod pi.  Every digit position past 0
        has pi-valuation at least 1, so v(u - 1) >= 1 exactly when p
        divides digit_0 - 1."""
        return self.digits[0] % self.ring.ctx.p == 1


# -- Galois action and norms -----------------------------------------------

def _zeta_coeffs(x: CycElt) -> list:
    """x on the basis 1, zeta, ..., zeta^(degree-1), mod p^prec."""
    ring = x.ring
    q = ring.ctx.p ** x.prec
    packed = _combine(ring._to_zeta, x.digits)
    return [c % q for c in unpack_digits(packed, ring._slot, ring.degree)]


def _from_zeta_coeffs(ring: CycRing, coeffs: list, prec: int) -> CycElt:
    """sum coeffs[k] zeta^k as an element of ``ring`` at ``prec``."""
    q = ring.ctx.p ** prec
    packed = _combine(ring._from_zeta, [c % q for c in coeffs])
    digits = unpack_digits(packed, ring._slot, ring.degree)
    return CycElt(ring, [c % q for c in digits], prec)


def galois_apply(a: int, x: CycElt) -> CycElt:
    """sigma_a, the automorphism zeta -> zeta^a, i.e. pi -> (1+pi)^a - 1.

    At level n (degree d = p^n (p-1)) it sends zeta^k to zeta^(ak mod
    p^(n+1)) on the zeta-power basis; an image zeta^(d+r), r < p^n, is
    -(sum over j < p-1 of zeta^(j p^n + r)) because Phi_{p^(n+1)}(zeta) = 0.
    """
    ring = x.ring
    p = ring.ctx.p
    q = p ** (ring.level + 1)
    a = int(a.value if isinstance(a, PadicInt) else a) % q
    if a % p == 0:
        raise NotAUnitExponent(f"{a} is not a unit mod {q}")
    if a == 1:
        return x
    d = ring.degree
    step = q // p
    out = [0] * d
    spill = [0] * step
    for k, c in enumerate(_zeta_coeffs(x)):
        e = a * k % q
        if e < d:
            out[e] = c
        else:
            spill[e - d] = c
    for r, c in enumerate(spill):
        if c:
            for j in range(r, d, step):
                out[j] -= c
    return _from_zeta_coeffs(ring, out, x.prec)


@lru_cache(maxsize=None)
def _primitive_root(p: int) -> int:
    """The least generator of (Z/p)^*."""
    return next(g for g in range(2, p)
                if len({pow(g, k, p) for k in range(p - 1)}) == p - 1)


def _orbit_product(x: CycElt, g: int, n: int) -> CycElt:
    """prod_{k<n} sigma_(g^k)(x), by doubling along the orbit (the
    addition-chain norm of Itoh and Tsujii, 1988).

    With P_m the product over k < m, each bit of n after the leading one
    doubles, P_2m = P_m sigma_(g^m)(P_m), and a set bit then steps,
    P_(m+1) = x sigma_g(P_m): (bit_length(n) - 1) + (popcount(n) - 1)
    conjugates and as many products, where the plain loop pays n - 1 of
    each."""
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
    where zeta_0 = zeta_1^p puts the level-0 ring.

    Since (1+p)^k = 1 + kp mod p^2, that product is the orbit product of
    sigma_(1+p) over p steps, taken by doubling in O(log p) conjugates and
    products (_orbit_product).  No digit is lost: products are exact,
    commutative and associative in (Z/p^prec)[pi] mod the Eisenstein
    modulus, and each sigma_a is a ring map there, so the digits and prec
    are those of the conjugate-by-conjugate product."""
    ring = x.ring
    if ring.level != 1:
        raise UsageError("norm_down starts at level 1")
    p = ring.ctx.p
    acc = _orbit_product(x, 1 + p, p)
    base = ring.base_ring()
    out = _from_zeta_coeffs(base, _zeta_coeffs(acc)[::p], acc.prec)
    if not (acc - embed_up(out, ring)).vanishes_mod_pi(ring.pi_prec):
        raise NotInSubfield("norm does not lie in the level-0 subring")
    return out


def embed_up(x: CycElt, ring1: CycRing) -> CycElt:
    """Include level 0 into level 1 via zeta_0 -> zeta_1^p."""
    if x.ring.level != 0 or ring1.level != 1:
        raise UsageError("embed_up goes from level 0 to level 1")
    if ring1.base_ring() != x.ring:
        raise UsageError("rings are not aligned")
    coeffs = [0] * ring1.degree
    coeffs[::ring1.ctx.p] = _zeta_coeffs(x)
    return _from_zeta_coeffs(ring1, coeffs, x.prec)


def norm_to_qp(x: CycElt) -> PadicInt:
    """Norm all the way to Z_p; at level 1 it factors through norm_down.

    At level 0 the Galois group is cyclic, generated by sigma_g for the
    least primitive root g mod p, so the norm is the orbit product of
    sigma_g over p-1 steps, taken by doubling in O(log p) conjugates and
    products (_orbit_product).  No digit is lost: products are exact,
    commutative and associative in (Z/p^prec)[pi] mod the Eisenstein
    modulus, and each sigma_a is a ring map there, so the digits and prec
    are those of the conjugate-by-conjugate product."""
    ring = x.ring
    if ring.level == 1:
        return norm_to_qp(norm_down(x))
    acc = _orbit_product(x, _primitive_root(ring.ctx.p), ring.ctx.p - 1)
    scalar = ring.ctx.of(acc.digits[0], acc.prec)
    if not (acc - scalar).vanishes_mod_pi(ring.pi_prec):
        raise NotInBaseField("norm has nonscalar digits")
    return scalar


# -- Z_p-powers of one-units and the eigenprojection -----------------------

def _stable_exponent_prec(ring: CycRing, v0: int) -> int:
    # raising a one-unit with v(u-1) = v to the p-th power moves v to
    # min(degree + v, p v); find how many p-power steps reach pi_prec
    v, k = v0, 0
    while v < ring.pi_prec:
        v = min(ring.degree + v, ring.ctx.p * v)
        k += 1
    return k


def unit_pow_product(bases, exponents) -> CycElt:
    """prod_k u_k^(c_k) for 1-units u_k and Z_p exponents c_k.

    u^c depends only on c mod p^k, where k p-power steps carry v(u - 1)
    past pi_prec (k = 0, so u stands for 1, when u - 1 is
    indistinguishable from zero).  The reduced exponents share one
    squaring chain, `padic.power_product`; products are exact in
    (Z/p^prec)[pi], so their order changes no digit.
    """
    ring = bases[0].ring
    p = ring.ctx.p
    reduced = []
    for u, c in zip(bases, exponents):
        if not u.is_one_unit():
            raise NotOneUnit("Z_p-powers need a 1-unit base")
        try:
            k = _stable_exponent_prec(ring, (u - 1).pi_valuation())
        except IndistinguishableFromZero:
            k = 0
        if isinstance(c, PadicInt):
            if c.prec < k:
                raise PrecisionExhausted(
                    f"exponent known mod p^{c.prec}, need p^{k} for stability"
                )
            c = c.value
        reduced.append(int(c) % p ** k)
    acc = power_product(mul, bases, reduced)
    return ring.one() if acc is None else acc


def unit_pow_zp(u: CycElt, c) -> CycElt:
    """u^c for a Z_p exponent c, on one-units only."""
    return unit_pow_product([u], [c])


def eigen_unit(i: int, u: CycElt) -> CycElt:
    """The omega^i idempotent applied to a one-unit:
    product over a in F_p^* of sigma_{omega(a)}(u)^{omega(a)^{-i}/(p-1)}.

    The p-1 conjugates go through one squaring chain."""
    if not u.is_one_unit():
        raise NotOneUnit("eigenprojection acts on 1-units")
    ctx = u.ring.ctx
    p = ctx.p
    i = i % (p - 1)
    inv_order = ctx.of(p - 1).invert()
    conjugates, exponents = [], []
    for a in range(1, p):
        conjugates.append(galois_apply(ctx.teichmuller(a), u))
        exponents.append(ctx.teichmuller(pow(a, -1, p)) ** i * inv_order)
    return unit_pow_product(conjugates, exponents)


def eigen_valuation(u: CycElt) -> Fraction:
    """Average pi-valuation of the Teichmuller-twisted conjugates, the
    valuation the omega-eigenprojection sees; 1/(p-1) sum_a v(sigma_a u).

    That average is v(u): sigma_a sends pi to a unit times pi and maps
    p^prec O onto itself, so it is an isometry of O/p^prec.  Every
    conjugate has the valuation of u, and is indistinguishable from zero
    exactly when u is."""
    return Fraction(u.pi_valuation())


# -- the omega^1 non-torsion certificate -----------------------------------

def as_mu_element(ctx: PadicCtx, lam) -> PadicInt:
    """Normalize lambda: an int is read as a residue and lifted to its
    Teichmuller representative, a PadicInt is taken as given."""
    from .errors import LambdaIsOne

    if not isinstance(lam, PadicInt):
        lam = ctx.teichmuller(lam)
    if lam.value % ctx.p == 1:
        raise LambdaIsOne("lambda = 1 is excluded")
    return lam


def eps1_intermediate_congruence(ring: CycRing, lam) -> bool:
    """(1 - pi/(lambda-1))^p = 1 - p pi/(lambda-1) mod pi^{p+1}."""
    ctx = ring.ctx
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
    p = u.ring.ctx.p
    if u.ring.pi_prec < p + 2:
        raise PrecisionExhausted(
            f"need pi_prec >= {p + 2} to certify mod pi^{p + 1}"
        )
    return (u ** p - 1).vanishes_mod_pi(p + 1)


def nontorsion_certified(u: CycElt) -> bool:
    """Certify that a 1-unit is not a root of unity.

    At level n the torsion 1-units are exactly mu_(p^(n+1)), the zeta^k
    with k < p^(n+1), so u is certified once it differs from each of them
    at the stored resolution.  Returns False when some comparison is
    indistinguishable from zero; that is honest inconclusiveness, not a
    torsion proof.

    Only the k = digit_1(u) mod p need the comparison: one k at level 0,
    p of them at level 1.  zeta^k = 1 + k pi + ..., and the Eisenstein
    tail that reduces the higher powers of pi is 0 mod p, so zeta^k has
    digit_0 = 1 and digit_1 = k mod p.  For a 1-unit u and any other k,
    u - zeta^k has pi-valuation 1, which its digits show at any prec >= 1.
    """
    if not u.is_one_unit():
        return True
    ring = u.ring
    p = ring.ctx.p
    zeta = ring.zeta()
    for k in range(u.digits[1] % p, p ** (ring.level + 1), p):
        try:
            (u - zeta ** k).pi_valuation()
        except IndistinguishableFromZero:
            return False
    return True


def check_eps1_nontorsion(ring: CycRing, lam) -> bool:
    """The pi^{p+1} criterion on eigen_unit(1, u_0(lambda)), taken
    literally: true iff the p-th power differs from 1 mod pi^{p+1}.

    As the unit_is_p_torsion note explains, the p-th power of the
    projected unit is always 1 to this depth, so the criterion cannot
    come out true; the sound replacement is nontorsion_certified on
    eigen_unit(1, lang_unit(ring, lam)), which certifies every
    lambda except -1 (where the projection is exactly a primitive
    p-th root of unity)."""
    from .kummer import lang_unit

    u = lang_unit(ring, lam)
    return not unit_is_p_torsion(eigen_unit(1, u))


class NormCompatiblePair:
    """A level-1 unit with its norm at level 0, checked on construction."""

    __slots__ = ("u1", "u0")

    def __init__(self, u1: CycElt, u0: CycElt):
        if u1.ring.level != 1 or u0.ring.level != 0:
            raise UsageError("pair wants (level 1, level 0)")
        if norm_down(u1) != u0:
            raise NotInSubfield("norm_down(u1) differs from u0")
        self.u1 = u1
        self.u0 = u0

    def __repr__(self):
        return f"NormCompatiblePair(u1={self.u1!r}, u0={self.u0!r})"
