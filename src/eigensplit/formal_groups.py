"""The height-1 Lubin-Tate group with multiplication-by-p series X^p + pX.

The logarithm and the exponential are exact, solved degree by degree over
the rationals from log([p]X) = p log(X) and exp(pY) = [p](exp(Y)).
``theta()``, the strict isomorphism exp_G(log(1+X)) to the multiplicative
group, is exact too: the explicit API and the tests' reference.  The tower
points x_n = theta(zeta_n - 1) need theta only mod p^N, solved degree by
degree in Z/p^K from theta((1+X)^p - 1) = theta^p + p theta on packed ints,
with K = N + ``_theta_loss``; each degree's exact division by p is the
p-integrality witness.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

from .errors import NonIntegralCoefficient, UsageError
from .padic import check_odd_prime, pack_digits, power_product, unpack_digits
from .series import TruncSeries, log_one_plus_x


def _check_args(p: int, T: int):
    check_odd_prime(p)
    if T < 2:
        raise UsageError(f"truncation must be >= 2, got {T}")


def default_trunc(p: int) -> int:
    """Enough to see X^{p^2}: covers the tower recursion and the mod X^p
    congruence with slack."""
    return p * p + 1


@lru_cache(maxsize=None)
def _log_coeffs(p: int, T: int) -> tuple:
    # log([p]X) = p log X, solved upward from c_1 = 1;
    # [X^m]((X^p + pX)^n) = C(n,j) p^{n-j} at j = (m-n)/(p-1)
    c = [Fraction(0)] * T
    if T > 1:
        c[1] = Fraction(1)
    for m in range(2, T):
        acc = Fraction(0)
        for n in range(1, m):
            d, r = divmod(m - n, p - 1)
            if r == 0 and d <= n:
                acc += c[n] * comb(n, d) * Fraction(p) ** (n - d)
        c[m] = -acc / (Fraction(p) ** m - p)
    return tuple(c)


def lubin_tate_log(p: int, T: int | None = None) -> TruncSeries:
    """log_G mod X^T; its support lies in exponents = 1 mod (p-1)."""
    _check_args(p, T := default_trunc(p) if T is None else T)
    return TruncSeries(list(_log_coeffs(p, T)))


@lru_cache(maxsize=None)
def _exp_support(p: int, T: int) -> tuple:
    # h with exp_G(Y) = Y h(Y^(p-1)) mod Y^T.  exp(pY) = exp(Y)^p + p exp(Y)
    # reads (p^m - p) e_m = [Y^m] exp^p, and at m = 1 + n(p-1) that is
    # (p^m - p) h_n = [Z^(n-1)] h^p, which the power recurrence for g = h^p,
    # n g_n = sum_{k=1..n} ((p+1)k - n) h_k g_(n-k), gets from h_0..h_(n-1)
    h, g = [Fraction(1)], [Fraction(1)]
    for n in range(1, (T - 2) // (p - 1) + 1):
        h.append(g[n - 1] / (Fraction(p) ** (1 + n * (p - 1)) - p))
        g.append(sum(((p + 1) * k - n) * h[k] * g[n - k]
                     for k in range(1, n + 1)) / n)
    return tuple(h)


def lubin_tate_exp(p: int, T: int | None = None) -> TruncSeries:
    """exp_G mod Y^T, the compositional inverse of log_G; its support lies
    in exponents = 1 mod (p-1)."""
    _check_args(p, T := default_trunc(p) if T is None else T)
    e = [Fraction(0)] * T
    e[1::p - 1] = _exp_support(p, T)
    return TruncSeries(e)


def _theta_loss(p: int, T: int) -> int:
    """p-adic digits lost by solving theta mod X^T in Z/p^K: 1 plus the
    number of j >= 1 with 2 p^j <= T - 1.

    With E = (1+X)^p - 1, theta(E) = theta^p + p theta reads at X^m
        (p^m - p) c_m = [X^m] theta^p - sum_{k<m} c_k [X^m] E^k,
    so c_m is 1/p times a unit times a right side in c_1..c_{m-1}, known
    mod p^K.  Let e_k be the valuation of the error in c_k (c_1 = 1 is
    exact).  Errors enter the right side times p: through theta^p as the
    binomials C(p, i), 0 < i < p (the D^p term has valuation p e_k > e_k),
    and through E^k, as E = X^p + p X g(X) makes [X^m] E^k divisible by p
    for m < pk, but [X^pk] E^k = 1.  After the division by p,
        e_m >= min(K - 1, min_{k<m} e_k, e_{m/p} - 1)   (last if p | m),
    and since L(m) = #{j >= 1 : 2 p^j <= m} has L(m/p) = L(m) - 1 for
    m >= 2p, induction gives e_m >= K - 1 - L(m).  So K = N + loss leaves
    every c_m, m < T, right mod p^N with e_m >= 1, and the right side's
    divisibility by p is exactly the p-integrality of c_m.  The bound is
    sharp: one digit less is wrong at the last 2 p^j below T (or at 2).
    """
    loss, pj = 1, p
    while 2 * pj <= T - 1:
        loss += 1
        pj *= p
    return loss


def _theta_mod(p: int, T: int, K: int) -> list:
    # theta mod (p^K, X^T), degree by degree; see _theta_loss for the
    # digits that are right
    q = p ** K
    # a product slot sums at most T terms below q^2
    w = 2 * q.bit_length() + T.bit_length()

    def mul(a, b):
        prod = pack_digits(a, w) * pack_digits(b, w)
        return [x % q for x in unpack_digits(prod, w, T)]

    e = ([0] + [comb(p, j) % q for j in range(1, p + 1)] + [0] * T)[:T]
    c = [0] * T
    c[1] = 1
    e_pow = e
    lhs = pack_digits(e, w)  # sum_{k<m} c_k E^k, one packed vector
    mask = (1 << w) - 1
    for m in range(2, T):
        if (m - 2) % (p - 1) == 0:
            # [X^j] theta^p uses c_k only for k <= j - p + 1, so this
            # power from c_1..c_{m-1} is right through X^(m+p-2)
            theta_p = power_product(mul, [c], [p])
        r = (theta_p[m] - ((lhs >> (m * w)) & mask)) % q
        if r % p:
            raise NonIntegralCoefficient(
                f"theta coefficient of X^{m} is not p-integral"
            )
        c[m] = r // p * pow(pow(p, m - 1, q) - 1, -1, q) % q
        e_pow = mul(e_pow, e)
        lhs += c[m] * pack_digits(e_pow, w)
    return c


@lru_cache(maxsize=None)
def _theta_digits(p: int, T: int, N: int) -> tuple:
    """theta mod (p^N, X^T) as int residues."""
    m = p ** N
    return tuple(x % m for x in _theta_mod(p, T, N + _theta_loss(p, T)))


@lru_cache(maxsize=None)
def _exact_theta(p: int, T: int) -> tuple:
    # exp_G(Y) = Y h(Y^(p-1)), so theta = L h(L^(p-1)) with L = log(1+X):
    # Horner over the coefficients of h only
    L = log_one_plus_x(T)
    Lp = L
    for _ in range(p - 2):
        Lp = Lp * L
    acc = TruncSeries([Fraction(0)] * T)
    for hn in reversed(_exp_support(p, T)):
        acc = acc * Lp + hn
    th = acc * L
    for k, ck in enumerate(th.coeffs):
        if ck.denominator % p == 0:
            raise NonIntegralCoefficient(
                f"theta coefficient of X^{k} = {ck} is not p-integral"
            )
    return tuple(th.coeffs)


def theta(p: int, T: int | None = None) -> TruncSeries:
    """The strict isomorphism theta = exp_G(log(1+X)), exact and p-integral."""
    _check_args(p, T := default_trunc(p) if T is None else T)
    return TruncSeries(list(_exact_theta(p, T)))


def cw_tower_x(ring):
    """x_n = theta(zeta_n - 1) in the level-n cyclotomic ring; the tower
    satisfies x_0^p + p x_0 = 0 and x_{n+1}^p + p x_{n+1} = x_n.

    theta is summed through pi^top.  At level 0, top = d N - 1 (d the
    degree, N the p-adic digits): pi^(d N) is p^N times a unit, so every
    later term vanishes mod p^N, and all d N stored pi-digits are right.
    At level 1, top = min(max(p^2, p pi_prec), d N - 1).  Norms carry
    level 1 down to level 0, which shares pi_prec, and pi_0 has
    pi_1-valuation p, so a unit built from x_1 must be right to depth
    p pi_prec for its norm to be right mod pi_0^pi_prec.  The floor p^2
    is `default_trunc` - 1.  Past that depth the level-1 digits are not
    certified, although the element claims N digits.

    The sum of theta_k pi^k is evaluated in blocks of d terms, by Horner
    in pi^d: a block sum_{j<d} theta_(bd+j) pi^j is already a digit
    vector, and the monic modulus gives pi^d = -(sum of
    modulus_tail[j] pi^j).  That is
    ceil((top+1)/d) - 1 ring products instead of top, and the ring
    arithmetic is exact in (Z/p^N)[pi], so the digits are those of the
    term-by-term Horner.
    """
    p, d, N = ring.ctx.p, ring.degree, ring.ctx.N
    top = d * N - 1
    if ring.level:
        top = min(max(p * p, p * ring.pi_prec), top)
    th = _theta_digits(p, top + 1, N)
    pi_d = ring.from_coeffs([-t for t in ring.modulus_tail])
    blocks = [ring.from_coeffs(th[b:b + d]) for b in range(0, top + 1, d)]
    acc = blocks.pop()
    for block in reversed(blocks):
        acc = acc * pi_d + block
    return acc
