"""The height-1 Lubin-Tate group with multiplication-by-p series X^p + pX.

Its strict isomorphism theta = exp_G(log(1+X)) to the multiplicative group
carries zeta_n - 1 to the tower points x_n = theta(zeta_n - 1) (Lubin and
Tate, 1965), from which `kummer` builds the Coates-Wiles units (Coates and
Wiles, 1977).  The tower needs theta only mod p^N, solved degree by degree
in Z/p^K from theta((1+X)^p - 1) = theta^p + p theta on packed ints, with
K = N + ``_theta_loss``; each degree's exact division by p is the
p-integrality witness.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from .errors import VerificationError
from .padic import power_product
from .series import pack_digits, taylor_shift, unpack_digits


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
            raise VerificationError(
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
    keeps theta through X^(p^2) at every window.  Past that depth the
    level-1 digits are not certified, although the element claims N digits.

    With pi = zeta - 1, sum_k theta_k pi^k is sum_k theta_k (zeta - 1)^k:
    one Taylor shift by -1 of the theta digits gives its coefficients on
    the powers of zeta, which `from_zeta` folds by zeta^P = 1 and reduces
    mod p^N.  No ring product is taken, and the arithmetic is exact in
    (Z/p^N)[zeta], so the digits are those of the term-by-term Horner.
    """
    p, N = ring.ctx.p, ring.ctx.N
    top = ring.degree * N - 1
    if ring.level:
        top = min(max(p * p, p * ring.pi_prec), top)
    return ring.from_zeta(taylor_shift(_theta_digits(p, top + 1, N), -1))
