"""The exact Lubin-Tate layer, the tests' oracle for theta mod p^N.

The logarithm and the exponential of the height-1 group with
multiplication-by-p series X^p + pX are exact, solved degree by degree over
the rationals from log([p]X) = p log(X) and exp(pY) = [p](exp(Y)).
``theta()``, the strict isomorphism exp_G(log(1+X)) to the multiplicative
group, is exact too; `eigensplit.formal_groups._theta_digits`, which the
tower reads, must agree with it mod p^N.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

from eigensplit.errors import VerificationError, check_int
from eigensplit.padic import check_odd_prime, power_product
from eigensplit.series import TruncSeries


def log_one_plus_x(T: int) -> TruncSeries:
    """log(1+X) = X - X^2/2 + X^3/3 - ... over the rationals."""
    check_int(T, "truncation", 1)
    return TruncSeries(
        [Fraction(0)] + [Fraction((-1) ** (k + 1), k) for k in range(1, T)]
    )


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
    check_odd_prime(p)
    T = check_int(default_trunc(p) if T is None else T, "truncation", 2)
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
    check_odd_prime(p)
    T = check_int(default_trunc(p) if T is None else T, "truncation", 2)
    e = [Fraction(0)] * T
    e[1::p - 1] = _exp_support(p, T)
    return TruncSeries(e)


@lru_cache(maxsize=None)
def _exact_theta(p: int, T: int) -> tuple:
    # exp_G(Y) = Y h(Y^(p-1)), so theta = L h(L^(p-1)) with L = log(1+X):
    # Horner over the coefficients of h only
    L = log_one_plus_x(T)
    Lp = power_product(TruncSeries.__mul__, [L], [p - 1])
    acc = TruncSeries([Fraction(0)] * T)
    for hn in reversed(_exp_support(p, T)):
        acc = acc * Lp + hn
    th = acc * L
    for k, ck in enumerate(th.coeffs):
        if ck.denominator % p == 0:
            raise VerificationError(
                f"theta coefficient of X^{k} = {ck} is not p-integral"
            )
    return tuple(th.coeffs)


def theta(p: int, T: int | None = None) -> TruncSeries:
    """The strict isomorphism theta = exp_G(log(1+X)), exact and p-integral."""
    check_odd_prime(p)
    T = check_int(default_trunc(p) if T is None else T, "truncation", 2)
    return TruncSeries(list(_exact_theta(p, T)))
