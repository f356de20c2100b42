"""Truncated power series: ring ops, composition, log."""

import random
from fractions import Fraction

import pytest

from eigensplit.errors import (
    NonUnitConstantTerm,
    NonzeroConstantTerm,
    RingMismatch,
    UsageError,
)
from eigensplit.padic import PadicCtx
from eigensplit.series import TruncSeries, log_one_plus_x


def one_plus_x_pow(a: int, T: int) -> TruncSeries:
    """(1+X)^a - 1 over the rationals, any integer a."""
    coeffs = [Fraction(0)] * T
    num = Fraction(1)
    for k in range(1, T):
        num *= Fraction(a - (k - 1), k)
        coeffs[k] = num
    return TruncSeries(coeffs)


def _random_series(rng, T):
    return TruncSeries([Fraction(rng.randrange(-9, 10), rng.randrange(1, 7))
                        for _ in range(T)])


def test_mul_against_naive_convolution():
    rng = random.Random(5)
    for _ in range(25):
        T = rng.randrange(2, 9)
        f = _random_series(rng, T)
        g = _random_series(rng, T)
        got = (f * g).coeffs
        for k in range(T):
            want = sum(f.coeffs[i] * g.coeffs[k - i] for i in range(k + 1))
            assert got[k] == want


def test_trunc_bookkeeping():
    f = TruncSeries([Fraction(1)] * 6)
    g = TruncSeries([Fraction(1)] * 4)
    assert (f + g).trunc == 4
    assert (f * g).trunc == 4
    assert f.derivative().trunc == 5
    assert f.invariant_derivative().trunc == 5


def test_bad_sizes_are_usage_errors():
    with pytest.raises(UsageError):
        TruncSeries([])
    f = TruncSeries([Fraction(1)])
    with pytest.raises(UsageError):
        f.truncate(2)
    with pytest.raises(UsageError):
        f.derivative()


def test_scalar_and_pow():
    rng = random.Random(7)
    f = _random_series(rng, 7)
    assert f.scale(2) == f + f
    assert (f - f).coeffs == [Fraction(0)] * 7


def test_compose_power_identities():
    # (1+X)^a - 1 composed with (1+X)^b - 1 is (1+X)^{ab} - 1
    T = 10
    for a, b in ((2, 3), (5, -1), (-2, 4)):
        f = one_plus_x_pow(a, T)
        g = one_plus_x_pow(b, T)
        assert f.compose(g) == one_plus_x_pow(a * b, T)


def test_compose_requires_zero_constant():
    f = one_plus_x_pow(2, 5)
    with pytest.raises(NonzeroConstantTerm):
        f.compose(TruncSeries([Fraction(1), Fraction(1)]))


def test_rational_log_of_binomial_powers():
    T = 12
    base = log_one_plus_x(T)
    for a in (1, 2, 7, -3):
        f = one_plus_x_pow(a, T) + 1
        assert f.log() == base.scale(a)


def test_log_needs_one_unit():
    with pytest.raises(NonUnitConstantTerm):
        (one_plus_x_pow(2, 5) + 2).log()
    ctx = PadicCtx(5, 4)
    with pytest.raises(NonUnitConstantTerm):
        TruncSeries([ctx.of(2), ctx.of(1)]).log()
    # a 1-unit other than 1 is refused too: divide it out first
    with pytest.raises(NonUnitConstantTerm):
        TruncSeries([ctx.of(1 + 5), ctx.of(1)]).log()


def test_padic_log_is_additive():
    rng = random.Random(19)
    ctx = PadicCtx(7, 5)
    for _ in range(10):
        T = 6
        u = TruncSeries(
            [ctx.of(1)]
            + [ctx.of(rng.randrange(ctx.modulus)) for _ in range(T - 1)]
        )
        v = TruncSeries(
            [ctx.of(1)]
            + [ctx.of(rng.randrange(ctx.modulus)) for _ in range(T - 1)]
        )
        lhs = (u * v).log()
        rhs = u.log() + v.log()
        # log spends digits on divisions; compare at the shared floor
        for c, d in zip(lhs.coeffs, rhs.coeffs):
            k = min(c.prec, d.prec)
            assert c.residue(k) == d.residue(k)


def test_invariant_derivative_of_log():
    # (1+X) d/dX log(1+X) = 1
    d = log_one_plus_x(9).invariant_derivative()
    assert d.coeffs[0] == 1
    assert all(c == 0 for c in d.coeffs[1:])


def test_ring_mismatch():
    ctx = PadicCtx(5, 4)
    f = TruncSeries([ctx.of(1), ctx.of(2)])
    g = TruncSeries([Fraction(1), Fraction(2)])
    with pytest.raises(RingMismatch):
        f + g
    with pytest.raises(RingMismatch):
        TruncSeries([ctx.of(1), Fraction(2)])
    with pytest.raises(RingMismatch):
        f.scale(Fraction(1, 2))
    ctx2 = PadicCtx(7, 4)
    with pytest.raises(RingMismatch):
        f + TruncSeries([ctx2.of(1), ctx2.of(2)])
