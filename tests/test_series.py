"""Truncated power series: ring ops, composition, log."""

import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eigensplit.errors import RingMismatch, UsageError
from eigensplit.padic import PadicCtx
from eigensplit.series import TruncSeries, taylor_shift

from exact_formal_group import log_one_plus_x


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


def _schoolbook(f, g):
    """The Fraction double loop, the product before the packed kernel."""
    T = min(f.trunc, g.trunc)
    out = [Fraction(0)] * T
    for i in range(T):
        a = f.coeffs[i]
        if not a:
            continue
        for j in range(T - i):
            b = g.coeffs[j]
            if b:
                out[i + j] = out[i + j] + a * b
    return out


# denominators built from a few small primes share them across the
# coefficients; large primes and random integers mostly do not
_DENOMINATORS = st.one_of(
    st.sampled_from([1, 2, 3, 4, 6, 12, 35, 3 ** 40, 2 ** 61 - 1]),
    st.integers(1, 2 ** 64),
)
_COEFFS = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-2 ** 300, 2 ** 300), _DENOMINATORS),
)
_SERIES = st.one_of(
    st.integers(1, 40).map(lambda T: TruncSeries([0] * T)),
    st.lists(_COEFFS, min_size=1, max_size=40).map(TruncSeries),
)
# 2^k - 1 in each of T = 2^m - 1 slots: the top slot of its square sums
# T (2^k - 1)^2, the widest sum that the slot width must hold
_WIDEST = TruncSeries([2 ** 300 - 1] * 31)


@settings(max_examples=200, deadline=None)
@given(f=_SERIES, g=_SERIES)
@example(f=_WIDEST, g=_WIDEST)
@example(f=_WIDEST, g=-_WIDEST)
def test_mul_against_naive_convolution(f, g):
    prod = f * g
    assert prod.trunc == min(f.trunc, g.trunc)
    assert prod.coeffs == _schoolbook(f, g)


def _comb_shift(coeffs, s):
    """[X^j] sum_k coeffs[k] (X + s)^k by the binomial theorem."""
    n = len(coeffs)
    return [sum(comb(k, j) * s ** (k - j) * coeffs[k] for k in range(j, n))
            for j in range(n)]


_TOP = 2 ** 300


# every coefficient of the largest size: [X^j] of all +_TOP shifted by +1,
# and of alternating +-_TOP shifted by -1, is +-_TOP C(n, j+1), the
# largest a slot holds; at lengths 1 and 2 a slot one bit narrower
# misreads it
_ALTERNATING = [_TOP, -_TOP] * 30


@settings(max_examples=300, deadline=None)
@given(coeffs=st.lists(st.integers(-_TOP, _TOP), min_size=1, max_size=60),
       s=st.sampled_from((1, -1)))
@example(coeffs=[_TOP] * 60, s=1)
@example(coeffs=[-_TOP] * 60, s=1)
@example(coeffs=_ALTERNATING, s=-1)
@example(coeffs=_ALTERNATING[:1], s=-1)
@example(coeffs=_ALTERNATING[:2], s=-1)
def test_taylor_shift_matches_binomials(coeffs, s):
    assert taylor_shift(coeffs, s) == _comb_shift(coeffs, s)


def test_taylor_shift_needs_a_unit_shift():
    for s in (0, 2, -2):
        with pytest.raises(UsageError):
            taylor_shift([1, 2], s)


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
    with pytest.raises(UsageError,
                       match="inner series must have zero constant term"):
        f.compose(TruncSeries([Fraction(1), Fraction(1)]))


def test_rational_log_of_binomial_powers():
    T = 12
    base = log_one_plus_x(T)
    for a in (1, 2, 7, -3):
        f = one_plus_x_pow(a, T) + 1
        assert f.log() == base.scale(a)


def test_log_needs_one_unit():
    with pytest.raises(UsageError, match="log needs constant term exactly 1"):
        (one_plus_x_pow(2, 5) + 2).log()


def test_invariant_derivative_of_log():
    # (1+X) d/dX log(1+X) = 1
    d = log_one_plus_x(9).invariant_derivative()
    assert d.coeffs[0] == 1
    assert all(c == 0 for c in d.coeffs[1:])


def test_ring_mismatch():
    # the series are exact: a PadicInt coefficient or scalar is refused
    ctx = PadicCtx(5, 4)
    f = TruncSeries([Fraction(1), Fraction(2)])
    with pytest.raises(RingMismatch):
        TruncSeries([ctx.of(1)])
    with pytest.raises(RingMismatch):
        TruncSeries([Fraction(1), ctx.of(2)])
    with pytest.raises(RingMismatch):
        f.scale(ctx.of(2))
    with pytest.raises(RingMismatch):
        f + ctx.of(2)
    with pytest.raises(RingMismatch):
        f - ctx.of(2)
    with pytest.raises(RingMismatch):
        f * ctx.of(2)
