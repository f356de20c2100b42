"""Fixed-precision p-adic integers: arithmetic, roots of unity, division."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eigensplit.errors import (
    IndistinguishableFromZero,
    PrecisionExhausted,
    RingMismatch,
    UsageError,
    VerificationError,
)
from eigensplit.padic import (
    PadicCtx,
    PadicInt,
    check_odd_prime,
    is_prime,
    power_product,
    primitive_root,
    vp,
)


def test_is_prime_small():
    primes = [n for n in range(2, 60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43,
                      47, 53, 59]
    assert not is_prime(1)
    assert not is_prime(0)
    assert not is_prime(-7)


def test_ctx_rejects_bad_arguments():
    with pytest.raises(ValueError):
        PadicCtx(4, 3)
    with pytest.raises(ValueError):
        PadicCtx(2, 3)
    with pytest.raises(ValueError):
        PadicCtx(5, 0)
    # a float prime or precision once built a context: PadicCtx(5, 2.5)
    # had the modulus 55.9
    with pytest.raises(UsageError, match="^precision must be >= 1, got 2.5$"):
        PadicCtx(5, 2.5)
    with pytest.raises(UsageError, match="^5.0 is not an odd prime$"):
        PadicCtx(5.0, 2)


def test_check_odd_prime():
    assert check_odd_prime(7) == 7
    for bad in (2, 9, 1, -3, 5.0, 2.5):
        with pytest.raises(UsageError, match=f"^{bad} is not an odd prime$"):
            check_odd_prime(bad)


def test_vp():
    assert vp(1, 5) == 0
    assert vp(250, 5) == 3
    assert vp(-250, 5) == 3
    assert vp(3 * 7 ** 20, 7) == 20
    with pytest.raises(UsageError, match="valuation of zero"):
        vp(0, 5)


def test_one_context_per_key():
    assert PadicCtx(5, 4) is PadicCtx(5, 4)
    assert PadicCtx(5, 4) is not PadicCtx(5, 3)
    # a context keeps its Teichmuller table and beta: a second context
    # built for the same key hands back the same lifts
    assert PadicCtx(7, 4).teichmuller(3) is PadicCtx(7, 4).teichmuller(3)
    assert PadicCtx(7, 4).beta() is PadicCtx(7, 4).beta()


def test_mixed_contexts_raise_ring_mismatch():
    with pytest.raises(RingMismatch):
        PadicCtx(5, 3).of(1) + PadicCtx(5, 4).of(1)


def test_of_takes_only_ints_and_padic_ints():
    # int() truncated these silently: 1/2 became 0 + O(5^4)
    ctx = PadicCtx(5, 4)
    for bad in (Fraction(1, 2), Fraction(4), 1.7, 2.0, "3", None):
        with pytest.raises(RingMismatch):
            ctx.of(bad)
    x = ctx.of(ctx.of(7 + 5 ** 3), 2)
    assert (x.value, x.prec) == (7, 2)
    y = ctx.of(PadicInt(ctx, 7, 3))
    assert (y.value, y.prec) == (7, 3)
    for other in (PadicCtx(5, 3), PadicCtx(7, 4)):
        with pytest.raises(RingMismatch):
            ctx.of(other.of(1))


def test_ring_laws_random():
    rng = random.Random(11)
    for p in (3, 7, 13):
        ctx = PadicCtx(p, 5)
        for _ in range(50):
            a = ctx.of(rng.randrange(ctx.modulus))
            b = ctx.of(rng.randrange(ctx.modulus))
            c = ctx.of(rng.randrange(ctx.modulus))
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert a * (b + c) == a * b + a * c
            assert a * b == b * a
            assert a - a == 0


def test_precision_min_rule():
    ctx = PadicCtx(5, 6)
    a = ctx.of(7, prec=3)
    b = ctx.of(11, prec=5)
    assert (a + b).prec == 3
    assert (a * b).prec == 3
    assert (-a).prec == 3
    assert a.reduce_to(2).prec == 2
    # reduce_to never invents digits
    assert a.reduce_to(9).prec == 3


def test_residue_and_lift():
    ctx = PadicCtx(7, 4)
    x = ctx.of(1 + 7 + 2 * 49)
    assert x.residue(1) == 1
    assert x.residue(2) == 8
    assert x.lift() == 1 + 7 + 2 * 49
    with pytest.raises(PrecisionExhausted):
        x.reduce_to(2).residue(3)


def test_valuation():
    ctx = PadicCtx(5, 6)
    assert ctx.of(3).valuation() == 0
    assert ctx.of(50).valuation() == 2
    assert type(ctx.of(50).valuation()) is int
    # a residue that vanishes at the working precision has no valuation
    with pytest.raises(IndistinguishableFromZero):
        ctx.of(0).valuation()
    with pytest.raises(IndistinguishableFromZero):
        ctx.of(5 ** 3, prec=3).valuation()


def test_unit_inversion():
    rng = random.Random(23)
    ctx = PadicCtx(11, 5)
    for _ in range(30):
        u = ctx.of(rng.randrange(ctx.modulus))
        if not u.is_unit():
            continue
        assert u * u.invert() == 1
    with pytest.raises(UsageError, match="has positive valuation"):
        ctx.of(11).invert()


def test_div_int():
    ctx = PadicCtx(5, 6)
    x = ctx.of(3 * 25)
    y = x.div_int(25)
    assert y == 3
    assert y.prec == 4  # two digits spent on p^2
    assert ctx.of(9).div_int(3) == 3
    assert ctx.of(-10).div_int(-5) == 2
    with pytest.raises(VerificationError,
                       match=r"is not divisible by p\^1 at the working precision"):
        ctx.of(7).div_int(5)
    with pytest.raises(PrecisionExhausted):
        ctx.of(5 ** 6 - 5).reduce_to(1).div_int(5)


def test_from_rational():
    ctx = PadicCtx(7, 5)
    half = ctx.from_rational("1/2")
    assert half * 2 == 1
    with pytest.raises(VerificationError,
                       match="denominator of 3/14 is divisible by p=7"):
        ctx.from_rational("3/14")
    assert ctx.from_rational(Fraction(-3, 4)) * 4 == -3
    assert ctx.from_rational(5).value == 5
    # 0.1 once read as the binary float 3602879701896397/2^55
    for bad in (0.1, 0.5, 2.0):
        with pytest.raises(RingMismatch):
            ctx.from_rational(bad)


def test_teichmuller_is_root_of_unity():
    for p in (3, 5, 7, 13):
        ctx = PadicCtx(p, 6)
        for a in range(1, p):
            w = ctx.teichmuller(a)
            assert w ** (p - 1) == 1
            assert w.residue(1) == a % p
    with pytest.raises(UsageError, match="Teichmuller lift needs a nonzero "
                                         "residue mod p"):
        PadicCtx(5, 4).teichmuller(10)


def test_teichmuller_multiplicative():
    ctx = PadicCtx(13, 5)
    for a in range(1, 13):
        for b in range(1, 13):
            assert ctx.teichmuller(a) * ctx.teichmuller(b) == \
                ctx.teichmuller(a * b % 13)


def _prime_factors(n):
    out, d = set(), 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    return out | ({n} if n > 1 else set())


@pytest.mark.parametrize("p", [p for p in range(3, 500) if is_prime(p)])
def test_primitive_root_is_the_least_generator(p):
    # g has order p-1 exactly when g^((p-1)/q) != 1 for each prime q | p-1
    def generates(g):
        return all(pow(g, (p - 1) // q, p) != 1
                   for q in _prime_factors(p - 1))
    g = primitive_root(p)
    assert generates(g)
    assert not any(generates(h) for h in range(2, g))


@pytest.mark.parametrize("p, N", [(3, 1), (5, 4), (13, 3), (37, 6),
                                  (157, 11)])
def test_teichmuller_of_a_primitive_root_gives_every_lift(p, N):
    # omega is a character, so one lift reaches every a = g^k mod p
    ctx = PadicCtx(p, N)
    g = primitive_root(p)
    w = ctx.teichmuller(g)
    for k in range(p - 1):
        assert w ** k == ctx.teichmuller(pow(g, k, p))


def test_beta_root_of_one_minus_p():
    for p in (3, 5, 7, 11):
        ctx = PadicCtx(p, 6)
        b = ctx.beta()
        assert b ** (p - 1) == 1 - p
        assert b.residue(1) == 1


# the iterations the closed forms replaced, kept as oracles
def _teichmuller_fixed_point(p, N, a):
    x, m = a % p, p ** N
    for _ in range(N + 2):
        x_next = pow(x, p, m)
        if x_next == x:
            return x
        x = x_next
    raise AssertionError("Teichmuller iteration failed to settle")


def _beta_newton(p, N):
    m = p ** N
    target, x = (1 - p) % m, 1
    for _ in range(N + 2):
        fx = (pow(x, p - 1, m) - target) % m
        if fx == 0:
            return x
        x = (x - fx * pow((p - 1) * pow(x, p - 2, m), -1, m)) % m
    raise AssertionError("beta iteration failed to settle")


@pytest.mark.parametrize("p", [p for p in range(3, 200) if is_prime(p)])
def test_closed_forms_match_iterations(p):
    for N in range(1, 9):
        ctx = PadicCtx(p, N)
        for a in range(1, p):
            w = ctx.teichmuller(a)
            assert (w.value, w.prec) == (_teichmuller_fixed_point(p, N, a), N)
        b = ctx.beta()
        assert (b.value, b.prec) == (_beta_newton(p, N), N)


# -- the shared squaring chain -----------------------------------------------

@settings(max_examples=300, deadline=None)
@given(st.integers(2, 10 ** 9),
       st.lists(st.tuples(st.integers(0, 10 ** 9), st.integers(0, 2 ** 70)),
                min_size=1, max_size=6))
@example(7, [(3, 0)])
@example(7, [(3, 0), (5, 0), (6, 0)])
@example(10, [(3, 0), (7, 1), (0, 5)])
@example(2 ** 61 - 1, [(2, 1)])
def test_power_product_matches_pow(m, pairs):
    bases = [b % m for b, _ in pairs]
    exponents = [e for _, e in pairs]
    count = [0]

    def mul(a, b):
        count[0] += 1
        return a * b % m

    got = power_product(mul, bases, exponents)
    if not any(exponents):
        assert got is None and count[0] == 0
        return
    want = 1
    for b, e in zip(bases, exponents):
        want = want * pow(b, e, m) % m
    assert got == want
    # started at the highest set bit: L - 1 squarings and one product per
    # set bit after the first, none of them by an identity
    L = max(exponents).bit_length()
    assert count[0] == L - 1 + sum(bin(e).count("1") for e in exponents) - 1
