"""The formal group with multiplication X^p + pX and its strict
isomorphism to the multiplicative group."""

from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eigensplit.cyclotomic import cyc_ring, unit_pow_zp
from eigensplit.errors import UsageError
from eigensplit.formal_groups import (
    _theta_digits,
    _theta_loss,
    _theta_mod,
    cw_tower_x,
    default_trunc,
    lubin_tate_exp,
    lubin_tate_log,
    theta,
)
from eigensplit.series import TruncSeries, log_one_plus_x


def _poly(T, *coeffs):
    # the polynomial sum_k coeffs[k] X^k as a series mod X^T
    return TruncSeries([Fraction(c) for c in coeffs]
                       + [Fraction(0)] * (T - len(coeffs)))


def test_log_functional_equation_via_generic_compose():
    # the construction solves log([p]X) = p log X coefficientwise with a
    # binomial shortcut; re-check the identity through generic composition
    for p in (3, 5):
        T = p * p + p
        lg = lubin_tate_log(p, T)
        mult = [Fraction(0)] * T
        mult[1] = Fraction(p)
        mult[p] = Fraction(1)
        lhs = lg.compose(TruncSeries(mult))
        assert lhs == lg.scale(p)


def test_log_support_and_p_power_poles():
    for p in (3, 5, 7):
        lg = lubin_tate_log(p, p * p + 2)
        for k, c in enumerate(lg.coeffs):
            if c != 0:
                assert k % (p - 1) == 1 % (p - 1)
        # the X^{p^n} coefficient has p-valuation exactly -n
        q, n = 1, 0
        while q < lg.trunc:
            c = lg.coeffs[q]
            num, den = c.numerator, c.denominator
            if n == 0:
                assert num % p != 0 and den % p != 0
            else:
                assert den % p ** n == 0 and den % p ** (n + 1) != 0
                assert num % p != 0
            q *= p
            n += 1
    assert lubin_tate_log(5).coeffs[1] == 1


def test_theta_congruent_to_log_below_p():
    for p in (3, 5, 7):
        th = theta(p)
        base = log_one_plus_x(th.trunc)
        for k in range(p):
            assert th.coeffs[k] == base.coeffs[k]
        assert th.coeffs[p] != base.coeffs[p]


def test_theta_is_p_integral():
    for p in (3, 5, 7):
        th = theta(p)
        assert th.trunc >= p * p + 1
        for c in th.coeffs:
            assert c.denominator % p != 0


# truncations of the exact oracle: past 2p^3 = 54 at p = 3, 2p^2 = 50 at
# p = 5 and 2p^2 = 98 at p = 7
_ORACLE_T = {3: 60, 5: 60, 7: 100}


def _last_loss_degree(p, T):
    # the largest 2 p^j (j >= 0) below T
    m = 2
    while m * p <= T - 1:
        m *= p
    return m


@settings(max_examples=80, deadline=None)
@given(p=st.sampled_from(sorted(_ORACLE_T)), N=st.integers(1, 6),
       T=st.integers(3, max(_ORACLE_T.values())))
@example(p=3, N=6, T=60)
@example(p=5, N=4, T=51)
@example(p=7, N=1, T=15)
@example(p=7, N=4, T=100)
def test_theta_mod_pk_matches_exact_theta(p, N, T):
    T = min(T, _ORACLE_T[p])
    q = p ** N
    exact = theta(p, _ORACLE_T[p]).coeffs[:T]
    want = [c.numerator * pow(c.denominator, -1, q) % q for c in exact]
    assert list(_theta_digits(p, T, N)) == want
    # the loss bound is sharp: one digit less goes wrong, first at the
    # last degree where the bound loses a digit
    short = [c % q for c in _theta_mod(p, T, N + _theta_loss(p, T) - 1)]
    wrong = [k for k in range(T) if short[k] != want[k]]
    assert wrong and wrong[0] == _last_loss_degree(p, T)


def test_bad_arguments_are_usage_errors():
    with pytest.raises(UsageError):
        theta(9)
    with pytest.raises(UsageError):
        lubin_tate_log(5, 1)
    with pytest.raises(UsageError):
        lubin_tate_exp(2)
    # a truncation of 0 is refused, not replaced by the default
    for build, p in ((lubin_tate_log, 5), (lubin_tate_exp, 5), (theta, 3)):
        with pytest.raises(UsageError, match="truncation must be >= 2, got 0"):
            build(p, 0)


def test_theta_defining_equation():
    # log_G(theta(X)) = log(1+X), checked by composition
    for p in (3, 5):
        T = default_trunc(p)
        lg = lubin_tate_log(p, T)
        assert lg.compose(theta(p, T)) == log_one_plus_x(T)


def test_theta_intertwines_doubling():
    # theta((1+X)^2 - 1) = exp_G(2 log_G(theta(X))): the strict
    # isomorphism carries multiplicative doubling to formal doubling
    for p in (3, 5):
        T = p * p + 1
        th = theta(p, T)
        lhs = th.compose(_poly(T, 0, 2, 1))
        rhs = lubin_tate_exp(p, T).compose(
            lubin_tate_log(p, T).compose(th).scale(2))
        assert lhs == rhs


def test_p_series_is_verified_on_the_nose():
    # exp_G(p log_G X) = X^p + pX in every coefficient
    for p in (3, 5):
        T = p + 3
        got = lubin_tate_exp(p, T).compose(lubin_tate_log(p, T).scale(p))
        want = [0] * T
        want[1], want[p] = p, 1
        assert got.coeffs == want


def test_exp_log_round_trip():
    for p in (3, 5, 7):
        T = default_trunc(p)
        lg, ex = lubin_tate_log(p, T), lubin_tate_exp(p, T)
        x = _poly(T, 0, 1)
        assert lg.compose(ex) == x
        assert ex.compose(lg) == x


def test_theta_is_exp_of_log_one_plus_x():
    # the definition, by generic composition, against the Horner over the
    # support of exp_G that theta() runs
    for p in (3, 5, 7):
        T = p * p + 1
        assert (lubin_tate_exp(p, T).compose(log_one_plus_x(T))
                == theta(p, T))


def test_tower_bottom_relation():
    for p in (3, 5, 7):
        ring = cyc_ring(p, 0)
        x0 = cw_tower_x(ring)
        assert (x0 ** p + x0 * p).vanishes_mod_pi(ring.pi_prec)
        assert x0.pi_valuation() == 1


def _closed_form_x0(p, N):
    """x_0 without theta.  Phi_p(1 + pi) = 0 gives pi^(p-1) = -p e with
    the 1-unit e = 1 + sum_{j=1..p-2} (C(p, j+1)/p) pi^j, and x_0 is the
    (p-1)th root of -p that is pi mod pi^2, so x_0 = pi e^(-1/(p-1)).  The
    ring's window is the whole storage depth, so the Z_p exponent is
    reduced only as far as the stored digits allow."""
    ring = cyc_ring(p, 0, N, N * (p - 1))
    e = ring.from_coeffs([1] + [comb(p, j + 1) // p for j in range(1, p - 1)])
    c = ring.ctx.from_rational(Fraction(-1, p - 1))
    return ring.uniformizer() * unit_pow_zp(e, c)


_SMALL_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23)


@pytest.mark.parametrize("N", range(1, 13))
@pytest.mark.parametrize("p", _SMALL_PRIMES)
def test_tower_bottom_matches_closed_form(p, N):
    # every stored digit, at the default window; the relation test above
    # sees only mod pi^pi_prec
    got, want = cw_tower_x(cyc_ring(p, 0, N)), _closed_form_x0(p, N)
    assert (got.digits, got.prec) == (want.digits, want.prec)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_SMALL_PRIMES), st.integers(1, 12),
       st.integers(0, 10 ** 6))
@example(3, 6, 3)
@example(7, 9, 53)
def test_tower_bottom_digits_ignore_the_window(p, N, r):
    # any window from 1 to the storage depth, here 1 + r mod N (p-1)
    pi_prec = 1 + r % (N * (p - 1))
    got, want = cw_tower_x(cyc_ring(p, 0, N, pi_prec)), _closed_form_x0(p, N)
    assert (got.digits, got.prec) == (want.digits, want.prec)


def test_tower_step_relation():
    for p in (3, 5, 7):
        ring1 = cyc_ring(p, 1)
        ring0 = cyc_ring(p, 0)
        from eigensplit.cyclotomic import embed_up

        x1 = cw_tower_x(ring1)
        x0 = cw_tower_x(ring0)
        lhs = x1 ** p + x1 * p
        assert (lhs - embed_up(x0, ring1)).vanishes_mod_pi(p + 3)


def _tower_top(ring):
    # the last theta degree cw_tower_x evaluates, as its docstring derives:
    # the storage depth d N - 1 at level 0, at most max(p^2, p pi_prec) at
    # level 1
    p, top = ring.ctx.p, ring.degree * ring.ctx.N - 1
    if ring.level:
        top = min(max(p * p, p * ring.pi_prec), top)
    return top


def _termwise_tower_x(ring):
    # the sum of theta_k pi^k by Horner in pi, one ring product per term:
    # the oracle for the evaluation in blocks of pi^degree
    top = _tower_top(ring)
    th = _theta_digits(ring.ctx.p, top + 1, ring.ctx.N)
    pi = ring.uniformizer()
    acc = ring.from_scalar(th[top])
    for k in range(top - 1, 0, -1):
        acc = acc * pi + ring.from_scalar(th[k])
    return acc * pi


# (p, level, prec, pi_prec).  Level 0 at prec 4 ends on a full block
# (top + 1 = 4 * degree), level 1 at prec 4 on a partial one, and prec 1
# at level 0 leaves a single block
_BLOCK_CASES = tuple(
    (p, level, 4, None) for p in (3, 5, 7, 11) for level in (0, 1)
) + tuple(
    (p, level, prec, pi_prec)
    for p, prec, pi_prec in ((3, 10, 20), (5, 8, 30))
    for level in (0, 1)
) + tuple((p, 0, 1, p - 1) for p in (3, 5, 7, 11)) + tuple(
    # level 0 with (p-1) N > p^2 + 1, where the storage depth passes both
    # p^2 and the default pi window
    (p, 0, N, None) for p, N in ((3, 6), (5, 7), (7, 9))
)


@pytest.mark.parametrize("p, level, prec, pi_prec", _BLOCK_CASES)
def test_tower_blocks_match_termwise_horner(p, level, prec, pi_prec):
    ring = cyc_ring(p, level, prec, pi_prec)
    got, want = cw_tower_x(ring), _termwise_tower_x(ring)
    assert (got.digits, got.prec) == (want.digits, want.prec)
