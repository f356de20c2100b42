"""Logarithmic-derivative homomorphisms on units and the two unit families."""

import random
from fractions import Fraction
from functools import lru_cache
from math import factorial
from operator import mul

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigensplit import kummer
from eigensplit.cyclotomic import (
    CycRing,
    NormCompatiblePair,
    _exponent_digits,
    cyc_ring,
    eigen_unit,
    eigen_valuation,
    embed_up,
    eps1_intermediate_congruence,
    galois_apply,
    nontorsion_certified,
    norm_down,
    norm_to_qp,
    unit_is_p_torsion,
    unit_pow_zp,
)
from eigensplit.errors import UsageError
from eigensplit.formal_groups import _theta_digits
from eigensplit.padic import (PadicCtx, PadicInt, power_product,
                              primitive_root)
from eigensplit.series import TruncSeries
from eigensplit.kummer import (
    bernoulli_criterion_surrogate,
    check_eps1_nontorsion,
    cw_unit,
    cw_unit_pair,
    generator_certificate,
    kummer_phi,
    kummer_phis,
    lang_generator_search,
    lang_unit,
)

from conftest import random_one_unit


def test_phi_range_guard():
    ring = cyc_ring(5, 0)
    u = ring.from_scalar(1 + 5)
    with pytest.raises(UsageError):
        kummer_phi(0, u)
    with pytest.raises(UsageError):
        kummer_phi(4, u)


@lru_cache(maxsize=None)
def _unit_factors(p, N=4):
    ring = cyc_ring(p, 0, N, min(p + 3, N * (p - 1)))
    return (cw_unit(ring),) + tuple(lang_unit(ring, a) for a in range(2, p))


@st.composite
def _level0_one_units(draw):
    # products of the Coates-Wiles unit and Lang units, repeats allowed
    p = draw(st.sampled_from((3, 5, 7, 11, 13)))
    factors = _unit_factors(p, draw(st.integers(1, 6)))
    picks = draw(st.lists(st.integers(0, len(factors) - 1), min_size=1,
                          max_size=4))
    u = factors[picks[0]]
    for k in picks[1:]:
        u = u * factors[k]
    return u


def _full_log_phis(u):
    # phi_1..phi_{p-2} off one exact rational logarithm of the lifted
    # digits of f_u, to the full degree p-2, reduced mod p: an oracle
    # independent of the p-adic walk that stops at X^(i+1)
    p = u.ring.ctx.p
    f = TruncSeries(u.digits)
    series = f.scale(Fraction(1, f.constant_term())).log()
    phis = []
    for _ in range(p - 2):
        series = series.invariant_derivative()
        c = series.constant_term()
        phis.append(c.numerator * pow(c.denominator, -1, p) % p)
    return phis


@settings(max_examples=150, deadline=None)
@given(_level0_one_units())
def test_phi_table_matches_single_indices(u):
    # both against the logarithm to the full degree
    p = u.ring.ctx.p
    want = _full_log_phis(u)
    assert kummer_phis(u) == want
    assert [kummer_phi(i, u) for i in range(1, p - 1)] == want


@pytest.mark.parametrize("p", [3, 7, 13])
def test_phi_i_takes_the_log_of_i_plus_one_terms(monkeypatch, p):
    seen = []
    log = kummer._log

    def spy(g):
        seen.append(len(g))
        return log(g)

    monkeypatch.setattr(kummer, "_log", spy)
    u = _unit_factors(p)[-1] * _unit_factors(p)[0]
    for i in range(1, p - 1):
        seen.clear()
        kummer_phi(i, u)
        assert seen == [i + 1]
    seen.clear()
    kummer_phis(u)
    assert seen == [p - 1]


def _assert_log_is_exact(g):
    # every coefficient of the walk's logarithm against the exact rational
    # log of the lifted digits (g(0) lifts to exactly 1), reduced mod p^prec
    # at the precision the walk reports; a division that lost a digit
    # fails here, not only mod p
    p = g[0].ctx.p
    got = kummer._log(g)
    want = TruncSeries([c.lift() for c in g]).log().coeffs
    assert len(got) == len(want)
    for c, q in zip(got, want):
        pk = p ** c.prec
        assert c.value == q.numerator * pow(q.denominator, -1, pk) % pk
    return got


def _normalised_digits(u, T):
    # the walk's input: the first T pi-digits of u over its constant term
    f = [PadicInt(u.ring.ctx, c, u.prec) for c in u.digits[:T]]
    w = f[0].invert()
    return [w * c for c in f]


@settings(max_examples=100, deadline=None)
@given(_level0_one_units(), st.data())
def test_log_is_the_exact_logarithm_at_full_precision(u, data):
    T = data.draw(st.integers(1, u.ring.ctx.p - 1))
    got = _assert_log_is_exact(_normalised_digits(u, T))
    assert [c.prec for c in got] == [u.prec] * T


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_log_is_exact_at_mixed_precisions(p):
    # each coefficient at its own precision: the walk's coefficient j lies
    # between the least precision of g_0..g_j and that of g_0 and g_j
    rng = random.Random(3500 + p)
    for _ in range(40):
        N = rng.randrange(1, 7)
        ctx = PadicCtx(p, N)
        T = rng.randrange(1, p)
        precs = [rng.randrange(1, N + 1) for _ in range(T)]
        f = [PadicInt(ctx, rng.randrange(1, p) + p * rng.randrange(p ** N),
                      precs[0])]
        f += [PadicInt(ctx, rng.randrange(p ** N), q) for q in precs[1:]]
        w = f[0].invert()
        g = [c * w for c in f]
        got = _assert_log_is_exact(g)
        for j, c in enumerate(got):
            assert min(precs[:j + 1]) <= c.prec <= min(precs[0], precs[j])


def test_log_keeps_the_precision_of_a_zero_coefficient():
    # g = 1 + O(7) X + 3 X^2 + 5 X^3 at N = 4: the X coefficient is 0 to one
    # digit only, and it enters every later coefficient of log g, so each
    # of them is known to one digit; skipping it as a zero gave 7^4
    ctx = PadicCtx(7, 4)
    got = _assert_log_is_exact([ctx.of(1), ctx.of(0, 1), ctx.of(3),
                                ctx.of(5)])
    assert [repr(c) for c in got] == [
        "0 + O(7^4)", "0 + O(7^1)", "3 + O(7^1)", "5 + O(7^1)"]


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_log_holds_for_every_lift_of_its_digits(p):
    # a digit known to q digits stands for each of its lifts c + p^q r, and
    # every coefficient of the walk's logarithm agrees, to the precision it
    # claims, with the exact log of each such lift; half the digits are zero
    # to their own precision, which a walk that skips zeros by value alone
    # overclaims
    rng = random.Random(3600 + p)
    for _ in range(40):
        N = rng.randrange(1, 7)
        ctx = PadicCtx(p, N)
        T = rng.randrange(1, p)
        g = [PadicInt(ctx, 1, rng.randrange(1, N + 1))]
        g += [PadicInt(ctx, rng.randrange(p ** N) * rng.randrange(2),
                       rng.randrange(1, N + 1)) for _ in range(T - 1)]
        got = kummer._log(g)
        for _ in range(3):
            lift = [1] + [c.value + p ** c.prec * rng.randrange(p ** N)
                          for c in g[1:]]
            for c, q in zip(got, TruncSeries(lift).log().coeffs):
                pk = p ** c.prec
                assert c.value == q.numerator * pow(q.denominator, -1, pk) % pk


@pytest.mark.parametrize("N", [2, 4])
@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_phis_of_eigenprojections_pick_out_one_index(p, N):
    # Galois equivariance: e_j projects onto the omega^j eigenspace, where
    # phi_i vanishes unless i = j, so phi_i(e_j(u)) is phi_i(u) at i = j
    # and 0 otherwise, mod p; on the Coates-Wiles and Lang units
    ring = cyc_ring(p, 0, N)
    for u in (cw_unit(ring),) + tuple(lang_unit(ring, a)
                                      for a in range(2, p)):
        phis = kummer_phis(u)
        for j in range(p - 1):
            assert kummer_phis(eigen_unit(j, u)) == [
                phi if i == j else 0 for i, phi in enumerate(phis, 1)], j


def _raised(f, *args):
    try:
        f(*args)
    except Exception as err:
        return type(err), str(err)
    return None


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_phi_table_refuses_what_single_indices_refuse(p):
    ring = cyc_ring(p, 0)
    level1 = cyc_ring(p, 1).one()
    not_one_unit = (UsageError, "not congruent to 1 mod pi")
    for bad, error in ((level1, (UsageError,
                                 "needs a level-0 CycElt, got level 1")),
                       (ring.from_scalar(2), not_one_unit),
                       (ring.uniformizer(), not_one_unit)):
        assert _raised(kummer_phis, bad) == error
        assert {_raised(kummer_phi, i, bad) for i in range(1, p - 1)} == {
            error}
    # the range is checked first, whatever the unit
    for i in (0, p - 1):
        assert _raised(kummer_phi, i, ring.from_scalar(2)) == (
            UsageError, f"phi index i must be in 1..{p - 2}, got {i}")


def test_phi_additive():
    rng = random.Random(61)
    for p in (3, 5, 7):
        ring = cyc_ring(p, 0)
        for _ in range(10):
            u = random_one_unit(rng, ring)
            v = random_one_unit(rng, ring)
            for i in range(1, p - 1):
                assert kummer_phi(i, u * v) == \
                    (kummer_phi(i, u) + kummer_phi(i, v)) % p


def test_phi_galois_equivariant():
    # phi_i(sigma_a u) = a^i phi_i(u)
    rng = random.Random(67)
    for p in (5, 7):
        ring = cyc_ring(p, 0)
        for _ in range(8):
            u = random_one_unit(rng, ring)
            a = rng.randrange(2, p)
            for i in range(1, p - 1):
                assert kummer_phi(i, galois_apply(a, u)) == \
                    pow(a, i, p) * kummer_phi(i, u) % p


def test_phi_picks_out_eigenparts():
    rng = random.Random(71)
    for p in (5, 7):
        ring = cyc_ring(p, 0)
        for _ in range(4):
            u = random_one_unit(rng, ring)
            i = rng.randrange(1, p - 1)
            j = 1 + (i - 1 + 1 + rng.randrange(p - 3)) % (p - 2)
            proj = eigen_unit(i, u)
            assert kummer_phi(i, proj) == kummer_phi(i, u)
            if j != i:
                assert kummer_phi(j, proj) == 0


def test_lang_unit_shape():
    # u = omega(lambda-1)^{-1} (lambda - zeta), a 1-unit linear in pi
    for p in (5, 7):
        ring = cyc_ring(p, 0)
        ctx = ring.ctx
        for a in range(2, p):
            lam = ctx.teichmuller(a)
            w = ctx.teichmuller((a - 1) % p).invert()
            u = lang_unit(ring, a)
            expect = ring.from_scalar(w * (lam - 1)) - ring.uniformizer() * w
            assert u == expect
            assert u.is_one_unit()


def test_cw_values_small_primes():
    for p in (3, 5, 7):
        ring = cyc_ring(p, 0)
        u = cw_unit(ring)
        assert u.is_one_unit()
        for i in range(1, p - 1):
            assert kummer_phi(i, u) == (-factorial(i - 1)) % p


def _stirling2(n, k):
    """S(n, k), the partitions of n things into k nonempty blocks."""
    row = [1] + [0] * k
    for _ in range(n):
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, k + 1)]
    return row[k]


def _lang_phi_closed_form(i, a, p):
    """phi_i(u_0(lambda)) = -Li_{1-i}(1/lambda) mod p, lambda = a mod p.

    f/f(0) = 1 - X/(lambda-1); with 1+X = e^t and D = d/dt, D log f is
    -sum_{n>=1} lambda^(-n) e^(nt), so D^i log f at t = 0 is
    -sum_n n^(i-1) lambda^(-n) = -Li_{1-i}(1/lambda), and
    Li_{1-i}(z) = sum_{k<i} k! S(i, k+1) (z/(1-z))^(k+1)
    with z/(1-z) = 1/(lambda-1)."""
    w = pow(a - 1, -1, p)
    return -sum(factorial(k) * _stirling2(i, k + 1) * w ** (k + 1)
                for k in range(i)) % p


@pytest.mark.parametrize("N", [1, 4])
@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23])
def test_phis_match_closed_forms(p, N):
    # the Lang units against the polylogarithm, the Coates-Wiles unit
    # against -(i-1)!; neither oracle walks a logarithm, and both hold at
    # one p-adic digit as at four
    ring = cyc_ring(p, 0, N)
    for a in range(2, p):
        assert kummer_phis(lang_unit(ring, a)) == [
            _lang_phi_closed_form(i, a, p) for i in range(1, p - 1)]
    assert kummer_phis(cw_unit(ring)) == [
        -factorial(i - 1) % p for i in range(1, p - 1)]


@pytest.mark.parametrize("p, prec, pi_prec", [(3, 10, 20), (5, 8, 30)])
def test_cw_unit_theta_depth_follows_pi_prec(p, prec, pi_prec):
    # pi_prec > p^2, refused while theta stopped at p^2 + 1 terms; the
    # unit must match the one built from theta at the full storage depth
    ring = cyc_ring(p, 0, prec=prec, pi_prec=pi_prec)
    u = cw_unit(ring)
    for i in range(1, p - 1):
        assert kummer_phi(i, u) == (-factorial(i - 1)) % p
    th = _theta_digits(p, ring.degree * prec, prec)
    pi = ring.uniformizer()
    x = ring.zero()
    for k in range(len(th) - 1, 0, -1):
        x = (x + ring.from_scalar(th[k])) * pi
    full = ring.from_scalar(ring.ctx.beta()) - x
    assert (u.digits, u.prec) == (full.digits, full.prec)


def test_cw_pair_is_norm_compatible():
    for p in (3, 5):
        pair = cw_unit_pair(cyc_ring(p, 1))
        assert isinstance(pair, NormCompatiblePair)
        assert norm_down(pair.u1) == pair.u0
        assert pair.u0 == cw_unit(cyc_ring(p, 0))


# every ring a level allows at N in {1, 2, 4}: level 1 needs N >= 2
_CACHED_RINGS = [(p, level, N) for p in (3, 5, 7, 11, 13) for level in (0, 1)
                 for N in (1, 2, 4) if N > level]


@pytest.mark.parametrize("p, level, N", _CACHED_RINGS)
def test_cw_units_are_built_once_per_ring(p, level, N):
    kummer._cw_unit_pair.cache_clear()
    kummer._cw_unit.cache_clear()
    ring = cyc_ring(p, level, N)
    u = cw_unit(ring)
    assert cw_unit(ring) is u
    # the cached unit is the one a fresh build gives
    kummer._cw_unit.cache_clear()
    fresh = cw_unit(ring)
    assert fresh is not u
    assert (fresh.digits, fresh.prec) == (u.digits, u.prec)
    if level:
        pair = cw_unit_pair(ring)
        assert cw_unit_pair(ring) is pair
        assert pair.u1 is fresh
        assert pair.u0 is cw_unit(ring.base_ring())


def test_a_shared_unit_cannot_be_written():
    # every caller gets the one cached unit of its ring, and a write into
    # its vectors would change every later answer for that ring
    u = cw_unit(cyc_ring(7, 0))
    phis = kummer_phis(u)
    with pytest.raises(TypeError):
        u.zeta_coeffs[1] += 1
    with pytest.raises(TypeError):
        u.digits[0] = 2
    assert kummer_phis(cw_unit(cyc_ring(7, 0))) == phis


@pytest.mark.parametrize("p, N", [(p, N) for p in (3, 5, 7, 11, 13)
                                  for N in (1, 2, 4)])
def test_two_windows_are_two_cached_units(p, N):
    kummer._cw_unit.cache_clear()
    narrow, wide = cyc_ring(p, 0, N, 1), cyc_ring(p, 0, N, N * (p - 1))
    u, v = cw_unit(narrow), cw_unit(wide)
    assert kummer._cw_unit.cache_info().currsize == 2
    assert u is not v and u.ring is narrow and v.ring is wide
    # the level-0 digits are summed to the storage depth at every window
    assert (u.digits, u.prec) == (v.digits, v.prec)


@pytest.mark.parametrize("p, prec", [(3, 2), (3, 3), (5, 2), (7, 2)])
def test_level1_default_pi_prec_fits_the_base_ring(p, prec):
    # the level-1 default is the level-0 one, min(p + 3, N (p-1)); at
    # (3, 2) the old min(p + 3, N p (p-1)) gave 6, above the base ring's 4
    ring1 = cyc_ring(p, 1, prec)
    assert ring1.pi_prec == cyc_ring(p, 0, prec).pi_prec == \
        min(p + 3, prec * (p - 1))
    pair = cw_unit_pair(ring1)
    assert pair.u0 == cw_unit(ring1.base_ring())


def test_lang_generator_search_finds_witnesses():
    for p in (5, 7):
        ring = cyc_ring(p, 0)
        for i in range(1, p - 1):
            lam = lang_generator_search(ring, i)
            assert kummer_phi(i, lang_unit(ring, lam)) != 0


def test_lang_generator_search_p3():
    ring = cyc_ring(3, 0)
    lam = lang_generator_search(ring, 1)
    # the only admissible class at p = 3 is -1, and it works for phi_1
    assert lam == ring.ctx.of(-1)


def test_generator_certificate_on_cw():
    for p in (3, 5, 7):
        ring = cyc_ring(p, 0)
        u = cw_unit(ring)
        for i in range(1, p - 1):
            assert generator_certificate(i, u)


def test_generator_certificate_accepts_pairs():
    pair = cw_unit_pair(cyc_ring(5, 1))
    assert generator_certificate(1, pair)
    assert generator_certificate(2, pair)


def test_generator_certificate_rejects_trivial():
    ring = cyc_ring(5, 0)
    z = ring.zeta()
    assert not generator_certificate(1, z)  # torsion, phi_1 = 0 anyway
    assert not generator_certificate(2, ring.one())


def test_surrogate_agreement_on_regular_primes():
    for p in (5, 7):
        ring = cyc_ring(p, 0)
        for i in range(2, p - 1, 2):
            out = bernoulli_criterion_surrogate(ring, i)
            assert out["i"] == i
            assert out["generates"]
            assert out["bernoulli_coprime_to_p"]
            assert out["agree"]


def _surrogate_by_separate_powers(ring, i):
    """The surrogate with one unit_pow_zp call per twisted t_a."""
    from eigensplit.lfunctions import bernoulli

    ctx = ring.ctx
    p = ctx.p
    inv_order = ctx.of(p - 1).invert()
    acc = ring.one()
    for a in range(1, p):
        r = sum((ring.zeta() ** k for k in range(a)), ring.zero())
        w_inv = ctx.teichmuller(pow(a, -1, p))
        acc = acc * unit_pow_zp(r * w_inv, w_inv ** i * inv_order)
    phi = kummer_phi(i, acc)
    coprime = bernoulli(i).numerator % p != 0
    return {"i": i, "phi": phi, "generates": phi != 0,
            "bernoulli_coprime_to_p": coprime,
            "agree": (phi != 0) == coprime}


def test_surrogate_matches_separate_powers():
    for p in (5, 7, 11, 13):
        ring = cyc_ring(p, 0)
        for i in range(2, p - 2, 2):
            assert bernoulli_criterion_surrogate(ring, i) == \
                _surrogate_by_separate_powers(ring, i)


def _twisted_product(ring, i):
    """Oracle for the surrogate's unit with no eigenprojection: S_i =
    prod_a t_a^(omega(a)^-i/(p-1)) over the p-1 one-units t_a =
    sigma_a(pi)/(pi omega(a)), on one squaring chain with each exponent
    reduced by its own base."""
    ctx = ring.ctx
    p = ctx.p
    inv_order = ctx.of(p - 1).invert()
    units, exponents = [], []
    for a in range(1, p):
        w_inv = ctx.teichmuller(pow(a, -1, p))
        t_a = ring.from_zeta([1] * a) * w_inv
        units.append(t_a)
        c = w_inv ** i * inv_order
        exponents.append(c.residue(_exponent_digits(t_a)))
    acc = power_product(mul, units, exponents)
    return ring.one() if acc is None else acc


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37])
def test_surrogate_unit_is_the_twisted_product(p, monkeypatch):
    # eigen_unit(i, t_g) = S_i^(omega(g)^i - 1) for every i with g^i != 1
    # mod p, i.e. every i in 1..p-2; compared with ==, mod pi^pi_prec, as
    # the digits past pi_prec differ
    g = primitive_root(p)
    seen, phi = {}, kummer.kummer_phi

    def spy(i, u):
        seen[i] = u
        return phi(i, u)

    monkeypatch.setattr(kummer, "kummer_phi", spy)
    for N in (1, 2, 4, 6):
        ring = cyc_ring(p, 0, N)
        w = ring.ctx.teichmuller(g)
        t_g = ring.from_zeta([1] * g) * w.invert()
        for i in range(1, p - 1):
            want = _twisted_product(ring, i)
            got = unit_pow_zp(eigen_unit(i, t_g), (w ** i - 1).invert())
            assert got == want, (N, i)
            if i % 2 == 0 and i <= p - 3:
                # and it is the unit whose phi_i the surrogate reads
                bernoulli_criterion_surrogate(ring, i)
                assert seen[i] == want, (N, i)


def test_search_rejects_bad_index():
    ring = cyc_ring(3, 0)
    with pytest.raises(UsageError):
        lang_generator_search(ring, 0)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23])
def test_kummer_phi_of_cyclotomic_units_is_bernoulli(p):
    # c_a = 1 + zeta + ... + zeta^(a-1) = (zeta^a - 1)/(zeta - 1) is a
    # unit = a mod pi, so c_a omega(a)^(-1) is a one-unit, and Kummer's
    # logarithmic derivatives give phi_i = (a^i - 1) B_i / i mod p, with
    # B_1 = +1/2: an oracle that reads no unit walk, 1,192 cases
    from eigensplit.lfunctions import bernoulli

    ring = cyc_ring(p, 0)
    for a in range(2, p):
        u = ring.from_zeta([1] * a) * ring.ctx.teichmuller(a).invert()
        for i in range(1, p - 1):
            b = Fraction(1, 2) if i == 1 else bernoulli(i)
            want = (a ** i - 1) * b / i
            assert kummer_phi(i, u) == \
                want.numerator * pow(want.denominator, -1, p) % p, (a, i)


@pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 19, 23, 29, 31, 37])
def test_surrogate_phi_is_bernoulli_over_i(p):
    # Kummer: phi_i of the twisted product of the cyclotomic units is
    # B_i / i mod p, for every even i in 2..p-3; 81 cases
    from eigensplit.lfunctions import bernoulli

    ring = cyc_ring(p, 0)
    for i in range(2, p - 2, 2):
        want = bernoulli(i) / i
        assert bernoulli_criterion_surrogate(ring, i)["phi"] == \
            want.numerator * pow(want.denominator, -1, p) % p, i


# -- ring and element arguments -------------------------------------------

R0, R1 = cyc_ring(5, 0), cyc_ring(5, 1)

# (id, the call with x in the argument's place, the class it reads)
_RING_ENTRIES = [
    ("CycRing", lambda x: CycRing(x, 0), "PadicCtx"),
    ("galois_apply", lambda x: galois_apply(2, x), "CycElt"),
    ("norm_down", norm_down, "CycElt"),
    ("embed_up-x", lambda x: embed_up(x, R1), "CycElt"),
    ("embed_up-ring", lambda x: embed_up(R0.one(), x), "CycRing"),
    ("norm_to_qp", norm_to_qp, "CycElt"),
    ("unit_pow_zp", lambda x: unit_pow_zp(x, 3), "CycElt"),
    ("eigen_unit", lambda x: eigen_unit(1, x), "CycElt"),
    ("eigen_valuation", eigen_valuation, "CycElt"),
    ("nontorsion_certified", nontorsion_certified, "CycElt"),
    ("check_eps1_nontorsion", lambda x: check_eps1_nontorsion(x, 2),
     "CycRing"),
    ("eps1_intermediate_congruence",
     lambda x: eps1_intermediate_congruence(x, 2), "CycRing"),
    ("unit_is_p_torsion", unit_is_p_torsion, "CycElt"),
    ("NormCompatiblePair-u1", lambda x: NormCompatiblePair(x, R0.one()),
     "CycElt"),
    ("NormCompatiblePair-u0", lambda x: NormCompatiblePair(R1.one(), x),
     "CycElt"),
    ("kummer_phi", lambda x: kummer_phi(1, x), "CycElt"),
    ("kummer_phis", kummer_phis, "CycElt"),
    ("lang_unit", lambda x: lang_unit(x, 2), "CycRing"),
    ("cw_unit", cw_unit, "CycRing"),
    ("cw_unit_pair", cw_unit_pair, "CycRing"),
    ("lang_generator_search", lambda x: lang_generator_search(x, 1),
     "CycRing"),
    ("generator_certificate", lambda x: generator_certificate(1, x),
     "CycElt"),
    ("bernoulli_criterion_surrogate",
     lambda x: bernoulli_criterion_surrogate(x, 2), "CycRing"),
]


# each of these once ended in an AttributeError on .ring, .ctx, .level or
# (for a ring's context) .p
@pytest.mark.parametrize("bad", ["x", "other kind"])
@pytest.mark.parametrize("call, kind", [e[1:] for e in _RING_ENTRIES],
                         ids=[e[0] for e in _RING_ENTRIES])
def test_unit_entries_refuse_what_is_not_a_ring_or_element(call, kind, bad):
    if bad == "other kind":  # a ring for an element and the other way
        bad = R0 if kind == "CycElt" else R0.one()
    with pytest.raises(UsageError, match=rf"^expected a {kind}, "
                       rf"got {re.escape(repr(bad))}$"):
        call(bad)


@pytest.mark.parametrize("call, need, got", [
    (lambda: kummer_phis(R1.one()), "level-0 CycElt", 1),
    (lambda: kummer_phi(1, R1.one()), "level-0 CycElt", 1),
    (lambda: cw_unit_pair(R0), "level-1 CycRing", 0),
    (lambda: norm_down(R0.one()), "level-1 CycElt", 0),
    (lambda: embed_up(R1.one(), R1), "level-0 CycElt", 1),
    (lambda: embed_up(R0.one(), R0), "level-1 CycRing", 0),
    (lambda: NormCompatiblePair(R0.one(), R0.one()), "level-1 CycElt", 0),
    (lambda: NormCompatiblePair(R1.one(), R1.one()), "level-0 CycElt", 1),
    (lambda: lang_unit(R1, 3), "level-0 CycRing", 1),
    (lambda: lang_generator_search(R1, 1), "level-0 CycRing", 1),
    (lambda: bernoulli_criterion_surrogate(cyc_ring(7, 1), 2),
     "level-0 CycRing", 1),
], ids=["kummer_phis", "kummer_phi", "cw_unit_pair", "norm_down",
        "embed_up-x", "embed_up-ring", "NormCompatiblePair-u1",
        "NormCompatiblePair-u0", "lang_unit", "lang_generator_search",
        "bernoulli_criterion_surrogate"])
def test_unit_entries_refuse_the_wrong_level(call, need, got):
    with pytest.raises(UsageError, match=f"^needs a {need}, got level {got}$"):
        call()
