"""Logarithmic-derivative homomorphisms on units and the two unit families."""

import random
from functools import lru_cache
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigensplit.cyclotomic import (
    NormCompatiblePair,
    cyc_ring,
    eigen_unit,
    galois_apply,
    norm_down,
    unit_pow_zp,
)
from eigensplit.errors import NotOneUnit, UsageError
from eigensplit.formal_groups import _theta_digits
from eigensplit.series import TruncSeries
from eigensplit.kummer import (
    bernoulli_criterion_surrogate,
    cw_unit,
    cw_unit_pair,
    generator_certificate,
    kummer_phi,
    kummer_phis,
    lang_generator_search,
    lang_unit,
)


def _random_one_unit(rng, ring):
    N = ring.ctx.N
    p = ring.ctx.p
    coeffs = [1 + p * rng.randrange(p ** (N - 1))]
    coeffs += [rng.randrange(p ** N) for _ in range(ring.degree - 1)]
    return ring.from_coeffs(coeffs)


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
    # phi_1..phi_{p-2} off one logarithm of f_u to the full degree p-2,
    # untruncated: the oracle for the walk that stops at X^(i+1)
    f = TruncSeries(list(u.coeffs))
    series = f.scale(f.constant_term().invert()).log()
    phis = []
    for _ in range(u.ring.ctx.p - 2):
        series = series.invariant_derivative()
        phis.append(series.constant_term().residue(1))
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
    log = TruncSeries.log

    def spy(self):
        seen.append(self.trunc)
        return log(self)

    monkeypatch.setattr(TruncSeries, "log", spy)
    u = _unit_factors(p)[-1] * _unit_factors(p)[0]
    for i in range(1, p - 1):
        seen.clear()
        kummer_phi(i, u)
        assert seen == [i + 1]
    seen.clear()
    kummer_phis(u)
    assert seen == [p - 1]


def _raised(f, *args):
    try:
        f(*args)
    except Exception as err:
        return type(err)
    return None


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_phi_table_refuses_what_single_indices_refuse(p):
    ring = cyc_ring(p, 0)
    level1 = cyc_ring(p, 1).one()
    for bad, error in ((level1, UsageError),
                       (ring.from_scalar(2), NotOneUnit),
                       (ring.uniformizer(), NotOneUnit)):
        assert _raised(kummer_phis, bad) is error
        assert {_raised(kummer_phi, i, bad) for i in range(1, p - 1)} == {
            error}
    # the range is checked first, whatever the unit
    for i in (0, p - 1):
        assert _raised(kummer_phi, i, ring.from_scalar(2)) is UsageError


def test_phi_additive():
    rng = random.Random(61)
    for p in (3, 5, 7):
        ring = cyc_ring(p, 0)
        for _ in range(10):
            u = _random_one_unit(rng, ring)
            v = _random_one_unit(rng, ring)
            for i in range(1, p - 1):
                assert kummer_phi(i, u * v) == \
                    (kummer_phi(i, u) + kummer_phi(i, v)) % p


def test_phi_galois_equivariant():
    # phi_i(sigma_a u) = a^i phi_i(u)
    rng = random.Random(67)
    for p in (5, 7):
        ring = cyc_ring(p, 0)
        for _ in range(8):
            u = _random_one_unit(rng, ring)
            a = rng.randrange(2, p)
            for i in range(1, p - 1):
                assert kummer_phi(i, galois_apply(a, u)) == \
                    pow(a, i, p) * kummer_phi(i, u) % p


def test_phi_picks_out_eigenparts():
    rng = random.Random(71)
    for p in (5, 7):
        ring = cyc_ring(p, 0)
        for _ in range(4):
            u = _random_one_unit(rng, ring)
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


def test_search_rejects_bad_index():
    ring = cyc_ring(3, 0)
    with pytest.raises(UsageError):
        lang_generator_search(ring, 0)
