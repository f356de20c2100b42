"""Cyclotomic rings: pi-adic digits, Galois action, norms, eigenprojection."""

import hashlib
import random
from fractions import Fraction
from functools import lru_cache
from math import comb
from operator import mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eigensplit import cyclotomic
from eigensplit.cyclotomic import (
    CycElt,
    CycRing,
    NormCompatiblePair,
    as_mu_element,
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
from eigensplit.errors import (
    EigensplitError,
    IndistinguishableFromZero,
    PrecisionExhausted,
    RingMismatch,
    UsageError,
    VerificationError,
)
from eigensplit.kummer import (check_eps1_nontorsion, cw_unit, cw_unit_pair,
                               kummer_phi, lang_unit)
from eigensplit.padic import PadicCtx, PadicInt, power_product
from eigensplit.series import pack_digits, unpack_digits

from conftest import random_one_unit


def test_zeta_has_order_p():
    for p in (3, 5, 7):
        ring = cyc_ring(p, 0)
        z = ring.zeta()
        assert z ** p == ring.one()
        assert z != ring.one()
    ring1 = cyc_ring(5, 1)
    z1 = ring1.zeta()
    assert z1 ** 25 == ring1.one()
    assert z1 ** 5 != ring1.one()


def test_pi_valuations():
    for p, level in ((3, 0), (5, 0), (5, 1)):
        ring = cyc_ring(p, level)
        assert ring.uniformizer().pi_valuation() == 1
        assert ring.from_scalar(p).pi_valuation() == ring.degree
        assert ring.one().pi_valuation() == 0
        # zeta^a - 1 is an associate of pi for a prime to p
        assert (ring.zeta() ** 2 - 1).pi_valuation() == 1


# every Z_p scalar that enters a ring, a Galois action, a Teichmuller
# lift, a lambda or a Z_p exponent, as a call on the level-0 and level-1
# rings at p = 5, N = 4
_READERS = {
    "teichmuller": lambda r0, r1, c: r0.ctx.teichmuller(c),
    "galois_apply/0": lambda r0, r1, c: galois_apply(c, cw_unit(r0)),
    "galois_apply/1": lambda r0, r1, c: galois_apply(c, cw_unit(r1)),
    "lang_unit": lambda r0, r1, c: lang_unit(r0, c),
    "unit_pow_zp": lambda r0, r1, c: unit_pow_zp(cw_unit(r0), c),
    "from_coeffs": lambda r0, r1, c: r0.from_coeffs([1, c]),
}


def test_builders_take_only_ints_and_padic_ints():
    # int() truncated these silently: 1/2 became the digits [0, 0, 0, 0]
    # and 1.7 the digit 1
    ring = cyc_ring(5, 0)
    for bad in (Fraction(1, 2), Fraction(3), 1.7, 2.0):
        with pytest.raises(RingMismatch):
            ring.from_scalar(bad)
        with pytest.raises(RingMismatch):
            ring.from_coeffs([1, bad])
        with pytest.raises(RingMismatch):
            ring.from_zeta([bad, 1])
    assert ring.from_coeffs([True, 3]).digits == [1, 3, 0, 0]
    # each reader once cut these to an int or read the other prime's
    # residue: unit_pow_zp(u, 1/3) gave 1, teichmuller(2.7) omega(2),
    # galois_apply(7/2, u) sigma_3 and lang_unit(ring, 5/2) lambda = 2
    ring1 = cyc_ring(5, 1)
    for read in _READERS.values():
        for bad in (1.5, 2.5, 2.7, Fraction(1, 3), Fraction(5, 2),
                    Fraction(7, 2), PadicCtx(7, 4).of(3),
                    PadicCtx(5, 3).of(3)):
            with pytest.raises(RingMismatch, match="^cannot read "):
                read(ring, ring1, bad)
        read(ring, ring1, 3)
        read(ring, ring1, ring.ctx.of(3))
    # the true cube root, through the exact reader of rationals
    u = cw_unit(ring)
    assert unit_pow_zp(u, ring.ctx.from_rational(Fraction(1, 3))) ** 3 == u


@pytest.mark.parametrize("p", (3, 5, 7))
def test_level1_galois_needs_the_exponent_mod_p_squared(p):
    # sigma_a at level 1 depends on a mod p^2; omega(2) known mod p alone
    # once applied sigma_2 where omega(2) asks for another sigma
    ring1 = cyc_ring(p, 1)
    u1 = cw_unit(ring1)
    w = ring1.ctx.teichmuller(2)
    assert w.residue(2) != 2
    with pytest.raises(PrecisionExhausted, match="mod p\\^2"):
        galois_apply(w.reduce_to(1), u1)
    assert galois_apply(w.reduce_to(2), u1) == galois_apply(w.residue(2), u1)
    # level 0 reads a mod p, which one digit holds
    u0 = cw_unit(ring1.base_ring())
    assert galois_apply(w.reduce_to(1), u0) == galois_apply(2, u0)


def _read_both_ways(f, ctx, c):
    """(digits or value, prec) of f on the int c and on c as a PadicInt
    of ctx, or the type of the exception each raised."""
    out = []
    for arg in (c, ctx.of(c)):
        try:
            x = f(arg)
        except EigensplitError as exc:
            out.append(type(exc))
        else:
            out.append((x.value if isinstance(x, PadicInt) else x.digits,
                        x.prec))
    return out


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([3, 5, 7, 11, 13, 17, 19, 23]), st.integers(2, 6),
       st.integers(-10 ** 6, 10 ** 6), st.randoms(use_true_random=False))
@example(23, 6, 2, random.Random(0))
@example(3, 2, 1, random.Random(0))
def test_int_and_padic_int_read_alike(p, N, c, rng):
    # an int and the same value as a PadicInt of the ring's context give
    # the same digits and prec, or the same refusal; lang_unit lifts an
    # int lambda and takes a PadicInt as given, so it reads a lift
    ring0, ring1 = cyc_ring(p, 0, N), cyc_ring(p, 1, N)
    ctx = ring0.ctx
    u0 = random_one_unit(rng, ring0)
    u1 = random_one_unit(rng, ring1)
    lift = ctx.teichmuller(c).value if c % p else c
    for f, a in ((ctx.teichmuller, c),
                 (lambda a: galois_apply(a, u0), c),
                 (lambda a: galois_apply(a, u1), c),
                 (lambda a: lang_unit(ring0, a), lift),
                 (lambda a: unit_pow_zp(u0, a), c)):
        int_read, padic_read = _read_both_ways(f, ctx, a)
        assert int_read == padic_read


@pytest.mark.parametrize("p, level", ((3, 0), (5, 0), (23, 0), (3, 1),
                                      (5, 1)))
def test_from_zeta_sums_zeta_powers(p, level):
    # sum c_k zeta^k by powers of zeta, with k past the order P and
    # signed coefficients beyond p^N
    rng = random.Random(p + level)
    ring = cyc_ring(p, level)
    P, m = ring.order, ring.ctx.modulus
    z = ring.zeta()
    for length in (1, 2, P - 1, P, 2 * P + 3):
        coeffs = [rng.randrange(-m ** 2, m ** 2) for _ in range(length)]
        want = ring.zero()
        for k, c in enumerate(coeffs):
            want = want + z ** k * (c % m)
        got = ring.from_zeta(coeffs)
        assert (got.digits, got.prec) == (want.digits, want.prec)
    assert ring.from_zeta([-1, 1]).digits == ring.uniformizer().digits
    assert ring.uniformizer().digits == [0, 1] + [0] * (ring.degree - 2)


def test_galois_is_an_action():
    rng = random.Random(31)
    for p, level in ((5, 0), (7, 0), (3, 1), (7, 1), (11, 1), (13, 1)):
        ring = cyc_ring(p, level)
        q = p ** (level + 1)
        units = [a for a in range(1, q) if a % p != 0]
        for _ in range(10):
            a, b = rng.choice(units), rng.choice(units)
            x = random_one_unit(rng, ring)
            assert galois_apply(a, galois_apply(b, x)) == \
                galois_apply(a * b % q, x)
        z = ring.zeta()
        for a in units[:4]:
            assert galois_apply(a, z) == z ** a
    with pytest.raises(UsageError, match="^0 is not a unit mod 5$"):
        galois_apply(5, cyc_ring(5, 0).zeta())


def test_galois_respects_ring_ops():
    rng = random.Random(37)
    ring = cyc_ring(7, 0)
    for _ in range(10):
        x = random_one_unit(rng, ring)
        y = random_one_unit(rng, ring)
        a = rng.choice((2, 3, 4, 5, 6))
        assert galois_apply(a, x * y) == galois_apply(a, x) * galois_apply(a, y)
        assert galois_apply(a, x + y) == galois_apply(a, x) + galois_apply(a, y)


def test_norm_of_one_minus_zeta():
    for p in (3, 5, 7):
        ring = cyc_ring(p, 0)
        assert norm_to_qp(ring.zeta() - 1) == p


def test_norm_down_cyclotomic_compatibility():
    # the norm of zeta_1 - 1 down one level is zeta_0 - 1
    for p in (3, 5):
        ring1 = cyc_ring(p, 1)
        ring0 = ring1.base_ring()
        got = norm_down(ring1.zeta() - 1)
        assert got == ring0.zeta() - 1


def test_norm_down_of_embedded_is_pth_power():
    rng = random.Random(43)
    for p in (5, 7):
        ring1 = cyc_ring(p, 1)
        ring0 = ring1.base_ring()
        for _ in range(5):
            x = random_one_unit(rng, ring0)
            assert norm_down(embed_up(x, ring1)) == x ** p


def test_embed_up_is_a_ring_map():
    rng = random.Random(47)
    ring1 = cyc_ring(3, 1)
    ring0 = ring1.base_ring()
    x = random_one_unit(rng, ring0)
    y = random_one_unit(rng, ring0)
    assert embed_up(x * y, ring1) == embed_up(x, ring1) * embed_up(y, ring1)
    assert embed_up(x + y, ring1) == embed_up(x, ring1) + embed_up(y, ring1)


def test_norm_compatible_pair_guard():
    ring1 = cyc_ring(5, 1)
    ring0 = ring1.base_ring()
    z1, z0 = ring1.zeta(), ring0.zeta()
    NormCompatiblePair(z1 - 1, z0 - 1)
    with pytest.raises(VerificationError,
                       match=r"^norm_down\(u1\) differs from u0$"):
        NormCompatiblePair(z1 - 1, z0 ** 2 - 1)


def test_norms_refuse_a_product_outside_the_base(monkeypatch):
    # a norm that multiplies no conjugates leaves x itself, which is not
    # Galois-invariant: zeta_1 is not in the level-0 subring, and zeta_0
    # is no scalar
    monkeypatch.setattr(cyclotomic, "_orbit_product", lambda x, g, n: x)
    for p in (3, 5, 7):
        ring1 = cyc_ring(p, 1)
        with pytest.raises(VerificationError,
                           match="^norm does not lie in the level-0 subring$"):
            norm_down(ring1.zeta())
        with pytest.raises(VerificationError,
                           match="^norm has nonscalar digits$"):
            norm_to_qp(ring1.base_ring().zeta())
        # a scalar is its own orbit product, and passes
        assert norm_to_qp(ring1.base_ring().one()) == 1


def test_unit_pow_zp_exponent_laws():
    rng = random.Random(53)
    for p in (3, 5, 7):
        ring = cyc_ring(p, 0)
        ctx = ring.ctx
        for _ in range(8):
            u = random_one_unit(rng, ring)
            a = ctx.of(rng.randrange(ctx.modulus))
            b = ctx.of(rng.randrange(ctx.modulus))
            assert unit_pow_zp(u, a) * unit_pow_zp(u, b) == \
                unit_pow_zp(u, a + b)
            assert unit_pow_zp(u, 1) == u
            assert unit_pow_zp(u, 0) == ring.one()
    with pytest.raises(UsageError, match="^Z_p-powers need a 1-unit base$"):
        unit_pow_zp(cyc_ring(5, 0).zeta() - 1, 2)


def test_eigen_unit_idempotent_orthogonal_partition():
    rng = random.Random(59)
    for p in (3, 5):
        ring = cyc_ring(p, 0)
        for _ in range(3):
            u = random_one_unit(rng, ring)
            parts = [eigen_unit(i, u) for i in range(p - 1)]
            prod = ring.one()
            for w in parts:
                prod = prod * w
            assert prod == u
            i = rng.randrange(p - 1)
            j = (i + 1 + rng.randrange(p - 2)) % (p - 1)
            assert eigen_unit(i, parts[i]) == parts[i]
            assert eigen_unit(j, parts[i]) == ring.one()


def test_eigen_valuation_of_pi():
    for p in (3, 5, 7):
        ring = cyc_ring(p, 0)
        assert eigen_valuation(ring.zeta() - 1) == 1
        assert eigen_valuation(ring.from_scalar(p)) == ring.degree
        assert eigen_valuation(ring.from_scalar(1 + p)) == 0


def test_vanishes_mod_pi_needs_digits():
    ring = cyc_ring(5, 0, prec=2)
    x = ring.from_scalar(25)
    with pytest.raises(PrecisionExhausted):
        x.vanishes_mod_pi(ring.degree * 2 + 1)


def test_as_mu_element():
    from eigensplit.padic import PadicCtx

    ctx = PadicCtx(7, 4)
    lam = as_mu_element(ctx, 3)
    assert lam == ctx.teichmuller(3)
    assert as_mu_element(ctx, ctx.of(-1)) == ctx.of(-1)
    with pytest.raises(UsageError, match="^lambda = 1 is excluded$"):
        as_mu_element(ctx, 1)
    with pytest.raises(UsageError, match="^lambda = 1 is excluded$"):
        as_mu_element(ctx, ctx.of(1 + 7))
    # lambda = 0 mod p is refused by name, as an int or as a PadicInt
    for lam in (0, 7, -14, ctx.of(0), ctx.of(7 * 5)):
        with pytest.raises(UsageError,
                           match="^lambda = 0 mod 7 is excluded$"):
            as_mu_element(ctx, lam)
    with pytest.raises(UsageError, match="^lambda = 0 mod 7 is excluded$"):
        lang_unit(cyc_ring(7, 0, 4), ctx.of(0))


def test_torsion_window_is_too_shallow():
    # every mu_p element passes the shallow test, but so does 1 + p:
    # the p-th power of any 1-unit congruent to 1 mod pi^2 dies mod
    # pi^{p+1}, which is why this window cannot certify non-torsion
    for p in (3, 5):
        ring = cyc_ring(p, 0, prec=4, pi_prec=2 * p + 2)
        z = ring.zeta()
        for k in range(p):
            assert unit_is_p_torsion(z ** k)
        assert unit_is_p_torsion(ring.from_scalar(1 + p))


def _roots_of_unity(ring):
    """Every omega(a) zeta^k, a in F_p^*, k < p^(level+1)."""
    ctx = ring.ctx
    zk = ring.one()
    for _ in range(ctx.p ** (ring.level + 1)):
        for a in range(1, ctx.p):
            yield zk * ctx.teichmuller(a)
        zk = zk * ring.zeta()


def test_nontorsion_certified():
    # at level n the roots of unity are mu_(p-1) times mu_(p^(n+1)); none
    # is certified, while pi and the units 1+p, 2(1+p) and zeta(1+p) are
    for p in (3, 5, 7):
        for level in (0, 1):
            ring = cyc_ring(p, level)
            for root in _roots_of_unity(ring):
                assert not nontorsion_certified(root)
            z = ring.zeta()
            for u in (ring.uniformizer(), ring.from_scalar(1 + p),
                      ring.from_scalar(2 * (1 + p)),
                      z * ring.from_scalar(1 + p)):
                assert nontorsion_certified(u)


def test_eps1_shallow_criteria_are_honestly_false():
    # the pi^{p+1} display and the derived non-torsion claim fail for
    # every lambda; the sound certificate is nontorsion_certified
    for p in (3, 5, 7):
        ring = cyc_ring(p, 0)
        for a in range(2, p):
            assert not eps1_intermediate_congruence(ring, a)
            assert not check_eps1_nontorsion(ring, a)


def test_eps1_projection_of_minus_one_lambda_is_torsion():
    # at lambda = -1 the projected unit is exactly zeta^{(p+1)/2}
    from eigensplit.kummer import lang_unit

    for p in (3, 5, 7):
        ring = cyc_ring(p, 0)
        u = lang_unit(ring, ring.ctx.of(-1))
        e1 = eigen_unit(1, u)
        assert e1 == ring.zeta() ** ((p + 1) // 2)
        assert not nontorsion_certified(e1)


def test_eps1_projection_generic_lambda_is_certified():
    from eigensplit.kummer import lang_unit

    for p, lams in ((5, (2, 3)), (7, (2, 3, 4, 5))):
        ring = cyc_ring(p, 0)
        for a in lams:
            u = eigen_unit(1, lang_unit(ring, a))
            assert nontorsion_certified(u)


def test_eigen_valuation_returns_fraction():
    ring = cyc_ring(5, 0)
    v = eigen_valuation(ring.zeta() - 1)
    assert isinstance(v, Fraction)


@pytest.mark.parametrize("p, N, w", [(5, 4, None), (5, 3, 6), (7, 4, 10)])
def test_one_ring_per_key(p, N, w):
    ring0 = cyc_ring(p, 0, N, w)
    assert CycRing(PadicCtx(p, N), 0, w) is ring0
    assert cyc_ring(p, 1, N, w).base_ring() is ring0
    assert norm_down(cyc_ring(p, 1, N, w).zeta()).ring is ring0


def test_ring_arguments_are_read_before_the_lookup():
    # a cache keyed on the raw arguments once handed cyc_ring(5.0, 0) and
    # cyc_ring(5, 0.0) the ring of cyc_ring(5, 0), once that was built
    cyc_ring(5, 0)
    with pytest.raises(UsageError, match="^5.0 is not an odd prime$"):
        cyc_ring(5.0, 0)
    with pytest.raises(UsageError, match=r"^level must be in 0\.\.1, got 0\.0$"):
        cyc_ring(5, 0.0)


def test_mixed_rings_raise_ring_mismatch():
    x = cyc_ring(5, 0, 4).zeta()
    ring1 = cyc_ring(5, 1, 4)
    # another context, and the same context at another window
    for other in (cyc_ring(5, 0, 3), cyc_ring(5, 0, 4, 6)):
        with pytest.raises(RingMismatch, match="^mixed cyclotomic rings$"):
            x + other.one()
        with pytest.raises(RingMismatch, match="^rings are not aligned$"):
            embed_up(other.one(), ring1)
    # the default window spelled out is the same ring
    assert cyc_ring(5, 0) is cyc_ring(5, 0, 4, 8)
    assert x * cyc_ring(5, 0, 4, 8).one() == cyc_ring(5, 0).zeta()
    assert embed_up(cyc_ring(5, 0, 4, 8).one(), ring1) == ring1.one()


def test_bad_ring_arguments_are_usage_errors():
    with pytest.raises(UsageError):
        CycRing(PadicCtx(5, 4), 2)
    with pytest.raises(UsageError):
        CycRing(PadicCtx(5, 1), 1)  # level 1 Galois needs 2 digits
    with pytest.raises(UsageError):
        cyc_ring(5, 0, prec=1, pi_prec=8)
    with pytest.raises(UsageError):
        cyc_ring(5, 0, pi_prec=0)
    with pytest.raises(UsageError, match=r"^level must be in 0\.\.1, got 0\.0$"):
        CycRing(PadicCtx(5, 4), 0.0)
    with pytest.raises(UsageError, match=r"^pi_prec must be in 1\.\.16, got 2\.5$"):
        cyc_ring(5, 0, 4, 2.5)


# -- the packed kernel against the per-digit schoolbook product -------------

@lru_cache(maxsize=None)
def _eisenstein_tail(p, level, N):
    """The lower coefficients mod p^N of the monic Eisenstein modulus of
    pi = zeta - 1, Phi_P(1 + X) = sum_{k<p} (1 + X)^(k p^level)."""
    d, step = p ** level * (p - 1), p ** level
    full = [0] * (d + 1)
    for k in range(0, p * step, step):
        for j in range(min(k, d) + 1):
            full[j] += comb(k, j)
    assert full[d] == 1 and full[0] == p
    return tuple(t % p ** N for t in full[:d])


def _schoolbook(x, y):
    """The per-digit product the packed kernel replaced: PadicInt digits,
    schoolbook convolution, then reduction by the Eisenstein modulus."""
    ring = x.ring
    d = ring.degree
    raw = [ring.ctx.of(0)] * (2 * d - 1)
    for i, a in enumerate(x.coeffs):
        for j, b in enumerate(y.coeffs):
            raw[i + j] = raw[i + j] + a * b
    for deg in range(2 * d - 2, d - 1, -1):
        c = raw[deg]
        for j, m in enumerate(_eisenstein_tail(ring.ctx.p, ring.level,
                                               ring.ctx.N)):
            raw[deg - d + j] = raw[deg - d + j] - c * m
    return raw[:d]


@st.composite
def _elements(draw, ring, count):
    """Elements of ``ring``, each with its own prec in 1..N."""
    out = []
    for _ in range(count):
        prec = draw(st.integers(1, ring.ctx.N))
        digits = draw(st.lists(
            st.integers(0, ring.ctx.p ** prec - 1),
            min_size=ring.degree, max_size=ring.degree,
        ))
        out.append(ring.from_coeffs([ring.ctx.of(c, prec) for c in digits]))
    return out


_PRIMES = st.sampled_from((3, 5, 7, 11, 13))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_packed_multiply_matches_schoolbook(data):
    ring = cyc_ring(data.draw(_PRIMES), data.draw(st.sampled_from((0, 1))))
    x, y = data.draw(_elements(ring, 2))
    prec = min(x.prec, y.prec)
    want = _schoolbook(x, y)
    got = x * y
    assert got.prec == prec
    assert all(c.prec == prec for c in want)
    assert [c.lift() for c in got.coeffs] == [c.lift() for c in want]
    assert (x + y).prec == (x - y).prec == prec


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_power_matches_repeated_products(data):
    # x ** n through the shared squaring chain against n - 1 products,
    # digits and prec; x ** 0 is one at full prec
    p = data.draw(st.sampled_from((3, 5, 7)))
    ring = cyc_ring(p, data.draw(st.sampled_from((0, 1))))
    (x,) = data.draw(_elements(ring, 1))
    n = data.draw(st.integers(0, 3 * p))
    want = ring.one()
    for _ in range(n):
        want = want * x
    got = x ** n
    assert (got.digits, got.prec) == (want.digits, want.prec)


@pytest.mark.parametrize("N", (2, 3))
@pytest.mark.parametrize("p", (3, 5, 7))
def test_level1_pi_prec_is_bounded_by_the_base_ring(p, N):
    # every level-1 window the ring accepts is one its base ring holds, so
    # the norm runs; one more is refused when the ring is built
    top = N * (p - 1)
    u = lang_unit(cyc_ring(p, 0, N), 2)
    for pi_prec in range(1, top + 1):
        ring1 = cyc_ring(p, 1, N, pi_prec)
        ring0 = ring1.base_ring()
        assert ring0.pi_prec == pi_prec
        assert norm_down(ring1.zeta()) == ring0.zeta()
        x = ring0.from_coeffs(u.digits)
        assert norm_down(embed_up(x, ring1)) == x ** p
    with pytest.raises(UsageError,
                       match=rf"^pi_prec must be in 1\.\.{top}, got {top + 1}$"):
        cyc_ring(p, 1, N, top + 1)


# -- the zeta-basis Galois action, norm and embedding against the paths
# they replaced ---------------------------------------------------------------

def _horner_galois(a, x):
    """sigma_a as the digit polynomial evaluated at zeta^a - 1 by Horner."""
    ring = x.ring
    image = ring.zeta() ** a - 1
    coeffs = x.coeffs
    acc = ring.from_scalar(coeffs[-1])
    for c in reversed(coeffs[:-1]):
        acc = acc * image + c
    return acc


def _pi0_powers(ring1):
    """pi_0^j = ((1 + pi_1)^p - 1)^j for j < p - 1, as level-1 elements."""
    p = ring1.ctx.p
    e = ring1.zeta() ** p - 1
    powers = [ring1.one()]
    for _ in range(p - 2):
        powers.append(powers[-1] * e)
    return powers


def _norm_down_by_peel(x):
    """The product of the Horner conjugates, peeled against the staircase
    basis pi_0^j, whose top digit sits at position p*j with coefficient 1."""
    ring = x.ring
    p = ring.ctx.p
    acc = x
    for k in range(1, p):
        acc = acc * _horner_galois(1 + k * p, x)
    residual = acc
    out = [0] * (p - 1)
    for j, power in reversed(list(enumerate(_pi0_powers(ring)))):
        out[j] = residual.digits[p * j]
        residual = residual - power * out[j]
    return CycElt(ring.base_ring(), out, acc.prec)


def _embed_by_powers(x, ring1):
    """sum c_j pi_0^j over the digits c_j of a level-0 element."""
    acc = ring1.from_coeffs([ring1.ctx.of(0, x.prec)])
    for c, power in zip(x.digits, _pi0_powers(ring1)):
        acc = acc + power * c
    return acc


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_galois_permutation_matches_horner(data):
    p = data.draw(_PRIMES)
    level = data.draw(st.sampled_from((0, 1)))
    ring = cyc_ring(p, level)
    (x,) = data.draw(_elements(ring, 1))
    q = p ** (level + 1)
    a = data.draw(st.integers(1, q - 1).filter(lambda a: a % p))
    want = _horner_galois(a, x)
    got = galois_apply(a, x)
    assert got.prec == want.prec == x.prec
    assert got.digits == want.digits


@st.composite
def _level1_rings(draw):
    """Level-1 rings with mixed prec and pi_prec, pi_prec within what the
    level-0 ring below accepts."""
    p = draw(_PRIMES)
    prec = draw(st.integers(2, 5))
    return cyc_ring(p, 1, prec, draw(st.integers(1, prec * (p - 1))))


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_norm_down_and_embed_up_match_pi0_powers(data):
    ring1 = data.draw(_level1_rings())
    ring0 = ring1.base_ring()
    (x1,) = data.draw(_elements(ring1, 1))
    (x0,) = data.draw(_elements(ring0, 1))
    up = embed_up(x0, ring1)
    want = _embed_by_powers(x0, ring1)
    assert up.prec == want.prec == x0.prec
    assert up.digits == want.digits
    want = _norm_down_by_peel(x1)
    if -(-ring1.pi_prec // ring1.degree) > x1.prec:
        # too few p-adic digits to test the subring membership
        with pytest.raises(PrecisionExhausted):
            norm_down(x1)
        return
    got = norm_down(x1)
    assert got.ring == ring0
    assert got.prec == want.prec == x1.prec
    assert got.digits == want.digits


# -- the shared squaring chain and the one-conjugate reads against the
# per-base paths they replaced -------------------------------------------------

def _stable_exponent_prec(ring, v0):
    """The p-power steps that carry v(u - 1) = v0 past pi_prec: a p-th
    power moves v to min(degree + v, p v)."""
    v, k = v0, 0
    while v < ring.pi_prec:
        v = min(ring.degree + v, ring.ctx.p * v)
        k += 1
    return k


def _per_base_pow_zp(u, c):
    """unit_pow_zp as it was: its own 1-unit check and valuation, then a
    square-and-multiply chain for this base alone."""
    ring = u.ring
    if not u.is_one_unit():
        raise UsageError("Z_p-powers need a 1-unit base")
    try:
        v0 = (u - 1).pi_valuation()
    except IndistinguishableFromZero:
        return ring.one()
    k = _stable_exponent_prec(ring, v0)
    if isinstance(c, PadicInt):
        if c.prec < k:
            raise PrecisionExhausted(f"residue mod p^{k} requested but "
                                     f"only {c.prec} digits known")
        c = c.value
    return u ** (int(c) % ring.ctx.p ** k)


def _per_base_eigen_unit(i, u):
    """The eigenprojection as a product of p-1 separate Z_p-powers."""
    ring = u.ring
    if not u.is_one_unit():
        raise UsageError("eigenprojection acts on 1-units")
    ctx = ring.ctx
    p = ctx.p
    i = i % (p - 1)
    inv_order = ctx.of(p - 1).invert()
    acc = ring.one()
    for a in range(1, p):
        conj = galois_apply(ctx.teichmuller(a), u)
        w_inv_i = ctx.teichmuller(pow(a, -1, p)) ** i
        acc = acc * _per_base_pow_zp(conj, w_inv_i * inv_order)
    return acc


def _all_roots_nontorsion(u):
    """The torsion scan against every root of unity omega(a) zeta^k."""
    for root in _roots_of_unity(u.ring):
        try:
            (u - root).pi_valuation()
        except (IndistinguishableFromZero, PrecisionExhausted):
            return False
    return True


def _average_eigen_valuation(u):
    """The average pi-valuation over the Teichmuller conjugates."""
    ctx = u.ring.ctx
    total = sum(
        galois_apply(ctx.teichmuller(a), u).pi_valuation()
        for a in range(1, ctx.p)
    )
    return Fraction(total, ctx.p - 1)


def _outcome(f, *args):
    """(digits, prec) of an element, another value as is, or the type and
    message of the exception raised."""
    try:
        out = f(*args)
    except EigensplitError as exc:
        return type(exc), str(exc)
    return (out.digits, out.prec) if isinstance(out, CycElt) else out


_UNIT_KINDS = ("cw", "lang", "lang-minus-one", "one", "not-one")
_EIGEN_RINGS = [(p, 0) for p in (3, 5, 7, 11, 13, 17, 19, 23)] + [(5, 1), (7, 1)]


def _eigen_case_unit(ring, kind, rng):
    p = ring.ctx.p
    if kind == "cw":
        return cw_unit(ring)
    if kind == "one":
        # 1 + pi^pi_prec x: equal to 1 at the working precision
        x = ring.from_scalar(rng.randrange(1, p ** ring.ctx.N))
        return ring.one() + ring.uniformizer() ** ring.pi_prec * x
    ring0 = ring.base_ring() if ring.level else ring
    lam = -1 if kind == "lang-minus-one" else rng.randrange(2, p)
    u = lang_unit(ring0, ring0.ctx.of(lam))
    if kind == "not-one":
        u = u * ring0.ctx.teichmuller(2 + rng.randrange(p - 2))
    return embed_up(u, ring) if ring.level else u


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_EIGEN_RINGS), st.integers(1, 6),
       st.sampled_from(_UNIT_KINDS), st.integers(0, 2 ** 32))
@example((23, 0), 4, "lang-minus-one", 0)
@example((23, 0), 6, "cw", 0)
@example((7, 0), 3, "one", 0)
@example((5, 1), 2, "cw", 0)
@example((7, 1), 4, "lang", 0)
@example((5, 1), 3, "lang-minus-one", 0)
@example((3, 0), 1, "not-one", 0)
def test_shared_chain_matches_per_base_paths(ring_key, N, kind, seed):
    (p, level), rng = ring_key, random.Random(seed)
    N = max(N, level + 1)
    ring = cyc_ring(p, level, N, min(p + 3, N * (p - 1)))
    u = _eigen_case_unit(ring, kind, rng)
    assert (_outcome(nontorsion_certified, u)
            == _outcome(_all_roots_nontorsion, u))
    assert _outcome(eigen_valuation, u) == _outcome(_average_eigen_valuation, u)
    for i in range(p - 1):
        got = _outcome(eigen_unit, i, u)
        assert got == _outcome(_per_base_eigen_unit, i, u)
        if isinstance(got[0], type):  # refused: (type, message)
            continue
        e = CycElt(ring, *got)
        assert nontorsion_certified(e) == _all_roots_nontorsion(e)
        assert _outcome(eigen_valuation, e - 1) == \
            _outcome(_average_eigen_valuation, e - 1)
    # a Z_p exponent known to a random number of digits
    c = ring.ctx.of(rng.randrange(p ** N), rng.randint(1, N))
    assert _outcome(unit_pow_zp, u, c) == _outcome(_per_base_pow_zp, u, c)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_galois_keeps_pi_valuation(data):
    p = data.draw(_PRIMES)
    level = data.draw(st.sampled_from((0, 1)))
    ring = cyc_ring(p, level)
    (x,) = data.draw(_elements(ring, 1))
    # push some digits down so that deep valuations and zero occur
    x = x * ring.uniformizer() ** data.draw(
        st.integers(0, ring.degree * ring.ctx.N))
    q = p ** (level + 1)
    a = data.draw(st.integers(1, q - 1).filter(lambda a: a % p))
    assert _outcome(CycElt.pi_valuation, galois_apply(a, x)) == \
        _outcome(CycElt.pi_valuation, x)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23])
def test_unit_pow_zp_matches_the_per_base_chain(p):
    # Coates-Wiles and Lang units, with int exponents and PadicInt ones
    # known to each number of digits (too few for a deep unit is refused)
    rng = random.Random(3600 + p)
    for N in (1, 2, 4):
        ring = cyc_ring(p, 0, N)
        for u in [cw_unit(ring)] + [lang_unit(ring, a) for a in range(2, p)]:
            q = p ** N
            exponents = [0, 1, -1, p, rng.randrange(q)] + [
                ring.ctx.of(rng.randrange(q), k) for k in range(1, N + 1)]
            for c in exponents:
                assert _outcome(unit_pow_zp, u, c) == \
                    _outcome(_per_base_pow_zp, u, c), (N, c)
            with pytest.raises(UsageError,
                               match="^Z_p-powers need a 1-unit base$"):
                unit_pow_zp(u * 2, 1)


# -- the predicates that read pi_valuation against the digit loops they
# replaced ---------------------------------------------------------------------

def _digit_loop_vanishes_mod_pi(x, M):
    """vanishes_mod_pi as it was: c_j = 0 mod p^ceil((M-j)/degree) at
    every j < M."""
    d = x.ring.degree
    if -(-M // d) > x.prec:
        raise PrecisionExhausted(f"digits have {x.prec} p-adic digits, need "
                                 f"{-(-M // d)} to test mod pi^{M}")
    p = x.ring.ctx.p
    return all(c % p ** -(-(M - j) // d) == 0
               for j, c in enumerate(x.digits) if j < M)


def _exception_is_one_unit(x):
    """is_one_unit as it was: the valuation of x - 1."""
    try:
        return (x - 1).pi_valuation() >= 1
    except IndistinguishableFromZero:
        return True


_PREDICATE_RINGS = [(p, 0) for p in (3, 5, 7, 11, 13, 17, 19, 23)] + \
    [(p, 1) for p in (3, 5, 7)]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_predicates_match_digit_loops(data):
    p, level = data.draw(st.sampled_from(_PREDICATE_RINGS))
    ring = cyc_ring(p, level)
    (x,) = data.draw(_elements(ring, 1))
    kind = data.draw(st.sampled_from(("shifted", "zero", "one-plus")))
    if kind == "zero":
        x = ring.from_coeffs([ring.ctx.of(0, x.prec)])
    else:
        # deep valuations, and zero at a shift of degree*N; "one-plus"
        # makes 1-units from positive shifts
        shift = data.draw(st.integers(0, ring.degree * ring.ctx.N))
        x = x * ring.uniformizer() ** shift
        if kind == "one-plus":
            x = x + 1
    assert x.is_one_unit() == _exception_is_one_unit(x)
    for M in range(1, ring.degree * (x.prec + 1) + 1):
        assert _outcome(CycElt.vanishes_mod_pi, x, M) == \
            _outcome(_digit_loop_vanishes_mod_pi, x, M)


def test_eigen_unit_squares_once_for_all_conjugates(monkeypatch):
    # at most L squarings plus one multiply per set exponent bit, L the bit
    # length of the largest reduced exponent; a chain per conjugate pays
    # L squarings each
    p = 23
    ring = cyc_ring(p, 0)
    ctx = ring.ctx
    inv_order = ctx.of(p - 1).invert()
    count = [0]
    mul = CycElt.__mul__

    def counting_mul(x, y):
        count[0] += 1
        return mul(x, y)

    for u in (cw_unit(ring), lang_unit(ring, 3)):
        k = _stable_exponent_prec(ring, (u - 1).pi_valuation())
        for i in (1, 2, 11):
            exps = [(ctx.teichmuller(pow(a, -1, p)) ** i * inv_order).value
                    % p ** k for a in range(1, p)]
            monkeypatch.setattr(CycElt, "__mul__", counting_mul)
            count[0] = 0
            eigen_unit(i, u)
            monkeypatch.setattr(CycElt, "__mul__", mul)
            bound = max(exps).bit_length() + sum(bin(e).count("1")
                                                 for e in exps)
            assert 0 < count[0] <= bound


# -- the doubling norms against the conjugate-by-conjugate loops they
# replaced ---------------------------------------------------------------------

def _loop_norm_down(x):
    """norm_down as it was: the p conjugates sigma_(1+kp) multiplied in
    one at a time."""
    ring = x.ring
    if ring.level != 1:
        raise UsageError("norm_down starts at level 1")
    p = ring.ctx.p
    acc = x
    for k in range(1, p):
        acc = acc * galois_apply(1 + k * p, x)
    out = _oracle_from_zeta(ring.base_ring(),
                            _oracle_to_zeta(_PiElt.of(acc))[::p],
                            acc.prec).elt()
    if not (acc - embed_up(out, ring)).vanishes_mod_pi(ring.pi_prec):
        raise VerificationError("norm does not lie in the level-0 subring")
    return out


def _loop_norm_to_qp(x):
    """norm_to_qp as it was: the p - 1 conjugates sigma_a multiplied in
    one at a time."""
    ring = x.ring
    if ring.level == 1:
        return _loop_norm_to_qp(_loop_norm_down(x))
    acc = x
    for a in range(2, ring.ctx.p):
        acc = acc * galois_apply(a, x)
    scalar = ring.ctx.of(acc.digits[0], acc.prec)
    if not (acc - scalar).vanishes_mod_pi(ring.pi_prec):
        raise VerificationError("norm has nonscalar digits")
    return scalar


def _norm_outcome(f, x):
    """(value, prec) of a PadicInt, _outcome of anything else."""
    out = _outcome(f, x)
    return (out.value, out.prec) if isinstance(out, PadicInt) else out


_NORM_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


@st.composite
def _norm_cases(draw):
    """A level-0 ring (p <= 31, N <= 6) or a level-1 ring (p <= 7), with
    any pi_prec the ring accepts, and an element: a Lang unit, the
    Coates-Wiles unit, random digits (non-units included), or one of those
    reduced to fewer p-adic digits."""
    level = draw(st.sampled_from((0, 1)))
    p = draw(st.sampled_from(_NORM_PRIMES[:3] if level else _NORM_PRIMES))
    N = draw(st.integers(level + 1, 6))
    ring = cyc_ring(p, level, N, draw(st.integers(1, N * (p - 1))))
    kind = draw(st.sampled_from(("lang", "cw", "digits")))
    if kind == "digits":
        (x,) = draw(_elements(ring, 1))
    elif kind == "cw":
        x = cw_unit(ring)
    else:
        ring0 = ring.base_ring() if level else ring
        u = lang_unit(ring0, draw(st.integers(2, p - 1)))
        x = embed_up(u, ring) if level else u
    if draw(st.booleans()):
        prec = draw(st.integers(1, x.prec))
        x = CycElt(ring, [c % p ** prec for c in x.digits], prec)
    return x


@settings(max_examples=150, deadline=None)
@given(_norm_cases())
@example(cw_unit(cyc_ring(23, 0)))
@example(lang_unit(cyc_ring(31, 0, 6, 180), 3))
@example(cw_unit(cyc_ring(3, 1, 2)))
@example(cw_unit(cyc_ring(7, 1)))
def test_doubling_norms_match_conjugate_loops(x):
    assert _norm_outcome(norm_to_qp, x) == _norm_outcome(_loop_norm_to_qp, x)
    if x.ring.level == 1:
        assert _outcome(norm_down, x) == _outcome(_loop_norm_down, x)


def test_norms_take_log_p_conjugates(monkeypatch):
    # (bit_length(n) - 1) + (popcount(n) - 1) conjugates and products: n =
    # 22 = 0b10110 gives 4 + 2 at p = 23, n = 7 = 0b111 gives 2 + 2 for
    # norm_down at p = 7; the loop paid n - 1 of each
    count = {"galois": 0, "mul": 0}
    galois, mul = cyclotomic.galois_apply, CycElt.__mul__

    def counting_galois(a, x):
        count["galois"] += 1
        return galois(a, x)

    def counting_mul(x, y):
        count["mul"] += 1
        return mul(x, y)

    for norm, ring, want in ((norm_to_qp, cyc_ring(23, 0), 6),
                             (norm_down, cyc_ring(7, 1), 4)):
        x = cw_unit(ring)
        monkeypatch.setattr(cyclotomic, "galois_apply", counting_galois)
        monkeypatch.setattr(CycElt, "__mul__", counting_mul)
        count.update(galois=0, mul=0)
        norm(x)
        monkeypatch.undo()
        assert count == {"galois": want, "mul": want}


def test_norms_pinned():
    # SHA-256 of the norms and pairs as the conjugate-by-conjugate loops
    # gave them: norm_to_qp (value, prec) of every Lang unit and the
    # Coates-Wiles unit at p <= 23, N in {2, 4}, and the cw_unit_pair
    # digits and precs at p in {5, 7}
    rows = []
    for p in (3, 5, 7, 11, 13, 17, 19, 23):
        for N in (2, 4):
            ring = cyc_ring(p, 0, N)
            units = [lang_unit(ring, lam) for lam in range(2, p)]
            units.append(cw_unit(ring))
            rows.extend((p, N, n.value, n.prec)
                        for n in map(norm_to_qp, units))
    for p in (5, 7):
        pair = cw_unit_pair(cyc_ring(p, 1))
        rows.append((p, pair.u1.digits, pair.u1.prec,
                     pair.u0.digits, pair.u0.prec))
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == \
        "fe0172b6b9df6eae3a07c6b14573ed209520a22b4753dc7dae1c2732e2f6a8c5"


# -- the zeta-power storage against the pi-basis ring it replaced -------------
#
# _PiElt keeps an element as its pi-adic digits, as the ring did before its
# elements moved to the zeta-power basis: a product is a Kronecker product
# whose slots of degree >= d fold back through the packed residues of
# X^d, X^(d+1), ... mod the Eisenstein modulus, and sigma_a converts the
# digits to the zeta-power basis and back.


@lru_cache(maxsize=None)
def _pi_tables(p, level, N):
    """Slot width, fold columns and Pascal rows of the pi-basis ring."""
    ring = cyc_ring(p, level, N)
    m, d, tail = ring.ctx.modulus, ring.degree, _eisenstein_tail(p, level, N)
    w = 2 * m.bit_length() + d.bit_length() + 1
    r = [-t % m for t in tail]
    fold = []
    for _ in range(d - 1):
        fold.append(pack_digits(r, w))
        top = r[-1]
        r = [(c - top * t) % m for c, t in zip([0] + r[:-1], tail)]
    to_zeta, from_zeta = [], []
    row = [1]
    for n in range(d):
        from_zeta.append(pack_digits(row, w))
        to_zeta.append(pack_digits(
            [(-1) ** (n - i) * c % m for i, c in enumerate(row)], w))
        row = [1] + [(a + b) % m for a, b in zip(row, row[1:])] + [1]
    return w, fold, to_zeta, from_zeta


def _packed_sum(columns, coeffs):
    return sum(c * col for c, col in zip(coeffs, columns))


class _PiElt:
    """An element as pi-adic digits mod p^prec, with the pi-basis ops."""

    def __init__(self, ring, digits, prec):
        self.ring, self.digits, self.prec = ring, digits, prec

    @classmethod
    def of(cls, x):
        return cls(x.ring, list(x.digits), x.prec)

    def elt(self):
        return CycElt(self.ring, self.digits, self.prec)

    def outcome(self):
        return (self.digits, self.prec)

    def _tables(self):
        return _pi_tables(self.ring.ctx.p, self.ring.level, self.ring.ctx.N)

    def _coerce(self, other):
        if isinstance(other, _PiElt):
            return other
        ctx = self.ring.ctx
        prec = other.prec if isinstance(other, PadicInt) else ctx.N
        value = other.value if isinstance(other, PadicInt) else other
        digits = [value % ctx.p ** prec] + [0] * (self.ring.degree - 1)
        return _PiElt(self.ring, digits, prec)

    def _zip(self, other, op):
        o = self._coerce(other)
        prec = min(self.prec, o.prec)
        q = self.ring.ctx.p ** prec
        return _PiElt(self.ring, [op(a, b) % q for a, b in
                                  zip(self.digits, o.digits)], prec)

    def __add__(self, other):
        return self._zip(other, lambda a, b: a + b)

    def __sub__(self, other):
        return self._zip(other, lambda a, b: a - b)

    def __neg__(self):
        q = self.ring.ctx.p ** self.prec
        return _PiElt(self.ring, [-a % q for a in self.digits], self.prec)

    def __mul__(self, other):
        o = self._coerce(other)
        d = self.ring.degree
        w, fold, _, _ = self._tables()
        prec = min(self.prec, o.prec)
        q = self.ring.ctx.p ** prec
        prod = pack_digits(self.digits, w) * pack_digits(o.digits, w)
        high = [h % q for h in unpack_digits(prod >> d * w, w, d - 1)]
        acc = (prod & ((1 << d * w) - 1)) + _packed_sum(fold, high)
        return _PiElt(self.ring, [c % q for c in unpack_digits(acc, w, d)],
                      prec)

    def __pow__(self, n):
        acc = power_product(mul, [self], [n])
        return self._coerce(1) if acc is None else acc

    def valuation(self):
        p, d = self.ring.ctx.p, self.ring.degree
        for v in range(self.prec):
            for j, c in enumerate(self.digits):
                if c % p ** (v + 1):
                    return j + d * v
        raise IndistinguishableFromZero("zero at the working precision")

    def vanishes(self, M):
        need = -(-M // self.ring.degree)
        if need > self.prec:
            raise PrecisionExhausted(f"digits have {self.prec} p-adic digits, "
                                     f"need {need} to test mod pi^{M}")
        try:
            return self.valuation() >= M
        except IndistinguishableFromZero:
            return True

    def is_one_unit(self):
        return self.digits[0] % self.ring.ctx.p == 1


def _oracle_to_zeta(x):
    """x on the basis 1, zeta, ..., zeta^(d-1), mod p^prec."""
    w, _, to_zeta, _ = x._tables()
    q = x.ring.ctx.p ** x.prec
    packed = _packed_sum(to_zeta, x.digits)
    return [c % q for c in unpack_digits(packed, w, x.ring.degree)]


def _oracle_from_zeta(ring, coeffs, prec):
    """sum coeffs[k] zeta^k, k < d, as a _PiElt of ``ring``."""
    w, _, _, from_zeta = _pi_tables(ring.ctx.p, ring.level, ring.ctx.N)
    q = ring.ctx.p ** prec
    packed = _packed_sum(from_zeta, [c % q for c in coeffs])
    return _PiElt(ring, [c % q for c in unpack_digits(packed, w, ring.degree)],
                  prec)


def _pi_galois(a, x):
    """sigma_a through the zeta-power basis: zeta^k -> zeta^(ak), and an
    image zeta^(d+r) spills as -(sum over j < p-1 of zeta^(j p^n + r))."""
    ring = x.ring
    p = ring.ctx.p
    q = p ** (ring.level + 1)
    a = int(a.value if isinstance(a, PadicInt) else a) % q
    if a % p == 0:
        raise UsageError(f"{a} is not a unit mod {q}")
    d, step = ring.degree, q // p
    out, spill = [0] * d, [0] * step
    for k, c in enumerate(_oracle_to_zeta(x)):
        e = a * k % q
        if e < d:
            out[e] = c
        else:
            spill[e - d] = c
    for r, c in enumerate(spill):
        for j in range(r, d, step):
            out[j] -= c
    return _oracle_from_zeta(ring, out, x.prec)


def _pi_embed_up(x, ring1):
    coeffs = [0] * ring1.degree
    coeffs[::ring1.ctx.p] = _oracle_to_zeta(x)
    return _oracle_from_zeta(ring1, coeffs, x.prec)


def _pi_norm_down(x):
    ring = x.ring
    if ring.level != 1:
        raise UsageError("norm_down starts at level 1")
    p = ring.ctx.p
    acc = x
    for k in range(1, p):
        acc = acc * _pi_galois(1 + k * p, x)
    out = _oracle_from_zeta(ring.base_ring(), _oracle_to_zeta(acc)[::p],
                            acc.prec)
    if not (acc - _pi_embed_up(out, ring)).vanishes(ring.pi_prec):
        raise VerificationError("norm does not lie in the level-0 subring")
    return out


def _pi_norm_to_qp(x):
    ring = x.ring
    if ring.level == 1:
        return _pi_norm_to_qp(_pi_norm_down(x))
    acc = x
    for a in range(2, ring.ctx.p):
        acc = acc * _pi_galois(a, x)
    scalar = ring.ctx.of(acc.digits[0], acc.prec)
    if not (acc - scalar).vanishes(ring.pi_prec):
        raise VerificationError("norm has nonscalar digits")
    return scalar


def _pi_eigen_unit(i, u):
    """The eigenprojection on one shared squaring chain, each exponent
    reduced as far as its conjugate's valuation allows."""
    ring = u.ring
    if not u.is_one_unit():
        raise UsageError("eigenprojection acts on 1-units")
    ctx = ring.ctx
    p = ctx.p
    i = i % (p - 1)
    inv_order = ctx.of(p - 1).invert()
    bases, reduced = [], []
    for a in range(1, p):
        conj = _pi_galois(ctx.teichmuller(a), u)
        c = ctx.teichmuller(pow(a, -1, p)) ** i * inv_order
        try:
            k = _stable_exponent_prec(ring, (conj - 1).valuation())
        except IndistinguishableFromZero:
            k = 0
        if c.prec < k:
            raise PrecisionExhausted(f"residue mod p^{k} requested but "
                                     f"only {c.prec} digits known")
        bases.append(conj)
        reduced.append(c.value % p ** k)
    acc = power_product(mul, bases, reduced)
    return u._coerce(1) if acc is None else acc


def _both(f, g, *args):
    """The outcomes of f on CycElts and of g on the same _PiElts: (digits,
    prec), a PadicInt's (value, prec), or the type of the exception."""
    def run(fn, wrap):
        try:
            out = fn(*[wrap(a) for a in args])
        except EigensplitError as exc:
            return type(exc)
        if isinstance(out, PadicInt):
            return (out.value, out.prec)
        return (list(out.digits), out.prec)
    return (run(f, lambda a: a),
            run(g, lambda a: _PiElt.of(a) if isinstance(a, CycElt) else a))


_ORACLE_PRIMES = (3, 5, 7, 11, 13, 23)


@st.composite
def _oracle_ring(draw):
    level = draw(st.sampled_from((0, 1)))
    p = draw(st.sampled_from(_ORACLE_PRIMES))
    N = draw(st.integers(level + 1, 6))
    return cyc_ring(p, level, N, draw(st.integers(1, N * (p - 1))))


@st.composite
def _oracle_elements(draw, ring, count):
    """Elements of ``ring`` of unequal prec; some are 1-units, some have
    their digits pushed down so that deep valuations and zero occur."""
    p = ring.ctx.p
    out = []
    for x in draw(_elements(ring, count)):
        kind = draw(st.sampled_from(("digits", "one-unit", "deep")))
        if kind == "one-unit":
            x = x * p + 1
        elif kind == "deep":
            x = x * ring.uniformizer() ** draw(
                st.integers(0, ring.degree * x.prec))
        out.append(x)
    return out


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_zeta_storage_matches_pi_basis_ring(data):
    ring = data.draw(_oracle_ring())
    p, P = ring.ctx.p, ring.order
    x, y = data.draw(_oracle_elements(ring, 2))
    c = ring.ctx.of(data.draw(st.integers(0, p ** 6)),
                    data.draw(st.integers(1, ring.ctx.N)))
    n = data.draw(st.integers(0, 2 * p + 1))
    a = data.draw(st.integers(0, P - 1))
    i = data.draw(st.integers(0, p - 2))
    for f, g, args in (
        (lambda u, v: u + v, None, (x, y)),
        (lambda u, v: u - v, None, (x, y)),
        (lambda u, v: u * v, None, (x, y)),
        (lambda u, v: u * v, None, (x, x)),
        (lambda u, v: u * v + v - 1, None, (x, c)),
        (lambda u: -u, None, (x,)),
        (lambda u: u ** n, None, (x,)),
        (galois_apply, _pi_galois, (a, x)),
        (galois_apply, _pi_galois, (ring.ctx.teichmuller(1 + a % (p - 1)), y)),
        (norm_to_qp, _pi_norm_to_qp, (x,)),
        (eigen_unit, _pi_eigen_unit, (i, x)),
        (eigen_unit, _pi_eigen_unit, (i, y)),
    ):
        got, want = _both(f, g or f, *args)
        assert got == want, f
    if ring.level:
        (x0,) = data.draw(_oracle_elements(ring.base_ring(), 1))
        got, want = _both(embed_up, _pi_embed_up, x0, ring)
        assert got == want
        got, want = _both(norm_down, _pi_norm_down, x)
        assert got == want
        got, want = _both(norm_down, _pi_norm_down, embed_up(x0, ring))
        assert got == want


def test_ring_maps_stay_on_the_zeta_basis(monkeypatch):
    # sigma_a permutes the stored coefficients, embed_up spreads them and a
    # product folds them: none converts to pi-adic digits or back, digits
    # are converted once per element, and no ring builds a table: no fold
    # table of X^(d+k) mod the Eisenstein modulus, no Pascal rows, no
    # modulus tail, since the changes of basis are Taylor shifts
    assert not [name for name in CycRing.__slots__ if "fold" in name]
    assert "modulus_tail" not in CycRing.__slots__
    for ring in (cyc_ring(5, 0), cyc_ring(7, 1).base_ring(), cyc_ring(7, 1)):
        assert not [name for name in CycRing.__slots__ if isinstance(
            getattr(ring, name), (list, tuple, dict))]
    calls = []
    for name in ("_pi_to_zeta", "_zeta_to_pi"):
        real = getattr(cyclotomic, name)

        def spy(*args, real=real, name=name):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(cyclotomic, name, spy)
    rng = random.Random(61)
    for p, level in ((5, 0), (23, 0), (7, 1)):
        ring = cyc_ring(p, level)
        x, y = random_one_unit(rng, ring), random_one_unit(rng, ring)
        x0 = random_one_unit(rng, ring.base_ring()) if level else x
        calls.clear()
        a = p + 1 if level else p - 1
        out = [galois_apply(2, x), galois_apply(a, y), x * y, x * x]
        if level:
            out.append(embed_up(x0, ring))
        assert calls == []
        for z in out:
            z.digits, z.digits, z.pi_valuation(), z.coeffs
        assert calls == ["_zeta_to_pi"] * len(out)
    # no library entry builds an element from pi-adic digits: a scalar is
    # written on the zeta basis, so CycElt.__init__, the way in for a
    # caller's digits, runs for none of them
    inits = []
    init = CycElt.__init__

    def counting_init(self, *args):
        inits.append(args)
        init(self, *args)

    monkeypatch.setattr(CycElt, "__init__", counting_init)
    for p in (5, 7, 11):
        ring = cyc_ring(p, 0)
        u, pair = cw_unit(ring), cw_unit_pair(cyc_ring(p, 1))
        for v in (u, lang_unit(ring, 2), pair.u1):
            eigen_unit(1, v), norm_to_qp(v), nontorsion_certified(v)
        kummer_phi(3, u)
    assert inits == []
