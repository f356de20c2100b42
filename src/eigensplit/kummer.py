"""Kummer homomorphisms on 1-units, with the Lang and Coates-Wiles units.

A 1-unit u at level 0 is f(pi) for a polynomial f of degree < p-1 with
constant term 1 mod p, unique mod (p, X^{p-1}); phi_i(u) reads the i-th
invariant-derivative coefficient of log f at 0, mod p.  The pi-digit form
of u IS such an f, so the representative is a coefficient copy.
"""

from __future__ import annotations

from .cyclotomic import (
    CycElt,
    CycRing,
    NormCompatiblePair,
    as_mu_element,
    check_level,
    eigen_unit,
    nontorsion_certified,
    unit_is_p_torsion,
    unit_pow_zp,
)
from .errors import EigensplitError, UsageError, check_int
from .formal_groups import cw_tower_x
from .padic import PadicInt, primitive_root


def kummer_phis(u: CycElt) -> list:
    """[phi_1(u), ..., phi_{p-2}(u)] from one logarithm of f_u."""
    return _phis_up_to(check_level(CycElt, u, 0).ring.ctx.p - 2, u)


def kummer_phi(i: int, u: CycElt) -> int:
    """D^i(log f_u) at X = 0, mod p, with D = (1+X) d/dX; the logarithm
    is taken mod X^(i+1) only (see _phis_up_to)."""
    p = check_level(CycElt, u, 0).ring.ctx.p
    i = check_int(i, "phi index i", 1, p - 2)
    return _phis_up_to(i, u)[-1]


def _phis_up_to(top: int, u: CycElt) -> list:
    """phi_1(u), ..., phi_top(u), read off successive derivatives of
    one log f_u taken mod X^(top+1), on PadicInt digits.

    That truncation changes none of them.  D maps X^j to j X^(j-1) +
    j X^j, so D^k(g)(0) reads only g mod X^(k+1); and g = f/f(0) has
    g - 1 without constant term, so log g mod X^(top+1) reads only
    g mod X^(top+1).  So phi_i costs a logarithm of i+1 terms, about
    (i+1)^3/2 products instead of (p-1)^3/2, and the table one of p-1
    terms.

    No digit is lost on the way.  The logarithm divides only by
    k <= top <= p-2, a unit, and D divides by nothing; so every
    coefficient keeps the precision of u, and the residues mod p are
    exact.
    """
    if not u.is_one_unit():
        raise UsageError("not congruent to 1 mod pi")
    ctx = u.ring.ctx
    f = [PadicInt(ctx, c, u.prec) for c in u.digits[:top + 1]]
    # dividing out the constant term shifts log f by a constant,
    # which every D^i with i >= 1 kills
    w = f[0].invert()
    series = _log([w * c for c in f])
    phis = []
    for _ in range(top):
        # D = (1+X) d/dX: the derivative d, then d + X d
        d = [k * series[k] for k in range(1, len(series))]
        series = [d[0]] + [d[k] + d[k - 1] for k in range(1, len(d))]
        phis.append(series[0].residue(1))
    return phis


def _log(g: list) -> list:
    """log g mod X^T, T = len(g) <= p-1, for PadicInt coefficients with
    g(0) = 1: h - h^2/2 + ... - (-h)^(T-1)/(T-1) with h = g - 1, the powers
    by schoolbook products from X^k up.  h^k is zero below X^k, and
    k <= p-2 is a unit, so h^k/k is h^k from X^k up times one inverse of k
    mod p^N; each product keeps its coefficient's precision: no digit lost."""
    zero = g[0] - 1
    h = [zero] + g[1:]
    T = len(h)
    out = [zero] * T
    power = h
    for k in range(1, T):
        inv = zero.ctx.of(k).invert()
        for j in range(k, T):
            term = power[j] * inv
            out[j] = out[j] + term if k % 2 else out[j] - term
        if k < T - 1:
            # h^k starts at X^k and h at X; a zero known to g(0)'s precision,
            # which caps each sum, adds nothing, and one known to less is kept
            prod = [zero] * T
            for i, a in enumerate(power[k:T - 1], start=k):
                if a or a.prec < zero.prec:
                    for j in range(1, T - i):
                        if h[j] or h[j].prec < zero.prec:
                            prod[i + j] = prod[i + j] + a * h[j]
            power = prod
    return out


def lang_unit(ring: CycRing, lam) -> CycElt:
    """u_0(lambda) = omega(lambda-1)^{-1} (lambda - zeta), a 1-unit."""
    ctx = check_level(CycRing, ring, 0).ctx
    lam = as_mu_element(ctx, lam)
    scalar = ctx.teichmuller(lam.value - 1).invert()
    u = (ring.from_scalar(lam) - ring.zeta()) * scalar
    assert u.is_one_unit()
    return u


def check_eps1_nontorsion(ring: CycRing, lam) -> bool:
    """The pi^{p+1} criterion on eigen_unit(1, u_0(lambda)), taken
    literally: true iff the p-th power differs from 1 mod pi^{p+1}.

    It cannot come out true: the p-th power of the projected unit is
    always 1 to this depth (see `cyclotomic.unit_is_p_torsion`).  The
    sound test is nontorsion_certified on the same unit, which certifies
    every lambda except -1 (where it is a primitive p-th root of unity)."""
    return not unit_is_p_torsion(eigen_unit(1, lang_unit(ring, lam)))


def cw_unit(ring: CycRing) -> CycElt:
    """beta - theta(zeta - 1), the Coates-Wiles unit at the ring's level."""
    beta = check_level(CycRing, ring).ctx.beta()
    u = ring.from_scalar(beta) - cw_tower_x(ring)
    assert u.is_one_unit()
    return u


def cw_unit_pair(ring1: CycRing) -> NormCompatiblePair:
    """The levels 0 and 1 Coates-Wiles units as a norm-compatible pair;
    the norm relation is checked on construction."""
    check_level(CycRing, ring1, 1)
    return NormCompatiblePair(cw_unit(ring1), cw_unit(ring1.base_ring()))


def lang_generator_search(ring: CycRing, i: int) -> PadicInt:
    """Least lambda (by Teichmuller preimage 2..p-1) whose Lang unit has
    nonvanishing phi_i."""
    p = check_level(CycRing, ring, 0).ctx.p
    for a in range(2, p):
        lam = ring.ctx.teichmuller(a)
        if kummer_phi(i, lang_unit(ring, lam)) != 0:
            return lam
    raise EigensplitError(f"no Lang unit with phi_{i} != 0; should not happen")


def generator_certificate(i: int, u) -> bool:
    """Nonvanishing of phi_i, plus the nontorsion check when i = 1."""
    if isinstance(u, NormCompatiblePair):
        u = u.u0
    if kummer_phi(i, u) == 0:
        return False
    if i == 1:
        return nontorsion_certified(eigen_unit(1, u))
    return True


def bernoulli_criterion_surrogate(ring: CycRing, i: int) -> dict:
    """phi_i of the omega^i projection of the uniformizer class.

    sigma_a(pi)/pi is omega(a) times a 1-unit t_a, and the projection of
    (pi) is, modulo torsion, S_i = prod_a t_a^(omega(a)^-i/(p-1)).  As
    sigma_b(t_a) = t_ab / t_b (Washington, Introduction to Cyclotomic
    Fields, ch. 8), putting a = bg for the least primitive root g turns
    eigen_unit(i, t_g) = prod_b (t_bg / t_b)^(omega(b)^-i/(p-1)) into
    S_i^(omega(g)^i) / S_i.  omega(g)^i - 1 is a Z_p-unit, as g^i != 1
    mod p for i in 2..p-3, so S_i = eigen_unit(i, t_g)^(1/(omega(g)^i - 1)).
    The classical criterion predicts phi_i(S_i) = 0 mod p exactly when p
    divides B_i; the comparison is reported, not asserted.
    """
    from .lfunctions import irregular_pairs

    ctx = check_level(CycRing, ring, 0).ctx
    p = ctx.p
    if check_int(i, "criterion index i", 2, p - 3) % 2:
        raise UsageError(f"criterion applies to even i in 2..{p - 3}")
    g = primitive_root(p)
    w = ctx.teichmuller(g)
    # sigma_g(pi)/pi = (zeta^g - 1)/(zeta - 1) = sum_{k<g} zeta^k = g mod pi
    t_g = ring.from_zeta([1] * g) * w.invert()
    acc = unit_pow_zp(eigen_unit(i, t_g), (w ** i - 1).invert())
    phi = kummer_phi(i, acc)
    coprime = i not in irregular_pairs(p)
    return {
        "i": i,
        "phi": phi,
        "generates": phi != 0,
        "bernoulli_coprime_to_p": coprime,
        "agree": (phi != 0) == coprime,
    }
