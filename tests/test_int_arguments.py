"""Every int argument of a public entry is read by `errors.check_int`: a
non-int is refused with a `UsageError` that names the argument, never cut
to an int and never left to end in a TypeError."""

import re
from fractions import Fraction

import pytest

from eigensplit.cyclotomic import CycElt, cyc_ring, eigen_unit
from eigensplit.errors import (PrecisionExhausted, RingMismatch,
                               UsageError, check_int)
from eigensplit.homotopy import (FgZpModule, GradedModule, SpectrumId,
                                 connected_cover, cyclic, homotopy_of, shift)
from eigensplit.kummer import (bernoulli_criterion_surrogate, cw_unit,
                               generator_certificate, kummer_phi,
                               lang_generator_search)
from eigensplit.lfunctions import (bernoulli, irregular_pairs, lp_valuation,
                                   lp_value)
from eigensplit.padic import PadicCtx, PadicInt, is_prime
from eigensplit.series import TruncSeries, taylor_shift

from exact_formal_group import (log_one_plus_x, lubin_tate_exp,
                                lubin_tate_log, theta)

CTX = PadicCtx(5, 4)
RING = cyc_ring(5, 0)
U = cw_unit(RING)
M = GradedModule(-2, 4)

# (id, the call with x in the argument's place, the name its message
# starts with)
_ENTRIES = [
    ("PadicCtx-N", lambda x: PadicCtx(5, x), "precision"),
    ("PadicInt-value", lambda x: PadicInt(CTX, x), "cannot read"),
    ("PadicInt-prec", lambda x: PadicInt(CTX, 3, x), "precision"),
    ("of-prec", lambda x: CTX.of(3, x), "precision"),
    ("of-padic-prec", lambda x: CTX.of(CTX.of(3), x), "precision"),
    ("is_prime", lambda x: is_prime(x), "n"),
    ("truncate", lambda x: TruncSeries([1, 2, 3]).truncate(x), "truncation"),
    ("log_one_plus_x", lambda x: log_one_plus_x(x), "truncation"),
    ("residue", lambda x: CTX.of(3).residue(x), "digits k"),
    ("reduce_to", lambda x: CTX.of(3).reduce_to(x), "precision"),
    ("PadicInt-pow", lambda x: CTX.of(3) ** x, "exponent"),
    ("div_int", lambda x: CTX.of(3).div_int(x), "divisor"),
    ("theta", lambda x: theta(5, x), "truncation"),
    ("lubin_tate_log", lambda x: lubin_tate_log(5, x), "truncation"),
    ("lubin_tate_exp", lambda x: lubin_tate_exp(5, x), "truncation"),
    ("CycRing-level", lambda x: cyc_ring(5, x), "level"),
    ("CycRing-pi_prec", lambda x: cyc_ring(5, 0, 4, x), "pi_prec"),
    ("CycElt-prec", lambda x: CycElt(RING, [1, 0, 0, 0], x), "precision"),
    ("CycElt-digit", lambda x: CycElt(RING, [1, x, 0, 0], 4), "cannot read"),
    ("CycElt-pow", lambda x: U ** x, "exponent"),
    ("vanishes_mod_pi", lambda x: U.vanishes_mod_pi(x), "pi-power M"),
    ("eigen_unit", lambda x: eigen_unit(x, U), "character index i"),
    ("kummer_phi", lambda x: kummer_phi(x, U), "phi index i"),
    ("generator_certificate", lambda x: generator_certificate(x, U),
     "phi index i"),
    ("lang_generator_search", lambda x: lang_generator_search(RING, x),
     "phi index i"),
    ("surrogate", lambda x: bernoulli_criterion_surrogate(cyc_ring(7, 0), x),
     "criterion index i"),
    ("bernoulli", lambda x: bernoulli(x), "Bernoulli index n"),
    ("irregular_pairs", lambda x: irregular_pairs(37, x), "k_max"),
    ("lp_value-i", lambda x: lp_value(5, x, 3, 3), "character exponent i"),
    ("lp_value-s", lambda x: lp_value(5, 2, x, 3), "s"),
    ("lp_value-M", lambda x: lp_value(5, 2, 3, x), "precision"),
    ("lp_valuation-i", lambda x: lp_valuation(37, x, 3),
     "character exponent i"),
    ("lp_valuation-s", lambda x: lp_valuation(37, 2, x), "s"),
    ("SpectrumId", lambda x: SpectrumId("y", 5, x), "spectrum index"),
    ("FgZpModule-rank", lambda x: FgZpModule(x), "rank"),
    ("FgZpModule-torsion", lambda x: FgZpModule(0, (2, x)),
     "torsion exponent"),
    ("cyclic", lambda x: cyclic(x), "torsion exponent"),
    ("GradedModule-lo", lambda x: GradedModule(x, 3), "lo"),
    ("GradedModule-hi", lambda x: GradedModule(0, x), "hi"),
    ("GradedModule-entry", lambda x: M.entry(x), "degree"),
    ("GradedModule-set", lambda x: M.set(x, FgZpModule(1)), "degree"),
    ("shift", lambda x: shift(M, x), "shift k"),
    ("connected_cover", lambda x: connected_cover(M, x), "cover degree c"),
    ("window", lambda x: homotopy_of(SpectrumId("J", 11), (0, x)),
     "window end"),
]


@pytest.mark.parametrize("x", [2.5, "3", Fraction(7, 2)],
                         ids=["float", "str", "Fraction"])
@pytest.mark.parametrize("call, name", [e[1:] for e in _ENTRIES],
                         ids=[e[0] for e in _ENTRIES])
def test_non_int_arguments_are_refused_by_name(call, name, x):
    with pytest.raises(UsageError) as info:
        call(x)
    message = str(info.value)
    if name == "cannot read":  # the value, as every Z_p read words it
        assert message.startswith(f"cannot read {x!r} in ")
    else:
        assert message.startswith(f"{name} must be ")
        assert message.endswith(f", got {x!r}")


# each of these once ended in a TypeError or an AttributeError, was cut
# to an int, or built an object
@pytest.mark.parametrize("call, name", [
    (lambda: lp_value(5, 2.0, 3, 3), "character exponent i"),
    (lambda: lp_value(5, 2, 3.5, 3), "s"),
    (lambda: lp_value(5, 2, -1.0, 3), "s"),
    (lambda: bernoulli(4.0), "Bernoulli index n"),
    (lambda: irregular_pairs(37, 12.5), "k_max"),
    (lambda: SpectrumId("y", 5, 2.5), "spectrum index"),
    (lambda: kummer_phi(2.0, U), "phi index i"),
    (lambda: generator_certificate(2.0, U), "phi index i"),
    (lambda: lang_generator_search(RING, 2.0), "phi index i"),
    (lambda: eigen_unit(1.5, U), "character index i"),
    (lambda: bernoulli_criterion_surrogate(cyc_ring(7, 0), 4.0),
     "criterion index i"),
    (lambda: theta(5, 10.0), "truncation"),
    (lambda: lubin_tate_log(5, 10.5), "truncation"),
    (lambda: U ** 2.0, "exponent"),
    (lambda: CTX.of(3) ** 2.0, "exponent"),
    (lambda: CTX.of(3).div_int(2.0), "divisor"),
    (lambda: PadicInt(CTX, 2.7), "cannot read"),
    (lambda: PadicInt(CTX, 3, 2.5), "precision"),
    (lambda: CTX.of(3, 2.5), "precision"),
    (lambda: FgZpModule(1.5), "rank"),
    (lambda: GradedModule(0.5, 3), "lo"),
    (lambda: TruncSeries([1, 2, 3]).truncate(2.5), "truncation"),
    (lambda: log_one_plus_x(3.5), "truncation"),
    (lambda: taylor_shift([1, 2], 1.0), r"shift must be \+1 or -1, got 1\.0$"),
])
def test_integral_looking_floats_are_refused(call, name):
    with pytest.raises(UsageError, match=f"^{name}"):
        call()


def test_residue_refuses_a_negative_k():
    # p^-1 is a float, so residue(-1) once returned 7 % 0.2, a float
    with pytest.raises(UsageError, match="^digits k must be >= 0, got -1$"):
        CTX.of(7).residue(-1)
    assert CTX.of(7).residue(0) == 0


def test_a_cached_lp_valuation_does_not_serve_an_equal_float():
    # lru_cache keys 32.0 like 32, so the checks run before the cache
    assert lp_valuation(37, 32, 13) == 2
    with pytest.raises(UsageError, match="^character exponent i must be "):
        lp_valuation(37, 32.0, 13)
    assert lp_valuation(5, 2, 3) == 0
    with pytest.raises(UsageError, match="^s must be an int, got 3.0$"):
        lp_valuation(5, 2, 3.0)


def test_lp_valuation_refuses_unhashable_arguments():
    # each once ended in "TypeError: unhashable type", raised by the cache
    # before any check ran
    for call, message in [
        (lambda: lp_valuation([5], 2, 0), "[5] is not an odd prime"),
        (lambda: lp_valuation(37, [32], 13),
         "character exponent i must be in 2..34, got [32]"),
        (lambda: lp_valuation(37, 32, {}), "s must be an int, got {}"),
    ]:
        with pytest.raises(UsageError, match=f"^{re.escape(message)}$"):
            call()


def test_padic_int_reads_its_context():
    # each once ended in "AttributeError: ... has no attribute 'N'"
    for ctx in ("x", 5, None, CycElt):
        message = f"expected a PadicCtx, got {ctx!r}"
        with pytest.raises(UsageError, match=f"^{re.escape(message)}$"):
            PadicInt(ctx, 3)
    assert PadicInt(CTX, 3).ctx is CTX


def test_padic_int_reads_only_ints():
    # int(value) once cut 2.7 to 2, "3" to 3 and 7/2 to 3
    for bad in (2.7, "3", Fraction(7, 2), Fraction(3)):
        with pytest.raises(RingMismatch, match="^cannot read "):
            PadicInt(CTX, bad)
    assert PadicInt(CTX, True) == 1
    assert PadicInt(CTX, -1).value == CTX.modulus - 1
    assert PadicInt(CTX, 5 ** 6 + 7, 9).prec == 4
    assert PadicInt(CTX, 5 ** 6 + 7, 2).value == 7
    with pytest.raises(PrecisionExhausted):
        PadicInt(CTX, 3, 0)


def test_cyc_elt_reads_its_arguments():
    # each of these once ended in an AttributeError or a bare assert, or
    # built an element that failed at its first product
    for call, message in [
        (lambda: CycElt("x", [1], 4), "expected a CycRing, got 'x'"),
        (lambda: CycElt(RING, [1], 4), "needs 4 digits, got 1"),
        (lambda: CycElt(RING, [1, 0, 0, 0, 0], 4), "needs 4 digits, got 5"),
        (lambda: CycElt(RING, [1, 0, 0, 0], "4"),
         "precision must be in 1..4, got '4'"),
        (lambda: CycElt(RING, [1, 0, 0, 0], 0),
         "precision must be in 1..4, got 0"),
        (lambda: CycElt(RING, [1, 0, 0, 0], 5),
         "precision must be in 1..4, got 5"),
        (lambda: CycElt(RING, [PadicCtx(7, 4).of(1), 0, 0, 0], 4),
         "cannot read "),
        (lambda: RING.from_coeffs([1] * 5), "needs 4 digits, got 5"),
    ]:
        with pytest.raises(UsageError, match=f"^{re.escape(message)}"):
            call()
    # a digit known to fewer p-adic digits lowers the prec, as in
    # from_coeffs, and every digit is reduced mod p^prec
    x = CycElt(RING, [CTX.of(3, 2), 5 ** 4 + 7, 0, 0], 4)
    assert (x.digits, x.prec) == ((3, 7, 0, 0), 2)
    assert RING.from_coeffs([CTX.of(3, 2)]).prec == 2


def test_bools_are_not_ints():
    # True once built the canonical (5, 1) context with N = True and the
    # level-1 ring with level = True, and bernoulli(True) returned B_1
    for call, name in [(lambda: PadicCtx(5, True), "precision"),
                       (lambda: cyc_ring(7, True), "level"),
                       (lambda: bernoulli(True), "Bernoulli index n")]:
        with pytest.raises(UsageError, match=f"^{name} must be .*, got True$"):
            call()
    assert type(PadicCtx(5, 1).N) is int
    assert type(cyc_ring(7, 1).level) is int


def test_of_returns_a_padic_int_of_its_context_as_it_is():
    a = CTX.of(3, 2)
    assert CTX.of(a) is a
    assert CTX.of(a, 3) == a and CTX.of(a, 3).prec == 2
    assert CTX.of(CTX.of(7), 1).prec == 1
    assert PadicCtx(5, 4).of(a) is a  # the same context


def test_check_int_messages():
    assert check_int(3, "k") == 3
    assert check_int(-3, "k") == -3
    assert check_int(0, "k", 0, 0) == 0
    for n, lo, hi, message in [
        (2.5, None, None, "k must be an int, got 2.5"),
        ("3", None, None, "k must be an int, got '3'"),
        (0, 1, None, "k must be >= 1, got 0"),
        (Fraction(7, 2), 1, None, "k must be >= 1, got Fraction(7, 2)"),
        (4, 1, 3, "k must be in 1..3, got 4"),
        (2.0, 1, 3, "k must be in 1..3, got 2.0"),
    ]:
        with pytest.raises(UsageError, match=f"^{re.escape(message)}$"):
            check_int(n, "k", lo, hi)
