"""Graded Z_p-module models, duality, and long-exact-sequence bookkeeping."""

import json
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eigensplit import cli, homotopy, lfunctions
from eigensplit.errors import (
    KummerVandiverRequired,
    PrecisionExhausted,
    UsageError,
)
from eigensplit.homotopy import (
    FgZpModule,
    GradedModule,
    SpectrumId,
    _COVER,
    _FAMILY_TAGS,
    _PLAIN_TAGS,
    _build,
    _j_exponent,
    _module_cell,
    _segment_status,
    anderson_dual,
    assemble,
    connected_cover,
    cyclic,
    direct_sum,
    free,
    homotopy_of,
    les_consistency,
    shift,
    verify_main_duality,
)
from eigensplit.lfunctions import (
    _PREC_LADDER,
    _lp_valuation,
    bernoulli,
    lp_valuation,
    lp_value,
    regularity_certificate,
)
from eigensplit.padic import PadicCtx, vp

Zp = free()


def _random_module(rng, lo, hi):
    M = GradedModule(lo, hi)
    for n in range(lo, hi + 1):
        if rng.random() < 0.4:
            tors = tuple(
                rng.randrange(1, 4) for _ in range(rng.randrange(0, 3))
            )
            M.set(n, FgZpModule(rng.randrange(0, 3), tors))
    return M


def test_fg_module_basics():
    a = FgZpModule(1, (2, 1))
    b = FgZpModule(0, (3,))
    s = a + b
    assert s.rank == 1
    assert s.torsion == (3, 2, 1)
    assert FgZpModule(0, (1, 3)) == FgZpModule(0, (3, 1))
    assert hash(cyclic(2)) == hash(FgZpModule(0, (2,)))
    assert FgZpModule().is_zero()
    assert not a.is_zero()
    assert a.torsion_exponent_sum() == 3
    with pytest.raises(UsageError):
        FgZpModule(0, (0,))
    with pytest.raises(UsageError):
        FgZpModule(-1)


def test_torsion_from_a_one_shot_iterable_is_kept():
    # a check loop that consumes a generator before sorting it builds the
    # zero module
    assert FgZpModule(0, (e for e in [2, 3])) == FgZpModule(0, (3, 2))
    assert FgZpModule(1, iter([1, 4, 2])).torsion == (4, 2, 1)


def test_cyclic_refuses_a_negative_exponent():
    assert cyclic(0) is homotopy.ZERO
    assert cyclic(2) == FgZpModule(0, (2,))
    for e in (-1, -2):
        with pytest.raises(UsageError,
                           match=rf"^torsion exponent must be >= 0, got {e}$"):
            cyclic(e)


@pytest.mark.parametrize("build", [
    lambda m: GradedModule(-2, 4).set(1, m),
    lambda m: GradedModule(0, 3, {1: m}),
], ids=["set", "constructor"])
@pytest.mark.parametrize("m", ["x", 5, None, (1, (2,))])
def test_a_graded_entry_must_be_a_module(build, m):
    with pytest.raises(UsageError,
                       match=rf"degree 1 .*, got {re.escape(repr(m))}$"):
        build(m)


# each of these once ended in an AttributeError
@pytest.mark.parametrize("call, kind, bad", [
    (lambda: shift("x", 1), "GradedModule", "x"),
    (lambda: connected_cover(None, 0), "GradedModule", None),
    (lambda: direct_sum(GradedModule(0, 3), "x"), "GradedModule", "x"),
    (lambda: anderson_dual(None), "GradedModule", None),
    (lambda: les_consistency(GradedModule(0, 3), GradedModule(0, 3), 5),
     "GradedModule", 5),
    (lambda: homotopy_of("KZ", (0, 4)), "SpectrumId", "KZ"),
    (lambda: SpectrumId.parse(5, 37), "str", 5),
    (lambda: GradedModule(0, 3, [1]), "dict", [1]),
], ids=["shift", "connected_cover", "direct_sum", "anderson_dual",
        "les_consistency", "homotopy_of", "SpectrumId.parse",
        "GradedModule"])
def test_graded_routes_refuse_what_is_not_a_model(call, kind, bad):
    with pytest.raises(UsageError, match=rf"^expected a {kind}, "
                       rf"got {re.escape(repr(bad))}$"):
        call()


def test_torsion_must_be_iterable():
    # tuple(5) once ended in a TypeError
    with pytest.raises(UsageError, match="^torsion must be an iterable of "
                       "exponents, got 5$"):
        FgZpModule(0, 5)


@pytest.mark.parametrize("p, fibtau_calls", [(37, 3), (101, 3), (157, 6)])
def test_covers_compute_only_the_degrees_they_keep(monkeypatch, p,
                                                   fibtau_calls):
    # KZ's y(i) read L-values only in negative degrees, which their cover
    # zeroes; FibTau's x(i) read them in the degrees >= 2 they keep
    calls = []
    lp_sum = lfunctions._lp_sum
    monkeypatch.setattr(lfunctions, "_lp_sum",
                        lambda *a: calls.append(a) or lp_sum(*a))
    bound = 6 * (p - 1)
    for tag, expected in (("KZ", 0), ("FibTau", fibtau_calls)):
        _lp_valuation.cache_clear()
        calls.clear()
        assemble(tag, p, (-bound, bound), kv_assume=True)
        assert len(calls) == expected


def test_module_sum_needs_a_module():
    assert FgZpModule(1).__add__(2) is NotImplemented
    with pytest.raises(TypeError):
        FgZpModule(1) + 2
    assert FgZpModule(1) + cyclic(2) == FgZpModule(1, (2,))


def test_graded_window_guards():
    M = GradedModule(-2, 4)
    M.set(0, Zp)
    assert M.entry(0) == Zp
    assert M.entry(3).is_zero()
    with pytest.raises(UsageError):
        M.entry(5)


def test_direct_sum_and_shift():
    A = GradedModule(0, 4)
    A.set(1, Zp)
    B = GradedModule(0, 4)
    B.set(1, cyclic(2))
    S = direct_sum(A, B)
    assert S.entry(1) == FgZpModule(1, (2,))
    T = shift(S, 3)
    assert (T.lo, T.hi) == (3, 7)
    assert T.entry(4) == S.entry(1)


def test_connected_cover():
    M = GradedModule(-4, 4)
    for n in (-3, 0, 2):
        M.set(n, Zp)
    C = connected_cover(M, 0)
    assert C.degrees() == [2]
    assert (C.lo, C.hi) == (-4, 4)


def test_anderson_dual_window_and_entries():
    M = GradedModule(0, 3)
    M.set(0, FgZpModule(2))
    M.set(1, cyclic(3))
    D = anderson_dual(M)
    assert (D.lo, D.hi) == (-3, -1)
    # free parts reflect, torsion shifts one degree
    assert D.entry(-1) == FgZpModule(0, ())
    assert D.entry(-2) == FgZpModule(0, (3,))
    assert D.entry(-3) == FgZpModule(0, ())
    M2 = GradedModule(-2, 2)
    M2.set(0, FgZpModule(1, (2,)))
    D2 = anderson_dual(M2)
    assert D2.entry(0) == FgZpModule(1)
    assert D2.entry(-1) == cyclic(2)


def test_anderson_dual_of_one_degree_names_the_window():
    # the dual of [lo, hi] lives on [-hi, -lo - 1], empty when lo = hi
    for lo in (3, 0, -2):
        M = GradedModule(lo, lo, {lo: Zp})
        with pytest.raises(UsageError, match=re.escape(
                f"the Anderson dual needs lo < hi, got the window "
                f"[{lo}, {lo}]")):
            anderson_dual(M)


def _dense_anderson_dual(M):
    # oracle: every degree of the dual window, read off the mirror degree
    # and the one below it
    out = GradedModule(-M.hi, -M.lo - 1)
    for n in range(out.lo, out.hi + 1):
        out.set(n, FgZpModule(M.entry(-n).rank, M.entry(-n - 1).torsion))
    return out


@st.composite
def _graded_modules(draw, window=None):
    if window is None:
        lo = draw(st.integers(-30, 30))
        # the dual of [lo, hi] is [-hi, -lo-1], so one degree has no dual
        hi = lo + draw(st.integers(1, 30))
    else:
        lo, hi = window
    degrees = draw(st.lists(st.integers(lo, hi), max_size=hi - lo + 1,
                            unique=True))
    return GradedModule(lo, hi, {
        n: FgZpModule(draw(st.integers(0, 3)),
                      draw(st.lists(st.integers(1, 4), max_size=3)))
        for n in degrees
    })


@settings(max_examples=200, deadline=None)
@given(_graded_modules())
@example(GradedModule(0, 1))
@example(GradedModule(0, 1, {0: FgZpModule(1, (2,))}))
@example(GradedModule(-3, 2, {-3: cyclic(1), 2: free()}))
def test_sparse_dual_matches_dense_walk(M):
    D = anderson_dual(M)
    assert D == _dense_anderson_dual(M)
    assert all(not m.is_zero() for m in D.entries.values())


# per-degree oracles for the routes that write `entries` directly: every
# degree of the output window through the checked `set` and `entry`

def _dense_shift(M, k):
    out = GradedModule(M.lo + k, M.hi + k)
    for n in range(M.lo, M.hi + 1):
        out.set(n + k, M.entry(n))
    return out


def _dense_cover(M, c):
    out = GradedModule(M.lo, M.hi)
    for n in range(M.lo, M.hi + 1):
        if n > c:
            out.set(n, M.entry(n))
    return out


def _dense_sum(mods):
    out = GradedModule(mods[0].lo, mods[0].hi)
    for n in range(out.lo, out.hi + 1):
        total = FgZpModule()
        for M in mods:
            total = total + M.entry(n)
        out.set(n, total)
    return out


def _dense_restrict(M, lo, hi):
    out = GradedModule(lo, hi)
    for n in range(lo, hi + 1):
        out.set(n, M.entry(n))
    return out


def _no_stored_zero(M):
    return all(not m.is_zero() for m in M.entries.values())


@settings(max_examples=150, deadline=None)
@given(_graded_modules(), st.integers(-40, 40))
@example(GradedModule(0, 1), 0)
@example(GradedModule(-3, 2, {-3: cyclic(1), 2: free()}), -5)
def test_shift_matches_the_dense_walk(M, k):
    S = shift(M, k)
    assert S == _dense_shift(M, k)
    assert _no_stored_zero(S)


@settings(max_examples=150, deadline=None)
@given(_graded_modules(), st.integers(-40, 40))
@example(GradedModule(-3, 2, {-3: cyclic(1), 2: free()}), -3)
@example(GradedModule(-3, 2, {-3: cyclic(1), 2: free()}), 2)
def test_connected_cover_matches_the_dense_walk(M, c):
    C = connected_cover(M, c)
    assert C == _dense_cover(M, c)
    assert _no_stored_zero(C)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_direct_sum_matches_the_dense_walk(data):
    M = data.draw(_graded_modules())
    others = data.draw(st.lists(_graded_modules(window=(M.lo, M.hi)),
                                max_size=3))
    # M twice, so every stored degree of M overlaps in the sum
    mods = [M, *others, M]
    S = direct_sum(*mods)
    assert S == _dense_sum(mods)
    assert _no_stored_zero(S)
    assert direct_sum(M) == M


def test_routes_leave_their_input_unchanged():
    M = GradedModule(-4, 4, {-3: cyclic(1), 0: free(), 2: FgZpModule(1, (2,))})
    before = dict(M.entries)
    S = direct_sum(M, M)
    for out in (shift(M, 0), connected_cover(M, -5), S):
        out.entries.clear()
    assert M.entries == before


def test_anderson_double_dual_is_identity():
    rng = random.Random(73)
    for _ in range(25):
        M = _random_module(rng, -8, 8)
        dd = anderson_dual(anderson_dual(M))
        assert dd == _dense_restrict(M, dd.lo, dd.hi)


def test_anderson_dual_commutes_with_shift():
    rng = random.Random(79)
    for _ in range(10):
        M = _random_module(rng, -5, 5)
        k = rng.randrange(-3, 4)
        assert anderson_dual(shift(M, k)) == shift(anderson_dual(M), -k)


def test_spectrum_id_parsing():
    sid = SpectrumId.parse("y(12)", 691)
    assert sid.tag == "y" and sid.index == 12
    assert SpectrumId.parse("J", 5).index is None
    assert SpectrumId.parse("x(9)", 5).index == 1  # reduced mod p-1
    with pytest.raises(UsageError):
        SpectrumId.parse("Q", 5)
    with pytest.raises(UsageError):
        SpectrumId.parse("J(2)", 5)


# int() once read the first six as y(10) and y(3)
_MALFORMED_NAMES = ["y(1_0)", "y( +3 )", "y(\u0663)", "y(+3)", "y( 3)",
                    "y(3 )", "y(3", "y()", "y(-)", "y(--3)", "y(3))",
                    "y(3)x", "y(0x3)"]


@pytest.mark.parametrize("text", _MALFORMED_NAMES)
def test_malformed_spectrum_index_is_refused(text):
    with pytest.raises(UsageError, match=r"^malformed spectrum index in "
                       + re.escape(repr(text)) + "$"):
        SpectrumId.parse(text, 37)


def test_spectrum_name_keeps_a_sign_and_outer_whitespace():
    assert SpectrumId.parse("y(-1)", 37).index == 35  # mod p-1
    assert SpectrumId.parse(" y(10)\t", 37).index == 10
    assert SpectrumId.parse(" KZ ", 37).tag == "KZ"
    with pytest.raises(UsageError, match="^unknown spectrum tag 'y '$"):
        SpectrumId.parse("y (3)", 37)


def test_kv_gating():
    assert not SpectrumId("Y", 5, 3).needs_kv()
    assert not SpectrumId("Y", 37, 1).needs_kv()
    assert SpectrumId("Y", 37, 3).needs_kv()
    assert not SpectrumId("J", 37).needs_kv()
    assert not SpectrumId("z", 37, 5).needs_kv()
    with pytest.raises(KummerVandiverRequired):
        homotopy_of(SpectrumId("Y", 37, 3), (-4, 4))
    homotopy_of(SpectrumId("Y", 37, 3, kv_assume=True), (-4, 4))
    homotopy_of(SpectrumId("z", 37, 3), (-4, 4))


@pytest.mark.parametrize("flag", ["no", 1, None])
@pytest.mark.parametrize("call", [
    lambda flag: verify_main_duality(37, (-40, 40), kv_assume=flag),
    lambda flag: assemble("KZ", 37, (-4, 4), kv_assume=flag),
    lambda flag: SpectrumId.parse("y(3)", 37, kv_assume=flag),
    lambda flag: SpectrumId("Y", 37, 3, flag),
], ids=["verify_main_duality", "assemble", "parse", "SpectrumId"])
def test_kv_assume_must_be_a_bool(call, flag):
    # "no" once went ahead under the Kummer-Vandiver hypothesis
    with pytest.raises(UsageError, match=rf"^kv_assume must be True or "
                       rf"False, got {re.escape(repr(flag))}$"):
        call(flag)


def test_kv_gate_is_decided_above_200():
    # 211 is regular, 233 is not (233 | B_84)
    window = (-4, 12)
    homotopy_of(SpectrumId("KZ", 211), window)
    assert verify_main_duality(211, window).passed
    with pytest.raises(KummerVandiverRequired):
        homotopy_of(SpectrumId("KZ", 233), window)
    with pytest.raises(KummerVandiverRequired):
        verify_main_duality(233, window)


def test_duality_reads_the_model_gate():
    # verify_main_duality refuses through the gate of homotopy_of, on the
    # FibTau model whose pieces it compares, with the same message
    with pytest.raises(KummerVandiverRequired) as via_duality:
        verify_main_duality(37, (-4, 4))
    with pytest.raises(KummerVandiverRequired) as via_model:
        homotopy_of(SpectrumId("FibTau", 37), (-4, 4))
    assert str(via_duality.value) == str(via_model.value)
    assert str(via_duality.value).startswith("SpectrumId(FibTau, p=37) ")
    # the prime is checked first, then the window, then Kummer-Vandiver
    with pytest.raises(UsageError, match="^35 is not an odd prime$"):
        verify_main_duality(35, (3, 2))
    with pytest.raises(UsageError, match="^empty window"):
        verify_main_duality(37, (3, 2))
    with pytest.raises(UsageError, match="guard"):
        verify_main_duality(37, (-4000, 0))


_GUARD = r"exceeds the \+-3999 guard of the Bernoulli depth 2000$"


def test_gate_bounds_lvalue_reads_by_the_bernoulli_depth():
    # lp_value reads s >= -1999, so Y degrees up to 3998, and the guard
    # +-3999 admits no more at any prime; from p = 757 the old +-6(p-1)
    # guard admitted Y degrees whose L-values lp_value refuses.  The
    # widest window answers; X(243) reads L_p(s, omega^514) at
    # s = n // 2 + 1 from its even degrees n
    with pytest.raises(UsageError, match=r"^window \[0, 4000\] " + _GUARD):
        assemble("KZ", 757, (0, 4000), kv_assume=True)
    assert assemble("KZ", 757, (0, 3999), kv_assume=True).entries
    with pytest.raises(UsageError, match=_GUARD):
        verify_main_duality(757, (-4000, 3999), kv_assume=True)
    assert verify_main_duality(757, (-3999, 3999), kv_assume=True).passed
    sid = SpectrumId("X", 757, 243, kv_assume=True)
    assert homotopy_of(sid, (-3999, 0)).entries
    with pytest.raises(UsageError, match=_GUARD):
        homotopy_of(sid, (-4000, 0))
    # the same bound where no L-value is read: at a regular prime, and by
    # TCZ, FibTau and Y(odd)
    assert regularity_certificate(769)
    with pytest.raises(UsageError, match=_GUARD):
        assemble("KZ", 769, (-4608, 4608))
    for sid in (SpectrumId("KZ", 769),
                SpectrumId("TCZ", 757, kv_assume=True),
                SpectrumId("FibTau", 757, kv_assume=True),
                SpectrumId("Y", 757, 3, kv_assume=True)):
        assert homotopy_of(sid, (-3999, 3999)).entries
        for window in ((-4000, 0), (0, 4000)):
            with pytest.raises(UsageError, match=_GUARD):
                homotopy_of(sid, window)


@pytest.mark.parametrize("entry", [
    lambda w: assemble("KZ", 37, (0, w), kv_assume=True),
    lambda w: homotopy_of(SpectrumId("y", 37, 32, kv_assume=True), (0, w)),
    lambda w: homotopy_of(SpectrumId("X", 37, 5, kv_assume=True), (-w, 0)),
    lambda w: verify_main_duality(37, (-w, 0), kv_assume=True),
], ids=["KZ", "y", "X", "duality"])
def test_gate_follows_the_bernoulli_depth(monkeypatch, entry):
    # with the depth cut to 100, lp_value reads s >= -99, the Y degrees up
    # to 198, and the guard moves with it to +-199: the widest window it
    # admits answers, one degree more is refused by the guard, and without
    # the guard the model would have read an L-value past the depth
    monkeypatch.setattr(lfunctions, "LP_BERNOULLI_DEPTH", 100)
    monkeypatch.setattr(homotopy, "LP_BERNOULLI_DEPTH", 100)
    _lp_valuation.cache_clear()  # so that _build below reads lp_value
    entry(199)
    with pytest.raises(UsageError, match=r"^window .* exceeds the \+-199 "
                       r"guard of the Bernoulli depth 100$"):
        entry(200)
    with pytest.raises(UsageError, match=r"^s must be >= -99, got -103$"):
        _build(37, "Y", 32, 0, 216)


def test_window_guard():
    # the same bound at every prime; J reads no irregularity scan, so the
    # guard alone decides
    for p in (3, 5, 37, 769, 10007):
        sid = SpectrumId("J", p)
        assert homotopy_of(sid, (-3999, 3999)).entries
        for window in ((-4000, 4), (0, 4000), (-4000, 4000)):
            with pytest.raises(UsageError, match=_GUARD):
                homotopy_of(sid, window)


def _order(a, m):
    k, x = 1, a % m
    while x != 1:
        x = x * a % m
        k += 1
    return k


def test_j_exponent_independent_of_generator():
    # oracle: the power form v_p(l^{|m|(p-1)} - 1) at the two least
    # generators l of the units mod p^2
    for p in (5, 7, 13):
        gens = [l for l in range(2, 60)
                if l % p and _order(l, p * p) == p * (p - 1)][:2]
        assert len(gens) == 2
        for m in range(-30, 31):
            if m == 0:
                continue
            e = _j_exponent(p, m)
            for l in gens:
                assert e == vp(l ** (abs(m) * (p - 1)) - 1, p), (p, m, l)


def test_j_homotopy_table():
    M = homotopy_of(SpectrumId("J", 5), (-10, 17))
    assert M.entry(0) == Zp
    assert M.entry(-1) == Zp
    assert M.entry(7) == cyclic(1)
    assert M.entry(15) == cyclic(1)
    assert M.entry(-9) == cyclic(1)
    assert M.entry(-2).is_zero()
    assert M.entry(8).is_zero()
    # connective version drops negative degrees
    Mc = homotopy_of(SpectrumId("j", 5), (-10, 17))
    assert Mc.entry(-1).is_zero()
    assert Mc.entry(-9).is_zero()
    assert Mc.entry(0) == Zp
    assert Mc.entry(7) == cyclic(1)


def test_j_exponent_deepens_at_p_multiples():
    M = homotopy_of(SpectrumId("J", 5), (32, 40))
    assert M.entry(39) == cyclic(2)  # m = 5 brings an extra power of 5


def test_periodic_line():
    L = homotopy_of(SpectrumId("L", 5), (-9, 9))
    assert [n for n in L.degrees()] == [-8, 0, 8]
    ell = homotopy_of(SpectrumId("ell", 5), (-9, 9))
    assert ell.degrees() == [0, 8]


def test_eigenpiece_tables():
    # Y(0) is trivial; odd pieces are free lines; even pieces carry the
    # L-value torsion and vanish at regular primes
    assert homotopy_of(SpectrumId("Y", 5, 0), (-4, 12)).degrees() == []
    Y1 = homotopy_of(SpectrumId("Y", 5, 1), (-4, 12))
    assert Y1.degrees() == [1, 9]
    assert Y1.entry(1) == Zp
    assert homotopy_of(SpectrumId("Y", 5, 2), (-4, 12)).degrees() == []
    Y691 = homotopy_of(SpectrumId("Y", 691, 12, kv_assume=True), (0, 30))
    assert Y691.degrees() == [22]
    assert Y691.entry(22) == cyclic(1)


def test_x_pieces():
    assert homotopy_of(SpectrumId("X", 5, 1), (-4, 8)).degrees() == []
    X0 = homotopy_of(SpectrumId("X", 5, 0), (-4, 8))
    assert X0.degrees() == [-2, 6]
    x0 = homotopy_of(SpectrumId("x", 5, 0), (-4, 8))
    assert x0.degrees() == [-2, 6]
    x1 = homotopy_of(SpectrumId("x", 5, 1), (-4, 8))
    assert x1.degrees() == []
    X2 = homotopy_of(SpectrumId("X", 5, 2), (-4, 12))
    assert X2.degrees() == [2, 10]


def test_x_odd_carries_lvalue_torsion():
    # at p = 37 the pair (37, 32) puts Z/37 into the odd piece i = 5
    x5 = homotopy_of(SpectrumId("x", 37, 5, kv_assume=True), (0, 100))
    assert x5.entry(8) == cyclic(1)
    assert x5.entry(80) == cyclic(1)


# -- the per-tag models that one pattern builder and the cover table
# replaced, as oracles -------------------------------------------------------

def _oracle_free_pattern(lo, hi, p, offset):
    """Z_p in each degree = offset mod 2(p-1)."""
    out = GradedModule(lo, hi)
    period = 2 * (p - 1)
    for n in range(lo + (offset - lo) % period, hi + 1, period):
        out.set(n, free())
    return out


def _oracle_scalar_fiber_pattern(lo, hi, p, source_offset, exponent_of):
    """Torsion Z/p^e one degree below each source copy of the Z_p-pattern
    at source_offset, where e = exponent_of(source degree)."""
    out = GradedModule(lo, hi)
    period = 2 * (p - 1)
    first = (lo + 1) + (source_offset - (lo + 1)) % period
    for src in range(first, hi + 2, period):
        e = exponent_of(src)
        if e and lo <= src - 1 <= hi:
            out.set(src - 1, cyclic(e))
    return out


def _oracle_build(sid, lo, hi):
    """Each tag spelled out on its own, J with its own degree loop."""
    p, tag, i = sid.p, sid.tag, sid.index
    period = 2 * (p - 1)
    if tag in ("KZ", "TCZ", "FibTau"):
        def piece(t, i=None, lo=lo, hi=hi):
            return _oracle_build(SpectrumId(t, p, i), lo, hi)
        if tag == "KZ":
            pieces = [piece("j")] + [piece("y", i) for i in range(p - 1)]
        elif tag == "TCZ":
            pieces = [piece("j"), shift(piece("jprime", lo=lo - 1,
                                              hi=hi - 1), 1)]
            pieces += [piece("z", i) for i in range(p - 1)]
        else:
            pieces = [piece("jprime")] + [piece("x", i) for i in range(p - 1)]
        return direct_sum(*pieces)
    if tag == "ell":
        return connected_cover(_oracle_free_pattern(lo, hi, p, 0), -1)
    if tag == "L":
        return _oracle_free_pattern(lo, hi, p, 0)
    if tag in ("J", "Jprime", "j", "jprime"):
        out = GradedModule(lo, hi)
        if lo <= 0 <= hi:
            out.set(0, free())
        if tag in ("J", "Jprime") and lo <= -1 <= hi:
            out.set(-1, free())
        for deg in range(lo + (-1 - lo) % period, hi + 1, period):
            m = (deg + 1) // period
            if m == 0 or (m < 0 and tag in ("j", "jprime")):
                continue
            out.set(deg, cyclic(_j_exponent(p, m)))
        return out
    if tag in ("Y", "y"):
        if i == 0:
            return GradedModule(lo, hi)
        if i % 2 == 1:
            M = _oracle_free_pattern(lo, hi, p, 2 * i - 1)
        else:
            M = _oracle_scalar_fiber_pattern(
                lo, hi, p, 2 * i - 1,
                lambda src: homotopy.lp_valuation(
                    p, i, -((src - 1) // 2)))
        return connected_cover(M, 1) if tag == "y" else M
    if tag in ("Z", "z"):
        M = _oracle_free_pattern(lo, hi, p, 2 * i - 1)
        return M if tag == "Z" else connected_cover(M, -2 if i == 0 else 1)
    if i == 1:
        return GradedModule(lo, hi)
    if i == 0:
        M = _oracle_free_pattern(lo, hi, p, -2)
    elif i % 2 == 0:
        M = _oracle_free_pattern(lo, hi, p, 2 * i - 2)
    else:
        M = _oracle_scalar_fiber_pattern(
            lo, hi, p, 2 * i - 1,
            lambda src: homotopy.lp_valuation(p, p - i, (src + 1) // 2))
    return M if tag == "X" else connected_cover(M, -3 if i == 0 else 1)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 37, 59, 101])
@pytest.mark.parametrize("exponents", ["lvalues", "distinct"])
def test_build_matches_the_per_tag_oracle(p, exponents, monkeypatch):
    # every tag and index over the guard window, its two halves, a window
    # around 0, one above it and one inset from both guards; the assemblies
    # at the irregular primes 37, 59 and 101 are served under kv_assume.
    # The true L-value exponents are 0 or 1 almost everywhere, so the
    # sweep runs again with an exponent that differs at every (i, s), to
    # check which L-value each degree of the fiber patterns reads.
    if exponents == "distinct":
        monkeypatch.setattr(homotopy, "lp_valuation",
                            lambda p, i, s: 1 + (3 * i + s) % 5)
    b = max(6 * (p - 1), 40)
    windows = [(-b, b), (-b, -1), (0, b), (-9, 9), (1, 17), (-b + 3, b - 5)]
    for lo, hi in windows:
        for tag in _PLAIN_TAGS + _FAMILY_TAGS:
            for i in [None] if tag in _PLAIN_TAGS else range(p - 1):
                sid = SpectrumId(tag, p, i, kv_assume=True)
                built = _build(p, tag, sid.index, lo, hi)
                assert built == _oracle_build(sid, lo, hi), (tag, i, lo, hi)
                assert homotopy_of(sid, (lo, hi)) == built


def test_every_connective_tag_has_a_cover():
    connective = [t for t in _PLAIN_TAGS + _FAMILY_TAGS if t.islower()]
    assert sorted(_COVER) == sorted(connective)
    for tag, (model, *_) in _COVER.items():
        # the periodic model is a tag of the same kind, plain or indexed
        assert (model in _PLAIN_TAGS) == (tag in _PLAIN_TAGS), tag
        assert model in _PLAIN_TAGS + _FAMILY_TAGS and not model.islower()


def test_lvalue_exponent_climbs_the_precision_ladder():
    # L_37(13, omega^32) has valuation 2, which 3 digits cannot certify
    with pytest.raises(PrecisionExhausted):
        lp_value(37, 32, 13, 3).certified_valuation()
    assert lp_value(37, 32, 13, 5).certified_valuation() == 2
    assert lp_valuation(37, 32, 13) == 2


def test_lvalue_exponent_refused_past_the_last_rung(monkeypatch, capsys):
    # an L-value that vanishes at every precision asked climbs the whole
    # ladder and is refused at its top, and the CLI reports that with exit 1
    asked = []

    def vanished(p, i, s, M=3):
        asked.append(M)
        return lfunctions.LValue(PadicCtx(p, M).of(0), s, i)

    monkeypatch.setattr(lfunctions, "lp_value", vanished)
    _lp_valuation.cache_clear()
    with pytest.raises(PrecisionExhausted, match="^valuation >= 9 not "
                       "certifiable at precision 9$"):
        lp_valuation(37, 32, 5)
    assert asked == list(_PREC_LADDER) == [3, 5, 7, 9]
    # X(5) at degree 8 reads L_37(5, omega^32)
    rc = cli.main(["homotopy", "X(5)", "--prime", "37", "--from", "0",
                   "--to", "10", "--kv-assume"])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err == ("eigensplit: error: valuation >= 9 not "
                            "certifiable at precision 9\n")


def _ladder_exponent(p, i, s):
    # oracle: the precision ladder at every pair, regular or not
    for M in _PREC_LADDER[:-1]:
        try:
            return lp_value(p, i, s, M).certified_valuation()
        except PrecisionExhausted:
            pass
    return lp_value(p, i, s, _PREC_LADDER[-1]).certified_valuation()


def _outcome(f, *args):
    try:
        return f(*args)
    except PrecisionExhausted:
        return "refused"


_PRIMES_BELOW_160 = [p for p in range(5, 160)
                     if all(p % q for q in range(2, p))]
# every irregular pair (p, k) with p < 160, from the published tables
_IRREGULAR_BELOW_160 = [(37, 32), (59, 44), (67, 58), (101, 68), (103, 24),
                        (131, 22), (149, 130), (157, 62), (157, 110)]


@st.composite
def _lvalue_points(draw):
    p = draw(st.sampled_from(_PRIMES_BELOW_160))
    i = draw(st.integers(1, (p - 3) // 2)) * 2
    s = draw(st.integers(-3 * p, 3 * p).filter(lambda s: s != 1))
    return p, i, s


def _with_irregular_examples(test):
    for p, k in _IRREGULAR_BELOW_160:
        test = example((p, k, 0))(test)
    return example((37, 32, 13))(test)


@settings(max_examples=60, deadline=None)
@given(_lvalue_points())
@_with_irregular_examples
def test_lvalue_exponent_matches_the_ladder(point):
    assert _outcome(lp_valuation, *point) == _outcome(
        _ladder_exponent, *point)


def test_regular_pairs_never_reach_lp_value(monkeypatch):
    class Reached(Exception):
        pass

    def refuse(p, i, s, M=3):
        raise Reached((p, i, s))

    monkeypatch.setattr(lfunctions, "lp_value", refuse)
    uncached = _lp_valuation.__wrapped__
    for p in (5, 7, 11, 13, 37, 101):
        for i in range(2, p - 2, 2):
            if (p, i) not in _IRREGULAR_BELOW_160:
                for s in (-p, -1, 0, 2, p + 1):
                    assert uncached(p, i, s) == 0
    with pytest.raises(Reached):
        uncached(37, 32, 13)


def test_duality_reads_lvalues_only_at_irregular_pairs(monkeypatch):
    seen = set()

    def record(p, i, s, M=3):
        seen.add((p, i))
        return lp_value(p, i, s, M)

    monkeypatch.setattr(lfunctions, "lp_value", record)
    _lp_valuation.cache_clear()
    assert verify_main_duality(37, (-60, 60), kv_assume=True).passed
    assert verify_main_duality(101, (-200, 180), kv_assume=True).passed
    assert seen == {(37, 32), (101, 68)}


def test_assemble_fib_tau():
    M = assemble("FibTau", 5, (-4, 4))
    assert M.entry(-2) == Zp
    assert M.entry(0) == Zp
    assert M.entry(1).is_zero()


def test_assemble_tcz():
    M = assemble("TCZ", 5, (-4, 4))
    assert M.entry(1).rank >= 1


def test_assemble_tcz_full_guard_window():
    # the j' summand is read one degree down, at [-61, 59]
    lo, hi = -60, 60
    M = assemble("TCZ", 11, (lo, hi), kv_assume=True)
    jp = shift(homotopy_of(SpectrumId("jprime", 11), (lo, hi - 1)), 1)
    # j' is connective, so its degree lo - 1 is zero
    pieces = [
        homotopy_of(SpectrumId("j", 11), (lo, hi)),
        GradedModule(lo, hi, jp.entries),
    ] + [homotopy_of(SpectrumId("z", 11, i), (lo, hi)) for i in range(10)]
    assert M == direct_sum(*pieces)


def test_assemble_kz_matches_known_table():
    M = assemble("KZ", 5, (0, 9))
    got = {n: M.entry(n) for n in M.degrees()}
    assert got == {0: Zp, 5: Zp, 7: cyclic(1), 9: Zp}


def test_assemble_rank_count_per_period():
    # one free generator from the j-line and one from the odd
    # eigenpieces in each window [0, 2(p-1))
    M = assemble("KZ", 5, (0, 7))
    assert sum(M.entry(n).rank for n in range(0, 8)) == 2


def _kz_oracle(p, n):
    """(rank, v_p of the torsion order) of K_n(Z) (x) Z_p for n >= 0, by
    Quillen-Lichtenbaum (Weibel, The K-book, VI.10), with K_(4k) = 0 under
    Kummer-Vandiver."""
    k = (n + 2) // 4
    if n == 0 or (n % 4 == 1 and n >= 5):
        return 1, 0
    if n % 4 == 3:
        return 0, 1 + vp(k, p) if 2 * k % (p - 1) == 0 else 0
    if n % 4 == 2:
        return 0, vp((bernoulli(2 * k) / k).numerator, p)
    return 0, 0


def _tcz_oracle(p, n):
    """(rank, v_p of the torsion order) of pi_n TC(Z)_p: j v Sigma j v
    Sigma^3 ku_p in degrees >= 0 (Bokstedt-Madsen, Asterisque 226), and
    the Z_p of z(0) in degree -1."""
    if n < -1:
        return 0, 0
    rank = (n <= 1) + (n >= 3 and n % 2 == 1)
    # j has Z/p^(1 + v_p(m)) in degree 2m(p-1) - 1, and Sigma j one above
    torsion = sum(1 + vp(d // (2 * (p - 1)), p) for d in (n, n + 1)
                  if d > 0 and d % (2 * (p - 1)) == 0)
    return rank, torsion


def _ranks_and_torsion(M):
    return {n: (M.entry(n).rank, M.entry(n).torsion_exponent_sum())
            for n in range(M.lo, M.hi + 1)}


# the guard +-(2 LP_BERNOULLI_DEPTH - 1), up to which the published
# tables are checked too
_BOUND = 3999
_TO_THE_GUARD = [pytest.param(p, _BOUND, id=f"{p}-guard")
                 for p in (3, 5, 37, 101)]


@pytest.mark.parametrize("p, hi", [
    pytest.param(p, 6 * (p - 1), id=str(p)) for p in (3, 5, 7, 11, 37, 101)
] + _TO_THE_GUARD)
def test_assemble_kz_matches_quillen_lichtenbaum(p, hi):
    # kv_assume opens the irregular primes 37 and 101
    M = assemble("KZ", p, (0, hi), kv_assume=True)
    assert _ranks_and_torsion(M) == {n: _kz_oracle(p, n)
                                     for n in range(M.lo, M.hi + 1)}


@pytest.mark.parametrize("p, bound", [
    # the old full guard window
    pytest.param(p, max(6 * (p - 1), 40), id=str(p))
    for p in (3, 5, 7, 11, 13, 37, 101, 157)
] + _TO_THE_GUARD)
def test_assemble_tcz_matches_bokstedt_madsen(p, bound):
    M = assemble("TCZ", p, (-bound, bound), kv_assume=True)
    assert _ranks_and_torsion(M) == {n: _tcz_oracle(p, n)
                                     for n in range(M.lo, M.hi + 1)}


def test_duality_passes_regular():
    for p in (5, 7):
        lo, hi = -2 * (p - 1), 4 * (p - 1)
        report = verify_main_duality(p, (lo, hi))
        assert report.passed
        assert all(c["status"] == "PASS" for c in report.cells)
        assert report.to_dict()["prime"] == p


def test_duality_full_guard_window():
    # the dual route reads [-hi-2, -lo-1], past the checked window
    report = verify_main_duality(11, (-60, 60))
    assert report.passed
    assert report.cells


@pytest.mark.parametrize("window", [(-4000, 3999), (-3999, 4000), (3, 2),
                                    (0,), (0, 3, 5), (-2.5, 3), (0, "3"), 5])
@pytest.mark.parametrize("entry", [
    lambda w: homotopy_of(SpectrumId("J", 11), w),
    lambda w: assemble("TCZ", 11, w, kv_assume=True),
    lambda w: verify_main_duality(11, w),
], ids=["homotopy_of", "assemble", "verify_main_duality"])
def test_public_entries_guard_the_window(entry, window):
    with pytest.raises(UsageError):
        entry(window)


def _dense_duality(p, lo, hi):
    """Oracle: `verify_main_duality` walking every degree of [lo, hi]
    for every index, against the dense dual."""
    cells, notes, flags = [], [], []
    period = 2 * (p - 1)
    for i in range(p - 1):
        A = _build(p, "x", i, lo, hi)
        if i == 1:
            A = direct_sum(A, _build(p, "jprime", None, lo, hi))
        k = (p - i) % (p - 1)
        if k == 0:
            K = _build(p, "J", None, -hi - 2, -lo - 1)
        else:
            K = _build(p, "Y", k, -hi - 2, -lo - 1)
        B = connected_cover(shift(_dense_anderson_dual(K), -1), -3)
        for n in range(lo, hi + 1):
            a, b = A.entry(n), B.entry(n)
            if a == b:
                if not a.is_zero():
                    cells.append({"i": i, "degree": n, "status": "PASS",
                                  "module": _module_cell(a)})
            elif (i, n) == (1, -1):
                notes.append({"i": i, "degree": n, "status": "note",
                              "fiber_route": _module_cell(a),
                              "dual_route": _module_cell(b)})
            else:
                cells.append({"i": i, "degree": n, "status": "FAIL",
                              "fiber_route": _module_cell(a),
                              "dual_route": _module_cell(b)})
        if i >= 2 and i % 2 == 0:
            prose = {n for n in range(lo, hi + 1)
                     if (n - 2 * i) % period == 0 and n >= 2}
            flags += [{"i": i, "degree": n}
                      for n in sorted(set(A.degrees()) ^ prose)]
    return {
        "prime": p, "window": [lo, hi],
        "passed": all(c["status"] != "FAIL" for c in cells),
        "cells": cells, "notes": notes, "prose_flags": flags,
    }


@st.composite
def _duality_windows(draw):
    p = draw(st.sampled_from((5, 7, 11, 37, 101)))
    bound = max(6 * (p - 1), 40)
    lo = draw(st.integers(-bound, bound))
    return p, lo, draw(st.integers(lo, bound))


@settings(max_examples=40, deadline=None)
@given(_duality_windows())
@example((5, -8, 16))
@example((37, -216, 216))
@example((101, -600, 600))
@example((7, 3, 3))
def test_sparse_duality_matches_dense_walk(case):
    p, lo, hi = case
    kv = p in (37, 101)
    report = verify_main_duality(p, (lo, hi), kv_assume=kv)
    assert report.to_dict() == _dense_duality(p, lo, hi)


def _inject_dual_cell(monkeypatch, p, i, n):
    """Give the dual route of index i a Z/p more in degree n: its last
    step, the cover at -3, runs once per index, in order."""
    cover, covers = homotopy.connected_cover, []

    def injected(M, c):
        out = cover(M, c)
        if len(covers) % (p - 1) == i:
            out.entries[n] = out.entries.get(n, homotopy.ZERO) + cyclic(1)
        covers.append(c)
        return out

    monkeypatch.setattr(homotopy, "connected_cover", injected)


def test_duality_low_degree_note(capsys):
    report = verify_main_duality(5, (-8, 16))
    notes = report.notes
    assert len(notes) == 1
    assert notes[0]["i"] == 1 and notes[0]["degree"] == -1
    # a mismatch injected into the dual route there stays the one note; at
    # any other cell it is a FAIL, and the CLI exits 2
    argv = ["duality", "--prime", "5", "--from", "-8", "--to", "16"]
    for i, n in ((1, -1), (0, -1), (1, -3), (0, 0)):
        noted = (i, n) == (1, -1)
        with pytest.MonkeyPatch.context() as mp:
            _inject_dual_cell(mp, 5, i, n)
            report = verify_main_duality(5, (-8, 16))
            rc = cli.main(argv)
        assert [(c["i"], c["degree"]) for c in report.notes] == [(1, -1)]
        fails = [(c["i"], c["degree"]) for c in report.cells
                 if c["status"] == "FAIL"]
        assert fails == ([] if noted else [(i, n)])
        assert report.passed is noted
        assert json.loads(capsys.readouterr().out)["passed"] is noted
        assert rc == (0 if noted else 2)


def test_duality_irregular_prime_torsion_cells():
    report = verify_main_duality(37, (-72, 144), kv_assume=True)
    assert report.passed
    tors = [(c["i"], c["degree"]) for c in report.cells
            if c["module"]["torsion"]]
    assert (5, 8) in tors
    assert (1, 71) in tors
    with pytest.raises(KummerVandiverRequired):
        verify_main_duality(37, (-72, 144))


def test_duality_fails_on_a_shifted_cover(monkeypatch):
    # covering x(i) above degree 9 instead of 1 loses the Z/37 that
    # L_37(5, omega^32) puts in degree 8 of x(5), and the free Z_p in
    # degrees 2 and 6 of x(2) and x(4); the dual route still has them
    monkeypatch.setitem(homotopy._COVER, "x", ("X", 9, -3))
    report = verify_main_duality(37, (-72, 144), kv_assume=True)
    assert report.passed is False
    fails = [c for c in report.cells if c["status"] == "FAIL"]
    zero = {"rank": 0, "torsion": []}
    assert fails == [
        {"i": 2, "degree": 2, "fiber_route": zero,
         "dual_route": {"rank": 1, "torsion": []}, "status": "FAIL"},
        {"i": 4, "degree": 6, "fiber_route": zero,
         "dual_route": {"rank": 1, "torsion": []}, "status": "FAIL"},
        {"i": 5, "degree": 8, "fiber_route": zero,
         "dual_route": {"rank": 0, "torsion": [1]}, "status": "FAIL"},
    ]
    assert report.to_dict()["passed"] is False


def test_les_consistency_all_triples():
    for p in (5, 7):
        window = (-2 * (p - 1), 4 * (p - 1))
        for i in range(p - 1):
            x = homotopy_of(SpectrumId("x", p, i), window)
            y = homotopy_of(SpectrumId("y", p, i), window)
            z = homotopy_of(SpectrumId("z", p, i), window)
            report = les_consistency(x, y, z)
            assert report.passed, (p, i, report.to_dict())


@pytest.mark.parametrize("p, bound, statuses", [
    pytest.param(p, max(6 * (p - 1), 40), {"ok"}, id=str(p))
    for p in (3, 5, 7, 11, 13, 37, 101)
] + [
    # at p = 3, 5 and 101 the top run starts at X_3999, the window's
    # edge, and is skipped
    pytest.param(p, _BOUND, statuses, id=f"{p}-guard")
    for p, statuses in ((3, {"ok", "edge-skipped"}),
                        (5, {"ok", "edge-skipped"}), (37, {"ok"}),
                        (101, {"ok", "edge-skipped"}))
])
def test_les_of_the_assembled_sequence(p, bound, statuses):
    # FibTau -> KZ -> TCZ: every segment is an exact run; one extra Z_p
    # in degree -1 of the fiber breaks the run through degrees 1..-1
    window = (-bound, bound)
    kv = not regularity_certificate(p)
    fib, kz, tcz = (assemble(tag, p, window, kv_assume=kv)
                    for tag in ("FibTau", "KZ", "TCZ"))
    report = les_consistency(fib, kz, tcz)
    assert report.passed
    assert {seg["status"] for seg in report.segments} == statuses
    extra = direct_sum(fib, GradedModule(*window, {-1: free()}))
    broken = les_consistency(extra, kz, tcz)
    assert not broken.passed
    assert [seg["slots"] for seg in broken.segments
            if seg["status"] == "FAIL"] == [
        ["Z_1", "X_0", "Y_0", "Z_0", "X_-1"]]


def test_les_detects_breakage():
    X = GradedModule(0, 4)
    X.set(2, Zp)
    Y = GradedModule(0, 4)
    Z = GradedModule(0, 4)
    report = les_consistency(X, Y, Z)
    assert not report.passed


@pytest.mark.parametrize("exponents, status", [
    ((2, 1, 1), "FAIL"),  # Y_n cannot be smaller than the image of X_n
    ((1, 3, 1), "FAIL"),  # nor larger than X_n and Z_n together
    ((1, 2, 1), "ok"),
])
def test_les_three_term_torsion_bounds(exponents, status):
    # one run X_2 -> Y_2 -> Z_2 of torsion groups, zeros on both sides
    triple = [GradedModule(0, 4, {2: cyclic(e)}) for e in exponents]
    assert _segment_status([M.entry(2) for M in triple]) == status
    report = les_consistency(*triple)
    assert report.passed is (status == "ok")
    assert report.segments == [{
        "slots": ["X_2", "Y_2", "Z_2"],
        "modules": [{"rank": 0, "torsion": [e]} for e in exponents],
        "status": status,
    }]


@pytest.mark.parametrize("exponents, status", [
    ((1, 2, 2, 1), "ok"),
    ((1, 2, 1, 1), "FAIL"),  # the orders alternate to 1 - 2 + 1 - 1 != 0
])
def test_les_four_term_torsion_orders(exponents, status):
    # one run X_2 -> Y_2 -> Z_2 -> X_1 of torsion groups, zeros on both
    # sides: past three terms only the alternating order sum is checked
    ex2, ey, ez, ex1 = exponents
    X = GradedModule(0, 4, {2: cyclic(ex2), 1: cyclic(ex1)})
    Y = GradedModule(0, 4, {2: cyclic(ey)})
    Z = GradedModule(0, 4, {2: cyclic(ez)})
    run = [X.entry(2), Y.entry(2), Z.entry(2), X.entry(1)]
    assert _segment_status(run) == status
    report = les_consistency(X, Y, Z)
    assert report.passed is (status == "ok")
    assert report.segments == [{
        "slots": ["X_2", "Y_2", "Z_2", "X_1"],
        "modules": [{"rank": 0, "torsion": [e]} for e in exponents],
        "status": status,
    }]


def test_les_identity_triple():
    window = (-2, 20)
    M = homotopy_of(SpectrumId("z", 5, 3), window)
    zero = GradedModule(*window)
    report = les_consistency(zero, M, M)
    assert report.passed


def test_les_edge_runs_are_skipped():
    X = GradedModule(0, 4)
    X.set(4, Zp)  # truncated by the window edge, not a failure
    Y = GradedModule(0, 4)
    Z = GradedModule(0, 4)
    Z.set(0, Zp)  # likewise at the bottom edge
    report = les_consistency(X, Y, Z)
    assert report.passed
    statuses = {seg["status"] for seg in report.segments}
    assert statuses <= {"edge-skipped"}


def _slot_les(X, Y, Z):
    """Oracle: `les_consistency` walking all 3 (hi - lo + 1) slots of the
    window and closing a segment at every zero slot."""
    report = homotopy.LesReport()
    run = []
    run_touches_start = True
    for n in range(X.hi, X.lo - 1, -1):
        for label, M in zip("XYZ", (X, Y, Z)):
            m = M.entry(n)
            if m.is_zero():
                if run:
                    homotopy._close_segment(report, run, run_touches_start,
                                            False)
                    run = []
                run_touches_start = False
            else:
                run.append((label, n, m))
    if run:
        homotopy._close_segment(report, run, run_touches_start, True)
    return report


@st.composite
def _graded_triples(draw):
    lo = draw(st.integers(-10, 10))
    hi = lo + draw(st.integers(0, 8))
    cells = st.builds(FgZpModule, st.integers(0, 2),
                      st.lists(st.integers(1, 3), max_size=2))
    return [GradedModule(lo, hi, draw(st.dictionaries(
        st.integers(lo, hi), cells, max_size=hi - lo + 1)))
        for _ in range(3)]


@settings(max_examples=300, deadline=None)
@given(_graded_triples())
@example([GradedModule(0, 0), GradedModule(0, 0), GradedModule(0, 0)])
@example([GradedModule(0, 0, {0: free()}), GradedModule(0, 0, {0: free()}),
          GradedModule(0, 0, {0: free()})])
@example([GradedModule(0, 2, {2: free(), 1: free()}),
          GradedModule(0, 2, {1: free()}), GradedModule(0, 2, {0: free()})])
def test_les_walk_matches_slot_walk_on_random_triples(triple):
    assert les_consistency(*triple).to_dict() == _slot_les(*triple).to_dict()


@pytest.mark.parametrize("p", [5, 7, 11, 13, 37, 59, 67, 101, 103, 131,
                               149, 157])
def test_les_walk_matches_slot_walk_over_the_guard_window(p):
    bound = max(6 * (p - 1), 40)
    for i in range(p - 1):
        triple = [homotopy_of(SpectrumId(v, p, i, kv_assume=True),
                              (-bound, bound)) for v in "xyz"]
        assert (les_consistency(*triple).to_dict()
                == _slot_les(*triple).to_dict()), (p, i)
