"""Bernoulli numbers and p-adic L-values, checked against independent routes."""

from fractions import Fraction
from math import comb, factorial, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eigensplit import lfunctions
from eigensplit.errors import PrecisionExhausted, UsageError
from eigensplit.lfunctions import (
    BernoulliTable,
    _lp_valuation,
    bernoulli,
    configure_cache,
    irregular_pairs,
    lp_valuation,
    lp_value,
    regularity_certificate,
)
from eigensplit.padic import PadicCtx, primitive_root, vp


def _bernoulli_akiyama_tanigawa(top: int) -> list:
    # independent oracle for B_0..B_top; this variant yields B_1 = +1/2,
    # so only use it away from n = 1
    row, out = [], []
    for m in range(top + 1):
        row.append(Fraction(1, m + 1))
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        out.append(row[0])
    return out


def _bernoulli_defining_recurrence(top: int) -> list:
    # the reference route: sum_{k<=n} C(n+1,k) B_k = 0 over exact rationals
    vals = [Fraction(1)]
    for n in range(1, top + 1):
        if n > 2 and n % 2 == 1:
            vals.append(Fraction(0))
            continue
        total = Fraction(0)
        for k in range(n):
            if vals[k]:
                total += comb(n + 1, k) * vals[k]
        vals.append(-total / (n + 1))
    return vals


def test_bernoulli_against_independent_recurrence():
    oracle = _bernoulli_akiyama_tanigawa(120)
    for n in range(0, 121, 2):
        assert bernoulli(n) == oracle[n]
    assert bernoulli(1) == Fraction(-1, 2)
    for n in range(3, 121, 2):
        assert bernoulli(n) == 0


def test_bernoulli_against_defining_recurrence():
    table = BernoulliTable()
    table.get(300)
    assert table.values == _bernoulli_defining_recurrence(300)


def test_bernoulli_extends_in_steps():
    stepped = BernoulliTable()
    for n in (10, 50, 300):
        stepped.get(n)
    once = BernoulliTable()
    once.get(300)
    assert stepped.values == once.values


def test_bernoulli_known_values():
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(12) == Fraction(-691, 2730)


def test_von_staudt_clausen():
    from eigensplit.padic import is_prime

    for n in range(2, 102, 2):
        s = bernoulli(n)
        for q in range(2, n + 2):
            if is_prime(q) and n % (q - 1) == 0:
                s += Fraction(1, q)
        assert s.denominator == 1


def test_irregular_pairs():
    assert irregular_pairs(5) == []
    assert irregular_pairs(7) == []
    assert irregular_pairs(37) == [32]
    assert irregular_pairs(59) == [44]
    assert 12 in irregular_pairs(691)
    assert irregular_pairs(691, k_max=688) == [12, 200]
    # k_max only narrows the scan
    assert irregular_pairs(691, k_max=100) == [12]
    # below the first even index there is nothing to scan
    for k_max in (1, 0, -10):
        assert irregular_pairs(37, k_max=k_max) == []


def _spy_on_bernoulli(monkeypatch) -> list:
    """The indices lfunctions reads through `bernoulli` from now on."""
    read, real = [], lfunctions.bernoulli
    monkeypatch.setattr(lfunctions, "bernoulli",
                        lambda n: read.append(n) or real(n))
    return read


def test_a_small_k_max_reads_no_bernoulli_past_it(monkeypatch):
    # k_max narrows the cost of the scan as well as its answer
    lfunctions._irregular_up_to.cache_clear()
    read = _spy_on_bernoulli(monkeypatch)
    assert irregular_pairs(691, k_max=30) == [12]
    assert read and max(read) == 30


def test_irregular_pairs_returns_a_new_list():
    for args in ((37,), (691,), (691, 100)):
        first = irregular_pairs(*args)
        expected = list(first)
        first.append(99)
        assert irregular_pairs(*args) == expected
        assert irregular_pairs(*args) is not irregular_pairs(*args)


def test_lp_valuation_reads_the_cached_scan(monkeypatch):
    # a regular pair is decided by the scan alone, with no Bernoulli read
    irregular_pairs(101)
    read = _spy_on_bernoulli(monkeypatch)
    for i in range(2, 99, 2):
        if i != 68:
            assert _lp_valuation.__wrapped__(101, i, -3) == 0
    assert read == []
    assert _lp_valuation.__wrapped__(101, 68, 0) == 1 and read


@pytest.mark.parametrize("p, i", [(3, 2), (5, 0), (5, 4), (7, 3), (7, 6)])
def test_lp_valuation_needs_an_even_i_in_range(p, i):
    with pytest.raises(UsageError, match="character exponent"):
        lp_valuation(p, i, 0)


def _power_sum_pairs(p: int) -> list:
    # independent oracle: for even 2 <= k <= p-3, sum_{a<p} a^k = p B_k
    # mod p^2, so p | B_k exactly when that power sum is 0 mod p^2
    q = p * p
    return [k for k in range(2, p - 2, 2)
            if sum(pow(a, k, q) for a in range(1, p)) % q == 0]


@pytest.mark.parametrize("p, pairs", [
    (211, []), (233, [84]), (257, [164]), (353, [186, 300]),
    (491, [292, 336, 338]), (691, [12, 200]),
])
def test_irregular_pairs_scan_every_k(p, pairs):
    assert irregular_pairs(p) == _power_sum_pairs(p) == pairs


def test_regularity_certificate():
    assert regularity_certificate(5) is True
    assert regularity_certificate(7) is True
    assert regularity_certificate(37) is False
    # decided at every prime, above 200 too
    assert regularity_certificate(211) is True
    assert regularity_certificate(233) is False


def test_cache_file_that_is_a_directory_is_a_usage_error(tmp_path):
    (tmp_path / "bernoulli.tsv").mkdir()
    with pytest.raises(UsageError, match="cannot use Bernoulli cache .*tsv"):
        configure_cache(str(tmp_path))
    # the table in use is left as it was
    assert lfunctions._table.path is None


def test_cache_directory_must_be_a_path():
    with pytest.raises(UsageError, match=r"^cache directory must be None "
                       r"or a path, got 5$"):
        configure_cache(5)
    assert lfunctions._table.path is None


def test_character_guards():
    with pytest.raises(UsageError, match="^the trivial-character branch has "
                       "a pole and is never needed$"):
        lp_value(5, 0, -3)
    with pytest.raises(UsageError, match="^odd character exponent 3 "):
        lp_value(5, 3, -2)
    with pytest.raises(UsageError, match="^odd character exponent 1 "):
        lp_value(5, 1, 2)
    with pytest.raises(UsageError, match="^s = 1 is outside"):
        lp_value(5, 2, 1)  # s = 1 is outside the domain here


@pytest.mark.parametrize("call", [
    lambda M: lp_value(5, 2, -1, M),  # the exact interpolation branch
    lambda M: lp_value(5, 2, 3, M),
    # M is read before s, and before the refusal of s = 1
    lambda M: lp_value(5, 2, 1, M),
    lambda M: lp_value(5, 2, 3.5, M),
])
@pytest.mark.parametrize("M", [0, -2])
def test_precision_below_one_is_refused(call, M):
    with pytest.raises(UsageError, match=f"precision must be >= 1, got {M}$"):
        call(M)


def test_lp_neg_exact_rational():
    # -(1 - p^{n-1}) B_n / n, computed here from scratch
    for p, i, n in ((5, 2, 2), (5, 2, 6), (7, 4, 4), (7, 2, 8)):
        val = lp_value(p, i, 1 - n)
        expect = -(1 - Fraction(p) ** (n - 1)) * bernoulli(n) / n
        assert val.rational == expect
        assert val.s == 1 - n


def test_lp_two_routes_agree_at_negative_integers():
    # the finite character-sum route must reproduce the exact
    # interpolation values
    for p, i, n_list in ((5, 2, (2, 6, 10, 14)), (7, 2, (2, 8, 14)),
                         (7, 4, (4, 10, 16))):
        for n in n_list:
            s = 1 - n
            a = lfunctions._lp_sum(p, i, s, 3)
            b = lp_value(p, i, s)
            assert b.rational is not None
            assert a.value.residue(3) == b.value.residue(3)


def test_lp_at_positive_s_against_kummer_congruence():
    # L_p(s) at positive s has no closed form; compare against the exact
    # value at a negative integer in the same character class congruent
    # to s modulo p^2 in weight space
    a = lp_value(5, 2, 3, M=2)
    b = lp_value(5, 2, -97)  # -97 = 3 mod 4*25, and 98 = 2 mod 4
    assert a.value.residue(2) == b.value.residue(2)


def test_lp_value_dispatch():
    v1 = lp_value(5, 2, -1)
    assert v1.rational is not None
    v2 = lp_value(5, 2, 3)
    assert v2.rational is None
    assert lp_value(5, 2, -1).certified_valuation() == 0
    # interpolation points give at least 4 digits, and more when asked
    for M, prec in ((3, 4), (4, 4), (8, 8)):
        v = lp_value(5, 2, -1, M)
        assert v.value.prec == prec
        assert v.value == v.value.ctx.from_rational(v.rational)


def test_lvalues_of_one_precision_share_one_context():
    # both branches answer in the exact branch's PadicCtx(p, max(M, 4)),
    # the sum at the M digits it certifies, so the L-values of one (p, M)
    # add; (value, prec, exact?) as each branch gave them before
    want = {
        3: {3: (47, 3, False), 6: (32, 3, False), -1: (417, 4, True),
            -3: (2, 3, False), 2: (102, 3, False)},
        5: {3: (2172, 5, False), 6: (1657, 5, False), -1: (1042, 5, True),
            -3: (2, 5, False), 2: (1852, 5, False)},
    }
    for M, points in want.items():
        ctx = PadicCtx(5, max(M, 4))
        vals = {s: lp_value(5, 2, s, M) for s in points}
        assert {s: (v.value.value, v.value.prec, v.rational is not None)
                for s, v in vals.items()} == points
        assert all(v.value.ctx is ctx for v in vals.values())
        assert all(v.certified_valuation() == 0 for v in vals.values())
        total = sum((v.value for v in vals.values()), ctx.of(0))
        assert total.prec == M
        assert total.value == sum(v.value.value for v in vals.values()) \
            % 5 ** M


def test_lp_value_reads_no_bernoulli_number_past_its_depth(monkeypatch):
    # s = 1 - LP_BERNOULLI_DEPTH is the last admitted s; at (7, 2) it is
    # the interpolation point n = 2000, which reads B_2000 and nothing
    # deeper.  One s further is refused before any Bernoulli number is
    # read, and the refusal names the bound
    assert lfunctions.LP_BERNOULLI_DEPTH == 2000
    read = _spy_on_bernoulli(monkeypatch)
    for p, i, s in ((5, 2, -4001), (7, 2, -2000), (7, 2, -2005)):
        with pytest.raises(UsageError,
                           match=rf"^s must be >= -1999, got {s}$"):
            lp_value(p, i, s)
    assert read == []
    v = lp_value(7, 2, -1999)
    assert v.rational is not None and max(read) == 2000
    read.clear()
    assert lp_value(5, 2, -1999).rational is None  # 2000 = 0 mod 4: a sum
    assert max(read) < 10


def test_lp_value_precision_reads_no_bernoulli_number_past_its_depth(
        monkeypatch):
    # the sum at s reads B_0..B_(M + 3 + v_p(s - 1)), so an M that would
    # read past the depth is refused before any Bernoulli number is read
    # (M = 4000 at s = 3 once read B_4003, for about 7 s)
    read = _spy_on_bernoulli(monkeypatch)
    for s, M, top in ((3, 4000, 4003), (3, 1998, 2001), (26, 1996, 2001)):
        with pytest.raises(UsageError, match=rf"^precision {M} at s = {s} "
                           rf"reads B_{top}, past the Bernoulli depth bound "
                           r"B_2000$"):
            lp_value(5, 2, s, M)
    assert read == []
    # the bound follows the depth: cut to 20, the last admitted M reads
    # B_20 and one more is refused
    monkeypatch.setattr(lfunctions, "LP_BERNOULLI_DEPTH", 20)
    assert lp_value(5, 2, 3, 17).value.prec == 17
    assert max(read) == 20
    with pytest.raises(UsageError, match=r"^precision 18 at s = 3 reads "
                       r"B_21, past the Bernoulli depth bound B_20$"):
        lp_value(5, 2, 3, 18)


def test_kummer_congruence_spot_checks():
    # (1 - p^{m-1}) B_m/m = (1 - p^{n-1}) B_n/n mod p^{k+1}
    # for m = n mod p^k (p-1), m, n not 0 mod p-1
    cases = [
        (5, 2, 22, 2),   # k = 1: agree mod 25
        (5, 6, 26, 2),
        (7, 2, 44, 2),   # k = 1: agree mod 49
        (7, 2, 8, 1),    # k = 0: agree mod 7
        (7, 4, 10, 1),
    ]
    for p, m, n, k in cases:
        em = (1 - Fraction(p) ** (m - 1)) * bernoulli(m) / m
        en = (1 - Fraction(p) ** (n - 1)) * bernoulli(n) / n
        diff = em - en
        assert diff.denominator % p != 0
        assert diff.numerator % p ** k == 0


def test_certified_valuation_precision_contract():
    # the (37, 32) pair puts one power of 37 into L_37(s, omega^32)
    exact = lp_value(37, 32, -31)
    assert exact.rational is not None
    assert exact.certified_valuation() == 1
    shallow = lp_value(37, 32, 5, M=2)
    with pytest.raises(PrecisionExhausted):
        shallow.certified_valuation()
    # at M = 1 the value vanishes mod 37: refused the same way
    vanished = lp_value(37, 32, 5, M=1)
    assert vanished.value.lift() == 0
    refusal = "^valuation >= 1 not certifiable at precision 1$"
    with pytest.raises(PrecisionExhausted, match=refusal):
        vanished.certified_valuation()
    deeper = lp_value(37, 32, 5, M=3)
    assert deeper.certified_valuation() == 1


def _binomial(x, j):
    """C(x, j) for any integer x: the falling factorial over j!."""
    return prod(range(x, x - j, -1)) // factorial(j)


def _lp_at_term_chain(p, i, s, M):
    """Oracle: the finite sum as it was, each term a PadicInt product of
    omega(a)^i, <a>^(1-s) with <a> = a omega(a)^(-1), and the inner sum,
    whose terms are each built from the binomial and a power of p/a."""
    K = M + 2 + vp(s - 1, p)
    ctx = PadicCtx(p, K)
    e_red = (1 - s) % (p ** (K - 1) * (p - 1))
    total = ctx.of(0)
    for a in range(1, p):
        inner = Fraction(0)
        for j in range(K + 2):
            b = bernoulli(j)
            if b:
                inner += _binomial(1 - s, j) * Fraction(p, a) ** j * b
        bracket = ctx.of(a) * ctx.teichmuller(a).invert()
        term = ctx.teichmuller(a) ** i
        term = term * ctx.of(pow(bracket.lift(), e_red, ctx.modulus))
        total = total + term * ctx.from_rational(inner)
    return total.div_int(p).div_int(s - 1).reduce_to(M)


_PRIMES_TO_157 = [p for p in range(5, 158) if all(p % q for q in range(2, p))]


@st.composite
def _lp_at_points(draw):
    p = draw(st.sampled_from(_PRIMES_TO_157))
    i = 2 * draw(st.integers(1, (p - 3) // 2))
    s = draw(st.integers(-200, 200).filter(lambda s: s != 1))
    return p, i, s, draw(st.integers(1, 9))


@settings(max_examples=80, deadline=None)
@given(_lp_at_points())
@example((37, 32, 5, 1))  # vanishes mod 37
@example((5, 2, 26, 4))  # v_5(s - 1) = 2 costs two more digits
@example((157, 110, -200, 9))
@example((5, 2, 3, 4))  # B_(p-1), with p in its denominator, enters the row
@example((7, 4, 2, 6))  # the same, at s = 2
@example((23, 10, 0, 6))  # C(1, j) = 0 for j >= 2
@example((29, 12, 2, 8))  # C(-1, j) = (-1)^j
def test_lp_at_matches_the_term_chain(point):
    # the unit factor omega(a)^((i+s-1) mod (p-1)) a^(1-s) in ints equals
    # omega^i(a) <a>^(1-s) term by term
    got = lfunctions._lp_sum(*point).value
    want = _lp_at_term_chain(*point)
    assert (got.value, got.prec) == (want.value, want.prec)


def test_lp_sum_lifts_one_primitive_root(monkeypatch):
    # one lift of g, where a lift of each a = 1..p-1 would be 156
    lifted = []
    lift = PadicCtx.teichmuller
    monkeypatch.setattr(PadicCtx, "teichmuller",
                        lambda ctx, a: lifted.append(a) or lift(ctx, a))
    lfunctions._lp_sum(157, 110, -200, 9)
    assert lifted == [primitive_root(157)]


def test_lp_sum_raises_no_fraction_to_a_power(monkeypatch):
    # the row C(1-s, j) B_j is built once, and each inner sum is a Horner
    # in p/a, so no (p/a)^j is formed
    bernoulli(20)
    powers = []
    power = Fraction.__pow__
    monkeypatch.setattr(Fraction, "__pow__",
                        lambda x, n: powers.append(n) or power(x, n))
    lfunctions._lp_sum(37, 32, 5, 9)
    assert powers == []


def test_unit_lvalue_has_valuation_zero():
    for p, i in ((5, 2), (7, 2), (7, 4)):
        assert lp_value(p, i, 2, M=3).certified_valuation() == 0


def test_cache_round_trip(tmp_path):
    try:
        configure_cache(str(tmp_path))
        x = bernoulli(30)
        assert (tmp_path / "bernoulli.tsv").exists()
        # a fresh configure re-reads the file
        configure_cache(str(tmp_path))
        assert bernoulli(30) == x
    finally:
        configure_cache(None)


@pytest.mark.parametrize("bad_row", [
    "4\t-1\t3O",       # not an integer
    "4\t-1\t3\xff0",   # not text (written as one byte 0xff)
    "4\t-1\t0",        # zero denominator
    "4\t1\t7",         # not the von Staudt-Clausen denominator 30
    "4\t-2\t60",       # not in lowest terms
    "5\t-1\t30",       # out of index order
])
def test_corrupt_cache_keeps_valid_prefix(tmp_path, bad_row):
    clean = BernoulliTable(str(tmp_path / "clean.tsv"))
    clean.get(10)
    path = tmp_path / "bernoulli.tsv"
    rows = (tmp_path / "clean.tsv").read_text().splitlines()
    rows[4] = bad_row
    path.write_bytes(("\n".join(rows) + "\n").encode("latin-1"))
    table = BernoulliTable(str(path))
    assert table.values == clean.values[:4]
    table.get(10)
    assert path.read_text() == (tmp_path / "clean.tsv").read_text()


def test_cache_odd_rows_must_be_zero(tmp_path):
    path = tmp_path / "bernoulli.tsv"
    path.write_text("0\t1\t1\n1\t-1\t2\n2\t1\t6\n3\t1\t1\n")
    assert BernoulliTable(str(path)).values == [1, Fraction(-1, 2),
                                                 Fraction(1, 6)]


def test_lp_at_writes_an_empty_cache_once(tmp_path, monkeypatch):
    stores = []
    store = BernoulliTable._store
    monkeypatch.setattr(BernoulliTable, "_store",
                        lambda table: stores.append(store(table)))
    path = tmp_path / "bernoulli.tsv"
    monkeypatch.setattr(lfunctions, "_table", BernoulliTable(str(path)))
    # s = 3 is no interpolation point, so the finite sum reads
    # B_0..B_{K+1}, K = 8
    lp_value(7, 4, 3, M=6)
    assert len(stores) == 1
    assert len(path.read_text().splitlines()) == 10


@pytest.fixture(scope="module")
def clean_rows(tmp_path_factory):
    """The 700 rows B_0..B_699 of a cache file written by a clean table."""
    path = tmp_path_factory.mktemp("clean") / "bernoulli.tsv"
    BernoulliTable(str(path)).get(699)
    return path.read_text().splitlines()


@pytest.fixture
def rows_read(monkeypatch):
    """The index of every cache row checked, in order."""
    read = []
    read_row = lfunctions._read_row

    def record(line, n, den):
        read.append(n)
        return read_row(line, n, den)

    monkeypatch.setattr(lfunctions, "_read_row", record)
    return read


@pytest.fixture
def stores(monkeypatch):
    """The disk-backed tables that wrote their cache file, in order."""
    tables = []
    store = BernoulliTable._store

    def record(table):
        if table.path is not None:
            tables.append(table)
        store(table)

    monkeypatch.setattr(BernoulliTable, "_store", record)
    return tables


def _write_rows(path, rows):
    path.write_text("".join(row + "\n" for row in rows))


def test_cache_reads_only_the_rows_asked_for(tmp_path, clean_rows,
                                             rows_read, stores):
    path = tmp_path / "bernoulli.tsv"
    corrupt = list(clean_rows)
    corrupt[500] = "500\t1\t7"
    _write_rows(path, corrupt)
    table = BernoulliTable(str(path))
    assert table.get(12) == Fraction(-691, 2730)
    assert rows_read == list(range(13))
    assert stores == []
    # B_600 lies past the corrupt row: rows 13..500 are read, and
    # B_500..B_600 recomputed and written
    assert table.get(600) == bernoulli(600)
    assert rows_read == list(range(501))
    assert stores == [table]
    assert path.read_text().splitlines() == clean_rows[:601]


def test_a_loaded_file_is_sieved_once(tmp_path, monkeypatch, clean_rows,
                                      rows_read):
    # the denominators of every row come from one sieve when the file
    # loads, however many reads follow; each row is still checked once
    sieves = []
    sieve = lfunctions._denominators

    def record(top):
        sieves.append(top)
        return sieve(top)

    monkeypatch.setattr(lfunctions, "_denominators", record)
    path = tmp_path / "bernoulli.tsv"
    _write_rows(path, clean_rows)
    table = BernoulliTable(str(path))
    for n in (10, 154, 600):
        _, num, den = map(int, clean_rows[n].split("\t"))
        assert table.get(n) == Fraction(num, den)
    assert sieves == [len(clean_rows) - 1]
    assert rows_read == list(range(601))


def test_values_reads_the_whole_valid_prefix(tmp_path, clean_rows,
                                             rows_read):
    path = tmp_path / "bernoulli.tsv"
    _write_rows(path, clean_rows[:40])
    table = BernoulliTable(str(path))
    table.get(3)
    assert table.values == [bernoulli(n) for n in range(40)]
    assert rows_read == list(range(40))


def test_configure_cache_reads_no_row_for_a_fresh_table(
        tmp_path, monkeypatch, clean_rows, rows_read, stores):
    monkeypatch.setattr(lfunctions, "_table", BernoulliTable())
    _write_rows(tmp_path / "bernoulli.tsv", clean_rows)
    configure_cache(str(tmp_path))
    assert rows_read == [0]
    assert bernoulli(12) == Fraction(-691, 2730)
    assert rows_read == list(range(13))
    assert stores == []


def test_configure_cache_keeps_a_longer_table(tmp_path, monkeypatch,
                                              clean_rows, rows_read, stores):
    path = tmp_path / "bernoulli.tsv"
    monkeypatch.setattr(lfunctions, "_table", BernoulliTable())
    bernoulli(40)
    # a shorter file takes the table in use, and is rewritten once
    _write_rows(path, clean_rows[:20])
    configure_cache(str(tmp_path))
    assert rows_read == list(range(20))
    assert len(stores) == 1
    assert path.read_text().splitlines() == clean_rows[:41]
    assert lfunctions._table.values == [bernoulli(n) for n in range(41)]
    # a longer one is read only as far as the table in use reaches
    _write_rows(path, clean_rows)
    del rows_read[:]
    configure_cache(str(tmp_path))
    assert rows_read == list(range(41))
    assert len(stores) == 1
    assert path.read_text().splitlines() == clean_rows
