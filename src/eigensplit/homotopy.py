"""Graded models of the homotopy of the spectra in the splitting.

Every spectrum here is modeled by its homotopy groups only, as a graded
finitely generated Z_p-module over a declared degree window.  Each
periodic model is one pattern, a module in every degree of one class mod
2(p-1): the Adams summand L and its shifts (free of rank 1), or fibers of
degreewise scalar maps on them, where the scalars are psi^l - 1 (for J)
or p-adic L-values (for the eigenpieces); a fiber of multiplication by c
on Z_p contributes Z/p^{v(c)} one degree down and kills the free summand.
The connective spectra are covers of the periodic models.  By Kummer's
congruence such an L-value is a unit unless (p, i) is an irregular pair,
and `lfunctions.lp_valuation` computes it only there.

Degreewise, the Anderson dual has free part dual to the free part in the
mirror degree and torsion pulled from one degree below the mirror, and
this determines it up to isomorphism because the free part splits off.

Input is read once, where it enters the layer (the module constructors,
`GradedModule.set` and `entry`, `SpectrumId`, the window gate, a shift's k,
a cover's c and the type of each route's argument); internal routes write
the entries of checked models.
"""

from __future__ import annotations

import re

from .errors import (
    KummerVandiverRequired,
    UsageError,
    check_int,
    check_type,
)
from .lfunctions import (LP_BERNOULLI_DEPTH, lp_valuation,
                         regularity_certificate)
from .padic import check_odd_prime, vp


class FgZpModule:
    """Z_p^rank + sum of Z/p^e for a sequence of torsion exponents e,
    kept sorted descending."""

    __slots__ = ("rank", "torsion")

    def __init__(self, rank: int = 0, torsion=()):
        self.rank = check_int(rank, "rank", 0)
        try:
            torsion = tuple(torsion)  # checked before sorting compares them
        except TypeError:
            raise UsageError(f"torsion must be an iterable of exponents, "
                             f"got {torsion!r}") from None
        for e in torsion:
            check_int(e, "torsion exponent", 1)
        self.torsion = tuple(sorted(torsion, reverse=True))

    def is_zero(self) -> bool:
        return self.rank == 0 and not self.torsion

    def torsion_exponent_sum(self) -> int:
        # v_p of the torsion order
        return sum(self.torsion)

    def __add__(self, other: "FgZpModule") -> "FgZpModule":
        if not isinstance(other, FgZpModule):
            return NotImplemented
        return FgZpModule(self.rank + other.rank, self.torsion + other.torsion)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FgZpModule):
            return NotImplemented
        return self.rank == other.rank and self.torsion == other.torsion

    def __hash__(self):
        return hash((self.rank, self.torsion))

    def __repr__(self):
        if self.is_zero():
            return "0"
        parts = []
        if self.rank:
            parts.append(f"Zp^{self.rank}" if self.rank > 1 else "Zp")
        parts.extend(f"Z/p^{e}" if e > 1 else "Z/p" for e in self.torsion)
        return " + ".join(parts)


ZERO = FgZpModule()


def free(rank: int = 1) -> FgZpModule:
    return FgZpModule(rank)


def cyclic(e: int) -> FgZpModule:
    return FgZpModule(0, (e,)) if check_int(e, "torsion exponent", 0) else ZERO


class GradedModule:
    """Map degree -> FgZpModule over an inclusive window [lo, hi].

    Only nonzero entries are stored; degrees inside the window read as 0
    by default and degrees outside are undefined (an error to ask for).
    """

    __slots__ = ("lo", "hi", "entries")

    def __init__(self, lo: int, hi: int, entries=None):
        if check_int(lo, "lo") > check_int(hi, "hi"):
            raise UsageError(f"empty window [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi
        self.entries = {}
        if entries:
            check_type(dict, entries)
            for n, m in entries.items():
                self.set(n, m)

    def set(self, n: int, m: FgZpModule):
        check_int(n, "degree", self.lo, self.hi)
        if not isinstance(m, FgZpModule):
            raise UsageError(f"the entry in degree {n} must be an "
                             f"FgZpModule, got {m!r}")
        if m.is_zero():
            self.entries.pop(n, None)
        else:
            self.entries[n] = m

    def entry(self, n: int) -> FgZpModule:
        check_int(n, "degree", self.lo, self.hi)
        return self.entries.get(n, ZERO)

    def degrees(self):
        return sorted(self.entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradedModule):
            return NotImplemented
        return (
            self.lo == other.lo
            and self.hi == other.hi
            and self.entries == other.entries
        )

    def __repr__(self):
        body = ", ".join(f"{n}: {self.entries[n]!r}" for n in self.degrees())
        return f"GradedModule[{self.lo}..{self.hi}]{{{body}}}"


def shift(M: GradedModule, k: int) -> GradedModule:
    check_type(GradedModule, M)
    out = GradedModule(M.lo + check_int(k, "shift k"), M.hi + k)
    out.entries = {n + k: m for n, m in M.entries.items()}
    return out


def connected_cover(M: GradedModule, c) -> GradedModule:
    """Zero out all degrees <= c; the window is unchanged."""
    check_type(GradedModule, M)
    check_int(c, "cover degree c")
    out = GradedModule(M.lo, M.hi)
    out.entries = {n: m for n, m in M.entries.items() if n > c}
    return out


def direct_sum(*mods: GradedModule) -> GradedModule:
    if not mods:
        raise UsageError("empty direct sum")
    check_type(GradedModule, *mods)
    lo, hi = mods[0].lo, mods[0].hi
    for M in mods[1:]:
        if (M.lo, M.hi) != (lo, hi):
            raise UsageError("direct sum needs identical windows")
    out = GradedModule(lo, hi)
    for M in mods:
        for n, m in M.entries.items():
            out.entries[n] = out.entries[n] + m if n in out.entries else m
    return out


def anderson_dual(M: GradedModule) -> GradedModule:
    """Degreewise dual: rank from the mirror degree, torsion from one
    below it; determined on [-hi, -lo-1] and undefined outside."""
    check_type(GradedModule, M)
    if M.lo == M.hi:
        raise UsageError(f"the Anderson dual needs lo < hi, got the window "
                         f"[{M.lo}, {M.hi}]")
    out = GradedModule(-M.hi, -M.lo - 1)
    get = M.entries.get
    # a stored degree d feeds only the free part of -d and the torsion
    # of -d-1; every other degree of the dual is zero
    for d in M.entries:
        for n in (-d, -d - 1):
            m = FgZpModule(get(-n, ZERO).rank, get(-n - 1, ZERO).torsion)
            if out.lo <= n <= out.hi and not m.is_zero():
                out.entries[n] = m
    return out


# ---------------------------------------------------------------------------
# spectrum identifiers

_PLAIN_TAGS = ("ell", "L", "j", "J", "jprime", "Jprime", "KZ", "TCZ", "FibTau")
_FAMILY_TAGS = ("Y", "y", "Z", "z", "X", "x")


class SpectrumId:
    __slots__ = ("tag", "index", "p", "kv_assume")

    def __init__(self, tag: str, p: int, index: int | None = None,
                 kv_assume: bool = False):
        check_odd_prime(p)
        if tag in _PLAIN_TAGS:
            if index is not None:
                raise UsageError(f"{tag} takes no index")
        elif tag in _FAMILY_TAGS:
            if index is None:
                raise UsageError(f"{tag} needs an index")
            index = check_int(index, "spectrum index") % (p - 1)
        else:
            raise UsageError(f"unknown spectrum tag {tag!r}")
        if not isinstance(kv_assume, bool):
            raise UsageError(
                f"kv_assume must be True or False, got {kv_assume!r}")
        self.tag = tag
        self.index = index
        self.p = p
        self.kv_assume = kv_assume

    @classmethod
    def parse(cls, text: str, p: int, kv_assume: bool = False) -> "SpectrumId":
        """Accepts 'J', 'ell', 'KZ', or indexed forms like 'y(12)': a tag,
        then an optional '-' and ASCII digits in parentheses, with
        whitespace only around the whole name."""
        check_type(str, text)
        text = text.strip()
        tag, paren, rest = text.partition("(")
        if not paren:
            return cls(text, p, None, kv_assume)
        if re.fullmatch(r"-?[0-9]+\)", rest) is None:
            raise UsageError(f"malformed spectrum index in {text!r}")
        return cls(tag, p, int(rest[:-1]), kv_assume)

    def needs_kv(self) -> bool:
        """Whether the torsion data rides on the L-value description,
        which is only available under the Kummer-Vandiver condition
        (automatic for regular p)."""
        uses_lvalues = self.tag in ("KZ", "TCZ", "FibTau") or (
            self.tag in ("Y", "y", "X", "x") and self.index not in (0, 1))
        return uses_lvalues and not regularity_certificate(self.p)

    def __repr__(self):
        if self.index is None:
            return f"SpectrumId({self.tag}, p={self.p})"
        return f"SpectrumId({self.tag}({self.index}), p={self.p})"


def _j_exponent(p: int, m: int) -> int:
    """v_p(l^{|m|(p-1)} - 1) for l generating the units mod p^2, the
    torsion exponent of the self-map fiber in degree 2m(p-1)-1.  Such an
    l has v_p(l^{p-1} - 1) = 1, so lifting the exponent gives
    1 + v_p(m) whatever l is."""
    return 1 + vp(m, p)


def check_window(window) -> tuple:
    # one bound B = 2 LP_BERNOULLI_DEPTH - 1 at every p, read when called:
    # the only costly input of a model is its L-value torsion, and
    # lp_value reads s >= 1 - LP_BERNOULLI_DEPTH.  Y and X degrees at an
    # irregular index are even, so a Y degree n <= B - 1 reads
    # s = -(n // 2) >= 1 - LP_BERNOULLI_DEPTH, an X degree n >= 1 - B reads
    # s = n/2 + 1 >= 2 - LP_BERNOULLI_DEPTH, and the duality's dual route,
    # Y on [-hi - 2, -lo - 1], tops out at B - 1: no public entry reaches
    # lp_value's own refusal
    if not (isinstance(window, (tuple, list)) and len(window) == 2):
        raise UsageError(f"a window is two ints (lo, hi), got {window!r}")
    lo, hi = (check_int(n, "window end") for n in window)
    if lo > hi:
        raise UsageError(f"empty window [{lo}, {hi}]")
    bound = 2 * LP_BERNOULLI_DEPTH - 1
    if lo < -bound or hi > bound:
        raise UsageError(
            f"window [{lo}, {hi}] exceeds the +-{bound} guard of the "
            f"Bernoulli depth {LP_BERNOULLI_DEPTH}")
    return lo, hi


def _pattern(M: GradedModule, start: int, p: int, offset: int,
             module_of) -> GradedModule:
    """M with module_of(n) at each n = offset mod 2(p-1) of [start, M.hi].

    The fiber of multiplication by c on the Z_p in degree n+1 is
    Z/p^{v(c)} in degree n, so the fiber of a degreewise scalar is the
    pattern one degree below its source."""
    period = 2 * (p - 1)
    for n in range(start + (offset - start) % period, M.hi + 1, period):
        m = module_of(n)
        if not m.is_zero():
            M.entries[n] = m
    return M


def _free_at(n: int) -> FgZpModule:
    return free()


def _gate(sid: SpectrumId, window) -> tuple:
    """The window guard and then the Kummer-Vandiver gate of every public
    entry; returns the window."""
    lo, hi = check_window(window)
    if sid.needs_kv() and not sid.kv_assume:
        raise KummerVandiverRequired(
            f"{sid!r} depends on the L-value description; p = {sid.p} is "
            "irregular, so pass kv_assume to proceed under the "
            "Kummer-Vandiver hypothesis"
        )
    return lo, hi


def homotopy_of(sid: SpectrumId, window) -> GradedModule:
    """The graded homotopy model of the named spectrum on the window."""
    check_type(SpectrumId, sid)
    return _build(sid.p, sid.tag, sid.index, *_gate(sid, window))


# every connective tag is the cover of a periodic model: the model's tag,
# then the degree at and below which the cover is zero, at index != 0 (or
# no index) and at index 0
_COVER = {
    "ell": ("L", -1, -1),
    "j": ("J", -1, -1),
    "jprime": ("Jprime", -1, -1),
    "y": ("Y", 1, 1),
    "z": ("Z", 1, -2),
    "x": ("X", 1, -3),
}


def _build(p: int, tag: str, i: int | None, lo: int,
           hi: int) -> GradedModule:
    # unguarded: the public entries check the window and the
    # Kummer-Vandiver gate, and their internal routes may reach a degree
    # or two past the checked window
    if tag in ("KZ", "TCZ", "FibTau"):
        return _assemble(p, tag, lo, hi)
    # a cover's pattern starts at the first degree it keeps
    M, start = GradedModule(lo, hi), lo
    cover = _COVER.get(tag)
    if cover is not None:
        tag = cover[0]
        start = max(lo, (cover[2] if i == 0 else cover[1]) + 1)

    if tag == "L":
        return _pattern(M, start, p, 0, _free_at)
    if tag in ("J", "Jprime"):
        # the fiber of psi^l - 1 on L, which acts by l^{m(p-1)} - 1 on the
        # Z_p in degree 2m(p-1): zero at m = 0, so Z_p in degrees 0 and -1
        if start <= 0 <= hi:
            M.entries[0] = free()
        return _pattern(M, start, p, -1, lambda n: free() if n == -1 else
                        cyclic(_j_exponent(p, (n + 1) // (2 * (p - 1)))))
    if (tag, i) in (("Y", 0), ("X", 1)):
        return M
    if tag == "Z" or (tag == "Y" and i % 2 == 1):
        return _pattern(M, start, p, 2 * i - 1, _free_at)
    if tag == "Y":
        return _pattern(M, start, p, 2 * i - 2,
                        lambda n: cyclic(lp_valuation(p, i, -(n // 2))))
    if i % 2 == 0:
        # X by the dual route: mirror of the free odd-index pattern
        return _pattern(M, start, p, 2 * i - 2, _free_at)
    return _pattern(M, start, p, 2 * i - 2,
                    lambda n: cyclic(lp_valuation(p, p - i, n // 2 + 1)))


def _assemble(p: int, tag: str, lo: int, hi: int) -> GradedModule:
    # KZ = j + the y(i), TCZ = j + Sigma j' + the z(i), FibTau = j' + the x(i)
    family = {"KZ": "y", "TCZ": "z", "FibTau": "x"}[tag]
    pieces = [_build(p, family, i, lo, hi) for i in range(p - 1)]
    j = "jprime" if tag == "FibTau" else "j"
    pieces.append(_build(p, j, None, lo, hi))
    if tag == "TCZ":
        pieces.append(shift(_build(p, "jprime", None, lo - 1, hi - 1), 1))
    return direct_sum(*pieces)


def assemble(tag: str, p: int, window,
             kv_assume: bool = False) -> GradedModule:
    if tag not in ("KZ", "TCZ", "FibTau"):
        raise UsageError(f"assemble expects KZ, TCZ or FibTau, got {tag!r}")
    return homotopy_of(SpectrumId(tag, p, kv_assume=kv_assume), window)


# ---------------------------------------------------------------------------
# duality verification


class DualityReport:
    """Cellwise comparison of the two routes to each eigenpiece."""

    __slots__ = ("p", "lo", "hi", "cells", "notes", "prose_flags", "passed")

    def __init__(self, p, lo, hi):
        self.p = p
        self.lo = lo
        self.hi = hi
        self.cells = []
        self.notes = []
        self.prose_flags = []
        self.passed = True

    def to_dict(self) -> dict:
        return {
            "prime": self.p,
            "window": [self.lo, self.hi],
            "passed": self.passed,
            "cells": self.cells,
            "notes": self.notes,
            "prose_flags": self.prose_flags,
        }


def _module_cell(m: FgZpModule) -> dict:
    return {"rank": m.rank, "torsion": list(m.torsion)}


def verify_main_duality(p: int, window,
                        kv_assume: bool = False) -> DualityReport:
    """Compare, per character index, the fiber-side piece against the
    covered and shifted dual of the matching K-theory eigenpiece.

    The fiber side pairs index i with K-side index p-i reduced mod p-1;
    the i = 1 piece pairs with the sphere summand J of the K-side rather
    than any Y.  One cell is a note, not a failure: (i = 1, degree -1),
    where the dual route's cover at -3 keeps the Z_p dual to pi_0 J and
    the fiber route x(1) + j' has 0, a difference of cover convention
    that the paper does not settle; any other mismatch fails.  For even
    i >= 2 the adopted pattern sits two degrees below the alternative
    prose reading, and the degrees where the readings differ are
    reported as informational flags.
    """
    lo, hi = _gate(SpectrumId("FibTau", p, kv_assume=kv_assume), window)
    report = DualityReport(p, lo, hi)
    period = 2 * (p - 1)
    for i in range(p - 1):
        A = _build(p, "x", i, lo, hi)
        if i == 1:
            A = direct_sum(A, _build(p, "jprime", None, lo, hi))
        k = (p - i) % (p - 1)
        K = _build(p, "Y" if k else "J", k or None, -hi - 2, -lo - 1)
        B = connected_cover(shift(anderson_dual(K), -1), -3)
        # A and B share the window [lo, hi]; a degree where both are
        # zero adds no cell
        for n in sorted(A.entries.keys() | B.entries.keys()):
            a, b = A.entries.get(n, ZERO), B.entries.get(n, ZERO)
            if a == b:
                if not a.is_zero():
                    report.cells.append({
                        "i": i, "degree": n, "status": "PASS",
                        "module": _module_cell(a),
                    })
                continue
            cell = {
                "i": i, "degree": n,
                "fiber_route": _module_cell(a),
                "dual_route": _module_cell(b),
            }
            if (i, n) == (1, -1):
                cell["status"] = "note"
                report.notes.append(cell)
            else:
                cell["status"] = "FAIL"
                report.cells.append(cell)
                report.passed = False
        if i >= 2 and i % 2 == 0:
            # the alternative reading puts the free pattern two higher
            start = max(lo, 2)
            prose = set(range(start + (2 * i - start) % period, hi + 1,
                              period))
            for n in sorted(A.entries.keys() ^ prose):
                report.prose_flags.append({"i": i, "degree": n})
    return report


# ---------------------------------------------------------------------------
# long-exact-sequence consistency

class LesReport:
    __slots__ = ("segments", "passed")

    def __init__(self):
        self.segments = []
        self.passed = True

    def to_dict(self) -> dict:
        return {"passed": self.passed, "segments": self.segments}


def _segment_status(mods) -> str:
    """Necessary conditions for a run of nonzero terms of an exact
    sequence bounded by zeros on both sides."""
    if len(mods) == 1:
        return "FAIL"
    if len(mods) == 2:
        return "ok" if mods[0] == mods[1] else "FAIL"
    if len(mods) == 3:
        a, b, c = mods
        if b.rank != a.rank + c.rank:
            return "FAIL"
        ea, eb, ec = (m.torsion_exponent_sum() for m in mods)
        if not ea <= eb <= ea + ec:
            return "FAIL"
        return "ok"
    ranks = sum((-1) ** k * m.rank for k, m in enumerate(mods))
    if ranks != 0:
        return "FAIL"
    if all(m.rank == 0 for m in mods):
        orders = sum(
            (-1) ** k * m.torsion_exponent_sum() for k, m in enumerate(mods)
        )
        if orders != 0:
            return "FAIL"
    return "ok"


def les_consistency(X: GradedModule, Y: GradedModule,
                    Z: GradedModule) -> LesReport:
    """Numeric consistency of the long exact sequence of a claimed
    fiber sequence X -> Y -> Z, walked in descending degree.

    The sequence's slots are X_n, Y_n, Z_n for n from hi down to lo, and
    a segment is a run of nonzero slots, so only the stored degrees are
    visited: a gap between two of their slot positions closes a segment.
    """
    check_type(GradedModule, X, Y, Z)
    if not (X.lo == Y.lo == Z.lo and X.hi == Y.hi == Z.hi):
        raise UsageError("les_consistency needs a common window")
    last = 3 * (X.hi - X.lo) + 2
    slots = sorted(
        (3 * (X.hi - n) + k, label, n, m)
        for k, (label, M) in enumerate(zip("XYZ", (X, Y, Z)))
        for n, m in M.entries.items()
    )
    report = LesReport()
    run = []
    for pos, label, n, m in slots:
        if run and pos != prev + 1:
            _close_segment(report, run, start == 0, False)
            run = []
        if not run:
            start = pos
        run.append((label, n, m))
        prev = pos
    if run:
        _close_segment(report, run, start == 0, prev == last)
    return report


def _close_segment(report: LesReport, run, at_start: bool, at_end: bool):
    entry = {
        "slots": [f"{label}_{n}" for label, n, _ in run],
        "modules": [_module_cell(m) for _, _, m in run],
    }
    if at_start or at_end:
        entry["status"] = "edge-skipped"
    else:
        entry["status"] = _segment_status([m for _, _, m in run])
        if entry["status"] == "FAIL":
            report.passed = False
    report.segments.append(entry)
