"""Query kinds of the session workloads: how each is asked and checked.

A query is ``(kind, params)`` with JSON-able params.  ``call`` makes the
library calls that the benchmark times; ``canon`` turns the raw result into
a JSON-able answer outside the timed region; ``check`` compares that answer
with the expected one stored in ``expected.json``.

The two canary kinds are queries the seed is known to get wrong: the capped
irregularity scan at p = 691 and the duality window [-60, 60] at p = 11,
which the library guard refuses.
"""

from __future__ import annotations

import hashlib
import json

from eigensplit import (
    assemble,
    cw_unit,
    cw_unit_pair,
    cyc_ring,
    eigen_unit,
    eigen_valuation,
    generator_certificate,
    homotopy_of,
    irregular_pairs,
    kummer_phi,
    lang_generator_search,
    les_consistency,
    lp_value,
    nontorsion_certified,
    norm_to_qp,
    regularity_certificate,
    verify_main_duality,
)
from eigensplit.homotopy import SpectrumId
from eigensplit.kummer import lang_unit


def digest(obj) -> str:
    """Short stable digest of a JSON-able object."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _unit(ring, spec):
    """spec "cw" is the Coates-Wiles unit, an int a is the Lang unit at
    the Teichmuller lift of a."""
    return cw_unit(ring) if spec == "cw" else lang_unit(ring, spec)


def _digits(x) -> list:
    return [c.lift() for c in x.coeffs]


# -- units-session ----------------------------------------------------------

def call_cw_phi(p):
    u = cw_unit(cyc_ring(p, 0))
    return u, [kummer_phi(i, u) for i in range(1, p - 1)]


def canon_cw_phi(raw):
    u, phi = raw
    return {"digits": _digits(u), "phi": phi}


def call_lang_gen(p, i):
    ring = cyc_ring(p, 0)
    lam = lang_generator_search(ring, i)
    return lam, generator_certificate(i, lang_unit(ring, lam))


def canon_lang_gen(raw):
    lam, cert = raw
    return {"lambda": lam.lift(), "certificate": cert}


def call_eigen(p, unit, i):
    e = eigen_unit(i, _unit(cyc_ring(p, 0), unit))
    return e, nontorsion_certified(e), eigen_valuation(e - 1)


def canon_eigen(raw):
    e, nontorsion, ev = raw
    return {"digits": _digits(e), "nontorsion": nontorsion,
            "eigen_valuation": str(ev)}


def call_norm(p, unit):
    return norm_to_qp(_unit(cyc_ring(p, 0), unit))


def canon_norm(raw):
    return {"norm": raw.lift(), "prec": raw.prec}


def call_cw_pair(p):
    return cw_unit_pair(cyc_ring(p, 1))


def canon_cw_pair(raw):
    return {"u1": _digits(raw.u1), "u0": _digits(raw.u0)}


# -- lvalues-session --------------------------------------------------------

def call_lp(p, i, s, M):
    return lp_value(p, i, s, M)


def canon_lp(raw):
    return {
        "value": raw.value.lift(),
        "prec": raw.value.prec,
        "rational": None if raw.rational is None else str(raw.rational),
    }


def check_lp(got, want) -> bool:
    # digits must agree with the exact value at the precision returned,
    # and that precision may not fall below what the seed returned
    # (lp_value returns mod p^4 at interpolation points whatever M asks)
    if got["rational"] != want["rational"] or got["prec"] < want["prec"]:
        return False
    modulus = want["p"] ** min(got["prec"], want["exact_prec"])
    return got["value"] % modulus == want["exact_value"] % modulus


def call_irr(p):
    return irregular_pairs(p), regularity_certificate(p)


def canon_irr(raw):
    pairs, regular = raw
    return {"pairs": pairs, "regular": regular}


def call_irr_wide(p):
    return irregular_pairs(p, k_max=p - 3)


def canon_irr_wide(raw):
    return {"pairs": raw}


def call_duality(p, lo, hi):
    return verify_main_duality(p, (lo, hi), kv_assume=True)


def canon_duality(raw):
    d = raw.to_dict()
    return {"passed": d["passed"], "cells": len(d["cells"]),
            "digest": digest(d)}


def call_les(p, i, lo, hi):
    w = (lo, hi)
    x, y, z = (homotopy_of(SpectrumId(t, p, i, True), w) for t in "xyz")
    return les_consistency(x, y, z)


def canon_les(raw):
    d = raw.to_dict()
    return {"passed": d["passed"], "segments": len(d["segments"]),
            "digest": digest(d)}


def call_assemble(tag, p, lo, hi):
    return assemble(tag, p, (lo, hi), kv_assume=True)


def canon_graded(raw):
    entries = [[n, raw.entries[n].rank, list(raw.entries[n].torsion)]
               for n in raw.degrees()]
    return {"window": [raw.lo, raw.hi], "nonzero": len(entries),
            "digest": digest(entries)}


# -- canaries ---------------------------------------------------------------

def call_canary_irregular(p):
    return irregular_pairs(p)


def call_canary_duality(p, lo, hi):
    return verify_main_duality(p, (lo, hi))


def canon_canary_duality(raw):
    return {"passed": raw.passed, "window": [raw.lo, raw.hi]}


KINDS = {
    "cw_phi": (call_cw_phi, canon_cw_phi, None),
    "lang_gen": (call_lang_gen, canon_lang_gen, None),
    "eigen": (call_eigen, canon_eigen, None),
    "norm": (call_norm, canon_norm, None),
    "cw_pair": (call_cw_pair, canon_cw_pair, None),
    "lp": (call_lp, canon_lp, check_lp),
    "irr": (call_irr, canon_irr, None),
    "irr_wide": (call_irr_wide, canon_irr_wide, None),
    "duality": (call_duality, canon_duality, None),
    "les": (call_les, canon_les, None),
    "assemble": (call_assemble, canon_graded, None),
    "canary_irregular": (call_canary_irregular, canon_irr_wide, None),
    "canary_duality": (call_canary_duality, canon_canary_duality, None),
}


def _equal(got, want) -> bool:
    return got == want


def checker(kind):
    return KINDS[kind][2] or _equal
