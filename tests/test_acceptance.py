"""End-to-end acceptance checks, one verdict line per criterion.

Each test prints exactly one PASS/FAIL line for its criterion and then
asserts it.  Criterion 6 is run exactly as stated; the statement is
arithmetically unattainable (see the notes it prints), so it reports
FAIL while the corrected statements it prints alongside do hold.
"""

import random
import time
from fractions import Fraction
from math import factorial

from eigensplit import cli
from eigensplit.cyclotomic import (
    cyc_ring,
    eigen_unit,
    eigen_valuation,
    embed_up,
    eps1_intermediate_congruence,
    galois_apply,
    nontorsion_certified,
)
from eigensplit.formal_groups import cw_tower_x
from eigensplit.homotopy import (
    SpectrumId,
    assemble,
    free,
    homotopy_of,
    les_consistency,
    verify_main_duality,
)
from eigensplit.kummer import (
    check_eps1_nontorsion,
    cw_unit,
    kummer_phi,
    lang_generator_search,
    lang_unit,
)
from eigensplit.lfunctions import bernoulli, irregular_pairs
from eigensplit.padic import is_prime

from conftest import random_one_unit
from exact_formal_group import log_one_plus_x, theta


def _verdict(ok: bool, label: str):
    print(("PASS: " if ok else "FAIL: ") + label)
    assert ok, label


def test_criterion_01_coates_wiles_values():
    t0 = time.monotonic()
    ok = True
    for p in (3, 5, 7, 11, 13):
        ring = cyc_ring(p, 0)
        u = cw_unit(ring)
        for i in range(1, p - 1):
            ok = ok and kummer_phi(i, u) == (-factorial(i - 1)) % p
    dt = time.monotonic() - t0
    _verdict(ok and dt < 10,
             f"coates-wiles values are -(i-1)! mod p for p in "
             f"{{3,5,7,11,13}}, all i ({dt:.1f}s < 10s)")


def test_criterion_02_lang_existence():
    t0 = time.monotonic()
    ok = True
    for p in (3, 5, 7, 11, 13):
        ring = cyc_ring(p, 0)
        for i in range(1, p - 1):
            lam = lang_generator_search(ring, i)
            ok = ok and kummer_phi(i, lang_unit(ring, lam)) != 0
    dt = time.monotonic() - t0
    _verdict(ok and dt < 10,
             f"a lang-unit witness exists for every (p, i), p in "
             f"{{3,5,7,11,13}} ({dt:.1f}s < 10s)")


def test_criterion_03_theta_congruence_and_tower():
    t0 = time.monotonic()
    ok = True
    for p in (3, 5):
        th = theta(p)
        base = log_one_plus_x(th.trunc)
        ok = ok and all(th.coeffs[k] == base.coeffs[k] for k in range(p))
        ok = ok and th.trunc >= p * p + 1
        ok = ok and all(c.denominator % p != 0 for c in th.coeffs)
        ring0 = cyc_ring(p, 0)
        ring1 = cyc_ring(p, 1)
        x0 = cw_tower_x(ring0)
        x1 = cw_tower_x(ring1)
        ok = ok and (x0 ** p + x0 * p).vanishes_mod_pi(p + 3)
        ok = ok and (x1 ** p + x1 * p - embed_up(x0, ring1)).vanishes_mod_pi(
            p + 3
        )
    dt = time.monotonic() - t0
    _verdict(ok and dt < 30,
             f"theta = log(1+X) mod X^p, p-integral to X^(p^2), and the "
             f"x-tower holds mod pi^(p+3) at p in {{3,5}} ({dt:.1f}s < 30s)")


def test_criterion_04_idempotent_algebra():
    rng = random.Random(101)
    ok = True
    for p in (3, 5, 7):
        ring = cyc_ring(p, 0)
        for _ in range(20):
            u = random_one_unit(rng, ring)
            parts = [eigen_unit(i, u) for i in range(p - 1)]
            prod = ring.one()
            for w in parts:
                prod = prod * w
            ok = ok and prod == u
            i = rng.randrange(p - 1)
            ok = ok and eigen_unit(i, parts[i]) == parts[i]
            j = (i + 1 + rng.randrange(max(1, p - 3))) % (p - 1)
            ok = ok and eigen_unit(j, parts[i]) == ring.one()
    _verdict(ok, "eigenprojections are idempotent, orthogonal, and "
                 "multiply back to the unit (p in {3,5,7}, 20 units each)")


def test_criterion_05_kummer_homomorphism_laws():
    rng = random.Random(103)
    ok = True
    for p in (3, 5, 7):
        ring = cyc_ring(p, 0)
        for _ in range(50):
            u = random_one_unit(rng, ring)
            v = random_one_unit(rng, ring)
            a = rng.randrange(2, p)
            for i in range(1, p - 1):
                ok = ok and kummer_phi(i, u * v) == \
                    (kummer_phi(i, u) + kummer_phi(i, v)) % p
                ok = ok and kummer_phi(i, galois_apply(a, u)) == \
                    pow(a, i, p) * kummer_phi(i, u) % p
            i = rng.randrange(1, p - 1)
            proj = eigen_unit(i, u)
            ok = ok and kummer_phi(i, proj) == kummer_phi(i, u)
            if p > 3:
                j = i % (p - 2) + 1
                ok = ok and kummer_phi(j, proj) == 0
    _verdict(ok, "kummer maps are additive, a^i-equivariant, and "
                 "eigenprojection-compatible (50 random pairs, p in {3,5,7})")


def test_criterion_06_eps1_nontorsion_as_stated():
    stated = True
    corrected_ok = True
    for p in (3, 5, 7):
        ring = cyc_ring(p, 0)
        for a in range(2, p):
            stated = stated and eps1_intermediate_congruence(ring, a)
            stated = stated and check_eps1_nontorsion(ring, a)
            # corrected detector: distance to every p-th root of unity,
            # conclusive except in the lambda = -1 torsion class
            proj = eigen_unit(1, lang_unit(ring, a))
            if a == p - 1:
                corrected_ok = corrected_ok and \
                    proj == ring.zeta() ** ((p + 1) // 2)
            else:
                corrected_ok = corrected_ok and nontorsion_certified(proj)
        corrected_ok = corrected_ok and \
            nontorsion_certified(eigen_unit(1, cw_unit(ring)))
    print("NOTE: the stated pi^(p+1) congruence omits the -w^p pi^p term, "
          "so it fails for every lambda; the p-th power of the projected "
          "unit is always 1 mod pi^(p+1) (true valuation 2p-1), so the "
          "stated detector cannot certify non-torsion.")
    print("NOTE: corrected statements verified "
          f"{'PASS' if corrected_ok else 'FAIL'}: the projection is the "
          "exact torsion element zeta^((p+1)/2) when lambda = -1, is "
          "certified non-torsion for every other lambda, and the "
          "coates-wiles unit is certified non-torsion at p in {3,5,7}.")
    _verdict(stated, "eps_1 non-torsion via the stated pi^(p+1) window "
                     "for all lambda, p in {3,5,7}")


def test_criterion_07_bernoulli_and_lvalues():
    t0 = time.monotonic()
    ok = True
    for n in range(2, 102, 2):
        s = bernoulli(n)
        for q in range(2, n + 2):
            if is_prime(q) and n % (q - 1) == 0:
                s += Fraction(1, q)
        ok = ok and s.denominator == 1
    # independent residue oracle for the scan at 37
    def _oracle_pairs(p):
        found = []
        for k in range(2, p - 2, 2):
            row = [Fraction(1, m + 1) for m in range(k + 1)]
            for m in range(1, k + 1):
                for j in range(k + 1 - m):
                    row[j] = (j + 1) * (row[j] - row[j + 1])
            b = row[0]
            if b.numerator % p == 0:
                found.append(k)
        return found

    ok = ok and irregular_pairs(37) == [32] == _oracle_pairs(37)
    ok = ok and irregular_pairs(691) == [12, 200]
    for p, m, n, k in ((5, 2, 22, 2), (7, 2, 44, 2), (7, 4, 10, 1)):
        em = (1 - Fraction(p) ** (m - 1)) * bernoulli(m) / m
        en = (1 - Fraction(p) ** (n - 1)) * bernoulli(n) / n
        diff = em - en
        ok = ok and diff.denominator % p != 0 and diff.numerator % p ** k == 0
    dt = time.monotonic() - t0
    _verdict(ok and dt < 60,
             f"von staudt-clausen to n=100, irregular scans match the "
             f"independent oracle, kummer congruences hold ({dt:.1f}s < 60s)")


def test_criterion_08_duality(capsys):
    t0 = time.monotonic()
    ok = True
    for p in (5, 7):
        lo, hi = -2 * (p - 1), 4 * (p - 1)
        report = verify_main_duality(p, (lo, hi))
        ok = ok and report.passed
        rc = cli.main(["duality", "--prime", str(p),
                       "--from", str(lo), "--to", str(hi)])
        capsys.readouterr()
        ok = ok and rc == 0
    report = verify_main_duality(37, (-72, 144), kv_assume=True)
    ok = ok and report.passed
    tors = [(c["i"], c["degree"]) for c in report.cells
            if c["status"] == "PASS" and c["module"]["torsion"]]
    ok = ok and (5, 8) in tors and (1, 71) in tors
    rc = cli.main(["duality", "--prime", "37", "--from", "-72",
                   "--to", "144", "--kv-assume"])
    capsys.readouterr()
    ok = ok and rc == 0
    dt = time.monotonic() - t0
    _verdict(ok and dt < 60,
             f"graded duality verified at p in {{5,7}} and p=37 under "
             f"kummer-vandiver, exit code 0 ({dt:.1f}s < 60s)")


def test_criterion_09_splitting_bookkeeping():
    ok = True
    Zp = free()
    M = assemble("FibTau", 5, (-4, 4))
    ok = ok and M.entry(-2) == Zp and M.entry(0) == Zp and M.entry(1).is_zero()
    T = assemble("TCZ", 5, (-4, 4))
    ok = ok and T.entry(1).rank >= 1
    for p in (5, 7):
        window = (-2 * (p - 1), 4 * (p - 1))
        for i in range(p - 1):
            x = homotopy_of(SpectrumId("x", p, i), window)
            y = homotopy_of(SpectrumId("y", p, i), window)
            z = homotopy_of(SpectrumId("z", p, i), window)
            ok = ok and les_consistency(x, y, z).passed
    _verdict(ok, "assembled splittings have the stated low-degree groups "
                 "and every eigen-triple is long-exact-consistent")


def test_criterion_10_uniformizer_eigen_valuation():
    ok = True
    for p in (3, 5, 7):
        ring = cyc_ring(p, 0)
        ok = ok and eigen_valuation(ring.zeta() - 1) == 1
    _verdict(ok, "the eigenprojected valuation of zeta-1 is 1 at "
                 "p in {3,5,7}")
