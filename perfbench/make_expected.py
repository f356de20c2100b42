"""Build perfbench/expected.json: the query pools and their answers.

Run from the repository root:

    PYTHONPATH=src python3 perfbench/make_expected.py

Answers come from the library's exact paths.  Before anything is written,
each answer is cross-checked against an independent reference where one
exists (listed under "Answers" in README.md); any disagreement aborts the
build.  The pools are drawn with a fixed seed, so the file is reproducible.
The benchmark only reads this file; it never rebuilds it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from fractions import Fraction
from math import factorial

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import eigensplit  # noqa: E402
from eigensplit import (  # noqa: E402
    cyc_ring,
    cw_unit,
    eigen_unit,
    galois_apply,
    irregular_pairs,
    is_prime,
    unit_pow_zp,
)
from eigensplit import cli, lfunctions  # noqa: E402
from eigensplit.errors import EigensplitError, UsageError  # noqa: E402
from eigensplit.kummer import lang_unit  # noqa: E402
from eigensplit.padic import PadicCtx  # noqa: E402

import kinds  # noqa: E402
import workloads as wl  # noqa: E402

POOL_SEED = 20121  # fixed: the pools, unlike the streams, never vary
LP_PER_STRATUM = 800
HOMOTOPY_POOL = 30
ASSEMBLE_POOL = 12
EIGEN_POOL = 8
# first-hit cost of a duality-style query grows like window width times p
WIDTH_BUDGET = 6000


class BernoulliRequests:
    """Largest Bernoulli index requested while it is installed."""

    def __init__(self):
        self.original = lfunctions.bernoulli
        self.top = 0

    def __enter__(self):
        self.top = 0

        def recorder(n):
            self.top = max(self.top, n)
            return self.original(n)

        lfunctions.bernoulli = recorder
        return self

    def __exit__(self, *exc):
        lfunctions.bernoulli = self.original


def fail(msg):
    raise SystemExit(f"cross-check failed: {msg}")


def primes_in(lo, hi):
    return [n for n in range(lo, hi + 1) if is_prime(n) and n > 2]


# -- independent references -------------------------------------------------

def irregular_by_power_sums(p):
    """Even k in 2..p-3 with p | B_k, by sum_{a<p} a^k = p B_k mod p^2."""
    m = p * p
    return [k for k in range(2, p - 2, 2)
            if sum(pow(a, k, m) for a in range(1, p)) % m == 0]


def lvalue_mod_p(p, i):
    """L_p(s, omega^i) mod p for every s: -B_i/i, with B_i from power sums."""
    m = p * p
    s_i = sum(pow(a, i, m) for a in range(1, p)) % m
    b_mod_p = (s_i // p) % p
    return (-b_mod_p * pow(i, -1, p)) % p


def eigen_property_holds(e, i, a=2):
    ctx = e.ring.ctx
    w = ctx.teichmuller(a)
    return galois_apply(w, e) == unit_pow_zp(e, w ** i)


# -- pool builders ----------------------------------------------------------

def run_entry(kind, params):
    call, canon, _ = kinds.KINDS[kind]
    with BernoulliRequests() as req:
        answer = canon(call(**params))
    return answer, req.top


def units_pools(rng):
    pools = {}
    for p in wl.UNITS_PRIMES:
        ans, _ = run_entry("cw_phi", {"p": p})
        want_phi = [(-factorial(i - 1)) % p for i in range(1, p - 1)]
        if ans["phi"] != want_phi:
            fail(f"Coates-Wiles phi at p={p}")
        pools[f"cw_phi/{p}"] = {"kind": "cw_phi",
                                "entries": [[{"p": p}, ans, 0]]}

        entries = []
        for i in range(2, p - 1):
            ans, _ = run_entry("lang_gen", {"p": p, "i": i})
            if not ans["certificate"]:
                fail(f"Lang generator certificate p={p} i={i}")
            entries.append([{"p": p, "i": i}, ans, 0])
        pools[f"lang_gen/{p}"] = {"kind": "lang_gen", "entries": entries}

        # Lang units at every lambda and i, except where the projection
        # is trivial (e = 1 has no valuation to read off); the lambda = -1,
        # i = 1 projection is the torsion zeta^((p+1)/2)
        ring = cyc_ring(p, 0)
        cands = [(a, i) for a in range(2, p) for i in range(1, p - 1)]
        rng.shuffle(cands)
        cands.remove((p - 1, 1))
        entries = []
        for a, i in [(p - 1, 1)] + cands:
            params = {"p": p, "unit": a, "i": i}
            e = eigen_unit(i, lang_unit(ring, a))
            if e == 1:
                continue
            if not eigen_property_holds(e, i):
                fail(f"eigen property {params}")
            if a == p - 1 and i == 1 and e != ring.zeta() ** ((p + 1) // 2):
                fail(f"projected Lang unit at lambda=-1, p={p}")
            entries.append([params, run_entry("eigen", params)[0], 0])
            if len(entries) == EIGEN_POOL:
                break
        pools[f"eigen/{p}"] = {"kind": "eigen", "entries": entries}

        entries = []
        for a in range(2, p):
            ans, _ = run_entry("norm", {"p": p, "unit": a})
            if ans["norm"] != 1:
                fail(f"norm of the Lang unit p={p} a={a}")
            entries.append([{"p": p, "unit": a}, ans, 0])
        pools[f"norm_lang/{p}"] = {"kind": "norm", "entries": entries}
        ans, _ = run_entry("norm", {"p": p, "unit": "cw"})
        if ans["norm"] % p != 1:
            fail(f"norm of the Coates-Wiles unit is no 1-unit, p={p}")
        pools[f"norm_cw/{p}"] = {"kind": "norm",
                                 "entries": [[{"p": p, "unit": "cw"}, ans, 0]]}
        print(f"units pools p={p} done", flush=True)

    for p in wl.PAIR_PRIMES:
        # construction runs the NormCompatiblePair norm check
        pair = kinds.call_cw_pair(p)
        if pair.u0 != cw_unit(cyc_ring(p, 0)):
            fail(f"level-0 half of the pair at p={p}")
        pools[f"cw_pair/{p}"] = {
            "kind": "cw_pair",
            "entries": [[{"p": p}, kinds.canon_cw_pair(pair), 0]],
        }
    pools.update(canary_pools())
    return pools


def canary_pools():
    seed_answer, top = run_entry("canary_irregular", {"p": 691})
    seed_answer = seed_answer["pairs"]
    want = irregular_pairs(691, k_max=688)
    if want != irregular_by_power_sums(691) or want == seed_answer:
        fail("canary irregular 691")
    try:
        kinds.call_canary_duality(11, -60, 60)
        fail("the duality canary at p=11 was not refused")
    except UsageError:
        pass
    return {
        "canary_irregular": {"kind": "canary_irregular", "entries": [
            [{"p": 691}, {"pairs": want}, top]]},
        "canary_duality": {"kind": "canary_duality", "entries": [
            [{"p": 11, "lo": -60, "hi": 60},
             {"passed": True, "window": [-60, 60]}, 0]]},
    }


def lp_entry(p, i, s, M):
    ans, top = run_entry("lp", {"p": p, "i": i, "s": s, "M": M})
    if ans["value"] % p != lvalue_mod_p(p, i):
        fail(f"L-value mod p at p={p} i={i} s={s}")
    want = dict(ans, p=p, exact_prec=ans["prec"], exact_value=ans["value"])
    if ans["rational"] is not None:
        prec = max(M, ans["prec"])
        q = Fraction(ans["rational"])
        want["exact_prec"] = prec
        want["exact_value"] = PadicCtx(p, prec).from_rational(q).lift()
    return [{"p": p, "i": i, "s": s, "M": M}, want, top]


def window(rng, p, lo_min, hi_max):
    w_max = min(hi_max - lo_min, max(24, WIDTH_BUDGET // p))
    width = rng.randint(min(8, w_max), w_max)
    lo = rng.randint(lo_min, hi_max - width)
    return lo, lo + width


def homotopy_primes():
    return primes_in(5, 157)


def lvalues_pools(rng):
    pools = {}
    for stratum, (lo, hi) in wl.LP_STRATA.items():
        ps = primes_in(lo, hi)
        entries = []
        for _ in range(LP_PER_STRATUM):
            p = rng.choice(ps)
            i = 2 * rng.randint(1, (p - 3) // 2)
            s = rng.choice([s for s in range(-40, 41) if s != 1])
            entries.append(lp_entry(p, i, s, rng.choice((3, 4, 6, 8))))
        pools[f"lp/{stratum}"] = {"kind": "lp", "entries": entries}
        print(f"lp pool {stratum} done", flush=True)
    readme = lp_entry(5, 2, -1, 3)
    if readme[1]["rational"] != "1/3" or readme[1]["value"] != 417:
        fail("README example lp_value(5, 2, -1)")

    known = {37: [32], 59: [44], 67: [58], 101: [68], 103: [24],
             131: [22], 149: [130], 157: [62, 110]}
    entries = []
    for p in primes_in(5, 199):
        ans, top = run_entry("irr", {"p": p})
        if ans["pairs"] != irregular_by_power_sums(p) or \
                ans["pairs"] != known.get(p, []) or \
                ans["regular"] != (not ans["pairs"]):
            fail(f"irregular pairs p={p}")
        entries.append([{"p": p}, ans, top])
    pools["irr"] = {"kind": "irr", "entries": entries}

    entries = []
    for p in primes_in(201, 700):
        ans, top = run_entry("irr_wide", {"p": p})
        if ans["pairs"] != irregular_by_power_sums(p):
            fail(f"uncapped irregular pairs p={p}")
        entries.append([{"p": p}, ans, top])
    pools["irr_wide"] = {"kind": "irr_wide", "entries": entries}
    print("irregularity pools done", flush=True)

    hp = homotopy_primes()
    entries = [[{"p": 5, "lo": -8, "hi": 16}] + list(run_entry(
        "duality", {"p": 5, "lo": -8, "hi": 16}))]
    while len(entries) < HOMOTOPY_POOL:
        p = rng.choice(hp)
        bound = max(6 * (p - 1), 40)
        lo, hi = window(rng, p, -bound, bound - 2)
        params = {"p": p, "lo": lo, "hi": hi}
        ans, top = run_entry("duality", params)
        if not ans["passed"]:
            fail(f"duality {params}")
        entries.append([params, ans, top])
    pools["duality"] = {"kind": "duality", "entries": entries}

    entries = []
    while len(entries) < HOMOTOPY_POOL:
        p = rng.choice(hp)
        bound = max(6 * (p - 1), 40)
        lo, hi = window(rng, p, -bound, bound)
        params = {"p": p, "i": rng.randrange(p - 1), "lo": lo, "hi": hi}
        ans, top = run_entry("les", params)
        entries.append([params, ans, top])
    pools["les"] = {"kind": "les", "entries": entries}

    for tag in wl.ASSEMBLE_TAGS:
        entries = []
        while len(entries) < ASSEMBLE_POOL:
            p = rng.choice(hp)
            bound = max(6 * (p - 1), 40)
            lo, hi = window(rng, p, -bound + 1, bound)
            params = {"tag": tag, "p": p, "lo": lo, "hi": hi}
            ans, top = run_entry("assemble", params)
            entries.append([params, ans, top])
        pools[f"assemble/{tag}"] = {"kind": "assemble", "entries": entries}
    print("homotopy pools done", flush=True)
    pools.update(canary_pools())
    return pools


# -- CLI pools --------------------------------------------------------------

CLI_VARIANTS = {
    "units/5": [["units", "--prime", "5"]],
    "units/7": [["units", "--prime", "7"]],
    "kummer/13": [["kummer", "--prime", "13"]],
    "kummer/23": [["kummer", "--prime", "23"]],
    "irregular/157": [["irregular", "--prime", "157"]],
    "lvalues": [["lvalues", "--prime", p, "--char", c, "--at", s]
                for p, c, s in (("5", "2", "-1"), ("7", "4", "3"),
                                ("11", "6", "-20"), ("13", "8", "25"),
                                ("37", "4", "7"), ("37", "32", "-12"),
                                ("59", "44", "9"), ("101", "68", "-33"),
                                ("157", "62", "17"), ("157", "110", "-40"))],
    # windows of one width per subcommand, so the variant a seed picks
    # barely moves the cost; duality at 101 is wide enough to cost clearly
    # more than units at 5, so p90 falls inside one query's samples
    "homotopy": [["homotopy", "KZ", "--prime", "37", "--from", lo, "--to", hi,
                  "--kv-assume"]
                 for lo, hi in (("-60", "60"), ("-36", "84"), ("-84", "36"))],
    "duality/37": [["duality", "--prime", "37", "--from", lo, "--to", hi,
                    "--kv-assume"]
                   for lo, hi in (("-60", "60"), ("-40", "80"), ("-80", "40"))],
    "duality/101": [["duality", "--prime", "101", "--from", "-200", "--to",
                     "180", "--kv-assume"]],
    "les": [["les", "--prime", "37", "--char", c, "--from", lo, "--to", hi,
             "--kv-assume"]
            for c, lo, hi in (("4", "-60", "60"), ("5", "-40", "80"),
                              ("10", "-80", "40"), ("0", "-60", "60"))],
    "teich": [["teich", "--prime", p] for p in ("5", "7", "11", "13", "23")],
}


def cli_fresh(argv, cache_dir=None):
    """stdout and exit code of one fresh `python -m eigensplit.cli` run."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    env.pop("EIGENSPLIT_CACHE", None)
    extra = ["--cache-dir", cache_dir] if cache_dir else []
    r = subprocess.run([sys.executable, "-m", "eigensplit.cli", *argv, *extra],
                       env=env, capture_output=True, text=True, cwd=ROOT,
                       timeout=120)
    return r.stdout, r.returncode


def cli_requests(argv):
    with BernoulliRequests() as req, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        cli.main(list(argv))
    return req.top


def cli_cross_check(argv, out, rc):
    cmd = argv[0]
    data = json.loads(out) if rc == 0 else None
    if rc != 0:
        fail(f"{argv} exited {rc}")
    p = data["prime"]
    if cmd == "kummer" and not all(r["match"] for r in data["values"]):
        fail(f"{argv}: phi differs from -(i-1)! mod p")
    if cmd == "units" and not data["norm_compatible"]:
        fail(f"{argv}: norm check")
    if cmd == "irregular" and data["irregular_pairs"] != \
            irregular_by_power_sums(p):
        fail(f"{argv}: power sums")
    if cmd == "lvalues" and data["value"] % p != lvalue_mod_p(p, data["char"]):
        fail(f"{argv}: L-value mod p")
    if cmd == "teich":
        m = p ** data["precision"]
        for v in data["values"]:
            if v["omega"] % p != v["a"] or pow(v["omega"], p - 1, m) != 1:
                fail(f"{argv}: Teichmuller lift of {v['a']}")
    if cmd in ("duality", "les") and not data["passed"]:
        fail(f"{argv}: report failed")


def cli_pools():
    pools = {}
    with tempfile.TemporaryDirectory() as cache:
        lfunctions.configure_cache(cache)
        lfunctions.bernoulli(700)
        lfunctions.configure_cache(None)
        for slot, variants in CLI_VARIANTS.items():
            entries = []
            for argv in variants:
                out, rc = cli_fresh(argv)
                if cli_fresh(argv, cache) != (out, rc):
                    fail(f"{argv}: output depends on the cache")
                cli_cross_check(argv, out, rc)
                sha = hashlib.sha256(out.encode()).hexdigest()
                entries.append([argv, {"rc": rc, "sha256": sha},
                                cli_requests(argv)])
            pools[slot] = {"kind": slot.split("/")[0], "entries": entries}
            print(f"cli pool {slot} done", flush=True)
    readme = cli_fresh(["lvalues", "--prime", "5", "--char", "2", "--at", "-1"])
    if readme[0] != ('{"prime":5,"char":2,"s":-1,"value":417,"modulus":625,'
                     '"valuation":0,"rational":"1/3"}\n'):
        fail("README lvalues example")
    out, rc = cli_fresh(["irregular", "--prime", "691"])
    want = {"prime": 691, "irregular_pairs": irregular_by_power_sums(691)}
    if rc != 0 or json.loads(out) == want:
        fail("the irregular 691 canary is no longer wrong in the seed")
    if cli_fresh(["duality", "--prime", "11", "--from", "-60", "--to", "60"])[1] != 1:
        fail("the duality 11 canary is no longer refused in the seed")
    pools["canary_irregular"] = {"kind": "irregular", "entries": [[
        ["irregular", "--prime", "691"],
        {"rc": 0, "json": want}, cli_requests(["irregular", "--prime", "691"])]]}
    pools["canary_duality"] = {"kind": "duality", "entries": [[
        ["duality", "--prime", "11", "--from", "-60", "--to", "60"],
        {"rc": 0, "json": {"passed": True, "window": [-60, 60]}}, 0]]}
    return pools


def main():
    rng = random.Random(POOL_SEED)
    readme = kinds.call_cw_phi(7)[1]
    if readme != [6, 6, 5, 1, 4]:
        fail("README example kummer_phi at p=7")
    if not kinds.call_duality(5, -8, 16).passed:
        fail("README example verify_main_duality(5, (-8, 16))")
    out = {
        "seed_version": eigensplit.__version__,
        "units-session": units_pools(rng),
        "lvalues-session": lvalues_pools(rng),
        "cli-cold": cli_pools(),
    }
    for workload, pools in out.items():
        if workload in wl.TEMPLATES:
            missing = set(wl.TEMPLATES[workload]) - set(pools)
            if missing:
                fail(f"{workload} lacks pools {sorted(missing)}")
    with open(wl.EXPECTED_PATH, "w") as fh:
        json.dump(out, fh, separators=(",", ":"), sort_keys=True)
        fh.write("\n")
    print(f"wrote {wl.EXPECTED_PATH}")


if __name__ == "__main__":
    try:
        main()
    except EigensplitError as err:
        raise SystemExit(f"library error while building answers: {err!r}")
