"""Workload definitions, the seeded query streams and the closed loop.

Every workload is a closed loop with one client.  Its stream is a sequence
of blocks; each block holds one query per slot of the workload's template,
in a seeded order.  A slot names a pool of stored queries (parameters and
expected answer, from ``expected.json``) and the seed picks one entry of the
pool for each slot of each block.  So any seed gives the same kind mix,
and a run that ends on a block boundary has exactly the template's mix.
"""

from __future__ import annotations

import json
import os
import random
import statistics
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")

UNITS_PRIMES = (5, 7, 11, 13, 17, 19, 23)
PAIR_PRIMES = (5, 7)
LP_STRATA = {"small": (5, 47), "mid": (53, 109), "large": (113, 157)}
ASSEMBLE_TAGS = ("KZ", "TCZ", "FibTau")
# how each canary fails in the seed; any other failure is a new defect
CANARY_STATUS = {"canary_irregular": "wrong", "canary_duality": "refused"}
CANARIES = tuple(CANARY_STATUS)
# the calibration loop's time at the reference speed, and how often the
# loop runs between queries
REFERENCE_S = 0.0028
CALIBRATE_EVERY_S = 0.1
CALIBRATIONS_KEPT = 5


def _units_template():
    # 45 answered queries a block put p90 in the middle of the eigen/17
    # samples and p50 in a run of slots of nearly equal cost (6-7 ms), not
    # on a jump between two costs
    slots = []
    for p in UNITS_PRIMES:
        for kind in ("cw_phi", "lang_gen", "lang_gen", "eigen", "norm_lang",
                     "norm_cw"):
            slots.append(f"{kind}/{p}")
    slots += ["norm_lang/5"]
    slots += [f"cw_pair/{p}" for p in PAIR_PRIMES]
    return slots + list(CANARIES)


def _lvalues_template():
    slots = []
    for stratum in LP_STRATA:
        slots += [f"lp/{stratum}"] * 8
    slots += ["irr"] * 4 + ["irr_wide"] * 2
    slots += ["duality"] * 3 + ["les"] * 3
    slots += [f"assemble/{tag}" for tag in ASSEMBLE_TAGS]
    return slots + list(CANARIES)


def _cli_template():
    # 25 answered queries a block put p90 in the middle of the samples of
    # duality at 101 and p50 among the les queries
    return (
        ["units/5", "units/7", "kummer/13", "kummer/23"]
        + ["irregular/157"] * 2 + ["lvalues"] * 6 + ["homotopy"] * 2
        + ["duality/37"] * 2 + ["duality/101"] + ["les"] * 3 + ["teich"] * 5
        + list(CANARIES)
    )


TEMPLATES = {
    "units-session": _units_template(),
    "lvalues-session": _lvalues_template(),
    "cli-cold": _cli_template(),
}

def load_expected(path: str = EXPECTED_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


def block(workload: str, seed: int, index: int, pools: dict) -> list:
    """Block `index` of the stream: one query per template slot.

    A query is a dict with the slot, the pool entry index, and for the
    CLI workload whether it runs with the filled Bernoulli cache (exactly
    half of each block, rounded down, chosen by the seed).
    """
    rng = random.Random(f"{workload}/{seed}/{index}")
    slots = list(TEMPLATES[workload])
    rng.shuffle(slots)
    queries = [
        {"slot": slot, "entry": rng.randrange(len(pools[slot]["entries"]))}
        for slot in slots
    ]
    if workload == "cli-cold":
        cached = set(rng.sample(range(len(queries)), len(queries) // 2))
        for k, q in enumerate(queries):
            q["cache"] = k in cached
    return queries


def query_key(pools: dict, q: dict) -> str:
    """Identity of a query's inputs, for the repeat share."""
    params = pools[q["slot"]]["entries"][q["entry"]][0]
    key = f"{q['slot']}:{json.dumps(params, separators=(',', ':'))}"
    if "cache" in q:
        key += ":cache" if q["cache"] else ":nocache"
    return key


def stream_properties(workload: str, blocks: list, pools: dict) -> dict:
    """Properties of the queries a run attempted, for later caching claims."""
    counts = {}
    seen = set()
    repeats = 0
    primes = set()
    cache = {"cache": 0, "nocache": 0}
    total = 0
    for queries in blocks:
        for q in queries:
            total += 1
            entry = pools[q["slot"]]["entries"][q["entry"]]
            kind = pools[q["slot"]].get("kind", q["slot"].split("/")[0])
            counts[kind] = counts.get(kind, 0) + 1
            key = query_key(pools, q)
            repeats += key in seen
            seen.add(key)
            prime = _prime_of(entry[0])
            if prime is not None:
                primes.add(prime)
            if "cache" in q:
                cache["cache" if q["cache"] else "nocache"] += 1
    props = {
        "queries": total,
        "blocks": len(blocks),
        "kind_counts": dict(sorted(counts.items())),
        "repeat_share": repeats / total if total else 0.0,
        "primes": sorted(primes),
        "levels": _levels(workload, counts),
    }
    if workload == "cli-cold":
        props["cache_split"] = cache
    return props


def _prime_of(params):
    if isinstance(params, dict):
        return params.get("p")
    if "--prime" in params:
        return int(params[params.index("--prime") + 1])
    return None


def _levels(workload, counts):
    if workload == "units-session":
        return {"level0": sum(counts.values()) - counts.get("cw_pair", 0)
                - sum(counts.get(c, 0) for c in CANARIES),
                "level1": counts.get("cw_pair", 0)}
    return {}


def calibrate() -> float:
    """Seconds taken by a fixed loop of big-integer modular arithmetic, the
    kind the library lives on; about REFERENCE_S when the machine runs at
    the reference speed.  It creates no objects the garbage collector
    tracks, so it never pays for a collection of the library's heap."""
    t0 = perf_counter()
    x, m = 0, (1 << 127) - 1
    for i in range(1, 14000):
        x = (x * 31 + i * i) % m
    return perf_counter() - t0


def scaled(seconds: float, before: float, after: float) -> float:
    """`seconds` at the reference speed, given the calibrations taken just
    before and just after it."""
    return seconds * 2 * REFERENCE_S / (before + after)


def drive(workload, seed, pools, ask, seconds=0.0, min_queries=0, n_blocks=0,
          clock=calibrate):
    """Answer whole blocks of the stream, one query at a time.

    Runs exactly `n_blocks` blocks when it is positive, otherwise until
    `seconds` have passed and `min_queries` were answered.  `ask(query,
    query_id)` returns (status, seconds, detail) with status "ok",
    "wrong", "refused" or "error".

    Returns the run's record.  The machine's speed drifts by up to half
    for seconds at a time, so every latency in ``latencies`` is scaled to
    the reference speed: multiplied by REFERENCE_S over the speed seen
    just before and just after the query.  The speed seen is the median of
    the latest CALIBRATIONS_KEPT `clock` calibrations, taken at most
    CALIBRATE_EVERY_S apart.  ``raw_latencies`` and ``wall_s`` keep the
    plain timings.
    """
    latencies, raw, failures, blocks, block_s = [], [], {}, [], []
    correct, attempted = True, 0
    calib = [clock()]
    last = [perf_counter()]

    def calibration():
        # median of the latest few, so one disturbed calibration does not
        # rescale a query
        if perf_counter() - last[0] >= CALIBRATE_EVERY_S:
            calib.append(clock())
            last[0] = perf_counter()
        return statistics.median(calib[-CALIBRATIONS_KEPT:])

    t_start = perf_counter()
    while True:
        if n_blocks > 0:
            if len(blocks) >= n_blocks:
                break
        elif perf_counter() - t_start >= seconds and \
                len(latencies) >= min_queries:
            break
        queries = block(workload, seed, len(blocks), pools)
        blocks.append(queries)
        block_start = perf_counter()
        for q in queries:
            before = calibration()
            status, elapsed, detail = ask(q, attempted)
            attempted += 1
            if status == "ok":
                latencies.append(scaled(elapsed, before, calibration()))
                raw.append(elapsed)
                continue
            row = failures.setdefault(query_key(pools, q), {
                "status": status, "count": 0, "detail": detail})
            row["count"] += 1
            if CANARY_STATUS.get(q["slot"]) != status:
                correct = False
        block_s.append(perf_counter() - block_start)
    wall = perf_counter() - t_start
    props = stream_properties(workload, blocks, pools)
    props["max_bernoulli_index"] = max(
        pools[q["slot"]]["entries"][q["entry"]][2]
        for queries in blocks for q in queries)
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": sum(f["count"] for f in failures.values()),
        "failures": failures,
        "latencies": latencies,
        "raw_latencies": raw,
        "calibration_s": calib,
        "wall_s": wall,
        "blocks": len(blocks),
        "block_s": block_s,
        "properties": props,
    }
