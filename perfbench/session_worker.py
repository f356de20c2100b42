"""One library process answering a workload's query stream.

Started by run.py with ``PYTHONPATH=src``.  It imports the library, loads
the expected answers, prints ``ready`` and waits for one command on stdin:

    quit
    run SECONDS MIN_QUERIES BLOCKS TRACE_FILE

``run`` answers whole blocks, either exactly BLOCKS of them (BLOCKS > 0)
or until SECONDS have passed and MIN_QUERIES were answered.  TRACE_FILE is
``-`` for an untraced run; otherwise spans are recorded and written there.
The result is printed as one JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import traceback
from time import perf_counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from eigensplit.errors import EigensplitError  # noqa: E402

import kinds  # noqa: E402
import workloads as wl  # noqa: E402


def ask(kind: str, params: dict, want, tracer, qid: int):
    """Time one query; return (status, seconds, detail)."""
    call, canon, _ = kinds.KINDS[kind]
    t0 = perf_counter()
    try:
        if tracer is None:
            raw = call(**params)
        else:
            with tracer.span("query", qid):
                raw = call(**params)
        elapsed = perf_counter() - t0
    except EigensplitError as err:
        return "refused", perf_counter() - t0, repr(err)
    except Exception:  # a crash is reported as a failed query
        return "error", perf_counter() - t0, traceback.format_exc(limit=3)
    if kinds.checker(kind)(canon(raw), want):
        return "ok", elapsed, None
    return "wrong", elapsed, None


def run(workload, seed, pools, seconds, min_queries, n_blocks, tracer):
    def ask_pool(q, qid):
        pool = pools[q["slot"]]
        params, want, _ = pool["entries"][q["entry"]]
        return ask(pool["kind"], params, want, tracer, qid)

    result = wl.drive(workload, seed, pools, ask_pool, seconds, min_queries,
                      n_blocks)
    result["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    pools = wl.load_expected()[args.workload]
    print("ready", flush=True)
    command = sys.stdin.readline().split()
    if not command or command[0] != "run":
        return
    seconds, min_queries, n_blocks = float(command[1]), int(command[2]), \
        int(command[3])
    trace_file = command[4]
    tracer = None
    if trace_file != "-":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer, also=(kinds,))
    result = run(args.workload, args.seed, pools, seconds, min_queries,
                 n_blocks, tracer)
    if tracer is not None:
        result["layers"] = tracer.aggregate()
        result["counters"] = tracer.counters
        tracer.write_jsonl(trace_file)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
