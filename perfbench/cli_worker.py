"""Traced run of one CLI query in a fresh process.

    PYTHONPATH=src python3 perfbench/cli_worker.py QUERY_ID SUMMARY SPANS -- ARGV...

Installs the benchmark's tracer, runs ``eigensplit.cli.main(ARGV)`` with
the CLI's own stdout and exit code, writes the per-layer summary (JSON) to
SUMMARY and appends the spans (gzip JSON lines) to SPANS.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    query_id, summary, spans = int(sys.argv[1]), sys.argv[2], sys.argv[3]
    argv = sys.argv[5:]

    import tracer as tracing
    from eigensplit import cli

    tracer = tracing.Tracer()
    tracing.install(tracer)
    tracer.query_id = query_id
    try:
        rc = cli.main(argv)
    finally:
        sys.stdout.flush()
        with open(summary, "w") as fh:
            json.dump({"layers": tracer.aggregate(),
                       "counters": tracer.counters}, fh)
        tracer.write_jsonl(spans, append=True)
    return rc


if __name__ == "__main__":
    sys.exit(main())
