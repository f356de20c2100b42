"""eigensplit benchmark: one command, three workloads, every answer checked.

    python3 perfbench/run.py --workload units-session --seed 1 --seconds 30 --trace 0

Run from the repository root.  With ``--trace 0`` it prints the end-to-end
metrics of BENCHMARK.json, with ``--trace 1`` the per-layer metrics of a
traced replay.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
(``# record ...``) holds the environment, the workload properties, the
sample count and every failure by name.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
sys.path.insert(0, HERE)

import workloads as wl  # noqa: E402

SETUP_REPS = 5
NPROC = len(os.sched_getaffinity(0))  # before the run pins itself
MIN_QUERIES = 100  # p90 needs ten samples beyond it
CLI_FILL_INDEX = 700  # every index a CLI query can ask for, 691's scan too
RUN_LIMIT_S = 175
CHILD_LIMIT_S = 150

END_TO_END = (
    ("setup_s", "s"),
    ("throughput_qps", "1/s"),
    ("query_p50_s", "s"),
    ("query_p90_s", "s"),
    ("fail_frac", "ratio"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("padic.teichmuller.calls", "count"),
    ("padic.teichmuller.self_s", "s"),
    ("padic.from_rational.calls", "count"),
    ("padic.from_rational.self_s", "s"),
    ("series.mul.calls", "count"),
    ("series.mul.self_s", "s"),
    ("series.log.calls", "count"),
    ("series.log.self_s", "s"),
    ("series.invariant_derivative.self_s", "s"),
    ("formal_groups.cw_tower_x.calls", "count"),
    ("formal_groups.cw_tower_x.self_s", "s"),
    ("cyclotomic.mul.calls", "count"),
    ("cyclotomic.mul.self_s", "s"),
    ("cyclotomic.mul_level1.calls", "count"),
    ("cyclotomic.galois_apply.calls", "count"),
    ("cyclotomic.galois_apply.self_s", "s"),
    ("cyclotomic.norm_down.calls", "count"),
    ("cyclotomic.norm_down.self_s", "s"),
    ("cyclotomic.norm_to_qp.self_s", "s"),
    ("cyclotomic.unit_pow_zp.calls", "count"),
    ("cyclotomic.unit_pow_zp.self_s", "s"),
    ("cyclotomic.eigen_unit.self_s", "s"),
    ("cyclotomic.nontorsion_certified.self_s", "s"),
    ("kummer.kummer_phi.calls", "count"),
    ("kummer.kummer_phi.self_s", "s"),
    ("kummer.cw_unit_pair.self_s", "s"),
    ("kummer.lang_generator_search.self_s", "s"),
    ("kummer.lang_unit.calls", "count"),
    ("lfunctions.bernoulli.calls", "count"),
    ("lfunctions.bernoulli.self_s", "s"),
    ("lfunctions.bernoulli.max_index", "index"),
    ("lfunctions.lp_value.calls", "count"),
    ("lfunctions.lp_value.self_s", "s"),
    ("lfunctions.irregular_pairs.self_s", "s"),
    ("lfunctions.regularity_certificate.self_s", "s"),
    ("lfunctions.configure_cache.self_s", "s"),
    ("lfunctions.cache_file_bytes", "bytes"),
    ("homotopy.homotopy_of.calls", "count"),
    ("homotopy.homotopy_of.self_s", "s"),
    ("homotopy.homotopy_of.errors", "count"),
    ("homotopy.verify_main_duality.self_s", "s"),
    ("homotopy.les_consistency.self_s", "s"),
    ("homotopy.assemble.self_s", "s"),
    ("homotopy.anderson_dual.self_s", "s"),
    ("cli.process_s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.startup_s", "s"),
    ("trace.blocks", "count"),
    ("trace.untraced_qps", "1/s"),
    ("trace.traced_qps", "1/s"),
    ("trace.qps_ratio", "ratio"),
)


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    env.pop("EIGENSPLIT_CACHE", None)
    return env


# -- session workloads ------------------------------------------------------

class SessionWorker:
    """A session_worker.py process; set-up time is spawn to ``ready``."""

    def __init__(self, workload: str, seed: int):
        t0 = perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "session_worker.py"),
             "--workload", workload, "--seed", str(seed)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=child_env(), cwd=ROOT)
        try:
            line = self.proc.stdout.readline()
            if line.strip() != "ready":
                raise BenchError(f"session worker did not start: {line!r}")
        except BaseException:
            self.stop()
            raise
        self.setup_s = perf_counter() - t0

    def stop(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            if pipe is not None:
                pipe.close()

    def quit(self):
        try:
            self.proc.stdin.write("quit\n")
            self.proc.stdin.flush()
            self.proc.wait(timeout=CHILD_LIMIT_S)
        finally:
            self.stop()

    def run(self, seconds, min_queries, blocks, trace_file="-") -> dict:
        try:
            self.proc.stdin.write(
                f"run {seconds} {min_queries} {blocks} {trace_file}\n")
            self.proc.stdin.flush()
            out = self.proc.stdout.read()
            if self.proc.wait(timeout=CHILD_LIMIT_S) != 0:
                raise BenchError(f"session worker exited {self.proc.returncode}")
        finally:
            self.stop()
        return json.loads(out.strip().splitlines()[-1])


def session_run(workload, seed, seconds):
    setups = []
    for rep in range(SETUP_REPS):
        before = wl.calibrate()
        worker = SessionWorker(workload, seed)
        setups.append(wl.scaled(worker.setup_s, before, wl.calibrate()))
        if rep < SETUP_REPS - 1:
            worker.quit()
    result = worker.run(seconds, MIN_QUERIES, 0)
    result["setup_runs_s"] = setups
    return result


def session_trace(workload, seed, seconds):
    plain = SessionWorker(workload, seed).run(seconds / 2, 0, 0)
    spans = os.path.join(WORK, f"spans-{workload}.jsonl.gz")
    traced = SessionWorker(workload, seed).run(0, 0, plain["blocks"], spans)
    traced["spans_file"] = os.path.relpath(spans, ROOT)
    return plain, traced


# -- cli-cold ---------------------------------------------------------------

def fill_cache(directory: str) -> float:
    shutil.rmtree(directory, ignore_errors=True)
    os.makedirs(directory)
    t0 = perf_counter()
    subprocess.run([sys.executable, os.path.join(HERE, "fill_cache.py"),
                    directory, str(CLI_FILL_INDEX)],
                   env=child_env(), cwd=ROOT, check=True,
                   timeout=CHILD_LIMIT_S)
    return perf_counter() - t0


def spawn_cli(argv, trace_paths=None, query_id=0):
    """Run one CLI process; return (exit code, stdout, seconds, max RSS MB)."""
    if trace_paths is None:
        cmd = [sys.executable, "-m", "eigensplit.cli", *argv]
    else:
        summary, spans = trace_paths
        cmd = [sys.executable, os.path.join(HERE, "cli_worker.py"),
               str(query_id), summary, spans, "--", *argv]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, env=child_env(),
                            cwd=ROOT)
    try:
        out = proc.stdout.read()
        # wait4 reaps the child and gives its own peak RSS
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        proc.stdout.close()
    elapsed = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out.decode(), elapsed, usage.ru_maxrss / 1024.0


def cli_status(want: dict, rc: int, out: str) -> str:
    if rc != want["rc"]:
        return "refused" if rc in (1, 2) else "error"
    if "sha256" in want:
        ok = hashlib.sha256(out.encode()).hexdigest() == want["sha256"]
    else:
        try:
            got = json.loads(out)
        except ValueError:
            return "wrong"
        ok = all(got.get(k) == v for k, v in want["json"].items())
    return "ok" if ok else "wrong"


def cli_loop(seed, pools, cache_dir, seconds, min_queries, n_blocks,
             trace=False):
    peak_rss, process_s = 0.0, 0.0
    layers, counters = {}, {}
    summary = os.path.join(WORK, "cli-summary.json")
    spans = os.path.join(WORK, "spans-cli-cold.jsonl.gz")
    if trace and os.path.exists(spans):
        os.unlink(spans)

    def ask(q, qid):
        nonlocal peak_rss, process_s
        argv, want, _ = pools[q["slot"]]["entries"][q["entry"]]
        argv = argv + (["--cache-dir", cache_dir] if q["cache"] else [])
        rc, out, elapsed, rss = spawn_cli(
            argv, (summary, spans) if trace else None, qid)
        peak_rss = max(peak_rss, rss)
        process_s += elapsed
        if trace:
            with open(summary) as fh:
                merge_layers(layers, counters, json.load(fh))
        return cli_status(want, rc, out), elapsed, None

    result = wl.drive("cli-cold", seed, pools, ask, seconds, min_queries,
                      n_blocks)
    result["peak_rss_mb"] = peak_rss
    if trace:
        result.update(layers=layers, counters=counters,
                      spans_file=os.path.relpath(spans, ROOT))
        main = layers.get("cli.main", {}).get("total_s", 0.0)
        result["cli"] = {"cli.process_s": process_s,
                         "cli.startup_s": process_s - main}
    return result


def merge_layers(layers, counters, summary):
    for name, row in summary["layers"].items():
        acc = layers.setdefault(name, {"calls": 0, "total_s": 0.0,
                                       "self_s": 0.0})
        for field in acc:
            acc[field] += row[field]
    for name, value in summary["counters"].items():
        if name.endswith(".max_index"):
            counters[name] = max(counters.get(name, value), value)
        else:
            counters[name] = counters.get(name, 0) + value


def cli_setup(reps):
    """Fill the cache directory afresh `reps` times; the last fill stays."""
    setups, cache_dir = [], os.path.join(WORK, "cache")
    for _ in range(reps):
        before = wl.calibrate()
        seconds = fill_cache(cache_dir)
        setups.append(wl.scaled(seconds, before, wl.calibrate()))
    return setups, cache_dir


# -- reporting --------------------------------------------------------------

def git_commit() -> str:
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown (no git)"


def environment(seed, workload) -> dict:
    invocation = ("PYTHONPATH=src python -m eigensplit.cli, one process a "
                  "query (no eigensplit console script is installed)"
                  if workload == "cli-cold" else
                  "PYTHONPATH=src, library imported by one worker process")
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": NPROC,
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "seed": seed,
        "invocation": invocation,
    }


def percentile(samples, q: float) -> float:
    """The q-th percentile (0..100) by linear interpolation between the
    closest ranks of the sorted samples."""
    if not samples:
        raise ValueError("no samples")
    xs = sorted(samples)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def qps(result) -> float:
    """Answered queries per second of time spent in queries, at the
    reference speed."""
    return len(result["latencies"]) / sum(result["latencies"])


def end_to_end(result) -> dict:
    lat = result["latencies"]
    if len(lat) < MIN_QUERIES:
        raise BenchError(f"only {len(lat)} answered queries")
    return {
        "setup_s": statistics.median(result["setup_runs_s"]),
        "throughput_qps": qps(result),
        "query_p50_s": percentile(lat, 50),
        "query_p90_s": percentile(lat, 90),
        "fail_frac": result["failed"] / result["attempted"],
        "peak_rss_mb": result["peak_rss_mb"],
    }


def per_layer(plain, traced, extra) -> dict:
    """Counters, extras and span totals by metric name; 0 for a layer the
    workload never reached."""
    values = dict(traced["counters"], **extra)
    values.update({
        "trace.blocks": traced["blocks"],
        "trace.untraced_qps": qps(plain),
        "trace.traced_qps": qps(traced),
        "trace.qps_ratio": qps(traced) / qps(plain),
    })
    out = {}
    for name, _ in PER_LAYER:
        base, field = name.rsplit(".", 1)
        out[name] = values.get(
            name, traced["layers"].get(base, {}).get(field, 0))
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.TEMPLATES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.exists(os.path.join(SRC, "eigensplit", "__init__.py")):
        print("perfbench: no src/eigensplit here; run from the repository "
              "root", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    pools = wl.load_expected()[args.workload]
    # one CPU for this process, its workers and the calibration loop, so
    # the calibration sees the speed the queries see
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    record = {"workload": args.workload, "seconds": args.seconds,
              "trace": args.trace,
              "environment": environment(args.seed, args.workload)}
    if args.workload == "cli-cold":
        setups, cache_dir = cli_setup(1 if args.trace else SETUP_REPS)
        if args.trace:
            plain = cli_loop(args.seed, pools, cache_dir, args.seconds / 2,
                             0, 0)
            traced = cli_loop(args.seed, pools, cache_dir, 0, 0,
                              plain["blocks"], trace=True)
            extra = dict(traced["cli"])
            extra["lfunctions.cache_file_bytes"] = os.path.getsize(
                os.path.join(cache_dir, "bernoulli.tsv"))
        else:
            result = cli_loop(args.seed, pools, cache_dir, args.seconds,
                              MIN_QUERIES, 0)
            result["setup_runs_s"] = setups
    elif args.trace:
        plain, traced = session_trace(args.workload, args.seed, args.seconds)
        extra = {}
    else:
        result = session_run(args.workload, args.seed, args.seconds)

    if args.trace:
        metrics = per_layer(plain, traced, extra)
        units = dict(PER_LAYER)
        shown = traced
        record["spans_file"] = traced["spans_file"]
        record["untraced"] = {k: plain[k] for k in (
            "blocks", "wall_s", "attempted", "failed", "failures")}
    else:
        metrics = end_to_end(result)
        units = dict(END_TO_END)
        shown = result
        record["setup_runs_s"] = result["setup_runs_s"]
        record["samples"] = len(result["latencies"])
        record["wall_throughput_qps"] = len(result["latencies"]) / \
            result["wall_s"]
        record["calibration_median_s"] = statistics.median(
            result["calibration_s"])
        record["raw_p50_s"] = percentile(result["raw_latencies"], 50)
        record["raw_p90_s"] = percentile(result["raw_latencies"], 90)
    record.update(
        blocks=shown["blocks"], block_s=shown["block_s"],
        wall_s=shown["wall_s"],
        properties=shown["properties"], failures=shown["failures"])
    name = f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    with open(os.path.join(WORK, name), "w") as fh:
        json.dump(dict(record, metrics=metrics), fh, indent=1)
    print("# record " + json.dumps(record, separators=(",", ":")))
    phases = (plain, traced) if args.trace else (result,)
    print(json.dumps({
        "correct": all(r["correct"] for r in phases),
        "attempted": sum(r["attempted"] for r in phases),
        "failed": sum(r["failed"] for r in phases),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


def _timeout(signum, frame):
    raise BenchError(f"run exceeded {RUN_LIMIT_S} s")


if __name__ == "__main__":
    signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(RUN_LIMIT_S)
    try:
        sys.exit(main())
    except (BenchError, subprocess.SubprocessError, OSError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        sys.exit(1)
