"""The benchmark's own tests: streams, arithmetic, tracing, answer checks.

    python3 -m pytest perfbench/tests -q
"""

import collections
import gzip
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402

EXPECTED = wl.load_expected()


def _stream(workload, seed, n=4):
    return [wl.block(workload, seed, b, EXPECTED[workload]) for b in range(n)]


@pytest.mark.parametrize("workload", sorted(wl.TEMPLATES))
def test_same_seed_same_stream(workload):
    assert _stream(workload, 7) == _stream(workload, 7)


@pytest.mark.parametrize("workload", sorted(wl.TEMPLATES))
def test_other_seed_same_kind_mix(workload):
    a, b = _stream(workload, 1), _stream(workload, 2)
    assert a != b
    for qa, qb in zip(a, b):
        assert collections.Counter(q["slot"] for q in qa) == \
            collections.Counter(q["slot"] for q in qb) == \
            collections.Counter(wl.TEMPLATES[workload])


def _fake_ask(fail_slot=None):
    def ask(q, qid):
        status = wl.CANARY_STATUS.get(q["slot"], "ok")
        if q["slot"] == fail_slot:
            status = "wrong"
        return status, 0.5, None
    return ask


def test_drive_scales_latencies_to_the_reference_speed():
    n = len(wl.TEMPLATES["units-session"])
    pools = EXPECTED["units-session"]
    slow = 2 * wl.REFERENCE_S
    r = wl.drive("units-session", 1, pools, _fake_ask(), n_blocks=3,
                 clock=lambda: slow)
    assert r["correct"] and r["attempted"] == 3 * n and r["blocks"] == 3
    assert r["failed"] == 3 * len(wl.CANARIES)
    answered = 3 * (n - len(wl.CANARIES))
    assert r["latencies"] == [0.25] * answered
    assert r["raw_latencies"] == [0.5] * answered


def test_drive_flags_failures_beyond_the_canaries():
    pools = EXPECTED["lvalues-session"]
    r = wl.drive("lvalues-session", 1, pools, _fake_ask("irr"), n_blocks=2,
                 clock=lambda: wl.REFERENCE_S)
    assert not r["correct"]
    assert r["failed"] == 2 * (4 + len(wl.CANARIES))


def test_cli_blocks_split_cache_in_half():
    for queries in _stream("cli-cold", 3, 6):
        assert sum(q["cache"] for q in queries) == len(queries) // 2


@pytest.mark.parametrize("workload", sorted(wl.TEMPLATES))
def test_every_slot_has_stored_answers(workload):
    pools = EXPECTED[workload]
    for slot in wl.TEMPLATES[workload]:
        entries = pools[slot]["entries"]
        assert entries
        for params, want, bmax in entries:
            assert want is not None and bmax >= 0


def test_readme_examples_are_in_the_answers():
    units = EXPECTED["units-session"]
    assert units["cw_phi/7"]["entries"][0][1]["phi"] == [6, 6, 5, 1, 4]
    cli = EXPECTED["cli-cold"]
    irregular = cli["canary_irregular"]["entries"][0]
    assert irregular[1]["json"]["irregular_pairs"] == [12, 200]


def test_percentile_interpolates_between_ranks():
    xs = list(range(1, 11))
    assert run.percentile(xs, 50) == 5.5
    assert run.percentile(xs, 0) == 1
    assert run.percentile(xs, 100) == 10
    assert run.percentile(list(range(101)), 90) == 90
    assert run.percentile([3.0], 90) == 3.0
    assert run.percentile([5, 1, 3], 50) == 3
    with pytest.raises(ValueError):
        run.percentile([], 50)


def test_self_time_subtracts_direct_children():
    # root [0, 10] has children [1, 3] and [4, 8]; [4, 8] has [5, 6]
    starts = [0.0, 1.0, 4.0, 5.0]
    ends = [10.0, 3.0, 8.0, 6.0]
    parents = [-1, 0, 0, 2]
    assert tracing.self_times(starts, ends, parents) == [4.0, 2.0, 3.0, 1.0]


def test_wrapped_calls_record_nested_spans_and_errors():
    from eigensplit.errors import PrecisionExhausted

    t = tracing.Tracer()

    def leaf(x):
        if x < 0:
            raise PrecisionExhausted("ladder")
        return x

    leaf_w = t.wrap("leaf", leaf)
    outer = t.wrap("outer", lambda x: leaf_w(x) + leaf_w(x))
    with t.span("query", 5):
        assert outer(2) == 4
    with pytest.raises(PrecisionExhausted):
        with t.span("query", 6):
            outer(-1)
    names = [t.names[n] for n in t.name]
    assert names == ["query", "outer", "leaf", "leaf", "query", "outer",
                     "leaf"]
    assert list(t.parent) == [-1, 0, 1, 1, -1, 4, 5]
    assert list(t.query) == [5, 5, 5, 5, 6, 6, 6]
    agg = t.aggregate()
    assert agg["leaf"]["calls"] == 3 and agg["outer"]["calls"] == 2
    assert t.counters == {"leaf.errors": 1, "outer.errors": 1}
    total = sum(row["self_s"] for row in agg.values())
    root = sum(t.end[k] - t.start[k] for k in (0, 4))
    assert total == pytest.approx(root)


def test_spans_write_as_json_lines(tmp_path):
    t = tracing.Tracer()
    with t.span("query", 0):
        t.wrap("f", lambda: None)()
    path = tmp_path / "spans.jsonl.gz"
    t.write_jsonl(str(path))
    t.write_jsonl(str(path), append=True)
    with gzip.open(path, "rt") as fh:
        rows = [json.loads(line) for line in fh]
    assert len(rows) == 6
    header, root, child = rows[:3]
    assert header == {"fields": ["name", "start", "end", "parent", "query"]}
    assert root[0] == "query" and child[0] == "f"
    assert child[3] == 0 and child[4] == 0 and root[3] == -1
    assert root[1] <= child[1] <= child[2] <= root[2]


def test_cli_status_classifies_outcomes():
    want = {"rc": 0, "json": {"passed": True}}
    assert run.cli_status(want, 0, '{"passed":true,"x":1}') == "ok"
    assert run.cli_status(want, 0, '{"passed":false}') == "wrong"
    assert run.cli_status(want, 1, "") == "refused"
    assert run.cli_status(want, -11, "") == "error"


def test_repeat_share_counts_inputs_seen_before():
    pools = EXPECTED["units-session"]
    q = {"slot": "cw_phi/5", "entry": 0}
    props = wl.stream_properties("units-session", [[q, q], [q]], pools)
    assert props["repeat_share"] == pytest.approx(2 / 3)
    assert props["kind_counts"] == {"cw_phi": 3}
    assert props["primes"] == [5]


def test_metric_lists_match_benchmark_json():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["end_to_end"]] == \
        [n for n, _ in run.END_TO_END]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        dict(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(wl.TEMPLATES)
