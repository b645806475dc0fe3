"""The benchmark's own tests, at tiny scale.

Run from the checkout root: ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import inputs, served, trace  # noqa: E402
from perfbench.common import Tally, child_pids  # noqa: E402

TINY = 20_000


def _benchmark_names(section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return [entry["name"] for entry in json.load(handle)[section]]


def _run(workload, trace_flag):
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace_flag), "--keys", str(TINY)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300)
    assert done.returncode == 0, done.stdout
    return json.loads(done.stdout.strip().splitlines()[-1])


#: Per-layer metrics whose layer does work on each workload, and ones
#: whose layer does none there (so they read 0).
WORKING = {
    "embedded": ("hashing.index_ns_per_key", "core.embedder.bulk_load_s",
                 "core.update.search_us_p50", "core.embedder.write_us_p50"),
    "serve-read": ("serve.protocol.decode_us_per_req",
                   "serve.batcher.keys_per_batch", "core.persist.load_s",
                   "hashing.canon_ns_per_key"),
    "serve-churn": ("serve.pool.rpc_us_p50",
                    "core.shared_planes.txn_hold_ms_p50",
                    "core.embedder.insert_batch_self_ms_p50",
                    "serve.pool.start_s", "serve.batcher.wait_ms_p50"),
}
IDLE = {
    "embedded": ("serve.protocol.decode_us_per_req", "core.persist.load_s"),
    "serve-read": ("serve.pool.rpc_us_p50", "core.update.search_us_p50",
                   "core.embedder.bulk_load_s"),
    "serve-churn": ("core.embedder.bulk_load_s",),
}


@pytest.mark.parametrize("workload", _benchmark_names("workloads"))
def test_workload_reports_every_metric(workload):
    plain = _run(workload, 0)
    assert plain["correct"] and plain["failed"] == 0
    assert plain["attempted"] > 0
    assert set(plain["metrics"]) == set(_benchmark_names("end_to_end"))
    assert all(m["value"] > 0 for m in plain["metrics"].values())

    traced = _run(workload, 1)
    metrics = traced["metrics"]
    assert traced["correct"] and traced["failed"] == 0
    assert set(metrics) == set(_benchmark_names("per_layer"))
    for name in _benchmark_names("end_to_end"):
        assert metrics[f"trace_overhead.{name}"]["value"] > 0
    for name in WORKING[workload]:
        assert metrics[name]["value"] > 0, name
    for name in IDLE[workload]:
        assert metrics[name]["value"] == 0, name


def test_wrong_expected_value_fails_the_run(monkeypatch):
    original = served.read_plan

    def corrupted(*args):
        plan = original(*args)
        first = plan.scripts[0][0]
        values = json.loads(first.expect)["values"]
        values[0] ^= 1
        first.expect = served.json_list("values", values)
        return plan

    monkeypatch.setattr(served, "read_plan", corrupted)
    result = served.run(ROOT, "serve-read", 7, 1, resident=TINY)
    assert result["tally"].failed == served.PARTS
    assert "lookup answered 200" in result["tally"].reasons[0]


def test_answer_check_parses_when_bytes_differ():
    request = served.lookup([5, 6], [1, 2])
    assert served.answer_ok(request, 200, b'{"values":[1,2]}')
    assert served.answer_ok(request, 200, b'{ "values" : [1, 2] }')
    assert not served.answer_ok(request, 200, b'{"values":[1,3]}')
    assert not served.answer_ok(request, 500, b'{"values":[1,2]}')


def test_self_time_on_a_synthetic_span_tree():
    #      root [0, 10]
    #      |- a [1, 4]      |- b [3, 6] (overlaps a)   |- c [9, 12] (clipped)
    #         |- a1 [2, 3]
    spans = [
        [1, 0, "root", 0.0, 10.0, 0, 0, None],
        [2, 1, "a", 1.0, 4.0, 0, 0, None],
        [3, 1, "b", 3.0, 6.0, 0, 0, None],
        [4, 1, "c", 9.0, 12.0, 0, 0, None],
        [5, 2, "a1", 2.0, 3.0, 0, 0, None],
    ]
    got = trace.self_times(spans)
    assert got == {1: 4.0, 2: 2.0, 3: 3.0, 4: 3.0, 5: 1.0}


def test_connections_are_pinned_to_distinct_workers():
    keys, vals = inputs.resident_pairs(TINY, 7)
    snapshot, _ = inputs.snapshot(ROOT, TINY, 7)
    server = served.Server(ROOT, snapshot, workers=2)
    try:
        server.wait_healthy()
        server.wait_listening()
        conns, owners = served.pinned_connections(server.port, server.pid, 2)
        try:
            assert len(set(owners)) == 2
            assert set(owners) <= set(child_pids(server.pid))
            tally = Tally()
            for conn in conns:
                served.check(conn, served.lookup([int(keys[0])],
                                                 [int(vals[0])]), tally)
            assert tally.attempted == 2 and tally.failed == 0
        finally:
            for conn in conns:
                conn.close()
    finally:
        server.stop()
