"""Multi-process serving: WorkerPool lifecycle, routing, and metrics.

A real pool of forked worker processes over a promoted table, driven by
the synchronous client: CRUD correctness through the worker→owner write
path, cross-request visibility of writes via the shared planes, pool-wide
metrics aggregation on ``/stats`` and ``/metrics``, both socket-sharing
modes, and a clean demote on ``stop()`` (consistent table, no leaked
``/dev/shm`` segments, port released).

Workers are whole processes, so the pool fixtures here are deliberately
few and reused across assertions — each ``start()`` forks, handshakes,
and promotes planes.
"""

import glob
import multiprocessing
import threading
import time

import pytest

from repro.core.errors import KeyNotFound
from repro.core.sharded import ShardedEmbedder
from repro.core.shared_planes import SharedPlanes, SharedTableSpec
from repro.obs import (
    MetricsRegistry,
    json_snapshot,
    parse_prometheus_text,
    registry_from_snapshot,
)
from repro.serve import ServeClient, ServeConfig, WorkerPool
from repro.serve.pool import WorkerTable


def _segments():
    return set(glob.glob("/dev/shm/repro-planes-*"))


def _make_table(keys=600, shards=4):
    table = ShardedEmbedder(
        capacity=4000, value_bits=16, num_shards=shards
    )
    table.insert_many((k, (k * 13 + 7) % 65536) for k in range(keys))
    return table


class TestWorkerPool:
    def test_crud_and_metrics_through_two_workers(self):
        table = _make_table()
        expected = {k: table.lookup(k) for k in range(0, 600, 29)}
        pool = WorkerPool(table, workers=2, config=ServeConfig(port=0))
        pool.start()
        try:
            assert pool.socket_mode in ("reuseport", "inherited")
            with ServeClient(port=pool.port) as client:
                # Reads come straight from the shared planes.
                keys = sorted(expected)
                assert client.lookup(keys) == [expected[k] for k in keys]

                # Writes route worker → owner → shared segments, and are
                # visible to subsequent lookups (served by any worker).
                client.insert([(70_001, 1234), (70_002, 4321)])
                assert client.lookup([70_001, 70_002]) == [1234, 4321]
                client.update([(70_001, 9999)])
                assert client.lookup([70_001]) == [9999]
                client.delete([70_002])
                # The owner's KeyNotFound travels back over the RPC pipe
                # and out through the worker's HTTP error mapping.
                with pytest.raises(Exception):
                    client.delete([70_002])

                # /stats folds every worker's registry plus the owner
                # table's counters into one pool-wide view.
                counters = client.stats()["counters"]
                assert counters["repro_serve_requests_total"]["value"] >= 5
                assert "repro_planes_generation_retries_total" in counters
                assert counters["repro_updates_total"]["value"] >= 1

                # /metrics renders the same merged registry.
                parsed = parse_prometheus_text(client.metrics_text())
                assert "repro_serve_requests_total" in parsed
        finally:
            pool.stop()

        # Demote restored private planes: writes survive, nothing leaks.
        assert not isinstance(next(iter(table.shards))._table, SharedPlanes)
        assert table.lookup(70_001) == 9999
        assert 70_002 not in table
        table.check_invariants()
        assert not _segments()
        assert pool.socket_mode == "unstarted"

    def test_inherited_socket_mode(self):
        table = _make_table(keys=200, shards=2)
        pool = WorkerPool(
            table, workers=2, config=ServeConfig(port=0),
            force_inherited_socket=True,
        )
        with pool:
            assert pool.socket_mode == "inherited"
            with ServeClient(port=pool.port) as client:
                assert client.lookup([5]) == [table.lookup(5)]
                client.insert([(90_001, 55)])
                assert client.lookup([90_001]) == [55]
        assert table.lookup(90_001) == 55
        table.check_invariants()
        assert not _segments()

    def test_single_worker_pool(self):
        table = _make_table(keys=100, shards=1)
        with WorkerPool(table, workers=1, config=ServeConfig(port=0)) as pool:
            with ServeClient(port=pool.port) as client:
                assert client.lookup([3]) == [table.lookup(3)]
        assert not _segments()

    def test_stop_is_idempotent_and_restartable(self):
        table = _make_table(keys=100, shards=2)
        pool = WorkerPool(table, workers=2, config=ServeConfig(port=0))
        pool.start()
        first_port = pool.port
        pool.stop()
        pool.stop()  # no-op
        assert not _segments()
        pool.start()  # a stopped pool can be started again
        try:
            assert pool.port is not None
            with ServeClient(port=pool.port) as client:
                assert client.lookup([7]) == [table.lookup(7)]
        finally:
            pool.stop()
        assert first_port is not None
        assert not _segments()

    def test_start_twice_raises(self):
        table = _make_table(keys=50, shards=1)
        pool = WorkerPool(table, workers=1, config=ServeConfig(port=0))
        pool.start()
        try:
            with pytest.raises(RuntimeError, match="already started"):
                pool.start()
        finally:
            pool.stop()

    def test_rejects_bad_worker_count(self):
        table = _make_table(keys=10, shards=1)
        with pytest.raises(ValueError):
            WorkerPool(table, workers=0)


class _StallingTable:
    """Answers membership only; the first query outlasts the RPC timeout."""

    def __init__(self, stall_s):
        self._stall_s = stall_s
        self.queries = []

    def __contains__(self, key):
        self.queries.append(key)
        if len(self.queries) == 1:
            time.sleep(self._stall_s)
        return key == "next"


class TestRpc:
    def test_late_reply_is_not_taken_for_the_next_answer(self):
        # The owner's service loop on a thread, the worker's table on the
        # other end of the pipe: no fork needed.
        owner_end, worker_end = multiprocessing.Pipe(duplex=True)
        pool = WorkerPool(_StallingTable(stall_s=0.3), workers=1)
        pool._rpc_conns = [owner_end]
        service = threading.Thread(target=pool._service_loop, daemon=True)
        service.start()
        planes = SharedPlanes.create(8, 8, 3)
        spec = SharedTableSpec(
            planes=planes.spec, shard_seed=0, value_bits=8, capacity=0
        )
        worker = WorkerTable(spec, worker_end, rpc_timeout_s=0.05)
        try:
            with pytest.raises(TimeoutError):
                worker.rpc_call("contains", "first")
            # The owner still answers "first" (False) before "next".
            worker._rpc_timeout_s = 10.0
            assert worker.rpc_call("contains", "next") is True
            assert pool.table.queries == ["first", "next"]
        finally:
            pool._service_stop.set()
            service.join(timeout=5.0)
            owner_end.close()
            worker_end.close()
            worker.close()
            planes.destroy()
        assert not service.is_alive()


    def test_batch_writes_are_one_rpc_and_all_or_nothing(self):
        """A 16-key delete is one owner round-trip, and a batch the owner
        rejects applies none of its keys."""
        table = _make_table(keys=100, shards=4)
        owner_end, worker_end = multiprocessing.Pipe(duplex=True)
        pool = WorkerPool(table, workers=1)
        pool._rpc_conns = [owner_end]
        ops = []
        handle = pool._handle_rpc

        def recording(message, sender):
            ops.append(message[0])
            return handle(message, sender)

        pool._handle_rpc = recording
        service = threading.Thread(target=pool._service_loop, daemon=True)
        service.start()
        planes = SharedPlanes.create(8, 8, 3)
        spec = SharedTableSpec(
            planes=planes.spec, shard_seed=0, value_bits=16, capacity=0
        )
        worker = WorkerTable(spec, worker_end)
        try:
            worker.delete_batch(list(range(16)))
            assert ops == ["delete_batch"]
            assert len(table) == 84
            with pytest.raises(KeyNotFound):
                worker.delete_batch([20, 21, 5])  # 5 is gone already
            with pytest.raises(KeyNotFound):
                worker.update_batch([30, 31, 7], [1, 2, 3])
            assert ops == ["delete_batch"] * 2 + ["update_batch"]
            assert len(table) == 84
            assert 20 in table and 21 in table
            assert table.lookup_many([30, 31]).tolist() == [
                (k * 13 + 7) % 65536 for k in (30, 31)
            ]
        finally:
            pool._service_stop.set()
            service.join(timeout=5.0)
            owner_end.close()
            worker_end.close()
            worker.close()
            planes.destroy()
        table.check_invariants()


class TestSnapshotRoundTrip:
    """The IPC leg of the metrics merge: snapshot → revive → aggregate."""

    def test_registry_from_snapshot_round_trips(self):
        registry = MetricsRegistry()
        counter = registry.counter("rt_ops_total", "ops", "")
        counter.inc(7)
        gauge = registry.gauge("rt_depth", "depth", "")
        gauge.set(3.5)
        histogram = registry.histogram(
            "rt_latency_seconds", (0.1, 1.0), "latency"
        )
        histogram.observe(0.05)
        histogram.observe(0.5)
        histogram.observe(5.0)

        revived = registry_from_snapshot(json_snapshot(registry))
        assert json_snapshot(revived) == json_snapshot(registry)

    def test_rejects_foreign_snapshot(self):
        with pytest.raises(ValueError):
            registry_from_snapshot({"format": "something-else", "metrics": []})
