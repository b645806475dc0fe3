"""The serving layer: batcher semantics, protocol, and the live server.

Three tiers, each one event loop per test via ``asyncio.run`` (the suite
has no async plugin, and a fresh loop per test is also the isolation the
batcher's lazily-started flush task wants):

- :class:`MicroBatcher` in isolation against a recording handler — the
  ordering, admission-control, group-commit, and drain guarantees its
  docstring promises, including the edge cases (a lone op flushed within
  a few loop turns with no timer, ops queued during a batch flushing
  together as the next, oversized op admitted on an empty queue,
  shutdown mid-batch draining accepted work, a handler raise failing the
  whole batch but only that batch). Co-batching is pinned by scheduling,
  not by a knob: ``asyncio.gather`` of several ``submit`` calls queues
  every op before the flush task the first one creates gets to run.
- The wire protocol's pure functions — body validation, the
  exception ↔ status-code table round-tripping both directions, HTTP
  framing parsers against hand-built byte streams.
- A real :class:`TableServer` over a small :class:`ShardedEmbedder`,
  driven by the async client (and :class:`ServerThread` by the sync
  client): end-to-end operations, per-request error isolation inside a
  coalesced batch, 429 shedding, the observability endpoints, and
  graceful shutdown answering everything it accepted. Requests that must
  share one batch are pinned with :class:`FlushGate`, which holds the
  server batcher's next flush until enough ops are queued.
"""

import asyncio
import json

import pytest

from repro.core.errors import (
    DuplicateKey,
    KeyNotFound,
    ReconstructionFailed,
    SpaceExhausted,
    UpdateFailure,
)
from repro.core.sharded import ShardedEmbedder
from repro.obs import MetricsRegistry, parse_prometheus_text
from repro.serve import (
    AsyncServeClient,
    BatchOp,
    BatcherClosed,
    MicroBatcher,
    Overloaded,
    ProtocolError,
    ServeClient,
    ServeConfig,
    ServeError,
    ServerThread,
    TableServer,
)
from repro.serve.protocol import (
    ServeProtocolError,
    error_response,
    exception_from,
    parse_keys,
    parse_pairs,
    read_http_request,
    read_http_response,
    render_http_request,
    render_http_response,
)


def make_table(n_keys=0, capacity=4096, value_bits=12):
    table = ShardedEmbedder(
        capacity=capacity, value_bits=value_bits, num_shards=2, seed=5
    )
    if n_keys:
        table.insert_batch(
            list(range(1, n_keys + 1)),
            [k % (1 << value_bits) for k in range(1, n_keys + 1)],
        )
    return table


# ---------------------------------------------------------------------------
# MicroBatcher semantics (recording handler, no table, no sockets)
# ---------------------------------------------------------------------------


class RecordingHandler:
    """Echoes each op's keys back as its result; records batch shapes."""

    def __init__(self):
        self.batches = []

    def __call__(self, batch):
        self.batches.append([(op.kind, list(op.keys)) for op in batch])
        return [list(op.keys) for op in batch]


def test_batcher_single_op_flushed_by_window_expiry():
    """One lone op must not wait for a full batch. There is no window left
    to expire: group commit flushes the op on the flush loop's first turn,
    alone, well short of ``max_batch``."""
    async def scenario():
        handler = RecordingHandler()
        batcher = MicroBatcher(handler, max_batch=1024)
        result = await batcher.submit(BatchOp("lookup", [1, 2, 3]))
        assert result == [1, 2, 3]
        assert handler.batches == [[("lookup", [1, 2, 3])]]
        await batcher.close()

    asyncio.run(scenario())


def test_batcher_zero_window_flushes_immediately():
    """Group commit, the policy a zero window used to select, is the only
    one: a lone op on a default batcher is answered after a few
    ``asyncio.sleep(0)`` turns, with no timer to wait out."""
    async def scenario():
        handler = RecordingHandler()
        batcher = MicroBatcher(handler)
        pending = asyncio.ensure_future(batcher.submit(BatchOp("lookup", [9])))
        for _ in range(5):
            await asyncio.sleep(0)
            if pending.done():
                break
        assert pending.done()
        assert pending.result() == [9]
        assert batcher.batches_flushed == 1
        await batcher.close()

    asyncio.run(scenario())


def test_batcher_ops_queued_during_a_batch_flush_together_next():
    """Ops submitted while a batch executes form the next batch, whole
    and in arrival order."""
    async def scenario():
        batches = []
        later = []

        def handler(batch):
            batches.append([list(op.keys) for op in batch])
            if len(batches) == 1:
                # Arrivals during this batch: they queue once it returns.
                later.extend(
                    asyncio.ensure_future(batcher.submit(
                        BatchOp("lookup", [key])))
                    for key in (2, 3, 4)
                )
            return [list(op.keys) for op in batch]

        batcher = MicroBatcher(handler)
        assert await batcher.submit(BatchOp("lookup", [1])) == [1]
        assert [await f for f in later] == [[2], [3], [4]]
        assert batches == [[[1]], [[2], [3], [4]]]
        await batcher.close()

    asyncio.run(scenario())


def test_batcher_coalesces_concurrent_submissions():
    """Ops queued before the flush task runs land in one handler call,
    in order."""
    async def scenario():
        handler = RecordingHandler()
        batcher = MicroBatcher(handler, max_batch=1024)
        results = await asyncio.gather(
            batcher.submit(BatchOp("lookup", [1])),
            batcher.submit(BatchOp("insert", [2], [20])),
            batcher.submit(BatchOp("lookup", [3])),
        )
        assert results == [[1], [2], [3]]
        assert len(handler.batches) == 1
        assert [kind for kind, _ in handler.batches[0]] == \
            ["lookup", "insert", "lookup"]
        await batcher.close()

    asyncio.run(scenario())


def test_batcher_full_batch_flushes_before_window():
    """One flush takes at most max_batch key-ops; the rest of the queue
    flushes as the next batch."""
    async def scenario():
        handler = RecordingHandler()
        batcher = MicroBatcher(handler, max_batch=4)
        results = await asyncio.gather(
            *[batcher.submit(BatchOp("lookup", [i, i])) for i in range(4)]
        )
        assert results == [[i, i] for i in range(4)]
        # 8 key-ops queued together with a 4-op budget: two batches of
        # two requests each.
        assert [len(b) for b in handler.batches] == [2, 2]
        await batcher.close()

    asyncio.run(scenario())


def test_batcher_never_splits_a_request():
    """An op larger than max_batch is admitted (empty queue) and flushes
    alone rather than being chopped."""
    async def scenario():
        handler = RecordingHandler()
        batcher = MicroBatcher(handler, max_batch=4, max_queue=4)
        result = await batcher.submit(BatchOp("lookup", list(range(10))))
        assert result == list(range(10))
        assert [len(b) for b in handler.batches] == [1]
        await batcher.close()

    asyncio.run(scenario())


def test_batcher_sheds_past_queue_bound():
    """Admission control: the op that would exceed max_queue raises
    Overloaded before enqueueing; earlier ops are unaffected."""
    async def scenario():
        release = asyncio.Event()

        async def run():
            batcher = MicroBatcher(
                lambda batch: [list(op.keys) for op in batch],
                max_batch=4, max_queue=8,
            )
            first = asyncio.ensure_future(
                batcher.submit(BatchOp("lookup", [1, 2, 3])))
            # One turn: it enqueues (depth 3); the flush task it created
            # has not run yet.
            await asyncio.sleep(0)
            with pytest.raises(Overloaded):
                await batcher.submit(BatchOp("lookup", list(range(6))))
            assert batcher.ops_shed == 1
            assert batcher.depth == 3  # the shed op left no residue
            await batcher.close()  # drains the queued op
            assert await first == [1, 2, 3]

        await run()
        release.set()

    asyncio.run(scenario())


def test_batcher_close_drains_accepted_work_and_rejects_new():
    """Shutdown mid-batch: everything accepted resolves, late submitters
    get BatcherClosed."""
    async def scenario():
        handler = RecordingHandler()
        batcher = MicroBatcher(handler, max_batch=1024)
        pending = [
            asyncio.ensure_future(batcher.submit(BatchOp("lookup", [i])))
            for i in range(5)
        ]
        # One turn: all five queued; the flush task has not run yet.
        await asyncio.sleep(0)
        assert batcher.depth == 5
        await batcher.close()
        assert [await f for f in pending] == [[i] for i in range(5)]
        with pytest.raises(BatcherClosed):
            await batcher.submit(BatchOp("lookup", [99]))
        await batcher.close()  # idempotent

    asyncio.run(scenario())


def test_batcher_handler_raise_fails_batch_not_loop():
    """A handler exception fails that batch's futures; the next batch
    executes normally."""
    async def scenario():
        calls = {"n": 0}

        def flaky(batch):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("boom")
            return [list(op.keys) for op in batch]

        batcher = MicroBatcher(flaky, max_batch=1024)
        with pytest.raises(RuntimeError):
            await batcher.submit(BatchOp("lookup", [1]))
        assert await batcher.submit(BatchOp("lookup", [2])) == [2]
        await batcher.close()

    asyncio.run(scenario())


def test_batcher_per_op_exception_result():
    """An Exception instance in the result list fails only that op."""
    async def scenario():
        def handler(batch):
            return [
                KeyNotFound("nope") if op.kind == "update" else list(op.keys)
                for op in batch
            ]

        batcher = MicroBatcher(handler, max_batch=1024)
        good, bad = await asyncio.gather(
            batcher.submit(BatchOp("lookup", [1])),
            batcher.submit(BatchOp("update", [2], [20])),
            return_exceptions=True,
        )
        assert good == [1]
        assert isinstance(bad, KeyNotFound)
        await batcher.close()

    asyncio.run(scenario())


def test_batcher_result_length_mismatch_fails_batch():
    async def scenario():
        batcher = MicroBatcher(lambda batch: [], max_batch=8)
        with pytest.raises(ValueError, match="0 results"):
            await batcher.submit(BatchOp("lookup", [1]))
        await batcher.close()

    asyncio.run(scenario())


def test_batcher_rejects_bad_parameters():
    async def scenario():
        with pytest.raises(ValueError):
            MicroBatcher(lambda b: [], max_batch=0)
        with pytest.raises(ValueError):
            MicroBatcher(lambda b: [], max_batch=8, max_queue=4)

    asyncio.run(scenario())


# ---------------------------------------------------------------------------
# Protocol: schemas, the error table, HTTP framing
# ---------------------------------------------------------------------------


def test_parse_keys_validation():
    assert parse_keys({"keys": [1, "a"]}) == [1, "a"]
    for bad in ({}, {"keys": []}, {"keys": "a"}, {"keys": [1.5]},
                {"keys": [True]}, {"keys": [None]}):
        with pytest.raises(ProtocolError):
            parse_keys(bad)


def test_parse_pairs_validation():
    assert parse_pairs({"keys": [1], "values": [2]}) == ([1], [2])
    for bad in ({"keys": [1]}, {"keys": [1], "values": [1, 2]},
                {"keys": [1], "values": ["x"]},
                {"keys": [1], "values": [True]}):
        with pytest.raises(ProtocolError):
            parse_pairs(bad)


@pytest.mark.parametrize("bad,type_name", [
    (True, "bool"), (1.5, "float"), (None, "NoneType"), ([1], "list"),
])
@pytest.mark.parametrize("path,field", [
    ("/v1/lookup", "keys"), ("/v1/insert", "values"),
])
def test_one_bad_item_in_a_large_body_is_named(path, field, bad, type_name):
    """Validation scans a body's types in one pass; a 1,024-item body
    with one bad item near its end still gets the 400 naming its type."""
    keys = list(range(1024))
    body = {"keys": keys, "values": [7] * 1024}
    body[field] = list(body[field])
    body[field][1000] = bad
    expected = (
        f"keys must be integers or strings, got {type_name}"
        if field == "keys" else f"values must be integers, got {type_name}"
    )

    async def scenario(server, table):
        payload = json.dumps(body).encode()
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", server.port)
        writer.write(
            f"POST {path} HTTP/1.1\r\nHost: h\r\n"
            f"Content-Length: {len(payload)}\r\n\r\n".encode() + payload
        )
        await writer.drain()
        status, _, answer = await read_http_response(reader)
        writer.close()
        assert status == 400
        assert json.loads(answer) == {
            "error": "bad_request", "detail": expected,
        }
        assert len(table) == 0

    run_with_server(scenario)


@pytest.mark.parametrize("exc,status,code", [
    (Overloaded("q"), 429, "overloaded"),
    (BatcherClosed("d"), 503, "shutting_down"),
    (DuplicateKey("k"), 409, "duplicate_key"),
    (KeyNotFound("k"), 404, "key_not_found"),
    (ValueError("v"), 400, "bad_request"),
])
def test_error_table_round_trips(exc, status, code):
    got_status, body = error_response(exc)
    assert got_status == status
    assert body["error"] == code
    rebuilt = exception_from(got_status, body)
    assert type(rebuilt) is type(exc)


def test_unknown_error_code_becomes_protocol_drift_error():
    # an unrecognised code means server/client version drift — the
    # typed ServeProtocolError (still a ServeError) says so
    rebuilt = exception_from(418, {"error": "teapot", "detail": "short"})
    assert isinstance(rebuilt, ServeProtocolError)
    assert isinstance(rebuilt, ServeError)
    assert rebuilt.status == 418
    assert "teapot" in str(rebuilt)


def test_internal_code_stays_plain_serve_error():
    rebuilt = exception_from(500, {"error": "internal", "detail": "boom"})
    assert isinstance(rebuilt, ServeError)
    assert not isinstance(rebuilt, ServeProtocolError)


@pytest.mark.parametrize("exc,status,code", [
    (UpdateFailure("walk budget"), 500, "update_failure"),
    (ReconstructionFailed("peel stalled"), 507, "reconstruction_failed"),
    (TypeError("bad key type"), 400, "bad_request"),
])
def test_new_error_table_entries_mapped(exc, status, code):
    got_status, body = error_response(exc)
    assert got_status == status
    assert body["error"] == code


def test_missing_response_field_raises_protocol_error():
    from repro.serve.client import _field_int, _field_list

    with pytest.raises(ServeProtocolError):
        _field_list({"nope": []}, "values")
    with pytest.raises(ServeProtocolError):
        _field_list({"values": 3}, "values")
    with pytest.raises(ServeProtocolError):
        _field_int({"values": []}, "inserted")
    with pytest.raises(ServeProtocolError):
        _field_int({"inserted": True}, "inserted")
    with pytest.raises(ServeProtocolError):
        _field_int("not a dict", "inserted")
    assert _field_int({"inserted": 4}, "inserted") == 4
    assert _field_list({"values": [1, 2]}, "values") == [1, 2]


def test_http_framing_round_trip():
    async def scenario():
        reader = asyncio.StreamReader()
        reader.feed_data(render_http_request(
            "POST", "/v1/lookup", b'{"keys":[1]}', host="h"))
        reader.feed_eof()
        method, path, headers, body = await read_http_request(reader, 1 << 20)
        assert (method, path, body) == ("POST", "/v1/lookup", b'{"keys":[1]}')
        assert headers["content-length"] == "12"

        reader = asyncio.StreamReader()
        reader.feed_data(render_http_response(200, b'{"values":[5]}'))
        reader.feed_eof()
        status, headers, body = await read_http_response(reader)
        assert (status, body) == (200, b'{"values":[5]}')
        assert headers["connection"] == "keep-alive"

    asyncio.run(scenario())


def test_http_request_rejects_transfer_encoding():
    """Chunked framing is refused outright — honouring Content-Length
    only while ignoring Transfer-Encoding would parse the chunk bytes as
    the next pipelined request."""
    async def scenario():
        reader = asyncio.StreamReader()
        reader.feed_data(
            b"POST /v1/lookup HTTP/1.1\r\n"
            b"Host: h\r\n"
            b"Transfer-Encoding: chunked\r\n"
            b"\r\n"
            b"c\r\n{\"keys\":[1]}\r\n0\r\n\r\n"
        )
        reader.feed_eof()
        with pytest.raises(ProtocolError) as info:
            await read_http_request(reader, 1 << 20)
        assert info.value.status == 501

    asyncio.run(scenario())


def test_http_request_body_limit_and_eof():
    async def scenario():
        reader = asyncio.StreamReader()
        reader.feed_data(render_http_request("POST", "/x", b"12345"))
        reader.feed_eof()
        with pytest.raises(ProtocolError) as info:
            await read_http_request(reader, max_body_bytes=4)
        assert info.value.status == 413

        reader = asyncio.StreamReader()
        reader.feed_eof()
        assert await read_http_request(reader, 1 << 20) is None

    asyncio.run(scenario())


def test_serve_config_validation_and_unbatched():
    config = ServeConfig(max_batch=64, max_queue=128)
    solo = config.unbatched()
    assert solo.max_batch == 1
    assert solo.max_queue == 128  # admission bound survives
    with pytest.raises(ValueError):
        ServeConfig(max_batch=0)
    with pytest.raises(ValueError):
        ServeConfig(max_batch=64, max_queue=32)


# ---------------------------------------------------------------------------
# End-to-end: TableServer + AsyncServeClient
# ---------------------------------------------------------------------------


class FlushGate(asyncio.Event):
    """Stands in for a batcher's arrival event so a test can pin
    co-batching over HTTP.

    The idle flush loop waits on this event; :meth:`hold` makes its next
    wake-up wait until ``ops`` ops are queued (or ``close()`` starts), so
    that many concurrent requests share one batch. :meth:`install` runs
    on the server's loop before its first request: it swaps the gate in
    and starts the flush task, which then idles on the gate.
    """

    def __init__(self, batcher):
        super().__init__()
        self._batcher = batcher
        self._need = 1

    @classmethod
    def install(cls, server):
        batcher = server._batcher
        gate = cls(batcher)
        batcher._arrived = gate
        batcher._ensure_running()
        return gate

    def hold(self, ops):
        self._need = ops

    def set(self):
        batcher = self._batcher
        if len(batcher._queue) >= self._need or batcher.closing:
            self._need = 1
            super().set()


def run_with_server(scenario, table=None, config=None, registry=None):
    """Start a TableServer on an ephemeral port, run ``scenario(server,
    table)``, always stop the server."""
    table = table if table is not None else make_table()
    config = config if config is not None else ServeConfig()

    async def main():
        server = TableServer(table, config, registry=registry)
        await server.start()
        try:
            await scenario(server, table)
        finally:
            await server.stop()

    asyncio.run(main())


def test_server_crud_round_trip():
    async def scenario(server, table):
        async with AsyncServeClient(port=server.port) as client:
            assert await client.insert([("a", 1), ("b", 2), (7, 3)]) == 3
            assert await client.lookup(["a", "b", 7]) == [1, 2, 3]
            assert await client.update([("a", 9)]) == 1
            assert await client.lookup(["a"]) == [9]
            assert await client.delete(["a", "b"]) == 2
            assert len(table) == 1  # the int key survives

    run_with_server(scenario)


def test_server_maps_library_errors_to_statuses():
    async def scenario(server, table):
        async with AsyncServeClient(port=server.port) as client:
            await client.insert([("dup", 1)])
            with pytest.raises(DuplicateKey):
                await client.insert([("dup", 2)])
            with pytest.raises(KeyNotFound):
                await client.update([("missing", 1)])
            with pytest.raises(KeyNotFound):
                await client.delete(["missing"])
            # an empty keys array is a 400; the client rebuilds the
            # error table's inverse for bad_request, which is ValueError
            with pytest.raises(ValueError):
                await client.lookup([])
            # the failures left the table consistent
            assert await client.lookup(["dup"]) == [1]

    run_with_server(scenario)


def test_server_isolates_failing_request_within_batch():
    """Two inserts coalesced into one batch: the duplicate fails, the
    innocent one lands."""
    async def scenario(server, table):
        gate = FlushGate.install(server)
        async with AsyncServeClient(port=server.port) as c1, \
                AsyncServeClient(port=server.port) as c2:
            await c1.insert([("taken", 5)])
            gate.hold(2)
            good, bad = await asyncio.gather(
                c1.insert([("fresh", 6)]),
                c2.insert([("taken", 7), ("casualty", 8)]),
                return_exceptions=True,
            )
            assert good == 1
            assert isinstance(bad, DuplicateKey)
            assert await c1.lookup(["fresh"]) == [6]
            # the failing request was all-or-nothing rejected
            assert len(table) == 2

    run_with_server(scenario)


class _PrefixExhaustingTable:
    """``insert_batch`` applies a prefix, then raises SpaceExhausted —
    the partial-application contract the real tables document."""

    def __init__(self):
        self.calls = 0
        self.applied = []

    def insert_batch(self, keys, values):
        self.calls += 1
        self.applied.extend(keys[:1])
        raise SpaceExhausted("no room")


class _PerKeyTable:
    """Scalar-insert-only stub: no ``insert_batch``, no rollback."""

    def __init__(self):
        self.data = {}

    def insert(self, key, value):
        if key in self.data:
            raise DuplicateKey(f"key {key!r} already inserted")
        self.data[key] = value


def test_insert_run_space_exhausted_answers_all_without_retry():
    """SpaceExhausted on the merged call leaves a prefix applied, so the
    server must not blind-retry per request (that would answer spurious
    409s for committed keys) — every coalesced request gets the 507."""
    async def scenario():
        table = _PrefixExhaustingTable()
        server = TableServer(table, ServeConfig())
        run = [BatchOp("insert", ["a"], [1]), BatchOp("insert", ["b"], [2])]
        results = server._run_writes("insert", run)
        assert table.calls == 1  # exactly the merged attempt, no retry
        assert all(isinstance(r, SpaceExhausted) for r in results)

    asyncio.run(scenario())


def test_insert_runs_never_coalesce_without_insert_batch():
    """A table with only scalar ``insert`` has no all-or-nothing batch,
    so requests must execute separately: the first request commits and
    is answered as a success (a merged per-key attempt would apply its
    key, fail on the duplicate, then blind-retry it into a spurious
    409)."""
    async def scenario():
        table = _PerKeyTable()
        server = TableServer(table, ServeConfig())
        run = [
            BatchOp("insert", ["a"], [1]),
            BatchOp("insert", ["a", "b"], [2, 3]),
        ]
        results = server._run_writes("insert", run)
        assert results[0] == 1
        assert isinstance(results[1], DuplicateKey)
        assert table.data == {"a": 1}

    asyncio.run(scenario())


class _BatchWriteTable:
    """Records the batch write calls a write run makes."""

    def __init__(self):
        self.calls = []

    def update_batch(self, keys, values):
        self.calls.append(("update_batch", list(keys), list(values)))

    def delete_batch(self, keys):
        self.calls.append(("delete_batch", list(keys)))


def test_update_and_delete_runs_coalesce_into_one_batch_call():
    async def scenario():
        table = _BatchWriteTable()
        server = TableServer(table, ServeConfig())
        updates = [BatchOp("update", ["a"], [1]),
                   BatchOp("update", ["b", "c"], [2, 3])]
        deletes = [BatchOp("delete", ["a"]), BatchOp("delete", ["b", "c"])]
        assert server._run_writes("update", updates) == [1, 2]
        assert server._run_writes("delete", deletes) == [1, 2]
        assert table.calls == [
            ("update_batch", ["a", "b", "c"], [1, 2, 3]),
            ("delete_batch", ["a", "b", "c"]),
        ]

    asyncio.run(scenario())


def _lopsided_table():
    """Two strict shards: shard 0 sparse, shard 1 dense, so an insert into
    shard 1 runs out of space within a few keys (see test_sharded)."""
    from repro.core.config import EmbedderConfig

    strict = EmbedderConfig(
        max_repair_steps=1, max_search_attempts=1, auto_reconstruct=False
    )
    table = ShardedEmbedder(48, 16, num_shards=2, seed=3, config=strict)
    loaded = _routed(table, 0, 1, 6) + _routed(table, 1, 1, 40)
    table.bulk_load([(key, (key * 31 + 5) % 65536) for key in loaded])
    return table


def _routed(table, shard, start, count):
    keys = []
    key = start
    while len(keys) < count:
        if table.shard_of(key) == shard:
            keys.append(key)
        key += 1
    return keys


def test_coalesced_507_leaves_no_key_and_a_retry_lands():
    """Two insert requests coalesced into one run over a sharded table:
    the run runs out of space in the last shard it touches, both requests
    get the 507, neither leaves a key behind — so once space is freed
    both retries land, with no 409 for a half-applied first attempt."""
    table = _lopsided_table()
    sparse = _routed(table, 0, 1000, 3)
    dense = _routed(table, 1, 1000, 3)

    async def scenario(server, table):
        gate = FlushGate.install(server)
        async with AsyncServeClient(port=server.port) as c1, \
                AsyncServeClient(port=server.port) as c2:
            gate.hold(2)
            first = await asyncio.gather(
                c1.insert([(key, 7) for key in sparse]),
                c2.insert([(key, 8) for key in dense]),
                return_exceptions=True,
            )
            assert all(isinstance(r, SpaceExhausted) for r in first)
            assert len(table) == 46
            assert not any(key in table for key in sparse + dense)
            await c1.delete(_routed(table, 1, 1, 30))
            assert await c1.insert([(key, 7) for key in sparse]) == 3
            assert await c2.insert([(key, 8) for key in dense]) == 3
            assert await c1.lookup(sparse + dense) == [7] * 3 + [8] * 3

    run_with_server(scenario, table=table)


def test_failing_update_or_delete_request_applies_none_of_its_keys():
    async def scenario(server, table):
        async with AsyncServeClient(port=server.port) as client:
            await client.insert([(1, 10), (2, 20), (3, 30)])
            with pytest.raises(KeyNotFound):
                await client.update([(1, 11), (2, 21), ("ghost", 1)])
            assert await client.lookup([1, 2, 3]) == [10, 20, 30]
            with pytest.raises(KeyNotFound):
                await client.delete([1, 2, "ghost"])
            assert len(table) == 3
            assert await client.update([(1, 11), (2, 21)]) == 2
            assert await client.delete([3]) == 1
            assert await client.lookup([1, 2]) == [11, 21]

    run_with_server(scenario)


def test_coalesced_update_run_isolates_the_offender():
    async def scenario(server, table):
        gate = FlushGate.install(server)
        async with AsyncServeClient(port=server.port) as c1, \
                AsyncServeClient(port=server.port) as c2:
            await c1.insert([(1, 10), (2, 20)])
            gate.hold(2)
            good, bad = await asyncio.gather(
                c1.update([(1, 11)]),
                c2.update([(2, 21), ("ghost", 1)]),
                return_exceptions=True,
            )
            assert good == 1
            assert isinstance(bad, KeyNotFound)
            assert await c1.lookup([1, 2]) == [11, 20]

    run_with_server(scenario)


def test_server_mixed_kind_batch_preserves_arrival_order():
    """A lookup submitted after an insert, coalesced into the same
    micro-batch, observes the insert."""
    async def scenario(server, table):
        # Hold the flush so both requests land in one batch; gather
        # issues the insert first, so arrival order is insert-then-lookup.
        FlushGate.install(server).hold(2)
        async with AsyncServeClient(port=server.port) as c1, \
                AsyncServeClient(port=server.port) as c2:
            insert_result, lookup_result = await asyncio.gather(
                c1.insert([("new", 3)]),
                c2.lookup(["new"]),
            )
            assert insert_result == 1
            assert lookup_result == [3]

    run_with_server(scenario)


def test_server_sheds_when_queue_full():
    async def scenario(server, table):
        # Hold the flush until the queue is full, so all three arrive
        # while the first two are queued.
        FlushGate.install(server).hold(2)
        async with AsyncServeClient(port=server.port) as c1, \
                AsyncServeClient(port=server.port) as c2, \
                AsyncServeClient(port=server.port) as c3:
            results = await asyncio.gather(
                c1.lookup([1, 2, 3]),       # admitted (queue empty)
                c2.lookup([4, 5, 6]),       # depth 3+3 = 6 <= 6
                c3.lookup([7, 8]),          # 6+2 > 6 -> shed
                return_exceptions=True,
            )
            overloaded = [r for r in results if isinstance(r, Overloaded)]
            served = [r for r in results if isinstance(r, list)]
            assert len(overloaded) == 1
            assert len(served) == 2

    run_with_server(
        scenario,
        table=make_table(n_keys=10),
        config=ServeConfig(max_batch=6, max_queue=6),
    )


def test_server_observability_endpoints():
    registry = MetricsRegistry()

    async def scenario(server, table):
        async with AsyncServeClient(port=server.port) as client:
            await client.insert([(1, 1), (2, 2)])
            await client.lookup([1, 2])
            health = await client.health()
            assert health["status"] == "ok"
            assert health["keys"] == 2

            stats = await client.stats()
            assert stats["format"] == "repro-metrics/1"
            assert stats["serve"]["batches_flushed"] >= 2
            assert stats["serve"]["latency"]["p99_s"] > 0
            assert stats["counters"]["repro_serve_requests_total"][
                "value"] >= 2

            text = await client.metrics_text()
            samples = parse_prometheus_text(text)
            assert samples["repro_serve_keys_total"] == 4.0
            assert samples["repro_serve_batch_size_count"] >= 2.0
            # table metrics ride along in the merged registry
            assert "repro_serve_queue_depth" in samples

        # instruments live on the caller's registry too
        assert "repro_serve_requests_total" in registry

    run_with_server(scenario, registry=registry)


def test_server_graceful_stop_answers_inflight_then_rejects():
    """stop() drains: the queued request gets its answer, a request after
    the drain gets connection refused / 503."""
    async def scenario():
        table = make_table(n_keys=4)
        server = TableServer(table, ServeConfig())
        # Hold the flush for a second op that never comes: only stop()
        # releases the request.
        FlushGate.install(server).hold(2)
        await server.start()
        port = server.port
        client = AsyncServeClient(port=port)
        pending = asyncio.ensure_future(client.lookup([1, 2]))
        while not server._batcher.depth:  # parked in the batcher's queue
            await asyncio.sleep(0.001)
        await server.stop()
        assert await pending == [1 % (1 << 12), 2 % (1 << 12)]
        await client.close()
        with pytest.raises((ConnectionError, OSError, ProtocolError)):
            fresh = AsyncServeClient(port=port)
            await fresh.lookup([1])

    asyncio.run(scenario())


def test_server_rejects_chunked_request_and_closes():
    """A chunked request gets a 501 and the connection is closed — the
    chunk bytes must never be parsed as the next pipelined request."""
    async def scenario(server, table):
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", server.port)
        writer.write(
            b"POST /v1/lookup HTTP/1.1\r\n"
            b"Host: h\r\n"
            b"Transfer-Encoding: chunked\r\n"
            b"\r\n"
            b"c\r\n{\"keys\":[1]}\r\n0\r\n\r\n"
        )
        await writer.drain()
        status, headers, body = await read_http_response(reader)
        assert status == 501
        assert headers["connection"] == "close"
        assert json.loads(body)["error"] == "bad_request"
        assert await reader.read() == b""  # server hung up
        writer.close()

    run_with_server(scenario)


def test_async_client_timeout_drops_poisoned_connection():
    """After a response timeout the keep-alive stream still owes the old
    response; the client must reconnect rather than read it (or any
    later bytes) as the next request's answer."""
    async def scenario():
        connections = []

        async def handler(reader, writer):
            connections.append(writer)
            first = len(connections) == 1
            while True:
                request = await read_http_request(reader, 1 << 20)
                if request is None:
                    return
                if first:
                    continue  # never answer on the first connection
                writer.write(render_http_response(200, b'{"values":[42]}'))
                await writer.drain()

        server = await asyncio.start_server(
            handler, host="127.0.0.1", port=0)
        port = server.sockets[0].getsockname()[1]
        client = AsyncServeClient(port=port, timeout_s=0.1)
        try:
            with pytest.raises(asyncio.TimeoutError):
                await client.lookup([1])
            assert client._writer is None  # connection was dropped
            assert await client.lookup([1]) == [42]
            assert len(connections) == 2  # ...and a fresh one opened
        finally:
            await client.close()
            server.close()
            await server.wait_closed()

    asyncio.run(scenario())


def test_server_rejects_unknown_paths_and_methods():
    async def scenario(server, table):
        async with AsyncServeClient(port=server.port) as client:
            with pytest.raises(ServeError) as info:
                await client._request("GET", "/nope")
            assert info.value.status == 404
            with pytest.raises(ServeError) as info:
                await client._request("GET", "/v1/lookup")
            assert info.value.status == 405

    run_with_server(scenario)


def test_server_thread_with_sync_client():
    """The synchronous operator path: ServerThread + ServeClient."""
    table = make_table()
    with ServerThread(table, ServeConfig()) as handle:
        with ServeClient(port=handle.port) as client:
            assert client.insert([("k", 4)]) == 1
            assert client.lookup(["k"]) == [4]
            with pytest.raises(DuplicateKey):
                client.insert([("k", 5)])
            health = client.health()
            assert health["keys"] == 1
            samples = parse_prometheus_text(client.metrics_text())
            assert samples["repro_serve_requests_total"] >= 4.0
    # after stop() the port no longer answers
    with pytest.raises((ConnectionError, OSError)):
        with ServeClient(port=handle.port, timeout_s=0.5) as client:
            client.lookup([1])


def test_serve_module_exports_match_api_doc():
    """Every public symbol the package advertises imports from the top."""
    import repro.serve as serve

    for name in serve.__all__:
        assert getattr(serve, name) is not None


# ---------------------------------------------------------------------------
# Loop-lag monitoring: the runtime counterpart of the R6xx static rules
# ---------------------------------------------------------------------------


def test_loop_lag_monitor_samples_and_detects_stalls():
    """The sentinel sees a deliberate blocking sleep as one large sample."""
    import time

    from repro.obs import LoopLagMonitor

    async def scenario():
        registry = MetricsRegistry()
        monitor = LoopLagMonitor(registry, interval_s=0.002)
        monitor.start()
        assert monitor.running
        await asyncio.sleep(0.03)
        healthy = monitor.samples
        assert healthy > 0
        assert monitor.p99_s() < 0.1  # idle loop: lag is scheduling noise
        time.sleep(0.05)  # block the loop on purpose
        await asyncio.sleep(0.01)  # let the late sentinel fire
        buckets = monitor.histogram
        assert buckets.count > healthy
        # the stall shows up: max observed lag is at least ~the sleep
        assert buckets.sum >= 0.04
        await monitor.stop()
        assert not monitor.running

    asyncio.run(scenario())


def test_loop_lag_monitor_rejects_bad_interval():
    from repro.obs import LoopLagMonitor

    with pytest.raises(ValueError):
        LoopLagMonitor(MetricsRegistry(), interval_s=0.0)
    with pytest.raises(ValueError):
        ServeConfig(loop_lag_interval_ms=-1.0)


def test_server_loop_lag_p99_under_budget_during_batched_crud():
    """E2E runtime assertion: batch execution never blocks the loop
    beyond budget, and the histogram is exported on every surface."""
    registry = MetricsRegistry()
    config = ServeConfig(loop_lag_interval_ms=2.0)

    async def scenario(server, table):
        assert server.loop_lag.running
        async with AsyncServeClient(port=server.port) as client:
            pairs = [(f"k{i}", i % 256) for i in range(512)]
            for start in range(0, 512, 128):
                await client.insert(pairs[start:start + 128])
            assert await client.lookup(
                [f"k{i}" for i in range(512)]
            ) == [i % 256 for i in range(512)]
            await client.update([("k0", 9), ("k1", 8)])
            await client.delete([f"k{i}" for i in range(256, 512)])
            await asyncio.sleep(0.03)  # guarantee sentinel wakeups
            assert server.loop_lag.samples > 0
            # generous CI budget: the point is "no multi-hundred-ms
            # stall", not a latency SLO
            assert server.loop_lag.p99_s() < 0.25
            stats = await client.stats()
            lag = stats["serve"]["loop_lag"]
            assert lag["samples"] >= 1 and lag["p99_s"] < 0.25
            metrics = parse_prometheus_text(await client.metrics_text())
            assert metrics["repro_serve_loop_lag_seconds_count"] >= 1

    run_with_server(scenario, config=config, registry=registry)
    # after stop() the monitor task is gone but the histogram survives
    histogram = registry.get("repro_serve_loop_lag_seconds")
    assert histogram is not None and histogram.count > 0


def test_server_loop_lag_disabled_keeps_schema():
    """interval 0 disables sampling; the histogram still registers so
    dashboards keep a stable schema."""
    config = ServeConfig(loop_lag_interval_ms=0.0)

    async def scenario(server, table):
        assert not server.loop_lag.running
        async with AsyncServeClient(port=server.port) as client:
            await client.insert([("a", 1)])
            stats = await client.stats()
            assert stats["serve"]["loop_lag"] == {}
            metrics = parse_prometheus_text(await client.metrics_text())
            assert metrics["repro_serve_loop_lag_seconds_count"] == 0

    run_with_server(scenario, config=config)
