"""The asyncio serving front: HTTP/JSON in, vectorised table calls out.

:class:`TableServer` owns one table (any :class:`~repro.table.ValueOnlyTable`
— typically a :class:`~repro.core.sharded.ShardedEmbedder`) and one
:class:`~repro.serve.batcher.MicroBatcher`. Request handling is a pipeline:

1. A connection task parses one HTTP/JSON request (keep-alive, pipelined
   requests served in order) and submits its operations to the batcher.
2. The batcher's flush loop takes whatever requests queued while the
   previous batch ran — up to ``max_batch`` key-ops — as one batch and
   hands it to :meth:`TableServer._execute_batch`.
3. The executor walks the batch **in arrival order**, coalescing each
   consecutive run of same-kind operations into one vectorised table call
   (lookups concatenate into a single ``lookup_many``; inserts, updates
   and deletes into one ``insert_batch``/``update_batch``/
   ``delete_batch``), then scatters results back to the per-request
   futures.

Because the whole pipeline runs on one event loop, the batcher's flush
loop is the table's single writer — no locks, and safe in front of the
non-thread-safe ``VisionEmbedder``/``ShardedEmbedder``.

Failure isolation: every write request is all or nothing. A coalesced
write run first tries one merged ``<kind>_batch`` call — but only when
the table provides one, because its all-or-nothing contract is what
makes the fallback sound: a rejected merged call (duplicate key, absent
key, bad value) applied nothing, so the run re-executes request by
request and only the offending request fails (HTTP 409/404/400/...),
exactly as if it had been served alone.
:class:`~repro.core.errors.SpaceExhausted` and
:class:`~repro.core.errors.ReconstructionFailed` also apply nothing (the
batch rolls itself back), but the merged call is *not* re-executed —
per-request retries would mostly hit the same wall while repeating the
walk work — so every coalesced request gets the 507 directly and may
safely retry once capacity is freed. A table without the batch method
of a kind writes that kind per key with no rollback, so its requests of
that kind are never coalesced.

Operational surface: ``/healthz``, ``/stats`` (JSON metrics snapshot +
latency percentiles), ``/metrics`` (Prometheus text), graceful
``stop()`` that stops accepting, drains queued batches, answers in-flight
requests, then closes connections. docs/serving.md is the operator guide.
"""

from __future__ import annotations

import asyncio
import socket
import threading
from typing import (
    Any,
    Awaitable,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.errors import (
    ReconstructionFailed,
    ReproError,
    SpaceExhausted,
)
from repro.obs.exporters import json_snapshot, prometheus_text
from repro.obs.looplag import LoopLagMonitor
from repro.obs.registry import (
    BATCH_SIZE_BUCKETS,
    LATENCY_SECONDS_BUCKETS,
    Histogram,
    MetricsRegistry,
    aggregate,
)
from repro.serve.batcher import BatchOp, MicroBatcher, Overloaded
from repro.serve.config import ServeConfig
from repro.serve.protocol import (
    ProtocolError,
    ServeError,
    dump_json,
    error_response,
    json_body,
    parse_keys,
    parse_pairs,
    read_http_request,
    render_http_response,
)
from repro.table import ValueOnlyTable

__all__ = ["ServerThread", "TableServer"]

#: Endpoints that go through the batcher, and their batch-op kind.
_BATCHED_ENDPOINTS = {
    "/v1/lookup": "lookup",
    "/v1/insert": "insert",
    "/v1/update": "update",
    "/v1/delete": "delete",
}

#: Response-body key per write kind (lookup answers with ``values``).
_RESULT_KEYS = {"insert": "inserted", "update": "updated",
                "delete": "deleted"}


class TableServer:
    """Async HTTP/JSON front over one value-only table.

    Create on (or before) a running event loop, then ``await start()``.
    ``registry`` defaults to a fresh :class:`MetricsRegistry`; pass one to
    co-locate the serve instruments with other metrics. The table must
    only ever be touched through this server once serving starts — the
    event loop is the serialisation point.
    """

    def __init__(
        self,
        table: ValueOnlyTable,
        config: Optional[ServeConfig] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.table = table
        # A write kind's batch method, when the table has one, is the
        # licence to merge requests: it applies all or nothing (see
        # _run_writes). Absent it, that kind runs per request, per key.
        self._batch_writers: Dict[str, Optional[Callable[..., Any]]] = {
            kind: getattr(table, f"{kind}_batch", None)
            for kind in _RESULT_KEYS
        }
        # Multi-process hook (see repro.serve.pool): when set, /stats and
        # /metrics await it for the *other* processes' registries and fold
        # them into the merged view, so one scrape covers the whole pool.
        self.cluster_collect: Optional[
            Callable[[], Awaitable[List[MetricsRegistry]]]
        ] = None
        self.config = config if config is not None else ServeConfig()
        self.registry = registry if registry is not None else MetricsRegistry()
        self._batcher = MicroBatcher(
            self._execute_batch,
            max_batch=self.config.max_batch,
            max_queue=self.config.max_queue,
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._conn_tasks: "set[asyncio.Task[None]]" = set()
        self._writers: "set[asyncio.StreamWriter]" = set()
        self._draining = False
        self._inflight = 0

        reg = self.registry
        self._queue_depth = reg.gauge(
            "repro_serve_queue_depth",
            "Key-operations queued in the micro-batcher", "")
        self._batch_size = reg.histogram(
            "repro_serve_batch_size", BATCH_SIZE_BUCKETS,
            "Key-operations per flushed micro-batch", "")
        self._latency = reg.histogram(
            "repro_serve_latency_seconds", LATENCY_SECONDS_BUCKETS,
            "Request latency, read-complete to response-written", "seconds")
        self._shed = reg.counter(
            "repro_serve_shed_total",
            "Requests rejected by admission control (HTTP 429)", "")
        self._requests = reg.counter(
            "repro_serve_requests_total", "HTTP requests served", "")
        self._keys = reg.counter(
            "repro_serve_keys_total",
            "Key-operations submitted to the batcher (served or shed)", "")
        self._batches = reg.counter(
            "repro_serve_batches_total", "Micro-batches flushed", "")
        self._errors = reg.counter(
            "repro_serve_errors_total",
            "Requests answered with an error status", "")
        self._connections = reg.gauge(
            "repro_serve_connections", "Open client connections", "")
        self._endpoint_latency: Dict[str, Histogram] = {
            kind: reg.histogram(
                f"repro_serve_{kind}_latency_seconds",
                LATENCY_SECONDS_BUCKETS,
                f"/v1/{kind} request latency", "seconds")
            for kind in ("lookup", "insert", "update", "delete")
        }
        # The dynamic counterpart of the R6xx static rules: a sentinel
        # timer whose measured lateness is everything that blocked the
        # loop. Constructed eagerly so the histogram registers (and the
        # export schema stays stable) even when the config disables
        # sampling with loop_lag_interval_ms=0.
        lag_ms = self.config.loop_lag_interval_ms
        self._lag_enabled = lag_ms > 0
        self.loop_lag = LoopLagMonitor(
            reg, interval_s=(lag_ms if lag_ms > 0 else 5.0) / 1000.0
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` to the real one)."""
        if self._server is None:
            raise RuntimeError("server not started")
        sockets = self._server.sockets
        return int(sockets[0].getsockname()[1])

    @property
    def draining(self) -> bool:
        return self._draining

    async def start(self, sock: Optional[socket.socket] = None) -> None:
        """Bind and start accepting connections.

        With ``sock`` the server accepts on that already-bound socket
        instead of binding ``config.host:config.port`` itself — the
        worker-pool front passes each worker its own ``SO_REUSEPORT``
        socket (or one shared pre-fork listener) this way.
        """
        if self._server is not None:
            raise RuntimeError("server already started")
        if sock is not None:
            self._server = await asyncio.start_server(
                self._on_connection, sock=sock
            )
        else:
            self._server = await asyncio.start_server(
                self._on_connection,
                host=self.config.host, port=self.config.port,
            )
        if self._lag_enabled:
            self.loop_lag.start()

    async def stop(self) -> None:
        """Graceful shutdown: stop accepting, drain, answer, disconnect.

        Order matters: the listener closes first (no new connections),
        then the batcher drains — every queued operation executes and its
        request gets a real response; operations arriving *during* the
        drain get HTTP 503 — and only then are the connection tasks
        cancelled and sockets closed.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self._batcher.close(timeout_s=self.config.drain_timeout_s)
        # Let in-flight handlers write their responses before the sockets
        # go away (bounded — a stuck peer cannot hold shutdown hostage).
        loop = asyncio.get_running_loop()
        deadline = loop.time() + max(self.config.drain_timeout_s, 0.1)
        while self._inflight and loop.time() < deadline:
            await asyncio.sleep(0.005)
        for task in list(self._conn_tasks):
            task.cancel()
        for task in list(self._conn_tasks):
            try:
                await task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001  # repro: noqa[R805] -- shutdown teardown: handlers already answered or were cancelled; nothing left to route
                pass
        for writer in list(self._writers):
            writer.close()
        self._conn_tasks.clear()
        self._writers.clear()
        # Last: the drain above is exactly the kind of window the lag
        # monitor exists to observe.
        await self.loop_lag.stop()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        self._writers.add(writer)
        self._connections.set(len(self._writers))
        try:
            await self._serve_connection(reader, writer)
        except (asyncio.CancelledError, ConnectionError):
            pass
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            self._writers.discard(writer)
            self._connections.set(len(self._writers))
            writer.close()

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        loop = asyncio.get_running_loop()
        while True:
            try:
                request = await read_http_request(
                    reader, self.config.max_body_bytes
                )
            except ProtocolError as exc:
                # Framing is broken; answer if possible, then hang up.
                status, payload = error_response(exc)
                writer.write(render_http_response(
                    status, dump_json(payload), keep_alive=False))
                await writer.drain()
                return
            if request is None:
                return
            method, path, headers, raw_body = request
            started = loop.time()
            self._inflight += 1
            try:
                status, body, content_type = await self._dispatch(
                    method, path, raw_body
                )
                keep_alive = headers.get("connection", "").lower() != "close"
                writer.write(render_http_response(
                    status, body, content_type=content_type,
                    keep_alive=keep_alive,
                ))
                await writer.drain()
            finally:
                self._inflight -= 1
            elapsed = loop.time() - started
            self._requests.inc()
            self._latency.observe(elapsed)
            kind = _BATCHED_ENDPOINTS.get(path)
            if kind is not None:
                self._endpoint_latency[kind].observe(elapsed)
            if status >= 400:
                self._errors.inc()
            if not keep_alive:
                return

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    async def _dispatch(
        self, method: str, path: str, raw_body: bytes
    ) -> Tuple[int, bytes, str]:
        """Route one request; returns ``(status, body, content_type)``."""
        try:
            kind = _BATCHED_ENDPOINTS.get(path)
            if kind is not None:
                if method != "POST":
                    raise ServeError(f"{path} requires POST", status=405,
                                     code="method_not_allowed")
                return await self._dispatch_batched(kind, raw_body)
            if path == "/healthz":
                return self._ok(self._health_payload())
            if path == "/stats":
                extra = await self._cluster_registries()
                return self._ok(self._stats_payload(extra))
            if path == "/metrics":
                extra = await self._cluster_registries()
                text = prometheus_text(self._merged_registry(extra))
                return 200, text.encode("utf-8"), "text/plain; version=0.0.4"
            raise ServeError(f"no such endpoint {path!r}", status=404,
                             code="not_found")
        except Exception as exc:  # noqa: BLE001 - every error becomes a status
            status, payload = error_response(exc)
            if isinstance(exc, Overloaded):
                self._shed.inc()
            return status, dump_json(payload), "application/json"

    async def _dispatch_batched(
        self, kind: str, raw_body: bytes
    ) -> Tuple[int, bytes, str]:
        body = json_body(raw_body)
        if kind in ("lookup", "delete"):
            op = BatchOp(kind, parse_keys(body))
        else:
            keys, values = parse_pairs(body)
            op = BatchOp(kind, keys, values)
        if self._draining:
            raise ServeError("server is shutting down", status=503,
                             code="shutting_down")
        self._keys.inc(op.cost)
        result = await self._batcher.submit(op)
        self._queue_depth.set(self._batcher.depth)
        if kind == "lookup":
            return self._ok({"values": result})
        return self._ok({_RESULT_KEYS[kind]: result})

    @staticmethod
    def _ok(payload: Dict[str, Any]) -> Tuple[int, bytes, str]:
        return 200, dump_json(payload), "application/json"

    # ------------------------------------------------------------------
    # Batch execution (the batcher's handler — event-loop inline)
    # ------------------------------------------------------------------

    def _execute_batch(self, batch: List[BatchOp]) -> List[Any]:
        """Run one micro-batch in arrival order, coalescing same-kind runs."""
        self._batches.inc()
        self._batch_size.observe(sum(op.cost for op in batch))
        self._queue_depth.set(self._batcher.depth)
        results: List[Any] = []
        index = 0
        while index < len(batch):
            run_end = index + 1
            while (run_end < len(batch)
                   and batch[run_end].kind == batch[index].kind):
                run_end += 1
            run = batch[index:run_end]
            kind = batch[index].kind
            if kind == "lookup":
                results.extend(self._run_lookups(run))
            else:
                results.extend(self._run_writes(kind, run))
            index = run_end
        return results

    def _run_lookups(self, run: List[BatchOp]) -> List[Any]:
        """One fused ``lookup_many`` over the whole run, split per request."""
        merged: List[Any] = []
        for op in run:
            merged.extend(op.keys)
        values = self.table.lookup_many(merged).tolist()
        out: List[Any] = []
        offset = 0
        for op in run:
            out.append(values[offset:offset + op.cost])
            offset += op.cost
        return out

    def _run_writes(self, kind: str, run: List[BatchOp]) -> List[Any]:
        """One run of insert, update or delete requests: one merged
        ``<kind>_batch`` call, per-request fallback on rejection.

        The merged call is tried only when the table provides the batch
        method, whose contract is all-or-nothing for *every* failure —
        validation rejections and mid-batch ``SpaceExhausted`` alike leave
        the table as it was. A rejected merged call therefore applied
        nothing, and each request re-executes alone with only the
        offender failing. ``SpaceExhausted`` and ``ReconstructionFailed``
        are never blind-retried: the merged batch failing for space means
        per-request retries would mostly fail the same way while doing
        the walk work again, so every request of the run gets the 507
        directly (and, none of their keys applied, a client retry later
        is safe — no spurious ``DuplicateKey`` for half-landed keys).
        Tables without the batch method write per key with no rollback,
        so their requests are never merged in the first place.
        """
        batch_write = self._batch_writers[kind]
        if batch_write is not None and len(run) > 1:
            merged_keys: List[Any] = []
            merged_values: List[int] = []
            for op in run:
                merged_keys.extend(op.keys)
                merged_values.extend(op.values or ())
            try:
                if kind == "delete":
                    batch_write(merged_keys)
                else:
                    batch_write(merged_keys, merged_values)
                return [op.cost for op in run]
            except (SpaceExhausted, ReconstructionFailed) as exc:
                return [exc for _ in run]
            except (ReproError, ValueError):
                pass  # all-or-nothing rejection: isolate the offender below
        out: List[Any] = []
        for op in run:
            try:
                if batch_write is None:
                    self._write_per_key(kind, op)
                elif kind == "delete":
                    batch_write(list(op.keys))
                else:
                    batch_write(list(op.keys), list(op.values or ()))
                out.append(op.cost)
            except (ReproError, ValueError) as exc:
                out.append(exc)
        return out

    def _write_per_key(self, kind: str, op: BatchOp) -> None:
        """One request against a table with no batch method for ``kind``:
        scalar writes, stopping at the first failure."""
        if kind == "delete":
            for key in op.keys:
                self.table.delete(key)
        elif kind == "update":
            for key, value in zip(op.keys, op.values or ()):
                self.table.update(key, value)
        else:
            for key, value in zip(op.keys, op.values or ()):
                self.table.insert(key, value)

    # ------------------------------------------------------------------
    # Introspection payloads
    # ------------------------------------------------------------------

    async def _cluster_registries(self) -> List[MetricsRegistry]:
        """The other pool processes' registries (empty when standalone)."""
        if self.cluster_collect is None:
            return []
        return await self.cluster_collect()

    def _merged_registry(
        self, extra: Sequence[MetricsRegistry] = ()
    ) -> MetricsRegistry:
        return aggregate([self.registry, self.table.metrics, *extra])

    def _health_payload(self) -> Dict[str, Any]:
        return {
            "status": "draining" if self._draining else "ok",
            "keys": len(self.table),
            "queue_depth": self._batcher.depth,
            "connections": len(self._writers),
        }

    def _stats_payload(
        self, extra: Sequence[MetricsRegistry] = ()
    ) -> Dict[str, Any]:
        self._queue_depth.set(self._batcher.depth)
        snapshot = json_snapshot(self._merged_registry(extra))
        latency: Dict[str, float] = {}
        if self._latency.count:
            latency = {
                "p50_s": self._latency.quantile(0.50),
                "p99_s": self._latency.quantile(0.99),
            }
        loop_lag: Dict[str, float] = {}
        if self.loop_lag.samples:
            loop_lag = {
                "samples": float(self.loop_lag.samples),
                "p99_s": self.loop_lag.p99_s(),
            }
        snapshot["serve"] = {
            **self._health_payload(),
            "batches_flushed": self._batcher.batches_flushed,
            "ops_shed": self._batcher.ops_shed,
            "latency": latency,
            "loop_lag": loop_lag,
        }
        return snapshot


class ServerThread:
    """Run a :class:`TableServer` on a dedicated thread and event loop.

    The operator story for synchronous callers (and the sync
    :class:`~repro.serve.client.ServeClient`): the table is handed over to
    the server thread — do not touch it from the calling thread while the
    server runs. Usable as a context manager::

        with ServerThread(table) as handle:
            client = ServeClient(port=handle.port)
            ...
    """

    def __init__(
        self,
        table: ValueOnlyTable,
        config: Optional[ServeConfig] = None,
    ) -> None:
        self._table = table
        self._config = config if config is not None else ServeConfig()
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._port: Optional[int] = None
        self._startup_error: Optional[BaseException] = None
        self.server: Optional[TableServer] = None

    @property
    def port(self) -> int:
        if self._port is None:
            raise RuntimeError("server thread not started")
        return self._port

    def start(self) -> "ServerThread":
        if self._thread is not None:
            raise RuntimeError("server thread already started")
        self._thread = threading.Thread(
            target=self._main, name="repro-serve", daemon=True
        )
        self._thread.start()
        self._started.wait()
        if self._startup_error is not None:
            raise RuntimeError("server failed to start") \
                from self._startup_error
        return self

    def stop(self) -> None:
        """Request graceful shutdown and join the thread. Idempotent."""
        loop, stop_event = self._loop, self._stop_event
        if loop is not None and stop_event is not None \
                and not loop.is_closed():
            try:
                loop.call_soon_threadsafe(stop_event.set)
            except RuntimeError:  # pragma: no cover - loop already gone
                pass
        if self._thread is not None:
            self._thread.join(timeout=30)

    def _main(self) -> None:
        try:
            asyncio.run(self._serve())
        except BaseException as exc:  # noqa: BLE001 - surface via start()
            self._startup_error = exc
            self._started.set()

    async def _serve(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self.server = TableServer(self._table, self._config)
        await self.server.start()
        self._port = self.server.port
        self._started.set()
        await self._stop_event.wait()
        await self.server.stop()

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()
