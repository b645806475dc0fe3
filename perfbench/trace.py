"""Spans around calls into the program's modules, and the per-layer metrics.

:func:`install` replaces functions and methods of the ``repro`` package
with wrappers that record one span per call: ``(id, parent, name, start,
end, request, keys, extra)``. Spans stay in memory and are written out
when the process ends (:meth:`Recorder.flush`). The parent is the span
that was open in the same thread or asyncio task; the request id is set
when the server reads a request, so the spans of one request share it,
and each batch span lists the requests it served.

Nothing inside the program changes: the wrappers sit at module
boundaries, so an untraced run executes exactly the shipped code.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import itertools
import json
import os
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

from perfbench.common import GcPauses, median, now, pause_ms_per_s, quantile

_SPAN = contextvars.ContextVar("perfbench_span", default=0)
_REQUEST = contextvars.ContextVar("perfbench_request", default=0)

# Field positions in a span record.
ID, PARENT, NAME, START, END, REQ, KEYS, EXTRA = range(8)

DECODE = ("protocol.json_body", "protocol.parse_keys", "protocol.parse_pairs")
ENCODE = ("protocol.dump_json", "protocol.render_http_response")
WRITE_RPCS = ("insert", "insert_batch", "update", "update_batch", "delete")


def _size(value: Any) -> int:
    try:
        return len(value)
    except TypeError:
        return 0


class Recorder:
    """The spans and GC pauses of one process."""

    def __init__(self, role: str, out_dir: Optional[str] = None) -> None:
        self.role = role
        self.out_dir = out_dir
        self.spans: List[list] = []
        self.ids = itertools.count(1)
        self.gc = GcPauses()
        self.requests = itertools.count(1)
        #: Wrap targets the program no longer has (reported, not fatal).
        self.missing: List[str] = []

    def reset_after_fork(self) -> None:
        self.role = "worker"
        self.spans = []
        self.gc.pauses = []

    def dump(self) -> Dict[str, Any]:
        return {"pid": os.getpid(), "role": self.role, "spans": self.spans,
                "gc": self.gc.pauses}

    def flush(self) -> None:
        if self.out_dir is None:
            return
        path = os.path.join(self.out_dir, f"spans-{os.getpid()}.json")
        with open(path + ".tmp", "w") as handle:
            json.dump(self.dump(), handle)
        os.replace(path + ".tmp", path)

    def record(self, span_id: int, parent: int, name: str, started: float,
               keys: int = 0, extra: Any = None) -> None:
        self.spans.append([span_id, parent, name, started, now(),
                           _REQUEST.get(), keys, extra])

    def timed(self, name: str, fn: Callable[..., Any],
              keys: Optional[Callable[..., int]] = None,
              extra: Optional[Callable[..., Any]] = None,
              root: bool = False) -> Callable[..., Any]:
        """``fn`` recording one span per call. ``keys(*args)`` gives the
        span's key count and ``extra(*args)`` an attribute; a call that
        raises stores the exception's type name as ``extra``. A ``root``
        span has no parent and no request: batch execution runs in a task
        whose context was copied from whichever request started it."""

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            span_id = next(self.ids)
            parent = 0 if root else _SPAN.get()
            span_token = _SPAN.set(span_id)
            request_token = _REQUEST.set(0) if root else None
            attribute = extra(*args) if extra is not None else None
            started = now()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                attribute = type(exc).__name__
                raise
            finally:
                ended = now()
                _SPAN.reset(span_token)
                request = _REQUEST.get()
                if request_token is not None:
                    _REQUEST.reset(request_token)
                self.spans.append([
                    span_id, parent, name, started, ended, request,
                    keys(*args) if keys is not None else 0, attribute,
                ])

        return wrapper


def _patch(owner: Any, attr: str, make: Callable[[Any], Any]) -> bool:
    """Replace ``owner.attr`` with ``make(original)``; False if absent."""
    original = getattr(owner, attr, None)
    if original is None:
        return False
    setattr(owner, attr, make(original))
    return True


def install(role: str, out_dir: Optional[str] = None) -> Recorder:
    """Wrap the program's layer boundaries; returns the process recorder.

    Must run before the server or table is built. Forked children reset
    their recorder, and pool workers flush it when their main returns.
    """
    import repro.hashing
    import repro.hashing.family as family
    import repro.core.embedder as embedder
    import repro.core.engine as engine
    import repro.core.persist as persist
    import repro.core.sharded as sharded
    import repro.core.shared_planes as shared_planes
    import repro.core.update as update
    import repro.core.value_table as value_table
    import repro.serve.batcher as batcher
    import repro.serve.pool as pool
    import repro.serve.server as server

    rec = Recorder(role, out_dir)

    def patch(owner: Any, attr: str, name: str, **kw: Any) -> None:
        if not _patch(owner, attr, lambda fn: rec.timed(name, fn, **kw)):
            rec.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")

    first = lambda *a: _size(a[0])  # noqa: E731 - key count of arg 0
    second = lambda *a: _size(a[1])  # noqa: E731 - key count of arg 1

    # Wire protocol, as the server module calls it.
    for attr in ("json_body", "parse_keys", "parse_pairs", "dump_json",
                 "render_http_response"):
        patch(server, attr, f"protocol.{attr}")
    # Key canonicalisation, under every name it is called by.
    canon = rec.timed("hashing.keys_to_u64_batch",
                      family.keys_to_u64_batch, keys=first)
    for owner in (repro.hashing, family, sharded, embedder):
        if hasattr(owner, "keys_to_u64_batch"):
            owner.keys_to_u64_batch = canon
    patch(family.HashFamily, "indices_batch", "hashing.indices_batch",
          keys=second)
    route = rec.timed("sharded.route_handles", sharded.route_handles,
                      keys=first)
    sharded.route_handles = route
    if hasattr(pool, "route_handles"):
        pool.route_handles = route
    # Tables: the sharded/worker front, the per-shard embedder, the planes.
    patch(sharded.ShardedEmbedder, "lookup_batch", "table.lookup_batch",
          keys=second)
    patch(pool.WorkerTable, "lookup_batch", "table.lookup_batch", keys=second)
    for attr in ("insert", "insert_batch", "update", "delete"):
        patch(sharded.ShardedEmbedder, attr, "sharded.write")
    patch(sharded.ShardedEmbedder, "bulk_load", "sharded.bulk_load")
    patch(embedder.VisionEmbedder, "lookup_batch", "embedder.lookup_batch",
          keys=second)
    for attr in ("insert", "update", "delete"):
        patch(embedder.VisionEmbedder, attr, "embedder.write")
    patch(embedder.VisionEmbedder, "insert_batch", "embedder.insert_batch",
          keys=second)
    patch(engine.ScalarEngine, "insert_batch", "engine.insert_batch",
          keys=lambda *a: _size(a[2]))
    patch(embedder, "search_update_path", "update.search_update_path")
    patch(update, "find_update_path", "update.find_update_path")
    # SharedPlanes.gather_xor delegates to the ValueTable over the shared
    # buffer inside a seqlock read; timing that inner call keeps the
    # seqlock wait (read_stable below) out of the gather time.
    patch(value_table.ValueTable, "gather_xor", "value_table.gather_xor",
          keys=lambda *a: int(a[1].shape[1]))
    _patch(shared_planes.SharedPlanes, "read_stable",
           lambda fn: _read_stable(rec, fn))
    _patch(shared_planes.SharedPlanes, "transaction",
           lambda fn: _transaction(rec, fn))
    patch(persist, "load_sharded", "persist.load_sharded")
    # Serving: batcher wait and the batch handler, pool RPCs and start-up.
    _patch(server, "read_http_request", lambda fn: _read_request(rec, fn))
    _patch(batcher.MicroBatcher, "submit", lambda fn: _submit(fn))
    _patch(batcher.MicroBatcher, "__init__",
           lambda fn: _batcher_init(rec, fn))
    patch(pool.WorkerTable, "rpc_call", "pool.rpc_call",
          extra=lambda *a: a[1])
    patch(pool.WorkerPool, "start", "pool.start")
    _patch(pool, "_worker_main", lambda fn: _worker_main(rec, fn))

    rec.gc.install()
    os.register_at_fork(after_in_child=rec.reset_after_fork)
    return rec


def _read_stable(rec: Recorder, fn: Callable[..., Any]) -> Callable[..., Any]:
    """Seqlock read: the span's extra is the last computation's duration,
    so span minus extra is the time spent waiting and retrying."""

    def read_stable(self: Any, compute: Callable[[], Any]) -> Any:
        last = 0.0

        def timed_compute() -> Any:
            nonlocal last
            started = now()
            try:
                return compute()
            finally:
                last = now() - started

        span_id = next(rec.ids)
        parent = _SPAN.get()
        token = _SPAN.set(span_id)
        started = now()
        try:
            return fn(self, timed_compute)
        finally:
            _SPAN.reset(token)
            rec.record(span_id, parent, "shared_planes.read_stable",
                       started, extra=last)

    return read_stable


def _transaction(rec: Recorder, fn: Callable[..., Any]) -> Callable[..., Any]:
    @contextlib.contextmanager
    def transaction(self: Any) -> Any:
        span_id = next(rec.ids)
        parent = _SPAN.get()
        token = _SPAN.set(span_id)
        started = now()
        try:
            with fn(self) as planes:
                yield planes
        finally:
            _SPAN.reset(token)
            rec.record(span_id, parent, "shared_planes.transaction", started)

    return transaction


def _read_request(rec: Recorder, fn: Callable[..., Any]) -> Callable[..., Any]:
    """Each request read on a connection task starts a new request id."""

    async def read_http_request(*args: Any, **kwargs: Any) -> Any:
        request = await fn(*args, **kwargs)
        _REQUEST.set(next(rec.requests) if request is not None else 0)
        return request

    return read_http_request


def _submit(fn: Callable[..., Any]) -> Callable[..., Any]:
    """Stamp each queued operation with its request id and queue time."""

    async def submit(self: Any, op: Any) -> Any:
        op.perfbench_queued = (_REQUEST.get(), now())
        return await fn(self, op)

    return submit


def _batcher_init(rec: Recorder, fn: Callable[..., Any]) -> Callable[..., Any]:
    """Wrap the batch handler a MicroBatcher is built with."""

    def init(self: Any, handler: Callable[..., Any], *args: Any,
             **kwargs: Any) -> None:
        traced = rec.timed(
            "serve.batch", handler, root=True,
            keys=lambda batch: sum(op.cost for op in batch),
            extra=lambda batch: [
                getattr(op, "perfbench_queued", (0, 0.0)) for op in batch
            ],
        )
        fn(self, traced, *args, **kwargs)

    return init


def _worker_main(rec: Recorder, fn: Callable[..., Any]) -> Callable[..., Any]:
    def worker_main(*args: Any, **kwargs: Any) -> Any:
        try:
            return fn(*args, **kwargs)
        finally:
            rec.flush()

    return worker_main


def load_dumps(out_dir: str) -> List[Dict[str, Any]]:
    """Every span file written under ``out_dir``."""
    dumps = []
    for name in sorted(os.listdir(out_dir)):
        if name.startswith("spans-") and name.endswith(".json"):
            with open(os.path.join(out_dir, name)) as handle:
                dumps.append(json.load(handle))
    return dumps


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------


def self_times(spans: Sequence[Sequence[Any]]) -> Dict[int, float]:
    """Span id -> its duration minus the part its children cover.

    Children are clipped to the parent's interval and overlapping children
    count once, so the result never goes below zero.
    """
    children: Dict[int, List[Sequence[Any]]] = {}
    for span in spans:
        children.setdefault(span[PARENT], []).append(span)
    result: Dict[int, float] = {}
    for span in spans:
        start, end = span[START], span[END]
        covered = 0.0
        cursor = start
        for child in sorted(children.get(span[ID], ()), key=lambda s: s[START]):
            lo = max(child[START], cursor)
            hi = min(child[END], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span[ID]] = (end - start) - covered
    return result


class Process:
    """One process's spans, indexed for the metric queries below."""

    def __init__(self, dump: Dict[str, Any],
                 windows: Sequence[Sequence[float]]) -> None:
        self.pid = dump["pid"]
        self.role = dump["role"]
        self.gc = dump["gc"]
        self.all = dump["spans"]
        self.spans = [s for s in self.all
                      if any(lo <= s[START] <= hi for lo, hi in windows)]
        self.by_id = {s[ID]: s for s in self.all}
        self.kids: Dict[int, List[Sequence[Any]]] = {}
        for span in self.spans:
            self.kids.setdefault(span[PARENT], []).append(span)
        self._self: Optional[Dict[int, float]] = None

    def named(self, *names: str) -> List[Sequence[Any]]:
        return [s for s in self.spans if s[NAME] in names]

    def children(self, span: Sequence[Any]) -> List[Sequence[Any]]:
        return self.kids.get(span[ID], [])

    def outermost(self, name: str) -> List[Sequence[Any]]:
        """Spans named ``name`` with no ancestor of the same name."""
        out = []
        for span in self.named(name):
            parent = self.by_id.get(span[PARENT])
            while parent is not None and parent[NAME] != name:
                parent = self.by_id.get(parent[PARENT])
            if parent is None:
                out.append(span)
        return out

    def self_time(self, span: Sequence[Any]) -> float:
        if self._self is None:
            self._self = self_times(self.spans)
        return self._self[span[ID]]


def _dur(span: Sequence[Any]) -> float:
    return span[END] - span[START]


def _per_key(spans: Iterable[Sequence[Any]], scale: float,
             time_of: Callable[[Sequence[Any]], float] = _dur) -> float:
    spans = list(spans)
    keys = sum(s[KEYS] for s in spans)
    return scale * sum(time_of(s) for s in spans) / keys if keys else 0.0


def layer_metrics(dumps: Sequence[Dict[str, Any]],
                  windows: Sequence[Sequence[float]],
                  client: Dict[str, float],
                  counts: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metric values (BENCHMARK.json ``per_layer`` names).

    ``windows`` are the timed phases on the shared monotonic clock; span
    metrics cover calls that start inside one of them, while the set-up
    metrics take the median over every set-up traced. ``client`` holds the
    load generator's totals (``requests``, ``write_requests``, ``keys``,
    ``bytes``) and ``counts`` the ratios taken from the program's own
    counters over the windows (``keys_per_batch``, ``retries_per_kread``,
    ``repair_steps_per_update``, ``cost_cache_hit_rate``,
    ``reconstructions``). A layer that did no work reads 0.
    """
    procs = [Process(dump, windows) for dump in dumps]

    def spans(*names: str, roles: Optional[Sequence[str]] = None) -> list:
        return [(p, s) for p in procs
                if roles is None or p.role in roles
                for s in p.named(*names)]

    def outer(name: str) -> list:
        return [(p, s) for p in procs for s in p.outermost(name)]

    def setup_median(name: str) -> float:
        return median([_dur(s) for p in procs for s in p.all
                       if s[NAME] == name])

    requests = client.get("requests", 0)
    write_requests = client.get("write_requests", 0)

    def per_request(names: Sequence[str]) -> float:
        total = sum(_dur(s) for _, s in spans(*names))
        return 1e6 * total / requests if requests else 0.0

    tables = spans("table.lookup_batch")
    route_total = 0.0
    shard_calls = 0
    for proc, table_span in tables:
        route_total += proc.self_time(table_span)
        for child in proc.children(table_span):
            if child[NAME] == "sharded.route_handles":
                route_total += _dur(child)
            else:
                shard_calls += 1
    table_keys = sum(s[KEYS] for _, s in tables)

    batches = spans("serve.batch")
    waits = [1e3 * (s[START] - queued_at)
             for _, s in batches for _, queued_at in s[EXTRA]]
    reads = outer("shared_planes.read_stable")
    inserts = spans("embedder.insert_batch")
    walks = spans("update.find_update_path")
    rpcs = spans("pool.rpc_call")

    def insert_self(item: Any) -> float:
        proc, span = item
        engine = sum(_dur(c) for c in proc.children(span)
                     if c[NAME] == "engine.insert_batch")
        return _dur(span) - engine

    timed = sum(hi - lo for lo, hi in windows)

    def gc_rate(proc: Process) -> float:
        return sum(pause_ms_per_s(proc.gc, lo, hi) * (hi - lo)
                   for lo, hi in windows) / timed

    return {
        "serve.protocol.decode_us_per_req": per_request(DECODE),
        "serve.protocol.encode_us_per_req": per_request(ENCODE),
        "serve.protocol.bytes_per_key":
            client["bytes"] / client["keys"] if client.get("keys") else 0.0,
        "hashing.canon_ns_per_key": _per_key(
            (s for _, s in spans("hashing.keys_to_u64_batch")), 1e9),
        "hashing.index_ns_per_key": _per_key(
            (s for _, s in spans("hashing.indices_batch")), 1e9),
        "core.sharded.route_ns_per_key":
            1e9 * route_total / table_keys if table_keys else 0.0,
        "core.sharded.shard_calls_per_req":
            shard_calls / len(tables) if tables else 0.0,
        "core.value_table.gather_ns_per_key": _per_key(
            (s for _, s in spans("value_table.gather_xor")), 1e9),
        "serve.batcher.wait_ms_p50": quantile(waits, 0.5),
        "serve.batcher.keys_per_batch": counts.get("keys_per_batch", 0.0),
        "serve.server.exec_us_per_key": (
            1e6 * sum(p.self_time(s) for p, s in batches)
            / max(1, sum(s[KEYS] for _, s in batches))),
        "serve.pool.rpc_us_p50": 1e6 * quantile([_dur(s) for _, s in rpcs],
                                                0.5),
        "serve.pool.rpcs_per_write_req": (
            sum(1 for _, s in rpcs if s[EXTRA] in WRITE_RPCS)
            / write_requests if write_requests else 0.0),
        "serve.pool.owner_write_ms_p50": 1e3 * quantile(
            [_dur(s) for _, s in spans("sharded.write", roles=("server",))],
            0.5),
        "core.shared_planes.txn_hold_ms_p50": 1e3 * quantile(
            [_dur(s) for _, s in outer("shared_planes.transaction")], 0.5),
        "core.shared_planes.read_wait_us_p50": 1e6 * quantile(
            [_dur(s) - s[EXTRA] for _, s in reads], 0.5),
        "core.shared_planes.retries_per_kread":
            counts.get("retries_per_kread", 0.0),
        "core.embedder.insert_batch_self_ms_p50": 1e3 * quantile(
            [insert_self(item) for item in inserts], 0.5),
        "core.engine.walk_us_per_key": _per_key(
            (s for _, s in spans("engine.insert_batch")), 1e6),
        "core.embedder.write_us_p50": 1e6 * quantile(
            [_dur(s) for _, s in spans("embedder.write")], 0.5),
        "core.update.search_us_p50": 1e6 * quantile(
            [_dur(s) for _, s in spans("update.search_update_path")], 0.5),
        "core.update.repair_steps_per_update":
            counts.get("repair_steps_per_update", 0.0),
        "core.update.walk_fail_ratio": (
            sum(1 for _, s in walks if s[EXTRA] is not None) / len(walks)
            if walks else 0.0),
        "core.update.cost_cache_hit_rate":
            counts.get("cost_cache_hit_rate", 0.0),
        "core.embedder.reconstructions": counts.get("reconstructions", 0.0),
        "core.embedder.bulk_load_s": setup_median("sharded.bulk_load"),
        "core.persist.load_s": setup_median("persist.load_sharded"),
        "serve.pool.start_s": setup_median("pool.start"),
        "runtime.gc_ms_per_s": max([gc_rate(p) for p in procs] or [0.0]),
    }


#: Units of the per-layer metrics, in BENCHMARK.json order.
LAYER_UNITS = {
    "serve.protocol.decode_us_per_req": "us",
    "serve.protocol.encode_us_per_req": "us",
    "serve.protocol.bytes_per_key": "bytes",
    "hashing.canon_ns_per_key": "ns",
    "hashing.index_ns_per_key": "ns",
    "core.sharded.route_ns_per_key": "ns",
    "core.sharded.shard_calls_per_req": "count",
    "core.value_table.gather_ns_per_key": "ns",
    "serve.batcher.wait_ms_p50": "ms",
    "serve.batcher.keys_per_batch": "count",
    "serve.server.exec_us_per_key": "us",
    "serve.pool.rpc_us_p50": "us",
    "serve.pool.rpcs_per_write_req": "count",
    "serve.pool.owner_write_ms_p50": "ms",
    "core.shared_planes.txn_hold_ms_p50": "ms",
    "core.shared_planes.read_wait_us_p50": "us",
    "core.shared_planes.retries_per_kread": "count",
    "core.embedder.insert_batch_self_ms_p50": "ms",
    "core.engine.walk_us_per_key": "us",
    "core.embedder.write_us_p50": "us",
    "core.update.search_us_p50": "us",
    "core.update.repair_steps_per_update": "count",
    "core.update.walk_fail_ratio": "count",
    "core.update.cost_cache_hit_rate": "count",
    "core.embedder.reconstructions": "count",
    "core.embedder.bulk_load_s": "s",
    "core.persist.load_s": "s",
    "serve.pool.start_s": "s",
    "runtime.gc_ms_per_s": "ms/s",
}
