"""Multi-process serving: per-core workers over shared plane storage.

One asyncio event loop tops out far below what the planes can deliver
(BENCH_serve.json vs BENCH_engine.json), so :class:`WorkerPool` runs N
worker processes, each hosting the existing
:class:`~repro.serve.server.TableServer` loop:

- **Lookups never leave the worker.** The owner process promotes the
  table's plane block into one shared-memory segment
  (:func:`~repro.core.shared_planes.share_table`); each worker attaches a
  reader-role :class:`~repro.core.shared_planes.SharedPlanes` and answers
  ``/v1/lookup`` with the owner table's own one-pass read
  (:meth:`~repro.core.sharded.BlockReader.lookup`: route, hash, one
  gather + XOR), inside one seqlock read so a concurrent owner write is
  retried, never torn.
- **Writes route to the single owner.** Workers forward each write —
  a served request is one ``insert_batch``/``update_batch``/
  ``delete_batch`` — as one RPC over a per-worker pipe; the owner service
  thread applies it to the real table — whose plane mutations now land in
  the shared segment — inside one seqlock transaction, then republishes every
  shard's seed and key count in the same bracket (readers pick up
  reconstruction reseeds from the segment header).
- **Accepting scales with the kernel.** Every worker listens on its own
  ``SO_REUSEPORT`` socket bound to one address (the kernel load-balances
  connections); platforms without ``SO_REUSEPORT`` fall back to one
  pre-fork listening socket shared by all workers.
- **Metrics stay whole.** ``/stats`` and ``/metrics`` on any worker fold
  in the other workers' registries (collected over the control pipes) and
  the owner table's stats, so one scrape sees the entire pool — the
  multi-process blind spot the single-process instruments had.

Lifecycle (synchronous, owner side)::

    pool = WorkerPool(table, workers=4)
    pool.start()                      # promote planes, fork, handshake
    ...                               # clients hit 127.0.0.1:pool.port
    pool.stop()                       # drain workers, demote planes

The pool uses the ``fork`` start method: workers inherit the listening
socket, their pipe ends, and the page mappings. ``stop()`` is graceful
(workers drain their batchers) with a terminate fallback, and always
demotes the table back to private storage.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import socket
import threading
import time
from multiprocessing import connection as mp_connection
from typing import Any, Dict, List, Optional, Tuple, cast

import numpy as np
import numpy.typing as npt

from repro.core.shared_planes import (
    SharedPlanes,
    SharedTableSpec,
    share_table,
    unshare_table,
    write_bracket,
)
from repro.core.sharded import BlockReader
from repro.core.stats import TableStats
from repro.hashing import key_to_u64
from repro.obs.exporters import json_snapshot, registry_from_snapshot
from repro.obs.registry import MetricsRegistry, aggregate
from repro.serve.config import ServeConfig
from repro.serve.server import TableServer
from repro.table import Key, ValueOnlyTable

__all__ = ["WorkerPool", "WorkerTable"]

#: Seconds the owner waits for each worker's ready handshake.
_READY_TIMEOUT_S = 30.0
#: Seconds a worker waits for the owner's reply to one write RPC.
_RPC_TIMEOUT_S = 30.0
#: Seconds the owner waits for one worker's metrics snapshot.
_SNAPSHOT_TIMEOUT_S = 2.0
#: Write operations the owner service accepts from workers.
_WRITE_OPS = frozenset({
    "insert", "insert_batch", "update", "update_batch", "delete",
    "delete_batch",
})


class WorkerTable(ValueOnlyTable):
    """Worker-process view of a pool-served table.

    Lookups run locally against a reader-role :class:`SharedPlanes` (the
    owning table's one-pass block read, under the seqlock read protocol);
    writes and membership checks forward to the owner process over the
    RPC pipe. Constructed inside worker processes by :class:`WorkerPool`
    — not part of the public construction surface.
    """

    name = "vision-worker"

    def __init__(
        self,
        spec: SharedTableSpec,
        rpc: mp_connection.Connection,
        rpc_timeout_s: float = _RPC_TIMEOUT_S,
    ) -> None:
        self._spec = spec
        self._rpc = rpc
        self._rpc_timeout_s = rpc_timeout_s
        # The server's event loop and the cluster-collect executor thread
        # both issue RPCs; the lock keeps each send/recv pair whole.
        self._rpc_lock = threading.Lock()
        self._planes = SharedPlanes.attach(spec.planes)
        self._reader = BlockReader(
            self._planes.width, self._planes.num_arrays, spec.shard_seed
        )
        # Number of the last RPC sent; the owner echoes it in the reply.
        self._rpc_seq = 0
        self._registry = MetricsRegistry()
        self._retries_counter = self._registry.counter(
            "repro_planes_generation_retries_total",
            "Shared-plane lookups retried because the generation moved",
            "",
        )
        self._retries_seen = 0

    # -- plumbing -----------------------------------------------------------

    def rpc_call(self, op: str, *args: Any) -> Any:
        """One owner round-trip; re-raises errors the owner sent back.

        Late replies to calls that already timed out carry an older
        sequence number and are discarded within the same deadline.
        """
        with self._rpc_lock:
            self._rpc_seq += 1
            seq = self._rpc_seq
            self._rpc.send((seq, op, *args))
            deadline = time.monotonic() + self._rpc_timeout_s
            while True:
                if not self._rpc.poll(max(0.0, deadline - time.monotonic())):
                    raise TimeoutError(
                        f"owner did not answer {op!r} within "
                        f"{self._rpc_timeout_s:.0f}s"
                    )
                reply_seq, status, payload = self._rpc.recv()
                if reply_seq == seq:
                    break
        if status == "err":
            raise payload
        return payload

    def _sync_retries(self) -> None:
        total = self._planes.retries
        if total > self._retries_seen:
            self._retries_counter.inc(total - self._retries_seen)
            self._retries_seen = total

    # -- reads (local, torn-free) -------------------------------------------

    # repro: raises(ValueError, TypeError)
    def lookup(self, key: Key) -> int:  # repro: hotpath
        """Three-read XOR lookup straight from the shared planes."""
        handle = np.array([key_to_u64(key)], dtype=np.uint64)
        return int(self.lookup_batch(handle)[0])

    def lookup_batch(  # repro: hotpath
        self, keys: npt.NDArray[np.uint64]
    ) -> npt.NDArray[np.uint64]:
        """Vectorised lookup: the owner's one-pass block read.

        The header seeds, the seed table they key, the routing, the
        hashing and the gather must all see the same generation — a
        reconstruction changes seeds *and* cells together — so the entire
        read sits inside one ``read_stable``.
        """
        planes = self._planes
        handles = np.asarray(keys, dtype=np.uint64)
        out = planes.read_stable(
            lambda: self._reader.lookup(planes.block, planes.seeds, handles)
        )
        self._sync_retries()
        return out

    def __len__(self) -> int:
        return sum(self._planes.lengths)

    def __contains__(self, key: Key) -> bool:
        return bool(self.rpc_call("contains", key))

    # -- writes (forwarded to the owner) ------------------------------------

    # repro: raises(DuplicateKey, ValueError, TypeError, UpdateFailure)
    # repro: raises(SpaceExhausted, ReconstructionFailed)
    def insert(self, key: Key, value: int) -> None:
        self.rpc_call("insert", key, value)

    # repro: raises(DuplicateKey, ValueError, TypeError, UpdateFailure)
    # repro: raises(SpaceExhausted, ReconstructionFailed)
    def insert_batch(self, keys: Any, values: Any) -> None:
        self.rpc_call("insert_batch", list(keys), list(values))

    # repro: raises(KeyNotFound, ValueError, TypeError, UpdateFailure)
    # repro: raises(SpaceExhausted, ReconstructionFailed)
    def update(self, key: Key, value: int) -> None:
        self.rpc_call("update", key, value)

    # repro: raises(KeyNotFound, ValueError, TypeError, UpdateFailure)
    # repro: raises(SpaceExhausted, ReconstructionFailed)
    def update_batch(self, keys: Any, values: Any) -> None:
        """One owner round-trip for a batch of updates, applied all or
        nothing by the owner's table."""
        self.rpc_call("update_batch", list(keys), list(values))

    # repro: raises(KeyNotFound, ValueError, TypeError)
    def delete(self, key: Key) -> None:
        self.rpc_call("delete", key)

    # repro: raises(KeyNotFound, ValueError, TypeError)
    def delete_batch(self, keys: Any) -> None:
        """One owner round-trip for a batch of deletes, applied all or
        nothing by the owner's table."""
        self.rpc_call("delete_batch", list(keys))

    # -- surface ------------------------------------------------------------

    @property
    def value_bits(self) -> int:
        return self._spec.value_bits

    @property
    def space_bits(self) -> int:
        return sum(planes.space_bits for planes in self._planes.shards())

    @property
    def stats(self) -> TableStats:
        """Worker-local instruments only (seqlock retries); the owner's
        table stats arrive via the pool's cluster merge."""
        self._sync_retries()
        return TableStats(registry=self._registry)

    def close(self) -> None:
        """Detach from the shared segment."""
        self._planes.close()


# ---------------------------------------------------------------------------
# Worker process entry points
# ---------------------------------------------------------------------------


def _worker_bind_socket(host: str, port: int) -> socket.socket:
    """Bind this worker's own SO_REUSEPORT accept socket."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        sock.bind((host, port))
    except BaseException:
        sock.close()
        raise
    return sock


def _worker_main(
    spec: SharedTableSpec,
    config: ServeConfig,
    host: str,
    port: int,
    rpc: mp_connection.Connection,
    ctrl: mp_connection.Connection,
    listener: Optional[socket.socket],
) -> None:
    """Worker process body: serve one TableServer over the shared planes."""
    table = WorkerTable(spec, rpc)
    if listener is None:
        sock = _worker_bind_socket(host, port)
    else:
        sock = listener
    try:
        asyncio.run(_worker_async_main(table, config, sock, ctrl))
    finally:
        sock.close()
        table.close()


async def _worker_async_main(
    table: WorkerTable,
    config: ServeConfig,
    sock: socket.socket,
    ctrl: mp_connection.Connection,
) -> None:
    loop = asyncio.get_running_loop()
    stop_event = asyncio.Event()
    server = TableServer(table, config)

    async def cluster_collect() -> List[MetricsRegistry]:
        def fetch() -> List[MetricsRegistry]:
            snapshots = table.rpc_call("collect")
            return [
                registry_from_snapshot(snapshot) for snapshot in snapshots
            ]

        return await loop.run_in_executor(None, fetch)

    server.cluster_collect = cluster_collect
    await server.start(sock=sock)

    def ctrl_loop() -> None:
        # Owner-facing control plane, off the event loop so a busy worker
        # still answers snapshot requests and stop orders promptly.
        while True:
            try:
                message = ctrl.recv()
            except (EOFError, OSError):
                loop.call_soon_threadsafe(stop_event.set)
                return
            if message[0] == "stop":
                loop.call_soon_threadsafe(stop_event.set)
                return
            if message[0] == "snapshot":
                merged = aggregate([server.registry, table.stats.registry])
                try:
                    ctrl.send(("snapshot", json_snapshot(merged)))
                except (OSError, BrokenPipeError):
                    loop.call_soon_threadsafe(stop_event.set)
                    return

    control_thread = threading.Thread(
        target=ctrl_loop, name="repro-pool-ctrl", daemon=True
    )
    control_thread.start()
    ctrl.send(("ready", os.getpid(), server.port))
    await stop_event.wait()
    await server.stop()


# ---------------------------------------------------------------------------
# Owner side
# ---------------------------------------------------------------------------


class WorkerPool:
    """Owner-process front: fork N workers, own the table's write path.

    Parameters
    ----------
    table:
        The table to serve — a
        :class:`~repro.core.sharded.ShardedEmbedder` or a single
        :class:`~repro.core.embedder.VisionEmbedder`. ``start()``
        promotes its planes into shared memory; the pool is the table's
        single writer until ``stop()`` demotes it back.
    workers:
        Worker-process count (each runs one TableServer event loop).
    config:
        Per-worker :class:`ServeConfig`. ``config.port=0`` picks a free
        port once; every worker accepts on the same address.
    force_inherited_socket:
        Test hook: use the pre-fork shared-listener fallback even where
        ``SO_REUSEPORT`` is available.
    """

    def __init__(
        self,
        table: Any,
        workers: int = 2,
        config: Optional[ServeConfig] = None,
        *,
        force_inherited_socket: bool = False,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.table = table
        self.workers = workers
        self.config = config if config is not None else ServeConfig()
        self._force_inherited = force_inherited_socket
        self.socket_mode = "unstarted"
        self._spec: Optional[SharedTableSpec] = None
        self._port: Optional[int] = None
        self._probe: Optional[socket.socket] = None
        self._listener: Optional[socket.socket] = None
        self._processes: List[Any] = []
        self._rpc_conns: List[mp_connection.Connection] = []
        self._ctrl_conns: List[mp_connection.Connection] = []
        self._ctrl_lock = threading.Lock()
        self._service_thread: Optional[threading.Thread] = None
        self._service_stop = threading.Event()
        self._started = False

    # -- lifecycle ----------------------------------------------------------

    @property
    def port(self) -> int:
        if self._port is None:
            raise RuntimeError("pool not started")
        return self._port

    @property
    def spec(self) -> SharedTableSpec:
        if self._spec is None:
            raise RuntimeError("pool not started")
        return self._spec

    def start(self) -> "WorkerPool":
        """Promote the planes, fork the workers, wait for every ready."""
        if self._started:
            raise RuntimeError("pool already started")
        ctx = multiprocessing.get_context("fork")
        self._spec = share_table(self.table)
        try:
            self._bind_sockets()
            self._spawn_workers(ctx)
            self._await_ready()
        except BaseException:
            self._teardown(graceful=False)
            raise
        self._service_stop.clear()
        self._service_thread = threading.Thread(
            target=self._service_loop, name="repro-pool-owner", daemon=True
        )
        self._service_thread.start()
        self._started = True
        return self

    def _bind_sockets(self) -> None:
        host, port = self.config.host, self.config.port
        use_reuseport = (
            hasattr(socket, "SO_REUSEPORT") and not self._force_inherited
        )
        if use_reuseport:
            # A bound, *non-listening* socket reserves the port for the
            # pool's lifetime without joining the accept group — workers
            # bind their own listening SO_REUSEPORT sockets to it and the
            # kernel balances connections across them.
            probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            try:
                probe.setsockopt(
                    socket.SOL_SOCKET, socket.SO_REUSEADDR, 1
                )
                probe.setsockopt(
                    socket.SOL_SOCKET, socket.SO_REUSEPORT, 1
                )
                probe.bind((host, port))
            except BaseException:
                probe.close()
                raise
            self._probe = probe
            self._port = int(probe.getsockname()[1])
            self.socket_mode = "reuseport"
        else:
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            try:
                listener.setsockopt(
                    socket.SOL_SOCKET, socket.SO_REUSEADDR, 1
                )
                listener.bind((host, port))
                listener.listen(1024)
            except BaseException:
                listener.close()
                raise
            self._listener = listener
            self._port = int(listener.getsockname()[1])
            self.socket_mode = "inherited"

    def _spawn_workers(self, ctx: Any) -> None:
        if self._spec is None or self._port is None:
            raise RuntimeError("_spawn_workers before share/bind")
        for _ in range(self.workers):
            parent_rpc, child_rpc = ctx.Pipe(duplex=True)
            parent_ctrl, child_ctrl = ctx.Pipe(duplex=True)
            process = ctx.Process(
                target=_worker_main,
                args=(
                    self._spec, self.config, self.config.host, self._port,
                    child_rpc, child_ctrl, self._listener,
                ),
                daemon=True,
            )
            process.start()
            child_rpc.close()
            child_ctrl.close()
            self._processes.append(process)
            self._rpc_conns.append(parent_rpc)
            self._ctrl_conns.append(parent_ctrl)

    def _await_ready(self) -> None:
        for index, ctrl in enumerate(self._ctrl_conns):
            if not ctrl.poll(_READY_TIMEOUT_S):
                raise RuntimeError(
                    f"worker {index} did not report ready within "
                    f"{_READY_TIMEOUT_S:.0f}s"
                )
            message = ctrl.recv()
            if message[0] != "ready":
                raise RuntimeError(
                    f"worker {index} sent {message[0]!r} instead of ready"
                )

    def stop(self) -> None:
        """Graceful shutdown: drain workers, reap, demote the planes."""
        if not self._started and self._spec is None:
            return
        self._teardown(graceful=True)
        self._started = False

    def _teardown(self, graceful: bool) -> None:
        with self._ctrl_lock:
            for ctrl in self._ctrl_conns:
                try:
                    ctrl.send(("stop",))
                except (OSError, BrokenPipeError):
                    pass
        join_timeout = (
            self.config.drain_timeout_s + 10.0 if graceful else 2.0
        )
        for process in self._processes:
            process.join(timeout=join_timeout)
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)
        self._service_stop.set()
        if self._service_thread is not None:
            self._service_thread.join(timeout=5.0)
            self._service_thread = None
        for conn in self._rpc_conns + self._ctrl_conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
        self._rpc_conns.clear()
        self._ctrl_conns.clear()
        self._processes.clear()
        if self._probe is not None:
            self._probe.close()
            self._probe = None
        if self._listener is not None:
            self._listener.close()
            self._listener = None
        if self._spec is not None:
            unshare_table(self.table)
            self._spec = None
        self._port = None
        self.socket_mode = "unstarted"

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()

    # -- owner write service ------------------------------------------------

    def _service_loop(self) -> None:
        """Serve worker RPCs until stop: the table's single write path."""
        while not self._service_stop.is_set():
            live = [conn for conn in self._rpc_conns if not conn.closed]
            if not live:
                return
            ready = mp_connection.wait(live, timeout=0.1)
            for waited in ready:
                conn = cast(mp_connection.Connection, waited)
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    # Worker died; its pipe stays out of future waits.
                    try:
                        conn.close()
                    except OSError:  # pragma: no cover
                        pass
                    continue
                sender = self._rpc_conns.index(conn)
                seq, request = message[0], message[1:]
                try:
                    result = self._handle_rpc(request, sender)
                except Exception as exc:  # noqa: BLE001 - travels to worker
                    reply: Tuple[int, str, Any] = (seq, "err", exc)
                else:
                    reply = (seq, "ok", result)
                try:
                    conn.send(reply)
                except (OSError, BrokenPipeError):  # pragma: no cover
                    pass

    def _handle_rpc(self, message: Tuple[Any, ...], sender: int) -> Any:
        op = message[0]
        if op in _WRITE_OPS:
            return self._apply_write(op, message[1:])
        if op == "contains":
            return message[1] in self.table
        if op == "len":
            return len(self.table)
        if op == "collect":
            return self._collect_snapshots(exclude=sender)
        raise ValueError(f"unknown pool RPC {op!r}")

    def _apply_write(self, op: str, args: Tuple[Any, ...]) -> None:
        """Apply one worker write under one seqlock transaction.

        One RPC is one table call: a batch op is the table's own
        all-or-nothing batch method. The bracket spans the whole logical
        operation (a repair walk XORs several cells, an undo writes them
        back; readers must see none or all of them) and the header
        republish of every shard's seed and key count, so a reader's
        stable view always pairs consistent seeds, lengths, and cells.
        """
        with write_bracket(self.table):
            if op == "insert":
                self.table.insert(*args)
            elif op == "insert_batch":
                self.table.insert_batch(*args)
            elif op == "update":
                self.table.update(*args)
            elif op == "update_batch":
                self.table.update_batch(*args)
            elif op == "delete":
                self.table.delete(*args)
            else:
                self.table.delete_batch(*args)

    def _collect_snapshots(self, exclude: int) -> List[Dict[str, Any]]:
        """The *other* workers' metrics snapshots plus the owner table's.

        Runs on the service thread in response to worker ``exclude``'s
        ``collect`` RPC (that worker merges its own registries itself —
        shipping them back would double-count); the other workers answer
        from their control threads, so nobody waits on a busy event loop.
        Workers that fail to answer within the timeout are skipped — a
        scrape during a worker crash degrades to partial totals instead
        of failing.
        """
        snapshots: List[Dict[str, Any]] = [
            json_snapshot(self.table.stats.registry)
        ]
        with self._ctrl_lock:
            pending: List[mp_connection.Connection] = []
            for index, ctrl in enumerate(self._ctrl_conns):
                if index == exclude:
                    continue
                try:
                    ctrl.send(("snapshot",))
                    pending.append(ctrl)
                except (OSError, BrokenPipeError):
                    continue
            for ctrl in pending:
                if not ctrl.poll(_SNAPSHOT_TIMEOUT_S):
                    continue
                try:
                    message = ctrl.recv()
                except (EOFError, OSError):
                    continue
                if message[0] == "snapshot":
                    snapshots.append(message[1])
        return snapshots
