"""repro.serve — the network serving layer.

An asyncio HTTP/JSON front (:class:`TableServer`) that funnels concurrent
client requests into the table's vectorised batch paths via
micro-batching: whatever operations queue while one batch executes —
up to ``max_batch`` key-ops — flush together as the next, and one fused
table call answers them all (:class:`MicroBatcher`). Admission control
sheds work beyond a bounded queue (HTTP 429, :class:`Overloaded`), and
graceful shutdown drains every accepted operation before disconnecting.

This is the ROADMAP's "millions of users" front: the table ops were
already fast *in batch*; this layer keeps them batched under concurrent
network load. docs/serving.md is the operations guide;
``benchmarks/bench_serve.py`` measures the batching win and gates p99
latency and served throughput in CI.

Quick start (async)::

    from repro import ShardedEmbedder
    from repro.serve import AsyncServeClient, TableServer

    table = ShardedEmbedder(capacity=100_000, value_bits=16)
    server = TableServer(table)          # ServeConfig() defaults
    await server.start()
    async with AsyncServeClient(port=server.port) as client:
        await client.insert([("alpha", 7)])
        assert await client.lookup(["alpha"]) == [7]
    await server.stop()                  # drains, then disconnects

Synchronous operators use :class:`ServerThread` + :class:`ServeClient`,
or ``python -m repro.serve`` for a standalone process.

One event loop is the front's scaling ceiling; :class:`WorkerPool` lifts
it by forking N per-core worker processes that answer lookups directly
from shared-memory planes (``--workers`` on the CLI, docs/serving.md
"Scaling out" for the operator story).
"""

from repro.serve.batcher import BatcherClosed, BatchOp, MicroBatcher, Overloaded
from repro.serve.client import AsyncServeClient, ServeClient
from repro.serve.config import ServeConfig
from repro.serve.pool import WorkerPool, WorkerTable
from repro.serve.protocol import ProtocolError, ServeError
from repro.serve.server import ServerThread, TableServer

__all__ = [
    "AsyncServeClient",
    "BatchOp",
    "BatcherClosed",
    "MicroBatcher",
    "Overloaded",
    "ProtocolError",
    "ServeClient",
    "ServeConfig",
    "ServeError",
    "ServerThread",
    "TableServer",
    "WorkerPool",
    "WorkerTable",
]
