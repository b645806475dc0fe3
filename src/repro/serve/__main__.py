"""Standalone server process: ``python -m repro.serve``.

Builds a table (empty, or restored from an ``.npz`` snapshot), serves it
until SIGINT/SIGTERM, then drains gracefully. docs/serving.md walks
through a deployment, including the Prometheus scrape config for
``/metrics``.

Examples::

    python -m repro.serve --capacity 1000000 --value-bits 16 --port 8321
    python -m repro.serve --load table.npz --shards 8 --max-batch 2048
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import signal
import sys
import threading
from typing import List, Optional

from repro.core.sharded import ShardedEmbedder
from repro.serve.config import ServeConfig
from repro.serve.pool import WorkerPool
from repro.serve.server import TableServer
from repro.table import ValueOnlyTable


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description=(
            "Serve a VisionEmbedder table over HTTP/JSON with "
            "micro-batching (docs/serving.md)."
        ),
    )
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=8321,
                        help="bind port, 0 for ephemeral (default 8321)")
    parser.add_argument("--capacity", type=int, default=1_000_000,
                        help="table capacity in pairs (default 1000000)")
    parser.add_argument("--value-bits", type=int, default=16,
                        help="L, the value width in bits (default 16)")
    parser.add_argument("--shards", type=int, default=8,
                        help="shard count, 1 disables sharding (default 8)")
    parser.add_argument("--seed", type=int, default=1,
                        help="master hash seed (default 1)")
    parser.add_argument("--load", metavar="NPZ", default=None,
                        help="restore a save_sharded/save_embedder snapshot "
                             "instead of starting empty")
    parser.add_argument("--max-batch", type=int, default=1024,
                        help="the most key-ops one flush takes "
                             "(default 1024)")
    parser.add_argument("--max-queue", type=int, default=8192,
                        help="shed (429) beyond this many queued key-ops "
                             "(default 8192)")
    parser.add_argument("--no-batching", action="store_true",
                        help="serve every request as its own table call")
    parser.add_argument("--loop-lag-ms", type=float, default=5.0,
                        help="event-loop lag sampling interval in ms, "
                             "0 disables the monitor (default 5.0)")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes; >1 serves lookups from "
                             "shared-memory planes across per-core "
                             "TableServer processes (default 1)")
    return parser


def _make_table(args: argparse.Namespace) -> ValueOnlyTable:
    if args.load is not None:
        from repro.core.persist import load_embedder, load_sharded

        try:
            table: ValueOnlyTable = load_sharded(args.load)
        except (KeyError, ValueError):
            table = load_embedder(args.load)
            print(f"restored scalar snapshot from {args.load} "
                  f"(keys={len(table)})")
        else:
            shards = getattr(table, "num_shards", 1)
            print(f"restored sharded snapshot from {args.load} "
                  f"(shards={shards}, keys={len(table)})")
        return table
    return ShardedEmbedder(
        capacity=args.capacity, value_bits=args.value_bits,
        num_shards=args.shards, seed=args.seed,
    )


async def _serve(table: ValueOnlyTable, config: ServeConfig) -> None:
    server = TableServer(table, config)
    await server.start()
    print(f"repro.serve listening on http://{config.host}:{server.port} "
          f"(keys={len(table)}, max_batch={config.max_batch}, "
          f"max_queue={config.max_queue})")
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        with contextlib.suppress(NotImplementedError):
            loop.add_signal_handler(signum, stop.set)
    await stop.wait()
    print("draining...")
    await server.stop()
    print("bye")


def _serve_pool(table: ValueOnlyTable, config: ServeConfig,
                workers: int) -> None:
    pool = WorkerPool(table, workers=workers, config=config)
    pool.start()
    print(f"repro.serve pool listening on "
          f"http://{config.host}:{pool.port} (workers={workers}, "
          f"socket={pool.socket_mode}, keys={len(table)})")
    stop = threading.Event()

    def _on_signal(signum: int, frame: object) -> None:
        stop.set()

    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, _on_signal)
    try:
        stop.wait()
        print("draining...")
    finally:
        pool.stop()
    print("bye")


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    config = ServeConfig(
        host=args.host, port=args.port, max_batch=args.max_batch,
        max_queue=args.max_queue, loop_lag_interval_ms=args.loop_lag_ms,
    )
    if args.no_batching:
        config = config.unbatched()
    if args.workers < 1:
        raise SystemExit("--workers must be >= 1")
    table = _make_table(args)
    try:
        if args.workers > 1:
            _serve_pool(table, config, args.workers)
        else:
            asyncio.run(_serve(table, config))
    except KeyboardInterrupt:  # pragma: no cover - signal-handler race
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
