#!/usr/bin/env python
"""Serving-layer benchmark: micro-batched vs unbatched request handling.

One asyncio event loop hosts a :class:`~repro.serve.TableServer` over a
pre-loaded :class:`~repro.core.sharded.ShardedEmbedder` plus a fleet of
closed-loop clients (each keeps exactly one request outstanding, so
concurrency equals the client count). Every request carries a handful of
keys and the mix is 90% lookups / 10% updates of resident keys, i.e. the
mixed concurrent read+write traffic the serving layer exists for.

Two legs run the identical workload:

- ``batched`` — the default :class:`~repro.serve.ServeConfig`: whatever
  requests queue while one batch executes (up to ``max_batch`` key-ops)
  flush together as the next, and one fused ``lookup_many``/batch-write
  pass answers the whole batch.
- ``unbatched`` — ``ServeConfig.unbatched()``: every request becomes its
  own table call; this is the per-request baseline the batching win is
  measured against.

Each leg records served throughput (key-ops/s across all clients) and
client-observed request latency percentiles (p50/p99 over the whole
run). ``--check`` gates the batched leg: p99 below a latency ceiling and
sustained throughput above a floor (relaxed in ``--smoke`` mode for CI).

With ``--workers N`` (the default, 4; ``--workers 0`` skips) two more
closed-loop legs run against a :class:`~repro.serve.WorkerPool` —
``workers1`` and ``workersN`` — the multi-process scale-out comparison:
same workload, same p99 budget, N per-core processes answering lookups
from shared-memory planes. The speedup gate adapts to the machine: on
≥4 usable cores the full gate demands ``workersN ≥ 2.5× workers1``; on
smaller runners it degrades to a pool-overhead floor and records which
mode judged the run (``workers_gate_mode`` in the JSON).

The final leg is **open-loop**: requests depart on a fixed arrival-rate
schedule regardless of completions, and each latency is measured from
the *intended* send time — so queueing delay that closed-loop clients
silently absorb (coordinated omission) is visible in the reported p99.

Results go to ``BENCH_serve.json``; ``--metrics-out BASE`` additionally
writes the server's metrics registry as ``BASE.metrics.json`` /
``BASE.metrics.prom`` sidecars, which ``--check`` then validates against
the client-side request count.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_serve.py [--smoke] [--check]
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import random
import sys
import time

if __package__ in (None, ""):  # script invocation: make src/ importable
    sys.path.insert(
        0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    )

from repro.core.sharded import ShardedEmbedder
from repro.obs import parse_prometheus_text, write_sidecar
from repro.serve import AsyncServeClient, ServeConfig, TableServer, WorkerPool

SEED = 7
VALUE_BITS = 16
WRITE_FRACTION = 0.1

#: Cores this process may actually run on — the honest parallelism
#: budget (cgroup/affinity aware, unlike ``os.cpu_count``).
CPU_CORES = len(os.sched_getaffinity(0))

#: Full-mode workers gate on a machine with enough cores to scale:
#: N per-core workers must deliver ≥ this × the single-worker pool's
#: throughput at the same p99 budget.
FULL_WORKERS_SPEEDUP = 2.5
#: Degraded-mode floor on small runners (nothing to parallelise onto):
#: the pool must not *cost* more than this fraction of one worker's
#: throughput — guards the RPC/seqlock overhead, not the scaling.
DEGRADED_WORKERS_FLOOR = 0.4
#: Degraded-mode p99 relaxation: N processes time-slicing one core queue
#: behind each other, so the equal-p99 budget only binds in full mode.
DEGRADED_P99_FACTOR = 3.0

#: Gates for the *batched* leg. Full mode asks for the serving target —
#: 50 kops sustained under concurrent mixed traffic (measured ~92 kops at
#: the 32-client default) — with a 40 ms p99 ceiling (measured ~24 ms);
#: smoke mode (small table, short run, shared CI runners) only guards
#: against order-of-magnitude regressions.
#: The loop-lag ceiling is the runtime face of the R601 static rule: a
#: batched drain that blocks the event loop shows up here long before it
#: shows up in client p99.
FULL_GATES = {"min_kops": 50.0, "max_p99_s": 0.040,
              "max_loop_lag_p99_s": 0.050, "max_open_loop_p99_s": 0.150}
SMOKE_GATES = {"min_kops": 10.0, "max_p99_s": 0.25,
               "max_loop_lag_p99_s": 0.25, "max_open_loop_p99_s": 0.75}


def make_table(n_keys: int) -> ShardedEmbedder:
    """A sharded table pre-loaded with ``n_keys`` resident pairs."""
    table = ShardedEmbedder(
        capacity=max(2 * n_keys, 1024), value_bits=VALUE_BITS,
        num_shards=4, seed=SEED,
    )
    rng = random.Random(SEED)
    keys = list(range(1, n_keys + 1))
    values = [rng.randrange(1 << VALUE_BITS) for _ in keys]
    table.insert_batch(keys, values)
    return table


def make_requests(
    n_keys: int, keys_per_request: int, seed: int, count: int,
) -> list:
    """Pre-generated request plan so the timed loop only does I/O.

    Each entry is ``("lookup", keys)`` or ``("update", pairs)``; the loop
    cycles through the plan if it outlasts ``count`` requests.
    """
    rng = random.Random(seed)
    plan = []
    for _ in range(count):
        keys = [rng.randrange(1, n_keys + 1) for _ in range(keys_per_request)]
        if rng.random() < WRITE_FRACTION:
            plan.append(("update", [
                (k, rng.randrange(1 << VALUE_BITS)) for k in keys]))
        else:
            plan.append(("lookup", keys))
    return plan


async def run_client(
    port: int, plan: list, keys_per_request: int, duration_s: float,
    latencies: list, counters: dict,
) -> None:
    """Closed loop: one outstanding request until the clock runs out."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + duration_s
    index = 0
    async with AsyncServeClient(port=port) as client:
        while loop.time() < deadline:
            kind, payload = plan[index % len(plan)]
            index += 1
            start = loop.time()
            if kind == "update":
                await client.update(payload)
            else:
                await client.lookup(payload)
            latencies.append(loop.time() - start)
            counters["requests"] += 1
            counters["keys"] += keys_per_request


async def run_leg(
    table: ShardedEmbedder, config: ServeConfig,
    clients: int, n_keys: int, keys_per_request: int, duration_s: float,
) -> tuple:
    """Serve one leg; returns ``(stats_dict, server_registry)``."""
    server = TableServer(table, config)
    await server.start()
    latencies: list = []
    counters = {"requests": 0, "keys": 0}
    plans = [
        make_requests(n_keys, keys_per_request, SEED + i, 512)
        for i in range(clients)
    ]
    start = time.perf_counter()
    try:
        await asyncio.gather(*[
            run_client(server.port, plans[i], keys_per_request, duration_s,
                       latencies, counters)
            for i in range(clients)
        ])
    finally:
        elapsed = time.perf_counter() - start
        await server.stop()
    latencies.sort()

    def pct(q: float) -> float:
        if not latencies:
            return 0.0
        return latencies[min(len(latencies) - 1, int(q * len(latencies)))]

    stats = {
        "requests": counters["requests"],
        "keys_served": counters["keys"],
        "seconds": round(elapsed, 3),
        "kops": round(counters["keys"] / elapsed / 1000, 2),
        "requests_per_s": round(counters["requests"] / elapsed, 1),
        "latency_p50_ms": round(pct(0.50) * 1000, 3),
        "latency_p99_ms": round(pct(0.99) * 1000, 3),
        "batches_flushed": server._batcher.batches_flushed,
        "mean_batch_keys": round(
            counters["keys"] / max(server._batcher.batches_flushed, 1), 1),
        # the LoopLagMonitor's histogram survives server.stop(): these are
        # the sentinel's own counts, the truth the sidecar must agree with
        "loop_lag_samples": server.loop_lag.samples,
        "loop_lag_p99_ms": round(server.loop_lag.p99_s() * 1000, 3),
    }
    return stats, server.registry


def _percentiles(latencies: list) -> tuple:
    """(p50, p99) seconds from an unsorted latency list."""
    if not latencies:
        return 0.0, 0.0
    ordered = sorted(latencies)

    def pct(q: float) -> float:
        return ordered[min(len(ordered) - 1, int(q * len(ordered)))]

    return pct(0.50), pct(0.99)


async def _drive_closed_loop(
    port: int, clients: int, n_keys: int, keys_per_request: int,
    duration_s: float,
) -> dict:
    """The closed-loop client fleet alone (server runs elsewhere)."""
    latencies: list = []
    counters = {"requests": 0, "keys": 0}
    plans = [
        make_requests(n_keys, keys_per_request, SEED + i, 512)
        for i in range(clients)
    ]
    start = time.perf_counter()
    await asyncio.gather(*[
        run_client(port, plans[i], keys_per_request, duration_s,
                   latencies, counters)
        for i in range(clients)
    ])
    elapsed = time.perf_counter() - start
    p50, p99 = _percentiles(latencies)
    return {
        "requests": counters["requests"],
        "keys_served": counters["keys"],
        "seconds": round(elapsed, 3),
        "kops": round(counters["keys"] / elapsed / 1000, 2),
        "requests_per_s": round(counters["requests"] / elapsed, 1),
        "latency_p50_ms": round(p50 * 1000, 3),
        "latency_p99_ms": round(p99 * 1000, 3),
    }


def run_pool_leg(
    table: ShardedEmbedder, config: ServeConfig, workers: int,
    clients: int, n_keys: int, keys_per_request: int, duration_s: float,
) -> dict:
    """One closed-loop leg against a ``workers``-process WorkerPool."""
    pool = WorkerPool(table, workers=workers, config=config)
    pool.start()
    try:
        stats = asyncio.run(_drive_closed_loop(
            pool.port, clients, n_keys, keys_per_request, duration_s))
        stats["workers"] = workers
        stats["socket_mode"] = pool.socket_mode
    finally:
        pool.stop()
    return stats


async def _drive_open_loop(
    port: int, rate_rps: float, duration_s: float, n_keys: int,
    keys_per_request: int, connections: int,
) -> dict:
    """Open loop: requests depart on schedule, not on completion.

    A fixed pool of persistent connections serves the in-flight requests;
    when every connection is busy the next departure *waits for one* —
    but its latency is still measured from the intended send time, so
    that queueing shows up in the percentiles instead of being silently
    omitted (the coordinated-omission correction).
    """
    loop = asyncio.get_running_loop()
    plan = make_requests(n_keys, keys_per_request, SEED + 991, 2048)
    free: asyncio.Queue = asyncio.Queue()
    opened = []
    for _ in range(connections):
        client = AsyncServeClient(port=port)
        await client.connect()
        opened.append(client)
        free.put_nowait(client)

    latencies: list = []       # from intended send time (reported)
    service_times: list = []   # from actual send (diagnostic)
    counters = {"requests": 0, "keys": 0, "errors": 0}

    async def fire(index: int, intended: float) -> None:
        client = await free.get()
        try:
            kind, payload = plan[index % len(plan)]
            sent = loop.time()
            try:
                if kind == "update":
                    await client.update(payload)
                else:
                    await client.lookup(payload)
            except Exception:  # noqa: BLE001 - overload shows as errors
                counters["errors"] += 1
                return
            done = loop.time()
            latencies.append(done - intended)
            service_times.append(done - sent)
            counters["requests"] += 1
            counters["keys"] += keys_per_request
        finally:
            free.put_nowait(client)

    total = int(rate_rps * duration_s)
    interval = 1.0 / rate_rps
    start = loop.time() + 0.05
    tasks = []
    try:
        for index in range(total):
            intended = start + index * interval
            delay = intended - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(asyncio.ensure_future(fire(index, intended)))
        await asyncio.gather(*tasks)
    finally:
        for client in opened:
            await client.close()
    elapsed = max(loop.time() - start, 1e-9)
    p50, p99 = _percentiles(latencies)
    sp50, sp99 = _percentiles(service_times)
    return {
        "arrival_rate_rps": rate_rps,
        "connections": connections,
        "requests": counters["requests"],
        "errors": counters["errors"],
        "keys_served": counters["keys"],
        "seconds": round(elapsed, 3),
        "kops": round(counters["keys"] / elapsed / 1000, 2),
        "latency_p50_ms": round(p50 * 1000, 3),
        "latency_p99_ms": round(p99 * 1000, 3),
        "service_p50_ms": round(sp50 * 1000, 3),
        "service_p99_ms": round(sp99 * 1000, 3),
    }


def run_open_loop_leg(
    table: ShardedEmbedder, config: ServeConfig, workers: int,
    rate_rps: float, duration_s: float, n_keys: int,
    keys_per_request: int, connections: int,
) -> dict:
    """Open-loop arrival schedule against the multi-worker pool."""
    pool = WorkerPool(table, workers=workers, config=config)
    pool.start()
    try:
        stats = asyncio.run(_drive_open_loop(
            pool.port, rate_rps, duration_s, n_keys, keys_per_request,
            connections))
        stats["workers"] = workers
        stats["socket_mode"] = pool.socket_mode
    finally:
        pool.stop()
    return stats


def check_sidecar(json_path: str, prom_path: str, requests: int,
                  lag_samples: int = -1) -> list:
    """Validate the serve-metrics sidecars against client-side truth.

    ``lag_samples`` is the LoopLagMonitor's live count recorded by the
    leg; the exported ``repro_serve_loop_lag_seconds`` histogram must
    agree in both sidecar formats (pass ``-1`` to skip the check)."""
    problems = []
    try:
        with open(json_path) as handle:
            snapshot = json.load(handle)
    except (OSError, ValueError) as exc:
        return [f"{json_path} unreadable: {exc}"]
    try:
        with open(prom_path) as handle:
            samples = parse_prometheus_text(handle.read())
    except (OSError, ValueError) as exc:
        return [f"{prom_path} unreadable: {exc}"]

    if snapshot.get("format") != "repro-metrics/1":
        problems.append(f"unexpected format marker {snapshot.get('format')!r}")
    batch = snapshot.get("histograms", {}).get("repro_serve_batch_size")
    if batch is None or batch["count"] == 0:
        problems.append("batch-size histogram missing or empty")
    served = snapshot.get("counters", {}).get(
        "repro_serve_requests_total", {}).get("value")
    if served != requests:
        problems.append(
            f"repro_serve_requests_total={served!r} but the clients "
            f"completed {requests} requests"
        )
    if samples.get("repro_serve_requests_total") != served:
        problems.append("prom/json request counts disagree")
    if lag_samples >= 0:
        lag = snapshot.get("histograms", {}).get(
            "repro_serve_loop_lag_seconds")
        if lag is None:
            problems.append("loop-lag histogram missing from json sidecar")
        elif lag["count"] != lag_samples:
            problems.append(
                f"loop-lag histogram count {lag['count']} but the monitor "
                f"observed {lag_samples} sentinel wakeups")
        prom_count = samples.get("repro_serve_loop_lag_seconds_count")
        if prom_count != lag_samples:
            problems.append(
                f"prom loop-lag count {prom_count!r} but the monitor "
                f"observed {lag_samples}")
    return problems


async def run_benchmark(args: argparse.Namespace) -> dict:
    n_keys = 5_000 if args.smoke else 50_000
    duration_s = 1.0 if args.smoke else 5.0
    table = make_table(n_keys)
    batched_config = ServeConfig(max_batch=args.max_batch)

    legs: dict = {}
    registries = {}
    for name, config in (
        ("unbatched", batched_config.unbatched()),
        ("batched", batched_config),
    ):
        legs[name], registries[name] = await run_leg(
            table, config, args.clients, n_keys, args.keys_per_request,
            duration_s)
        print(f"{name:>10}: {legs[name]['kops']:8.1f} kops  "
              f"p50={legs[name]['latency_p50_ms']:6.2f}ms  "
              f"p99={legs[name]['latency_p99_ms']:6.2f}ms  "
              f"mean_batch={legs[name]['mean_batch_keys']:.1f} keys  "
              f"loop_lag_p99={legs[name]['loop_lag_p99_ms']:.2f}ms")

    if args.metrics_out:
        json_path, prom_path = write_sidecar(
            registries["batched"], args.metrics_out)
        print(f"wrote {json_path} and {prom_path}")

    return {"legs": legs}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--clients", type=int, default=32,
                        help="concurrent closed-loop clients (default 32)")
    parser.add_argument("--keys-per-request", type=int, default=32,
                        help="keys per client request (default 32)")
    parser.add_argument("--max-batch", type=int, default=1024,
                        help="batched-leg flush size in key-ops "
                             "(default 1024)")
    parser.add_argument("--workers", type=int, default=4,
                        help="upper leg of the worker-pool sweep "
                             "(workers=1 vs workers=N); 0 skips the pool "
                             "and open-loop legs entirely (default 4)")
    parser.add_argument("--arrival-rate", type=float, default=None,
                        help="open-loop arrival rate in requests/s "
                             "(default: 400 smoke, 1000 full)")
    parser.add_argument("--open-loop-conns", type=int, default=64,
                        help="persistent connections serving the "
                             "open-loop schedule (default 64)")
    parser.add_argument("--smoke", action="store_true",
                        help="short CI mode (~5 s) with relaxed gates")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero when the batched leg misses "
                             "a gate")
    parser.add_argument("--out", default="BENCH_serve.json",
                        help="output path (default BENCH_serve.json)")
    parser.add_argument("--metrics-out", default=None, metavar="BASE",
                        help="also write the batched leg's server metrics "
                             "as BASE.metrics.{json,prom}")
    args = parser.parse_args(argv)

    gates = dict(SMOKE_GATES if args.smoke else FULL_GATES)
    print(f"serve benchmark: clients={args.clients} smoke={args.smoke} "
          f"keys/request={args.keys_per_request} "
          f"write_fraction={WRITE_FRACTION} cpu_cores={CPU_CORES} "
          f"workers={args.workers}")
    result = asyncio.run(run_benchmark(args))
    legs = result["legs"]

    n_keys = 5_000 if args.smoke else 50_000
    duration_s = 1.0 if args.smoke else 5.0
    workers_gate_mode = "skipped"
    workers_speedup = None
    if args.workers > 0:
        # The worker-pool sweep: same table, same closed-loop fleet and
        # p99 budget; only the process count changes. Full-scale gating
        # needs cores to scale onto — smaller runners judge overhead only.
        workers_gate_mode = (
            "full" if CPU_CORES >= 4 and args.workers >= 4 else "degraded"
        )
        table = make_table(n_keys)
        pool_config = ServeConfig(max_batch=args.max_batch)
        for count in (1, args.workers):
            name = f"workers{count}"
            if name in legs:
                continue
            legs[name] = run_pool_leg(
                table, pool_config, count, args.clients, n_keys,
                args.keys_per_request, duration_s)
            print(f"{name:>10}: {legs[name]['kops']:8.1f} kops  "
                  f"p50={legs[name]['latency_p50_ms']:6.2f}ms  "
                  f"p99={legs[name]['latency_p99_ms']:6.2f}ms  "
                  f"socket={legs[name]['socket_mode']}")
        workers_speedup = round(
            legs[f"workers{args.workers}"]["kops"]
            / max(legs["workers1"]["kops"], 0.001), 2)

        # Default full-mode arrival rate scales with the cores actually
        # available — open loop at a rate the machine cannot reach only
        # measures the queue, not the server.
        rate = args.arrival_rate or (
            400.0 if args.smoke else min(1000.0, 250.0 * CPU_CORES))
        legs["open_loop"] = run_open_loop_leg(
            table, pool_config, args.workers, rate, duration_s, n_keys,
            args.keys_per_request, args.open_loop_conns)
        print(f" open_loop: {legs['open_loop']['kops']:8.1f} kops  "
              f"rate={rate:.0f}rps  "
              f"p99={legs['open_loop']['latency_p99_ms']:6.2f}ms "
              f"(from intended send; service "
              f"p99={legs['open_loop']['service_p99_ms']:.2f}ms)  "
              f"errors={legs['open_loop']['errors']}")

    if workers_gate_mode == "full":
        gates["min_workers_speedup"] = FULL_WORKERS_SPEEDUP
        gates["max_workers_p99_s"] = gates["max_p99_s"]
    elif workers_gate_mode == "degraded":
        gates["min_workers_speedup"] = DEGRADED_WORKERS_FLOOR
        gates["max_workers_p99_s"] = round(
            gates["max_p99_s"] * DEGRADED_P99_FACTOR, 3)
        # Intended-send latency includes dispatcher scheduling slip,
        # which N processes time-slicing one core makes unavoidable.
        gates["max_open_loop_p99_s"] = round(
            gates["max_open_loop_p99_s"] * DEGRADED_P99_FACTOR, 3)

    report = {
        "benchmark": "bench_serve",
        "smoke": args.smoke,
        "clients": args.clients,
        "keys_per_request": args.keys_per_request,
        "write_fraction": WRITE_FRACTION,
        "seed": SEED,
        "cpu_cores": CPU_CORES,
        "workers": args.workers,
        "workers_gate_mode": workers_gate_mode,
        "workers_speedup": workers_speedup,
        "legs": legs,
        "gates": gates,
        "batching_speedup": round(
            legs["batched"]["kops"] / max(legs["unbatched"]["kops"], 0.001),
            2),
    }
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"batching speedup: {report['batching_speedup']}x  "
          f"(gates: {gates})")
    print(f"wrote {args.out}")

    if args.check:
        failures = []
        batched = legs["batched"]
        if batched["kops"] < gates["min_kops"]:
            failures.append(
                f"throughput {batched['kops']:.1f} kops < required "
                f"{gates['min_kops']:.1f} kops")
        if batched["latency_p99_ms"] / 1000 > gates["max_p99_s"]:
            failures.append(
                f"p99 {batched['latency_p99_ms']:.2f} ms > allowed "
                f"{gates['max_p99_s'] * 1000:.1f} ms")
        if batched["loop_lag_samples"] == 0:
            failures.append("loop-lag monitor recorded no samples")
        elif batched["loop_lag_p99_ms"] / 1000 > gates["max_loop_lag_p99_s"]:
            failures.append(
                f"loop-lag p99 {batched['loop_lag_p99_ms']:.2f} ms > "
                f"allowed {gates['max_loop_lag_p99_s'] * 1000:.1f} ms — "
                "something blocked the event loop")
        if args.workers > 0:
            # Equal p99 budget: the scaled pool must stay inside the
            # same ceiling the batched single process is held to.
            top = legs[f"workers{args.workers}"]
            if top["latency_p99_ms"] / 1000 > gates["max_workers_p99_s"]:
                failures.append(
                    f"workers{args.workers} p99 "
                    f"{top['latency_p99_ms']:.2f} ms > allowed "
                    f"{gates['max_workers_p99_s'] * 1000:.1f} ms "
                    f"({workers_gate_mode} gate)")
            floor = gates["min_workers_speedup"]
            if workers_speedup is not None and workers_speedup < floor:
                failures.append(
                    f"workers speedup {workers_speedup:.2f}x < required "
                    f"{floor:.2f}x ({workers_gate_mode} gate, "
                    f"{CPU_CORES} cores)")
            open_loop = legs["open_loop"]
            if open_loop["errors"]:
                failures.append(
                    f"open-loop leg saw {open_loop['errors']} errors")
            if (open_loop["latency_p99_ms"] / 1000
                    > gates["max_open_loop_p99_s"]):
                failures.append(
                    f"open-loop p99 {open_loop['latency_p99_ms']:.2f} ms "
                    f"(from intended send) > allowed "
                    f"{gates['max_open_loop_p99_s'] * 1000:.1f} ms")
        if args.metrics_out:
            base, _ = os.path.splitext(args.metrics_out)
            if not args.metrics_out.endswith((".json", ".csv", ".txt",
                                              ".prom")):
                base = args.metrics_out
            failures.extend(check_sidecar(
                base + ".metrics.json", base + ".metrics.prom",
                batched["requests"], batched["loop_lag_samples"]))
        if failures:
            for failure in failures:
                print(f"FAIL batched leg: {failure}", file=sys.stderr)
            return 1
        print("all serving gates met")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
