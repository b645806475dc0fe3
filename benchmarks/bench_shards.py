#!/usr/bin/env python
"""Sharded-embedder benchmark: shard count x build workers, plus lookups.

Sweeps :class:`repro.core.sharded.ShardedEmbedder` against the single
:class:`~repro.core.embedder.VisionEmbedder` at the same workload (uniform
random uint64 keys, 12-bit values, capacity == n):

- ``single_sequential_reference`` — per-key ``insert`` into one table
  with the minimal-bucket shortcut disabled: the
  unsharded, unbatched, unoptimised write path every speedup is
  measured against (the same leg, and the same gate framing, as
  ``bench_build_path``'s ``scalar_insert_reference``).
- ``single_sequential`` — per-key ``insert`` under the default
  configuration, for context.
- ``single_insert_many`` / ``single_bulk_load`` — the single-table
  batched and static paths, for context.
- ``sharded_s{S}_w{W}`` — the sharded dynamic build for each shard count
  S and worker count W in the sweep: one vectorised partition pass, then
  per-shard batched builds on a thread pool.
- ``sharded_s8_static`` — the sharded static build (per-shard peel).
- ``sharded_s8_w4_process`` — the process-pool build (guarded: recorded
  as informational, never gates, since spawning interpreters on a small
  CI box can cost more than it saves).
- ``lookup_single`` / ``lookup_sharded`` — full-batch ``lookup_batch``
  over all n keys, min of several repetitions (single-digit-ms legs need
  min-of-reps to survive shared-box noise).

On a one-core box the sharded build speedup is *algorithmic*, not
parallel: each shard's repair graph is ~n/S keys, so GetCost walks stay
shallow, and the slack head-room keeps per-shard occupancy below the
expensive deep-walk regime. Worker threads only overlap the numpy
segments under the GIL.

``BENCH_shards.json`` records every leg plus the derived gates:
``build_speedup`` (single_sequential_reference / sharded S=8 W=4, must
be >= 2.0 full, >= 1.0 smoke) and ``lookup_ratio`` (sharded / single batch lookup,
must be <= 1.3 full, <= 2.6 smoke — smoke legs are sub-millisecond and
noisy). ``--check`` exits non-zero when a gate fails.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_shards.py [--smoke] [--check]
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time

import numpy as np

if __package__ in (None, ""):  # script invocation: make src/ importable
    sys.path.insert(
        0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    )

from repro.core.config import EmbedderConfig
from repro.core.embedder import VisionEmbedder
from repro.core.sharded import ShardedEmbedder

SEED = 3
VALUE_BITS = 12

#: (name, minimum?) gates — build_speedup has a floor, lookup_ratio a cap.
FULL_THRESHOLDS = {"build_speedup": 2.0, "lookup_ratio": 1.3}
SMOKE_THRESHOLDS = {"build_speedup": 1.0, "lookup_ratio": 2.6}

FULL_SWEEP = {"shards": (1, 2, 4, 8, 16), "workers": (1, 4)}
SMOKE_SWEEP = {"shards": (1, 8), "workers": (1, 4)}

#: The gating sharded configuration (the acceptance criterion's S and W).
GATE_SHARDS = 8
GATE_WORKERS = 4

LOOKUP_REPS = 5


def make_workload(n: int):
    rng = np.random.default_rng(SEED)
    keys = rng.choice(
        np.arange(1, max(10 * n, 1 << 20), dtype=np.uint64),
        size=n, replace=False,
    )
    values = rng.integers(0, 1 << VALUE_BITS, size=n, dtype=np.uint64)
    return keys, values


def make_single(n: int, *, shortcut: bool = True) -> VisionEmbedder:
    table = VisionEmbedder(capacity=n, value_bits=VALUE_BITS, seed=SEED)
    if not shortcut:
        table._strategy.shortcut = False
    return table


def make_sharded(n: int, num_shards: int) -> ShardedEmbedder:
    return ShardedEmbedder(
        capacity=n, value_bits=VALUE_BITS, num_shards=num_shards, seed=SEED,
        config=EmbedderConfig(),
    )


def time_lookup(table, keys) -> float:
    """Min-of-reps full-batch lookup time (seconds)."""
    best = float("inf")
    for _ in range(LOOKUP_REPS):
        start = time.perf_counter()
        table.lookup_batch(keys)
        best = min(best, time.perf_counter() - start)
    return best


def run_legs(n: int, sweep: dict) -> dict:
    keys, values = make_workload(n)
    pairs = list(zip(keys.tolist(), values.tolist()))
    legs: dict = {}

    def record(name: str, seconds: float, extra: dict | None = None) -> None:
        legs[name] = {
            "seconds": round(seconds, 4),
            "kops": round(n / seconds / 1000, 2),
            **(extra or {}),
        }
        print(f"{name:>24}: {seconds:8.3f}s  ({legs[name]['kops']:8.1f} kops)")

    def verify(table) -> None:
        if not np.array_equal(table.lookup_batch(keys), values):
            raise SystemExit(f"lookup mismatch after building {table!r}")

    def release(table) -> None:
        # A built 100k-key table is a large live heap (the assistant
        # table's index); keeping one alive would skew every later leg's
        # allocation costs. Each leg therefore times its lookups
        # immediately and frees its table.
        del table
        gc.collect()

    # -- single-table baselines -----------------------------------------
    single = make_single(n, shortcut=False)
    start = time.perf_counter()
    for key, value in pairs:
        single.insert(key, value)
    record("single_sequential_reference", time.perf_counter() - start)
    verify(single)
    release(single)

    single = make_single(n)
    start = time.perf_counter()
    for key, value in pairs:
        single.insert(key, value)
    record("single_sequential", time.perf_counter() - start)
    verify(single)
    record("lookup_single", time_lookup(single, keys), {"reps": LOOKUP_REPS})
    release(single)

    table = make_single(n)
    start = time.perf_counter()
    table.insert_many(pairs)
    record("single_insert_many", time.perf_counter() - start)
    verify(table)
    release(table)

    table = make_single(n)
    start = time.perf_counter()
    table.bulk_load(pairs)
    record("single_bulk_load", time.perf_counter() - start)
    verify(table)
    release(table)

    # -- sharded dynamic sweep -------------------------------------------
    for num_shards in sweep["shards"]:
        for workers in sweep["workers"]:
            if num_shards == 1 and workers != 1:
                continue  # one shard has nothing to parallelise
            sharded = make_sharded(n, num_shards)
            start = time.perf_counter()
            sharded.build(pairs, workers=workers)
            seconds = time.perf_counter() - start
            rows = sharded.shard_stats()
            extra = {
                "shards": num_shards,
                "workers": workers,
                "shard_keys_min": min(row["keys"] for row in rows),
                "shard_keys_max": max(row["keys"] for row in rows),
                "space_efficiency_max": round(
                    max(row["space_efficiency"] for row in rows), 4),
                "reconstructions": int(
                    sum(row["reconstructions"] for row in rows)),
            }
            record(f"sharded_s{num_shards}_w{workers}", seconds, extra)
            verify(sharded)
            sharded.check_invariants()
            if num_shards == GATE_SHARDS and workers == GATE_WORKERS:
                record("lookup_sharded", time_lookup(sharded, keys),
                       {"reps": LOOKUP_REPS, "shards": GATE_SHARDS})
            release(sharded)

    # -- sharded static build ---------------------------------------------
    sharded = make_sharded(n, GATE_SHARDS)
    start = time.perf_counter()
    sharded.build(pairs, workers=GATE_WORKERS, method="static")
    record(f"sharded_s{GATE_SHARDS}_static", time.perf_counter() - start,
           {"shards": GATE_SHARDS, "workers": GATE_WORKERS})
    verify(sharded)
    release(sharded)

    # -- sharded process-pool build (informational, never gates) ----------
    try:
        sharded = make_sharded(n, GATE_SHARDS)
        start = time.perf_counter()
        sharded.build(pairs, workers=GATE_WORKERS, executor="process")
        record(f"sharded_s{GATE_SHARDS}_w{GATE_WORKERS}_process",
               time.perf_counter() - start,
               {"shards": GATE_SHARDS, "workers": GATE_WORKERS})
        verify(sharded)
        release(sharded)
    except OSError as exc:  # sandboxes without fork/spawn support
        print(f"process leg skipped: {exc}", file=sys.stderr)

    return legs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=100_000,
                        help="number of pairs (default 100000)")
    parser.add_argument("--smoke", action="store_true",
                        help="small-n CI mode with relaxed thresholds")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero when a gate fails")
    parser.add_argument("--out", default="BENCH_shards.json",
                        help="output path (default BENCH_shards.json)")
    args = parser.parse_args(argv)

    n = 20_000 if args.smoke else args.n
    sweep = SMOKE_SWEEP if args.smoke else FULL_SWEEP
    thresholds = SMOKE_THRESHOLDS if args.smoke else FULL_THRESHOLDS
    print(f"sharded benchmark: n={n} smoke={args.smoke} sweep={sweep}")
    legs = run_legs(n, sweep)

    gate_leg = f"sharded_s{GATE_SHARDS}_w{GATE_WORKERS}"
    gates = {
        "build_speedup": round(
            legs["single_sequential_reference"]["seconds"]
            / legs[gate_leg]["seconds"], 2),
        "lookup_ratio": round(
            legs["lookup_sharded"]["seconds"]
            / legs["lookup_single"]["seconds"], 2),
    }
    report = {
        "benchmark": "bench_shards",
        "n": n,
        "smoke": args.smoke,
        "value_bits": VALUE_BITS,
        "seed": SEED,
        "gate_config": {"shards": GATE_SHARDS, "workers": GATE_WORKERS},
        "legs": legs,
        "gates": gates,
        "thresholds": thresholds,
    }
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"gates: {gates}  (thresholds: {thresholds})")
    print(f"wrote {args.out}")

    if args.check:
        problems = []
        if gates["build_speedup"] < thresholds["build_speedup"]:
            problems.append(
                f"build_speedup {gates['build_speedup']:.2f}x < required "
                f"{thresholds['build_speedup']:.2f}x")
        if gates["lookup_ratio"] > thresholds["lookup_ratio"]:
            problems.append(
                f"lookup_ratio {gates['lookup_ratio']:.2f}x > allowed "
                f"{thresholds['lookup_ratio']:.2f}x")
        if problems:
            for problem in problems:
                print(f"FAIL {problem}", file=sys.stderr)
            return 1
        print("all sharded gates met")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
