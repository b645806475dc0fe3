#!/usr/bin/env python
"""Engine benchmark: scalar vs array-native backend on the same workload.

Times three legs (uniform random uint64 keys, 12-bit values, capacity == n
so the final space efficiency matches a full table):

- ``scalar_insert_many`` — the batched write path on the default scalar
  backend: vectorised validation + hashing feeding per-key repair walks.
- ``vector_insert_many`` — the same call on ``backend="vector"``: the
  base-occupancy-masked peel retires most of the batch in a handful of
  numpy rounds and only the blocked remainder takes scalar walks.
- ``vector_lookup_batch`` — batched lookup through the fused gather + XOR
  read path. Lookups do not depend on the backend (both run the same
  ``xor_lookup_batch``), so the scalar-built table's answers are checked
  but not timed.

Results and throughput gates are written to ``BENCH_engine.json``.
``--check`` exits non-zero when a leg misses its threshold (relaxed in
``--smoke`` mode, whose small n keeps the run under ~30 s for CI while
still catching an order-of-magnitude engine regression).

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_engine.py [--smoke] [--check]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

if __package__ in (None, ""):  # script invocation: make src/ importable
    sys.path.insert(
        0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    )

from repro.core import EmbedderConfig, VisionEmbedder
from repro.obs import parse_prometheus_text, write_sidecar

SEED = 3
VALUE_BITS = 12

#: Minimum throughput in kops. The full-run vector gate is 10x the
#: ~21 kops scalar insert_many baseline recorded in BENCH_build.json;
#: the lookup gate is 1 Mops through the fused gather+XOR kernel.
FULL_THRESHOLDS = {"vector_insert_many": 210.0, "vector_lookup_batch": 1000.0}
SMOKE_THRESHOLDS = {"vector_insert_many": 100.0, "vector_lookup_batch": 500.0}


def make_workload(n: int):
    rng = np.random.default_rng(SEED)
    keys = rng.choice(
        np.arange(1, max(10 * n, 1 << 20), dtype=np.uint64),
        size=n, replace=False,
    )
    values = rng.integers(0, 1 << VALUE_BITS, size=n, dtype=np.uint64)
    return keys, values


def make_embedder(n: int, backend: str) -> VisionEmbedder:
    return VisionEmbedder(
        capacity=n, value_bits=VALUE_BITS, seed=SEED,
        config=EmbedderConfig(backend=backend),
    )


def run_legs(n: int) -> tuple:
    """Times every leg; returns ``(legs, vector_table)``.

    The vector-backend table rides along so ``--metrics-out`` can export
    its engine instruments (``repro_engine_peeled_total`` & co) after the
    timed work, exactly as they accumulated during the benchmark.
    """
    keys, values = make_workload(n)
    key_list, value_list = keys.tolist(), values.tolist()
    legs: dict = {}
    vector_table = None

    def record(name: str, seconds: float, extra: dict | None = None) -> None:
        legs[name] = {
            "seconds": round(seconds, 4),
            "kops": round(n / seconds / 1000, 2),
            **(extra or {}),
        }
        print(f"{name:>22}: {seconds:7.2f}s  ({legs[name]['kops']:9.1f} kops)")

    for backend in ("scalar", "vector"):
        table = make_embedder(n, backend)
        start = time.perf_counter()
        table.insert_many(zip(key_list, value_list))
        record(f"{backend}_insert_many", time.perf_counter() - start)
        table.check_invariants()

        if backend == "vector":
            vector_table = table
            # Batched lookup over the freshly built table, repeated so
            # the leg is not dominated by one-off warmup at small n.
            repeats = 5
            start = time.perf_counter()
            for _ in range(repeats):
                table.lookup_batch(keys)
            record("vector_lookup_batch",
                   (time.perf_counter() - start) / repeats)
        if not np.array_equal(table.lookup_batch(keys), values):
            raise SystemExit(f"{backend} lookup_batch returned wrong values")
    return legs, vector_table


def check_sidecar(json_path: str, prom_path: str, table) -> list:
    """Validate the engine-metrics sidecars against the vector table.

    Returns a list of problem strings (empty when everything checks out):
    both files must parse, the peel counter must have retired keys during
    the vector insert leg, and the prom/json exports must agree with the
    live registry.
    """
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
    counters = snapshot.get("counters", {})
    peeled = counters.get("repro_engine_peeled_total", {}).get("value", 0)
    fallback = counters.get(
        "repro_engine_fallback_walks_total", {}).get("value", 0)
    if peeled <= 0:
        problems.append("repro_engine_peeled_total is zero — the vector "
                        "insert leg did not report peel progress")
    if peeled + fallback != len(table):
        problems.append(
            f"peeled({peeled}) + fallback({fallback}) != "
            f"{len(table)} inserted keys"
        )
    if samples.get("repro_engine_peeled_total") != peeled:
        problems.append("prom/json peel counts disagree")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=100_000,
                        help="number of pairs (default 100000)")
    parser.add_argument("--smoke", action="store_true",
                        help="small-n CI mode (~30 s) with relaxed gates")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero when a leg misses its gate")
    parser.add_argument("--out", default="BENCH_engine.json",
                        help="output path (default BENCH_engine.json)")
    parser.add_argument("--metrics-out", default=None, metavar="BASE",
                        help="also write the vector table's engine metrics "
                             "as BASE.metrics.{json,prom}")
    args = parser.parse_args(argv)

    n = 20_000 if args.smoke else args.n
    thresholds = SMOKE_THRESHOLDS if args.smoke else FULL_THRESHOLDS
    print(f"engine benchmark: n={n} smoke={args.smoke}")
    legs, vector_table = run_legs(n)

    sidecar_paths = None
    if args.metrics_out:
        sidecar_paths = write_sidecar(vector_table.metrics, args.metrics_out)
        print(f"wrote {sidecar_paths[0]} and {sidecar_paths[1]}")

    report = {
        "benchmark": "bench_engine",
        "n": n,
        "smoke": args.smoke,
        "value_bits": VALUE_BITS,
        "seed": SEED,
        "legs": legs,
        "thresholds_kops": thresholds,
        "speedups": {
            "insert_many": round(
                legs["scalar_insert_many"]["seconds"]
                / legs["vector_insert_many"]["seconds"], 2),
        },
    }
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"speedups: {report['speedups']}  "
          f"(gates, kops: {thresholds})")
    print(f"wrote {args.out}")

    if args.check:
        failed = {
            name: (legs[name]["kops"], minimum)
            for name, minimum in thresholds.items()
            if legs[name]["kops"] < minimum
        }
        if failed:
            for name, (got, minimum) in failed.items():
                print(f"FAIL {name}: {got:.1f} kops < required "
                      f"{minimum:.1f} kops", file=sys.stderr)
            return 1
        if sidecar_paths is not None:
            problems = check_sidecar(*sidecar_paths, vector_table)
            if problems:
                for problem in problems:
                    print(f"FAIL metrics sidecar: {problem}",
                          file=sys.stderr)
                return 1
            print("all engine throughput gates met; metrics sidecar "
                  "validated")
        else:
            print("all engine throughput gates met")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
