#!/usr/bin/env python
"""Write-path benchmark: scalar vs batched insert and static build.

Times five legs at the same workload (uniform random uint64 keys, 12-bit
values, capacity == n so the final space efficiency matches a full table):

- ``scalar_insert_reference`` — per-key :meth:`VisionEmbedder.insert` with
  the minimal-bucket shortcut disabled: the unoptimised write path (full
  GetCost DFS + per-key hashing).
- ``scalar_insert`` — per-key insert under the default configuration.
- ``insert_many`` — the batched pipeline (vectorised hashing + batched
  validation feeding the same walks).
- ``bulk_load_reference`` — static build through the dict-of-sets
  reference peel with per-key scalar hashing.
- ``bulk_load`` — static build through the flat-array (IBLT-style) peel
  fed by one vectorised hashing pass.

A sixth, untimed-for-thresholds leg (``insert_many_traced``) repeats the
batched insert with full observability hooks attached and writes the
table's metrics registry as ``<out-base>.metrics.json`` /
``<out-base>.metrics.prom`` sidecars — the timed legs above stay
hook-free so the speedup numbers measure the bare write path.

Results and speedups are written to ``BENCH_build.json``, with the numpy
version and the core count they were measured under (what numpy's
primitives cost changes between its versions). ``--check`` exits
non-zero when the speedups fall below the thresholds (halved in
``--smoke`` mode, whose small n keeps the whole run under ~30 s for CI
while still catching a >2x write-path regression), when the metrics
sidecar fails to parse, when the walk-length histogram is empty, or when
the exported counter totals disagree with the legacy ``TableStats``
fields.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_build_path.py [--smoke] [--check]
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

from repro.core.embedder import VisionEmbedder
from repro.core.static_build import static_build_reference
from repro.hashing import key_to_u64
from repro.obs import instrument, parse_prometheus_text, write_sidecar

SEED = 3
VALUE_BITS = 12

FULL_THRESHOLDS = {"insert_many": 2.0, "bulk_load": 3.0}
SMOKE_THRESHOLDS = {"insert_many": 1.0, "bulk_load": 1.5}


def make_workload(n: int):
    rng = np.random.default_rng(SEED)
    keys = rng.choice(
        np.arange(1, max(10 * n, 1 << 20), dtype=np.uint64),
        size=n, replace=False,
    )
    values = rng.integers(0, 1 << VALUE_BITS, size=n, dtype=np.uint64)
    return keys, values


def make_embedder(n: int, shortcut: bool = True) -> VisionEmbedder:
    table = VisionEmbedder(capacity=n, value_bits=VALUE_BITS, seed=SEED)
    if not shortcut:
        table._strategy.shortcut = False
    return table


def run_legs(n: int) -> dict:
    keys, values = make_workload(n)
    key_list, value_list = keys.tolist(), values.tolist()
    legs: dict = {}

    def record(name: str, seconds: float, extra: dict | None = None) -> None:
        legs[name] = {
            "seconds": round(seconds, 4),
            "kops": round(n / seconds / 1000, 2),
            **(extra or {}),
        }
        print(f"{name:>24}: {seconds:7.2f}s  ({legs[name]['kops']:8.1f} kops)")

    # -- scalar insert, unoptimised reference ---------------------------
    table = make_embedder(n, shortcut=False)
    start = time.perf_counter()
    for key, value in zip(key_list, value_list):
        table.insert(key, value)
    record("scalar_insert_reference", time.perf_counter() - start)

    # -- scalar insert, current defaults --------------------------------
    table = make_embedder(n)
    start = time.perf_counter()
    for key, value in zip(key_list, value_list):
        table.insert(key, value)
    record("scalar_insert", time.perf_counter() - start)

    # -- batched insert --------------------------------------------------
    table = make_embedder(n)
    start = time.perf_counter()
    table.insert_many(zip(key_list, value_list))
    stats = table.stats
    record("insert_many", time.perf_counter() - start, {
        "largest_batch": stats.largest_batch,
    })
    table.check_invariants()

    # -- static build, dict-of-sets reference ---------------------------
    # Mirrors the pre-optimisation bulk_load: per-key validation and
    # scalar hashing feeding the reference peel.
    table = make_embedder(n)
    start = time.perf_counter()
    triples = []
    seen = set()
    for key, value in zip(key_list, value_list):
        handle = key_to_u64(key)
        if handle in table._assistant or handle in seen:
            raise SystemExit("duplicate key in benchmark workload")
        table._check_value(value)
        seen.add(handle)
        cells = tuple(enumerate(table._hashes.indices(handle)))
        triples.append((handle, cells, value))
    static_build_reference(table._table, table._assistant, triples)
    record("bulk_load_reference", time.perf_counter() - start)
    table.check_invariants()

    # -- static build, flat-array engine --------------------------------
    table = make_embedder(n)
    start = time.perf_counter()
    table.bulk_load(zip(key_list, value_list))
    record("bulk_load", time.perf_counter() - start)
    table.check_invariants()

    # -- batched insert with hooks on (observability sidecar leg) -------
    # Not part of the speedup thresholds; its registry becomes the
    # metrics sidecar and its timing shows the cost of instrumentation.
    table = make_embedder(n)
    instrument(table, traces=64)
    start = time.perf_counter()
    table.insert_many(zip(key_list, value_list))
    record("insert_many_traced", time.perf_counter() - start)
    table.check_invariants()

    return legs, table


#: Exported counter name -> TableStats attribute it must equal.
SIDECAR_COUNTERS = {
    "repro_updates_total": "updates",
    "repro_update_failures_total": "update_failures",
    "repro_reconstructions_total": "reconstructions",
    "repro_repair_steps_total": "repair_steps",
    "repro_batch_inserts_total": "batch_inserts",
    "repro_batch_keys_total": "batch_keys",
}


def check_sidecar(json_path: str, prom_path: str, table) -> list:
    """Validate the metrics sidecars against the traced table's stats.

    Returns a list of problem strings (empty when everything checks out):
    both files must parse, the walk-length histogram must be non-empty,
    and the exported counter totals must equal the legacy ``TableStats``
    fields they are a view over.
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
    walk = snapshot.get("histograms", {}).get("repro_walk_steps")
    if walk is None or walk["count"] == 0:
        problems.append("walk-length histogram missing or empty")
    if samples.get("repro_walk_steps_count", 0) != (walk or {}).get("count"):
        problems.append("prom/json walk-step counts disagree")

    stats = table.stats
    for name, attr in SIDECAR_COUNTERS.items():
        expected = getattr(stats, attr)
        exported = snapshot.get("counters", {}).get(name, {}).get("value")
        if exported != expected:
            problems.append(
                f"{name}={exported!r} but TableStats.{attr}={expected!r}"
            )
        if samples.get(name) != float(expected):
            problems.append(
                f"prom {name}={samples.get(name)!r} != {expected!r}"
            )
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=100_000,
                        help="number of pairs (default 100000)")
    parser.add_argument("--smoke", action="store_true",
                        help="small-n CI mode (~30 s) with halved thresholds")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero when speedups miss the thresholds")
    parser.add_argument("--out", default="BENCH_build.json",
                        help="output path (default BENCH_build.json)")
    args = parser.parse_args(argv)

    n = 20_000 if args.smoke else args.n
    thresholds = SMOKE_THRESHOLDS if args.smoke else FULL_THRESHOLDS
    print(f"write-path benchmark: n={n} smoke={args.smoke}")
    legs, traced_table = run_legs(n)

    speedups = {
        "insert_many": round(
            legs["scalar_insert_reference"]["seconds"]
            / legs["insert_many"]["seconds"], 2),
        "bulk_load": round(
            legs["bulk_load_reference"]["seconds"]
            / legs["bulk_load"]["seconds"], 2),
    }
    report = {
        "benchmark": "bench_build_path",
        "n": n,
        "smoke": args.smoke,
        "value_bits": VALUE_BITS,
        "seed": SEED,
        "numpy": np.__version__,
        "cores": os.cpu_count(),
        "legs": legs,
        "speedups": speedups,
        "thresholds": thresholds,
    }
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    json_path, prom_path = write_sidecar(traced_table.metrics, args.out)
    print(f"speedups: {speedups}  (thresholds: {thresholds})")
    print(f"wrote {args.out} (+ {json_path}, {prom_path})")

    if args.check:
        failed = {
            name: (speedups[name], minimum)
            for name, minimum in thresholds.items()
            if speedups[name] < minimum
        }
        if failed:
            for name, (got, minimum) in failed.items():
                print(f"FAIL {name}: {got:.2f}x < required {minimum:.2f}x",
                      file=sys.stderr)
            return 1
        sidecar_problems = check_sidecar(json_path, prom_path, traced_table)
        if sidecar_problems:
            for problem in sidecar_problems:
                print(f"FAIL sidecar: {problem}", file=sys.stderr)
            return 1
        print("all speedup thresholds met; metrics sidecar validated")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
