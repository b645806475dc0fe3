#!/usr/bin/env python
"""Engine benchmark: the batched write path and the fused read path.

Times two legs (uniform random uint64 keys, 12-bit values, capacity == n
so the final space efficiency matches a full table):

- ``scalar_insert_many`` — the batched write path: vectorised validation
  + hashing feeding per-key repair walks (recorded, not gated;
  ``benchmarks/bench_build_path.py`` gates the write path).
- ``lookup_batch`` — batched lookup over the built table through the
  fused gather + XOR read path (``xor_lookup_batch``); every answer is
  checked.

Results and the throughput gate are written to ``BENCH_engine.json``.
``--check`` exits non-zero when a gated leg misses its threshold (relaxed
in ``--smoke`` mode, whose small n keeps the run under ~30 s for CI while
still catching an order-of-magnitude regression).

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

from repro.core import VisionEmbedder

SEED = 3
VALUE_BITS = 12

#: Minimum throughput in kops: 1 Mops through the fused gather+XOR kernel.
FULL_THRESHOLDS = {"lookup_batch": 1000.0}
SMOKE_THRESHOLDS = {"lookup_batch": 500.0}


def make_workload(n: int):
    rng = np.random.default_rng(SEED)
    keys = rng.choice(
        np.arange(1, max(10 * n, 1 << 20), dtype=np.uint64),
        size=n, replace=False,
    )
    values = rng.integers(0, 1 << VALUE_BITS, size=n, dtype=np.uint64)
    return keys, values


def run_legs(n: int) -> dict:
    """Times every leg; returns ``{leg: {"seconds", "kops"}}``."""
    keys, values = make_workload(n)
    legs: dict = {}

    def record(name: str, seconds: float) -> None:
        legs[name] = {
            "seconds": round(seconds, 4),
            "kops": round(n / seconds / 1000, 2),
        }
        print(f"{name:>22}: {seconds:7.2f}s  ({legs[name]['kops']:9.1f} kops)")

    table = VisionEmbedder(capacity=n, value_bits=VALUE_BITS, seed=SEED)
    start = time.perf_counter()
    table.insert_many(zip(keys.tolist(), values.tolist()))
    record("scalar_insert_many", time.perf_counter() - start)
    table.check_invariants()

    # Repeated so the leg is not dominated by one-off warmup at small n.
    repeats = 5
    start = time.perf_counter()
    for _ in range(repeats):
        table.lookup_batch(keys)
    record("lookup_batch", (time.perf_counter() - start) / repeats)
    if not np.array_equal(table.lookup_batch(keys), values):
        raise SystemExit("lookup_batch returned wrong values")
    return legs


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
    args = parser.parse_args(argv)

    n = 20_000 if args.smoke else args.n
    thresholds = SMOKE_THRESHOLDS if args.smoke else FULL_THRESHOLDS
    print(f"engine benchmark: n={n} smoke={args.smoke}")
    legs = run_legs(n)

    report = {
        "benchmark": "bench_engine",
        "n": n,
        "smoke": args.smoke,
        "value_bits": VALUE_BITS,
        "seed": SEED,
        "legs": legs,
        "thresholds_kops": thresholds,
    }
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"gates, kops: {thresholds}")
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
        print("all engine throughput gates met")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
