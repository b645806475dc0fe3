"""Seeded inputs: resident pairs, fresh keys and the cached served snapshot.

Every key and value a run uses derives from ``--seed`` through
``repro.datasets.synthetic``; the program under test only ever sees the
generated pairs and requests.
"""

from __future__ import annotations

import json
import os
from typing import Any, List, Tuple

import numpy as np

from perfbench.common import WORK_DIR

#: L, the value width every workload uses.
VALUE_BITS = 16
#: Shard count of every table (the serving CLI's default).
NUM_SHARDS = 8
#: Snapshots kept in the cache; older ones are deleted.
_CACHED_SNAPSHOTS = 4


def resident_pairs(n: int, seed: int) -> Tuple[np.ndarray, np.ndarray]:
    """The ``n`` pairs the table holds when the timed phase starts."""
    from repro.datasets.synthetic import random_pairs

    return random_pairs(n, VALUE_BITS, seed)


def fresh_keys(count: int, resident: np.ndarray, seed: int) -> np.ndarray:
    """``count`` distinct keys that are not resident (for inserts)."""
    from repro.datasets.synthetic import random_keys

    draw = random_keys(count + 64, seed ^ 0x6B1D5EED)
    draw = draw[~np.isin(draw, resident)]
    if draw.size < count:
        raise RuntimeError("fresh-key draw collided with the resident set")
    return draw[:count]


def values(rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` uniform L-bit values."""
    return rng.integers(0, 1 << VALUE_BITS, size=count, dtype=np.uint64)


def build_table(pairs: List[Tuple[int, int]]) -> Any:
    """The default-config sharded table, capacity = resident key count,
    filled by ``bulk_load``."""
    from repro.core.sharded import ShardedEmbedder

    table = ShardedEmbedder(len(pairs), VALUE_BITS, num_shards=NUM_SHARDS)
    table.bulk_load(pairs)
    return table


def snapshot(root: str, n: int, seed: int) -> Tuple[str, int]:
    """Path of a ``save_sharded`` snapshot of the ``n`` resident pairs,
    and the table's ``space_bits``. Built once per (seed, n) and cached."""
    from repro.core.persist import save_sharded

    cache = os.path.join(root, WORK_DIR, "snapshots")
    os.makedirs(cache, exist_ok=True)
    path = os.path.join(cache, f"snap-s{seed}-n{n}.npz")
    meta_path = path + ".json"
    if os.path.exists(path) and os.path.exists(meta_path):
        with open(meta_path) as handle:
            space_bits = int(json.load(handle)["space_bits"])
        os.utime(path)
        return path, space_bits
    keys, vals = resident_pairs(n, seed)
    table = build_table(list(zip(keys.tolist(), vals.tolist())))
    partial = path + ".tmp"
    with open(partial, "wb") as handle:
        save_sharded(table, handle)
    os.replace(partial, path)
    with open(meta_path, "w") as handle:
        json.dump({"space_bits": table.space_bits, "keys": len(table)}, handle)
    _trim_cache(cache)
    return path, int(table.space_bits)


def _trim_cache(cache: str) -> None:
    snaps = sorted(
        (os.path.join(cache, name) for name in os.listdir(cache)
         if name.endswith(".npz")),
        key=os.path.getmtime,
    )
    for stale in snaps[:-_CACHED_SNAPSHOTS]:
        for path in (stale, stale + ".json"):
            if os.path.exists(path):
                os.remove(path)
