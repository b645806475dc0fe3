"""Sharded embedder: hash-partitioned VisionEmbedder shards.

The paper's Value Table is inherently serial on the write path — every
insert walks one global repair graph, and one unlucky update failure
reconstructs the *entire* table (§IV-B "Update Failure").
:class:`ShardedEmbedder` splits the keyspace into ``S`` independent
:class:`~repro.core.embedder.VisionEmbedder` shards, each with its own
hash seeds, Assistant Table, dynamic-depth state, and failure domain, so

- an update failure reconstructs only ~n/S keys instead of the whole
  table,
- bulk builds run shard by shard — concurrently with
  :meth:`ShardedEmbedder.build`'s worker pool — reusing the vectorised
  per-table batch primitives (``insert_batch``/``bulk_load``), and
- batched lookups scatter to the shards and gather back through one
  ``argsort``-based permutation (:func:`scatter_gather`, which worker
  processes over shared planes use too).

Sharding is a scaling extension of this reproduction, not part of the
paper (docs/paper_mapping.md); HierarchicalKV-style partitioned embedding
stores are the precedent. Routing uses a dedicated 64-bit mix over the
key handle, *independent of every shard's hash family*, and — unlike the
per-shard seeds — it never changes: a shard reconstruction reseeds that
shard's three index hashes but moves no key between shards.

Semantics match a single :class:`VisionEmbedder` over the same pairs
exactly: every inserted key's lookup returns its value, so a property
test asserts bit-identical ``lookup``/``lookup_batch`` results for any
shard count (alien keys return meaningless values in both, per the
value-only contract).

Typical use::

    from repro import ShardedEmbedder

    table = ShardedEmbedder(capacity=1_000_000, value_bits=12,
                            num_shards=8)
    table.build(pairs, workers=4)        # parallel per-shard builds
    values = table.lookup_batch(keys)    # scatter/gather batch lookup
"""

from __future__ import annotations

import io
import math
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np
import numpy.typing as npt

from repro.core.config import EmbedderConfig
from repro.core.embedder import VisionEmbedder
from repro.core.errors import DuplicateKey
from repro.core.stats import STAT_FIELDS, TableStats
from repro.hashing import key_to_u64, keys_to_u64_batch
from repro.obs.registry import MetricsRegistry, aggregate
from repro.table import Key, ValueOnlyTable

__all__ = ["ShardedEmbedder", "partition", "route_handle", "route_handles",
           "scatter_gather"]

#: 64-bit mask for the scalar router mix.
_M64 = (1 << 64) - 1

#: splitmix64/murmur3-fmix constants for the shard router. The router must
#: be decorrelated from the per-shard index hashes (which are murmur3 over
#: the *byte* representation with per-shard seeds) so that one shard's key
#: population looks uniform to its own hash family.
_MIX_1 = 0xFF51AFD7ED558CCD
_MIX_2 = 0xC4CEB9FE1A85EC53

#: Executor kinds accepted by :meth:`ShardedEmbedder.build`.
_EXECUTORS = ("thread", "process")


def route_handle(
    handle: int, shard_seed: int, num_shards: int
) -> int:  # repro: hotpath
    """Shard id of a canonical u64 handle (scalar router mix).

    Module-level so processes that hold only a
    :class:`~repro.core.shared_planes.SharedTableSpec` (worker processes
    attached to shared planes) route identically to the owning
    :class:`ShardedEmbedder` without instantiating one.
    """
    h = (handle ^ shard_seed) & _M64
    h ^= h >> 33
    h = (h * _MIX_1) & _M64
    h ^= h >> 33
    h = (h * _MIX_2) & _M64
    h ^= h >> 33
    return h % num_shards


def route_handles(  # repro: hotpath
    handles: npt.NDArray[np.uint64], shard_seed: int, num_shards: int
) -> npt.NDArray[np.uint8]:
    """Vectorised router: one shard id per handle.

    The ids come back as ``uint8`` (S <= 256) deliberately — numpy's
    stable argsort radix-sorts single-byte keys an order of magnitude
    faster than 8-byte ones, and that sort is the scatter/gather hot
    path's main overhead.
    """
    h = handles ^ np.uint64(shard_seed)
    h = h ^ (h >> np.uint64(33))
    h = h * np.uint64(_MIX_1)
    h = h ^ (h >> np.uint64(33))
    h = h * np.uint64(_MIX_2)
    h = h ^ (h >> np.uint64(33))
    return (h % np.uint64(num_shards)).astype(np.uint8)


def partition(
    handles: npt.NDArray[np.uint64], shard_seed: int, num_shards: int
) -> Tuple[npt.NDArray[np.int64], List[Tuple[int, int, int]]]:
    """Group ``handles`` by shard with one vectorised pass.

    Returns ``(order, spans)``: ``order`` permutes positions so equal
    shard ids are contiguous (stable, so per-shard order is the arrival
    order), and each ``(shard, lo, hi)`` in ``spans`` names a non-empty
    shard and its slice ``lo:hi`` of the permuted array.
    """
    ids = route_handles(handles, shard_seed, num_shards)
    order = np.argsort(ids, kind="stable").astype(np.int64)
    # Shard ids fit a uint8 only up to 255, so the end bound is appended.
    bounds = np.searchsorted(
        ids[order], np.arange(num_shards, dtype=np.uint8)
    ).tolist() + [len(ids)]
    spans = [
        (shard, bounds[shard], bounds[shard + 1])
        for shard in range(num_shards) if bounds[shard] != bounds[shard + 1]
    ]
    return order, spans


def scatter_gather(  # repro: hotpath
    handles: npt.NDArray[np.uint64],
    shard_seed: int,
    num_shards: int,
    lookup_shard: Callable[[int, npt.NDArray[np.uint64]],
                           npt.NDArray[np.uint64]],
) -> npt.NDArray[np.uint64]:
    """Batch lookup across shards, answers in input order.

    ``lookup_shard(shard, shard_handles)`` answers each span of the
    :func:`partition`, and one inverse permutation scatters the answers
    back. A single shard skips the routing.
    """
    handle_array = np.asarray(handles, dtype=np.uint64)
    if num_shards == 1:
        return lookup_shard(0, handle_array)
    order, spans = partition(handle_array, shard_seed, num_shards)
    grouped = handle_array[order]
    answers = np.empty(grouped.size, dtype=np.uint64)
    for shard, lo, hi in spans:
        answers[lo:hi] = lookup_shard(shard, grouped[lo:hi])
    out = np.empty(grouped.size, dtype=np.uint64)
    out[order] = answers
    return out


def _build_shard_payload(
    args: Tuple[int, int, int, bool, int, EmbedderConfig,
                npt.NDArray[np.uint64], npt.NDArray[np.uint64], str],
) -> Tuple[bytes, Dict[str, float]]:
    """Process-pool worker: build one fresh shard, return it serialised.

    A :class:`VisionEmbedder` holds weakrefs and locks, so the shard cannot
    cross the process boundary directly; instead the child builds it and
    ships the ``.npz`` persistence payload (fast + slow space) plus the
    stats counters back, and the parent restores both. Must stay a
    module-level function so the process pool can pickle it.
    """
    (capacity, value_bits, num_arrays, packed, seed, config, keys, values,
     method) = args
    shard = VisionEmbedder(
        capacity, value_bits, config=config, seed=seed,
        num_arrays=num_arrays, packed=packed,
    )
    if method == "static":
        shard.bulk_load(zip(keys.tolist(), values.tolist()))
    else:
        shard.insert_batch(keys, values.tolist())
    from repro.core.persist import save_embedder

    buffer = io.BytesIO()
    save_embedder(shard, buffer)
    stats = {
        attr: float(getattr(shard.stats, attr)) for attr in STAT_FIELDS
    }
    return buffer.getvalue(), stats


class ShardedEmbedder(ValueOnlyTable):
    """Hash-partitioned array of independent VisionEmbedder shards.

    Parameters
    ----------
    capacity:
        Expected maximum number of KV pairs across all shards. Each shard
        is provisioned for ``(capacity / num_shards) * shard_slack`` pairs
        (with an absolute few-sd floor on top, so small tables survive
        balls-into-bins imbalance).
    value_bits:
        L — the value length in bits (1..64), shared by every shard.
    num_shards:
        S — the number of independent shards (1..256). ``S=1`` is
        semantically a single ``VisionEmbedder`` behind one router pass
        (same lookup answers for every inserted key; the fast-space
        geometry differs by the slack head-room).
    config:
        Per-shard tunables (one :class:`EmbedderConfig` shared by all).
    seed:
        Master seed; shard ``i`` starts from ``seed + i`` (each shard
        reseeds independently on reconstruction). The shard *router* seed
        derives from ``seed`` once and never changes.
    shard_slack:
        Per-shard capacity head-room over the even split. Hash
        partitioning leaves shards a few percent uneven, and a shard
        driven to the single-table space efficiency pays deep GetCost
        walks — 1.1 keeps every shard comfortably below the expensive
        regime for ~10% extra fast space. Set 1.0 to reproduce the exact
        single-table bit budget.
    num_arrays / packed:
        Forwarded to every shard.
    """

    name = "vision-sharded"

    def __init__(
        self,
        capacity: int,
        value_bits: int,
        num_shards: int = 8,
        config: Optional[EmbedderConfig] = None,
        seed: int = 1,
        shard_slack: float = 1.1,
        num_arrays: int = 3,
        packed: bool = False,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if not 1 <= num_shards <= 256:
            raise ValueError("num_shards must be in 1..256")
        if shard_slack < 1.0:
            raise ValueError("shard_slack must be >= 1.0")
        self.config = config if config is not None else EmbedderConfig()
        self.capacity = capacity
        self._value_bits = value_bits
        self.num_shards = num_shards
        self.shard_slack = shard_slack
        self.num_arrays = num_arrays
        self.packed = packed
        self._seed = seed
        # The router seed is fixed for the table's lifetime: shard-local
        # reconstructions reseed the shard's index hashes, never the
        # partition, so no key ever migrates between shards.
        self._shard_seed = (seed * 0x9E3779B97F4A7C15 + 0x5348415244) & _M64
        # Hash partitioning is a balls-into-bins split: shard sizes are
        # Binomial(capacity, 1/S), sd ~ sqrt(mean). Proportional slack
        # covers the tail once shards are large (slack-1 fractions of the
        # mean dwarf a few sd), but at small means the tail is *additive*,
        # so the provisioned capacity also gets a ~6-sd absolute floor.
        mean = capacity / num_shards
        shard_capacity = max(
            1,
            math.ceil(max(
                mean * shard_slack,
                mean + 4.0 * math.sqrt(mean) + 4.0,
            )),
        )
        self._shards: List[VisionEmbedder] = [
            VisionEmbedder(
                shard_capacity, value_bits, config=self.config,
                seed=seed + i, num_arrays=num_arrays, packed=packed,
            )
            for i in range(num_shards)
        ]
        self._registry = MetricsRegistry()
        self._shards_gauge = self._registry.gauge(
            "repro_shards", "Number of hash partitions", "")
        self._shards_gauge.set(num_shards)
        self._keys_min_gauge = self._registry.gauge(
            "repro_shard_keys_min", "Smallest shard's live key count", "")
        self._keys_max_gauge = self._registry.gauge(
            "repro_shard_keys_max", "Largest shard's live key count", "")
        self._efficiency_max_gauge = self._registry.gauge(
            "repro_shard_space_efficiency_max",
            "Highest per-shard space efficiency n_i/m_i", "")
        self._builds_counter = self._registry.counter(
            "repro_sharded_builds_total",
            "Calls to the sharded build() entry point", "")
        self._build_seconds_counter = self._registry.counter(
            "repro_sharded_build_seconds_total",
            "Wall-clock time inside sharded builds", "seconds")
        self._build_workers_gauge = self._registry.gauge(
            "repro_sharded_build_workers",
            "Worker count of the most recent build()", "")
        self._gather_batches_counter = self._registry.counter(
            "repro_gather_batches_total",
            "Scatter/gather batch lookups served", "")
        self._gather_keys_counter = self._registry.counter(
            "repro_gather_keys_total",
            "Keys routed through scatter/gather batch lookups", "")

    # ------------------------------------------------------------------
    # Shard routing
    # ------------------------------------------------------------------

    def _shard_of_handle(self, handle: int) -> int:  # repro: hotpath
        """Shard id of a canonical u64 handle (scalar router mix)."""
        return route_handle(handle, self._shard_seed, self.num_shards)

    # repro: raises(ValueError, TypeError)
    def shard_of(self, key: Key) -> int:
        """The shard index ``key`` routes to (stable for the table's life)."""
        return self._shard_of_handle(key_to_u64(key))

    # ------------------------------------------------------------------
    # ValueOnlyTable surface
    # ------------------------------------------------------------------

    @property
    def value_bits(self) -> int:
        return self._value_bits

    @property
    def space_bits(self) -> int:
        return sum(shard.space_bits for shard in self._shards)

    @property
    def num_cells(self) -> int:
        """m: total value-table cells across all shards."""
        return sum(shard.num_cells for shard in self._shards)

    @property
    def space_efficiency(self) -> float:
        """n/m over the whole table (per-shard values via shard_stats)."""
        return len(self) / self.num_cells

    @property
    def seed(self) -> int:
        """The master seed (shard-local seeds bump independently)."""
        return self._seed

    @property
    def shards(self) -> Tuple[VisionEmbedder, ...]:
        """The per-shard tables, indexable by router id (read-only view)."""
        return tuple(self._shards)

    @property
    def stats(self) -> TableStats:
        """Aggregated counters: per-shard registries summed + shard gauges.

        Counters add across shards, gauges keep the maximum, histograms
        add bucket-wise — one export covers the whole sharded table. For
        per-shard numbers use :meth:`shard_stats` or a shard's own
        ``stats``/``metrics``.
        """
        self._refresh_shard_gauges()
        merged = aggregate(
            [shard.stats.registry for shard in self._shards]
            + [self._registry]
        )
        return TableStats(registry=merged)

    def _refresh_shard_gauges(self) -> None:
        sizes = [len(shard) for shard in self._shards]
        self._keys_min_gauge.set(min(sizes))
        self._keys_max_gauge.set(max(sizes))
        self._efficiency_max_gauge.set(
            max(shard.space_efficiency for shard in self._shards)
        )

    def shard_stats(self) -> List[Dict[str, float]]:
        """Per-shard operational summary, one dict per shard.

        Includes the live key count, space efficiency, current seed, and
        the failure/cache counters the sharded benchmark compares across
        shards (reconstructions, repair steps, cost-cache hits, misses,
        and invalidations).
        """
        out: List[Dict[str, float]] = []
        for index, shard in enumerate(self._shards):
            stats = shard.stats
            out.append({
                "shard": index,
                "keys": len(shard),
                "space_efficiency": shard.space_efficiency,
                "seed": shard.seed,
                "reconstructions": stats.reconstructions,
                "update_failures": stats.update_failures,
                "repair_steps": stats.repair_steps,
                "cost_cache_hits": stats.cost_cache_hits,
                "cost_cache_misses": stats.cost_cache_misses,
                "cost_cache_invalidations": stats.cost_cache_invalidations,
            })
        return out

    def __len__(self) -> int:
        return sum(len(shard) for shard in self._shards)

    def __contains__(self, key: Key) -> bool:
        handle = key_to_u64(key)
        return handle in self._shards[self._shard_of_handle(handle)]

    # repro: raises(ValueError, TypeError)
    def lookup(self, key: Key) -> int:  # repro: hotpath
        """Route to the owning shard's three-read XOR lookup — O(1)."""
        handle = key_to_u64(key)
        return self._shards[self._shard_of_handle(handle)].lookup(handle)

    def lookup_batch(  # repro: hotpath
        self, keys: npt.NDArray[np.uint64]
    ) -> npt.NDArray[np.uint64]:
        """Vectorised lookup over a ``uint64`` key array: each shard
        answers its keys with its own ``lookup_batch``
        (:func:`scatter_gather`)."""
        handles = np.asarray(keys, dtype=np.uint64)
        if handles.size:
            self._gather_batches_counter.inc()
            self._gather_keys_counter.inc(int(handles.size))
        return scatter_gather(
            handles, self._shard_seed, self.num_shards,
            lambda shard, part: self._shards[shard].lookup_batch(part),
        )

    # repro: raises(DuplicateKey, ValueError, TypeError, UpdateFailure)
    # repro: raises(SpaceExhausted, ReconstructionFailed)
    def insert(self, key: Key, value: int) -> None:
        """Insert into the owning shard (dynamic update per §IV)."""
        handle = key_to_u64(key)
        self._shards[self._shard_of_handle(handle)].insert(handle, value)

    # repro: raises(KeyNotFound, ValueError, TypeError, UpdateFailure)
    # repro: raises(SpaceExhausted, ReconstructionFailed)
    def update(self, key: Key, value: int) -> None:
        """Update inside the owning shard."""
        handle = key_to_u64(key)
        self._shards[self._shard_of_handle(handle)].update(handle, value)

    # repro: raises(KeyNotFound, ValueError, TypeError)
    def delete(self, key: Key) -> None:
        """Delete from the owning shard (slow-space only, per §IV-C)."""
        handle = key_to_u64(key)
        self._shards[self._shard_of_handle(handle)].delete(handle)

    # repro: raises(DuplicateKey, ValueError, TypeError, UpdateFailure)
    # repro: raises(SpaceExhausted, ReconstructionFailed)
    def insert_many(self, pairs: Iterable[Tuple[Key, int]]) -> None:
        """Partitioned batch insert (sequential shards; see :meth:`build`)."""
        self.build(pairs, workers=1)

    # repro: raises(DuplicateKey, ValueError, TypeError, UpdateFailure)
    # repro: raises(SpaceExhausted, ReconstructionFailed)
    def insert_batch(
        self, keys: Iterable[Key], values: Iterable[int]
    ) -> None:
        """Batched insert mirroring :meth:`VisionEmbedder.insert_batch`."""
        key_list = list(keys)
        value_list = [int(value) for value in values]
        if len(key_list) != len(value_list):
            raise ValueError("keys and values must align")
        self.build(zip(key_list, value_list), workers=1)

    # repro: raises(DuplicateKey, ValueError, TypeError)
    # repro: raises(ReconstructionFailed)
    def bulk_load(self, pairs: Iterable[Tuple[Key, int]]) -> None:
        """Partitioned static build: one O(n/S) peel per shard."""
        self.build(pairs, workers=1, method="static")

    # ------------------------------------------------------------------
    # Parallel build
    # ------------------------------------------------------------------

    # repro: raises(DuplicateKey, ValueError, TypeError, UpdateFailure)
    # repro: raises(SpaceExhausted, ReconstructionFailed)
    def build(
        self,
        pairs: Iterable[Tuple[Key, int]],
        workers: int = 1,
        method: str = "dynamic",
        executor: str = "thread",
    ) -> None:
        """Partition ``pairs`` once, then build every shard — concurrently
        with ``workers > 1``.

        One vectorised numpy pass canonicalises the keys, routes them, and
        groups them per shard (stable order, so each shard sees its keys
        in arrival order); each shard then runs PR 1's batched write
        pipeline: ``method="dynamic"`` walks the vision updates through
        ``insert_batch``, ``method="static"`` runs the O(n/S) peel through
        ``bulk_load``.

        ``executor="thread"`` shares shards with the pool directly — each
        worker owns disjoint shards, so no locking is needed, but the GIL
        serialises the Python-heavy repair walks (the win on one core
        comes from batching + the smaller per-shard repair graphs).
        ``executor="process"`` sidesteps the GIL for CPU-bound builds:
        children build *fresh* shards and ship them back through the
        ``.npz`` persistence payload, so it requires every involved shard
        to be empty.

        The whole batch is validated up front (duplicates within the
        batch, keys already present, value range): a rejected batch leaves
        every shard untouched. After validation the per-shard builds have
        ``insert_many`` semantics — a :class:`SpaceExhausted` aborts with
        the completed shards (and the failing shard's walked prefix)
        inserted.
        """
        if executor not in _EXECUTORS:
            raise ValueError(
                f"executor must be one of {_EXECUTORS}, got {executor!r}"
            )
        if method not in ("dynamic", "static"):
            raise ValueError("method must be 'dynamic' or 'static'")
        pair_list = list(pairs)
        if not pair_list:
            return
        handles = keys_to_u64_batch([key for key, _ in pair_list])
        values = np.fromiter(
            (int(value) for _, value in pair_list),
            dtype=np.uint64, count=len(pair_list),
        )
        n = int(handles.size)
        if np.unique(handles).size != n:
            raise DuplicateKey("duplicate keys within batch")
        value_mask = (1 << self._value_bits) - 1
        if n and int(values.max()) > value_mask:
            bad = int(values[values > value_mask][0])
            raise ValueError(
                f"value {bad} out of range for {self._value_bits}-bit values"
            )
        order, jobs = partition(handles, self._shard_seed, self.num_shards)
        grouped_handles = handles[order]
        grouped_values = values[order]
        for index, lo, hi in jobs:
            # Vectorised membership against the shard's assistant (one
            # sorted-index / dict pass instead of a per-key loop).
            hits = self._shards[index]._assistant.contains_batch(
                grouped_handles[lo:hi]
            )
            if bool(hits.any()):
                offender = int(grouped_handles[lo + int(np.argmax(hits))])
                raise DuplicateKey(f"key {offender!r} already inserted")
        started = time.perf_counter()
        self._builds_counter.inc()
        self._build_workers_gauge.set(workers)
        try:
            if executor == "process" and workers > 1 and len(jobs) > 1:
                self._build_in_processes(
                    jobs, grouped_handles, grouped_values, method, workers
                )
            elif workers > 1 and len(jobs) > 1:
                self._build_in_threads(
                    jobs, grouped_handles, grouped_values, method, workers
                )
            else:
                for index, lo, hi in jobs:
                    self._build_one_shard(
                        index, grouped_handles[lo:hi], grouped_values[lo:hi],
                        method,
                    )
        finally:
            self._build_seconds_counter.inc(time.perf_counter() - started)

    def _build_one_shard(
        self,
        index: int,
        shard_handles: npt.NDArray[np.uint64],
        shard_values: npt.NDArray[np.uint64],
        method: str,
    ) -> None:
        shard = self._shards[index]
        if method == "static":
            shard.bulk_load(
                zip(shard_handles.tolist(), shard_values.tolist())
            )
        else:
            shard.insert_batch(shard_handles, shard_values.tolist())

    def _build_in_threads(
        self,
        jobs: Sequence[Tuple[int, int, int]],
        grouped_handles: npt.NDArray[np.uint64],
        grouped_values: npt.NDArray[np.uint64],
        method: str,
        workers: int,
    ) -> None:
        # Each worker mutates only its own shard (jobs are disjoint by
        # construction), so the per-shard single-writer rule holds without
        # any locking.
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(
                    self._build_one_shard, index,
                    grouped_handles[lo:hi], grouped_values[lo:hi], method,
                )
                for index, lo, hi in jobs
            ]
            for future in futures:
                future.result()

    def _build_in_processes(
        self,
        jobs: Sequence[Tuple[int, int, int]],
        grouped_handles: npt.NDArray[np.uint64],
        grouped_values: npt.NDArray[np.uint64],
        method: str,
        workers: int,
    ) -> None:
        from repro.core.persist import load_embedder

        for index, _, _ in jobs:
            if len(self._shards[index]) != 0:
                raise ValueError(
                    "executor='process' rebuilds shards from scratch and "
                    f"shard {index} already holds keys — use the thread "
                    "executor for incremental builds"
                )
        payloads = [
            (
                self._shards[index].capacity, self._value_bits,
                self.num_arrays, self.packed, self._shards[index].seed,
                self.config, grouped_handles[lo:hi], grouped_values[lo:hi],
                method,
            )
            for index, lo, hi in jobs
        ]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_build_shard_payload, payloads))
        for (index, _, _), (payload, stats) in zip(jobs, results):
            shard = load_embedder(io.BytesIO(payload))
            # The child's walk counters would otherwise be lost with the
            # child process; restore them so aggregated stats still count
            # every update and reconstruction.
            for attr in STAT_FIELDS:
                value = stats[attr]
                setattr(shard.stats, attr,
                        int(value) if float(value).is_integer() else value)
            self._shards[index] = shard

    # ------------------------------------------------------------------
    # Construction / failure handling
    # ------------------------------------------------------------------

    @classmethod
    def from_pairs(
        cls,
        pairs: Iterable[Tuple[Key, int]],
        value_bits: int,
        num_shards: int = 8,
        config: Optional[EmbedderConfig] = None,
        seed: int = 1,
        capacity: Optional[int] = None,
        workers: int = 1,
        static: bool = False,
        shard_slack: float = 1.1,
    ) -> "ShardedEmbedder":
        """Build a sharded table holding ``pairs`` (mirrors the unsharded
        :meth:`VisionEmbedder.from_pairs`, plus ``num_shards``/``workers``)."""
        pair_list = list(pairs)
        if capacity is None:
            capacity = max(1, len(pair_list))
        table = cls(
            capacity, value_bits, num_shards=num_shards, config=config,
            seed=seed, shard_slack=shard_slack,
        )
        table.build(
            pair_list, workers=workers,
            method="static" if static else "dynamic",
        )
        return table

    def reconstruct(
        self, method: str = "dynamic", shard: Optional[int] = None
    ) -> None:
        """Reseed and rebuild one shard — or, with ``shard=None``, all.

        This is the sharded failure-domain win made explicit: a forced (or
        failure-triggered) reconstruction re-walks only the ~n/S keys of
        the affected shard, leaving every other shard's fast space
        byte-identical. Per-shard automatic failure handling (§IV-B) goes
        through each shard's own ``reconstruct`` exactly as in the
        unsharded table.
        """
        if shard is not None:
            self._shards[shard].reconstruct(method)
            return
        for one in self._shards:
            one.reconstruct(method)

    def check_invariants(self) -> None:
        """Assert every shard's XOR equations and routing agree."""
        for index, shard in enumerate(self._shards):
            shard.check_invariants()
            for handle, _ in shard._assistant.pairs():
                routed = self._shard_of_handle(handle)
                assert routed == index, (
                    f"key {handle} lives in shard {index} but routes to "
                    f"{routed}"
                )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        sizes = [len(shard) for shard in self._shards]
        return (
            f"ShardedEmbedder(n={len(self)}, shards={self.num_shards}, "
            f"L={self._value_bits}, shard_sizes={min(sizes)}..{max(sizes)})"
        )
