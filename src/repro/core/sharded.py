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
- batched lookups take one pass whatever shards they touch
  (:class:`BlockReader`, which worker processes over shared planes use
  too): every shard's planes live at a fixed offset of one
  :class:`~repro.core.value_table.PlaneBlock`, and each shard's own plane
  table is a view of its region.

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
    values = table.lookup_batch(keys)    # one-pass block read
"""

from __future__ import annotations

import io
import math
import time
from operator import itemgetter
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np
import numpy.typing as npt

from repro.core.config import EmbedderConfig
from repro.core.assistant_table import Journal
from repro.core.embedder import (
    VisionEmbedder,
    _canonical,
    _key_at,
    plane_width,
)
from repro.core.engine import HashedRows
from repro.core.errors import DuplicateKey, KeyNotFound
from repro.core.packed_table import PackedValueTable
from repro.core.stats import STAT_FIELDS, TableStats
from repro.core.value_table import PlaneBlock, ValueTable, xor_lookup_batch
from repro.hashing import HashFamily, has_duplicates, key_to_u64, seed_table
from repro.obs.registry import MetricsRegistry, aggregate
from repro.table import Key, ValueOnlyTable

__all__ = ["BlockReader", "ShardedEmbedder", "partition", "route_handle",
           "route_handles"]

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

#: One shard's part of a build: ``(shard, handles, values, method,
#: hashed)``; ``hashed`` holds the rows the front hashed a dynamic slice
#: under the shard's seed, or None (the shard hashes the slice itself).
_ShardJob = Tuple[int, npt.NDArray[np.uint64], npt.NDArray[np.uint64], str,
                  Optional[HashedRows]]


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
    faster than 8-byte ones, and that sort is :func:`partition`'s main
    cost. Widen them before any offset arithmetic: ``uint8`` products
    wrap silently.
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


class BlockReader:
    """The one-pass batched read over every shard of a :class:`PlaneBlock`.

    Holds what the read hashes with: a family of the shards' widths, and
    every shard's seeds as the ``(num_arrays, S)``
    :func:`~repro.hashing.seed_table`, rebuilt only once the shards'
    master seeds change (a reconstruction reseeds its shard). A
    :class:`ShardedEmbedder` holds one, and so does every pool worker
    reading its shared planes.
    """

    def __init__(self, width: int, num_arrays: int, shard_seed: int) -> None:
        self.shard_seed = shard_seed
        self._hashes = HashFamily(0, [width] * num_arrays)
        self._masters: List[int] = []
        self._seeds = seed_table(self._masters, num_arrays)

    def indices(  # repro: hotpath
        self,
        masters: List[int],
        ids: npt.NDArray[np.intp],
        handles: npt.NDArray[np.uint64],
    ) -> npt.NDArray[np.int64]:
        """The ``(num_arrays, k)`` index rows of ``handles``, key ``i``
        hashed in one pass under the seeds of shard ``ids[i]``, whose
        master seed is ``masters[ids[i]]`` — bit-identical to what that
        shard's own :class:`HashFamily` computes."""
        return self._hashes.indices_batch(
            handles, seeds=self._shard_seeds(masters, ids)
        )

    def _shard_seeds(
        self, masters: List[int], ids: npt.NDArray[np.intp]
    ) -> npt.NDArray[np.uint32]:
        """Column ``i`` holds the per-function seeds of shard ``ids[i]``."""
        if masters != self._masters:
            self._seeds = seed_table(masters, len(self._hashes))
            self._masters = masters
        return np.take(self._seeds, ids, axis=1)

    def lookup(  # repro: hotpath
        self,
        block: PlaneBlock,
        masters: List[int],
        handles: npt.NDArray[np.uint64],
    ) -> npt.NDArray[np.uint64]:
        """Batch lookup over every shard of ``block``, whose shard ``s``
        hashes from master seed ``masters[s]``.

        Route each handle, then one :func:`xor_lookup_batch` over the
        block: every key hashed under its shard's seeds in one murmur3
        pass, offset to its shard's region, and one gather + XOR — the
        paper's three hashes, three reads and one XOR (§III), for the
        whole batch at once. Answers come back in input order.
        """
        handle_array = np.asarray(handles, dtype=np.uint64)
        # The router's uint8 ids would wrap under the offset arithmetic.
        ids = route_handles(
            handle_array, self.shard_seed, block.num_shards
        ).astype(np.intp)
        return xor_lookup_batch(
            block.table, self._hashes, handle_array,
            seeds=self._shard_seeds(masters, ids), bases=ids * block.stride,
        )


def _build_shard_payload(
    args: Tuple[int, int, int, bool, int, EmbedderConfig,
                npt.NDArray[np.uint64], npt.NDArray[np.uint64], str],
) -> Tuple[bytes, Dict[str, float]]:
    """Process-pool worker: build one fresh shard, return it serialised.

    A :class:`VisionEmbedder` holds weakrefs and locks, so the shard cannot
    cross the process boundary directly; instead the child builds it and
    ships the ``.npz`` persistence payload (fast + slow space) plus the
    stats counters back, and the parent restores both. The parent has
    checked ``keys`` and ``values``. Must stay a module-level function so
    the process pool can pickle it.
    """
    (capacity, value_bits, num_arrays, packed, seed, config, keys, values,
     method) = args
    shard = VisionEmbedder(
        capacity, value_bits, config=config, seed=seed,
        num_arrays=num_arrays, packed=packed,
    )
    if method == "static":
        shard._bulk_load_arrays(keys, values)
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
        # One plane block holds every shard's planes; each shard's plane
        # table is a view of its region, so writes land where the
        # block's reader reads.
        width = plane_width(shard_capacity, self.config.space_factor,
                            num_arrays)
        self._block = PlaneBlock(
            PackedValueTable if packed else ValueTable,
            width, value_bits, num_arrays, num_shards,
        )
        self._shards: List[VisionEmbedder] = [
            VisionEmbedder(
                shard_capacity, value_bits, config=self.config,
                seed=seed + i, num_arrays=num_arrays, packed=packed,
                planes=planes,
            )
            for i, planes in enumerate(self._block.shards)
        ]
        self._reader = BlockReader(width, num_arrays, self._shard_seed)
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
            "Batch lookups served by the one-pass block read", "")
        self._gather_keys_counter = self._registry.counter(
            "repro_gather_keys_total",
            "Keys answered by the one-pass block read", "")

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
        the failure counters the sharded benchmark compares across shards
        (reconstructions, update failures, repair steps). The cost-cache
        columns always read 0 (GetCost has no memo cache).
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
        """Vectorised lookup over a ``uint64`` key array: one route, hash
        and gather pass over the plane block (:meth:`BlockReader.lookup`)."""
        handles = np.asarray(keys, dtype=np.uint64)
        if handles.size:
            self._gather_batches_counter.inc()
            self._gather_keys_counter.inc(int(handles.size))
        return self._reader.lookup(
            self._block, [shard.seed for shard in self._shards], handles
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

    # repro: atomic
    # repro: raises(DuplicateKey, ValueError, TypeError, UpdateFailure)
    # repro: raises(SpaceExhausted, ReconstructionFailed)
    def insert_batch(
        self, keys: Iterable[Key], values: Iterable[int]
    ) -> None:
        """Batched insert mirroring :meth:`VisionEmbedder.insert_batch`:
        all or nothing across every shard (see :meth:`build`). A key array
        is canonicalised whole."""
        self._build(keys, values, 1, "dynamic", "thread")

    # repro: atomic
    # repro: raises(KeyNotFound, ValueError, TypeError, UpdateFailure)
    # repro: raises(SpaceExhausted, ReconstructionFailed)
    def update_batch(
        self, keys: Iterable[Key], values: Iterable[int]
    ) -> None:
        """Batched update mirroring :meth:`VisionEmbedder.update_batch`.

        The batch is validated across every shard first (each key
        present, values in range; a repeated key ends at its last value);
        the touched shards then update under write journals that stay
        open until all of them succeed, and a failure rolls every touched
        shard back.
        """
        key_seq, handles = _canonical(keys)
        values_arr = self._checked_values(values, int(handles.size))
        order, jobs, grouped_handles = self._route_present(
            key_seq, handles, once=False
        )
        grouped_values = values_arr[order].tolist()

        def write() -> None:
            # Validated above, so each shard's slice goes straight to its
            # write engine, under the journal _journaled opened.
            for index, lo, hi in jobs:
                shard = self._shards[index]
                shard._engine.update_batch(
                    shard, grouped_handles[lo:hi], grouped_values[lo:hi]
                )

        self._journaled(jobs, False, write)

    # repro: atomic
    # repro: raises(KeyNotFound, ValueError, TypeError)
    def delete_batch(self, keys: Iterable[Key]) -> None:
        """Batched delete mirroring :meth:`VisionEmbedder.delete_batch`,
        validated across every shard first and rolled back across every
        touched shard on failure."""
        key_seq, handles = _canonical(keys)
        _, jobs, grouped_handles = self._route_present(
            key_seq, handles, once=True
        )

        def write() -> None:
            for index, lo, hi in jobs:
                shard = self._shards[index]
                shard._engine.delete_batch(shard, grouped_handles[lo:hi])

        self._journaled(jobs, False, write)

    # repro: atomic
    # repro: raises(DuplicateKey, ValueError, TypeError)
    # repro: raises(ReconstructionFailed)
    def bulk_load(self, pairs: Iterable[Tuple[Key, int]]) -> None:
        """Partitioned static build: one O(n/S) peel per shard."""
        self.build(pairs, workers=1, method="static")

    # ------------------------------------------------------------------
    # Parallel build
    # ------------------------------------------------------------------

    # repro: atomic
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
        in arrival order); each shard then runs its batched write
        pipeline: ``method="dynamic"`` walks the vision updates through
        ``insert_batch``, ``method="static"`` runs the O(n/S) peel of
        ``bulk_load`` on the checked arrays.

        ``executor="thread"`` shares shards with the pool directly — each
        worker owns disjoint shards, so no locking is needed, but the GIL
        serialises the Python-heavy repair walks (the win on one core
        comes from batching + the smaller per-shard repair graphs).
        ``executor="process"`` sidesteps the GIL for CPU-bound builds:
        children build *fresh* shards and ship them back through the
        ``.npz`` persistence payload, which loads into the shard in place,
        so it requires every involved shard to be empty.

        The call is **all-or-nothing across shards**. The whole batch is
        validated up front (duplicates within the batch, keys already
        present, value range), so a rejected batch leaves every shard
        untouched. Every touched shard then writes under a journal that
        stays open until all shards have succeeded; any failure —
        :class:`SpaceExhausted` in one shard, a failed reconstruction, a
        fault — rolls every touched shard back, last first. Dynamic
        inserts undo in O(batch); a static peel or a process-built shard
        rewrites the whole shard, so its journal holds the shard's
        pre-call snapshot, which the peel costs anyway.

        The front is the one place the batch is canonicalised and checked
        and, for dynamic inserts in this process, hashed: one
        :meth:`BlockReader.indices` pass under every shard's seeds, each
        shard walking from its slice of the rows.
        """
        if executor not in _EXECUTORS:
            raise ValueError(
                f"executor must be one of {_EXECUTORS}, got {executor!r}"
            )
        if method not in ("dynamic", "static"):
            raise ValueError("method must be 'dynamic' or 'static'")
        pair_list = list(pairs)
        self._build(
            [key for key, _ in pair_list], map(itemgetter(1), pair_list),
            workers, method, executor,
        )

    def _build(
        self,
        keys: Iterable[Key],
        values: Iterable[int],
        workers: int,
        method: str,
        executor: str,
    ) -> None:
        """:meth:`build` over a key and a value sequence."""
        key_seq, handles = _canonical(keys)
        values_arr = self._checked_values(values, int(handles.size))
        if not handles.size:
            return
        if has_duplicates(handles):
            raise DuplicateKey("duplicate keys within batch")
        order, jobs = partition(handles, self._shard_seed, self.num_shards)
        grouped_handles = handles[order]
        grouped_values = values_arr[order]
        offender = self._misplaced(key_seq, order, jobs, grouped_handles,
                                   False)
        if offender is not None:
            raise DuplicateKey(f"key {offender!r} already inserted")
        in_processes = executor == "process" and workers > 1 and len(jobs) > 1
        if in_processes:
            for index, _, _ in jobs:
                if len(self._shards[index]) != 0:
                    raise ValueError(
                        "executor='process' rebuilds shards from scratch "
                        f"and shard {index} already holds keys — use the "
                        "thread executor for incremental builds"
                    )
        # Dynamic inserts in this process hash every key once, here; a
        # process-built shard hashes its own keys in its child.
        hashed: List[Optional[HashedRows]] = [None] * len(jobs)
        if method == "dynamic" and not in_processes:
            masters = [shard.seed for shard in self._shards]
            ids = np.repeat(
                np.array([index for index, _, _ in jobs], dtype=np.intp),
                [hi - lo for _, lo, hi in jobs],
            )
            rows = self._reader.indices(masters, ids, grouped_handles)
            hashed = [
                (masters[index], rows[:, lo:hi]) for index, lo, hi in jobs
            ]
        shard_jobs: List[_ShardJob] = [
            (index, grouped_handles[lo:hi], grouped_values[lo:hi], method,
             one)
            for (index, lo, hi), one in zip(jobs, hashed)
        ]

        def write() -> None:
            if in_processes:
                self._build_in_processes(shard_jobs, workers)
            elif workers > 1 and len(jobs) > 1:
                self._build_in_threads(shard_jobs, workers)
            else:
                for job in shard_jobs:
                    self._build_one_shard(*job)

        started = time.perf_counter()
        self._builds_counter.inc()
        self._build_workers_gauge.set(workers)
        try:
            self._journaled(jobs, method == "dynamic", write)
        finally:
            self._build_seconds_counter.inc(time.perf_counter() - started)

    def _checked_values(
        self, values: Iterable[int], n: int
    ) -> npt.NDArray[np.uint64]:
        """``values`` as a ``uint64`` array, checked to align with ``n``
        keys and to fit the value width."""
        value_list = list(map(int, values))
        if len(value_list) != n:
            raise ValueError("keys and values must align")
        value_mask = (1 << self._value_bits) - 1
        if value_list and not (
            min(value_list) >= 0 and max(value_list) <= value_mask
        ):
            bad = next(v for v in value_list if not 0 <= v <= value_mask)
            raise ValueError(
                f"value {bad} out of range for {self._value_bits}-bit values"
            )
        return np.array(value_list, dtype=np.uint64)

    def _route_present(
        self, key_seq: Any, handles: npt.NDArray[np.uint64], once: bool
    ) -> Tuple[npt.NDArray[np.int64], List[Tuple[int, int, int]],
               npt.NDArray[np.uint64]]:
        """:func:`partition` a batch of keys that must all be present
        (updates) and, with ``once``, be named once (deletes, as a second
        delete of a key would find it gone); ``(order, jobs, grouped
        handles)``."""
        order, jobs = partition(handles, self._shard_seed, self.num_shards)
        grouped_handles = handles[order]
        offender = self._misplaced(key_seq, order, jobs, grouped_handles,
                                   True)
        if offender is None and once and has_duplicates(handles):
            seen: Set[int] = set()
            for at, handle in enumerate(handles.tolist()):
                if handle in seen:
                    offender = _key_at(key_seq, at)
                    break
                seen.add(handle)
        if offender is not None:
            raise KeyNotFound(f"key {offender!r} not inserted")
        return order, jobs, grouped_handles

    def _misplaced(
        self,
        key_seq: Any,
        order: npt.NDArray[np.int64],
        jobs: Sequence[Tuple[int, int, int]],
        grouped_handles: npt.NDArray[np.uint64],
        present: bool,
    ) -> Any:
        """The first key of the batch not ``present`` in its shard
        (updates, deletes) or, with ``present=False``, already there
        (inserts); None if there is none."""
        for index, lo, hi in jobs:
            assistant = self._shards[index]._assistant
            if not present and not len(assistant):
                continue  # an empty shard holds nothing to collide with
            for at, handle in enumerate(grouped_handles[lo:hi].tolist(), lo):
                if (handle in assistant) != present:
                    return _key_at(key_seq, int(order[at]))
        return None

    def _journaled(
        self,
        jobs: Sequence[Tuple[int, int, int]],
        reserve: bool,
        write: Callable[[], None],
    ) -> None:
        """Run ``write`` with a write journal open on every shard of
        ``jobs`` (room reserved for its appended rows when ``reserve``),
        until all of them have succeeded; on any failure roll every
        touched shard back."""
        shards = [self._shards[index] for index, _, _ in jobs]
        journals: List[Tuple[VisionEmbedder, Journal]] = []
        try:
            for shard, (_, lo, hi) in zip(shards, jobs):
                journals.append(
                    (shard, shard._open_journal(hi - lo if reserve else 0))
                )
            write()
        except BaseException:
            # Undo writes before-images back, so it is idempotent: should
            # anything interrupt the first pass, a second one finishes it.
            try:
                self._rollback(journals)
            except BaseException:
                self._rollback(journals)
                raise
            raise
        finally:
            for shard in shards:
                shard._close_journal()

    @staticmethod
    def _rollback(journals: List[Tuple[VisionEmbedder, Journal]]) -> None:
        """Undo every journaled shard, last touched first."""
        for shard, journal in reversed(journals):
            shard._undo(journal)

    def _build_one_shard(
        self,
        index: int,
        shard_handles: npt.NDArray[np.uint64],
        shard_values: npt.NDArray[np.uint64],
        method: str,
        hashed: Optional[HashedRows],
    ) -> None:
        """Write one shard's checked slice of a build; ``hashed`` is the
        ``(seed, rows)`` the front hashed a dynamic slice under."""
        shard = self._shards[index]
        if method == "static":
            shard._bulk_load_arrays(shard_handles, shard_values)
        else:
            shard.insert_batch(
                shard_handles, shard_values.tolist(), hashed=hashed
            )

    def _build_in_threads(
        self, shard_jobs: Sequence[_ShardJob], workers: int
    ) -> None:
        # Each worker mutates only its own shard (jobs are disjoint by
        # construction), so the per-shard single-writer rule holds without
        # any locking.
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(self._build_one_shard, *job) for job in shard_jobs
            ]
            for future in futures:
                future.result()

    def _build_in_processes(
        self, shard_jobs: Sequence[_ShardJob], workers: int
    ) -> None:
        from repro.core.persist import _read_embedder, _restore_embedder

        payloads = [
            (
                self._shards[index].capacity, self._value_bits,
                self.num_arrays, self.packed, self._shards[index].seed,
                self.config, shard_handles, shard_values, method,
            )
            for index, shard_handles, shard_values, method, _ in shard_jobs
        ]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_build_shard_payload, payloads))
        for (index, *_), (payload, stats) in zip(shard_jobs, results):
            shard = self._shards[index]
            # The load rewrites the whole shard: its journal keeps the
            # pre-call snapshot to roll back to.
            shard._journal_base()
            # Into the shard's own plane view: the block stays whole.
            _restore_embedder(shard, _read_embedder(io.BytesIO(payload)))
            # The child's walk counters would otherwise be lost with the
            # child process; restore them so aggregated stats still count
            # every update and reconstruction.
            for attr in STAT_FIELDS:
                value = stats[attr]
                setattr(shard.stats, attr,
                        int(value) if float(value).is_integer() else value)

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
