"""VisionEmbedder: the paper's compact value-only key-value table.

Lookup reads three cells (one per array, selected by three independent hash
functions) and XORs them — constant time, fast-space only. Dynamic updates
run the vision-update search of §IV over the slow-space assistant table,
then apply one XOR increment along the resulting modification path. Failed
updates reconstruct with fresh hash seeds when the table is lightly loaded
and surface :class:`SpaceExhausted` when it is genuinely full, exactly per
the paper's §IV-B failure policy.

Typical use::

    from repro import VisionEmbedder

    table = VisionEmbedder(capacity=10_000, value_bits=8, seed=7)
    table.insert("alpha", 42)
    assert table.lookup("alpha") == 42
    table.update("alpha", 17)
    table.delete("alpha")
"""

from __future__ import annotations

import math
import random
import time
from typing import Any, Iterable, List, Optional, Sequence, Tuple

import numpy as np
import numpy.typing as npt

from repro.core.config import EmbedderConfig
from repro.core.engine import make_engine
from repro.core.packed_table import PackedValueTable
from repro.core.errors import (
    DuplicateKey,
    KeyNotFound,
    ReconstructionFailed,
    SpaceExhausted,
    UpdateFailure,
)
from repro.core.stats import TableStats
from repro.core.static_build import static_build_arrays
from repro.core.update import make_strategy, search_update_path
from repro.core.value_table import ValueTable, xor_lookup, xor_lookup_batch
from repro.hashing import HashFamily, key_to_u64, keys_to_u64_batch
from repro.obs.hooks import MetricsHooks, WalkHooks, default_metrics_enabled
from repro.table import Key, ValueOnlyTable

Cell = Tuple[int, int]


class VisionEmbedder(ValueOnlyTable):
    """Value-only KV table with constant lookup and vision updates.

    Parameters
    ----------
    capacity:
        Expected maximum number of KV pairs; the value table is provisioned
        with ``config.space_factor`` cells per expected pair (paper default
        1.7, i.e. 1.7·L bits per pair).
    value_bits:
        L — the value length in bits (1..64).
    config:
        Tunables; see :class:`repro.core.config.EmbedderConfig`.
    seed:
        Master hash seed. Reconstruction bumps it deterministically.
    packed:
        Store the fast space bit-packed (⌈m·L/64⌉ words of RAM — the
        title's bit-level compactness realised in memory) instead of one
        word per cell. Packed lookups cost a little more Python-side;
        semantics are identical.
    hooks:
        Optional tracing hooks (:class:`repro.obs.hooks.WalkHooks` shape)
        receiving walk/kick/reconstruct/peel events — see
        docs/observability.md. None (the default) keeps the write path at
        one pointer test per event site; when
        :func:`repro.obs.enable_default_metrics` is active and no hooks
        are given, a :class:`~repro.obs.hooks.MetricsHooks` over this
        table's own stats registry is attached automatically.
    """

    name = "vision"

    def __init__(
        self,
        capacity: int,
        value_bits: int,
        config: Optional[EmbedderConfig] = None,
        seed: int = 1,
        num_arrays: int = 3,
        packed: bool = False,
        hooks: Optional[WalkHooks] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.config = config if config is not None else EmbedderConfig()
        self.capacity = capacity
        self._value_bits = value_bits
        self.num_arrays = num_arrays
        self.packed = packed
        width = max(1, math.ceil(capacity * self.config.space_factor / num_arrays))
        # Duck-typed slot: plain or packed table, and the repro.check
        # tooling swaps in instrumented proxies via instrument_sync().
        table_class: Any = PackedValueTable if packed else ValueTable
        self._table = table_class(width, value_bits, num_arrays)
        # The execution engine owns the batched write path and chooses the
        # assistant implementation (AssistantTable for the scalar backend,
        # ArrayAssistant for the vector/numba backends). Both are
        # duck-compatible; single-key operations behave identically.
        self._engine = make_engine(self.config.backend)
        self._assistant: Any = self._engine.make_assistant(width, num_arrays)
        self._seed = seed
        self._hashes = HashFamily(seed, [width] * num_arrays)
        self._stats = TableStats()
        self._strategy = make_strategy(
            self.config.strategy,
            self.config.depth_policy,
            random.Random(seed ^ 0xA5A5A5A5),
            use_cache=self.config.cost_cache,
            stats=self._stats,
        )
        self._retry_rng = random.Random(seed ^ 0x0F0F0F0F)
        # Raw counter handles for the per-insert path: mutations are
        # serialised (single writer), so the bare .value increment is safe
        # and as cheap as the plain dataclass field it replaced.
        self._updates_counter = self._stats.counter_for("updates")
        self._repair_steps_counter = self._stats.counter_for("repair_steps")
        self._in_reconstruct = False
        self._hooks: Optional[WalkHooks] = None
        if hooks is None and default_metrics_enabled():
            hooks = MetricsHooks(self._stats.registry)
        if hooks is not None:
            self.set_hooks(hooks)

    # ------------------------------------------------------------------
    # ValueOnlyTable surface
    # ------------------------------------------------------------------

    @property
    def value_bits(self) -> int:
        return self._value_bits

    @property
    def space_bits(self) -> int:
        return self._table.space_bits

    @property
    def stats(self) -> TableStats:
        return self._stats

    @property
    def hooks(self) -> Optional[WalkHooks]:
        """The attached tracing hooks, or None when tracing is disabled."""
        return self._hooks

    def set_hooks(self, hooks: Optional[WalkHooks]) -> None:
        """Attach (or with None, detach) tracing hooks.

        Any object with the :class:`repro.obs.hooks.WalkHooks` methods
        works. A hooks object exposing ``subtree_histogram`` (e.g.
        :class:`~repro.obs.hooks.MetricsHooks`, or a composite containing
        one) additionally wires the GetCost-subtree histogram into the
        vision strategy; detaching clears it.
        """
        self._hooks = hooks
        if hasattr(self._strategy, "subtree_histogram"):
            self._strategy.subtree_histogram = getattr(
                hooks, "subtree_histogram", None
            )

    @property
    def seed(self) -> int:
        """The current master hash seed (changes on reconstruction)."""
        return self._seed

    @property
    def num_cells(self) -> int:
        """m: the number of value-table cells."""
        return self._table.num_cells

    @property
    def space_efficiency(self) -> float:
        """n/m — the paper's space-efficiency metric (§IV-B)."""
        return len(self._assistant) / self._table.num_cells

    def __len__(self) -> int:
        return len(self._assistant)

    def __contains__(self, key: Key) -> bool:
        return key_to_u64(key) in self._assistant

    # repro: raises(ValueError, TypeError)
    def lookup(self, key: Key) -> int:  # repro: hotpath
        """XOR of the key's three cells — fast space only, O(1)."""
        return xor_lookup(self._table, self._hashes, key_to_u64(key))

    def lookup_batch(
        self, keys: npt.NDArray[np.uint64]
    ) -> npt.NDArray[np.uint64]:  # repro: hotpath
        """Vectorised lookup over a ``uint64`` key array: one fused
        gather + XOR-reduce over every plane
        (:func:`~repro.core.value_table.xor_lookup_batch`)."""
        return xor_lookup_batch(self._table, self._hashes, keys)

    # repro: atomic
    # repro: raises(DuplicateKey, ValueError, TypeError, UpdateFailure)
    # repro: raises(SpaceExhausted, ReconstructionFailed)
    def insert(self, key: Key, value: int) -> None:  # repro: hotpath
        """Insert a new pair; dynamic update per §IV."""
        handle = key_to_u64(key)
        if handle in self._assistant:
            raise DuplicateKey(f"key {key!r} already inserted")
        self._check_value(value)
        self._assistant.add(handle, value, self._cells_for(handle))
        try:
            self._run_update(handle)
        except BaseException:
            # A failed search leaves the value table untouched, and a
            # failed apply undoes itself (UpdatePlan.apply), so dropping
            # the assistant entry restores full consistency — for *any*
            # failure (SpaceExhausted, a fault mid-walk), not just the
            # policy exceptions.
            self._assistant.remove(handle)
            raise

    # repro: atomic
    # repro: raises(DuplicateKey, ValueError, TypeError, UpdateFailure)
    # repro: raises(SpaceExhausted, ReconstructionFailed)
    def insert_batch(  # repro: hotpath
        self, keys: Iterable[Key], values: Iterable[int]
    ) -> None:
        """Insert many new pairs through the vectorised write pipeline.

        Keys are canonicalised to one ``uint64`` handle array, all cells
        are computed in a single vectorised :meth:`HashFamily.indices_batch`
        pass, and the whole batch is validated (duplicates, value range)
        before anything is registered — a rejected batch leaves the table
        untouched.

        How the walks run depends on ``config.backend``: the scalar engine
        repairs key by key, walk-for-walk identical to sequential
        :meth:`insert` calls (a property test asserts bit-equal tables);
        the vector engine retires every peelable key through the
        round-synchronous multi-walk repair and falls back to the scalar
        walker only for the rest (see :mod:`repro.core.engine`).

        If a mid-batch failure triggers reconstruction, the new seed's
        cells for the *remaining* keys are recomputed in one further
        vectorised pass. The batch is **all-or-nothing**: any mid-batch
        failure — :class:`SpaceExhausted`, a reconstruction that never
        finds a seed, or an arbitrary fault mid-walk — restores the table
        bit-for-bit to its pre-batch state (cells, assistant entries, and
        hash seed) before the exception propagates.
        """
        key_list = list(keys)
        handles = keys_to_u64_batch(key_list)
        n = len(handles)
        value_list = [int(v) for v in values]
        if len(value_list) != n:
            raise ValueError("keys and values must align")
        if n == 0:
            return
        if np.unique(handles).size != n:
            raise DuplicateKey("duplicate keys within batch")
        hits = self._assistant.contains_batch(handles)
        if bool(hits.any()):
            offender = int(np.argmax(hits))
            raise DuplicateKey(
                f"key {key_list[offender]!r} already inserted"
            )
        try:
            value_arr = np.asarray(value_list, dtype=np.uint64)
        except (OverflowError, ValueError):
            # Some value doesn't even fit uint64; the scalar check below
            # raises on the first offender with the precise message.
            for value in value_list:
                self._check_value(value)
            raise  # pragma: no cover - _check_value always raised above
        mask = np.uint64(self._table.value_mask)
        if bool((value_arr > mask).any()):
            self._check_value(value_list[int(np.argmax(value_arr > mask))])
        self._stats.note_batch(n)
        snapshot = self._snapshot_state()
        try:
            self._engine.insert_batch(self, handles, value_list)
        except BaseException:
            # All-or-nothing: a mid-batch failure rewinds cells,
            # assistant entries, and seed to the pre-batch snapshot.
            self._restore_state(snapshot)
            raise

    # repro: raises(DuplicateKey, ValueError, TypeError, UpdateFailure)
    # repro: raises(SpaceExhausted, ReconstructionFailed)
    def insert_many(self, pairs: Iterable[Tuple[Key, int]]) -> None:
        """Insert pairs via :meth:`insert_batch` (vectorised hashing).

        Unlike the base-class loop, the whole batch is validated up front:
        a duplicate or out-of-range pair rejects the batch before any
        insert happens, and a mid-batch :class:`SpaceExhausted` rolls the
        whole batch back (see :meth:`insert_batch`).
        """
        pair_list = list(pairs)
        if not pair_list:
            return
        self.insert_batch(
            [key for key, _ in pair_list], [value for _, value in pair_list]
        )

    # repro: atomic
    # repro: raises(KeyNotFound, ValueError, TypeError, UpdateFailure)
    # repro: raises(SpaceExhausted, ReconstructionFailed)
    def update(self, key: Key, value: int) -> None:
        """Change the value of an existing key; dynamic update per §IV."""
        handle = key_to_u64(key)
        if handle not in self._assistant:
            raise KeyNotFound(f"key {key!r} not inserted")
        self._check_value(value)
        old_value = self._assistant.value(handle)
        self._assistant.set_value(handle, value)
        try:
            self._run_update(handle)
        except BaseException:
            # Value table untouched on a failed search, and a failed
            # apply undoes itself; restoring the old value keeps the
            # existing pair correct on any failure.
            self._assistant.set_value(handle, old_value)
            raise

    # repro: raises(KeyNotFound, ValueError, TypeError)
    def delete(self, key: Key) -> None:
        """Remove a pair — slow-space only; the value table is untouched.

        Per §IV-C: VO tables return meaningless values for alien keys
        anyway, so deletion only needs to decrement the counters and drop
        the key from its buckets, after which the pair no longer constrains
        updates.
        """
        handle = key_to_u64(key)
        if handle not in self._assistant:
            raise KeyNotFound(f"key {key!r} not inserted")
        self._assistant.remove(handle)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    # repro: raises(DuplicateKey, ValueError, TypeError, UpdateFailure)
    # repro: raises(SpaceExhausted, ReconstructionFailed)
    @classmethod
    def from_pairs(
        cls,
        pairs: Iterable[Tuple[Key, int]],
        value_bits: int,
        config: Optional[EmbedderConfig] = None,
        seed: int = 1,
        capacity: Optional[int] = None,
        static: bool = False,
    ) -> "VisionEmbedder":
        """Build a table holding ``pairs``.

        ``static=True`` uses the O(n) peeling construction (§IV-C) instead
        of n dynamic inserts — much faster for bulk loads, identical
        result.
        """
        pair_list = list(pairs)
        if capacity is None:
            capacity = max(1, len(pair_list))
        table = cls(capacity, value_bits, config=config, seed=seed)
        if static:
            table.bulk_load(pair_list)
        else:
            table.insert_many(pair_list)
        return table

    # repro: atomic
    # repro: raises(DuplicateKey, ValueError, TypeError)
    # repro: raises(ReconstructionFailed)
    def bulk_load(self, pairs: Iterable[Tuple[Key, int]]) -> None:
        """Statically (re)build the table holding existing + new pairs.

        Uses the Bloomier-style greedy peel (§II "Static Construction",
        offered for reconstruction in §IV-C): O(n) total rather than n
        dynamic repair walks, succeeding with near-certainty at the default
        1.7 cells/key. Reseeds and retries on the rare peel stall; if no
        seed within the retry budget works, the table is restored
        bit-for-bit to its pre-call state before
        :class:`ReconstructionFailed` propagates (all-or-nothing, like
        :meth:`insert_batch`).
        """
        pair_list = list(pairs)
        if not pair_list:
            # An empty bulk load is a no-op: re-peeling the existing pairs
            # would only burn time and possibly bump the seed on a stall.
            return
        new_handles = keys_to_u64_batch([key for key, _ in pair_list])
        new_keys = new_handles.tolist()
        new_values = [int(value) for _, value in pair_list]
        if np.unique(new_handles).size != len(new_keys):
            raise DuplicateKey("duplicate keys within batch")
        hits = self._assistant.contains_batch(new_handles)
        if bool(hits.any()):
            offender = int(np.argmax(hits))
            raise DuplicateKey(
                f"key {pair_list[offender][0]!r} already inserted"
            )
        try:
            new_value_arr = np.asarray(new_values, dtype=np.uint64)
        except (OverflowError, ValueError):
            for value in new_values:
                self._check_value(value)
            raise  # pragma: no cover - _check_value always raised above
        mask = np.uint64(self._table.value_mask)
        if bool((new_value_arr > mask).any()):
            self._check_value(
                new_values[int(np.argmax(new_value_arr > mask))]
            )
        all_keys = [key for key, _ in self._assistant.pairs()]
        all_values = [value for _, value in self._assistant.pairs()]
        all_keys.extend(new_keys)
        all_values.extend(new_values)
        key_array = np.array(all_keys, dtype=np.uint64)
        self._stats.note_batch(len(new_keys))
        snapshot = self._snapshot_state()
        try:
            if hasattr(self._engine, "bulk_load_arrays"):
                # The vector engine peels directly over flat arrays,
                # skipping the per-key cells-tuple materialisation
                # entirely.
                self._engine.bulk_load_arrays(
                    self,
                    key_array,
                    np.array(all_values, dtype=np.uint64),
                    len(new_keys),
                )
                return
            for _ in range(self.config.max_reconstruct_attempts):
                self._table.clear()
                self._assistant.clear()
                try:
                    # One vectorised hashing pass per seed attempt feeds
                    # the flat-array peel directly.
                    static_build_arrays(
                        self._table,
                        self._assistant,
                        all_keys,
                        all_values,
                        [
                            arr.tolist()
                            for arr in self._hashes.indices_batch(key_array)
                        ],
                        hooks=self._hooks,
                    )
                except UpdateFailure:
                    self._stats.update_failures += 1
                    self._stats.reconstructions += 1
                    self._seed += 1
                    self._hashes = self._hashes.reseeded(self._seed)
                    continue
                self._stats.updates += len(new_keys)
                return
            raise ReconstructionFailed(
                f"static peel failed for "
                f"{self.config.max_reconstruct_attempts} seeds"
            )
        except BaseException:
            # All-or-nothing: a stalled peel (or a fault mid-build)
            # rewinds cells, assistant entries, and seed — the table
            # never stays in the cleared intermediate state.
            self._restore_state(snapshot)
            raise

    # ------------------------------------------------------------------
    # Update machinery
    # ------------------------------------------------------------------

    def _cells_for(self, handle: int) -> Tuple[Cell, ...]:  # repro: hotpath
        return tuple(enumerate(self._hashes.indices(handle)))

    def _check_value(self, value: int) -> None:
        if not 0 <= value <= self._table.value_mask:
            raise ValueError(
                f"value {value} out of range for {self._value_bits}-bit values"
            )

    def _run_update(self, handle: int) -> None:  # repro: hotpath
        """Search for a modification path and apply it; handle failure."""
        try:
            plan = search_update_path(
                self._table,
                self._assistant,
                handle,
                self._strategy,
                self.space_efficiency,
                self.config.max_repair_steps,
                max_attempts=self.config.max_search_attempts,
                rng=self._retry_rng,
                hooks=self._hooks,
            )
        except UpdateFailure as failure:
            self._stats.update_failures += 1
            self._stats.repair_steps += failure.steps
            self._handle_failure()
            return
        # Counters first, apply last: once the plan lands there is no
        # further statement a fault could interrupt between the table
        # mutation and this function's return (the apply itself undoes
        # an interrupted cell loop — see UpdatePlan.apply).
        self._updates_counter.value += 1
        self._repair_steps_counter.value += plan.steps
        plan.apply(self._table)

    def _handle_failure(self) -> None:
        """Apply the paper's failure policy (§IV-B "Update Failure")."""
        if self._in_reconstruct:
            # Let reconstruct() count this attempt and try the next seed.
            raise UpdateFailure("update failed during reconstruction")
        if self.space_efficiency >= self.config.reconstruct_efficiency_limit:
            raise SpaceExhausted(
                f"space efficiency {self.space_efficiency:.3f} is at or above "
                f"{self.config.reconstruct_efficiency_limit}; remove entries or "
                "resize the table"
            )
        if not self.config.auto_reconstruct:
            raise SpaceExhausted(
                "update failed and auto_reconstruct is disabled"
            )
        self.reconstruct()

    # repro: atomic
    # repro: raises(ValueError, ReconstructionFailed)
    def reconstruct(self, method: str = "dynamic") -> None:
        """Reseed all hash functions and rebuild both tables (§IV-C).

        ``method`` selects how the value table is repopulated, per the
        paper: ``"dynamic"`` re-inserts pair by pair with the update
        scheme; ``"static"`` runs the O(n) peeling construction.

        Each rebuild pass (reseed + rebuild) increments
        ``stats.reconstructions``; wall time accumulates in
        ``stats.reconstruct_seconds`` so throughput experiments can exclude
        it (Fig 6). Raises :class:`ReconstructionFailed` if no seed within
        the retry budget succeeds. Attached hooks receive one
        ``on_reconstruct(seed, method, seconds, success)`` event per call
        (not per reseed attempt), after the rebuild settles.
        """
        if method not in ("dynamic", "static"):
            raise ValueError("method must be 'dynamic' or 'static'")
        keys: List[int] = []
        values: List[int] = []
        for key, value in self._assistant.pairs():
            keys.append(key)
            values.append(value)
        key_array = np.array(keys, dtype=np.uint64)
        snapshot = self._snapshot_state()
        started = time.perf_counter()
        self._in_reconstruct = True
        succeeded = False
        try:
            for _ in range(self.config.max_reconstruct_attempts):
                self._stats.reconstructions += 1
                self._seed += 1
                self._hashes = self._hashes.reseeded(self._seed)
                self._table.clear()
                self._assistant.clear()
                # Every reseed recomputes every key's cells in one
                # vectorised pass instead of n×k scalar murmur calls.
                index_cols = [
                    arr.tolist()
                    for arr in self._hashes.indices_batch(key_array)
                ]
                if method == "static":
                    try:
                        static_build_arrays(
                            self._table,
                            self._assistant,
                            keys,
                            values,
                            index_cols,
                            hooks=self._hooks,
                        )
                        succeeded = True
                        return
                    except UpdateFailure:
                        continue
                elif self._try_rebuild(keys, values, index_cols):
                    succeeded = True
                    return
            raise ReconstructionFailed(
                f"no working seed within {self.config.max_reconstruct_attempts} "
                "reconstruction attempts"
            )
        except BaseException:
            # All-or-nothing: an exhausted retry budget (or a fault
            # mid-rebuild) rewinds cells, assistant entries, and seed to
            # the pre-reconstruct state instead of leaving a cleared
            # half-rebuilt table behind.
            self._restore_state(snapshot)
            raise
        finally:
            self._in_reconstruct = False
            elapsed = time.perf_counter() - started
            self._stats.reconstruct_seconds += elapsed
            if self._hooks is not None:
                self._hooks.on_reconstruct(
                    self._seed, method, elapsed, succeeded
                )

    def _try_rebuild(
        self,
        keys: Sequence[int],
        values: Sequence[int],
        index_cols: Sequence[Sequence[int]],
    ) -> bool:
        """One rebuild pass; False if any insert's update fails."""
        num_arrays = self.num_arrays
        for inserted, (key, value) in enumerate(zip(keys, values)):
            cells = tuple(
                (j, index_cols[j][inserted]) for j in range(num_arrays)
            )
            self._assistant.add(key, value, cells)
            try:
                plan = search_update_path(
                    self._table,
                    self._assistant,
                    key,
                    self._strategy,
                    (inserted + 1) / self._table.num_cells,
                    self.config.max_repair_steps,
                    max_attempts=self.config.max_search_attempts,
                    rng=self._retry_rng,
                    hooks=self._hooks,
                )
            except UpdateFailure:
                return False
            plan.apply(self._table)
            self._repair_steps_counter.value += plan.steps
        return True

    # ------------------------------------------------------------------
    # Rollback machinery (the strong exception guarantee)
    # ------------------------------------------------------------------

    def _snapshot_state(
        self,
    ) -> Tuple[int, npt.NDArray[np.uint64], List[Tuple[int, int]]]:
        """Capture ``(seed, dense cells, assistant pairs)`` for rollback.

        Everything bit-equality is judged on: the XOR planes as one dense
        array, the registered pairs, and the hash seed (a reconstruction
        mid-operation bumps it; rolling back must rewind it too).
        """
        return (
            self._seed,
            self._table.to_dense(),
            list(self._assistant.pairs()),
        )

    def _restore_state(
        self,
        snapshot: Tuple[int, npt.NDArray[np.uint64], List[Tuple[int, int]]],
    ) -> None:
        """Rewind to a :meth:`_snapshot_state` snapshot bit-for-bit."""
        seed, dense, pairs = snapshot
        if self._seed != seed:
            self._seed = seed
            self._hashes = self._hashes.reseeded(seed)
        self._table.load_dense(dense)
        self._assistant.clear()
        if pairs:
            handles = np.array([key for key, _ in pairs], dtype=np.uint64)
            index_cols = [
                arr.tolist() for arr in self._hashes.indices_batch(handles)
            ]
            for i, (key, value) in enumerate(pairs):
                self._assistant.add(
                    key, value,
                    tuple((j, index_cols[j][i])
                          for j in range(self.num_arrays)),
                )

    # ------------------------------------------------------------------
    # Introspection used by tests
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Assert every live key's equation holds and bookkeeping agrees."""
        self._assistant.check_consistency()
        for key, value in self._assistant.pairs():
            actual = self._table.xor_sum(self._assistant.cells(key))
            assert actual == value, (
                f"equation broken for key {key}: table says {actual}, "
                f"assistant says {value}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        stats = self._stats
        return (
            f"VisionEmbedder(n={len(self)}, m={self.num_cells}, "
            f"L={self._value_bits}, strategy={self.config.strategy!r}, "
            f"cost_cache_hit_rate={stats.cost_cache_hit_rate:.2f}, "
            f"batches={stats.batch_inserts} (largest {stats.largest_batch}))"
        )
