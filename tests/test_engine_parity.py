"""Array-native engine: backend parity, the columnar slow space, kernels.

The contract under test (docs/architecture.md "Execution engines"):

- The vector engine's batch schedule is *specified* by
  :class:`~repro.core.engine.ReferenceVectorEngine` — the same
  base-occupancy-masked peel and scalar-walker remainder executed with
  per-key Python loops. Parity is walk for walk: bit-equal value tables
  and equal stats counters after arbitrary mixed sequences.
- Single-key operations (insert/update/delete) are bit-identical across
  backends: repair walks depend only on the assistant's structure, and
  every backend runs over the same assistant.
- ``bulk_load`` is bit-identical across backends (same peel rounds, same
  reverse-round assignment).
- The columnar :class:`~repro.core.assistant_table.AssistantTable`
  matches a plain dict-of-sets model of §III under random operation
  interleavings.
"""

import random

import numpy as np
import pytest

from repro.core import (
    AssistantTable,
    DuplicateKey,
    EmbedderConfig,
    ReferenceVectorEngine,
    ScalarEngine,
    SpaceExhausted,
    VectorEngine,
    VisionEmbedder,
    make_engine,
)
from repro.core.engine import peel_rounds_masked
from repro.core.packed_table import PackedValueTable
from repro.core.value_table import ValueTable
from repro.factory import make_table


def _workload(n, value_bits, seed):
    rng = random.Random(seed)
    keys = []
    seen = set()
    while len(keys) < n:
        key = rng.getrandbits(48)
        if key not in seen:
            seen.add(key)
            keys.append(key)
    values = [rng.getrandbits(value_bits) for _ in range(n)]
    return keys, values


def _make_pair(capacity, value_bits, seed, packed=False, **config_kwargs):
    """A vector-backend embedder and its reference-engine twin."""
    vec = VisionEmbedder(
        capacity, value_bits, seed=seed, packed=packed,
        config=EmbedderConfig(backend="vector", **config_kwargs),
    )
    ref = VisionEmbedder(
        capacity, value_bits, seed=seed, packed=packed,
        config=EmbedderConfig(**config_kwargs),
    )
    ref._engine = ReferenceVectorEngine()
    return vec, ref


def _assert_stats_equal(left, right):
    from repro.core.stats import STAT_FIELDS

    for attr in STAT_FIELDS:
        if attr == "reconstruct_seconds":  # wall clock, never bit-equal
            continue
        assert getattr(left.stats, attr) == getattr(right.stats, attr), attr


def _assert_twins(vec, ref):
    vec.check_invariants()
    ref.check_invariants()
    assert vec._table == ref._table
    _assert_stats_equal(vec, ref)
    assert vec.seed == ref.seed


class TestVectorReferenceParity:
    @pytest.mark.parametrize("packed", [False, True])
    @pytest.mark.parametrize("n", [0, 1, 7, 500])
    def test_single_batch_parity(self, n, packed):
        vec, ref = _make_pair(1000, 16, seed=3, packed=packed)
        keys, values = _workload(n, 16, seed=n + 1)
        vec.insert_batch(keys, values)
        ref.insert_batch(keys, values)
        _assert_twins(vec, ref)
        assert vec.lookup_many(keys).tolist() == values

    @pytest.mark.parametrize("seed", [1, 5, 11])
    def test_mixed_sequence_parity(self, seed):
        """Batches, deletes, updates, and reconstruction, in lockstep."""
        vec, ref = _make_pair(400, 12, seed=seed)
        rng = random.Random(seed * 7)
        live = []
        fresh = iter(range(1, 10_000))
        for round_index in range(6):
            size = rng.choice([0, 1, 13, 60])
            batch = [next(fresh) for _ in range(size)]
            values = [rng.getrandbits(12) for _ in batch]
            vec.insert_batch(batch, values)
            ref.insert_batch(batch, values)
            live.extend(batch)
            for _ in range(min(len(live), rng.randrange(0, 8))):
                victim = live.pop(rng.randrange(len(live)))
                vec.delete(victim)
                ref.delete(victim)
            for _ in range(min(len(live), 3)):
                target = rng.choice(live)
                value = rng.getrandbits(12)
                vec.update(target, value)
                ref.update(target, value)
            _assert_twins(vec, ref)
        vec.reconstruct()
        ref.reconstruct()
        _assert_twins(vec, ref)

    def test_collision_fallback_parity(self):
        """High base occupancy forces blocked cells and real fallback walks.

        A second batch onto an already half-full small table leaves many
        candidate cells pinned (base_counts > 0), so the peel retires only
        part of the batch and the rest goes through the scalar walker —
        in both engines, identically.
        """
        vec, ref = _make_pair(120, 10, seed=9)
        first_keys, first_values = _workload(55, 10, seed=1)
        vec.insert_batch(first_keys, first_values)
        ref.insert_batch(first_keys, first_values)
        second_keys, second_values = _workload(40, 10, seed=2)
        second_keys = [k for k in second_keys if k not in set(first_keys)]
        second_values = second_values[: len(second_keys)]
        vec.insert_batch(second_keys, second_values)
        ref.insert_batch(second_keys, second_values)
        _assert_twins(vec, ref)
        # The fallback genuinely ran: some of the second batch was blocked.
        from repro.obs import json_snapshot

        counters = json_snapshot(vec.metrics)["counters"]
        assert counters["repro_engine_fallback_walks_total"]["value"] > 0

    def test_bulk_load_parity_across_backends(self):
        keys, values = _workload(300, 12, seed=4)
        scalar = VisionEmbedder(400, 12, seed=6)
        vector = VisionEmbedder(
            400, 12, seed=6, config=EmbedderConfig(backend="vector")
        )
        scalar.bulk_load(zip(keys, values))
        vector.bulk_load(zip(keys, values))
        scalar.check_invariants()
        vector.check_invariants()
        assert scalar._table == vector._table
        _assert_stats_equal(scalar, vector)
        assert scalar.seed == vector.seed

    def test_bulk_load_parity_on_nonempty_table(self):
        keys, values = _workload(200, 12, seed=8)
        scalar = VisionEmbedder(400, 12, seed=2)
        vector = VisionEmbedder(
            400, 12, seed=2, config=EmbedderConfig(backend="vector")
        )
        scalar.insert_batch(keys[:50], values[:50])
        vector.insert_batch(keys[:50], values[:50])
        scalar.bulk_load(zip(keys[50:], values[50:]))
        vector.bulk_load(zip(keys[50:], values[50:]))
        scalar.check_invariants()
        vector.check_invariants()
        # bulk_load re-peels everything from the assistant's pairs, which
        # both backends keep in the same registration order.
        assert scalar._table == vector._table
        assert scalar.seed == vector.seed


class TestCrossBackendSingleKeyOps:
    @pytest.mark.parametrize("backend", ["vector"])
    def test_single_key_sequences_bit_equal(self, backend):
        """insert/update/delete walk-for-walk identical to the scalar
        backend: trajectories depend only on assistant structure."""
        scalar = VisionEmbedder(150, 12, seed=5)
        other = VisionEmbedder(
            150, 12, seed=5, config=EmbedderConfig(backend=backend)
        )
        rng = random.Random(13)
        keys, values = _workload(80, 12, seed=3)
        live = []
        for key, value in zip(keys, values):
            scalar.insert(key, value)
            other.insert(key, value)
            live.append(key)
            if rng.random() < 0.2:
                victim = live.pop(rng.randrange(len(live)))
                scalar.delete(victim)
                other.delete(victim)
            if live and rng.random() < 0.3:
                target = rng.choice(live)
                new_value = rng.getrandbits(12)
                scalar.update(target, new_value)
                other.update(target, new_value)
            assert scalar._table == other._table
        _assert_stats_equal(scalar, other)
        scalar.check_invariants()
        other.check_invariants()


class TestBatchSemantics:
    def test_space_exhausted_aborts_cleanly(self):
        """A SpaceExhausted mid-batch rolls the whole batch back: the
        table is bit-equal to its pre-batch state (strong exception
        guarantee), not left holding a walked prefix."""
        table = VisionEmbedder(
            30, 8, seed=1,
            config=EmbedderConfig(
                backend="vector", reconstruct_efficiency_limit=0.3,
            ),
        )
        keys, values = _workload(40, 8, seed=2)
        baseline = table._table.copy()
        baseline_pairs = sorted(table._assistant.pairs())
        with pytest.raises(SpaceExhausted):
            table.insert_batch(keys, values)
        table.check_invariants()
        assert table._table == baseline
        assert sorted(table._assistant.pairs()) == baseline_pairs
        assert len(table) == 0
        assert not any(k in table for k in keys)

    def test_space_exhausted_rollback_scalar_backend(self):
        """Same strong guarantee on the scalar engine: a mid-batch
        SpaceExhausted leaves the table bit-equal to pre-batch."""
        table = VisionEmbedder(
            30, 8, seed=1,
            config=EmbedderConfig(
                backend="scalar", reconstruct_efficiency_limit=0.3,
            ),
        )
        keys, values = _workload(40, 8, seed=2)
        baseline = table._table.copy()
        baseline_pairs = sorted(table._assistant.pairs())
        with pytest.raises(SpaceExhausted):
            table.insert_batch(keys, values)
        table.check_invariants()
        assert table._table == baseline
        assert sorted(table._assistant.pairs()) == baseline_pairs
        assert len(table) == 0

    def test_rejected_batch_leaves_table_untouched(self):
        table = VisionEmbedder(
            200, 8, seed=4, config=EmbedderConfig(backend="vector")
        )
        table.insert_batch([1, 2, 3], [4, 5, 6])
        baseline = table._table.copy()
        with pytest.raises(DuplicateKey):
            table.insert_batch([10, 10], [1, 1])
        with pytest.raises(DuplicateKey):
            table.insert_batch([2, 99], [1, 1])
        with pytest.raises(ValueError):
            table.insert_batch([50, 51], [1, 999])
        with pytest.raises(ValueError):
            table.insert_batch([52, 53], [1, -1])
        with pytest.raises(ValueError):
            table.insert_batch([54], [1 << 70])
        assert table._table == baseline
        assert len(table) == 3
        table.check_invariants()

    def test_engine_metrics_registered_lazily(self):
        scalar = VisionEmbedder(100, 8, seed=1)
        scalar.insert_batch([1, 2], [3, 4])
        vector = VisionEmbedder(
            100, 8, seed=1, config=EmbedderConfig(backend="vector")
        )
        vector.insert_batch([1, 2, 3], [4, 5, 6])
        from repro.obs import json_snapshot

        snapshot = json_snapshot(vector.metrics)
        counters = snapshot["counters"]
        assert counters["repro_engine_peeled_total"]["value"] == 3
        assert "repro_engine_fallback_walks_total" in counters
        assert "repro_engine_frontier_peak" in snapshot["gauges"]
        scalar_snapshot = json_snapshot(scalar.metrics)
        assert not any(
            "repro_engine" in name
            for section in ("counters", "gauges")
            for name in scalar_snapshot[section]
        )


class TestPeelRoundsMasked:
    def test_base_occupancy_blocks_cells(self):
        # Key 0 -> cells 0, 4, 8; key 1 -> cells 1, 4, 9. Cell 0 blocked
        # by a pre-existing key: key 0 must peel through 8, key 1 has 1
        # and 9 free.
        flat_mat = np.array([[0, 1], [4, 4], [8, 9]], dtype=np.int64)
        base = np.zeros(12, dtype=np.int64)
        base[0] = 1
        rounds, mask = peel_rounds_masked(flat_mat, 12, base)
        assert mask.tolist() == [True, True]
        peeled = {
            int(key): int(own)
            for keys, own in rounds
            for key, own in zip(keys, own)
        }
        assert peeled[0] == 8  # cell 0 blocked, cell 4 shared
        assert peeled[1] == 1  # lowest free singleton wins

    def test_fully_blocked_batch_peels_nothing(self):
        flat_mat = np.array([[0], [4], [8]], dtype=np.int64)
        base = np.ones(12, dtype=np.int64)
        rounds, mask = peel_rounds_masked(flat_mat, 12, base)
        assert rounds == []
        assert mask.tolist() == [False]

    def test_two_core_left_unpeeled(self):
        # Two keys sharing all three cells: neither ever reaches degree 1.
        flat_mat = np.array([[0, 0], [4, 4], [8, 8]], dtype=np.int64)
        rounds, mask = peel_rounds_masked(
            flat_mat, 12, np.zeros(12, dtype=np.int64)
        )
        assert mask.tolist() == [False, False]
        assert rounds == []


class _ModelAssistant:
    """§III as written: one set of keys per cell, plus key → (value, cells)."""

    def __init__(self):
        self.buckets = {}
        self.pairs = {}

    def add(self, key, value, cells):
        assert key not in self.pairs
        self.pairs[key] = (value, cells)
        for cell in cells:
            self.buckets.setdefault(cell, set()).add(key)

    def remove(self, key):
        _, cells = self.pairs.pop(key)
        for cell in cells:
            self.buckets[cell].discard(key)


class TestArrayAssistantBehaviour:
    def test_random_interleaving_matches_assistant_table(self):
        """Single adds, batch adds, removes and value changes, with enough
        churn that the columns compact several times."""
        width, num_arrays = 37, 3
        model = _ModelAssistant()
        candidate = AssistantTable(width, num_arrays)
        rng = random.Random(99)
        next_key = iter(range(1, 100_000))

        def random_cells():
            return tuple(
                (j, rng.randrange(width)) for j in range(num_arrays)
            )

        for step in range(1500):
            op = rng.random()
            if op < 0.35 or not model.pairs:
                key = next(next_key)
                value = rng.getrandbits(16)
                cells = random_cells()
                model.add(key, value, cells)
                candidate.add(key, value, cells)
            elif op < 0.45:
                size = rng.randrange(1, 9)
                keys = [next(next_key) for _ in range(size)]
                values = [rng.getrandbits(16) for _ in keys]
                cells_list = [random_cells() for _ in keys]
                for key, value, cells in zip(keys, values, cells_list):
                    model.add(key, value, cells)
                candidate.add_batch_arrays(
                    np.array(keys, dtype=np.uint64),
                    np.array(values, dtype=np.uint64),
                    np.array(
                        [[j * width + t for j, t in cells]
                         for cells in cells_list],
                        dtype=np.int64,
                    ).T,
                )
            elif op < 0.80:
                key = rng.choice(list(model.pairs))
                model.remove(key)
                candidate.remove(key)
            else:
                key = rng.choice(list(model.pairs))
                value = rng.getrandbits(16)
                model.pairs[key] = (value, model.pairs[key][1])
                candidate.set_value(key, value)

            assert len(model.pairs) == len(candidate)
            probe = rng.choice(list(model.pairs)) if model.pairs else 1
            assert (probe in model.pairs) == (probe in candidate)
            if model.pairs:
                value, cells = model.pairs[probe]
                assert candidate.value(probe) == value
                assert candidate.cells(probe) == cells
            cell = (rng.randrange(num_arrays), rng.randrange(width))
            members = model.buckets.get(cell, set())
            assert candidate.count_at(cell) == len(members)
            assert set(candidate.keys_at(cell)) == members
        assert list(candidate.pairs()) == [
            (key, value) for key, (value, _) in model.pairs.items()
        ]
        candidate.check_consistency()
        probes = np.array(
            [*list(model.pairs)[:5], 0, 999_999_999], dtype=np.uint64
        )
        assert candidate.contains_batch(probes).tolist() == [
            int(key) in model.pairs for key in probes
        ]

    def test_clear_resets_and_bumps_epoch(self):
        assistant = AssistantTable(11, 3)
        assistant.add(5, 7, ((0, 1), (1, 2), (2, 3)))
        assistant.clear()
        assert len(assistant) == 0
        assert assistant.count_at((0, 1)) == 0
        assert assistant.keys_at((0, 1)) == ()
        assistant.add(5, 9, ((0, 1), (1, 2), (2, 3)))
        assert assistant.value(5) == 9

    def test_add_batch_rejects_atomically(self):
        assistant = AssistantTable(11, 3)
        assistant.add(5, 7, ((0, 1), (1, 2), (2, 3)))
        flats = np.array([[0, 1], [11, 12], [22, 23]], dtype=np.int64)
        with pytest.raises(KeyError):
            assistant.add_batch_arrays(
                np.array([6, 5], dtype=np.uint64),
                np.array([1, 1], dtype=np.uint64), flats,
            )
        with pytest.raises(KeyError):
            assistant.add_batch_arrays(
                np.array([7, 7], dtype=np.uint64),
                np.array([1, 1], dtype=np.uint64), flats,
            )
        assert len(assistant) == 1
        assert 6 not in assistant
        assistant.check_consistency()


class TestKernels:
    @pytest.mark.parametrize("value_bits", [12, 31, 64])
    @pytest.mark.parametrize("table_class", [ValueTable, PackedValueTable])
    def test_gather_xor_matches_scalar(self, table_class, value_bits):
        rng = random.Random(value_bits)
        table = table_class(29, value_bits)
        for flat in range(table.num_cells):
            table.set(
                (flat // 29, flat % 29), rng.getrandbits(value_bits)
            )
        flats = [
            [rng.randrange(29) + j * 29 for _ in range(40)]
            for j in range(3)
        ]
        flat_mat = np.array(flats, dtype=np.int64)
        got = table.gather_xor(flat_mat)
        for i in range(40):
            expected = 0
            for j in range(3):
                flat = flats[j][i]
                expected ^= table.get((flat // 29, flat % 29))
            assert int(got[i]) == expected

    @pytest.mark.parametrize("value_bits", [12, 31, 64])
    @pytest.mark.parametrize("table_class", [ValueTable, PackedValueTable])
    def test_xor_batch_matches_scalar(self, table_class, value_bits):
        rng = random.Random(value_bits * 3)
        vectorised = table_class(23, value_bits)
        scalar = table_class(23, value_bits)
        # Repeated cells must accumulate like sequential scalar XORs.
        flat_cells = [rng.randrange(vectorised.num_cells) for _ in range(90)]
        flat_cells += flat_cells[:10]
        deltas = [rng.getrandbits(value_bits) for _ in flat_cells]
        vectorised.xor_batch(
            np.array(flat_cells, dtype=np.int64),
            np.array(deltas, dtype=np.uint64),
        )
        for flat, delta in zip(flat_cells, deltas):
            scalar.xor((flat // 23, flat % 23), delta)
        assert vectorised == scalar

    @pytest.mark.parametrize("value_bits", [1, 12, 31, 63, 64])
    def test_packed_load_dense_round_trip(self, value_bits):
        rng = random.Random(value_bits * 5)
        table = PackedValueTable(21, value_bits)
        dense = np.array(
            [[rng.getrandbits(value_bits) for _ in range(21)]
             for _ in range(3)],
            dtype=np.uint64,
        )
        table.load_dense(dense)
        assert np.array_equal(table.to_dense(), dense)
        for j in range(3):
            for t in range(21):
                assert table.get((j, t)) == int(dense[j, t])


class TestLookupMany:
    def test_embedder_mixed_key_types(self):
        table = VisionEmbedder(
            100, 16, seed=2, config=EmbedderConfig(backend="vector")
        )
        keys = ["alpha", b"beta", 17, "delta"]
        values = [1, 2, 3, 4]
        table.insert_batch(keys, values)
        assert table.lookup_many(keys).tolist() == values

    def test_sharded_and_baseline_default(self):
        sharded = make_table(
            "vision-sharded", 200, 12, seed=3, num_shards=4,
            backend="vector",
        )
        keys = [f"key-{i}" for i in range(120)]
        values = [i % 4096 for i in range(120)]
        sharded.insert_batch(keys, values)
        assert sharded.lookup_many(keys).tolist() == values
        sharded.check_invariants()

        bloomier = make_table("bloomier", 50, 8, seed=1)
        bloomier.insert_many([(f"b{i}", i % 256) for i in range(30)])
        got = bloomier.lookup_many([f"b{i}" for i in range(30)])
        assert got.tolist() == [i % 256 for i in range(30)]


class TestBackendSelection:
    def test_factory_backend_kwarg(self):
        for name in ("vision", "vision-mt", "vision-sharded"):
            table = make_table(name, 100, 8, backend="vector")
            assert table.config.backend == "vector"
        vision = make_table("vision", 100, 8, backend="vector")
        assert isinstance(vision._engine, VectorEngine)

    def test_config_rejects_unknown_backend(self):
        with pytest.raises(ValueError):
            EmbedderConfig(backend="gpu")

    def test_make_engine_names(self):
        assert isinstance(make_engine("scalar"), ScalarEngine)
        assert isinstance(make_engine("vector"), VectorEngine)
        with pytest.raises(ValueError):
            make_engine("cuda")

    def test_sharded_shards_inherit_backend(self):
        sharded = make_table(
            "vision-sharded", 100, 8, num_shards=2, backend="vector"
        )
        for shard in sharded.shards:
            assert isinstance(shard._engine, VectorEngine)
            assert isinstance(shard._assistant, AssistantTable)
