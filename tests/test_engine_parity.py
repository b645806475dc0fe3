"""The write path's batch semantics, the columnar slow space, kernels.

- ``insert_batch`` validates the whole batch first and is all-or-nothing:
  a rejected or failed batch leaves the table bit-equal to its pre-batch
  state.
- The columnar :class:`~repro.core.assistant_table.AssistantTable`
  matches a plain dict-of-sets model of §III under random operation
  interleavings.
- The batched plane kernels (``gather_xor``, ``xor_batch``, the packed
  dense round trip) agree with per-cell reads and writes.
"""

import random

import numpy as np
import pytest

from repro.core import (
    AssistantTable,
    DuplicateKey,
    EmbedderConfig,
    SpaceExhausted,
    VisionEmbedder,
)
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


class TestBatchSemantics:
    def test_space_exhausted_aborts_cleanly(self):
        """A SpaceExhausted mid-batch rolls the whole batch back: the
        table is bit-equal to its pre-batch state (strong exception
        guarantee), not left holding a walked prefix."""
        table = VisionEmbedder(
            30, 8, seed=1,
            config=EmbedderConfig(reconstruct_efficiency_limit=0.3),
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
            config=EmbedderConfig(reconstruct_efficiency_limit=0.3),
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
        table = VisionEmbedder(200, 8, seed=4)
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
        table = VisionEmbedder(100, 16, seed=2)
        keys = ["alpha", b"beta", 17, "delta"]
        values = [1, 2, 3, 4]
        table.insert_batch(keys, values)
        assert table.lookup_many(keys).tolist() == values

    def test_sharded_and_baseline_default(self):
        sharded = make_table("vision-sharded", 200, 12, seed=3, num_shards=4)
        keys = [f"key-{i}" for i in range(120)]
        values = [i % 4096 for i in range(120)]
        sharded.insert_batch(keys, values)
        assert sharded.lookup_many(keys).tolist() == values
        sharded.check_invariants()

        bloomier = make_table("bloomier", 50, 8, seed=1)
        bloomier.insert_many([(f"b{i}", i % 256) for i in range(30)])
        got = bloomier.lookup_many([f"b{i}" for i in range(30)])
        assert got.tolist() == [i % 256 for i in range(30)]

