"""Bit-packed fast-space storage: semantics and real memory compactness."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.packed_table import PackedValueTable
from repro.core.value_table import ValueTable


class TestGeometry:
    def test_space_bits_analytic(self):
        table = PackedValueTable(width=100, value_bits=7)
        assert table.space_bits == 2100
        assert table.num_cells == 300

    def test_backing_is_actually_compact(self):
        # 3000 one-bit cells: ~47 words + pad, not 3000 words.
        table = PackedValueTable(width=1000, value_bits=1)
        assert table.backing_bytes <= (3000 // 64 + 2) * 8
        dense = ValueTable(width=1000, value_bits=1)
        assert table.backing_bytes < dense._cells.nbytes / 50

    @pytest.mark.parametrize("width,bits,arrays", [(0, 4, 3), (4, 0, 3),
                                                   (4, 65, 3), (4, 4, 1)])
    def test_invalid_parameters(self, width, bits, arrays):
        with pytest.raises(ValueError):
            PackedValueTable(width=width, value_bits=bits, num_arrays=arrays)


@pytest.mark.parametrize("value_bits", [1, 3, 5, 8, 13, 32, 63, 64])
class TestAgainstDenseReference:
    """Every operation must agree with the word-per-cell reference table."""

    def _tables(self, value_bits, width=37):
        return (
            PackedValueTable(width, value_bits),
            ValueTable(width, value_bits),
        )

    def test_set_get_roundtrip(self, value_bits):
        packed, dense = self._tables(value_bits)
        rng = random.Random(value_bits)
        for _ in range(300):
            cell = (rng.randrange(3), rng.randrange(37))
            value = rng.getrandbits(value_bits)
            packed.set(cell, value)
            dense.set(cell, value)
        for j in range(3):
            for t in range(37):
                assert packed.get((j, t)) == dense.get((j, t))

    def test_xor_agrees(self, value_bits):
        packed, dense = self._tables(value_bits)
        rng = random.Random(value_bits + 99)
        for _ in range(300):
            cell = (rng.randrange(3), rng.randrange(37))
            delta = rng.getrandbits(value_bits)
            packed.xor(cell, delta)
            dense.xor(cell, delta)
        for j in range(3):
            for t in range(37):
                assert packed.get((j, t)) == dense.get((j, t))

    def test_lookup_batch_agrees(self, value_bits):
        packed, dense = self._tables(value_bits)
        rng = random.Random(value_bits + 7)
        for _ in range(200):
            cell = (rng.randrange(3), rng.randrange(37))
            value = rng.getrandbits(value_bits)
            packed.set(cell, value)
            dense.set(cell, value)
        indices = [np.random.default_rng(j).integers(0, 37, size=100)
                   for j in range(3)]
        flat_mat = np.stack([indices[j] + j * 37 for j in range(3)])
        assert np.array_equal(
            packed.gather_xor(flat_mat), dense.gather_xor(flat_mat)
        )

    def test_to_dense_matches(self, value_bits):
        packed, dense = self._tables(value_bits)
        rng = random.Random(value_bits + 3)
        for _ in range(100):
            cell = (rng.randrange(3), rng.randrange(37))
            value = rng.getrandbits(value_bits)
            packed.set(cell, value)
            dense.set(cell, value)
        assert np.array_equal(packed.to_dense(), dense._cells)


class TestLifecycle:
    def test_clear(self):
        table = PackedValueTable(8, 5)
        table.set((1, 3), 17)
        table.clear()
        assert table.get((1, 3)) == 0

    def test_copy_independent(self):
        table = PackedValueTable(8, 5)
        table.set((0, 0), 9)
        clone = table.copy()
        clone.set((0, 0), 3)
        assert table.get((0, 0)) == 9

    def test_equality(self):
        a = PackedValueTable(8, 5)
        b = PackedValueTable(8, 5)
        assert a == b
        b.set((2, 7), 1)
        assert a != b

    def test_load_dense_roundtrip(self):
        table = PackedValueTable(9, 6)
        rng = np.random.default_rng(1)
        dense = rng.integers(0, 64, size=(3, 9), dtype=np.uint64)
        table.load_dense(dense)
        assert np.array_equal(table.to_dense(), dense)

    def test_load_dense_shape_checked(self):
        with pytest.raises(ValueError):
            PackedValueTable(9, 6).load_dense(np.zeros((3, 8), dtype=np.uint64))

    @settings(deadline=None, max_examples=30)
    @given(st.integers(1, 64), st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 10),
                  st.integers(0, (1 << 64) - 1)),
        max_size=30,
    ))
    def test_model_based(self, value_bits, writes):
        table = PackedValueTable(11, value_bits)
        model = {}
        mask = (1 << value_bits) - 1
        for j, t, value in writes:
            table.set((j, t), value & mask)
            model[(j, t)] = value & mask
        for cell, value in model.items():
            assert table.get(cell) == value


class TestPackedEmbedder:
    def test_full_lifecycle(self):
        from repro.core import VisionEmbedder

        table = VisionEmbedder(1500, value_bits=3, seed=4, packed=True)
        rng = random.Random(4)
        pairs = {}
        while len(pairs) < 1500:
            pairs[rng.getrandbits(44)] = rng.getrandbits(3)
        for key, value in pairs.items():
            table.insert(key, value)
        table.check_invariants()
        keys = np.fromiter(pairs, dtype=np.uint64)
        expected = np.array([pairs[int(k)] for k in keys], dtype=np.uint64)
        assert np.array_equal(table.lookup_batch(keys), expected)
        # Real compactness: ~1.7*3 bits per pair, so ~1 KB for 1500 pairs.
        assert table._table.backing_bytes < 2048

    def test_packed_matches_unpacked_lookups(self):
        from repro.core import VisionEmbedder

        rng = random.Random(6)
        pairs = {rng.getrandbits(44): rng.getrandbits(8) for _ in range(500)}
        packed = VisionEmbedder(500, 8, seed=2, packed=True)
        unpacked = VisionEmbedder(500, 8, seed=2, packed=False)
        for key, value in pairs.items():
            packed.insert(key, value)
            unpacked.insert(key, value)
        keys = np.fromiter(pairs, dtype=np.uint64)
        assert np.array_equal(
            packed.lookup_batch(keys), unpacked.lookup_batch(keys)
        )

    def test_packed_persistence(self, tmp_path):
        from repro.core import VisionEmbedder
        from repro.core.persist import load_embedder, save_embedder

        table = VisionEmbedder(300, 4, seed=3, packed=True)
        rng = random.Random(3)
        pairs = {rng.getrandbits(44): rng.getrandbits(4) for _ in range(300)}
        for key, value in pairs.items():
            table.insert(key, value)
        path = tmp_path / "packed.npz"
        save_embedder(table, path)
        loaded = load_embedder(path)
        assert loaded.packed is True
        for key, value in pairs.items():
            assert loaded.lookup(key) == value

    def test_packed_replication(self):
        from repro.core.replication import (
            DataPlaneReplica,
            PublishingVisionEmbedder,
        )

        publisher = PublishingVisionEmbedder(200, 4, seed=5, packed=True)
        replica = DataPlaneReplica()
        publisher.subscribe(replica.apply)
        rng = random.Random(5)
        pairs = {rng.getrandbits(40): rng.getrandbits(4) for _ in range(200)}
        for key, value in pairs.items():
            publisher.insert(key, value)
        assert replica.state_equals(publisher)
        for key, value in pairs.items():
            assert replica.lookup(key) == value
