"""Cross-algorithm edge cases: extreme widths, key shapes, tiny tables."""

import random

import numpy as np
import pytest

from repro.core import EmbedderConfig, ShardedEmbedder, VisionEmbedder
from repro.factory import TABLE_NAMES, make_table


class TestExtremeValueWidths:
    @pytest.mark.parametrize("name", TABLE_NAMES)
    def test_64_bit_values(self, name):
        table = make_table(name, 64, 64, seed=2)
        rng = random.Random(1)
        pairs = {rng.getrandbits(48): rng.getrandbits(64) for _ in range(64)}
        if name == "bloomier":
            table.insert_many(pairs.items())
        else:
            for key, value in pairs.items():
                table.insert(key, value)
        for key, value in pairs.items():
            assert table.lookup(key) == value

    def test_64_bit_values_packed(self):
        table = VisionEmbedder(64, 64, seed=2, packed=True)
        rng = random.Random(2)
        pairs = {rng.getrandbits(48): rng.getrandbits(64) for _ in range(64)}
        for key, value in pairs.items():
            table.insert(key, value)
        table.check_invariants()

    @pytest.mark.parametrize("name", TABLE_NAMES)
    def test_1_bit_values(self, name):
        table = make_table(name, 100, 1, seed=3)
        pairs = {i * 7919 + 13: i % 2 for i in range(100)}
        if name == "bloomier":
            table.insert_many(pairs.items())
        else:
            for key, value in pairs.items():
                table.insert(key, value)
        assert all(table.lookup(k) == v for k, v in pairs.items())


class TestKeyShapes:
    def test_extreme_integer_keys(self):
        table = VisionEmbedder(16, 8, seed=1)
        keys = [0, 1, (1 << 64) - 1, 1 << 63, 1 << 100]
        for i, key in enumerate(keys):
            table.insert(key, i)
        for i, key in enumerate(keys):
            assert table.lookup(key) == i

    def test_unicode_and_empty_like_keys(self):
        table = VisionEmbedder(16, 4, seed=1)
        # Note: "" and b"" are deliberately the SAME key (canonicalised
        # through their byte encoding), so only one of them appears here.
        keys = ["", "日本語キー", "emoji🔥key", b"\x00\x00", " "]
        for i, key in enumerate(keys):
            table.insert(key, i % 16)
        for i, key in enumerate(keys):
            assert table.lookup(key) == i % 16

    def test_str_and_equivalent_bytes_are_the_same_key(self):
        # key_to_u64 canonicalises both through their byte encoding.
        from repro.core.errors import DuplicateKey

        table = VisionEmbedder(16, 4, seed=1)
        table.insert("abc", 3)
        with pytest.raises(DuplicateKey):
            table.insert(b"abc", 4)

    def test_int_and_its_le_bytes_differ(self):
        # An int key is NOT the same as its little-endian byte string: the
        # integer fast path uses the 8-byte encoding, bytes hash as given,
        # but a 3-byte bytes key pads differently. Both must coexist.
        table = VisionEmbedder(16, 4, seed=1)
        table.insert(97, 1)
        table.insert(b"a", 2)  # 1-byte string, not the 8-byte int encoding
        assert table.lookup(97) == 1
        assert table.lookup(b"a") == 2


class TestTinyTables:
    @pytest.mark.parametrize("name", ("vision", "othello", "color", "ludo"))
    def test_capacity_one(self, name):
        table = make_table(name, 1, 4, seed=5)
        table.insert("only", 7)
        assert table.lookup("only") == 7
        table.update("only", 3)
        assert table.lookup("only") == 3
        table.delete("only")
        assert len(table) == 0

    def test_empty_table_operations(self):
        table = VisionEmbedder(10, 4, seed=1)
        assert len(table) == 0
        assert table.space_efficiency == 0.0
        assert table.bits_per_key == float("inf")
        assert 0 <= table.lookup("anything") < 16
        table.reconstruct()  # reconstructing nothing is legal
        assert len(table) == 0


class TestRepeatedChurnOnSameKey:
    def test_thousand_updates_one_key(self):
        table = VisionEmbedder(100, 8, seed=6)
        rng = random.Random(6)
        for key in range(50):
            table.insert(key, 0)
        expect = {key: 0 for key in range(50)}
        for _ in range(1000):
            key = rng.randrange(50)
            value = rng.getrandbits(8)
            table.update(key, value)
            expect[key] = value
        table.check_invariants()
        assert all(table.lookup(k) == v for k, v in expect.items())

    def test_insert_delete_cycle_does_not_leak(self):
        table = VisionEmbedder(64, 4, seed=7)
        for round_number in range(200):
            table.insert("cycling", round_number % 16)
            assert table.lookup("cycling") == round_number % 16
            table.delete("cycling")
        assert len(table) == 0
        table.check_invariants()


class TestBatchEdges:
    def test_batch_of_one(self):
        table = VisionEmbedder(10, 8, seed=8)
        table.insert(5, 200)
        out = table.lookup_batch(np.array([5], dtype=np.uint64))
        assert out.tolist() == [200]

    def test_batch_with_repeated_keys(self):
        table = VisionEmbedder(10, 8, seed=8)
        table.insert(5, 200)
        out = table.lookup_batch(np.array([5, 5, 5], dtype=np.uint64))
        assert out.tolist() == [200, 200, 200]

    def test_most_shards_keep_every_key(self):
        # 256 shards is the router's limit: the last shard's slice must
        # survive both the partitioned build and the batch lookup.
        table = ShardedEmbedder(4000, 8, num_shards=256, seed=2)
        keys = np.arange(1, 3001, dtype=np.uint64)
        table.insert_many((key, key % 256) for key in keys.tolist())
        assert len(table) == 3000
        assert len(table.shards[255]) > 0
        assert np.array_equal(table.lookup_batch(keys), keys % 256)


class TestConfigEdges:
    def test_single_search_attempt(self):
        config = EmbedderConfig(max_search_attempts=1,
                                reconstruct_efficiency_limit=1.0)
        table = VisionEmbedder(200, 4, config=config, seed=9)
        rng = random.Random(9)
        for _ in range(200):
            table.put(rng.getrandbits(40), rng.getrandbits(4))
        table.check_invariants()

    def test_num_arrays_two(self):
        # The degenerate two-array geometry (an Othello-like vision table)
        # still works — it just needs two-hash-scale space.
        table = VisionEmbedder(100, 4, seed=10, num_arrays=2,
                               config=EmbedderConfig(space_factor=3.0))
        rng = random.Random(10)
        pairs = {rng.getrandbits(40): rng.getrandbits(4) for _ in range(100)}
        for key, value in pairs.items():
            table.insert(key, value)
        assert all(table.lookup(k) == v for k, v in pairs.items())
