"""VisionEmbedder: the full dynamic table API and failure policy."""

import random

import numpy as np
import pytest

from repro.core import (
    DuplicateKey,
    EmbedderConfig,
    KeyNotFound,
    SpaceExhausted,
    VisionEmbedder,
)
from repro.core.config import DepthPolicy


def _random_pairs(n, value_bits, seed):
    rng = random.Random(seed)
    pairs = {}
    while len(pairs) < n:
        pairs[rng.getrandbits(48)] = rng.getrandbits(value_bits)
    return pairs


def _filled(n=500, value_bits=8, seed=3, **kwargs):
    table = VisionEmbedder(n, value_bits, seed=seed, **kwargs)
    pairs = _random_pairs(n, value_bits, seed)
    for key, value in pairs.items():
        table.insert(key, value)
    return table, pairs


class TestBasicOperations:
    def test_insert_lookup_roundtrip(self):
        table, pairs = _filled(400)
        for key, value in pairs.items():
            assert table.lookup(key) == value

    def test_len_and_contains(self):
        table, pairs = _filled(100)
        assert len(table) == 100
        key = next(iter(pairs))
        assert key in table
        assert (1 << 63) + 12345 not in table

    def test_duplicate_insert_rejected(self):
        table, pairs = _filled(50)
        key = next(iter(pairs))
        with pytest.raises(DuplicateKey):
            table.insert(key, 0)

    def test_update_changes_value(self):
        table, pairs = _filled(200)
        for key in list(pairs)[:50]:
            table.update(key, (pairs[key] + 1) % 256)
        table.check_invariants()
        for key in list(pairs)[:50]:
            assert table.lookup(key) == (pairs[key] + 1) % 256

    def test_update_unknown_key_rejected(self):
        table, _ = _filled(20)
        with pytest.raises(KeyNotFound):
            table.update(999_999_999_999, 1)

    def test_delete_then_reinsert(self):
        table, pairs = _filled(200)
        victims = list(pairs)[:80]
        for key in victims:
            table.delete(key)
        assert len(table) == 120
        table.check_invariants()
        for key in victims:
            table.insert(key, 7)
        assert all(table.lookup(k) == 7 for k in victims)

    def test_delete_unknown_rejected(self):
        table, _ = _filled(20)
        with pytest.raises(KeyNotFound):
            table.delete(424242)

    def test_put_inserts_then_updates(self):
        table = VisionEmbedder(100, 8, seed=1)
        table.put("k", 5)
        assert table.lookup("k") == 5
        table.put("k", 9)
        assert table.lookup("k") == 9
        assert len(table) == 1

    def test_alien_key_returns_value_not_error(self):
        table, _ = _filled(100)
        # VO semantics: a meaningless value, never an exception.
        result = table.lookup(b"never inserted")
        assert 0 <= result < 256


def _state(table):
    return (table.seed, table._table.to_dense().tobytes(),
            sorted(table._assistant.pairs()))


class TestBatchWrites:
    """update_batch / delete_batch, and the journal behind every batch."""

    def test_update_batch_matches_sequential_updates(self):
        batched, pairs = _filled(400, seed=5)
        sequential, _ = _filled(400, seed=5)
        keys = list(pairs)[:150]
        values = [(pairs[k] * 5 + 3) % 256 for k in keys]
        batched.update_batch(keys, values)
        for key, value in zip(keys, values):
            sequential.update(key, value)
        assert _state(batched) == _state(sequential)
        assert batched.stats.updates == sequential.stats.updates
        assert batched.stats.repair_steps == sequential.stats.repair_steps
        batched.check_invariants()

    def test_delete_batch_matches_sequential_deletes(self):
        batched, pairs = _filled(300, seed=6)
        sequential, _ = _filled(300, seed=6)
        keys = list(pairs)[::3]
        batched.delete_batch(keys)
        for key in keys:
            sequential.delete(key)
        assert _state(batched) == _state(sequential)
        assert len(batched) == 300 - len(keys)
        batched.check_invariants()

    def test_rejected_batches_change_nothing(self):
        table, pairs = _filled(200, seed=7)
        keys = list(pairs)[:10]
        before = _state(table)
        with pytest.raises(KeyNotFound):
            table.update_batch(keys + [12345], [1] * 11)
        with pytest.raises(ValueError):
            table.update_batch(keys, [1] * 9 + [256])
        with pytest.raises(ValueError):
            table.update_batch(keys, [1] * 9)
        with pytest.raises(KeyNotFound):
            table.delete_batch(keys + [12345])
        with pytest.raises(KeyNotFound):  # a second delete finds it gone
            table.delete_batch(keys + keys[:1])
        assert _state(table) == before
        table.update_batch([], [])
        table.delete_batch([])
        assert _state(table) == before

    def test_update_batch_applies_a_repeated_key_in_order(self):
        table, pairs = _filled(200, seed=8)
        key, other = list(pairs)[:2]
        table.update_batch([key, other, key], [1, 2, 3])
        assert table.lookup_many([key, other]).tolist() == [3, 2]
        table.check_invariants()

    def test_failed_insert_batch_undoes_without_a_snapshot(
        self, monkeypatch
    ):
        table = VisionEmbedder(
            30, 8, seed=1,
            config=EmbedderConfig(reconstruct_efficiency_limit=0.3),
        )
        table.insert_batch(list(range(1, 11)), list(range(10)))
        before = _state(table)
        calls = []
        original = VisionEmbedder._snapshot_state

        def counted(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(VisionEmbedder, "_snapshot_state", counted)
        keys = list(range(100, 160))
        with pytest.raises(SpaceExhausted):
            table.insert_batch(keys, [k % 256 for k in keys])
        assert calls == []
        assert table.stats.reconstructions == 0
        assert _state(table) == before
        table.check_invariants()

    def test_failed_batch_after_a_reconstruction_rolls_back_whole(self):
        """A reconstruction mid-batch reseeds and rebuilds: the undo goes
        back to its snapshot, then takes out what the batch wrote before
        it — seed, cells and pairs all come back."""
        table = VisionEmbedder(
            60, 8, seed=1,
            config=EmbedderConfig(max_repair_steps=5, max_search_attempts=1),
        )
        table.insert_batch(list(range(1, 6)), list(range(5)))
        before = _state(table)
        keys = list(range(100, 200))
        with pytest.raises(SpaceExhausted):
            table.insert_batch(keys, [k % 256 for k in keys])
        assert table.stats.reconstructions > 0
        assert _state(table) == before
        table.check_invariants()

    def test_failed_update_batch_rolls_back(self):
        table = VisionEmbedder(
            48, 16, seed=3,
            config=EmbedderConfig(max_repair_steps=1, max_search_attempts=1,
                                  auto_reconstruct=False),
        )
        table.bulk_load([(k, (k * 31 + 5) % 65536) for k in range(1, 56)])
        before = _state(table)
        with pytest.raises(SpaceExhausted):
            table.update_batch(list(range(1, 56)), [9] * 55)
        assert _state(table) == before
        table.check_invariants()


class TestKeyTypes:
    def test_str_bytes_int_keys(self):
        table = VisionEmbedder(100, 8, seed=1)
        table.insert("alpha", 1)
        table.insert(b"beta", 2)
        table.insert(12345, 3)
        assert table.lookup("alpha") == 1
        assert table.lookup(b"beta") == 2
        assert table.lookup(12345) == 3

    def test_value_out_of_range_rejected(self):
        table = VisionEmbedder(10, 4, seed=1)
        with pytest.raises(ValueError):
            table.insert(1, 16)
        with pytest.raises(ValueError):
            table.insert(2, -1)


class TestBatchLookup:
    def test_matches_scalar(self):
        table, pairs = _filled(300)
        keys = np.fromiter(pairs, dtype=np.uint64)
        batch = table.lookup_batch(keys)
        for key, value in zip(keys.tolist(), batch.tolist()):
            assert value == table.lookup(key)

    def test_empty_batch(self):
        table, _ = _filled(10)
        assert len(table.lookup_batch(np.array([], dtype=np.uint64))) == 0


class TestSpaceAccounting:
    def test_space_bits_analytic(self):
        table = VisionEmbedder(1000, 8, seed=1)
        assert table.space_bits == table.num_cells * 8
        assert table.num_cells >= 1700

    def test_space_cost_near_1_7(self):
        table, _ = _filled(1000)
        assert 1.69 < table.space_cost < 1.72

    def test_space_efficiency(self):
        table, _ = _filled(850, value_bits=4, seed=2)
        assert table.space_efficiency == pytest.approx(
            850 / table.num_cells
        )

    def test_custom_space_factor(self):
        config = EmbedderConfig(space_factor=2.0)
        table = VisionEmbedder(300, 4, config=config, seed=1)
        assert table.num_cells >= 600


class TestReconstruction:
    def test_explicit_reconstruct_preserves_pairs(self):
        table, pairs = _filled(300)
        old_seed = table.seed
        table.reconstruct()
        assert table.seed > old_seed
        assert table.stats.reconstructions >= 1
        table.check_invariants()
        for key, value in pairs.items():
            assert table.lookup(key) == value

    def test_reconstruct_records_time(self):
        table, _ = _filled(300)
        table.reconstruct()
        assert table.stats.reconstruct_seconds > 0

    def test_fill_to_paper_limit(self):
        # 1.7L budget must accept a full capacity load without giving up.
        table, _ = _filled(2000, value_bits=1, seed=5)
        assert len(table) == 2000
        table.check_invariants()


class TestFailurePolicy:
    def test_space_exhausted_beyond_capacity(self):
        table = VisionEmbedder(100, 4, seed=1)
        pairs = _random_pairs(400, 4, 1)
        with pytest.raises(SpaceExhausted):
            for key, value in pairs.items():
                table.insert(key, value)
        # Inserted prefix must still be fully correct (rollback worked).
        table.check_invariants()
        assert len(table) > 100

    def test_rollback_on_rejected_insert(self):
        table = VisionEmbedder(60, 4, seed=1)
        pairs = _random_pairs(300, 4, 2)
        rejected = None
        for key, value in pairs.items():
            try:
                table.insert(key, value)
            except SpaceExhausted:
                rejected = key
                break
        assert rejected is not None
        assert rejected not in table
        table.check_invariants()

    def test_rollback_on_rejected_update(self):
        # A width-1 table: every key shares the same three cells, so two
        # keys with different values are deterministically unsolvable.
        config = EmbedderConfig(auto_reconstruct=False)
        table = VisionEmbedder(1, 4, config=config, seed=3)
        table.insert("a", 3)
        table.insert("b", 3)  # identical value: consistent for free
        with pytest.raises(SpaceExhausted):
            table.update("b", 5)
        # The failed update must leave the old value intact.
        assert table.lookup("b") == 3
        assert table.lookup("a") == 3
        table.check_invariants()

    def test_rollback_on_deterministic_conflicting_insert(self):
        config = EmbedderConfig(auto_reconstruct=False)
        table = VisionEmbedder(1, 4, config=config, seed=3)
        table.insert("a", 3)
        with pytest.raises(SpaceExhausted):
            table.insert("b", 5)  # same cells, different value
        assert "b" not in table
        assert table.lookup("a") == 3
        table.check_invariants()


class TestStrategies:
    def test_simple_strategy_works_with_room(self):
        config = EmbedderConfig(strategy="simple", space_factor=5.0)
        table = VisionEmbedder(300, 4, config=config, seed=1)
        pairs = _random_pairs(300, 4, 4)
        for key, value in pairs.items():
            table.insert(key, value)
        table.check_invariants()

    def test_fixed_depth_policy(self):
        config = EmbedderConfig(
            depth_policy=DepthPolicy(fixed=3), space_factor=1.8
        )
        table = VisionEmbedder(500, 4, config=config, seed=1)
        pairs = _random_pairs(500, 4, 5)
        for key, value in pairs.items():
            table.insert(key, value)
        table.check_invariants()


class TestFromPairs:
    def test_builds_and_answers(self):
        pairs = list(_random_pairs(200, 8, 6).items())
        table = VisionEmbedder.from_pairs(pairs, value_bits=8, seed=2)
        for key, value in pairs:
            assert table.lookup(key) == value

    def test_explicit_capacity(self):
        pairs = [(1, 1), (2, 2)]
        table = VisionEmbedder.from_pairs(pairs, value_bits=4, capacity=100)
        assert table.num_cells >= 170


class TestValidation:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            VisionEmbedder(0, 8)

    def test_stats_accumulate(self):
        table, _ = _filled(200)
        assert table.stats.updates == 200
        assert table.stats.repair_steps >= 200
