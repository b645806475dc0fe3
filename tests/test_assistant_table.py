"""Slow-space assistant table: buckets, counters, consistency, columns."""

import gc

import pytest

from repro.core import VisionEmbedder
from repro.core.assistant_table import AssistantTable


def _cells(t0, t1, t2):
    return ((0, t0), (1, t1), (2, t2))


class TestAddRemove:
    def test_add_registers_in_all_buckets(self):
        table = AssistantTable(width=8)
        table.add(42, 3, _cells(1, 2, 3))
        assert 42 in table
        assert table.value(42) == 3
        assert table.cells(42) == _cells(1, 2, 3)
        for cell in _cells(1, 2, 3):
            assert 42 in table.keys_at(cell)
            assert table.count_at(cell) == 1

    def test_add_duplicate_rejected(self):
        table = AssistantTable(width=8)
        table.add(1, 0, _cells(0, 0, 0))
        with pytest.raises(KeyError):
            table.add(1, 1, _cells(1, 1, 1))

    def test_remove_clears_buckets(self):
        table = AssistantTable(width=8)
        table.add(42, 3, _cells(1, 2, 3))
        table.remove(42)
        assert 42 not in table
        assert all(table.count_at(c) == 0 for c in _cells(1, 2, 3))

    def test_remove_unknown_raises(self):
        with pytest.raises(KeyError):
            AssistantTable(width=4).remove(9)

    def test_len_tracks_pairs(self):
        table = AssistantTable(width=8)
        for i in range(5):
            table.add(i, 0, _cells(i % 8, i % 8, i % 8))
        assert len(table) == 5
        table.remove(0)
        assert len(table) == 4


class TestValues:
    def test_set_value(self):
        table = AssistantTable(width=8)
        table.add(7, 1, _cells(0, 1, 2))
        table.set_value(7, 9)
        assert table.value(7) == 9

    def test_set_value_unknown_raises(self):
        with pytest.raises(KeyError):
            AssistantTable(width=4).set_value(1, 2)

    def test_pairs_iteration(self):
        table = AssistantTable(width=8)
        table.add(1, 10, _cells(0, 0, 0))
        table.add(2, 20, _cells(1, 1, 1))
        assert dict(table.pairs()) == {1: 10, 2: 20}


class TestBuckets:
    def test_shared_bucket_counts(self):
        table = AssistantTable(width=8)
        table.add(1, 0, _cells(5, 0, 0))
        table.add(2, 0, _cells(5, 1, 1))
        assert table.count_at((0, 5)) == 2
        assert set(table.keys_at((0, 5))) == {1, 2}

    def test_same_index_different_arrays_are_distinct(self):
        table = AssistantTable(width=8)
        table.add(1, 0, _cells(5, 5, 5))
        assert table.count_at((0, 5)) == 1
        assert table.count_at((1, 5)) == 1
        assert table.count_at((2, 5)) == 1


class TestLifecycle:
    def test_clear(self):
        table = AssistantTable(width=8)
        table.add(1, 0, _cells(0, 1, 2))
        table.clear()
        assert len(table) == 0
        assert table.count_at((0, 0)) == 0

    def test_consistency_check_passes(self):
        table = AssistantTable(width=8)
        for i in range(20):
            table.add(i, i % 2, _cells(i % 8, (i * 3) % 8, (i * 5) % 8))
        table.check_consistency()

    def test_consistency_check_detects_ghost(self):
        table = AssistantTable(width=8)
        table.add(1, 0, _cells(0, 1, 2))
        table.members[5] += (99,)  # corrupt bucket (0, 5) on purpose
        with pytest.raises(AssertionError):
            table.check_consistency()

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            AssistantTable(width=0)


class TestColumns:
    def test_rows_stay_bounded_under_churn(self):
        """Removed rows are reclaimed: steady insert/delete churn must not
        grow the columns past 2x the live count (plus the initial room)."""
        table = VisionEmbedder(2000, 8, seed=3)
        live = list(range(1, 1001))
        table.insert_batch(live, [key % 256 for key in live])
        for key in range(1001, 11_001):
            table.insert(key, key % 256)
            table.delete(live.pop(0))
            live.append(key)
        assistant = table._assistant
        assert len(assistant) == 1000
        bound = 2 * len(assistant) + 16
        assert assistant._n_rows <= bound
        assert assistant._keys.size <= bound
        assert [key for key, _ in assistant.pairs()] == live
        table.check_invariants()

    def test_table_adds_few_gc_tracked_objects(self):
        """Buckets, cells and the key index hold only ints, so the cycle
        collector untracks them: a 20k-key table stays a few objects."""
        pairs = [(key, key % 256) for key in range(1, 20_001)]
        extra = [(key, key % 256) for key in range(20_001, 20_201)]
        # Warm up first: one-off lazy imports and caches are not the table.
        warm = VisionEmbedder(100, 8, seed=1)
        warm.bulk_load(pairs[:50])
        warm.insert(*extra[0])
        del warm
        gc.collect()
        before = len(gc.get_objects())
        table = VisionEmbedder(21_000, 8, seed=1)
        table.bulk_load(pairs)
        for key, value in extra:
            table.insert(key, value)
        gc.collect()
        added = len(gc.get_objects()) - before
        assert len(table) == 20_200
        assert added < 1000, added

    def test_snapshot_restore_round_trips(self):
        table = AssistantTable(width=8)
        for i in range(6):
            table.add(i, i * 10, _cells(i % 8, (i * 3) % 8, (i * 5) % 8))
        table.remove(2)
        columns = table.snapshot()
        table.add(40, 1, _cells(7, 7, 7))
        table.set_value(0, 99)
        table.restore(columns)
        assert list(table.pairs()) == [(0, 0), (1, 10), (3, 30), (4, 40),
                                       (5, 50)]
        assert table.cells(5) == _cells(5, 7, 1)
        assert 40 not in table and 2 not in table
        table.check_consistency()
