"""Small shared pieces: TableStats, workload helpers, interface defaults."""

import numpy as np
import pytest

from repro.bench.workloads import fill_table, make_pairs, try_fill_table
from repro.core.stats import TableStats
from repro.factory import make_table
from repro.table import ValueOnlyTable


class TestTableStats:
    def test_snapshot_is_independent(self):
        stats = TableStats(updates=5, update_failures=1)
        snap = stats.snapshot()
        stats.updates = 99
        assert snap.updates == 5
        assert snap.update_failures == 1

    def test_reset(self):
        stats = TableStats(updates=5, reconstructions=2,
                           reconstruct_seconds=1.5, repair_steps=7,
                           update_failures=3)
        stats.reset()
        assert stats.updates == 0
        assert stats.reconstructions == 0
        assert stats.reconstruct_seconds == 0.0
        assert stats.repair_steps == 0
        assert stats.update_failures == 0

    # -- the registry-view contract (docs/observability.md) -------------

    def test_fields_are_views_over_registry_counters(self):
        stats = TableStats(updates=3)
        counter = stats.registry.get("repro_updates_total")
        assert counter.value == 3
        stats.updates += 1          # attribute write reaches the registry
        assert counter.value == 4
        counter.inc(2)              # registry write reaches the attribute
        assert stats.updates == 6

    def test_unknown_kwarg_rejected(self):
        with pytest.raises(TypeError):
            TableStats(walks=1)

    def test_equality_and_repr(self):
        stats = TableStats(updates=2, repair_steps=5)
        assert stats == TableStats(updates=2, repair_steps=5)
        assert stats != TableStats(updates=2, repair_steps=6)
        assert "updates=2" in repr(stats)

    def test_note_batch_counts_and_histogram(self):
        stats = TableStats()
        stats.note_batch(10)
        stats.note_batch(3)
        assert stats.batch_inserts == 2
        assert stats.batch_keys == 13
        assert stats.largest_batch == 10
        assert stats.registry.get("repro_batch_size").count == 2

    def test_counter_for_hot_path_handles(self):
        stats = TableStats()
        handle = stats.counter_for("cost_cache_hits")
        handle.value += 5           # the raw single-writer fast path
        assert stats.cost_cache_hits == 5


class TestWorkloadHelpers:
    def test_make_pairs_distinct_keys(self):
        keys, values = make_pairs(500, 4, seed=3)
        assert len(np.unique(keys)) == 500
        assert int(values.max()) < 16

    def test_fill_table_dynamic_and_bulk(self):
        keys, values = make_pairs(200, 4, seed=4)
        for name in ("vision", "bloomier"):
            table = make_table(name, 200, 4, seed=1)
            fill_table(table, keys, values)
            assert len(table) == 200

    def test_try_fill_reports_failure(self):
        keys, values = make_pairs(400, 4, seed=5)
        # A table far too small must give up rather than raise.
        tiny = make_table(
            "vision", 50, 4, seed=1,
            config_kwargs={"max_reconstruct_attempts": 2,
                           "reconstruct_efficiency_limit": 1.0},
        )
        assert try_fill_table(tiny, keys, values) is False

    def test_try_fill_success(self):
        keys, values = make_pairs(100, 4, seed=6)
        table = make_table("vision", 100, 4, seed=1)
        assert try_fill_table(table, keys, values) is True


class TestInterfaceDefaults:
    class _MinimalTable(ValueOnlyTable):
        """Smallest conforming implementation, to exercise the defaults."""

        name = "minimal"

        def __init__(self):
            self._store = {}
            self._stats = TableStats()

        @property
        def value_bits(self):
            return 8

        @property
        def space_bits(self):
            return 100

        @property
        def stats(self):
            return self._stats

        def __len__(self):
            return len(self._store)

        def __contains__(self, key):
            return key in self._store

        def insert(self, key, value):
            self._store[key] = value

        def update(self, key, value):
            self._store[key] = value

        def delete(self, key):
            del self._store[key]

        def lookup(self, key):
            return self._store.get(key, 0)

    def test_default_lookup_batch_loops(self):
        table = self._MinimalTable()
        table.insert(3, 7)
        table.insert(4, 9)
        out = table.lookup_batch(np.array([3, 4, 5], dtype=np.uint64))
        assert out.tolist() == [7, 9, 0]

    def test_default_put_and_insert_many(self):
        table = self._MinimalTable()
        table.insert_many([(1, 2), (3, 4)])
        table.put(1, 9)
        assert table.lookup(1) == 9

    def test_default_space_metrics(self):
        table = self._MinimalTable()
        assert table.bits_per_key == float("inf")
        assert table.space_cost == float("inf")
        table.insert(1, 1)
        assert table.bits_per_key == 100
        assert table.space_cost == pytest.approx(100 / 8)
        assert table.failure_events == 0
