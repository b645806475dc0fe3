"""ShardedEmbedder: parity with the unsharded table, routing, builds.

The sharded table is required to be *semantically invisible*: for any
shard count, every inserted key's ``lookup``/``lookup_batch`` answer is
bit-identical to a single ``VisionEmbedder`` over the same pairs — also
after deletes and after forcing a per-shard reconstruction (which reseeds
one shard's hash family but must move no key between shards). On top of
that the module covers the parallel build path (thread and process
executors, batch validation atomicity), scatter/gather batch lookups,
persistence, and the aggregated metrics surface.
"""

import io
import random

import numpy as np
import pytest

from repro.core import (
    ShardedEmbedder,
    VisionEmbedder,
    load_sharded,
    save_sharded,
)
from repro.core.errors import DuplicateKey
from repro.core.sharded import route_handles
from repro.factory import make_table

SHARD_COUNTS = (1, 2, 8, 13)


def _pairs(n, value_bits, seed):
    rng = random.Random(seed)
    keys = rng.sample(range(1, 50 * n), n)
    return [(key, rng.getrandbits(value_bits)) for key in keys]


def _key_array(pairs):
    return np.array([key for key, _ in pairs], dtype=np.uint64)


def _value_array(pairs):
    return np.array([value for _, value in pairs], dtype=np.uint64)


class TestShardedParity:
    """Property: sharded answers == unsharded answers, bit for bit."""

    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_lookup_parity_over_lifecycle(self, num_shards):
        pairs = _pairs(1200, 12, seed=num_shards)
        single = VisionEmbedder(1500, 12, seed=9)
        sharded = ShardedEmbedder(
            1500, 12, num_shards=num_shards, seed=9
        )
        single.insert_many(pairs)
        sharded.build(pairs, workers=2)

        def assert_parity(live):
            keys = _key_array(live)
            expected = _value_array(live)
            assert np.array_equal(single.lookup_batch(keys), expected)
            assert np.array_equal(sharded.lookup_batch(keys), expected)
            for key, _ in live[:60]:
                assert sharded.lookup(key) == single.lookup(key)

        assert len(sharded) == len(single) == len(pairs)
        assert_parity(pairs)

        # After deletes the survivors must still agree.
        doomed, live = pairs[:150], pairs[150:]
        for key, _ in doomed:
            single.delete(key)
            sharded.delete(key)
        assert len(sharded) == len(single)
        assert_parity(live)

        # A forced per-shard reconstruction reseeds that shard's hash
        # family but must not move keys or change any answer.
        sharded.reconstruct(shard=num_shards // 2)
        sharded.check_invariants()
        assert_parity(live)

        # And reconstructing every shard (the full failure path).
        sharded.reconstruct()
        sharded.check_invariants()
        assert_parity(live)

    def test_inserts_updates_after_build_stay_in_sync(self):
        pairs = _pairs(400, 10, seed=4)
        single = VisionEmbedder(600, 10, seed=2)
        sharded = ShardedEmbedder(600, 10, num_shards=8, seed=2)
        single.insert_many(pairs)
        sharded.insert_many(pairs)
        for key, value in pairs[:50]:
            single.update(key, (value + 1) % 1024)
            sharded.update(key, (value + 1) % 1024)
        extra = [(10**9 + i, i % 1024) for i in range(50)]
        for key, value in extra:
            single.insert(key, value)
            sharded.insert(key, value)
        live = [(k, (v + 1) % 1024) for k, v in pairs[:50]] \
            + pairs[50:] + extra
        keys = _key_array(live)
        assert np.array_equal(
            sharded.lookup_batch(keys), single.lookup_batch(keys)
        )


class TestRouting:
    def test_routing_is_stable_across_reconstruction(self):
        table = ShardedEmbedder(500, 8, num_shards=8, seed=6)
        pairs = _pairs(400, 8, seed=8)
        table.build(pairs)
        homes = {key: table.shard_of(key) for key, _ in pairs}
        table.reconstruct()
        for key, _ in pairs:
            assert table.shard_of(key) == homes[key]
        table.check_invariants()

    def test_scalar_and_vector_router_agree(self):
        table = ShardedEmbedder(100, 8, num_shards=13, seed=3)
        keys = np.array(
            random.Random(0).sample(range(1, 10**9), 5000), dtype=np.uint64
        )
        vector = route_handles(keys, table._shard_seed, table.num_shards)
        for key, expected in zip(keys.tolist()[:500], vector.tolist()):
            assert table._shard_of_handle(key) == expected

    def test_contains_and_membership_route_consistently(self):
        table = ShardedEmbedder(200, 8, num_shards=4, seed=1)
        pairs = _pairs(100, 8, seed=2)
        table.build(pairs)
        for key, _ in pairs:
            assert key in table
        assert 10**15 not in table


class TestParallelBuild:
    def test_thread_build_matches_sequential(self):
        # Shards are independent, so worker scheduling must not change
        # any shard's final state: compare the per-shard fast spaces.
        pairs = _pairs(900, 10, seed=5)
        seq = ShardedEmbedder(1000, 10, num_shards=8, seed=4)
        seq.build(pairs, workers=1)
        par = ShardedEmbedder(1000, 10, num_shards=8, seed=4)
        par.build(pairs, workers=4)
        for a, b in zip(seq.shards, par.shards):
            assert a.seed == b.seed
            assert np.array_equal(a._table.to_dense(), b._table.to_dense())

    def test_static_build_peels_every_shard(self):
        pairs = _pairs(800, 10, seed=7)
        table = ShardedEmbedder(1000, 10, num_shards=8, seed=3)
        table.build(pairs, workers=4, method="static")
        assert table.stats.repair_steps == 0  # static path never walks
        keys = _key_array(pairs)
        assert np.array_equal(table.lookup_batch(keys), _value_array(pairs))
        table.check_invariants()

    def test_process_build_round_trips_shards_and_stats(self):
        pairs = _pairs(600, 10, seed=9)
        table = ShardedEmbedder(800, 10, num_shards=4, seed=5)
        table.build(pairs, workers=2, executor="process")
        assert len(table) == len(pairs)
        keys = _key_array(pairs)
        assert np.array_equal(table.lookup_batch(keys), _value_array(pairs))
        # The children's walk counters survive the process boundary.
        assert table.stats.updates == len(pairs)
        assert table.stats.batch_keys == len(pairs)
        table.check_invariants()

    def test_process_build_refuses_populated_shards(self):
        table = ShardedEmbedder(400, 8, num_shards=4, seed=5)
        table.build(_pairs(200, 8, seed=1), workers=2)
        fresh = _pairs(100, 8, seed=99)
        offset = [(key + 10**10, value) for key, value in fresh]
        with pytest.raises(ValueError, match="process"):
            table.build(offset, workers=2, executor="process")

    def test_build_validation_is_atomic(self):
        table = ShardedEmbedder(200, 8, num_shards=4, seed=2)
        table.build([(1, 1), (2, 2)])
        with pytest.raises(DuplicateKey):
            table.build([(5, 1), (5, 2)])
        with pytest.raises(DuplicateKey):
            table.build([(6, 1), (1, 2)])  # collides with existing key
        with pytest.raises(ValueError):
            table.build([(7, 256)])  # out of range for 8-bit values
        with pytest.raises(ValueError):
            table.build([(7, 1)], executor="fiber")
        with pytest.raises(ValueError):
            table.build([(7, 1)], method="mystic")
        assert len(table) == 2  # nothing above touched any shard

    def test_insert_batch_alignment(self):
        table = ShardedEmbedder(100, 8, num_shards=2, seed=1)
        with pytest.raises(ValueError):
            table.insert_batch([1, 2], [5])
        with pytest.raises(ValueError):
            table.insert_batch([], [5])
        table.insert_batch([1, 2], [5, 6])
        assert table.lookup(1) == 5 and table.lookup(2) == 6

    def test_empty_batches_are_noops(self):
        table = ShardedEmbedder(100, 8, num_shards=8, seed=1)
        table.insert_many([])
        table.bulk_load([])
        table.build([], workers=4)
        assert len(table) == 0
        out = table.lookup_batch(np.zeros(0, dtype=np.uint64))
        assert out.dtype == np.uint64 and out.shape == (0,)
        assert table.stats.batch_inserts == 0

    def test_from_pairs_constructor(self):
        pairs = _pairs(300, 8, seed=11)
        table = ShardedEmbedder.from_pairs(
            pairs, value_bits=8, num_shards=8, seed=7, workers=2
        )
        assert len(table) == 300
        assert table.capacity == 300
        static = ShardedEmbedder.from_pairs(
            pairs, value_bits=8, num_shards=8, seed=7, static=True
        )
        keys = _key_array(pairs)
        assert np.array_equal(
            table.lookup_batch(keys), static.lookup_batch(keys)
        )


class TestConstruction:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ShardedEmbedder(0, 8)
        with pytest.raises(ValueError):
            ShardedEmbedder(10, 8, num_shards=0)
        with pytest.raises(ValueError):
            ShardedEmbedder(10, 8, num_shards=257)
        with pytest.raises(ValueError):
            ShardedEmbedder(10, 8, shard_slack=0.5)

    def test_factory_builds_sharded(self):
        table = make_table(
            "vision-sharded", 100, 8, seed=3, num_shards=4
        )
        assert isinstance(table, ShardedEmbedder)
        assert table.num_shards == 4
        scaled = make_table(
            "vision-sharded", 100, 8, space_factor=2.5, num_shards=2
        )
        assert scaled.config.space_factor == 2.5

    def test_shard_capacity_absorbs_imbalance_at_small_n(self):
        # Regression: proportional slack alone under-provisions small
        # shards (binomial tail), which made 50 keys overflow S=8.
        table = ShardedEmbedder(50, 4, num_shards=8, seed=3)
        table.build(_pairs(50, 4, seed=3))
        assert len(table) == 50


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        pairs = _pairs(500, 10, seed=13)
        table = ShardedEmbedder(
            700, 10, num_shards=8, seed=6, shard_slack=1.2
        )
        table.build(pairs, workers=2)
        for key, _ in pairs[:40]:
            table.delete(key)
        table.reconstruct(shard=3)  # shard 3 now has a bumped seed
        path = tmp_path / "sharded.npz"
        save_sharded(table, str(path))
        restored = load_sharded(str(path))
        assert restored.num_shards == 8
        assert restored.shard_slack == 1.2
        assert restored.capacity == 700
        assert len(restored) == len(table)
        live = pairs[40:]
        keys = _key_array(live)
        assert np.array_equal(
            restored.lookup_batch(keys), table.lookup_batch(keys)
        )
        # Byte-for-byte: each shard's fast space survives, including the
        # reconstructed shard's bumped seed.
        for a, b in zip(table.shards, restored.shards):
            assert a.seed == b.seed
            assert np.array_equal(a._table.to_dense(), b._table.to_dense())
        restored.check_invariants()

    def test_roundtrip_through_file_object(self):
        table = ShardedEmbedder(100, 8, num_shards=2, seed=2)
        table.build(_pairs(80, 8, seed=2))
        buffer = io.BytesIO()
        save_sharded(table, buffer)
        buffer.seek(0)
        restored = load_sharded(buffer)
        assert len(restored) == 80
        restored.check_invariants()

    def test_version_check(self):
        buffer = io.BytesIO()
        np.savez(
            buffer,
            sharded_meta=np.array([99, 1, 1, 8, 3, 0, 1], dtype=np.int64),
            sharded_float_meta=np.array([1.1]),
        )
        buffer.seek(0)
        with pytest.raises(ValueError, match="version"):
            load_sharded(buffer)


class TestMetrics:
    def test_aggregated_stats_cover_all_shards(self):
        pairs = _pairs(600, 10, seed=17)
        table = ShardedEmbedder(700, 10, num_shards=8, seed=8)
        table.build(pairs, workers=2)
        keys = _key_array(pairs)
        table.lookup_batch(keys)
        stats = table.stats
        assert stats.updates == len(pairs)
        assert stats.batch_keys == len(pairs)
        # Each non-empty shard logged one batch.
        assert stats.batch_inserts == sum(
            1 for shard in table.shards if len(shard)
        )
        registry = stats.registry

        def export(name):
            metric = registry.get(name)
            assert metric is not None, name
            return metric.value

        assert export("repro_shards") == 8
        assert export("repro_sharded_builds_total") == 1
        assert export("repro_sharded_build_workers") == 2
        assert export("repro_gather_batches_total") == 1
        assert export("repro_gather_keys_total") == len(pairs)
        assert export("repro_sharded_build_seconds_total") > 0
        assert export("repro_shard_keys_min") <= len(pairs) / 8
        assert export("repro_shard_keys_max") >= len(pairs) / 8
        assert 0 < export("repro_shard_space_efficiency_max") <= 1.0

    def test_shard_stats_reports_cache_counters(self):
        pairs = _pairs(500, 10, seed=19)
        table = ShardedEmbedder(520, 10, num_shards=4, seed=4)
        table.build(pairs)
        rows = table.shard_stats()
        assert len(rows) == 4
        assert sum(row["keys"] for row in rows) == len(pairs)
        assert all(0 < row["space_efficiency"] <= 1 for row in rows)
        total_misses = sum(row["cost_cache_misses"] for row in rows)
        assert total_misses == table.stats.cost_cache_misses
        assert all(
            row["cost_cache_invalidations"] <= row["cost_cache_misses"]
            for row in rows
        )
