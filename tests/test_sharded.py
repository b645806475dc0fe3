"""ShardedEmbedder: parity with the unsharded table, routing, builds.

The sharded table is required to be *semantically invisible*: for any
shard count, every inserted key's ``lookup``/``lookup_batch`` answer is
bit-identical to a single ``VisionEmbedder`` over the same pairs — also
after deletes and after forcing a per-shard reconstruction (which reseeds
one shard's hash family but must move no key between shards). On top of
that the module covers the parallel build path (thread and process
executors, batch validation atomicity), the one plane block every shard's
planes live in, persistence, and the aggregated metrics surface.
"""

import io
import os
import random

import numpy as np
import pytest

from repro.core import (
    ShardedEmbedder,
    VisionEmbedder,
    load_sharded,
    save_sharded,
)
from repro.core.config import EmbedderConfig
from repro.core.errors import (
    DuplicateKey,
    KeyNotFound,
    ReconstructionFailed,
    SpaceExhausted,
)
from repro.core.sharded import route_handles
from repro.core.shared_planes import share_table, unshare_table
from repro.factory import make_table

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

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

    @pytest.mark.parametrize("write", ["insert_batch", "build"])
    def test_batch_matches_per_key_inserts(self, write):
        """Shard for shard, a dynamic batch is the per-key inserts in
        arrival order: same seeds, plane bytes and walk counters."""
        pairs = _pairs(3000, 12, seed=21)
        per_key = ShardedEmbedder(3600, 12, num_shards=4, seed=6)
        for key, value in pairs:
            per_key.insert(key, value)
        batched = ShardedEmbedder(3600, 12, num_shards=4, seed=6)
        if write == "insert_batch":
            batched.insert_batch(
                [key for key, _ in pairs], [value for _, value in pairs]
            )
        else:
            batched.build(pairs, method="dynamic")
        for a, b in zip(per_key.shards, batched.shards):
            assert a.seed == b.seed
            assert a._table.to_dense().tobytes() == b._table.to_dense().tobytes()
            assert a.stats.updates == b.stats.updates
            assert a.stats.repair_steps == b.stats.repair_steps

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


def _shard_keys(table, shard, start, count):
    """The first ``count`` keys from ``start`` on routed to ``shard``."""
    keys = []
    key = start
    while len(keys) < count:
        if table.shard_of(key) == shard:
            keys.append(key)
        key += 1
    return keys


def _shard_states(table):
    """Per shard: seed, plane bytes and sorted pairs."""
    return [
        (shard.seed, shard._table.to_dense().tobytes(),
         sorted(shard._assistant.pairs()))
        for shard in table.shards
    ]


#: One repair step per walk, no reconstruction: a write into a densely
#: loaded shard fails with SpaceExhausted once its key has no cell of its
#: own — deterministically, at a size a test can afford.
_STRICT = EmbedderConfig(
    max_repair_steps=1, max_search_attempts=1, auto_reconstruct=False
)


def _lopsided_table():
    """Two shards: shard 0 holds 6 keys, shard 1 is dense (40 keys in 84
    cells), so writes into shard 1 run out of space within a few keys."""
    table = ShardedEmbedder(48, 16, num_shards=2, seed=3, config=_STRICT)
    keys = _shard_keys(table, 0, 1, 6) + _shard_keys(table, 1, 1, 40)
    table.bulk_load([(key, (key * 31 + 5) % 65536) for key in keys])
    return table


class TestAllOrNothing:
    """Every multi-key write applies whole or not at all, across shards."""

    def test_space_exhausted_in_one_shard_leaves_every_shard(self):
        table = ShardedEmbedder(2000, 16, num_shards=4, seed=1)
        table.bulk_load((k, k % 65536) for k in range(1, 1601))
        before = _shard_states(table)
        early = _shard_keys(table, 0, 10_000, 10)
        keys = early + _shard_keys(table, 3, 20_000, 600)
        with pytest.raises(SpaceExhausted):
            table.insert_batch(keys, [k % 65536 for k in keys])
        assert len(table) == 1600
        assert not any(key in table for key in early)
        assert _shard_states(table) == before
        table.check_invariants()

    def test_failed_batch_undoes_without_a_snapshot(self, monkeypatch):
        """With no reconstruction the undo is the journal's O(batch)
        before-images: no shard is snapshotted, before or after."""
        table = _lopsided_table()
        before = _shard_states(table)
        calls = []
        original = VisionEmbedder._snapshot_state

        def counted(shard):
            calls.append(shard)
            return original(shard)

        monkeypatch.setattr(VisionEmbedder, "_snapshot_state", counted)
        keys = (_shard_keys(table, 0, 1000, 8)
                + _shard_keys(table, 1, 1000, 8))
        with pytest.raises(SpaceExhausted):
            table.insert_batch(keys, [7] * 16)
        assert calls == []
        assert table.stats.reconstructions == 0
        assert _shard_states(table) == before
        table.check_invariants()

    def test_failed_update_batch_rolls_back_every_shard(self):
        table = _lopsided_table()
        before = _shard_states(table)
        keys = _shard_keys(table, 0, 1, 2) + _shard_keys(table, 1, 1, 7)
        with pytest.raises(SpaceExhausted):
            table.update_batch(keys, [9] * len(keys))
        assert _shard_states(table) == before
        table.check_invariants()

    def test_thread_build_rolls_back_every_shard(self):
        table = _lopsided_table()
        before = _shard_states(table)
        keys = (_shard_keys(table, 0, 1000, 3)
                + _shard_keys(table, 1, 1000, 3))
        with pytest.raises(SpaceExhausted):
            table.build([(key, 7) for key in keys], workers=2)
        assert _shard_states(table) == before

    def test_static_build_rolls_back_every_shard(self):
        """Shard 0 peels, shard 1 is overfull and never does: the whole
        bulk load is undone, shard 0 from its pre-call snapshot."""
        table = ShardedEmbedder(48, 16, num_shards=2, seed=3)
        table.insert_batch([1, 2], [1, 2])
        before = _shard_states(table)
        cells = table.shards[1].num_cells
        keys = (_shard_keys(table, 0, 100, 3)
                + _shard_keys(table, 1, 100, cells + 6))
        with pytest.raises(ReconstructionFailed):
            table.bulk_load((key, 5) for key in keys)
        assert _shard_states(table) == before
        table.check_invariants()

    def test_update_and_delete_batches_validate_across_shards(self):
        table = ShardedEmbedder(200, 8, num_shards=4, seed=2)
        keys = list(range(1, 41))
        table.insert_batch(keys, [k % 256 for k in keys])
        before = _shard_states(table)
        with pytest.raises(KeyNotFound):
            table.update_batch(keys[:30] + [999], [1] * 31)
        with pytest.raises(ValueError):
            table.update_batch([1, 2], [1, 256])
        with pytest.raises(KeyNotFound):
            table.delete_batch(keys[:30] + [999])
        with pytest.raises(KeyNotFound):
            table.delete_batch([3, 4, 3])
        assert _shard_states(table) == before
        table.update_batch([1, 2, 1], [1, 2, 3])
        assert table.lookup_many([1, 2]).tolist() == [3, 2]
        table.update_batch(keys[:20], [7] * 20)
        table.delete_batch(keys[20:])
        assert len(table) == 20
        assert table.lookup_many(keys[:20]).tolist() == [7] * 20
        table.check_invariants()

    def test_batches_match_per_key_writes(self):
        pairs = _pairs(600, 12, seed=3)
        keys = [key for key, _ in pairs]
        per_key = ShardedEmbedder(800, 12, num_shards=4, seed=6)
        batched = ShardedEmbedder(800, 12, num_shards=4, seed=6)
        for table in (per_key, batched):
            table.insert_batch(keys, [value for _, value in pairs])
        new_values = [(v * 7 + 1) % 4096 for _, v in pairs[:300]]
        for key, value in zip(keys, new_values):
            per_key.update(key, value)
        for key in keys[300:450]:
            per_key.delete(key)
        batched.update_batch(keys[:300], new_values)
        batched.delete_batch(keys[300:450])
        assert _shard_states(per_key) == _shard_states(batched)
        assert per_key.stats.updates == batched.stats.updates

    def test_key_arrays_are_canonicalised_whole(self, monkeypatch):
        import repro.hashing.family as family

        calls = []
        original = family.key_to_u64

        def counted(key):
            calls.append(key)
            return original(key)

        monkeypatch.setattr(family, "key_to_u64", counted)
        table = ShardedEmbedder(4000, 16, num_shards=4, seed=1)
        keys = np.arange(1, 3001, dtype=np.uint64)
        table.insert_batch(keys, (keys % 65536).tolist())
        table.update_batch(keys[:1000], np.full(1000, 3, dtype=np.uint64))
        table.delete_batch(keys[1000:2000])
        assert calls == []
        assert len(table) == 2000


class TestOnePassPerBatch:
    """A sharded write is canonicalised, checked and hashed once, at the
    front; the shards write from what the front hands them."""

    def test_sixteen_key_insert_hashes_once(self, monkeypatch):
        from repro.hashing import HashFamily

        table = ShardedEmbedder(4000, 16, num_shards=8, seed=3)
        table.bulk_load((k, k % 65536) for k in range(1, 3001))
        calls = []
        original = HashFamily.indices_batch

        def counted(self, *args, **kwargs):
            calls.append(args[0])
            return original(self, *args, **kwargs)

        monkeypatch.setattr(HashFamily, "indices_batch", counted)
        keys = list(range(10_000, 10_016))
        table.insert_batch(keys, [k % 65536 for k in keys])
        assert len({table.shard_of(key) for key in keys}) > 1
        assert len(calls) == 1 and len(calls[0]) == 16
        monkeypatch.undo()
        assert table.lookup_many(keys).tolist() == [k % 65536 for k in keys]
        table.check_invariants()

    def test_reseeded_shard_rehashes_its_remaining_keys(self, monkeypatch):
        """One shard reconstructs mid-batch: it reseeds, so the rows the
        front hashed for its remaining keys are stale and must not be
        walked from; every shard still matches the per-key inserts."""
        config = EmbedderConfig(max_repair_steps=3, max_search_attempts=1)
        pairs = _pairs(300, 8, seed=1)
        per_key = ShardedEmbedder(500, 8, num_shards=4, seed=1,
                                  config=config)
        for key, value in pairs:
            per_key.insert(key, value)
        batched = ShardedEmbedder(500, 8, num_shards=4, seed=1,
                                  config=config)
        rebuilt = []
        original = VisionEmbedder.reconstruct

        def spied(shard, *args, **kwargs):
            rebuilt.append((shard, len(shard)))
            return original(shard, *args, **kwargs)

        monkeypatch.setattr(VisionEmbedder, "reconstruct", spied)
        batched.insert_batch(
            [key for key, _ in pairs], [value for _, value in pairs]
        )
        monkeypatch.undo()
        # One shard reseeded once, with keys of the batch still to come.
        assert len(rebuilt) == 1
        shard, live_then = rebuilt[0]
        assert live_then < len(shard)
        assert _shard_states(batched) == _shard_states(per_key)
        batched.check_invariants()
        assert np.array_equal(
            batched.lookup_batch(_key_array(pairs)), _value_array(pairs)
        )

    def test_rows_hashed_under_another_seed_are_not_walked_from(self):
        from repro.hashing import HashFamily

        pairs = _pairs(200, 12, seed=8)
        keys = _key_array(pairs)
        values = [value for _, value in pairs]
        plain = VisionEmbedder(300, 12, seed=4)
        plain.insert_batch(keys, values)
        handed = VisionEmbedder(300, 12, seed=4)
        stale = HashFamily(3, [handed._table.width] * 3).indices_batch(keys)
        handed.insert_batch(keys, values, hashed=(3, stale))
        assert (handed._table.to_dense().tobytes()
                == plain._table.to_dense().tobytes())
        handed.check_invariants()

    @pytest.mark.parametrize("executor", ["thread", "process"])
    @pytest.mark.parametrize("method", ["static", "dynamic"])
    @pytest.mark.parametrize("case", ["repeated", "live", "value"])
    def test_build_rejects_before_any_shard_changes(
        self, monkeypatch, case, method, executor
    ):
        table = ShardedEmbedder(400, 8, num_shards=4, seed=2)
        live = _shard_keys(table, 2, 1, 5)
        table.insert_batch(live, [9] * len(live))
        before = _shard_states(table)
        keys = (_shard_keys(table, 0, 1000, 3)
                + _shard_keys(table, 1, 1000, 3))
        values = [5] * len(keys)
        expected = DuplicateKey
        if case == "repeated":
            keys.append(keys[0])
            values.append(6)
        elif case == "live":
            keys.append(live[0])
            values.append(6)
        else:
            values[-1] = 256  # out of range for 8-bit values
            expected = ValueError
        opened = []
        original = VisionEmbedder._open_journal

        def spied(shard, rows):
            opened.append(shard)
            return original(shard, rows)

        monkeypatch.setattr(VisionEmbedder, "_open_journal", spied)
        with pytest.raises(expected) as caught:
            table.build(list(zip(keys, values)), workers=2, method=method,
                        executor=executor)
        assert "process" not in str(caught.value)
        assert opened == []  # no shard began to write
        assert _shard_states(table) == before


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


class TestBlockLayout:
    """Guards of the one plane block every shard's planes live in."""

    @pytest.mark.parametrize("name", ["dense", "packed"])
    def test_golden_snapshot_answers_as_written(self, name):
        # Written by the tree that still read shard by shard
        # (tests/golden/make_sharded_snapshots.py): the block layout must
        # load it, answer every probe identically, and keep accepting
        # writes.
        answers = np.load(os.path.join(GOLDEN, "sharded_answers.npz"))
        table = load_sharded(os.path.join(GOLDEN, f"sharded_{name}.npz"))
        probes = answers["probe_keys"]
        assert np.array_equal(
            table.lookup_batch(probes), answers[f"{name}_answers"]
        )
        table.check_invariants()
        stored = probes[: len(answers[f"{name}_values"])]
        alien = int(probes[-1])
        table.insert(alien, 3)
        table.update(int(stored[0]), 5)
        expected = answers[f"{name}_values"].copy()
        expected[0] = 5
        assert np.array_equal(table.lookup_batch(stored), expected)
        assert table.lookup(alien) == 3
        table.check_invariants()

    @staticmethod
    def _region_words(table):
        block = table._block
        if table.packed:
            return block.stride * block.value_bits // 64
        return block.stride

    @pytest.mark.parametrize("promoted", [False, True])
    # Packed 11-bit cells straddle words; packed 16-bit regions end on a
    # word, so only the stride's pad word keeps a shard's pad (which its
    # clear() zeroes) off its neighbour's first word.
    @pytest.mark.parametrize(
        "packed,value_bits", [(False, 16), (True, 11), (True, 16)]
    )
    @pytest.mark.parametrize("num_shards", [2, 8, 13])
    def test_shard_reconstruct_leaves_other_regions_untouched(
        self, num_shards, packed, value_bits, promoted
    ):
        pairs = _pairs(600, value_bits, seed=num_shards)
        table = ShardedEmbedder(
            900, value_bits, num_shards=num_shards, seed=4, packed=packed
        )
        table.build(pairs)
        if promoted:
            share_table(table)
        try:
            target = num_shards // 2
            before = table._block.words.copy()
            dense = [shard._table.to_dense() for shard in table.shards]
            table.reconstruct(shard=target)
            after = table._block.words
            region = self._region_words(table)
            changed = np.flatnonzero(before != after)
            assert changed.size
            assert changed.min() >= target * region
            assert changed.max() < (target + 1) * region
            for index, shard in enumerate(table.shards):
                if index != target:
                    assert np.array_equal(shard._table.to_dense(),
                                          dense[index])
            assert np.array_equal(
                table.lookup_batch(_key_array(pairs)), _value_array(pairs)
            )
            table.check_invariants()
        finally:
            unshare_table(table)


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
