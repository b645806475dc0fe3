"""Control-plane → data-plane replication: messages keep replicas exact."""

import random

import numpy as np
import pytest

from repro.core import EmbedderConfig, SpaceExhausted
from repro.core.replication import (
    DataPlaneReplica,
    PublishingVisionEmbedder,
    SnapshotMessage,
    UpdateMessage,
)


def _pairs(n, value_bits, seed):
    rng = random.Random(seed)
    pairs = {}
    while len(pairs) < n:
        pairs[rng.getrandbits(48)] = rng.getrandbits(value_bits)
    return pairs


class TestSubscription:
    def test_subscribe_sends_snapshot(self):
        publisher = PublishingVisionEmbedder(100, 8, seed=1)
        received = []
        publisher.subscribe(received.append)
        assert len(received) == 1
        assert isinstance(received[0], SnapshotMessage)

    def test_inserts_emit_update_messages(self):
        publisher = PublishingVisionEmbedder(100, 8, seed=1)
        received = []
        publisher.subscribe(received.append)
        publisher.insert("k", 5)
        updates = [m for m in received if isinstance(m, UpdateMessage)]
        assert updates, "an insert that changes the table must emit writes"
        assert all(m.delta != 0 for m in updates)


class TestReplicaConsistency:
    def test_replica_tracks_inserts_exactly(self):
        publisher = PublishingVisionEmbedder(500, 8, seed=2)
        replica = DataPlaneReplica()
        publisher.subscribe(replica.apply)
        pairs = _pairs(500, 8, 2)
        for key, value in pairs.items():
            publisher.insert(key, value)
        assert replica.state_equals(publisher)
        for key, value in pairs.items():
            assert replica.lookup(key) == value

    def test_replica_tracks_updates_and_deletes(self):
        publisher = PublishingVisionEmbedder(300, 4, seed=3)
        replica = DataPlaneReplica()
        publisher.subscribe(replica.apply)
        pairs = _pairs(300, 4, 3)
        for key, value in pairs.items():
            publisher.insert(key, value)
        for key in list(pairs)[:60]:
            pairs[key] = (pairs[key] + 1) % 16
            publisher.update(key, pairs[key])
        for key in list(pairs)[60:90]:
            publisher.delete(key)  # fast space untouched: no message needed
        assert replica.state_equals(publisher)
        keys = np.fromiter(pairs, dtype=np.uint64)
        expected = publisher.lookup_batch(keys)
        assert np.array_equal(replica.lookup_batch(keys), expected)

    def test_reconstruction_resyncs_via_snapshot(self):
        publisher = PublishingVisionEmbedder(200, 4, seed=4)
        replica = DataPlaneReplica()
        publisher.subscribe(replica.apply)
        pairs = _pairs(200, 4, 4)
        for key, value in pairs.items():
            publisher.insert(key, value)
        publisher.reconstruct()
        assert replica.snapshots_applied >= 2
        assert replica.state_equals(publisher)
        for key, value in pairs.items():
            assert replica.lookup(key) == value

    def test_late_subscriber_catches_up(self):
        publisher = PublishingVisionEmbedder(200, 4, seed=5)
        pairs = _pairs(200, 4, 5)
        for key, value in pairs.items():
            publisher.insert(key, value)
        replica = DataPlaneReplica()
        publisher.subscribe(replica.apply)  # snapshot carries full state
        assert replica.state_equals(publisher)

    def test_rolled_back_batch_resyncs_via_cell_messages(self):
        """A batch that raises publishes the XORs of its walked prefix,
        then writes its cells' before-images back; the replica follows
        the undo from those cell messages, with no snapshot."""
        publisher = PublishingVisionEmbedder(
            30, 8, seed=1,
            config=EmbedderConfig(reconstruct_efficiency_limit=0.3),
        )
        replica = DataPlaneReplica()
        publisher.subscribe(replica.apply)
        baseline = publisher._table.copy()
        pairs = _pairs(40, 8, 2)
        with pytest.raises(SpaceExhausted):
            publisher.insert_batch(list(pairs), list(pairs.values()))
        assert publisher.stats.reconstructions == 0
        assert replica.messages_applied > 0  # the prefix was published
        assert publisher._table == baseline
        assert replica.state_equals(publisher)
        assert replica.snapshots_applied == 1  # only the subscription's

    def test_rolled_back_batch_resyncs_via_snapshot(self):
        """A batch that reconstructs and then raises is undone by a dense
        restore of the pre-rebuild table, which no cell XOR shows; the
        replica must follow the restore from a snapshot."""
        publisher = PublishingVisionEmbedder(
            60, 8, seed=1,
            config=EmbedderConfig(max_repair_steps=5, max_search_attempts=1),
        )
        replica = DataPlaneReplica()
        publisher.subscribe(replica.apply)
        baseline = publisher._table.copy()
        pairs = _pairs(100, 8, 3)
        with pytest.raises(SpaceExhausted):
            publisher.insert_batch(list(pairs), list(pairs.values()))
        assert publisher.stats.reconstructions > 0
        assert publisher._table == baseline
        assert replica.state_equals(publisher)
        assert replica.snapshots_applied >= 2

    def test_update_batch_streams_cell_messages(self):
        publisher = PublishingVisionEmbedder(200, 8, seed=4)
        pairs = _pairs(150, 8, 4)
        publisher.insert_batch(list(pairs), list(pairs.values()))
        replica = DataPlaneReplica()
        publisher.subscribe(replica.apply)
        keys = list(pairs)[:60]
        publisher.update_batch(keys, [(pairs[k] + 1) % 256 for k in keys])
        assert replica.messages_applied > 0
        assert replica.snapshots_applied == 1
        assert replica.state_equals(publisher)
        for key in keys:
            assert replica.lookup(key) == (pairs[key] + 1) % 256

    def test_two_replicas_identical(self):
        publisher = PublishingVisionEmbedder(200, 4, seed=6)
        a, b = DataPlaneReplica(), DataPlaneReplica()
        publisher.subscribe(a.apply)
        publisher.subscribe(b.apply)
        for key, value in _pairs(200, 4, 6).items():
            publisher.insert(key, value)
        keys = np.arange(1000, dtype=np.uint64)
        assert np.array_equal(a.lookup_batch(keys), b.lookup_batch(keys))


class TestReplicaErrors:
    def test_update_before_snapshot_rejected(self):
        replica = DataPlaneReplica()
        with pytest.raises(RuntimeError):
            replica.apply(UpdateMessage(cell=(0, 0), delta=1))
        with pytest.raises(RuntimeError):
            replica.lookup(1)

    def test_unknown_message_rejected(self):
        replica = DataPlaneReplica()
        with pytest.raises(TypeError):
            replica.apply("not a message")

    def test_ready_flag(self):
        publisher = PublishingVisionEmbedder(10, 4, seed=1)
        replica = DataPlaneReplica()
        assert not replica.ready
        publisher.subscribe(replica.apply)
        assert replica.ready
