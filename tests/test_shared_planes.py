"""Shared-memory plane storage: parity, seqlock, and segment hygiene.

Four tiers:

- **Parity** — promoting a table into shared segments must be invisible:
  bit-equal lookups before and after ``share_table``/``unshare_table``,
  on plain and bit-packed planes, scalar and sharded tables, with writes
  landing in the shared words in between; and every reader of the
  segments (a worker's table, a replica) answers like the table itself,
  also after a reseed.
- **Seqlock** — the generation protocol itself: odd while a transaction
  is open, reader retries when the generation moves mid-read, the retry
  budget surfaces as :class:`SharedPlanesError`, reader-role handles
  cannot mutate.
- **Torn-read stress** — a real reader process hammers lookups while the
  owner rewrites a key's cells; every observed value must be one of the
  two legal states, never a mixture (the acceptance criterion of the
  scale-out issue).
- **Hygiene** — ``/dev/shm`` is left clean by the normal lifecycle, by a
  SIGKILL'd owner (its ``resource_tracker`` unlinks), and by a failure
  inside create, promote or demote; a dying reader never unlinks a
  segment it does not own.
"""

import glob
import multiprocessing
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.core import shared_planes
from repro.core.embedder import VisionEmbedder
from repro.core.errors import SharedPlanesError
from repro.core.replication import DataPlaneReplica, PublishingVisionEmbedder
from repro.core.sharded import ShardedEmbedder
from repro.core.shared_planes import (
    SharedPlanes,
    SharedPlanesSpec,
    refresh_meta,
    share_table,
    unshare_table,
    write_bracket,
)
from repro.hashing import HashFamily, key_to_u64
from repro.serve.pool import WorkerTable


def _segments():
    return set(glob.glob("/dev/shm/repro-planes-*"))


def _probe_lookups(table, keys):
    return {key: table.lookup(key) for key in keys}


# ---------------------------------------------------------------------------
# Parity: promotion is invisible to the table's own surface
# ---------------------------------------------------------------------------


class TestParity:
    @pytest.mark.parametrize("packed", [False, True])
    def test_scalar_promote_is_bit_equal(self, packed):
        table = VisionEmbedder(600, 16, seed=3, packed=packed)
        table.insert_many((k, (k * 31) % 65536) for k in range(400))
        keys = list(range(0, 400, 7))
        before = _probe_lookups(table, keys)
        dense_before = table._table.to_dense().copy()

        spec = share_table(table)
        try:
            assert isinstance(table._table, SharedPlanes)
            assert table._table.packed is packed
            assert _probe_lookups(table, keys) == before
            np.testing.assert_array_equal(
                table._table.to_dense(), dense_before
            )
        finally:
            unshare_table(table)
        assert not isinstance(table._table, SharedPlanes)
        assert _probe_lookups(table, keys) == before
        assert spec.num_shards == 1
        table.check_invariants()
        assert not _segments()

    def test_sharded_promote_writes_and_demote(self):
        table = ShardedEmbedder(capacity=3000, value_bits=16, num_shards=4)
        table.insert_many((k, (k * 7 + 1) % 65536) for k in range(1000))
        keys = list(range(0, 1000, 13))
        before = _probe_lookups(table, keys)

        spec = share_table(table)
        try:
            assert spec.num_shards == 4
            assert _probe_lookups(table, keys) == before
            # Writes land in the shared words and read back bit-equal.
            table.insert(50_001, 4242)
            table.update(0, 777)
            table.delete(1)
            assert table.lookup(50_001) == 4242
            assert table.lookup(0) == 777
        finally:
            unshare_table(table)
        assert table.lookup(50_001) == 4242
        assert table.lookup(0) == 777
        assert 1 not in table
        table.check_invariants()
        assert not _segments()

    def test_reader_attach_sees_owner_bits(self):
        table = VisionEmbedder(400, 16, seed=9)
        table.insert_many((k, k % 65536) for k in range(250))
        spec = share_table(table)
        try:
            reader = SharedPlanes.attach(spec.planes)
            try:
                assert not reader.writable
                np.testing.assert_array_equal(
                    reader.to_dense(), table._table.to_dense()
                )
                assert reader.seed == table.seed
                assert reader.length == len(table)
            finally:
                reader.close()
        finally:
            unshare_table(table)
        assert not _segments()

    def test_attach_rejects_geometry_mismatch(self):
        planes = SharedPlanes.create(64, 16, 3)
        try:
            wrong = SharedPlanesSpec(
                name=planes.spec.name, width=32, value_bits=16,
                num_arrays=3, packed=False,
            )
            with pytest.raises(SharedPlanesError, match="geometry"):
                SharedPlanes.attach(wrong)
        finally:
            planes.destroy()

    def test_attach_rejects_foreign_segment(self):
        from multiprocessing import shared_memory

        shm = shared_memory.SharedMemory(create=True, size=1 << 14)
        try:
            spec = SharedPlanesSpec(
                name=shm.name, width=8, value_bits=8, num_arrays=3,
                packed=False,
            )
            with pytest.raises(SharedPlanesError, match="not a repro"):
                SharedPlanes.attach(spec)
        finally:
            shm.close()
            shm.unlink()


class TestReadPathParity:
    """Every reader of one table runs the same lookup and must agree:
    the table itself, a worker's view of its shared segments, and (for
    an unsharded table) a replica fed by its message stream — also once
    a reconstruction has reseeded one shard under the worker's cached
    hash family."""

    @staticmethod
    def _assert_agree(table, readers, keys, values):
        probes = [
            np.zeros(0, dtype=np.uint64), keys[:1],
            np.repeat(keys[:5], 3), keys,
        ]
        assert np.array_equal(table.lookup_batch(keys), values)
        for reader in readers:
            for key in keys[:40].tolist():
                assert reader.lookup(key) == table.lookup(key)
            for probe in probes:
                assert np.array_equal(
                    reader.lookup_batch(probe), table.lookup_batch(probe)
                )

    @pytest.mark.parametrize("packed", [False, True])
    @pytest.mark.parametrize("num_shards", [None, 1, 8])
    def test_readers_agree_before_and_after_a_reseed(
        self, packed, num_shards
    ):
        keys = np.arange(1, 401, dtype=np.uint64) * np.uint64(7919)
        values = (keys * np.uint64(13) + np.uint64(5)) % np.uint64(65536)
        readers = []
        if num_shards is None:
            table = PublishingVisionEmbedder(800, 16, seed=5, packed=packed)
            replica = DataPlaneReplica()
            table.subscribe(replica.apply)
            readers.append(replica)
            reseeded = table
        else:
            table = ShardedEmbedder(
                800, 16, num_shards=num_shards, seed=5, packed=packed
            )
            reseeded = table.shards[num_shards // 2]
        table.insert_batch(keys, values.tolist())
        owner_end, worker_end = multiprocessing.Pipe()
        worker = WorkerTable(share_table(table), worker_end)
        readers.append(worker)
        try:
            self._assert_agree(table, readers, keys, values)
            seed = reseeded.seed
            if num_shards is None:
                table.reconstruct()
            else:
                table.reconstruct(shard=num_shards // 2)
            refresh_meta(table)
            assert reseeded.seed != seed
            self._assert_agree(table, readers, keys, values)
        finally:
            worker.close()
            owner_end.close()
            worker_end.close()
            unshare_table(table)
        assert not _segments()


# ---------------------------------------------------------------------------
# Seqlock protocol
# ---------------------------------------------------------------------------


class TestSeqlock:
    def test_generation_odd_inside_transaction(self):
        planes = SharedPlanes.create(32, 8, 3)
        try:
            assert planes.generation % 2 == 0
            with planes.transaction():
                assert planes.generation % 2 == 1
                with planes.transaction():  # reentrant: still one txn
                    assert planes.generation % 2 == 1
                assert planes.generation % 2 == 1
            assert planes.generation % 2 == 0
        finally:
            planes.destroy()

    def test_reader_cannot_mutate(self):
        planes = SharedPlanes.create(32, 8, 3)
        try:
            reader = SharedPlanes.attach(planes.spec)
            try:
                with pytest.raises(SharedPlanesError, match="reader-role"):
                    reader.set((0, 0), 1)
                with pytest.raises(SharedPlanesError, match="reader-role"):
                    reader.begin_update()
            finally:
                reader.close()
        finally:
            planes.destroy()

    def test_read_retries_when_generation_moves(self):
        planes = SharedPlanes.create(32, 8, 3)
        try:
            reader = SharedPlanes.attach(planes.spec)
            try:
                moved = []

                def compute():
                    if not moved:
                        moved.append(True)
                        with planes.transaction():
                            planes._inner.set((0, 0), 0x55)
                    return reader._inner.get((0, 0))

                assert reader.read_stable(compute) == 0x55
                assert reader.retries == 1
            finally:
                reader.close()
        finally:
            planes.destroy()

    def test_retry_budget_exhaustion_raises(self):
        planes = SharedPlanes.create(32, 8, 3)
        try:
            reader = SharedPlanes.attach(planes.spec)
            try:
                def always_moving():
                    with planes.transaction():
                        pass  # bump generation on every attempt
                    return 0

                with pytest.raises(SharedPlanesError, match="stabilise"):
                    reader.read_stable(always_moving)
            finally:
                reader.close()
        finally:
            planes.destroy()

    def test_shard_write_inside_table_bracket_does_not_publish(self):
        # One generation for the whole table: a write through any shard's
        # handle nests in the owner's table bracket, so readers keep
        # retrying until the bracket (walk + header republish) closes.
        table = ShardedEmbedder(capacity=800, value_bits=16, num_shards=4)
        table.insert_many((k, k % 65536) for k in range(200))
        share_table(table)
        try:
            planes = table.shards[0]._table
            other = table.shards[3]._table
            start = planes.generation
            with write_bracket(table):
                assert planes.generation == start + 1
                other.xor((1, 2), 0x5A)
                other.xor((1, 2), 0x5A)
                table.insert(10_001, 77)
                assert planes.generation == start + 1
            assert planes.generation == start + 2
            assert table.lookup(10_001) == 77
            table.check_invariants()
        finally:
            unshare_table(table)
        assert not _segments()

    def test_end_update_without_begin_raises(self):
        planes = SharedPlanes.create(32, 8, 3)
        try:
            with pytest.raises(SharedPlanesError, match="end_update"):
                planes.end_update()
        finally:
            planes.destroy()

    def test_reader_in_the_owner_process_does_not_wait_for_itself(self):
        planes = SharedPlanes.create(32, 8, 3)
        try:
            reader = SharedPlanes.attach(planes.spec)
            try:
                with planes.transaction():
                    with pytest.raises(SharedPlanesError, match="stuck odd"):
                        reader.get((0, 0))
            finally:
                reader.close()
        finally:
            planes.destroy()

    def test_reader_raises_once_the_owner_has_exited(self):
        # The owner dies mid-update, leaving the generation odd: a reader
        # must fail fast rather than wait for a bracket nobody will close.
        planes = SharedPlanes.create(32, 8, 3)
        try:
            owner = multiprocessing.get_context("fork").Process(
                target=_open_bracket_and_exit, args=(planes,)
            )
            owner.start()
            owner.join(timeout=10.0)
            assert owner.exitcode == 0
            assert planes.generation % 2 == 1
            reader = SharedPlanes.attach(planes.spec)
            try:
                started = time.monotonic()
                with pytest.raises(SharedPlanesError, match="stuck odd"):
                    reader.get((0, 0))
                assert time.monotonic() - started < 5.0
            finally:
                reader.close()
        finally:
            planes.destroy()
        assert not _segments()


def _open_bracket_and_exit(planes):
    """A forked owner that dies inside its write bracket."""
    planes.begin_update()
    os._exit(0)


# ---------------------------------------------------------------------------
# Torn-read stress: a real reader process vs a live writer
# ---------------------------------------------------------------------------


def _stress_reader(spec, seed, handle, duration_s, conn):
    """Hammer one key's 3-cell XOR; report every distinct value seen."""
    planes = SharedPlanes.attach(spec)
    try:
        family = HashFamily(seed, [planes.width] * planes.num_arrays)
        cells = tuple(enumerate(family.indices(handle)))
        seen = set()
        reads = 0
        deadline = time.monotonic() + duration_s
        while time.monotonic() < deadline:
            seen.add(planes.xor_sum(cells))
            reads += 1
        conn.send((sorted(seen), reads, planes.retries))
    finally:
        planes.close()
        conn.close()


def _stress_block_reader(spec, keys, values, duration_s, conn):
    """Answer every key through a worker's one-pass block read; report
    how many answers were wrong."""
    rpc_end, unused_end = multiprocessing.Pipe()
    worker = WorkerTable(spec, rpc_end)
    try:
        wrong = reads = 0
        deadline = time.monotonic() + duration_s
        while time.monotonic() < deadline:
            wrong += int((worker.lookup_batch(keys) != values).sum())
            reads += 1
        conn.send((wrong, reads))
    finally:
        worker.close()
        rpc_end.close()
        unused_end.close()
        conn.close()


def _bracket_reader(spec, keys, values, conn):
    """Read every key through a worker until told to stop; report wrong
    answers, reads, errors and the longest read."""
    rpc_end, unused_end = multiprocessing.Pipe()
    worker = WorkerTable(spec, rpc_end)
    try:
        wrong = reads = 0
        errors = []
        longest = 0.0
        while not conn.poll():
            started = time.monotonic()
            try:
                wrong += int((worker.lookup_batch(keys) != values).sum())
            except SharedPlanesError as exc:
                errors.append(str(exc))
            longest = max(longest, time.monotonic() - started)
            reads += 1
            if reads == 1:
                conn.send("reading")
        conn.send((wrong, reads, errors, longest))
    finally:
        worker.close()
        rpc_end.close()
        unused_end.close()
        conn.close()


class TestTornReads:
    def test_worker_read_waits_out_a_long_bracket(self):
        # An owner write whose walk fails reconstructs its shard inside
        # the write bracket, which can take a second or more: a worker's
        # read must wait it out and answer right, not raise.
        table = ShardedEmbedder(800, 16, num_shards=4, seed=5)
        keys = np.arange(1, 501, dtype=np.uint64) * np.uint64(7919)
        values = (keys * np.uint64(13) + np.uint64(5)) % np.uint64(65536)
        table.insert_batch(keys, values.tolist())
        spec = share_table(table)
        try:
            ctx = multiprocessing.get_context("fork")
            parent, child = ctx.Pipe()
            reader = ctx.Process(
                target=_bracket_reader, args=(spec, keys, values, child),
                daemon=True,
            )
            reader.start()
            child.close()
            assert parent.poll(10.0) and parent.recv() == "reading"
            started = time.monotonic()
            with write_bracket(table):
                table.reconstruct(shard=0)
                time.sleep(max(0.0, 1.6 - (time.monotonic() - started)))
            time.sleep(0.1)
            parent.send("stop")
            assert parent.poll(10.0), "bracket reader sent nothing"
            wrong, reads, errors, longest = parent.recv()
            reader.join(timeout=10.0)
            parent.close()
            assert not reader.is_alive()
            assert errors == []
            assert wrong == 0, f"{wrong} wrong answers over {reads} reads"
            assert longest >= 1.0, "no read overlapped the bracket"
        finally:
            unshare_table(table)
        table.check_invariants()
        assert not _segments()

    def test_worker_block_read_survives_shard_reconstructions(self):
        # A shard reconstruction changes that shard's seed and every one
        # of its cells; a worker that read the header seeds, or gathered,
        # outside its one stable read would answer from a mixture.
        table = ShardedEmbedder(800, 16, num_shards=4, seed=5)
        keys = np.arange(1, 501, dtype=np.uint64) * np.uint64(7919)
        values = (keys * np.uint64(13) + np.uint64(5)) % np.uint64(65536)
        table.insert_batch(keys, values.tolist())
        spec = share_table(table)
        try:
            ctx = multiprocessing.get_context("fork")
            parent, child = ctx.Pipe()
            reader = ctx.Process(
                target=_stress_block_reader,
                args=(spec, keys, values, 1.5, child),
                daemon=True,
            )
            reader.start()
            child.close()
            deadline = time.monotonic() + 1.5
            rebuilds = 0
            while time.monotonic() < deadline:
                with write_bracket(table):
                    table.reconstruct(shard=rebuilds % 4)
                rebuilds += 1
                time.sleep(0.002)  # writes arrive with gaps, as served
            assert parent.poll(10.0), "stress reader sent nothing"
            wrong, reads = parent.recv()
            reader.join(timeout=10.0)
            parent.close()
            assert not reader.is_alive()
            assert reads > 0 and rebuilds > 0
            assert wrong == 0, f"{wrong} torn answers over {reads} reads"
        finally:
            unshare_table(table)
        table.check_invariants()
        assert not _segments()

    def test_reader_only_sees_pre_or_post_values(self):
        table = VisionEmbedder(300, 16, seed=11)
        table.insert_many((k, 1111) for k in range(200))
        key = 42
        values = (1111, 2222)
        spec = share_table(table)
        try:
            ctx = multiprocessing.get_context("fork")
            parent, child = ctx.Pipe()
            reader = ctx.Process(
                target=_stress_reader,
                args=(
                    spec.planes, table.seed, key_to_u64(key), 1.5, child,
                ),
                daemon=True,
            )
            reader.start()
            child.close()
            deadline = time.monotonic() + 1.5
            flips = 0
            while time.monotonic() < deadline:
                table.update(key, values[(flips + 1) % 2])
                flips += 1
            assert parent.poll(10.0), "stress reader sent nothing"
            seen, reads, retries = parent.recv()
            reader.join(timeout=10.0)
            parent.close()
            assert reads > 0 and flips > 0
            # The acceptance criterion: only the two legal states, ever.
            assert set(seen) <= set(values), (
                f"torn read: saw {seen} across {reads} reads / {flips} flips"
            )
        finally:
            unshare_table(table)
        table.check_invariants()
        assert not _segments()


# ---------------------------------------------------------------------------
# Segment hygiene: resource_tracker discipline
# ---------------------------------------------------------------------------


_KILLED_OWNER_SCRIPT = """
import os, signal, sys
from repro.core.shared_planes import SharedPlanes

planes = SharedPlanes.create(64, 16, 3)
print(planes.spec.name, flush=True)
os.kill(os.getpid(), signal.SIGKILL)
"""

_DYING_READER_SCRIPT = """
import sys
from repro.core.shared_planes import SharedPlanes, SharedPlanesSpec

spec = SharedPlanesSpec(
    name=sys.argv[1], width=64, value_bits=16, num_arrays=3, packed=False
)
planes = SharedPlanes.attach(spec)
assert planes.generation % 2 == 0
sys.exit(0)  # exit without close(): must NOT unlink the owner's segment
"""


class TestSegmentHygiene:
    def test_sigkilled_owner_segment_is_unlinked(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", env.get("PYTHONPATH", "")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-c", _KILLED_OWNER_SCRIPT],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == -signal.SIGKILL
        name = proc.stdout.strip()
        assert name.startswith("repro-planes-")
        # The owner's resource_tracker outlives the SIGKILL and unlinks
        # the registered segment once it notices the owner died.
        deadline = time.monotonic() + 10.0
        path = os.path.join("/dev/shm", name)
        while os.path.exists(path) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not os.path.exists(path), f"{name} leaked after owner SIGKILL"

    def test_dying_reader_does_not_unlink(self):
        planes = SharedPlanes.create(64, 16, 3)
        try:
            env = dict(os.environ)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in ("src", env.get("PYTHONPATH", "")) if p
            )
            proc = subprocess.run(
                [sys.executable, "-c", _DYING_READER_SCRIPT,
                 planes.spec.name],
                capture_output=True, text=True, env=env, timeout=60,
            )
            assert proc.returncode == 0, proc.stderr
            # Give any (buggy) tracker-driven unlink a moment to land.
            time.sleep(0.3)
            path = os.path.join("/dev/shm", planes.spec.name)
            assert os.path.exists(path), "reader exit unlinked the segment"
            # Still attachable and readable.
            again = SharedPlanes.attach(planes.spec)
            again.close()
        finally:
            planes.destroy()
        assert not _segments()

    @pytest.mark.parametrize("packed", [False, True])
    def test_mapping_views_are_plain_ndarrays(self, packed):
        """Header, block words and every shard's storage are plain
        ndarrays on both roles (a ``memmap`` view would route each scalar
        cell access through Python-level ``memmap.__getitem__``), and they
        still alias the one shared mapping."""
        owner = SharedPlanes.create(64, 12, 3, packed=packed, num_shards=3)
        try:
            reader = SharedPlanes.attach(owner.spec)
            try:
                for handle in (owner, reader):
                    segment = handle._segment
                    assert type(segment.header) is np.ndarray
                    assert type(segment.block.words) is np.ndarray
                    for shard in handle.shards():
                        storage = shared_planes._storage(shard._inner)
                        assert type(storage) is np.ndarray
                owner.shards()[2].set((1, 7), 0x5A5)
                assert reader.shards()[2].get((1, 7)) == 0x5A5
            finally:
                reader.close()
        finally:
            owner.destroy()
        assert not _segments()

    def test_close_demotes_to_private_snapshot(self):
        planes = SharedPlanes.create(16, 8, 3)
        planes.set((0, 5), 0x2A)
        snapshot = planes.to_dense().copy()
        planes.close()
        planes.close()  # idempotent
        np.testing.assert_array_equal(planes.to_dense(), snapshot)
        planes.unlink()

    def test_only_creator_may_unlink(self):
        planes = SharedPlanes.create(16, 8, 3)
        try:
            reader = SharedPlanes.attach(planes.spec)
            try:
                with pytest.raises(SharedPlanesError, match="creating owner"):
                    reader.unlink()
            finally:
                reader.close()
        finally:
            planes.destroy()

    def test_share_failure_destroys_partial_segments(self):
        table = ShardedEmbedder(capacity=800, value_bits=16, num_shards=4)
        table.insert_many((k, k % 65536) for k in range(200))
        baseline = _segments()
        shards = list(table.shards)
        original = shards[2]._table

        class Boom(Exception):
            pass

        class ExplodingTable:
            """Quacks just enough to blow up mid-promotion."""

            width = original.width
            value_bits = original.value_bits
            num_arrays = original.num_arrays

            def to_dense(self):
                raise Boom("mid-promotion fault")

        shards[2]._table = ExplodingTable()
        try:
            with pytest.raises(Boom):
                share_table(table)
        finally:
            shards[2]._table = original
        assert _segments() == baseline
        # The untouched shards were never swapped.
        assert not any(
            isinstance(s._table, SharedPlanes) for s in table.shards
        )

    def test_create_failure_unlinks_the_segment(self, monkeypatch):
        baseline = _segments()

        def boom(self, *args, **kwargs):
            raise MemoryError("fault after the segment exists")

        monkeypatch.setattr(SharedPlanes, "__init__", boom)
        with pytest.raises(MemoryError):
            SharedPlanes.create(64, 16, 3)
        assert _segments() == baseline

    def test_share_failure_after_filling_restores_and_unlinks(
        self, monkeypatch
    ):
        table = ShardedEmbedder(capacity=800, value_bits=16, num_shards=4)
        table.insert_many((k, k % 65536) for k in range(200))
        expected = _probe_lookups(table, range(200))
        privates = [shard._table for shard in table.shards]
        baseline = _segments()

        def boom(**kwargs):
            raise MemoryError("fault once every segment is filled")

        monkeypatch.setattr(shared_planes, "SharedTableSpec", boom)
        with pytest.raises(MemoryError):
            share_table(table)
        assert _segments() == baseline
        assert all(
            shard._table is private
            for shard, private in zip(table.shards, privates)
        )
        assert _probe_lookups(table, range(200)) == expected

    def test_unshare_failure_still_unlinks_every_segment(self, monkeypatch):
        table = ShardedEmbedder(capacity=800, value_bits=16, num_shards=4)
        table.insert_many((k, k % 65536) for k in range(200))
        expected = _probe_lookups(table, range(200))
        baseline = _segments()
        share_table(table)
        unlinks = []
        real_unlink = SharedPlanes.unlink

        def unlink_fails_once(self):
            unlinks.append(self)
            if len(unlinks) == 1:
                raise MemoryError("fault before the unlink")
            return real_unlink(self)

        monkeypatch.setattr(SharedPlanes, "unlink", unlink_fails_once)
        with pytest.raises(MemoryError):
            unshare_table(table)
        assert _segments() == baseline
        # Shards left holding their closed handle still serve the bits.
        assert _probe_lookups(table, range(200)) == expected
        table.check_invariants()
