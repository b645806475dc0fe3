"""Thread-safe embedder: RWLock semantics and concurrent workloads.

The RWLock exclusion/fairness properties are checked with the
deterministic schedule explorer (:mod:`repro.check.scheduler`) instead of
``time.sleep()`` races: each property is phrased as a postcondition over
an event log and asserted on *every* interleaving the explorer
enumerates, so a regression fails on the exact schedule that breaks it
rather than flaking with timing.
"""

import random
import threading
import time

import numpy as np
import pytest

from repro.check.lockset import LockDisciplineError, LocksetRWLock
from repro.check.scheduler import CooperativeRWLock, Scenario, explore
from repro.core.concurrent import ConcurrentVisionEmbedder, RWLock


def _explore_clean(factory, max_schedules=300):
    """Explore every schedule; fail on the first violated postcondition."""
    outcome = explore(factory, max_schedules=max_schedules)
    failures = outcome.failures
    assert not failures, failures[0].error
    assert outcome.schedules > 1  # the property was actually exercised
    assert outcome.schedules < max_schedules  # tree fully enumerated
    return outcome


class TestRWLock:
    def test_multiple_readers(self):
        lock = RWLock()
        lock.acquire_read()
        lock.acquire_read()
        lock.release_read()
        lock.release_read()

    def test_writer_excludes_readers(self):
        # In no interleaving does a reader enter the write section.
        def factory(run):
            lock = CooperativeRWLock(run)
            log = []

            def writer():
                with lock.write():
                    log.append("w-in")
                    run.yield_point()
                    log.append("w-out")

            def reader():
                with lock.read():
                    log.append("r-in")

            def check():
                w_in, w_out = log.index("w-in"), log.index("w-out")
                if w_in < log.index("r-in") < w_out:
                    raise AssertionError(
                        f"reader entered the write section: {log}"
                    )

            return Scenario(
                tasks={"writer": writer, "reader": reader}, check=check
            )

        _explore_clean(factory)

    def test_writer_waits_for_readers(self):
        # In no interleaving does the writer enter the read section.
        def factory(run):
            lock = CooperativeRWLock(run)
            log = []

            def reader():
                with lock.read():
                    log.append("r-in")
                    run.yield_point()
                    log.append("r-out")

            def writer():
                with lock.write():
                    log.append("w-in")

            def check():
                r_in, r_out = log.index("r-in"), log.index("r-out")
                if r_in < log.index("w-in") < r_out:
                    raise AssertionError(
                        f"writer entered the read section: {log}"
                    )

            return Scenario(
                tasks={"reader": reader, "writer": writer}, check=check
            )

        _explore_clean(factory)

    def test_writer_preference_blocks_new_readers(self):
        # Once a writer is waiting, a late reader never overtakes it.
        # "w-want" is appended in the same atomic segment that parks the
        # writer on acquire_write, so any event logged between "w-want"
        # and "w-in" happened while the writer was provably waiting.
        def factory(run):
            lock = CooperativeRWLock(run)
            log = []

            def holder():
                with lock.read():
                    log.append("r1-in")
                    run.yield_point()
                    run.yield_point()
                    log.append("r1-out")

            def writer():
                log.append("w-want")
                with lock.write():
                    log.append("w-in")

            def late_reader():
                with lock.read():
                    log.append("r2-in")

            def check():
                w_want, w_in = log.index("w-want"), log.index("w-in")
                if w_want < log.index("r2-in") < w_in:
                    raise AssertionError(
                        f"late reader overtook a waiting writer: {log}"
                    )

            return Scenario(
                tasks={
                    "holder": holder,
                    "writer": writer,
                    "late_reader": late_reader,
                },
                check=check,
            )

        _explore_clean(factory, max_schedules=2000)

    def test_context_managers(self):
        lock = RWLock()
        with lock.read():
            pass
        with lock.write():
            pass


class TestLocksetRWLock:
    """Dynamic lock-discipline checking (the runtime counterpart of R3).

    LocksetRWLock raises a typed error *at the misuse site* for patterns
    that would deadlock or corrupt a plain RWLock, so these edge cases
    are testable without hanging the suite.
    """

    def test_drop_in_happy_path(self):
        lock = LocksetRWLock()
        with lock.read():
            assert lock.held_by_current_thread() == (1, 0)
        with lock.write():
            assert lock.held_by_current_thread() == (0, 1)
        lock.assert_quiescent()

    def test_read_write_upgrade_raises(self):
        # Upgrading read -> write self-deadlocks under writer preference:
        # the writer waits for readers to drain, but *is* the reader.
        lock = LocksetRWLock()
        lock.acquire_read()
        with pytest.raises(LockDisciplineError, match="upgrade"):
            lock.acquire_write()
        lock.release_read()
        lock.assert_quiescent()

    def test_write_reentrancy_raises(self):
        # RWLock is not reentrant: a second acquire_write on the owning
        # thread waits on its own holder forever.
        lock = LocksetRWLock()
        lock.acquire_write()
        with pytest.raises(LockDisciplineError, match="re-entrant"):
            lock.acquire_write()
        lock.release_write()
        lock.assert_quiescent()

    def test_read_under_own_write_raises(self):
        lock = LocksetRWLock()
        lock.acquire_write()
        with pytest.raises(LockDisciplineError, match="write lock"):
            lock.acquire_read()
        lock.release_write()

    def test_reentrant_read_with_queued_writer_raises(self):
        # Re-entrant reads are fine on a quiet lock but deadlock once a
        # writer queues: preference blocks the inner read, and the outer
        # read never releases -> cycle. The lockset flags the inner read.
        lock = LocksetRWLock()
        lock.acquire_read()
        writer_waiting = threading.Event()

        def writer():
            writer_waiting.set()
            with lock.write():
                pass

        thread = threading.Thread(target=writer)
        thread.start()
        writer_waiting.wait()
        # Poll: the writer thread must actually be queued inside
        # acquire_write before the inner read is attempted.
        for _ in range(200):
            if lock._writers_waiting:
                break
            time.sleep(0.005)
        assert lock._writers_waiting == 1
        with pytest.raises(LockDisciplineError, match="writer is queued"):
            lock.acquire_read()
        lock.release_read()
        thread.join(timeout=2)
        lock.assert_quiescent()

    def test_reentrant_read_allowed_when_uncontended(self):
        lock = LocksetRWLock()
        with lock.read():
            with lock.read():
                assert lock.held_by_current_thread() == (2, 0)
        lock.assert_quiescent()

    def test_unmatched_releases_raise(self):
        lock = LocksetRWLock()
        with pytest.raises(LockDisciplineError, match="release_read"):
            lock.release_read()
        with pytest.raises(LockDisciplineError, match="release_write"):
            lock.release_write()

    def test_assert_quiescent_reports_leak(self):
        lock = LocksetRWLock()
        lock.acquire_read()
        with pytest.raises(LockDisciplineError, match="unbalanced"):
            lock.assert_quiescent()
        lock.release_read()
        lock.assert_quiescent()

    def test_history_records_events(self):
        lock = LocksetRWLock()
        with lock.write():
            pass
        with lock.read():
            pass
        events = [event for _, event, _, _ in lock.history]
        assert events == [
            "acquire_write", "release_write",
            "acquire_read", "release_read",
        ]

    def test_writer_preference_preserved(self):
        # The instrumented lock must keep the base semantics: a queued
        # writer still blocks late readers on other threads.
        lock = LocksetRWLock()
        lock.acquire_read()
        reader_done = threading.Event()

        def writer():
            with lock.write():
                pass

        def late_reader():
            with lock.read():
                reader_done.set()

        writer_thread = threading.Thread(target=writer)
        writer_thread.start()
        for _ in range(200):
            if lock._writers_waiting:
                break
            time.sleep(0.005)
        reader_thread = threading.Thread(target=late_reader)
        reader_thread.start()
        time.sleep(0.05)
        assert not reader_done.is_set()
        lock.release_read()
        writer_thread.join(timeout=2)
        reader_thread.join(timeout=2)
        assert reader_done.is_set()
        lock.assert_quiescent()

    def test_embedder_workload_obeys_discipline(self):
        # Swap the instrumented lock in for the rebuild gate and drive a
        # real mixed workload; every acquisition must balance.
        n = 300
        table = ConcurrentVisionEmbedder(n, 8, seed=12)
        gate = LocksetRWLock()
        table._rebuild_gate = gate
        items = list(_pairs(n, 12).items())
        errors = []

        def writer(chunk):
            try:
                for key, value in chunk:
                    table.insert(key, value)
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        def reader():
            try:
                for key, _ in items[:50]:
                    table.lookup(key) if key in table else None
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(items[i::3],))
            for i in range(3)
        ] + [threading.Thread(target=reader) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        table.reconstruct()  # exercise the write side of the gate too
        gate.assert_quiescent()
        table.check_invariants()


class TestUpdateMutexReentrancy:
    def test_reconstruct_reenters_update_mutex(self):
        # insert()/update() hold the update mutex when a failed walk
        # triggers auto-reconstruction, which re-acquires it — the mutex
        # must be an RLock or the embedder deadlocks against itself.
        n = 200
        table = ConcurrentVisionEmbedder(n, 8, seed=14)
        items = list(_pairs(n, 14).items())
        for key, value in items[: n // 2]:
            table.insert(key, value)
        with table._update_mutex:
            table.reconstruct()  # second acquisition on the same thread
        table.check_invariants()
        for key, value in items[: n // 2]:
            assert table.lookup(key) == value


    def test_batch_updates_and_deletes_take_the_update_mutex(self):
        table = ConcurrentVisionEmbedder(200, 8, seed=3)
        table.insert_batch(list(range(1, 51)), list(range(50)))
        entered = []
        inner = threading.RLock()

        class Recording:
            def __enter__(self):
                entered.append(True)
                return inner.__enter__()

            def __exit__(self, *exc):
                return inner.__exit__(*exc)

        table.instrument_sync(mutex=Recording())
        table.update_batch([1, 2], [7, 8])
        assert len(entered) == 1
        table.delete_batch([3, 4])
        assert len(entered) == 2
        assert table.lookup_many([1, 2]).tolist() == [7, 8]
        assert 3 not in table
        table.check_invariants()


def _pairs(n, seed):
    rng = random.Random(seed)
    pairs = {}
    while len(pairs) < n:
        pairs[rng.getrandbits(48)] = rng.getrandbits(8)
    return pairs


class TestConcurrentEmbedder:
    def test_parallel_inserts_stay_consistent(self):
        n = 1200
        table = ConcurrentVisionEmbedder(n, 8, seed=2)
        items = list(_pairs(n, 2).items())
        errors = []

        def worker(chunk):
            try:
                for key, value in chunk:
                    table.insert(key, value)
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(items[i::6],))
            for i in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(table) == n
        table.check_invariants()
        for key, value in items:
            assert table.lookup(key) == value

    def test_concurrent_lookups_during_updates(self):
        n = 800
        table = ConcurrentVisionEmbedder(n, 8, seed=4)
        items = list(_pairs(n, 4).items())
        first_half = items[: n // 2]
        for key, value in first_half:
            table.insert(key, value)
        stable_keys = np.array([k for k, _ in first_half], dtype=np.uint64)
        stop = threading.Event()
        mismatches = []

        def reader():
            expected = np.array([v for _, v in first_half], dtype=np.uint64)
            while not stop.is_set():
                got = table.lookup_batch(stable_keys)
                if not np.array_equal(got, expected):
                    mismatches.append(got)

        def writer():
            for key, value in items[n // 2 :]:
                table.insert(key, value)
            stop.set()

        reader_thread = threading.Thread(target=reader)
        writer_thread = threading.Thread(target=writer)
        reader_thread.start()
        writer_thread.start()
        writer_thread.join(timeout=60)
        stop.set()
        reader_thread.join(timeout=10)
        table.check_invariants()
        # Readers may transiently observe a path mid-application for keys
        # *being repaired*, but keys untouched by any in-flight update path
        # can still flip momentarily only if they share cells. Quiescent
        # state must be exact:
        final = table.lookup_batch(stable_keys)
        expected = np.array([v for _, v in first_half], dtype=np.uint64)
        assert np.array_equal(final, expected)

    def test_mixed_update_delete_threads(self):
        n = 600
        table = ConcurrentVisionEmbedder(n, 8, seed=6)
        items = list(_pairs(n, 6).items())
        for key, value in items:
            table.insert(key, value)
        updaters = items[: n // 3]
        deleters = items[n // 3 : 2 * n // 3]

        def update_worker():
            for key, value in updaters:
                table.update(key, (value + 1) % 256)

        def delete_worker():
            for key, _ in deleters:
                table.delete(key)

        threads = [
            threading.Thread(target=update_worker),
            threading.Thread(target=delete_worker),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        table.check_invariants()
        for key, value in updaters:
            assert table.lookup(key) == (value + 1) % 256
        assert len(table) == n - len(deleters)

    def test_eight_thread_mixed_soak(self):
        """Eight threads of mixed inserts/updates/deletes/lookups over
        disjoint key ranges; quiescent state must match per-thread models."""
        table = ConcurrentVisionEmbedder(4000, 8, seed=10)
        models = [dict() for _ in range(8)]
        errors = []

        def worker(worker_id):
            rng = random.Random(worker_id)
            base = worker_id << 32
            model = models[worker_id]
            try:
                for _ in range(500):
                    action = rng.random()
                    key = base + rng.randrange(400)
                    if action < 0.5 and key not in model:
                        value = rng.getrandbits(8)
                        table.insert(key, value)
                        model[key] = value
                    elif action < 0.75 and model:
                        victim = rng.choice(list(model))
                        value = rng.getrandbits(8)
                        table.update(victim, value)
                        model[victim] = value
                    elif action < 0.9 and model:
                        victim = rng.choice(list(model))
                        table.delete(victim)
                        del model[victim]
                    else:
                        table.lookup(key)  # may be stale mid-path: ok
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append((worker_id, exc))

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors
        table.check_invariants()
        combined = {}
        for model in models:
            combined.update(model)
        assert len(table) == len(combined)
        for key, value in combined.items():
            assert table.lookup(key) == value

    def test_explicit_reconstruct_under_readers(self):
        n = 400
        table = ConcurrentVisionEmbedder(n, 8, seed=8)
        items = list(_pairs(n, 8).items())
        for key, value in items:
            table.insert(key, value)
        keys = np.array([k for k, _ in items], dtype=np.uint64)
        expected = np.array([v for _, v in items], dtype=np.uint64)
        stop = threading.Event()
        bad = []

        def reader():
            while not stop.is_set():
                got = table.lookup_batch(keys)
                if not np.array_equal(got, expected):
                    bad.append(1)

        thread = threading.Thread(target=reader)
        thread.start()
        for _ in range(3):
            table.reconstruct()
        stop.set()
        thread.join(timeout=10)
        # The rebuild gate must hide every intermediate (cleared) state.
        assert not bad
        table.check_invariants()
