"""Dynamic concurrency tooling: vector-clock races, schedule explorer.

Two halves mirror the two modules:

- :mod:`repro.check.vectorclock` — happens-before tracking must order
  fork/join, mutex and RW-gate edges correctly, report unordered
  conflicting accesses with both stacks, and file the documented benign
  race (lock-free lookup vs. in-flight path application) under the
  allowlist instead of failing.
- :mod:`repro.check.scheduler` — deterministic interleavings: exact
  replay, exhaustive/pruned/random enumeration, deadlock detection, and
  the seeded-bug fixtures (a no-op rebuild gate whose bad interleaving
  the explorer provably finds; an unsynchronised writer the detector
  provably catches) while the shipped primitives run clean.

None of these tests sleep: every schedule is driven step-by-step, and
the race fixtures rely on vector-clock ordering (not timing) so they
are deterministic under any OS scheduling.
"""

import json
import threading

import numpy as np
import pytest

from repro.check import main
from repro.check.scheduler import (
    CooperativeMutex,
    CooperativeRWLock,
    Scenario,
    ScheduleError,
    YieldingValueTable,
    embedder_scenario,
    explore,
    footprints_conflict,
    gate_bypass_scenario,
    run_schedule,
)
from repro.check.vectorclock import (
    ClockedMutex,
    ClockedRWLock,
    ClockedValueTable,
    RaceDetector,
    TracedThread,
    VectorClock,
    instrument_concurrent,
)
from repro.core.concurrent import ConcurrentVisionEmbedder
from repro.core.value_table import ValueTable
from repro.hashing import key_to_u64


# ---------------------------------------------------------------------------
# vector clocks / race detector
# ---------------------------------------------------------------------------

class TestVectorClock:
    def test_covers_and_join(self):
        clock = VectorClock()
        clock.increment("a")
        clock.increment("a")
        assert clock.covers("a", 2)
        assert not clock.covers("a", 3)
        assert not clock.covers("b", 1)
        other = VectorClock()
        other.increment("b")
        clock.join(other)
        assert clock.covers("b", 1)


class TestRaceDetector:
    def test_sequential_fork_join_is_ordered(self):
        # t2 starts after t1 joined: the join edge orders every access.
        detector = RaceDetector()
        table = ClockedValueTable(detector, ValueTable(8, 8))
        t1 = TracedThread(detector, lambda: table.xor((0, 1), 3))
        t1.start()
        t1.join()
        t2 = TracedThread(detector, lambda: table.xor((0, 1), 5))
        t2.start()
        t2.join()
        summary = detector.summary()
        assert summary["races"] == 0
        assert summary["benign"] == 0

    def test_unordered_writes_race_with_both_stacks(self):
        # Both started before either joined: no happens-before edge
        # exists, so this is a race regardless of real execution order.
        detector = RaceDetector()
        table = ClockedValueTable(detector, ValueTable(8, 8))
        t1 = TracedThread(detector, lambda: table.xor((0, 1), 3))
        t2 = TracedThread(detector, lambda: table.xor((0, 1), 5))
        t1.start()
        t2.start()
        t1.join()
        t2.join()
        assert detector.summary()["races"] == 1
        report = detector.races[0].describe()
        assert "RACE" in report
        assert "earlier access" in report
        assert "later access" in report
        with pytest.raises(AssertionError):
            detector.assert_race_free()

    def test_mutex_edges_order_writers(self):
        detector = RaceDetector()
        table = ClockedValueTable(detector, ValueTable(8, 8))
        mutex = ClockedMutex(detector, threading.RLock())

        def locked_write(delta):
            with mutex:
                table.xor((0, 1), delta)

        t1 = TracedThread(detector, locked_write, args=(3,))
        t2 = TracedThread(detector, locked_write, args=(5,))
        t1.start()
        t2.start()
        t1.join()
        t2.join()
        summary = detector.summary()
        assert summary["races"] == 0
        assert summary["benign"] == 0
        detector.assert_race_free()

    def test_rw_gate_readers_stay_unordered_but_safe(self):
        # Two gate-protected readers are deliberately unordered; with no
        # writer there is nothing to conflict with.
        detector = RaceDetector()
        table = ClockedValueTable(detector, ValueTable(8, 8))
        gate = ClockedRWLock(detector)

        def gated_read():
            with gate.read():
                table.get((0, 1))

        threads = [TracedThread(detector, gated_read) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert detector.summary()["races"] == 0

    def test_lockfree_lookup_vs_update_is_benign(self):
        # The paper's documented race: xor_sum reading cells while a
        # path application XORs them. Allowlisted, reported separately.
        detector = RaceDetector()
        table = ClockedValueTable(detector, ValueTable(8, 8))
        t1 = TracedThread(
            detector, lambda: table.xor_sum([(0, 1), (1, 1)])
        )
        t2 = TracedThread(detector, lambda: table.xor((0, 1), 5))
        t1.start()
        t2.start()
        t1.join()
        t2.join()
        summary = detector.summary()
        assert summary["races"] == 0
        assert summary["benign"] >= 1
        assert detector.benign[0].benign
        assert "IV-B" in detector.benign[0].why
        detector.assert_race_free()  # benign records do not fail

    def test_instrumented_embedder_workload_race_free(self):
        # The shipped synchronisation discipline: concurrent updates and
        # lookups through the public surface produce no *real* race.
        detector = RaceDetector()
        embedder = ConcurrentVisionEmbedder(256, 8, seed=3)
        for i in range(32):
            embedder.insert(i + 1, (i * 7) % 256)
        instrument_concurrent(embedder, detector)

        def writer():
            for i in range(32):
                embedder.update(i + 1, (i * 11) % 256)

        def reader():
            for i in range(128):
                embedder.lookup(i % 32 + 1)

        t1 = TracedThread(detector, writer, name="writer")
        t2 = TracedThread(detector, reader, name="reader")
        t1.start()
        t2.start()
        t1.join()
        t2.join()
        assert detector.summary()["races"] == 0
        embedder.check_invariants()

    def test_instrumented_batch_lookup_is_recorded(self):
        # Batch lookups read the planes through gather_xor; the proxy
        # must record that read, or no batch lookup is ever checked.
        detector = RaceDetector()
        embedder = ConcurrentVisionEmbedder(256, 8, seed=3)
        for i in range(16):
            embedder.insert(i + 1, i + 100)
        instrument_concurrent(embedder, detector)
        keys = np.arange(1, 17, dtype=np.uint64)
        assert embedder.lookup_batch(keys).tolist() == list(range(100, 116))
        assert detector.summary()["locations"] > 0

    def test_batch_read_racing_clear_is_a_race(self):
        # A whole-table rewrite is not on the benign allowlist, whichever
        # lookup path reads the table.
        detector = RaceDetector()
        table = ClockedValueTable(detector, ValueTable(8, 8))
        flat_mat = np.array([[1], [9], [17]], dtype=np.int64)
        t1 = TracedThread(detector, lambda: table.gather_xor(flat_mat))
        t2 = TracedThread(detector, table.clear)
        t1.start()
        t2.start()
        t1.join()
        t2.join()
        assert detector.summary()["races"] == 1
        assert {detector.races[0].first.op, detector.races[0].second.op} \
            == {"gather_xor", "clear"}

    def test_seeded_unsynchronised_write_caught(self):
        # Seeded bug: a rogue thread writing a cell with set() while a
        # legitimate update of the key owning that cell runs under the
        # mutex. The update's search always reads the key's own cells,
        # so an unordered read/set pair is guaranteed — and set() is not
        # on the benign allowlist.
        detector = RaceDetector()
        embedder = ConcurrentVisionEmbedder(256, 8, seed=3)
        for i in range(8):
            embedder.insert(i + 1, i + 1)
        instrument_concurrent(embedder, detector)
        victim_cell = embedder._cells_for(key_to_u64(1))[0]

        def legit():
            for value in range(10, 20):
                embedder.update(1, value)

        def rogue():
            for _ in range(10):
                embedder._table.set(victim_cell, 7)

        t1 = TracedThread(detector, legit, name="legit")
        t2 = TracedThread(detector, rogue, name="rogue")
        t1.start()
        t2.start()
        t1.join()
        t2.join()
        assert detector.summary()["races"] >= 1
        assert any(
            "set" in (race.first.op, race.second.op)
            for race in detector.races
        )


# ---------------------------------------------------------------------------
# schedule explorer
# ---------------------------------------------------------------------------

class TestFootprints:
    def test_conflict_rules(self):
        write = frozenset({(("cell", 0, 1), "write")})
        read_same = frozenset({(("cell", 0, 1), "read")})
        read_other = frozenset({(("cell", 2, 3), "read")})
        table = frozenset({(("table",), "write")})
        lock = frozenset({(("lock", 0), "write")})
        assert footprints_conflict(write, read_same)
        assert not footprints_conflict(read_same, read_same)
        assert not footprints_conflict(write, read_other)
        assert footprints_conflict(table, read_other)
        assert not footprints_conflict(lock, table)
        assert footprints_conflict(None, read_other)


class TestRunSchedule:
    def test_deterministic_and_replayable(self):
        first = run_schedule(embedder_scenario)
        second = run_schedule(embedder_scenario)
        assert first.error is None
        assert first.schedule == second.schedule
        replay = run_schedule(embedder_scenario, prefix=first.schedule)
        assert replay.schedule == first.schedule
        assert replay.error is None

    def test_bad_prefix_reports_divergence(self):
        result = run_schedule(embedder_scenario, prefix=("nonesuch",))
        assert result.error is not None
        assert "diverged" in result.error

    def test_empty_scenario_rejected(self):
        with pytest.raises(ScheduleError, match="no tasks"):
            run_schedule(lambda run: Scenario(tasks={}))

    def test_batch_lookup_is_a_yield_point(self):
        def factory(run):
            embedder = ConcurrentVisionEmbedder(64, 8, seed=3)
            embedder.insert(1, 5)
            embedder.instrument_sync(
                mutex=CooperativeMutex(run),
                gate=CooperativeRWLock(run),
                table=YieldingValueTable(run, embedder._table),
            )
            keys = np.array([1], dtype=np.uint64)
            return Scenario(
                tasks={"batch": lambda: embedder.lookup_batch(keys)}
            )

        result = run_schedule(factory)
        assert result.error is None
        assert frozenset({(("table",), "read")}) in [
            step.footprint for step in result.steps
        ]


class TestExplore:
    def test_exhaustive_100_distinct_deterministic(self):
        # The acceptance bar: >= 100 distinct interleavings of the
        # insert/lookup/reconstruct scenario, identical across runs.
        first = explore(embedder_scenario, max_schedules=150)
        second = explore(embedder_scenario, max_schedules=150)
        assert first.distinct >= 100
        assert first.schedules == first.distinct  # DFS never repeats
        assert [r.schedule for r in first.results] == \
               [r.schedule for r in second.results]
        assert not first.failures

    def test_correct_gate_tree_exhausts_clean(self):
        outcome = explore(gate_bypass_scenario, max_schedules=500)
        assert outcome.schedules < 500  # tree fully enumerated
        assert not outcome.failures

    def test_broken_gate_interleaving_found(self):
        # Seeded bug: with a no-op rebuild gate the explorer must find a
        # schedule where the lookup reads a half-rebuilt table.
        outcome = explore(
            lambda run: gate_bypass_scenario(run, broken=True),
            max_schedules=500,
        )
        assert outcome.failures
        assert any("torn" in r.error for r in outcome.failures)

    def test_pruning_preserves_the_bug_with_fewer_schedules(self):
        exhaustive = explore(
            lambda run: gate_bypass_scenario(run, broken=True),
            mode="exhaustive", max_schedules=500,
        )
        pruned = explore(
            lambda run: gate_bypass_scenario(run, broken=True),
            mode="pruned", max_schedules=500,
        )
        assert pruned.schedules < exhaustive.schedules
        assert pruned.failures  # sleep sets only skip commuting swaps

    def test_random_mode_is_seeded(self):
        first = explore(
            embedder_scenario, mode="random", max_schedules=10, seed=7
        )
        second = explore(
            embedder_scenario, mode="random", max_schedules=10, seed=7
        )
        assert [r.schedule for r in first.results] == \
               [r.schedule for r in second.results]
        assert not first.failures

    def test_unknown_mode_rejected(self):
        with pytest.raises(ScheduleError, match="unknown"):
            explore(embedder_scenario, mode="chaotic")

    def test_deadlock_found_and_reported(self):
        # Classic lock-order inversion: some interleavings complete,
        # and the explorer finds the ones that deadlock — as findings,
        # not hung tests.
        def factory(run):
            first = CooperativeMutex(run)
            second = CooperativeMutex(run)

            def forward():
                with first:
                    with second:
                        pass

            def backward():
                with second:
                    with first:
                        pass

            return Scenario(tasks={"fwd": forward, "bwd": backward})

        outcome = explore(factory, max_schedules=100)
        assert outcome.deadlocks
        assert any(r.error is None for r in outcome.results)
        report = outcome.deadlocks[0].error
        assert "CooperativeMutex" in report


# ---------------------------------------------------------------------------
# CLI integration
# ---------------------------------------------------------------------------

class TestCliDynamicSections:
    def test_explore_json_sections(self, capsys):
        code = main([
            "src/repro/check/scheduler.py", "--no-baseline",
            "--explore", "--max-schedules", "25", "--format", "json",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["format"] == "repro-check/1"
        scenarios = payload["explore"]["scenarios"]
        assert scenarios["insert-lookup-reconstruct"]["distinct"] > 0
        assert scenarios["gate-exclusion"]["failures"] == 0

    def test_races_text_section(self, capsys):
        code = main([
            "src/repro/check/vectorclock.py", "--no-baseline", "--races",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "0 real" in out
        assert "benign" in out
