"""Deterministic schedule exploration for the concurrent update path.

The race detector (:mod:`repro.check.vectorclock`) observes whatever
interleaving the OS happens to produce; this module *controls* the
interleaving. Scenario tasks run on real threads, but every
synchronisation-relevant action — a cooperative lock acquisition, a
value-table access — first parks the thread and hands control to a
single-threaded driver that picks which task advances next. One
schedule is therefore a sequence of task names, replayable exactly, and
an explorer enumerates schedules systematically:

- **exhaustive** — depth-first over the full tree of scheduling choices,
  branching at every step where more than one task was runnable;
- **pruned** — the same DFS with sleep-set pruning in the DPOR style:
  after exploring task *t* at a node, *t* goes to sleep in the sibling
  branches and is not scheduled again until an executed step's access
  footprint conflicts with *t*'s pending action, skipping interleavings
  that only commute independent steps;
- **random** — seeded random walks for quick bounded smoke coverage.

Blocking is cooperative: a task that needs an unavailable lock leaves
the runnable set instead of blocking its OS thread, so a schedule in
which no task can advance is reported as a *deadlock* finding rather
than a hung test. At the end of every schedule the scenario's ``check``
callable runs on the driver thread (typically ``check_invariants()``
plus :meth:`SchedulerRun.assert_locks_quiescent`); a failing check, a
task exception, or a deadlock is recorded on the
:class:`ScheduleResult` with the full schedule that produced it.

Everything is deterministic by construction: the driver picks among
*sorted* task names, DFS branch order is fixed, and the random mode
uses a seeded :class:`random.Random` — the same ``explore()`` call
yields the same schedules every time.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.concurrent import ConcurrentVisionEmbedder, RWLock
from repro.core.value_table import Cell

__all__ = [
    "ScheduleError",
    "Scenario",
    "Step",
    "ScheduleResult",
    "ExplorationResult",
    "SchedulerRun",
    "CooperativeMutex",
    "CooperativeRWLock",
    "NoopRWLock",
    "YieldingValueTable",
    "footprints_conflict",
    "run_schedule",
    "explore",
    "embedder_scenario",
    "gate_bypass_scenario",
]

#: a location is a tagged tuple — ``("cell", array, index)`` for one
#: value-table cell, ``("table",)`` for whole-table operations (conflicts
#: with every cell) and ``("lock", n)`` for the *n*-th lock registered
#: with the run (stable across replays, unlike ``id()``).
Location = Tuple[object, ...]
Footprint = FrozenSet[Tuple[Location, str]]

_TABLE: Location = ("table",)
_MAIN = "<driver>"


class ScheduleError(RuntimeError):
    """The harness itself failed (stall, diverged replay, bad scenario)."""


class _ScheduleAbort(BaseException):
    """Raised inside a task thread to unwind it when a run is aborted.

    Derives from ``BaseException`` so scenario-level ``except Exception``
    handlers cannot swallow it; ``finally`` blocks (lock releases) still
    run while the thread unwinds.
    """


def _cell_location(cell: Cell) -> Location:
    return ("cell", int(cell[0]), int(cell[1]))


def _locations_conflict(a: Location, b: Location) -> bool:
    if a == b:
        return True
    return {a[0], b[0]} == {"table", "cell"}


def footprints_conflict(
    a: Optional[Footprint], b: Optional[Footprint]
) -> bool:
    """True if two access footprints do not commute.

    ``None`` (an unknown footprint, e.g. a task's first segment) is
    conservatively treated as conflicting with everything.
    """
    if a is None or b is None:
        return True
    for loc_a, kind_a in a:
        for loc_b, kind_b in b:
            if (kind_a == "write" or kind_b == "write") and \
                    _locations_conflict(loc_a, loc_b):
                return True
    return False


class _Task:
    """One scenario task: a callable plus its scheduling state."""

    def __init__(self, name: str, fn: Callable[[], None]) -> None:
        self.name = name
        self.fn = fn
        self.thread: Optional[threading.Thread] = None
        self.parked = False
        self.granted = False
        self.finished = False
        self.abort = False
        self.pending: Optional[Footprint] = None
        self.wants: Optional[Tuple[Any, str]] = None
        self.error: Optional[BaseException] = None


@dataclass
class Scenario:
    """Tasks to interleave plus an end-of-schedule check.

    ``tasks`` maps task name -> zero-argument callable; ``check`` (if
    given) runs on the driver thread after every task finished and
    should raise on any violated postcondition.
    """

    tasks: Dict[str, Callable[[], None]]
    check: Optional[Callable[[], None]] = None


@dataclass(frozen=True)
class Step:
    """One scheduling decision: who ran, who else could have."""

    chosen: str
    runnable: Tuple[str, ...]
    footprint: Optional[Footprint]
    sleeping: Tuple[Tuple[str, Optional[Footprint]], ...] = ()


@dataclass
class ScheduleResult:
    """Outcome of one fully executed schedule."""

    schedule: Tuple[str, ...]
    steps: Tuple[Step, ...]
    error: Optional[str] = None
    redundant: bool = False


@dataclass
class ExplorationResult:
    """Aggregate outcome of :func:`explore`."""

    mode: str
    results: List[ScheduleResult] = field(default_factory=list)

    @property
    def schedules(self) -> int:
        return len(self.results)

    @property
    def distinct(self) -> int:
        return len({result.schedule for result in self.results})

    @property
    def failures(self) -> List[ScheduleResult]:
        return [result for result in self.results if result.error]

    @property
    def deadlocks(self) -> List[ScheduleResult]:
        return [result for result in self.results
                if result.error is not None
                and result.error.startswith("deadlock")]

    def summary(self) -> Dict[str, object]:
        """JSON-ready counters (the CLI ``--explore`` section)."""
        return {
            "mode": self.mode,
            "schedules": self.schedules,
            "distinct": self.distinct,
            "failures": len(self.failures),
            "deadlocks": len(self.deadlocks),
        }


class SchedulerRun:
    """One scheduled execution: tasks, cooperative locks, the driver.

    Scenario factories receive the run instance, construct their locks
    and yielding proxies against it, and return a :class:`Scenario`;
    :func:`run_schedule` then drives the tasks through one interleaving.
    """

    #: wall-clock bound on any single driver wait — a task blocking
    #: outside a cooperative primitive (a real lock, real I/O) would
    #: otherwise hang the harness silently.
    stall_timeout: float = 30.0

    def __init__(self) -> None:
        self._control = threading.Condition()
        self._tasks: Dict[str, _Task] = {}
        self._idents: Dict[int, _Task] = {}
        self._locks: List[Any] = []

    # -- scenario-facing surface ---------------------------------------

    def add_task(self, name: str, fn: Callable[[], None]) -> None:
        if name in self._tasks:
            raise ScheduleError(f"duplicate task name {name!r}")
        self._tasks[name] = _Task(name, fn)

    def yield_point(self, footprint: Optional[Footprint] = None) -> None:
        """Park the calling task until the driver grants its next step.

        No-op on unregistered threads (the driver itself during scenario
        setup and end-of-schedule checks), so instrumented structures
        stay usable outside scheduled sections.
        """
        task = self._idents.get(threading.get_ident())
        if task is not None:
            self._park(task, footprint, None)

    def assert_locks_quiescent(self) -> None:
        """Raise unless every cooperative lock is fully released."""
        held = [type(lock).__name__ for lock in self._locks
                if not lock._idle()]
        if held:
            raise ScheduleError(
                f"cooperative locks still held at end of schedule: {held}"
            )

    # -- lock plumbing -------------------------------------------------

    def _register_lock(self, lock: Any) -> int:
        self._locks.append(lock)
        return len(self._locks) - 1

    def _lock_acquire(self, lock: Any, mode: str) -> None:
        task = self._idents.get(threading.get_ident())
        if task is None:
            with self._control:
                if not lock._grantable(None, mode, self):
                    raise ScheduleError(
                        f"driver thread would block on "
                        f"{type(lock).__name__} ({mode})"
                    )
                lock._take(None, mode)
            return
        self._park(task, lock._lock_footprint(), (lock, mode))

    def _lock_release(self, lock: Any, mode: str) -> None:
        task = self._idents.get(threading.get_ident())
        with self._control:
            lock._untake(task, mode)
            self._control.notify_all()

    def _writer_waiting(self, lock: Any) -> bool:
        """A parked task wants this lock in write mode (control held)."""
        return any(
            not task.finished and task.parked
            and task.wants == (lock, "write")
            for task in self._tasks.values()
        )

    # -- task side -----------------------------------------------------

    def _park(
        self,
        task: _Task,
        footprint: Optional[Footprint],
        wants: Optional[Tuple[Any, str]],
    ) -> None:
        with self._control:
            task.pending = footprint
            task.wants = wants
            task.parked = True
            self._control.notify_all()
            while not task.granted:
                if task.abort:
                    task.parked = False
                    raise _ScheduleAbort()
                self._control.wait()
            task.granted = False
            task.pending = None
            if wants is not None:
                # The driver only grants when the lock is grantable, and
                # nothing else runs between grant and here, so taking it
                # now is atomic from the schedule's point of view.
                wants[0]._take(task, wants[1])
                task.wants = None

    def _task_main(self, task: _Task) -> None:
        self._idents[threading.get_ident()] = task
        try:
            self._park(task, None, None)  # await the first grant
            task.fn()
        except _ScheduleAbort:
            pass
        except BaseException as exc:  # recorded, surfaced as the result
            task.error = exc
        finally:
            self._idents.pop(threading.get_ident(), None)
            with self._control:
                task.finished = True
                task.parked = False
                self._control.notify_all()

    # -- driver --------------------------------------------------------

    def _all_settled(self) -> bool:
        return all(task.finished or task.parked
                   for task in self._tasks.values())

    def _abort_all(self) -> None:
        for task in self._tasks.values():
            if not task.finished:
                task.abort = True
        self._control.notify_all()

    def _execute(
        self,
        scenario: Scenario,
        prefix: Tuple[str, ...],
        branch_sleep: Dict[str, Optional[Footprint]],
        max_steps: int,
        chooser: Optional[Callable[[int, Tuple[str, ...]], str]],
    ) -> ScheduleResult:
        for task in self._tasks.values():
            task.thread = threading.Thread(
                target=self._task_main, args=(task,),
                name=f"sched-{task.name}", daemon=True,
            )
            task.thread.start()
        steps: List[Step] = []
        sleeping: Dict[str, Optional[Footprint]] = {}
        error: Optional[str] = None
        redundant = False
        while True:
            with self._control:
                while not self._all_settled():
                    if not self._control.wait(timeout=self.stall_timeout):
                        self._abort_all()
                        raise ScheduleError(
                            "scheduler stalled: a task blocked outside "
                            "the cooperative primitives"
                        )
                active = [task for task in self._tasks.values()
                          if not task.finished]
                if not active:
                    break
                if len(steps) == len(prefix):
                    # Entering the branch node: install the sleep set
                    # inherited from the parent exploration.
                    sleeping.update(branch_sleep)
                    branch_sleep = {}
                runnable = [
                    task for task in active
                    if task.wants is None
                    or task.wants[0]._grantable(task, task.wants[1], self)
                ]
                if not runnable:
                    waiting = ", ".join(sorted(
                        f"{task.name} waiting for "
                        f"{type(task.wants[0]).__name__}/{task.wants[1]}"
                        for task in active if task.wants is not None
                    ))
                    error = f"deadlock: {waiting or 'no runnable task'}"
                    self._abort_all()
                    break
                awake = [task for task in runnable
                         if task.name not in sleeping]
                if not awake:
                    # Every runnable task is asleep: this interleaving
                    # is provably redundant, but finish it anyway so the
                    # threads unwind cleanly.
                    redundant = True
                    sleeping.clear()
                    awake = runnable
                names = tuple(sorted(task.name for task in awake))
                if chooser is not None:
                    pick = chooser(len(steps), names)
                elif len(steps) < len(prefix):
                    pick = prefix[len(steps)]
                else:
                    pick = names[0]
                if pick not in names:
                    error = (
                        f"replay diverged at step {len(steps)}: "
                        f"{pick!r} not runnable among {names}"
                    )
                    self._abort_all()
                    break
                chosen = self._tasks[pick]
                for name in [n for n, fp in sleeping.items()
                             if footprints_conflict(fp, chosen.pending)]:
                    del sleeping[name]
                steps.append(Step(
                    chosen=pick,
                    runnable=names,
                    footprint=chosen.pending,
                    sleeping=tuple(sorted(sleeping.items())),
                ))
                if len(steps) > max_steps:
                    error = f"step budget exceeded ({max_steps})"
                    self._abort_all()
                    break
                chosen.parked = False
                chosen.granted = True
                self._control.notify_all()
        for task in self._tasks.values():
            if task.thread is not None:
                task.thread.join(timeout=self.stall_timeout)
                if task.thread.is_alive():
                    error = error or f"task {task.name} failed to unwind"
        if error is None:
            for task in self._tasks.values():
                if task.error is not None:
                    error = f"task {task.name} raised {task.error!r}"
                    break
        if error is None and scenario.check is not None:
            try:
                scenario.check()
            except Exception as exc:
                error = f"end-of-schedule check failed: {exc}"
        return ScheduleResult(
            schedule=tuple(step.chosen for step in steps),
            steps=tuple(steps),
            error=error,
            redundant=redundant,
        )


class CooperativeMutex:
    """Reentrant cooperative mutex — the update-mutex stand-in."""

    def __init__(self, run: SchedulerRun) -> None:
        self._run = run
        self._index = run._register_lock(self)
        self._owner: Optional[object] = None
        self._depth = 0

    def __enter__(self) -> "CooperativeMutex":
        self._run._lock_acquire(self, "write")
        return self

    def __exit__(self, *exc: object) -> bool:
        self._run._lock_release(self, "write")
        return False

    def _lock_footprint(self) -> Footprint:
        return frozenset({(("lock", self._index), "write")})

    def _grantable(
        self, task: Optional[_Task], mode: str, run: SchedulerRun
    ) -> bool:
        key: object = task if task is not None else _MAIN
        return self._owner is None or self._owner is key

    def _take(self, task: Optional[_Task], mode: str) -> None:
        self._owner = task if task is not None else _MAIN
        self._depth += 1

    def _untake(self, task: Optional[_Task], mode: str) -> None:
        self._depth -= 1
        if self._depth <= 0:
            self._owner = None
            self._depth = 0

    def _idle(self) -> bool:
        return self._owner is None


class CooperativeRWLock(RWLock):
    """Writer-preferring RW gate whose blocking the scheduler mediates.

    Mirrors :class:`~repro.core.concurrent.RWLock` semantics exactly —
    including writer preference: while any task is parked waiting for
    the write side, new read acquisitions are not grantable — but a task
    that cannot proceed leaves the runnable set instead of blocking its
    OS thread, so every blocking decision is a recorded scheduling step.
    """

    def __init__(self, run: SchedulerRun) -> None:
        super().__init__()
        self._run = run
        self._index = run._register_lock(self)
        self._read_holders: List[object] = []
        self._write_holder: Optional[object] = None

    def acquire_read(self) -> None:
        self._run._lock_acquire(self, "read")

    def release_read(self) -> None:
        self._run._lock_release(self, "read")

    def acquire_write(self) -> None:
        self._run._lock_acquire(self, "write")

    def release_write(self) -> None:
        self._run._lock_release(self, "write")

    def _lock_footprint(self) -> Footprint:
        return frozenset({(("lock", self._index), "write")})

    def _grantable(
        self, task: Optional[_Task], mode: str, run: SchedulerRun
    ) -> bool:
        if mode == "read":
            return (self._write_holder is None
                    and not run._writer_waiting(self))
        return self._write_holder is None and not self._read_holders

    def _take(self, task: Optional[_Task], mode: str) -> None:
        key: object = task if task is not None else _MAIN
        if mode == "read":
            self._read_holders.append(key)
        else:
            self._write_holder = key

    def _untake(self, task: Optional[_Task], mode: str) -> None:
        key: object = task if task is not None else _MAIN
        if mode == "read":
            self._read_holders.remove(key)
        else:
            self._write_holder = None

    def _idle(self) -> bool:
        return self._write_holder is None and not self._read_holders


class NoopRWLock(RWLock):
    """A rebuild gate that never excludes anyone — a seeded *bug*.

    Exists so tests can prove the explorer catches the interleaving a
    correct gate forbids (a lookup observing a half-rebuilt table); it
    must never be wired into production paths.
    """

    def __init__(self, run: SchedulerRun) -> None:
        super().__init__()
        run._register_lock(self)

    def acquire_read(self) -> None:
        return

    def release_read(self) -> None:
        return

    def acquire_write(self) -> None:
        return

    def release_write(self) -> None:
        return

    def _idle(self) -> bool:
        return True


class YieldingValueTable:
    """Value-table proxy that parks before every access.

    Same surface mirroring as
    :class:`~repro.check.vectorclock.ClockedValueTable`, but instead of
    recording the access it *declares* it (as the pending footprint) and
    waits for the driver to schedule it — making every table access an
    interleaving point with a footprint sleep sets can reason about.
    """

    def __init__(self, run: SchedulerRun, inner: Any) -> None:
        self._run = run
        self._inner = inner

    # -- reads ---------------------------------------------------------

    def get(self, cell: Cell) -> int:
        self._run.yield_point(
            frozenset({(_cell_location(cell), "read")})
        )
        return int(self._inner.get(cell))

    def xor_sum(self, cells: Iterable[Cell]) -> int:
        cell_list = list(cells)
        self._run.yield_point(frozenset(
            (_cell_location(cell), "read") for cell in cell_list
        ))
        return int(self._inner.xor_sum(cell_list))

    def gather_xor(self, flat_mat: Any) -> Any:
        self._run.yield_point(frozenset({(_TABLE, "read")}))
        return self._inner.gather_xor(flat_mat)

    def to_dense(self) -> Any:
        self._run.yield_point(frozenset({(_TABLE, "read")}))
        return self._inner.to_dense()

    # -- writes --------------------------------------------------------

    def xor(self, cell: Cell, delta: int) -> None:
        self._run.yield_point(
            frozenset({(_cell_location(cell), "write")})
        )
        self._inner.xor(cell, delta)

    def set(self, cell: Cell, value: int) -> None:
        self._run.yield_point(
            frozenset({(_cell_location(cell), "write")})
        )
        self._inner.set(cell, value)

    def load_dense(self, dense: Any) -> None:
        self._run.yield_point(frozenset({(_TABLE, "write")}))
        self._inner.load_dense(dense)

    def clear(self) -> None:
        self._run.yield_point(frozenset({(_TABLE, "write")}))
        self._inner.clear()

    # -- passthrough ---------------------------------------------------

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, YieldingValueTable):
            other = other._inner
        return bool(self._inner == other)

    def __hash__(self) -> int:  # identity, like the wrapped tables
        return id(self)


def run_schedule(
    factory: Callable[[SchedulerRun], Scenario],
    prefix: Sequence[str] = (),
    *,
    sleep: Optional[Dict[str, Optional[Footprint]]] = None,
    max_steps: int = 2000,
    chooser: Optional[Callable[[int, Tuple[str, ...]], str]] = None,
) -> ScheduleResult:
    """Execute one schedule of a fresh scenario.

    ``prefix`` forces the first scheduling choices (exact replay of a
    previously observed schedule); past the prefix the driver picks the
    alphabetically first runnable task, or defers to ``chooser`` for
    every step when one is given. ``sleep`` is the sleep set installed
    at the branch node (DPOR internals — leave unset for replay).
    """
    run = SchedulerRun()
    scenario = factory(run)
    if not scenario.tasks:
        raise ScheduleError("scenario defines no tasks")
    for name, fn in scenario.tasks.items():
        run.add_task(name, fn)
    return run._execute(
        scenario, tuple(prefix), dict(sleep or {}), max_steps, chooser
    )


def explore(
    factory: Callable[[SchedulerRun], Scenario],
    *,
    mode: str = "exhaustive",
    max_schedules: int = 1000,
    max_steps: int = 2000,
    seed: int = 0,
) -> ExplorationResult:
    """Systematically enumerate interleavings of a scenario.

    Runs fresh scenario instances (one per schedule, via ``factory``)
    until the choice tree is exhausted or ``max_schedules`` executed.
    Deterministic for a fixed ``(mode, max_schedules, max_steps, seed)``
    as long as the factory builds a deterministic scenario.
    """
    outcome = ExplorationResult(mode=mode)
    if mode == "random":
        rng = random.Random(seed)

        def chooser(step: int, names: Tuple[str, ...]) -> str:
            return rng.choice(names)

        for _ in range(max_schedules):
            outcome.results.append(run_schedule(
                factory, max_steps=max_steps, chooser=chooser,
            ))
        return outcome
    if mode not in ("exhaustive", "pruned"):
        raise ScheduleError(f"unknown exploration mode {mode!r}")
    pruned = mode == "pruned"
    stack: List[Tuple[Tuple[str, ...], Dict[str, Optional[Footprint]]]]
    stack = [((), {})]
    while stack and len(outcome.results) < max_schedules:
        prefix, branch_sleep = stack.pop()
        result = run_schedule(
            factory, prefix, sleep=branch_sleep, max_steps=max_steps,
        )
        outcome.results.append(result)
        branches: List[
            Tuple[Tuple[str, ...], Dict[str, Optional[Footprint]]]
        ] = []
        for i in range(len(prefix), len(result.steps)):
            step = result.steps[i]
            node_sleep = dict(step.sleeping)
            for alt in step.runnable:
                if alt == step.chosen:
                    continue
                new_sleep: Dict[str, Optional[Footprint]] = {}
                if pruned:
                    new_sleep = dict(node_sleep)
                    new_sleep[step.chosen] = step.footprint
                branches.append((result.schedule[:i] + (alt,), new_sleep))
        stack.extend(reversed(branches))
    return outcome


# -- canned scenarios ------------------------------------------------------


def embedder_scenario(
    run: SchedulerRun,
    *,
    capacity: int = 64,
    value_bits: int = 8,
    seed: int = 3,
) -> Scenario:
    """Insert / lookup / reconstruct racing over one small embedder.

    The canonical ``--explore`` scenario: three keys are pre-loaded,
    then an insert, a lock-free lookup and a full reconstruction race.
    The end-of-schedule check asserts the XOR invariant and that every
    cooperative lock unwound (:meth:`SchedulerRun.assert_locks_quiescent`).
    Lookup *values* are deliberately not asserted — a lookup racing an
    insert may observe a partially applied path, the documented benign
    race (§IV-B).
    """
    embedder = ConcurrentVisionEmbedder(capacity, value_bits, seed=seed)
    for i in range(3):
        embedder.insert(i + 1, i + 5)
    embedder.instrument_sync(
        mutex=CooperativeMutex(run),
        gate=CooperativeRWLock(run),
        table=YieldingValueTable(run, embedder._table),
    )

    def check() -> None:
        embedder.check_invariants()
        run.assert_locks_quiescent()

    return Scenario(
        tasks={
            "insert": lambda: embedder.insert(99, 11),
            "lookup": lambda: embedder.lookup(1),
            "reconstruct": lambda: embedder.reconstruct(),
        },
        check=check,
    )


def gate_bypass_scenario(
    run: SchedulerRun,
    *,
    broken: bool = False,
    capacity: int = 64,
    value_bits: int = 8,
    seed: int = 3,
) -> Scenario:
    """Lookup racing a reconstruction — the gate's whole job.

    With the real (cooperative) gate every schedule must observe the
    stored value: reconstruction holds the write side for the entire
    rebuild. With ``broken=True`` the gate is replaced by
    :class:`NoopRWLock` and the explorer provably finds the bad
    interleaving — a lookup reading the table mid-``clear()`` sees a
    torn value and the end-of-schedule check fails.
    """
    embedder = ConcurrentVisionEmbedder(capacity, value_bits, seed=seed)
    for i in range(3):
        embedder.insert(i + 1, i + 5)
    gate: RWLock = (NoopRWLock(run) if broken
                    else CooperativeRWLock(run))
    embedder.instrument_sync(
        mutex=CooperativeMutex(run),
        gate=gate,
        table=YieldingValueTable(run, embedder._table),
    )
    observed: List[int] = []

    def check() -> None:
        embedder.check_invariants()
        run.assert_locks_quiescent()
        if observed != [5]:
            raise ScheduleError(
                f"lookup observed torn value(s) {observed} "
                "(expected [5]) — the rebuild gate failed to exclude it"
            )

    return Scenario(
        tasks={
            "lookup": lambda: observed.append(embedder.lookup(1)),
            "reconstruct": lambda: embedder.reconstruct(),
        },
        check=check,
    )
