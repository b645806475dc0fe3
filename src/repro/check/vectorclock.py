"""Happens-before race detection for the concurrent update path.

:class:`LocksetRWLock` catches lock-API *misuse*; this module catches the
complementary failure — conflicting value-table accesses with **no**
happens-before ordering between them, even when every lock call is
individually well-formed. It is a dynamic vector-clock detector in the
FastTrack style:

- every thread carries a vector clock, advanced on lock releases;
- each lock carries release clocks that acquirers join — with
  reader/writer awareness: a read release only synchronises with later
  *write* acquirers (two readers under the same ``RWLock`` are
  deliberately unordered);
- each value-table location keeps its last write and the reads since,
  as ``(thread, epoch)`` pairs; an access whose epoch is not covered by
  the current thread's clock is a race, reported with both stack traces.

The detector wraps the real structures rather than patching them:
:class:`ClockedMutex` around the update mutex, :class:`ClockedRWLock` as
a drop-in rebuild gate, and :class:`ClockedValueTable` around the value
table (whole-table operations use a sentinel location that conflicts
with every cell). :func:`instrument_concurrent` wires all three into a
:class:`~repro.core.concurrent.ConcurrentVisionEmbedder` through its
``instrument_sync`` seam.

The paper's §IV-B documents exactly one benign race: a lock-free lookup
may observe a partially applied modification path (every cell of the
path is XORed by one fixed ``V_delta``, so the lookup sees either the
old value, the new value, or a transient — the data plane tolerates all
three). That race is an explicit allowlist entry (:data:`BENIGN_RACES`),
reported separately rather than silently ignored; everything else is
real. See docs/static_analysis.md ("Race detector & schedule explorer").
"""

from __future__ import annotations

import threading
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, Iterable, List, Optional, Tuple

from repro.core.concurrent import RWLock
from repro.core.value_table import Cell

__all__ = [
    "VectorClock",
    "Access",
    "RaceRecord",
    "BenignRace",
    "BENIGN_RACES",
    "RaceDetector",
    "ClockedMutex",
    "ClockedRWLock",
    "ClockedValueTable",
    "TracedThread",
    "instrument_concurrent",
]

#: sentinel location for whole-table operations (``clear``/``load_dense``/
#: ``gather_xor``/...) — conflicts with every cell location.
WHOLE_TABLE: str = "<whole-table>"

#: stack frames kept per recorded access (enough to show the caller chain
#: through the embedder into the table without drowning the report).
_STACK_LIMIT = 14


class VectorClock:
    """A mapping ``thread-id -> logical time`` with join/increment."""

    __slots__ = ("_times",)

    def __init__(self, times: Optional[Dict[int, int]] = None) -> None:
        self._times: Dict[int, int] = dict(times) if times else {}

    def copy(self) -> "VectorClock":
        return VectorClock(self._times)

    def time_of(self, tid: int) -> int:
        return self._times.get(tid, 0)

    def increment(self, tid: int) -> None:
        self._times[tid] = self._times.get(tid, 0) + 1

    def join(self, other: "VectorClock") -> None:
        for tid, time in other._times.items():
            if time > self._times.get(tid, 0):
                self._times[tid] = time

    def covers(self, tid: int, epoch: int) -> bool:
        """True if this clock has seen thread ``tid`` up to ``epoch``."""
        return self._times.get(tid, 0) >= epoch

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inside = ", ".join(f"T{t}:{c}" for t, c in sorted(self._times.items()))
        return f"VectorClock({inside})"


@dataclass(frozen=True)
class Access:
    """One recorded table access: who, when (epoch), what, and where."""

    tid: int
    epoch: int
    op: str
    location: Hashable
    stack: Tuple[str, ...]

    def describe(self) -> str:
        frames = "".join(self.stack) or "  <no stack captured>\n"
        return (
            f"thread {self.tid} {self.op}() at {self.location!r} "
            f"(epoch {self.epoch}):\n{frames}"
        )


@dataclass(frozen=True)
class BenignRace:
    """One allowlisted unordered access pair, with its justification."""

    reader_ops: frozenset
    writer_ops: frozenset
    why: str

    def matches(self, first: Access, second: Access) -> bool:
        reader, writer = (
            (first, second) if second.op in self.writer_ops
            else (second, first)
        )
        return (reader.op in self.reader_ops
                and writer.op in self.writer_ops)


#: the explicit allowlist. Exactly the paper's documented benign race:
#: lock-free lookups (``get``/``xor_sum``/``gather_xor``/``to_dense``)
#: racing a deferred-path application (``xor``). Whole-table rewrites
#: (``clear``/``load_dense``/``set``/``fill``) are NOT allowlisted — those
#: must be ordered by the rebuild gate, and an unordered one is a bug.
BENIGN_RACES: Tuple[BenignRace, ...] = (
    BenignRace(
        reader_ops=frozenset({"get", "xor_sum", "gather_xor", "to_dense"}),
        writer_ops=frozenset({"xor"}),
        why=(
            "§IV-B: a lock-free lookup may observe a partially applied "
            "modification path; every path cell is XORed by the same fixed "
            "V_delta, and the data plane tolerates the transient"
        ),
    ),
)


@dataclass(frozen=True)
class RaceRecord:
    """Two unordered conflicting accesses (with both stacks)."""

    first: Access
    second: Access
    benign: bool
    why: str = ""

    def describe(self) -> str:
        kind = "benign (allowlisted)" if self.benign else "RACE"
        header = f"{kind}: unordered {self.first.op}/{self.second.op} at " \
                 f"{self.second.location!r}"
        body = f"--- earlier access ---\n{self.first.describe()}" \
               f"--- later access ---\n{self.second.describe()}"
        note = f"allowlist: {self.why}\n" if self.benign and self.why else ""
        return f"{header}\n{note}{body}"


class _LockState:
    """Release clocks of one lock, reader/writer aware."""

    __slots__ = ("write_release", "read_release")

    def __init__(self) -> None:
        # Joined by every acquirer: writes must be visible to everyone.
        self.write_release = VectorClock()
        # Joined only by write acquirers: two readers stay unordered.
        self.read_release = VectorClock()


class _LocationState:
    """Last write plus reads-since-last-write for one location."""

    __slots__ = ("last_write", "reads")

    def __init__(self) -> None:
        self.last_write: Optional[Access] = None
        # One entry per thread (the newest read supersedes older ones
        # from the same thread — bounded memory, FastTrack-style).
        self.reads: Dict[int, Access] = {}


class RaceDetector:
    """Vector-clock happens-before detector over the table surface.

    All public methods are thread-safe (one internal mutex; it is part of
    the *detector*, not the modelled program, so it creates no
    happens-before edges in the analysis).
    """

    def __init__(self, capture_stacks: bool = True) -> None:
        self._mutex = threading.Lock()
        self._clocks: Dict[int, VectorClock] = {}
        self._locks: Dict[int, _LockState] = {}
        self._locations: Dict[Hashable, _LocationState] = {}
        self._capture_stacks = capture_stacks
        self._local = threading.local()
        self._next_tid = 0
        self.races: List[RaceRecord] = []
        self.benign: List[RaceRecord] = []

    # -- thread bookkeeping -------------------------------------------

    def _tid(self) -> int:
        """Stable logical id for the calling thread.

        The OS recycles ``threading.get_ident()`` values as soon as a
        thread exits, so a later thread could silently inherit a dead
        thread's clock and appear program-ordered after it — hiding real
        races. Each distinct thread therefore gets a fresh detector-local
        id on first contact, held in a thread-local (which dies with the
        thread and so is never recycled).
        """
        tid: Optional[int] = getattr(self._local, "tid", None)
        if tid is None:
            with self._mutex:
                tid = self._next_tid
                self._next_tid += 1
            self._local.tid = tid
        return tid

    def _clock(self, tid: int) -> VectorClock:
        clock = self._clocks.get(tid)
        if clock is None:
            clock = VectorClock()
            clock.increment(tid)
            self._clocks[tid] = clock
        return clock

    def fork(self) -> VectorClock:
        """Snapshot the calling thread's clock for a child to inherit."""
        tid = self._tid()
        with self._mutex:
            clock = self._clock(tid)
            snapshot = clock.copy()
            clock.increment(tid)
        return snapshot

    def begin_thread(self, inherited: VectorClock) -> None:
        """Adopt a parent snapshot as the calling thread's start clock."""
        tid = self._tid()
        with self._mutex:
            clock = self._clock(tid)
            clock.join(inherited)

    def end_thread(self) -> VectorClock:
        """Snapshot the calling thread's final clock (for joiners)."""
        tid = self._tid()
        with self._mutex:
            return self._clock(tid).copy()

    def join_thread(self, final: VectorClock) -> None:
        """Join a finished thread's final clock into the caller's."""
        tid = self._tid()
        with self._mutex:
            self._clock(tid).join(final)

    # -- lock events ---------------------------------------------------

    def _lock_state(self, lock_id: int) -> _LockState:
        state = self._locks.get(lock_id)
        if state is None:
            state = _LockState()
            self._locks[lock_id] = state
        return state

    def acquire(self, lock_id: int) -> None:
        """Exclusive acquire: joins both release clocks."""
        tid = self._tid()
        with self._mutex:
            state = self._lock_state(lock_id)
            clock = self._clock(tid)
            clock.join(state.write_release)
            clock.join(state.read_release)

    def release(self, lock_id: int) -> None:
        """Exclusive release: publishes to the write-release clock."""
        tid = self._tid()
        with self._mutex:
            state = self._lock_state(lock_id)
            clock = self._clock(tid)
            state.write_release.join(clock)
            clock.increment(tid)

    def acquire_shared(self, lock_id: int) -> None:
        """Shared acquire: sees prior writers, not fellow readers."""
        tid = self._tid()
        with self._mutex:
            self._clock(tid).join(self._lock_state(lock_id).write_release)

    def release_shared(self, lock_id: int) -> None:
        """Shared release: publishes only to future *write* acquirers."""
        tid = self._tid()
        with self._mutex:
            state = self._lock_state(lock_id)
            clock = self._clock(tid)
            state.read_release.join(clock)
            clock.increment(tid)

    # -- access events -------------------------------------------------

    def _access(self, tid: int, op: str, location: Hashable) -> Access:
        stack: Tuple[str, ...] = ()
        if self._capture_stacks:
            stack = tuple(traceback.format_list(
                traceback.extract_stack(limit=_STACK_LIMIT)[:-3]
            ))
        return Access(
            tid=tid, epoch=self._clock(tid).time_of(tid),
            op=op, location=location, stack=stack,
        )

    def _report(self, first: Access, second: Access) -> None:
        for entry in BENIGN_RACES:
            if entry.matches(first, second):
                self.benign.append(RaceRecord(
                    first=first, second=second, benign=True, why=entry.why,
                ))
                return
        self.races.append(RaceRecord(
            first=first, second=second, benign=False,
        ))

    def _state_for(self, location: Hashable) -> _LocationState:
        state = self._locations.get(location)
        if state is None:
            state = _LocationState()
            self._locations[location] = state
        return state

    def _conflicting_states(
        self, location: Hashable
    ) -> List[_LocationState]:
        """The location's own state plus everything it overlaps."""
        if location == WHOLE_TABLE:
            states = [self._state_for(WHOLE_TABLE)]
            states.extend(
                state for loc, state in self._locations.items()
                if loc != WHOLE_TABLE
            )
            return states
        return [self._state_for(location), self._state_for(WHOLE_TABLE)]

    def record_read(self, location: Hashable, op: str) -> None:
        tid = self._tid()
        with self._mutex:
            clock = self._clock(tid)
            access = self._access(tid, op, location)
            for state in self._conflicting_states(location):
                write = state.last_write
                if (write is not None and write.tid != tid
                        and not clock.covers(write.tid, write.epoch)):
                    self._report(write, access)
            self._state_for(location).reads[tid] = access

    def record_write(self, location: Hashable, op: str) -> None:
        tid = self._tid()
        with self._mutex:
            clock = self._clock(tid)
            access = self._access(tid, op, location)
            overlapping = self._conflicting_states(location)
            for state in overlapping:
                write = state.last_write
                if (write is not None and write.tid != tid
                        and not clock.covers(write.tid, write.epoch)):
                    self._report(write, access)
                for read in state.reads.values():
                    if (read.tid != tid
                            and not clock.covers(read.tid, read.epoch)):
                        self._report(read, access)
            if location == WHOLE_TABLE:
                # The whole-table write supersedes every per-cell state.
                self._locations = {WHOLE_TABLE: self._locations[WHOLE_TABLE]}
            state = self._state_for(location)
            state.last_write = access
            state.reads = {}

    # -- reporting -----------------------------------------------------

    def assert_race_free(self) -> None:
        """Raise ``AssertionError`` describing every non-benign race."""
        if self.races:
            reports = "\n\n".join(r.describe() for r in self.races)
            raise AssertionError(
                f"{len(self.races)} unordered conflicting access(es):\n"
                f"{reports}"
            )

    def summary(self) -> Dict[str, int]:
        return {
            "races": len(self.races),
            "benign": len(self.benign),
            "threads": len(self._clocks),
            "locations": len(self._locations),
        }


class ClockedMutex:
    """Context-manager wrapper adding detector events to a real mutex.

    Reentrant (the update mutex is an ``RLock``: ``insert`` may reach
    ``reconstruct``); only the outermost enter/exit emits detector
    events, matching the lock's actual ordering semantics.
    """

    def __init__(self, detector: RaceDetector, inner: Any) -> None:
        self._detector = detector
        self._inner = inner
        self._depths: Dict[int, int] = {}

    def __enter__(self) -> "ClockedMutex":
        self._inner.__enter__()
        tid = threading.get_ident()
        depth = self._depths.get(tid, 0)
        self._depths[tid] = depth + 1
        if depth == 0:
            self._detector.acquire(id(self))
        return self

    def __exit__(self, *exc: object) -> bool:
        tid = threading.get_ident()
        depth = self._depths[tid] - 1
        self._depths[tid] = depth
        if depth == 0:
            del self._depths[tid]
            self._detector.release(id(self))
        self._inner.__exit__(*exc)
        return False


class ClockedRWLock(RWLock):
    """Drop-in :class:`RWLock` emitting reader/writer detector events."""

    def __init__(self, detector: RaceDetector) -> None:
        super().__init__()
        self._detector = detector

    def acquire_read(self) -> None:
        super().acquire_read()
        self._detector.acquire_shared(id(self))

    def release_read(self) -> None:
        self._detector.release_shared(id(self))
        super().release_read()

    def acquire_write(self) -> None:
        super().acquire_write()
        self._detector.acquire(id(self))

    def release_write(self) -> None:
        self._detector.release(id(self))
        super().release_write()


class ClockedValueTable:
    """Proxy recording every read/write of the value-table surface.

    Per-cell operations record their ``(array, index)`` location;
    whole-table operations record the :data:`WHOLE_TABLE` sentinel, which
    conflicts with every cell. Unrecognised attributes delegate to the
    wrapped table, so the proxy is a drop-in for either
    :class:`~repro.core.value_table.ValueTable` or the packed variant.
    """

    def __init__(self, detector: RaceDetector, inner: Any) -> None:
        self._detector = detector
        self._inner = inner

    # -- reads ---------------------------------------------------------

    def get(self, cell: Cell) -> int:
        self._detector.record_read(cell, "get")
        return int(self._inner.get(cell))

    def xor_sum(self, cells: Iterable[Cell]) -> int:
        cell_list = list(cells)
        for cell in cell_list:
            self._detector.record_read(cell, "xor_sum")
        return int(self._inner.xor_sum(cell_list))

    def gather_xor(self, flat_mat: Any) -> Any:
        self._detector.record_read(WHOLE_TABLE, "gather_xor")
        return self._inner.gather_xor(flat_mat)

    def to_dense(self) -> Any:
        self._detector.record_read(WHOLE_TABLE, "to_dense")
        return self._inner.to_dense()

    # -- writes --------------------------------------------------------

    def xor(self, cell: Cell, delta: int) -> None:
        self._detector.record_write(cell, "xor")
        self._inner.xor(cell, delta)

    def set(self, cell: Cell, value: int) -> None:
        self._detector.record_write(cell, "set")
        self._inner.set(cell, value)

    def load_dense(self, dense: Any) -> None:
        self._detector.record_write(WHOLE_TABLE, "load_dense")
        self._inner.load_dense(dense)

    def clear(self) -> None:
        self._detector.record_write(WHOLE_TABLE, "clear")
        self._inner.clear()

    # -- passthrough ---------------------------------------------------

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ClockedValueTable):
            other = other._inner
        return bool(self._inner == other)

    def __hash__(self) -> int:  # identity, like the wrapped tables
        return id(self)


class TracedThread(threading.Thread):
    """``threading.Thread`` with detector fork/join edges built in.

    ``start()`` snapshots the parent clock for the child to inherit;
    ``join()`` merges the child's final clock back into the joiner — so
    setup done before ``start()`` and assertions after ``join()`` are
    correctly ordered against the child's accesses.
    """

    def __init__(
        self,
        detector: RaceDetector,
        target: Callable[..., object],
        args: Tuple[Any, ...] = (),
        name: Optional[str] = None,
    ) -> None:
        super().__init__(name=name, daemon=True)
        self._detector = detector
        self._traced_target = target
        self._traced_args = args
        self._start_snapshot: Optional[VectorClock] = None
        self._final_snapshot: Optional[VectorClock] = None

    def start(self) -> None:
        self._start_snapshot = self._detector.fork()
        super().start()

    def run(self) -> None:
        if self._start_snapshot is not None:
            self._detector.begin_thread(self._start_snapshot)
        try:
            self._traced_target(*self._traced_args)
        finally:
            self._final_snapshot = self._detector.end_thread()

    def join(self, timeout: Optional[float] = None) -> None:
        super().join(timeout)
        if not self.is_alive() and self._final_snapshot is not None:
            self._detector.join_thread(self._final_snapshot)


def instrument_concurrent(embedder: Any, detector: RaceDetector) -> Any:
    """Swap a ``ConcurrentVisionEmbedder``'s sync layer for clocked
    doubles. Call before any worker threads touch the structure; returns
    the embedder for chaining."""
    embedder.instrument_sync(
        mutex=ClockedMutex(detector, embedder._update_mutex),
        gate=ClockedRWLock(detector),
        table=ClockedValueTable(detector, embedder._table),
    )
    return embedder
