"""Thread-safe VisionEmbedder (§IV-B "Concurrency").

The paper's design splits an update into two parts — part 1 write-locks the
key's three "units" (cell + assistant entries) and computes the fixed XOR
increment ``V_delta``; part 2 finds the modification path ``S_delta`` under
read locks and applies ``V_delta`` to each cell with an atomic XOR. Lookups
never lock: they read the value table directly, so a concurrent
path-application may be observed partially (the paper's data plane behaves
the same way).

This Python port keeps the same structure and visibility semantics but
adapts the locking to CPython:

- Mutations (insert / update / delete, their batch forms, reconstruct)
  are serialised by one update mutex. Under the GIL, fine-grained per-unit writer locks cannot
  run update work in parallel anyway, and per-cell "atomic XOR" does not
  exist for numpy scalars — a read-modify-write races. Serialising writers
  is the honest equivalent that preserves correctness.
- Lookups take no lock in the steady state, exactly like the paper's data
  plane. Only reconstruction — which rebuilds the whole table in place —
  excludes them, via a readers-writer gate (:class:`RWLock`, the library's
  SharedMutex equivalent).

Fig 13's multi-threaded *lookup* scaling is reproduced through
``lookup_batch``, whose numpy kernels release the GIL; multi-threaded
*update* scaling cannot materialise in pure CPython and EXPERIMENTS.md
reports that divergence.
"""

from __future__ import annotations

import threading
from typing import Any, ContextManager, Iterable, Optional, Tuple

import numpy as np
import numpy.typing as npt

from repro.core.config import EmbedderConfig
from repro.core.embedder import VisionEmbedder
from repro.obs.hooks import WalkHooks
from repro.table import Key


class RWLock:
    """A writer-preferring readers-writer lock (SharedMutex equivalent)."""

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0

    def acquire_read(self) -> None:
        with self._cond:
            while self._writer or self._writers_waiting:
                self._cond.wait()
            self._readers += 1

    def release_read(self) -> None:
        with self._cond:
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    def acquire_write(self) -> None:
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer = True

    def release_write(self) -> None:
        with self._cond:
            self._writer = False
            self._cond.notify_all()

    class _ReadContext:
        def __init__(self, lock: "RWLock") -> None:
            self._lock = lock

        def __enter__(self) -> "RWLock._ReadContext":
            self._lock.acquire_read()
            return self

        def __exit__(self, *exc: object) -> bool:
            self._lock.release_read()
            return False

    class _WriteContext:
        def __init__(self, lock: "RWLock") -> None:
            self._lock = lock

        def __enter__(self) -> "RWLock._WriteContext":
            self._lock.acquire_write()
            return self

        def __exit__(self, *exc: object) -> bool:
            self._lock.release_write()
            return False

    def read(self) -> "_ReadContext":
        """Context manager acquiring the lock in shared mode."""
        return RWLock._ReadContext(self)

    def write(self) -> "_WriteContext":
        """Context manager acquiring the lock in exclusive mode."""
        return RWLock._WriteContext(self)


class ConcurrentVisionEmbedder(VisionEmbedder):
    """VisionEmbedder safe for concurrent lookups and updates.

    Lookups are lock-free except against reconstruction; all mutations are
    serialised. See the module docstring for how this maps onto the paper's
    per-unit locking.
    """

    name = "vision-mt"

    def __init__(
        self,
        capacity: int,
        value_bits: int,
        config: Optional[EmbedderConfig] = None,
        seed: int = 1,
        num_arrays: int = 3,
        packed: bool = False,
        hooks: Optional[WalkHooks] = None,
    ) -> None:
        super().__init__(capacity, value_bits, config=config, seed=seed,
                         num_arrays=num_arrays, packed=packed, hooks=hooks)
        # Reentrant: insert/update may trigger reconstruct() internally.
        # Annotated as a plain context manager so the instrumentation seam
        # below can swap in traced/cooperative doubles.
        self._update_mutex: ContextManager[Any] = threading.RLock()
        self._rebuild_gate: RWLock = RWLock()

    def instrument_sync(
        self,
        mutex: Optional[Any] = None,
        gate: Optional[RWLock] = None,
        table: Optional[Any] = None,
    ) -> None:
        """Swap sync primitives / the value table for instrumented doubles.

        The seam the ``repro.check`` concurrency tooling plugs into: the
        vector-clock race detector wraps all three
        (:func:`repro.check.vectorclock.instrument_concurrent`) and the
        schedule explorer substitutes cooperative locks and a yielding
        table. ``mutex`` must be a reentrant context manager, ``gate`` an
        :class:`RWLock` (usually a subclass), ``table`` a drop-in for the
        value-table surface. Call while the structure is quiescent —
        before any worker threads are started — or the swap itself races.
        """
        if mutex is not None:
            self._update_mutex = mutex
        if gate is not None:
            self._rebuild_gate = gate
        if table is not None:
            self._table = table

    def set_hooks(self, hooks: Optional[WalkHooks]) -> None:
        # Serialised against mutations so a walk never sees the hooks (or
        # the strategy's subtree histogram) change mid-flight. Hook events
        # themselves fire under the update mutex — one writer at a time —
        # so MetricsHooks/TableStats counters stay exact; scrapers on
        # other threads go through the registry's locked methods.
        if not hasattr(self, "_update_mutex"):  # during __init__
            super().set_hooks(hooks)
            return
        with self._update_mutex:
            super().set_hooks(hooks)

    # -- mutations: serialised -----------------------------------------

    def insert(self, key: Key, value: int) -> None:
        with self._update_mutex:
            super().insert(key, value)

    def update(self, key: Key, value: int) -> None:
        with self._update_mutex:
            super().update(key, value)

    def insert_batch(
        self, keys: Iterable[Key], values: Iterable[int]
    ) -> None:
        # One lock for the whole batch: the repair walks inside must not
        # interleave with other writers (insert_many funnels through here).
        with self._update_mutex:
            super().insert_batch(keys, values)

    def update_batch(
        self, keys: Iterable[Key], values: Iterable[int]
    ) -> None:
        with self._update_mutex:
            super().update_batch(keys, values)

    def delete(self, key: Key) -> None:
        with self._update_mutex:
            super().delete(key)

    def delete_batch(self, keys: Iterable[Key]) -> None:
        with self._update_mutex:
            super().delete_batch(keys)

    def reconstruct(self, method: str = "dynamic") -> None:
        # Reconstruction rewrites the whole fast space: serialise against
        # other mutations (reentrant when reached from insert/update) and
        # exclude in-flight readers via the gate.
        with self._update_mutex:
            with self._rebuild_gate.write():
                super().reconstruct(method)

    def bulk_load(self, pairs: Iterable[Tuple[Key, int]]) -> None:
        # Static construction rewrites the whole fast space too.
        with self._update_mutex:
            with self._rebuild_gate.write():
                super().bulk_load(pairs)

    # -- lookups: lock-free against updates, gated against rebuilds ----

    def lookup(self, key: Key) -> int:
        with self._rebuild_gate.read():
            return super().lookup(key)

    def lookup_batch(
        self, keys: npt.NDArray[np.uint64]
    ) -> npt.NDArray[np.uint64]:
        with self._rebuild_gate.read():
            return super().lookup_batch(keys)
