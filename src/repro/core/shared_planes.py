"""Shared-memory plane storage: dense L-bit planes other processes can read.

The serving layer's scale-out story (docs/serving.md) runs N worker
processes that all answer lookups from the *same* value-table planes. The
planes are small dense arrays that only change inside an UpdatePlan, which
makes them ideal for zero-copy sharing: this module places the backing
words of a :class:`~repro.core.value_table.ValueTable` (or the bit-packed
:class:`~repro.core.packed_table.PackedValueTable`) into a
``multiprocessing.shared_memory`` segment behind the exact same
plane-storage duck interface, so :class:`~repro.core.embedder.VisionEmbedder`
never notices the swap.

Torn reads are prevented with a seqlock-style generation counter in the
segment header. The single owner process brackets every mutation with
``begin_update()``/``end_update()`` (generation odd while a write is in
flight); readers wrap each lookup in :meth:`SharedPlanes.read_stable`,
which retries until it observes the same *even* generation before and
after the computation. Readers therefore only ever return pre- or
post-update values — never a mixture — at the cost of an occasional
retry, counted in :attr:`SharedPlanes.retries`.

Segment layout (all 64-bit little-endian words)::

    word 0   magic (identifies a repro plane segment + layout version)
    word 1   generation (even = stable, odd = write in flight)
    word 2   table seed (embedder hash seed; bumped by reconstruction)
    word 3   number of inserted keys (len of the owning table)
    word 4   width (cells per array)
    word 5   value_bits (L)
    word 6   num_arrays (k, 3 in the paper)
    word 7   packed flag (1 = bit-packed words, 0 = one word per cell)
    word 8+  plane data (k*width words plain, ceil(m*L/64)+1 words packed)

Attach discipline: readers map the segment through ``/dev/shm`` with
``numpy.memmap`` when possible, which keeps them out of the
``resource_tracker`` registry — only the creating owner is registered, so
an owner crash still unlinks the segment while a reader crash never
triggers a spurious unlink under the other processes' feet.
"""

from __future__ import annotations

import os
import secrets
from contextlib import contextmanager
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import (
    Any,
    Callable,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    TypeVar,
    Union,
    cast,
)

import numpy as np
import numpy.typing as npt

from repro.core.errors import SharedPlanesError
from repro.core.packed_table import PackedValueTable
from repro.core.value_table import Cell, ValueTable

_T = TypeVar("_T")

_MAGIC = 0x5245504C414E4531  # "REPLANE1"
_HEADER_WORDS = 8
_WORD_BYTES = 8

_MAGIC_SLOT = 0
_GEN_SLOT = 1
_SEED_SLOT = 2
_LEN_SLOT = 3
_WIDTH_SLOT = 4
_BITS_SLOT = 5
_ARRAYS_SLOT = 6
_PACKED_SLOT = 7

_U64 = np.uint64
_M64 = (1 << 64) - 1

#: Prefix of the names :meth:`SharedPlanes.create` picks, before its pid.
SEGMENT_PREFIX = "repro-planes-"

# Reader spin budget while the generation is odd. Owner writes hold the
# generation odd only for the duration of one numpy plane mutation
# (microseconds for scalar XORs, ~ms for a full load_dense), so a reader
# that spins this long is looking at a crashed or wedged owner.
_SPIN_LIMIT = 2_000_000
_YIELD_EVERY = 1024
# Full compute-retry budget (generation moved mid-read).
_READ_RETRIES = 64

_PlaneTable = Union[ValueTable, PackedValueTable]


@dataclass(frozen=True)
class SharedPlanesSpec:
    """Picklable handle for attaching to one shared plane segment."""

    name: str
    width: int
    value_bits: int
    num_arrays: int
    packed: bool


@dataclass(frozen=True)
class SharedTableSpec:
    """Picklable handle for attaching to a whole (possibly sharded) table.

    ``shards`` holds one plane spec per shard; ``shard_seed`` is the
    router seed of the owning :class:`~repro.core.sharded.ShardedEmbedder`
    (ignored when there is a single shard). Per-shard embedder seeds live
    in the segment headers, not here — reconstruction changes them.
    """

    shards: Tuple[SharedPlanesSpec, ...]
    shard_seed: int
    value_bits: int
    capacity: int

    @property
    def num_shards(self) -> int:
        return len(self.shards)


def _make_inner(
    width: int, value_bits: int, num_arrays: int, packed: bool
) -> _PlaneTable:
    if packed:
        return PackedValueTable(width, value_bits, num_arrays)
    return ValueTable(width, value_bits, num_arrays)


def _storage(inner: _PlaneTable) -> npt.NDArray[np.uint64]:
    if isinstance(inner, PackedValueTable):
        return inner._words
    return inner._cells


def _new_segment(
    name: Optional[str], size: int
) -> shared_memory.SharedMemory:
    """Create segment ``name`` or, without one, a fresh unique name."""
    prefix = f"{SEGMENT_PREFIX}{os.getpid()}-"
    for _ in range(16):
        try:
            # No line may run between creation and the caller's handler.
            return shared_memory.SharedMemory(
                name=name or prefix + secrets.token_hex(4),
                create=True, size=size,
            )
        except FileExistsError:
            if name is not None:
                raise
    raise SharedPlanesError("could not allocate a unique segment name")


def _swap_storage(inner: _PlaneTable, words: npt.NDArray[np.uint64]) -> None:
    """Point ``inner`` at ``words`` (a view into the shared segment)."""
    if isinstance(inner, PackedValueTable):
        inner._words = words
    else:
        inner._cells = words.reshape(inner.num_arrays, inner.width)


class SharedPlanes:
    """Plane storage backed by a named shared-memory segment.

    Construct with :meth:`create` (owner) or :meth:`attach` (reader or
    the owner re-attaching after a fork). The instance quacks like a
    :class:`ValueTable` — ``get``/``xor``/``gather_xor``/``to_dense`` and
    friends — so it can be dropped into ``VisionEmbedder._table``.

    Exactly one process holds ``writable=True`` per segment; that owner
    brackets mutations with :meth:`transaction` (mutating duck methods
    self-wrap when called outside one). Readers get torn-free reads via
    :meth:`read_stable`, which the read-path duck methods use internally.
    """

    def __init__(
        self,
        inner: _PlaneTable,
        spec: SharedPlanesSpec,
        header: npt.NDArray[np.uint64],
        data: npt.NDArray[np.uint64],
        *,
        writable: bool,
        created: bool,
        shm: Optional[shared_memory.SharedMemory],
    ) -> None:
        self._inner = inner
        self.spec = spec
        self._header = header
        self._data = data
        self.writable = writable
        self._created = created
        self._shm = shm
        self._txn_depth = 0
        self._closed = False
        self.retries = 0

    # -- construction -------------------------------------------------------

    @classmethod
    def create(
        cls,
        width: int,
        value_bits: int,
        num_arrays: int = 3,
        *,
        packed: bool = False,
        seed: int = 0,
        length: int = 0,
        name: Optional[str] = None,
    ) -> "SharedPlanes":
        """Allocate a fresh zeroed segment and return the writable owner.

        The segment is registered with this process's ``resource_tracker``,
        so it is unlinked even if the owner dies without calling
        :meth:`destroy`.
        """
        inner = _make_inner(width, value_bits, num_arrays, packed)
        nwords = int(_storage(inner).size)
        size = (_HEADER_WORDS + nwords) * _WORD_BYTES
        shm = _new_segment(name, size)
        try:
            spec = SharedPlanesSpec(
                name=shm.name,
                width=width,
                value_bits=value_bits,
                num_arrays=num_arrays,
                packed=packed,
            )
            # Map the words through the tmpfs path where possible,
            # releasing the SharedMemory handle's own mapping right away
            # (the handle is kept only for unlink + its resource_tracker
            # registration). A ``numpy.memmap`` dies quietly with its last
            # view, so a handle abandoned mid-teardown never refuses to
            # close at GC the way an mmap with exported buffer pointers
            # does.
            path = os.path.join("/dev/shm", shm.name)
            if os.path.exists(path):
                shm.close()
                mapped = np.memmap(path, dtype=_U64, mode="r+")
                full = cast(npt.NDArray[np.uint64], mapped)
            else:  # pragma: no cover - non-tmpfs platforms
                full = np.frombuffer(shm.buf, dtype=_U64)
            header = full[:_HEADER_WORDS]
            data = full[_HEADER_WORDS : _HEADER_WORDS + nwords]
            header[_MAGIC_SLOT] = _U64(_MAGIC)
            header[_GEN_SLOT] = _U64(0)
            header[_SEED_SLOT] = _U64(seed & _M64)
            header[_LEN_SLOT] = _U64(length)
            header[_WIDTH_SLOT] = _U64(width)
            header[_BITS_SLOT] = _U64(value_bits)
            header[_ARRAYS_SLOT] = _U64(num_arrays)
            header[_PACKED_SLOT] = _U64(1 if packed else 0)
            _swap_storage(inner, data)
            return cls(
                inner, spec, header, data, writable=True, created=True,
                shm=shm,
            )
        except BaseException:
            # No owner handle exists yet to unlink the segment later.
            shm.close()
            shm.unlink()
            raise

    @classmethod
    def attach(
        cls, spec: SharedPlanesSpec, *, writable: bool = False
    ) -> "SharedPlanes":
        """Map an existing segment described by ``spec``.

        Prefers a direct ``numpy.memmap`` of ``/dev/shm/<name>`` so the
        attaching process is *not* added to the ``resource_tracker``
        registry (see module docstring); falls back to
        ``SharedMemory(name=...)`` plus an explicit unregister where the
        tmpfs path is unavailable.
        """
        inner = _make_inner(
            spec.width, spec.value_bits, spec.num_arrays, spec.packed
        )
        nwords = int(_storage(inner).size)
        path = os.path.join("/dev/shm", spec.name)
        shm: Optional[shared_memory.SharedMemory] = None
        if os.path.exists(path):
            mode = "r+" if writable else "r"
            mapped = np.memmap(path, dtype=_U64, mode=mode)
            full = cast(npt.NDArray[np.uint64], mapped)
        else:  # pragma: no cover - non-tmpfs platforms
            shm = shared_memory.SharedMemory(name=spec.name)
            try:
                resource_tracker.unregister(
                    getattr(shm, "_name", "/" + spec.name), "shared_memory"
                )
            except (KeyError, ValueError):
                pass
            full = np.frombuffer(shm.buf, dtype=_U64)
        if full.size < _HEADER_WORDS + nwords:
            raise SharedPlanesError(
                f"segment {spec.name!r} too small: have {full.size} words, "
                f"need {_HEADER_WORDS + nwords}"
            )
        header = full[:_HEADER_WORDS]
        data = full[_HEADER_WORDS : _HEADER_WORDS + nwords]
        if int(header[_MAGIC_SLOT]) != _MAGIC:
            raise SharedPlanesError(
                f"segment {spec.name!r} is not a repro plane segment"
            )
        geometry = (
            int(header[_WIDTH_SLOT]),
            int(header[_BITS_SLOT]),
            int(header[_ARRAYS_SLOT]),
            bool(int(header[_PACKED_SLOT])),
        )
        expected = (spec.width, spec.value_bits, spec.num_arrays, spec.packed)
        if geometry != expected:
            raise SharedPlanesError(
                f"segment {spec.name!r} geometry {geometry} does not match "
                f"spec {expected}"
            )
        _swap_storage(inner, data)
        return cls(
            inner, spec, header, data, writable=writable, created=False, shm=shm
        )

    # -- geometry (duck parity with ValueTable) -----------------------------

    @property
    def width(self) -> int:
        return self._inner.width

    @property
    def value_bits(self) -> int:
        return self._inner.value_bits

    @property
    def num_arrays(self) -> int:
        return self._inner.num_arrays

    @property
    def value_mask(self) -> int:
        return self._inner.value_mask

    @property
    def num_cells(self) -> int:
        return self._inner.num_cells

    @property
    def space_bits(self) -> int:
        return self._inner.space_bits

    @property
    def backing_bytes(self) -> int:
        """Actual RAM mapped for plane words (excludes the header)."""
        return int(_storage(self._inner).nbytes)

    @property
    def packed(self) -> bool:
        return self.spec.packed

    # -- seqlock ------------------------------------------------------------

    @property
    def generation(self) -> int:
        """Current generation word (odd while a write is in flight)."""
        return int(self._header[_GEN_SLOT])

    @property
    def seed(self) -> int:
        """Embedder hash seed recorded in the header."""
        return int(self._header[_SEED_SLOT])

    @property
    def length(self) -> int:
        """Key count recorded in the header."""
        return int(self._header[_LEN_SLOT])

    def begin_update(self) -> None:
        """Mark a write in flight (generation goes odd). Reentrant."""
        self._require_writable()
        if self._txn_depth == 0:
            self._header[_GEN_SLOT] = _U64(self.generation + 1)
        self._txn_depth += 1

    def end_update(self) -> None:
        """Publish the write (generation returns to even)."""
        self._require_writable()
        if self._txn_depth <= 0:
            raise SharedPlanesError("end_update without begin_update")
        self._txn_depth -= 1
        if self._txn_depth == 0:
            self._header[_GEN_SLOT] = _U64(self.generation + 1)

    @contextmanager
    def transaction(self) -> Iterator["SharedPlanes"]:
        """Seqlock write bracket; nests (only the outermost publishes)."""
        self.begin_update()
        try:
            yield self
        finally:
            self.end_update()

    def set_meta(
        self, *, seed: Optional[int] = None, length: Optional[int] = None
    ) -> None:
        """Record table metadata (seed / key count) under the seqlock."""
        with self.transaction():
            if seed is not None:
                self._header[_SEED_SLOT] = _U64(seed & _M64)
            if length is not None:
                self._header[_LEN_SLOT] = _U64(length)

    def _require_writable(self) -> None:
        if not self.writable:
            raise SharedPlanesError(
                "reader-role SharedPlanes handle cannot mutate the segment"
            )

    def _await_even(self) -> int:
        """Spin until the generation is even; return it."""
        spins = 0
        while True:
            gen = int(self._header[_GEN_SLOT])
            if gen & 1 == 0:
                return gen
            spins += 1
            if spins >= _SPIN_LIMIT:
                raise SharedPlanesError(
                    "generation stuck odd: plane owner crashed mid-update?"
                )
            if spins % _YIELD_EVERY == 0:
                os.sched_yield()

    def read_stable(self, compute: Callable[[], _T]) -> _T:
        """Run ``compute`` under seqlock protection and return its result.

        ``compute`` must not retain references into the shared planes
        (every read-path duck method returns ints or fresh arrays, so
        delegating to them is safe). The owner handle skips the protocol:
        it is the only writer, so its reads are always stable.
        """
        if self.writable:
            return compute()
        for _ in range(_READ_RETRIES):
            gen0 = self._await_even()
            result = compute()
            if int(self._header[_GEN_SLOT]) == gen0:
                return result
            self.retries += 1
        raise SharedPlanesError(
            f"read did not stabilise after {_READ_RETRIES} retries"
        )

    # -- reads (torn-free for readers) --------------------------------------

    def get(self, cell: Cell) -> int:  # repro: hotpath
        return self.read_stable(lambda: self._inner.get(cell))

    def xor_sum(self, cells: Iterable[Cell]) -> int:  # repro: hotpath
        materialised = tuple(cells)
        return self.read_stable(lambda: self._inner.xor_sum(materialised))

    def gather_xor(
        self, flat_mat: npt.NDArray[np.int64]
    ) -> npt.NDArray[np.uint64]:  # repro: hotpath
        result = self.read_stable(lambda: self._inner.gather_xor(flat_mat))
        return cast(npt.NDArray[np.uint64], result)

    def to_dense(self) -> npt.NDArray[np.uint64]:
        result = self.read_stable(self._inner.to_dense)
        return cast(npt.NDArray[np.uint64], result)

    def copy(self) -> _PlaneTable:
        """A *private* (non-shared) deep copy of the planes."""
        return self.read_stable(self._inner.copy)

    # -- writes (owner only; self-bracketing) --------------------------------

    def set(self, cell: Cell, value: int) -> None:
        with self.transaction():
            self._inner.set(cell, value)

    def xor(self, cell: Cell, delta: int) -> None:  # repro: hotpath
        with self.transaction():
            self._inner.xor(cell, delta)

    def xor_batch(
        self,
        flat_cells: npt.NDArray[np.int64],
        deltas: npt.NDArray[np.uint64],
    ) -> None:  # repro: hotpath
        with self.transaction():
            self._inner.xor_batch(flat_cells, deltas)

    def clear(self) -> None:
        with self.transaction():
            self._inner.clear()

    def load_dense(self, cells: npt.NDArray[Any]) -> None:
        with self.transaction():
            self._inner.load_dense(cells)

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Detach from the segment, demoting to a private snapshot.

        Every numpy view into the mapping must be dropped before the
        mapping can be released (``mmap`` refuses to close with exported
        buffers), so the inner table's storage is first replaced with a
        private copy — the handle stays readable in-process, it just
        stops tracking the shared segment.
        """
        if self._closed:
            return
        self._inner = self._inner.copy()
        self._header = np.array(self._header, dtype=_U64)
        self._data = self._header[:0]
        if self._shm is not None:
            self._shm.close()
        # Last, so an interrupted close is redone in full by the next call.
        self._closed = True

    def unlink(self) -> None:
        """Remove the segment name (creating owner only)."""
        if not self._created:
            raise SharedPlanesError(
                "only the creating owner may unlink the segment"
            )
        if self._shm is not None:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    def destroy(self) -> None:
        """Unlink, then detach (owner teardown): an error while detaching
        cannot leave the segment's name behind."""
        if self._created:
            self.unlink()
        self.close()

    def __enter__(self) -> "SharedPlanes":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        role = "owner" if self.writable else "reader"
        return (
            f"SharedPlanes(name={self.spec.name!r}, role={role}, "
            f"width={self.width}, value_bits={self.value_bits}, "
            f"num_arrays={self.num_arrays}, packed={self.packed})"
        )


def _shards_of(table: Any) -> Tuple[Any, ...]:
    """The per-shard VisionEmbedders of ``table`` (itself, if unsharded)."""
    shards = getattr(table, "shards", None)
    if shards is not None:
        return tuple(shards)
    return (table,)


def share_table(table: Any) -> SharedTableSpec:
    """Promote a table's plane storage into shared-memory segments.

    Accepts a :class:`~repro.core.embedder.VisionEmbedder` or a
    :class:`~repro.core.sharded.ShardedEmbedder`; each shard's planes are
    copied into a fresh segment and the shard's ``_table`` is swapped for
    the writable :class:`SharedPlanes` owner handle. The swaps come last,
    so a failure mid-promotion leaves the table exactly as it was (every
    segment built so far is destroyed on the way out).

    Returns the :class:`SharedTableSpec` reader processes attach with.
    """
    shards = _shards_of(table)
    originals = [shard._table for shard in shards]
    planes_list: List[SharedPlanes] = []
    try:
        for shard, inner in zip(shards, originals):
            # Tracked by the creating statement itself, so the handler
            # below destroys every segment that exists.
            planes_list.append(SharedPlanes.create(
                inner.width,
                inner.value_bits,
                inner.num_arrays,
                packed=isinstance(inner, PackedValueTable),
                seed=shard.seed,
                length=len(shard),
            ))
            planes_list[-1].load_dense(inner.to_dense())
        spec = SharedTableSpec(
            shards=tuple(planes.spec for planes in planes_list),
            shard_seed=int(getattr(table, "_shard_seed", 0)),
            value_bits=int(table.value_bits),
            capacity=int(getattr(table, "capacity", 0)),
        )
        for shard, planes in zip(shards, planes_list):
            shard._table = planes
        return spec
    except BaseException:
        for shard, inner in zip(shards, originals):
            shard._table = inner
        for planes in planes_list:
            planes.destroy()
        raise


def unshare_table(table: Any) -> None:
    """Demote a promoted table back to private plane storage.

    Each shard's segment is unlinked and closed, and its
    :class:`SharedPlanes` owner handle replaced with a plain in-process
    table holding the same bits. A no-op for shards that were never
    promoted. A failure part-way still releases every segment; a shard
    not yet swapped keeps its closed handle, which serves the same bits
    from a private copy.
    """
    try:
        for shard in _shards_of(table):
            planes = shard._table
            if isinstance(planes, SharedPlanes):
                private = planes.copy()
                # Destroy before the swap, so the error path below still
                # finds the handle of every segment not yet released.
                planes.destroy()
                shard._table = private
    except BaseException:
        for shard in _shards_of(table):
            if isinstance(shard._table, SharedPlanes):
                shard._table.destroy()
        raise


def refresh_meta(table: Any) -> None:
    """Re-publish each promoted shard's seed and key count to its header.

    Owners call this after applying writes so reader processes see
    reconstruction reseeds (header seed word) and live key counts.
    """
    for shard in _shards_of(table):
        planes = shard._table
        if isinstance(planes, SharedPlanes):
            planes.set_meta(seed=shard.seed, length=len(shard))
