"""Shared-memory plane storage: dense L-bit planes other processes can read.

The serving layer's scale-out story (docs/serving.md) runs N worker
processes that all answer lookups from the *same* value-table planes. The
planes are small dense arrays that only change inside an UpdatePlan, which
makes them ideal for zero-copy sharing: this module places a table's
:class:`~repro.core.value_table.PlaneBlock` — every shard's planes, dense
(:class:`~repro.core.value_table.ValueTable`) or bit-packed
(:class:`~repro.core.packed_table.PackedValueTable`) — into **one**
``multiprocessing.shared_memory`` segment, and hands each shard a
:class:`SharedPlanes` handle behind the exact same plane-storage duck
interface, so :class:`~repro.core.embedder.VisionEmbedder` never notices
the swap. An unsharded table is the one-shard case.

Torn reads are prevented with a seqlock-style generation counter in the
segment header — one per segment, whatever its shard count. The single
owner process brackets every mutation with ``begin_update()``/
``end_update()`` (generation odd while a write is in flight); the
bracket's depth belongs to the segment, so a shard-level write inside a
table-wide bracket never publishes early. Readers wrap each lookup in
:meth:`SharedPlanes.read_stable`, which retries until it observes the
same *even* generation before and after the computation. Readers
therefore only ever return pre- or post-update values — never a mixture
— at the cost of an occasional retry, counted in
:attr:`SharedPlanes.retries`. A reader waits out an odd generation for as
long as the process that opened the bracket (its pid is in the header)
is alive, and fails fast once it is gone.

Segment layout (all 64-bit little-endian words; S shards)::

    word 0       magic (identifies a repro plane segment + layout version)
    word 1       generation (even = stable, odd = write in flight)
    word 2       S (number of shards)
    word 3       width (cells per array)
    word 4       value_bits (L)
    word 5       num_arrays (k, 3 in the paper)
    word 6       packed flag (1 = bit-packed words, 0 = one word per cell)
    word 7       shard stride (cells per shard region of the plane block)
    word 8       owner pid (the process that opened the latest bracket)
    word 9..     S shard seeds (each shard's embedder hash seed; bumped
                 by its reconstructions), then S shard key counts
    word 9+2S..  the plane block (PlaneBlock layout)

Attach discipline: readers map the segment through ``/dev/shm`` with
``numpy.memmap`` when possible, which keeps them out of the
``resource_tracker`` registry — only the creating owner is registered, so
an owner crash still unlinks the segment while a reader crash never
triggers a spurious unlink under the other processes' feet.
"""

from __future__ import annotations

import os
import secrets
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from multiprocessing import resource_tracker, shared_memory
from typing import (
    Any,
    Callable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
    cast,
)

import numpy as np
import numpy.typing as npt

from repro.core.errors import SharedPlanesError
from repro.core.packed_table import PackedValueTable
from repro.core.value_table import (
    Cell,
    PlaneBlock,
    ValueTable,
    check_geometry,
)

_T = TypeVar("_T")

_MAGIC = 0x5245504C414E4533  # "REPLANE3"
#: Fixed header words; the per-shard seeds and key counts follow.
_HEADER_WORDS = 9
_WORD_BYTES = 8

_MAGIC_SLOT = 0
_GEN_SLOT = 1
_SHARDS_SLOT = 2
_WIDTH_SLOT = 3
_BITS_SLOT = 4
_ARRAYS_SLOT = 5
_PACKED_SLOT = 6
_STRIDE_SLOT = 7
_OWNER_SLOT = 8

_U64 = np.uint64
_M64 = (1 << 64) - 1

#: Prefix of the names :meth:`SharedPlanes.create` picks, before its pid.
SEGMENT_PREFIX = "repro-planes-"

# Reader wait while the generation is odd. The owner holds it odd for a
# whole write (a served write request's walks, ~1-5 ms), and a write whose
# walk fails reconstructs its shard inside the same bracket: a second or
# more at ~30k keys a shard. A reader spins this many times (~0.5 s), then
# keeps waiting in short sleeps while the process that opened the bracket
# is alive. Once that process is gone, or if it is the reader's own (it
# cannot wait for itself), the reader raises.
_SPIN_LIMIT = 2_000_000
_YIELD_EVERY = 1024
_WAIT_SLEEP_S = 0.001
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
    num_shards: int = 1


@dataclass(frozen=True)
class SharedTableSpec:
    """Picklable handle for attaching to a whole (possibly sharded) table.

    ``planes`` names the table's one segment; ``shard_seed`` is the router
    seed of the owning :class:`~repro.core.sharded.ShardedEmbedder`
    (routing is trivial when there is a single shard). Per-shard embedder
    seeds live in the segment header, not here — reconstruction changes
    them.
    """

    planes: SharedPlanesSpec
    shard_seed: int
    value_bits: int
    capacity: int

    @property
    def num_shards(self) -> int:
        return self.planes.num_shards


def _other_process_alive(pid: int) -> bool:
    """Whether ``pid`` names a live process other than this one.

    A zombie (exited, not yet reaped) counts as gone where ``/proc``
    tells; a reused pid would read as alive, which only prolongs a wait.
    """
    if pid <= 0 or pid == os.getpid():
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        pass  # alive, under another user
    try:
        with open(f"/proc/{pid}/stat", "rb") as stat:
            # The state letter follows the parenthesised command name.
            state = stat.read().rpartition(b")")[2].split()[:1]
    except OSError:
        return True  # no procfs: the signal probe has to do
    return state != [b"Z"]


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


def _layout(spec: SharedPlanesSpec) -> Tuple[Any, int, int, int]:
    """``(table class, shard stride, header words, block words)`` of the
    segment ``spec`` describes (its name plays no part)."""
    table_class: Any = PackedValueTable if spec.packed else ValueTable
    stride, block_words = PlaneBlock.layout(
        table_class, spec.width, spec.value_bits, spec.num_arrays,
        spec.num_shards,
    )
    header_words = _HEADER_WORDS + 2 * spec.num_shards
    return table_class, stride, header_words, block_words


@dataclass(eq=False)
class _Segment:
    """What every shard handle of one segment shares: the mapping, the
    header, the plane block over the segment's data, and the seqlock
    state — one generation and one transaction depth."""

    spec: SharedPlanesSpec
    header: npt.NDArray[np.uint64]
    block: PlaneBlock
    writable: bool
    created: bool
    shm: Optional[shared_memory.SharedMemory]
    depth: int = 0
    closed: bool = False
    retries: int = 0
    handles: Tuple["SharedPlanes", ...] = ()


class SharedPlanes:
    """One shard's plane storage inside a named shared-memory segment.

    Construct with :meth:`create` (owner) or :meth:`attach` (reader or
    the owner re-attaching after a fork); both return shard 0's handle,
    and :meth:`shards` gives every shard's. A handle quacks like a
    :class:`ValueTable` — ``get``/``xor``/``gather_xor``/``to_dense`` and
    friends over its shard's region — so it can be dropped into
    ``VisionEmbedder._table``.

    Exactly one process holds ``writable=True`` per segment; that owner
    brackets mutations with :meth:`transaction` (mutating duck methods
    self-wrap when called outside one). The generation, the bracket depth
    and the retry count belong to the segment, shared by all its handles.
    Readers get torn-free reads via :meth:`read_stable`, which the
    read-path duck methods use internally.
    """

    def __init__(self, segment: _Segment, shard: int) -> None:
        self._segment = segment
        self.shard = shard
        # The block rebinds its views in place (close()), so this stays
        # the shard's region wherever the block's words live.
        self._inner: _PlaneTable = segment.block.shards[shard]

    # -- construction -------------------------------------------------------

    @classmethod
    def _open(cls, segment: _Segment) -> "SharedPlanes":
        segment.handles = tuple(
            cls(segment, shard) for shard in range(segment.spec.num_shards)
        )
        return segment.handles[0]

    @classmethod
    def create(
        cls,
        width: int,
        value_bits: int,
        num_arrays: int = 3,
        *,
        packed: bool = False,
        name: Optional[str] = None,
        num_shards: int = 1,
    ) -> "SharedPlanes":
        """Allocate a fresh zeroed segment; return shard 0's owner handle.

        Every shard's header seed and key count start at 0
        (:meth:`publish` records them). The segment is registered with
        this process's ``resource_tracker``, so it is unlinked even if the
        owner dies without calling :meth:`destroy`.
        """
        check_geometry(width, value_bits, num_arrays)
        if num_shards <= 0:
            raise ValueError("num_shards must be positive")
        unnamed = SharedPlanesSpec(
            name="", width=width, value_bits=value_bits,
            num_arrays=num_arrays, packed=packed, num_shards=num_shards,
        )
        table_class, stride, header_words, block_words = _layout(unnamed)
        shm = _new_segment(name, (header_words + block_words) * _WORD_BYTES)
        try:
            spec = replace(unnamed, name=shm.name)
            # Map the words through the tmpfs path where possible,
            # releasing the SharedMemory handle's own mapping right away
            # (the handle is kept only for unlink + its resource_tracker
            # registration). A ``numpy.memmap`` dies quietly with its last
            # view, so a handle abandoned mid-teardown never refuses to
            # close at GC the way an mmap with exported buffer pointers
            # does. Every view is a plain ndarray whose base keeps the
            # memmap alive: ``memmap.__getitem__`` is Python-level, and
            # the owner's scalar cell reads and writes would pay it.
            path = os.path.join("/dev/shm", shm.name)
            if os.path.exists(path):
                shm.close()
                full = np.memmap(path, dtype=_U64, mode="r+").view(
                    np.ndarray)
            else:  # pragma: no cover - non-tmpfs platforms
                full = np.frombuffer(shm.buf, dtype=_U64)
            header = full[:header_words]
            header[_MAGIC_SLOT] = _U64(_MAGIC)
            header[_GEN_SLOT] = _U64(0)
            header[_SHARDS_SLOT] = _U64(num_shards)
            header[_WIDTH_SLOT] = _U64(width)
            header[_BITS_SLOT] = _U64(value_bits)
            header[_ARRAYS_SLOT] = _U64(num_arrays)
            header[_PACKED_SLOT] = _U64(1 if packed else 0)
            header[_STRIDE_SLOT] = _U64(stride)
            header[_OWNER_SLOT] = _U64(os.getpid())
            block = PlaneBlock(
                table_class, width, value_bits, num_arrays, num_shards,
                words=full[header_words : header_words + block_words],
            )
            return cls._open(_Segment(
                spec, header, block, writable=True, created=True, shm=shm
            ))
        except BaseException:
            # No owner handle exists yet to unlink the segment later.
            shm.close()
            shm.unlink()
            raise

    @classmethod
    def attach(
        cls, spec: SharedPlanesSpec, *, writable: bool = False
    ) -> "SharedPlanes":
        """Map an existing segment described by ``spec``; return shard 0's
        handle.

        Prefers a direct ``numpy.memmap`` of ``/dev/shm/<name>`` so the
        attaching process is *not* added to the ``resource_tracker``
        registry (see module docstring); falls back to
        ``SharedMemory(name=...)`` plus an explicit unregister where the
        tmpfs path is unavailable.
        """
        table_class, stride, header_words, block_words = _layout(spec)
        path = os.path.join("/dev/shm", spec.name)
        shm: Optional[shared_memory.SharedMemory] = None
        if os.path.exists(path):
            mode = "r+" if writable else "r"
            # A plain ndarray view, as in create().
            full = np.memmap(path, dtype=_U64, mode=mode).view(np.ndarray)
        else:  # pragma: no cover - non-tmpfs platforms
            shm = shared_memory.SharedMemory(name=spec.name)
            try:
                resource_tracker.unregister(
                    getattr(shm, "_name", "/" + spec.name), "shared_memory"
                )
            except (KeyError, ValueError):
                pass
            full = np.frombuffer(shm.buf, dtype=_U64)
        if full.size < header_words + block_words:
            raise SharedPlanesError(
                f"segment {spec.name!r} too small: have {full.size} words, "
                f"need {header_words + block_words}"
            )
        header = full[:header_words]
        if int(header[_MAGIC_SLOT]) != _MAGIC:
            raise SharedPlanesError(
                f"segment {spec.name!r} is not a repro plane segment"
            )
        geometry = (
            int(header[_WIDTH_SLOT]),
            int(header[_BITS_SLOT]),
            int(header[_ARRAYS_SLOT]),
            bool(int(header[_PACKED_SLOT])),
            int(header[_SHARDS_SLOT]),
            int(header[_STRIDE_SLOT]),
        )
        expected = (
            spec.width, spec.value_bits, spec.num_arrays, spec.packed,
            spec.num_shards, stride,
        )
        if geometry != expected:
            raise SharedPlanesError(
                f"segment {spec.name!r} geometry {geometry} does not match "
                f"spec {expected}"
            )
        block = PlaneBlock(
            table_class, spec.width, spec.value_bits, spec.num_arrays,
            spec.num_shards,
            words=full[header_words : header_words + block_words],
        )
        return cls._open(_Segment(
            spec, header, block, writable=writable, created=False, shm=shm
        ))

    def shards(self) -> Tuple["SharedPlanes", ...]:
        """Every shard's handle on this segment, indexed by shard id."""
        return self._segment.handles

    # -- geometry (duck parity with ValueTable) -----------------------------

    @property
    def spec(self) -> SharedPlanesSpec:
        return self._segment.spec

    @property
    def writable(self) -> bool:
        return self._segment.writable

    @property
    def block(self) -> PlaneBlock:
        """The plane block of every shard (what a batched read gathers
        from, inside :meth:`read_stable`)."""
        return self._segment.block

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
        """Actual RAM mapped for this shard's plane words."""
        return int(_storage(self._inner).nbytes)

    @property
    def packed(self) -> bool:
        return self.spec.packed

    # -- seqlock ------------------------------------------------------------

    @property
    def generation(self) -> int:
        """Current generation word (odd while a write is in flight)."""
        return int(self._segment.header[_GEN_SLOT])

    @property
    def retries(self) -> int:
        """Reads this process retried because the generation moved."""
        return self._segment.retries

    @property
    def seed(self) -> int:
        """This shard's embedder hash seed recorded in the header."""
        return int(self._segment.header[_HEADER_WORDS + self.shard])

    @property
    def length(self) -> int:
        """This shard's key count recorded in the header."""
        shards = self.spec.num_shards
        return int(self._segment.header[_HEADER_WORDS + shards + self.shard])

    @property
    def seeds(self) -> List[int]:
        """Every shard's header seed, by shard id."""
        shards = self.spec.num_shards
        seeds: List[int] = self._segment.header[
            _HEADER_WORDS : _HEADER_WORDS + shards
        ].tolist()
        return seeds

    @property
    def lengths(self) -> List[int]:
        """Every shard's header key count, by shard id."""
        lengths: List[int] = self._segment.header[
            _HEADER_WORDS + self.spec.num_shards :
        ].tolist()
        return lengths

    def begin_update(self) -> None:
        """Mark a write in flight (generation goes odd), recording this
        process as the one readers wait for. Reentrant, across every
        shard handle of the segment."""
        self._require_writable()
        segment = self._segment
        if segment.depth == 0:
            segment.header[_OWNER_SLOT] = _U64(os.getpid())
            segment.header[_GEN_SLOT] = _U64(self.generation + 1)
        segment.depth += 1

    def end_update(self) -> None:
        """Publish the write (generation returns to even) once the
        outermost bracket on the segment closes."""
        self._require_writable()
        segment = self._segment
        if segment.depth <= 0:
            raise SharedPlanesError("end_update without begin_update")
        segment.depth -= 1
        if segment.depth == 0:
            segment.header[_GEN_SLOT] = _U64(self.generation + 1)

    @contextmanager
    def transaction(self) -> Iterator["SharedPlanes"]:
        """Seqlock write bracket; nests (only the outermost publishes)."""
        self.begin_update()
        try:
            yield self
        finally:
            self.end_update()

    def publish(self, seeds: Sequence[int], lengths: Sequence[int]) -> None:
        """Record every shard's seed and key count under one bracket."""
        shards = self.spec.num_shards
        header = self._segment.header
        with self.transaction():
            header[_HEADER_WORDS : _HEADER_WORDS + shards] = np.array(
                [seed & _M64 for seed in seeds], dtype=_U64
            )
            header[_HEADER_WORDS + shards :] = np.array(lengths, dtype=_U64)

    def _require_writable(self) -> None:
        if not self._segment.writable:
            raise SharedPlanesError(
                "reader-role SharedPlanes handle cannot mutate the segment"
            )

    def _await_even(self) -> int:
        """Wait until the generation is even; return it.

        Spins ``_SPIN_LIMIT`` times, then sleeps in short steps while the
        process holding the write bracket lives; raises once it has died
        mid-update, or at once if it is this process.
        """
        header = self._segment.header
        spins = 0
        while True:
            gen = int(header[_GEN_SLOT])
            if gen & 1 == 0:
                return gen
            if spins < _SPIN_LIMIT:
                spins += 1
                if spins % _YIELD_EVERY == 0:
                    os.sched_yield()
            elif _other_process_alive(int(header[_OWNER_SLOT])):
                time.sleep(_WAIT_SLEEP_S)
            else:
                raise SharedPlanesError(
                    "generation stuck odd: plane owner crashed mid-update?"
                )

    def read_stable(self, compute: Callable[[], _T]) -> _T:
        """Run ``compute`` under seqlock protection and return its result.

        ``compute`` must not retain references into the shared planes
        (every read-path duck method returns ints or fresh arrays, so
        delegating to them is safe). The owner handle skips the protocol:
        it is the only writer, so its reads are always stable.
        """
        segment = self._segment
        if segment.writable:
            return compute()
        for _ in range(_READ_RETRIES):
            gen0 = self._await_even()
            result = compute()
            if int(segment.header[_GEN_SLOT]) == gen0:
                return result
            segment.retries += 1
        raise SharedPlanesError(
            f"read did not stabilise after {_READ_RETRIES} retries"
        )

    # -- reads (torn-free for readers) --------------------------------------

    def get(self, cell: Cell) -> int:  # repro: hotpath
        if self._segment.writable:  # the owner's reads are always stable
            return self._inner.get(cell)
        return self.read_stable(lambda: self._inner.get(cell))

    def xor_sum(self, cells: Iterable[Cell]) -> int:  # repro: hotpath
        if self._segment.writable:
            return self._inner.xor_sum(cells)
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
        """A *private* (non-shared) deep copy of this shard's planes."""
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
        """Detach from the segment, demoting every handle on it to a
        private snapshot.

        Every numpy view into the mapping must be dropped before the
        mapping can be released (``mmap`` refuses to close with exported
        buffers), so the plane block — and with it every shard's view —
        is first rebound to a private copy: the handles stay readable
        in-process, they just stop tracking the shared segment.
        """
        segment = self._segment
        if segment.closed:
            return
        segment.block.rebind(np.array(segment.block.words, dtype=_U64))
        segment.header = np.array(segment.header, dtype=_U64)
        if segment.shm is not None:
            segment.shm.close()
        # Last, so an interrupted close is redone in full by the next call.
        segment.closed = True

    def unlink(self) -> None:
        """Remove the segment name (creating owner only)."""
        segment = self._segment
        if not segment.created:
            raise SharedPlanesError(
                "only the creating owner may unlink the segment"
            )
        if segment.shm is not None:
            try:
                segment.shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    def destroy(self) -> None:
        """Unlink, then detach (owner teardown): an error while detaching
        cannot leave the segment's name behind."""
        if self._segment.created:
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
            f"shard={self.shard}/{self.spec.num_shards}, "
            f"width={self.width}, value_bits={self.value_bits}, "
            f"num_arrays={self.num_arrays}, packed={self.packed})"
        )


def _shards_of(table: Any) -> Tuple[Any, ...]:
    """The per-shard VisionEmbedders of ``table`` (itself, if unsharded)."""
    shards = getattr(table, "shards", None)
    if shards is not None:
        return tuple(shards)
    return (table,)


def _bind(
    table: Any, planes: Sequence[Any], block: Optional[PlaneBlock]
) -> None:
    """Point each shard of ``table`` at its entry of ``planes`` and, for a
    sharded table, its batched read at ``block`` (the block those planes
    are views of)."""
    for shard, one in zip(_shards_of(table), planes):
        shard._table = one
    if getattr(table, "shards", None) is not None:
        table._block = block


def share_table(table: Any) -> SharedTableSpec:
    """Promote a table's planes into one shared-memory segment.

    Accepts a :class:`~repro.core.embedder.VisionEmbedder` or a
    :class:`~repro.core.sharded.ShardedEmbedder`; every shard's planes are
    copied into its region of the segment's plane block, each shard's
    ``_table`` is swapped for its writable :class:`SharedPlanes` owner
    handle, and a sharded table's batched read moves to the segment's
    block. The swaps come last, so a failure mid-promotion leaves the
    table exactly as it was (the segment is destroyed on the way out).

    Returns the :class:`SharedTableSpec` reader processes attach with.
    """
    shards = _shards_of(table)
    originals = [shard._table for shard in shards]
    original_block = getattr(table, "_block", None)
    planes: Optional[SharedPlanes] = None
    try:
        first = originals[0]
        planes = SharedPlanes.create(
            first.width,
            first.value_bits,
            first.num_arrays,
            packed=isinstance(first, PackedValueTable),
            num_shards=len(shards),
        )
        handles = planes.shards()
        for handle, inner in zip(handles, originals):
            handle.load_dense(inner.to_dense())
        planes.publish(
            [shard.seed for shard in shards], [len(shard) for shard in shards]
        )
        spec = SharedTableSpec(
            planes=planes.spec,
            shard_seed=int(getattr(table, "_shard_seed", 0)),
            value_bits=int(table.value_bits),
            capacity=int(getattr(table, "capacity", 0)),
        )
        _bind(table, handles, planes.block)
        return spec
    except BaseException:
        _bind(table, originals, original_block)
        if planes is not None:
            planes.destroy()
        raise


def unshare_table(table: Any) -> None:
    """Demote a promoted table back to private plane storage.

    The segment is unlinked and closed — closing rebinds its plane block,
    and with it every shard's view, to a private copy — and every shard's
    :class:`SharedPlanes` owner handle is replaced with its view of that
    block. A no-op for a table that was never promoted. A failure
    part-way still releases the segment; the shards then keep their
    closed handles, which serve the same bits from the private copy the
    close made.
    """
    try:
        planes = _shards_of(table)[0]._table
        if not isinstance(planes, SharedPlanes):
            return
        planes.destroy()
    except BaseException:
        # Unlinking and closing are idempotent: finish the teardown.
        first = _shards_of(table)[0]._table
        if isinstance(first, SharedPlanes):
            first.destroy()
        raise
    _bind(table, planes.block.shards, planes.block)


def refresh_meta(table: Any) -> None:
    """Re-publish every shard's seed and key count to the segment header.

    One bracket covers the whole header. Owners call this after applying
    writes so reader processes see reconstruction reseeds and live key
    counts.
    """
    shards = _shards_of(table)
    planes = shards[0]._table
    if isinstance(planes, SharedPlanes):
        planes.publish(
            [shard.seed for shard in shards], [len(shard) for shard in shards]
        )


@contextmanager
def write_bracket(table: Any) -> Iterator[None]:
    """One seqlock transaction around a write to a promoted table, closed
    by one header republish (:func:`refresh_meta`).

    Readers see none or all of the write's cells — an insert's repair
    walk XORs several, a reconstruction rewrites a whole shard — paired
    with the seeds and key counts it left.
    """
    planes = _shards_of(table)[0]._table
    if not isinstance(planes, SharedPlanes):
        yield
        return
    with planes.transaction():
        try:
            yield
        finally:
            refresh_meta(table)
