"""Control-plane → data-plane replication of the fast space (§I, §VI-I).

On the paper's FPGA deployment, the CPU (control plane) runs the update
search over the assistant table and ships the result to the FPGA (data
plane) as *update messages*; the data plane only ever applies cell writes
and serves lookups. This module implements that split in software:

- :class:`UpdateMessage` — one cell XOR, the unit the paper's FPGA consumes
  (the deferred-path design means a whole repair is a list of these with a
  single shared delta).
- :class:`PublishingVisionEmbedder` — a VisionEmbedder that emits the
  message stream for every mutation, including full snapshots on
  reconstruction.
- :class:`DataPlaneReplica` — a lookup-only replica holding just the value
  table and hash seeds (no assistant table): exactly the fast-space state a
  switch ASIC / FPGA would hold. Applying the message stream keeps it
  bit-identical to the publisher.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.config import EmbedderConfig
from repro.core.embedder import VisionEmbedder
from repro.core.value_table import ValueTable, xor_lookup, xor_lookup_batch
from repro.hashing import HashFamily, key_to_u64
from repro.table import Key

Cell = Tuple[int, int]


@dataclass(frozen=True)
class UpdateMessage:
    """XOR ``delta`` into ``cell`` — the data-plane write primitive."""

    cell: Cell
    delta: int


@dataclass(frozen=True)
class SnapshotMessage:
    """Full fast-space state; sent after a reconstruction (new seeds)."""

    seed: int
    width: int
    value_bits: int
    num_arrays: int
    cells: bytes  # row-major uint64 little-endian

    @classmethod
    def of(cls, seed: int, table) -> "SnapshotMessage":
        if hasattr(table, "to_dense"):
            dense = table.to_dense()
        else:
            dense = table._cells
        return cls(
            seed=seed,
            width=table.width,
            value_bits=table.value_bits,
            num_arrays=table.num_arrays,
            cells=np.asarray(dense).astype("<u8").tobytes(),
        )


Message = Union[UpdateMessage, SnapshotMessage]


class PublishingVisionEmbedder(VisionEmbedder):
    """VisionEmbedder that streams its fast-space writes to subscribers.

    Subscribers receive every :class:`UpdateMessage` in apply order and a
    :class:`SnapshotMessage` whenever reconstruction replaced the whole
    table (reseeds change every cell, so a diff would be the whole table
    anyway).
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._subscribers: List[Callable[[Message], None]] = []

    def subscribe(self, callback: Callable[[Message], None]) -> None:
        """Register a message consumer; immediately sends a snapshot."""
        self._subscribers.append(callback)
        callback(SnapshotMessage.of(self.seed, self._table))

    def _publish(self, message: Message) -> None:
        for callback in self._subscribers:
            callback(message)

    # -- hook the two mutation paths --------------------------------------

    def _run_update(self, handle: int) -> None:
        reconstructions_before = self._stats.reconstructions
        table_before = self._table  # cells mutate in place; compare counts
        super()._run_update(handle)
        if self._stats.reconstructions != reconstructions_before:
            # Reconstruction rewired everything: ship a snapshot.
            self._publish(SnapshotMessage.of(self.seed, self._table))

    def reconstruct(self, method: str = "dynamic") -> None:
        super().reconstruct(method)
        self._publish(SnapshotMessage.of(self.seed, self._table))

    def bulk_load(self, pairs) -> None:
        super().bulk_load(pairs)
        self._publish(SnapshotMessage.of(self.seed, self._table))

    # The deferred plan application is the single choke point for
    # incremental writes; intercept it by wrapping the plan.

    def insert(self, key: Key, value: int) -> None:
        with self._capture_writes():
            super().insert(key, value)

    def insert_batch(self, keys, values) -> None:
        # insert_many funnels through here, so batched writes stream the
        # same per-cell messages sequential inserts would.
        with self._capture_writes():
            super().insert_batch(keys, values)

    def update(self, key: Key, value: int) -> None:
        with self._capture_writes():
            super().update(key, value)

    def _capture_writes(self):
        """Context manager publishing every cell XOR the operation applies."""
        publisher = self

        class _Capture:
            def __enter__(self):
                publisher._original_xor = publisher._table.xor

                def publishing_xor(cell, delta, _orig=publisher._original_xor):
                    _orig(cell, delta)
                    publisher._publish(
                        UpdateMessage(cell=cell, delta=int(delta))
                    )

                publisher._table.xor = publishing_xor
                return self

            def __exit__(self, *exc):
                # Remove the instance attribute so the class method shows
                # through again.
                del publisher._table.xor
                del publisher._original_xor
                return False

        return _Capture()


class DataPlaneReplica:
    """A lookup-only fast-space replica (what an FPGA/ASIC would hold)."""

    def __init__(self):
        self._table: Optional[ValueTable] = None
        self._hashes: Optional[HashFamily] = None
        self.messages_applied = 0
        self.snapshots_applied = 0

    @property
    def ready(self) -> bool:
        """True once a snapshot has been received."""
        return self._table is not None

    def apply(self, message: Message) -> None:
        """Consume one control-plane message."""
        if isinstance(message, SnapshotMessage):
            table = ValueTable(
                message.width, message.value_bits, message.num_arrays
            )
            dense = np.frombuffer(
                message.cells, dtype="<u8"
            ).reshape(message.num_arrays, message.width)
            table.load_dense(dense)  # repro: noqa[R101] -- replica restores the publisher's snapshot verbatim
            self._table = table
            self._hashes = HashFamily(
                message.seed, [message.width] * message.num_arrays
            )
            self.snapshots_applied += 1
        elif isinstance(message, UpdateMessage):
            if self._table is None:
                raise RuntimeError("replica has no snapshot yet")
            self._table.xor(message.cell, message.delta)  # repro: noqa[R101] -- data plane applies publisher-authored V_delta
            self.messages_applied += 1
        else:
            raise TypeError(f"unknown message type {type(message).__name__}")

    def lookup(self, key: Key) -> int:
        """Fast-space lookup, identical to the publisher's."""
        if self._table is None or self._hashes is None:
            raise RuntimeError("replica has no snapshot yet")
        return xor_lookup(self._table, self._hashes, key_to_u64(key))

    def lookup_batch(self, keys: np.ndarray) -> np.ndarray:
        """Vectorised fast-space lookup."""
        if self._table is None or self._hashes is None:
            raise RuntimeError("replica has no snapshot yet")
        return xor_lookup_batch(self._table, self._hashes, keys)

    def state_equals(self, embedder: VisionEmbedder) -> bool:
        """Bit-exact comparison with a publisher's fast space (tests)."""
        if self._table is None:
            return False
        theirs = embedder._table
        if hasattr(theirs, "to_dense"):
            # Packed publisher: compare against its dense projection.
            return bool(np.array_equal(self._table._cells, theirs.to_dense()))
        return self._table == theirs
