"""Cycle model of the FPGA data plane under concurrent updates (§VI-I).

The paper's deployment computes update schemes on the CPU and ships them
to the FPGA, which "takes update message and performs high-speed lookup
operation". Block RAMs are dual-ported: port A serves the lookup pipeline
(one read per array per cycle, II = 1), port B serves the update engine
(one cell write per cycle). This module models that arrangement:

- :class:`UpdateEngine` — a FIFO of
  :class:`~repro.core.replication.UpdateMessage` cell-XORs, drained one
  write per cycle through port B, plus snapshot handling (a snapshot stalls
  lookups while the whole RAM is rewritten, ``depth`` cycles — which is why
  the control plane avoids reconstructions).
- :class:`DataPlaneDevice` — the combined device: a lookup pipeline and an
  update engine sharing one value table, stepped cycle by cycle. Lookup
  throughput stays one per cycle regardless of update load; what update
  pressure costs is *FIFO occupancy* (staleness), which the device reports.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.replication import Message, SnapshotMessage, UpdateMessage
from repro.core.value_table import ValueTable, xor_lookup
from repro.fpga.pipeline import NUM_STAGES, LookupPipeline
from repro.hashing import HashFamily


class UpdateEngine:
    """Port-B write engine: drains one queued cell-XOR per cycle."""

    def __init__(self, table: ValueTable):
        self._table = table
        self._fifo: Deque[UpdateMessage] = deque()
        self.writes_applied = 0
        self.max_occupancy = 0

    @property
    def occupancy(self) -> int:
        """Messages waiting in the FIFO (update staleness in cycles)."""
        return len(self._fifo)

    def enqueue(self, message: UpdateMessage) -> None:
        self._fifo.append(message)
        self.max_occupancy = max(self.max_occupancy, len(self._fifo))

    def step(self) -> bool:
        """One cycle: apply at most one queued write. True if one applied."""
        if not self._fifo:
            return False
        message = self._fifo.popleft()
        self._table.xor(message.cell, message.delta)  # repro: noqa[R101] -- port-B FIFO applies publisher-authored V_delta
        self.writes_applied += 1
        return True


@dataclass(frozen=True)
class DeviceStats:
    """Cycle accounting for a stepped device run."""

    cycles: int
    lookups_completed: int
    writes_applied: int
    snapshot_stall_cycles: int
    max_fifo_occupancy: int

    def lookup_throughput(self, frequency_mhz: float) -> float:
        """Sustained lookups per microsecond at the modelled clock."""
        if self.cycles == 0:
            return 0.0
        return self.lookups_completed / self.cycles * frequency_mhz


class DataPlaneDevice:
    """Lookup pipeline + update engine over one dual-ported value table."""

    def __init__(self, frequency_mhz: float = 279.64):
        self.frequency_mhz = frequency_mhz
        self._table: Optional[ValueTable] = None
        self._hashes: Optional[HashFamily] = None
        self._pipeline: Optional[LookupPipeline] = None
        self._engine: Optional[UpdateEngine] = None
        self._cycles = 0
        self._snapshot_stalls = 0
        self._lookups_done = 0

    @property
    def ready(self) -> bool:
        return self._pipeline is not None

    def apply(self, message: Message) -> None:
        """Consume one control-plane message (subscribe() target)."""
        if isinstance(message, SnapshotMessage):
            table = ValueTable(
                message.width, message.value_bits, message.num_arrays
            )
            dense = np.frombuffer(
                message.cells, dtype="<u8"
            ).reshape(message.num_arrays, message.width)
            table.load_dense(dense)  # repro: noqa[R101] -- device BRAM restores the control plane's snapshot verbatim
            self._table = table
            self._hashes = HashFamily(
                message.seed, [message.width] * message.num_arrays
            )
            self._pipeline = LookupPipeline(
                table, self._hashes, self.frequency_mhz
            )
            self._engine = UpdateEngine(table)
            # A full-RAM rewrite stalls lookups for `width` write cycles
            # per array (the paper's motivation for avoiding rebuilds).
            self._snapshot_stalls += message.width * message.num_arrays
        elif isinstance(message, UpdateMessage):
            if self._engine is None:
                raise RuntimeError("device has no snapshot yet")
            self._engine.enqueue(message)
        else:
            raise TypeError(f"unknown message type {type(message).__name__}")

    def step(self, lookup_key: Optional[int] = None) -> Optional[int]:
        """One clock cycle: port A accepts a lookup, port B drains a write."""
        if self._pipeline is None or self._engine is None:
            raise RuntimeError("device has no snapshot yet")
        self._cycles += 1
        self._engine.step()
        result = self._pipeline.step(lookup_key)
        if result is not None:
            self._lookups_done += 1
        return result

    def run_queries(self, keys: Sequence[int]) -> Tuple[List[int], DeviceStats]:
        """Stream queries back to back; drain the pipeline and the FIFO."""
        if self._pipeline is None or self._engine is None:
            raise RuntimeError("device has no snapshot yet")
        results: List[int] = []
        for key in keys:
            value = self.step(int(key))
            if value is not None:
                results.append(value)
        for _ in range(NUM_STAGES):
            value = self.step(None)
            if value is not None:
                results.append(value)
        while self._engine.occupancy:
            self.step(None)
        return results, self.stats()

    def stats(self) -> DeviceStats:
        engine = self._engine
        return DeviceStats(
            cycles=self._cycles,
            lookups_completed=self._lookups_done,
            writes_applied=engine.writes_applied if engine else 0,
            snapshot_stall_cycles=self._snapshot_stalls,
            max_fifo_occupancy=engine.max_occupancy if engine else 0,
        )

    def lookup_now(self, key: int) -> int:
        """A combinational read of the current table state (test helper)."""
        if self._table is None or self._hashes is None:
            raise RuntimeError("device has no snapshot yet")
        return xor_lookup(self._table, self._hashes, int(key))
