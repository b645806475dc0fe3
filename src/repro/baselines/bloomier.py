"""Bloomier filter [8]: the static value-only baseline.

The most space-efficient VO table (1.23·L·(n+100) bits — the +100 slack is
the original paper's recommendation so construction succeeds at small n,
which is also why Bloomier looks good at small n in the paper's Fig 4).
Construction solves the XOR equation system in one linear-time greedy pass
(peeling): repeatedly find a cell touched by exactly one remaining key,
stack that key, remove it, and finally assign cells in reverse stack order.

Updates are the weak point the paper targets: adding a key changes the
equation system's topology, and the only general remedy is a full O(n)
rebuild. Changing the value of an *existing* key keeps the topology, so the
same peeling order is replayed with the current seed (still O(n), never a
new failure). Deletion is slow-space-only, like every VO table.
"""

from __future__ import annotations

import math
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.errors import DuplicateKey, KeyNotFound, ReconstructionFailed
from repro.core.stats import TableStats
from repro.core.value_table import ValueTable, xor_lookup, xor_lookup_batch
from repro.hashing import HashFamily, key_to_u64
from repro.table import Key, ValueOnlyTable

Cell = Tuple[int, int]


class Bloomier(ValueOnlyTable):
    """Static three-hash VO table built by peeling.

    Parameters
    ----------
    space_factor, slack:
        The table is sized ``space_factor · (n + slack)`` cells at each
        (re)construction — defaults 1.23 and 100 per the paper (§VI-A3).
    """

    name = "bloomier"

    def __init__(
        self,
        capacity: int = 0,
        value_bits: int = 8,
        seed: int = 1,
        space_factor: float = 1.23,
        slack: int = 100,
        num_arrays: int = 3,
        max_construct_attempts: int = 100,
    ):
        if value_bits < 1:
            raise ValueError("value_bits must be >= 1")
        self._value_bits = value_bits
        self._value_mask = (1 << value_bits) - 1
        self.space_factor = space_factor
        self.slack = slack
        self.num_arrays = num_arrays
        self.max_construct_attempts = max_construct_attempts
        self._seed = seed
        self._values: Dict[int, int] = {}
        self._stats = TableStats()
        self.construction_passes = 0
        self._table: Optional[ValueTable] = None
        self._hashes: Optional[HashFamily] = None
        self._build(resize=True)

    # ------------------------------------------------------------------
    # ValueOnlyTable surface
    # ------------------------------------------------------------------

    @property
    def value_bits(self) -> int:
        return self._value_bits

    @property
    def space_bits(self) -> int:
        return self._table.space_bits

    @property
    def stats(self) -> TableStats:
        return self._stats

    @property
    def seed(self) -> int:
        return self._seed

    @property
    def num_cells(self) -> int:
        """m: current number of value-table cells."""
        return self._table.num_cells

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, key: Key) -> bool:
        return key_to_u64(key) in self._values

    def lookup(self, key: Key) -> int:
        return xor_lookup(self._table, self._hashes, key_to_u64(key))

    def lookup_batch(self, keys: np.ndarray) -> np.ndarray:
        return xor_lookup_batch(self._table, self._hashes, keys)

    def insert(self, key: Key, value: int) -> None:
        """Add a pair — O(n): topology changed, so the table is rebuilt."""
        handle = key_to_u64(key)
        if handle in self._values:
            raise DuplicateKey(f"key {key!r} already inserted")
        self._check_value(value)
        self._values[handle] = value
        try:
            self._build(resize=True)
        except ReconstructionFailed:
            del self._values[handle]
            raise
        self._stats.updates += 1

    def update(self, key: Key, value: int) -> None:
        """Change an existing key's value — O(n) reassignment, same seed."""
        handle = key_to_u64(key)
        if handle not in self._values:
            raise KeyNotFound(f"key {key!r} not inserted")
        self._check_value(value)
        self._values[handle] = value
        # Topology (key set, seed, size) is unchanged, so the peel that
        # succeeded before succeeds again; only values are reassigned.
        self._build(resize=False)
        self._stats.updates += 1

    def delete(self, key: Key) -> None:
        handle = key_to_u64(key)
        if handle not in self._values:
            raise KeyNotFound(f"key {key!r} not inserted")
        del self._values[handle]

    def insert_many(self, pairs) -> None:
        """Bulk insert with one rebuild at the end (static construction)."""
        added = []
        for key, value in pairs:
            handle = key_to_u64(key)
            if handle in self._values:
                raise DuplicateKey(f"key {key!r} already inserted")
            self._check_value(value)
            self._values[handle] = value
            added.append(handle)
        try:
            self._build(resize=True)
        except ReconstructionFailed:
            for handle in added:
                del self._values[handle]
            raise
        self._stats.updates += len(added)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _check_value(self, value: int) -> None:
        if not 0 <= value <= self._value_mask:
            raise ValueError(
                f"value {value} out of range for {self._value_bits}-bit values"
            )

    def _cells_for(self, handle: int) -> Tuple[Cell, ...]:
        return tuple(enumerate(self._hashes.indices(handle)))

    def _target_width(self) -> int:
        cells = math.ceil(self.space_factor * (len(self._values) + self.slack))
        return max(1, math.ceil(cells / self.num_arrays))

    def _build(self, resize: bool) -> None:
        """(Re)construct the value table for the current pair set.

        ``resize=False`` keeps the current size and seed (used by value
        updates, where the existing peel is known to succeed).
        """
        attempts = self.max_construct_attempts if resize else 1
        for attempt in range(attempts):
            width = self._target_width() if resize else self._hashes[0].width
            if attempt > 0:
                self._seed += 1
                self._stats.update_failures += 1
                self._stats.reconstructions += 1
            started = time.perf_counter()
            try:
                self._hashes = HashFamily(
                    self._seed, [width] * self.num_arrays
                )
                self.construction_passes += 1
                order = self._peel()
                if order is not None:
                    self._assign(order, width)
                    return
            finally:
                # Only *retry* passes are failure-induced reconstruction
                # time; the first pass is the normal O(n) update cost.
                if attempt > 0:
                    self._stats.reconstruct_seconds += (
                        time.perf_counter() - started
                    )
        raise ReconstructionFailed(
            f"peeling failed for {self.max_construct_attempts} seeds"
        )

    def _peel(self) -> Optional[List[Tuple[int, Cell]]]:
        """Greedy peel: an order in which each key has a private cell.

        Returns ``[(key, its singleton cell), ...]`` in peel order, or None
        if peeling stalls (construction failure).
        """
        width = self._hashes[0].width
        counts = np.zeros((self.num_arrays, width), dtype=np.int64)
        cell_members: Dict[Cell, set] = {}
        key_cells: Dict[int, Tuple[Cell, ...]] = {}
        for handle in self._values:
            cells = self._cells_for(handle)
            key_cells[handle] = cells
            for cell in cells:
                counts[cell] += 1
                cell_members.setdefault(cell, set()).add(handle)

        stack: List[Tuple[int, Cell]] = []
        queue = [cell for cell, members in cell_members.items() if len(members) == 1]
        peeled = set()
        while queue:
            cell = queue.pop()
            members = cell_members.get(cell)
            if not members or len(members) != 1:
                continue
            (handle,) = members
            if handle in peeled:
                continue
            peeled.add(handle)
            stack.append((handle, cell))
            for other in key_cells[handle]:
                cell_members[other].discard(handle)
                counts[other] -= 1
                if len(cell_members[other]) == 1:
                    queue.append(other)
        if len(peeled) != len(self._values):
            return None
        return stack

    def _assign(self, order: List[Tuple[int, Cell]], width: int) -> None:
        """Assign cells in reverse peel order so every equation holds."""
        self._table = ValueTable(width, self._value_bits, self.num_arrays)
        for handle, own_cell in reversed(order):
            cells = self._cells_for(handle)
            others = [c for c in cells if c != own_cell]
            self._table.set(own_cell, self._values[handle] ^ self._table.xor_sum(others))

    # ------------------------------------------------------------------
    # Introspection used by tests
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Assert every live key's equation holds."""
        for handle, value in self._values.items():
            actual = self._table.xor_sum(self._cells_for(handle))
            assert actual == value, (
                f"equation broken for key {handle}: table says {actual}, "
                f"recorded value is {value}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Bloomier(n={len(self)}, m={self.num_cells}, L={self._value_bits})"
        )
