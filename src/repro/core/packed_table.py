"""Bit-packed value table: the title's "bit-level-compact" storage, for real.

:class:`~repro.core.value_table.ValueTable` stores each L-bit cell in a
64-bit word for speed; its *space accounting* is bit-level but its memory
is not. :class:`PackedValueTable` is a drop-in alternative that packs the
cells end-to-end into a word array, so a table of m cells of L bits
actually occupies ⌈m·L/64⌉ machine words — e.g. 1-bit values consume 64×
less RAM. This is what an SRAM/BRAM deployment stores, and it lets the
Python library hold paper-scale tables (4M 1-bit pairs ≈ 0.85 MB).

Cells may straddle a word boundary; reads assemble from at most two words,
writes read-modify-write the same. The batch-lookup path is fully
vectorised, including the straddle handling.
"""

from __future__ import annotations

from typing import Iterable, Tuple

import numpy as np

Cell = Tuple[int, int]

_WORD_BITS = 64


class PackedValueTable:
    """Three arrays of L-bit integers, bit-packed into 64-bit words."""

    def __init__(self, width: int, value_bits: int, num_arrays: int = 3):
        if width <= 0:
            raise ValueError("width must be positive")
        if not 1 <= value_bits <= 64:
            raise ValueError("value_bits must be in [1, 64]")
        if num_arrays < 2:
            raise ValueError("need at least two arrays")
        self.width = width
        self.value_bits = value_bits
        self.num_arrays = num_arrays
        self.value_mask = (1 << value_bits) - 1
        total_bits = self.num_cells * value_bits
        # +1 pad word lets the straddle path read word w+1 unconditionally.
        num_words = (total_bits + _WORD_BITS - 1) // _WORD_BITS + 1
        self._words = np.zeros(num_words, dtype=np.uint64)

    # -- geometry ---------------------------------------------------------

    @property
    def num_cells(self) -> int:
        """Total number of cells m = num_arrays · width."""
        return self.num_arrays * self.width

    @property
    def space_bits(self) -> int:
        """Fast-space footprint in bits: one L-bit integer per cell."""
        return self.num_cells * self.value_bits

    @property
    def backing_bytes(self) -> int:
        """Actual RAM held by the packed backing store."""
        return self._words.nbytes

    def _flat(self, cell: Cell) -> int:
        j, t = cell
        return j * self.width + t

    # -- scalar access ------------------------------------------------------

    def get(self, cell: Cell) -> int:  # repro: hotpath
        """Read the L-bit integer at ``cell = (array, index)``."""
        bit = self._flat(cell) * self.value_bits
        word, offset = divmod(bit, _WORD_BITS)
        value = int(self._words[word]) >> offset
        spill = offset + self.value_bits - _WORD_BITS
        if spill > 0:
            value |= int(self._words[word + 1]) << (self.value_bits - spill)
        return value & self.value_mask

    def set(self, cell: Cell, value: int) -> None:
        """Overwrite the integer at ``cell`` with ``value``."""
        self.xor(cell, (self.get(cell) ^ value) & self.value_mask)

    def xor(self, cell: Cell, delta: int) -> None:  # repro: hotpath
        """XOR ``delta`` into the integer at ``cell``.

        XOR never carries across bits, so a straddling write is two
        independent word XORs — no read-modify-write of neighbours.
        """
        delta &= self.value_mask
        bit = self._flat(cell) * self.value_bits
        word, offset = divmod(bit, _WORD_BITS)
        self._words[word] ^= np.uint64((delta << offset) & 0xFFFFFFFFFFFFFFFF)
        spill = offset + self.value_bits - _WORD_BITS
        if spill > 0:
            self._words[word + 1] ^= np.uint64(delta >> (self.value_bits - spill))

    def xor_sum(self, cells: Iterable[Cell]) -> int:  # repro: hotpath
        """XOR of the integers at the given cells (the lookup primitive)."""
        result = 0
        for cell in cells:
            result ^= self.get(cell)
        return result

    # -- batch access -------------------------------------------------------

    def _gather(self, flat: np.ndarray) -> np.ndarray:
        """Vectorised read of the cells at flat indices ``flat``."""
        bits = flat.astype(np.uint64) * np.uint64(self.value_bits)
        words = (bits >> np.uint64(6)).astype(np.int64)
        offsets = bits & np.uint64(63)
        low = self._words[words] >> offsets
        # Bits available in the first word; straddlers take the rest from
        # the next word. Shift counts stay in [0, 63] to avoid UB.
        take = np.uint64(_WORD_BITS) - offsets
        need_spill = take < np.uint64(self.value_bits)
        shift = take & np.uint64(63)
        high = np.where(
            need_spill, self._words[words + 1] << shift, np.uint64(0)
        )
        return (low | high) & np.uint64(self.value_mask)

    def gather_xor(self, flat_mat: np.ndarray) -> np.ndarray:  # repro: hotpath
        """Fused batch lookup over a ``(num_arrays, k)`` flat-id matrix.

        :meth:`_gather` is shape-agnostic, so one call unpacks every cell
        and a single XOR-reduce collapses the array axis.
        """
        return np.bitwise_xor.reduce(
            self._gather(np.asarray(flat_mat).astype(np.uint64)), axis=0
        )

    def xor_batch(
        self, flat_cells: np.ndarray, deltas: np.ndarray
    ) -> None:  # repro: hotpath
        """Vectorised :meth:`xor` at flat cell ids.

        XOR never carries across bits, so each write is one low-word XOR
        plus, for cells straddling a word boundary, one spill-word XOR.
        ``np.bitwise_xor.at`` accumulates same-word collisions exactly like
        sequential scalar XORs would.
        """
        deltas = np.asarray(deltas, dtype=np.uint64) & np.uint64(self.value_mask)
        bits = np.asarray(flat_cells).astype(np.uint64) * np.uint64(
            self.value_bits
        )
        words = (bits >> np.uint64(6)).astype(np.int64)
        offsets = bits & np.uint64(63)
        np.bitwise_xor.at(self._words, words, deltas << offsets)
        spill = offsets + np.uint64(self.value_bits) > np.uint64(_WORD_BITS)
        if bool(spill.any()):
            # Straddlers have offset >= 1 (value_bits <= 64), so the right
            # shift count stays within [1, 63].
            shift = np.uint64(_WORD_BITS) - offsets[spill]
            np.bitwise_xor.at(
                self._words, words[spill] + 1, deltas[spill] >> shift
            )

    # -- lifecycle ----------------------------------------------------------

    def clear(self) -> None:
        """Zero every cell (used by reconstruction)."""
        self._words.fill(0)

    def copy(self) -> "PackedValueTable":
        """An independent deep copy."""
        clone = PackedValueTable(self.width, self.value_bits, self.num_arrays)
        clone._words = self._words.copy()
        return clone

    def to_dense(self) -> np.ndarray:
        """The cell matrix as (num_arrays, width) uint64 (persistence)."""
        flat = np.arange(self.num_cells, dtype=np.uint64)
        return self._gather(flat).reshape(self.num_arrays, self.width)

    def load_dense(self, cells: np.ndarray) -> None:
        """Restore from a dense cell matrix (persistence, bulk writes).

        The backing words start zeroed, so one vectorised
        :meth:`xor_batch` over every flat cell id *is* the packing — the
        same word arithmetic as the batched read path, run in reverse.
        """
        if cells.shape != (self.num_arrays, self.width):
            raise ValueError("dense matrix shape mismatch")
        self.clear()
        self.xor_batch(
            np.arange(self.num_cells, dtype=np.int64),
            np.asarray(cells, dtype=np.uint64).reshape(-1),
        )

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PackedValueTable):
            return (
                self.width == other.width
                and self.value_bits == other.value_bits
                and self.num_arrays == other.num_arrays
                and bool(np.array_equal(self._words, other._words))
            )
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PackedValueTable(width={self.width}, "
            f"value_bits={self.value_bits}, num_arrays={self.num_arrays}, "
            f"backing_bytes={self.backing_bytes})"
        )
