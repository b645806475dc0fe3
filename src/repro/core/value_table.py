"""The fast-space Value Table: three arrays of L-bit integers.

This is the only structure a lookup touches (§III). Cells are addressed by
``(array, index)`` pairs; the table stores them in a single numpy matrix so
batch lookups vectorise. Space accounting is *analytic* — ``space_bits``
reports the bit count the hardware structure would occupy (3·w·L), which is
what the paper's space figures measure, not Python object overhead.

:func:`xor_lookup` and :func:`xor_lookup_batch` are the lookup itself
(hash → gather → XOR), written once for every table over any plane storage.
"""

from __future__ import annotations

from typing import Any, Iterable, Tuple

import numpy as np
import numpy.typing as npt

from repro.hashing import HashFamily

Cell = Tuple[int, int]


def xor_lookup(
    planes: Any, hashes: HashFamily, handle: int
) -> int:  # repro: hotpath
    """The paper's lookup (§III): XOR of the cells ``hashes`` selects for
    ``handle``, one per array of ``planes``."""
    result: int = planes.xor_sum(enumerate(hashes.indices(handle)))
    return result


def xor_lookup_batch(
    planes: Any, hashes: HashFamily, handles: npt.NDArray[np.uint64]
) -> npt.NDArray[np.uint64]:  # repro: hotpath
    """Vectorised :func:`xor_lookup` over a ``uint64`` handle array.

    One hashing pass per array, one ``(num_arrays, k)`` matrix of flat
    cell ids ``j·width + t``, and one ``planes.gather_xor`` — the only
    batched read plane storage provides.
    """
    handle_array = np.asarray(handles, dtype=np.uint64)
    flat_mat = np.stack(hashes.indices_batch(handle_array)).astype(np.int64)
    offsets = np.arange(len(flat_mat), dtype=np.int64) * planes.width
    flat_mat += offsets[:, None]
    result: npt.NDArray[np.uint64] = planes.gather_xor(flat_mat)
    return result


class ValueTable:
    """Three arrays, each ``width`` cells of ``value_bits``-bit integers."""

    def __init__(
        self, width: int, value_bits: int, num_arrays: int = 3
    ) -> None:
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
        self._cells: npt.NDArray[np.uint64] = np.zeros(
            (num_arrays, width), dtype=np.uint64
        )

    @property
    def num_cells(self) -> int:
        """Total number of cells m = num_arrays · width."""
        return self.num_arrays * self.width

    @property
    def space_bits(self) -> int:
        """Fast-space footprint in bits: one L-bit integer per cell."""
        return self.num_cells * self.value_bits

    def get(self, cell: Cell) -> int:  # repro: hotpath
        """Read the L-bit integer at ``cell = (array, index)``."""
        return int(self._cells[cell])

    def set(self, cell: Cell, value: int) -> None:
        """Overwrite the integer at ``cell`` with ``value``."""
        self._cells[cell] = value & self.value_mask

    def xor(self, cell: Cell, delta: int) -> None:  # repro: hotpath
        """XOR ``delta`` into the integer at ``cell``.

        This is the only mutation the concurrent update path uses: the
        paper's §IV-B protocol applies one fixed increment V_delta to every
        cell on the modification path.
        """
        self._cells[cell] ^= np.uint64(delta & self.value_mask)

    def xor_sum(self, cells: Iterable[Cell]) -> int:  # repro: hotpath
        """XOR of the integers at the given cells (the lookup primitive)."""
        result = 0
        for cell in cells:
            result ^= int(self._cells[cell])
        return result

    def gather_xor(
        self, flat_mat: npt.NDArray[np.int64]
    ) -> npt.NDArray[np.uint64]:  # repro: hotpath
        """Fused batch lookup: one gather + XOR-reduce over flat cell ids.

        ``flat_mat`` is ``(num_arrays, k)`` of flat ids ``j·width + t``
        (one row per array); the result is the per-column XOR — the lookup
        primitive with no per-key or per-array Python dispatch.
        """
        flat_view = self._cells.reshape(-1)
        gathered: npt.NDArray[np.uint64] = flat_view[flat_mat]
        return np.bitwise_xor.reduce(gathered, axis=0)

    def xor_batch(
        self,
        flat_cells: npt.NDArray[np.int64],
        deltas: npt.NDArray[np.uint64],
    ) -> None:  # repro: hotpath
        """Vectorised :meth:`xor`: XOR ``deltas[i]`` into flat cell
        ``flat_cells[i]``. Repeated cells accumulate (``np.bitwise_xor.at``),
        matching a sequential sequence of scalar XORs."""
        flat_view = self._cells.reshape(-1)
        np.bitwise_xor.at(
            flat_view,
            np.asarray(flat_cells, dtype=np.int64),
            np.asarray(deltas, dtype=np.uint64) & np.uint64(self.value_mask),
        )

    def clear(self) -> None:
        """Zero every cell (used by reconstruction)."""
        self._cells.fill(0)

    def to_dense(self) -> npt.NDArray[np.uint64]:
        """The cell matrix as (num_arrays, width) uint64 (persistence)."""
        return self._cells.copy()

    def load_dense(self, cells: npt.NDArray[Any]) -> None:
        """Restore from a dense cell matrix (persistence, bulk writes)."""
        if cells.shape != (self.num_arrays, self.width):
            raise ValueError("dense matrix shape mismatch")
        np.bitwise_and(
            np.asarray(cells, dtype=np.uint64),
            np.uint64(self.value_mask),
            out=self._cells,
        )

    def copy(self) -> "ValueTable":
        """An independent deep copy (used by tests and snapshots)."""
        clone = ValueTable(self.width, self.value_bits, self.num_arrays)
        clone._cells = self._cells.copy()
        return clone

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ValueTable):
            return NotImplemented
        return (
            self.width == other.width
            and self.value_bits == other.value_bits
            and self.num_arrays == other.num_arrays
            and bool(np.array_equal(self._cells, other._cells))
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ValueTable(width={self.width}, value_bits={self.value_bits}, "
            f"num_arrays={self.num_arrays})"
        )
