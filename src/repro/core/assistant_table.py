"""The slow-space Assistant Table (§III).

For every value-table cell ``A_j[t]`` it records the set ``S_j[t]`` of keys
hashed there and the counter ``C_j[t] = |S_j[t]|``; it also keeps the full
key → value mapping and each key's cells, so updates never rehash.
Lookups never touch this structure — it exists purely to support dynamic
updates, deletion, and reconstruction.

Storage is columnar, one row per registered pair in registration order:
``uint64`` keys and values, an ``(num_arrays, rows)`` matrix of flat cell
ids ``j·width + t``, and an alive mask. Batches register in a few numpy
passes (:meth:`AssistantTable.add_batch_arrays`), and a rollback snapshot
is a copy of the live columns (:meth:`AssistantTable.snapshot`).

Beside the columns sits the index the §IV repair walk reads, built from
plain Python containers so a walk step costs dict and tuple operations,
never a numpy scalar access:

- a key → row dict;
- :attr:`AssistantTable.members`, one tuple of keys per flat cell — the
  bucket ``S_j[t]``, whose length is ``C_j[t]``;
- one tuple of flat cell ids per row (:meth:`AssistantTable.flats`).

Every container holds only ints (tuples of ints, an int → int dict), so
CPython's cycle collector stops tracking them: a table adds a handful of
GC-tracked objects however many keys it holds.

Removing a pair clears its alive bit. A full column compacts stably
before it grows — dead rows dropped, registration order kept — so under
insert/delete churn it holds at most ``max(2·live, live + batch)`` rows,
and :meth:`AssistantTable.pairs` stays in registration order (which
:meth:`~repro.core.embedder.VisionEmbedder.reconstruct` re-inserts in).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, NamedTuple, Tuple

import numpy as np
import numpy.typing as npt

Cell = Tuple[int, int]

#: Rows a fresh table reserves.
_MIN_ROWS = 16


class Columns(NamedTuple):
    """The live pairs as columns, in registration order (a copy)."""

    keys: npt.NDArray[np.uint64]
    values: npt.NDArray[np.uint64]
    #: ``(num_arrays, n)`` flat cell ids ``j·width + t``.
    flats: npt.NDArray[np.int64]


class AssistantTable:
    """Slow-space bookkeeping: per-cell key sets, counters, and KV pairs."""

    def __init__(self, width: int, num_arrays: int = 3) -> None:
        if width <= 0:
            raise ValueError("width must be positive")
        self.width = width
        self.num_arrays = num_arrays
        self._n_rows = 0
        self._keys = np.zeros(_MIN_ROWS, dtype=np.uint64)
        self._vals = np.zeros(_MIN_ROWS, dtype=np.uint64)
        self._flats = np.zeros((num_arrays, _MIN_ROWS), dtype=np.int64)
        self._alive = np.zeros(_MIN_ROWS, dtype=bool)
        self._row: Dict[int, int] = {}
        # One tuple of flat cell ids per row; () once the pair is removed.
        self._row_flats: List[Tuple[int, ...]] = []
        #: ``S_j[t]`` per flat cell ``j·width + t``, as a tuple of keys in
        #: registration order. Read-only for callers; the table replaces a
        #: bucket's tuple whenever the bucket changes.
        self.members: List[Tuple[int, ...]] = [()] * (num_arrays * width)

    def __len__(self) -> int:
        return len(self._row)

    def __contains__(self, key: int) -> bool:
        return key in self._row

    def contains_batch(
        self, handles: npt.NDArray[np.uint64]
    ) -> npt.NDArray[np.bool_]:
        """Vectorised membership over a ``uint64`` handle array."""
        row = self._row
        if not row:
            return np.zeros(handles.size, dtype=bool)
        return np.fromiter(
            (handle in row for handle in handles.tolist()),
            dtype=bool,
            count=handles.size,
        )

    # -- mutation --------------------------------------------------------

    def add(self, key: int, value: int, cells: Tuple[Cell, ...]) -> None:  # repro: hotpath
        """Record a new KV pair and register the key at each of its cells
        (one per array, in array order, as a hash family yields them)."""
        if key in self._row:
            raise KeyError(f"key {key!r} already recorded")
        if self._n_rows == self._keys.size:
            self._reserve(1)
        row = self._n_rows
        self._keys[row] = key
        self._vals[row] = value
        width = self.width
        members = self.members
        flats = tuple([j * width + t for j, t in cells])
        for j, flat in enumerate(flats):
            self._flats[j, row] = flat
            members[flat] += (key,)
        self._alive[row] = True
        self._n_rows = row + 1
        self._row[key] = row
        self._row_flats.append(flats)

    def add_batch_arrays(  # repro: hotpath
        self,
        handles: npt.NDArray[np.uint64],
        values: npt.NDArray[np.uint64],
        flat_mat: npt.NDArray[np.int64],
        validate: bool = True,
    ) -> None:
        """Bulk :meth:`add` from columnar arrays, in ``handles`` order.

        ``flat_mat`` is ``(num_arrays, n)`` of flat cell ids. With
        ``validate`` (the default) a duplicate — within the batch or
        against a live key — rejects the whole batch before anything is
        registered.
        """
        n = int(handles.size)
        if n == 0:
            return
        if validate:
            if np.unique(handles).size != n:
                raise KeyError("duplicate key within batch")
            hits = self.contains_batch(handles)
            if bool(hits.any()):
                offender = int(handles[int(np.argmax(hits))])
                raise KeyError(f"key {offender!r} already recorded")
        self._reserve(n)
        start = self._n_rows
        stop = start + n
        self._keys[start:stop] = handles
        self._vals[start:stop] = values
        self._flats[:, start:stop] = flat_mat
        self._alive[start:stop] = True
        self._n_rows = stop
        key_list = handles.tolist()
        self._row.update(zip(key_list, range(start, stop)))
        flat_rows = flat_mat.tolist()
        self._row_flats.extend(zip(*flat_rows))
        members = self.members
        for flat_row in flat_rows:
            for key, flat in zip(key_list, flat_row):
                members[flat] += (key,)

    def remove(self, key: int) -> None:  # repro: hotpath
        """Forget a KV pair; its cells' counters drop by one (§IV-C Delete)."""
        row = self._row.pop(key)
        self._alive[row] = False
        members = self.members
        for flat in self._row_flats[row]:
            bucket = members[flat]
            if len(bucket) == 1:
                members[flat] = ()
            else:
                i = bucket.index(key)
                members[flat] = bucket[:i] + bucket[i + 1:]
        self._row_flats[row] = ()

    def set_value(self, key: int, value: int) -> None:
        """Record the new value for an existing key (cells are unchanged)."""
        row = self._row.get(key)
        if row is None:
            raise KeyError(f"key {key!r} not recorded")
        self._vals[row] = value

    def clear(self) -> None:
        """Drop every pair (used by reconstruction before re-inserting)."""
        self._n_rows = 0
        self._row.clear()
        self._row_flats.clear()
        self.members[:] = [()] * len(self.members)

    def _reserve(self, extra: int) -> None:
        """Room for ``extra`` appended rows.

        A full column is rebuilt holding only the live rows, in order, with
        room for ``max(2·live, live + extra)`` rows.
        """
        if self._n_rows + extra <= self._keys.size:
            return
        live = len(self._row)
        rows = np.flatnonzero(self._alive[: self._n_rows])
        capacity = max(_MIN_ROWS, 2 * live, live + extra)
        keys = np.zeros(capacity, dtype=np.uint64)
        vals = np.zeros(capacity, dtype=np.uint64)
        flats = np.zeros((self.num_arrays, capacity), dtype=np.int64)
        alive = np.zeros(capacity, dtype=bool)
        keys[:live] = self._keys[rows]
        vals[:live] = self._vals[rows]
        flats[:, :live] = self._flats[:, rows]
        alive[:live] = True
        if live != self._n_rows:
            row_flats = self._row_flats
            self._row_flats = [row_flats[row] for row in rows.tolist()]
            self._row.update(zip(keys[:live].tolist(), range(live)))
        self._keys, self._vals, self._flats, self._alive = (
            keys, vals, flats, alive
        )
        self._n_rows = live

    # -- queries ---------------------------------------------------------

    def value(self, key: int) -> int:
        """The stored value for ``key``."""
        value: int = self._vals.item(self._row[key])
        return value

    def cells(self, key: int) -> Tuple[Cell, ...]:
        """The key's value-table cells ``((0, t0), (1, t1), ...)``, as
        computed at insert time."""
        width = self.width
        return tuple([
            (j, flat - j * width)
            for j, flat in enumerate(self._row_flats[self._row[key]])
        ])

    def flats(self, key: int) -> Tuple[int, ...]:
        """The key's cells as flat ids ``j·width + t``, one per array."""
        return self._row_flats[self._row[key]]

    def keys_at(self, cell: Cell) -> Tuple[int, ...]:
        """S_j[t]: the keys hashed to ``cell`` (an immutable snapshot)."""
        j, t = cell
        return self.members[j * self.width + t]

    def count_at(self, cell: Cell) -> int:  # repro: hotpath
        """C_j[t]: the number of keys hashed to ``cell``."""
        j, t = cell
        return len(self.members[j * self.width + t])

    def pairs(self) -> Iterator[Tuple[int, int]]:
        """All live (key, value) pairs, in registration order."""
        rows = np.flatnonzero(self._alive[: self._n_rows])
        return zip(self._keys[rows].tolist(), self._vals[rows].tolist())

    # -- rollback --------------------------------------------------------

    def snapshot(self) -> Columns:
        """A copy of the live columns, for :meth:`restore` or persistence."""
        rows = np.flatnonzero(self._alive[: self._n_rows])
        return Columns(
            self._keys[rows], self._vals[rows], self._flats[:, rows]
        )

    def restore(self, columns: Columns) -> None:
        """Rewind to a :meth:`snapshot`: clear, then re-register it."""
        self.clear()
        self.add_batch_arrays(
            columns.keys, columns.values, columns.flats, validate=False
        )

    # -- diagnostics -----------------------------------------------------

    def check_consistency(self) -> None:
        """Assert the structural invariants; raises AssertionError if broken.

        Used by tests: the columns, the key index and the per-row flat
        cells agree, every key appears in exactly the buckets its cells
        name, and bucket membership contains no ghosts.
        """
        rows = np.flatnonzero(self._alive[: self._n_rows]).tolist()
        assert len(rows) == len(self._row), "live count out of sync"
        width = self.width
        for row in rows:
            key = int(self._keys[row])
            assert self._row.get(key) == row, (
                f"key index resolves {key!r} to the wrong row"
            )
            flats = self._row_flats[row]
            assert list(flats) == self._flats[:, row].tolist(), (
                f"cells of key {key!r} disagree with its flat-cell column"
            )
            for flat in flats:
                assert key in self.members[flat], (
                    f"key {key!r} absent from its bucket "
                    f"{divmod(flat, width)}"
                )
        registered = 0
        for flat, bucket in enumerate(self.members):
            for key in bucket:
                assert key in self._row, (
                    f"ghost key {key!r} at {divmod(flat, width)}"
                )
            registered += len(bucket)
        assert registered == self.num_arrays * len(rows), (
            "some bucket holds a key its cells do not name"
        )
