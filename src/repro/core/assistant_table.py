"""The slow-space Assistant Table (§III).

For every value-table cell ``A_j[t]`` it records the set ``S_j[t]`` of keys
hashed there and the counter ``C_j[t] = |S_j[t]|``; it also keeps the full
key → value mapping and each key's cells, so updates never rehash.
Lookups never touch this structure — it exists purely to support dynamic
updates, deletion, and reconstruction.

Storage is columnar, one row per registered pair in registration order:
``uint64`` keys and values, an ``(num_arrays, rows)`` matrix of flat cell
ids ``j·width + t``, and an alive mask. Batches register in a few numpy
passes (:meth:`AssistantTable.add_batch_arrays`), and a whole-table
snapshot is a copy of the live columns (:meth:`AssistantTable.snapshot`).

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

Each single mutation leaves the pre- or the post-operation state: an
interrupted :meth:`~AssistantTable.add` or :meth:`~AssistantTable.remove`
takes back what it had done before re-raising. A multi-key write passes
a :class:`Journal`: ``add``, ``remove`` and ``set_value`` record their
first before-images there, and :meth:`AssistantTable.undo` writes the
whole write's slow-space part back in O(batch).
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, NamedTuple, Optional, Tuple

import numpy as np
import numpy.typing as npt

from repro.hashing import has_duplicates

Cell = Tuple[int, int]

#: Rows a fresh table reserves.
_MIN_ROWS = 16


class Columns(NamedTuple):
    """The live pairs as columns, in registration order (a copy)."""

    keys: npt.NDArray[np.uint64]
    values: npt.NDArray[np.uint64]
    #: ``(num_arrays, n)`` flat cell ids ``j·width + t``.
    flats: npt.NDArray[np.int64]


class Journal:
    """Before-images of one multi-key write, for an O(batch) undo.

    Every plane write is §IV-B's deferred update, one ``V_delta`` XORed
    along a path, so a write is undone by writing back the old values it
    overwrote — each item's *first* old value, recorded before the item
    changes. Writing an old value back is idempotent, so a fault between
    the record and the write still undoes exactly.

    The slow space records its part (bucket tuples, appended keys,
    removed rows, stored values) and :meth:`AssistantTable.undo` writes
    it back; ``UpdatePlan.apply`` records plane cells into :attr:`cells`.
    A reconstruction mid-write rebuilds the whole table, so it cannot be
    undone item by item: it takes an O(table) snapshot, which becomes the
    journal's :attr:`base` (see ``VisionEmbedder._rollback``).
    """

    __slots__ = ("rows", "cells", "buckets", "added", "removed", "values",
                 "base")

    def __init__(self, rows: int) -> None:
        #: Rows the table held when the journal opened (appends go after).
        self.rows = rows
        #: ``(array, index)`` cell -> its old value.
        self.cells: Dict[Tuple[int, int], int] = {}
        #: Flat cell id -> its old bucket tuple.
        self.buckets: Dict[int, Tuple[int, ...]] = {}
        #: Keys appended, in order.
        self.added: List[int] = []
        #: ``(key, row, flats)`` of every removed pair.
        self.removed: List[Tuple[int, int, Tuple[int, ...]]] = []
        #: Key -> its old stored value.
        self.values: Dict[int, int] = {}
        #: ``(snapshot, cells, added, values)`` once a rebuild ran: the
        #: table before it, and what the write had recorded until then.
        self.base: Optional[Tuple[Any, Dict[Tuple[int, int], int],
                                  List[int], Dict[int, int]]] = None


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

    def add(  # repro: hotpath
        self,
        key: int,
        value: int,
        cells: Tuple[Cell, ...],
        journal: Optional[Journal] = None,
    ) -> None:
        """Record a new KV pair and register the key at each of its cells
        (one per array, in array order, as a hash family yields them)."""
        if key in self._row:
            raise KeyError(f"key {key!r} already recorded")
        if self._n_rows == self._keys.size:
            self._reserve(1)
        row = self._n_rows
        width = self.width
        members = self.members
        flats = tuple([j * width + t for j, t in cells])
        if journal is not None:
            for flat in flats:
                journal.buckets.setdefault(flat, members[flat])
            journal.added.append(key)
        try:
            self._keys[row] = key
            self._vals[row] = value
            for j, flat in enumerate(flats):
                self._flats[j, row] = flat
                members[flat] += (key,)
            self._alive[row] = True
            self._row_flats.append(flats)
            self._row[key] = row
            self._n_rows = row + 1
        except BaseException:
            # Interrupted: the key went to the end of some buckets (it is
            # the newest row) and maybe into the row index; take it out.
            for flat in flats:
                bucket = members[flat]
                if bucket and bucket[-1] == key:
                    members[flat] = bucket[:-1]
            del self._row_flats[row:]
            self._row.pop(key, None)
            self._n_rows = row
            raise

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
            if has_duplicates(handles):
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

    def remove(  # repro: hotpath
        self, key: int, journal: Optional[Journal] = None
    ) -> None:
        """Forget a KV pair; its cells' counters drop by one (§IV-C Delete)."""
        row = self._row[key]
        flats = self._row_flats[row]
        members = self.members
        if journal is not None:
            for flat in flats:
                journal.buckets.setdefault(flat, members[flat])
            journal.removed.append((key, row, flats))
        try:
            for flat in flats:
                bucket = members[flat]
                if len(bucket) == 1:
                    members[flat] = ()
                else:
                    i = bucket.index(key)
                    members[flat] = bucket[:i] + bucket[i + 1:]
            self._alive[row] = False
            self._row_flats[row] = ()
            del self._row[key]
        except BaseException:
            self._put_back(key, row, flats)
            raise

    def _put_back(self, key: int, row: int, flats: Tuple[int, ...]) -> None:
        """Re-register a pair an interrupted :meth:`remove` had begun to
        take out. A bucket lists its keys in row order, so the key goes
        back where it was: after the keys of lower rows."""
        members = self.members
        row_of = self._row
        for flat in flats:
            bucket = members[flat]
            if key not in bucket:
                at = sum(1 for other in bucket if row_of[other] < row)
                members[flat] = bucket[:at] + (key,) + bucket[at:]
        self._alive[row] = True
        self._row_flats[row] = flats
        row_of[key] = row

    def set_value(
        self, key: int, value: int, journal: Optional[Journal] = None
    ) -> None:
        """Record the new value for an existing key (cells are unchanged)."""
        row = self._row.get(key)
        if row is None:
            raise KeyError(f"key {key!r} not recorded")
        if journal is not None:
            journal.values.setdefault(key, self._vals.item(row))
        self._vals[row] = value

    def undo(self, journal: Journal) -> None:
        """Write ``journal``'s slow-space before-images back: old bucket
        tuples, removed rows re-registered, appended rows dropped, old
        values. Idempotent, and O(what the journal recorded)."""
        members = self.members
        for flat, bucket in journal.buckets.items():
            members[flat] = bucket
        for key, row, flats in journal.removed:
            self._row[key] = row
            self._alive[row] = True
            self._row_flats[row] = flats
        for key in journal.added:
            self._row.pop(key, None)
        rows = journal.rows
        if self._n_rows > rows:
            self._alive[rows:self._n_rows] = False
        del self._row_flats[rows:]
        self._n_rows = rows
        for key, value in journal.values.items():
            self._vals[self._row[key]] = value

    def clear(self) -> None:
        """Drop every pair (used by reconstruction before re-inserting)."""
        self._n_rows = 0
        self._row.clear()
        self._row_flats.clear()
        self.members[:] = [()] * len(self.members)

    def _reserve(self, extra: int) -> None:
        """Room for ``extra`` appended rows.

        A full column is rebuilt holding only the live rows, in order, with
        room for ``max(2·live, live + extra)`` rows. The new columns and
        index are built aside and swapped in by one statement, so an
        interruption leaves the table as it was.
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
        row_index, row_flats = self._row, self._row_flats
        if live != self._n_rows:
            row_flats = [row_flats[row] for row in rows.tolist()]
            row_index = dict(zip(keys[:live].tolist(), range(live)))
        (self._keys, self._vals, self._flats, self._alive, self._row,
         self._row_flats, self._n_rows) = (
            keys, vals, flats, alive, row_index, row_flats, live
        )

    def journal(self, extra: int) -> Journal:
        """A :class:`Journal` for a write appending up to ``extra`` rows.

        The room is reserved first, so no compaction renumbers rows while
        the journal is open and its undo can drop every row past
        :attr:`Journal.rows`.
        """
        self._reserve(extra)
        return Journal(self._n_rows)

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

    # -- whole-table snapshots -------------------------------------------

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
