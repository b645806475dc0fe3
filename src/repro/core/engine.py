"""Execution engines: how ``insert_batch`` schedules its repair walks.

Every engine runs against the same slow space, the columnar
:class:`~repro.core.assistant_table.AssistantTable`; the engine decides
only the order and grouping of a batch's §IV walks.

The **scalar backend** repairs a batch key by key: each insert registers
one pair in the assistant and runs one §IV repair walk. That is the
paper's dynamic scheme verbatim, but at 100k-key batches the per-key
Python dispatch — not the walks themselves — dominates wall time.

The **vector backend** (``EmbedderConfig(backend="vector")``) keeps the
same interface and invariants while moving the common case onto numpy:

- **Multi-walk repair** extends the IBLT-style round-synchronous peel of
  :mod:`repro.core.static_build` (arXiv 1101.2245 gives the formulation)
  to the *dynamic* delta path: every batch key whose candidate cell is
  free of pre-existing constraints and batch-internal collisions is an
  independent §IV walk of length one, so whole rounds of them are retired
  per numpy step — candidate cells for the entire frontier at once,
  conflicts detected by cell-id collision inside ``np.unique``, and the
  reverse-round assignment applying every write in bulk. The peeled keys
  register in one columnar pass
  (:meth:`~repro.core.assistant_table.AssistantTable.add_batch_arrays`).
  Only the keys the peel cannot retire (cells pinned by live keys, or the
  batch's 2-core) fall back to the real scalar walker, one by one, with
  the full retry/reconstruct/:class:`SpaceExhausted` failure policy.
- :class:`ReferenceVectorEngine` is the executable specification: the
  identical schedule run with per-key Python loops. The parity property
  test asserts the vector engine produces a bit-equal table (and equal
  walk counters) — walk for walk — against this scalar reference.

Batch semantics under the vector backend: the *set* of pairs inserted,
every table invariant, and all single-key operations are identical to the
scalar backend; only the order in which the batch's repair walks run
differs (peel schedule instead of batch order), so the concrete cell
contents after a batch may differ between backends while both satisfy
every key's equation. A :class:`SpaceExhausted` abort keeps the peeled
subset plus the walked remainder prefix (the scalar backend keeps the
batch-order prefix).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Set, Tuple

import numpy as np
import numpy.typing as npt

from repro.core.errors import SpaceExhausted
from repro.core.static_build import assign_in_reverse_flat
from repro.core.value_table import flat_cells

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (annotations only)
    from repro.core.embedder import VisionEmbedder

Cell = Tuple[int, int]
Rounds = List[Tuple[npt.NDArray[np.int64], npt.NDArray[np.int64]]]


# ---------------------------------------------------------------------------
# Peel scheduling (the vectorised multi-walk)
# ---------------------------------------------------------------------------


def peel_rounds_masked(
    flat_mat: npt.NDArray[np.int64],
    num_cells: int,
    base_counts: npt.NDArray[np.int64],
    hooks: object = None,  # repro: arrays(int64, bool)
) -> Tuple[Rounds, npt.NDArray[np.bool_]]:  # repro: hotpath
    """Round-synchronous peel of a batch over a *live* table.

    Like :func:`repro.core.static_build._peel_rounds`, but cells already
    constrained by pre-existing keys (``base_counts > 0``) are never
    peelable — writing them would break a live equation — and a stalled
    peel is not an error: the return value is ``(rounds, peeled_mask)``
    where unpeeled keys fall back to the scalar walker.

    Each round advances every currently-retirable walk at once: the
    candidate cells of the whole frontier are the batch-degree-1 unblocked
    cells, ``np.unique`` over their XOR aggregates collapses the cell-id
    collisions (one key holding several free cells retires through its
    lowest flat id), and two scatter passes retire the round in bulk.
    """
    num_arrays, n = flat_mat.shape
    flat_all = flat_mat.ravel()
    degree = np.bincount(flat_all, minlength=num_cells).astype(np.int64)
    agg = np.zeros(num_cells, dtype=np.int64)
    np.bitwise_xor.at(
        agg, flat_all, np.tile(np.arange(n, dtype=np.int64), num_arrays)
    )
    unblocked = base_counts == 0

    rounds: Rounds = []
    peeled_mask = np.zeros(n, dtype=bool)
    candidates = np.nonzero((degree == 1) & unblocked)[0]
    while candidates.size:
        keys, first = np.unique(agg[candidates], return_index=True)
        own = candidates[first]
        rounds.append((keys, own))
        peeled_mask[keys] = True
        if hooks is not None:
            hooks.on_peel_round(len(rounds) - 1, int(keys.size))  # type: ignore[attr-defined]
        retired = flat_mat[:, keys].ravel()
        np.subtract.at(degree, retired, 1)
        np.bitwise_xor.at(agg, retired, np.tile(keys, num_arrays))
        candidates = np.nonzero((degree == 1) & unblocked)[0]
    return rounds, peeled_mask


# ---------------------------------------------------------------------------
# Engines
# ---------------------------------------------------------------------------


class ExecutionEngine:
    """Strategy object owning the batched write path of one embedder."""

    name = "abstract"

    def insert_batch(
        self,
        emb: "VisionEmbedder",
        handles: npt.NDArray[np.uint64],
        value_list: List[int],
    ) -> None:
        """Insert a pre-validated batch (embedder checked dups/ranges)."""
        raise NotImplementedError


def _scalar_insert_loop(
    emb: "VisionEmbedder",
    handles: npt.NDArray[np.uint64],
    value_list: List[int],
) -> None:  # repro: hotpath
    """The per-key batch loop: walk-for-walk identical to sequential
    :meth:`VisionEmbedder.insert` calls (the scalar backend's contract)."""
    assistant = emb._assistant

    def hash_rows(
        key_arr: npt.NDArray[np.uint64],
    ) -> List[Tuple[Cell, ...]]:
        # One vectorised hashing pass, pre-assembled into per-key cells
        # tuples ((0, t0), (1, t1), ...).
        return list(zip(*(
            [(j, t) for t in arr.tolist()]
            for j, arr in enumerate(emb._hashes.indices_batch(key_arr))
        )))

    handle_list = handles.tolist()
    cells_rows = hash_rows(handles)
    base = 0
    hashed_seed = emb._seed
    for i, handle in enumerate(handle_list):
        if emb._seed != hashed_seed:
            # A mid-batch reconstruction reseeded every hash function:
            # recompute the remaining keys' cells in one batched pass.
            cells_rows = hash_rows(handles[i:])
            base = i
            hashed_seed = emb._seed
        assistant.add(handle, value_list[i], cells_rows[i - base])
        try:
            emb._run_update(handle)
        except SpaceExhausted:
            assistant.remove(handle)
            raise


class ScalarEngine(ExecutionEngine):
    """The historical per-key write path (``backend="scalar"``)."""

    name = "scalar"

    def insert_batch(
        self,
        emb: "VisionEmbedder",
        handles: npt.NDArray[np.uint64],
        value_list: List[int],
    ) -> None:
        _scalar_insert_loop(emb, handles, value_list)


class VectorEngine(ExecutionEngine):
    """Round-synchronous multi-walk batch repair (``backend="vector"``)."""

    name = "vector"

    # -- lazy obs instruments -------------------------------------------

    def _instruments(
        self, emb: "VisionEmbedder"
    ) -> Tuple[object, object, object]:
        cached = getattr(self, "_cached_instruments", None)
        if cached is not None:
            return cached  # type: ignore[no-any-return]
        registry = emb._stats.registry
        instruments = (
            registry.counter(
                "repro_engine_peeled_total",
                help="Batch keys retired by the vectorised multi-walk peel",
            ),
            registry.counter(
                "repro_engine_fallback_walks_total",
                help="Batch keys repaired by the scalar walker fallback",
            ),
            registry.gauge(
                "repro_engine_frontier_peak",
                help="Largest multi-walk frontier retired in one peel round",
                unit="keys",
            ),
        )
        self._cached_instruments = instruments
        return instruments

    # -- batched write path ---------------------------------------------

    def insert_batch(
        self,
        emb: "VisionEmbedder",
        handles: npt.NDArray[np.uint64],
        value_list: List[int],
    ) -> None:  # repro: hotpath
        assistant = emb._assistant
        table = emb._table
        width = table.width
        num_arrays = emb.num_arrays
        n = int(handles.size)
        values = np.asarray(value_list, dtype=np.uint64)

        flat_mat = flat_cells(width, emb._hashes, handles)
        hashed_seed = emb._seed
        # Live occupancy of the batch's cells; no other cell is read.
        base_counts = np.zeros(table.num_cells, dtype=np.int64)
        base_counts[flat_mat] = assistant.counts(flat_mat)

        rounds, peeled_mask = peel_rounds_masked(
            flat_mat, table.num_cells, base_counts, emb._hooks,
        )
        peeled = int(peeled_mask.sum())
        peeled_counter, walk_counter, frontier_gauge = self._instruments(emb)
        if peeled:
            # Register and repair the whole peelable sub-batch in bulk:
            # every peeled key is an independent walk of exactly one cell
            # write, applied by the reverse-round assignment.
            assistant.add_batch_arrays(
                handles[peeled_mask],
                values[peeled_mask],
                np.ascontiguousarray(flat_mat[:, peeled_mask]),
                validate=False,
            )
            assign_in_reverse_flat(table, rounds, flat_mat, values)
            emb._updates_counter.value += peeled
            emb._repair_steps_counter.value += peeled
            peeled_counter.inc(peeled)  # type: ignore[attr-defined]
            frontier_gauge.set_max(  # type: ignore[attr-defined]
                max(int(keys.size) for keys, _ in rounds)
            )
        if peeled == n:
            return

        remainder = np.nonzero(~peeled_mask)[0]
        walk_counter.inc(int(remainder.size))  # type: ignore[attr-defined]
        for i in remainder.tolist():
            handle = int(handles[i])
            if emb._seed == hashed_seed:
                cells = tuple(
                    (j, int(flat_mat[j, i]) - j * width)
                    for j in range(num_arrays)
                )
            else:
                # A mid-remainder reconstruction reseeded the hashes.
                cells = emb._cells_for(handle)
            assistant.add(handle, int(values[i]), cells)
            try:
                emb._run_update(handle)
            except SpaceExhausted:
                assistant.remove(handle)
                raise


class ReferenceVectorEngine(ExecutionEngine):
    """Executable specification of :class:`VectorEngine.insert_batch`.

    The identical schedule — base-occupancy-masked round-synchronous peel,
    reverse-round assignment, scalar-walker remainder in batch order —
    executed with per-key Python loops and single-key assistant calls.
    The parity property test drives this and the vector engine over the
    same operation sequences and asserts bit-equal value tables and equal
    walk counters, walk for walk.
    """

    name = "reference-vector"

    def insert_batch(
        self,
        emb: "VisionEmbedder",
        handles: npt.NDArray[np.uint64],
        value_list: List[int],
    ) -> None:
        assistant = emb._assistant
        table = emb._table
        width = table.width
        num_arrays = emb.num_arrays
        handle_list = handles.tolist()
        n = len(handle_list)
        hashed_seed = emb._seed

        # Per-key cells from the same vectorised hashing pass the vector
        # engine uses (flat ids, scalar bookkeeping).
        index_arrays = emb._hashes.indices_batch(handles)
        flats_per_key: List[List[int]] = [
            [int(index_arrays[j][i]) + j * width for j in range(num_arrays)]
            for i in range(n)
        ]

        # Scalar round-synchronous peel: batch-internal degree per cell,
        # cells pinned by live keys never peelable.
        degree: Dict[int, int] = {}
        members: Dict[int, List[int]] = {}
        for i, flats in enumerate(flats_per_key):
            for flat in flats:
                degree[flat] = degree.get(flat, 0) + 1
                members.setdefault(flat, []).append(i)
        blocked = {
            flat
            for flat in degree
            if assistant.count_at((flat // width, flat % width)) > 0
        }
        remaining = set(range(n))
        own_cell: Dict[int, int] = {}
        reference_rounds: List[List[int]] = []
        while True:
            candidates = sorted(
                flat
                for flat, deg in degree.items()
                if deg == 1 and flat not in blocked
            )
            round_keys: List[int] = []
            seen: Set[int] = set()
            for flat in candidates:
                (key_index,) = (
                    i for i in members[flat] if i in remaining
                )
                if key_index in seen:
                    # The same walk surfaced through a second free cell —
                    # the np.unique collision case; first (lowest) cell
                    # wins, matching the vector engine.
                    continue
                seen.add(key_index)
                own_cell[key_index] = flat
                round_keys.append(key_index)
            if not round_keys:
                break
            reference_rounds.append(round_keys)
            if emb._hooks is not None:
                emb._hooks.on_peel_round(
                    len(reference_rounds) - 1, len(round_keys)
                )
            for key_index in round_keys:
                remaining.discard(key_index)
                for flat in flats_per_key[key_index]:
                    degree[flat] -= 1

        peeled = [i for rnd in reference_rounds for i in rnd]
        for i in sorted(peeled):
            cells = tuple(
                (j, flats_per_key[i][j] - j * width)
                for j in range(num_arrays)
            )
            assistant.add(int(handle_list[i]), value_list[i], cells)
        for round_keys in reversed(reference_rounds):
            for i in round_keys:
                own = own_cell[i]
                own_2d = (own // width, own % width)
                others = [
                    (j, flats_per_key[i][j] - j * width)
                    for j in range(num_arrays)
                    if flats_per_key[i][j] != own
                ]
                table.set(own_2d, value_list[i] ^ table.xor_sum(others))
        emb._updates_counter.value += len(peeled)
        emb._repair_steps_counter.value += len(peeled)

        for i in sorted(remaining):
            handle = int(handle_list[i])
            if emb._seed == hashed_seed:
                cells = tuple(
                    (j, flats_per_key[i][j] - j * width)
                    for j in range(num_arrays)
                )
            else:
                cells = emb._cells_for(handle)
            assistant.add(handle, value_list[i], cells)
            try:
                emb._run_update(handle)
            except SpaceExhausted:
                assistant.remove(handle)
                raise


_ENGINES = {
    "scalar": ScalarEngine,
    "vector": VectorEngine,
    "reference-vector": ReferenceVectorEngine,
}


def make_engine(name: str) -> ExecutionEngine:
    """Build an execution engine by config name."""
    try:
        engine_class = _ENGINES[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; known: {tuple(_ENGINES)}"
        ) from None
    return engine_class()
