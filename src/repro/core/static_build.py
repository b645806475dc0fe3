"""Static (peeling) construction of a value table (§II, §IV-C).

The paper notes that reconstruction "can either use the existing static
construction method of Bloomier or our dynamic update scheme to insert KV
pairs one by one". This module provides that static path for
VisionEmbedder's own geometry: a greedy peel (find a cell referenced by
exactly one remaining key, defer it, recurse) runs in O(n) and succeeds
with near-certainty at the default 1.7 cells/key — comfortably above the
three-segment peeling threshold (~1.23) — making it the fastest way to
bulk-load or rebuild a table. The result is indistinguishable from a
dynamically-built table: subsequent inserts/updates/deletes work as usual.

Two peeling engines coexist:

- The **flat-array engine** (:func:`peel_order_flat`,
  :func:`static_build_arrays`) keeps, per cell, only a degree counter and
  the XOR of the member key *indices* — the IBLT trick: when the degree
  hits one, the XOR aggregate *is* the one remaining member. Initialisation
  is two vectorised numpy scatter passes (``bincount`` + ``bitwise_xor.at``)
  and the peel itself runs in vectorised *rounds*: every degree-1 cell is
  peeled at once and the retired memberships are scattered out in bulk, so
  a 100k-key peel is ~25 numpy rounds rather than 100k python iterations —
  an order of magnitude faster than mutating a dict of sets.
- The **reference engine** (:func:`peel_order`, :func:`assign_in_reverse`,
  :func:`static_build_reference`) is the original dict-of-sets
  implementation, kept as the executable specification; a property test
  asserts both engines peel exactly the same instances and produce tables
  satisfying every equation.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.assistant_table import AssistantTable
from repro.core.errors import UpdateFailure
from repro.core.value_table import ValueTable

Cell = Tuple[int, int]


# ---------------------------------------------------------------------------
# Reference engine (dict-of-sets; executable specification)
# ---------------------------------------------------------------------------


def peel_order(
    key_cells: Dict[int, Tuple[Cell, ...]]
) -> Optional[List[Tuple[int, Cell]]]:
    """Greedy peel: an order in which each key owns a private cell.

    Returns ``[(key, its singleton cell), ...]`` in peel order, or None if
    the peel stalls (the 2-core is non-empty).
    """
    cell_members: Dict[Cell, Set[int]] = {}
    for key, cells in key_cells.items():
        for cell in cells:
            cell_members.setdefault(cell, set()).add(key)

    queue = [cell for cell, members in cell_members.items()
             if len(members) == 1]
    order: List[Tuple[int, Cell]] = []
    peeled: Set[int] = set()
    while queue:
        cell = queue.pop()
        members = cell_members.get(cell)
        if not members or len(members) != 1:
            continue
        (key,) = members
        peeled.add(key)
        order.append((key, cell))
        for other in key_cells[key]:
            cell_members[other].discard(key)
            if len(cell_members[other]) == 1:
                queue.append(other)
    if len(peeled) != len(key_cells):
        return None
    return order


def assign_in_reverse(
    table: ValueTable,
    order: List[Tuple[int, Cell]],
    key_cells: Dict[int, Tuple[Cell, ...]],
    values: Dict[int, int],
) -> None:
    """Write cells in reverse peel order so every equation holds.

    Processing keys last-peeled-first, each key's private cell is still
    unconstrained when reached, so it absorbs whatever XOR correction the
    key's equation needs.
    """
    for key, own_cell in reversed(order):
        others = [c for c in key_cells[key] if c != own_cell]
        table.set(own_cell, values[key] ^ table.xor_sum(others))


def static_build_reference(
    table: ValueTable,
    assistant: AssistantTable,
    pairs: Iterable[Tuple[int, Tuple[Cell, ...], int]],
) -> None:
    """The original scalar build: dict-of-sets peel + per-key registration."""
    key_cells: Dict[int, Tuple[Cell, ...]] = {}
    values: Dict[int, int] = {}
    for key, cells, value in pairs:
        key_cells[key] = cells
        values[key] = value

    order = peel_order(key_cells)
    if order is None:
        raise UpdateFailure("static peel stalled (non-empty 2-core)")
    assign_in_reverse(table, order, key_cells, values)
    for key, cells in key_cells.items():
        assistant.add(key, values[key], cells)


# ---------------------------------------------------------------------------
# Flat-array engine (numpy init + list peel)
# ---------------------------------------------------------------------------


def _flat_matrix(
    index_cols: Sequence[Sequence[int]], width: int
) -> np.ndarray:
    """``(num_arrays, n)`` matrix of flat cell ids ``j·width + t``."""
    return np.stack([
        np.asarray(col, dtype=np.int64) + j * width
        for j, col in enumerate(index_cols)
    ])


def _peel_rounds(  # repro: hotpath
    flat_mat: np.ndarray, width: int, hooks=None
) -> Optional[List[Tuple[np.ndarray, np.ndarray]]]:
    """Round-synchronous vectorised peel.

    Each round peels *every* currently-degree-1 cell at once: the XOR
    aggregate of such a cell **is** its single member (the IBLT trick), so
    one gather yields the round's keys and two ``ufunc.at`` scatters retire
    their memberships. Returns ``[(keys, own_cells), ...]`` per round, or
    None on a stall (non-empty 2-core). Safe for any-order assignment
    within a round: a peeled key's own cell contains only that key, so no
    other key — same round or later — reads or writes it.

    ``hooks`` (``repro.obs.hooks.WalkHooks``-shaped) receives
    ``on_peel_round(round_index, peeled)`` per round — the peel-round /
    degree progression IBLT-style structures are tuned by.
    """
    num_arrays, n = flat_mat.shape
    m = num_arrays * width
    flat_all = flat_mat.ravel()
    degree = np.bincount(flat_all, minlength=m)
    agg = np.zeros(m, dtype=np.int64)
    np.bitwise_xor.at(agg, flat_all, np.tile(np.arange(n, dtype=np.int64),
                                             num_arrays))

    rounds: List[Tuple[np.ndarray, np.ndarray]] = []
    peeled = 0
    candidates = np.nonzero(degree == 1)[0]
    while candidates.size:
        keys, first = np.unique(agg[candidates], return_index=True)
        own = candidates[first]
        rounds.append((keys, own))
        peeled += keys.size
        if hooks is not None:
            hooks.on_peel_round(len(rounds) - 1, int(keys.size))
        retired = flat_mat[:, keys].ravel()
        np.subtract.at(degree, retired, 1)
        np.bitwise_xor.at(agg, retired, np.tile(keys, num_arrays))
        candidates = np.nonzero(degree == 1)[0]
    if peeled != n:
        return None
    return rounds


def peel_order_flat(
    index_cols: Sequence[Sequence[int]],
    width: int,
) -> Optional[List[Tuple[int, int]]]:
    """Greedy peel over flat arrays: IBLT-style degree + XOR aggregation.

    ``index_cols[j][i]`` is key ``i``'s index into array ``j``; a cell is
    addressed by its flat id ``j·width + t``. Returns
    ``[(key_index, flat_cell), ...]`` in a valid peel order (concatenated
    peel rounds), or None on a stall.
    """
    num_arrays = len(index_cols)
    n = len(index_cols[0]) if num_arrays else 0
    if n == 0:
        return []
    rounds = _peel_rounds(_flat_matrix(index_cols, width), width)
    if rounds is None:
        return None
    return [
        (int(key), int(cell))
        for keys, cells in rounds
        for key, cell in zip(keys.tolist(), cells.tolist())
    ]


def assign_in_reverse_flat(  # repro: hotpath
    table: ValueTable,
    rounds: List[Tuple[np.ndarray, np.ndarray]],
    flat_mat: np.ndarray,
    values: Sequence[int],
) -> None:
    """Vectorised reverse-round assignment, written back in bulk.

    Rounds are processed last-peeled-first; within a round every key's own
    cell is private (see :func:`_peel_rounds`), so the whole round resolves
    with numpy gathers and one scatter. Each own cell appears exactly once
    among its key's cells, so XORing the full row and the own cell's
    current (still unconstrained) value leaves exactly the other cells'
    contribution.
    """
    num_arrays = table.num_arrays
    cells = table.to_dense().reshape(-1)
    value_arr = np.asarray(values, dtype=np.uint64)
    for keys, own in reversed(rounds):
        acc = value_arr[keys] ^ cells[own]
        for j in range(num_arrays):
            acc ^= cells[flat_mat[j, keys]]
        cells[own] = acc
    table.load_dense(cells.reshape(num_arrays, table.width))


def static_build_arrays(
    table: ValueTable,
    assistant: AssistantTable,
    keys: Sequence[int],
    values: Sequence[int],
    index_cols: Sequence[Sequence[int]],
    hooks=None,
) -> None:
    """Vectorised static build from pre-hashed column arrays.

    ``keys``/``values`` are the handles and values; ``index_cols[j][i]`` is
    key ``i``'s index into array ``j`` (one vectorised
    ``HashFamily.indices_batch`` call produces exactly this shape). The
    keys must be distinct and new to ``assistant`` — the callers (a bulk
    load, a reconstruction) have checked them — and the pairs register
    in one columnar pass, in ``keys`` order, unchecked. Raises
    :class:`UpdateFailure` if the peel stalls, leaving both structures
    untouched. ``hooks`` receives per-round ``on_peel_round`` events.
    """
    if len(index_cols) != table.num_arrays:
        raise ValueError("need one index column per array")
    if len(keys) == 0:
        return
    flat_mat = _flat_matrix(index_cols, table.width)
    rounds = _peel_rounds(flat_mat, table.width, hooks)
    if rounds is None:
        raise UpdateFailure("static peel stalled (non-empty 2-core)")
    value_arr = np.asarray(values, dtype=np.uint64)
    assign_in_reverse_flat(table, rounds, flat_mat, value_arr)
    assistant.add_batch_arrays(
        np.asarray(keys, dtype=np.uint64), value_arr, flat_mat,
        validate=False,
    )
