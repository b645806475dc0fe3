"""The write engine: how multi-key writes schedule their repair walks.

:class:`ScalarEngine` repairs a batch key by key: each insert registers
one pair in the columnar
:class:`~repro.core.assistant_table.AssistantTable` and runs one §IV
repair walk, in batch order — walk for walk what sequential
:meth:`VisionEmbedder.insert` calls do, so a batch leaves a bit-equal
table. The batch only shares the work around the walks: the cells of
every key come from one vectorised hashing pass — the sharded front's,
when it hashed the whole request under every shard's seeds — recomputed
for the remaining keys if a mid-batch reconstruction reseeds the hashes.
Updates go the same way, one value change and one walk per key; deletes
only drop bucket entries.

Both run inside the embedder's open write journal, which every
registration and walk records its before-images into; the embedder
undoes the batch from it on failure.

Bulk builds and rebuilds do not come through here: ``bulk_load`` runs
the static peel of :mod:`repro.core.static_build` (§IV-C).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np
import numpy.typing as npt

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (annotations only)
    from repro.core.embedder import VisionEmbedder

Cell = Tuple[int, int]

#: A batch's ``(num_arrays, n)`` index rows with the master seed they were
#: hashed under: ``(seed, rows)``.
HashedRows = Tuple[int, npt.NDArray[np.int64]]


class ScalarEngine:
    """The per-key batch write path of one embedder."""

    def insert_batch(
        self,
        emb: "VisionEmbedder",
        handles: npt.NDArray[np.uint64],
        value_list: List[int],
        hashed: Optional[HashedRows] = None,
    ) -> None:  # repro: hotpath
        """Insert a pre-validated batch (the embedder checked duplicates
        and value ranges, and undoes the batch from its journal on any
        failure). ``hashed`` rows are used only while the table hashes with
        their seed."""
        assistant = emb._assistant

        def cells_of(
            rows: npt.NDArray[np.int64],
        ) -> List[Tuple[Cell, ...]]:
            # Index rows, pre-assembled into per-key cells tuples
            # ((0, t0), (1, t1), ...).
            return list(zip(*(
                [(j, t) for t in row.tolist()] for j, row in enumerate(rows)
            )))

        handle_list = handles.tolist()
        hashed_seed = emb._seed
        if hashed is not None and hashed[0] == hashed_seed:
            cells_rows = cells_of(hashed[1])
        else:
            cells_rows = cells_of(emb._hashes.indices_batch(handles))
        base = 0
        for i, handle in enumerate(handle_list):
            if emb._seed != hashed_seed:
                # A mid-batch reconstruction reseeded every hash function:
                # recompute the remaining keys' cells in one batched pass.
                cells_rows = cells_of(emb._hashes.indices_batch(handles[i:]))
                base = i
                hashed_seed = emb._seed
            assistant.add(
                handle, value_list[i], cells_rows[i - base], emb._journal
            )
            emb._run_update(handle)

    def update_batch(
        self,
        emb: "VisionEmbedder",
        handles: npt.NDArray[np.uint64],
        value_list: List[int],
    ) -> None:
        """Update a pre-validated batch of present keys, in batch order
        (walk for walk what sequential :meth:`VisionEmbedder.update`
        calls do)."""
        assistant = emb._assistant
        for handle, value in zip(handles.tolist(), value_list):
            assistant.set_value(handle, value, emb._journal)
            emb._run_update(handle)

    def delete_batch(
        self, emb: "VisionEmbedder", handles: npt.NDArray[np.uint64]
    ) -> None:
        """Remove a pre-validated batch of present keys (slow space only,
        like :meth:`VisionEmbedder.delete`)."""
        assistant = emb._assistant
        for handle in handles.tolist():
            assistant.remove(handle, emb._journal)
