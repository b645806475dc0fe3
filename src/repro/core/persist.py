"""Persistence: serialise a VisionEmbedder (or sharded table) to a file.

The format is a single ``numpy`` ``.npz`` archive holding the fast space
(cell matrix), the slow space (parallel key/value arrays — cells are
recomputed from the seed on load), and a small metadata vector. No pickle
is involved, so the files are safe to load from untrusted sources and
stable across Python versions.

A :class:`~repro.core.sharded.ShardedEmbedder` round-trips through
:func:`save_sharded`/:func:`load_sharded`: an outer ``.npz`` holds the
sharded geometry plus one embedded per-shard payload in exactly the
single-table format above, so every shard's fast space is restored
byte-for-byte (including any seed bumps its reconstructions made).

Corrupt inputs — truncated archives, missing ``.npz`` members, malformed
or short metadata vectors — surface as
:class:`~repro.core.errors.CorruptSnapshotError`, a ``ValueError``
subclass carrying the offending ``source`` and ``field`` so operators
can tell a bad upload from a version skew at a glance.
"""

from __future__ import annotations

import io
import os
import zipfile
from typing import Any, Dict, List, Union, cast

import numpy as np
import numpy.typing as npt

from repro.core.config import DepthPolicy, EmbedderConfig
from repro.core.embedder import VisionEmbedder
from repro.core.errors import CorruptSnapshotError
from repro.core.sharded import ShardedEmbedder
from repro.core.value_table import flat_cells

_FORMAT_VERSION = 1
_SHARDED_FORMAT_VERSION = 1

PathOrFile = Union[str, "os.PathLike[str]", io.IOBase]

#: what ``np.load`` raises on a truncated, non-zip, or half-written file.
_OPEN_FAILURES = (zipfile.BadZipFile, OSError, EOFError, ValueError)


def _source_label(source: PathOrFile) -> str:
    """A human-readable name for the thing being loaded."""
    if isinstance(source, (str, os.PathLike)):
        return os.fspath(source)
    name = getattr(source, "name", "")
    if isinstance(name, str) and name:
        return name
    return f"<{type(source).__name__}>"


def _open_archive(source: PathOrFile, label: str) -> Any:
    try:
        return np.load(cast(Any, source))
    except _OPEN_FAILURES as exc:
        raise CorruptSnapshotError(
            f"cannot read snapshot archive: {exc}", source=label
        ) from exc


def _member(archive: Any, name: str, label: str) -> npt.NDArray[Any]:
    """One named array out of the archive, or a typed corruption error.

    ``KeyError`` means the member is absent; the zip/OS errors mean the
    member's compressed stream itself is truncated or unreadable.
    """
    try:
        member = archive[name]
    except (KeyError, IndexError, *_OPEN_FAILURES) as exc:
        raise CorruptSnapshotError(
            "snapshot archive is missing or cannot decode a member",
            source=label, field=name,
        ) from exc
    return np.asarray(member)


def _meta_int(
    meta: npt.NDArray[Any], index: int, field: str, label: str
) -> int:
    try:
        return int(meta[index])
    except (IndexError, TypeError, ValueError) as exc:
        raise CorruptSnapshotError(
            f"metadata vector is too short or malformed at slot {index}",
            source=label, field=field,
        ) from exc


def _meta_float(
    meta: npt.NDArray[Any], index: int, field: str, label: str
) -> float:
    try:
        return float(meta[index])
    except (IndexError, TypeError, ValueError) as exc:
        raise CorruptSnapshotError(
            f"metadata vector is too short or malformed at slot {index}",
            source=label, field=field,
        ) from exc


def save_embedder(table: VisionEmbedder, target: PathOrFile) -> None:
    """Write ``table`` (fast + slow space) to ``target``.

    ``target`` may be a path or a writable binary file object.
    """
    live = table._assistant.snapshot()
    config = table.config
    meta = np.array(
        [
            _FORMAT_VERSION,
            table.capacity,
            table.value_bits,
            table.num_arrays,
            table.seed,
            config.max_repair_steps,
            config.max_search_attempts,
            config.max_reconstruct_attempts,
            1 if config.auto_reconstruct else 0,
            1 if config.strategy == "vision" else 0,
            1 if table.packed else 0,
        ],
        dtype=np.int64,
    )
    float_meta = np.array(
        [config.space_factor, config.reconstruct_efficiency_limit],
        dtype=np.float64,
    )
    dense = table._table.to_dense()
    np.savez(
        cast(Any, target),
        meta=meta,
        float_meta=float_meta,
        cells=dense,
        keys=live.keys,
        values=live.values,
    )


# repro: raises(CorruptSnapshotError, ValueError, TypeError)
def load_embedder(source: PathOrFile) -> VisionEmbedder:
    """Rebuild a VisionEmbedder written by :func:`save_embedder`.

    The fast space is restored byte-for-byte (no re-insertion, no repair
    walks); assistant-table cell sets are recomputed from the stored seed.
    Truncated or malformed inputs raise :class:`CorruptSnapshotError`.
    """
    label = _source_label(source)
    with _open_archive(source, label) as archive:
        meta = _member(archive, "meta", label)
        float_meta = _member(archive, "float_meta", label)
        cells = _member(archive, "cells", label)
        keys = _member(archive, "keys", label)
        values = _member(archive, "values", label)

    version = _meta_int(meta, 0, "meta.version", label)
    if version != _FORMAT_VERSION:
        raise CorruptSnapshotError(
            f"unsupported format version {version}",
            source=label, field="meta.version",
        )
    config = EmbedderConfig(
        space_factor=_meta_float(float_meta, 0, "float_meta.space_factor",
                                 label),
        strategy="vision" if _meta_int(meta, 9, "meta.strategy", label)
        else "simple",
        depth_policy=DepthPolicy(),
        max_repair_steps=_meta_int(meta, 5, "meta.max_repair_steps", label),
        max_search_attempts=_meta_int(meta, 6, "meta.max_search_attempts",
                                      label),
        reconstruct_efficiency_limit=_meta_float(
            float_meta, 1, "float_meta.reconstruct_efficiency_limit", label
        ),
        max_reconstruct_attempts=_meta_int(
            meta, 7, "meta.max_reconstruct_attempts", label
        ),
        auto_reconstruct=bool(_meta_int(meta, 8, "meta.auto_reconstruct",
                                        label)),
    )
    packed = bool(int(meta[10])) if len(meta) > 10 else False
    table = VisionEmbedder(
        capacity=_meta_int(meta, 1, "meta.capacity", label),
        value_bits=_meta_int(meta, 2, "meta.value_bits", label),
        config=config,
        seed=_meta_int(meta, 4, "meta.seed", label),
        num_arrays=_meta_int(meta, 3, "meta.num_arrays", label),
        packed=packed,
    )
    expected_shape = (table.num_arrays, table._table.width)
    if cells.shape != expected_shape:
        raise CorruptSnapshotError(
            "stored fast space does not match the reconstructed geometry "
            f"(got {cells.shape}, expected {expected_shape})",
            source=label, field="cells",
        )
    if keys.shape != values.shape:
        raise CorruptSnapshotError(
            "key and value arrays disagree in length "
            f"({keys.shape} vs {values.shape})",
            source=label, field="keys",
        )
    # The stored cells already satisfy every equation the assistant
    # re-derives below, so the verbatim restore cannot break the invariant.
    table._table.load_dense(cells.astype(np.uint64))  # repro: noqa[R101] -- persisted fast space restored verbatim
    # Recompute every key's cells in one vectorised pass and bulk-register.
    key_array = keys.astype(np.uint64)
    table._assistant.add_batch_arrays(
        key_array,
        values.astype(np.uint64),
        flat_cells(table._table.width, table._hashes, key_array),
    )
    return table


def save_sharded(table: ShardedEmbedder, target: PathOrFile) -> None:
    """Write a sharded table (router geometry + every shard) to ``target``.

    Each shard is serialised with :func:`save_embedder` into an embedded
    byte payload, so the per-shard format (and its guarantees) carry over
    unchanged; the outer metadata pins the shard count, master seed, and
    slack so the router reproduces the exact same partition on load.
    """
    meta = np.array(
        [
            _SHARDED_FORMAT_VERSION,
            table.num_shards,
            table.capacity,
            table.value_bits,
            table.num_arrays,
            1 if table.packed else 0,
            table.seed,
        ],
        dtype=np.int64,
    )
    float_meta = np.array([table.shard_slack], dtype=np.float64)
    payloads: Dict[str, npt.NDArray[np.uint8]] = {}
    for index, shard in enumerate(table.shards):
        buffer = io.BytesIO()
        save_embedder(shard, buffer)
        payloads[f"shard_{index}"] = np.frombuffer(
            buffer.getvalue(), dtype=np.uint8
        )
    np.savez(
        cast(Any, target),
        sharded_meta=meta,
        sharded_float_meta=float_meta,
        **payloads,
    )


# repro: raises(CorruptSnapshotError, ValueError, TypeError)
def load_sharded(source: PathOrFile) -> ShardedEmbedder:
    """Rebuild a :class:`ShardedEmbedder` written by :func:`save_sharded`.

    Every shard's fast space is restored byte-for-byte through
    :func:`load_embedder`; the shard router is rebuilt from the stored
    master seed, so each restored key routes to the shard it was saved in.
    Truncated or malformed inputs raise :class:`CorruptSnapshotError`.
    """
    label = _source_label(source)
    with _open_archive(source, label) as archive:
        meta = _member(archive, "sharded_meta", label)
        float_meta = _member(archive, "sharded_float_meta", label)
        version = _meta_int(meta, 0, "sharded_meta.version", label)
        if version != _SHARDED_FORMAT_VERSION:
            raise CorruptSnapshotError(
                f"unsupported sharded format version {version}",
                source=label, field="sharded_meta.version",
            )
        num_shards = _meta_int(meta, 1, "sharded_meta.num_shards", label)
        if num_shards <= 0:
            raise CorruptSnapshotError(
                f"shard count must be positive, got {num_shards}",
                source=label, field="sharded_meta.num_shards",
            )
        payloads: List[bytes] = []
        for index in range(num_shards):
            name = f"shard_{index}"
            payloads.append(_member(archive, name, label).tobytes())
    shards = [load_embedder(io.BytesIO(payload)) for payload in payloads]
    table = ShardedEmbedder(
        capacity=_meta_int(meta, 2, "sharded_meta.capacity", label),
        value_bits=_meta_int(meta, 3, "sharded_meta.value_bits", label),
        num_shards=num_shards,
        config=shards[0].config,
        seed=_meta_int(meta, 6, "sharded_meta.seed", label),
        shard_slack=_meta_float(float_meta, 0,
                                "sharded_float_meta.shard_slack", label),
        num_arrays=_meta_int(meta, 4, "sharded_meta.num_arrays", label),
        packed=bool(_meta_int(meta, 5, "sharded_meta.packed", label)),
    )
    table._shards = shards
    return table
