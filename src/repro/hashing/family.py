"""Seeded index-hash families mapping arbitrary keys into table ranges.

Every value-only table in this repository selects cells by hashing a key
into ``[0, width)`` with a small number of independent hash functions.
:class:`IndexHasher` is one such function; :class:`HashFamily` bundles
several with seeds derived deterministically from a single master seed, so
that a table can be reconstructed ("change all hash functions") by bumping
one integer.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional, Sequence, Union

import numpy as np
import numpy.typing as npt

from repro.hashing.murmur3 import (
    murmur3_32,
    murmur3_32_u32,
    murmur3_32_u64,
    murmur3_32_u64_batch,
)

Key = Union[int, bytes, str]

# Multiplier decorrelating the per-function seeds derived from a master seed
# (an arbitrary odd 32-bit constant).
_SEED_STRIDE = 0x9E3779B1


def key_to_bytes(key: Key) -> bytes:
    """Canonicalise a key to bytes (int: minimal 8-byte-multiple LE)."""
    if isinstance(key, bytes):
        return key
    if isinstance(key, str):
        return key.encode("utf-8")
    if isinstance(key, (int, np.integer)):
        key = int(key)
        if key < 0:
            raise ValueError("integer keys must be non-negative")
        length = max(8, (key.bit_length() + 63) // 64 * 8)
        return key.to_bytes(length, "little")
    raise TypeError(f"unsupported key type: {type(key).__name__}")


def key_to_u64(key: Key) -> int:
    """Reduce a key to a 64-bit integer handle (hash non-int keys down)."""
    if isinstance(key, (int, np.integer)):
        key = int(key)
        if 0 <= key < 1 << 64:
            return key
        data = key_to_bytes(key)
    else:
        data = key_to_bytes(key)
    low = murmur3_32(data, 0x5BD1E995)
    high = murmur3_32(data, 0x27D4EB2F)
    return (high << 32) | low


def keys_to_u64_batch(keys: Any) -> npt.NDArray[np.uint64]:
    """Canonicalise a batch of keys to one ``uint64`` handle array.

    Numpy arrays of unsigned/non-negative integers pass through with a
    single (possibly zero-copy) cast, and a list of python ``int`` keys in
    ``[0, 2**64)`` converts in one C-level pass — each is its own handle.
    Anything else — strings, bytes, bools, floats, negative or wider ints,
    mixed sequences — goes key by key through :func:`key_to_u64`.
    """
    if isinstance(keys, list) and keys and set(map(type, keys)) == {int}:
        # Exact for every u64; a negative or wider int overflows, and the
        # per-key path rejects or hashes it.
        try:
            return np.array(keys, dtype=np.uint64)
        except OverflowError:
            pass
    if isinstance(keys, np.ndarray) and keys.dtype.kind in "ui":
        if keys.dtype.kind == "i" and keys.size and int(keys.min()) < 0:
            raise ValueError("integer keys must be non-negative")
        return keys.astype(np.uint64, copy=False)
    return np.fromiter(
        (key_to_u64(key) for key in keys), dtype=np.uint64
    )


def has_duplicates(handles: npt.NDArray[np.uint64]) -> bool:
    """Whether a handle array repeats a key: one sort and one adjacent
    compare (numpy 2.4's ``np.unique`` answers through a hash set, about
    70 times the cost at 500k keys)."""
    if handles.size < 2:
        return False
    ordered = np.sort(handles)
    return bool((ordered[1:] == ordered[:-1]).any())


def seed_table(
    master_seeds: Sequence[int], num_arrays: int
) -> npt.NDArray[np.uint32]:
    """The ``(num_arrays, len(master_seeds))`` per-function seeds of one
    :class:`HashFamily` per master seed: column ``s`` holds the seeds
    ``HashFamily(master_seeds[s], ...)`` hashes with."""
    return np.array(
        [
            [HashFamily._derive_seed(master, j) for master in master_seeds]
            for j in range(num_arrays)
        ],
        dtype=np.uint32,
    )


class IndexHasher:
    """One seeded hash function mapping keys into ``[0, width)``."""

    __slots__ = ("seed", "width")

    def __init__(self, seed: int, width: int):
        if width <= 0:
            raise ValueError("width must be positive")
        self.seed = seed & 0xFFFFFFFF
        self.width = width

    def index(self, key: Key) -> int:
        """Map ``key`` to an index in ``[0, width)``."""
        if isinstance(key, (int, np.integer)) and 0 <= int(key) < 1 << 64:
            return murmur3_32_u64(int(key), self.seed) % self.width
        return murmur3_32(key_to_bytes(key), self.seed) % self.width

    def index_batch(self, keys: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`index` over a ``uint64`` key array."""
        return murmur3_32_u64_batch(keys, self.seed) % np.uint64(self.width)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"IndexHasher(seed=0x{self.seed:08x}, width={self.width})"


class HashFamily:
    """A family of independent :class:`IndexHasher` functions.

    Parameters
    ----------
    master_seed:
        Single integer from which all per-function seeds derive.
    widths:
        Range of each function. Pass one width per function (they may
        differ, e.g. Othello's two unequal arrays).
    """

    def __init__(self, master_seed: int, widths: Sequence[int]):
        self.master_seed = master_seed
        self.hashers = tuple(
            IndexHasher(self._derive_seed(master_seed, i), width)
            for i, width in enumerate(widths)
        )
        # (num_functions, 1) columns: one seed and one width per row of
        # the index matrix indices_batch computes. Widths fit 32 bits, as
        # far as a 32-bit hash reaches.
        self._seed_column = np.array(
            [[hasher.seed] for hasher in self.hashers], dtype=np.uint32
        )
        self._width_column = np.array(
            [[hasher.width] for hasher in self.hashers], dtype=np.uint32
        )

    @staticmethod
    def _derive_seed(master_seed: int, index: int) -> int:
        mixed = (master_seed + (index + 1) * _SEED_STRIDE) & 0xFFFFFFFF
        # One fmix-style round so adjacent master seeds do not yield
        # correlated families.
        mixed ^= mixed >> 16
        mixed = (mixed * 0x85EBCA6B) & 0xFFFFFFFF
        mixed ^= mixed >> 13
        return mixed

    def __len__(self) -> int:
        return len(self.hashers)

    def __getitem__(self, i: int) -> IndexHasher:
        return self.hashers[i]

    def __iter__(self) -> Iterable[IndexHasher]:
        return iter(self.hashers)

    def indices(self, key: Key) -> tuple:
        """All function outputs for ``key``, one index per function."""
        return tuple(h.index(key) for h in self.hashers)

    def indices_batch(
        self, keys: npt.ArrayLike, seeds: Optional[npt.ArrayLike] = None
    ) -> npt.NDArray[np.int64]:
        """Vectorised :meth:`indices`: the ``(num_functions, k)`` index
        matrix (row ``j`` is function ``j``), from one hashing pass.

        ``seeds``, a ``(num_functions, k)`` matrix, hashes key ``i`` under
        ``seeds[:, i]`` in place of this family's own seeds: keys of many
        families of these widths (a sharded table's shards), one pass.
        """
        hashed = murmur3_32_u32(
            keys, self._seed_column if seeds is None else seeds
        )
        hashed %= self._width_column
        return hashed.astype(np.int64)

    def reseeded(self, new_master_seed: int) -> "HashFamily":
        """A fresh family with the same widths and a new master seed."""
        return HashFamily(new_master_seed, [h.width for h in self.hashers])
