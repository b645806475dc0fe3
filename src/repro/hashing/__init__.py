"""Hashing substrate for the VisionEmbedder reproduction.

The paper uses MurmurHash [25] throughout. This package provides a
from-scratch MurmurHash3 (x86, 32-bit) implementation, both as a scalar
function over byte strings and as a numpy-vectorised function over arrays of
64-bit integer keys (the two agree bit-for-bit on 8-byte little-endian
encodings), plus the seeded index-hash families that every value-only table
in this repository is built on.
"""

from repro.hashing.murmur3 import murmur3_32, murmur3_32_u64, murmur3_32_u64_batch
from repro.hashing.family import (
    IndexHasher,
    HashFamily,
    has_duplicates,
    key_to_bytes,
    key_to_u64,
    keys_to_u64_batch,
    seed_table,
)

__all__ = [
    "murmur3_32",
    "murmur3_32_u64",
    "murmur3_32_u64_batch",
    "IndexHasher",
    "HashFamily",
    "has_duplicates",
    "key_to_bytes",
    "key_to_u64",
    "keys_to_u64_batch",
    "seed_table",
]
