"""Key canonicalisation and seeded index-hash families."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.hashing.family import (
    HashFamily,
    IndexHasher,
    has_duplicates,
    key_to_bytes,
    key_to_u64,
    keys_to_u64_batch,
)


class TestKeyToBytes:
    def test_bytes_pass_through(self):
        assert key_to_bytes(b"abc") == b"abc"

    def test_str_utf8(self):
        assert key_to_bytes("héllo") == "héllo".encode("utf-8")

    def test_small_int_is_8_bytes(self):
        assert key_to_bytes(5) == (5).to_bytes(8, "little")

    def test_large_int_grows_in_8_byte_steps(self):
        big = 1 << 100
        encoded = key_to_bytes(big)
        assert len(encoded) == 16
        assert int.from_bytes(encoded, "little") == big

    def test_negative_int_rejected(self):
        with pytest.raises(ValueError):
            key_to_bytes(-1)

    def test_unsupported_type_rejected(self):
        with pytest.raises(TypeError):
            key_to_bytes(3.14)

    def test_numpy_integer_accepted(self):
        assert key_to_bytes(np.uint64(7)) == (7).to_bytes(8, "little")


class TestKeyToU64:
    @given(st.integers(0, (1 << 64) - 1))
    def test_small_ints_identity(self, key):
        assert key_to_u64(key) == key

    def test_str_and_bytes_hash_down(self):
        handle = key_to_u64("alpha")
        assert 0 <= handle < 1 << 64
        assert handle == key_to_u64("alpha")
        assert handle != key_to_u64("beta")

    def test_oversized_int_hashes_down(self):
        handle = key_to_u64(1 << 100)
        assert 0 <= handle < 1 << 64

    def test_distinct_strings_rarely_collide(self):
        handles = {key_to_u64(f"key-{i}") for i in range(5000)}
        assert len(handles) == 5000


class TestKeysToU64Batch:
    """A list of u64 python ints is cast in one pass; every other list
    goes key by key, exactly as before."""

    @staticmethod
    def _per_key(keys):
        return [key_to_u64(key) for key in keys]

    @pytest.mark.parametrize("keys", [
        [5, 0, (1 << 63) - 1, 12],
        [2 ** 63, 5],       # full-range keys stay exact
        [(1 << 64) - 1, 0],
    ])
    def test_u64_int_list_takes_the_array_path(self, keys):
        out = keys_to_u64_batch(keys)
        assert out.dtype == np.uint64
        assert out.tolist() == self._per_key(keys) == keys

    @pytest.mark.parametrize("keys", [
        ["12"],             # a string key is murmur of its bytes, not 12
        [5, "12"],          # a later string must not be read as an int
        [True, 5],          # bool first: the per-key path, True is 1
        [5, True],
        [2 ** 64, 5],       # wider than a handle: hashed
        [5, 2 ** 64],
        [b"12", 5],
        [5, b"12"],
    ])
    def test_other_lists_answer_as_key_by_key(self, keys):
        assert keys_to_u64_batch(keys).tolist() == self._per_key(keys)

    def test_string_twelve_is_not_handle_twelve(self):
        assert keys_to_u64_batch(["12"])[0] != 12

    def test_float_key_still_rejected(self):
        # numpy would truncate 1.5 to 1; the per-key path refuses it.
        with pytest.raises(TypeError):
            keys_to_u64_batch([5, 1.5])

    @pytest.mark.parametrize("keys", [[-1], [5, -1]])
    def test_negative_int_rejected(self, keys):
        with pytest.raises(ValueError, match="non-negative"):
            keys_to_u64_batch(keys)


def _random_keys(n, seed):
    return np.random.default_rng(seed).integers(
        0, 2**64 - 1, size=n, dtype=np.uint64, endpoint=True
    )


class TestHasDuplicates:
    """The one-sort duplicate check agrees with ``np.unique``'s count."""

    @pytest.mark.parametrize("handles", [
        np.zeros(0, dtype=np.uint64),
        np.array([7], dtype=np.uint64),
        np.array([7, 7], dtype=np.uint64),
        np.array([0, 2**64 - 1], dtype=np.uint64),
        np.unique(_random_keys(10_000, 1)),
        np.concatenate([_random_keys(10_000, 2), _random_keys(1, 2)]),
    ], ids=["empty", "one", "two-equal", "extremes", "distinct",
            "first-and-last-equal"])
    def test_agrees_with_unique(self, handles):
        assert has_duplicates(handles) == (
            np.unique(handles).size != handles.size
        )

    def test_finds_a_duplicate_planted_at_either_end(self):
        keys = np.unique(_random_keys(10_000, 3))
        assert not has_duplicates(keys)
        shuffled = np.random.default_rng(4).permutation(keys)
        for at, twin in ((0, 1), (-1, -2), (0, -1)):
            planted = shuffled.copy()
            planted[at] = planted[twin]
            assert has_duplicates(planted)
            assert np.unique(planted).size != planted.size


class TestIndexHasher:
    def test_range(self):
        hasher = IndexHasher(seed=3, width=17)
        for key in range(500):
            assert 0 <= hasher.index(key) < 17

    def test_str_and_equivalent_bytes_agree(self):
        hasher = IndexHasher(seed=3, width=100)
        assert hasher.index("abc") == hasher.index(b"abc")

    def test_batch_matches_scalar(self):
        hasher = IndexHasher(seed=8, width=101)
        keys = np.arange(1000, dtype=np.uint64)
        batch = hasher.index_batch(keys)
        for key, idx in zip(keys.tolist(), batch.tolist()):
            assert idx == hasher.index(key)

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            IndexHasher(seed=1, width=0)

    def test_width_one_always_zero(self):
        hasher = IndexHasher(seed=1, width=1)
        assert all(hasher.index(k) == 0 for k in range(10))


class TestHashFamily:
    def test_functions_are_independent(self):
        family = HashFamily(7, [1000, 1000, 1000])
        keys = list(range(2000))
        agreement = sum(
            1 for k in keys if family[0].index(k) == family[1].index(k)
        )
        # Independent functions agree with probability ~1/1000.
        assert agreement < 20

    def test_indices_matches_items(self):
        family = HashFamily(1, [10, 20, 30])
        for key in range(50):
            assert family.indices(key) == tuple(h.index(key) for h in family)

    def test_unequal_widths(self):
        family = HashFamily(1, [10, 99])
        assert family[0].width == 10
        assert family[1].width == 99

    def test_indices_batch_matches_scalar(self):
        family = HashFamily(4, [64, 64, 64])
        keys = np.arange(300, dtype=np.uint64)
        batches = family.indices_batch(keys)
        for pos, key in enumerate(keys.tolist()):
            assert tuple(int(b[pos]) for b in batches) == family.indices(key)

    def test_reseeded_changes_all_functions(self):
        family = HashFamily(1, [1000, 1000, 1000])
        fresh = family.reseeded(2)
        for j in range(3):
            diffs = sum(
                1 for k in range(500) if family[j].index(k) != fresh[j].index(k)
            )
            assert diffs > 450

    def test_reseeded_preserves_widths(self):
        family = HashFamily(1, [10, 20])
        assert [h.width for h in family.reseeded(9)] == [10, 20]

    def test_adjacent_master_seeds_uncorrelated(self):
        a = HashFamily(100, [1 << 20])
        b = HashFamily(101, [1 << 20])
        agreement = sum(1 for k in range(300) if a[0].index(k) == b[0].index(k))
        assert agreement == 0

    def test_len_and_iter(self):
        family = HashFamily(1, [5, 5, 5])
        assert len(family) == 3
        assert len(list(family)) == 3
