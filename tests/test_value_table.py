"""Fast-space value table: cell access, XOR lookups, space accounting."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.value_table import ValueTable


class TestConstruction:
    def test_initially_zero(self):
        table = ValueTable(width=8, value_bits=4)
        assert all(table.get((j, t)) == 0 for j in range(3) for t in range(8))

    def test_num_cells_and_space(self):
        table = ValueTable(width=100, value_bits=7)
        assert table.num_cells == 300
        assert table.space_bits == 2100

    def test_custom_array_count(self):
        table = ValueTable(width=10, value_bits=1, num_arrays=4)
        assert table.num_cells == 40

    @pytest.mark.parametrize("width,bits,arrays", [(0, 4, 3), (4, 0, 3),
                                                   (4, 65, 3), (4, 4, 1)])
    def test_invalid_parameters(self, width, bits, arrays):
        with pytest.raises(ValueError):
            ValueTable(width=width, value_bits=bits, num_arrays=arrays)


class TestCellOperations:
    def test_set_get_roundtrip(self):
        table = ValueTable(width=4, value_bits=8)
        table.set((1, 2), 0xAB)
        assert table.get((1, 2)) == 0xAB

    def test_set_masks_to_value_bits(self):
        table = ValueTable(width=4, value_bits=4)
        table.set((0, 0), 0xFF)
        assert table.get((0, 0)) == 0xF

    def test_xor_accumulates(self):
        table = ValueTable(width=4, value_bits=8)
        table.xor((2, 3), 0b1010)
        table.xor((2, 3), 0b0110)
        assert table.get((2, 3)) == 0b1100

    def test_xor_is_involution(self):
        table = ValueTable(width=4, value_bits=8)
        table.set((0, 1), 77)
        table.xor((0, 1), 13)
        table.xor((0, 1), 13)
        assert table.get((0, 1)) == 77

    def test_xor_sum_over_cells(self):
        table = ValueTable(width=4, value_bits=8)
        table.set((0, 0), 0b0001)
        table.set((1, 1), 0b0010)
        table.set((2, 2), 0b0100)
        assert table.xor_sum([(0, 0), (1, 1), (2, 2)]) == 0b0111

    def test_xor_sum_empty_is_zero(self):
        assert ValueTable(4, 8).xor_sum([]) == 0

    def test_64_bit_values(self):
        table = ValueTable(width=2, value_bits=64)
        big = (1 << 64) - 1
        table.set((0, 0), big)
        assert table.get((0, 0)) == big


class TestBatchLookup:
    def test_matches_scalar_xor_sum(self):
        rng = np.random.default_rng(0)
        table = ValueTable(width=32, value_bits=8)
        for j in range(3):
            for t in range(32):
                table.set((j, t), int(rng.integers(0, 256)))
        indices = [rng.integers(0, 32, size=100) for _ in range(3)]
        flat_mat = np.stack([indices[j] + j * 32 for j in range(3)])
        batch = table.gather_xor(flat_mat)
        for pos in range(100):
            cells = [(j, int(indices[j][pos])) for j in range(3)]
            assert int(batch[pos]) == table.xor_sum(cells)


class TestLifecycle:
    def test_clear_zeroes_everything(self):
        table = ValueTable(width=4, value_bits=8)
        table.set((0, 0), 9)
        table.clear()
        assert table.get((0, 0)) == 0

    def test_copy_is_independent(self):
        table = ValueTable(width=4, value_bits=8)
        table.set((1, 1), 5)
        clone = table.copy()
        clone.set((1, 1), 7)
        assert table.get((1, 1)) == 5
        assert clone.get((1, 1)) == 7

    def test_equality(self):
        a = ValueTable(width=4, value_bits=8)
        b = ValueTable(width=4, value_bits=8)
        assert a == b
        b.set((0, 0), 1)
        assert a != b

    def test_equality_different_shape(self):
        assert ValueTable(4, 8) != ValueTable(5, 8)

    @given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 7),
                              st.integers(0, 255)), max_size=40))
    def test_model_based_set_get(self, writes):
        table = ValueTable(width=8, value_bits=8)
        model = {}
        for j, t, value in writes:
            table.set((j, t), value)
            model[(j, t)] = value
        for cell, value in model.items():
            assert table.get(cell) == value
