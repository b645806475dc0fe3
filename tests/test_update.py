"""Update machinery: strategies, GetCost, deferred paths, eager equivalence."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.assistant_table import AssistantTable
from repro.core.config import DepthPolicy
from repro.core.errors import UpdateFailure
from repro.core.update import (
    SimpleStrategy,
    VisionStrategy,
    _run_repair_walk,
    find_update_path,
    make_strategy,
)
from repro.core.value_table import ValueTable
from repro.hashing import HashFamily


def eager_update(table, assistant, key, strategy, space_efficiency,
                 max_steps, hooks=None):
    """Algorithm 1/2 executed directly: rewrite cells during the walk.

    The executable specification the library's deferred mode is checked
    against. Returns the number of repair steps; on UpdateFailure the
    table keeps its partial writes (the paper reconstructs then). Every
    broken equation in the walk is off by exactly the initial discrepancy
    ``V_delta``, so the rewrite is the same XOR the deferred plan applies.
    """
    v_delta = table.xor_sum(assistant.cells(key)) ^ assistant.value(key)
    if v_delta == 0:
        return 0

    def check_consistent(current, cells):
        return table.xor_sum(cells) == assistant.value(current)

    def modify(cell):
        table.xor(cell, v_delta)

    return _run_repair_walk(
        check_consistent, modify, assistant, key, strategy,
        space_efficiency, max_steps, hooks,
    )


def _cells_for(family, key):
    return tuple(enumerate(family.indices(key)))


def _build_state(n, width, value_bits, seed):
    """A consistent (table, assistant) pair built by deferred updates."""
    table = ValueTable(width, value_bits)
    assistant = AssistantTable(width)
    family = HashFamily(seed, [width] * 3)
    strategy = VisionStrategy()
    rng = random.Random(seed)
    for _ in range(n):
        key = rng.getrandbits(48)
        if key in assistant:
            continue
        value = rng.getrandbits(value_bits)
        assistant.add(key, value, _cells_for(family, key))
        plan = find_update_path(table, assistant, key, strategy,
                                len(assistant) / table.num_cells, 200)
        plan.apply(table)
    return table, assistant, family, strategy


def _assert_all_hold(table, assistant):
    for key, value in assistant.pairs():
        assert table.xor_sum(assistant.cells(key)) == value


class TestGetCost:
    def test_depth_limit_returns_bucket_count(self):
        assistant = AssistantTable(width=8)
        assistant.add(1, 0, ((0, 3), (1, 0), (2, 0)))
        assistant.add(2, 0, ((0, 3), (1, 1), (2, 1)))
        strategy = VisionStrategy(DepthPolicy(fixed=1))
        # No levels left to look ahead: cost is C_j[t]. Cells are flat
        # ids array * width + index.
        assert strategy._cost(0 * 8 + 3, 99, 0, assistant, None) == 2
        assert strategy._cost(1 * 8 + 0, 99, 0, assistant, None) == 1

    def test_deeper_cost_counts_forced_repairs(self):
        assistant = AssistantTable(width=8)
        # Key 1 at cell (0,0); its other cells are private.
        assistant.add(1, 0, ((0, 0), (1, 1), (2, 1)))
        # Key 2 shares (0,0) and has two private alternatives.
        assistant.add(2, 0, ((0, 0), (1, 2), (2, 2)))
        strategy = VisionStrategy(DepthPolicy(fixed=2))
        # Modifying (0,0) for key 1 forces repairing key 2 through one of
        # its free cells (cost C=1 each at the depth limit): total 1 + 1.
        cost = strategy._cost(0, 1, 1, assistant, None)
        assert cost == 2

    def test_choose_prefers_empty_cell(self):
        assistant = AssistantTable(width=8)
        assistant.add(1, 0, ((0, 0), (1, 0), (2, 0)))
        assistant.add(2, 0, ((0, 0), (1, 1), (2, 1)))  # crowds (0,0)
        strategy = VisionStrategy(DepthPolicy(fixed=1))
        choice = strategy.choose(
            [(0, 0), (1, 0), (2, 0)], 1, assistant, 0.1
        )
        # (1,0) and (2,0) hold only key 1 itself; (0,0) holds two keys.
        assert choice in ((1, 0), (2, 0))


class TestSimpleStrategy:
    def test_choice_is_among_candidates(self):
        strategy = SimpleStrategy(random.Random(0))
        assistant = AssistantTable(width=4)
        candidates = [(0, 1), (1, 2), (2, 3)]
        for _ in range(50):
            assert strategy.choose(candidates, 1, assistant, 0.5) in candidates

    def test_uniformity(self):
        strategy = SimpleStrategy(random.Random(0))
        assistant = AssistantTable(width=4)
        candidates = [(0, 1), (1, 2), (2, 3)]
        counts = {c: 0 for c in candidates}
        for _ in range(3000):
            counts[strategy.choose(candidates, 1, assistant, 0.5)] += 1
        assert all(800 < count < 1200 for count in counts.values())


class TestMakeStrategy:
    def test_names(self):
        assert isinstance(make_strategy("vision"), VisionStrategy)
        assert isinstance(make_strategy("simple"), SimpleStrategy)

    def test_unknown(self):
        with pytest.raises(ValueError):
            make_strategy("nope")


class TestFindUpdatePath:
    def test_noop_when_equation_already_holds(self):
        table, assistant, family, strategy = _build_state(0, 64, 4, 1)
        assistant.add(5, 0, _cells_for(family, 5))  # all cells zero, value 0
        plan = find_update_path(table, assistant, 5, strategy, 0.0, 50)
        assert plan.path == set()
        assert plan.steps == 0

    def test_single_key_modifies_one_cell(self):
        table, assistant, family, strategy = _build_state(0, 64, 4, 1)
        assistant.add(5, 9, _cells_for(family, 5))
        plan = find_update_path(table, assistant, 5, strategy, 0.0, 50)
        assert len(plan.path) == 1
        assert plan.v_delta == 9
        plan.apply(table)
        _assert_all_hold(table, assistant)

    def test_table_untouched_until_apply(self):
        table, assistant, family, strategy = _build_state(20, 64, 4, 2)
        snapshot = table.copy()
        key = 1 << 40
        assistant.add(key, 7, _cells_for(family, key))
        plan = find_update_path(table, assistant, key, strategy, 0.1, 50)
        assert table == snapshot
        plan.apply(table)
        _assert_all_hold(table, assistant)

    def test_failure_raises_and_reports_steps(self):
        # A width-1 table cannot satisfy two conflicting equations.
        table = ValueTable(1, 4)
        assistant = AssistantTable(1)
        strategy = VisionStrategy()
        assistant.add(1, 3, ((0, 0), (1, 0), (2, 0)))
        plan = find_update_path(table, assistant, 1, strategy, 0.5, 30)
        plan.apply(table)
        assistant.add(2, 5, ((0, 0), (1, 0), (2, 0)))
        with pytest.raises(UpdateFailure) as info:
            find_update_path(table, assistant, 2, strategy, 0.5, 30)
        assert info.value.steps > 30

    def test_many_inserts_stay_consistent(self):
        table, assistant, _family, _strategy = _build_state(300, 256, 6, 3)
        _assert_all_hold(table, assistant)

    def test_value_change_repairs_neighbours(self):
        table, assistant, family, strategy = _build_state(150, 128, 4, 4)
        key = next(iter(dict(assistant.pairs())))
        assistant.set_value(key, (assistant.value(key) + 1) % 16)
        plan = find_update_path(table, assistant, key, strategy, 0.4, 200)
        plan.apply(table)
        _assert_all_hold(table, assistant)


class TestEagerEquivalence:
    @settings(deadline=None, max_examples=25)
    @given(st.integers(0, 10_000), st.integers(1, 120))
    def test_deferred_matches_eager(self, seed, n):
        """Same strategy, same inserts: both modes satisfy every equation.

        (Choices are deterministic for VisionStrategy, so the final tables
        are identical, not just equivalent.)
        """
        width = max(8, int(n * 1.9 / 3) + 2)
        family = HashFamily(seed, [width] * 3)
        rng = random.Random(seed)
        pairs = []
        seen = set()
        while len(pairs) < n:
            key = rng.getrandbits(40)
            if key in seen:
                continue
            seen.add(key)
            pairs.append((key, rng.getrandbits(4)))

        deferred_table = ValueTable(width, 4)
        deferred_assist = AssistantTable(width)
        eager_table = ValueTable(width, 4)
        eager_assist = AssistantTable(width)
        strategy = VisionStrategy()

        for key, value in pairs:
            cells = tuple(enumerate(family.indices(key)))
            deferred_assist.add(key, value, cells)
            eff = len(deferred_assist) / deferred_table.num_cells
            try:
                plan = find_update_path(
                    deferred_table, deferred_assist, key, strategy, eff, 500
                )
                deferred_failed = False
            except UpdateFailure:
                deferred_failed = True
            eager_assist.add(key, value, cells)
            try:
                eager_update(eager_table, eager_assist, key, strategy, eff, 500)
                eager_failed = False
            except UpdateFailure:
                eager_failed = True
            # A genuinely unsolvable input (e.g. a full 3-cell collision)
            # must fail in both modes; comparison stops there.
            assert deferred_failed == eager_failed
            if deferred_failed:
                return
            plan.apply(deferred_table)

        _assert_all_hold(deferred_table, deferred_assist)
        _assert_all_hold(eager_table, eager_assist)
        assert deferred_table == eager_table
