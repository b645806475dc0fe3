"""The batched write pipeline: parity, peel engines, and GetCost.

Covers the vectorised fast path end to end:

- ``insert_batch`` must be walk-for-walk identical to sequential ``insert``
  (bit-equal tables, same seed), packed and unpacked, with the GetCost
  shortcut on or off — the optimisations are required to be semantically
  invisible.
- The flat-array (numpy) peel must stall exactly when the dict-of-sets
  reference engine stalls and otherwise produce a valid peel order.
- ``VisionStrategy.choose`` must pick the argmin of the textbook GetCost
  recursion, across arbitrary interleavings of table mutations and clears.
- The repair walk must survive keys being removed mid-walk (regression
  test for the ``keys_at`` mutation hazard).
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import VisionEmbedder
from repro.core.assistant_table import AssistantTable
from repro.core.config import DepthPolicy
from repro.core.errors import DuplicateKey, UpdateFailure
from repro.core.static_build import (
    peel_order,
    peel_order_flat,
    static_build_arrays,
)
from repro.core.update import UpdateStrategy, VisionStrategy, find_update_path
from repro.core.value_table import ValueTable


def _workload(n, value_bits, seed):
    rng = random.Random(seed)
    keys = rng.sample(range(1, 50 * n), n)
    values = [rng.getrandbits(value_bits) for _ in range(n)]
    return keys, values


def _dense(table):
    return table._table.to_dense()


class TestInsertBatchParity:
    @pytest.mark.parametrize("packed", [False, True])
    def test_batch_matches_sequential(self, packed):
        keys, values = _workload(800, 12, seed=11)
        sequential = VisionEmbedder(1000, 12, seed=7, packed=packed)
        for key, value in zip(keys, values):
            sequential.insert(key, value)
        batched = VisionEmbedder(1000, 12, seed=7, packed=packed)
        batched.insert_batch(keys, values)

        assert batched.seed == sequential.seed
        assert np.array_equal(_dense(batched), _dense(sequential))
        batched.check_invariants()
        for key, value in zip(keys, values):
            assert batched.lookup(key) == value

    def test_u64_array_canonicalises_without_per_key_calls(
        self, monkeypatch
    ):
        """A ``uint64`` key array reaches the handle array in one pass,
        and builds the table the same keys as a list build."""
        import repro.hashing.family as family

        calls = []
        per_key = family.key_to_u64

        def counting_key_to_u64(key):
            calls.append(key)
            return per_key(key)

        monkeypatch.setattr(family, "key_to_u64", counting_key_to_u64)
        keys, values = _workload(1000, 12, seed=4)
        from_array = VisionEmbedder(1200, 12, seed=3)
        from_array.insert_batch(np.array(keys, dtype=np.uint64), values)
        assert calls == []
        from_list = VisionEmbedder(1200, 12, seed=3)
        from_list.insert_batch(keys, values)
        assert from_array.seed == from_list.seed
        assert np.array_equal(_dense(from_array), _dense(from_list))
        with pytest.raises(DuplicateKey, match=rf"^key {keys[0]} already"):
            from_array.insert_batch(
                np.array([keys[0]], dtype=np.uint64), [1]
            )
        with pytest.raises(DuplicateKey, match=rf"^key {keys[0]} already"):
            from_list.insert_batch([keys[0]], [1])
        from_list.insert_batch(["alpha", b"beta"], [1, 2])
        assert len(calls) == 2  # non-int keys still go key by key
        assert from_list.lookup("alpha") == 1

    def test_cache_and_shortcut_are_transparent(self):
        keys, values = _workload(600, 10, seed=3)
        reference = VisionEmbedder(800, 10, seed=5)
        reference._strategy.shortcut = False
        reference.insert_batch(keys, values)
        default = VisionEmbedder(800, 10, seed=5)
        default.insert_batch(keys, values)
        assert default.seed == reference.seed
        assert np.array_equal(_dense(default), _dense(reference))

    def test_insert_many_funnels_through_batch(self):
        keys, values = _workload(300, 8, seed=9)
        table = VisionEmbedder(400, 8, seed=2)
        table.insert_many(zip(keys, values))
        assert table.stats.batch_inserts == 1
        assert table.stats.largest_batch == 300
        assert table.stats.batch_keys == 300
        direct = VisionEmbedder(400, 8, seed=2)
        direct.insert_batch(keys, values)
        assert np.array_equal(_dense(table), _dense(direct))

    def test_duplicate_within_batch_rejected_before_any_insert(self):
        table = VisionEmbedder(64, 8, seed=1)
        table.insert(999, 1)
        with pytest.raises(DuplicateKey):
            table.insert_batch([1, 2, 1], [5, 6, 7])
        with pytest.raises(DuplicateKey):
            table.insert_batch([3, 999], [5, 6])
        assert len(table) == 1
        table.check_invariants()

    def test_misaligned_and_out_of_range_rejected(self):
        table = VisionEmbedder(64, 8, seed=1)
        with pytest.raises(ValueError):
            table.insert_batch([1, 2], [5])
        with pytest.raises(ValueError):
            table.insert_batch([1, 2], [5, 1 << 9])
        assert len(table) == 0

    def test_empty_batch_is_a_noop(self):
        table = VisionEmbedder(64, 8, seed=1)
        table.insert_batch([], [])
        assert len(table) == 0
        assert table.stats.batch_inserts == 0

    def test_mid_batch_reconstruction_recovers(self):
        # seed 25 at this fill triggers a reconstruction inside the batch;
        # the remaining keys' cells must be recomputed under the new seed.
        table = VisionEmbedder(128, 8, seed=25)
        pairs = [(k, (k * 7) % 256) for k in range(1, 71)]
        table.insert_many(pairs)
        assert table.stats.reconstructions >= 1
        table.check_invariants()
        for key, value in pairs:
            assert table.lookup(key) == value

    def test_empty_insert_many_is_a_noop(self):
        table = VisionEmbedder(64, 8, seed=1)
        table.insert_many([])
        assert len(table) == 0
        assert table.stats.batch_inserts == 0

    def test_misaligned_empty_batch_still_rejected(self):
        # The alignment contract holds even when one side is empty: the
        # caller clearly made a mistake, so don't silently no-op.
        table = VisionEmbedder(64, 8, seed=1)
        with pytest.raises(ValueError):
            table.insert_batch([], [5])
        with pytest.raises(ValueError):
            table.insert_batch([1], [])
        assert len(table) == 0

    @pytest.mark.parametrize("packed", [False, True])
    def test_empty_lookup_batch(self, packed):
        table = VisionEmbedder(64, 8, seed=1, packed=packed)
        table.insert(7, 42)
        for empty in ([], np.zeros(0, dtype=np.uint64)):
            out = table.lookup_batch(empty)
            assert out.dtype == np.uint64
            assert out.shape == (0,)

    def test_empty_bulk_load_leaves_table_untouched(self):
        keys, values = _workload(200, 8, seed=15)
        table = VisionEmbedder(300, 8, seed=6)
        table.insert_batch(keys, values)
        seed_before = table.seed
        dense_before = _dense(table).copy()
        table.bulk_load([])
        assert table.seed == seed_before
        assert np.array_equal(_dense(table), dense_before)
        assert len(table) == 200
        table.check_invariants()

    def test_bulk_load_and_reconstruct_keep_invariants(self):
        keys, values = _workload(500, 10, seed=21)
        table = VisionEmbedder(700, 10, seed=4)
        table.bulk_load(zip(keys, values))
        table.check_invariants()
        table.reconstruct(method="static")
        table.check_invariants()
        table.reconstruct(method="dynamic")
        table.check_invariants()
        for key, value in zip(keys, values):
            assert table.lookup(key) == value


# -- flat peel engine -------------------------------------------------------

_instances = st.integers(2, 24).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.integers(2, 8),
        st.lists(st.integers(0, 7), min_size=3 * n, max_size=3 * n),
    )
)


def _to_cols(n, width, raw):
    return [[t % width for t in raw[j * n:(j + 1) * n]] for j in range(3)]


class TestPeelEngineParity:
    @settings(max_examples=150, deadline=None)
    @given(_instances)
    def test_flat_engine_matches_reference(self, instance):
        n, width, raw = instance
        cols = _to_cols(n, width, raw)
        key_cells = {
            i: tuple((j, cols[j][i]) for j in range(3)) for i in range(n)
        }
        reference = peel_order(key_cells)
        flat = peel_order_flat(cols, width)
        # Stall iff the reference engine stalls (same 2-core).
        assert (flat is None) == (reference is None)
        if flat is None:
            return
        # The flat order must itself be a valid peel: each key's recorded
        # cell holds exactly that key among the not-yet-peeled ones.
        members = {}
        for i, cells in key_cells.items():
            for cell in cells:
                members.setdefault(cell, set()).add(i)
        assert sorted(key for key, _ in flat) == list(range(n))
        for key, flat_cell in flat:
            cell = (flat_cell // width, flat_cell % width)
            assert members[cell] == {key}
            for other in key_cells[key]:
                members[other].discard(key)

    @settings(max_examples=60, deadline=None)
    @given(_instances)
    def test_static_build_arrays_satisfies_every_equation(self, instance):
        n, width, raw = instance
        cols = _to_cols(n, width, raw)
        table = ValueTable(width, 8, 3)
        assistant = AssistantTable(width, 3)
        keys = list(range(100, 100 + n))
        values = [(key * 31) % 256 for key in keys]
        if peel_order_flat(cols, width) is None:
            with pytest.raises(UpdateFailure):
                static_build_arrays(table, assistant, keys, values, cols)
            assert len(assistant) == 0
            return
        static_build_arrays(table, assistant, keys, values, cols)
        assistant.check_consistency()
        for i, (key, value) in enumerate(zip(keys, values)):
            cells = tuple((j, cols[j][i]) for j in range(3))
            assert table.xor_sum(cells) == value
            assert assistant.cells(key) == cells

    def test_two_core_stalls_in_both_engines(self):
        cols = [[0, 0], [1, 1], [2, 2]]
        key_cells = {0: ((0, 0), (1, 1), (2, 2)), 1: ((0, 0), (1, 1), (2, 2))}
        assert peel_order(key_cells) is None
        assert peel_order_flat(cols, 4) is None

    def test_empty_instance(self):
        assert peel_order_flat([[], [], []], 4) == []


# -- GetCost ----------------------------------------------------------------


def _get_cost(cell, from_key, depth, max_depth, assistant):
    """Textbook GetCost (§IV-B, Algorithm 2) over ``(array, index)`` cells:
    the oracle ``VisionStrategy``'s flat-id recursion must agree with."""
    if depth >= max_depth:
        return assistant.count_at(cell)
    cost = 1
    for key in assistant.keys_at(cell):
        if key == from_key:
            continue
        options = [c for c in assistant.cells(key) if c != cell]
        cost += min(
            _get_cost(option, key, depth + 1, max_depth, assistant)
            for option in options
        )
    return cost


def _random_assistant(rng, width=12, n=40):
    assistant = AssistantTable(width, 3)
    for key in rng.sample(range(1, 10_000), n):
        cells = tuple((j, rng.randrange(width)) for j in range(3))
        assistant.add(key, rng.getrandbits(8), cells)
    return assistant


class TestCostCache:
    def test_cached_choices_match_uncached_across_mutations(self):
        """``choose`` (shortcut and early exit included) is the first
        argmin of the textbook recursion at every depth, whatever the
        mutations and clears in between."""
        rng = random.Random(42)
        assistant = _random_assistant(rng)
        strategy = VisionStrategy()
        policy = DepthPolicy()
        for step in range(400):
            live = [key for key, _ in assistant.pairs()]
            key = rng.choice(live)
            candidates = list(assistant.cells(key))
            efficiency = rng.choice([0.1, 0.3, 0.5, 0.9])
            max_depth = policy.depth_for(efficiency)
            costs = [
                _get_cost(cell, key, 1, max_depth, assistant)
                for cell in candidates
            ]
            expected = candidates[costs.index(min(costs))]
            assert strategy.choose(
                candidates, key, assistant, efficiency
            ) == expected
            action = rng.random()
            if action < 0.30:
                victim = rng.choice(live)
                assistant.remove(victim)
                assistant.add(
                    victim + 20_000, rng.getrandbits(8),
                    tuple((j, rng.randrange(12)) for j in range(3)),
                )
            elif action < 0.34:
                # Same assistant object, new contents.
                assistant.clear()
                for fresh in rng.sample(range(1, 10_000), 40):
                    assistant.add(
                        fresh, rng.getrandbits(8),
                        tuple((j, rng.randrange(12)) for j in range(3)),
                    )


# -- repair-walk mutation hazard -------------------------------------------


class _ScriptedRemover(UpdateStrategy):
    """Returns scripted cells; removes a victim key on its second call.

    Models a re-entrant delete landing while the victim is already queued
    on the repair walk's work stack.
    """

    def __init__(self, moves, victim, assistant):
        self._moves = list(moves)
        self._victim = victim
        self._assistant = assistant
        self.calls = 0

    def choose(self, candidates, from_key, assistant, space_efficiency):
        self.calls += 1
        if self.calls == 2 and self._victim in self._assistant:
            self._assistant.remove(self._victim)
        if self._moves:
            move = self._moves.pop(0)
            if move in candidates:
                return move
        return candidates[0]


class TestRepairWalkMutation:
    def test_queued_key_removed_mid_walk_is_skipped(self):
        # k1, k2, k3 all share cell (1, 0). Repairing k1 modifies (1, 0)
        # and queues k2 and k3; while k3 is being decided, k2 (still
        # queued) is removed. The walk must skip it, not crash.
        table = ValueTable(4, 8, 3)
        assistant = AssistantTable(4, 3)
        assistant.add(1, 5, ((0, 0), (1, 0), (2, 0)))
        assistant.add(2, 0, ((0, 2), (1, 0), (2, 1)))
        assistant.add(3, 0, ((0, 3), (1, 0), (2, 2)))
        strategy = _ScriptedRemover(
            moves=[(1, 0), (0, 3)], victim=2, assistant=assistant,
        )
        plan = find_update_path(
            table, assistant, 1, strategy, 0.25, max_steps=50
        )
        assert strategy.calls >= 2
        assert 2 not in assistant
        plan.apply(table)
        for key in (1, 3):
            assert table.xor_sum(assistant.cells(key)) == assistant.value(key)

    def test_embedder_survives_concurrent_removals(self):
        # Integration flavour: every strategy decision removes some other
        # key from a candidate bucket mid-walk.
        table = VisionEmbedder(96, 8, seed=13)
        inner = table._strategy

        class Sabotage(UpdateStrategy):
            def choose(self, candidates, from_key, assistant,
                       space_efficiency):
                for key in tuple(assistant.keys_at(candidates[0])):
                    if key != from_key:
                        assistant.remove(key)
                        break
                return inner.choose(candidates, from_key, assistant,
                                    space_efficiency)

        keys, values = _workload(50, 8, seed=17)
        for key, value in zip(keys, values):
            table.insert(key, value)
        table._strategy = Sabotage()
        survivors = 0
        for key in keys[:20]:
            try:
                table.update(key, 77)
                survivors += 1
            except KeyError:
                # An earlier sabotaged walk already removed this key.
                continue
        assert survivors > 0
        table.check_invariants()
