"""Update algorithms of VisionEmbedder (§IV).

Two decision strategies are provided:

- :class:`SimpleStrategy` (§IV-A): pick the cell to modify uniformly at
  random, in the spirit of cuckoo hashing's random kick.
- :class:`VisionStrategy` (§IV-B): estimate, with a depth-bounded DFS
  (``GetCost``), how many cells each candidate choice would ultimately force
  us to rewrite, and pick the cheapest. The lookahead depth follows the
  paper's dynamic schedule (1 → 2 → 3 as the table fills).

The repair runs in the *deferred* mode of the paper's concurrency
section: :func:`find_update_path` records the set of cells to modify
(``S_delta``), and :meth:`UpdatePlan.apply` then XORs every cell on the
path by one fixed increment ``V_delta``. A failed search leaves the value
table untouched. (The eager form, rewriting cells during the walk as
Algorithm 1/2 is written, is kept in the tests as the executable
specification the deferred mode is checked against.)

:func:`search_update_path` layers the paper's "search backtrack feature"
(§IV-B Concurrency) on top: because a failed deferred search leaves no
trace, a stuck walk is simply retried with randomised tie-breaking and an
ε-greedy exploration term plus a larger step budget. Near the occupancy
where the one-step branching factor crosses 1 (Theorem 1's λ' = 1.709,
which the default 1.7L budget slightly exceeds when full), the greedy walk
occasionally cycles even though a repair path exists; a handful of
randomised retries finds one, cutting measured update failures by an order
of magnitude and leaving reconstruction for the genuinely unsolvable
O(1/n) collision events.

The walk is iterative (explicit work stack), so deep repair chains near
full occupancy cannot overflow the Python recursion limit.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.assistant_table import AssistantTable
from repro.core.config import DepthPolicy
from repro.core.errors import UpdateFailure
from repro.core.value_table import ValueTable

Cell = Tuple[int, int]


class UpdateStrategy(ABC):
    """Decision function: which of a key's cells should be modified."""

    @abstractmethod
    def choose(
        self,
        candidates: List[Cell],
        from_key: int,
        assistant: AssistantTable,
        space_efficiency: float,
    ) -> Cell:
        """Pick one cell from ``candidates`` to modify for ``from_key``."""

    def retry_variant(self, attempt: int, rng: random.Random) -> "UpdateStrategy":
        """The strategy to use on the ``attempt``-th retry (default: self)."""
        return self


class SimpleStrategy(UpdateStrategy):
    """§IV-A: choose uniformly at random (cuckoo-style random kick)."""

    def __init__(self, rng: Optional[random.Random] = None):
        self._rng = rng if rng is not None else random.Random(0)

    def choose(
        self,
        candidates: List[Cell],
        from_key: int,
        assistant: AssistantTable,
        space_efficiency: float,
    ) -> Cell:
        return self._rng.choice(candidates)


class VisionStrategy(UpdateStrategy):
    """§IV-B: pick the candidate with the lowest GetCost estimate.

    ``GetCost(cell)`` is 1 (for the cell itself) plus, for every other
    equation touching the cell, the cheaper of recursively modifying one of
    that equation's two remaining cells. At the depth limit the estimate
    falls back to the bucket counter ``C_j[t]``; with ``MaxDepth = 1`` the
    strategy therefore degenerates to the basic
    "modify the cell with the fewest equations" rule the paper describes.

    ``rng``/``epsilon`` add the retry randomisation: ties break randomly,
    and with probability ε the walk explores a uniformly random candidate
    instead of the cheapest.

    When the observability layer is enabled
    (:meth:`VisionEmbedder.set_hooks`), ``subtree_histogram`` receives the
    number of buckets each evaluated candidate's GetCost read — the
    GetCost-cost distribution of §IV-C. It stays ``None`` (and costs one
    identity test per bucket read) otherwise.
    """

    def __init__(
        self,
        depth_policy: Optional[DepthPolicy] = None,
        rng: Optional[random.Random] = None,
        epsilon: float = 0.0,
        shortcut: bool = True,
    ):
        self.depth_policy = depth_policy if depth_policy is not None else DepthPolicy()
        self._rng = rng
        self.epsilon = epsilon
        # ``shortcut`` skips the DFS when a candidate bucket holds only the
        # repaired key (provably minimal cost); disable it to time the
        # unoptimised reference write path.
        self.shortcut = shortcut
        self.subtree_histogram = None

    def choose(  # repro: hotpath
        self,
        candidates: List[Cell],
        from_key: int,
        assistant: AssistantTable,
        space_efficiency: float,
    ) -> Cell:
        if self._rng is not None and self.epsilon:
            if self._rng.random() < self.epsilon:
                return self._rng.choice(candidates)
        if self._rng is None and self.shortcut:
            # Provably-minimal shortcut: a candidate whose bucket holds no
            # key but ``from_key`` has GetCost exactly 1 (every other cost
            # is ≥ 2 at depth ≥ 2 and ≥ its counter at depth 1), and the
            # deterministic tie-break keeps the first minimum — so the DFS
            # can be skipped entirely. Randomised retry twins keep the full
            # evaluation, which consumes their rng stream tie by tie.
            for cell in candidates:
                if assistant.count_at(cell) <= 1:
                    return cell
        remaining = self.depth_policy.depth_for(space_efficiency) - 1
        width = assistant.width
        histogram = self.subtree_histogram

        def evaluate(cell: Cell) -> int:
            flat = cell[0] * width + cell[1]
            if histogram is None:
                return self._cost(flat, from_key, remaining, assistant, None)
            reads: List[int] = []
            cost = self._cost(flat, from_key, remaining, assistant, reads)
            histogram.observe(len(reads))
            return cost

        if self._rng is None and self.shortcut:
            # Every candidate bucket holds ≥ 2 keys here (the shortcut
            # above returned otherwise), so every cost is ≥ 2: the first
            # candidate that evaluates to 2 is the exact first-wins argmin
            # and the remaining candidates need not be evaluated.
            best_cell = candidates[0]
            best_cost = evaluate(best_cell)
            for cell in candidates[1:]:
                if best_cost == 2:
                    return best_cell
                cost = evaluate(cell)
                if cost < best_cost:
                    best_cost = cost
                    best_cell = cell
            return best_cell

        costs = [evaluate(cell) for cell in candidates]
        best_cell = candidates[0]
        best_cost = costs[0]
        for cell, cost in zip(candidates[1:], costs[1:]):
            if cost < best_cost or (
                cost == best_cost
                and self._rng is not None
                and self._rng.random() < 0.5
            ):
                best_cost = cost
                best_cell = cell
        return best_cell

    def _cost(  # repro: hotpath
        self,
        flat: int,
        from_key: int,
        remaining: int,
        assistant: AssistantTable,
        reads: Optional[List[int]],
    ) -> int:
        """GetCost of modifying flat cell ``flat`` (``array·width + index``)
        on behalf of ``from_key``, looking ``remaining`` levels deeper.

        ``reads``, when given, collects every bucket the recursion reads.
        """
        if reads is not None:
            reads.append(flat)
        members = assistant.members
        bucket = members[flat]
        if remaining <= 0:
            return len(bucket)
        cost = 1
        for key in bucket:
            if key == from_key:
                continue
            best = -1
            for option in assistant.flats(key):
                if option == flat:
                    continue
                if remaining > 1:
                    term = self._cost(option, key, remaining - 1, assistant,
                                      reads)
                else:
                    # The depth limit, read inline: C_j[t] of the option.
                    if reads is not None:
                        reads.append(option)
                    term = len(members[option])
                if best < 0 or term < best:
                    best = term
            cost += best
        return cost

    def retry_variant(self, attempt: int, rng: random.Random) -> "VisionStrategy":
        """Randomised twin for retry ``attempt`` (ε grows with attempts)."""
        twin = VisionStrategy(
            self.depth_policy,
            rng=rng,
            epsilon=min(0.5, 0.1 + 0.05 * attempt),
        )
        twin.subtree_histogram = self.subtree_histogram
        return twin


@dataclass
class UpdatePlan:
    """Outcome of a deferred-path search.

    ``path`` is S_delta: the cells to XOR by ``v_delta``; ``steps`` is the
    number of repair iterations the search took, across retries (the
    amortised-cost metric).
    """

    path: Set[Cell]
    v_delta: int
    steps: int

    # repro: atomic
    def apply(
        self, table: ValueTable, before: Optional[Dict[Cell, int]] = None
    ) -> None:
        """XOR ``v_delta`` into every cell on the path — all or nothing.

        Each cell's old value is recorded before the cell changes: into
        ``before`` (an open journal's plane images, kept first-write-wins)
        when a multi-key write passes one, whose undo then covers this
        plan too. Without one, an exception mid-loop (a fault injected
        between cells) writes the recorded values back (:func:`write_back`)
        before re-raising, so the table is never left partially applied.
        """
        images: Dict[Cell, int] = {} if before is None else before
        try:
            for cell in self.path:
                if cell not in images:
                    images[cell] = table.get(cell)
                table.xor(cell, self.v_delta)
        except BaseException:
            if before is None:
                write_back(table, images)
            raise


def write_back(table: ValueTable, images: Dict[Cell, int]) -> None:
    """Write before-images back: one ``xor_batch`` of ``current ^ old``
    over the recorded cells.

    Idempotent — a cell the write never reached gets a zero delta — so it
    undoes exactly however far the write got.
    """
    if not images:
        return
    width = table.width
    count = len(images)
    flats = np.fromiter(
        (j * width + t for j, t in images), dtype=np.int64, count=count
    )
    deltas = np.fromiter(
        (table.get(cell) ^ old for cell, old in images.items()),
        dtype=np.uint64, count=count,
    )
    table.xor_batch(flats, deltas)


def _run_repair_walk(  # repro: hotpath
    check_consistent: Callable[[int, Tuple[Cell, ...]], bool],
    modify: Callable[[Cell], None],
    assistant: AssistantTable,
    key: int,
    strategy: UpdateStrategy,
    space_efficiency: float,
    max_steps: int,
    hooks=None,
) -> int:
    """The repair loop, over callbacks that check an equation and modify
    a cell (:func:`find_update_path`'s record the path instead of writing).

    Pops (key, pinned-cell) work items; a popped key whose equation already
    holds is dropped, otherwise one of its non-pinned cells is chosen by
    the strategy and modified, re-queueing every other key on that cell.
    Raises :class:`UpdateFailure` when ``max_steps`` items have been
    processed without quiescing.

    ``hooks`` (a :class:`repro.obs.hooks.WalkHooks`-shaped object or None)
    receives ``on_kick(current, cell, stack_depth)`` after every
    modification; when None — the default — tracing costs one identity
    test per kick and nothing else.

    The walk never trusts the assistant's *live* buckets across its own
    re-queues: ``keys_at`` returns an immutable tuple, and a queued key
    that has since been removed from the table (a strategy callback or a
    re-entrant delete can do that) is skipped instead of crashing on its
    missing bookkeeping.
    """
    steps = 0
    stack: List[Tuple[int, Optional[Cell]]] = [(key, None)]
    while stack:
        current, fixed_cell = stack.pop()
        steps += 1
        if steps > max_steps:
            raise UpdateFailure(steps=steps)
        if current not in assistant:
            continue
        cells = assistant.cells(current)
        if check_consistent(current, cells):
            continue
        candidates = [c for c in cells if c != fixed_cell]
        choice = strategy.choose(candidates, current, assistant,
                                 space_efficiency)
        modify(choice)
        # Sorted: a bucket lists its keys in registration order, and the
        # re-queue order steers every later pop. bulk_load, restore and
        # snapshot loading register keys in column order, not insert
        # order, so sorting pins the walk to the key values alone: equal
        # table states replay bit-identical walks however they were built.
        for neighbour in sorted(assistant.keys_at(choice)):
            if neighbour != current:
                stack.append((neighbour, choice))
        if hooks is not None:
            hooks.on_kick(current, choice, len(stack))
    return steps


def find_update_path(  # repro: hotpath
    table: ValueTable,
    assistant: AssistantTable,
    key: int,
    strategy: UpdateStrategy,
    space_efficiency: float,
    max_steps: int,
    hooks=None,
    attempt: int = 0,
) -> UpdatePlan:
    """Search for the modification path that makes ``key``'s equation hold.

    The assistant table must already record the key's (new) value. The value
    table is *not* modified: on success the returned plan is applied by the
    caller; on :class:`UpdateFailure` the table is untouched, which is what
    lets a failed update retry or fall back to reconstruction without first
    undoing half-applied writes.

    ``hooks`` receives ``on_walk_start``/``on_kick``/``on_walk_end`` for
    this attempt (``attempt`` labels retries); an already-consistent
    equation returns without starting a walk and fires no events.
    """
    key_cells = assistant.cells(key)
    v_delta = table.xor_sum(key_cells) ^ assistant.value(key)
    if v_delta == 0:
        return UpdatePlan(path=set(), v_delta=0, steps=0)

    path: Set[Cell] = set()

    def check_consistent(current: int, cells: Tuple[Cell, ...]) -> bool:
        value = table.xor_sum(cells)
        toggled = sum(1 for cell in cells if cell in path)
        if toggled % 2:
            value ^= v_delta
        return value == assistant.value(current)

    def modify(cell: Cell) -> None:
        path.symmetric_difference_update({cell})

    if hooks is not None:
        hooks.on_walk_start(key, attempt, max_steps)
    try:
        steps = _run_repair_walk(
            check_consistent, modify, assistant, key, strategy,
            space_efficiency, max_steps, hooks,
        )
    except UpdateFailure as failure:
        if hooks is not None:
            hooks.on_walk_end(key, False, failure.steps)
        raise
    if hooks is not None:
        hooks.on_walk_end(key, True, steps)
    return UpdatePlan(path=path, v_delta=v_delta, steps=steps)


def search_update_path(
    table: ValueTable,
    assistant: AssistantTable,
    key: int,
    strategy: UpdateStrategy,
    space_efficiency: float,
    max_steps: int,
    max_attempts: int = 1,
    rng: Optional[random.Random] = None,
    hooks=None,
) -> UpdatePlan:
    """:func:`find_update_path` with randomised retries on a stuck walk.

    Attempt 0 is the deterministic strategy with the base step budget;
    later attempts use the strategy's :meth:`~UpdateStrategy.retry_variant`
    (randomised tie-breaking + ε-greedy exploration for vision) and a 3×
    budget. Raises :class:`UpdateFailure` carrying the total steps spent if
    every attempt fails. ``hooks`` sees each attempt as its own
    walk-start/walk-end pair, labelled with the attempt number.
    """
    if rng is None:
        rng = random.Random(0)
    total_steps = 0
    for attempt in range(max(1, max_attempts)):
        if attempt == 0:
            attempt_strategy = strategy
            budget = max_steps
        else:
            attempt_strategy = strategy.retry_variant(attempt, rng)
            budget = max_steps * 3
        try:
            plan = find_update_path(
                table, assistant, key, attempt_strategy,
                space_efficiency, budget,
                hooks=hooks, attempt=attempt,
            )
        except UpdateFailure as failure:
            total_steps += failure.steps
            continue
        plan.steps += total_steps
        return plan
    raise UpdateFailure(
        f"no repair path within {max_attempts} search attempts",
        steps=total_steps,
    )


def make_strategy(
    name: str,
    depth_policy: Optional[DepthPolicy] = None,
    rng: Optional[random.Random] = None,
) -> UpdateStrategy:
    """Build a strategy by config name (``"vision"`` or ``"simple"``)."""
    if name == "vision":
        return VisionStrategy(depth_policy)
    if name == "simple":
        return SimpleStrategy(rng)
    raise ValueError(f"unknown strategy {name!r}")
