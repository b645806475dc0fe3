"""Tracing hooks for the repair walk, reconstruction, and the static peel.

The write path (:mod:`repro.core.update`, :mod:`repro.core.embedder`,
:mod:`repro.core.static_build`) carries an optional ``hooks`` object and
fires one method per event:

- ``on_walk_start(key, attempt, budget)`` — a repair-walk attempt begins
  (``attempt`` 0 is the deterministic search; retries count up).
- ``on_kick(key, cell, stack_depth)`` — the walk modified ``cell`` while
  repairing ``key``; ``stack_depth`` is the pending work-stack size after
  re-queueing the cell's other keys (the cuckoo "kick" analogue).
- ``on_walk_end(key, success, steps)`` — the attempt quiesced (``True``)
  or exhausted its step budget (``False``) after ``steps`` repair steps.
- ``on_reconstruct(seed, method, seconds, success)`` — a
  :meth:`~repro.core.embedder.VisionEmbedder.reconstruct` call finished;
  ``seed`` is the new master seed, ``method`` ``"dynamic"``/``"static"``.
- ``on_peel_round(round_index, peeled)`` — one round of the vectorised
  static peel retired ``peeled`` keys (bulk loads and static rebuilds).

**Zero cost when disabled** means exactly this: with no hooks attached
(the default) every call site is a single ``hooks is not None`` test and
nothing else — no event objects, no indirection. A no-op walk therefore
times identically with and without the observability layer present.

Implementations provided here:

- :class:`WalkHooks` — the no-op base; subclass and override what you
  need (the write path duck-types, so any object with the right methods
  works too).
- :class:`MetricsHooks` — feeds the standard histograms of a
  :class:`~repro.obs.registry.MetricsRegistry` (walk length, kick depth,
  reconstruction duration) plus per-attempt walk counters.
- :class:`WalkTraceRecorder` — a bounded ring buffer of
  :class:`WalkTrace` records for post-mortem inspection of failed walks.
- :class:`CompositeHooks` — fan out one event stream to several hooks.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, List, Optional, Sequence, Tuple

from repro.obs.registry import (
    KICK_DEPTH_BUCKETS,
    RECONSTRUCT_SECONDS_BUCKETS,
    SUBTREE_BUCKETS,
    WALK_STEP_BUCKETS,
    Histogram,
    MetricsRegistry,
)

Cell = Tuple[int, int]


class WalkHooks:
    """No-op base class defining the hook surface."""

    def on_walk_start(self, key: int, attempt: int, budget: int) -> None:
        """A repair-walk attempt for ``key`` begins."""

    def on_kick(self, key: int, cell: Cell, stack_depth: int) -> None:
        """The walk toggled ``cell`` while repairing ``key``."""

    def on_walk_end(self, key: int, success: bool, steps: int) -> None:
        """The attempt ended after ``steps`` steps."""

    def on_reconstruct(self, seed: int, method: str, seconds: float,
                       success: bool) -> None:
        """A reconstruction pass finished (new master seed ``seed``)."""

    def on_peel_round(self, round_index: int, peeled: int) -> None:
        """A static-peel round retired ``peeled`` keys."""


class MetricsHooks(WalkHooks):
    """Feed walk/reconstruction events into a metrics registry.

    Registers (get-or-create) the standard instruments — sharing the
    registry of the table's :class:`~repro.core.stats.TableStats` puts the
    legacy counters and these histograms in one exportable place:

    - ``repro_walk_steps`` (histogram) — steps per walk attempt, the
      paper's repair-walk-length distribution (Fig 5/6 driver metric).
    - ``repro_kick_depth`` (histogram) — work-stack depth at each kick.
    - ``repro_reconstruct_duration_seconds`` (histogram) — wall time per
      ``reconstruct()`` call (§IV-C).
    - ``repro_getcost_subtree_cells`` (histogram) — buckets read by the
      GetCost of each evaluated candidate cell; attach via
      :meth:`VisionEmbedder.set_hooks`, which hands :attr:`subtree_histogram`
      to the vision strategy.
    - ``repro_walk_attempts_total`` / ``repro_walk_attempt_failures_total``
      (counters) — per-*attempt* tallies; note an update only counts as
      failed in ``TableStats`` after every retry fails.
    - ``repro_peel_rounds_total`` / ``repro_peeled_keys_total`` (counters)
      — static-peel progress.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        reg = self.registry
        self.walk_steps = reg.histogram(
            "repro_walk_steps", WALK_STEP_BUCKETS,
            help="Repair steps per walk attempt", unit="steps",
        )
        self.kick_depth = reg.histogram(
            "repro_kick_depth", KICK_DEPTH_BUCKETS,
            help="Pending work-stack depth at each kick", unit="keys",
        )
        self.reconstruct_duration = reg.histogram(
            "repro_reconstruct_duration_seconds",
            RECONSTRUCT_SECONDS_BUCKETS,
            help="Wall time per reconstruct() call", unit="seconds",
        )
        self.subtree_histogram = reg.histogram(
            "repro_getcost_subtree_cells", SUBTREE_BUCKETS,
            help="Buckets read by one candidate cell's GetCost",
            unit="cells",
        )
        self.walk_attempts = reg.counter(
            "repro_walk_attempts_total",
            help="Repair-walk attempts (retries count separately)",
        )
        self.walk_attempt_failures = reg.counter(
            "repro_walk_attempt_failures_total",
            help="Walk attempts that exhausted their step budget",
        )
        self.peel_rounds = reg.counter(
            "repro_peel_rounds_total",
            help="Vectorised static-peel rounds executed",
        )
        self.peeled_keys = reg.counter(
            "repro_peeled_keys_total",
            help="Keys retired by the static peel",
        )

    def on_walk_start(self, key: int, attempt: int, budget: int) -> None:
        self.walk_attempts.inc()

    def on_kick(self, key: int, cell: Cell, stack_depth: int) -> None:
        self.kick_depth.observe(stack_depth)

    def on_walk_end(self, key: int, success: bool, steps: int) -> None:
        self.walk_steps.observe(steps)
        if not success:
            self.walk_attempt_failures.inc()

    def on_reconstruct(self, seed: int, method: str, seconds: float,
                       success: bool) -> None:
        self.reconstruct_duration.observe(seconds)

    def on_peel_round(self, round_index: int, peeled: int) -> None:
        self.peel_rounds.inc()
        self.peeled_keys.inc(peeled)


@dataclass
class WalkTrace:
    """One recorded repair-walk attempt.

    ``kicks`` lists ``(cell, stack_depth)`` in modification order —
    enough to replay which buckets a stuck walk was cycling through.
    ``success`` is ``None`` while the walk is still in flight.
    """

    key: int
    attempt: int
    budget: int
    kicks: List[Tuple[Cell, int]] = field(default_factory=list)
    steps: int = 0
    success: Optional[bool] = None

    def describe(self) -> str:
        """A compact multi-line rendering for post-mortem reading."""
        state = {True: "ok", False: "FAILED", None: "in-flight"}[self.success]
        lines = [
            f"walk key={self.key} attempt={self.attempt} "
            f"budget={self.budget} steps={self.steps} [{state}]"
        ]
        for i, (cell, depth) in enumerate(self.kicks):
            lines.append(f"  kick {i:3d}: cell={cell} stack_depth={depth}")
        return "\n".join(lines)


class WalkTraceRecorder(WalkHooks):
    """Ring buffer of walk traces (``capacity`` most recent).

    ``keep="failed"`` (the default) retains only attempts that exhausted
    their budget — the post-mortem case: near full occupancy a failed
    walk's kick sequence shows the cycling cluster of buckets (see the
    worked example in docs/observability.md). ``keep="all"`` records
    every attempt.
    """

    def __init__(self, capacity: int = 256, keep: str = "failed") -> None:
        if keep not in ("failed", "all"):
            raise ValueError("keep must be 'failed' or 'all'")
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.keep = keep
        self._traces: Deque[WalkTrace] = deque(maxlen=capacity)
        self._current: Optional[WalkTrace] = None
        self._lock = threading.Lock()

    def on_walk_start(self, key: int, attempt: int, budget: int) -> None:
        self._current = WalkTrace(key=key, attempt=attempt, budget=budget)

    def on_kick(self, key: int, cell: Cell, stack_depth: int) -> None:
        if self._current is not None:
            self._current.kicks.append((cell, stack_depth))

    def on_walk_end(self, key: int, success: bool, steps: int) -> None:
        trace = self._current
        self._current = None
        if trace is None:
            return
        trace.success = success
        trace.steps = steps
        if success and self.keep == "failed":
            return
        with self._lock:
            self._traces.append(trace)

    def traces(self) -> List[WalkTrace]:
        """Recorded traces, oldest first."""
        with self._lock:
            return list(self._traces)

    def failed(self) -> List[WalkTrace]:
        """Only the failed attempts among the recorded traces."""
        return [t for t in self.traces() if t.success is False]

    def last(self) -> Optional[WalkTrace]:
        with self._lock:
            return self._traces[-1] if self._traces else None

    def clear(self) -> None:
        with self._lock:
            self._traces.clear()
        self._current = None

    def __len__(self) -> int:
        with self._lock:
            return len(self._traces)


class CompositeHooks(WalkHooks):
    """Fan one event stream out to several hook objects in order.

    Exposes ``subtree_histogram`` from the first child that has one, so a
    composite of :class:`MetricsHooks` + :class:`WalkTraceRecorder` still
    wires the GetCost histogram into the vision strategy.
    """

    def __init__(self, *hooks: WalkHooks) -> None:
        self.hooks: Sequence[WalkHooks] = tuple(hooks)

    @property
    def subtree_histogram(self) -> Optional[Histogram]:
        for hook in self.hooks:
            histogram = getattr(hook, "subtree_histogram", None)
            if isinstance(histogram, Histogram):
                return histogram
        return None

    def on_walk_start(self, key: int, attempt: int, budget: int) -> None:
        for hook in self.hooks:
            hook.on_walk_start(key, attempt, budget)

    def on_kick(self, key: int, cell: Cell, stack_depth: int) -> None:
        for hook in self.hooks:
            hook.on_kick(key, cell, stack_depth)

    def on_walk_end(self, key: int, success: bool, steps: int) -> None:
        for hook in self.hooks:
            hook.on_walk_end(key, success, steps)

    def on_reconstruct(self, seed: int, method: str, seconds: float,
                       success: bool) -> None:
        for hook in self.hooks:
            hook.on_reconstruct(seed, method, seconds, success)

    def on_peel_round(self, round_index: int, peeled: int) -> None:
        for hook in self.hooks:
            hook.on_peel_round(round_index, peeled)


# ---------------------------------------------------------------------------
# Process-wide default: benchmark runs flip this on to instrument every
# table they build without threading a parameter through every driver.
# ---------------------------------------------------------------------------

_DEFAULT_METRICS = False
_DEFAULT_LOCK = threading.Lock()


def enable_default_metrics(enabled: bool = True) -> None:
    """Make every subsequently-built ``VisionEmbedder`` attach
    :class:`MetricsHooks` over its own stats registry (until disabled)."""
    global _DEFAULT_METRICS
    with _DEFAULT_LOCK:
        _DEFAULT_METRICS = enabled


def default_metrics_enabled() -> bool:
    return _DEFAULT_METRICS


class default_metrics:
    """Context manager form of :func:`enable_default_metrics` (re-entrant
    only in the trivial sense: restores the previous flag on exit)."""

    def __init__(self, enabled: bool = True) -> None:
        self._enabled = enabled
        self._previous = False

    def __enter__(self) -> "default_metrics":
        global _DEFAULT_METRICS
        with _DEFAULT_LOCK:
            self._previous = _DEFAULT_METRICS
            _DEFAULT_METRICS = self._enabled
        return self

    def __exit__(self, *exc: object) -> bool:
        global _DEFAULT_METRICS
        with _DEFAULT_LOCK:
            _DEFAULT_METRICS = self._previous
        return False
