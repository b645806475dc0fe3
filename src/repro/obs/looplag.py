"""Event-loop lag monitoring: the dynamic counterpart of rule R601.

The static R6xx rules prove no *known* blocking call reaches the serve
loop; :class:`LoopLagMonitor` measures the residue they cannot see —
C-extension stalls, GC pauses, an over-large numpy batch executing
inline. The technique is the classic sentinel timer: schedule a sleep of
``interval_s`` and measure how late the wakeup actually fires. On an
idle, healthy loop the lag is microseconds; anything that blocks the
loop for longer than the interval shows up, attributed and bounded, in
the ``repro_serve_loop_lag_seconds`` histogram.

The monitor is pure asyncio + :mod:`repro.obs` (this package imports
nothing from the rest of ``repro``), so the serve layer, tests, and the
bench harness all share one implementation:

- :class:`~repro.serve.server.TableServer` installs one per server and
  exposes the p99 through ``stats`` and the metrics sidecars.
- ``tests/test_serve.py`` asserts the p99 stays under budget while a
  batched CRUD workload runs — a *runtime* proof that batch execution
  never monopolises the loop.
- ``benchmarks/bench_serve.py --check`` cross-validates the exported
  sidecar histogram against the monitor's live counts.
"""

from __future__ import annotations

import asyncio
from typing import Optional, Tuple, Union

from repro.obs.registry import Histogram, MetricsRegistry

__all__ = ["LOOP_LAG_SECONDS_BUCKETS", "LoopLagMonitor"]

#: Bucket bounds for loop-lag histograms: scheduling noise lives under
#: 1 ms, a healthy micro-batch drain under ~5 ms, and anything beyond
#: 100 ms means a blocking call defeated the R601 analysis.
LOOP_LAG_SECONDS_BUCKETS: Tuple[Union[int, float], ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 1.0,
)


class LoopLagMonitor:
    """Samples event-loop scheduling lag into a registry histogram.

    ``interval_s`` is both the sampling period and the sensitivity floor:
    a stall shorter than the interval can fall between two sentinels.
    5 ms (the default) is on the order of one full 1024-key served
    batch's execution, so any batch execution that would delay a *peer*
    request is observable.

    Lifecycle mirrors the micro-batcher: construct eagerly (the histogram
    registers immediately, so exports are stable even before ``start``),
    ``start()`` inside the running loop, ``await stop()`` on shutdown.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        interval_s: float = 0.005,
        name: str = "repro_serve_loop_lag_seconds",
    ) -> None:
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        self.interval_s = float(interval_s)
        self.histogram: Histogram = registry.histogram(
            name, LOOP_LAG_SECONDS_BUCKETS,
            help="Observed event-loop scheduling lag of a sentinel timer",
            unit="seconds",
        )
        self._task: Optional[asyncio.Task[None]] = None

    # -- lifecycle ------------------------------------------------------

    def start(self) -> None:
        """Begin sampling on the *running* loop (idempotent)."""
        if self._task is not None and not self._task.done():
            return
        self._task = asyncio.get_running_loop().create_task(
            self._tick(), name="repro-serve-loop-lag"
        )

    async def stop(self) -> None:
        """Cancel the sentinel task and wait for it to unwind."""
        if self._task is None:
            return
        self._task.cancel()
        try:
            await self._task
        except asyncio.CancelledError:
            pass
        self._task = None

    @property
    def running(self) -> bool:
        return self._task is not None and not self._task.done()

    async def _tick(self) -> None:
        loop = asyncio.get_running_loop()
        interval = self.interval_s
        target = loop.time() + interval
        while True:
            await asyncio.sleep(max(0.0, target - loop.time()))
            now = loop.time()
            self.histogram.observe(max(0.0, now - target))
            # Re-anchor on *now*: after a long stall we want one honest
            # large sample, not a burst of catch-up sentinels.
            target = now + interval

    # -- readouts -------------------------------------------------------

    @property
    def samples(self) -> int:
        """Sentinel wakeups observed so far."""
        return self.histogram.count

    def p99_s(self) -> float:
        """Estimated 99th-percentile lag in seconds (0.0 if unsampled)."""
        if self.histogram.count == 0:
            return 0.0
        return self.histogram.quantile(0.99)
