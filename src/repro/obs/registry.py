"""Metrics primitives: counters, gauges, fixed-bucket histograms.

The registry is the substrate of the observability layer (see
``docs/observability.md``): every :class:`~repro.core.stats.TableStats`
owns one, the tracing hooks feed histograms into it, and the exporters in
:mod:`repro.obs.exporters` serialise it as Prometheus text or a JSON
snapshot.

Design constraints, in order:

1. **Zero cost when unused.** Creating a registry allocates a handful of
   tiny objects and nothing else; a counter is one Python object with a
   plain ``value`` attribute, so the single-writer hot path (the repair
   walk, which is always serialised — by construction in
   :class:`~repro.core.embedder.VisionEmbedder`, by the update mutex in
   the concurrent wrapper) can do ``counter.value += 1`` exactly as
   cheaply as the old dataclass field it replaces.
2. **Thread-safe when shared.** The *methods* (``Counter.inc``,
   ``Gauge.set``, ``Histogram.observe``, registry get-or-create) take the
   registry's lock, so hooks and scrapers running on other threads see
   consistent totals. Multi-threaded writers must use the methods, not
   the raw ``value`` attribute.
3. **Aggregatable.** Registries of many tables merge by metric name
   (counters sum, gauges take the max, histograms with identical bounds
   add bucket-wise), which is how a benchmark run emits one sidecar for
   every table it built — see :class:`RegistryCollector`.
"""

from __future__ import annotations

import bisect
import re
import threading
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

Number = Union[int, float]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")

#: Default bucket upper bounds for the standard histograms (the implicit
#: ``+Inf`` bucket is always appended). Catalogued in docs/observability.md.
WALK_STEP_BUCKETS: Tuple[Number, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)
KICK_DEPTH_BUCKETS: Tuple[Number, ...] = (0, 1, 2, 4, 8, 16, 32, 64)
SUBTREE_BUCKETS: Tuple[Number, ...] = (1, 2, 4, 8, 16, 32, 64, 128)
BATCH_SIZE_BUCKETS: Tuple[Number, ...] = (1, 8, 64, 512, 4096, 32768)
RECONSTRUCT_SECONDS_BUCKETS: Tuple[Number, ...] = (
    0.001, 0.01, 0.1, 1.0, 10.0, 60.0,
)
#: Request-latency bounds for the serving layer (repro.serve): sub-ms
#: resolution around a small request's service time, tailing off at
#: multi-second outliers so a stalled drain still lands in a finite bucket.
LATENCY_SECONDS_BUCKETS: Tuple[Number, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 10.0,
)


class Counter:
    """A monotonically-growing total (float-valued for second counters).

    ``inc`` is the thread-safe entry point; the bare ``value`` attribute is
    reserved for single-writer hot paths and for the ``TableStats``
    property view, which is only ever mutated under the owning table's
    serialisation.
    """

    __slots__ = ("name", "help", "unit", "value", "_lock")

    kind = "counter"

    def __init__(self, name: str, help: str = "", unit: str = "",
                 lock: Optional[threading.Lock] = None):
        self.name = name
        self.help = help
        self.unit = unit
        self.value: Number = 0
        self._lock = lock if lock is not None else threading.Lock()

    def inc(self, amount: Number = 1) -> None:
        """Atomically add ``amount`` (must be >= 0)."""
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self.value += amount


class Gauge:
    """A point-in-time value (e.g. the largest batch seen)."""

    __slots__ = ("name", "help", "unit", "value", "_lock")

    kind = "gauge"

    def __init__(self, name: str, help: str = "", unit: str = "",
                 lock: Optional[threading.Lock] = None):
        self.name = name
        self.help = help
        self.unit = unit
        self.value: Number = 0
        self._lock = lock if lock is not None else threading.Lock()

    def set(self, value: Number) -> None:
        with self._lock:
            self.value = value

    def set_max(self, value: Number) -> None:
        """Keep the running maximum of observed values."""
        with self._lock:
            if value > self.value:
                self.value = value


class Histogram:
    """Fixed-bucket histogram with Prometheus-compatible semantics.

    ``bounds`` are the inclusive upper edges of the finite buckets, in
    strictly increasing order; an implicit ``+Inf`` bucket catches the
    rest. ``counts`` holds *per-bucket* (non-cumulative) tallies with one
    extra slot for ``+Inf``; exporters derive the cumulative ``le`` series.
    """

    __slots__ = ("name", "help", "unit", "bounds", "counts", "count", "sum",
                 "_lock")

    kind = "histogram"

    def __init__(self, name: str, bounds: Sequence[Number],
                 help: str = "", unit: str = "",
                 lock: Optional[threading.Lock] = None):
        if not bounds:
            raise ValueError("histogram needs at least one finite bucket")
        bound_list = [float(b) for b in bounds]
        if any(b >= c for b, c in zip(bound_list, bound_list[1:])):
            raise ValueError("histogram bounds must strictly increase")
        self.name = name
        self.help = help
        self.unit = unit
        self.bounds: Tuple[float, ...] = tuple(bound_list)
        self.counts: List[int] = [0] * (len(bound_list) + 1)
        self.count = 0
        self.sum: Number = 0
        self._lock = lock if lock is not None else threading.Lock()

    def bucket_for(self, value: Number) -> int:
        """Index of the bucket ``value`` falls into (len(bounds) = +Inf)."""
        return bisect.bisect_left(self.bounds, float(value))

    def observe(self, value: Number) -> None:
        """Record one sample."""
        index = bisect.bisect_left(self.bounds, float(value))
        with self._lock:
            self.counts[index] += 1
            self.count += 1
            self.sum += value

    def cumulative(self) -> List[Tuple[float, int]]:
        """``[(upper_bound, cumulative_count), ...]`` ending at ``+Inf``."""
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, count in zip(self.bounds, self.counts):
            running += count
            out.append((bound, running))
        out.append((float("inf"), running + self.counts[-1]))
        return out

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (0..1) from the bucket tallies.

        Prometheus ``histogram_quantile`` semantics: find the bucket the
        target rank falls into, then interpolate linearly inside it (the
        first bucket interpolates from 0). A rank landing in the ``+Inf``
        bucket returns the largest finite bound — the estimate is then a
        lower bound, which is the conservative direction for latency
        gates. Raises ``ValueError`` on an empty histogram.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        with self._lock:
            total = self.count
            counts = list(self.counts)
        if total == 0:
            raise ValueError(f"histogram {self.name!r} is empty")
        rank = q * total
        running = 0.0
        for index, count in enumerate(counts[:-1]):
            if running + count >= rank and count > 0:
                lower = self.bounds[index - 1] if index else 0.0
                upper = self.bounds[index]
                fraction = (rank - running) / count
                return lower + (upper - lower) * max(0.0, min(1.0, fraction))
            running += count
        return self.bounds[-1]


Metric = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """A named collection of metrics with get-or-create registration.

    ``counter``/``gauge``/``histogram`` return the existing metric when the
    name is already registered (the spec must agree) so independent
    components can share one registry without coordination —
    :class:`~repro.core.stats.TableStats` and
    :class:`~repro.obs.hooks.MetricsHooks` do exactly that.
    """

    def __init__(self, collectable: bool = True):
        self._metrics: Dict[str, Metric] = {}
        self._lock = threading.Lock()
        if collectable:
            _register_with_collectors(self)

    # -- registration ---------------------------------------------------

    def _get_or_create(self, cls, name: str, help: str, unit: str,
                       **kwargs) -> Metric:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise TypeError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}, not {cls.kind}"
                    )
                bounds = kwargs.get("bounds")
                if bounds is not None and existing.bounds != tuple(
                    float(b) for b in bounds
                ):
                    raise ValueError(
                        f"histogram {name!r} already registered with "
                        f"different buckets"
                    )
                return existing
            metric = cls(name, help=help, unit=unit, lock=self._lock,
                         **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "", unit: str = "") -> Counter:
        return self._get_or_create(Counter, name, help, unit)

    def gauge(self, name: str, help: str = "", unit: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help, unit)

    def histogram(self, name: str, bounds: Sequence[Number],
                  help: str = "", unit: str = "") -> Histogram:
        return self._get_or_create(Histogram, name, help, unit,
                                   bounds=bounds)

    # -- access ---------------------------------------------------------

    def get(self, name: str) -> Optional[Metric]:
        with self._lock:
            return self._metrics.get(name)

    def metrics(self) -> List[Metric]:
        """All metrics in registration order (a stable snapshot list)."""
        with self._lock:
            return list(self._metrics.values())

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._metrics

    def __len__(self) -> int:
        with self._lock:
            return len(self._metrics)

    def reset(self) -> None:
        """Zero every metric (counters, gauges, histogram tallies)."""
        with self._lock:
            for metric in self._metrics.values():
                if isinstance(metric, Histogram):
                    metric.counts = [0] * len(metric.counts)
                    metric.count = 0
                    metric.sum = 0
                else:
                    metric.value = 0

    # -- aggregation ----------------------------------------------------

    def merge_from(self, other: "MetricsRegistry") -> None:
        """Fold ``other`` into this registry by metric name.

        Counters add, gauges keep the maximum, histograms (same bounds
        required) add bucket-wise. Metrics new to this registry are copied
        with the same spec.
        """
        for metric in other.metrics():
            if isinstance(metric, Counter):
                self.counter(metric.name, metric.help, metric.unit).inc(
                    metric.value
                )
            elif isinstance(metric, Gauge):
                self.gauge(metric.name, metric.help, metric.unit).set_max(
                    metric.value
                )
            else:
                mine = self.histogram(metric.name, metric.bounds,
                                      metric.help, metric.unit)
                with mine._lock:
                    for i, count in enumerate(metric.counts):
                        mine.counts[i] += count
                    mine.count += metric.count
                    mine.sum += metric.sum


def aggregate(registries: Iterable[MetricsRegistry]) -> MetricsRegistry:
    """Merge many registries into one fresh (non-collectable) registry."""
    merged = MetricsRegistry(collectable=False)
    for registry in registries:
        merged.merge_from(registry)
    return merged


# ---------------------------------------------------------------------------
# Collection: gather every registry created inside a scope
# ---------------------------------------------------------------------------

_COLLECTORS: List["RegistryCollector"] = []
_COLLECTORS_LOCK = threading.Lock()


def _register_with_collectors(registry: MetricsRegistry) -> None:
    with _COLLECTORS_LOCK:
        for collector in _COLLECTORS:
            collector._add(registry)


class RegistryCollector:
    """Context manager that captures every registry created inside it.

    Benchmark drivers create tables (and therefore registries) internally;
    a collector around the run keeps a strong reference to each one so the
    run can be summarised after the tables themselves are gone::

        with RegistryCollector() as collector:
            run_experiment("fig4")
        combined = collector.aggregate()

    Nesting is fine — every active collector sees every new registry.
    """

    #: set by :func:`repro.bench.harness.metrics_sidecar` after exit —
    #: the (json, prom) paths the aggregated run was written to.
    sidecar_paths: Tuple[str, str]

    def __init__(self) -> None:
        self._registries: List[MetricsRegistry] = []
        self._lock = threading.Lock()

    def _add(self, registry: MetricsRegistry) -> None:
        with self._lock:
            self._registries.append(registry)

    def registries(self) -> List[MetricsRegistry]:
        with self._lock:
            return list(self._registries)

    def aggregate(self) -> MetricsRegistry:
        """One merged registry over everything captured so far."""
        return aggregate(self.registries())

    def __enter__(self) -> "RegistryCollector":
        with _COLLECTORS_LOCK:
            _COLLECTORS.append(self)
        return self

    def __exit__(self, *exc: object) -> bool:
        with _COLLECTORS_LOCK:
            try:
                _COLLECTORS.remove(self)
            except ValueError:  # pragma: no cover - double exit
                pass
        return False
