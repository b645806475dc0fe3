"""Operational counters shared by every table implementation.

The experiment drivers read these to reproduce the paper's failure-frequency
(Fig 4) and reconstruction-time-excluded throughput (Fig 6) results; the
batch counters track the vectorised write pipeline.

Since the observability layer landed, :class:`TableStats` is a **thin view
over a metrics registry** (:class:`repro.obs.registry.MetricsRegistry`):
each named field is a property reading/writing a registered counter (or,
for ``largest_batch``, a gauge), so ``table.stats.updates`` and the
``repro_updates_total`` sample of an exported registry are the same number
by construction. The attribute API — ``stats.updates += 1``, keyword
construction, ``snapshot()``, ``reset()`` — is unchanged; hot paths that
bump a counter per write hold the :class:`~repro.obs.registry.Counter`
object directly (see ``VisionEmbedder``) and pay exactly the old
attribute-increment cost.

``note_batch`` additionally feeds the ``repro_batch_size`` histogram, and
tracing hooks (``repro.obs.hooks.MetricsHooks``) add the walk/kick/
reconstruction histograms into the *same* registry when enabled, so one
export covers everything. See docs/observability.md for the catalogue.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.registry import BATCH_SIZE_BUCKETS, Counter, MetricsRegistry

#: attribute -> (metric name, kind, help text, unit). The metric names are
#: the public export contract (docs/observability.md catalogues them).
STAT_FIELDS = {
    "updates": (
        "repro_updates_total", "counter",
        "Successful dynamic updates (inserts + value modifications)", "",
    ),
    "update_failures": (
        "repro_update_failures_total", "counter",
        "Updates that exhausted the repair budget (Fig 4)", "",
    ),
    "reconstructions": (
        "repro_reconstructions_total", "counter",
        "Full reseed-and-rebuild passes (each attempt counts once)", "",
    ),
    "repair_steps": (
        "repro_repair_steps_total", "counter",
        "Total repair-walk steps across all updates", "steps",
    ),
    "reconstruct_seconds": (
        "repro_reconstruct_seconds_total", "counter",
        "Wall-clock time spent inside reconstruction (Figs 5 vs 6)",
        "seconds",
    ),
    "cost_cache_hits": (
        "repro_cost_cache_hits_total", "counter",
        "Always 0: GetCost has no memo cache; kept for existing readers", "",
    ),
    "cost_cache_misses": (
        "repro_cost_cache_misses_total", "counter",
        "Always 0: GetCost has no memo cache; kept for existing readers", "",
    ),
    "batch_inserts": (
        "repro_batch_inserts_total", "counter",
        "Calls to the batched write path", "",
    ),
    "batch_keys": (
        "repro_batch_keys_total", "counter",
        "Keys routed through the batched write path", "",
    ),
    "largest_batch": (
        "repro_largest_batch", "gauge",
        "Largest single batch seen by the batched write path", "",
    ),
}


class TableStats:
    """Counters a table accumulates over its lifetime.

    Attributes
    ----------
    updates:
        Successful dynamic updates (inserts + value modifications).
    update_failures:
        Updates that exhausted the repair budget (or, for the two-hash
        baselines, hit an unsolvable cycle/collision).
    reconstructions:
        Full rebuild passes performed (each reseed-and-reinsert attempt
        counts once — this is what Fig 4 reports).
    repair_steps:
        Total repair recursions across all updates (amortised-cost metric).
    reconstruct_seconds:
        Wall-clock time spent inside reconstruction, so throughput can be
        reported with and without it (Figs 5 vs 6).
    cost_cache_hits / cost_cache_misses:
        Always 0. GetCost runs without a memo cache; the fields remain
        only because existing benchmark readers still look them up.
    batch_inserts / batch_keys / largest_batch:
        Calls to the batched write path, total keys routed through it, and
        the biggest single batch seen.

    Every field is backed by a metric in :attr:`registry`; pass an existing
    registry to share one (e.g. for aggregate process metrics), else each
    instance gets its own.
    """

    __slots__ = ("_registry", "_metrics", "_batch_size")

    def __init__(self, registry: Optional[MetricsRegistry] = None, **initial):
        self._registry = registry if registry is not None else MetricsRegistry()
        metrics = {}
        for attr, (name, kind, help_text, unit) in STAT_FIELDS.items():
            if kind == "counter":
                metrics[attr] = self._registry.counter(name, help_text, unit)
            else:
                metrics[attr] = self._registry.gauge(name, help_text, unit)
        self._metrics = metrics
        self._batch_size = self._registry.histogram(
            "repro_batch_size", BATCH_SIZE_BUCKETS,
            help="Keys per batched write", unit="keys",
        )
        for attr, value in initial.items():
            if attr not in STAT_FIELDS:
                raise TypeError(
                    f"TableStats got an unexpected keyword {attr!r}"
                )
            setattr(self, attr, value)

    # -- registry surface ----------------------------------------------

    @property
    def registry(self) -> MetricsRegistry:
        """The backing metrics registry (export with ``repro.obs``)."""
        return self._registry

    def counter_for(self, attr: str) -> Counter:
        """The raw metric behind ``attr`` — for hot paths that increment
        it directly (``counter.value += 1``) under single-writer rules."""
        return self._metrics[attr]

    # -- legacy counter API ---------------------------------------------

    def note_batch(self, size: int) -> None:
        """Record one batched write of ``size`` keys."""
        self.batch_inserts += 1
        self.batch_keys += size
        if size > self.largest_batch:
            self.largest_batch = size
        self._batch_size.observe(size)

    def snapshot(self) -> "TableStats":
        """An independent copy of the current counters."""
        return TableStats(
            **{attr: getattr(self, attr) for attr in STAT_FIELDS}
        )

    def reset(self) -> None:
        """Zero all counters (and every other metric in the registry)."""
        self._registry.reset()

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{attr}={getattr(self, attr)}" for attr in STAT_FIELDS
        )
        return f"TableStats({fields})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, TableStats):
            return NotImplemented
        return all(
            getattr(self, attr) == getattr(other, attr)
            for attr in STAT_FIELDS
        )


def _stat_property(attr: str) -> property:
    def fget(self):
        return self._metrics[attr].value

    def fset(self, value):
        self._metrics[attr].value = value

    doc = STAT_FIELDS[attr][2]
    return property(fget, fset, doc=doc)


for _attr in STAT_FIELDS:
    setattr(TableStats, _attr, _stat_property(_attr))
del _attr
