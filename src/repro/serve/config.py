"""Configuration for the serving layer (:mod:`repro.serve`).

One frozen dataclass covers the whole operator surface — the micro-batch
shape, the admission-control bound, and the network/socket knobs — so a
deployment is reproducible from its config repr. docs/serving.md is the
operations guide; every field is documented there with sizing advice.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class ServeConfig:
    """Tunables for :class:`repro.serve.TableServer`.

    Attributes
    ----------
    host / port:
        Listen address. ``port=0`` binds an ephemeral port (the server
        reports the real one as ``server.port`` once started) — the tests,
        docs fences, and the benchmark all rely on this.
    max_batch:
        The most key-operations one flush takes. The micro-batcher
        flushes whatever is queued as soon as the previous batch is done
        (group commit), so this bounds the numpy working set per table
        call, not a wait; one oversized request still flushes alone
        rather than being rejected.
    max_queue:
        Admission control: the maximum number of queued key-operations.
        A request that would push the queue past this bound is *shed* —
        rejected with HTTP 429 / ``overloaded`` before any of it executes
        — so queueing delay stays bounded under overload instead of
        growing without limit.
    drain_timeout_s:
        Graceful-shutdown budget: how long ``stop()`` waits for queued
        batches to execute before cancelling the flush loop outright.
    max_body_bytes:
        Largest accepted request body (HTTP 413 beyond it) — a bound on
        per-request memory, not on batch size.
    loop_lag_interval_ms:
        Sampling period of the :class:`repro.obs.LoopLagMonitor` the
        server installs (the ``repro_serve_loop_lag_seconds`` histogram).
        It is also the sensitivity floor — stalls shorter than the
        interval may fall between sentinels — so keep it at or below
        the expected execution time of a full batch.
        ``0`` disables the monitor entirely (the histogram still
        registers, empty, so exports keep a stable schema).
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_batch: int = 1024
    max_queue: int = 8192
    drain_timeout_s: float = 5.0
    max_body_bytes: int = 8 * 1024 * 1024
    loop_lag_interval_ms: float = 5.0

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if self.max_queue < self.max_batch:
            raise ValueError("max_queue must be >= max_batch")
        if self.drain_timeout_s < 0:
            raise ValueError("drain_timeout_s must be >= 0")
        if self.max_body_bytes < 1:
            raise ValueError("max_body_bytes must be >= 1")
        if self.loop_lag_interval_ms < 0:
            raise ValueError("loop_lag_interval_ms must be >= 0")

    def unbatched(self) -> "ServeConfig":
        """This config with micro-batching off: ``max_batch=1``, so every
        flush takes exactly one request (the batcher never splits a
        request, so one key-op of budget means one-request batches).
        Admission control keeps its bound. The benchmark's per-request
        baseline leg — and a debugging escape hatch."""
        return replace(self, max_batch=1)
