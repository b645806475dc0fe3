"""Micro-batching queue: many awaiting requests, one vectorised table call.

The serving problem this solves: the table's batch primitives
(``lookup_batch``/``insert_batch``) amortise per-call Python overhead over
thousands of keys, but network clients arrive one small request at a time.
:class:`MicroBatcher` funnels concurrent requests into batches by group
commit: the flush loop takes whatever is queued — up to ``max_batch``
key-operations, whole requests only — as soon as the previous batch is
done, and one handler call executes it, scattering each result back to
its awaiting future. Nothing waits on a timer: a lone request flushes on
the next event-loop turn, and requests that arrive while a batch executes
form the next batch, so batches grow with load on their own.

Three properties the server (and the tests) rely on:

- **Order preservation.** Operations execute in arrival order; the
  handler receives them as one list and must process it in order. A
  lookup enqueued after an insert therefore observes that insert, even
  when both land in the same batch.
- **Bounded queue.** Admission control is at ``submit``: an operation
  that would push the queued key-op count past ``max_queue`` raises
  :class:`Overloaded` *before* enqueueing anything — shed work costs one
  exception, not queue space. (One oversized operation is still admitted
  when the queue is empty, so ``max_batch``-sized requests cannot
  deadlock.)
- **Graceful drain.** ``close()`` stops admissions (:class:`BatcherClosed`)
  and executes everything already queued, batch by batch, before
  returning, so an orderly shutdown loses no accepted work.

The batcher is asyncio-single-threaded: the handler runs inline on the
event loop (table calls are synchronous numpy), which is also what makes
it safe to front a non-thread-safe ``VisionEmbedder``— the flush loop is
the single writer.
"""

from __future__ import annotations

import asyncio
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, List, Optional, Sequence

from repro.core.errors import ReproError

__all__ = ["BatchOp", "BatcherClosed", "MicroBatcher", "Overloaded"]


class Overloaded(ReproError):
    """The queue bound would be exceeded — the operation was shed.

    Maps to HTTP 429 on the wire; the client raises it back. The request
    was rejected *before* execution, so retrying after a backoff is safe.
    """


class BatcherClosed(ReproError):
    """The batcher is draining or closed; no new operations are admitted.

    Maps to HTTP 503 on the wire (the server is shutting down).
    """


@dataclass
class BatchOp:
    """One queued operation: a kind tag, its keys/values, and the future
    the caller awaits. ``cost`` (the key count) is what the queue bound
    and the batch budget are measured in."""

    kind: str
    keys: Sequence[Any]
    values: Optional[Sequence[int]] = None
    future: "asyncio.Future[Any]" = field(
        default_factory=lambda: asyncio.get_running_loop().create_future()
    )

    @property
    def cost(self) -> int:
        return len(self.keys)


#: The handler contract: given the batch in arrival order, return one
#: result per op, aligned by position. An ``Exception`` instance as a
#: result marks that single op failed (it is set on the op's future);
#: a raise from the handler fails the whole batch.
BatchHandler = Callable[[List[BatchOp]], List[Any]]


class MicroBatcher:
    """Collect :class:`BatchOp`\\ s and flush them through ``handler``.

    Parameters mirror :class:`repro.serve.config.ServeConfig`:
    ``max_batch`` (the most key-ops one flush takes) and ``max_queue``
    are in key-operations. Create it on a running event loop; the flush
    task starts on the first ``submit``.
    """

    def __init__(
        self,
        handler: BatchHandler,
        max_batch: int = 1024,
        max_queue: int = 8192,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_queue < max_batch:
            raise ValueError("max_queue must be >= max_batch")
        self._handler = handler
        self.max_batch = max_batch
        self.max_queue = max_queue
        self._queue: Deque[BatchOp] = deque()
        self._depth = 0
        self._arrived = asyncio.Event()
        self._closing = False
        self._task: Optional["asyncio.Task[None]"] = None
        # Flush-shape telemetry for the server's gauges/histograms (the
        # batcher itself stays obs-free so it is testable in isolation).
        self.batches_flushed = 0
        self.ops_shed = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def depth(self) -> int:
        """Queued key-operations right now (the queue-depth gauge)."""
        return self._depth

    @property
    def closing(self) -> bool:
        return self._closing

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    async def submit(self, op: BatchOp) -> Any:
        """Queue ``op`` and await its result.

        Raises :class:`Overloaded` when admission control sheds it,
        :class:`BatcherClosed` during shutdown, or whatever per-op error
        the handler assigned.
        """
        if self._closing:
            self.ops_shed += 1
            raise BatcherClosed("server is shutting down")
        if self._queue and self._depth + op.cost > self.max_queue:
            self.ops_shed += 1
            raise Overloaded(
                f"queue depth {self._depth} + {op.cost} exceeds "
                f"bound {self.max_queue}"
            )
        self._ensure_running()
        if op.future.done():  # pragma: no cover - defensive re-submission
            raise ValueError("BatchOp already resolved")
        self._queue.append(op)
        self._depth += op.cost
        self._arrived.set()
        return await op.future

    # ------------------------------------------------------------------
    # Flush loop
    # ------------------------------------------------------------------

    def _ensure_running(self) -> None:
        if self._task is None or self._task.done():
            # The task's lifetime IS owned: close() awaits or cancels it
            # through a local alias, which name-based R602 cannot see.
            self._task = asyncio.get_running_loop().create_task(  # repro: noqa[R602] -- close() awaits/cancels self._task via a local alias; exceptions surface through the drained futures
                self._run(), name="repro-serve-batcher"
            )

    def _take_batch(self) -> List[BatchOp]:
        """Dequeue whole ops, oldest first, up to ``max_batch`` key-ops.

        Always takes at least one op (a request is never split), so an
        op larger than ``max_batch`` flushes alone.
        """
        batch: List[BatchOp] = []
        budget = self.max_batch
        while self._queue:
            cost = self._queue[0].cost
            if batch and cost > budget:
                break
            batch.append(self._queue.popleft())
            self._depth -= cost
            budget -= cost
            if budget <= 0:
                break
        return batch

    def _execute(self, batch: List[BatchOp]) -> None:
        self.batches_flushed += 1
        try:
            results = self._handler(batch)
        except Exception as exc:  # noqa: BLE001 - fail the batch, not the loop
            for op in batch:
                if not op.future.done():
                    op.future.set_exception(exc)
            return
        if len(results) != len(batch):
            mismatch = ValueError(
                f"batch handler returned {len(results)} results for "
                f"{len(batch)} operations"
            )
            for op in batch:
                if not op.future.done():
                    op.future.set_exception(mismatch)
            return
        for op, result in zip(batch, results):
            if op.future.done():
                continue  # caller went away (connection dropped)
            if isinstance(result, Exception):
                op.future.set_exception(result)
            else:
                op.future.set_result(result)

    async def _run(self) -> None:
        while True:
            if not self._queue:
                if self._closing:
                    return
                self._arrived.clear()
                # Re-check after clear: an op may have arrived (or close()
                # fired) between the emptiness test and the clear.
                if not self._queue and not self._closing:
                    await self._arrived.wait()
                continue
            self._execute(self._take_batch())
            # The group-commit point: yield once per flush, so responses
            # write out and whatever arrives meanwhile queues up as the
            # next batch.
            await asyncio.sleep(0)

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------

    async def close(self, timeout_s: Optional[float] = None) -> None:
        """Stop admissions and drain the queue.

        Everything already queued executes, batch by batch; new
        ``submit`` calls raise :class:`BatcherClosed`.
        With a ``timeout_s`` the drain is abandoned after that long and
        still-queued ops fail with :class:`BatcherClosed`. Idempotent.
        """
        self._closing = True
        self._arrived.set()
        task = self._task
        if task is not None and not task.done():
            try:
                if timeout_s is None:
                    await task
                else:
                    await asyncio.wait_for(
                        asyncio.shield(task), timeout_s
                    )
            except (asyncio.TimeoutError, TimeoutError):
                task.cancel()
                try:
                    await task
                except asyncio.CancelledError:
                    pass
        # Anything left (drain timeout, or ops enqueued before the loop
        # ever ran) fails loudly rather than hanging its awaiter.
        while self._queue:
            op = self._queue.popleft()
            self._depth -= op.cost
            if not op.future.done():
                op.future.set_exception(
                    BatcherClosed("shutdown drain abandoned this operation")
                )
