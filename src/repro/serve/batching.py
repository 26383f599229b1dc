"""Micro-batching: coalesce concurrent predict requests into one forward.

Single-row predictions are overhead-dominated — the fixed cost of a forward
pass (python dispatch, distance-matrix setup, encoder layers) dwarfs the
per-row cost.  :class:`MicroBatcher` exploits that: concurrent callers hand
their rows to a collector thread which takes what has queued (bounded by
``max_batch_rows``), stacks the rows of each request key into one matrix,
runs the model's ``predict`` once per key, and hands each caller its
slice of the result.  By default the collector drains: it dispatches the
moment a request is queued and never lingers, and the requests that
arrive while a forward runs form the next tick, so batching grows with
load and an idle server adds no wait.  ``max_delay`` above 0 makes it
linger up to that long for more requests after the first one.  A key
holds the per-request arguments stacked rows must share (a vector
index's ``k`` and tunables), so one batcher serves every request a
loaded model or index answers.

The same pattern drives throughput-first model serving systems; here it is
implemented with nothing but :mod:`threading` so the stdlib HTTP server's
request threads can share one model forward per tick.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..exceptions import ServingError
from ..obs.metrics import get_registry, obs_enabled
from ..obs.trace import current_trace

__all__ = ["DEFAULT_MAX_DELAY", "BatchStats", "MicroBatcher"]

#: Default linger (seconds) of every serving layer's batcher: drain-only.
DEFAULT_MAX_DELAY = 0.0


@dataclass
class BatchStats:
    """Counters describing how a batcher has coalesced its traffic."""

    requests: int = 0
    rows: int = 0
    batches: int = 0
    max_batch_rows: int = 0

    def as_dict(self) -> dict[str, float]:
        mean = (self.rows / self.batches) if self.batches else 0.0
        return {
            "requests": self.requests,
            "rows": self.rows,
            "batches": self.batches,
            "max_batch_rows": self.max_batch_rows,
            "mean_batch_rows": round(mean, 3),
        }


class _Pending:
    """One caller's rows plus the rendezvous for its slice of the result."""

    __slots__ = ("rows", "key", "event", "result", "error", "enqueued",
                 "batch_started", "batch_done")

    def __init__(self, rows: np.ndarray, key: tuple) -> None:
        self.rows = rows
        self.key = key
        self.event = threading.Event()
        self.result: np.ndarray | None = None
        self.error: BaseException | None = None
        # Observability stamps (perf_counter): set at enqueue / by the
        # collector thread, read back in the submitting thread so spans
        # land on the request's contextvar trace.
        self.enqueued = time.perf_counter()
        self.batch_started: float | None = None
        self.batch_done: float | None = None


class MicroBatcher:
    """Coalesce concurrent ``submit`` calls into batched ``predict_fn`` calls.

    Parameters
    ----------
    predict_fn:
        Callable mapping an ``(n, d)`` matrix, followed by the fields of
        its requests' key, to ``n`` per-row outputs (e.g. a fitted
        model's ``predict``, whose requests all use the empty key).
        Called from the collector thread, once per key in each tick.
    max_batch_rows:
        Upper bound on the rows stacked into one forward pass.
    max_delay:
        Maximum time (seconds) the collector lingers for more requests
        after the first one arrives.  The default, 0, never lingers:
        requests that queue while a forward runs still share the next.
    name:
        Optional label for diagnostics (the serving layer uses the model
        name).
    """

    def __init__(self, predict_fn: Callable[..., np.ndarray], *,
                 max_batch_rows: int = 256,
                 max_delay: float = DEFAULT_MAX_DELAY,
                 name: str | None = None) -> None:
        if max_batch_rows < 1:
            raise ServingError("max_batch_rows must be >= 1")
        if max_delay < 0:
            raise ServingError("max_delay must be non-negative")
        self._predict_fn = predict_fn
        self.max_batch_rows = int(max_batch_rows)
        self.max_delay = float(max_delay)
        self.name = name
        self.stats = BatchStats()
        # Metric family handles are resolved once; label values per call.
        registry = get_registry()
        self._obs_label = name or "default"
        self._m_queue_wait = registry.histogram(
            "repro_batch_queue_wait_seconds",
            "Time a request spent queued before its batch started",
            ("batcher",))
        self._m_forward = registry.histogram(
            "repro_batch_forward_seconds",
            "Model forward time per coalesced batch", ("batcher",))
        self._m_batches = registry.counter(
            "repro_batch_batches_total", "Coalesced batches executed",
            ("batcher",))
        self._m_rows = registry.counter(
            "repro_batch_rows_total", "Rows predicted through the batcher",
            ("batcher",))
        self._cond = threading.Condition()
        self._pending: deque[_Pending] = deque()
        self._closed = False
        self._thread = threading.Thread(target=self._worker,
                                        name="repro-microbatcher", daemon=True)
        self._thread.start()

    # ------------------------------------------------------------------
    def submit(self, rows, key: tuple = ()) -> np.ndarray:
        """Block until ``rows`` (``(k, d)`` or ``(d,)``) are predicted.

        Thread-safe; concurrent callers with equal ``key`` (a hashable
        tuple) are coalesced into one ``predict_fn(rows, *key)`` call.
        When a coalesced batch fails, each caller's rows are re-run alone,
        so an exception raised by ``predict_fn`` reaches only the callers
        whose own rows (or key) raise it.
        """
        matrix = np.atleast_2d(np.asarray(rows, dtype=np.float64))
        item = _Pending(matrix, key)
        with self._cond:
            if self._closed:
                raise ServingError("MicroBatcher is closed")
            self._pending.append(item)
            self._cond.notify_all()
        item.event.wait()
        if obs_enabled() and item.batch_started is not None:
            # Spans are recorded here, in the submitting thread, because
            # the contextvar trace is request-scoped: the collector thread
            # only stamps timestamps onto the _Pending.
            self._m_queue_wait.observe(item.batch_started - item.enqueued,
                                       batcher=self._obs_label)
            trace = current_trace()
            if trace is not None:
                trace.record_span("queue.wait", item.enqueued,
                                  item.batch_started,
                                  batcher=self._obs_label)
                if item.batch_done is not None:
                    trace.record_span("batch.forward", item.batch_started,
                                      item.batch_done,
                                      batcher=self._obs_label,
                                      rows=int(item.rows.shape[0]))
        if item.error is not None:
            raise item.error
        return item.result

    def close(self) -> None:
        """Stop the collector thread; pending requests are still served."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        self._thread.join()

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _pending_rows(self) -> int:
        return sum(item.rows.shape[0] for item in self._pending)

    def _worker(self) -> None:
        while True:
            with self._cond:
                while not self._pending and not self._closed:
                    self._cond.wait()
                if not self._pending and self._closed:
                    return
                # Linger (bounded) so concurrent callers can pile on; wake
                # early once the batch is full or the batcher is closing.
                deadline = time.monotonic() + self.max_delay
                while (not self._closed
                       and self._pending_rows() < self.max_batch_rows):
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    self._cond.wait(remaining)
                batch: list[_Pending] = []
                taken = 0
                while self._pending:
                    rows = self._pending[0].rows.shape[0]
                    if batch and taken + rows > self.max_batch_rows:
                        break
                    batch.append(self._pending.popleft())
                    taken += rows
            # Only rows with the same key share a forward; the groups run
            # in order of their first arrival.
            groups: dict[tuple, list[_Pending]] = {}
            for item in batch:
                groups.setdefault(item.key, []).append(item)
            for group in groups.values():
                self._run_batch(group)

    def _run_batch(self, batch: list[_Pending]) -> None:
        started = time.perf_counter()
        try:
            # The stack itself can fail (e.g. mismatched row widths that
            # upstream validation could not catch); it must propagate to the
            # waiting callers, not kill the collector thread — submitters
            # wait on their events with no timeout.
            stacked = (batch[0].rows if len(batch) == 1
                       else np.vstack([item.rows for item in batch]))
            output = np.asarray(self._predict_fn(stacked, *batch[0].key))
            if output.shape[0] != stacked.shape[0]:
                raise ServingError(
                    f"predict_fn returned {output.shape[0]} outputs for "
                    f"{stacked.shape[0]} rows")
        except BaseException as exc:
            if len(batch) > 1:
                # One caller's rows can fail the shared forward (a
                # non-finite value, a mismatched width): re-run each
                # request alone so only the offender sees the error.
                for item in batch:
                    self._run_batch([item])
                return
            batch[0].error = exc
            batch[0].batch_started = started
            batch[0].event.set()
            return
        done = time.perf_counter()
        if obs_enabled():
            self._m_forward.observe(done - started, batcher=self._obs_label)
            self._m_batches.inc(batcher=self._obs_label)
            self._m_rows.inc(stacked.shape[0], batcher=self._obs_label)
        with self._cond:
            self.stats.requests += len(batch)
            self.stats.rows += stacked.shape[0]
            self.stats.batches += 1
            self.stats.max_batch_rows = max(self.stats.max_batch_rows,
                                            stacked.shape[0])
        offset = 0
        for item in batch:
            size = item.rows.shape[0]
            item.result = output[offset:offset + size]
            item.batch_started = started
            item.batch_done = done
            offset += size
            item.event.set()
