"""Front router for the pre-fork worker pool: shard, admit, fail over.

The router is a thin :class:`~http.server.ThreadingHTTPServer` that owns no
model state at all — it maps each request to a worker
(:func:`repro.serve.pool.shard_for` on the model/index name), applies
admission control, and proxies the bytes.  Because every request thread
only ever blocks on one upstream socket, the router's GIL share per
request is tiny and the pool's throughput scales with worker cores.

The router answers through the same handler frame as a single worker
(:class:`repro.serve.http.BaseHandler`: version split, deprecation stamps,
body drain, error envelope, traces, metrics and the one-write
``TCP_NODELAY`` response), and supplies only the proxy backend.  It is
also the pool's **job owner**: ``/v1/jobs`` routes are answered from a
router-local :class:`~repro.serve.jobs.JobManager` rather than proxied,
so the content-addressed submission dedup spans the whole pool.

Admission control and failure semantics (the failure matrix ARCHITECTURE.md
documents):

* **Primary alive, under capacity** — proxy to it.
* **Primary alive, at capacity** (``max_inflight`` requests already in
  flight on that worker) — answer ``429`` with a ``Retry-After`` hint
  immediately.  Overload deliberately does *not* spill onto siblings:
  spilling would melt the whole pool one worker at a time instead of
  shedding load at the edge.
* **Primary dead or unreachable** — retry the (idempotent, read-only)
  request on the next workers in ring order while the supervisor respawns
  the primary; the client never sees the outage.
* **Every worker dead/at capacity with none alive** — ``503`` with
  ``Retry-After``.

All predict/neighbors/search requests are pure reads (models only change
via checkpoint rotation on disk), which is what makes transparent retry
safe.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from http.server import ThreadingHTTPServer
from pathlib import Path

from ..obs.logging import get_logger
from ..obs.metrics import get_registry, merge_snapshots, render_prometheus
from ..obs.trace import TRACE_HEADER, get_trace_store, record_span
from .http import (_PROMETHEUS_CONTENT_TYPE, BaseHandler, parse_json_body,
                   query_flag, query_value)
from .jobs import JobManager
from .pool import WorkerPool, shard_for
from .registry import servable_names
from .routes import API_PREFIX, Route, openapi_spec

__all__ = ["PoolRouter", "create_pool_server"]

#: Seconds a proxied upstream call may take before the router treats the
#: worker as unreachable and fails over.  Generous: micro-batched forwards
#: under heavy load can linger, and a false timeout turns one slow request
#: into two.
_UPSTREAM_TIMEOUT = 60.0
#: Retry-After hint (seconds) on 429/503 — small, because overload on a
#: micro-batching worker drains in milliseconds once clients pause.
_RETRY_HEADERS = (("Retry-After", "1"),)

_LOG = get_logger("router")


class _ConnectionPool:
    """Keep-alive upstream connections, keyed by worker address.

    A fresh TCP connect per proxied request roughly doubles loopback
    latency; pooling by ``(host, port)`` means a respawned worker (new
    port) naturally gets a fresh pool while the dead port's sockets are
    dropped on first error.
    """

    def __init__(self) -> None:
        self._idle: dict[tuple[str, int], list] = {}
        self._lock = threading.Lock()

    def acquire(self, address: tuple[str, int]):
        with self._lock:
            idle = self._idle.get(address)
            if idle:
                return idle.pop()
        return http.client.HTTPConnection(*address,
                                          timeout=_UPSTREAM_TIMEOUT)

    def release(self, address: tuple[str, int], conn) -> None:
        with self._lock:
            self._idle.setdefault(address, []).append(conn)

    def close(self) -> None:
        with self._lock:
            idle, self._idle = self._idle, {}
        for conns in idle.values():
            for conn in conns:
                conn.close()


class PoolRouter(ThreadingHTTPServer):
    """The pool's public HTTP endpoint; owns the pool it routes for."""

    daemon_threads = True
    request_queue_size = 128

    def __init__(self, address, pool: WorkerPool, *,
                 max_inflight: int = 64,
                 jobs: JobManager | None = None) -> None:
        super().__init__(address, _RouterHandler)
        self.pool = pool
        #: The pool's single job owner: jobs routes are handled here in
        #: the parent process (never proxied to a shard), so the
        #: content-addressed dedup is global across the pool.
        self.jobs = jobs
        #: Per-worker admission bound: requests concurrently proxied to
        #: one worker beyond this are answered 429 instead of queued.
        self.max_inflight = int(max_inflight)
        self._inflight = [0] * pool.n_workers
        self._inflight_lock = threading.Lock()
        self.connections = _ConnectionPool()
        #: Router-level counters, surfaced under ``/stats``.
        self.counters = {"routed": 0, "retries": 0, "rejected_overload": 0,
                         "failover": 0, "unavailable": 0}
        self._counter_lock = threading.Lock()
        registry = get_registry()
        self._m_events = registry.counter(
            "repro_router_events_total",
            "Routing decisions: routed/retries/rejected_overload/"
            "failover/unavailable", ("event",))
        self._m_inflight = registry.gauge(
            "repro_router_inflight",
            "Requests currently proxied per worker", ("worker",))

    # ------------------------------------------------------------------
    def try_acquire(self, index: int) -> bool:
        """Reserve an in-flight slot on worker ``index`` (False = full)."""
        with self._inflight_lock:
            if self._inflight[index] >= self.max_inflight:
                return False
            self._inflight[index] += 1
        self._m_inflight.inc(worker=index)
        return True

    def release_slot(self, index: int) -> None:
        with self._inflight_lock:
            self._inflight[index] -= 1
        self._m_inflight.dec(worker=index)

    def count(self, key: str, n: int = 1) -> None:
        with self._counter_lock:
            self.counters[key] += n
        self._m_events.inc(n, event=key)

    def stats_snapshot(self) -> dict:
        with self._counter_lock:
            counters = dict(self.counters)
        with self._inflight_lock:
            counters["inflight"] = list(self._inflight)
        counters["max_inflight"] = self.max_inflight
        return counters

    def server_close(self) -> None:
        """Stop the router socket, then the workers and their segments."""
        super().server_close()
        jobs = getattr(self, "jobs", None)
        if jobs is not None:
            jobs.close()
        pool = getattr(self, "pool", None)
        if pool is not None:
            pool.stop()
        connections = getattr(self, "connections", None)
        if connections is not None:
            connections.close()


class _RouterHandler(BaseHandler):
    """Proxy backend: shard-route inference, never touch model state."""

    server: PoolRouter
    requests_metric = ("repro_router_requests_total",
                       "Requests answered by the router")
    latency_metric = ("repro_router_request_seconds",
                      "End-to-end router handling time (admission + proxy "
                      "+ failover)")

    def _dispatch(self, route: Route, params: dict, path: str, query: str,
                  raw: bytes) -> None:
        endpoint = route.endpoint
        if endpoint in ("predict", "neighbors", "search"):
            self._handle_inference(endpoint, params, path, raw)
        elif endpoint.startswith("jobs_"):
            payload = self._payload(raw) if route.has_body else {}
            self._serve_jobs(endpoint, params, query, payload)
        elif endpoint == "healthz":
            self._handle_health()
        elif endpoint == "stats":
            self._handle_stats(verbose=query_flag(query, "verbose"))
        elif endpoint == "metrics":
            self._handle_metrics(query)
        elif endpoint == "openapi":
            self._send_json(200, openapi_spec())
        else:  # models
            # Any worker answers identically (headers read from the
            # shared model directory); use the ring so a dead worker is
            # skipped.
            self._route(0, "GET", f"{API_PREFIX}/models", b"")

    def _handle_inference(self, endpoint: str, params: dict, path: str,
                          raw: bytes) -> None:
        """Shard-route predict/neighbors/search to a worker."""
        if endpoint == "search":
            primary = self._search_shard(raw)
        else:
            primary = shard_for(params["name"], self.server.pool.n_workers)
        # The trace opens here, at the pool's public edge; _proxy_once
        # forwards its id so the worker's spans share it.
        with self._request_trace(endpoint):
            # Proxy the canonical spelling whatever the client sent; the
            # deprecation headers (when due) are stamped router-side.
            self._route(primary, "POST", f"{API_PREFIX}{path}", raw)

    def _search_shard(self, raw: bytes) -> int:
        """Primary worker for a ``/search`` body.

        The index name may be in the body, or omitted when the directory
        serves exactly one index — resolve the same way the worker will,
        so the request lands on the shard that has it resident.  Any
        parse problem routes to worker 0, whose error answer is as good
        as any sibling's.
        """
        pool = self.server.pool
        try:
            payload = parse_json_body(raw)
            name = payload.get("index")
        except (ValueError, AttributeError):
            return 0
        if not isinstance(name, str):
            names = servable_names(pool.model_dir)
            if len(names) != 1:
                return 0
            name = names[0]
        return shard_for(name, pool.n_workers)

    # ------------------------------------------------------------------
    def _handle_health(self) -> None:
        workers = self.server.pool.describe()
        alive = sum(1 for row in workers if row["alive"])
        self._send_json(200 if alive else 503, {
            "status": "ok" if alive else "unavailable",
            "model_dir": str(self.server.pool.model_dir),
            "workers": workers,
            "alive": alive,
        })

    def _handle_stats(self, verbose: bool = False) -> None:
        pool = self.server.pool
        per_worker: dict[str, dict] = {}
        worker_path = (f"{API_PREFIX}/stats?verbose=1" if verbose
                       else f"{API_PREFIX}/stats")
        for index in range(pool.n_workers):
            address = pool.address_of(index)
            if address is None:
                continue
            result = self._proxy_once(index, address, "GET", worker_path,
                                      b"")
            if result is not None:
                try:
                    per_worker[str(index)] = json.loads(result[1])
                except ValueError:  # pragma: no cover - worker sent junk
                    pass
        router = self.server.stats_snapshot()
        # Fleet totals: worker batcher counters summed, plus the
        # router-local routing counters.  A respawned worker reports
        # fresh (reset) counters; the sum reflects that honestly and the
        # per-worker 'restarts' field says why.
        totals = {"batcher_requests": 0, "batcher_rows": 0,
                  "batcher_batches": 0}
        for stats in per_worker.values():
            for batcher in stats.get("batchers", {}).values():
                totals["batcher_requests"] += int(batcher.get("requests", 0))
                totals["batcher_rows"] += int(batcher.get("rows", 0))
                totals["batcher_batches"] += int(batcher.get("batches", 0))
        totals["routed"] = router["routed"]
        totals["rejected_overload"] = router["rejected_overload"]
        payload = {"router": router, "workers": per_worker,
                   "pool": pool.describe(), "totals": totals}
        if verbose:
            payload["traces"] = self._merged_traces(per_worker)
        self._send_json(200, payload)

    def _merged_traces(self, per_worker: dict[str, dict]) -> list[dict]:
        """Router-side slowest traces, enriched with worker spans.

        Worker span offsets stay relative to the worker's own trace
        start; each span is tagged with the worker index that recorded
        it so the decomposition stays attributable.
        """
        worker_spans: dict[str, list[dict]] = {}
        for index, stats in per_worker.items():
            for trace in stats.get("traces", []):
                spans = [{**span_doc, "attrs": {
                    **span_doc.get("attrs", {}), "worker": int(index)}}
                    for span_doc in trace.get("spans", [])]
                worker_spans.setdefault(trace["trace_id"], []).extend(spans)
        merged = []
        for trace in get_trace_store().snapshot():
            spans = list(trace.get("spans", []))
            spans.extend(worker_spans.get(trace["trace_id"], []))
            merged.append({**trace, "spans": spans})
        return merged

    def _handle_metrics(self, query: str) -> None:
        """Aggregate worker registries with the router's own and render."""
        pool = self.server.pool
        snapshots = [get_registry().snapshot()]
        for index in range(pool.n_workers):
            address = pool.address_of(index)
            if address is None:
                continue
            result = self._proxy_once(index, address, "GET",
                                      f"{API_PREFIX}/metrics?format=json",
                                      b"")
            if result is not None and result[0] == 200:
                try:
                    snapshots.append(json.loads(result[1]))
                except ValueError:  # pragma: no cover - worker sent junk
                    pass
        merged = merge_snapshots(snapshots)
        if query_value(query, "format") == "json":
            self._send_json(200, merged)
        else:
            self._send(200, render_prometheus(merged).encode("utf-8"),
                       _PROMETHEUS_CONTENT_TYPE)

    # ------------------------------------------------------------------
    def _route(self, primary: int, method: str, path: str,
               body: bytes) -> None:
        """Admission control + ring failover around the proxy call."""
        server = self.server
        pool = server.pool
        attempted_failover = False
        for offset in range(pool.n_workers):
            index = (primary + offset) % pool.n_workers
            address = pool.address_of(index)
            if address is None:
                # Dead primary (or dead sibling): ring on.  This is the
                # failover path, not overload shedding.
                attempted_failover = True
                continue
            if not server.try_acquire(index):
                if offset == 0:
                    # The owner is alive but saturated: shed load at the
                    # edge rather than melting siblings too.
                    server.count("rejected_overload")
                    self._send_error_json(
                        429, f"worker {index} at capacity "
                             f"({server.max_inflight} requests in flight); "
                             f"retry shortly", headers=_RETRY_HEADERS)
                    return
                attempted_failover = True
                continue
            attempt_started = time.perf_counter()
            result = None
            try:
                result = self._proxy_once(index, address, method, path, body)
            finally:
                server.release_slot(index)
                record_span("router.proxy", attempt_started,
                            time.perf_counter(), worker=index,
                            ok=result is not None)
            if result is None:
                # Transport failure mid-request: the worker died (or was
                # killed).  Tell the pool, then retry the idempotent read
                # on the next shard while the supervisor respawns it.
                pool.note_dead(index)
                server.count("retries")
                _LOG.warning("worker_unreachable", worker=index,
                             path=path)
                attempted_failover = True
                continue
            if attempted_failover:
                server.count("failover")
            server.count("routed")
            status, data, content_type = result
            self._send(status, data, content_type)
            return
        server.count("unavailable")
        _LOG.error("no_worker_available", path=path,
                   workers=pool.n_workers)
        self._send_error_json(
            503, "no worker available for this request; retry shortly",
            headers=_RETRY_HEADERS)

    def _proxy_once(self, index: int, address: tuple[str, int], method: str,
                    path: str, body: bytes):
        """One upstream attempt; ``None`` means transport-level failure."""
        connections = self.server.connections
        conn = connections.acquire(address)
        headers = {"Content-Type": "application/json",
                   "Content-Length": str(len(body))}
        if self._trace_id:
            headers[TRACE_HEADER] = self._trace_id
        try:
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            data = response.read()
            content_type = response.getheader("Content-Type",
                                              "application/json")
            status = response.status
        except (OSError, http.client.HTTPException):
            conn.close()
            return None
        connections.release(address, conn)
        return (status, data, content_type)


def create_pool_server(model_dir: str | Path, *, host: str = "127.0.0.1",
                       port: int = 8000, workers: int = 2,
                       max_inflight: int = 64, max_loaded: int = 4,
                       max_batch_rows: int = 256, max_delay: float = 0.002,
                       reload_interval: float | None = None,
                       wal_dir: str | Path | None = None,
                       start_method: str | None = None,
                       jobs: bool = True,
                       jobs_dir: str | Path | None = None,
                       job_workers: int = 1) -> PoolRouter:
    """Build and start the sharded serving pool behind one router socket.

    The mirror of :func:`repro.serve.create_server` for ``--workers N``:
    WAL recovery runs once in this process, ``workers`` serving processes
    are forked and supervised (each maps the checkpoints it loads, so
    they share one page-cache copy), and the returned router (bound to ``host:port``; ``port=0``
    for ephemeral) shards requests across them.  ``serve_forever()`` to
    run; ``shutdown()`` + ``server_close()`` stops the router *and* the
    workers.

    Unlike ``create_server`` the workers are already running when this
    returns — construction is the pool's boot.

    The jobs tier (``jobs=True``) lives in *this* process: workers are
    started with their jobs API disabled and the router answers
    ``/v1/jobs`` routes from its own :class:`JobManager` (state under
    ``jobs_dir``, default ``<model_dir>/jobs``), so identical submissions
    dedup globally instead of per shard.
    """
    pool = WorkerPool(model_dir, n_workers=workers, host=host,
                      max_loaded=max_loaded, max_batch_rows=max_batch_rows,
                      max_delay=max_delay, reload_interval=reload_interval,
                      wal_dir=wal_dir,
                      start_method=start_method)
    manager = None
    if jobs:
        manager = JobManager(jobs_dir or Path(model_dir) / "jobs",
                             max_workers=job_workers, identity="router")
    try:
        pool.start()
        return PoolRouter((host, port), pool, max_inflight=max_inflight,
                          jobs=manager)
    except BaseException:
        if manager is not None:
            manager.close()
        pool.stop()
        raise
