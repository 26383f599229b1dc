"""Stdlib JSON-over-HTTP front end for the online inference service.

The canonical surface is versioned under ``/v1`` and declared once in
:mod:`repro.serve.routes` (dispatch below is driven by that table, so
``GET /v1/openapi.json`` can never drift from what actually answers).
Legacy unprefixed paths keep working as aliases but are stamped with
``Deprecation: true`` and a ``Link: </v1/...>; rel="successor-version"``
header.

Serving routes (all responses ``application/json``):

``GET /v1/healthz``
    Liveness: status, model count, resident models.
``GET /v1/models``
    One summary per checkpoint in the model directory (header metadata
    only; nothing is deserialised).
``POST /v1/models/{name}/predict``
    Body ``{"vectors": [[...], ...]}`` for pre-embedded rows or
    ``{"items": [{...}, ...]}`` for raw tables/records/columns, which are
    embedded with the task/embedding recorded in the checkpoint.  Response:
    ``{"model", "n_items", "labels"}``.
``POST /v1/models/{name}/neighbors``
    Similarity search against a checkpointed :mod:`repro.index` vector
    index: same ``vectors``/``items`` body plus an optional ``"k"``
    (default 10).
``POST /v1/search``
    Like ``neighbors`` with the index named in the body (``"index"``) —
    or omitted entirely when exactly one index is served.
``GET /v1/stats`` / ``GET /v1/metrics`` / ``GET /v1/openapi.json``
    Introspection: batching counters (``?verbose=1`` adds span
    breakdowns), Prometheus exposition (``?format=json`` for the raw
    snapshot), and the OpenAPI document.

Jobs routes (the async tier, :mod:`repro.serve.jobs`):

``POST /v1/jobs`` submits an experiment (201 on creation, 200 when the
content-addressed id deduplicated to an existing job); ``GET /v1/jobs``
lists, ``GET /v1/jobs/{id}`` polls status/progress, ``DELETE
/v1/jobs/{id}`` cancels cooperatively, and ``GET
/v1/jobs/{id}/result?format=...`` serialises the rows through a
:mod:`repro.export` exporter (``json`` inline by default).

Every error response uses the uniform envelope from
:mod:`repro.serve.errors`: ``{"error": {"code", "message", "trace_id"}}``
with a stable machine-readable ``code``.

Every POST opens a request trace: an incoming ``X-Repro-Trace`` header
(from the pool router) is adopted, otherwise a trace id is minted here,
and the id is echoed on the response so clients can correlate their
request with the span breakdowns under ``/v1/stats?verbose=1``.

Built on :class:`http.server.ThreadingHTTPServer` — one thread per request,
with the :class:`~repro.serve.service.PredictService` micro-batcher
coalescing concurrent forwards — so serving needs no dependencies beyond
the standard library and numpy.

:class:`BaseHandler` is the one handler frame of both server shapes: this
module's local backend and the pool router's proxy backend
(:mod:`repro.serve.router`) subclass it and supply only ``_dispatch``.
The frame owns the version split, the body drain, the 404 path, the
exception -> envelope mapping (stdlib-detected errors such as an
unsupported method or an unparseable request line included), the strict
JSON parse, request traces and metrics, the jobs routes, and the single
response write: status line, headers and body leave in one ``sendall`` on
a ``TCP_NODELAY`` socket, so keep-alive answers never wait on the
client's delayed ACK.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import parse_qs

from ..obs.metrics import get_registry, obs_enabled, render_prometheus
from ..obs.trace import TRACE_HEADER, request_trace, valid_trace_id
from .batching import DEFAULT_MAX_DELAY
from .errors import classify_exception, default_code, error_envelope
from .jobs import JobManager
from .registry import ModelRegistry
from .routes import (
    ROUTES,
    Route,
    compile_route,
    deprecation_headers,
    openapi_spec,
    split_version,
)
from .service import PredictService

__all__ = ["ReproHTTPServer", "create_server", "parse_json_body",
           "query_flag", "query_value"]

#: Dispatch table: the compiled route patterns, straight from the
#: canonical table (matched against the *unversioned* path).
_ROUTE_PATTERNS: tuple[tuple[Route, object], ...] = tuple(
    (route, compile_route(route)) for route in ROUTES)

#: Upper bound on accepted request bodies: large enough for thousands of
#: embedded rows, small enough that a hostile Content-Length cannot exhaust
#: memory (one buffered body per request thread).
_MAX_BODY_BYTES = 32 * 1024 * 1024

#: Prometheus exposition content type.
_PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def match_route(method: str, path: str) -> tuple[Route | None, dict]:
    """Resolve an unversioned path against the canonical route table."""
    for route, pattern in _ROUTE_PATTERNS:
        if route.method != method:
            continue
        found = pattern.match(path)
        if found is not None:
            return route, found.groupdict()
    return None, {}


def _reject_constant(literal: str):
    raise ValueError(f"{literal} is not a JSON number")


def parse_json_body(raw: bytes):
    """Decode a request body as strict JSON (``{}`` when empty).

    Python's :func:`json.loads` accepts the non-standard ``NaN`` and
    ``Infinity`` literals; a vector carrying one would pass every shape
    check and only fail inside a shared micro-batch, so they are refused
    here, at the request boundary, with ``ValueError``.
    """
    if not raw:
        return {}
    return json.loads(raw.decode("utf-8"), parse_constant=_reject_constant)


def query_flag(query: str, name: str) -> bool:
    """True when ``name`` appears truthy in a raw query string."""
    values = parse_qs(query).get(name)
    if not values:
        return False
    return values[-1].lower() not in ("0", "false", "no", "")


def query_value(query: str, name: str) -> str | None:
    """Last value of ``name`` in a raw query string, or None."""
    values = parse_qs(query).get(name)
    return values[-1] if values else None


class ReproHTTPServer(ThreadingHTTPServer):
    """Threading HTTP server carrying the shared :class:`PredictService`."""

    daemon_threads = True
    #: The socketserver default backlog of 5 resets connections under a
    #: concurrent burst (the hot-reload guarantee is exercised with 100
    #: simultaneous clients); a deeper accept queue just parks them.
    request_queue_size = 128

    def __init__(self, address, handler, service: PredictService,
                 jobs: JobManager | None = None) -> None:
        super().__init__(address, handler)
        self.service = service
        self.jobs = jobs

    def server_close(self) -> None:
        """Close the socket, the hot-reload watcher and the batcher threads.

        ``TCPServer.__init__`` calls this on a failed bind, *before* our
        ``__init__`` assigned ``service`` — guard it so the caller sees the
        bind error (address in use) rather than an ``AttributeError``.
        """
        super().server_close()
        jobs = getattr(self, "jobs", None)
        if jobs is not None:
            jobs.close()
        service = getattr(self, "service", None)
        if service is not None:
            service.registry.stop_hot_reload()
            service.close()


class _Rejected(Exception):
    """An enveloped error answer decided mid-request (status, code)."""

    def __init__(self, status: int, message: str,
                 code: str | None = None) -> None:
        super().__init__(message)
        self.status = status
        self.code = code


class BaseHandler(BaseHTTPRequestHandler):
    """The one handler frame both server shapes answer through.

    It owns everything but the backend: the version split and deprecation
    stamps, the body drain, the 404 path, the exception -> envelope
    mapping, the strict JSON parse, request traces, the request metrics,
    the jobs routes and the response write.  A subclass implements
    :meth:`_dispatch` for a matched route.

    Every response, stdlib-detected errors included, leaves through
    :meth:`_send` as one write on a ``TCP_NODELAY`` socket.  A header
    block and a body in two writes with Nagle on make each answer on a
    busy keep-alive connection wait for the client's delayed ACK (~40 ms
    on Linux).
    """

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    #: Quiet by default; flip for debugging.
    verbose = False
    #: ``(name, help)`` of the request counter and latency histogram.
    requests_metric = ("repro_http_requests_total", "HTTP requests handled")
    latency_metric = ("repro_http_request_seconds",
                      "HTTP request handling time")

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if self.verbose:  # pragma: no cover - debug aid
            super().log_message(format, *args)

    def handle_one_request(self) -> None:
        # One instance serves every request of a keep-alive connection:
        # nothing may leak from the previous request into this answer.
        self._trace_id: str | None = None
        self._extra_headers: tuple = ()
        self._status = 0
        super().handle_one_request()

    # ------------------------------------------------------------------
    def _send(self, status: int, data: bytes, content_type: str,
              headers: tuple = ()) -> None:
        """Write status line, headers and body in a single ``sendall``."""
        self.log_request(status)
        head = [f"{self.protocol_version} {status} "
                f"{self.responses.get(status, ('',))[0]}",
                f"Server: {self.version_string()}",
                f"Date: {self.date_time_string()}",
                f"Content-Type: {content_type}",
                f"Content-Length: {len(data)}"]
        if self._trace_id:
            head.append(f"{TRACE_HEADER}: {self._trace_id}")
        head.extend(f"{name}: {value}"
                    for name, value in (*self._extra_headers, *headers))
        head.append("\r\n")
        self.wfile.write("\r\n".join(head).encode("latin-1") + data)
        self._status = status

    def _send_json(self, status: int, body: dict | list,
                   headers: tuple = ()) -> None:
        self._send(status, json.dumps(body).encode("utf-8"),
                   "application/json", headers)

    def _send_error_json(self, status: int, message: str,
                         code: str | None = None,
                         headers: tuple = ()) -> None:
        self._send_json(status, error_envelope(
            code or default_code(status), message,
            trace_id=self._trace_id), headers)

    def send_error(self, code, message=None, explain=None) -> None:
        """Answer a stdlib-detected error in the envelope, in one write.

        Bad request lines, unsupported methods and oversized headers keep
        the stdlib's status.  The request was not fully read, so the
        connection closes.
        """
        self.close_connection = True
        self._send_error_json(
            int(code), message or self.responses.get(code, ("error",))[0],
            headers=(("Connection", "close"),))

    def _observe_request(self, endpoint: str, started: float) -> None:
        if not obs_enabled():
            return
        registry = get_registry()
        registry.counter(*self.requests_metric, ("endpoint", "status")).inc(
            endpoint=endpoint, status=self._status)
        registry.histogram(*self.latency_metric, ("endpoint",)).observe(
            time.perf_counter() - started, endpoint=endpoint)

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        self._handle("GET")

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        self._handle("POST")

    def do_DELETE(self) -> None:  # noqa: N802 - stdlib naming
        self._handle("DELETE")

    def _handle(self, method: str) -> None:
        started = time.perf_counter()
        raw_path, _, query = self.path.partition("?")
        path, versioned = split_version(raw_path)
        if not versioned:
            self._extra_headers = deprecation_headers(path)
        route, params = match_route(method, path)
        endpoint = route.endpoint if route is not None else "other"
        try:
            # Drain the body before answering anything (even a 404):
            # leaving it unread desyncs HTTP/1.1 keep-alive parsing.
            raw = self._read_body() if method == "POST" else b""
            if route is None:
                self._send_error_json(404, f"no such route: {self.path}",
                                      code="not_found")
            else:
                self._dispatch(route, params, path, query, raw)
        except _Rejected as exc:
            self._send_error_json(exc.status, str(exc), code=exc.code)
        except Exception as exc:  # noqa: BLE001 - request boundary
            status, code = classify_exception(exc)
            message = (str(exc) if type(exc).__module__.startswith("repro")
                       else f"{type(exc).__name__}: {exc}")
            self._send_error_json(status, message, code=code)
        finally:
            self._observe_request(endpoint, started)

    def _dispatch(self, route: Route, params: dict, path: str, query: str,
                  raw: bytes) -> None:
        """Answer a matched route: the backend each server supplies.

        ``path`` is unversioned; ``raw`` is the drained body (``b""``
        for routes without one).
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    def _read_body(self) -> bytes:
        """Drain and return the request body, enforcing the size limit.

        A body that cannot be drained (bad or hostile Content-Length,
        unreadable socket) is refused and the connection closed: the next
        request would be parsed starting at the leftover bytes.
        """
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError as exc:
            self.close_connection = True
            raise _Rejected(400, f"bad Content-Length: {exc}") from None
        if length < 0:
            # rfile.read(-1) would block reading until EOF, pinning the
            # handler thread for as long as the client holds the socket.
            self.close_connection = True
            raise _Rejected(400, f"bad Content-Length: {length}")
        if length > _MAX_BODY_BYTES:
            self.close_connection = True
            raise _Rejected(413, f"request body of {length} bytes exceeds "
                                 f"the {_MAX_BODY_BYTES} byte limit")
        try:
            return self.rfile.read(length) if length else b""
        except OSError as exc:
            self.close_connection = True
            raise _Rejected(400, f"unreadable request body: {exc}") from None

    @staticmethod
    def _payload(raw: bytes):
        try:
            return parse_json_body(raw)
        except ValueError as exc:
            raise _Rejected(400, f"invalid JSON body: {exc}") from None

    @contextmanager
    def _request_trace(self, endpoint: str):
        """Open the request's trace and echo its id on the response.

        A valid incoming ``X-Repro-Trace`` (from the pool router) is
        adopted so spans across the hop share one id; otherwise one is
        minted at this edge.
        """
        incoming = self.headers.get(TRACE_HEADER)
        trace_id = incoming if valid_trace_id(incoming) else None
        with request_trace(endpoint, trace_id=trace_id) as trace:
            if trace is not None:
                self._trace_id = trace.trace_id
            yield

    def _serve_jobs(self, endpoint: str, params: dict, query: str,
                    payload: dict) -> None:
        """The jobs routes, answered from the server's own JobManager."""
        jobs = self.server.jobs
        if jobs is None:
            raise _Rejected(503, "the jobs API is not enabled on this "
                                 "server (in a pool, the router owns jobs)",
                            code="jobs_disabled")
        if endpoint == "jobs_submit":
            description, created = jobs.submit(payload)
            # Without an open request trace, answer with the job's own.
            self._trace_id = (self._trace_id or description.get("trace_id")
                              or None)
            self._send_json(201 if created else 200, description)
        elif endpoint == "jobs_list":
            self._send_json(200, {"jobs": jobs.list_jobs()})
        elif endpoint == "jobs_get":
            self._send_json(200, jobs.get(params["id"]))
        elif endpoint == "jobs_cancel":
            self._send_json(200, jobs.cancel(params["id"]))
        else:  # jobs_result
            fmt = query_value(query, "format") or "json"
            data, content_type = jobs.result_bytes(params["id"], fmt)
            self._send(200, data, content_type)


class _Handler(BaseHandler):
    """Local backend: answer from this process's PredictService."""

    server: ReproHTTPServer

    def _dispatch(self, route: Route, params: dict, path: str, query: str,
                  raw: bytes) -> None:
        if not route.has_body:
            self._serve(route.endpoint, params, query, {})
            return
        payload = self._payload(raw)
        with self._request_trace(route.endpoint):
            self._serve(route.endpoint, params, query, payload)

    def _serve(self, endpoint: str, params: dict, query: str,
               payload: dict) -> None:
        service = self.server.service
        if endpoint == "healthz":
            self._send_json(200, service.health())
        elif endpoint == "models":
            self._send_json(200, service.models())
        elif endpoint == "stats":
            self._send_json(200, service.stats_payload(
                verbose=query_flag(query, "verbose")))
        elif endpoint == "metrics":
            if query_value(query, "format") == "json":
                self._send_json(200, get_registry().snapshot())
            else:
                self._send(200, render_prometheus(get_registry())
                           .encode("utf-8"), _PROMETHEUS_CONTENT_TYPE)
        elif endpoint == "openapi":
            self._send_json(200, openapi_spec())
        elif endpoint == "predict":
            self._send_json(200, service.predict(params["name"], payload))
        elif endpoint == "neighbors":
            self._send_json(200, service.neighbors(params["name"], payload))
        elif endpoint == "search":
            self._send_json(200, service.search(payload))
        else:
            self._serve_jobs(endpoint, params, query, payload)


def create_server(model_dir: str | Path, *, host: str = "127.0.0.1",
                  port: int = 8000, max_loaded: int = 4,
                  max_batch_rows: int = 256,
                  max_delay: float = DEFAULT_MAX_DELAY,
                  reload_interval: float | None = None,
                  wal_dir: str | Path | None = None,
                  identity: dict | None = None,
                  jobs: bool = True,
                  jobs_dir: str | Path | None = None,
                  job_workers: int = 1) -> ReproHTTPServer:
    """Build (but do not start) the serving HTTP server.

    ``port=0`` binds an ephemeral port (``server.server_address[1]`` tells
    which), which is what the tests and the example client use.  Call
    ``serve_forever()`` to run and ``shutdown()`` + ``server_close()`` to
    stop; closing the server also stops the micro-batcher threads and the
    job workers.

    ``reload_interval`` (seconds) starts the registry's hot-reload watcher:
    checkpoints rotated in place (``repro update``, ``rotate_checkpoint``)
    are picked up within one interval with zero failed predicts — requests
    racing the swap are answered by whichever complete generation they
    resolved.  ``None`` serves each loaded checkpoint as-is.

    ``wal_dir`` runs crash recovery before anything is served: every
    checkpoint with a pending write-ahead-log suffix (journaled batches
    newer than its ``wal_applied`` watermark) is replayed and rotated via
    :func:`repro.wal.recover_model_dir`, so the served state reflects all
    durably-journaled ingestion even after a SIGKILL mid-update.

    ``identity`` is merged into the health payload so pool workers are
    distinguishable through the router.

    ``jobs=True`` (the default) attaches a :class:`JobManager` persisting
    job state under ``jobs_dir`` (default ``<model_dir>/jobs``; the
    registry only scans ``*.npz`` so the subdirectory is inert) with
    ``job_workers`` concurrent executions.  Pool workers run with
    ``jobs=False`` — the router owns the single job manager so
    content-addressed dedup is global, not per-shard.
    """
    if wal_dir is not None:
        from ..wal import recover_model_dir

        recover_model_dir(model_dir, wal_dir)
    registry = ModelRegistry(model_dir, max_loaded=max_loaded)
    service = PredictService(registry, max_batch_rows=max_batch_rows,
                             max_delay=max_delay, identity=identity)
    manager = None
    if jobs:
        manager = JobManager(jobs_dir or Path(model_dir) / "jobs",
                             max_workers=job_workers)
    try:
        server = ReproHTTPServer((host, port), _Handler, service, manager)
    except BaseException:
        if manager is not None:
            manager.close()
        service.close()
        raise
    # Only after the bind succeeded: a failed construction must not leak a
    # polling watcher thread nobody can stop.
    if reload_interval is not None:
        registry.start_hot_reload(reload_interval)
    return server
