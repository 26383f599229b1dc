"""Online inference serving: persist -> load -> serve.

The subsystem turns fitted clusterers into a deployable service, the way
the paper's three tasks would run in production (a new table arrives —
which schema cluster does it belong to?):

* :mod:`repro.serialize` (sibling module) persists any fitted clusterer as
  a versioned NPZ checkpoint;
* :class:`ModelRegistry` exposes a directory of named checkpoints,
  deserialised lazily and bounded by an LRU;
* :class:`MicroBatcher` coalesces concurrent predict requests into shared
  batched forward passes (bounded batch size; by default it drains
  without lingering, so batches grow only under load);
* :func:`create_server` wraps both in a stdlib ``ThreadingHTTPServer`` JSON
  API — ``GET /models``, ``GET /healthz``, ``POST /models/{name}/predict``,
  and similarity search over :mod:`repro.index` checkpoints via
  ``POST /models/{name}/neighbors`` and ``POST /search`` — with raw items
  embedded through the cached single-item embedding path
  (:func:`repro.embeddings.embed_items`);
* :func:`create_pool_server` scales that single-process server past one
  GIL: a :class:`WorkerPool` of pre-forked worker processes (checkpoints
  memory-mapped, so the page cache shares them; WAL recovery run once
  before fork) behind a :class:`PoolRouter` that shards requests by
  model name, sheds overload as ``429 Retry-After``, and fails idempotent
  reads over to sibling workers when a worker dies;
* :class:`JobManager` is the async tier behind ``POST /v1/jobs``: registry
  experiments executed on a bounded worker pool with content-addressed
  submission dedup, cooperative cancellation, crash-safe state files, and
  results negotiated through the pluggable :mod:`repro.export` formats.

The whole surface is versioned under ``/v1`` and declared once in
:mod:`repro.serve.routes` (``GET /v1/openapi.json`` renders it); legacy
unprefixed paths answer with ``Deprecation``/``Link`` successor headers,
and every error uses the :mod:`repro.serve.errors` envelope.

``repro serve --model-dir ...`` is the CLI entry point
(``--workers N`` with ``N > 1`` selects the pool).
"""

from .batching import BatchStats, MicroBatcher
from .errors import ERROR_CODES, error_envelope
from .http import ReproHTTPServer, create_server
from .jobs import JOB_STATUSES, Job, JobManager
from .pool import WorkerConfig, WorkerPool, shard_for
from .registry import LoadedModel, ModelRegistry, servable_names
from .router import PoolRouter, create_pool_server
from .routes import API_PREFIX, ROUTES, openapi_spec
from .service import PredictService

__all__ = [
    "API_PREFIX",
    "BatchStats",
    "ERROR_CODES",
    "JOB_STATUSES",
    "Job",
    "JobManager",
    "MicroBatcher",
    "LoadedModel",
    "ModelRegistry",
    "PoolRouter",
    "PredictService",
    "ReproHTTPServer",
    "ROUTES",
    "WorkerConfig",
    "WorkerPool",
    "create_pool_server",
    "create_server",
    "error_envelope",
    "openapi_spec",
    "servable_names",
    "shard_for",
]
