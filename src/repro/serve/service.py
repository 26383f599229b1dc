"""Request handling behind the HTTP façade: payload -> matrix -> labels.

:class:`PredictService` ties the three serving pieces together: the
:class:`~repro.serve.registry.ModelRegistry` resolves a model name to a
loaded checkpoint, the single-item embedding path
(:func:`repro.embeddings.embed_items`) turns raw JSON items into vectors in
the model's training space, and a per-model
:class:`~repro.serve.batching.MicroBatcher` coalesces concurrent predict
calls into shared forward passes.  The service is transport-agnostic — the
stdlib HTTP server calls it, and tests / benchmarks can call it directly.

Raw-item predictions are additionally memoised in :mod:`repro.cache` under
the ``model/<name>/`` namespace: a hot item asked of the same checkpoint
generation skips the embed *and* the forward pass entirely.  The keys bake
in the loaded generation and file mtime (so two generations can never
serve each other's labels), and the registry's hot-reload swap invalidates
the whole namespace as belt-and-braces hygiene.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time

import numpy as np

from ..cache import get_cache
from ..embeddings import embed_items
from ..exceptions import ServingError
from ..index import VectorIndex
from ..obs.metrics import get_registry, obs_enabled
from ..obs.trace import get_trace_store, span
from .batching import DEFAULT_MAX_DELAY, MicroBatcher
from .registry import LoadedModel, ModelRegistry

__all__ = ["PredictService"]

#: Upper bound on the per-request neighbour count; keeps one hostile
#: request from forcing a near-full-corpus sort per query row.
_MAX_NEIGHBORS = 1024

#: Payload fields recognised as per-request index tunables.  Which of
#: them a given request may use is decided by the *index* (its
#: ``query_tunables`` contract): ``nprobe`` for IVF, plus ``rerank`` for
#: the coded IVF indexes.  ``ef_search`` (a graph-index beam width no
#: current backend accepts) stays recognised so a body carrying it is
#: refused with a clear 400 instead of silently ignored.
_TUNABLE_FIELDS = ("ef_search", "nprobe", "rerank")

#: Upper bound on any tunable value: the backends clamp internally, but
#: rejecting absurd values here keeps one hostile request from forcing a
#: full-corpus rerank per query row.
_MAX_TUNABLE = 1_000_000


class PredictService:
    """Resolve, embed and micro-batch predict requests for a model directory.

    Parameters
    ----------
    registry:
        The model registry to resolve names against.
    max_batch_rows, max_delay:
        Micro-batching knobs, applied to every model's batcher; see
        :class:`~repro.serve.batching.MicroBatcher`.  The default
        ``max_delay`` (0) never lingers: a batcher dispatches as soon as a
        request queues, and requests that queue while a forward runs share
        the next one.  A ``max_delay`` above 0 adds a linger.
    """

    def __init__(self, registry: ModelRegistry, *,
                 max_batch_rows: int = 256,
                 max_delay: float = DEFAULT_MAX_DELAY,
                 identity: dict | None = None) -> None:
        self.registry = registry
        self.max_batch_rows = max_batch_rows
        self.max_delay = max_delay
        #: Free-form keys merged into the health payload; the worker pool
        #: stamps ``{"worker": index, "pid": ...}`` so /healthz identifies
        #: which process answered.
        self.identity = dict(identity or {})
        # One batcher per *load* of a model or index (a vector index's k
        # and tunables travel as the request key, so rows in one query
        # share them).  Keyed by the LoadedModel entry itself
        # (identity-hashed, strong reference — no id() reuse hazard) and
        # retired through the registry's eviction hook, so an evicted or
        # reloaded model never stays pinned by its old batcher and never
        # serves stale weights.
        self._batchers: dict[LoadedModel, MicroBatcher] = {}
        # Memoised /search index resolution, keyed by the directory
        # listing it was derived from (see _only_index_name).
        self._index_names_cache: tuple[tuple[str, ...], list[str]] | None = \
            None
        self._lock = threading.Lock()
        registry_obs = get_registry()
        self._m_requests = registry_obs.counter(
            "repro_predict_requests_total",
            "Service-level requests by kind and model", ("kind", "model"))
        self._m_cache_hits = registry_obs.counter(
            "repro_predict_cache_hits_total",
            "Raw-item predict requests answered from the memo cache",
            ("model",))
        self._m_embed = registry_obs.histogram(
            "repro_embed_seconds",
            "Raw-item embedding time per request", ("model",))
        # Chain rather than replace any caller-installed eviction hook.
        previous_hook = registry.on_evict

        def _on_evict(entry: LoadedModel) -> None:
            self._retire_batcher(entry)
            if previous_hook is not None:
                previous_hook(entry)

        registry.on_evict = _on_evict

    # ------------------------------------------------------------------
    def health(self) -> dict:
        """Liveness payload for ``GET /healthz``."""
        return {
            "status": "ok",
            "model_dir": str(self.registry.model_dir),
            "models": len(self.registry),
            "loaded": self.registry.loaded_names,
            **self.identity,
        }

    def models(self) -> list[dict]:
        """Model summaries for ``GET /models``."""
        return self.registry.describe()

    def predict(self, name: str, payload: dict) -> dict:
        """Answer one ``POST /models/{name}/predict`` payload.

        ``payload`` provides either ``"vectors"`` (pre-embedded rows in the
        model's training space) or ``"items"`` (raw tables/records/columns,
        embedded via the task/embedding recorded in the checkpoint
        metadata).  Returns the JSON-able response body.
        """
        loaded = self.registry.get(name)
        if isinstance(loaded.model, VectorIndex):
            raise ServingError(
                f"model {name!r} is a vector index; use POST "
                f"/models/{name}/neighbors or POST /search")
        self._m_requests.inc(kind="predict", model=name)
        cache_key = self._items_cache_key(loaded, payload)
        labels = get_cache().get(cache_key) if cache_key is not None else None
        if labels is not None:
            self._m_cache_hits.inc(model=name)
        if labels is None:
            matrix = self._matrix_from_payload(loaded, payload)
            labels = np.asarray(self._submit(loaded, matrix, ()))
            if cache_key is not None:
                get_cache().put(cache_key, labels)
        return {
            "model": name,
            "n_items": int(labels.shape[0]),
            "labels": [int(label) for label in labels],
        }

    def neighbors(self, name: str, payload: dict) -> dict:
        """Answer one ``POST /models/{name}/neighbors`` payload.

        ``name`` must resolve to a checkpointed :class:`~repro.index`
        vector index.  The payload provides ``"vectors"`` or ``"items"``
        exactly like predict, plus an optional ``"k"`` (default 10) and
        any per-request tunables the index supports (``nprobe``,
        ``rerank`` — validated against the backend's contract,
        defaulting to its build-time settings).  Concurrent
        requests with the same ``k`` *and* tunables are micro-batched
        into shared index queries by the index's one batcher.  Returns
        ids, positions and distances per query row, each row ordered
        nearest first.
        """
        loaded = self.registry.get(name)
        index = loaded.model
        if not isinstance(index, VectorIndex):
            raise ServingError(
                f"model {name!r} is a {type(index).__name__}, not a vector "
                f"index; use POST /models/{name}/predict")
        self._m_requests.inc(kind="neighbors", model=name)
        k = payload.get("k", 10) if isinstance(payload, dict) else 10
        if not isinstance(k, int) or isinstance(k, bool) or \
                not 1 <= k <= _MAX_NEIGHBORS:
            raise ServingError(
                f"'k' must be an integer in [1, {_MAX_NEIGHBORS}], got {k!r}")
        tunables = self._query_tunables(index, name, payload)
        matrix = self._matrix_from_payload(loaded, payload)
        packed = self._submit(loaded, matrix,
                              (k, tuple(sorted(tunables.items()))))
        positions = packed[:, 0].astype(np.int64)
        distances = packed[:, 1]
        response = {
            "model": name,
            "n_items": int(positions.shape[0]),
            "k": int(positions.shape[1]),
            "ids": index.ids[positions].tolist(),
            "positions": positions.tolist(),
            "distances": distances.tolist(),
        }
        if tunables:
            response["tunables"] = tunables
        return response

    @staticmethod
    def _query_tunables(index: VectorIndex, name: str,
                        payload) -> dict[str, int]:
        """Validated per-request tunables from a neighbors/search payload.

        Unsupported fields fail loudly (``rerank`` on an exact IVF index
        should be a 400, not a silently ignored knob); values must
        be integers within the backend's declared minimum and a global
        sanity cap.
        """
        if not isinstance(payload, dict):
            return {}
        supported = index.query_tunables
        tunables: dict[str, int] = {}
        for field in _TUNABLE_FIELDS:
            value = payload.get(field)
            if value is None:
                continue
            minimum = supported.get(field)
            if minimum is None:
                accepted = ", ".join(sorted(supported)) or "none"
                raise ServingError(
                    f"index {name!r} ({index.backend}) does not support "
                    f"the {field!r} tunable; it accepts: {accepted}")
            if not isinstance(value, int) or isinstance(value, bool) or \
                    not minimum <= value <= _MAX_TUNABLE:
                raise ServingError(
                    f"{field!r} must be an integer in "
                    f"[{minimum}, {_MAX_TUNABLE}], got {value!r}")
            tunables[field] = value
        return tunables

    def search(self, payload: dict) -> dict:
        """Answer one ``POST /search`` payload (similarity search).

        Like :meth:`neighbors`, but the index is named in the body
        (``"index"``) rather than the path — and when the model directory
        serves exactly one vector index, the name can be omitted entirely:
        embed the raw item(s), return the nearest corpus items.
        """
        if not isinstance(payload, dict):
            raise ServingError("request body must be a JSON object")
        name = payload.get("index")
        if name is None:
            name = self._only_index_name()
        elif not isinstance(name, str):
            raise ServingError("'index' must be a model name string")
        return {"index": name, **self.neighbors(name, payload)}

    def _only_index_name(self) -> str:
        """The single served vector index (error if zero or ambiguous).

        Header reads (file open + JSON parse per checkpoint) are paid only
        when the directory *listing* changes, not per request: a rotated
        generation keeps its name and kind, so the name -> is-index
        classification is stable for a given listing.
        """
        from ..serialize import SerializationError, read_checkpoint_header

        names = tuple(self.registry.names())
        with self._lock:
            cached = self._index_names_cache
            if cached is not None and cached[0] == names:
                indexes = cached[1]
            else:
                indexes = None
        if indexes is None:
            indexes = []
            for name in names:
                try:
                    header = read_checkpoint_header(
                        self.registry.model_dir / f"{name}.npz")
                except SerializationError:
                    continue
                if header.get("metadata", {}).get("kind") == "vector-index":
                    indexes.append(name)
            with self._lock:
                self._index_names_cache = (names, indexes)
        if len(indexes) == 1:
            return indexes[0]
        if not indexes:
            raise ServingError(
                f"no vector index in {self.registry.model_dir}; save one "
                "with 'repro train --save ... --with-index'")
        raise ServingError(
            f"multiple vector indexes served ({sorted(indexes)}); name one "
            "with the 'index' field")

    def stats(self) -> dict:
        """Per-model micro-batching counters (for diagnostics and benches)."""
        with self._lock:
            batchers = list(self._batchers.values())
        return {batcher.name: batcher.stats.as_dict() for batcher in batchers}

    def stats_payload(self, verbose: bool = False) -> dict:
        """The ``GET /stats`` body: batcher counters plus identity.

        ``verbose`` additionally attaches the slowest-request span
        breakdowns from the process trace store (``/stats?verbose=1``).
        """
        payload: dict = {"batchers": self.stats()}
        if self.identity:
            payload["identity"] = dict(self.identity)
        if verbose:
            payload["traces"] = get_trace_store().snapshot()
        return payload

    def close(self) -> None:
        """Shut down every batcher's collector thread."""
        with self._lock:
            batchers = list(self._batchers.values())
            self._batchers.clear()
        for batcher in batchers:
            batcher.close()

    def __enter__(self) -> "PredictService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _submit(self, loaded: LoadedModel, matrix: np.ndarray,
                key: tuple) -> np.ndarray:
        # An eviction can close the batcher between lookup and submit;
        # the registry still has (or will reload) the model, so retry with
        # a fresh batcher rather than failing the request.
        for _ in range(3):
            try:
                result = self._batcher_for(loaded).submit(matrix, key)
            except ServingError as exc:
                if "closed" not in str(exc):
                    raise
                loaded = self.registry.get(loaded.name)
                continue
            if not self.registry.is_current(loaded):
                # Lost a race with an eviction that ran before the batcher
                # existed: retire the orphan now so it cannot pin the stale
                # model or accumulate in the stats.
                self._retire_batcher(loaded)
            return result
        return self._forward(loaded.model)(matrix, *key)

    @staticmethod
    def _forward(model):
        """A batcher's ``predict_fn`` for one loaded model or index."""
        if not isinstance(model, VectorIndex):
            return model.predict

        def query_rows(X: np.ndarray, k: int, knobs: tuple) -> np.ndarray:
            positions, distances = model.query(X, k, **dict(knobs))
            # Packed as one (rows, 2, k) array so the MicroBatcher can
            # hand each caller its row slice of a shared query.
            return np.stack([positions.astype(np.float64), distances],
                            axis=1)

        return query_rows

    def _batcher_for(self, loaded: LoadedModel) -> MicroBatcher:
        with self._lock:
            batcher = self._batchers.get(loaded)
            if batcher is None:
                batcher = MicroBatcher(self._forward(loaded.model),
                                       max_batch_rows=self.max_batch_rows,
                                       max_delay=self.max_delay,
                                       name=loaded.name)
                self._batchers[loaded] = batcher
            return batcher

    def _retire_batcher(self, loaded: LoadedModel) -> None:
        """Registry eviction hook: drop and stop the entry's batcher."""
        with self._lock:
            batcher = self._batchers.pop(loaded, None)
        if batcher is not None:
            batcher.close()

    @staticmethod
    def _items_cache_key(loaded: LoadedModel, payload) -> str | None:
        """Cache key memoising one raw-items payload's labels (or ``None``).

        Only well-formed ``items`` payloads are memoised (everything else
        falls through to the validating path).  The key bakes in the
        loaded checkpoint's generation *and* file mtime, so a hot-swapped
        model — even one overwritten in place without advancing the
        generation counter — can never serve a predecessor's labels; the
        registry additionally drops the whole ``model/<name>/`` namespace
        on swap so retired entries don't linger in the LRU.
        """
        if not isinstance(payload, dict):
            return None
        items = payload.get("items")
        if not isinstance(items, list) or not items:
            return None
        try:
            fingerprint = hashlib.sha256(json.dumps(
                items, sort_keys=True, default=str).encode("utf-8")
            ).hexdigest()
        except (TypeError, ValueError):
            return None
        return (f"model/{loaded.name}/predict/"
                f"gen{loaded.generation}.{loaded.mtime_ns}/{fingerprint}")

    def _matrix_from_payload(self, loaded: LoadedModel,
                             payload: dict) -> np.ndarray:
        if not isinstance(payload, dict):
            raise ServingError("request body must be a JSON object")
        if "vectors" in payload:
            try:
                matrix = np.atleast_2d(
                    np.asarray(payload["vectors"], dtype=np.float64))
            except (TypeError, ValueError) as exc:
                raise ServingError(f"'vectors' is not numeric: {exc}") from exc
            if matrix.ndim != 2 or 0 in matrix.shape:
                raise ServingError("'vectors' must be a non-empty 2-D array")
            # Reject wrong-width or non-finite vectors *before* they join a
            # shared micro-batch, where the model's validation error would
            # cost every concurrent request in the tick an isolated re-run.
            expected = loaded.metadata.get("n_features")
            if expected is not None and matrix.shape[1] != expected:
                raise ServingError(
                    f"'vectors' have {matrix.shape[1]} features; model "
                    f"{loaded.name!r} expects {expected}")
            if not np.isfinite(matrix).all():
                raise ServingError("'vectors' must be finite (no NaN or "
                                   "infinity)")
            return matrix
        if "items" in payload:
            items = payload["items"]
            if not isinstance(items, list) or not items:
                raise ServingError("'items' must be a non-empty list")
            metadata = loaded.metadata
            task = metadata.get("task")
            embedding = metadata.get("embedding")
            if not task or not embedding:
                raise ServingError(
                    f"model {loaded.name!r} was saved without task/embedding "
                    "metadata; send pre-embedded 'vectors' instead")
            if not obs_enabled():
                return embed_items(task, embedding, items)
            started = time.perf_counter()
            with span("embed.items", model=loaded.name, n_items=len(items)):
                matrix = embed_items(task, embedding, items)
            self._m_embed.observe(time.perf_counter() - started,
                                  model=loaded.name)
            return matrix
        raise ServingError("request body must contain 'vectors' or 'items'")
