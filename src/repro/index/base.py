"""Common machinery for the vector-index backends.

:class:`VectorIndex` owns everything the backends share — metric
dispatch (through :mod:`repro.utils.metrics_dispatch`), the external-id
mapping, input validation, the ``build/add/query/save/load`` surface and
the :mod:`repro.serialize` header protocol.  It stores no vectors: each
backend keeps the corpus in the layout it scans
(:meth:`VectorIndex._rebuild`, :meth:`VectorIndex._append`), answers a
query (:meth:`VectorIndex._search`) and writes and reads its own
checkpoint arrays.

Distances returned by :meth:`VectorIndex.query` are true metric
dissimilarities: Euclidean distance for ``metric="euclidean"`` and the
cosine distance ``1 - cos`` for ``metric="cosine"`` — smaller is closer
under both, which is what lets DBSCAN compare them against ``eps`` and the
serving API report them uniformly.
"""

from __future__ import annotations

from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from ..exceptions import (
    ConfigurationError,
    IndexMismatchError,
    VectorIndexError,
)
from ..utils.metrics_dispatch import unit_rows, validate_metric
from ..utils.validation import check_matrix

__all__ = ["VectorIndex", "create_index", "INDEX_BACKENDS", "INDEX_DTYPE"]

#: Storage/compute dtype of the index hot path.  Inputs arrive as float64
#: (the training precision) and are narrowed once at the ``build``/``add``/
#: ``query`` boundary: float32 halves the memory footprint and bandwidth of
#: every scan without changing neighbour orderings at embedding scale.
INDEX_DTYPE = np.float32


class VectorIndex:
    """Base class of the approximate/exact nearest-neighbour indexes.

    Parameters
    ----------
    metric:
        ``"cosine"`` (the embedding-space default throughout the library)
        or ``"euclidean"`` (what DBSCAN's ``eps`` is defined over).

    Subclasses set :attr:`backend` and implement :attr:`dim`,
    ``_rebuild`` (index validated rows from scratch), ``_append`` (absorb
    validated rows that take the next positions), ``_search`` (answer a
    validated query batch with ``(positions, distances)``) and the
    ``checkpoint_arrays``/``from_checkpoint`` pair.
    """

    #: Registry key of the backend (``"flat"``, ``"ivf"``, ``"ivfpq"``).
    backend: str = ""

    #: Query-time tunables the backend accepts (name -> minimum value).
    #: These ride on :meth:`query` as keyword arguments — per-request
    #: recall/latency trade-offs that never mutate the index (thread-safe
    #: under the serving layer's concurrent queries).
    _QUERY_TUNABLES: dict[str, int] = {}

    def __init__(self, *, metric: str = "cosine") -> None:
        validate_metric(metric)
        self.metric = metric
        self.ids_: np.ndarray | None = None

    # ------------------------------------------------------------------
    # introspection
    @property
    def size(self) -> int:
        """Number of indexed vectors."""
        return 0 if self.ids_ is None else int(self.ids_.shape[0])

    @property
    def dim(self) -> int:
        """Dimensionality of the indexed vectors (0 before ``build``)."""
        raise NotImplementedError

    @property
    def ids(self) -> np.ndarray:
        """External ids aligned with vector positions (default: positions)."""
        self._require_built()
        return self.ids_

    def _require_built(self) -> None:
        if self.ids_ is None:
            raise VectorIndexError(
                f"{type(self).__name__} is empty; call build() first")

    def _as_search(self, X: np.ndarray) -> np.ndarray:
        """The representation distances are computed in (unit rows for cosine)."""
        return unit_rows(X) if self.metric == "cosine" else X

    @staticmethod
    def _check_ids(ids, n: int) -> np.ndarray:
        array = np.asarray(ids)
        if array.ndim != 1 or array.shape[0] != n:
            raise VectorIndexError(
                f"ids must be a 1-D sequence of length {n}, got shape "
                f"{array.shape}")
        if array.dtype == object:
            array = array.astype(str)
        return array

    @staticmethod
    def _checkpoint_ids(arrays) -> np.ndarray:
        """The stored ids: strings as saved, integers as ``int64``."""
        ids = np.asarray(arrays["ids"])
        return ids if ids.dtype.kind in "US" \
            else ids.astype(np.int64, copy=False)

    # ------------------------------------------------------------------
    # build / add / query
    def build(self, X, ids=None) -> "VectorIndex":
        """Index the rows of ``X`` from scratch, replacing any prior state.

        ``ids`` optionally attaches one external id per row (integers or
        strings); they default to the row positions and are what the
        serving API reports back to clients.
        """
        X = check_matrix(X, name="X", dtype=INDEX_DTYPE)
        ids = (np.arange(X.shape[0], dtype=np.int64) if ids is None
               else self._check_ids(ids, X.shape[0]))
        self._rebuild(X)
        self.ids_ = ids
        return self

    def add(self, X, ids=None) -> "VectorIndex":
        """Append new rows incrementally (the streaming write path).

        On an empty index this is :meth:`build`.  Default ids continue the
        position numbering, so positions and default ids stay aligned.
        """
        if self.size == 0:
            return self.build(X, ids=ids)
        X = check_matrix(X, name="X", dtype=INDEX_DTYPE)
        if X.shape[1] != self.dim:
            raise IndexMismatchError(
                f"add batch has {X.shape[1]} features; the index holds "
                f"{self.dim}-dimensional vectors")
        start = self.size
        if ids is None:
            fresh = np.arange(start, start + X.shape[0], dtype=np.int64)
        else:
            fresh = self._check_ids(ids, X.shape[0])
        if fresh.dtype.kind != self.ids_.dtype.kind:
            # Mixed kinds (e.g. auto-numbered adds onto string ids):
            # render the new ids as strings.  astype(str) sizes the
            # unicode width to the values — never a fixed-width cast,
            # which would silently truncate ('201' -> '20').
            fresh = fresh.astype(str)
        self._append(X)
        # np.concatenate promotes to the wider dtype, so existing ids and
        # new ids both survive verbatim.
        self.ids_ = np.concatenate([self.ids_, fresh])
        return self

    def query(self, Q, k: int = 10,
              **tunables) -> tuple[np.ndarray, np.ndarray]:
        """Top-``k`` nearest indexed vectors for every row of ``Q``.

        Returns ``(positions, distances)``, both ``(len(Q), k_eff)`` with
        ``k_eff = min(k, size)`` and each row ordered by increasing
        distance.  Positions index :attr:`ids` / the build order; map them
        through :attr:`ids` for external ids.

        ``tunables`` are per-request recall/latency knobs — ``nprobe`` for
        the IVF indexes, plus ``rerank`` for the coded ones (see
        :attr:`query_tunables`).  They override the build-time defaults
        for this call only and never mutate the index, so concurrent
        queries with different settings are safe.
        """
        self._require_built()
        if k < 1:
            raise VectorIndexError("k must be >= 1")
        params = self._check_tunables(tunables)
        Q = check_matrix(Q, name="Q", dtype=INDEX_DTYPE)
        if Q.shape[1] != self.dim:
            raise IndexMismatchError(
                f"query has {Q.shape[1]} features; the index holds "
                f"{self.dim}-dimensional vectors")
        k = min(int(k), self.size)
        return self._search(self._as_search(Q), k, params)

    @property
    def query_tunables(self) -> dict[str, int]:
        """Query-time tunables this backend accepts (name -> minimum)."""
        return dict(self._QUERY_TUNABLES)

    def _check_tunables(self, tunables: dict) -> dict:
        """Validate per-request tunables against the backend's contract."""
        params: dict[str, int] = {}
        for name, value in tunables.items():
            minimum = self._QUERY_TUNABLES.get(name)
            if minimum is None:
                supported = sorted(self._QUERY_TUNABLES) or "none"
                raise VectorIndexError(
                    f"{type(self).__name__} accepts no query tunable "
                    f"{name!r}; supported: {supported}")
            if value is None:
                continue
            if isinstance(value, bool) or \
                    not isinstance(value, (int, np.integer)):
                raise VectorIndexError(
                    f"{name} must be an integer, got {value!r}")
            if value < minimum:
                raise VectorIndexError(
                    f"{name} must be >= {minimum}, got {value}")
            params[name] = int(value)
        return params

    # ------------------------------------------------------------------
    # backend hooks
    def _rebuild(self, X: np.ndarray) -> None:
        """Index the validated rows ``X`` from scratch."""
        raise NotImplementedError

    def _append(self, X: np.ndarray) -> None:
        """Absorb validated rows ``X`` at positions ``size:`` onwards."""
        raise NotImplementedError

    def _search(self, Q: np.ndarray, k: int,
                tunables: dict) -> tuple[np.ndarray, np.ndarray]:
        """Answer a validated, metric-transformed query batch.

        ``tunables`` holds the validated per-request overrides (possibly
        empty); backends fall back to their build-time defaults.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # ordering helper shared by the backends
    @staticmethod
    def _top_k(distances: np.ndarray, candidates: np.ndarray,
               k: int) -> tuple[np.ndarray, np.ndarray]:
        """Select the ``k`` smallest of one row's candidate distances.

        Ties break towards the lower candidate position so results are
        deterministic regardless of how candidates were gathered.
        """
        if candidates.size > k:
            keep = np.argpartition(distances, kth=k - 1)[:k]
            distances, candidates = distances[keep], candidates[keep]
        order = np.lexsort((candidates, distances))
        return candidates[order], distances[order]

    # ------------------------------------------------------------------
    # checkpoint protocol (see repro.serialize)
    def checkpoint_params(self) -> dict:
        """JSON-able constructor and structural state."""
        self._require_built()
        return {"metric": self.metric, "backend": self.backend,
                **self._state_params()}

    def _state_params(self) -> dict:
        """Backend-specific JSON-able state merged into the header params."""
        return {}

    # ------------------------------------------------------------------
    # save / load convenience over repro.serialize
    def _quantizer_metadata(self) -> dict | None:
        """Quantizer configuration stamped into saved headers (or None)."""
        return None

    def save(self, path: str | Path, *, metadata: dict | None = None) -> Path:
        """Persist as a versioned NPZ checkpoint (atomic write).

        The header metadata stamps the index contract — ``metric``,
        ``dtype``, ``dim`` and (for quantized backends) the quantizer
        configuration — alongside whatever the caller provides (the CLI
        adds encoder name/seed via ``task``/``embedding``/``seed``), so a
        loader can reject mismatched queries before computing garbage.
        """
        from ..serialize import save_checkpoint

        stamped = {"kind": "vector-index", "backend": self.backend,
                   "n_vectors": self.size, "n_features": self.dim,
                   "dim": self.dim, "metric": self.metric,
                   "dtype": np.dtype(INDEX_DTYPE).name,
                   **(metadata or {})}
        quantizer = self._quantizer_metadata()
        if quantizer is not None:
            stamped.setdefault("quantizer", quantizer)
        return save_checkpoint(path, self, metadata=stamped)

    @classmethod
    def load(cls, path: str | Path) -> "VectorIndex":
        """Load any checkpointed index (class resolved from the header).

        The stamped contract is verified against the reconstructed index:
        a header claiming a different ``dim`` or ``metric`` than the
        arrays produce (a corrupted or hand-edited checkpoint) raises
        :class:`~repro.exceptions.IndexMismatchError` here, at load time,
        instead of surfacing as wrong distances at query time.
        """
        from ..serialize import load_checkpoint

        index = load_checkpoint(path)
        if not isinstance(index, VectorIndex):
            raise VectorIndexError(
                f"{path} stores a {type(index).__name__}, not a vector index")
        metadata = getattr(index, "checkpoint_header_", {}).get("metadata", {})
        stamped_dim = metadata.get("dim", metadata.get("n_features"))
        if stamped_dim is not None and int(stamped_dim) != index.dim:
            raise IndexMismatchError(
                f"{path} header stamps dim={stamped_dim} but its arrays "
                f"are {index.dim}-dimensional")
        stamped_metric = metadata.get("metric")
        if stamped_metric is not None and stamped_metric != index.metric:
            raise IndexMismatchError(
                f"{path} header stamps metric={stamped_metric!r} but the "
                f"index was built with metric={index.metric!r}")
        return index


def _backends() -> dict[str, Callable[..., VectorIndex]]:
    """Backend name -> index factory (import-light: resolved lazily)."""
    from .flat import FlatIndex
    from .ivf import IVFIndex

    return {"flat": FlatIndex,
            "ivf": partial(IVFIndex, coding="none"),
            "ivfpq": partial(IVFIndex, coding="pq")}


#: Names accepted by :func:`create_index` (and the CLI/graph backends).
INDEX_BACKENDS = ("flat", "ivf", "ivfpq")


def create_index(backend: str, *, metric: str = "cosine",
                 **params) -> VectorIndex:
    """Instantiate an index backend by name.

    ``"ivf"`` is an :class:`~repro.index.IVFIndex` with ``coding="none"``
    and ``"ivfpq"`` one with ``coding="pq"``.  Extra keyword arguments
    are passed to the constructor (``nlist``/``nprobe`` for IVF, plus
    ``m``/``rerank``/``coding`` for the coded indexes); unknown backends
    raise :class:`~repro.exceptions.ConfigurationError`.
    """
    factories = _backends()
    factory = factories.get(backend)
    if factory is None:
        raise ConfigurationError(
            f"unknown index backend {backend!r}; expected one of "
            f"{sorted(factories)}")
    return factory(metric=metric, **params)
