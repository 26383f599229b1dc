"""DBSCAN density-based clustering (Ester et al., 1996).

The paper configures DBSCAN with the elbow-method heuristic for ``eps`` (see
:mod:`repro.clustering.eps_selection`) and sets ``min_samples`` to the number
of ground-truth clusters when the ``2 * dim`` rule of thumb is unusable for
high-dimensional embeddings.  DBSCAN frequently collapses to a single cluster
on dense embedding spaces, which is one of the paper's reported findings.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from ..exceptions import ConfigurationError
from ..index.base import INDEX_BACKENDS
from ..utils.metrics_dispatch import pairwise_distances
from .base import ClusteringResult, FittableMixin, nearest_centers
from .eps_selection import estimate_eps_elbow

__all__ = ["DBSCAN"]

NOISE = -1
_UNVISITED = -2

#: Core-point query backends: ``exact`` is the vectorised nearest-centre
#: scan; the rest route through a :mod:`repro.index` vector index.
_CORE_QUERY_BACKENDS = ("exact",) + INDEX_BACKENDS

#: Fraction of streamed points labelled noise beyond which
#: :attr:`DBSCAN.refit_recommended_` flips to True.
_REFIT_NOISE_FRACTION = 0.3


class DBSCAN(FittableMixin):
    """Classic DBSCAN over Euclidean distances.

    Parameters
    ----------
    eps:
        Neighbourhood radius.  ``None`` triggers the paper's elbow-method
        estimate at fit time.
    min_samples:
        Minimum neighbourhood size (including the point itself) for a core
        point.
    index:
        Backend answering the out-of-sample core-point queries that
        :meth:`predict` and the eps-absorption passes of
        :meth:`partial_fit` issue: ``"exact"`` (the default — a vectorised
        scan over all stored core points), ``"flat"`` (the same scan
        through the :mod:`repro.index` machinery) or the approximate
        ``"ivf"``/``"ivfpq"`` backends, which drop per-query cost below
        O(n_cores * d) at a small recall cost (a point whose true nearest
        core the index misses may be labelled noise or absorb a
        neighbouring cluster's label).
    """

    def __init__(self, eps: float | None = None, *, min_samples: int = 5,
                 index: str = "exact") -> None:
        if eps is not None and eps <= 0:
            raise ConfigurationError("eps must be positive (or None to estimate)")
        if min_samples < 1:
            raise ConfigurationError("min_samples must be >= 1")
        if index not in _CORE_QUERY_BACKENDS:
            raise ConfigurationError(
                f"unknown index backend {index!r}; expected one of "
                f"{_CORE_QUERY_BACKENDS}")
        self.eps = eps
        self.min_samples = int(min_samples)
        self.index = index
        self._core_index = None
        self.eps_: float | None = None
        self.labels_: np.ndarray | None = None
        self.core_sample_indices_: np.ndarray | None = None
        self.components_: np.ndarray | None = None
        self.component_labels_: np.ndarray | None = None
        # Streaming counters (see partial_fit / refit_recommended_).
        self.n_streamed_: int = 0
        self.n_streamed_noise_: int = 0
        self.n_unabsorbed_cores_: int = 0

    @staticmethod
    def _pairwise_distances(X: np.ndarray) -> np.ndarray:
        return pairwise_distances(X, metric="euclidean")

    def _nearest_cores(self, X: np.ndarray, components: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray]:
        """Nearest stored core point per row: ``(positions, distances)``.

        Dispatches on the ``index`` backend: the exact scan, or a cached
        :mod:`repro.index` over the core points (kept incrementally in
        sync by the promotion path of :meth:`partial_fit`).
        """
        if self.index == "exact":
            return nearest_centers(X, components)
        index = self._core_index
        if index is None or index.size != components.shape[0]:
            from ..index import create_index

            index = create_index(self.index, metric="euclidean")
            index.build(components)
            self._core_index = index
        positions, distances = index.query(X, 1)
        return positions[:, 0], distances[:, 0]

    def fit(self, X) -> "DBSCAN":
        X = self._validate(X)
        n_samples = X.shape[0]
        self._core_index = None  # the core set is about to be replaced
        self.eps_ = float(self.eps) if self.eps is not None else \
            estimate_eps_elbow(X, k=max(self.min_samples, 2))
        if self.eps_ <= 0:
            # Degenerate data (all points identical): a single dense cluster.
            self.labels_ = np.zeros(n_samples, dtype=np.int64)
            self.core_sample_indices_ = np.arange(n_samples)
            self.components_ = X.copy()
            self.component_labels_ = self.labels_.copy()
            self._fitted = True
            return self

        distances = self._pairwise_distances(X)
        neighborhoods = [np.flatnonzero(distances[i] <= self.eps_)
                         for i in range(n_samples)]
        core = np.array([len(neigh) >= self.min_samples for neigh in neighborhoods])

        labels = np.full(n_samples, _UNVISITED, dtype=np.int64)
        cluster_id = 0
        for point in range(n_samples):
            if labels[point] != _UNVISITED or not core[point]:
                continue
            # Breadth-first expansion of a new cluster from this core point.
            labels[point] = cluster_id
            queue = deque(neighborhoods[point])
            while queue:
                neighbor = queue.popleft()
                if labels[neighbor] == NOISE:
                    labels[neighbor] = cluster_id
                if labels[neighbor] != _UNVISITED:
                    continue
                labels[neighbor] = cluster_id
                if core[neighbor]:
                    queue.extend(neighborhoods[neighbor])
            cluster_id += 1

        labels[labels == _UNVISITED] = NOISE
        self.labels_ = labels
        self.core_sample_indices_ = np.flatnonzero(core)
        # Retained for out-of-sample prediction: the epsilon-neighbour rule
        # only needs the core points and their cluster labels.
        self.components_ = X[self.core_sample_indices_].copy()
        self.component_labels_ = labels[self.core_sample_indices_].copy()
        self._fitted = True
        return self

    def partial_fit(self, X) -> "DBSCAN":
        """Absorb a batch of new points into the fitted density model.

        New points within ``eps_`` of a stored core point inherit that
        core's cluster; an absorbed point that is itself dense — at least
        ``min_samples`` neighbours among the stored core points and this
        batch — is *promoted* to a core point, extending the cluster's
        reach for later arrivals (the passes repeat until no further point
        can be absorbed).  A dense region with no existing cluster in range
        cannot be resolved incrementally (it would need a new cluster id
        and the full neighbourhood graph), so such points are counted and
        surface through :attr:`refit_recommended_` instead of being
        guessed at.  Called on an unfitted estimator this delegates to
        :meth:`fit`.
        """
        if not getattr(self, "_fitted", False):
            return self.fit(X)
        X = self._validate(X)
        if self.components_.shape[0] and \
                X.shape[1] != self.components_.shape[1]:
            raise ConfigurationError(
                f"partial_fit batch has {X.shape[1]} features; the fitted "
                f"model expects {self.components_.shape[1]}")
        n = X.shape[0]
        eps = self.eps_ if self.eps_ > 0 else 0.0
        # Within-batch distances are reused by every absorption pass.
        batch_distances = self._pairwise_distances(X)
        batch_neighbors = batch_distances <= eps
        labels = np.full(n, NOISE, dtype=np.int64)
        assigned = np.zeros(n, dtype=bool)
        promoted = np.zeros(n, dtype=bool)
        components = self.components_
        component_labels = self.component_labels_
        while True:
            pending = np.flatnonzero(~assigned)
            if pending.size == 0 or components.shape[0] == 0:
                break
            nearest, distance = self._nearest_cores(X[pending], components)
            reachable = distance <= eps
            if not np.any(reachable):
                break
            hit = pending[reachable]
            labels[hit] = component_labels[nearest[reachable]]
            assigned[hit] = True
            # Promote dense absorbed points: their neighbourhood spans the
            # stored cores plus this batch (the point itself included).
            # Same O(h*m) distance expansion as _pairwise_distances — never
            # the (h, m, d) broadcast, which would blow up memory by a
            # factor of d on wide embeddings.
            d2 = (np.sum(X[hit] ** 2, axis=1)[:, None]
                  + np.sum(components ** 2, axis=1)[None, :]
                  - 2.0 * (X[hit] @ components.T))
            np.maximum(d2, 0.0, out=d2)
            core_counts = np.sum(d2 <= eps * eps, axis=1)
            batch_counts = batch_neighbors[hit].sum(axis=1)
            dense = (core_counts + batch_counts) >= self.min_samples
            newly = hit[dense & ~promoted[hit]]
            if newly.size == 0:
                break
            promoted[newly] = True
            components = np.vstack([components, X[newly]])
            component_labels = np.concatenate(
                [component_labels, labels[newly]])
            if self._core_index is not None:
                # Keep the cached query index aligned with the growing
                # core set (the incremental-add write path).
                self._core_index.add(X[newly])
        self.components_ = components
        self.component_labels_ = component_labels
        # Unabsorbed dense points are evidence of a *new* cluster the
        # incremental path cannot create.
        unassigned = ~assigned
        dense_unassigned = unassigned & \
            (batch_neighbors.sum(axis=1) >= self.min_samples)
        self.n_streamed_ += n
        self.n_streamed_noise_ += int(np.sum(unassigned))
        self.n_unabsorbed_cores_ += int(np.sum(dense_unassigned))
        return self

    @property
    def refit_recommended_(self) -> bool:
        """Has streaming accumulated structure this model cannot absorb?

        True once any streamed dense region fell outside every existing
        cluster, or once the fraction of streamed points labelled noise
        exceeds ``30%`` — in either case the incremental assignments remain
        *valid* but a full refit would recover genuinely new clusters.
        """
        if self.n_unabsorbed_cores_ > 0:
            return True
        return (self.n_streamed_ > 0
                and self.n_streamed_noise_ / self.n_streamed_
                > _REFIT_NOISE_FRACTION)

    def predict(self, X) -> np.ndarray:
        """Assign new points with the epsilon-neighbour rule.

        A point inherits the cluster of its nearest *core* training point
        when that core point lies within ``eps_``; otherwise it is noise
        (``-1``).  This matches how DBSCAN labels border points, extended to
        unseen data.
        """
        self._require_fitted()
        X = self._validate(X)
        if self.components_ is None or self.components_.shape[0] == 0:
            return np.full(X.shape[0], NOISE, dtype=np.int64)
        nearest, distance = self._nearest_cores(X, self.components_)
        labels = self.component_labels_[nearest].astype(np.int64)
        labels[distance > self.eps_] = NOISE
        return labels

    # ------------------------------------------------------------------
    # checkpoint protocol (see repro.serialize)
    def checkpoint_params(self) -> dict:
        """JSON-able constructor and fitted scalar state."""
        self._require_fitted()
        return {
            "eps": self.eps,
            "min_samples": self.min_samples,
            "index": self.index,
            "fitted_eps": self.eps_,
            "n_streamed": self.n_streamed_,
            "n_streamed_noise": self.n_streamed_noise_,
            "n_unabsorbed_cores": self.n_unabsorbed_cores_,
        }

    def checkpoint_arrays(self) -> dict[str, np.ndarray]:
        """Fitted arrays: core points, their labels, and training labels."""
        self._require_fitted()
        return {"components": self.components_,
                "component_labels": self.component_labels_,
                "core_sample_indices": self.core_sample_indices_,
                "labels": self.labels_}

    @classmethod
    def from_checkpoint(cls, params: dict, arrays: dict) -> "DBSCAN":
        """Rebuild a fitted estimator from :mod:`repro.serialize` state."""
        model = cls(params["eps"], min_samples=params["min_samples"],
                    index=params.get("index", "exact"))
        model.eps_ = params["fitted_eps"]
        model.components_ = np.asarray(arrays["components"])
        model.component_labels_ = np.asarray(arrays["component_labels"],
                                             dtype=np.int64)
        model.core_sample_indices_ = np.asarray(
            arrays["core_sample_indices"], dtype=np.int64)
        model.labels_ = np.asarray(arrays["labels"], dtype=np.int64)
        model.n_streamed_ = int(params.get("n_streamed", 0))
        model.n_streamed_noise_ = int(params.get("n_streamed_noise", 0))
        model.n_unabsorbed_cores_ = int(params.get("n_unabsorbed_cores", 0))
        model._fitted = True
        return model

    def fit_predict(self, X) -> ClusteringResult:
        self.fit(X)
        uniques = np.unique(self.labels_)
        n_clusters = int(np.sum(uniques != NOISE))
        return ClusteringResult(
            labels=self.labels_,
            n_clusters=n_clusters,
            metadata={
                "eps": self.eps_,
                "min_samples": self.min_samples,
                "n_noise": int(np.sum(self.labels_ == NOISE)),
                "n_core": int(self.core_sample_indices_.size),
            },
        )
