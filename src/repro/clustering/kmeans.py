"""K-means clustering with k-means++ initialisation (Hartigan & Wong style).

K-means is both an SC baseline in its own right and a building block of the
DC methods: SDCN and EDESC initialise their cluster centres / subspace bases
with K-means on the pre-trained latent representation, and SHGP clusters its
learned embeddings with K-means.
"""

from __future__ import annotations

import numpy as np

from ..config import make_rng
from ..exceptions import ConfigurationError
from .base import ClusteringResult, FittableMixin

__all__ = ["KMeans"]


class KMeans(FittableMixin):
    """Lloyd's algorithm with k-means++ seeding and multiple restarts.

    ``init="random"`` swaps the k-means++ seeding for a uniform sample of
    the data — the O(n * k * d) sequential seeding loop is the dominant
    cost when k is large relative to the iteration count, which is exactly
    the coarse-quantizer regime :class:`repro.index.IVFIndex` trains
    in (many cells, few Lloyd iterations, quality set by the data volume).
    """

    def __init__(self, n_clusters: int, *, n_init: int = 4, max_iter: int = 300,
                 tol: float = 1e-6, seed: int | None = None,
                 init: str = "k-means++") -> None:
        if n_clusters < 1:
            raise ConfigurationError("n_clusters must be >= 1")
        if n_init < 1:
            raise ConfigurationError("n_init must be >= 1")
        if max_iter < 1:
            raise ConfigurationError("max_iter must be >= 1")
        if init not in ("k-means++", "random"):
            raise ConfigurationError(
                f"init must be 'k-means++' or 'random', got {init!r}")
        self.n_clusters = int(n_clusters)
        self.n_init = int(n_init)
        self.max_iter = int(max_iter)
        self.tol = float(tol)
        self.seed = seed
        self.init = init
        self.cluster_centers_: np.ndarray | None = None
        self.labels_: np.ndarray | None = None
        self.inertia_: float | None = None
        self.n_iter_: int = 0
        # Streaming state (see partial_fit): points ever assigned per centre.
        self.counts_: np.ndarray | None = None
        self.n_seen_: int = 0

    # ------------------------------------------------------------------
    def _init_centers(self, X: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """k-means++ seeding (or a uniform sample with ``init="random"``)."""
        n_samples = X.shape[0]
        if self.init == "random":
            return X[rng.choice(n_samples, size=self.n_clusters,
                                replace=False)].copy()
        centers = np.empty((self.n_clusters, X.shape[1]), dtype=np.float64)
        first = rng.integers(n_samples)
        centers[0] = X[first]
        closest_sq = np.sum((X - centers[0]) ** 2, axis=1)
        for c in range(1, self.n_clusters):
            total = closest_sq.sum()
            if total <= 0:
                # All remaining points coincide with an existing centre.
                centers[c:] = X[rng.integers(n_samples, size=self.n_clusters - c)]
                break
            probabilities = closest_sq / total
            chosen = rng.choice(n_samples, p=probabilities)
            centers[c] = X[chosen]
            new_sq = np.sum((X - centers[c]) ** 2, axis=1)
            np.minimum(closest_sq, new_sq, out=closest_sq)
        return centers

    @staticmethod
    def _assign(X: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Return (labels, squared distance to the assigned centre)."""
        x_sq = np.sum(X ** 2, axis=1)[:, None]
        c_sq = np.sum(centers ** 2, axis=1)[None, :]
        d2 = x_sq + c_sq - 2.0 * (X @ centers.T)
        np.maximum(d2, 0.0, out=d2)
        labels = np.argmin(d2, axis=1)
        return labels, d2[np.arange(X.shape[0]), labels]

    def _single_run(self, X: np.ndarray, rng: np.random.Generator
                    ) -> tuple[np.ndarray, np.ndarray, float, int]:
        centers = self._init_centers(X, rng)
        labels = np.full(X.shape[0], -1, dtype=np.int64)
        n_iter = 0
        for n_iter in range(1, self.max_iter + 1):
            new_labels, distances = self._assign(X, centers)
            new_centers = centers.copy()
            for c in range(self.n_clusters):
                members = X[new_labels == c]
                if len(members):
                    new_centers[c] = members.mean(axis=0)
                else:
                    # Re-seed an empty cluster at the point farthest from its centre.
                    farthest = int(np.argmax(distances))
                    new_centers[c] = X[farthest]
            shift = float(np.linalg.norm(new_centers - centers))
            centers = new_centers
            if np.array_equal(new_labels, labels) or shift <= self.tol:
                labels = new_labels
                break
            labels = new_labels
        _, distances = self._assign(X, centers)
        inertia = float(distances.sum())
        return labels, centers, inertia, n_iter

    # ------------------------------------------------------------------
    def fit(self, X) -> "KMeans":
        """Fit the estimator on ``X`` (rows are samples)."""
        X = self._validate(X)
        if X.shape[0] < self.n_clusters:
            raise ConfigurationError(
                f"n_clusters={self.n_clusters} exceeds number of samples {X.shape[0]}")
        rng = make_rng(self.seed)
        best: tuple[np.ndarray, np.ndarray, float, int] | None = None
        for _ in range(self.n_init):
            run = self._single_run(X, rng)
            if best is None or run[2] < best[2]:
                best = run
        labels, centers, inertia, n_iter = best
        self.labels_ = labels
        self.cluster_centers_ = centers
        self.inertia_ = inertia
        self.n_iter_ = n_iter
        self.counts_ = np.bincount(labels, minlength=self.n_clusters
                                   ).astype(np.float64)
        self.n_seen_ = int(X.shape[0])
        self._fitted = True
        return self

    def partial_fit(self, X) -> "KMeans":
        """Update the fitted centres with a batch of new points (streaming).

        Mini-batch K-means update (Sculley 2010): each new point pulls its
        nearest centre towards itself with a per-centre learning rate of
        ``1 / count``, so every centre tracks the running mean of all points
        ever assigned to it.  On a stream whose batches keep the same
        nearest-centre partition as a batch fit of the concatenation, the
        incremental centres converge to the same fixed point — the parity
        the streaming tests assert.  Called on an unfitted estimator this
        simply delegates to :meth:`fit`.
        """
        if not getattr(self, "_fitted", False):
            return self.fit(X)
        X = self._validate(X)
        if X.shape[1] != self.cluster_centers_.shape[1]:
            raise ConfigurationError(
                f"partial_fit batch has {X.shape[1]} features; the fitted "
                f"model expects {self.cluster_centers_.shape[1]}")
        if self.counts_ is None:
            # Restored from a pre-streaming checkpoint: recover the per-centre
            # counts from the stored training labels.
            self.counts_ = np.bincount(self.labels_,
                                       minlength=self.n_clusters
                                       ).astype(np.float64)
            self.n_seen_ = int(self.labels_.shape[0])
        labels, _ = self._assign(X, self.cluster_centers_)
        # Update copies: a loaded model's arrays are read-only views.
        centers = self.cluster_centers_.copy()
        counts = self.counts_.copy()
        for cluster in np.unique(labels):
            members = X[labels == cluster]
            total = counts[cluster] + members.shape[0]
            # Exact streaming-mean update: old_mean + (batch_sum - k*old)/total.
            centers[cluster] += (members.sum(axis=0)
                                 - members.shape[0] * centers[cluster]) / total
            counts[cluster] = total
        self.cluster_centers_ = centers
        self.counts_ = counts
        self.n_seen_ += int(X.shape[0])
        # The training-time inertia no longer describes the updated centres.
        self.inertia_ = None
        return self

    def predict(self, X) -> np.ndarray:
        """Assign new points to the nearest learned centre."""
        self._require_fitted()
        X = self._validate(X)
        labels, _ = self._assign(X, self.cluster_centers_)
        return labels.astype(np.int64)

    def fit_predict(self, X) -> ClusteringResult:
        """Fit on ``X`` and return a :class:`ClusteringResult`."""
        self.fit(X)
        return ClusteringResult(
            labels=self.labels_,
            n_clusters=int(np.unique(self.labels_).size),
            embedding=None,
            metadata={"inertia": self.inertia_, "n_iter": self.n_iter_},
        )

    # ------------------------------------------------------------------
    # checkpoint protocol (see repro.serialize)
    def checkpoint_params(self) -> dict:
        """JSON-able constructor and fitted scalar state."""
        self._require_fitted()
        return {
            "n_clusters": self.n_clusters,
            "n_init": self.n_init,
            "max_iter": self.max_iter,
            "tol": self.tol,
            "seed": self.seed,
            "init": self.init,
            "inertia": self.inertia_,
            "n_iter": self.n_iter_,
            "n_seen": self.n_seen_,
        }

    def checkpoint_arrays(self) -> dict[str, np.ndarray]:
        """Fitted arrays: learned centres, training labels, stream counts."""
        self._require_fitted()
        arrays = {"cluster_centers": self.cluster_centers_,
                  "labels": self.labels_}
        if self.counts_ is not None:
            arrays["counts"] = self.counts_
        return arrays

    @classmethod
    def from_checkpoint(cls, params: dict, arrays: dict) -> "KMeans":
        """Rebuild a fitted estimator from :mod:`repro.serialize` state."""
        model = cls(params["n_clusters"], n_init=params["n_init"],
                    max_iter=params["max_iter"], tol=params["tol"],
                    seed=params["seed"],
                    init=params.get("init", "k-means++"))
        model.cluster_centers_ = np.asarray(arrays["cluster_centers"])
        model.labels_ = np.asarray(arrays["labels"], dtype=np.int64)
        model.inertia_ = params["inertia"]
        model.n_iter_ = params["n_iter"]
        # Streaming state; absent from pre-streaming checkpoints, in which
        # case partial_fit recovers the counts from the training labels.
        if "counts" in arrays:
            model.counts_ = np.asarray(arrays["counts"], dtype=np.float64)
        model.n_seen_ = int(params.get("n_seen", model.labels_.shape[0]))
        model._fitted = True
        return model
