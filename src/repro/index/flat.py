"""Exact brute-force index: the recall baseline and the small-n default.

``FlatIndex`` keeps the corpus flat (the raw rows it checkpoints, and
their unit rows under cosine) and answers every query with a blocked
exact scan — the same blocked-slab technique as
:func:`repro.graphs.knn.blocked_topk_neighbors`, so peak memory stays at
``O(query_rows * block_size)`` instead of ``O(query_rows * n)``.  Recall is
1.0 by construction, which is why the benchmarks and the property tests
use it as ground truth for the approximate backends.
"""

from __future__ import annotations

import numpy as np

from ..utils.metrics_dispatch import squared_euclidean_distances
from .base import INDEX_DTYPE, VectorIndex

__all__ = ["FlatIndex"]

#: Corpus rows per distance slab: bounds the largest temporary at
#: ``query_rows * _SCAN_BLOCK`` floats.
_SCAN_BLOCK = 4096


class FlatIndex(VectorIndex):
    """Exact nearest-neighbour search by blocked linear scan."""

    backend = "flat"

    def __init__(self, *, metric: str = "cosine") -> None:
        super().__init__(metric=metric)
        self.vectors_: np.ndarray | None = None
        self._search_vectors: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return 0 if self.vectors_ is None else int(self.vectors_.shape[1])

    def _rebuild(self, X: np.ndarray) -> None:
        self.vectors_ = X
        self._search_vectors = self._as_search(X)

    def _append(self, X: np.ndarray) -> None:
        self.vectors_ = np.vstack([self.vectors_, X])
        self._search_vectors = np.vstack([self._search_vectors,
                                          self._as_search(X)])

    def _block_distances(self, Q: np.ndarray, start: int,
                         stop: int) -> np.ndarray:
        """Distances from every query row to corpus rows ``start:stop``."""
        block = self._search_vectors[start:stop]
        if self.metric == "cosine":
            distances = 1.0 - Q @ block.T
        else:
            distances = np.sqrt(squared_euclidean_distances(Q, block))
        np.maximum(distances, 0.0, out=distances)
        return distances

    def _search(self, Q: np.ndarray, k: int,
                tunables: dict) -> tuple[np.ndarray, np.ndarray]:
        n, q = self.size, Q.shape[0]
        best_d = np.empty((q, 0), dtype=Q.dtype)
        best_i = np.empty((q, 0), dtype=np.int64)
        for start in range(0, n, _SCAN_BLOCK):
            stop = min(start + _SCAN_BLOCK, n)
            distances = self._block_distances(Q, start, stop)
            positions = np.broadcast_to(
                np.arange(start, stop, dtype=np.int64), distances.shape)
            # Fold this slab into the running top-k (keeps the candidate
            # pool at 2k per query row regardless of corpus size).
            pool_d = np.concatenate([best_d, distances], axis=1)
            pool_i = np.concatenate([best_i, positions], axis=1)
            if pool_d.shape[1] > k:
                keep = np.argpartition(pool_d, kth=k - 1, axis=1)[:, :k]
                pool_d = np.take_along_axis(pool_d, keep, axis=1)
                pool_i = np.take_along_axis(pool_i, keep, axis=1)
            best_d, best_i = pool_d, pool_i
        # Order each row by (distance, position) for deterministic output.
        order = np.lexsort((best_i, best_d), axis=1)
        return (np.take_along_axis(best_i, order, axis=1),
                np.take_along_axis(best_d, order, axis=1))

    # ------------------------------------------------------------------
    # checkpoint protocol
    def checkpoint_arrays(self) -> dict[str, np.ndarray]:
        """Numeric state: raw vectors and ids."""
        self._require_built()
        return {"vectors": self.vectors_, "ids": self.ids_}

    @classmethod
    def from_checkpoint(cls, params: dict, arrays) -> "FlatIndex":
        index = cls(metric=params["metric"])
        index._rebuild(np.asarray(arrays["vectors"], dtype=INDEX_DTYPE))
        index.ids_ = cls._checkpoint_ids(arrays)
        return index
