"""K-nearest-neighbour graph construction (dense and sparse paths).

SDCN (Bo et al., 2020) starts by building a KNN graph over the input
embeddings and feeds the normalised adjacency matrix to its GCN branch.  The
helpers here produce a symmetric adjacency and the renormalised propagation
matrix :math:`\\hat{A} = \\tilde{D}^{-1/2}(A + I)\\tilde{D}^{-1/2}`.

Two construction strategies are provided:

* :func:`knn_graph` — the original dense path: materialises the full
  n x n similarity matrix and returns a dense adjacency (O(n^2) memory).
* :func:`sparse_knn_graph` — the scalable path: a blocked top-k search
  (:func:`blocked_topk_neighbors`) that processes rows in fixed-size blocks
  and returns a :class:`~repro.nn.sparse.CSRMatrix`, keeping peak memory at
  O(n * k + block_size * n).  Its ``backend`` parameter swaps the exact
  blocked scan for an approximate :mod:`repro.index` search
  (:func:`ann_topk_neighbors`), dropping construction *time* below the
  O(n^2 d) wall as well.

:func:`normalized_adjacency` accepts either representation and returns the
matching one, so downstream code (GCN layers, SDCN) is agnostic.
"""

from __future__ import annotations

import numpy as np

from ..index.base import INDEX_BACKENDS
from ..nn.sparse import CSRMatrix
from ..utils.metrics_dispatch import unit_rows as _unit_rows
from ..utils.metrics_dispatch import validate_metric as _validate_metric
from ..utils.validation import check_matrix

__all__ = [
    "cosine_similarity_matrix",
    "knn_graph",
    "sparse_knn_graph",
    "blocked_topk_neighbors",
    "ann_topk_neighbors",
    "normalized_adjacency",
]

#: Default number of rows per block for the blocked top-k search; bounds the
#: largest temporary at ``block_size * n`` floats.
DEFAULT_BLOCK_SIZE = 256

#: Graph-construction backends: ``exact`` is the blocked scan below; the
#: rest delegate the top-k search to a :mod:`repro.index` ANN backend.
GRAPH_BACKENDS = ("exact",) + INDEX_BACKENDS


def cosine_similarity_matrix(X) -> np.ndarray:
    """Dense cosine similarity between all rows of ``X`` (O(n^2) memory)."""
    X = check_matrix(X)
    unit = _unit_rows(X)
    return unit @ unit.T


def _validate_k(k: int, n: int) -> int:
    """Clamp ``k`` to the number of available neighbours."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return min(k, n - 1) if n > 1 else 0


def blocked_topk_neighbors(X, k: int = 10, *, metric: str = "cosine",
                           block_size: int = DEFAULT_BLOCK_SIZE) -> np.ndarray:
    """Indices of the ``k`` most similar rows for every row of ``X``.

    Rows are processed in blocks of ``block_size``, so the largest temporary
    is a ``block_size x n`` similarity slab and the full n x n matrix is
    never materialised.  Self-similarity is excluded.  Returns an
    ``(n, k)`` int64 array; with fewer than ``k`` other points available the
    width shrinks accordingly (and is 0 for a single-row input).
    """
    X = check_matrix(X)
    n = X.shape[0]
    k = _validate_k(k, n)
    _validate_metric(metric)
    if block_size < 1:
        raise ValueError("block_size must be >= 1")
    if k == 0:
        return np.zeros((n, 0), dtype=np.int64)

    if metric == "cosine":
        unit = _unit_rows(X)
        reference = unit.T
        squared = None
    else:
        unit = X
        reference = X.T
        squared = np.sum(X ** 2, axis=1)

    neighbors = np.empty((n, k), dtype=np.int64)
    for start in range(0, n, block_size):
        stop = min(start + block_size, n)
        block = unit[start:stop] @ reference            # (b, n) slab
        if squared is not None:
            # Negated squared euclidean distance as a similarity.
            block *= 2.0
            block -= squared[None, :]
            block -= squared[start:stop, None]
        block[np.arange(stop - start), np.arange(start, stop)] = -np.inf
        top = np.argpartition(-block, kth=k - 1, axis=1)[:, :k]
        # Order each row's k candidates by decreasing similarity so the
        # result is deterministic regardless of the partition layout.
        order = np.argsort(
            np.take_along_axis(-block, top, axis=1), axis=1, kind="stable")
        neighbors[start:stop] = np.take_along_axis(top, order, axis=1)
    return neighbors


def ann_topk_neighbors(X, k: int = 10, *, metric: str = "cosine",
                       backend: str = "ivf",
                       index_params: dict | None = None) -> np.ndarray:
    """Approximate counterpart of :func:`blocked_topk_neighbors`.

    Builds a :mod:`repro.index` backend (``flat``, ``ivf`` or ``ivfpq``)
    over ``X``, queries it with every row for ``k + 1`` neighbours, and
    strips each row's self-match — so the output has the same ``(n, k)``
    int64 shape and ordering contract as the exact path, with recall
    governed by the backend's parameters (``index_params``).  Sub-linear
    per-row work is what drops KNN-graph construction below the blocked
    exact scan's O(n^2 d) wall.
    """
    X = check_matrix(X)
    n = X.shape[0]
    k = _validate_k(k, n)
    _validate_metric(metric)
    if k == 0:
        return np.zeros((n, 0), dtype=np.int64)
    from ..index import create_index

    index = create_index(backend, metric=metric, **(index_params or {}))
    index.build(X)
    neighbors, _ = index.query(X, min(k + 1, n))
    # Drop each row's self-match (an approximate search may occasionally
    # miss it, in which case the row already holds foreign neighbours):
    # stable-sort non-self entries first, preserving distance order.
    non_self = neighbors != np.arange(n, dtype=np.int64)[:, None]
    order = np.argsort(~non_self, axis=1, kind="stable")
    return np.take_along_axis(neighbors, order, axis=1)[:, :k]


def knn_graph(X, k: int = 10, *, metric: str = "cosine",
              symmetric: bool = True) -> np.ndarray:
    """Dense binary adjacency connecting each point to its ``k`` neighbours.

    Self-loops are excluded here (the renormalisation in
    :func:`normalized_adjacency` adds them back).  With ``symmetric=True``
    (the default, and what SDCN uses) the union of the directed KNN relations
    is taken so the adjacency is symmetric.  Materialises O(n^2) memory; use
    :func:`sparse_knn_graph` past a few thousand rows.
    """
    X = check_matrix(X)
    n = X.shape[0]
    k = _validate_k(k, n)
    _validate_metric(metric)

    adjacency = np.zeros((n, n), dtype=np.float64)
    if k == 0:
        return adjacency
    if metric == "cosine":
        similarity = cosine_similarity_matrix(X)
    else:
        squared = np.sum(X ** 2, axis=1)
        d2 = squared[:, None] + squared[None, :] - 2.0 * (X @ X.T)
        np.maximum(d2, 0.0, out=d2)
        similarity = -d2

    np.fill_diagonal(similarity, -np.inf)
    # Indices of the k most similar neighbours per row.
    neighbors = np.argpartition(-similarity, kth=k - 1, axis=1)[:, :k]
    rows = np.repeat(np.arange(n), k)
    adjacency[rows, neighbors.ravel()] = 1.0
    if symmetric:
        adjacency = np.maximum(adjacency, adjacency.T)
    return adjacency


def sparse_knn_graph(X, k: int = 10, *, metric: str = "cosine",
                     symmetric: bool = True,
                     block_size: int = DEFAULT_BLOCK_SIZE,
                     backend: str = "exact",
                     index_params: dict | None = None) -> CSRMatrix:
    """Binary KNN adjacency as a :class:`~repro.nn.sparse.CSRMatrix`.

    With ``backend="exact"`` (the default) this is equivalent to
    ``CSRMatrix.from_dense(knn_graph(X, k))`` but built with the blocked
    search of :func:`blocked_topk_neighbors`, so peak memory is
    O(n * k + block_size * n) instead of O(n^2) — and the output is
    bit-identical to that path.  The other backends (``flat``, ``ivf``,
    ``ivfpq``) route the top-k search through a :mod:`repro.index` vector
    index (:func:`ann_topk_neighbors`), trading a sliver of recall for
    sub-quadratic construction — the knob that keeps SDCN/EDESC graph
    building tractable as n grows.  ``index_params`` is passed to the
    index constructor (e.g. ``{"nprobe": 16}`` or ``{"nlist": 64}``).
    """
    X = check_matrix(X)
    n = X.shape[0]
    if backend not in GRAPH_BACKENDS:
        raise ValueError(
            f"unknown graph backend {backend!r}; expected one of "
            f"{GRAPH_BACKENDS}")
    if backend == "exact":
        neighbors = blocked_topk_neighbors(X, k, metric=metric,
                                           block_size=block_size)
    else:
        neighbors = ann_topk_neighbors(X, k, metric=metric, backend=backend,
                                       index_params=index_params)
    k_eff = neighbors.shape[1]
    rows = np.repeat(np.arange(n, dtype=np.int64), k_eff)
    cols = neighbors.ravel()
    if symmetric:
        # Union of the directed relations: A := max(A, A^T).  Duplicates
        # collapse through from_coo's merge; clip restores binary weights.
        rows, cols = np.concatenate([rows, cols]), np.concatenate([cols, rows])
    values = np.ones(rows.size, dtype=np.float64)
    graph = CSRMatrix.from_coo(rows, cols, values, (n, n))
    return CSRMatrix(np.minimum(graph.data, 1.0), graph.indices,
                     graph.indptr, graph.shape)


def normalized_adjacency(adjacency, *, add_self_loops: bool = True):
    """Symmetrically normalised adjacency used by GCN propagation.

    Accepts a dense square array or a :class:`~repro.nn.sparse.CSRMatrix`
    and returns the same representation:
    :math:`\\hat{A} = \\tilde{D}^{-1/2}(A + I)\\tilde{D}^{-1/2}` with
    :math:`\\tilde{D}` the degree matrix of ``A + I``.
    """
    if isinstance(adjacency, CSRMatrix):
        return _normalized_adjacency_sparse(adjacency,
                                            add_self_loops=add_self_loops)
    A = np.asarray(adjacency, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("adjacency must be a square matrix")
    if add_self_loops:
        A = A + np.eye(A.shape[0])
    degrees = A.sum(axis=1)
    degrees = np.where(degrees == 0, 1.0, degrees)
    inv_sqrt = 1.0 / np.sqrt(degrees)
    return (A * inv_sqrt[:, None]) * inv_sqrt[None, :]


def _normalized_adjacency_sparse(adjacency: CSRMatrix, *,
                                 add_self_loops: bool = True) -> CSRMatrix:
    """Sparse version of :func:`normalized_adjacency` (O(nnz) memory)."""
    if adjacency.shape[0] != adjacency.shape[1]:
        raise ValueError("adjacency must be a square matrix")
    A = adjacency.add_identity() if add_self_loops else adjacency
    degrees = A.sum_rows()
    degrees = np.where(degrees == 0, 1.0, degrees)
    inv_sqrt = 1.0 / np.sqrt(degrees)
    return A.scale_rows(inv_sqrt).scale_columns(inv_sqrt)
