"""Vector quantizers: scalar int8 calibration and product quantization.

Two compressed corpus representations behind the same train/encode/decode
surface, the classic hardware-conscious layout move — shrink what every
query has to touch so the hot set stays in fast memory:

* :class:`ScalarQuantizer` — per-dimension affine int8: calibrate
  ``[min, max]`` per dimension, map it onto the 256 codes.  8x smaller
  than float64 with an *exact* round-trip bound (half a quantization
  step per dimension, :attr:`ScalarQuantizer.max_round_trip_error`).
* :class:`ProductQuantizer` — split the ``d`` dimensions into ``m``
  sub-spaces and vector-quantize each against its own 256-centroid
  codebook, trained on a bounded sample by this module's own float32
  Lloyd loop (:func:`_lloyd`: one GEMM and one ``bincount`` update per
  pass; the paper path's :class:`repro.clustering.KMeans` stays float64
  and untouched).  Training and :meth:`ProductQuantizer.encode` share
  one nearest-codeword pass (:func:`_nearest`).  One byte per sub-space —
  ``m`` bytes per vector regardless of ``d`` — and distances are
  computed *asymmetrically*: the query stays float, only the corpus is
  compressed: one ``(m, 256)`` inner-product table per query row, then
  ``m`` table reads per candidate instead of ``d`` multiplies.

Both score codes for :mod:`repro.index.ivf`'s IVFADC split through
``inner_products`` (``<q, r>`` for ``r = decode(code)``) and
``residual_terms`` (``||r||^2 + 2<c, r>``; ``list_terms`` for a whole
cell-ordered list).

Both quantizers are deterministic given their seed/training data and
round-trip their state through plain arrays (``state_arrays`` /
``from_state_arrays``) so :class:`repro.index.IVFIndex` can persist
them inside the versioned checkpoint format.
"""

from __future__ import annotations

import numpy as np

from ..config import make_rng
from ..exceptions import ConfigurationError, VectorIndexError
from ..utils.validation import check_matrix
from .base import INDEX_DTYPE

__all__ = ["ScalarQuantizer", "ProductQuantizer"]

#: Codes per dimension/sub-space: one byte.
_N_CODES = 256

#: Rows per block of a nearest-codeword pass: the ``(rows, 256)`` float32
#: score block (1 MB) stays in cache, however many rows are encoded.
_ENCODE_BLOCK = 1024

#: Lloyd iterations per sub-space codebook (matches the IVF coarse
#: quantizer's budget: codebooks converge fast on low-dim sub-vectors).
_TRAIN_ITER = 12
#: Lloyd stops early once the centres move less than this (Frobenius).
_TRAIN_TOL = 1e-6


def _row_blocks(n: int, size: int = _ENCODE_BLOCK) -> list[slice]:
    """``size``-row slices covering ``range(n)``."""
    return [slice(start, start + size) for start in range(0, n, size)]


def _nearest(X: np.ndarray, centers: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray]:
    """Nearest of ``centers`` to each row of ``X``, and its score.

    The score is ``||c||^2 - 2<x, c>``: ``||x||^2`` is the same for every
    centre, so it is left out of the ranking.  Each block of
    ``_ENCODE_BLOCK`` rows is one float32 GEMM against ``-2 * centers.T``,
    one add and one ``argmin``.  Rows never mix, so any split of the rows
    gives the same labels.
    """
    neg2_t = -2.0 * centers.T
    c_sq = np.einsum("ij,ij->i", centers, centers)
    labels = np.empty(X.shape[0], dtype=np.intp)
    best = np.empty(X.shape[0], dtype=X.dtype)
    # Flat offset of each block row's first score.
    firsts = np.arange(_ENCODE_BLOCK) * centers.shape[0]
    for rows in _row_blocks(X.shape[0]):
        scores = X[rows] @ neg2_t
        scores += c_sq
        labels[rows] = np.argmin(scores, axis=1)
        best[rows] = scores.reshape(-1).take(
            firsts[:scores.shape[0]] + labels[rows])
    return labels, best


def _lloyd(X: np.ndarray, k: int, seed: int | None) -> np.ndarray:
    """``k`` float32 k-means centres of the rows of ``X``.

    The initial centres are ``k`` distinct rows drawn uniformly from
    ``make_rng(seed)``; each of at most ``_TRAIN_ITER`` passes assigns
    every row to its nearest centre and moves each centre to the mean of
    its rows, stopping when no label changes or the centres move at most
    ``_TRAIN_TOL``.  A pass is one :func:`_nearest`, the float32 GEMM and
    ``argmin`` that also encodes rows; its scores leave out ``||x||^2``,
    which is added back only to find far rows.  Means come from
    ``bincount`` sums (float64 accumulators), one pass over the rows per
    column.  The clusters left empty by a pass restart at that many
    distinct rows, the farthest from their centres first.
    """
    n, ds = X.shape
    centers = X[make_rng(seed).choice(n, size=k, replace=False)]
    x_sq = np.einsum("ij,ij->i", X, X)
    labels = np.full(n, -1, dtype=np.intp)
    for _ in range(_TRAIN_ITER):
        new_labels, best = _nearest(X, centers)
        counts = np.bincount(new_labels, minlength=k)
        sums = np.stack([np.bincount(new_labels, weights=X[:, c],
                                     minlength=k) for c in range(ds)],
                        axis=1)
        filled = counts > 0
        new_centers = np.empty_like(centers)
        new_centers[filled] = sums[filled] / counts[filled, None]
        empty = np.flatnonzero(~filled)
        if empty.size:
            far = x_sq + best
            rows = np.argsort(-far, kind="stable")[:empty.size]
            new_centers[empty] = X[rows]
        shift = float(np.linalg.norm(new_centers - centers))
        centers = new_centers
        converged = np.array_equal(new_labels, labels) or shift <= _TRAIN_TOL
        labels = new_labels
        if converged:
            break
    return centers


class ScalarQuantizer:
    """Per-dimension affine int8 quantizer with min/max calibration.

    ``train`` records each dimension's ``[min, max]`` over the calibration
    sample; ``encode`` maps values affinely onto ``{0..255}`` (clipping
    out-of-calibration values to the range ends); ``decode`` inverts the
    map.  For any value inside its dimension's calibrated range the
    round-trip error is at most half a step —
    ``(max - min) / 255 / 2`` — which the property tests pin exactly.
    """

    def __init__(self) -> None:
        self.min_: np.ndarray | None = None
        self.scale_: np.ndarray | None = None

    @property
    def trained(self) -> bool:
        return self.min_ is not None

    def _require_trained(self) -> None:
        if not self.trained:
            raise VectorIndexError(
                f"{type(self).__name__} is untrained; call train() first")

    def train(self, X) -> "ScalarQuantizer":
        """Calibrate per-dimension ranges from the rows of ``X``."""
        X = check_matrix(X, name="X", dtype=INDEX_DTYPE)
        self.min_ = X.min(axis=0)
        span = X.max(axis=0) - self.min_
        # A constant dimension quantizes to code 0 and decodes exactly;
        # scale 1 keeps the affine map invertible without special cases.
        self.scale_ = np.where(span > 0, span / float(_N_CODES - 1),
                               np.float32(1.0)).astype(INDEX_DTYPE)
        return self

    @property
    def max_round_trip_error(self) -> np.ndarray:
        """Per-dimension worst-case ``|decode(encode(x)) - x|`` bound.

        Exact for values inside the calibrated range: half a quantization
        step.  (Values outside the range clip to the range ends first.)
        """
        self._require_trained()
        return self.scale_ / 2.0

    def encode(self, X) -> np.ndarray:
        """Rows of ``X`` as ``(n, d)`` uint8 codes."""
        self._require_trained()
        X = check_matrix(X, name="X", dtype=INDEX_DTYPE)
        if X.shape[1] != self.min_.shape[0]:
            raise VectorIndexError(
                f"encode input has {X.shape[1]} dims; quantizer was "
                f"calibrated for {self.min_.shape[0]}")
        steps = (X - self.min_) / self.scale_
        return np.clip(np.rint(steps), 0, _N_CODES - 1).astype(np.uint8)

    def decode(self, codes: np.ndarray) -> np.ndarray:
        """Reconstruct ``(n, d)`` float32 vectors from uint8 codes."""
        self._require_trained()
        codes = np.asarray(codes)
        return codes.astype(INDEX_DTYPE) * self.scale_ + self.min_

    def inner_products(self, q: np.ndarray, codes: np.ndarray) -> np.ndarray:
        """``<q, decode(code)>`` per code row: the decode is affine."""
        return codes @ (q * self.scale_) + float(q @ self.min_)

    def residual_terms(self, c: np.ndarray, codes: np.ndarray) -> np.ndarray:
        """``||r||^2 + 2<c, r>`` per code row, ``r = decode(code)``."""
        r = self.decode(codes)
        return np.sum(r * (r + 2.0 * c), axis=1)

    def list_terms(self, centroids: np.ndarray, cells: np.ndarray,
                   codes: np.ndarray) -> np.ndarray:
        """:meth:`residual_terms` of each row against ``centroids[cells]``.

        Row blocks keep the decoded and centroid temporaries small.
        """
        return np.concatenate([
            self.residual_terms(centroids[cells[rows]], codes[rows])
            for rows in _row_blocks(codes.shape[0])])

    # persistence -------------------------------------------------------
    def state_arrays(self) -> dict[str, np.ndarray]:
        self._require_trained()
        return {"sq_min": self.min_, "sq_scale": self.scale_}

    @classmethod
    def from_state_arrays(cls, arrays: dict) -> "ScalarQuantizer":
        quantizer = cls()
        quantizer.min_ = np.asarray(arrays["sq_min"], dtype=INDEX_DTYPE)
        quantizer.scale_ = np.asarray(arrays["sq_scale"], dtype=INDEX_DTYPE)
        return quantizer


class ProductQuantizer:
    """``m`` sub-space codebooks of 256 centroids, asymmetric distances.

    Parameters
    ----------
    m:
        Number of sub-spaces; must divide the trained dimensionality.
        Each vector compresses to ``m`` bytes.
    seed:
        Seed for the per-sub-space k-means (deterministic training).
    """

    def __init__(self, m: int = 8, *, seed: int | None = 0) -> None:
        if m < 1:
            raise ConfigurationError("m must be >= 1")
        self.m = int(m)
        self.seed = seed
        self.codebooks_: np.ndarray | None = None   # (m, n_codes, ds)

    @property
    def trained(self) -> bool:
        return self.codebooks_ is not None

    @property
    def dim(self) -> int:
        """Dimensionality the codebooks were trained for (0 untrained)."""
        return 0 if self.codebooks_ is None else \
            self.m * self.codebooks_.shape[2]

    def _require_trained(self) -> None:
        if not self.trained:
            raise VectorIndexError(
                f"{type(self).__name__} is untrained; call train() first")

    def _split(self, X: np.ndarray) -> np.ndarray:
        """View ``(n, d)`` as ``(n, m, ds)`` sub-vectors."""
        n, d = X.shape
        return np.ascontiguousarray(X).reshape(n, self.m, d // self.m)

    def train(self, X) -> "ProductQuantizer":
        """Fit one 256-centroid codebook per sub-space on the rows of ``X``.

        Callers bound the sample (PQ codebooks need thousands of rows,
        not the corpus) — that cap is what keeps a million-vector build
        inside its time budget.  Sub-space ``j`` runs :func:`_lloyd` from
        seed ``seed + j``.
        """
        X = check_matrix(X, name="X", dtype=INDEX_DTYPE)
        n, d = X.shape
        if d % self.m != 0:
            raise ConfigurationError(
                f"m={self.m} must divide the dimensionality {d}")
        n_codes = min(_N_CODES, n)
        parts = self._split(X)
        codebooks = np.empty((self.m, n_codes, d // self.m),
                             dtype=INDEX_DTYPE)
        for j in range(self.m):
            seed = None if self.seed is None else self.seed + j
            codebooks[j] = _lloyd(np.ascontiguousarray(parts[:, j, :]),
                                  n_codes, seed)
        self.codebooks_ = codebooks
        return self

    def encode(self, X) -> np.ndarray:
        """Rows of ``X`` as ``(n, m)`` uint8 codes (nearest centroid each)."""
        self._require_trained()
        X = check_matrix(X, name="X", dtype=INDEX_DTYPE)
        if X.shape[1] != self.dim:
            raise VectorIndexError(
                f"encode input has {X.shape[1]} dims; quantizer was "
                f"trained for {self.dim}")
        parts = self._split(X)
        codes = np.empty((X.shape[0], self.m), dtype=np.uint8)
        for j in range(self.m):
            codes[:, j] = _nearest(parts[:, j, :], self.codebooks_[j])[0]
        return codes

    def decode(self, codes: np.ndarray) -> np.ndarray:
        """Reconstruct ``(n, d)`` float32 vectors (per-sub-space centroids)."""
        self._require_trained()
        codes = np.asarray(codes)
        n = codes.shape[0]
        out = np.empty((n, self.dim), dtype=INDEX_DTYPE)
        ds = self.codebooks_.shape[2]
        for j in range(self.m):
            out[:, j * ds:(j + 1) * ds] = self.codebooks_[j][codes[:, j]]
        return out

    def inner_products(self, q: np.ndarray, codes: np.ndarray) -> np.ndarray:
        """``<q, decode(code)>`` per code row, from one table per sub-space."""
        table = np.matmul(self.codebooks_, q.reshape(self.m, -1, 1))
        return self._table_sum(table[:, :, 0], codes)

    def _residual_table(self, c: np.ndarray) -> np.ndarray:
        """``||r||^2 + 2<c, r>`` for every codeword: one ``(m, 256)`` table."""
        cb = self.codebooks_
        # A matvec sums the short sub-vector axis far faster than np.sum.
        return (cb * cb) @ np.ones(cb.shape[2], dtype=cb.dtype) \
            + 2.0 * np.matmul(cb, c.reshape(self.m, -1, 1))[:, :, 0]

    def residual_terms(self, c: np.ndarray, codes: np.ndarray) -> np.ndarray:
        """``||r||^2 + 2<c, r>`` per code row, ``r = decode(code)``."""
        return self._table_sum(self._residual_table(c), codes)

    def list_terms(self, centroids: np.ndarray, cells: np.ndarray,
                   codes: np.ndarray) -> np.ndarray:
        """:meth:`residual_terms` of each row against ``centroids[cells]``.

        One table per distinct cell, then one gather per sub-space over
        the stacked tables, summed in :meth:`_table_sum`'s order, so the
        terms are byte-identical to a per-cell ``residual_terms``.
        """
        used, which = np.unique(cells, return_inverse=True)
        tables = np.stack([self._residual_table(centroids[cell])
                           for cell in used])
        n_codes = tables.shape[2]
        tables = tables.reshape(-1)
        base = which.reshape(-1) * (self.m * n_codes)
        terms = tables.take(base + codes[:, 0])
        for j in range(1, self.m):
            terms += tables.take(base + j * n_codes + codes[:, j])
        return terms

    def _table_sum(self, table: np.ndarray, codes: np.ndarray) -> np.ndarray:
        """``sum_j table[j, codes[:, j]]``: ``m`` table reads per code."""
        scores = table[0].take(codes[:, 0])
        for j in range(1, self.m):
            scores += table[j].take(codes[:, j])
        return scores

    # persistence -------------------------------------------------------
    def state_arrays(self) -> dict[str, np.ndarray]:
        self._require_trained()
        return {"pq_codebooks": self.codebooks_}

    @classmethod
    def from_state_arrays(cls, arrays: dict, *, m: int,
                          seed: int | None = 0) -> "ProductQuantizer":
        quantizer = cls(m, seed=seed)
        quantizer.codebooks_ = np.asarray(arrays["pq_codebooks"],
                                          dtype=INDEX_DTYPE)
        return quantizer
