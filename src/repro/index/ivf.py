"""IVF: k-means coarse quantizer + inverted lists, with optional coding.

The classic database ANN layout (FAISS's ``IndexIVFFlat`` /
``IndexIVFPQ``, Jégou et al.'s IVFADC): a k-means quantizer —
:class:`repro.clustering.KMeans`, trained on a bounded sample —
partitions the corpus into ``nlist`` cells.  A query is compared against
the ``nprobe`` nearest cell centroids only and then scans just those
cells, so work per query drops from ``O(n*d)`` to roughly
``O((nlist + n*nprobe/nlist) * d)``.  ``nprobe`` trades recall for speed
at query time without rebuilding.

Every cell keeps its members' exact float32 vectors.  ``coding`` decides
what else it keeps and how a probed cell is scanned:

* ``coding="none"`` (registry name ``"ivf"``) — nothing else: the probed
  cells are scanned exactly.  Small query batches scan cell by cell per
  query; batches of at least ``nlist`` rows (KNN-graph construction,
  where the corpus queries itself) loop over cells instead, one matmul
  per cell against every query that probes it.
* ``coding="pq"`` (registry name ``"ivfpq"``) — :class:`ProductQuantizer`
  codes, ``m`` bytes per vector.
* ``coding="sq"`` — :class:`ScalarQuantizer` codes, ``d`` bytes per
  vector.

Codes quantize *residuals* (``x - centroid(cell)``), IVFADC-style: every
member of a cell shares the coarse term, so spending the code budget on
it would leave within-cell structure unresolved.  A candidate in cell
``c`` with decoded residual ``r`` scores ``||q - c - r||^2 = ||q - c||^2
+ (||r||^2 + 2<c, r>) - 2<q, r>`` (Jégou et al.'s precomputed tables):
the coarse term per probed cell, the code-only middle term stored per
vector (``list_terms``), and the quantizer's :meth:`inner_products` — one
pass over a query's probed codes.  Approximate scores only *shortlist*:
the top ``rerank`` candidates are re-scored against the exact vectors,
so returned distances are true metric distances.  ``nprobe`` (and, for
coded indexes, ``rerank``) are per-request tunables
(:meth:`VectorIndex.query`).

For ``metric="cosine"`` vectors are unit-normalised once at insert time;
on the unit sphere the Euclidean and cosine orderings coincide, so the
same Euclidean quantizers serve both metrics.

Incremental :meth:`VectorIndex.add` assigns new vectors to their nearest
existing cell — the streaming write path; the quantizers are only
retrained by a fresh :meth:`VectorIndex.build`.  Build, add and the
upgrade of older layouts fill the lists in whole-list passes, in which a
row's cell, code and term depend on that row alone.

The inverted lists are the index's only corpus store, in one layout
however the index came to be: row-aligned arrays in cell order (also the
checkpoint's member names) — ``list_vecs`` (exact vectors), ``list_codes``
(when coded) and ``list_terms`` (the scan term, ``||x||^2`` uncoded and
``||r||^2 + 2<c, r>`` coded).  Cell offsets and row order are *derived*
from the assignments by a stable argsort, so a query slices its probed
cells out of the lists.  :meth:`VectorIndex.build` fills a plain dict.
:func:`repro.serialize.load_checkpoint` hands ``from_checkpoint`` the
checkpoint's file mapping (:class:`repro.index.storage.MappedArrays`),
and the loaded index keeps it: only ids, assignments and the quantizers
are read at load, and the OS pages list rows in when a query probes
their cells — corpora larger than RAM load in milliseconds and serve
within it.  An ``add`` merges the encoded batch into new in-memory lists;
the mapped file is never written (checkpoint files are only ever
replaced).  Older layouts (per-cell members, IVF-Flat's flat
``vectors``) load into in-memory lists without retraining or re-encoding.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from ..exceptions import ConfigurationError, VectorIndexError
from ..utils.metrics_dispatch import squared_euclidean_distances, unit_rows
from .base import INDEX_DTYPE, VectorIndex
from .quant import ProductQuantizer, ScalarQuantizer, _row_blocks
from .storage import MappedSubset

__all__ = ["IVFIndex", "IVFPQIndex"]

#: Row block for coarse-quantizer assignment and list encoding: keeps the
#: ``(rows, nlist)`` distance block near cache size (8 MB at nlist 1024)
#: regardless of corpus size; 16384 rows ran the 1M assignment 2x slower.
_ASSIGN_BLOCK = 2048

#: Quantizer k-means training sample: ``max(_TRAIN_MIN, _TRAIN_PER_LIST *
#: nlist)`` rows, capped at n — centroid quality needs O(points-per-list)
#: examples, not the whole corpus, and the cap is what keeps build cost
#: bounded at large n (and large d).
_TRAIN_PER_LIST = 16
_TRAIN_MIN = 2048
#: Lloyd iterations for the quantizer (FAISS-style: coarse cells converge
#: in a few iterations; more buys nothing measurable).
_TRAIN_ITER = 12

#: Code-training sample cap: codebooks (and scalar ranges) converge on
#: tens of thousands of rows; training on a full million-row corpus would
#: dominate build time for no recall gain.
_QUANT_TRAIN_MAX = 16384

_CODINGS = ("none", "sq", "pq")

#: Constructor parameters persisted in the checkpoint header.
_PARAMS = ("nlist", "nprobe", "m", "rerank", "coding", "seed")

#: Checkpoint member names of the inverted lists, row-aligned in cell
#: order (``list_codes`` only when coded).
_LISTS = ("list_vecs", "list_codes", "list_terms")
#: Member names of one cell's payload in the per-cell layout written
#: before the lists were flat (read by the upgrade only).
_CELL_MEMBER = "cell.%06d.%s"


def _unit_rows_in_place(X: np.ndarray) -> np.ndarray:
    """``unit_rows(X)`` written over ``X`` one row block at a time."""
    for rows in _row_blocks(X.shape[0], _ASSIGN_BLOCK):
        X[rows] = unit_rows(X[rows])
    return X


def nearest_cells(Q: np.ndarray, centroids: np.ndarray,
                  k: int) -> np.ndarray:
    """Indices of the ``k`` nearest centroids per query row (blocked).

    Assignment at build time and probe selection at query time are the
    same computation, blocked over query rows so a million-row corpus
    never materialises an ``(n, nlist)`` distance matrix at once.
    ``k = 1`` (every assignment) is an ``argmin``: a row at exactly the
    same distance from several centroids goes to the lowest-numbered
    one.  For ``k > 1`` the cells come nearest first, and the order
    among exactly tied cells is not specified.
    """
    out = np.empty((Q.shape[0], min(k, centroids.shape[0])), dtype=np.int64)
    for start in range(0, Q.shape[0], _ASSIGN_BLOCK):
        stop = min(start + _ASSIGN_BLOCK, Q.shape[0])
        d2 = squared_euclidean_distances(Q[start:stop], centroids)
        if k == 1:
            out[start:stop, 0] = np.argmin(d2, axis=1)
            continue
        if k >= d2.shape[1]:
            out[start:stop] = np.argsort(d2, axis=1, kind="stable")
            continue
        cells = np.argpartition(d2, kth=k - 1, axis=1)[:, :k]
        order = np.argsort(np.take_along_axis(d2, cells, axis=1), axis=1,
                           kind="stable")
        out[start:stop] = np.take_along_axis(cells, order, axis=1)
    return out


class IVFIndex(VectorIndex):
    """Inverted-file index: exact or quantized scan of the probed cells.

    Parameters
    ----------
    nlist:
        Number of coarse cells; ``None`` picks ``~sqrt(n)`` at build time
        (re-derived on every :meth:`build`).
    nprobe:
        Cells scanned per query (per-request tunable ``nprobe``).  Raising
        it monotonically raises recall towards the exact result.
    m:
        Product-quantizer sub-spaces (bytes per stored code).  Clamped at
        build time to the largest divisor of the dimensionality.  Used by
        ``coding="pq"`` only.
    rerank:
        Shortlist size re-scored against exact vectors per query
        (per-request tunable ``rerank``; ``0`` returns raw approximate
        distances).  Used by the coded indexes only.
    coding:
        ``"none"`` (exact vectors only), ``"pq"`` (product quantizer, the
        default) or ``"sq"`` (scalar int8).
    seed:
        Seed for the coarse and product quantizer training.
    """

    def __init__(self, *, metric: str = "cosine", nlist: int | None = None,
                 nprobe: int = 8, m: int = 8, rerank: int = 64,
                 coding: str = "pq", seed: int | None = 0) -> None:
        super().__init__(metric=metric)
        if nlist is not None and nlist < 1:
            raise ConfigurationError("nlist must be >= 1 (or None for sqrt(n))")
        if nprobe < 1:
            raise ConfigurationError("nprobe must be >= 1")
        if m < 1:
            raise ConfigurationError("m must be >= 1")
        if rerank < 0:
            raise ConfigurationError("rerank must be >= 0")
        if coding not in _CODINGS:
            raise ConfigurationError(
                f"unknown coding {coding!r}; expected one of {_CODINGS}")
        self.nlist = nlist
        self.nprobe = int(nprobe)
        self.m = int(m)
        self.rerank = int(rerank)
        self.coding = coding
        self.seed = seed
        self.backend = "ivf" if coding == "none" else "ivfpq"
        self._QUERY_TUNABLES = ({"nprobe": 1} if coding == "none"
                                else {"nprobe": 1, "rerank": 0})
        self.centroids_: np.ndarray | None = None
        self.assignments_: np.ndarray | None = None
        self.quantizer_ = None
        # Derived layout (all resident, all computed from assignments_):
        # _order lists positions in list-row order, cell c owns list rows
        # _starts[c]:_starts[c + 1], and _row_of maps a position to its
        # list row.
        self._order: np.ndarray | None = None
        self._starts: np.ndarray | None = None
        self._row_of: np.ndarray | None = None
        # The inverted lists, keyed by their _LISTS member names: a dict
        # after build or add, the checkpoint's mapping after load.
        self._lists: Mapping[str, np.ndarray] | None = None

    # ------------------------------------------------------------------
    # introspection
    @property
    def dim(self) -> int:
        return (0 if self.centroids_ is None
                else int(self.centroids_.shape[1]))

    @property
    def attached(self) -> bool:
        """Are the lists served lazily from an mmap-backed checkpoint?

        True for a loaded index until an ``add`` merges new lists.
        """
        return isinstance(self._lists, MappedSubset)

    def _list_names(self) -> tuple[str, ...]:
        coded = self.quantizer_ is not None
        return _LISTS if coded else ("list_vecs", "list_terms")

    def memory_bytes(self) -> int:
        """Resident bytes of the index structure.

        Bookkeeping plus the lists when they are held in memory.  Lists
        served from a checkpoint mapping are excluded (the OS pages those
        in and out on demand) — for a loaded index this is the number the
        memory-reduction benchmark reports.
        """
        self._require_built()
        resident = [self.ids_, self.assignments_, self.centroids_,
                    self._order, self._starts, self._row_of]
        if not self.attached:
            resident.extend(self._lists[name] for name in self._list_names())
        if self.quantizer_ is not None:
            resident.extend(self.quantizer_.state_arrays().values())
        return sum(a.nbytes for a in resident if a is not None)

    # ------------------------------------------------------------------
    # layout
    def _effective_nlist(self, n: int) -> int:
        if self.nlist is not None:
            return min(self.nlist, n)
        return max(1, min(n, int(round(np.sqrt(n)))))

    def _effective_m(self, d: int) -> int:
        """Largest divisor of ``d`` no greater than the requested ``m``."""
        m = min(self.m, d)
        while d % m != 0:
            m -= 1
        return m

    def _derive_layout(self) -> None:
        """List-row order and cell offsets from assignments — resident math.

        Stable argsort orders members by global position within each
        cell, which is exactly the row order the lists are stored and
        saved in, so the derived layout and the stored lists always agree.
        """
        nlist = self.centroids_.shape[0]
        n = self.assignments_.shape[0]
        order = np.argsort(self.assignments_, kind="stable")
        starts = np.zeros(nlist + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.assignments_, minlength=nlist),
                  out=starts[1:])
        row_of = np.empty(n, dtype=np.int64)
        row_of[order] = np.arange(n, dtype=np.int64)
        self._order, self._starts, self._row_of = order, starts, row_of

    def _spans(self, cells) -> list[slice]:
        """The list rows of each of ``cells``, in the given order."""
        starts = self._starts
        return [slice(starts[cell], starts[cell + 1]) for cell in cells]

    def _lists_of(self, vecs: np.ndarray, cells: np.ndarray,
                  codes: np.ndarray | None = None) -> dict[str, np.ndarray]:
        """List members for the cell-ordered rows ``vecs`` of ``cells``.

        Whole-list passes: codes (unless given) from one encode of the
        residuals, and uncoded terms from row-wise sums of squares, both
        formed ``_ASSIGN_BLOCK`` rows at a time so a build never holds a
        second copy of the list; coded terms from the quantizer's
        ``list_terms``.  A row's code and term depend on the row and its
        cell's centroid alone, so they are the same whether it arrives
        by build, add or upgrade.
        """
        quantizer = self.quantizer_
        blocks = _row_blocks(vecs.shape[0], _ASSIGN_BLOCK)
        if quantizer is None:
            return {"list_vecs": vecs, "list_terms": np.concatenate(
                [np.sum(vecs[rows] ** 2, axis=1) for rows in blocks])}
        if codes is None:
            codes = np.concatenate([
                quantizer.encode(vecs[rows] - self.centroids_[cells[rows]])
                for rows in blocks])
        return {"list_vecs": vecs, "list_codes": codes,
                "list_terms": quantizer.list_terms(self.centroids_, cells,
                                                   codes)}

    # ------------------------------------------------------------------
    # build / add
    def _train_sample(self, X: np.ndarray, cap: int) -> np.ndarray:
        n = X.shape[0]
        if n <= cap:
            return X
        rng = np.random.default_rng(self.seed)
        return X[rng.choice(n, size=cap, replace=False)]

    def _residual_sample(self, X: np.ndarray) -> np.ndarray:
        """Bounded sample of residuals ``x - centroid(cell(x))``."""
        n = X.shape[0]
        if n > _QUANT_TRAIN_MAX:
            rng = np.random.default_rng(self.seed)
            pick = rng.choice(n, size=_QUANT_TRAIN_MAX, replace=False)
        else:
            pick = np.arange(n)
        return X[pick] - self.centroids_[self.assignments_[pick]]

    def _rebuild(self, X: np.ndarray) -> None:
        from ..clustering import KMeans

        # The search-space rows train and assign; for cosine they are a
        # copy normalised block by block, dropped before the cell-ordered
        # gather is normalised in place, so a build holds one corpus copy.
        cosine = self.metric == "cosine"
        search = _unit_rows_in_place(X.copy()) if cosine else X
        n, d = search.shape
        nlist = self._effective_nlist(n)
        sample = self._train_sample(
            search, max(_TRAIN_MIN, _TRAIN_PER_LIST * nlist))
        quantizer = KMeans(nlist, n_init=1, max_iter=_TRAIN_ITER,
                           seed=self.seed, init="random")
        quantizer.fit(sample)
        self.centroids_ = np.asarray(quantizer.cluster_centers_,
                                     dtype=INDEX_DTYPE)
        self.assignments_ = nearest_cells(search, self.centroids_, 1)[:, 0]
        self._derive_layout()
        self.quantizer_ = None
        if self.coding == "pq":
            self.quantizer_ = ProductQuantizer(
                self._effective_m(d), seed=self.seed).train(
                    self._residual_sample(search))
        elif self.coding == "sq":
            self.quantizer_ = ScalarQuantizer().train(
                self._residual_sample(search))
        del search, sample
        vecs = X[self._order]
        if cosine:
            _unit_rows_in_place(vecs)
        self._lists = self._lists_of(vecs, self.assignments_[self._order])

    def _append(self, X: np.ndarray) -> None:
        fresh = self._as_search(X)
        cells = nearest_cells(fresh, self.centroids_, 1)[:, 0]
        n = self.assignments_.shape[0]
        batch = np.argsort(cells, kind="stable")
        added = self._lists_of(fresh[batch], cells[batch])
        # Stacked rows: the old lists, then the batch in cell order.  New
        # rows take the largest positions, so the stable re-derivation
        # lands each at its cell's tail; one gather merges (a loaded
        # index's file is only read).
        source = np.concatenate([self._row_of, np.empty_like(batch)])
        source[n + batch] = np.arange(n, n + batch.size)
        self.assignments_ = np.concatenate([self.assignments_, cells])
        self._derive_layout()
        rows = source[self._order]
        self._lists = {name: np.concatenate([self._lists[name], block])[rows]
                       for name, block in added.items()}

    # ------------------------------------------------------------------
    # exact distances
    def _exact_distances(self, query: np.ndarray,
                         positions: np.ndarray) -> np.ndarray:
        """Exact distances from one query row to arbitrary positions."""
        block = self._lists["list_vecs"][self._row_of[positions]]
        if self.metric == "cosine":
            distances = 1.0 - query @ block.T
            np.maximum(distances, 0.0, out=distances)
            return distances[0]
        return np.sqrt(squared_euclidean_distances(query, block))[0]

    def _cell_distances(self, Q: np.ndarray, q_sq: np.ndarray | None,
                        span: slice) -> np.ndarray:
        """Exact distances from the rows of ``Q`` to one cell's list rows."""
        block = self._lists["list_vecs"][span]
        if self.metric == "cosine":
            distances = 1.0 - Q @ block.T
            np.maximum(distances, 0.0, out=distances)
            return distances
        d2 = (q_sq[:, None] + self._lists["list_terms"][span][None, :]
              - 2.0 * (Q @ block.T))
        return np.sqrt(np.maximum(d2, 0.0))

    def _pad_pool(self, pool: np.ndarray, k: int) -> np.ndarray:
        """Ensure at least ``k`` candidates (probed cells can under-fill).

        Falls back to the first corpus positions not already pooled — the
        result stays a valid (if lower-recall) top-k whose width always
        matches the exact baseline's.
        """
        pool = np.unique(pool)
        if pool.size >= k:
            return pool
        missing = np.setdiff1d(np.arange(self.size, dtype=np.int64), pool,
                               assume_unique=True)[:k - pool.size]
        return np.concatenate([pool, missing])

    # ------------------------------------------------------------------
    # search
    def _search(self, Q: np.ndarray, k: int,
                tunables: dict) -> tuple[np.ndarray, np.ndarray]:
        nlist = self.centroids_.shape[0]
        nprobe = min(tunables.get("nprobe", self.nprobe), nlist)
        probes = nearest_cells(Q, self.centroids_, nprobe)
        if self.quantizer_ is None and Q.shape[0] >= nlist:
            return self._search_by_cell(Q, k, probes)
        return self._search_by_row(Q, k, probes,
                                   tunables.get("rerank", self.rerank))

    def _coded_scores(self, query: np.ndarray, cells: list[int],
                      spans: list[slice]) -> np.ndarray:
        """Approximate squared distances to ``cells``' list rows, one pass.

        The coarse term is a direct difference: far from the origin an
        expansion would cancel to a per-cell error.
        """
        coarse = np.sum((query - self.centroids_[cells]) ** 2, axis=1)
        scores = np.repeat(coarse, [span.stop - span.start for span in spans])
        terms, codes = self._lists["list_terms"], self._lists["list_codes"]
        scores += np.concatenate([terms[span] for span in spans])
        scores -= 2.0 * self.quantizer_.inner_products(
            query, np.concatenate([codes[span] for span in spans]))
        return scores

    def _search_by_row(self, Q: np.ndarray, k: int, probes: np.ndarray,
                       rerank: int) -> tuple[np.ndarray, np.ndarray]:
        """Score each query's probed cells; coded scores are reranked.

        Without coding every probed cell is scanned exactly, one small
        matmul per cell.  With coding the cells' codes are scored in one
        pass and the top ``rerank`` candidates re-scored against the
        exact vectors.
        """
        q = Q.shape[0]
        indices = np.empty((q, k), dtype=np.int64)
        distances = np.empty((q, k), dtype=Q.dtype)
        q_sq = None if self.metric == "cosine" else np.sum(Q ** 2, axis=1)
        for row in range(q):
            query = Q[row:row + 1]
            cells = probes[row].tolist()
            spans = self._spans(cells)
            pool = np.concatenate([self._order[span] for span in spans])
            if pool.size < k:
                # Under-filled probes (tiny corpora): back-fill and score
                # the whole pool exactly — correctness over speed on a
                # path only small inputs hit.
                pool = self._pad_pool(pool, k)
                d = self._exact_distances(query, pool)
                indices[row], distances[row] = self._top_k(d, pool, k)
                continue
            if self.quantizer_ is None:
                row_sq = None if q_sq is None else q_sq[row:row + 1]
                scores = np.concatenate(
                    [self._cell_distances(query, row_sq, span)[0]
                     for span in spans])
                indices[row], distances[row] = self._top_k(scores, pool, k)
                continue
            scores = self._coded_scores(Q[row], cells, spans)
            if rerank == 0:
                # Approximate metric distances, clamped first: the split
                # can cancel to slightly below 0.  On the unit sphere
                # ||q - x||^2 = 2 (1 - cos), so halving gives cosine.
                np.maximum(scores, 0.0, out=scores)
                indices[row], distances[row] = self._top_k(
                    scores / 2.0 if self.metric == "cosine"
                    else np.sqrt(scores), pool, k)
                continue
            shortlist = min(max(rerank, k), pool.size)
            if pool.size > shortlist:
                keep = np.argpartition(scores, kth=shortlist - 1)[:shortlist]
                pool = pool[keep]
            d = self._exact_distances(query, pool)
            indices[row], distances[row] = self._top_k(d, pool, k)
        return indices, distances

    def _search_by_cell(self, Q: np.ndarray, k: int,
                        probes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Exact scan of many queries (e.g. KNN-graph construction).

        Loops over *cells* instead of queries — ``nlist`` well-shaped
        matmuls regardless of query count, each scanning one cell against
        every query that probes it (at whatever probe rank).
        """
        q, nprobe = probes.shape
        q_sq = None if self.metric == "cosine" else np.sum(Q ** 2, axis=1)
        pool_d = np.full((q, nprobe * k), np.inf, dtype=Q.dtype)
        pool_i = np.zeros((q, nprobe * k), dtype=np.int64)
        for cell, span in enumerate(self._spans(
                range(self.centroids_.shape[0]))):
            members = self._order[span]
            if members.size == 0:
                continue
            rows, ranks = np.nonzero(probes == cell)
            if rows.size == 0:
                continue
            row_sq = None if q_sq is None else q_sq[rows]
            d = self._cell_distances(Q[rows], row_sq, span)
            take = min(k, members.size)
            if members.size > take:
                keep = np.argpartition(d, kth=take - 1, axis=1)[:, :take]
                block_d = np.take_along_axis(d, keep, axis=1)
                block_i = members[keep]
            else:
                block_d = d
                block_i = np.broadcast_to(members, d.shape)
            # Each (query, cell) pair owns the rank-th k-wide pool slot.
            cols = ranks[:, None] * k + np.arange(take)[None, :]
            pool_d[rows[:, None], cols] = block_d
            pool_i[rows[:, None], cols] = block_i
        # Vectorised finalise: top-k of each pool row, ties broken by
        # position (lexsort) for determinism.
        filled = np.isfinite(pool_d).sum(axis=1)
        keep = np.argpartition(pool_d, kth=k - 1, axis=1)[:, :k]
        cand_d = np.take_along_axis(pool_d, keep, axis=1)
        cand_i = np.take_along_axis(pool_i, keep, axis=1)
        order = np.lexsort((cand_i, cand_d))
        indices = np.take_along_axis(cand_i, order, axis=1)
        distances = np.take_along_axis(cand_d, order, axis=1)
        # Rows whose probed cells under-filled the pool (rare): back-fill
        # candidates and redo that row exactly.
        for row in np.flatnonzero(filled < k):
            pool = pool_i[row][np.isfinite(pool_d[row])]
            cand = self._pad_pool(pool, k)
            d = self._exact_distances(Q[row:row + 1], cand)
            indices[row], distances[row] = self._top_k(d, cand, k)
        return indices, distances

    # ------------------------------------------------------------------
    # checkpoint protocol
    def _state_params(self) -> dict:
        return {name: getattr(self, name) for name in _PARAMS}

    def checkpoint_arrays(self) -> dict[str, np.ndarray]:
        # Deliberately no position-ordered "vectors" array: exact vectors
        # live only in the cell-ordered lists, which loaders map lazily.
        self._require_built()
        arrays = {"ids": self.ids_, "centroids": self.centroids_,
                  "assignments": self.assignments_}
        if self.quantizer_ is not None:
            arrays.update(self.quantizer_.state_arrays())
        arrays.update((name, self._lists[name])
                      for name in self._list_names())
        return arrays

    @classmethod
    def from_checkpoint(cls, params: dict, arrays: dict) -> "IVFIndex":
        # Headers without a coding were written by the former IVF-Flat
        # class, which had no codes.
        kwargs = {"coding": "none",
                  **{name: params[name] for name in _PARAMS
                     if name in params}}
        index = cls(metric=params["metric"], **kwargs)
        index.ids_ = cls._checkpoint_ids(arrays)
        index.centroids_ = np.asarray(arrays["centroids"], dtype=INDEX_DTYPE)
        index.assignments_ = np.asarray(arrays["assignments"],
                                        dtype=np.int64)
        if "pq_codebooks" in arrays:
            codebooks = np.asarray(arrays["pq_codebooks"])
            index.quantizer_ = ProductQuantizer.from_state_arrays(
                arrays, m=int(codebooks.shape[0]), seed=params.get("seed"))
        elif "sq_min" in arrays:
            index.quantizer_ = ScalarQuantizer.from_state_arrays(arrays)
        index._derive_layout()
        if "list_vecs" in arrays:
            # The lists stay in the checkpoint: a probe reads its own rows.
            index._lists = arrays
        else:
            index._upgrade(arrays)
        return index

    def _upgrade(self, arrays) -> None:
        """In-memory lists from an older layout, without re-encoding.

        IVF-Flat stored flat ``vectors`` in position order, and earlier
        IVF files one vectors (and codes) member per cell; the stored
        assignments fix the row order, so answers stay bit-identical.
        """
        cells = self.assignments_[self._order]
        if "vectors" in arrays:
            vecs = self._as_search(np.asarray(arrays["vectors"],
                                              dtype=INDEX_DTYPE))
            self._lists = self._lists_of(vecs[self._order], cells)
            return
        if _CELL_MEMBER % (0, "vecs") not in arrays:
            raise VectorIndexError("no inverted lists; not an IVF checkpoint")

        def joined(part: str) -> np.ndarray:
            return np.concatenate([arrays[_CELL_MEMBER % (cell, part)]
                                   for cell in range(len(self._starts) - 1)])

        self._lists = self._lists_of(
            joined("vecs"), cells,
            None if self.quantizer_ is None else joined("codes"))

    def _quantizer_metadata(self) -> dict | None:
        if self.quantizer_ is None:
            return None
        if self.coding == "pq":
            codebooks = self.quantizer_.codebooks_
            return {"coding": "pq", "m": int(codebooks.shape[0]),
                    "n_codes": int(codebooks.shape[1]),
                    "bytes_per_vector": int(codebooks.shape[0])}
        return {"coding": "sq", "bits": 8, "bytes_per_vector": self.dim}


#: The coded index under its former name (same class; ``coding`` defaults
#: to ``"pq"``).
IVFPQIndex = IVFIndex
