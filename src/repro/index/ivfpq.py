"""IVF-PQ: inverted lists of quantized codes with exact top-R rerank.

The million-vector backend.  Like :class:`repro.index.IVFFlatIndex` a
k-means coarse quantizer routes each vector to one of ``nlist`` cells and
a query scans only the ``nprobe`` nearest cells — but inside a cell the
corpus is stored as *codes* (:mod:`repro.index.quant`), not floats:

* ``coding="pq"`` (default) — :class:`ProductQuantizer` codes, ``m``
  bytes per vector.  Candidates are scored by asymmetric distance: one
  lookup-table build per probed cell, then ``m`` table reads per
  candidate.
* ``coding="sq"`` — :class:`ScalarQuantizer` codes, ``d`` bytes per
  vector, scored against the int8 reconstructions.

Codes quantize *residuals* (``x - centroid(cell)``), IVFADC-style: every
member of a cell shares the coarse term, so spending the code budget on
it would leave within-cell structure unresolved and the shortlist would
rank near-randomly exactly where it matters.  The identity
``||q - x||^2 = ||(q - c) - (x - c)||^2`` keeps residual scores true
squared distances to each candidate's reconstruction.

Approximate scores only *shortlist*: the top ``rerank`` candidates are
re-scored against the exact float32 vectors kept per cell, so the
returned distances are true metric distances and recall recovers from
quantization error without widening ``nprobe``.  ``nprobe`` and
``rerank`` are per-request tunables (:meth:`VectorIndex.query`).

Both metrics run on one score: vectors are unit-normalised at insert for
``metric="cosine"`` and squared Euclidean ordering on the unit sphere is
exactly cosine ordering, so a single squared-distance ADC serves both.

Checkpoints are where this backend departs from its siblings.  Every
repro checkpoint is a stored (never deflated) NPZ, so each member is a
contiguous byte run in the file; this backend stores every cell's codes
and exact vectors as separate members
(``cell.NNNNNN.codes`` / ``cell.NNNNNN.vecs``) marked lazy
(``lazy_array_prefix``): :func:`repro.serialize.load_checkpoint` skips
them and re-attaches the file through
:class:`repro.index.storage.MappedArrays` instead.  A loaded index keeps
only ids, assignments and the quantizers resident — cell data is paged
in by the OS when a query probes the cell — so corpora larger than RAM
load in milliseconds and serve within it.  Cell membership is *derived*,
not stored: a stable argsort of the eagerly-loaded assignments yields
the per-cell member lists, so attachment touches zero lazy members.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ConfigurationError, VectorIndexError
from ..utils.metrics_dispatch import squared_euclidean_distances
from .base import INDEX_DTYPE, VectorIndex
from .ivf import _TRAIN_ITER, _TRAIN_MIN, _TRAIN_PER_LIST, nearest_cells
from .quant import ProductQuantizer, ScalarQuantizer
from .storage import MappedArrays

__all__ = ["IVFPQIndex"]

#: Quantizer-training sample cap: codebooks (and scalar ranges) converge
#: on tens of thousands of rows; training on a full million-row corpus
#: would dominate build time for no recall gain.
_QUANT_TRAIN_MAX = 16384

_CODINGS = ("pq", "sq")

#: Checkpoint member names of one cell's payload.  The ``array.`` prefix
#: is repro.serialize's member namespace — the lazy store reads the same
#: zip members the eager loader would have.
_CODES_MEMBER = "array.cell.{:06d}.codes"
_VECS_MEMBER = "array.cell.{:06d}.vecs"


class IVFPQIndex(VectorIndex):
    """Inverted-file index over quantized codes with exact reranking.

    Parameters
    ----------
    nlist:
        Number of coarse cells; ``None`` picks ``~sqrt(n)`` at build time.
    nprobe:
        Cells scanned per query (per-request tunable ``nprobe``).
    m:
        Product-quantizer sub-spaces (bytes per stored code).  Clamped at
        build time to the largest divisor of the dimensionality.  Ignored
        for ``coding="sq"``.
    rerank:
        Shortlist size re-scored against exact vectors per query
        (per-request tunable ``rerank``; ``0`` returns raw approximate
        distances).
    coding:
        ``"pq"`` (product quantizer) or ``"sq"`` (scalar int8).
    seed:
        Seed for the coarse and product quantizer training.
    """

    backend = "ivfpq"

    _QUERY_TUNABLES = {"nprobe": 1, "rerank": 0}

    #: Members under this prefix are skipped at load time and served
    #: lazily from the file via attach_store().
    lazy_array_prefix = "cell."

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
        self.centroids_: np.ndarray | None = None
        self.assignments_: np.ndarray | None = None
        self.quantizer_ = None
        # Derived layout (all resident, all computed from assignments_):
        # _order[starts[c]:starts[c+1]] lists cell c's member positions;
        # _local_of maps a global position to its offset inside its cell.
        self._order: np.ndarray | None = None
        self._starts: np.ndarray | None = None
        self._local_of: np.ndarray | None = None
        # In-memory cell storage (build/add path) ...
        self._cell_codes: list[np.ndarray] | None = None
        self._cell_vecs: list[np.ndarray] | None = None
        # ... or the mmap-backed store (load path); exactly one is set on
        # a built index.
        self._store: MappedArrays | None = None

    # ------------------------------------------------------------------
    # introspection (an attached index has no resident vectors_)
    @property
    def size(self) -> int:
        if self.vectors_ is not None:
            return int(self.vectors_.shape[0])
        return (0 if self.assignments_ is None
                else int(self.assignments_.shape[0]))

    @property
    def dim(self) -> int:
        return (0 if self.centroids_ is None
                else int(self.centroids_.shape[1]))

    @property
    def attached(self) -> bool:
        """Is cell data served lazily from an mmap-backed checkpoint?"""
        return self._store is not None

    def _require_built(self) -> None:
        if self.assignments_ is None:
            raise VectorIndexError(
                f"{type(self).__name__} is empty; call build() first")

    def memory_bytes(self) -> int:
        """Resident bytes of the index structure.

        For an attached index this excludes the mmap-backed cell members
        (the OS pages those in and out on demand) — it is the number the
        memory-reduction benchmark reports.
        """
        self._require_built()
        resident = [self.ids_, self.assignments_, self.centroids_,
                    self._order, self._starts, self._local_of]
        if self.quantizer_ is not None:
            resident.extend(self.quantizer_.state_arrays().values())
        total = sum(a.nbytes for a in resident if a is not None)
        if not self.attached:
            if self.vectors_ is not None:
                total += self.vectors_.nbytes
            if self._search_vectors is not None \
                    and self._search_vectors is not self.vectors_:
                total += self._search_vectors.nbytes
            total += sum(b.nbytes for b in self._cell_codes or ())
            total += sum(b.nbytes for b in self._cell_vecs or ())
        return total

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
        """CSR cell membership from assignments — resident math only.

        Stable argsort orders members by global position within each
        cell, which is exactly the order cells are encoded and saved in,
        so derived membership and stored cell blocks always agree.
        """
        nlist = self.centroids_.shape[0]
        n = self.assignments_.shape[0]
        order = np.argsort(self.assignments_, kind="stable")
        counts = np.bincount(self.assignments_, minlength=nlist)
        starts = np.zeros(nlist + 1, dtype=np.int64)
        np.cumsum(counts, out=starts[1:])
        local = np.empty(n, dtype=np.int64)
        local[order] = (np.arange(n, dtype=np.int64)
                        - starts[self.assignments_[order]])
        self._order, self._starts, self._local_of = order, starts, local

    def _members(self, cell: int) -> np.ndarray:
        return self._order[self._starts[cell]:self._starts[cell + 1]]

    def _codes(self, cell: int) -> np.ndarray:
        if self._store is not None:
            return self._store[_CODES_MEMBER.format(cell)]
        return self._cell_codes[cell]

    def _vecs(self, cell: int) -> np.ndarray:
        if self._store is not None:
            return self._store[_VECS_MEMBER.format(cell)]
        return self._cell_vecs[cell]

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

    def _code_width(self) -> int:
        return self.quantizer_.m if self.coding == "pq" else self.dim

    def _encode_cell(self, vecs: np.ndarray, cell: int) -> np.ndarray:
        if vecs.shape[0] == 0:
            return np.empty((0, self._code_width()), dtype=np.uint8)
        return self.quantizer_.encode(vecs - self.centroids_[cell])

    def _rebuild(self) -> None:
        from ..clustering import KMeans

        X = self._search_vectors
        n, d = X.shape
        nlist = self._effective_nlist(n)
        sample = self._train_sample(
            X, max(_TRAIN_MIN, _TRAIN_PER_LIST * nlist))
        quantizer = KMeans(nlist, n_init=1, max_iter=_TRAIN_ITER,
                           seed=self.seed, init="random")
        quantizer.fit(sample)
        self.centroids_ = np.asarray(quantizer.cluster_centers_,
                                     dtype=INDEX_DTYPE)
        self.assignments_ = nearest_cells(X, self.centroids_, 1)[:, 0]
        self._derive_layout()
        code_sample = self._residual_sample(X)
        if self.coding == "pq":
            self.quantizer_ = ProductQuantizer(
                self._effective_m(d), seed=self.seed).train(code_sample)
        else:
            self.quantizer_ = ScalarQuantizer().train(code_sample)
        self._cell_codes, self._cell_vecs = [], []
        for cell in range(nlist):
            vecs = np.ascontiguousarray(X[self._members(cell)])
            self._cell_vecs.append(vecs)
            self._cell_codes.append(self._encode_cell(vecs, cell))
        self._store = None

    def add(self, X, ids=None) -> "IVFPQIndex":
        if self.attached:
            raise VectorIndexError(
                "an mmap-attached IVFPQIndex is read-only; rebuild the "
                "index to add vectors")
        return super().add(X, ids=ids)

    def _append(self, start: int) -> None:
        fresh = self._search_vectors[start:]
        cells = nearest_cells(fresh, self.centroids_, 1)[:, 0]
        self.assignments_ = np.concatenate([self.assignments_, cells])
        for cell in np.unique(cells):
            joined = cells == cell
            block = np.ascontiguousarray(fresh[joined])
            self._cell_codes[cell] = np.vstack(
                [self._cell_codes[cell], self._encode_cell(block, cell)])
            self._cell_vecs[cell] = np.vstack(
                [self._cell_vecs[cell], block])
        # Appended rows have the largest global positions, so the stable
        # re-derivation lands them at the tail of each cell segment —
        # matching the vstack order above.
        self._derive_layout()

    # ------------------------------------------------------------------
    # search
    @staticmethod
    def _adc_row(lut: np.ndarray, codes: np.ndarray) -> np.ndarray:
        """ADC accumulation for one (query, cell) pair: ``m`` gathers."""
        scores = lut[0, codes[:, 0]].copy()
        for j in range(1, codes.shape[1]):
            scores += lut[j, codes[:, j]]
        return scores

    def _approx_to_metric(self, scores: np.ndarray) -> np.ndarray:
        """Squared-Euclidean scores as (approximate) metric distances."""
        if self.metric == "cosine":
            # Unit sphere: ||q - x||^2 = 2 (1 - cos), so halving recovers
            # the cosine distance (up to quantization error).
            return np.maximum(scores / 2.0, 0.0)
        return np.sqrt(scores)

    def _exact_rows(self, positions: np.ndarray) -> np.ndarray:
        """Exact (metric-transformed) vectors at arbitrary positions."""
        if self._search_vectors is not None:
            return self._search_vectors[positions]
        out = np.empty((positions.shape[0], self.dim), dtype=INDEX_DTYPE)
        cells = self.assignments_[positions]
        local = self._local_of[positions]
        for cell in np.unique(cells):
            mask = cells == cell
            out[mask] = self._vecs(cell)[local[mask]]
        return out

    def _exact_distances(self, query: np.ndarray,
                         positions: np.ndarray) -> np.ndarray:
        block = self._exact_rows(positions)
        if self.metric == "cosine":
            distances = 1.0 - query @ block.T
            np.maximum(distances, 0.0, out=distances)
            return distances[0]
        return np.sqrt(squared_euclidean_distances(query, block))[0]

    def _pad_pool(self, pool: np.ndarray, k: int) -> np.ndarray:
        """Ensure at least ``k`` candidates (probed cells can under-fill)."""
        pool = np.unique(pool)
        if pool.size >= k:
            return pool
        missing = np.setdiff1d(np.arange(self.size, dtype=np.int64), pool,
                               assume_unique=True)[:k - pool.size]
        return np.concatenate([pool, missing])

    def _search(self, Q: np.ndarray, k: int,
                tunables: dict) -> tuple[np.ndarray, np.ndarray]:
        nlist = self.centroids_.shape[0]
        nprobe = min(tunables.get("nprobe", self.nprobe), nlist)
        rerank = tunables.get("rerank", self.rerank)
        probes = nearest_cells(Q, self.centroids_, nprobe)
        q = Q.shape[0]
        indices = np.empty((q, k), dtype=np.int64)
        distances = np.empty((q, k), dtype=Q.dtype)
        for row in range(q):
            query = Q[row:row + 1]
            # Residual queries, one per probed cell: scores stay squared
            # distances to the candidates' reconstructions.
            residuals = query - self.centroids_[probes[row]]
            luts = (self.quantizer_.lookup_tables(residuals)
                    if self.coding == "pq" else None)
            pools, chunks = [], []
            for rank, cell in enumerate(probes[row]):
                start, stop = self._starts[cell], self._starts[cell + 1]
                if start == stop:
                    continue
                codes = self._codes(cell)
                if luts is not None:
                    chunk = self._adc_row(luts[rank], codes)
                else:
                    chunk = squared_euclidean_distances(
                        residuals[rank:rank + 1],
                        self.quantizer_.decode(codes))[0]
                pools.append(self._order[start:stop])
                chunks.append(chunk)
            pool = (np.concatenate(pools) if pools
                    else np.empty(0, dtype=np.int64))
            if pool.size < k:
                # Under-filled probes (tiny corpora): back-fill and score
                # the whole pool exactly — correctness over speed on a
                # path only small inputs hit.
                pool = self._pad_pool(pool, k)
                d = self._exact_distances(query, pool)
                indices[row], distances[row] = self._top_k(d, pool, k)
                continue
            scores = (np.concatenate(chunks) if len(chunks) > 1
                      else chunks[0])
            if rerank == 0:
                indices[row], distances[row] = self._top_k(
                    self._approx_to_metric(scores), pool, k)
                continue
            shortlist = min(max(rerank, k), pool.size)
            if pool.size > shortlist:
                keep = np.argpartition(scores, kth=shortlist - 1)[:shortlist]
                pool = pool[keep]
            d = self._exact_distances(query, pool)
            indices[row], distances[row] = self._top_k(d, pool, k)
        return indices, distances

    # ------------------------------------------------------------------
    # checkpoint protocol
    def _state_params(self) -> dict:
        return {"nlist": self.nlist, "nprobe": self.nprobe, "m": self.m,
                "rerank": self.rerank, "coding": self.coding,
                "seed": self.seed}

    @classmethod
    def _init_kwargs(cls, params: dict) -> dict:
        return {"nlist": params["nlist"], "nprobe": params["nprobe"],
                "m": params["m"], "rerank": params["rerank"],
                "coding": params["coding"], "seed": params["seed"]}

    def checkpoint_arrays(self) -> dict[str, np.ndarray]:
        # Deliberately no flat "vectors" array: exact vectors live only in
        # the per-cell members, which loaders map lazily.
        self._require_built()
        arrays = {"ids": self.ids_, "centroids": self.centroids_,
                  "assignments": self.assignments_,
                  **self.quantizer_.state_arrays()}
        for cell in range(self.centroids_.shape[0]):
            arrays[f"cell.{cell:06d}.codes"] = self._codes(cell)
            arrays[f"cell.{cell:06d}.vecs"] = self._vecs(cell)
        return arrays

    @classmethod
    def from_checkpoint(cls, params: dict, arrays: dict) -> "IVFPQIndex":
        index = cls(metric=params["metric"], **cls._init_kwargs(params))
        ids = np.asarray(arrays["ids"])
        index.ids_ = ids if ids.dtype.kind in "US" else ids.astype(np.int64)
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
        cell_names = sorted(name for name in arrays
                            if name.startswith("cell."))
        if cell_names:
            # Eagerly materialised cells (a caller that chose not to mmap):
            # fully resident, behaves like a freshly built index.
            nlist = index.centroids_.shape[0]
            index._cell_codes = [np.asarray(arrays[f"cell.{c:06d}.codes"])
                                 for c in range(nlist)]
            index._cell_vecs = [np.asarray(arrays[f"cell.{c:06d}.vecs"],
                                           dtype=INDEX_DTYPE)
                                for c in range(nlist)]
        return index

    def attach_store(self, path) -> None:
        """Serve cell members lazily from the checkpoint at ``path``.

        Called by :mod:`repro.serialize` after the eager (non-lazy)
        arrays are restored.  The mapping holds its own file descriptor,
        so hot rotation replacing ``path`` on disk never invalidates an
        attached index — it keeps reading its own generation.
        """
        store = MappedArrays(path)
        expected = _CODES_MEMBER.format(0)
        if self.centroids_.shape[0] > 0 and expected not in store:
            store.close()
            raise VectorIndexError(
                f"{path} holds no cell members; not an IVF-PQ checkpoint")
        self._store = store
        self._cell_codes = None
        self._cell_vecs = None

    def _quantizer_metadata(self) -> dict | None:
        if self.quantizer_ is None:
            return None
        if self.coding == "pq":
            codebooks = self.quantizer_.codebooks_
            return {"coding": "pq", "m": int(codebooks.shape[0]),
                    "n_codes": int(codebooks.shape[1]),
                    "bytes_per_vector": int(codebooks.shape[0])}
        return {"coding": "sq", "bits": 8, "bytes_per_vector": self.dim}
