"""Vector indexes: exact and approximate nearest-neighbour search.

The paper's pipeline is nearest-neighbour-bound end to end — SDCN's
structural input is a KNN graph, DBSCAN is defined by
epsilon-neighbourhood queries, and serving predicts by distance to stored
points.  This package supplies the standard database answer, an ANN index,
behind one protocol:

* :class:`FlatIndex` — exact blocked scan; recall 1.0, the baseline;
* :class:`IVFIndex` — k-means coarse quantizer + inverted lists with
  ``nprobe``-tunable recall and one ``coding`` option: ``"none"`` scans
  the probed cells exactly (registry name ``"ivf"``), ``"pq"``/``"sq"``
  score quantized codes (:class:`ProductQuantizer` /
  :class:`ScalarQuantizer` from :mod:`repro.index.quant`) and re-score
  the top ``rerank`` exactly (registry name ``"ivfpq"``).  Its
  inverted lists (vectors, codes and scan terms, row-aligned in cell
  order) are its only corpus store, in one layout whether built, grown
  or loaded; saved IVF indexes load memory-mapped with lazily paged
  lists — the million-vector, larger-than-RAM backend — and an ``add``
  merges its batch into new in-memory lists.  ``IVFPQIndex`` is the same
  class under its former name.

All backends support cosine and Euclidean metrics, incremental
:meth:`add` for streaming, and round-trip through the versioned
:mod:`repro.serialize` checkpoint format — so indexes persist,
hot-reload and rotate alongside model generations.  Integration points:
``repro.graphs.knn.sparse_knn_graph(..., backend=...)`` for graph
construction, ``DBSCAN(index=...)`` for out-of-sample density queries,
and the serving API's ``POST /models/{name}/neighbors`` / ``POST
/search`` routes for similarity search over tables.
"""

from .base import INDEX_BACKENDS, INDEX_DTYPE, VectorIndex, create_index
from .flat import FlatIndex
from .ivf import IVFIndex, IVFPQIndex
from .quant import ProductQuantizer, ScalarQuantizer
from .storage import MappedArrays

__all__ = [
    "INDEX_BACKENDS",
    "INDEX_DTYPE",
    "VectorIndex",
    "create_index",
    "FlatIndex",
    "IVFIndex",
    "IVFPQIndex",
    "ProductQuantizer",
    "ScalarQuantizer",
    "MappedArrays",
]
