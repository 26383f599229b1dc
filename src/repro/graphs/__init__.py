"""Graph substrates used by the deep clustering models and benchmarks.

* :mod:`repro.graphs.knn` — K-nearest-neighbour graph construction, the
  structural input of SDCN: a dense O(n^2) path, a blocked/sparse CSR
  path with O(n * k) memory, and ANN-accelerated backends
  (``backend="ivf"|"ivfpq"`` via :mod:`repro.index`) for sub-quadratic
  construction at scale.
* :mod:`repro.graphs.gcn` — graph convolutional layer built on
  :mod:`repro.nn`, used by SDCN's GCN branch (dense or sparse propagation).
* :mod:`repro.graphs.lpa` — label propagation, the structural clustering at
  the heart of SHGP's Att-LPA module.
* :mod:`repro.graphs.louvain` — Louvain community detection, used to derive
  the TUS benchmark's union-ability ground truth (Section 5).
* :mod:`repro.graphs.hin` — a small heterogeneous information network model
  for SHGP.
"""

from .knn import (
    ann_topk_neighbors,
    blocked_topk_neighbors,
    cosine_similarity_matrix,
    knn_graph,
    normalized_adjacency,
    sparse_knn_graph,
)
from .gcn import GCNLayer
from .lpa import label_propagation, attention_label_propagation
from .louvain import louvain_communities
from .hin import HeterogeneousGraph, NodeType

__all__ = [
    "knn_graph",
    "sparse_knn_graph",
    "blocked_topk_neighbors",
    "ann_topk_neighbors",
    "normalized_adjacency",
    "cosine_similarity_matrix",
    "GCNLayer",
    "label_propagation",
    "attention_label_propagation",
    "louvain_communities",
    "HeterogeneousGraph",
    "NodeType",
]
