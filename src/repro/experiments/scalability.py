"""Runtime scalability study (Figure 4).

The paper measures clustering runtime on subsets of MusicBrainz 200K:

* Figure 4a — runtime vs number of instances at fixed K = 200 (entities are
  duplicated so K stays constant while the record count grows);
* Figure 4b — runtime vs number of clusters K (the instance count follows
  the chosen K).

The study reproduces both sweeps for any subset of the six clustering
algorithms, returning wall-clock seconds (and the peak traced memory) per
(algorithm, point).  ``graph="sparse"`` routes the graph-based models
through the CSR adjacency / blocked-KNN path of :mod:`repro.graphs.knn`,
which keeps memory at O(n * k) and unlocks instance counts the dense
O(n^2) path cannot reach; ``batch_size`` additionally enables mini-batch
fine-tuning (see :class:`repro.config.DeepClusteringConfig`).
"""

from __future__ import annotations

import tracemalloc
from dataclasses import dataclass

from ..config import DeepClusteringConfig
from ..data import generate_musicbrainz_scalability
from ..tasks.base import evaluate_clustering
from ..tasks.entity_resolution import embed_records

__all__ = ["ScalabilityPoint", "run_scalability_study"]

_DEFAULT_ALGORITHMS = ("sdcn", "shgp", "edesc", "kmeans", "dbscan", "birch")


@dataclass(frozen=True)
class ScalabilityPoint:
    """One measured point of Figure 4."""

    sweep: str                # "instances" or "clusters"
    algorithm: str
    n_instances: int
    n_clusters: int
    runtime_seconds: float
    ari: float
    graph: str = "dense"      # adjacency representation used by DC models
    peak_mem_mb: float = 0.0  # peak traced allocation during the fit

    def as_row(self) -> dict[str, object]:
        """Flat row for table/JSON/CSV rendering."""
        return {
            "sweep": self.sweep,
            "algorithm": self.algorithm,
            "graph": self.graph,
            "n_instances": self.n_instances,
            "n_clusters": self.n_clusters,
            "runtime_s": round(self.runtime_seconds, 4),
            "peak_mem_mb": round(self.peak_mem_mb, 2),
            "ARI": round(self.ari, 3),
        }


def _measured_cell(X, labels, *, algorithm: str, dataset: str,
                   embedding: str, config: DeepClusteringConfig,
                   seed: int | None):
    """Run one cell under tracemalloc and return (result, peak MiB).

    When a caller is already tracing, its trace is left untouched (no
    ``reset_peak``, which would destroy the caller's measurement); the
    reported per-cell value is then the cumulative peak so far.
    """
    nested = tracemalloc.is_tracing()
    if not nested:
        tracemalloc.start()
        tracemalloc.reset_peak()
    try:
        result = evaluate_clustering(
            X, labels, algorithm=algorithm, dataset=dataset,
            task="entity_resolution", embedding=embedding, config=config,
            seed=seed)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if not nested:
            tracemalloc.stop()
    return result, peak / (1024.0 * 1024.0)


def run_scalability_study(*, instance_grid: tuple[int, ...] = (200, 400, 800),
                          cluster_grid: tuple[int, ...] = (50, 100, 200),
                          fixed_clusters: int = 100,
                          records_per_cluster: int = 4,
                          algorithms: tuple[str, ...] = _DEFAULT_ALGORITHMS,
                          config: DeepClusteringConfig | None = None,
                          embedding: str = "sbert",
                          graph: str | None = None,
                          graph_backend: str | None = None,
                          batch_size: int | None = None,
                          seed: int | None = None) -> list[ScalabilityPoint]:
    """Measure clustering runtimes and peak memory over both sweeps.

    ``graph`` / ``graph_backend`` / ``batch_size`` override the
    corresponding fields of ``config`` when given (``graph="sparse"`` is
    what pushes the instance sweep past the dense O(n^2) wall;
    ``graph_backend="ivf"`` additionally drops graph
    *construction* below the blocked exact scan).
    """
    config = config or DeepClusteringConfig(pretrain_epochs=10, train_epochs=10)
    if graph is not None:
        config = config.with_updates(graph=graph)
    if graph_backend is not None:
        config = config.with_updates(graph_backend=graph_backend)
    if batch_size is not None:
        config = config.with_updates(batch_size=batch_size)
    points: list[ScalabilityPoint] = []

    # Sweep 1: vary the number of instances at a fixed number of clusters.
    for n_instances in instance_grid:
        dataset = generate_musicbrainz_scalability(
            n_instances, min(fixed_clusters, n_instances), seed=seed)
        X = embed_records(dataset, embedding, seed=seed)
        for algorithm in algorithms:
            result, peak_mb = _measured_cell(
                X, dataset.labels, algorithm=algorithm, dataset=dataset.name,
                embedding=embedding, config=config, seed=seed)
            points.append(ScalabilityPoint(
                sweep="instances", algorithm=algorithm,
                n_instances=n_instances,
                n_clusters=min(fixed_clusters, n_instances),
                runtime_seconds=result.runtime_seconds, ari=result.ari,
                graph=config.graph, peak_mem_mb=peak_mb))

    # Sweep 2: vary the number of clusters (instances follow K).
    for n_clusters in cluster_grid:
        n_instances = n_clusters * records_per_cluster
        dataset = generate_musicbrainz_scalability(
            n_instances, n_clusters, seed=seed)
        X = embed_records(dataset, embedding, seed=seed)
        for algorithm in algorithms:
            result, peak_mb = _measured_cell(
                X, dataset.labels, algorithm=algorithm, dataset=dataset.name,
                embedding=embedding, config=config, seed=seed)
            points.append(ScalabilityPoint(
                sweep="clusters", algorithm=algorithm,
                n_instances=n_instances, n_clusters=n_clusters,
                runtime_seconds=result.runtime_seconds, ari=result.ari,
                graph=config.graph, peak_mem_mb=peak_mb))
    return points
