"""Benchmark / regeneration of Figure 4: runtime scalability.

Figure 4a: runtime vs number of instances (fixed K); Figure 4b: runtime vs
number of clusters.  The paper's qualitative findings: SC methods are much
faster than DC methods and scale roughly linearly; DC runtimes grow steeply
with the number of clusters; SHGP is the slowest DC method at scale.

``test_figure4_sparse_scaling`` additionally compares the dense O(n^2)
graph path against the CSR/blocked-KNN sparse path and pushes the instance
sweep 4x past the largest dense point — only reachable because the sparse
path's memory is O(n * k).  Its measurements are written to
``BENCH_figure4_scalability.json`` (uploaded as a CI artifact so the perf
trajectory accumulates across commits).

The CLI-runnable version is ``python -m repro run figure4_scalability``;
this bench sweeps dataset sizes, so each size embeds fresh.
"""

from collections import defaultdict
from pathlib import Path

from conftest import run_once, write_bench_json

from repro.config import DeepClusteringConfig
from repro.experiments import run_scalability_study

_FIG4_CONFIG = DeepClusteringConfig(pretrain_epochs=8, train_epochs=8,
                                    layer_size=128, latent_dim=32, seed=7)

#: Where the dense-vs-sparse measurements land (repo root in CI).
_BENCH_JSON = Path("BENCH_figure4_scalability.json")


def test_figure4_runtime_scaling(benchmark):
    def run():
        return run_scalability_study(
            instance_grid=(120, 240, 480),
            cluster_grid=(30, 60, 120),
            fixed_clusters=40,
            algorithms=("sdcn", "shgp", "edesc", "kmeans", "dbscan", "birch"),
            config=_FIG4_CONFIG, seed=7)

    points = run_once(benchmark, run)
    print("\nFigure 4: runtime (seconds) per algorithm")
    for point in points:
        print(point.as_row())

    runtime = defaultdict(dict)
    for point in points:
        key = point.n_instances if point.sweep == "instances" else point.n_clusters
        runtime[(point.sweep, point.algorithm)][key] = point.runtime_seconds

    # SC methods are faster than DC methods at the largest instance count.
    largest = 480
    sc_time = max(runtime[("instances", name)][largest]
                  for name in ("kmeans", "birch", "dbscan"))
    dc_time = min(runtime[("instances", name)][largest]
                  for name in ("sdcn", "shgp", "edesc"))
    assert dc_time > sc_time

    # DC runtime grows with the number of clusters (Figure 4b).
    for name in ("sdcn", "edesc", "shgp"):
        series = runtime[("clusters", name)]
        assert series[120] > series[30]


def test_figure4_sparse_scaling(benchmark):
    """Dense vs sparse SDCN: the sparse path reaches 4x the dense grid."""
    dense_grid = (120, 240)
    sparse_grid = (120, 240, 480, 960)

    def run():
        results = {}
        for graph, grid in (("dense", dense_grid), ("sparse", sparse_grid)):
            results[graph] = run_scalability_study(
                instance_grid=grid, cluster_grid=(), fixed_clusters=40,
                algorithms=("sdcn",), config=_FIG4_CONFIG, graph=graph,
                batch_size=128 if graph == "sparse" else None, seed=7)
        return results

    results = run_once(benchmark, run)
    rows = [point.as_row()
            for graph in ("dense", "sparse") for point in results[graph]]
    print("\nFigure 4 (dense vs sparse): runtime and peak memory")
    for row in rows:
        print(row)
    write_bench_json(_BENCH_JSON, {"rows": rows})

    peak = {(p.graph, p.n_instances): p.peak_mem_mb
            for pts in results.values() for p in pts}
    # The sparse sweep extends 4x past the largest dense-swept point ...
    assert max(sparse_grid) >= 4 * max(dense_grid)
    assert {p.n_instances for p in results["sparse"]} == set(sparse_grid)
    # ... while staying far below the dense path's quadratic memory trend:
    # dense peak extrapolated from its largest point to 4x that size.
    growth = (max(sparse_grid) / max(dense_grid)) ** 2
    dense_extrapolated = peak[("dense", max(dense_grid))] * growth
    assert peak[("sparse", max(sparse_grid))] < dense_extrapolated
