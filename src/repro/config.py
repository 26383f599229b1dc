"""Global configuration objects and deterministic seeding helpers.

The paper's experiments (Section 4.2) fix a small number of cross-cutting
hyper-parameters: the number of auto-encoder layers, the hidden layer size,
the latent dimension ``z``, and the number of (pre-)training epochs.  This
module centralises those knobs so that tasks, benchmarks and examples can
share one consistent configuration surface.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .exceptions import ConfigurationError

#: Default seed used across the library when the caller does not supply one.
DEFAULT_SEED = 7


def make_rng(seed: int | None = None) -> np.random.Generator:
    """Return a numpy :class:`~numpy.random.Generator` for ``seed``.

    ``None`` falls back to :data:`DEFAULT_SEED` so that every run of the
    library is reproducible unless the caller explicitly asks otherwise.
    """
    return np.random.default_rng(DEFAULT_SEED if seed is None else seed)


@dataclass(frozen=True)
class DeepClusteringConfig:
    """Hyper-parameters shared by the deep clustering algorithms.

    Defaults follow Section 4.2 of the paper: two encoder layers of size
    1000, latent dimension 100, 30 pre-training epochs (100 for entity
    resolution), and silhouette-based stopping for the joint training phase.

    ``graph`` selects the KNN-graph representation used by the graph-based
    models (``"dense"`` reproduces the original O(n^2) path; ``"sparse"``
    builds a CSR adjacency with the blocked top-k search and keeps memory at
    O(n * k)).  ``graph_backend`` selects how the sparse graph's top-k
    search runs: ``"exact"`` is the blocked scan; ``"flat"``/``"ivf"``/
    ``"ivfpq"`` route through a :mod:`repro.index` vector index, dropping
    construction below the O(n^2 d) wall at a sliver of recall.
    ``batch_size`` enables mini-batch training: the auto-encoder
    pre-training always honours it, and SDCN/EDESC additionally fine-tune on
    mini-batches with per-batch target-distribution updates when set.
    """

    n_layers: int = 2
    layer_size: int = 1000
    latent_dim: int = 100
    pretrain_epochs: int = 30
    train_epochs: int = 50
    learning_rate: float = 1e-3
    reconstruction_weight: float = 1.0
    clustering_weight: float = 0.1
    batch_size: int | None = None
    graph: str = "dense"
    graph_backend: str = "exact"
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        if self.n_layers < 1:
            raise ConfigurationError("n_layers must be >= 1")
        if self.layer_size < 1:
            raise ConfigurationError("layer_size must be >= 1")
        if self.latent_dim < 1:
            raise ConfigurationError("latent_dim must be >= 1")
        if self.pretrain_epochs < 0 or self.train_epochs < 0:
            raise ConfigurationError("epoch counts must be non-negative")
        if self.learning_rate <= 0:
            raise ConfigurationError("learning_rate must be positive")
        if self.reconstruction_weight < 0 or self.clustering_weight < 0:
            raise ConfigurationError("loss weights must be non-negative")
        if self.batch_size is not None and self.batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1 (or None)")
        if self.graph not in ("dense", "sparse"):
            raise ConfigurationError(
                f"graph must be 'dense' or 'sparse', got {self.graph!r}")
        from .index.base import INDEX_BACKENDS

        if self.graph_backend not in ("exact",) + INDEX_BACKENDS:
            raise ConfigurationError(
                f"graph_backend must be one of "
                f"{('exact',) + INDEX_BACKENDS}, got "
                f"{self.graph_backend!r}")

    def with_updates(self, **changes) -> "DeepClusteringConfig":
        """Return a copy of this config with ``changes`` applied."""
        return replace(self, **changes)

    def scaled_for(self, n_samples: int) -> "DeepClusteringConfig":
        """Return a config with layer sizes bounded by the sample count.

        The paper uses hidden layers of 1000 units on datasets with a few
        hundred to a few thousand rows.  When the harness runs on very small
        synthetic datasets (unit tests, quick examples), full-size layers
        waste time without changing behaviour, so the layer size is capped
        at ``4 * n_samples`` (never below 16).
        """
        cap = max(16, 4 * int(n_samples))
        return self.with_updates(layer_size=min(self.layer_size, cap),
                                 latent_dim=min(self.latent_dim, cap))


@dataclass(frozen=True)
class ExperimentScale:
    """Scale factors for the synthetic benchmark generators.

    The real benchmarks range from a few hundred tables to tens of
    thousands of columns.  The generators accept explicit sizes; this
    object groups the defaults used by the benchmark harness so that
    EXPERIMENTS.md can record a single scale description.
    """

    webtables_tables: int = 120
    webtables_clusters: int = 26
    tus_tables: int = 200
    tus_clusters: int = 37
    musicbrainz_records: int = 600
    musicbrainz_clusters: int = 200
    geographic_records: int = 600
    geographic_clusters: int = 200
    camera_columns: int = 800
    camera_domains: int = 56
    monitor_columns: int = 900
    monitor_domains: int = 81
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        sizes = (
            self.webtables_tables, self.tus_tables, self.musicbrainz_records,
            self.geographic_records, self.camera_columns, self.monitor_columns,
        )
        clusters = (
            self.webtables_clusters, self.tus_clusters,
            self.musicbrainz_clusters, self.geographic_clusters,
            self.camera_domains, self.monitor_domains,
        )
        for size, k in zip(sizes, clusters):
            if size <= 0 or k <= 0:
                raise ConfigurationError("scale sizes must be positive")
            if k > size:
                raise ConfigurationError(
                    "number of clusters cannot exceed number of instances")


#: Scale used by unit tests: small enough for sub-second generation.
TEST_SCALE = ExperimentScale(
    webtables_tables=40, webtables_clusters=8,
    tus_tables=40, tus_clusters=8,
    musicbrainz_records=120, musicbrainz_clusters=40,
    geographic_records=120, geographic_clusters=40,
    camera_columns=120, camera_domains=12,
    monitor_columns=120, monitor_domains=12,
)

#: Scale used by the benchmark harness (EXPERIMENTS.md records results at
#: this scale).
BENCHMARK_SCALE = ExperimentScale()
