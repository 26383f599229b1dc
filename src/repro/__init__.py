"""repro — deep clustering for data cleaning and integration.

A from-scratch reproduction of "Deep Clustering for Data Cleaning and
Integration" (Rauf, Freitas & Paton, EDBT 2024): schema inference, entity
resolution and domain discovery posed as clustering problems, solved with
deep clustering algorithms (SDCN, EDESC, SHGP, auto-encoder baselines) and
standard clustering baselines (K-means, Birch, DBSCAN) over several
embedding strategies (SBERT- and FastText-style text encoders, EmbDi
relational embeddings, TabNet/TabTransformer-style tabular encoders).

Quickstart
----------
>>> from repro import generate_camera, DomainDiscoveryTask
>>> dataset = generate_camera(n_columns=200, n_domains=12, seed=0)
>>> task = DomainDiscoveryTask(dataset)
>>> result = task.run(embedding="sbert", algorithm="kmeans")
>>> 0.0 <= result.acc <= 1.0
True

The paper's full evaluation matrix is scriptable from the command line —
``python -m repro list`` shows every registered table/figure and
``python -m repro run table2 --scale test --workers 4`` reproduces one with
the independent cells fanned out on a worker pool; embedding matrices are
deduplicated by the content-addressed cache in :mod:`repro.cache`.

Fitted models persist as versioned NPZ checkpoints (:mod:`repro.serialize`)
and serve online out-of-sample predictions over a stdlib JSON HTTP API with
micro-batched forwards (:mod:`repro.serve`): ``repro train ... --save m.npz``
then ``repro serve --model-dir models/``.

Nearest-neighbour work — SDCN's KNN graph, DBSCAN's epsilon queries, and
the serving API's similarity search — can route through the ANN vector
indexes in :mod:`repro.index` (``FlatIndex``, ``IVFIndex``), which
persist and hot-reload through the same checkpoint machinery: ``repro
train ... --with-index ivf`` then ``POST /search``.

Models are also continuously updatable (:mod:`repro.stream`): ``repro
stream`` replays a dataset as arrival batches with drift-aware incremental
updates, ``repro update`` absorbs new data into a checkpoint and rotates it
to its next generation (:func:`repro.serialize.rotate_checkpoint`), and a
serving process hot-reloads the new generation with zero failed predicts.
With ``--wal-dir``, ingestion is *durable* (:mod:`repro.wal`): every batch
is journaled to a CRC-checksummed, fsync'd write-ahead log before it
touches the model, crash recovery replays exactly the un-applied suffix
(``repro serve --wal-dir``), and ``repro repair`` salvages damaged
directories.
"""

from ._version import __version__
from .cache import (
    ArtifactCache,
    configure_cache,
    get_cache,
    reset_cache,
)
from .config import (
    BENCHMARK_SCALE,
    DEFAULT_SEED,
    TEST_SCALE,
    DeepClusteringConfig,
    ExperimentScale,
)
from .clustering import Birch, DBSCAN, KMeans
from .dc import EDESC, SDCN, SHGP, Autoencoder, AutoencoderClustering
from .data import (
    Column,
    ColumnClusteringDataset,
    Record,
    RecordClusteringDataset,
    Table,
    TableClusteringDataset,
    generate_camera,
    generate_geographic_settlements,
    generate_monitor,
    generate_musicbrainz,
    generate_musicbrainz_scalability,
    generate_tus,
    generate_webtables,
    profile_datasets,
)
from .embeddings import (
    EmbDiEmbedder,
    FastTextEncoder,
    SBERTEncoder,
    TabNetEncoder,
    TabTransformerEncoder,
    embed_item,
    embed_items,
)
from .index import (
    FlatIndex,
    IVFIndex,
    VectorIndex,
    create_index,
)
from .serialize import (
    checkpoint_generations,
    load_checkpoint,
    read_checkpoint_header,
    rotate_checkpoint,
    save_checkpoint,
)
from .serve import (
    MicroBatcher,
    ModelRegistry,
    PredictService,
    create_server,
)
from .stream import (
    DriftMonitor,
    StreamSource,
    incremental_update,
)
from .wal import (
    WriteAheadLog,
    recover_checkpoint,
    recover_model_dir,
    repair_directory,
    replay_wal,
)
from .metrics import (
    adjusted_rand_index,
    clustering_accuracy,
    normalized_mutual_information,
    silhouette_score,
)
from .tasks import (
    DomainDiscoveryTask,
    EntityResolutionTask,
    SchemaInferenceTask,
    TaskResult,
)
from .experiments import (
    EXPERIMENTS,
    Cell,
    ExperimentPlan,
    ParallelRunner,
    format_results_table,
    plan_experiment,
    render_rows,
    run_experiment,
    run_plan,
    run_scalability_study,
)

__all__ = [
    "__version__",
    "DEFAULT_SEED",
    "DeepClusteringConfig",
    "ExperimentScale",
    "BENCHMARK_SCALE",
    "TEST_SCALE",
    "KMeans",
    "Birch",
    "DBSCAN",
    "Autoencoder",
    "AutoencoderClustering",
    "SDCN",
    "EDESC",
    "SHGP",
    "Table",
    "Column",
    "Record",
    "TableClusteringDataset",
    "RecordClusteringDataset",
    "ColumnClusteringDataset",
    "generate_webtables",
    "generate_tus",
    "generate_musicbrainz",
    "generate_musicbrainz_scalability",
    "generate_geographic_settlements",
    "generate_camera",
    "generate_monitor",
    "profile_datasets",
    "SBERTEncoder",
    "FastTextEncoder",
    "EmbDiEmbedder",
    "TabNetEncoder",
    "TabTransformerEncoder",
    "adjusted_rand_index",
    "clustering_accuracy",
    "normalized_mutual_information",
    "silhouette_score",
    "SchemaInferenceTask",
    "EntityResolutionTask",
    "DomainDiscoveryTask",
    "TaskResult",
    "EXPERIMENTS",
    "Cell",
    "ExperimentPlan",
    "ParallelRunner",
    "plan_experiment",
    "run_experiment",
    "run_plan",
    "run_scalability_study",
    "format_results_table",
    "render_rows",
    "ArtifactCache",
    "configure_cache",
    "get_cache",
    "reset_cache",
    "VectorIndex",
    "create_index",
    "FlatIndex",
    "IVFIndex",
    "save_checkpoint",
    "load_checkpoint",
    "read_checkpoint_header",
    "rotate_checkpoint",
    "checkpoint_generations",
    "embed_item",
    "embed_items",
    "MicroBatcher",
    "ModelRegistry",
    "PredictService",
    "create_server",
    "DriftMonitor",
    "StreamSource",
    "incremental_update",
    "WriteAheadLog",
    "recover_checkpoint",
    "recover_model_dir",
    "repair_directory",
    "replay_wal",
]
