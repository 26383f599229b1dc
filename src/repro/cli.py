"""Unified command-line interface for the experiment harness.

``python -m repro`` (or the ``repro`` console script) exposes the paper's
evaluation matrix without writing any Python:

``repro list``
    Show every registered experiment (id, kind, title, matrix size).
``repro run <experiment_id>``
    Execute one experiment — tables, ``table1`` profiling, the
    ``ks_density`` analysis or the ``figure4_scalability`` sweep — at a
    chosen ``--scale``, optionally fanning the independent cells out over
    ``--workers`` threads or processes, and render the results as
    ``--format {table,json,csv}``.  ``--graph {dense,sparse}`` selects the
    KNN-graph representation for the graph-based models and
    ``--batch-size`` enables mini-batch deep clustering training.
``repro export <experiment_id>``
    Run one experiment through the same harness as ``repro run`` and
    serialise its result rows with a pluggable :mod:`repro.export`
    exporter (``--export-format {csv,jsonl,npz}``) to ``--output`` or
    stdout — the offline twin of ``GET /v1/jobs/{id}/result?format=...``.
``repro profile``
    Reproduce the Table 1 dataset-property rows for any dataset subset.
``repro docs``
    Regenerate ``EXPERIMENTS.md`` from the experiment registry and, with
    ``--api``, the ``API.md`` public-API reference (``--check`` verifies
    they are in sync without writing).
``repro train <task>``
    Fit one (dataset, embedding, algorithm) cell and persist the fitted
    model as an NPZ checkpoint (``--save``), ready for serving.
``repro serve``
    Serve a directory of checkpoints over a stdlib JSON HTTP API,
    versioned under ``/v1`` (``GET /v1/models``, ``GET /v1/healthz``,
    ``POST /v1/models/{name}/predict``, async experiment jobs via
    ``POST /v1/jobs``), with micro-batched out-of-sample prediction and,
    by default, hot reload: checkpoints rotated in place are swapped in
    off the request path with zero failed predicts.
``repro stream <task>``
    Replay a dataset as arrival batches (optionally with injected drift)
    and keep the model current with incremental updates, refitting only
    when the drift monitor demands it; ``--save`` rotates a servable
    checkpoint generation per step.
``repro update <checkpoint>``
    Absorb a batch of new data into a saved checkpoint in place
    (``partial_fit`` / warm-start fine-tuning) and rotate the file to its
    next generation — a running ``repro serve`` picks it up live.
``repro repair <dir>``
    Salvage a damaged model directory: delete orphaned temp files,
    restore corrupt or missing live checkpoints from their newest valid
    archived generation, truncate torn WAL segments at the last good
    record, and (``--recheckpoint``) replay pending journal suffixes into
    fresh generations.  ``--dry-run`` reports without touching anything.
    Offline tool: stop ingestion/serving writers first (recent ``*.tmp``
    files are spared as a guard, ``--tmp-grace 0`` forces).
``repro search <task>``
    Query a saved :mod:`repro.index` vector index (from ``repro train
    --with-index`` or ``repro stream --with-index``) with a raw JSON item:
    embeds the item in the index's training space and prints the top-k
    nearest corpus items with ids and distances.
``repro bench <name>``
    Run one benchmark script and diff its fresh ``BENCH_*.json`` against
    the committed baseline via ``benchmarks/compare_bench.py`` — the CI
    perf-regression gate, reproducible locally in one command.
``repro top``
    Live terminal dashboard over a running ``repro serve`` endpoint
    (single server or pool router): per-endpoint rps and p50/p99, per-
    stage latency (queue wait, batch forward, embed, WAL append/fsync),
    inflight requests, 429s, failovers, respawns and reload generations,
    refreshed every ``--interval`` seconds (``--once`` for one frame).

Embedding matrices are cached in-process by :mod:`repro.cache`; pass
``--cache-dir`` to also persist them as NPZ files shared across runs and
worker processes.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from ._version import __version__
from .cache import configure_cache, get_cache
from .config import (
    BENCHMARK_SCALE,
    TEST_SCALE,
    DeepClusteringConfig,
    ExperimentScale,
)
from .data.profiles import DatasetProfile
from .exceptions import ReproError
from .index.base import INDEX_BACKENDS
from .experiments import (
    EXPERIMENTS,
    NON_MATRIX_RESULTS,
    RESULT_FORMATS,
    experiment_result_rows,
    format_results_table,
    get_experiment,
    render_api_md,
    render_experiments_md,
    render_rows,
    run_experiment,
    write_api_md,
    write_experiments_md,
)

__all__ = ["main", "build_parser"]

_SCALES: dict[str, ExperimentScale] = {
    "test": TEST_SCALE,
    "benchmark": BENCHMARK_SCALE,
}

#: All dataset names ``build_dataset`` understands (profile subcommand).
_DATASET_NAMES = ("webtables", "tus", "musicbrainz", "geographic",
                  "camera", "monitor")

#: Datasets each task pipeline trains on (train subcommand).
_TASK_DATASETS = {
    "schema_inference": ("webtables", "tus"),
    "entity_resolution": ("musicbrainz", "geographic"),
    "domain_discovery": ("camera", "monitor"),
}

#: Vector-index backends the CLI exposes (one definition: repro.index).
_INDEX_BACKENDS = INDEX_BACKENDS

#: Bench subcommand: name -> (pytest target, BENCH json it writes).
_BENCHES = {
    "index": ("bench_index.py", "BENCH_index.json"),
    "serve": ("bench_serve.py", "BENCH_serve.json"),
    "stream": ("bench_stream.py", "BENCH_stream.json"),
    "figure4_scalability": (
        "bench_figure4_scalability.py::test_figure4_sparse_scaling",
        "BENCH_figure4_scalability.json"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the tables and analyses of 'Deep Clustering "
                    "for Data Cleaning and Integration' (EDBT 2024).")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    list_cmd = sub.add_parser(
        "list", help="list the registered experiments")
    list_cmd.add_argument("--format", choices=RESULT_FORMATS,
                          default="table", help="output format")

    run_cmd = sub.add_parser(
        "run", help="run one experiment (tables, table1, ks_density)")
    run_cmd.add_argument("experiment_id",
                         help="registry id, e.g. table2 (see 'repro list')")
    run_cmd.add_argument("--scale", choices=sorted(_SCALES),
                         default="benchmark",
                         help="dataset scale (default: benchmark)")
    run_cmd.add_argument("--workers", type=int, default=1,
                         help="worker pool size; 0 means one per CPU core "
                              "(default: 1, serial)")
    run_cmd.add_argument("--executor", choices=("thread", "process"),
                         default="thread",
                         help="pool flavour for --workers > 1")
    run_cmd.add_argument("--cache-dir", type=Path, default=None,
                         help="persist embedding artifacts as NPZ files "
                              "in this directory")
    run_cmd.add_argument("--format", choices=RESULT_FORMATS, default="table",
                         help="output format (default: table)")
    run_cmd.add_argument("--datasets", nargs="+", default=None,
                         metavar="NAME", help="restrict to these datasets")
    run_cmd.add_argument("--embeddings", nargs="+", default=None,
                         metavar="NAME", help="restrict to these embeddings")
    run_cmd.add_argument("--algorithms", nargs="+", default=None,
                         metavar="NAME", help="restrict to these algorithms")
    run_cmd.add_argument("--seed", type=int, default=None,
                         help="seed override for datasets and clusterers")
    run_cmd.add_argument("--epochs", type=int, default=None,
                         help="cap the deep clustering (pre-)training "
                              "epochs, for quick smoke runs")
    run_cmd.add_argument("--graph", choices=("dense", "sparse"), default=None,
                         help="KNN-graph path for the graph-based models: "
                              "dense (O(n^2), the paper's layout) or sparse "
                              "(CSR + blocked top-k, O(n*k) memory)")
    run_cmd.add_argument("--graph-backend",
                         choices=("exact",) + _INDEX_BACKENDS, default=None,
                         help="top-k search behind the sparse graph: exact "
                              "(blocked scan) or a repro.index ANN backend "
                              "(sub-quadratic construction)")
    run_cmd.add_argument("--batch-size", type=int, default=None,
                         help="mini-batch size for deep clustering "
                              "training (default: full batch)")
    run_cmd.add_argument("--pivot", action="store_true",
                         help="with --format table, render the paper's "
                              "pivoted table layout instead of flat rows")
    run_cmd.add_argument("--save-dir", type=Path, default=None,
                         help="persist every cell's fitted model as an NPZ "
                              "checkpoint in this directory (servable with "
                              "'repro serve --model-dir')")

    profile_cmd = sub.add_parser(
        "profile", help="dataset properties (Table 1)")
    profile_cmd.add_argument("--datasets", nargs="+", default=None,
                             metavar="NAME", choices=_DATASET_NAMES,
                             help=f"subset of {', '.join(_DATASET_NAMES)}")
    profile_cmd.add_argument("--scale", choices=sorted(_SCALES),
                             default="benchmark")
    profile_cmd.add_argument("--seed", type=int, default=None)
    profile_cmd.add_argument("--format", choices=RESULT_FORMATS,
                             default="table")

    docs_cmd = sub.add_parser(
        "docs", help="regenerate EXPERIMENTS.md (and, with --api, API.md)")
    docs_cmd.add_argument("--output", type=Path,
                          default=Path("EXPERIMENTS.md"),
                          help="destination path (default: ./EXPERIMENTS.md)")
    docs_cmd.add_argument("--api", action="store_true",
                          help="also regenerate the API.md public-API "
                               "reference from the package")
    docs_cmd.add_argument("--api-output", type=Path, default=Path("API.md"),
                          help="API reference destination (default: ./API.md)")
    docs_cmd.add_argument("--check", action="store_true",
                          help="exit non-zero if the file(s) are out of "
                               "sync instead of writing them")

    train_cmd = sub.add_parser(
        "train", help="fit one model and save it as a servable checkpoint")
    train_cmd.add_argument("task", choices=sorted(_TASK_DATASETS),
                           help="task pipeline to train")
    train_cmd.add_argument("--save", type=Path, required=True,
                           metavar="PATH",
                           help="checkpoint destination (NPZ)")
    train_cmd.add_argument("--dataset", default=None, metavar="NAME",
                           help="dataset to train on (default: the task's "
                                "first dataset)")
    train_cmd.add_argument("--embedding", default="sbert", metavar="NAME",
                           help="embedding method (default: sbert)")
    train_cmd.add_argument("--algorithm", default="kmeans", metavar="NAME",
                           help="clustering algorithm (default: kmeans)")
    train_cmd.add_argument("--scale", choices=sorted(_SCALES),
                           default="benchmark")
    train_cmd.add_argument("--seed", type=int, default=None)
    train_cmd.add_argument("--epochs", type=int, default=None,
                           help="cap the deep clustering (pre-)training "
                                "epochs, for quick smoke runs")
    train_cmd.add_argument("--cache-dir", type=Path, default=None,
                           help="persist embedding artifacts as NPZ files "
                                "in this directory")
    train_cmd.add_argument("--format", choices=RESULT_FORMATS,
                           default="table", help="summary output format")
    train_cmd.add_argument("--with-index", nargs="?", const="ivf",
                           choices=_INDEX_BACKENDS, default=None,
                           metavar="BACKEND",
                           help="also build a similarity-search index over "
                                "the training embeddings and save it next "
                                "to the checkpoint as <stem>.index.npz "
                                "(backend: flat, ivf or ivfpq; bare flag "
                                "means ivf)")

    serve_cmd = sub.add_parser(
        "serve", help="serve a directory of checkpoints over HTTP")
    serve_cmd.add_argument("--model-dir", type=Path, required=True,
                           help="directory of NPZ checkpoints "
                                "(from 'repro train --save' or "
                                "'repro run --save-dir')")
    serve_cmd.add_argument("--host", default="127.0.0.1")
    serve_cmd.add_argument("--port", type=int, default=8000,
                           help="listen port; 0 binds an ephemeral port "
                                "(default: 8000)")
    serve_cmd.add_argument("--max-loaded", type=int, default=4,
                           help="LRU bound on models resident in memory "
                                "(default: 4)")
    serve_cmd.add_argument("--batch-rows", type=int, default=256,
                           help="micro-batch row cap per forward pass "
                                "(default: 256)")
    serve_cmd.add_argument("--batch-delay-ms", type=float, default=2.0,
                           help="micro-batch linger in milliseconds; 0 "
                                "never lingers (default: 2.0)")
    serve_cmd.add_argument("--reload-ms", type=float, default=1000.0,
                           help="poll interval for hot-reloading rotated "
                                "checkpoints, in milliseconds "
                                "(default: 1000)")
    serve_cmd.add_argument("--no-hot-reload", action="store_true",
                           help="serve each loaded checkpoint as-is, "
                                "ignoring newer generations on disk")
    serve_cmd.add_argument("--wal-dir", type=Path, default=None,
                           metavar="DIR",
                           help="write-ahead-log root: replay any journal "
                                "suffix newer than each checkpoint's "
                                "watermark before serving (crash recovery)")
    serve_cmd.add_argument("--workers", type=int, default=1, metavar="N",
                           help="worker processes; N > 1 starts the "
                                "sharded pre-fork pool behind a router "
                                "(checkpoints shared zero-copy, requests "
                                "sharded by model name, 429+Retry-After "
                                "on overload) (default: 1)")
    serve_cmd.add_argument("--max-inflight", type=int, default=64,
                           metavar="N",
                           help="pool mode: per-worker admission bound — "
                                "requests beyond N concurrently in flight "
                                "on a worker are answered 429 "
                                "(default: 64)")
    serve_cmd.add_argument("--no-jobs", action="store_true",
                           help="disable the async jobs API "
                                "(POST /v1/jobs)")
    serve_cmd.add_argument("--jobs-dir", type=Path, default=None,
                           metavar="DIR",
                           help="directory for crash-safe job state files "
                                "(default: <model-dir>/jobs)")
    serve_cmd.add_argument("--job-workers", type=int, default=1,
                           metavar="N",
                           help="concurrent job executions (default: 1)")

    export_cmd = sub.add_parser(
        "export", help="run an experiment and write its result rows in an "
                       "exporter format (csv, jsonl, npz)")
    export_cmd.add_argument("experiment_id",
                            help="registry id, e.g. table2 (see "
                                 "'repro list'); same harness as "
                                 "'repro run'")
    export_cmd.add_argument("--export-format", default="csv",
                            choices=("csv", "jsonl", "npz"),
                            help="exporter to serialise the result rows "
                                 "with (default: csv)")
    export_cmd.add_argument("--output", type=Path, default=None,
                            metavar="FILE",
                            help="output file (default: stdout; npz "
                                 "requires --output or a redirect)")
    export_cmd.add_argument("--scale", choices=("test", "benchmark"),
                            default="benchmark",
                            help="experiment scale (default: benchmark)")
    export_cmd.add_argument("--datasets", nargs="+", default=None,
                            metavar="NAME")
    export_cmd.add_argument("--embeddings", nargs="+", default=None,
                            metavar="NAME")
    export_cmd.add_argument("--algorithms", nargs="+", default=None,
                            metavar="NAME")
    export_cmd.add_argument("--seed", type=int, default=None)
    export_cmd.add_argument("--epochs", type=int, default=None,
                            help="cap pre-train/train epochs (smoke runs)")
    export_cmd.add_argument("--workers", type=int, default=1, metavar="N",
                            help="cell parallelism, as in 'repro run' "
                                 "(default: 1)")
    export_cmd.add_argument("--cache-dir", type=Path, default=None,
                            metavar="DIR",
                            help="persist embeddings as NPZ files shared "
                                 "across runs")

    stream_cmd = sub.add_parser(
        "stream", help="replay a dataset as arrival batches with "
                       "incremental model updates")
    stream_cmd.add_argument("task", choices=sorted(_TASK_DATASETS),
                            help="task pipeline to stream")
    stream_cmd.add_argument("--dataset", default=None, metavar="NAME",
                            help="dataset to replay (default: the task's "
                                 "first dataset)")
    stream_cmd.add_argument("--embedding", default="sbert", metavar="NAME",
                            help="per-item stateless embedding "
                                 "(default: sbert)")
    stream_cmd.add_argument("--algorithm", default="kmeans", metavar="NAME",
                            help="clustering algorithm (default: kmeans)")
    stream_cmd.add_argument("--batches", type=int, default=4,
                            help="number of arrival batches after the "
                                 "initial fit (default: 4)")
    stream_cmd.add_argument("--drift", default=None,
                            choices=("none", "abbreviate", "typo", "case",
                                     "drop"),
                            help="corruption flavour injected with growing "
                                 "intensity over the batches")
    stream_cmd.add_argument("--drift-rate", type=float, default=0.5,
                            help="final per-item corruption probability "
                                 "(default: 0.5)")
    stream_cmd.add_argument("--initial-fraction", type=float, default=0.5,
                            help="share of items in the initial fit "
                                 "(default: 0.5)")
    stream_cmd.add_argument("--scale", choices=sorted(_SCALES),
                            default="benchmark")
    stream_cmd.add_argument("--seed", type=int, default=None)
    stream_cmd.add_argument("--epochs", type=int, default=None,
                            help="cap the deep clustering (pre-)training "
                                 "epochs, for quick smoke runs")
    stream_cmd.add_argument("--save", type=Path, default=None, metavar="PATH",
                            help="rotate a servable checkpoint generation "
                                 "here after every step (hot-reloadable by "
                                 "'repro serve')")
    stream_cmd.add_argument("--keep-generations", type=int, default=3,
                            help="archived checkpoint generations to retain "
                                 "(default: 3)")
    stream_cmd.add_argument("--cache-dir", type=Path, default=None,
                            help="persist embedding artifacts as NPZ files "
                                 "in this directory")
    stream_cmd.add_argument("--format", choices=RESULT_FORMATS,
                            default="table", help="output format")
    stream_cmd.add_argument("--with-index", nargs="?", const="ivf",
                            choices=_INDEX_BACKENDS, default=None,
                            metavar="BACKEND",
                            help="with --save: maintain a similarity-search "
                                 "index over everything streamed (built on "
                                 "the initial fit, extended incrementally "
                                 "per batch) and rotate it alongside the "
                                 "model as <stem>.index.npz")
    stream_cmd.add_argument("--wal-dir", type=Path, default=None,
                            metavar="DIR",
                            help="with --save: journal every batch to a "
                                 "write-ahead log before applying it, so a "
                                 "crash loses nothing ('repro serve "
                                 "--wal-dir' replays the suffix)")
    stream_cmd.add_argument("--stream-name", default="stream",
                            metavar="NAME",
                            help="WAL namespace for this ingestion stream "
                                 "(default: stream)")

    update_cmd = sub.add_parser(
        "update", help="absorb new data into a saved checkpoint in place")
    update_cmd.add_argument("checkpoint", type=Path,
                            help="NPZ checkpoint to update (rotated to its "
                                 "next generation)")
    update_cmd.add_argument("--data", required=True, metavar="NAME",
                            help="dataset generator providing the new batch "
                                 "(must belong to the checkpoint's task)")
    update_cmd.add_argument("--scale", choices=sorted(_SCALES),
                            default="test",
                            help="scale of the generated batch "
                                 "(default: test)")
    update_cmd.add_argument("--seed", type=int, default=None,
                            help="seed for the generated batch (default: a "
                                 "different seed than training, so the "
                                 "batch is genuinely new data)")
    update_cmd.add_argument("--epochs", type=int, default=2,
                            help="warm-start fine-tuning epochs for deep "
                                 "models (default: 2)")
    update_cmd.add_argument("--keep-generations", type=int, default=3,
                            help="archived checkpoint generations to retain "
                                 "(default: 3)")
    update_cmd.add_argument("--format", choices=RESULT_FORMATS,
                            default="table", help="output format")
    update_cmd.add_argument("--wal-dir", type=Path, default=None,
                            metavar="DIR",
                            help="journal the batch to the checkpoint's "
                                 "write-ahead log before applying it and "
                                 "stamp the applied watermark into the "
                                 "rotated generation")
    update_cmd.add_argument("--stream", default="updates", metavar="NAME",
                            help="WAL namespace for CLI-applied batches "
                                 "(default: updates)")

    repair_cmd = sub.add_parser(
        "repair", help="salvage a damaged model directory and its WAL "
                       "(offline: stop ingestion/serving writers first)")
    repair_cmd.add_argument("model_dir", type=Path,
                            help="directory of NPZ checkpoints to scan")
    repair_cmd.add_argument("--tmp-grace", type=float, default=60.0,
                            metavar="SECONDS",
                            help="leave *.tmp files younger than this alone "
                                 "in case a writer is still running; repair "
                                 "is meant to run offline, use 0 to force "
                                 "(default: 60)")
    repair_cmd.add_argument("--wal-dir", type=Path, default=None,
                            metavar="DIR",
                            help="write-ahead-log root (default: "
                                 "<model_dir>/wal when it exists)")
    repair_cmd.add_argument("--dry-run", action="store_true",
                            help="report findings without changing anything "
                                 "(exit code 1 when there are findings)")
    repair_cmd.add_argument("--recheckpoint", action="store_true",
                            help="after the structural fixes, replay any "
                                 "pending journal suffix into fresh "
                                 "checkpoint generations")
    repair_cmd.add_argument("--keep-generations", type=int, default=3,
                            help="archived generations to retain when "
                                 "re-checkpointing (default: 3)")
    repair_cmd.add_argument("--format", choices=RESULT_FORMATS,
                            default="table", help="output format")

    search_cmd = sub.add_parser(
        "search", help="query a saved vector index with a raw JSON item")
    search_cmd.add_argument("task", choices=sorted(_TASK_DATASETS),
                            help="task whose embedding space the index "
                                 "lives in")
    search_cmd.add_argument("--index", type=Path, required=True,
                            metavar="PATH",
                            help="index checkpoint (from 'repro train "
                                 "--with-index' or 'repro stream "
                                 "--with-index')")
    search_cmd.add_argument("--query", required=True, metavar="JSON",
                            help="one item as JSON (table/record/column "
                                 "payload, same shapes as the HTTP API), "
                                 "or a JSON list of items")
    search_cmd.add_argument("-k", type=int, default=5,
                            help="neighbours to return (default: 5)")
    search_cmd.add_argument("--nprobe", type=int, default=None,
                            metavar="N",
                            help="IVF cells to probe for this query "
                                 "(ivf/ivfpq indexes; default: the "
                                 "index's build-time setting)")
    search_cmd.add_argument("--rerank", type=int, default=None,
                            metavar="N",
                            help="exact-distance rerank depth for this "
                                 "query (ivfpq indexes; 0 disables the "
                                 "rerank pass)")
    search_cmd.add_argument("--format", choices=RESULT_FORMATS,
                            default="table", help="output format")

    bench_cmd = sub.add_parser(
        "bench", help="run one benchmark and gate it against the committed "
                      "baseline")
    bench_cmd.add_argument("name", choices=sorted(_BENCHES),
                           help="benchmark to run (writes BENCH_<...>.json "
                                "then diffs it via compare_bench.py)")
    bench_cmd.add_argument("--benchmarks-dir", type=Path,
                           default=Path("benchmarks"),
                           help="benchmark scripts directory (default: "
                                "./benchmarks — run from the repo root)")
    bench_cmd.add_argument("--compare-only", action="store_true",
                           help="skip the run; only diff an existing "
                                "BENCH json against the baseline")

    top_cmd = sub.add_parser(
        "top", help="live metrics dashboard over a running serve endpoint")
    top_cmd.add_argument("--url", default="http://127.0.0.1:8000",
                         help="base URL of the server or pool router "
                              "(default: http://127.0.0.1:8000)")
    top_cmd.add_argument("--interval", type=float, default=2.0,
                         help="refresh interval in seconds (default: 2)")
    top_cmd.add_argument("--iterations", type=int, default=None,
                         metavar="N", help="stop after N frames "
                                           "(default: run until Ctrl-C)")
    top_cmd.add_argument("--once", action="store_true",
                         help="print a single frame and exit (scriptable)")
    return parser


def _cmd_list(args: argparse.Namespace) -> int:
    rows = []
    for spec in EXPERIMENTS.values():
        plan_size = (len(spec.datasets) * len(spec.embeddings)
                     * len(spec.algorithms))
        rows.append({
            "id": spec.experiment_id,
            "kind": spec.kind,
            "cells": plan_size or "-",
            "title": spec.title,
        })
    print(render_rows(rows, args.format))
    return 0


def _run_config(args: argparse.Namespace) -> DeepClusteringConfig | None:
    # --graph / --batch-size are NOT baked into a config here: returning a
    # config would override task-specific defaults (entity resolution's
    # longer pre-training).  They travel as partial overrides through
    # run_experiment instead.
    if args.epochs is None:
        return None
    if getattr(args, "experiment_id", None) == "figure4_scalability":
        # Match run_scalability_study's short default schedule so --epochs
        # caps it instead of resurrecting the full 30/50 schedule.
        config = DeepClusteringConfig(pretrain_epochs=10, train_epochs=10)
    else:
        config = DeepClusteringConfig()
    return config.with_updates(
        pretrain_epochs=min(config.pretrain_epochs, args.epochs),
        train_epochs=min(config.train_epochs, args.epochs))


def _cmd_run(args: argparse.Namespace) -> int:
    if args.cache_dir is not None:
        configure_cache(cache_dir=args.cache_dir)
    spec = get_experiment(args.experiment_id)
    if spec.kind == "figure":
        raise ReproError(
            f"{args.experiment_id!r} is a figure experiment; use the "
            "benchmarks harness (pytest benchmarks/ --benchmark-only) or "
            "the repro.experiments figure helpers")
    scale = _SCALES[args.scale]
    overrides = {name: tuple(value) if value else None
                 for name, value in (("datasets", args.datasets),
                                     ("embeddings", args.embeddings),
                                     ("algorithms", args.algorithms))}
    workers = None if args.workers == 0 else args.workers
    result = run_experiment(
        args.experiment_id, scale=scale, config=_run_config(args),
        graph=args.graph, graph_backend=args.graph_backend,
        batch_size=args.batch_size,
        seed=args.seed, workers=workers, executor=args.executor,
        save_dir=args.save_dir, **overrides)

    if (spec.experiment_id not in NON_MATRIX_RESULTS and args.pivot
            and args.format == "table"):
        print(format_results_table(result, title=spec.title))
    else:
        print(render_rows(experiment_result_rows(spec.experiment_id, result),
                          args.format, title=spec.title))

    stats = get_cache().stats
    if args.format == "table" and (stats.hits or stats.computes):
        print(f"\n[cache] computes={stats.computes} hits={stats.hits} "
              f"disk_hits={stats.disk_hits}", file=sys.stderr)
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from .export import export_rows

    if args.cache_dir is not None:
        configure_cache(cache_dir=args.cache_dir)
    spec = get_experiment(args.experiment_id)
    if spec.kind == "figure":
        raise ReproError(
            f"{args.experiment_id!r} is a figure experiment; use the "
            "benchmarks harness (pytest benchmarks/ --benchmark-only) or "
            "the repro.experiments figure helpers")
    overrides = {name: tuple(value) if value else None
                 for name, value in (("datasets", args.datasets),
                                     ("embeddings", args.embeddings),
                                     ("algorithms", args.algorithms))}
    workers = None if args.workers == 0 else args.workers
    result = run_experiment(
        args.experiment_id, scale=_SCALES[args.scale],
        config=_run_config(args), seed=args.seed, workers=workers,
        **overrides)
    rows = experiment_result_rows(spec.experiment_id, result)
    payload = export_rows(rows, args.export_format)
    if args.output is not None:
        args.output.write_bytes(payload)
        print(f"wrote {len(rows)} row(s) as {args.export_format} to "
              f"{args.output}", file=sys.stderr)
    else:
        sys.stdout.buffer.write(payload)
        sys.stdout.buffer.flush()
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    profiles: list[DatasetProfile] = run_experiment(
        "table1", scale=_SCALES[args.scale],
        datasets=tuple(args.datasets) if args.datasets else None,
        seed=args.seed)
    print(render_rows([profile.as_row() for profile in profiles],
                      args.format, title=get_experiment("table1").title))
    return 0


def _cmd_docs(args: argparse.Namespace) -> int:
    targets = [(args.output, render_experiments_md, write_experiments_md,
                "the experiment registry", "python -m repro docs")]
    if args.api:
        targets.append((args.api_output, render_api_md, write_api_md,
                        "the package's public API",
                        "python -m repro docs --api"))
    for path, render, write, source, command in targets:
        if args.check:
            actual = (path.read_text(encoding="utf-8")
                      if path.exists() else None)
            if actual != render():
                print(f"{path} is out of sync with {source}; run "
                      f"'{command}' to regenerate it", file=sys.stderr)
                return 1
            print(f"{path} is in sync")
        else:
            print(f"wrote {write(path)}")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    from .experiments.runner import build_dataset
    from .serialize import read_checkpoint_header
    from .tasks import (
        DomainDiscoveryTask,
        EntityResolutionTask,
        SchemaInferenceTask,
    )

    if args.cache_dir is not None:
        configure_cache(cache_dir=args.cache_dir)
    datasets = _TASK_DATASETS[args.task]
    dataset_name = args.dataset or datasets[0]
    if dataset_name not in datasets:
        raise ReproError(
            f"dataset {dataset_name!r} does not belong to task {args.task!r} "
            f"(expected one of {datasets})")
    task_cls = {
        "schema_inference": SchemaInferenceTask,
        "entity_resolution": EntityResolutionTask,
        "domain_discovery": DomainDiscoveryTask,
    }[args.task]

    # Same semantics as `repro run --epochs`: cap the default schedule.
    config = _run_config(args)
    dataset = build_dataset(dataset_name, _SCALES[args.scale], seed=args.seed)
    task = task_cls(dataset, config=config)

    from .tasks.base import evaluate_clustering

    X = task.embed(args.embedding, seed=args.seed)
    result = evaluate_clustering(
        X, dataset.labels, algorithm=args.algorithm,
        dataset=dataset.name, task=task.task_name,
        embedding=args.embedding, config=task.resolved_config(),
        seed=args.seed, save_path=args.save)

    print(render_rows([result.as_row()], args.format,
                      title=f"trained {args.algorithm} on "
                            f"{dataset_name}/{args.embedding}"))
    header = read_checkpoint_header(args.save)
    print(f"saved checkpoint {args.save} "
          f"(class={header['class']}, format v{header['version']})",
          file=sys.stderr)
    if args.with_index is not None:
        from .index import create_index

        index = create_index(args.with_index, metric="cosine")
        index.build(X, ids=_item_ids(dataset))
        index_path = args.save.with_name(args.save.stem + ".index.npz")
        index.save(index_path, metadata={
            "task": task.task_name, "dataset": dataset.name,
            "embedding": args.embedding, "seed": args.seed})
        print(f"saved index {index_path} (backend={args.with_index}, "
              f"n={index.size}) — query it with 'repro search' or "
              "POST /search", file=sys.stderr)
    return 0


def _item_ids(dataset) -> list[str] | None:
    """Human-meaningful corpus ids for a dataset's items, if it has any."""
    tables = getattr(dataset, "tables", None)
    if tables:
        return [table.name for table in tables]
    records = getattr(dataset, "records", None)
    if records:
        return [record.identifier or f"record-{i}"
                for i, record in enumerate(records)]
    columns = getattr(dataset, "columns", None)
    if columns:
        return [f"{column.table_name}.{column.header}"
                if column.table_name else column.header
                for column in columns]
    return None


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serve import create_pool_server, create_server, servable_names

    reload_interval = (None if args.no_hot_reload
                       else args.reload_ms / 1000.0)
    job_options = {"jobs": not args.no_jobs, "jobs_dir": args.jobs_dir,
                   "job_workers": args.job_workers}
    if args.workers > 1:
        server = create_pool_server(
            args.model_dir, host=args.host, port=args.port,
            workers=args.workers, max_inflight=args.max_inflight,
            max_loaded=args.max_loaded, max_batch_rows=args.batch_rows,
            max_delay=args.batch_delay_ms / 1000.0,
            reload_interval=reload_interval,
            wal_dir=args.wal_dir, **job_options)
        names = servable_names(args.model_dir)
    else:
        server = create_server(
            args.model_dir, host=args.host, port=args.port,
            max_loaded=args.max_loaded, max_batch_rows=args.batch_rows,
            max_delay=args.batch_delay_ms / 1000.0,
            reload_interval=reload_interval,
            wal_dir=args.wal_dir, **job_options)
        names = server.service.registry.names()
    host, port = server.server_address[:2]
    print(f"serving {len(names)} model(s) {names} from {args.model_dir} "
          f"on http://{host}:{port} "
          f"({args.workers} worker(s), "
          f"hot-reload {'off' if args.no_hot_reload else 'on'}, "
          f"jobs {'off' if args.no_jobs else 'on'})",
          file=sys.stderr)
    # SIGTERM must run the same cleanup as Ctrl-C: the pool path owns
    # worker processes that server_close stops.
    import signal

    def _terminate(signum, frame):
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGTERM, _terminate)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    finally:
        signal.signal(signal.SIGTERM, previous)
        server.server_close()
    return 0


def _cmd_stream(args: argparse.Namespace) -> int:
    from .experiments.streaming import run_stream_scenario

    if args.cache_dir is not None:
        configure_cache(cache_dir=args.cache_dir)
    datasets = _TASK_DATASETS[args.task]
    dataset_name = args.dataset or datasets[0]
    if dataset_name not in datasets:
        raise ReproError(
            f"dataset {dataset_name!r} does not belong to task {args.task!r} "
            f"(expected one of {datasets})")
    steps = run_stream_scenario(
        args.task, dataset=dataset_name, embedding=args.embedding,
        algorithm=args.algorithm, n_batches=args.batches,
        drift=args.drift, drift_rate=args.drift_rate,
        initial_fraction=args.initial_fraction,
        scale=_SCALES[args.scale], config=_run_config(args),
        seed=args.seed, save_path=args.save,
        keep_generations=args.keep_generations,
        with_index=args.with_index,
        wal_dir=args.wal_dir, stream_name=args.stream_name)
    print(render_rows([step.as_row() for step in steps], args.format,
                      title=f"streamed {dataset_name}/{args.embedding}/"
                            f"{args.algorithm} over {args.batches} batches"))
    if args.save is not None:
        from .serialize import read_checkpoint_header

        header = read_checkpoint_header(args.save)
        print(f"rotated checkpoint {args.save} to generation "
              f"{header['metadata'].get('generation')}", file=sys.stderr)
    return 0


def _cmd_update(args: argparse.Namespace) -> int:
    from .experiments.runner import build_dataset
    from .experiments.streaming import (_EMBED_FNS, STREAMABLE_EMBEDDINGS,
                                        apply_batch, commit_batch,
                                        load_sibling_index)
    from .serialize import load_checkpoint
    from .wal import WALRecord

    model = load_checkpoint(args.checkpoint)
    metadata = dict(model.checkpoint_header_.get("metadata", {}))
    task = metadata.get("task")
    embedding = metadata.get("embedding")
    if not task or not embedding:
        raise ReproError(
            f"checkpoint {args.checkpoint} was saved without task/embedding "
            "metadata; retrain it with 'repro train --save' or "
            "'repro stream --save'")
    if embedding not in STREAMABLE_EMBEDDINGS.get(task, ()):
        raise ReproError(
            f"checkpoint embedding {embedding!r} is corpus-dependent; "
            "incremental updates need a per-item stateless embedding")
    if args.data not in _TASK_DATASETS.get(task, ()):
        raise ReproError(
            f"dataset {args.data!r} does not belong to the checkpoint's "
            f"task {task!r} (expected one of {_TASK_DATASETS.get(task)})")
    # Default to a seed the training run did not use, so the generated
    # batch is genuinely new data rather than a replay.
    train_seed = metadata.get("seed")
    seed = args.seed if args.seed is not None else \
        (train_seed if isinstance(train_seed, int) else 0) + 1
    dataset = build_dataset(args.data, _SCALES[args.scale], seed=seed)
    record = WALRecord(
        batch_id=0, arrays={"X": _EMBED_FNS[task](dataset, embedding,
                                                  seed=seed)},
        meta={"action": "update", "epochs": args.epochs, "seed": seed,
              "dataset": args.data})
    index, index_metadata = load_sibling_index(args.checkpoint, metadata)
    wal = None
    if args.wal_dir is not None:
        from .wal import WriteAheadLog, wal_namespace

        wal = WriteAheadLog(wal_namespace(args.wal_dir, args.checkpoint.stem,
                                          args.stream))
        # Journal-first: the batch is durable before the model changes.
        record.batch_id = wal.append(record.arrays, meta=record.meta)
    try:
        model, report = apply_batch(model, record)
        metadata.update({"n_items": int(record.arrays["X"].shape[0]),
                         "updated_from": args.data, "update_seed": seed})
        commit_batch(args.checkpoint, model, metadata, record,
                     keep=args.keep_generations, wal=wal, index=index,
                     index_metadata=index_metadata)
    finally:
        if wal is not None:
            wal.close()
    print(render_rows([report.as_row()], args.format,
                      title=f"updated {args.checkpoint}"))
    from .serialize import read_checkpoint_header

    header = read_checkpoint_header(args.checkpoint)
    print(f"rotated checkpoint {args.checkpoint} to generation "
          f"{header['metadata'].get('generation')}"
          + (" (refit recommended)" if report.refit_recommended else ""),
          file=sys.stderr)
    return 0


def _cmd_repair(args: argparse.Namespace) -> int:
    from .wal import repair_directory

    if not args.model_dir.is_dir():
        raise ReproError(f"{args.model_dir} is not a directory")
    report = repair_directory(args.model_dir, wal_dir=args.wal_dir,
                              apply=not args.dry_run,
                              recheckpoint=args.recheckpoint,
                              keep=args.keep_generations,
                              tmp_grace_seconds=args.tmp_grace)
    rows = report["findings"]
    mode = "dry-run" if args.dry_run else "repair"
    if rows:
        print(render_rows(rows, args.format,
                          title=f"{mode}: {len(rows)} finding(s) in "
                                f"{args.model_dir}"))
    else:
        print(f"{mode}: {args.model_dir} is clean", file=sys.stderr)
    for recovered in report["recovered"]:
        print(f"recovered {recovered['checkpoint']}: "
              f"{recovered['replayed_batches']} batch(es) replayed "
              f"(watermark {recovered['watermark']})", file=sys.stderr)
    # Dry runs signal outstanding damage through the exit code so scripts
    # can gate on "directory needs repair".
    return 1 if (args.dry_run and rows) else 0


def _cmd_search(args: argparse.Namespace) -> int:
    import json

    from .embeddings import embed_items
    from .index import VectorIndex
    from .serialize import load_checkpoint

    index = load_checkpoint(args.index)
    if not isinstance(index, VectorIndex):
        raise ReproError(
            f"{args.index} stores a {type(index).__name__}, not a vector "
            "index; build one with 'repro train --save ... --with-index'")
    metadata = index.checkpoint_header_.get("metadata", {})
    index_task = metadata.get("task")
    embedding = metadata.get("embedding")
    if index_task and index_task != args.task:
        raise ReproError(
            f"index {args.index} was built for task {index_task!r}, "
            f"not {args.task!r}")
    if not embedding:
        raise ReproError(
            f"index {args.index} was saved without embedding metadata; "
            "rebuild it with 'repro train --with-index'")
    try:
        query = json.loads(args.query)
    except json.JSONDecodeError as exc:
        raise ReproError(f"--query is not valid JSON: {exc}") from exc
    items = query if isinstance(query, list) else [query]
    X = embed_items(args.task, embedding, items)
    supported = index.query_tunables
    tunables = {}
    for field, value in (("nprobe", args.nprobe),
                         ("rerank", args.rerank)):
        if value is None:
            continue
        if field not in supported:
            accepted = ", ".join(f"--{name.replace('_', '-')}"
                                 for name in sorted(supported)) or "none"
            raise ReproError(
                f"--{field.replace('_', '-')} does not apply to a "
                f"{index.backend} index (it accepts: {accepted})")
        tunables[field] = value
    positions, distances = index.query(X, args.k, **tunables)
    ids = index.ids.tolist()  # JSON-able natives (int64 -> int, str_ -> str)
    rows = [{"query": q, "rank": rank + 1,
             "id": ids[positions[q, rank]],
             "distance": round(float(distances[q, rank]), 4)}
            for q in range(positions.shape[0])
            for rank in range(positions.shape[1])]
    print(render_rows(rows, args.format,
                      title=f"top-{positions.shape[1]} neighbours "
                            f"({index.backend} index over {index.size} "
                            f"items)"))
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    import subprocess

    bench_dir = args.benchmarks_dir
    target, bench_json = _BENCHES[args.name]
    script = target.partition("::")[0]
    if not (bench_dir / script).exists():
        raise ReproError(
            f"{bench_dir / script} not found; run from the repository root "
            "or pass --benchmarks-dir")
    # The bench subprocess needs the same import path that resolved this
    # very package (works from a source tree or an installed env).
    src_dir = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src_dir)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                          else []))
    if not args.compare_only:
        pytest_target = str(bench_dir / script) + target[len(script):]
        outcome = subprocess.run(
            [sys.executable, "-m", "pytest", pytest_target,
             "--benchmark-only", "-q", "-s"], env=env)
        if outcome.returncode != 0:
            print(f"error: benchmark {args.name} failed", file=sys.stderr)
            return outcome.returncode
    compare = subprocess.run(
        [sys.executable, str(bench_dir / "compare_bench.py"), "--strict",
         "--files", bench_json,
         "--baseline-dir", str(bench_dir / "baselines")], env=env)
    return compare.returncode


def _cmd_top(args: argparse.Namespace) -> int:
    from .obs.top import run_top

    return run_top(args.url, interval=args.interval,
                   iterations=args.iterations, once=args.once)


_COMMANDS = {
    "list": _cmd_list,
    "run": _cmd_run,
    "export": _cmd_export,
    "profile": _cmd_profile,
    "docs": _cmd_docs,
    "train": _cmd_train,
    "serve": _cmd_serve,
    "stream": _cmd_stream,
    "update": _cmd_update,
    "repair": _cmd_repair,
    "search": _cmd_search,
    "bench": _cmd_bench,
    "top": _cmd_top,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream closed the pipe (e.g. `repro run ... | head`); exit
        # quietly like a well-behaved Unix tool.  Redirect stdout to
        # devnull so the interpreter's final flush does not raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
