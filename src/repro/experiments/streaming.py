"""End-to-end continuous-learning scenario: ingest -> monitor -> update.

``run_stream_scenario`` is the executable behind the ``stream_ingestion``
registry entry and the ``repro stream`` CLI: it replays one dataset as
arrival batches (:class:`repro.stream.StreamSource`), fits an initial model
on the first portion, and then — batch by batch — embeds the arrivals,
lets the :class:`repro.stream.DriftMonitor` decide **update vs refit**,
applies the chosen action (:func:`repro.stream.incremental_update` or a
fresh fit on everything seen), scores the result against the batch's
ground truth, and optionally rotates a servable checkpoint generation per
step (:func:`repro.serialize.rotate_checkpoint`) for a hot-reloading
``repro serve`` to pick up.

Each batch record is applied by :func:`apply_batch` and made durable by
:func:`commit_batch`; ``repro update``, :func:`repro.wal.recover_checkpoint`
and the crash harness call the same two functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..clustering import relabel_noise_as_singletons
from ..config import BENCHMARK_SCALE, DeepClusteringConfig, ExperimentScale
from ..embeddings.single import SERVABLE_EMBEDDINGS
from ..exceptions import StreamingError, WALError
from ..metrics import adjusted_rand_index, clustering_accuracy
from ..obs.logging import get_logger
from ..serialize import load_checkpoint, rotate_checkpoint
from ..stream import DriftMonitor, StreamSource, incremental_update
from ..wal import (WALRecord, WriteAheadLog, stamp_wal_metadata,
                   wal_applied, wal_namespace)
from ..tasks import embed_columns, embed_records, embed_tables
from ..tasks.base import make_clusterer
from ..utils.timing import Timer

__all__ = ["StreamStepResult", "apply_batch", "commit_batch",
           "load_sibling_index", "run_stream_scenario",
           "STREAMABLE_EMBEDDINGS"]

_LOG = get_logger("stream")

#: Embeddings whose vectors depend on the item alone — the only ones where
#: a batch embedded today lands in the space the model was fitted in
#: yesterday.  Corpus-dependent methods (EmbDi, TabNet/TabTransformer)
#: would re-derive a new space per batch and are rejected.  The same
#: allow-list serving uses to embed single items.
STREAMABLE_EMBEDDINGS = SERVABLE_EMBEDDINGS

#: Record ``meta`` keys passed through to :func:`incremental_update`.
_UPDATE_KWARGS = ("epochs", "batch_size", "seed")

_EMBED_FNS = {
    "schema_inference": embed_tables,
    "entity_resolution": embed_records,
    "domain_discovery": embed_columns,
}


@dataclass
class StreamStepResult:
    """Outcome of one stream step (the initial fit or one arrival batch)."""

    step: int                       # -1 for the initial fit
    action: str                     # "fit", "update" or "refit"
    n_items: int
    n_seen: int
    seconds: float
    ari: float
    acc: float
    mean_shift: float = 0.0
    silhouette: float = 0.0
    drifted: bool = False
    reasons: tuple[str, ...] = ()
    details: dict = field(default_factory=dict, repr=False)

    def as_row(self) -> dict[str, object]:
        """Flat dict for table/JSON/CSV rendering."""
        return {
            "step": self.step,
            "action": self.action,
            "n_items": self.n_items,
            "n_seen": self.n_seen,
            "seconds": round(self.seconds, 4),
            "ARI": round(self.ari, 3),
            "ACC": round(self.acc, 3),
            "mean_shift": round(self.mean_shift, 3),
            "silhouette": round(self.silhouette, 3),
            "drifted": self.drifted,
            "reasons": ";".join(self.reasons),
        }


def _score(model, X: np.ndarray, labels_true: np.ndarray) -> tuple[float, float]:
    predicted = relabel_noise_as_singletons(model.predict(X))
    labels_true = np.asarray(labels_true, dtype=np.int64)
    return (adjusted_rand_index(labels_true, predicted),
            clustering_accuracy(labels_true, predicted))


def apply_batch(model, record: WALRecord):
    """Apply one batch record to ``model``; return ``(model, report)``.

    ``"update"``/``"fit"`` records (``meta["action"]``) go through
    :func:`repro.stream.incremental_update` in place with the record's
    ``epochs``/``batch_size``/``seed``.  ``"refit"`` records return a fresh
    fit on ``X_seen`` + ``X`` from the journaled clusterer context
    (``algorithm``, ``n_clusters``, optional ``config``), report ``None``.
    Anything else raises :class:`~repro.exceptions.WALError`.
    """
    meta = record.meta
    action = str(meta.get("action", "update"))
    if action in ("update", "fit"):
        kwargs = {key: meta[key] for key in _UPDATE_KWARGS
                  if meta.get(key) is not None}
        return model, incremental_update(model, record.arrays["X"], **kwargs)
    if action != "refit":
        raise WALError(
            f"record {record.batch_id} has unknown action {action!r}; "
            "refusing to guess how to apply it")
    if "X_seen" not in record.arrays:
        raise WALError(
            f"refit record {record.batch_id} carries no X_seen history; "
            "cannot reproduce the refit — run repro repair and refit "
            "manually")
    algorithm, n_clusters = meta.get("algorithm"), meta.get("n_clusters")
    if not algorithm or n_clusters is None:
        raise WALError(
            f"refit record {record.batch_id} is missing clusterer context "
            "(algorithm / n_clusters)")
    config = meta.get("config")
    model = make_clusterer(
        str(algorithm), int(n_clusters),
        config=None if config is None else DeepClusteringConfig(**config),
        seed=meta.get("seed"))
    model.fit(np.vstack([record.arrays["X_seen"], record.arrays["X"]]))
    return model, None


def _index_path(save_path: str | Path) -> Path:
    save_path = Path(save_path)
    return save_path.with_name(save_path.stem + ".index.npz")


def load_sibling_index(save_path: str | Path, metadata: dict):
    """The ``<stem>.index.npz`` beside ``save_path``: ``(index, metadata)``.

    ``(None, None)`` when there is none.  An index header without
    ``wal_applied`` predates watermark stamping; it rotated in lockstep
    with the model, so it starts from the model's watermark (``metadata``)
    and no batch the model holds is added to it twice.
    """
    path = _index_path(save_path)
    if not path.exists():
        return None, None
    index = load_checkpoint(path)
    index_metadata = dict(index.checkpoint_header_.get("metadata", {}))
    index_metadata.setdefault("wal_applied", wal_applied(metadata))
    return index, index_metadata


def commit_batch(save_path: str | Path, model, metadata: dict,
                 record: WALRecord, *, keep: int,
                 wal: WriteAheadLog | None = None, index=None,
                 index_metadata: dict | None = None) -> list[Path]:
    """Make one applied batch durable; return the journal segments pruned.

    Stamps ``record.batch_id`` into ``metadata`` (with a journal) and
    rotates ``model``; adds ``X`` to ``index`` and rotates it as the
    sibling ``<stem>.index.npz`` under its own stamped watermark; then
    prunes ``wal`` at the lower watermark, so a record is dropped only once
    both files hold it.  ``model`` or ``index`` ``None`` skips a file that
    already holds the batch (recovery catching the other one up).
    """
    stream = None if wal is None else wal.directory.stem
    if model is not None:
        if wal is not None:
            stamp_wal_metadata(metadata, stream=stream,
                               batch_id=record.batch_id)
        rotate_checkpoint(save_path, model, metadata=metadata, keep=keep)
    if index is not None:
        if wal is not None:
            stamp_wal_metadata(index_metadata, stream=stream,
                               batch_id=record.batch_id)
        index.add(record.arrays["X"])
        rotate_checkpoint(_index_path(save_path), index,
                          metadata=index_metadata, keep=keep)
    if wal is None:
        return []
    marks = [wal_applied(meta).get(stream, 0)
             for meta in (metadata, index_metadata) if meta is not None]
    return wal.prune(min(marks))


def run_stream_scenario(task: str, *, dataset, embedding: str = "sbert",
                        algorithm: str = "kmeans",
                        n_batches: int = 4,
                        drift: str | None = None,
                        drift_rate: float = 0.5,
                        initial_fraction: float = 0.5,
                        scale: ExperimentScale | None = None,
                        config: DeepClusteringConfig | None = None,
                        seed: int | None = None,
                        save_path: str | Path | None = None,
                        keep_generations: int = 3,
                        monitor: DriftMonitor | None = None,
                        with_index: str | None = None,
                        wal_dir: str | Path | None = None,
                        stream_name: str = "stream",
                        ) -> list[StreamStepResult]:
    """Run the continuous-learning loop over one dataset; return step rows.

    ``dataset`` is either a built container from :mod:`repro.data` or a
    dataset *name* resolved through the experiment runner at ``scale``.
    ``save_path`` rotates a checkpoint generation after the initial fit and
    after every batch, with metadata a ``repro serve`` hot-reloader can
    consume.  ``with_index`` (a :mod:`repro.index` backend name) keeps a
    similarity-search index over everything streamed so far — built on the
    initial fit, extended with incremental ``add`` per batch — and rotates
    it as ``<save stem>.index.npz`` in lockstep with the model
    generations, so a serving process hot-reloads both together.

    ``wal_dir`` (requires ``save_path``) makes ingestion *durable*: every
    arrival batch's embeddings are journaled to the
    ``<checkpoint stem>/<stream_name>.wal`` namespace (fsync'd, CRC'd —
    see :mod:`repro.wal`) **before** any update or refit touches the
    model, and the rotated checkpoint stamps the applied watermark so a
    crash at any point is recovered by
    :func:`repro.wal.recover_checkpoint` with exactly-once semantics.
    Refit decisions journal the full seen history alongside the batch so
    recovery reproduces the exact fresh fit; with ``with_index`` the
    rotated index carries its own stamped watermark and recovery replays
    pending batches into it too.  Each batch is applied by
    :func:`apply_batch` and made durable by :func:`commit_batch`, the
    functions recovery replays the journal with.  The returned list has
    one entry for the initial fit (step ``-1``) followed by one per
    arrival batch.
    """
    supported = STREAMABLE_EMBEDDINGS.get(task)
    if supported is None:
        raise StreamingError(
            f"unknown task {task!r}; expected one of "
            f"{sorted(STREAMABLE_EMBEDDINGS)}")
    embedding = embedding.lower()
    if embedding not in supported:
        raise StreamingError(
            f"embedding {embedding!r} is corpus-dependent or unknown; "
            f"streaming supports {supported} for task {task!r}")
    if save_path is None and not (wal_dir is None and with_index is None):
        raise StreamingError(
            "wal_dir and with_index require a checkpoint save path (the "
            "watermark lives in its metadata, the index rotates beside it)")
    if isinstance(dataset, str):
        from .runner import build_dataset
        dataset = build_dataset(dataset, scale or BENCHMARK_SCALE, seed=seed)

    embed = _EMBED_FNS[task]
    source = StreamSource(dataset, n_batches=n_batches, drift=drift,
                          drift_rate=drift_rate,
                          initial_fraction=initial_fraction, seed=seed)
    initial = source.initial()
    X0 = embed(initial, embedding, seed=seed)
    n_clusters = int(np.unique(initial.labels).size)

    timer = Timer()
    with timer:
        model = make_clusterer(algorithm, n_clusters, config=config,
                               seed=seed)
        model.fit(X0)
    ari, acc = _score(model, X0, initial.labels)
    results = [StreamStepResult(
        step=-1, action="fit", n_items=X0.shape[0], n_seen=X0.shape[0],
        seconds=timer.elapsed, ari=ari, acc=acc)]

    monitor = monitor or DriftMonitor()
    # Same noise convention as assess() below (DBSCAN noise becomes
    # singletons on both sides), so the silhouette decay carries no
    # systematic offset.
    monitor.observe_reference(
        X0, relabel_noise_as_singletons(np.asarray(model.labels_)))

    metadata = {"task": task, "dataset": dataset.name, "embedding": embedding,
                "algorithm": algorithm, "seed": seed,
                "n_features": int(X0.shape[1])}
    wal = None
    if wal_dir is not None:
        wal = WriteAheadLog(
            wal_namespace(wal_dir, Path(save_path).stem, stream_name))
        # The fresh fit supersedes anything already journaled: stamp the
        # watermark at the journal's current tail so a recovery never
        # replays pre-fit batches over the new model.
        metadata["wal_applied"] = {stream_name: wal.last_batch_id}
        metadata["wal_updates_applied"] = 0
    if save_path is not None:
        rotate_checkpoint(save_path, model, metadata=metadata,
                          keep=keep_generations)

    index = index_metadata = None
    if with_index is not None:
        from ..index import create_index

        index = create_index(with_index, metric="cosine")
        index.build(X0)
        index_metadata = {**metadata, "kind": "vector-index",
                          "backend": with_index}
        rotate_checkpoint(_index_path(save_path), index,
                          metadata=index_metadata, keep=keep_generations)

    seen = [X0]
    seen_labels = [np.asarray(initial.labels, dtype=np.int64)]
    try:
        for batch in source.batches():
            Xb = embed(batch.dataset, embedding, seed=seed)
            labels = np.asarray(batch.labels, dtype=np.int64)
            predicted = relabel_noise_as_singletons(model.predict(Xb))
            decision = monitor.assess(
                Xb, predicted,
                model_refit_flag=bool(
                    getattr(model, "refit_recommended_", False)))
            # The record apply_batch replays after a crash: a refit needs
            # the full pre-batch history and the clusterer context.
            record = WALRecord(batch_id=0, arrays={"X": Xb, "labels": labels},
                               meta={"seed": seed, "action": decision.action,
                                     "algorithm": algorithm})
            if decision.action == "refit":
                record.arrays["X_seen"] = np.vstack(seen)
                record.meta["n_clusters"] = int(np.unique(
                    np.concatenate(seen_labels + [labels])).size)
                if config is not None:
                    from dataclasses import asdict
                    record.meta["config"] = asdict(config)
            if wal is not None:
                # Journal-first: the batch is on stable storage before any
                # model state changes, so a crash below is recoverable.
                record.batch_id = wal.append(record.arrays, meta=record.meta)
            timer = Timer()
            with timer:
                model, report = apply_batch(model, record)
                if report is None:
                    monitor.observe_reference(
                        np.vstack(seen + [Xb]), relabel_noise_as_singletons(
                            np.asarray(model.labels_)))
            seen.append(Xb)
            seen_labels.append(labels)
            _LOG.info("stream_batch_applied", step=batch.index,
                      action=decision.action, n_items=int(Xb.shape[0]),
                      batch_id=record.batch_id or None,
                      drifted=bool(batch.drifted),
                      seconds=round(timer.elapsed, 4))
            ari, acc = _score(model, Xb, batch.labels)
            results.append(StreamStepResult(
                step=batch.index, action=decision.action,
                n_items=int(Xb.shape[0]),
                n_seen=int(sum(x.shape[0] for x in seen)),
                seconds=timer.elapsed, ari=ari, acc=acc,
                mean_shift=decision.mean_shift,
                silhouette=decision.silhouette,
                drifted=batch.drifted, reasons=decision.reasons,
                details={} if report is None else dict(report.details)))
            if save_path is not None:
                commit_batch(save_path, model, metadata, record,
                             keep=keep_generations, wal=wal, index=index,
                             index_metadata=index_metadata)
    finally:
        if wal is not None:
            wal.close()
    return results
