"""Crash recovery: replay a checkpoint's WAL suffix, exactly once.

The durable ingestion discipline (``repro stream --wal-dir``, ``repro
update --wal-dir``, :func:`repro.experiments.streaming.run_stream_scenario`)
journals every batch *before* applying it and stamps the applied watermark
into the rotated checkpoint's metadata::

    metadata["wal_applied"]  = {"<stream>": <last applied batch id>, ...}
    metadata["wal_updates_applied"] = <total batches ever applied>

After a crash the checkpoint on disk is some prefix of the ingestion
history and the journal is a superset of it: :func:`recover_checkpoint`
loads the checkpoint, replays exactly the records newer than the
watermark (``batch_id > wal_applied[stream]``), and rotates a new
generation after **each** replayed batch — so recovery itself is
crash-tolerant and idempotent: killed mid-replay, the next recovery
resumes from the new watermark and no batch is ever applied twice.

Each pending record goes through the functions the live loop itself
uses, :func:`repro.experiments.streaming.apply_batch` and
:func:`repro.experiments.streaming.commit_batch`, so a record is replayed
exactly as it was first applied.  Records carry the *action* the live
loop decided for them (``meta["action"]``): ``"update"`` records replay
through :func:`repro.stream.incremental_update`; ``"refit"`` records carry
the full pre-batch history (``arrays["X_seen"]``) plus the clusterer
context (``algorithm``, ``n_clusters``, optional ``config``) and replay as
the same fresh fit.  An action the apply step does not recognise raises
:class:`WALError` rather than applying the wrong update.

The model is reloaded from the rotated checkpoint between replayed
batches, making the replay trajectory identical to an ingestion loop that
checkpoints (and therefore round-trips) after every batch — which is what
lets the fault-injection harness assert *bit-for-bit* state parity with
an uninterrupted run.

When the checkpoint has a sibling similarity index
(``<stem>.index.npz``, rotated in lockstep by ``repro stream
--with-index`` and kept in step by ``repro update``), the same commit
replays each batch's vectors into the index and rotates it with its own
stamped watermark, so served search stays consistent with the recovered
model.

:func:`recover_model_dir` sweeps a serving model directory before the
registry starts (the ``repro serve --wal-dir`` startup path): every
checkpoint with a pending journal suffix is recovered and rotated, and a
hot-reload watcher that is already running picks the new generation up
like any other rotation.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from ..exceptions import WALError
from ..obs.logging import get_logger
from ..obs.metrics import get_registry
from ..serialize import load_checkpoint
from .journal import WriteAheadLog

_LOG = get_logger("recovery")

__all__ = ["RecoveryReport", "recover_checkpoint", "recover_model_dir",
           "recovery_lock", "stamp_wal_metadata", "wal_applied"]

def wal_applied(metadata: dict) -> dict[str, int]:
    """The per-stream applied watermark stamped in checkpoint metadata."""
    stamped = metadata.get("wal_applied") or {}
    if not isinstance(stamped, dict):
        raise WALError(f"checkpoint wal_applied metadata is not a mapping: "
                       f"{stamped!r}")
    return {str(stream): int(batch_id)
            for stream, batch_id in stamped.items()}


def stamp_wal_metadata(metadata: dict, *, stream: str, batch_id: int,
                       n_updates: int | None = None) -> dict:
    """Record one applied batch in checkpoint ``metadata`` (in place).

    Advances the stream's watermark and the exactly-once application
    counter; returns ``metadata`` for chaining.
    """
    applied = wal_applied(metadata)
    applied[stream] = int(batch_id)
    metadata["wal_applied"] = applied
    if n_updates is None:
        n_updates = int(metadata.get("wal_updates_applied", 0)) + 1
    metadata["wal_updates_applied"] = int(n_updates)
    return metadata


@dataclass
class RecoveryReport:
    """What one checkpoint recovery found and replayed."""

    checkpoint: str
    replayed: dict[str, list[int]] = field(default_factory=dict)
    index_replayed: dict[str, list[int]] = field(default_factory=dict)
    wal_applied: dict[str, int] = field(default_factory=dict)
    truncated_bytes: int = 0
    pruned_segments: int = 0

    @property
    def n_replayed(self) -> int:
        """Total batches replayed across every stream."""
        return sum(len(ids) for ids in self.replayed.values())

    @property
    def n_index_replayed(self) -> int:
        """Total batches replayed into the sibling similarity index."""
        return sum(len(ids) for ids in self.index_replayed.values())

    def as_row(self) -> dict[str, object]:
        """Flat dict for table/JSON rendering."""
        return {
            "checkpoint": self.checkpoint,
            "replayed_batches": self.n_replayed,
            "index_batches": self.n_index_replayed,
            "streams": ";".join(sorted(self.replayed)) or "-",
            "watermark": ";".join(f"{stream}={batch_id}" for stream, batch_id
                                  in sorted(self.wal_applied.items())) or "-",
            "truncated_bytes": self.truncated_bytes,
            "pruned_segments": self.pruned_segments,
        }


def _namespaces(wal_dir: str | Path, model_name: str) -> list[Path]:
    root = Path(wal_dir) / model_name
    if not root.is_dir():
        return []
    return sorted(path for path in root.glob("*.wal") if path.is_dir())


def recover_checkpoint(checkpoint_path: str | Path, wal_dir: str | Path, *,
                       keep: int = 3) -> RecoveryReport:
    """Replay the journal suffix newer than ``checkpoint_path``'s watermark.

    Opens every ``<wal_dir>/<model>/<stream>.wal`` namespace (healing torn
    tails) and hands each pending record to the live loop's own
    :func:`~repro.experiments.streaming.apply_batch` and
    :func:`~repro.experiments.streaming.commit_batch` (see the module
    docstring), so a checkpoint generation is rotated per replayed batch.
    A sibling ``<stem>.index.npz`` similarity index is caught up by the
    same commit, each record's vectors added past the index's own
    watermark.  Exactly-once: records at or below a watermark are never
    re-applied, and re-running recovery after it completed (or crashed) is
    a no-op for everything already applied.  Streams replay in name order
    (ids are only ordered *within* a stream).

    Returns a :class:`RecoveryReport`; ``n_replayed == 0`` means the
    checkpoint was already current.
    """
    # Deferred: repro.experiments.streaming imports this package.
    from ..experiments.streaming import (apply_batch, commit_batch,
                                         load_sibling_index)

    path = Path(checkpoint_path)
    report = RecoveryReport(checkpoint=str(path))
    namespaces = _namespaces(wal_dir, path.stem)
    if not namespaces:
        return report

    model = load_checkpoint(path)
    metadata = dict(model.checkpoint_header_.get("metadata", {}))
    report.wal_applied = wal_applied(metadata)
    index, index_metadata = load_sibling_index(path, metadata)
    for namespace in namespaces:
        stream = namespace.stem
        wal = WriteAheadLog(namespace)
        try:
            report.truncated_bytes += wal.truncated_bytes_
            watermark = wal_applied(metadata).get(stream, 0)
            index_mark = watermark if index is None else \
                wal_applied(index_metadata).get(stream, 0)
            for record in wal.replay(after=min(watermark, index_mark),
                                     on_corruption="stop"):
                applying = record.batch_id > watermark
                adding = index is not None and record.batch_id > index_mark
                if applying:
                    # Records without an algorithm of their own refit with
                    # the checkpoint's.
                    record.meta = {"algorithm": metadata.get("algorithm"),
                                   **record.meta}
                    model, _ = apply_batch(model, record)
                report.pruned_segments += len(commit_batch(
                    path, model if applying else None, metadata, record,
                    keep=keep, wal=wal, index=index if adding else None,
                    index_metadata=index_metadata))
                if applying:
                    # Reload so the replay trajectory equals an ingestion
                    # loop that round-trips after every batch (bit-for-bit
                    # parity).
                    model = load_checkpoint(path)
                    metadata = dict(
                        model.checkpoint_header_.get("metadata", {}))
                    report.replayed.setdefault(stream, []).append(
                        record.batch_id)
                if adding:
                    report.index_replayed.setdefault(stream, []).append(
                        record.batch_id)
            report.wal_applied[stream] = wal_applied(metadata).get(stream, 0)
        finally:
            wal.close()
    if report.n_replayed or report.truncated_bytes:
        get_registry().counter(
            "repro_recovery_batches_total",
            "WAL batches replayed at recovery", ("checkpoint",)).inc(
                report.n_replayed, checkpoint=path.stem)
        _LOG.info("recovery_replayed", checkpoint=path.stem,
                  replayed_batches=report.n_replayed,
                  index_batches=report.n_index_replayed,
                  truncated_bytes=report.truncated_bytes,
                  pruned_segments=report.pruned_segments)
    return report


def recover_model_dir(model_dir: str | Path, wal_dir: str | Path, *,
                      keep: int = 3) -> list[RecoveryReport]:
    """Recover every checkpoint in ``model_dir`` with a pending journal.

    The serving startup path: run before the registry loads so every
    served model reflects all durably-journaled batches.  Checkpoints
    without a WAL namespace are untouched; reports are returned for the
    checkpoints that had one (replayed or not).

    Concurrent callers serialise on an advisory ``.recovery.lock`` inside
    ``wal_dir``: the worker-pool boot runs recovery exactly once in the
    parent *before* forking, and the lock makes a second process booting
    against the same directory wait for (and then observe) the finished
    recovery instead of replaying the same journal concurrently.  Because
    replay is idempotent the second pass then finds nothing to do.
    """
    with recovery_lock(wal_dir):
        reports = []
        for path in sorted(Path(model_dir).glob("*.npz")):
            if path.stem.startswith("."):
                continue
            if not _namespaces(wal_dir, path.stem):
                continue
            reports.append(recover_checkpoint(path, wal_dir, keep=keep))
        return reports


@contextmanager
def recovery_lock(wal_dir: str | Path):
    """Advisory inter-process lock for recovery and journal writers.

    ``recover_model_dir`` holds it for a directory-wide recovery, and
    ``repro update --wal-dir`` while it replays a pending suffix, then
    appends and applies its own batch.  ``fcntl.flock`` where available
    (released automatically even on SIGKILL, so a crashed recovery never
    wedges the next boot); a no-op on platforms without it — recovery
    stays correct either way, the lock only removes duplicated replay
    work.
    """
    try:
        import fcntl
    except ImportError:  # pragma: no cover - non-POSIX platform
        yield
        return
    root = Path(wal_dir)
    root.mkdir(parents=True, exist_ok=True)
    lock_path = root / ".recovery.lock"
    with open(lock_path, "w") as handle:
        fcntl.flock(handle, fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(handle, fcntl.LOCK_UN)
