"""Append-only, fsync'd, segmented write-ahead journal of ingestion batches.

One :class:`WriteAheadLog` owns one *namespace directory* — by convention
``<wal_dir>/<model>/<stream>.wal/`` (see :func:`wal_namespace`), so many
streams can feed many models under one server without sharing files.  The
directory holds segment files::

    <namespace>/segment-0000000000000001.wal
    <namespace>/segment-0000000000000007.wal      # first batch id per segment
    ...

Records (:mod:`repro.wal.record`) carry monotonic batch ids starting at 1;
a segment is named after the first batch id it contains, so the journal
can prune whole segments without scanning them: a segment is obsolete as
soon as a later segment exists and every id it could contain has been
applied (stamped into checkpoint metadata by the durable ingestion path).

Durability discipline:

* :meth:`WriteAheadLog.append` writes the encoded record, flushes and
  ``fsync``\\ s before returning — a returned batch id is on stable
  storage;
* opening a journal *heals the torn tail*: a crash mid-append leaves a
  partial record at the end of the last segment, which is truncated away
  (the batch was never acknowledged, so dropping it is correct);
* an append starts a new segment once the last segment on disk has
  reached :data:`DEFAULT_SEGMENT_BYTES` — decided from the file, so a
  one-shot writer (``repro update``, recovery) seals as a long-running
  loop does, and steady state pays one fsync per append with no
  per-batch file churn; :meth:`WriteAheadLog.rotate_segment` seals
  unconditionally; :meth:`WriteAheadLog.prune` drops sealed segments made
  obsolete by the applied watermark stamped into checkpoint metadata.
"""

from __future__ import annotations

import os
import re
import time
from pathlib import Path
from typing import Iterator

import numpy as np

from ..exceptions import WALError
from ..obs.logging import get_logger
from ..obs.metrics import get_registry, obs_enabled
from ..obs.trace import record_span
from ..serialize import fsync_directory
from .record import WALCorruption, WALRecord, encode_record, scan_records

__all__ = ["DEFAULT_SEGMENT_BYTES", "WriteAheadLog", "replay_wal",
           "wal_namespace"]

#: Segment size at which the next append starts a new segment.  Large
#: enough that steady-state ingestion pays one fsync per append (no
#: per-batch file creation), small enough that pruning reclaims space
#: promptly.
DEFAULT_SEGMENT_BYTES = 4 * 2**20

#: Segment file layout: ``segment-<first batch id, 16 digits>.wal``.
_SEGMENT_RE = re.compile(r"^segment-(\d{16})\.wal$")

#: Namespace components (model and stream names) the journal accepts: the
#: same shape the serving registry accepts for model names.
_VALID_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")

_LOG = get_logger("wal")


def wal_namespace(wal_dir: str | Path, model: str,
                  stream: str = "stream") -> Path:
    """Namespace directory for one (model, stream) pair: ``model/stream.wal``.

    Validates both components so a hostile or mangled name can never
    escape ``wal_dir`` or collide with another namespace.
    """
    for part, label in ((model, "model"), (stream, "stream")):
        if not _VALID_NAME.match(part):
            raise WALError(f"invalid WAL {label} name {part!r}")
    return Path(wal_dir) / model / f"{stream}.wal"


def _segment_first_id(path: Path) -> int:
    match = _SEGMENT_RE.match(path.name)
    if match is None:  # pragma: no cover - guarded by the globs below
        raise WALError(f"not a WAL segment file: {path}")
    return int(match.group(1))


class WriteAheadLog:
    """One stream's append-only journal in a namespace directory.

    Not thread-safe by design: one stream has one writer (the ingestion
    loop), which is the whole point of per-stream namespaces.
    """

    def __init__(self, directory: str | Path, *, fsync: bool = True) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.fsync = bool(fsync)
        self._handle = None
        self._force_new_segment = False
        #: Bytes removed from the last segment's torn tail at open time.
        self.truncated_bytes_ = 0
        self.last_batch_id = self._establish_tail()

    # ------------------------------------------------------------------
    def segments(self) -> list[Path]:
        """Segment files of this namespace, oldest first."""
        return sorted(path for path in self.directory.glob("segment-*.wal")
                      if _SEGMENT_RE.match(path.name))

    @property
    def current_segment(self) -> Path | None:
        """The newest segment file (``None`` before the first append)."""
        segments = self.segments()
        return segments[-1] if segments else None

    def _establish_tail(self) -> int:
        """Heal the last segment's torn tail; return the last durable id."""
        segments = self.segments()
        for path in reversed(segments):
            last_id = 0
            try:
                for _, record in scan_records(path):
                    last_id = record.batch_id
            except WALCorruption as exc:
                # Crash mid-append: keep the good prefix, drop the tail.
                # Only the *last* segment can legitimately be torn, but a
                # truncated earlier segment is healed the same way — the
                # records it lost were never acknowledged either.
                size = path.stat().st_size
                self.truncated_bytes_ += size - exc.offset
                with path.open("r+b") as handle:
                    handle.truncate(exc.offset)
                    handle.flush()
                    os.fsync(handle.fileno())
                fsync_directory(self.directory)
                _LOG.warning("torn_tail_healed", segment=path.name,
                             truncated_bytes=size - exc.offset)
                get_registry().counter(
                    "repro_wal_torn_tails_total",
                    "Torn WAL segment tails healed at open").inc()
            if last_id:
                return last_id
            # Segment empty (or emptied by healing): its name still records
            # where numbering stood when it was created.
            if path is segments[-1] and _segment_first_id(path) > 1:
                return _segment_first_id(path) - 1
        return 0

    # ------------------------------------------------------------------
    def append(self, arrays: dict[str, np.ndarray], *, meta: dict | None = None,
               kind: str = "batch") -> int:
        """Journal one batch; returns its id once it is on stable storage."""
        instrumented = obs_enabled()
        started = time.perf_counter() if instrumented else 0.0
        batch_id = self.last_batch_id + 1
        data = encode_record(WALRecord(batch_id=batch_id, arrays=dict(arrays),
                                       meta=dict(meta or {}), kind=kind))
        handle = self._writable_handle(batch_id)
        handle.write(data)
        handle.flush()
        if self.fsync:
            fsync_started = time.perf_counter() if instrumented else 0.0
            os.fsync(handle.fileno())
            if instrumented:
                self._metrics()[1].observe(
                    time.perf_counter() - fsync_started)
        self.last_batch_id = batch_id
        if instrumented:
            append_seconds, _, appends, append_bytes = self._metrics()
            append_seconds.observe(time.perf_counter() - started)
            appends.inc()
            append_bytes.inc(len(data))
            record_span("wal.append", started, time.perf_counter(),
                        batch_id=batch_id, bytes=len(data))
        return batch_id

    def _metrics(self):
        """(append histogram, fsync histogram, appends, bytes) handles."""
        handles = getattr(self, "_m_handles", None)
        if handles is None:
            registry = get_registry()
            handles = (
                registry.histogram(
                    "repro_wal_append_seconds",
                    "WAL append latency (encode + write + fsync)"),
                registry.histogram(
                    "repro_wal_fsync_seconds",
                    "fsync portion of WAL append latency"),
                registry.counter("repro_wal_appends_total",
                                 "Batches journaled"),
                registry.counter("repro_wal_append_bytes_total",
                                 "Encoded bytes journaled"),
            )
            self._m_handles = handles
        return handles

    def _writable_handle(self, next_id: int):
        """The open segment, or a new one after :meth:`rotate_segment` or
        once the last segment on disk has reached the size threshold."""
        handle = self._handle
        if handle is not None and not handle.closed:
            if os.fstat(handle.fileno()).st_size < DEFAULT_SEGMENT_BYTES:
                return handle
            self.close()
        path = self.current_segment
        if (path is None or self._force_new_segment
                or path.stat().st_size >= DEFAULT_SEGMENT_BYTES):
            path = self.directory / f"segment-{next_id:016d}.wal"
        created = not path.exists()
        self._handle = path.open("ab")
        self._force_new_segment = False
        if created:
            # The segment file's *name* must survive a crash too.
            fsync_directory(self.directory)
        return self._handle

    def rotate_segment(self) -> None:
        """Seal the current segment; the next append starts a new one.

        Sealed segments become prunable once their ids fall behind the
        applied watermark.  Idempotent.
        """
        self.close()
        self._force_new_segment = True

    def prune(self, applied_batch_id: int) -> list[Path]:
        """Delete segments fully covered by the applied watermark.

        A segment is deletable iff a *later* segment exists whose first
        id is ``<= applied_batch_id + 1`` — then every record the earlier
        segment can contain has id ``<= applied_batch_id``.  The newest
        segment is always kept so batch-id numbering survives restarts.
        Returns the deleted paths.
        """
        segments = self.segments()
        deleted: list[Path] = []
        for current, successor in zip(segments, segments[1:]):
            if _segment_first_id(successor) <= applied_batch_id + 1:
                try:
                    current.unlink()
                except OSError:  # pragma: no cover - concurrent prune
                    continue
                deleted.append(current)
        # No directory fsync: a pruned segment resurrected by a crash only
        # holds ids at or below the watermark, which replay skips anyway.
        return deleted

    # ------------------------------------------------------------------
    def replay(self, *, after: int = 0, on_corruption: str = "stop"
               ) -> Iterator[WALRecord]:
        """Yield records with ``batch_id > after``, in id order.

        ``on_corruption`` follows :func:`repro.wal.record.iter_records`:
        ``"stop"`` (default) treats a bad record as the end of the
        journal — replay-after-crash yields exactly the durable prefix —
        while ``"raise"`` propagates :class:`WALCorruption`.
        """
        if on_corruption not in ("raise", "stop"):
            raise WALError(f"unknown on_corruption policy {on_corruption!r}")
        last_seen = None
        for path in self.segments():
            iterator = scan_records(path)
            while True:
                try:
                    _, record = next(iterator)
                except StopIteration:
                    break
                except WALCorruption:
                    if on_corruption == "raise":
                        raise
                    return
                if last_seen is not None and record.batch_id <= last_seen:
                    raise WALError(
                        f"non-monotonic batch id {record.batch_id} after "
                        f"{last_seen} in {path}")
                last_seen = record.batch_id
                if record.batch_id > after:
                    yield record

    def close(self) -> None:
        """Close the active segment handle (safe to call repeatedly)."""
        if self._handle is not None and not self._handle.closed:
            self._handle.close()
        self._handle = None

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def replay_wal(directory: str | Path, *, after: int = 0,
               on_corruption: str = "stop") -> list[WALRecord]:
    """Read a namespace directory's suffix of records after ``after``.

    Convenience wrapper over :meth:`WriteAheadLog.replay` that also heals
    the torn tail (opening the journal does); returns a list.
    """
    wal = WriteAheadLog(directory)
    try:
        return list(wal.replay(after=after, on_corruption=on_corruption))
    finally:
        wal.close()
