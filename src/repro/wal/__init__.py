"""Durable streaming: a write-ahead journal with replay and exactly-once
updates.

PRs 4–5 made models continuously learn (``repro stream`` + checkpoint
rotation + hot reload), but a crash between a ``partial_fit`` and the next
``rotate_checkpoint`` silently lost every batch since the last generation.
This package closes that durability gap with classic database machinery:

* :mod:`repro.wal.record` — the wire format: length-prefixed,
  CRC32-checksummed records (header JSON + raw array payload) that
  round-trip bit-identically and detect any torn write or byte flip;
* :class:`WriteAheadLog` — an append-only, fsync'd, segmented journal per
  ``<model>/<stream>.wal`` namespace; an append starts a new segment once
  the last one on disk has reached a size threshold, and pruning is keyed
  to the applied watermark checkpoint generations stamp;
* :func:`recover_checkpoint` / :func:`recover_model_dir` — replay-after-
  restart: apply exactly the journal suffix newer than the watermark
  stamped in checkpoint metadata (``wal_applied``), rotating a generation
  per replayed batch so recovery itself is crash-tolerant and idempotent;
* :func:`repair_directory` — the ``repro repair`` salvage tool for
  damaged directories (orphan temp files, corrupt checkpoints, torn
  journals).

The ingestion discipline — journal *first*, fsync, apply, stamp, rotate,
prune — lives in two functions,
:func:`repro.experiments.streaming.apply_batch` and
:func:`repro.experiments.streaming.commit_batch`.  ``repro stream
--wal-dir``, ``repro update --wal-dir``, recovery (``repro serve
--wal-dir`` at startup) and the crash/fault-injection harness in
``tests/faultinject.py`` all call them; the harness SIGKILLs ingestion at
every interesting point and asserts the recovered state is bit-for-bit
equal to an uninterrupted run.
"""

from .journal import WriteAheadLog, replay_wal, wal_namespace
from .record import (
    WAL_MAGIC,
    WALCorruption,
    WALRecord,
    decode_record,
    encode_record,
    iter_records,
    scan_records,
)
from .recovery import (
    RecoveryReport,
    recover_checkpoint,
    recover_model_dir,
    stamp_wal_metadata,
    wal_applied,
)
from .repair import RepairFinding, repair_directory

__all__ = [
    "WAL_MAGIC",
    "WALCorruption",
    "WALRecord",
    "WriteAheadLog",
    "RecoveryReport",
    "RepairFinding",
    "decode_record",
    "encode_record",
    "iter_records",
    "recover_checkpoint",
    "recover_model_dir",
    "repair_directory",
    "replay_wal",
    "scan_records",
    "stamp_wal_metadata",
    "wal_applied",
    "wal_namespace",
]
