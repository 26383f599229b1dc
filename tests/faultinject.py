"""Crash/fault-injection harness for the durable streaming path.

Dual-purpose module:

* imported by the tests, it provides the kill-point matrix
  (:data:`KILL_POINTS` x :data:`ALGORITHMS`), the scenario driver
  (:func:`run_crash_scenario`) and corruption generators
  (:func:`truncate_file`, :func:`flip_byte`, located with
  :func:`member_data_offsets`) shared by the unit and
  property tests;
* executed as a script (``python faultinject.py --dir ...``), it is the
  *worker*: a real ingestion loop that SIGKILLs itself at a named
  point, so every crash is a genuine process death — no mocks, no
  exception-based pretend crashes.  It journals each batch first, then
  calls the two functions ``repro stream --wal-dir``, ``repro update`` and
  recovery share (:func:`repro.experiments.streaming.apply_batch`, then
  :func:`~repro.experiments.streaming.commit_batch`), so the matrix tests
  the code that ships; the kill points sit between those steps.

The invariant every scenario asserts: after a crash at *any* kill point
followed by repair + restart, the live checkpoint is **bit-for-bit**
identical to an uninterrupted run over the same batches, the
``wal_updates_applied`` counter equals the number of distinct batches
(exactly-once — nothing lost, nothing applied twice), and the recovered
model predicts identically.

Kill points (all fire while ingesting batch ``--kill-batch``):

``after-wal-append``
    The batch is durable in the journal but was never applied: recovery
    must replay it.
``mid-wal-append``
    A torn write: half the encoded record reaches the segment, then the
    process dies.  The batch was never acknowledged; recovery must
    truncate the tail and the restarted loop re-journals it.
``between-update-and-rotate``
    ``apply_batch`` updated the model in memory but ``commit_batch`` never
    ran: the durable state still lacks the batch; recovery replays it.
``mid-rotate``
    Death inside the checkpoint's atomic write, just before
    ``commit_batch``: an orphaned ``*.tmp`` file is left next to an intact
    previous generation.
"""

from __future__ import annotations

import json
import os
import signal
import struct
import subprocess
import sys
import zipfile
from pathlib import Path

import numpy as np

import repro
from repro.experiments.streaming import apply_batch, commit_batch
from repro.serialize import load_checkpoint, read_checkpoint_header
from repro.wal import (
    WriteAheadLog,
    recover_checkpoint,
    repair_directory,
    wal_applied,
    wal_namespace,
)
from repro.wal.record import WALRecord, encode_record

FAULTINJECT_PATH = Path(__file__).resolve()

KILL_POINTS = ("after-wal-append", "mid-wal-append",
               "between-update-and-rotate", "mid-rotate")
ALGORITHMS = ("kmeans", "birch", "dbscan")

MODEL_NAME = "model"
STREAM_NAME = "stream"
SEED = 0
N_CLUSTERS = 4
DIM = 12


# ---------------------------------------------------------------------------
# Corruption generators (shared with the unit and property tests).

def truncate_file(path: str | Path, n_bytes: int) -> None:
    """Drop the last ``n_bytes`` of ``path`` (a torn/partial write)."""
    path = Path(path)
    size = path.stat().st_size
    with path.open("r+b") as handle:
        handle.truncate(max(0, size - int(n_bytes)))


def member_data_offsets(path: str | Path) -> dict[str, int]:
    """File offset of each checkpoint member's array data.

    Parsed with ``zipfile`` and ``numpy.lib.format`` alone, independently
    of the mapping reader under test: the local header's name and extra
    lengths give the member start, the ``.npy`` header its length.
    """
    from numpy.lib import format as npy_format

    offsets = {}
    with open(path, "rb") as handle, zipfile.ZipFile(handle) as archive:
        for info in archive.infolist():
            handle.seek(info.header_offset + 26)
            name_len, extra_len = struct.unpack("<HH", handle.read(4))
            handle.seek(info.header_offset + 30 + name_len + extra_len)
            if npy_format.read_magic(handle) == (1, 0):
                npy_format.read_array_header_1_0(handle)
            else:
                npy_format.read_array_header_2_0(handle)
            offsets[info.filename.removesuffix(".npy")] = handle.tell()
    return offsets


def flip_byte(path: str | Path, offset: int) -> None:
    """XOR one byte of ``path`` at ``offset`` (bit rot / disk corruption)."""
    with Path(path).open("r+b") as handle:
        handle.seek(offset)
        byte = handle.read(1)
        handle.seek(offset)
        handle.write(bytes([byte[0] ^ 0xFF]))


# ---------------------------------------------------------------------------
# Deterministic workload: both the worker process and the test assertions
# regenerate the exact same batches from the seed alone.

def make_batches(n_batches: int, *, seed: int = SEED
                 ) -> tuple[np.ndarray, list[np.ndarray]]:
    """Initial-fit matrix plus ``n_batches`` arrival batches (fixed seed)."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(N_CLUSTERS, DIM)) * 8.0
    X0 = np.vstack([center + rng.normal(size=(25, DIM))
                    for center in centers])
    batches = [np.vstack([center + rng.normal(size=(8, DIM))
                          for center in centers])
               for _ in range(n_batches)]
    return X0, batches


def _paths(workdir: Path) -> tuple[Path, Path, Path]:
    checkpoint = workdir / f"{MODEL_NAME}.npz"
    wal_dir = workdir / "wal"
    namespace = wal_namespace(wal_dir, MODEL_NAME, STREAM_NAME)
    return checkpoint, wal_dir, namespace


# ---------------------------------------------------------------------------
# The worker: a durable ingestion loop that can kill itself mid-flight.

def _die() -> None:
    os.kill(os.getpid(), signal.SIGKILL)


def _worker(workdir: Path, algorithm: str, n_batches: int,
            kill_point: str | None, kill_batch: int,
            refit_batch: int = 0) -> int:
    checkpoint, wal_dir, namespace = _paths(workdir)
    X0, batches = make_batches(n_batches)

    if checkpoint.exists():
        # Restart-after-crash: replay whatever the journal holds beyond
        # the checkpoint's watermark before ingesting anything new.
        recover_checkpoint(checkpoint, wal_dir)

    wal = WriteAheadLog(namespace)
    try:
        if not checkpoint.exists():
            # The initial fit is a refit on an empty history.  Like
            # run_stream_scenario's, it is stamped at the journal's tail
            # and never journaled itself.
            initial = WALRecord(
                batch_id=0, arrays={"X": X0, "X_seen": X0[:0]},
                meta={"seed": SEED, "action": "refit",
                      "algorithm": algorithm, "n_clusters": N_CLUSTERS})
            model, _ = apply_batch(None, initial)
            commit_batch(checkpoint, model, {
                "algorithm": algorithm, "seed": SEED,
                "wal_applied": {STREAM_NAME: wal.last_batch_id},
                "wal_updates_applied": 0}, initial, keep=3)
        while True:
            model = load_checkpoint(checkpoint)
            metadata = dict(model.checkpoint_header_.get("metadata", {}))
            applied = wal_applied(metadata).get(STREAM_NAME, 0)
            if applied >= n_batches:
                break
            batch_id = applied + 1
            killing = kill_point is not None and batch_id == kill_batch
            refitting = batch_id == refit_batch
            # Refit records must be reproducible from the journal alone:
            # full pre-batch history plus the clusterer context (the same
            # discipline run_stream_scenario uses).
            record = WALRecord(
                batch_id=batch_id, arrays={"X": batches[batch_id - 1]},
                meta={"seed": SEED, "action": "refit" if refitting else
                      "update", "algorithm": algorithm,
                      "n_clusters": N_CLUSTERS})
            if refitting:
                record.arrays["X_seen"] = np.vstack(
                    [X0] + batches[:batch_id - 1])

            if killing and kill_point == "mid-wal-append":
                # Write only half of the encoded record, then die: the
                # classic torn write at the journal tail.
                data = encode_record(record)
                handle = wal._writable_handle(batch_id)
                handle.write(data[:len(data) // 2])
                handle.flush()
                os.fsync(handle.fileno())
                _die()

            wal.append(record.arrays, meta=record.meta)
            if killing and kill_point == "after-wal-append":
                _die()

            model, _ = apply_batch(model, record)
            if killing and kill_point == "between-update-and-rotate":
                _die()
            if killing and kill_point == "mid-rotate":
                # Die "inside" the atomic write: the temp file exists but
                # was never fsync'd or renamed over the live checkpoint.
                orphan = checkpoint.with_name(checkpoint.name + ".tmp")
                orphan.write_bytes(b"\x00" * 64)
                _die()

            commit_batch(checkpoint, model, metadata, record, keep=3,
                         wal=wal)
    finally:
        wal.close()
    return 0


# ---------------------------------------------------------------------------
# Parent-side drivers used by the tests.

def run_worker(workdir: str | Path, algorithm: str, *, n_batches: int = 4,
               kill_point: str | None = None, kill_batch: int = 0,
               refit_batch: int = 0) -> subprocess.CompletedProcess:
    """Run the ingestion worker in a genuine subprocess."""
    cmd = [sys.executable, str(FAULTINJECT_PATH), "--dir", str(workdir),
           "--algorithm", algorithm, "--n-batches", str(n_batches),
           "--refit-batch", str(refit_batch)]
    if kill_point is not None:
        cmd += ["--kill-point", kill_point, "--kill-batch", str(kill_batch)]
    env = dict(os.environ)
    src_dir = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [src_dir] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=300)


def checkpoint_state(checkpoint: str | Path) -> dict[str, np.ndarray]:
    """The raw persisted arrays of a checkpoint (for bitwise comparison)."""
    with np.load(checkpoint, allow_pickle=False) as payload:
        return {key: np.array(payload[key]) for key in payload.files
                if key != "__header__"}


def run_crash_scenario(tmp_path: Path, algorithm: str, kill_point: str, *,
                       n_batches: int = 4, kill_batch: int = 2,
                       refit_batch: int = 0) -> dict:
    """Crash at ``kill_point``, repair, restart; return both end states.

    ``refit_batch`` makes the worker journal and apply that batch as a
    full refit instead of an incremental update, exercising the refit
    replay path in recovery.  Returns a dict with the baseline
    (uninterrupted) and recovered checkpoint paths, their raw array
    states, headers, and the repair report — everything the matrix
    assertions need.
    """
    baseline_dir = Path(tmp_path) / "baseline"
    crash_dir = Path(tmp_path) / "crash"
    baseline_dir.mkdir()
    crash_dir.mkdir()

    clean = run_worker(baseline_dir, algorithm, n_batches=n_batches,
                       refit_batch=refit_batch)
    assert clean.returncode == 0, clean.stderr

    crashed = run_worker(crash_dir, algorithm, n_batches=n_batches,
                         kill_point=kill_point, kill_batch=kill_batch,
                         refit_batch=refit_batch)
    assert crashed.returncode == -signal.SIGKILL, (
        f"worker should have been SIGKILLed at {kill_point}, got "
        f"rc={crashed.returncode}\n{crashed.stderr}")

    checkpoint, wal_dir, _ = _paths(crash_dir)
    # The crashed worker is provably dead, so the offline guard on fresh
    # tmp files can be disabled.
    repair_report = repair_directory(crash_dir, wal_dir=wal_dir,
                                     tmp_grace_seconds=0.0)

    resumed = run_worker(crash_dir, algorithm, n_batches=n_batches,
                         refit_batch=refit_batch)
    assert resumed.returncode == 0, resumed.stderr

    baseline_ckpt = baseline_dir / f"{MODEL_NAME}.npz"
    return {
        "algorithm": algorithm,
        "kill_point": kill_point,
        "baseline_checkpoint": baseline_ckpt,
        "recovered_checkpoint": checkpoint,
        "baseline_state": checkpoint_state(baseline_ckpt),
        "recovered_state": checkpoint_state(checkpoint),
        "baseline_header": read_checkpoint_header(baseline_ckpt),
        "recovered_header": read_checkpoint_header(checkpoint),
        "repair_report": repair_report,
    }


def _main(argv: list[str]) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--algorithm", choices=ALGORITHMS, default="kmeans")
    parser.add_argument("--n-batches", type=int, default=4)
    parser.add_argument("--kill-point", choices=KILL_POINTS, default=None)
    parser.add_argument("--kill-batch", type=int, default=0)
    parser.add_argument("--refit-batch", type=int, default=0)
    args = parser.parse_args(argv)
    args.dir.mkdir(parents=True, exist_ok=True)
    rc = _worker(args.dir, args.algorithm, args.n_batches,
                 args.kill_point, args.kill_batch, args.refit_batch)
    header = read_checkpoint_header(args.dir / f"{MODEL_NAME}.npz")
    print(json.dumps({"wal_applied": header["metadata"].get("wal_applied"),
                      "wal_updates_applied":
                          header["metadata"].get("wal_updates_applied")}))
    return rc


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
