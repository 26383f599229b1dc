"""Tests for repro repair: salvaging damaged model dirs and journals."""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from faultinject import flip_byte, member_data_offsets, truncate_file
from repro.cli import main
from repro.clustering import KMeans
from repro.exceptions import SerializationError
from repro.serialize import (
    checkpoint_generations,
    load_checkpoint,
    read_checkpoint_header,
    rotate_checkpoint,
)
from repro.serve import ModelRegistry
from repro.stream import incremental_update
from repro.wal import (
    WriteAheadLog,
    repair_directory,
    replay_wal,
    stamp_wal_metadata,
    wal_namespace,
)


@pytest.fixture()
def model_dir(tmp_path):
    """A healthy serving dir: one checkpoint, three generations, a WAL."""
    rng = np.random.default_rng(0)
    X = np.vstack([center + rng.normal(size=(20, 6))
                   for center in rng.normal(size=(3, 6)) * 8.0])
    model = KMeans(3, seed=0)
    model.fit(X)

    root = tmp_path / "models"
    root.mkdir()
    checkpoint = root / "m.npz"
    wal = WriteAheadLog(wal_namespace(root / "wal", "m", "s"))
    metadata = {"algorithm": "kmeans",
                "wal_applied": {"s": 0}, "wal_updates_applied": 0}
    rotate_checkpoint(checkpoint, model, metadata=metadata)
    for batch_id in (1, 2):
        Xb = rng.normal(size=(10, 6))
        wal.append({"X": Xb}, meta={"seed": 0})
        incremental_update(model, Xb, seed=0)
        stamp_wal_metadata(metadata, stream="s", batch_id=batch_id)
        rotate_checkpoint(checkpoint, model, metadata=metadata)
        wal.rotate_segment()
    wal.close()
    return root


def _problems(report):
    return sorted(finding["problem"] for finding in report["findings"])


def _age(path, seconds=120.0):
    """Backdate ``path`` past the in-flight-write grace window."""
    past = time.time() - seconds
    os.utime(path, (past, past))


class TestRepairDirectory:
    def test_clean_directory_reports_clean(self, model_dir):
        report = repair_directory(model_dir)
        assert report["clean"] is True
        assert report["findings"] == []

    def test_orphan_tmp_deleted(self, model_dir):
        orphan = model_dir / "m.npz.tmp"
        orphan.write_bytes(b"\x00" * 32)
        _age(orphan)
        report = repair_directory(model_dir)
        assert _problems(report) == ["orphan-tmp"]
        assert report["findings"][0]["action"] == "delete"
        assert not orphan.exists()

    def test_recent_tmp_spared(self, model_dir):
        # A tmp file younger than the grace window could be a live
        # writer's in-flight atomic write: report it, never delete it.
        orphan = model_dir / "m.npz.tmp"
        orphan.write_bytes(b"\x00" * 32)
        report = repair_directory(model_dir)
        assert _problems(report) == ["orphan-tmp"]
        assert report["findings"][0]["action"] == "skipped-recent"
        assert orphan.exists()
        # Grace 0 forces the offline behaviour.
        forced = repair_directory(model_dir, tmp_grace_seconds=0.0)
        assert forced["findings"][0]["action"] == "delete"
        assert not orphan.exists()

    def test_torn_journal_truncated(self, model_dir):
        namespace = model_dir / "wal" / "m" / "s.wal"
        segment = sorted(namespace.glob("segment-*.wal"))[-1]
        truncate_file(segment, 7)
        report = repair_directory(model_dir)
        assert _problems(report) == ["torn-journal"]
        # The truncated journal replays cleanly as a strict prefix.
        assert [r.batch_id for r in replay_wal(namespace)] == [1]

    def test_bad_crc_mid_segment_truncated_at_last_good(self, model_dir):
        namespace = model_dir / "wal" / "m" / "s.wal"
        segment = sorted(namespace.glob("segment-*.wal"))[0]
        flip_byte(segment, segment.stat().st_size // 2)
        report = repair_directory(model_dir)
        findings = [f for f in report["findings"]
                    if f["problem"] == "torn-journal"]
        assert len(findings) == 1
        assert findings[0]["records_kept"] == 0
        assert segment.stat().st_size == 0

    def test_corrupt_live_restored_from_generation(self, model_dir):
        live = model_dir / "m.npz"
        live.write_bytes(b"this is not a checkpoint")
        report = repair_directory(model_dir)
        assert _problems(report) == ["corrupt-checkpoint"]
        finding = report["findings"][0]
        assert finding["action"] == "restore-generation"
        newest_archive = checkpoint_generations(live)[-1]
        assert finding["restored_from"] == newest_archive.name
        # Rotation archives the *outgoing* generation, so the restore
        # lands one generation back; the WAL suffix closes the rest
        # (see test_recheckpoint_replays_pending_suffix).
        restored = load_checkpoint(live)
        metadata = restored.checkpoint_header_["metadata"]
        assert metadata["generation"] == 1
        assert metadata["wal_applied"] == {"s": 1}

    def test_missing_live_promoted_from_generation(self, model_dir):
        live = model_dir / "m.npz"
        generations = checkpoint_generations(live)
        assert generations
        live.unlink()
        report = repair_directory(model_dir)
        assert _problems(report) == ["missing-live"]
        assert live.exists()
        assert load_checkpoint(live).cluster_centers_.shape == (3, 6)

    def test_unrecoverable_when_no_generation_valid(self, model_dir):
        live = model_dir / "m.npz"
        live.unlink()
        for archive in checkpoint_generations(live):
            archive.write_bytes(b"rotten")
        report = repair_directory(model_dir)
        findings = [f for f in report["findings"]
                    if f["problem"] == "missing-live"]
        assert findings and findings[0]["action"] == "unrecoverable"

    def test_quarantine_when_nothing_restorable(self, model_dir):
        live = model_dir / "m.npz"
        live.write_bytes(b"rotten")
        for archive in checkpoint_generations(live):
            archive.write_bytes(b"rotten")
        report = repair_directory(model_dir)
        findings = [f for f in report["findings"]
                    if f["problem"] == "corrupt-checkpoint"]
        assert findings and findings[0]["action"] == "quarantine"
        assert (model_dir / "m.npz.corrupt").exists()
        assert not live.exists()

    def test_dry_run_changes_nothing(self, model_dir):
        orphan = model_dir / "m.npz.tmp"
        orphan.write_bytes(b"\x00")
        _age(orphan)
        namespace = model_dir / "wal" / "m" / "s.wal"
        segment = sorted(namespace.glob("segment-*.wal"))[-1]
        size_before = segment.stat().st_size
        truncate_file(segment, 5)

        report = repair_directory(model_dir, apply=False)
        assert report["applied"] is False
        assert all(f["action"].startswith("would-")
                   for f in report["findings"])
        assert orphan.exists()
        assert segment.stat().st_size == size_before - 5

    def test_recheckpoint_replays_pending_suffix(self, model_dir):
        namespace = model_dir / "wal" / "m" / "s.wal"
        rng = np.random.default_rng(5)
        with WriteAheadLog(namespace) as wal:
            wal.append({"X": rng.normal(size=(10, 6))}, meta={"seed": 0})
        report = repair_directory(model_dir, recheckpoint=True)
        assert report["recovered"]
        assert report["recovered"][0]["replayed_batches"] == 1
        metadata = read_checkpoint_header(model_dir / "m.npz")["metadata"]
        assert metadata["wal_applied"] == {"s": 3}

    def test_repaired_directory_serves(self, model_dir):
        (model_dir / "m.npz.tmp").write_bytes(b"\x00")
        _age(model_dir / "m.npz.tmp")
        (model_dir / "m.npz").write_bytes(b"rotten")
        # Restore the previous generation, then let the journal replay
        # bring it back to the exact pre-damage watermark.
        repair_directory(model_dir, recheckpoint=True)
        registry = ModelRegistry(model_dir)
        loaded = registry.get("m")
        rng = np.random.default_rng(1)
        labels = loaded.model.predict(rng.normal(size=(5, 6)))
        assert labels.shape == (5,)
        assert loaded.wal_applied == {"s": 2}


class TestRepairCLI:
    def test_clean_directory_exits_zero(self, model_dir, capsys):
        assert main(["repair", str(model_dir)]) == 0
        assert "clean" in capsys.readouterr().err

    def test_flipped_array_byte_restores_previous_generation(
            self, model_dir, capsys):
        """Bit rot inside an array member fails its CRC-32 at load, so
        repair sees the live file as corrupt and restores the newest
        sound generation."""
        live = model_dir / "m.npz"
        offset = member_data_offsets(live)["array.cluster_centers"]
        flip_byte(live, offset + 5)
        with pytest.raises(SerializationError, match="CRC-32"):
            load_checkpoint(live)
        assert main(["repair", str(model_dir), "--dry-run"]) == 1
        assert "corrupt-checkpoint" in capsys.readouterr().out
        assert main(["repair", str(model_dir)]) == 0
        restored = load_checkpoint(live)
        assert restored.checkpoint_header_["metadata"]["generation"] == 1
        assert main(["repair", str(model_dir), "--dry-run"]) == 0

    def test_dry_run_with_findings_exits_one(self, model_dir, capsys):
        (model_dir / "m.npz.tmp").write_bytes(b"\x00")
        _age(model_dir / "m.npz.tmp")
        assert main(["repair", str(model_dir), "--dry-run"]) == 1
        out = capsys.readouterr().out
        assert "orphan-tmp" in out and "would-delete" in out
        assert (model_dir / "m.npz.tmp").exists()

    def test_apply_then_rescan_is_clean(self, model_dir):
        (model_dir / "m.npz.tmp").write_bytes(b"\x00")
        assert main(["repair", str(model_dir), "--tmp-grace", "0"]) == 0
        assert main(["repair", str(model_dir), "--dry-run"]) == 0

    def test_recheckpoint_flag(self, model_dir, capsys):
        namespace = model_dir / "wal" / "m" / "s.wal"
        rng = np.random.default_rng(5)
        with WriteAheadLog(namespace) as wal:
            wal.append({"X": rng.normal(size=(10, 6))}, meta={"seed": 0})
        assert main(["repair", str(model_dir), "--recheckpoint"]) == 0
        assert "1 batch(es) replayed" in capsys.readouterr().err

    def test_missing_directory_is_an_error(self, tmp_path):
        assert main(["repair", str(tmp_path / "nope")]) == 2
