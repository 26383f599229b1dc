"""Unit and property tests for the write-ahead log (repro.wal)."""

from __future__ import annotations

import json
import os
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from faultinject import flip_byte, truncate_file
from repro.clustering import KMeans
from repro.exceptions import WALError
from repro.serialize import (
    checkpoint_generations,
    fsync_directory,
    load_checkpoint,
    read_checkpoint_header,
    rotate_checkpoint,
    save_checkpoint,
)
from repro.wal import (
    WALCorruption,
    WALRecord,
    WriteAheadLog,
    decode_record,
    encode_record,
    iter_records,
    recover_checkpoint,
    recover_model_dir,
    replay_wal,
    scan_records,
    stamp_wal_metadata,
    wal_applied,
    wal_namespace,
)


def _record(batch_id=1, value=0.0, n=6, **meta):
    return WALRecord(batch_id=batch_id,
                     arrays={"X": np.full((n, 3), value, dtype=np.float64)},
                     meta=meta)


def _raw_record(header: dict, payload: bytes = b"") -> bytes:
    """A CRC-valid record with an arbitrary (possibly hostile) header —
    what a buggy writer could produce; random corruption fails the CRC."""
    header_bytes = json.dumps(header).encode("utf-8")
    crc = zlib.crc32(header_bytes + payload) & 0xFFFFFFFF
    return struct.pack("<4sIQI", b"RWA1", len(header_bytes), len(payload),
                       crc) + header_bytes + payload


def _assert_arrays_equal(left: dict, right: dict) -> None:
    assert left.keys() == right.keys()
    for key in left:
        assert left[key].dtype == right[key].dtype
        assert left[key].shape == right[key].shape
        assert left[key].tobytes() == right[key].tobytes()


class TestRecordCodec:
    @pytest.mark.parametrize("dtype", ["float64", "float32", "int64",
                                       "int32", "uint8", "bool"])
    def test_roundtrip_dtypes(self, dtype):
        rng = np.random.default_rng(0)
        array = (rng.normal(size=(5, 4)) * 10).astype(dtype)
        record = WALRecord(batch_id=7, arrays={"X": array},
                           meta={"seed": 3}, kind="batch")
        decoded = decode_record(encode_record(record))
        assert decoded.batch_id == 7
        assert decoded.kind == "batch"
        assert decoded.meta == {"seed": 3}
        _assert_arrays_equal(decoded.arrays, record.arrays)

    def test_roundtrip_multiple_and_empty_arrays(self):
        record = WALRecord(batch_id=1, arrays={
            "X": np.arange(12, dtype=np.float64).reshape(3, 4),
            "labels": np.array([0, 1, 2], dtype=np.int64),
            "empty": np.empty((0, 5), dtype=np.float32),
            "scalar": np.array(2.5),
        })
        decoded = decode_record(encode_record(record))
        _assert_arrays_equal(decoded.arrays, record.arrays)

    def test_decoded_arrays_are_writable_copies(self):
        decoded = decode_record(encode_record(_record()))
        decoded.arrays["X"][0, 0] = 42.0  # must not raise (detached buffer)

    def test_rejects_object_dtype(self):
        record = WALRecord(batch_id=1,
                           arrays={"X": np.array([{"a": 1}], dtype=object)})
        with pytest.raises(WALError, match="object"):
            encode_record(record)

    def test_rejects_nonpositive_batch_id(self):
        with pytest.raises(WALError, match="batch_id"):
            encode_record(_record(batch_id=0))

    def test_rejects_unjsonable_meta(self):
        record = WALRecord(batch_id=1, arrays={},
                           meta={"bad": {1, 2}})
        with pytest.raises(WALError, match="JSON"):
            encode_record(record)

    def test_scan_offsets_are_record_boundaries(self):
        first = encode_record(_record(batch_id=1))
        second = encode_record(_record(batch_id=2, value=1.0))
        offsets = [offset for offset, _ in scan_records(first + second)]
        assert offsets == [0, len(first)]

    def test_bad_magic_is_corruption_at_boundary(self):
        good = encode_record(_record(batch_id=1))
        with pytest.raises(WALCorruption) as excinfo:
            list(scan_records(good + b"JUNKJUNKJUNKJUNKJUNK"))
        assert excinfo.value.offset == len(good)

    def test_crc_mismatch_detected(self):
        data = bytearray(encode_record(_record()))
        data[-1] ^= 0xFF  # flip a payload byte
        with pytest.raises(WALCorruption, match="CRC"):
            list(scan_records(bytes(data)))

    def test_negative_shape_dims_are_corruption(self):
        # A CRC-valid header from a buggy writer: nbytes matches the
        # (negative) product, so only an explicit sign check catches it.
        data = _raw_record({"batch_id": 1, "kind": "batch", "meta": {},
                            "arrays": [{"name": "X", "dtype": "<f8",
                                        "shape": [-1, 8], "offset": 0,
                                        "nbytes": -64}]})
        with pytest.raises(WALCorruption, match="negative extent"):
            list(scan_records(data))

    def test_undecodable_array_is_corruption_not_valueerror(self):
        # Zero-itemsize dtype passes the extent arithmetic but makes
        # np.frombuffer raise; the decode contract must stay WALCorruption.
        data = _raw_record({"batch_id": 1, "kind": "batch", "meta": {},
                            "arrays": [{"name": "X", "dtype": "|V0",
                                        "shape": [1], "offset": 0,
                                        "nbytes": 0}]})
        with pytest.raises(WALCorruption):
            list(scan_records(data))

    def test_iter_records_stop_policy_yields_prefix(self):
        first = encode_record(_record(batch_id=1))
        second = encode_record(_record(batch_id=2))
        torn = first + second[:len(second) // 2]
        records = [record for _, record in
                   iter_records(torn, on_corruption="stop")]
        assert [record.batch_id for record in records] == [1]
        with pytest.raises(WALCorruption):
            list(iter_records(torn, on_corruption="raise"))

    def test_decode_record_rejects_trailing_bytes(self):
        data = encode_record(_record()) + encode_record(_record(batch_id=2))
        with pytest.raises(WALError, match="exactly one"):
            decode_record(data)


class TestJournal:
    def test_append_assigns_monotonic_ids(self, tmp_path):
        with WriteAheadLog(tmp_path / "ns.wal") as wal:
            ids = [wal.append({"X": np.zeros((2, 2))}) for _ in range(3)]
        assert ids == [1, 2, 3]

    def test_reopen_continues_numbering(self, tmp_path):
        with WriteAheadLog(tmp_path / "ns.wal") as wal:
            wal.append({"X": np.zeros(3)})
        with WriteAheadLog(tmp_path / "ns.wal") as wal:
            assert wal.last_batch_id == 1
            assert wal.append({"X": np.ones(3)}) == 2

    def test_replay_after_watermark(self, tmp_path):
        with WriteAheadLog(tmp_path / "ns.wal") as wal:
            for value in range(4):
                wal.append({"X": np.full(2, float(value))})
        records = replay_wal(tmp_path / "ns.wal", after=2)
        assert [record.batch_id for record in records] == [3, 4]
        assert records[0].arrays["X"][0] == 2.0

    def test_rotate_segment_starts_new_file(self, tmp_path):
        with WriteAheadLog(tmp_path / "ns.wal") as wal:
            wal.append({"X": np.zeros(1)})
            wal.rotate_segment()
            wal.append({"X": np.zeros(1)})
            names = [path.name for path in wal.segments()]
        assert names == ["segment-0000000000000001.wal",
                         "segment-0000000000000002.wal"]

    def test_one_shot_writers_seal_segments_by_size(self, tmp_path):
        """Whether an append starts a new segment is read from the last
        segment on disk, so writers that live for one append each (repro
        update, recovery) seal segments and prune frees them."""
        namespace = tmp_path / "ns.wal"
        for _ in range(8):
            with WriteAheadLog(namespace) as wal:
                last = wal.append({"X": np.zeros(2**17)})  # 1 MiB
        with WriteAheadLog(namespace) as wal:
            segments = wal.segments()
            assert len(segments) >= 2
            assert wal.prune(last) == segments[:-1]
            assert wal.segments() == segments[-1:]
            assert [record.batch_id for record in wal.replay()][-1] == last

    def test_torn_tail_healed_on_open(self, tmp_path):
        namespace = tmp_path / "ns.wal"
        with WriteAheadLog(namespace) as wal:
            wal.append({"X": np.zeros(4)})
            wal.append({"X": np.ones(4)})
            segment = wal.current_segment
        truncate_file(segment, 10)  # tear the second record
        with WriteAheadLog(namespace) as wal:
            assert wal.truncated_bytes_ > 0
            assert wal.last_batch_id == 1
            # The torn batch was never acknowledged; its id is reused.
            assert wal.append({"X": np.ones(4)}) == 2
        records = replay_wal(namespace)
        assert [record.batch_id for record in records] == [1, 2]

    def test_prune_keeps_newest_segment(self, tmp_path):
        with WriteAheadLog(tmp_path / "ns.wal") as wal:
            for _ in range(3):
                wal.append({"X": np.zeros(1)})
                wal.rotate_segment()
            assert len(wal.segments()) == 3
            deleted = wal.prune(3)
            assert len(deleted) == 2
            assert len(wal.segments()) == 1
        # Numbering survives the restart through the kept segment's name.
        with WriteAheadLog(tmp_path / "ns.wal") as wal:
            assert wal.append({"X": np.zeros(1)}) == 4

    def test_prune_spares_unapplied_segments(self, tmp_path):
        with WriteAheadLog(tmp_path / "ns.wal") as wal:
            for _ in range(3):
                wal.append({"X": np.zeros(1)})
                wal.rotate_segment()
            assert wal.prune(0) == []  # nothing applied yet
            deleted = wal.prune(1)  # id 1 applied; ids 2..3 must survive
            assert [path.name for path in deleted] == \
                ["segment-0000000000000001.wal"]
            kept = [record.batch_id for record in wal.replay()]
            assert kept == [2, 3]

    def test_non_monotonic_ids_rejected(self, tmp_path):
        namespace = tmp_path / "ns.wal"
        namespace.mkdir(parents=True)
        blob = encode_record(_record(batch_id=2)) + \
            encode_record(_record(batch_id=2))
        (namespace / "segment-0000000000000002.wal").write_bytes(blob)
        with pytest.raises(WALError, match="non-monotonic"):
            list(WriteAheadLog(namespace).replay())

    def test_namespace_validation(self, tmp_path):
        path = wal_namespace(tmp_path, "model", "updates")
        assert path == tmp_path / "model" / "updates.wal"
        for bad in ("../escape", "", ".hidden", "a/b"):
            with pytest.raises(WALError, match="invalid WAL"):
                wal_namespace(tmp_path, bad)

    def test_replay_policy_validation(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "ns.wal")
        with pytest.raises(WALError, match="on_corruption"):
            list(wal.replay(on_corruption="bogus"))


def _fitted_kmeans(seed=0):
    rng = np.random.default_rng(seed)
    X = np.vstack([center + rng.normal(size=(20, 6))
                   for center in rng.normal(size=(3, 6)) * 8.0])
    model = KMeans(3, seed=seed)
    model.fit(X)
    return model, rng


class TestRecoveryMetadata:
    def test_wal_applied_parses_and_defaults(self):
        assert wal_applied({}) == {}
        assert wal_applied({"wal_applied": {"s": 3}}) == {"s": 3}
        with pytest.raises(WALError, match="mapping"):
            wal_applied({"wal_applied": [1, 2]})

    def test_stamp_advances_watermark_and_counter(self):
        metadata: dict = {}
        stamp_wal_metadata(metadata, stream="s", batch_id=1)
        stamp_wal_metadata(metadata, stream="s", batch_id=2)
        stamp_wal_metadata(metadata, stream="other", batch_id=9)
        assert metadata["wal_applied"] == {"s": 2, "other": 9}
        assert metadata["wal_updates_applied"] == 3


class TestRecovery:
    def test_replays_exactly_the_unapplied_suffix(self, tmp_path):
        model, rng = _fitted_kmeans()
        checkpoint = tmp_path / "m.npz"
        wal_dir = tmp_path / "wal"
        wal = WriteAheadLog(wal_namespace(wal_dir, "m", "s"))

        applied_batch = rng.normal(size=(10, 6))
        wal.append({"X": applied_batch}, meta={"seed": 0})
        from repro.stream import incremental_update
        incremental_update(model, applied_batch, seed=0)
        metadata = stamp_wal_metadata(
            {"algorithm": "kmeans"}, stream="s", batch_id=1)
        rotate_checkpoint(checkpoint, model, metadata=metadata)

        pending = [rng.normal(size=(10, 6)) for _ in range(2)]
        for X in pending:
            wal.append({"X": X}, meta={"seed": 0})
        wal.close()

        report = recover_checkpoint(checkpoint, wal_dir)
        assert report.replayed == {"s": [2, 3]}
        assert report.n_replayed == 2
        metadata = read_checkpoint_header(checkpoint)["metadata"]
        assert metadata["wal_applied"] == {"s": 3}
        assert metadata["wal_updates_applied"] == 3
        recovered = load_checkpoint(checkpoint)
        assert recovered.n_seen_ == 60 + 30

    def test_recovery_is_idempotent(self, tmp_path):
        model, rng = _fitted_kmeans()
        checkpoint = tmp_path / "m.npz"
        wal_dir = tmp_path / "wal"
        with WriteAheadLog(wal_namespace(wal_dir, "m", "s")) as wal:
            metadata = {"wal_applied": {"s": wal.last_batch_id}}
            rotate_checkpoint(checkpoint, model, metadata=metadata)
            wal.append({"X": rng.normal(size=(8, 6))}, meta={"seed": 0})

        first = recover_checkpoint(checkpoint, wal_dir)
        assert first.n_replayed == 1
        state = load_checkpoint(checkpoint).cluster_centers_.copy()
        second = recover_checkpoint(checkpoint, wal_dir)
        assert second.n_replayed == 0
        assert np.array_equal(
            load_checkpoint(checkpoint).cluster_centers_, state)

    def test_recover_model_dir_skips_walless_checkpoints(self, tmp_path):
        model, _ = _fitted_kmeans()
        save_checkpoint(tmp_path / "plain.npz", model)
        reports = recover_model_dir(tmp_path, tmp_path / "wal")
        assert reports == []

    def test_replays_refit_record_as_fresh_fit(self, tmp_path):
        from repro.tasks.base import make_clusterer

        model, rng = _fitted_kmeans()
        X_seen = rng.normal(size=(30, 6))
        Xb = rng.normal(size=(12, 6))
        checkpoint = tmp_path / "m.npz"
        rotate_checkpoint(checkpoint, model, metadata={
            "algorithm": "kmeans", "wal_applied": {"s": 0},
            "wal_updates_applied": 0})
        with WriteAheadLog(wal_namespace(tmp_path / "wal", "m", "s")) as wal:
            wal.append({"X": Xb, "X_seen": X_seen},
                       meta={"seed": 0, "action": "refit",
                             "algorithm": "kmeans", "n_clusters": 3})

        report = recover_checkpoint(checkpoint, tmp_path / "wal")
        assert report.replayed == {"s": [1]}
        expected = make_clusterer("kmeans", 3, seed=0)
        expected.fit(np.vstack([X_seen, Xb]))
        recovered = load_checkpoint(checkpoint)
        assert recovered.cluster_centers_.tobytes() == \
            expected.cluster_centers_.tobytes()

    def test_refit_record_without_history_is_an_error(self, tmp_path):
        model, rng = _fitted_kmeans()
        checkpoint = tmp_path / "m.npz"
        rotate_checkpoint(checkpoint, model, metadata={
            "algorithm": "kmeans", "wal_applied": {"s": 0}})
        with WriteAheadLog(wal_namespace(tmp_path / "wal", "m", "s")) as wal:
            wal.append({"X": rng.normal(size=(8, 6))},
                       meta={"action": "refit", "algorithm": "kmeans",
                             "n_clusters": 3})
        with pytest.raises(WALError, match="X_seen"):
            recover_checkpoint(checkpoint, tmp_path / "wal")

    def test_unknown_action_refuses_to_replay(self, tmp_path):
        model, rng = _fitted_kmeans()
        checkpoint = tmp_path / "m.npz"
        rotate_checkpoint(checkpoint, model, metadata={
            "algorithm": "kmeans", "wal_applied": {"s": 0}})
        with WriteAheadLog(wal_namespace(tmp_path / "wal", "m", "s")) as wal:
            wal.append({"X": rng.normal(size=(8, 6))},
                       meta={"action": "frobnicate"})
        with pytest.raises(WALError, match="unknown action"):
            recover_checkpoint(checkpoint, tmp_path / "wal")

    def test_replays_into_sibling_index(self, tmp_path):
        from repro.index import create_index

        model, rng = _fitted_kmeans()
        checkpoint = tmp_path / "m.npz"
        index_path = tmp_path / "m.index.npz"
        X0 = rng.normal(size=(20, 6))
        index = create_index("flat", metric="cosine")
        index.build(X0)
        rotate_checkpoint(checkpoint, model, metadata={
            "algorithm": "kmeans", "wal_applied": {"s": 0},
            "wal_updates_applied": 0})
        rotate_checkpoint(index_path, index, metadata={
            "kind": "vector-index", "wal_applied": {"s": 0}})
        with WriteAheadLog(wal_namespace(tmp_path / "wal", "m", "s")) as wal:
            for _ in range(2):
                wal.append({"X": rng.normal(size=(10, 6))},
                           meta={"seed": 0, "action": "update"})

        report = recover_checkpoint(checkpoint, tmp_path / "wal")
        assert report.replayed == {"s": [1, 2]}
        assert report.index_replayed == {"s": [1, 2]}
        recovered = load_checkpoint(index_path)
        assert recovered.size == 20 + 20
        index_meta = read_checkpoint_header(index_path)["metadata"]
        assert index_meta["wal_applied"] == {"s": 2}

    def test_index_behind_model_catches_up(self, tmp_path):
        # Crash window between the model rotation and the index rotation:
        # the model watermark is ahead of the index's by one batch, and
        # recovery must backfill the index without re-touching the model.
        from repro.index import create_index
        from repro.stream import incremental_update

        model, rng = _fitted_kmeans()
        checkpoint = tmp_path / "m.npz"
        index_path = tmp_path / "m.index.npz"
        index = create_index("flat", metric="cosine")
        index.build(rng.normal(size=(20, 6)))
        rotate_checkpoint(index_path, index, metadata={
            "kind": "vector-index", "wal_applied": {"s": 0}})

        applied = rng.normal(size=(10, 6))
        with WriteAheadLog(wal_namespace(tmp_path / "wal", "m", "s")) as wal:
            wal.append({"X": applied}, meta={"seed": 0, "action": "update"})
            incremental_update(model, applied, seed=0)
            rotate_checkpoint(checkpoint, model, metadata=stamp_wal_metadata(
                {"algorithm": "kmeans"}, stream="s", batch_id=1))
            wal.append({"X": rng.normal(size=(10, 6))},
                       meta={"seed": 0, "action": "update"})

        report = recover_checkpoint(checkpoint, tmp_path / "wal")
        assert report.replayed == {"s": [2]}
        assert report.index_replayed == {"s": [1, 2]}
        assert load_checkpoint(index_path).size == 40
        metadata = read_checkpoint_header(checkpoint)["metadata"]
        assert metadata["wal_applied"] == {"s": 2}
        assert metadata["wal_updates_applied"] == 2

    @pytest.mark.parametrize("backend", ["ivf", "ivfpq"])
    def test_replay_into_mmap_attached_index(self, tmp_path, backend):
        """A saved IVF index loads mmap-attached; recovery must still add.

        A 3-batch stream keeps an index beside the model; rolling the
        index back one generation makes recovery replay the last batch
        into the attached index, which must merge the batch into
        in-memory lists instead of refusing, and land on the index the
        stream had.
        """
        import shutil

        from repro.config import TEST_SCALE
        from repro.experiments.streaming import run_stream_scenario

        path = tmp_path / "live.npz"
        index_path = tmp_path / "live.index.npz"
        run_stream_scenario(
            "entity_resolution", dataset="musicbrainz", scale=TEST_SCALE,
            n_batches=3, seed=0, save_path=path, wal_dir=tmp_path / "wal",
            with_index=backend)
        tail = read_checkpoint_header(index_path)["metadata"]["wal_applied"]
        live = load_checkpoint(index_path)
        queries = np.random.default_rng(5).normal(size=(6, live.dim))
        expected = live.query(queries, 5)

        shutil.copy2(checkpoint_generations(index_path)[-1], index_path)
        rolled = read_checkpoint_header(index_path)["metadata"]
        assert rolled["wal_applied"]["stream"] == tail["stream"] - 1

        report = recover_checkpoint(path, tmp_path / "wal")
        assert report.index_replayed == {"stream": [tail["stream"]]}
        assert read_checkpoint_header(index_path)["metadata"][
            "wal_applied"] == tail
        recovered = load_checkpoint(index_path)
        assert recovered.size == live.size
        for got, want in zip(recovered.query(queries, 5), expected):
            assert np.array_equal(got, want)


class TestAtomicWriteDurability:
    """Satellite: _atomic_write fsyncs the file and its directory."""

    def test_save_checkpoint_fsyncs_file_and_directory(self, tmp_path,
                                                       monkeypatch):
        model, _ = _fitted_kmeans()
        synced: list[int] = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync",
                            lambda fd: (synced.append(fd), real_fsync(fd))[1])
        save_checkpoint(tmp_path / "m.npz", model)
        # At least the temp checkpoint file and the containing directory.
        assert len(synced) >= 2

    def test_fsync_directory_tolerates_missing_path(self, tmp_path):
        fsync_directory(tmp_path / "does-not-exist")  # must not raise

    def test_fsync_directory_syncs_real_directory(self, tmp_path):
        fsync_directory(tmp_path)  # must not raise on a real directory


# ---------------------------------------------------------------------------
# Property tests: the codec round-trips bit-identically and *any* single
# truncation or byte flip yields a strict prefix or a WALError — never a
# wrong array.

finite_arrays = st.sampled_from(["float64", "float32", "int64", "uint8"]) \
    .flatmap(lambda dtype: st.lists(
        st.integers(min_value=0 if dtype == "uint8" else -1000,
                    max_value=255 if dtype == "uint8" else 1000),
        min_size=0, max_size=24).map(
            lambda values: np.asarray(values, dtype=dtype)))

float_arrays = st.lists(
    st.floats(allow_nan=True, allow_infinity=True, width=64),
    min_size=0, max_size=16).map(lambda v: np.asarray(v, dtype=np.float64))


class TestCodecProperties:
    @settings(max_examples=60, deadline=None)
    @given(batch_id=st.integers(min_value=1, max_value=2**48),
           arrays=st.dictionaries(
               st.text(st.characters(min_codepoint=48, max_codepoint=122),
                       min_size=1, max_size=8),
               st.one_of(finite_arrays, float_arrays),
               min_size=0, max_size=3),
           meta=st.dictionaries(st.sampled_from(["seed", "epochs", "note"]),
                                st.integers(min_value=0, max_value=99),
                                max_size=3))
    def test_roundtrip_bit_identical(self, batch_id, arrays, meta):
        record = WALRecord(batch_id=batch_id, arrays=arrays, meta=meta)
        decoded = decode_record(encode_record(record))
        assert decoded.batch_id == batch_id
        assert decoded.meta == meta
        _assert_arrays_equal(decoded.arrays, arrays)

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_truncation_yields_strict_prefix_or_error(self, data):
        originals = [_record(batch_id=i + 1, value=float(i), n=4)
                     for i in range(3)]
        blob = b"".join(encode_record(record) for record in originals)
        cut = data.draw(st.integers(min_value=0, max_value=len(blob) - 1))
        recovered = []
        try:
            for _, record in scan_records(blob[:cut]):
                recovered.append(record)
        except WALError:
            pass
        assert len(recovered) < len(originals)
        for index, record in enumerate(recovered):
            assert record.batch_id == originals[index].batch_id
            _assert_arrays_equal(record.arrays, originals[index].arrays)

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_byte_flip_never_yields_wrong_arrays(self, data):
        originals = [_record(batch_id=i + 1, value=float(i), n=4)
                     for i in range(3)]
        blob = bytearray(b"".join(encode_record(record)
                                  for record in originals))
        position = data.draw(st.integers(min_value=0,
                                         max_value=len(blob) - 1))
        blob[position] ^= data.draw(st.integers(min_value=1, max_value=255))
        recovered = []
        try:
            for _, record in scan_records(bytes(blob)):
                recovered.append(record)
        except WALError:
            pass
        # Every record that decodes must be one of the originals, intact
        # and in order: corruption is detected, never silently absorbed.
        assert len(recovered) <= len(originals)
        for index, record in enumerate(recovered):
            assert record.batch_id == originals[index].batch_id
            _assert_arrays_equal(record.arrays, originals[index].arrays)


class TestJournalFileCorruption:
    """The file-level generators from faultinject, against a real journal."""

    def test_flip_byte_in_segment_detected(self, tmp_path):
        namespace = tmp_path / "ns.wal"
        with WriteAheadLog(namespace) as wal:
            wal.append({"X": np.arange(6, dtype=np.float64)})
            segment = wal.current_segment
        flip_byte(segment, segment.stat().st_size - 1)
        with pytest.raises(WALCorruption):
            list(scan_records(segment))
        assert replay_wal(namespace) == []  # healed to the empty prefix

    def test_json_header_survives_roundtrip_through_disk(self, tmp_path):
        meta = {"seed": 1, "note": "unicode: é"}
        namespace = tmp_path / "ns.wal"
        with WriteAheadLog(namespace) as wal:
            wal.append({"X": np.zeros(2)}, meta=meta)
        record = replay_wal(namespace)[0]
        assert record.meta == meta
        assert json.loads(json.dumps(record.meta)) == meta
