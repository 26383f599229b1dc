"""Checkpoint round-trips: every algorithm x one embedding per task.

The serving acceptance contract is that a model saved, reloaded (in what
could be a fresh process) and asked to ``predict`` produces *bit-identical*
assignments — both on held-out points and on its own training set.  NPZ
stores raw float64 buffers, so the only way to break this is to forget a
piece of fitted state; these tests would catch that for each algorithm.
"""

from __future__ import annotations

import zipfile
from pathlib import Path

import numpy as np
import pytest

from repro.cache import reset_cache
from repro.config import DeepClusteringConfig
from repro.data import generate_camera, generate_musicbrainz, generate_webtables
from repro.exceptions import NotFittedError, SerializationError
from faultinject import member_data_offsets
from repro.serialize import (
    CHECKPOINT_VERSION,
    checkpoint_generations,
    checkpointable_classes,
    load_checkpoint,
    read_checkpoint_header,
    rotate_checkpoint,
    save_checkpoint,
)
from repro.clustering import KMeans
from repro.index import (
    FlatIndex,
    IVFIndex,
    IVFPQIndex,
    MappedArrays,
)
from repro.tasks import embed_columns, embed_records, embed_tables
from repro.tasks.base import CLUSTERER_NAMES, make_clusterer

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Tiny but structured embedding per task (one matrix per module run).
_FAST = DeepClusteringConfig(pretrain_epochs=4, train_epochs=4,
                             layer_size=32, latent_dim=8, seed=0)


def member_encodings(path) -> set[int]:
    """The distinct zip compression types of a checkpoint's members."""
    with zipfile.ZipFile(path) as archive:
        return {info.compress_type for info in archive.infolist()}


def assert_stored(path) -> None:
    """Every member of the checkpoint at ``path`` is stored, not deflated."""
    assert member_encodings(path) == {zipfile.ZIP_STORED}


@pytest.fixture(scope="module")
def task_matrices():
    """(task, X, n_clusters) per pipeline, embedded once for the module."""
    reset_cache()
    webtables = generate_webtables(30, 6, seed=1)
    musicbrainz = generate_musicbrainz(60, 20, seed=1)
    camera = generate_camera(60, 10, seed=1)
    matrices = {
        "schema_inference": (embed_tables(webtables, "sbert"),
                             webtables.n_clusters),
        "entity_resolution": (embed_records(musicbrainz, "sbert"),
                              musicbrainz.n_clusters),
        "domain_discovery": (embed_columns(camera, "sbert"),
                             camera.n_clusters),
    }
    yield matrices
    reset_cache()


@pytest.mark.parametrize("algorithm", CLUSTERER_NAMES)
@pytest.mark.parametrize("task", ["schema_inference", "entity_resolution",
                                  "domain_discovery"])
def test_roundtrip_bit_identical_predict(task, algorithm, task_matrices,
                                         tmp_path):
    X, n_clusters = task_matrices[task]
    train, held_out = X[:-6], X[-6:]
    model = make_clusterer(algorithm, min(n_clusters, train.shape[0] // 2),
                           config=_FAST, seed=0)
    model.fit_predict(train)

    train_before = model.predict(train)
    held_before = model.predict(held_out)

    path = tmp_path / f"{task}_{algorithm}.npz"
    save_checkpoint(path, model, metadata={"task": task, "embedding": "sbert"})
    assert_stored(path)
    reloaded = load_checkpoint(path)

    assert type(reloaded) is type(model)
    assert np.array_equal(reloaded.predict(train), train_before)
    assert np.array_equal(reloaded.predict(held_out), held_before)
    # The persisted training labels round-trip exactly too.
    assert np.array_equal(reloaded.labels_, model.labels_)


_INDEXES = {
    "flat": FlatIndex,
    "ivfflat": lambda: IVFIndex(coding="none", nlist=4, nprobe=2),
    "ivfpq": lambda: IVFPQIndex(nlist=4, nprobe=2, m=4),
}


@pytest.mark.parametrize("backend", sorted(_INDEXES))
def test_index_checkpoints_are_stored(backend, tmp_path):
    X = np.random.default_rng(0).normal(size=(80, 8))
    index = _INDEXES[backend]().build(X)
    path = tmp_path / f"{backend}.index.npz"
    save_checkpoint(path, index)
    assert_stored(path)
    # One encoding for every class: any checkpoint maps in place.
    mapped = MappedArrays(path)
    try:
        assert "__header__" in mapped
    finally:
        mapped.close()
    reloaded = load_checkpoint(path)
    for before, after in zip(index.query(X[:5], 3), reloaded.query(X[:5], 3)):
        assert np.array_equal(before, after)


def _blobs(n=64, dim=16, k=4, seed=0):
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(k, dim)) * 6.0
    return np.vstack([c + rng.normal(size=(n // k, dim)) for c in centers])


#: One fitted instance per checkpointable class (IVF once per coding).
_KINDS = ("KMeans", "Birch", "DBSCAN", "Autoencoder", "AutoencoderClustering",
          "SDCN", "EDESC", "SHGP", "FlatIndex", "IVFIndex-none", "IVFIndex-sq",
          "IVFIndex-pq")
_ALGORITHMS = {"KMeans": "kmeans", "Birch": "birch", "DBSCAN": "dbscan",
               "AutoencoderClustering": "ae", "SDCN": "sdcn",
               "EDESC": "edesc", "SHGP": "shgp"}


def _fitted(kind, X):
    """``(model, answer)``: ``answer(model)`` must survive a reload exactly."""
    if kind == "Autoencoder":
        from repro.dc import Autoencoder

        model = Autoencoder(X.shape[1], latent_dim=4, layer_size=16, seed=0)
        model.pretrain(X, epochs=3, seed=0)
        return model, lambda m: (m.transform(X),)
    if kind == "FlatIndex" or kind.startswith("IVFIndex"):
        if kind == "FlatIndex":
            model = FlatIndex()
        else:
            model = IVFIndex(coding=kind.split("-")[1], nlist=4, nprobe=2, m=4)
        return model.build(X), lambda m: m.query(X[:6], 4)
    model = make_clusterer(_ALGORITHMS[kind], 4, config=_FAST, seed=0)
    model.fit_predict(X)
    return model, lambda m: (m.predict(X),)


def test_every_checkpointable_class_is_covered():
    classes = {cls.__name__ for cls in checkpointable_classes().values()}
    assert classes == {kind.split("-")[0] for kind in _KINDS}


@pytest.mark.parametrize("kind", _KINDS)
def test_loads_aligned_read_only_views_bit_identically(kind, tmp_path):
    X = _blobs()
    model, answer = _fitted(kind, X)
    before = answer(model)
    path = tmp_path / "model.npz"
    save_checkpoint(path, model)
    offsets = member_data_offsets(path)
    assert "__header__" in offsets and len(offsets) > 1
    assert all(offset % 64 == 0 for offset in offsets.values()), offsets

    loaded = load_checkpoint(path)
    arrays = loaded.checkpoint_arrays()
    writeable = [name for name, array in arrays.items()
                 if array.flags.writeable]
    assert arrays and writeable == []
    for want, got in zip(before, answer(loaded), strict=True):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def test_legacy_unaligned_members_are_private_aligned_copies():
    """Stored files written before alignment: copies, never cached."""
    path = LEGACY_INDEXES / "ivfflat.npz"
    unaligned = [name for name, offset in member_data_offsets(path).items()
                 if offset % 4]
    assert unaligned
    mapped = MappedArrays(path)
    try:
        for name in unaligned:
            first, second = mapped[name], mapped[name]
            assert first.flags.aligned and not first.flags.writeable
            assert first is not second
            assert first.tobytes() == second.tobytes()
    finally:
        mapped.close()


def test_member_past_end_of_file_fails_at_load(tmp_path):
    """A directory promising more bytes than the file holds is caught at
    open, not when a query first reads the member."""
    path = tmp_path / "model.npz"
    save_checkpoint(path, KMeans(3, seed=0).fit(_blobs()))
    data = bytearray(path.read_bytes())
    # The central directory entry of the last member: grow its sizes.
    entry = data.rindex(b"PK\x01\x02")
    for field in (20, 24):  # compressed, uncompressed size
        size = int.from_bytes(data[entry + field:entry + field + 4], "little")
        data[entry + field:entry + field + 4] = \
            (size + 4096).to_bytes(4, "little")
    path.write_bytes(bytes(data))
    with pytest.raises(SerializationError, match="truncated"):
        load_checkpoint(path)


class TestFormat:
    def _fitted_kmeans(self, seed=0):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(40, 6))
        return KMeans(4, seed=0).fit(X), X

    def test_arrays_round_trip_exactly(self, tmp_path):
        model, _ = self._fitted_kmeans()
        path = tmp_path / "model.npz"
        save_checkpoint(path, model)
        reloaded = load_checkpoint(path)
        assert reloaded.cluster_centers_.dtype == model.cluster_centers_.dtype
        assert np.array_equal(reloaded.cluster_centers_,
                              model.cluster_centers_)
        assert reloaded.inertia_ == model.inertia_

    def test_header_records_format_and_metadata(self, tmp_path):
        model, _ = self._fitted_kmeans()
        path = tmp_path / "model.npz"
        save_checkpoint(path, model, metadata={"task": "schema_inference",
                                               "embedding": "sbert"})
        header = read_checkpoint_header(path)
        assert header["version"] == CHECKPOINT_VERSION
        assert header["class"] == "KMeans"
        assert header["metadata"]["embedding"] == "sbert"
        loaded = load_checkpoint(path)
        assert loaded.checkpoint_header_["metadata"]["task"] == \
            "schema_inference"

    def test_unfitted_model_cannot_be_saved(self, tmp_path):
        with pytest.raises(NotFittedError):
            save_checkpoint(tmp_path / "model.npz", KMeans(3))

    def test_unregistered_object_rejected(self, tmp_path):
        with pytest.raises(SerializationError, match="cannot checkpoint"):
            save_checkpoint(tmp_path / "model.npz", object())


class TestCorruption:
    def _saved(self, tmp_path):
        rng = np.random.default_rng(0)
        model = KMeans(3, seed=0).fit(rng.normal(size=(30, 4)))
        path = tmp_path / "model.npz"
        save_checkpoint(path, model)
        return path

    def test_missing_file(self, tmp_path):
        with pytest.raises(SerializationError, match="not found"):
            load_checkpoint(tmp_path / "nope.npz")
        with pytest.raises(SerializationError, match="not found"):
            read_checkpoint_header(tmp_path / "nope.npz")

    def test_garbage_file(self, tmp_path):
        path = tmp_path / "garbage.npz"
        path.write_bytes(b"this is not an npz file at all")
        with pytest.raises(SerializationError, match="cannot read"):
            load_checkpoint(path)

    def test_truncated_file(self, tmp_path):
        path = self._saved(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2])
        with pytest.raises(SerializationError):
            load_checkpoint(path)

    def test_foreign_npz_rejected(self, tmp_path):
        path = tmp_path / "foreign.npz"
        np.savez(path, values=np.arange(4))
        with pytest.raises(SerializationError, match="missing header"):
            load_checkpoint(path)

    def test_future_version_rejected(self, tmp_path):
        import json

        path = self._saved(tmp_path)
        with np.load(path, allow_pickle=False) as payload:
            entries = {name: payload[name] for name in payload.files}
        header = json.loads(str(entries["__header__"][()]))
        header["version"] = CHECKPOINT_VERSION + 1
        entries["__header__"] = np.asarray(json.dumps(header))
        np.savez(path, **entries)
        with pytest.raises(SerializationError, match="format version"):
            load_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path):
        import json

        path = self._saved(tmp_path)
        with np.load(path, allow_pickle=False) as payload:
            entries = {name: payload[name] for name in payload.files}
        header = json.loads(str(entries["__header__"][()]))
        header["magic"] = "other-format"
        entries["__header__"] = np.asarray(json.dumps(header))
        np.savez(path, **entries)
        with pytest.raises(SerializationError, match="bad magic"):
            load_checkpoint(path)

    def test_unknown_class_rejected(self, tmp_path):
        import json

        path = self._saved(tmp_path)
        with np.load(path, allow_pickle=False) as payload:
            entries = {name: payload[name] for name in payload.files}
        header = json.loads(str(entries["__header__"][()]))
        header["class"] = "FutureClusterer"
        entries["__header__"] = np.asarray(json.dumps(header))
        np.savez(path, **entries)
        with pytest.raises(SerializationError, match="FutureClusterer"):
            load_checkpoint(path)

    def test_missing_arrays_rejected(self, tmp_path):
        path = self._saved(tmp_path)
        with np.load(path, allow_pickle=False) as payload:
            entries = {name: payload[name] for name in payload.files}
        entries.pop("array.cluster_centers")
        np.savez(path, **entries)
        with pytest.raises(SerializationError, match="inconsistent"):
            load_checkpoint(path)

    @pytest.mark.parametrize("error", [SystemError, MemoryError])
    def test_interpreter_errors_are_not_corruption(self, error, monkeypatch):
        """An intact file is not reported damaged when parsing it fails."""
        def failing(*args, **kwargs):
            raise error("not about the file")

        monkeypatch.setattr(np.lib.format, "read_array_header_1_0", failing)
        with pytest.raises(error, match="not about the file"):
            load_checkpoint(LEGACY_INDEXES / "ivfflat.npz")


#: Index checkpoints written by the release before the IVF variants
#: merged into one class, and the answers that release gave to ``Q``.
LEGACY_INDEXES = REPO_ROOT / "tests" / "fixtures" / "legacy_index"


class TestLegacyIndexCheckpoints:
    """Checkpoints of the former index classes load or fail clearly."""

    @pytest.mark.parametrize("name", ["ivfflat", "ivfpq"])
    def test_former_ivf_classes_answer_as_before(self, name):
        expected = np.load(LEGACY_INDEXES / "expected.npz")
        index = load_checkpoint(LEGACY_INDEXES / f"{name}.npz")
        assert type(index) is IVFIndex
        positions, distances = index.query(expected["Q"], 5)
        assert np.array_equal(positions, expected[f"{name}_positions"])
        assert np.array_equal(distances, expected[f"{name}_distances"])

    @pytest.mark.parametrize("coding", ["none", "sq"])
    def test_per_cell_checkpoints_answer_as_before(self, coding, tmp_path):
        """IVF files with one member per cell load into in-memory lists."""
        expected = np.load(LEGACY_INDEXES / "expected_cells.npz")
        Q = expected["Q"]

        def answers(index) -> dict:
            rows = [index.query(Q[i:i + 1], 5) for i in range(len(Q))]
            out = {"batch": index.query(Q, 5),
                   "rows": tuple(np.vstack(part) for part in zip(*rows)),
                   "nprobe1": index.query(Q[:3], 5, nprobe=1)}
            if coding != "none":
                out["rerank0"] = index.query(Q[:3], 5, rerank=0)
            return out

        path = LEGACY_INDEXES / f"cells_{coding}.npz"
        assert read_checkpoint_header(path)["class"] == "IVFIndex"
        index = load_checkpoint(path)
        assert type(index) is IVFIndex and index.coding == coding
        assert not index.attached
        got = answers(index)
        for case, (positions, distances) in got.items():
            prefix = f"cells_{coding}_{case}"
            assert np.array_equal(positions, expected[f"{prefix}_positions"])
            assert np.array_equal(distances, expected[f"{prefix}_distances"])
        # Re-saved, the upgraded index writes the flat lists, loads them
        # attached and answers the same.
        index.save(tmp_path / "upgraded.npz")
        with np.load(tmp_path / "upgraded.npz") as payload:
            assert not [name for name in payload.files if ".cell." in name]
        upgraded = load_checkpoint(tmp_path / "upgraded.npz")
        assert upgraded.attached
        for case, answer in answers(upgraded).items():
            for a, b in zip(answer, got[case]):
                assert np.array_equal(a, b)

    def test_former_ivf_flat_rebuilds_cells_from_stored_assignments(self):
        path = LEGACY_INDEXES / "ivfflat.npz"
        assert read_checkpoint_header(path)["class"] == "IVFFlatIndex"
        index = load_checkpoint(path)
        assert index.coding == "none" and index.backend == "ivf"
        # No cell members to map: the cells were rebuilt in memory from
        # the flat vectors, under the stored quantizer (no retraining).
        assert not index.attached
        with np.load(path) as payload:
            assert np.array_equal(index.assignments_,
                                  payload["array.assignments"])
            assert np.array_equal(index.centroids_,
                                  payload["array.centroids"])
            vectors = payload["array.vectors"]
        fresh = vectors[:3] + 0.5
        index.add(fresh)
        positions, _ = index.query(fresh, 1)
        assert positions[:, 0].tolist() == [120, 121, 122]

    def _retired_hnsw(self, directory: Path) -> Path:
        """An index checkpoint whose header names the removed HNSW class."""
        import json

        with np.load(LEGACY_INDEXES / "ivfflat.npz") as payload:
            entries = {name: payload[name] for name in payload.files}
        header = json.loads(str(entries["__header__"][()]))
        header["class"] = "HNSWIndex"
        header["params"] = {"metric": "cosine", "backend": "hnsw", "m": 8,
                            "ef_construction": 40, "ef_search": 64,
                            "seed": 0}
        header["metadata"]["backend"] = "hnsw"
        entries["__header__"] = np.asarray(json.dumps(header))
        path = directory / "graph.npz"
        np.savez(path, **entries)
        return path

    def test_retired_hnsw_checkpoint_is_a_clear_error(self, tmp_path):
        path = self._retired_hnsw(tmp_path)
        with pytest.raises(SerializationError,
                           match="HNSWIndex.*rebuild the index with "
                                 "backend 'ivf'"):
            load_checkpoint(path)

    def test_retired_hnsw_checkpoint_is_not_a_server_error(self, tmp_path):
        import json
        import threading
        import urllib.error
        import urllib.request

        from repro.serve import create_server

        self._retired_hnsw(tmp_path)
        server = create_server(tmp_path, port=0)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            request = urllib.request.Request(
                f"http://127.0.0.1:{server.server_address[1]}/v1/search",
                data=json.dumps({"vectors": [[0.0] * 8]}).encode("utf-8"),
                headers={"Content-Type": "application/json"})
            with pytest.raises(urllib.error.HTTPError) as caught:
                urllib.request.urlopen(request, timeout=15)
            body = json.loads(caught.value.read())
        finally:
            server.shutdown()
            server.server_close()
        assert caught.value.code == 400
        assert body["error"]["code"] == "bad_request"
        assert "rebuild the index with backend 'ivf'" in \
            body["error"]["message"]


def write_deflated(path: Path, model, metadata: dict | None = None) -> Path:
    """Write ``model`` the way earlier releases did: deflated members.

    The header and members are exactly what :func:`save_checkpoint`
    writes; only the zip encoding differs.
    """
    stored = path.with_name(f".stored-{path.name}")
    save_checkpoint(stored, model, metadata=metadata)
    with np.load(stored, allow_pickle=False) as payload:
        entries = {name: payload[name] for name in payload.files}
    stored.unlink()
    np.savez_compressed(path, **entries)
    assert member_encodings(path) == {zipfile.ZIP_DEFLATED}
    return path


class TestDeflatedUpgradePath:
    """Checkpoints deflated by earlier releases load, rotate and recover."""

    def _fitted_kmeans(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(40, 6))
        return KMeans(4, seed=0).fit(X), X, rng

    def test_loads_bit_identically(self, tmp_path):
        from repro.serve import ModelRegistry

        model, X, _ = self._fitted_kmeans()
        metadata = {"task": "schema_inference", "embedding": "sbert"}
        path = write_deflated(tmp_path / "old.npz", model, metadata)
        stored = save_checkpoint(tmp_path / "new.npz", model,
                                 metadata=metadata)

        assert read_checkpoint_header(path) == read_checkpoint_header(stored)
        entry = ModelRegistry(tmp_path).get("old")
        assert entry.header == read_checkpoint_header(stored)
        for loaded in (load_checkpoint(path), entry.model):
            expected = model.checkpoint_arrays()
            actual = loaded.checkpoint_arrays()
            assert sorted(actual) == sorted(expected)
            for name, array in expected.items():
                assert actual[name].dtype == array.dtype
                assert actual[name].tobytes() == array.tobytes()
            assert np.array_equal(loaded.predict(X), model.predict(X))

    def test_rotation_archives_deflated_then_writes_stored(self, tmp_path):
        model, X, _ = self._fitted_kmeans()
        path = write_deflated(tmp_path / "model.npz", model)
        original = path.read_bytes()

        rotate_checkpoint(path, model)
        [archive] = checkpoint_generations(path)
        assert archive.read_bytes() == original
        assert_stored(path)
        assert read_checkpoint_header(path)["metadata"]["generation"] == 1
        assert np.array_equal(load_checkpoint(archive).predict(X),
                              load_checkpoint(path).predict(X))

    def test_recovery_replays_over_deflated_checkpoint(self, tmp_path):
        from repro.stream import incremental_update
        from repro.wal import WriteAheadLog, recover_checkpoint, wal_namespace

        model, _, rng = self._fitted_kmeans()
        path = write_deflated(tmp_path / "m.npz", model, {
            "algorithm": "kmeans", "wal_applied": {"s": 0},
            "wal_updates_applied": 0})
        batch = rng.normal(size=(10, 6))
        with WriteAheadLog(wal_namespace(tmp_path / "wal", "m", "s")) as wal:
            wal.append({"X": batch}, meta={"seed": 0})
        expected = load_checkpoint(path)
        incremental_update(expected, batch, seed=0)

        report = recover_checkpoint(path, tmp_path / "wal")
        assert report.replayed == {"s": [1]}
        assert_stored(path)
        assert read_checkpoint_header(path)["metadata"]["wal_applied"] == \
            {"s": 1}
        recovered = load_checkpoint(path)
        assert recovered.cluster_centers_.tobytes() == \
            expected.cluster_centers_.tobytes()


class TestFreshProcess:
    def test_reload_in_fresh_process_is_bit_identical(self, tmp_path):
        """The acceptance contract: save here, predict identically elsewhere."""
        import os
        import subprocess
        import sys

        dataset = generate_webtables(30, 6, seed=1)
        from repro.tasks import embed_tables as _embed

        X = _embed(dataset, "sbert")
        model = KMeans(6, seed=0).fit(X)
        train_labels = model.predict(X)
        path = tmp_path / "model.npz"
        save_checkpoint(path, model)

        script = (
            "import numpy as np\n"
            "from repro.serialize import load_checkpoint\n"
            "from repro.data import generate_webtables\n"
            "from repro.tasks import embed_tables\n"
            "model = load_checkpoint(%r)\n"
            "X = embed_tables(generate_webtables(30, 6, seed=1), 'sbert')\n"
            "print(','.join(str(v) for v in model.predict(X)))\n"
        ) % str(path)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO_ROOT / "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        completed = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env=env, check=True)
        fresh_labels = np.array(
            [int(v) for v in completed.stdout.strip().split(",")])
        assert np.array_equal(fresh_labels, train_labels)


class TestSaveDirIntegration:
    def test_run_plan_save_dir_writes_servable_checkpoints(self, tmp_path):
        from repro.config import TEST_SCALE
        from repro.experiments import run_experiment

        results = run_experiment(
            "table2", scale=TEST_SCALE, datasets=("webtables",),
            embeddings=("sbert",), algorithms=("kmeans", "birch"),
            config=_FAST, save_dir=tmp_path)
        files = sorted(p.name for p in tmp_path.glob("*.npz"))
        # Dataset names are sanitised ("web tables" -> "web-tables") so the
        # stem is a valid serving model name.
        assert files == [
            "schema_inference__web-tables__sbert__birch.npz",
            "schema_inference__web-tables__sbert__kmeans.npz",
        ]
        assert len(results) == 2
        for name in files:
            header = read_checkpoint_header(tmp_path / name)
            assert header["metadata"]["algorithm"] in ("kmeans", "birch")
            assert header["metadata"]["task"] == "schema_inference"
        model = load_checkpoint(
            tmp_path / "schema_inference__web-tables__sbert__kmeans.npz")
        assert model.predict(model.cluster_centers_).shape[0] == \
            model.cluster_centers_.shape[0]

        from repro.serve import ModelRegistry

        # Every persisted stem is servable by name through the registry.
        registry = ModelRegistry(tmp_path)
        for name in registry.names():
            assert registry.get(name).model is not None

    def test_save_dir_rejected_for_non_matrix_experiments(self, tmp_path):
        from repro.config import TEST_SCALE
        from repro.exceptions import ExperimentError
        from repro.experiments import run_experiment

        with pytest.raises(ExperimentError, match="save_dir"):
            run_experiment("table1", scale=TEST_SCALE, save_dir=tmp_path)
