"""Tests for the quantized, disk-backed index tier.

Covers the quantizers (:mod:`repro.index.quant`), the IVF-PQ backend,
the mmap-backed checkpoint store (:mod:`repro.index.storage`) and the
per-request tunables surfaced through the serving layer.
"""

import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import (
    ConfigurationError,
    IndexMismatchError,
    ServingError,
    VectorIndexError,
)
from repro.index import (
    FlatIndex,
    HNSWIndex,
    IVFPQIndex,
    MappedArrays,
    ProductQuantizer,
    ScalarQuantizer,
    VectorIndex,
)
from repro.serialize import (
    read_checkpoint_header,
    rotate_checkpoint,
    save_checkpoint,
)
from repro.utils.metrics_dispatch import squared_euclidean_distances


def clustered(n, dim=16, n_clusters=8, seed=0, scale=4.0):
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(n_clusters, dim)) * scale
    per = n // n_clusters
    rows = [c + rng.normal(size=(per, dim)) for c in centers]
    rows.append(centers[0] + rng.normal(size=(n - per * n_clusters, dim)))
    return np.vstack(rows), centers


matrices = st.integers(min_value=2, max_value=10).flatmap(
    lambda n: st.integers(min_value=1, max_value=6).flatmap(
        lambda d: st.lists(
            st.lists(st.floats(min_value=-50, max_value=50,
                               allow_nan=False, allow_infinity=False),
                     min_size=d, max_size=d),
            min_size=n, max_size=n)))


# ----------------------------------------------------------------------
# scalar quantizer
class TestScalarQuantizer:
    @settings(max_examples=60, deadline=None)
    @given(matrices)
    def test_round_trip_within_half_step_bound(self, rows):
        """|decode(encode(x)) - x| <= scale/2 for calibrated values.

        The bound is exact in real arithmetic; the slack term covers
        float32 rounding of the affine map at |x| up to 50.
        """
        X = np.asarray(rows, dtype=np.float64)
        quantizer = ScalarQuantizer().train(X)
        error = np.abs(quantizer.decode(quantizer.encode(X))
                       - X.astype(np.float32))
        assert (error <= quantizer.max_round_trip_error + 1e-4).all()

    def test_constant_dimension_round_trips_exactly(self):
        X = np.full((20, 3), 7.25, dtype=np.float32)
        quantizer = ScalarQuantizer().train(X)
        assert np.array_equal(quantizer.decode(quantizer.encode(X)), X)

    def test_out_of_range_values_clip_to_calibration(self):
        X = np.linspace(0.0, 1.0, 32, dtype=np.float32).reshape(-1, 1)
        quantizer = ScalarQuantizer().train(X)
        codes = quantizer.encode(np.array([[-5.0], [9.0]], dtype=np.float32))
        assert codes[0, 0] == 0 and codes[1, 0] == 255
        decoded = quantizer.decode(codes)
        assert decoded[0, 0] == pytest.approx(0.0, abs=1e-6)
        assert decoded[1, 0] == pytest.approx(1.0, abs=1e-6)

    def test_state_arrays_round_trip(self):
        X, _ = clustered(100, dim=6)
        quantizer = ScalarQuantizer().train(X)
        restored = ScalarQuantizer.from_state_arrays(quantizer.state_arrays())
        probe = X[:10].astype(np.float32)
        assert np.array_equal(quantizer.encode(probe), restored.encode(probe))

    def test_untrained_and_mismatched_use_rejected(self):
        with pytest.raises(VectorIndexError):
            ScalarQuantizer().encode(np.ones((2, 3)))
        quantizer = ScalarQuantizer().train(np.ones((4, 3)))
        with pytest.raises(VectorIndexError):
            quantizer.encode(np.ones((2, 5)))


# ----------------------------------------------------------------------
# product quantizer
class TestProductQuantizer:
    def test_adc_equals_distance_to_reconstruction(self):
        """ADC table scores are exactly ||q - decode(code)||^2."""
        X, _ = clustered(400, dim=16, seed=2)
        quantizer = ProductQuantizer(4, seed=0).train(X)
        codes = quantizer.encode(X)
        Q = X[:7].astype(np.float32)
        via_tables = quantizer.adc(quantizer.lookup_tables(Q), codes)
        direct = squared_euclidean_distances(Q, quantizer.decode(codes))
        assert np.allclose(via_tables, direct, atol=1e-3)

    def test_m_must_divide_dimensionality(self):
        with pytest.raises(ConfigurationError):
            ProductQuantizer(5).train(np.random.default_rng(0)
                                      .normal(size=(50, 16)))
        with pytest.raises(ConfigurationError):
            ProductQuantizer(0)

    def test_training_is_deterministic_given_seed(self):
        X, _ = clustered(300, dim=8, seed=3)
        a = ProductQuantizer(2, seed=9).train(X)
        b = ProductQuantizer(2, seed=9).train(X)
        assert np.array_equal(a.codebooks_, b.codebooks_)
        assert np.array_equal(a.encode(X), b.encode(X))

    def test_state_arrays_round_trip(self):
        X, _ = clustered(200, dim=8)
        quantizer = ProductQuantizer(4, seed=1).train(X)
        restored = ProductQuantizer.from_state_arrays(
            quantizer.state_arrays(), m=4)
        probe = X[:20].astype(np.float32)
        assert np.array_equal(quantizer.encode(probe), restored.encode(probe))
        assert np.array_equal(quantizer.decode(quantizer.encode(probe)),
                              restored.decode(restored.encode(probe)))


# ----------------------------------------------------------------------
# IVF-PQ recall and tunables
class TestIVFPQSearch:
    @pytest.mark.parametrize("metric", ["cosine", "euclidean"])
    def test_recall_at_default_settings(self, metric):
        """IVF-PQ recall@10 >= 0.90 at constructor defaults."""
        X, centers = clustered(1500, dim=24, seed=3)
        rng = np.random.default_rng(7)
        Q = centers[np.arange(60) % centers.shape[0]] \
            + rng.normal(size=(60, 24))
        truth, _ = FlatIndex(metric=metric).build(X).query(Q, 10)
        approx, _ = IVFPQIndex(metric=metric).build(X).query(Q, 10)
        hits = sum(len(set(a) & set(t)) for a, t in zip(approx, truth))
        assert hits / truth.size >= 0.90, (metric, hits / truth.size)

    def test_sq_coding_recall(self):
        X, centers = clustered(1200, dim=24, seed=5)
        truth, _ = FlatIndex().build(X).query(centers, 10)
        approx, _ = IVFPQIndex(coding="sq").build(X).query(centers, 10)
        hits = sum(len(set(a) & set(t)) for a, t in zip(approx, truth))
        assert hits / truth.size >= 0.90

    def test_rerank_and_nprobe_are_per_request_tunables(self):
        X, centers = clustered(900, dim=16, seed=6)
        index = IVFPQIndex(nlist=16, nprobe=2, m=4, rerank=0).build(X)
        truth, _ = FlatIndex().build(X).query(centers, 10)

        def recall(**tunables):
            approx, _ = index.query(centers, 10, **tunables)
            return sum(len(set(a) & set(t))
                       for a, t in zip(approx, truth)) / truth.size

        # Widening the probe set and adding exact rerank at query time
        # must monotonically improve recall, without mutating the index.
        assert recall(nprobe=16, rerank=128) >= recall() - 1e-9
        assert recall(nprobe=16, rerank=128) >= 0.99
        assert index.nprobe == 2 and index.rerank == 0

    def test_rerank_zero_returns_approximate_distances(self):
        X, _ = clustered(500, dim=16, seed=8)
        index = IVFPQIndex(nlist=8, nprobe=8, m=4).build(X)
        positions, exact = index.query(X[:4], 3)
        _, approx = index.query(X[:4], 3, rerank=0)
        # Reranked distances are true metric distances; rerank=0 keeps the
        # ADC approximation, which differs by the quantization error.
        assert (exact >= 0).all() and (approx >= 0).all()
        assert not np.allclose(exact, approx, atol=1e-6)

    def test_bad_tunables_rejected(self):
        X, _ = clustered(100, dim=8)
        index = IVFPQIndex(nlist=4, m=2).build(X)
        with pytest.raises(VectorIndexError, match="nprobe"):
            index.query(X[:1], 3, nprobe=0)
        with pytest.raises(VectorIndexError, match="rerank"):
            index.query(X[:1], 3, rerank=-1)
        with pytest.raises(VectorIndexError, match="ef_search"):
            index.query(X[:1], 3, ef_search=50)
        with pytest.raises(VectorIndexError, match="integer"):
            index.query(X[:1], 3, nprobe=True)


# ----------------------------------------------------------------------
# mmap-backed checkpoints
class TestMappedCheckpoints:
    @pytest.fixture()
    def built(self):
        X, _ = clustered(400, dim=16, seed=1)
        index = IVFPQIndex(nlist=16, nprobe=4, m=4).build(
            X, ids=[f"doc-{i}" for i in range(X.shape[0])])
        return X, index

    def test_save_load_attach_is_bit_identical(self, built, tmp_path):
        X, index = built
        path = tmp_path / "ivfpq.index.npz"
        index.save(path)
        restored = VectorIndex.load(path)
        assert isinstance(restored, IVFPQIndex) and restored.attached
        p1, d1 = index.query(X[:50], 7)
        p2, d2 = restored.query(X[:50], 7)
        assert np.array_equal(p1, p2)
        assert np.array_equal(d1, d2)
        assert np.array_equal(restored.ids, index.ids)

    def test_header_stamps_the_quantizer_contract(self, built, tmp_path):
        X, index = built
        path = tmp_path / "ivfpq.index.npz"
        index.save(path)
        metadata = read_checkpoint_header(path)["metadata"]
        assert metadata["backend"] == "ivfpq"
        assert metadata["dtype"] == "float32"
        assert metadata["dim"] == X.shape[1]
        assert metadata["quantizer"] == {
            "coding": "pq", "m": 4, "n_codes": 256, "bytes_per_vector": 4}

    def test_unprobed_cells_are_never_touched(self, built, tmp_path):
        X, index = built
        path = tmp_path / "ivfpq.index.npz"
        index.save(path)
        restored = VectorIndex.load(path)
        # Attachment derives cell membership from the resident
        # assignments; no lazy member is read.
        assert restored._store.touched == set()
        cell = int(restored.assignments_[0])
        restored.query(X[:1], 3, nprobe=1)
        assert restored._store.touched == {
            f"array.cell.{cell:06d}.codes", f"array.cell.{cell:06d}.vecs"}

    def test_attached_index_is_read_only(self, built, tmp_path):
        X, index = built
        path = tmp_path / "ivfpq.index.npz"
        index.save(path)
        restored = VectorIndex.load(path)
        with pytest.raises(VectorIndexError, match="read-only"):
            restored.add(X[:5])

    def test_attached_memory_excludes_cell_payload(self, built, tmp_path):
        X, index = built
        path = tmp_path / "ivfpq.index.npz"
        index.save(path)
        restored = VectorIndex.load(path)
        # The resident structure is a fraction of the fully in-memory
        # index — the cell payload stays on disk.  (The bench gates the
        # real 8x-vs-float64 claim at 1M vectors, where the per-vector
        # bookkeeping stops dominating.)
        assert restored.memory_bytes() < index.memory_bytes() / 2

    def test_mapped_arrays_rejects_compressed_checkpoints(self, tmp_path):
        # Checkpoints are written stored now, but earlier releases
        # deflated every class except IVF-PQ and those files still exist.
        X, _ = clustered(50, dim=8)
        path = tmp_path / "flat.npz"
        np.savez_compressed(path, **{"array.vectors": X})
        with pytest.raises(VectorIndexError, match="compressed"):
            MappedArrays(path)

    def test_rotation_leaves_attached_generation_readable(self, built,
                                                          tmp_path):
        X, index = built
        path = tmp_path / "ivfpq.index.npz"
        rotate_checkpoint(path, index, metadata={"kind": "vector-index"})
        old = VectorIndex.load(path)
        before = old.query(X[:10], 5)
        grown = IVFPQIndex(nlist=16, nprobe=4, m=4).build(
            np.vstack([X, X[:30] + 0.01]))
        rotate_checkpoint(path, grown, metadata={"kind": "vector-index"})
        # The mapping holds its own descriptor: the superseded reader
        # keeps serving its generation while new loads see the new one.
        after = old.query(X[:10], 5)
        assert np.array_equal(before[0], after[0])
        assert np.array_equal(before[1], after[1])
        assert VectorIndex.load(path).size == X.shape[0] + 30

    def test_header_contract_mismatch_rejected_at_load(self, tmp_path):
        X, _ = clustered(60, dim=8)
        dim_path = tmp_path / "dim.npz"
        FlatIndex().build(X).save(dim_path, metadata={"dim": 999})
        with pytest.raises(IndexMismatchError, match="dim"):
            VectorIndex.load(dim_path)
        metric_path = tmp_path / "metric.npz"
        IVFPQIndex(nlist=4, m=2).build(X).save(
            metric_path, metadata={"metric": "euclidean"})
        with pytest.raises(IndexMismatchError, match="metric"):
            VectorIndex.load(metric_path)


# ----------------------------------------------------------------------
# serving: per-request tunables and mmap-backed hot rotation
def _post(port, path, body, timeout=15):
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestServingTunables:
    @pytest.fixture()
    def service(self, tmp_path):
        from repro.serve import ModelRegistry, PredictService

        X, _ = clustered(300, dim=12, seed=4)
        IVFPQIndex(nlist=8, nprobe=2, m=4).build(X).save(
            tmp_path / "quantized.npz")
        HNSWIndex(m=8, ef_construction=40).build(X).save(
            tmp_path / "graph.npz")
        with PredictService(ModelRegistry(tmp_path)) as service:
            yield service, X

    def test_tunables_flow_through_and_are_echoed(self, service):
        service, X = service
        result = service.neighbors("quantized", {
            "vectors": X[:2].tolist(), "k": 4, "nprobe": 8, "rerank": 64})
        assert result["tunables"] == {"nprobe": 8, "rerank": 64}
        assert result["k"] == 4
        plain = service.neighbors("quantized",
                                  {"vectors": X[:2].tolist(), "k": 4})
        assert "tunables" not in plain
        graph = service.search({"index": "graph",
                                "vectors": X[:1].tolist(), "ef_search": 80})
        assert graph["tunables"] == {"ef_search": 80}

    def test_wider_probing_is_served_per_request(self, service):
        service, X = service
        narrow = service.neighbors("quantized", {
            "vectors": X[:20].tolist(), "k": 5, "nprobe": 1, "rerank": 0})
        wide = service.neighbors("quantized", {
            "vectors": X[:20].tolist(), "k": 5, "nprobe": 8, "rerank": 128})
        # Wide probing with exact rerank finds each query vector itself.
        assert all(row[0] < 1e-5 for row in wide["distances"])
        assert narrow["tunables"] == {"nprobe": 1, "rerank": 0}

    def test_unsupported_tunable_is_a_clear_error(self, service):
        service, X = service
        with pytest.raises(ServingError, match="does not support"):
            service.neighbors("quantized",
                              {"vectors": X[:1].tolist(), "ef_search": 50})
        with pytest.raises(ServingError, match="does not support"):
            service.neighbors("graph",
                              {"vectors": X[:1].tolist(), "nprobe": 4})

    def test_bad_tunable_values_rejected(self, service):
        service, X = service
        for bad in (0, -2, "eight", True, 10_000_000):
            with pytest.raises(ServingError, match="nprobe"):
                service.neighbors("quantized",
                                  {"vectors": X[:1].tolist(), "nprobe": bad})


class TestMmapServingRotation:
    @pytest.fixture()
    def corpus(self):
        return clustered(160, dim=12, seed=4)

    @pytest.fixture()
    def server(self, tmp_path, corpus):
        from repro.serve import create_server

        X, _ = corpus
        index = IVFPQIndex(nlist=8, nprobe=4, m=4).build(
            X, ids=[f"row-{i}" for i in range(X.shape[0])])
        index.save(tmp_path / "model.index.npz")
        server = create_server(tmp_path, port=0, reload_interval=0.05)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        yield server
        server.shutdown()
        server.server_close()

    def test_hot_swap_of_mmap_index_serves_every_request(self, server,
                                                         corpus):
        """Zero failed requests while mmap-attached generations rotate."""
        X, _ = corpus
        port = server.server_address[1]
        model_dir = server.service.registry.model_dir
        failures, codes = [], []
        stop = threading.Event()

        def client(worker):
            while not stop.is_set():
                status, body = _post(
                    port, "/search",
                    {"vectors": X[worker:worker + 1].tolist(), "k": 3,
                     "nprobe": 8, "rerank": 32})
                codes.append(status)
                if status != 200:
                    failures.append(body)

        threads = [threading.Thread(target=client, args=(w,))
                   for w in range(8)]
        for thread in threads:
            thread.start()
        grown = IVFPQIndex(nlist=8, nprobe=4, m=4).build(
            np.vstack([X, X[:20] + 0.01]),
            ids=[f"row-{i}" for i in range(X.shape[0] + 20)])
        for _ in range(2):
            rotate_checkpoint(model_dir / "model.index.npz", grown,
                              metadata={"kind": "vector-index"})
            stop.wait(0.3)
        stop.set()
        for thread in threads:
            thread.join()
        assert not failures, failures[:3]
        assert len(codes) > 20
        deadline = threading.Event()
        for _ in range(40):
            loaded = server.service.registry.get("model.index").model
            if loaded.size == X.shape[0] + 20:
                break
            deadline.wait(0.1)
        current = server.service.registry.get("model.index").model
        assert current.size == X.shape[0] + 20
        # The live generation is served off the rotated file, not RAM.
        assert current.attached
