"""Tests for the repro.index vector-index subsystem and its integrations."""

import json
import threading
import tracemalloc
import urllib.error
import urllib.request

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.clustering import DBSCAN
from repro.exceptions import (
    ConfigurationError,
    DataValidationError,
    ServingError,
    VectorIndexError,
)
from repro.graphs import (
    ann_topk_neighbors,
    blocked_topk_neighbors,
    knn_graph,
    sparse_knn_graph,
)
from repro.index import (
    INDEX_BACKENDS,
    INDEX_DTYPE,
    FlatIndex,
    IVFIndex,
    IVFPQIndex,
    VectorIndex,
    create_index,
)
from repro.index.ivf import nearest_cells
from repro.nn import CSRMatrix
from repro.serialize import (
    load_checkpoint,
    read_checkpoint_header,
    rotate_checkpoint,
    save_checkpoint,
)
from repro.utils import pairwise_distances
from repro.utils.metrics_dispatch import unit_rows

ALL_BACKENDS = [FlatIndex,
                lambda **kw: IVFIndex(coding="none", nprobe=8, **kw),
                lambda **kw: IVFPQIndex(nlist=16, nprobe=8, m=4, **kw)]
BACKEND_IDS = ["flat", "ivf", "ivfpq"]


def clustered(n, dim=16, n_clusters=8, seed=0, scale=4.0):
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(n_clusters, dim)) * scale
    per = n // n_clusters
    rows = [c + rng.normal(size=(per, dim)) for c in centers]
    rows.append(centers[0] + rng.normal(size=(n - per * n_clusters, dim)))
    return np.vstack(rows), centers


# ----------------------------------------------------------------------
# protocol basics
class TestVectorIndexProtocol:
    @pytest.mark.parametrize("make", ALL_BACKENDS, ids=BACKEND_IDS)
    def test_query_shape_order_and_ids(self, make):
        X, centers = clustered(200)
        index = make().build(X)
        positions, distances = index.query(centers, 5)
        assert positions.shape == (centers.shape[0], 5)
        assert distances.shape == positions.shape
        # Rows ordered nearest-first, distances non-negative.
        assert (np.diff(distances, axis=1) >= 0).all()
        assert (distances >= 0).all()
        assert np.array_equal(index.ids, np.arange(200))

    @pytest.mark.parametrize("make", ALL_BACKENDS, ids=BACKEND_IDS)
    def test_k_clamped_to_corpus_size(self, make):
        X, _ = clustered(12)
        index = make().build(X)
        positions, _ = index.query(X[:3], 50)
        assert positions.shape == (3, 12)
        # Every corpus position appears exactly once per row.
        for row in positions:
            assert sorted(row) == list(range(12))

    @pytest.mark.parametrize("make", ALL_BACKENDS, ids=BACKEND_IDS)
    def test_validation_errors(self, make):
        X, _ = clustered(50)
        index = make()
        with pytest.raises(VectorIndexError):
            index.query(X[:2], 3)           # not built
        index.build(X)
        with pytest.raises(VectorIndexError):
            index.query(X[:2], 0)           # k < 1
        with pytest.raises(VectorIndexError):
            index.query(np.ones((2, 7)), 3)  # wrong width
        with pytest.raises(VectorIndexError):
            index.add(np.ones((2, 7)))       # wrong width
        with pytest.raises(VectorIndexError):
            index.build(X, ids=np.arange(10))  # wrong id count
        with pytest.raises(DataValidationError):
            index.build(np.empty((0, 4)))

    def test_unknown_backend_and_metric_rejected(self):
        with pytest.raises(ConfigurationError):
            create_index("annoy")
        with pytest.raises(ValueError):
            FlatIndex(metric="manhattan")
        for backend in ("ivf", "ivfpq"):
            with pytest.raises(ConfigurationError, match="nprobe"):
                create_index(backend, nprobe=0)
            with pytest.raises(ConfigurationError, match="nlist"):
                create_index(backend, nlist=0)

    def test_create_index_covers_registry(self):
        for backend in INDEX_BACKENDS:
            index = create_index(backend, metric="euclidean")
            assert isinstance(index, VectorIndex)
            assert index.backend == backend

    @pytest.mark.parametrize("make", ALL_BACKENDS, ids=BACKEND_IDS)
    def test_incremental_add_matches_corpus(self, make):
        X, _ = clustered(300)
        index = make().build(X[:200])
        index.add(X[200:])
        assert index.size == 300
        assert np.array_equal(index.ids, np.arange(300))
        # Every appended vector finds itself at distance ~0.
        positions, distances = index.query(X[200:210], 1)
        assert np.array_equal(positions[:, 0], np.arange(200, 210))
        # Self-distance rounds to ~eps at the index's float32 precision.
        assert (distances[:, 0] < 1e-5).all()

    def test_string_ids_survive_add(self):
        X, _ = clustered(60)
        index = FlatIndex().build(X[:40], ids=[f"item-{i}" for i in range(40)])
        index.add(X[40:], ids=[f"late-{i}" for i in range(20)])
        positions, _ = index.query(X[41:42], 1)
        assert index.ids[positions[0, 0]] == "late-1"

    def test_auto_ids_never_truncate_against_narrow_string_ids(self):
        """Auto-numbered adds onto short string ids must not collide.

        A fixed-width cast would turn position 201 into '20'; the add
        path has to widen instead.
        """
        X, _ = clustered(210, dim=4)
        index = FlatIndex().build(X[:5], ids=["ab", "cd", "ef", "gh", "ij"])
        index.add(X[5:])
        assert index.ids[200] == "200" and index.ids[209] == "209"
        assert len(set(index.ids.tolist())) == index.size
        # Longer custom string ids widen the dtype rather than truncating.
        index.add(X[:2], ids=["quite-a-long-id-0", "quite-a-long-id-1"])
        assert index.ids[-1] == "quite-a-long-id-1"


# ----------------------------------------------------------------------
# exactness and recall
matrices = st.integers(min_value=2, max_value=8).flatmap(
    lambda n: st.integers(min_value=1, max_value=5).flatmap(
        lambda d: st.lists(
            st.lists(st.floats(min_value=-50, max_value=50,
                               allow_nan=False, allow_infinity=False),
                     min_size=d, max_size=d),
            min_size=n, max_size=n)))


class TestExactness:
    @settings(max_examples=40, deadline=None)
    @given(matrices, st.sampled_from(["cosine", "euclidean"]))
    def test_flat_index_equals_brute_force(self, rows, metric):
        """FlatIndex == brute force: same top-k distances, consistent rows.

        The reference runs the shared kernels at the index's own float32
        precision — comparing against a float64 brute force would only
        measure the dtype narrowing, not the index.
        """
        X = np.asarray(rows, dtype=np.float64)
        k = min(3, X.shape[0])
        index = FlatIndex(metric=metric).build(X)
        positions, distances = index.query(X, k)
        full = pairwise_distances(np.asarray(X, dtype=INDEX_DTYPE),
                                  np.asarray(X, dtype=INDEX_DTYPE),
                                  metric=metric)
        expected = np.sort(full, axis=1)[:, :k]
        assert np.allclose(np.sort(distances, axis=1), expected, atol=1e-3)
        # The reported distances match the reported neighbours.
        recomputed = np.take_along_axis(full, positions, axis=1)
        assert np.allclose(distances, recomputed, atol=1e-3)

    @pytest.mark.parametrize("metric", ["cosine", "euclidean"])
    @pytest.mark.parametrize("backend", ["ivf"])
    def test_ann_recall_at_default_settings(self, backend, metric):
        """IVF recall@10 >= 0.95 at default settings (clustered data)."""
        X, centers = clustered(1200, dim=24, seed=3)
        rng = np.random.default_rng(7)
        Q = centers[np.arange(60) % centers.shape[0]] \
            + rng.normal(size=(60, 24))
        truth, _ = FlatIndex(metric=metric).build(X).query(Q, 10)
        approx, _ = create_index(backend, metric=metric).build(X).query(Q, 10)
        hits = sum(len(set(a) & set(t)) for a, t in zip(approx, truth))
        assert hits / truth.size >= 0.95, (backend, metric, hits / truth.size)

    def test_exact_ties_go_to_the_lowest_cell(self):
        """``k = 1`` puts a row equidistant from several cells in the lowest.

        Binary rows against binary centroids make every squared distance
        an exactly representable integer, so ties are exact and common.
        """
        rng = np.random.default_rng(0)
        bits = np.arange(8)
        C = (rng.permutation(256)[:64, None] >> bits & 1).astype(np.float32)
        Q = rng.integers(0, 2, size=(20_000, 8)).astype(np.float32)

        def lowest_tied(centroids):
            d2 = ((Q[:, None, :] - centroids[None]) ** 2).sum(axis=2)
            tied = (d2 == d2.min(axis=1, keepdims=True)).sum(axis=1) > 1
            return np.argmin(d2, axis=1), int(tied.sum())

        expected, n_tied = lowest_tied(C)
        assert n_tied > 10_000
        assert np.array_equal(nearest_cells(Q, C, 1)[:, 0], expected)
        # One cell per distinct centroid row: the cells are C, reordered.
        index = IVFIndex(metric="euclidean", nlist=64, coding="none").build(C)
        assert np.array_equal(np.unique(index.centroids_, axis=0),
                              np.unique(C, axis=0))
        index.add(Q)
        expected, _ = lowest_tied(index.centroids_)
        assert np.array_equal(index.assignments_[64:], expected)

    @pytest.mark.parametrize("metric", ["cosine", "euclidean"])
    def test_uncoded_build_holds_one_corpus_copy(self, metric):
        """A build's peak allocation stays near one copy of the corpus.

        The search-space rows (for cosine a normalised copy) are dropped
        before the cell-ordered list is gathered, and the list terms are
        summed block by block, so no two n x d arrays are live at once.
        """
        X = np.random.default_rng(3).normal(
            size=(40_000, 32)).astype(INDEX_DTYPE)
        index = IVFIndex(metric=metric, nlist=16, coding="none")
        tracemalloc.start()
        try:
            index.build(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / X.nbytes < 1.75
        vecs = index._lists["list_vecs"]
        search = unit_rows(X) if metric == "cosine" else X
        assert np.array_equal(vecs, search[index._order])
        assert np.array_equal(index._lists["list_terms"],
                              np.sum(vecs ** 2, axis=1))

    @pytest.mark.parametrize("make", ALL_BACKENDS, ids=BACKEND_IDS)
    def test_query_is_deterministic(self, make):
        X, centers = clustered(400)
        a = make().build(X).query(centers, 7)
        b = make().build(X).query(centers, 7)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])


# ----------------------------------------------------------------------
# KNN graph integration
class TestGraphBackends:
    def test_exact_backend_bit_identical_to_blocked_path(self):
        X, _ = clustered(150, dim=12)
        default = sparse_knn_graph(X, 8)
        exact = sparse_knn_graph(X, 8, backend="exact")
        for a, b in ((default.data, exact.data),
                     (default.indices, exact.indices),
                     (default.indptr, exact.indptr)):
            assert np.array_equal(a, b)
        # ... and still equivalent to the dense construction.
        dense = CSRMatrix.from_dense(knn_graph(X, 8))
        assert np.array_equal(exact.indices, dense.indices)
        assert np.array_equal(exact.indptr, dense.indptr)

    def test_flat_backend_matches_blocked_topk(self):
        X, _ = clustered(150, dim=12)
        blocked = blocked_topk_neighbors(X, 6)
        via_index = ann_topk_neighbors(X, 6, backend="flat")
        for row in range(X.shape[0]):
            assert set(blocked[row]) == set(via_index[row]), row

    @pytest.mark.parametrize("backend", ["ivf"])
    def test_ann_graph_structure_and_recall(self, backend):
        X, _ = clustered(320, dim=16, seed=5)
        exact = sparse_knn_graph(X, 10)
        approx = sparse_knn_graph(X, 10, backend=backend)
        assert approx.shape == exact.shape
        # Symmetric, binary, no self loops.
        dense = approx.to_dense()
        assert np.array_equal(dense, dense.T)
        assert set(np.unique(dense)) <= {0.0, 1.0}
        assert np.trace(dense) == 0.0
        exact_edges = set(zip(*np.nonzero(exact.to_dense())))
        approx_edges = set(zip(*np.nonzero(dense)))
        recall = len(exact_edges & approx_edges) / len(exact_edges)
        assert recall >= 0.95, (backend, recall)

    def test_ann_topk_excludes_self(self):
        X, _ = clustered(90, dim=8)
        for backend in ("flat", "ivf"):
            neighbors = ann_topk_neighbors(X, 5, backend=backend)
            assert neighbors.shape == (90, 5)
            assert (neighbors != np.arange(90)[:, None]).all(), backend

    def test_unknown_backend_raises(self):
        X, _ = clustered(30)
        with pytest.raises(ValueError):
            sparse_knn_graph(X, 3, backend="faiss")

    def test_sdcn_quality_parity_exact_vs_ann_graph(self):
        """The ANN graph feeds SDCN the same structure as the exact scan.

        On well-separated data the IVF-built KNN graph reproduces the
        exact edge set (recall ~1), so SDCN's structural input — and with
        it ARI/NMI — stays within noise of the exact path.  Asserted here
        at the graph level (identical adjacency implies identical
        training); the scalability bench records the timing side.
        """
        X, _ = clustered(240, dim=16, seed=9)
        exact = sparse_knn_graph(X, 8)
        approx = sparse_knn_graph(X, 8, backend="ivf")
        assert np.array_equal(exact.to_dense(), approx.to_dense())


# ----------------------------------------------------------------------
# DBSCAN integration
class TestDBSCANIndexBackends:
    def test_flat_backend_matches_exact_predict(self):
        X, centers = clustered(240, dim=10, seed=2)
        Q = centers + 0.1
        exact = DBSCAN(min_samples=4).fit(X).predict(Q)
        flat = DBSCAN(min_samples=4, index="flat").fit(X).predict(Q)
        assert np.array_equal(exact, flat)

    @pytest.mark.parametrize("backend", ["ivf"])
    def test_ann_backends_agree_with_exact(self, backend):
        X, centers = clustered(240, dim=10, seed=2)
        rng = np.random.default_rng(4)
        Q = np.repeat(centers, 4, axis=0) + rng.normal(
            size=(centers.shape[0] * 4, 10)) * 0.5
        exact = DBSCAN(min_samples=4).fit(X).predict(Q)
        approx = DBSCAN(min_samples=4, index=backend).fit(X).predict(Q)
        assert np.mean(approx == exact) >= 0.95

    def test_partial_fit_with_index_absorbs_and_promotes(self):
        X, centers = clustered(200, dim=10, seed=6)
        exact = DBSCAN(min_samples=4).fit(X)
        indexed = DBSCAN(min_samples=4, index="flat").fit(X)
        rng = np.random.default_rng(8)
        batch = np.repeat(centers, 3, axis=0) + rng.normal(
            size=(centers.shape[0] * 3, 10)) * 0.3
        exact.partial_fit(batch)
        indexed.partial_fit(batch)
        # Identical absorption: same grown core set, same streamed stats.
        assert exact.components_.shape == indexed.components_.shape
        assert np.array_equal(exact.component_labels_,
                              indexed.component_labels_)
        assert exact.n_streamed_noise_ == indexed.n_streamed_noise_
        # The cached index grew in lockstep with the promotions.
        assert indexed._core_index.size == indexed.components_.shape[0]

    def test_invalid_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            DBSCAN(index="faiss")

    def test_checkpoint_round_trip_keeps_backend(self, tmp_path):
        X, _ = clustered(120, dim=10)
        model = DBSCAN(min_samples=4, index="ivf").fit(X)
        path = tmp_path / "dbscan.npz"
        save_checkpoint(path, model)
        restored = load_checkpoint(path)
        assert restored.index == "ivf"
        assert np.array_equal(restored.predict(X[:20]), model.predict(X[:20]))


# ----------------------------------------------------------------------
# serialization
class TestIndexCheckpoints:
    @pytest.mark.parametrize("make", ALL_BACKENDS, ids=BACKEND_IDS)
    def test_round_trip_is_bit_identical(self, make, tmp_path):
        X, centers = clustered(250, dim=12, seed=1)
        index = make(metric="euclidean").build(
            X, ids=np.arange(1000, 1250))
        path = tmp_path / "index.npz"
        index.save(path, metadata={"task": "schema_inference"})
        restored = VectorIndex.load(path)
        assert type(restored) is type(index)
        p1, d1 = index.query(centers, 7)
        p2, d2 = restored.query(centers, 7)
        assert np.array_equal(p1, p2)
        assert np.array_equal(d1, d2)
        assert np.array_equal(restored.ids, index.ids)
        header = read_checkpoint_header(path)
        assert header["metadata"]["kind"] == "vector-index"
        assert header["metadata"]["n_vectors"] == 250
        assert header["metadata"]["task"] == "schema_inference"

    def test_add_after_reload(self, tmp_path):
        X, _ = clustered(120, dim=12)
        index = IVFIndex(coding="none", nprobe=4).build(X[:100])
        index.save(tmp_path / "ivf.npz")
        restored = VectorIndex.load(tmp_path / "ivf.npz")
        restored.add(X[100:])
        positions, distances = restored.query(X[100:105], 1)
        assert np.array_equal(positions[:, 0], np.arange(100, 105))
        assert (distances[:, 0] < 1e-5).all()

    def test_exact_ivf_attaches_and_pages_only_probed_cells(self, tmp_path):
        X, _ = clustered(300, dim=12)
        create_index("ivf", nlist=12, nprobe=1).build(X).save(
            tmp_path / "ivf.npz")
        restored = VectorIndex.load(tmp_path / "ivf.npz")
        touched = restored._lists.store.touched
        assert restored.attached
        assert not {name for name in touched if "list_" in name}
        loaded = set(touched)
        restored.query(X[:1], 3)
        # A cosine exact scan reads only the vectors of its probed cell.
        assert touched - loaded == {"array.list_vecs"}

    def test_rotate_generations(self, tmp_path):
        X, _ = clustered(80, dim=12)
        path = tmp_path / "idx.npz"
        index = FlatIndex().build(X[:60])
        rotate_checkpoint(path, index, metadata={"kind": "vector-index"})
        index.add(X[60:])
        rotate_checkpoint(path, index, metadata={"kind": "vector-index"})
        header = read_checkpoint_header(path)
        assert header["metadata"]["generation"] == 1
        assert VectorIndex.load(path).size == 80

    def test_non_index_checkpoint_rejected_by_load(self, tmp_path):
        from repro.clustering import KMeans
        X, _ = clustered(40, dim=6)
        path = tmp_path / "model.npz"
        save_checkpoint(path, KMeans(4, seed=0).fit(X))
        with pytest.raises(VectorIndexError):
            VectorIndex.load(path)


# ----------------------------------------------------------------------
# serving integration
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


class TestServingNeighbors:
    @pytest.fixture()
    def corpus(self):
        X, centers = clustered(160, dim=12, seed=4)
        return X, centers

    @pytest.fixture()
    def server(self, tmp_path, corpus):
        from repro.clustering import KMeans
        from repro.serve import create_server

        X, _ = corpus
        save_checkpoint(tmp_path / "model.npz", KMeans(8, seed=0).fit(X),
                        metadata={"n_features": X.shape[1]})
        index = IVFIndex(coding="none", nprobe=4).build(
            X, ids=[f"row-{i}" for i in range(X.shape[0])])
        index.save(tmp_path / "model.index.npz")
        server = create_server(tmp_path, port=0, reload_interval=0.05)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        yield server
        server.shutdown()
        server.server_close()

    def test_neighbors_route(self, server, corpus):
        X, _ = corpus
        port = server.server_address[1]
        status, body = _post(port, "/models/model.index/neighbors",
                             {"vectors": X[:2].tolist(), "k": 4})
        assert status == 200
        assert body["n_items"] == 2 and body["k"] == 4
        assert body["ids"][0][0] == "row-0"
        assert body["distances"][0] == sorted(body["distances"][0])

    def test_search_resolves_single_index(self, server, corpus):
        X, _ = corpus
        port = server.server_address[1]
        status, body = _post(port, "/search",
                             {"vectors": X[5:6].tolist(), "k": 3})
        assert status == 200
        assert body["index"] == "model.index"
        assert body["ids"][0][0] == "row-5"

    def test_predict_on_index_and_neighbors_on_model_rejected(self, server,
                                                              corpus):
        X, _ = corpus
        port = server.server_address[1]
        status, body = _post(port, "/models/model.index/predict",
                             {"vectors": X[:1].tolist()})
        assert status == 400 and body["error"]["code"] == "bad_request"
        assert "vector index" in body["error"]["message"]
        status, body = _post(port, "/models/model/neighbors",
                             {"vectors": X[:1].tolist()})
        assert status == 400 and body["error"]["code"] == "bad_request"
        assert "not a vector index" in body["error"]["message"]

    def test_bad_k_rejected(self, server, corpus):
        X, _ = corpus
        port = server.server_address[1]
        for bad in (0, -3, "five", 10_000, True):
            status, body = _post(port, "/models/model.index/neighbors",
                                 {"vectors": X[:1].tolist(), "k": bad})
            assert status == 400, (bad, body)

    def test_search_without_any_index_is_a_clear_error(self, tmp_path,
                                                       corpus):
        from repro.clustering import KMeans
        from repro.serve import ModelRegistry, PredictService

        X, _ = corpus
        save_checkpoint(tmp_path / "only-model.npz",
                        KMeans(4, seed=0).fit(X))
        with PredictService(ModelRegistry(tmp_path)) as service:
            with pytest.raises(ServingError, match="no vector index"):
                service.search({"vectors": X[:1].tolist()})

    def test_search_with_two_indexes_requires_name(self, tmp_path, corpus):
        from repro.serve import ModelRegistry, PredictService

        X, _ = corpus
        FlatIndex().build(X).save(tmp_path / "a.npz")
        FlatIndex().build(X).save(tmp_path / "b.npz")
        with PredictService(ModelRegistry(tmp_path)) as service:
            with pytest.raises(ServingError, match="multiple vector"):
                service.search({"vectors": X[:1].tolist()})
            result = service.search({"index": "b",
                                     "vectors": X[:1].tolist(), "k": 2})
            assert result["index"] == "b"

    def test_hot_swap_serves_every_request(self, server, corpus):
        """The PR-4 zero-failed-requests guarantee, extended to indexes."""
        X, _ = corpus
        port = server.server_address[1]
        model_dir = server.service.registry.model_dir
        failures, codes = [], []
        stop = threading.Event()

        def client(worker):
            while not stop.is_set():
                status, body = _post(
                    port, "/search", {"vectors": X[worker:worker + 1].tolist(),
                                      "k": 3})
                codes.append(status)
                if status != 200:
                    failures.append(body)

        threads = [threading.Thread(target=client, args=(w,))
                   for w in range(8)]
        for thread in threads:
            thread.start()
        # Two generation swaps while the clients hammer /search.
        grown = IVFIndex(coding="none", nprobe=4).build(
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
        # The new generation actually went live.
        deadline = threading.Event()
        for _ in range(40):
            status, body = _post(port, "/models/model.index/neighbors",
                                 {"vectors": X[:1].tolist(), "k": 1})
            if body.get("ids") and len(
                    server.service.registry.get("model.index").model.ids
                    ) == X.shape[0] + 20:
                break
            deadline.wait(0.1)
        assert server.service.registry.get(
            "model.index").model.size == X.shape[0] + 20
