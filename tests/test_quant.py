"""Tests for the quantized, disk-backed index tier.

Covers the quantizers (:mod:`repro.index.quant`), the IVF-PQ backend,
the mmap-backed checkpoint store (:mod:`repro.index.storage`) and the
per-request tunables surfaced through the serving layer.
"""

import json
import sys
import threading
import urllib.error
import urllib.request
from functools import partial

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
    IVFIndex,
    IVFPQIndex,
    MappedArrays,
    ProductQuantizer,
    ScalarQuantizer,
    VectorIndex,
)
from repro.index.quant import _ENCODE_BLOCK
from repro.serialize import read_checkpoint_header, rotate_checkpoint
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
    def test_m_must_divide_dimensionality(self):
        with pytest.raises(ConfigurationError):
            ProductQuantizer(5).train(np.random.default_rng(0)
                                      .normal(size=(50, 16)))
        with pytest.raises(ConfigurationError):
            ProductQuantizer(0)

    def test_training_is_deterministic_given_seed(self):
        X, _ = clustered(1000, dim=16, seed=4)
        a = ProductQuantizer(4, seed=9).train(X)
        b = ProductQuantizer(4, seed=9).train(X)
        assert a.codebooks_.dtype == np.float32
        assert a.codebooks_.shape == (4, 256, 4)
        assert a.codebooks_.tobytes() == b.codebooks_.tobytes()
        assert np.array_equal(a.encode(X), b.encode(X))

    def test_encode_is_row_independent_and_nearest(self):
        """Rows encode alone, each to its float64 nearest codeword.

        The input spans two row blocks plus a remainder, and the slices
        cut across block boundaries, so build, add and upgrade (which
        encode different row ranges) agree.  Near-ties, where float32
        rounding may pick either codeword, are left out of the
        brute-force check.
        """
        n = 2 * _ENCODE_BLOCK + 123
        X, _ = clustered(n, dim=16, seed=11)
        quantizer = ProductQuantizer(4, seed=2).train(X[:3000])
        codes = quantizer.encode(X)
        cuts = [0, 1, _ENCODE_BLOCK - 7, _ENCODE_BLOCK + 500, n - 2, n]
        assert codes.tobytes() == np.concatenate(
            [quantizer.encode(X[a:b]) for a, b in zip(cuts, cuts[1:])]
        ).tobytes()
        parts = X.astype(np.float32).astype(np.float64).reshape(n, 4, 1, 4)
        d2 = np.sum((parts - quantizer.codebooks_.astype(np.float64)) ** 2,
                    axis=3)
        best, second = np.sort(d2, axis=2)[:, :, :2].transpose(2, 0, 1)
        clear = second - best > 1e-4 * second
        assert clear.mean() > 0.99
        assert np.array_equal(codes[clear], np.argmin(d2, axis=2)[clear])

    def test_state_arrays_round_trip(self):
        X, _ = clustered(200, dim=8)
        quantizer = ProductQuantizer(4, seed=1).train(X)
        restored = ProductQuantizer.from_state_arrays(
            quantizer.state_arrays(), m=4)
        probe = X[:20].astype(np.float32)
        assert np.array_equal(quantizer.encode(probe), restored.encode(probe))
        assert np.array_equal(quantizer.decode(quantizer.encode(probe)),
                              restored.decode(restored.encode(probe)))

    def test_few_distinct_rows_round_trip_exactly(self):
        """Empty codes restart without ever losing a distinct row."""
        distinct = np.array([[0.0, 0.0, 0.0, 0.0],
                             [10.0, -3.0, 2.5, 7.0],
                             [-6.0, 4.0, -1.5, 0.25]], dtype=np.float32)
        X = distinct[np.random.default_rng(5).integers(0, 3, size=600)]
        quantizer = ProductQuantizer(2, seed=0).train(X)
        assert np.array_equal(quantizer.decode(quantizer.encode(distinct)),
                              distinct)

    def test_fewer_rows_than_codes_train_one_code_per_row(self):
        X, _ = clustered(100, dim=8, seed=6)
        quantizer = ProductQuantizer(2, seed=0).train(X)
        assert quantizer.codebooks_.shape == (2, 100, 4)

    def test_quantization_error_matches_kmeans_codebooks(self):
        """Within 2% of codebooks from the paper path's KMeans."""
        from repro.clustering import KMeans

        X, _ = clustered(4000, dim=16, seed=7)
        index = IVFIndex(nlist=16, m=4, metric="euclidean").build(X)
        residuals = (X - index.centroids_[index.assignments_]
                     ).astype(np.float32)
        quantizer = ProductQuantizer(4, seed=3).train(residuals)
        parts = residuals.reshape(len(residuals), 4, 4)
        yardstick = np.stack([
            KMeans(256, n_init=1, max_iter=12, seed=3 + j, init="random")
            .fit(parts[:, j, :]).cluster_centers_ for j in range(4)])
        reference = ProductQuantizer.from_state_arrays(
            {"pq_codebooks": yardstick}, m=4)

        def mse(pq):
            return float(np.mean(
                (pq.decode(pq.encode(residuals)) - residuals) ** 2))

        assert mse(quantizer) == pytest.approx(mse(reference), rel=0.02)


# ----------------------------------------------------------------------
# coded scoring: precomputed terms, one pass per query
class TestCodedScoring:
    @pytest.mark.parametrize("coding", ["pq", "sq"])
    def test_split_equals_distance_to_reconstruction(self, coding):
        """||q-c||^2 + (||r||^2 + 2<c,r>) - 2<q,r> is ||q - (c + r)||^2.

        The stored terms, computed over the whole list in row blocks, are
        byte-identical to each cell's own ``residual_terms``.
        """
        X, _ = clustered(2500, dim=16, seed=2)
        index = IVFIndex(metric="euclidean", nlist=4, m=4,
                         coding=coding).build(X)
        quantizer = index.quantizer_
        Q = (X[:7] + 0.5).astype(np.float32)
        terms, codes = index._lists["list_terms"], index._lists["list_codes"]
        for cell, span in enumerate(index._spans(range(4))):
            c = index.centroids_[cell]
            r = quantizer.decode(codes[span])
            assert terms[span].tobytes() == quantizer.residual_terms(
                c, codes[span]).tobytes()
            assert np.allclose(quantizer.inner_products(Q[0], codes[span]),
                               r @ Q[0], atol=1e-3)
            direct = squared_euclidean_distances(Q, c + r)
            for row, q in enumerate(Q):
                split = (np.sum((q - c) ** 2) + terms[span]
                         - 2.0 * quantizer.inner_products(q, codes[span]))
                assert np.allclose(split, direct[row], atol=1e-3)
                assert np.allclose(index._coded_scores(q, [cell], [span]),
                                   direct[row], atol=1e-3)

    @pytest.mark.parametrize("coding", ["pq", "sq"])
    def test_euclidean_rerank_zero_self_query_is_finite(self, coding):
        """The split can cancel below zero; no NaN may reach the caller.

        Fewer rows than codes per sub-space make every PQ code exact, so
        each row's own approximate distance is zero up to rounding; ``k``
        is the whole corpus so every score is returned.
        """
        rng = np.random.default_rng(3)
        X = rng.normal(size=(200, 8)) + 50.0
        index = IVFIndex(metric="euclidean", nlist=2, nprobe=2, m=4,
                         coding=coding).build(X)
        _, distances = index.query(X, X.shape[0], rerank=0)
        assert np.isfinite(distances).all() and (distances >= 0).all()


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
        touched = restored._lists.store.touched
        # Attachment derives the cell layout from the resident
        # assignments; no list member is read.
        assert not {name for name in touched if "list_" in name}
        loaded = set(touched)
        restored.query(X[:1], 3, nprobe=1)
        # A query reads only the lists, and only its probed cells' rows
        # of them are paged in.
        assert touched - loaded == {
            "array.list_codes", "array.list_terms", "array.list_vecs"}

    def test_attached_index_is_read_only(self, built, tmp_path):
        """The mapped file is never written: ``add`` merges new lists.

        The grown index is no longer purely attached, while a second
        attachment of the same file keeps answering from the unchanged
        generation.
        """
        X, index = built
        path = tmp_path / "ivfpq.index.npz"
        index.save(path)
        before = path.read_bytes()
        restored = VectorIndex.load(path)
        other = VectorIndex.load(path)
        assert not restored._lists["list_vecs"].flags.writeable
        restored.add(X[:5] + 0.01)
        assert not restored.attached and restored.size == X.shape[0] + 5
        assert path.read_bytes() == before
        grown = IVFPQIndex(nlist=16, nprobe=4, m=4).build(X)
        grown.add(X[:5] + 0.01)
        for got, want in zip(restored.query(X[:20], 7),
                             grown.query(X[:20], 7)):
            assert np.array_equal(got, want)
        for got, want in zip(other.query(X[:20], 7), index.query(X[:20], 7)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("metric", ["cosine", "euclidean"])
    @pytest.mark.parametrize("coding", ["none", "sq", "pq"])
    def test_add_on_loaded_index_merges_lists(self, coding, metric,
                                              tmp_path):
        """``add`` leaves the file as it was and equals build-then-add."""
        X, _ = clustered(400, dim=16, seed=1)
        fresh = X[:5] + 0.01
        make = partial(IVFIndex, metric=metric, nlist=16, nprobe=4, m=4,
                       coding=coding)
        path = tmp_path / "ivf.index.npz"
        make().build(X).save(path)
        before = path.read_bytes()
        restored = VectorIndex.load(path)
        names = restored._list_names()
        views = {name: restored._lists[name] for name in names}
        restored.add(fresh)
        assert path.read_bytes() == before and not restored.attached
        for name in names:
            merged = restored._lists[name]
            assert merged.flags.writeable
            assert not np.shares_memory(merged, views[name])
        grown = make().build(X).add(fresh)
        for Q in (X[:40], X[7:8], fresh):
            for got, want in zip(restored.query(Q, 7), grown.query(Q, 7)):
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("metric", ["cosine", "euclidean"])
    @pytest.mark.parametrize("coding", ["none", "sq", "pq"])
    def test_grown_index_answers_as_its_saved_copy(self, coding, metric,
                                                   tmp_path):
        """Merged lists hold each row where the layout says; a load agrees."""
        X, _ = clustered(400, dim=16, seed=4)
        rng = np.random.default_rng(9)
        batches = [X[:1] + 0.01, X[::7] + rng.normal(size=(58, 16))]
        index = IVFIndex(metric=metric, nlist=16, nprobe=4, m=4, rerank=24,
                         coding=coding).build(X)
        for batch in batches:
            index.add(batch)
        lists, quantizer = index._lists, index.quantizer_
        vecs = lists["list_vecs"]
        assert np.array_equal(vecs[index._row_of], index._as_search(
            np.vstack([X, *batches]).astype(np.float32)))
        for cell, span in enumerate(index._spans(range(16))):
            if quantizer is None:
                terms = np.sum(vecs[span] ** 2, axis=1)
            else:
                c = index.centroids_[cell]
                codes = lists["list_codes"][span]
                assert codes.tobytes() == quantizer.encode(
                    vecs[span] - c).tobytes()
                terms = quantizer.residual_terms(c, codes)
            assert lists["list_terms"][span].tobytes() == terms.tobytes()
        index.save(tmp_path / "grown.npz")
        copy = VectorIndex.load(tmp_path / "grown.npz")
        assert copy.attached
        tunables = [{}, {"nprobe": 1}]
        if coding != "none":
            tunables.append({"rerank": 0})
        # Single rows take the per-row scan; a batch of at least nlist
        # rows takes the cell-major one when uncoded.
        queries = [X[i:i + 1] + 0.3 for i in (0, 99, 399)] + [X[::20]]
        for Q in queries:
            for params in tunables:
                for got, want in zip(copy.query(Q, 6, **params),
                                     index.query(Q, 6, **params)):
                    assert np.array_equal(got, want)

    @pytest.mark.parametrize("coding", ["none", "sq", "pq"])
    def test_checkpoint_holds_resident_state_and_lists(self, coding,
                                                       tmp_path):
        X, _ = clustered(300, dim=16, seed=2)
        path = tmp_path / "ivf.index.npz"
        IVFIndex(nlist=16, m=4, coding=coding).build(X).save(path)
        lists = {"list_vecs", "list_terms"} | (
            set() if coding == "none" else {"list_codes"})
        quantizer = {"none": set(), "sq": {"sq_min", "sq_scale"},
                     "pq": {"pq_codebooks"}}[coding]
        with np.load(path) as payload:
            members = set(payload.files) - {"__header__"}
        assert members == {f"array.{name}" for name in
                           {"ids", "centroids", "assignments",
                            *quantizer, *lists}}

    def test_attached_memory_excludes_cell_payload(self, built, tmp_path):
        X, index = built
        path = tmp_path / "ivfpq.index.npz"
        index.save(path)
        restored = VectorIndex.load(path)
        # The built index holds its corpus once, as lists; the loaded one
        # holds the same bookkeeping and leaves exactly the list payload
        # on disk.  (The bench gates the real 8x-vs-float64 claim at 1M
        # vectors, where the per-vector bookkeeping stops dominating.)
        payload = sum(index._lists[name].nbytes for name in
                      ("list_vecs", "list_codes", "list_terms"))
        assert restored.memory_bytes() == index.memory_bytes() - payload

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
        FlatIndex().build(X).save(tmp_path / "exact.npz")
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
            service.neighbors("exact",
                              {"vectors": X[:1].tolist(), "nprobe": 4})

    def test_bad_tunable_values_rejected(self, service):
        service, X = service
        for bad in (0, -2, "eight", True, 10_000_000):
            with pytest.raises(ServingError, match="nprobe"):
                service.neighbors("quantized",
                                  {"vectors": X[:1].tolist(), "nprobe": bad})

    def test_neighbor_batchers_are_bounded_per_index(self, service):
        """Many distinct tunables share the index's one batcher."""
        service, X = service
        index = service.registry.get("quantized").model
        threads = threading.active_count()
        for rerank in range(20):
            result = service.neighbors("quantized", {
                "vectors": X[:3].tolist(), "k": 4, "rerank": rerank})
            positions, distances = index.query(X[:3], 4, rerank=rerank)
            assert result["positions"] == positions.tolist()
            assert result["distances"] == distances.tolist()
        assert len(service._batchers) == 1
        assert threading.active_count() - threads <= 1

    def test_one_neighbor_batcher_under_concurrency(self, service):
        """Concurrent clients mixing tunables each get their own answer."""
        service, X = service
        index = service.registry.get("quantized").model
        threads = threading.active_count()
        answers, errors = [], []

        def client(worker):
            try:
                for step in range(20):
                    rerank = (5 * worker + step) % 20
                    answers.append((worker, rerank, service.neighbors(
                        "quantized", {"vectors": X[worker:worker + 1].tolist(),
                                      "k": 3, "rerank": rerank})))
            except Exception as exc:  # reported by the assert below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            clients = [threading.Thread(target=client, args=(w,))
                       for w in range(4)]
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in clients)
        assert errors == []
        assert len(answers) == 80
        for worker, rerank, result in answers:
            positions, distances = index.query(X[worker:worker + 1], 3,
                                               rerank=rerank)
            assert result["positions"] == positions.tolist()
            assert result["distances"] == distances.tolist()
        assert len(service._batchers) == 1
        assert threading.active_count() - threads <= 1


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
