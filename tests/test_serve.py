"""Online serving subsystem: micro-batcher, registry, HTTP API, embed-items."""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.cache import reset_cache
from repro.clustering import KMeans
from repro.data import generate_camera, generate_webtables
from repro.embeddings import SERVABLE_EMBEDDINGS, embed_item, embed_items
from repro.exceptions import DataValidationError, EmbeddingError, ServingError
from repro.serialize import save_checkpoint
from repro.serve import (
    MicroBatcher,
    ModelRegistry,
    PredictService,
)
from repro.tasks import embed_columns, embed_tables


@pytest.fixture(autouse=True)
def fresh_cache():
    reset_cache()
    yield
    reset_cache()


def _fitted_kmeans(n_clusters=4, dim=8, n=80, seed=0):
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(n_clusters, dim)) * 6.0
    X = np.vstack([c + rng.normal(size=(n // n_clusters, dim))
                   for c in centers])
    return KMeans(n_clusters, seed=0).fit(X), X


# ----------------------------------------------------------------------
class TestMicroBatcher:
    def test_single_submit_matches_direct_predict(self):
        model, X = _fitted_kmeans()
        with MicroBatcher(model.predict, max_delay=0.0) as batcher:
            assert np.array_equal(batcher.submit(X[:5]), model.predict(X[:5]))
            # 1-D rows are promoted to a single-row matrix.
            assert batcher.submit(X[0]).shape == (1,)

    def test_concurrent_submits_are_coalesced(self):
        model, X = _fitted_kmeans()
        n_clients = 16
        barrier = threading.Barrier(n_clients)
        results: dict[int, np.ndarray] = {}

        with MicroBatcher(model.predict, max_delay=0.05) as batcher:
            def client(i):
                barrier.wait()
                results[i] = batcher.submit(X[i:i + 1])

            threads = [threading.Thread(target=client, args=(i,))
                       for i in range(n_clients)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            stats = batcher.stats

        expected = model.predict(X[:n_clients])
        for i in range(n_clients):
            assert results[i][0] == expected[i]
        assert stats.requests == n_clients
        # Coalescing happened: strictly fewer forward passes than requests.
        assert stats.batches < n_clients
        assert stats.max_batch_rows > 1

    def test_max_batch_rows_is_respected(self):
        model, X = _fitted_kmeans()
        with MicroBatcher(model.predict, max_batch_rows=4,
                          max_delay=0.05) as batcher:
            threads = [threading.Thread(target=batcher.submit,
                                        args=(X[i:i + 1],))
                       for i in range(12)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert batcher.stats.max_batch_rows <= 4
            assert batcher.stats.rows == 12

    def test_mismatched_widths_error_without_killing_the_collector(self):
        """A failing vstack must propagate, not kill the worker thread."""
        model, X = _fitted_kmeans(dim=8)
        with MicroBatcher(model.predict, max_delay=0.05) as batcher:
            barrier = threading.Barrier(2)
            outcomes: dict[str, object] = {}

            def submit(key, rows):
                barrier.wait()
                try:
                    outcomes[key] = batcher.submit(rows)
                except Exception as exc:
                    outcomes[key] = exc

            threads = [
                threading.Thread(target=submit, args=("good", X[:1])),
                threading.Thread(target=submit,
                                 args=("bad", np.zeros((1, 3)))),
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
            assert not any(t.is_alive() for t in threads), \
                "submit() hung: the collector thread died"
            # Whatever batched together, both callers got an answer or an
            # exception — and the batcher still works afterwards.
            assert len(outcomes) == 2
            assert np.array_equal(batcher.submit(X[:2]), model.predict(X[:2]))

    def test_failing_request_is_isolated_from_its_batch(self):
        """A batch that fails re-runs each request alone."""
        model, X = _fitted_kmeans(dim=8)
        calls: list[int] = []

        def predict(rows):
            calls.append(rows.shape[0])
            return model.predict(rows)   # raises on non-finite rows

        poisoned = np.full((1, 8), np.nan)
        with MicroBatcher(predict, max_delay=0.2) as batcher:
            barrier = threading.Barrier(2)
            outcomes: dict[str, object] = {}

            def submit(key, rows):
                barrier.wait()
                try:
                    outcomes[key] = batcher.submit(rows)
                except Exception as exc:
                    outcomes[key] = exc

            threads = [threading.Thread(target=submit, args=(key, rows))
                       for key, rows in (("good", X[:2]),
                                         ("bad", poisoned))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
        assert calls[0] == 3, "the two requests were not coalesced"
        assert sorted(calls[1:]) == [1, 2]
        assert np.array_equal(outcomes["good"], model.predict(X[:2]))
        assert isinstance(outcomes["bad"], DataValidationError)

    def test_keyed_requests_share_a_tick_but_not_a_forward(self):
        """One tick, three keys: one call per key, each with its own key."""
        X = np.arange(8.0).reshape(4, 2)
        calls: list[tuple[int, float]] = []

        def predict(rows, scale=1.0):
            calls.append((rows.shape[0], scale))
            if scale < 0:
                raise ValueError("negative scale")
            return rows[:, 0] * scale

        requests = {"a": (X[:1], ()), "b": (X[1:2], (2.0,)),
                    "c": (X[2:4], ()), "d": (X[3:4], (-1.0,))}
        with MicroBatcher(predict, max_delay=0.2) as batcher:
            barrier = threading.Barrier(len(requests))
            outcomes: dict[str, object] = {}

            def submit(name, rows, key):
                barrier.wait()
                try:
                    outcomes[name] = batcher.submit(rows, key)
                except Exception as exc:
                    outcomes[name] = exc

            threads = [threading.Thread(target=submit,
                                        args=(name, rows, key))
                       for name, (rows, key) in requests.items()]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
        assert sorted(calls) == [(1, -1.0), (1, 2.0), (3, 1.0)]
        assert np.array_equal(outcomes["a"], X[:1, 0])
        assert np.array_equal(outcomes["b"], 2.0 * X[1:2, 0])
        assert np.array_equal(outcomes["c"], X[2:4, 0])
        assert isinstance(outcomes["d"], ValueError)

    def test_errors_propagate_to_submitters(self):
        def exploding(batch):
            raise RuntimeError("model exploded")

        with MicroBatcher(exploding, max_delay=0.0) as batcher:
            with pytest.raises(RuntimeError, match="model exploded"):
                batcher.submit(np.zeros((1, 3)))

    def test_wrong_output_length_is_an_error(self):
        with MicroBatcher(lambda X: np.zeros(X.shape[0] + 1),
                          max_delay=0.0) as batcher:
            with pytest.raises(ServingError, match="outputs"):
                batcher.submit(np.zeros((2, 3)))

    def test_submit_after_close_raises(self):
        model, X = _fitted_kmeans()
        batcher = MicroBatcher(model.predict)
        batcher.close()
        with pytest.raises(ServingError, match="closed"):
            batcher.submit(X[:1])


# ----------------------------------------------------------------------
class TestModelRegistry:
    def _model_dir(self, tmp_path, names=("alpha", "beta")):
        for i, name in enumerate(names):
            model, _ = _fitted_kmeans(seed=i)
            save_checkpoint(tmp_path / f"{name}.npz", model,
                            metadata={"task": "schema_inference",
                                      "embedding": "sbert"})
        return tmp_path

    def test_names_and_describe_read_headers_only(self, tmp_path):
        registry = ModelRegistry(self._model_dir(tmp_path))
        assert registry.names() == ["alpha", "beta"]
        rows = registry.describe()
        assert [row["name"] for row in rows] == ["alpha", "beta"]
        assert all(row["class"] == "KMeans" for row in rows)
        assert all(row["embedding"] == "sbert" for row in rows)
        # Nothing deserialised yet.
        assert registry.loaded_names == []

    def test_lazy_load_and_lru_eviction(self, tmp_path):
        registry = ModelRegistry(self._model_dir(tmp_path), max_loaded=1)
        alpha = registry.get("alpha")
        assert registry.loaded_names == ["alpha"]
        assert alpha.metadata["task"] == "schema_inference"
        registry.get("beta")
        # max_loaded=1: alpha was evicted, beta is resident.
        assert registry.loaded_names == ["beta"]
        # Re-loading alpha works (from disk) and evicts beta.
        registry.get("alpha")
        assert registry.loaded_names == ["alpha"]

    def test_get_returns_same_entry_until_evicted(self, tmp_path):
        registry = ModelRegistry(self._model_dir(tmp_path), max_loaded=2)
        assert registry.get("alpha") is registry.get("alpha")

    def test_unknown_model_raises(self, tmp_path):
        registry = ModelRegistry(self._model_dir(tmp_path))
        with pytest.raises(ServingError, match="no model named"):
            registry.get("missing")

    def test_path_traversal_rejected(self, tmp_path):
        registry = ModelRegistry(self._model_dir(tmp_path))
        with pytest.raises(ServingError, match="invalid model name"):
            registry.get("../alpha")

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(ServingError, match="not found"):
            ModelRegistry(tmp_path / "nope")

    def test_invalid_stems_and_corrupt_files_do_not_break_listing(self,
                                                                  tmp_path):
        model_dir = self._model_dir(tmp_path)
        # macOS AppleDouble sidecar and a corrupt checkpoint alongside the
        # real ones.
        (model_dir / "._alpha.npz").write_bytes(b"\x00\x05\x16\x07")
        (model_dir / "broken.npz").write_bytes(b"not an npz")
        registry = ModelRegistry(model_dir)
        assert registry.names() == ["alpha", "beta", "broken"]
        rows = {row["name"]: row for row in registry.describe()}
        assert set(rows) == {"alpha", "beta", "broken"}
        assert "error" in rows["broken"]
        assert rows["alpha"]["class"] == "KMeans"

    def test_eviction_retires_the_batcher(self, tmp_path):
        registry = ModelRegistry(self._model_dir(tmp_path), max_loaded=1)
        with PredictService(registry, max_delay=0.0) as service:
            alpha = registry.get("alpha")
            vec = alpha.model.cluster_centers_[:1].tolist()
            service.predict("alpha", {"vectors": vec})
            assert "alpha" in service.stats()
            # Loading beta evicts alpha; its batcher must go with it.
            service.predict("beta", {"vectors": vec})
            assert set(service.stats()) == {"beta"}
            # Alpha still serves fine: reloaded model, fresh batcher.
            body = service.predict("alpha", {"vectors": vec})
            assert body["n_items"] == 1

    def test_reload_stale_racing_evict_never_serves_half_swapped(
            self, tmp_path):
        """Regression: reload_stale vs concurrent evict on the same name.

        Whatever order the swap and the eviction interleave, a reader must
        only ever see a *complete* LoadedModel (header belonging to its
        model, predict working), and every load that lost the race must be
        retired through on_evict exactly once — the on_evict/batcher
        ordering pinned in the eviction-hook-chaining tests, now under a
        barrier-synchronised race.
        """
        import time

        from repro.serialize import rotate_checkpoint

        model, X = _fitted_kmeans(dim=8)
        path = tmp_path / "m.npz"
        save_checkpoint(path, model, metadata={"n_features": 8})
        evicted: list[object] = []
        registry = ModelRegistry(tmp_path,
                                 on_evict=lambda entry: evicted.append(entry))
        with PredictService(registry, max_delay=0.0) as service:
            reader_failures: list[Exception] = []

            for round_no in range(12):
                service.predict("m", {"vectors": X[:1].tolist()})
                # Checkpoint files need distinct mtimes for the watcher to
                # notice; rotate_checkpoint bumps the file atomically.
                rotate_checkpoint(path, KMeans(4, seed=round_no).fit(X),
                                  metadata={"n_features": 8})
                barrier = threading.Barrier(3)

                def reload_worker():
                    barrier.wait()
                    registry.reload_stale()

                def evict_worker():
                    barrier.wait()
                    registry.evict("m")

                def reader_worker():
                    barrier.wait()
                    try:
                        for _ in range(5):
                            entry = registry.get("m")
                            # A half-swapped entry would break one of these.
                            assert entry.header is \
                                entry.model.checkpoint_header_
                            assert entry.model.predict(X[:1]).shape == (1,)
                            body = service.predict(
                                "m", {"vectors": X[:1].tolist()})
                            assert body["n_items"] == 1
                            time.sleep(0)
                    except Exception as exc:
                        reader_failures.append(exc)

                threads = [threading.Thread(target=worker)
                           for worker in (reload_worker, evict_worker,
                                          reader_worker)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in threads)

            assert reader_failures == []
            # Every retired load was retired exactly once, and the resident
            # entry (if any) was never simultaneously reported evicted.
            assert len({id(entry) for entry in evicted}) == len(evicted)
            with registry._lock:
                resident = registry._loaded.get("m")
            assert all(entry is not resident for entry in evicted)


# ----------------------------------------------------------------------
class TestEmbedItems:
    def test_table_item_matches_batch_pipeline(self):
        dataset = generate_webtables(12, 4, seed=2)
        batch = embed_tables(dataset, "sbert")
        for index in (0, 5, 11):
            table = dataset.tables[index]
            item = {"name": table.name,
                    "columns": {h: list(v) for h, v in table.columns.items()}}
            single = embed_item("schema_inference", "sbert", item)
            assert np.array_equal(single, batch[index])

    def test_column_item_matches_batch_pipeline(self):
        dataset = generate_camera(20, 5, seed=2)
        for method in ("sbert", "sbert_instance"):
            batch = embed_columns(dataset, method)
            column = dataset.columns[3]
            item = {"header": column.header, "values": list(column.values)}
            single = embed_item("domain_discovery", method, item)
            assert np.array_equal(single, batch[3])

    def test_headers_only_shorthand(self):
        vector = embed_item("schema_inference", "sbert",
                            {"headers": ["name", "population"]})
        assert vector.shape == (768,)

    def test_record_flat_mapping(self):
        vector = embed_item("entity_resolution", "sbert",
                            {"artist": "nirvana", "title": "come as you are"})
        assert vector.shape == (768,)

    def test_corpus_dependent_methods_rejected(self):
        with pytest.raises(EmbeddingError, match="whole corpus"):
            embed_item("entity_resolution", "embdi", {"a": 1})
        with pytest.raises(EmbeddingError, match="whole corpus"):
            embed_item("schema_inference", "tabnet", {"headers": ["a"]})

    def test_unknown_task_rejected(self):
        with pytest.raises(EmbeddingError, match="unknown task"):
            embed_item("translation", "sbert", {})

    def test_malformed_items_rejected(self):
        with pytest.raises(EmbeddingError):
            embed_item("schema_inference", "sbert", {"no": "columns"})
        with pytest.raises(EmbeddingError):
            embed_item("domain_discovery", "sbert", {"values": [1]})
        with pytest.raises(EmbeddingError):
            embed_items("schema_inference", "sbert", [])

    def test_servable_map_covers_all_tasks(self):
        assert set(SERVABLE_EMBEDDINGS) == {"schema_inference",
                                            "entity_resolution",
                                            "domain_discovery"}

    def test_item_vectors_are_cached(self):
        from repro.cache import get_cache

        item = {"headers": ["name", "country"]}
        embed_item("schema_inference", "sbert", item)
        computes = get_cache().stats.computes
        embed_item("schema_inference", "sbert", item)
        assert get_cache().stats.computes == computes


# ----------------------------------------------------------------------
# E2e servers come from the shared ``http_server`` conftest fixture:
# ephemeral port (no bind races), daemon serve thread, guaranteed
# shutdown+close at teardown.


def _get(port, path):
    with urllib.request.urlopen(
            f"http://127.0.0.1:{port}{path}", timeout=10) as response:
        return json.loads(response.read())


def _post(port, path, body):
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=10) as response:
        return json.loads(response.read())


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_request_bodies_reject_non_finite_literals(literal):
    from repro.serve.http import parse_json_body

    with pytest.raises(ValueError, match=literal.lstrip("-")):
        parse_json_body(f'{{"vectors": [[1.0, {literal}]]}}'.encode())
    assert parse_json_body(b'{"vectors": [[1.0, 2.5e3]]}') == \
        {"vectors": [[1.0, 2500.0]]}
    assert parse_json_body(b"") == {}


class TestHTTPServer:
    @pytest.fixture()
    def model_dir(self, tmp_path):
        dataset = generate_webtables(24, 6, seed=3)
        X = embed_tables(dataset, "sbert")
        model = KMeans(6, seed=0).fit(X)
        save_checkpoint(tmp_path / "webtables.npz", model,
                        metadata={"task": "schema_inference",
                                  "embedding": "sbert"})
        return tmp_path

    def test_full_round_trip(self, model_dir, http_server):
        dataset = generate_webtables(24, 6, seed=3)
        X = embed_tables(dataset, "sbert")
        server, port = http_server(model_dir)
        health = _get(port, "/healthz")
        assert health["status"] == "ok"
        assert health["models"] == 1

        models = _get(port, "/models")
        assert models[0]["name"] == "webtables"
        assert models[0]["task"] == "schema_inference"

        # Pre-embedded vectors: must match in-process predict exactly.
        response = _post(port, "/models/webtables/predict",
                         {"vectors": X[:5].tolist()})
        expected = server.service.registry.get("webtables") \
            .model.predict(X[:5])
        assert response["labels"] == [int(v) for v in expected]

        # Raw items: embedded server-side via the task pipeline.
        table = dataset.tables[0]
        item = {"name": table.name,
                "columns": {h: list(v) for h, v in table.columns.items()}}
        response = _post(port, "/models/webtables/predict",
                         {"items": [item]})
        assert response["labels"] == [int(expected[0])]

        stats = _get(port, "/stats")
        assert stats["batchers"]["webtables"]["requests"] >= 2

    def test_concurrent_clients_get_correct_answers(self, model_dir,
                                                    http_server):
        dataset = generate_webtables(24, 6, seed=3)
        X = embed_tables(dataset, "sbert")
        server, port = http_server(model_dir, max_delay=0.02)
        expected = server.service.registry.get("webtables").model.predict(X)
        results: dict[int, list] = {}

        def client(i):
            body = _post(port, "/models/webtables/predict",
                         {"vectors": [X[i].tolist()]})
            results[i] = body["labels"]

        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(10)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for i in range(10):
            assert results[i] == [int(expected[i])]

    def test_error_statuses(self, model_dir, http_server):
        _server, port = http_server(model_dir)
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(port, "/nope")
        assert err.value.code == 404

        with pytest.raises(urllib.error.HTTPError) as err:
            _post(port, "/models/missing/predict", {"vectors": [[0.0]]})
        assert err.value.code == 404

        with pytest.raises(urllib.error.HTTPError) as err:
            _post(port, "/models/webtables/predict", {"wrong": True})
        assert err.value.code == 400
        assert "error" in json.loads(err.value.read())

        request = urllib.request.Request(
            f"http://127.0.0.1:{port}/models/webtables/predict",
            data=b"{not json", headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=10)
        assert err.value.code == 400

    def test_nan_request_does_not_poison_a_concurrent_one(self, model_dir,
                                                         http_server):
        dataset = generate_webtables(24, 6, seed=3)
        X = embed_tables(dataset, "sbert")
        # A long linger puts both requests in one micro-batch tick.
        server, port = http_server(model_dir, max_delay=0.2)
        expected = server.service.registry.get("webtables") \
            .model.predict(X[:1])
        poisoned = X[:1].copy()
        poisoned[0, 0] = float("nan")   # json.dumps writes the NaN literal
        barrier = threading.Barrier(2)
        outcomes: dict[str, object] = {}

        def client(key, rows):
            barrier.wait()
            try:
                outcomes[key] = _post(port, "/v1/models/webtables/predict",
                                      {"vectors": rows.tolist()})
            except urllib.error.HTTPError as exc:
                outcomes[key] = (exc.code, json.loads(exc.read()))

        threads = [threading.Thread(target=client, args=(key, rows))
                   for key, rows in (("good", X[:1]), ("bad", poisoned))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert outcomes["good"]["labels"] == [int(expected[0])]
        status, body = outcomes["bad"]
        assert status == 400
        assert body["error"]["code"] == "bad_request"
        assert "NaN" in body["error"]["message"]

    def test_oversized_body_rejected_with_413(self, model_dir, http_server,
                                              monkeypatch):
        import http.client

        from repro.serve import http as serve_http

        monkeypatch.setattr(serve_http, "_MAX_BODY_BYTES", 1024)
        _server, port = http_server(model_dir)
        connection = http.client.HTTPConnection("127.0.0.1", port,
                                                timeout=10)
        connection.request(
            "POST", "/models/webtables/predict", body=b"x" * 4096,
            headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        assert response.status == 413
        assert b"limit" in response.read()
        connection.close()

    def test_negative_content_length_rejected(self, model_dir, http_server):
        import socket

        _server, port = http_server(model_dir)
        with socket.create_connection(("127.0.0.1", port),
                                      timeout=10) as sock:
            sock.sendall(b"POST /models/webtables/predict HTTP/1.1\r\n"
                         b"Host: localhost\r\n"
                         b"Content-Length: -1\r\n\r\n")
            sock.settimeout(10)
            response = sock.recv(4096)
        assert b"400" in response.split(b"\r\n", 1)[0]

    def test_keep_alive_survives_a_404_post(self, model_dir, http_server):
        """The 404 branch must drain the body or break keep-alive clients."""
        import http.client

        _server, port = http_server(model_dir)
        connection = http.client.HTTPConnection("127.0.0.1", port,
                                                timeout=10)
        body = json.dumps({"items": [{"headers": ["a", "b"]}]})
        connection.request("POST", "/no/such/route", body=body,
                           headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        assert response.status == 404
        response.read()
        # Same connection: the next request must parse cleanly.
        connection.request("GET", "/healthz")
        response = connection.getresponse()
        assert response.status == 200
        assert json.loads(response.read())["status"] == "ok"
        connection.close()


class TestPredictService:
    def test_vectors_must_be_numeric_and_2d(self, tmp_path):
        model, _ = _fitted_kmeans()
        save_checkpoint(tmp_path / "m.npz", model,
                        metadata={"task": "schema_inference",
                                  "embedding": "sbert"})
        with PredictService(ModelRegistry(tmp_path)) as service:
            with pytest.raises(ServingError, match="numeric"):
                service.predict("m", {"vectors": [["a", "b"]]})
            with pytest.raises(ServingError, match="non-empty"):
                service.predict("m", {"vectors": []})
            with pytest.raises(ServingError, match="'vectors' or 'items'"):
                service.predict("m", {})

    def test_wrong_vector_width_rejected_before_batching(self, tmp_path):
        model, X = _fitted_kmeans(dim=8)
        save_checkpoint(tmp_path / "m.npz", model,
                        metadata={"task": "schema_inference",
                                  "embedding": "sbert",
                                  "n_features": 8})
        with PredictService(ModelRegistry(tmp_path)) as service:
            with pytest.raises(ServingError, match="expects 8"):
                service.predict("m", {"vectors": [[0.0] * 10]})
            # Correct width still flows through the batcher.
            assert service.predict(
                "m", {"vectors": X[:1].tolist()})["n_items"] == 1

    def test_non_finite_vectors_rejected_before_batching(self, tmp_path):
        model, X = _fitted_kmeans(dim=8)
        save_checkpoint(tmp_path / "m.npz", model)
        with PredictService(ModelRegistry(tmp_path)) as service:
            for bad in (np.nan, np.inf, -np.inf):
                rows = X[:2].copy()
                rows[1, 3] = bad
                with pytest.raises(ServingError, match="finite"):
                    service.predict("m", {"vectors": rows.tolist()})
            assert service.stats().get("m", {}).get("requests", 0) == 0

    def test_eviction_hook_chaining(self, tmp_path):
        model, _ = _fitted_kmeans()
        save_checkpoint(tmp_path / "a.npz", model)
        save_checkpoint(tmp_path / "b.npz", model)
        seen: list[str] = []
        registry = ModelRegistry(tmp_path, max_loaded=1,
                                 on_evict=lambda entry: seen.append(entry.name))
        with PredictService(registry):
            registry.get("a")
            registry.get("b")  # evicts a
        # The user hook still fired even though the service installed its own.
        assert seen == ["a"]

    def test_items_need_task_metadata(self, tmp_path):
        model, _ = _fitted_kmeans()
        save_checkpoint(tmp_path / "bare.npz", model)  # no metadata
        with PredictService(ModelRegistry(tmp_path)) as service:
            with pytest.raises(ServingError, match="metadata"):
                service.predict("bare", {"items": [{"headers": ["a"]}]})


# ----------------------------------------------------------------------
class TestHotReloadOverHTTP:
    """The satellite guarantee: zero failed predicts across a hot swap."""

    def test_100_concurrent_requests_across_checkpoint_swap(self, tmp_path,
                                                            http_server):
        import time

        from repro.serialize import rotate_checkpoint

        model, X = _fitted_kmeans(n_clusters=4, dim=8, n=80, seed=0)
        path = tmp_path / "live.npz"
        save_checkpoint(path, model, metadata={"n_features": 8})
        server, port = http_server(tmp_path, reload_interval=0.01)
        n_requests = 100
        barrier = threading.Barrier(n_requests + 1)
        failures: list[object] = []
        statuses: list[int] = []

        def client(index: int) -> None:
            barrier.wait()
            # Spread arrivals across the swap window.
            time.sleep((index % 10) * 0.01)
            try:
                body = _post(port, "/models/live/predict",
                             {"vectors": X[index % X.shape[0]][None, :]
                              .tolist()})
                statuses.append(200)
                assert body["n_items"] == 1
            except Exception as exc:  # any non-200 counts as a failure
                failures.append(exc)

        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(n_requests)]
        for thread in threads:
            thread.start()
        barrier.wait()
        # Rotate a new generation right into the middle of the traffic.
        time.sleep(0.03)
        rotate_checkpoint(path, KMeans(4, seed=9).fit(X),
                          metadata={"n_features": 8})
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)

        assert failures == []
        assert len(statuses) == n_requests
        # The swap really happened while requests were in flight.
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if server.service.registry.get("live").generation == 1:
                break
            time.sleep(0.02)
        assert server.service.registry.get("live").generation == 1
        # And the new generation serves subsequent traffic.
        body = _post(port, "/models/live/predict",
                     {"vectors": X[:2].tolist()})
        assert body["n_items"] == 2

    def test_server_close_stops_the_watcher(self, tmp_path, http_server):
        model, _ = _fitted_kmeans()
        save_checkpoint(tmp_path / "m.npz", model)
        server, _port = http_server(tmp_path, reload_interval=0.01)
        registry = server.service.registry
        server.shutdown()
        server.server_close()
        assert registry._watcher is None


class TestServedPredictionCache:
    """Raw-item predictions memoise per checkpoint generation."""

    def _model_dir(self, tmp_path, seed=0):
        dataset = generate_webtables(24, 6, seed=3)
        X = embed_tables(dataset, "sbert")
        model = KMeans(6, seed=seed).fit(X)
        save_checkpoint(tmp_path / "web.npz", model,
                        metadata={"task": "schema_inference",
                                  "embedding": "sbert"})
        return X

    def test_hot_item_skips_the_forward_pass(self, tmp_path):
        self._model_dir(tmp_path)
        registry = ModelRegistry(tmp_path)
        with PredictService(registry, max_delay=0.0) as service:
            payload = {"items": [{"headers": ["name", "country"]}]}
            first = service.predict("web", payload)
            rows_after_first = service.stats()["web"]["rows"]
            second = service.predict("web", payload)
            assert second == first
            # No additional rows reached the batcher: the labels came from
            # the model/<name>/ cache namespace.
            assert service.stats()["web"]["rows"] == rows_after_first

    def test_swap_recomputes_hot_items_on_the_new_generation(self, tmp_path):
        import time

        from repro.serialize import rotate_checkpoint

        X = self._model_dir(tmp_path)
        registry = ModelRegistry(tmp_path)
        with PredictService(registry, max_delay=0.0) as service:
            payload = {"items": [{"headers": ["name", "country"]}]}
            service.predict("web", payload)
            time.sleep(0.01)
            rotate_checkpoint(tmp_path / "web.npz", KMeans(6, seed=1).fit(X),
                              metadata={"task": "schema_inference",
                                        "embedding": "sbert"})
            assert registry.reload_stale() == ["web"]
            # Old batcher retired with its entry; the re-predict must run a
            # fresh forward on the new generation, not reuse cached labels.
            assert service.stats() == {}
            body = service.predict("web", payload)
            assert body["n_items"] == 1
            assert service.stats()["web"]["rows"] == 1

    def test_vectors_payloads_are_never_memoised(self, tmp_path):
        X = self._model_dir(tmp_path)
        registry = ModelRegistry(tmp_path)
        with PredictService(registry, max_delay=0.0) as service:
            payload = {"vectors": X[:2].tolist()}
            service.predict("web", payload)
            service.predict("web", payload)
            assert service.stats()["web"]["rows"] == 4
