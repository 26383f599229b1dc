"""Streaming subsystem: partial_fit parity, drift, updates, rotation, reload."""

from __future__ import annotations

import os
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cache import get_cache, reset_cache
from repro.clustering import DBSCAN, Birch, KMeans
from repro.config import DeepClusteringConfig
from repro.data import generate_camera, generate_musicbrainz, generate_webtables
from repro.dc import SHGP, AutoencoderClustering
from repro.exceptions import ConfigurationError, StreamingError
from repro.experiments.streaming import run_stream_scenario
from repro.metrics import adjusted_rand_index
from repro.serialize import (
    checkpoint_generations,
    load_checkpoint,
    rotate_checkpoint,
    save_checkpoint,
)
from repro.serve import ModelRegistry, PredictService
from repro.stream import (
    DRIFT_KINDS,
    DriftMonitor,
    StreamSource,
    incremental_update,
    supports_incremental_update,
)


@pytest.fixture(autouse=True)
def fresh_cache():
    reset_cache()
    yield
    reset_cache()


def _stream_blobs(n_initial, n_batches, batch_size, *, k=4, dim=8, seed=0,
                  spread=8.0):
    """Initial matrix plus arrival batches drawn from one fixed mixture."""
    centers = np.random.default_rng(42).normal(size=(k, dim)) * spread
    rng = np.random.default_rng(seed)

    def draw(n):
        assignments = rng.integers(k, size=n)
        return centers[assignments] + rng.normal(size=(n, dim)) * 0.4

    return draw(n_initial), [draw(batch_size) for _ in range(n_batches)]


# ----------------------------------------------------------------------
class TestPartialFitParity:
    def test_kmeans_stream_matches_batch_fit(self):
        initial, batches = _stream_blobs(120, 3, 30)
        everything = np.vstack([initial] + batches)

        incremental = KMeans(4, seed=0).fit(initial)
        for batch in batches:
            incremental.partial_fit(batch)
        batch_fit = KMeans(4, seed=0).fit(everything)

        ari = adjusted_rand_index(incremental.predict(everything),
                                  batch_fit.predict(everything))
        assert ari == pytest.approx(1.0)
        # Same partition => the streamed centres equal the batch means.
        ordering = lambda centers: np.argsort(centers[:, 0])  # noqa: E731
        a = incremental.cluster_centers_[ordering(incremental.cluster_centers_)]
        b = batch_fit.cluster_centers_[ordering(batch_fit.cluster_centers_)]
        np.testing.assert_allclose(a, b, atol=1e-8)

    def test_kmeans_counts_track_every_point_seen(self):
        initial, batches = _stream_blobs(80, 2, 25)
        model = KMeans(4, seed=0).fit(initial)
        for batch in batches:
            model.partial_fit(batch)
        assert model.n_seen_ == 80 + 2 * 25
        assert model.counts_.sum() == pytest.approx(model.n_seen_)

    def test_kmeans_partial_fit_on_unfitted_delegates_to_fit(self):
        initial, _ = _stream_blobs(40, 0, 0)
        model = KMeans(4, seed=0).partial_fit(initial)
        assert model.cluster_centers_.shape == (4, initial.shape[1])

    def test_kmeans_partial_fit_rejects_wrong_width(self):
        initial, _ = _stream_blobs(40, 0, 0)
        model = KMeans(4, seed=0).fit(initial)
        with pytest.raises(ConfigurationError):
            model.partial_fit(np.zeros((3, initial.shape[1] + 1)))

    def test_birch_stream_matches_batch_fit(self):
        initial, batches = _stream_blobs(120, 3, 30, seed=1)
        everything = np.vstack([initial] + batches)

        incremental = Birch(4, seed=0).fit(initial)
        for batch in batches:
            incremental.partial_fit(batch)
        batch_fit = Birch(4, seed=0).fit(everything)

        ari = adjusted_rand_index(incremental.predict(everything),
                                  batch_fit.predict(everything))
        assert ari > 0.95

    def test_birch_partial_fit_reuses_existing_tree(self):
        initial, batches = _stream_blobs(60, 1, 20, seed=2)
        model = Birch(4, seed=0).fit(initial)
        root_before = model._root
        model.partial_fit(batches[0])
        assert model._root is root_before or model._root is not None
        assert model.n_seen_ == 80
        assert model.subcluster_weights_.sum() == pytest.approx(80)

    def test_birch_partial_fit_after_checkpoint_rebuilds_tree(self, tmp_path):
        initial, batches = _stream_blobs(80, 2, 20, seed=3)
        model = Birch(4, seed=0).fit(initial)
        save_checkpoint(tmp_path / "b.npz", model)
        restored = load_checkpoint(tmp_path / "b.npz")
        assert restored._root is None
        for batch in batches:
            restored.partial_fit(batch)
        everything = np.vstack([initial] + batches)
        ari = adjusted_rand_index(restored.predict(everything),
                                  Birch(4, seed=0).fit(everything)
                                  .predict(everything))
        assert ari > 0.9

    def test_dbscan_absorbs_points_near_existing_cores(self):
        initial, batches = _stream_blobs(150, 1, 40, seed=4, spread=20.0)
        model = DBSCAN(min_samples=4).fit(initial)
        before_cores = model.components_.shape[0]
        model.partial_fit(batches[0])
        # In-distribution arrivals are absorbed, some promoted to cores.
        assert model.components_.shape[0] >= before_cores
        assert model.n_streamed_ == 40
        assert not model.refit_recommended_
        labels = model.predict(batches[0])
        assert np.sum(labels >= 0) > 30

    def test_dbscan_flags_refit_for_unreachable_dense_region(self):
        initial, _ = _stream_blobs(150, 0, 0, seed=5, spread=20.0)
        model = DBSCAN(min_samples=4).fit(initial)
        far = np.random.default_rng(0).normal(
            size=(30, initial.shape[1])) * 0.2 + 500.0
        model.partial_fit(far)
        assert model.n_unabsorbed_cores_ > 0
        assert model.refit_recommended_
        # The flag survives a checkpoint round-trip.
        import tempfile
        from pathlib import Path
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "db.npz"
            save_checkpoint(path, model)
            assert load_checkpoint(path).refit_recommended_

    @settings(max_examples=20, deadline=None)
    @given(splits=st.lists(st.integers(min_value=5, max_value=40),
                           min_size=1, max_size=4),
           seed=st.integers(min_value=0, max_value=2 ** 16))
    def test_kmeans_partial_fit_invariants_hold_for_any_split(self, splits,
                                                              seed):
        """Whatever the batch sizes: finite centres, conserved counts,
        labels in range."""
        initial, _ = _stream_blobs(60, 0, 0, seed=seed)
        model = KMeans(4, seed=0).fit(initial)
        total = 0
        for size in splits:
            batch, _ = _stream_blobs(size, 0, 0, seed=seed + size)
            model.partial_fit(batch)
            total += size
        assert np.all(np.isfinite(model.cluster_centers_))
        assert model.n_seen_ == 60 + total
        assert model.counts_.sum() == pytest.approx(model.n_seen_)
        labels = model.predict(initial)
        assert labels.min() >= 0 and labels.max() < 4

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2 ** 16))
    def test_birch_partial_fit_weights_conserved(self, seed):
        initial, batches = _stream_blobs(50, 2, 15, seed=seed)
        model = Birch(seed=0).fit(initial)
        for batch in batches:
            model.partial_fit(batch)
        assert model.subcluster_weights_.sum() == pytest.approx(80)
        assert model.subcluster_centers_.shape[0] == \
            model.subcluster_labels_.shape[0]


# ----------------------------------------------------------------------
class TestStreamSource:
    def test_batches_partition_the_non_initial_items(self):
        dataset = generate_webtables(40, 8, seed=7)
        source = StreamSource(dataset, n_batches=4, seed=7)
        initial = source.initial()
        batches = list(source.batches())
        assert len(batches) == 4
        total = initial.n_items + sum(batch.n_items for batch in batches)
        assert total == dataset.n_items
        # Labels stay aligned with their items.
        for batch in batches:
            assert batch.labels.shape[0] == batch.n_items

    def test_drift_mutates_later_batches_only(self):
        dataset = generate_musicbrainz(120, 40, seed=7)
        plain = {record.identifier: record.text()
                 for record in dataset.records}
        source = StreamSource(dataset, n_batches=3, drift="typo",
                              drift_rate=1.0, seed=7)
        batches = list(source.batches())
        assert not batches[0].drifted  # rate ramps from zero

        def changed(batch):
            return sum(record.text() != plain[record.identifier]
                       for record in batch.dataset.records)

        assert changed(batches[0]) == 0
        assert changed(batches[-1]) > 0

    def test_same_seed_replays_identically(self):
        dataset = generate_camera(120, 12, seed=7)
        first = [batch.dataset.columns[0].header
                 for batch in StreamSource(dataset, n_batches=3, drift="case",
                                           drift_rate=0.8, seed=3).batches()]
        second = [batch.dataset.columns[0].header
                  for batch in StreamSource(dataset, n_batches=3, drift="case",
                                            drift_rate=0.8, seed=3).batches()]
        assert first == second

    def test_invalid_parameters_raise(self):
        dataset = generate_webtables(40, 8, seed=7)
        with pytest.raises(StreamingError):
            StreamSource(dataset, n_batches=0)
        with pytest.raises(StreamingError):
            StreamSource(dataset, n_batches=2, drift="nonsense")
        with pytest.raises(StreamingError):
            StreamSource(dataset, n_batches=2, initial_fraction=1.5)
        with pytest.raises(StreamingError):
            StreamSource(dataset, n_batches=100)  # not enough items
        with pytest.raises(StreamingError):
            StreamSource(object(), n_batches=2)
        assert "none" in DRIFT_KINDS


# ----------------------------------------------------------------------
class TestDriftMonitor:
    def test_in_distribution_batch_is_update(self):
        initial, batches = _stream_blobs(200, 1, 60, seed=6)
        model = KMeans(4, seed=0).fit(initial)
        monitor = DriftMonitor()
        monitor.observe_reference(initial, model.labels_)
        decision = monitor.assess(batches[0], model.predict(batches[0]))
        assert decision.action == "update"
        assert decision.reasons == ()

    def test_shifted_batch_is_refit(self):
        initial, _ = _stream_blobs(200, 0, 0, seed=7)
        model = KMeans(4, seed=0).fit(initial)
        monitor = DriftMonitor()
        monitor.observe_reference(initial, model.labels_)
        shifted = initial[:50] + 40.0
        decision = monitor.assess(shifted, model.predict(shifted))
        assert decision.action == "refit"
        assert any("mean_shift" in reason for reason in decision.reasons)

    def test_model_refit_flag_forces_refit(self):
        initial, batches = _stream_blobs(200, 1, 60, seed=8)
        model = KMeans(4, seed=0).fit(initial)
        monitor = DriftMonitor()
        monitor.observe_reference(initial, model.labels_)
        decision = monitor.assess(batches[0], model.predict(batches[0]),
                                  model_refit_flag=True)
        assert decision.action == "refit"
        assert "model_refit_flag" in decision.reasons

    def test_assess_before_reference_raises(self):
        with pytest.raises(StreamingError):
            DriftMonitor().assess(np.zeros((3, 2)), np.zeros(3, dtype=int))


# ----------------------------------------------------------------------
class TestIncrementalUpdate:
    def test_dispatches_partial_fit_for_sc_models(self):
        initial, batches = _stream_blobs(80, 1, 20, seed=9)
        model = KMeans(4, seed=0).fit(initial)
        report = incremental_update(model, batches[0])
        assert report.strategy == "partial_fit"
        assert report.n_new == 20
        assert report.model_class == "KMeans"

    def test_warm_start_fine_tunes_the_autoencoder_in_place(self):
        initial, batches = _stream_blobs(80, 1, 30, seed=10)
        config = DeepClusteringConfig(pretrain_epochs=3, train_epochs=0,
                                      layer_size=32, latent_dim=8, seed=0)
        model = AutoencoderClustering(4, clusterer="kmeans", config=config)
        model.fit(initial)
        weights_before = {name: array.copy()
                          for name, array in
                          model.autoencoder_.state_dict().items()}
        n_seen_before = model.clusterer_.n_seen_
        report = incremental_update(model, batches[0], epochs=2)
        assert report.strategy == "warm_start"
        # The encoder resumed training (weights moved) ...
        moved = any(not np.allclose(weights_before[name], array)
                    for name, array in
                    model.autoencoder_.state_dict().items())
        assert moved
        # ... and the inner clusterer absorbed the new latent codes.
        assert model.clusterer_.n_seen_ == n_seen_before + 30
        assert "fine_tune_loss" in model.history_

    def test_rejects_unfitted_and_unsupported_models(self):
        initial, _ = _stream_blobs(40, 0, 0)
        with pytest.raises(StreamingError):
            incremental_update(KMeans(4, seed=0), initial)
        config = DeepClusteringConfig(pretrain_epochs=1, train_epochs=1,
                                      layer_size=16, latent_dim=4, seed=0)
        shgp = SHGP(4, config=config)
        assert not supports_incremental_update(shgp)
        shgp._fitted = True
        with pytest.raises(StreamingError):
            incremental_update(shgp, initial)

    def test_surfaces_dbscan_refit_signal(self):
        initial, _ = _stream_blobs(150, 0, 0, seed=11, spread=20.0)
        model = DBSCAN(min_samples=4).fit(initial)
        far = np.full((20, initial.shape[1]), 300.0)
        report = incremental_update(model, far)
        assert report.refit_recommended


    @pytest.mark.parametrize("algorithm", ["kmeans", "birch", "dbscan",
                                           "ae", "ae_kmeans", "sdcn",
                                           "edesc"])
    def test_updates_a_loaded_read_only_model(self, algorithm, tmp_path):
        """A loaded model's arrays are read-only views of its checkpoint:
        an update must replace them, never write into them, and lands
        exactly where the same update of privately loaded arrays lands
        (a deflated copy of the file, which np.load reads into memory)."""
        from repro.tasks.base import make_clusterer

        initial, batches = _stream_blobs(60, 1, 20, seed=5)
        config = DeepClusteringConfig(pretrain_epochs=2, train_epochs=2,
                                      layer_size=16, latent_dim=4, seed=0)
        model = make_clusterer(algorithm, 4, config=config, seed=0)
        model.fit_predict(initial)
        path = save_checkpoint(tmp_path / "m.npz", model)
        before = path.read_bytes()
        with np.load(path) as payload:
            np.savez_compressed(tmp_path / "private.npz",
                                **{name: payload[name]
                                   for name in payload.files})
        loaded = load_checkpoint(path)
        private = load_checkpoint(tmp_path / "private.npz")
        assert supports_incremental_update(loaded)

        incremental_update(loaded, batches[0], seed=0)
        incremental_update(private, batches[0], seed=0)
        probe = np.vstack([initial, batches[0]])
        assert np.array_equal(loaded.predict(probe), private.predict(probe))
        assert path.read_bytes() == before


# ----------------------------------------------------------------------
class TestCheckpointRotation:
    def test_generations_accumulate_and_prune(self, tmp_path):
        initial, _ = _stream_blobs(40, 0, 0)
        model = KMeans(4, seed=0).fit(initial)
        path = tmp_path / "model.npz"
        for _ in range(5):
            rotate_checkpoint(path, model, keep=2)
        archives = checkpoint_generations(path)
        assert len(archives) == 2
        # Newest archive is the generation just displaced.
        assert load_checkpoint(path).checkpoint_header_[
            "metadata"]["generation"] == 4
        assert all(archive.name.startswith(".") for archive in archives)

    def test_generation_counter_survives_metadata(self, tmp_path):
        initial, _ = _stream_blobs(40, 0, 0)
        model = KMeans(4, seed=0).fit(initial)
        path = tmp_path / "model.npz"
        rotate_checkpoint(path, model, metadata={"task": "t"})
        rotate_checkpoint(path, model, metadata={"task": "t"})
        header = load_checkpoint(path).checkpoint_header_
        assert header["metadata"]["generation"] == 1
        assert header["metadata"]["task"] == "t"

    def test_keep_zero_archives_nothing(self, tmp_path):
        initial, _ = _stream_blobs(40, 0, 0)
        model = KMeans(4, seed=0).fit(initial)
        path = tmp_path / "model.npz"
        rotate_checkpoint(path, model, keep=0)
        rotate_checkpoint(path, model, keep=0)
        assert checkpoint_generations(path) == []

    def test_registry_never_lists_archived_generations(self, tmp_path):
        initial, _ = _stream_blobs(40, 0, 0)
        model = KMeans(4, seed=0).fit(initial)
        path = tmp_path / "model.npz"
        rotate_checkpoint(path, model)
        rotate_checkpoint(path, model)
        assert ModelRegistry(tmp_path).names() == ["model"]


# ----------------------------------------------------------------------
class TestHotReload:
    def _checkpoint(self, tmp_path, seed=0):
        initial, _ = _stream_blobs(60, 0, 0, seed=seed)
        model = KMeans(4, seed=seed).fit(initial)
        save_checkpoint(tmp_path / "m.npz", model,
                        metadata={"n_features": initial.shape[1]})
        return initial

    def test_reload_stale_swaps_newer_generation(self, tmp_path):
        initial = self._checkpoint(tmp_path)
        registry = ModelRegistry(tmp_path)
        first = registry.get("m")
        assert registry.reload_stale() == []  # nothing changed yet
        time.sleep(0.01)
        rotate_checkpoint(tmp_path / "m.npz",
                          KMeans(4, seed=5).fit(initial),
                          metadata={"n_features": initial.shape[1]})
        assert registry.reload_stale() == ["m"]
        second = registry.get("m")
        assert second is not first
        assert second.generation == 1

    def test_swap_retires_the_old_batcher_via_on_evict(self, tmp_path):
        initial = self._checkpoint(tmp_path)
        registry = ModelRegistry(tmp_path)
        service = PredictService(registry, max_delay=0.0)
        service.predict("m", {"vectors": initial[:2].tolist()})
        assert len(service.stats()) == 1
        time.sleep(0.01)
        rotate_checkpoint(tmp_path / "m.npz",
                          KMeans(4, seed=5).fit(initial),
                          metadata={"n_features": initial.shape[1]})
        registry.reload_stale()
        # Old batcher retired with its entry; next predict builds a new one.
        assert service.stats() == {}
        service.predict("m", {"vectors": initial[:2].tolist()})
        assert len(service.stats()) == 1
        service.close()

    def test_swap_invalidates_model_cache_namespace(self, tmp_path):
        initial = self._checkpoint(tmp_path)
        registry = ModelRegistry(tmp_path)
        registry.get("m")
        get_cache().put("model/m/derived", np.arange(3))
        get_cache().put("item/unrelated", np.arange(3))
        time.sleep(0.01)
        rotate_checkpoint(tmp_path / "m.npz",
                          KMeans(4, seed=5).fit(initial),
                          metadata={"n_features": initial.shape[1]})
        registry.reload_stale()
        assert get_cache().get("model/m/derived") is None
        assert get_cache().get("item/unrelated") is not None

    def test_corrupt_replacement_keeps_serving_old_weights(self, tmp_path):
        initial = self._checkpoint(tmp_path)
        registry = ModelRegistry(tmp_path)
        first = registry.get("m")
        time.sleep(0.01)
        (tmp_path / "m.npz").write_bytes(b"not a checkpoint")
        assert registry.reload_stale() == []
        assert registry.get("m") is first
        np.asarray(first.model.predict(initial[:3]))  # still answers

    def test_deleted_checkpoint_is_evicted(self, tmp_path):
        self._checkpoint(tmp_path)
        registry = ModelRegistry(tmp_path)
        registry.get("m")
        (tmp_path / "m.npz").unlink()
        registry.reload_stale()
        assert registry.loaded_names == []

    def test_watcher_thread_picks_up_rotation(self, tmp_path):
        initial = self._checkpoint(tmp_path)
        registry = ModelRegistry(tmp_path)
        registry.get("m")
        registry.start_hot_reload(0.02)
        try:
            time.sleep(0.01)
            rotate_checkpoint(tmp_path / "m.npz",
                              KMeans(4, seed=9).fit(initial),
                              metadata={"n_features": initial.shape[1]})
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if registry.get("m").generation == 1:
                    break
                time.sleep(0.02)
            assert registry.get("m").generation == 1
        finally:
            registry.stop_hot_reload()


# ----------------------------------------------------------------------
class TestStreamScenario:
    def test_scenario_produces_one_row_per_step(self):
        steps = run_stream_scenario(
            "schema_inference", dataset=generate_webtables(40, 8, seed=7),
            algorithm="kmeans", n_batches=3, seed=7)
        assert len(steps) == 4
        assert steps[0].action == "fit"
        assert all(step.action in ("update", "refit") for step in steps[1:])
        assert steps[-1].n_seen == 40
        row = steps[1].as_row()
        assert {"step", "action", "ARI", "ACC", "seconds"} <= set(row)

    def test_scenario_rotates_checkpoints_per_step(self, tmp_path):
        path = tmp_path / "live.npz"
        steps = run_stream_scenario(
            "domain_discovery", dataset=generate_camera(120, 12, seed=7),
            algorithm="birch", n_batches=2, seed=7, save_path=path)
        assert path.exists()
        header = load_checkpoint(path).checkpoint_header_
        assert header["metadata"]["generation"] == len(steps) - 1
        assert header["metadata"]["task"] == "domain_discovery"

    def test_scenario_wal_and_index_recover_after_lost_rotation(
            self, tmp_path):
        """Roll both artifacts back a generation (a crash that lost the
        last rotation) and prove recovery catches model AND index up —
        including a refit batch, which replays as the same fresh fit."""
        import shutil

        from repro.serialize import read_checkpoint_header
        from repro.wal import recover_checkpoint

        path = tmp_path / "live.npz"
        # A hair-trigger monitor forces refit decisions so the journal
        # holds refit records, not just incremental updates.
        steps = run_stream_scenario(
            "schema_inference", dataset=generate_webtables(40, 8, seed=7),
            algorithm="kmeans", n_batches=3, seed=7, save_path=path,
            wal_dir=tmp_path / "wal", with_index="flat",
            monitor=DriftMonitor(shift_threshold=1e-6,
                                 silhouette_drop=1e-6))
        assert any(step.action == "refit" for step in steps[1:])

        index_path = tmp_path / "live.index.npz"
        tail = read_checkpoint_header(path)["metadata"]["wal_applied"]
        baseline = load_checkpoint(path)
        n_total = steps[-1].n_seen
        for artifact in (path, index_path):
            # Roll back by rename, as a lost rotation leaves it: loaded
            # models map their file, which is never rewritten in place.
            previous = checkpoint_generations(artifact)[-1]
            rollback = artifact.with_name(f"{artifact.name}.rollback")
            shutil.copy2(previous, rollback)
            os.replace(rollback, artifact)
        rolled = read_checkpoint_header(path)["metadata"]["wal_applied"]
        assert rolled["stream"] < tail["stream"]

        report = recover_checkpoint(path, tmp_path / "wal")
        assert report.n_replayed >= 1
        assert report.n_index_replayed >= 1
        assert read_checkpoint_header(path)["metadata"]["wal_applied"] == tail
        index_meta = read_checkpoint_header(index_path)["metadata"]
        assert index_meta["wal_applied"] == tail
        assert load_checkpoint(index_path).size == n_total

        recovered = load_checkpoint(path)
        rng = np.random.default_rng(3)
        queries = rng.normal(size=(8, baseline.cluster_centers_.shape[1]))
        assert np.array_equal(baseline.predict(queries),
                              recovered.predict(queries))

    @pytest.mark.parametrize("refit", [False, True],
                             ids=["updates", "refit"])
    def test_live_loop_equals_its_replay_byte_for_byte(self, tmp_path,
                                                       refit):
        """The live loop never reloads its model; recovery reloads between
        batches.  Replaying the journal onto generation 0 must still land
        on the live run's final files, byte for byte."""
        import shutil

        from repro.serialize import read_checkpoint_header
        from repro.wal import recover_checkpoint

        n_batches = 3
        live = tmp_path / "live" / "stream.npz"
        wal_dir = tmp_path / "live" / "wal"
        monitor = (DriftMonitor(shift_threshold=1e-6, silhouette_drop=1e-6)
                   if refit else
                   DriftMonitor(shift_threshold=1e9, silhouette_drop=1e9))
        steps = run_stream_scenario(
            "schema_inference", dataset=generate_webtables(60, 8, seed=7),
            algorithm="kmeans", n_batches=n_batches, seed=7, save_path=live,
            keep_generations=n_batches + 1, monitor=monitor,
            with_index="ivf", wal_dir=wal_dir)
        actions = {step.action for step in steps[1:]}
        assert ("refit" in actions) == refit

        replay = tmp_path / "replay" / "stream.npz"
        replay.parent.mkdir()
        for name in ("stream.npz", "stream.index.npz"):
            generation_0 = checkpoint_generations(live.with_name(name))[0]
            assert read_checkpoint_header(generation_0)["metadata"][
                "generation"] == 0
            shutil.copy2(generation_0, replay.with_name(name))
        shutil.copytree(wal_dir, replay.parent / "wal")
        report = recover_checkpoint(replay, replay.parent / "wal",
                                    keep=n_batches + 1)
        assert report.n_replayed == report.n_index_replayed == n_batches

        for name in ("stream.npz", "stream.index.npz"):
            want, got = live.with_name(name), replay.with_name(name)
            assert read_checkpoint_header(got)["metadata"]["wal_applied"] \
                == read_checkpoint_header(want)["metadata"]["wal_applied"]
            with np.load(want) as expected, np.load(got) as actual:
                assert expected.files == actual.files
                for key in expected.files:
                    if key != "__header__":
                        assert expected[key].tobytes() == \
                            actual[key].tobytes(), (name, key)
        expected = load_checkpoint(live.with_name("stream.index.npz"))
        actual = load_checkpoint(replay.with_name("stream.index.npz"))
        queries = np.random.default_rng(5).normal(size=(6, expected.dim))
        for want, got in zip(expected.query(queries, 5),
                             actual.query(queries, 5)):
            assert want.tobytes() == got.tobytes()

    def test_scenario_checks_save_path_before_any_work(self, tmp_path,
                                                       monkeypatch):
        import repro.experiments.streaming as streaming

        def no_fit(*args, **kwargs):
            raise AssertionError("fitted before the arguments were checked")

        monkeypatch.setattr(streaming, "make_clusterer", no_fit)
        for kwargs in ({"wal_dir": tmp_path / "wal"}, {"with_index": "flat"}):
            with pytest.raises(StreamingError, match="save path"):
                run_stream_scenario(
                    "schema_inference",
                    dataset=generate_webtables(40, 8, seed=7), n_batches=2,
                    seed=7, **kwargs)

    def test_scenario_rejects_corpus_dependent_embeddings(self):
        with pytest.raises(StreamingError):
            run_stream_scenario(
                "entity_resolution",
                dataset=generate_musicbrainz(120, 40, seed=7),
                embedding="embdi", n_batches=2, seed=7)
        with pytest.raises(StreamingError):
            run_stream_scenario("nonsense", dataset=None)
