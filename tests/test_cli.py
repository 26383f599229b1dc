"""Smoke tests for the ``python -m repro`` CLI and the generated docs."""

import json
from pathlib import Path

import pytest

from repro.cache import reset_cache
from repro.cli import build_parser, main
from repro.experiments import (
    EXPERIMENTS,
    render_api_md,
    render_experiments_md,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def fresh_cache():
    reset_cache()
    yield
    reset_cache()


class TestVersion:
    def test_version_flag_prints_single_constant(self, capsys):
        from repro import __version__
        from repro._version import __version__ as version_constant

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro {version_constant}"
        # The package, the CLI and setup.py share the one constant.
        assert __version__ == version_constant

    def test_setup_py_reads_the_same_constant(self):
        from repro._version import __version__ as version_constant

        setup_text = (REPO_ROOT / "setup.py").read_text(encoding="utf-8")
        assert "_version.py" in setup_text
        assert f'version="{version_constant}"' not in setup_text, \
            "setup.py must read the version from repro/_version.py, " \
            "not hard-code it"


class TestParser:
    def test_subcommands_registered(self):
        parser = build_parser()
        args = parser.parse_args(["run", "table2", "--scale", "test",
                                  "--workers", "2", "--format", "json"])
        assert args.command == "run"
        assert args.experiment_id == "table2"
        assert args.workers == 2

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_graph_and_batch_size_flags(self):
        args = build_parser().parse_args(
            ["run", "figure4_scalability", "--graph", "sparse",
             "--batch-size", "128"])
        assert args.graph == "sparse"
        assert args.batch_size == 128

    def test_graph_flag_rejects_unknown_value(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "table2", "--graph", "csr"])


class TestListCommand:
    def test_lists_every_experiment(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for experiment_id in EXPERIMENTS:
            assert experiment_id in out

    def test_json_format(self, capsys):
        assert main(["list", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert {row["id"] for row in rows} == set(EXPERIMENTS)


class TestRunCommand:
    def test_run_table2_json(self, capsys):
        code = main(["run", "table2", "--scale", "test", "--format", "json",
                     "--datasets", "webtables", "--embeddings", "sbert",
                     "--algorithms", "kmeans", "birch", "--epochs", "2"])
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 2
        assert {row["Algorithm"] for row in rows} == {"kmeans", "birch"}
        assert all(0.0 <= row["ACC"] <= 1.0 for row in rows)

    def test_run_parallel_workers(self, capsys):
        code = main(["run", "table2", "--scale", "test", "--format", "csv",
                     "--datasets", "webtables", "--embeddings", "sbert",
                     "--algorithms", "kmeans", "birch", "--epochs", "2",
                     "--workers", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("Dataset,")
        assert len(out.strip().splitlines()) == 3  # header + 2 cells

    def test_run_table1(self, capsys):
        assert main(["run", "table1", "--scale", "test",
                     "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 6

    def test_run_with_cache_dir(self, tmp_path, capsys):
        code = main(["run", "table2", "--scale", "test", "--format", "json",
                     "--datasets", "webtables", "--embeddings", "sbert",
                     "--algorithms", "kmeans", "--epochs", "2",
                     "--cache-dir", str(tmp_path)])
        assert code == 0
        assert list(tmp_path.glob("*.npz")), "expected persisted NPZ artifact"

    def test_invalid_override_exits_nonzero(self, capsys):
        assert main(["run", "table1", "--scale", "test",
                     "--algorithms", "kmeans"]) == 2
        assert "algorithms" in capsys.readouterr().err

    def test_figure_experiment_exits_nonzero(self, capsys):
        assert main(["run", "figure4", "--scale", "test"]) == 2
        assert "figure" in capsys.readouterr().err

    def test_unknown_experiment_exits_nonzero(self, capsys):
        assert main(["run", "table99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_scalability_sparse_extends_grid(self, capsys):
        code = main(["run", "figure4_scalability", "--scale", "test",
                     "--graph", "sparse", "--algorithms", "kmeans",
                     "--format", "json"])
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert all(row["graph"] == "sparse" for row in rows)
        instance_counts = {row["n_instances"] for row in rows
                           if row["sweep"] == "instances"}
        # The sparse path extends the instance sweep 4x past the largest
        # dense point of the test-scale grid (120 -> 480).
        assert max(instance_counts) >= 4 * 120
        assert all(row["peak_mem_mb"] >= 0 for row in rows)

    def test_run_scalability_dense_uses_base_grid(self, capsys):
        code = main(["run", "figure4_scalability", "--scale", "test",
                     "--algorithms", "kmeans", "--format", "json"])
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert all(row["graph"] == "dense" for row in rows)
        instance_counts = {row["n_instances"] for row in rows
                           if row["sweep"] == "instances"}
        assert max(instance_counts) == 120


class TestJsonPayloadRegression:
    """--format json/csv must never drag the heavy clustering payload along."""

    def _result_with_heavy_payload(self):
        import numpy as np

        from repro.clustering.base import ClusteringResult
        from repro.tasks.base import TaskResult

        heavy = ClusteringResult(
            labels=np.zeros(100_000, dtype=np.int64),
            n_clusters=3,
            embedding=np.zeros((100_000, 64)),
            soft_assignments=np.zeros((100_000, 32)),
            metadata={"history": {"train_loss": [0.0] * 10_000}},
        )
        return TaskResult(
            dataset="d", task="t", embedding="sbert", algorithm="kmeans",
            n_clusters_true=3, n_clusters_predicted=3, ari=0.5, acc=0.5,
            runtime_seconds=0.1, clustering=heavy)

    def test_as_row_contains_only_scalars(self):
        row = self._result_with_heavy_payload().as_row()
        for key, value in row.items():
            assert isinstance(value, (str, int, float, bool)), \
                f"row key {key!r} leaked a {type(value).__name__}"

    def test_json_and_csv_output_stay_small(self):
        from repro.experiments import render_rows, results_to_rows

        rows = results_to_rows([self._result_with_heavy_payload()] * 4)
        for fmt in ("json", "csv"):
            rendered = render_rows(rows, fmt)
            assert len(rendered) < 2000, \
                f"--format {fmt} output dragged the clustering payload along"
        parsed = json.loads(render_rows(rows, "json"))
        assert len(parsed) == 4
        assert set(parsed[0]) == {"Dataset", "Task", "Embedding", "Algorithm",
                                  "K", "ARI", "ACC", "runtime_s"}

    def test_cli_json_run_emits_no_arrays(self, capsys):
        assert main(["run", "table2", "--scale", "test", "--format", "json",
                     "--datasets", "webtables", "--embeddings", "sbert",
                     "--algorithms", "kmeans", "--epochs", "2"]) == 0
        out = capsys.readouterr().out
        rows = json.loads(out)
        assert all(isinstance(value, (str, int, float, bool))
                   for row in rows for value in row.values())


class TestTrainCommand:
    def test_train_saves_servable_checkpoint(self, tmp_path, capsys):
        target = tmp_path / "models" / "webtables.npz"
        code = main(["train", "schema_inference", "--dataset", "webtables",
                     "--scale", "test", "--embedding", "sbert",
                     "--algorithm", "kmeans", "--save", str(target),
                     "--format", "json"])
        assert code == 0
        assert target.exists()
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["Algorithm"] == "kmeans"

        from repro.serialize import load_checkpoint

        model = load_checkpoint(target)
        header = model.checkpoint_header_
        assert header["metadata"]["task"] == "schema_inference"
        assert header["metadata"]["embedding"] == "sbert"
        assert model.predict(model.cluster_centers_).shape[0] == \
            model.cluster_centers_.shape[0]

    def test_train_epochs_caps_instead_of_raising_schedule(self, tmp_path,
                                                           capsys):
        """--epochs is a cap (like `repro run`), not an override upwards."""
        from repro.serialize import read_checkpoint_header

        target = tmp_path / "ae.npz"
        code = main(["train", "schema_inference", "--dataset", "webtables",
                     "--scale", "test", "--algorithm", "ae",
                     "--epochs", "999", "--save", str(target),
                     "--format", "json"])
        assert code == 0
        capsys.readouterr()
        header = read_checkpoint_header(target)
        # The stored config reflects the capped default schedule (30), not
        # the requested 999.
        assert header["params"]["config"]["pretrain_epochs"] == 30

    def test_train_rejects_foreign_dataset(self, capsys):
        code = main(["train", "schema_inference", "--dataset", "camera",
                     "--scale", "test", "--save", "/tmp/unused.npz"])
        assert code == 2
        assert "does not belong" in capsys.readouterr().err

    def test_run_save_dir_persists_models(self, tmp_path, capsys):
        code = main(["run", "table2", "--scale", "test", "--format", "json",
                     "--datasets", "webtables", "--embeddings", "sbert",
                     "--algorithms", "kmeans", "--epochs", "2",
                     "--save-dir", str(tmp_path)])
        assert code == 0
        saved = list(tmp_path.glob("*.npz"))
        assert len(saved) == 1
        assert saved[0].name.endswith("__sbert__kmeans.npz")


class TestServeParser:
    def test_serve_flags(self):
        args = build_parser().parse_args(
            ["serve", "--model-dir", "models", "--port", "8123",
             "--batch-rows", "64", "--batch-delay-ms", "1.5"])
        assert args.command == "serve"
        assert args.port == 8123
        assert args.batch_rows == 64
        assert args.batch_delay_ms == 1.5
        # Without the flag the batcher drains and never lingers.
        defaults = build_parser().parse_args(["serve", "--model-dir", "m"])
        assert defaults.batch_delay_ms == 0.0

    def test_serve_requires_model_dir(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve"])

    def test_serve_missing_dir_exits_nonzero(self, tmp_path, capsys):
        assert main(["serve", "--model-dir", str(tmp_path / "nope")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_serve_hot_reload_flags(self):
        args = build_parser().parse_args(
            ["serve", "--model-dir", "models", "--reload-ms", "250",
             "--no-hot-reload"])
        assert args.reload_ms == 250.0
        assert args.no_hot_reload


class TestStreamCommand:
    def test_stream_renders_one_row_per_step(self, capsys):
        code = main(["stream", "schema_inference", "--scale", "test",
                     "--batches", "2", "--seed", "7", "--format", "json"])
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 3  # initial fit + 2 batches
        assert rows[0]["action"] == "fit"
        assert all(row["action"] in ("fit", "update", "refit")
                   for row in rows)

    def test_stream_save_rotates_generations(self, tmp_path, capsys):
        target = tmp_path / "live.npz"
        code = main(["stream", "domain_discovery", "--scale", "test",
                     "--batches", "2", "--algorithm", "birch",
                     "--save", str(target), "--format", "json"])
        assert code == 0
        from repro.serialize import read_checkpoint_header

        header = read_checkpoint_header(target)
        assert header["metadata"]["generation"] == 2
        assert "rotated checkpoint" in capsys.readouterr().err

    def test_stream_rejects_foreign_dataset(self, capsys):
        assert main(["stream", "schema_inference", "--dataset", "camera",
                     "--scale", "test"]) == 2
        assert "does not belong" in capsys.readouterr().err


class TestUpdateCommand:
    def test_update_round_trip(self, tmp_path, capsys):
        target = tmp_path / "web.npz"
        assert main(["train", "schema_inference", "--dataset", "webtables",
                     "--scale", "test", "--embedding", "sbert",
                     "--algorithm", "kmeans", "--save", str(target),
                     "--format", "json"]) == 0
        capsys.readouterr()
        code = main(["update", str(target), "--data", "webtables",
                     "--scale", "test", "--format", "json"])
        assert code == 0
        captured = capsys.readouterr()
        rows = json.loads(captured.out)
        assert rows[0]["strategy"] == "partial_fit"
        assert "generation 1" in captured.err

        from repro.serialize import load_checkpoint

        model = load_checkpoint(target)
        assert model.checkpoint_header_["metadata"]["generation"] == 1
        assert model.n_seen_ > 40  # absorbed the generated batch

    def test_update_keeps_sibling_index_in_step(self, tmp_path, capsys):
        from repro.serialize import load_checkpoint, read_checkpoint_header

        target = tmp_path / "stream.npz"
        index_path = tmp_path / "stream.index.npz"
        wal_dir = tmp_path / "wal"
        assert main(["stream", "schema_inference", "--scale", "test",
                     "--batches", "2", "--save", str(target),
                     "--with-index", "ivf", "--wal-dir", str(wal_dir),
                     "--format", "json"]) == 0
        before = load_checkpoint(index_path).size
        for _ in range(2):
            assert main(["update", str(target), "--data", "webtables",
                         "--scale", "test", "--wal-dir", str(wal_dir),
                         "--format", "json"]) == 0
        capsys.readouterr()
        model_meta = read_checkpoint_header(target)["metadata"]
        index_meta = read_checkpoint_header(index_path)["metadata"]
        assert model_meta["wal_applied"] == {"stream": 2, "updates": 2}
        assert index_meta["wal_applied"] == model_meta["wal_applied"]
        assert load_checkpoint(index_path).size == \
            before + 2 * model_meta["n_items"]

    def test_update_replays_a_pending_journal_suffix_first(self, tmp_path,
                                                           capsys):
        """A batch journaled but never applied is applied once, in order."""
        from repro.config import TEST_SCALE
        from repro.experiments.runner import build_dataset
        from repro.serialize import load_checkpoint
        from repro.tasks import embed_tables
        from repro.wal import WriteAheadLog, wal_namespace

        target = tmp_path / "web.npz"
        wal_dir = tmp_path / "wal"
        assert main(["train", "schema_inference", "--dataset", "webtables",
                     "--scale", "test", "--embedding", "sbert",
                     "--algorithm", "kmeans", "--save", str(target),
                     "--format", "json"]) == 0
        n_trained = load_checkpoint(target).n_seen_
        pending = embed_tables(
            build_dataset("webtables", TEST_SCALE, seed=7), "sbert")[:10]
        wal = WriteAheadLog(wal_namespace(wal_dir, "web", "updates"))
        wal.append({"X": pending},
                   meta={"action": "update", "epochs": 2, "seed": 7})
        wal.close()
        assert main(["update", str(target), "--data", "webtables",
                     "--scale", "test", "--wal-dir", str(wal_dir),
                     "--format", "json"]) == 0
        capsys.readouterr()
        model = load_checkpoint(target)
        metadata = model.checkpoint_header_["metadata"]
        assert metadata["wal_applied"] == {"updates": 2}
        assert metadata["wal_updates_applied"] == 2
        assert (n_trained, metadata["n_items"]) == (40, 40)
        assert model.n_seen_ == 90

    def test_update_rejects_wrong_task_dataset(self, tmp_path, capsys):
        target = tmp_path / "web.npz"
        assert main(["train", "schema_inference", "--dataset", "webtables",
                     "--scale", "test", "--algorithm", "kmeans",
                     "--save", str(target), "--format", "json"]) == 0
        capsys.readouterr()
        assert main(["update", str(target), "--data", "camera",
                     "--scale", "test"]) == 2
        assert "does not belong" in capsys.readouterr().err


class TestProfileCommand:
    def test_profiles_subset(self, capsys):
        assert main(["profile", "--datasets", "webtables", "camera",
                     "--scale", "test", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 2
        assert {row["Task"] for row in rows} == {"Schema Inference",
                                                 "Domain Discovery"}


class TestDocsCommand:
    def test_docs_roundtrip(self, tmp_path, capsys):
        target = tmp_path / "EXPERIMENTS.md"
        assert main(["docs", "--output", str(target)]) == 0
        assert target.read_text(encoding="utf-8") == render_experiments_md()
        assert main(["docs", "--check", "--output", str(target)]) == 0

    def test_docs_check_detects_drift(self, tmp_path, capsys):
        target = tmp_path / "EXPERIMENTS.md"
        target.write_text("stale", encoding="utf-8")
        assert main(["docs", "--check", "--output", str(target)]) == 1

    def test_committed_experiments_md_in_sync(self):
        """The checked-in EXPERIMENTS.md must match the registry."""
        committed = (REPO_ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
        assert committed == render_experiments_md(), (
            "EXPERIMENTS.md is out of sync with "
            "repro.experiments.registry.EXPERIMENTS; "
            "run 'python -m repro docs' to regenerate it")

    def test_registry_sections_all_rendered(self):
        document = render_experiments_md()
        for spec in EXPERIMENTS.values():
            assert f"`{spec.experiment_id}`" in document


class TestApiDocs:
    def test_api_roundtrip(self, tmp_path, capsys):
        experiments = tmp_path / "EXPERIMENTS.md"
        api = tmp_path / "API.md"
        assert main(["docs", "--api", "--output", str(experiments),
                     "--api-output", str(api)]) == 0
        assert api.read_text(encoding="utf-8") == render_api_md()
        assert main(["docs", "--api", "--check", "--output", str(experiments),
                     "--api-output", str(api)]) == 0

    def test_api_check_detects_drift(self, tmp_path, capsys):
        experiments = tmp_path / "EXPERIMENTS.md"
        api = tmp_path / "API.md"
        assert main(["docs", "--output", str(experiments)]) == 0
        api.write_text("stale", encoding="utf-8")
        assert main(["docs", "--api", "--check", "--output", str(experiments),
                     "--api-output", str(api)]) == 1

    def test_committed_api_md_in_sync(self):
        """The checked-in API.md must match the package's public API."""
        committed = (REPO_ROOT / "API.md").read_text(encoding="utf-8")
        assert committed == render_api_md(), (
            "API.md is out of sync with the package; run "
            "'python -m repro docs --api' to regenerate it")

    def test_api_reference_covers_new_sparse_modules(self):
        document = render_api_md()
        for fragment in ("## `repro.nn.sparse`", "`CSRMatrix`",
                         "`sparse_matmul`", "`sparse_knn_graph`",
                         "## `repro.experiments.api_docs`"):
            assert fragment in document

    def test_api_reference_covers_serving_modules(self):
        document = render_api_md()
        for fragment in ("## `repro.serialize`", "`save_checkpoint`",
                         "`load_checkpoint`", "## `repro.serve`",
                         "`ModelRegistry`", "`MicroBatcher`",
                         "`create_server`", "## `repro.embeddings.single`",
                         "`embed_item`"):
            assert fragment in document
