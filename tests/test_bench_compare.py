"""Perf-regression gate: benchmarks/compare_bench.py behaviour."""

from __future__ import annotations

import importlib.util
import json
import os
import platform
from pathlib import Path

import numpy as np
import pytest

_MODULE_PATH = Path(__file__).parent.parent / "benchmarks" / "compare_bench.py"
_spec = importlib.util.spec_from_file_location("compare_bench", _MODULE_PATH)
compare_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_bench)

_CONFTEST_PATH = _MODULE_PATH.parent / "conftest.py"
_conftest_spec = importlib.util.spec_from_file_location("bench_conftest",
                                                        _CONFTEST_PATH)
bench_conftest = importlib.util.module_from_spec(_conftest_spec)
_conftest_spec.loader.exec_module(bench_conftest)


def _serve_doc(*, speedup=2.5, per_request_p99=50.0, micro_p99=5.0) -> dict:
    return {
        "throughput_speedup": speedup,
        "per_request": {"p99_ms": per_request_p99},
        "micro_batched": {"p99_ms": micro_p99},
    }


def _stream_doc(*, speedup=20.0, failed=0) -> dict:
    return {
        "update": {"min_speedup_vs_refit": speedup},
        "hot_reload": {"failed_predicts": failed},
    }


def _figure4_doc(*, sparse_runtime=1.5, sparse_mem=20.0) -> list:
    return [
        {"graph": "dense", "n_instances": 240, "runtime_s": 1.0,
         "peak_mem_mb": 100.0},
        {"graph": "sparse", "n_instances": 240, "runtime_s": sparse_runtime,
         "peak_mem_mb": 10.0},
        {"graph": "sparse", "n_instances": 960, "runtime_s": 8.0,
         "peak_mem_mb": sparse_mem},
    ]


def _write(directory: Path, serve=None, stream=None, figure4=None) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    if serve is not None:
        (directory / "BENCH_serve.json").write_text(json.dumps(serve))
    if stream is not None:
        (directory / "BENCH_stream.json").write_text(json.dumps(stream))
    if figure4 is not None:
        (directory / "BENCH_figure4_scalability.json").write_text(
            json.dumps(figure4))
    return directory


@pytest.fixture
def baseline_dir(tmp_path):
    return _write(tmp_path / "baselines", serve=_serve_doc(),
                  stream=_stream_doc(), figure4=_figure4_doc())


class TestRunCompare:
    def test_identical_numbers_pass(self, baseline_dir, tmp_path):
        current = _write(tmp_path / "current", serve=_serve_doc(),
                         stream=_stream_doc(), figure4=_figure4_doc())
        report = compare_bench.run_compare(baseline_dir, current)
        assert report["status"] == "ok"
        assert report["failures"] == 0

    def test_improvements_pass(self, baseline_dir, tmp_path):
        current = _write(tmp_path / "current",
                         serve=_serve_doc(speedup=4.0, micro_p99=2.0),
                         stream=_stream_doc(speedup=100.0),
                         figure4=_figure4_doc(sparse_runtime=0.9))
        report = compare_bench.run_compare(baseline_dir, current)
        assert report["status"] == "ok"

    def test_throughput_regression_beyond_30_percent_fails(self, baseline_dir,
                                                           tmp_path):
        # Baseline speedup 2.5; a drop to 1.5 is a 40% regression.
        current = _write(tmp_path / "current",
                         serve=_serve_doc(speedup=1.5),
                         stream=_stream_doc(), figure4=_figure4_doc())
        report = compare_bench.run_compare(baseline_dir, current)
        assert report["status"] == "fail"
        failing = [row for row in report["rows"] if row["status"] == "fail"]
        assert any(row["metric"] == "throughput_speedup" for row in failing)

    def test_throughput_drop_within_30_percent_passes(self, baseline_dir,
                                                      tmp_path):
        current = _write(tmp_path / "current",
                         serve=_serve_doc(speedup=1.8),  # -28%
                         stream=_stream_doc(), figure4=_figure4_doc())
        assert compare_bench.run_compare(baseline_dir,
                                         current)["status"] == "ok"

    def test_p99_regression_beyond_2x_fails(self, baseline_dir, tmp_path):
        # Baseline p99 ratio 5/50 = 0.1; 25/50 = 0.5 is a 5x growth.
        current = _write(tmp_path / "current",
                         serve=_serve_doc(micro_p99=25.0),
                         stream=_stream_doc(), figure4=_figure4_doc())
        report = compare_bench.run_compare(baseline_dir, current)
        assert report["status"] == "fail"
        failing = [row for row in report["rows"] if row["status"] == "fail"]
        assert any("p99" in row["metric"] for row in failing)

    def test_any_failed_predict_fails(self, baseline_dir, tmp_path):
        current = _write(tmp_path / "current", serve=_serve_doc(),
                         stream=_stream_doc(failed=1),
                         figure4=_figure4_doc())
        report = compare_bench.run_compare(baseline_dir, current)
        assert report["status"] == "fail"

    def test_floor_kind_fails_on_any_drop(self):
        # The seeded benches are deterministic, so a recall floor tolerates
        # no regression at all — but does accept improvements.
        status, why = compare_bench._judge("recall", "floor", 0.993, 0.9929)
        assert status == "fail"
        assert "floor" in why
        assert compare_bench._judge("recall", "floor", 0.993, 0.993)[0] == "ok"
        assert compare_bench._judge("recall", "floor", 0.993, 0.995)[0] == "ok"

    def test_missing_current_file_skips_unless_strict(self, baseline_dir,
                                                      tmp_path):
        current = _write(tmp_path / "current", serve=_serve_doc())
        relaxed = compare_bench.run_compare(baseline_dir, current)
        assert relaxed["status"] == "ok"
        strict = compare_bench.run_compare(baseline_dir, current, strict=True)
        assert strict["status"] == "fail"

    @pytest.mark.parametrize("cpus", [1, 2, 3, None])
    def test_pool_scaling_skipped_below_four_cores(self, tmp_path, cpus):
        """A 4-worker scaling ratio measured on fewer cores is reported
        skipped with the reason — however bad it looks — never passed."""
        def serve(scaling):
            pool = {"throughput_scaling": scaling, "failed_requests": 0}
            if cpus is not None:
                pool["cpu_count"] = cpus
            return {**_serve_doc(), "pool": pool}

        baselines = _write(tmp_path / "baselines", serve=serve(0.776))
        current = _write(tmp_path / "current", serve=serve(0.1))
        report = compare_bench.run_compare(baselines, current)
        [row] = [row for row in report["rows"]
                 if row["metric"] == "pool_throughput_scaling"]
        assert row["status"] == "skipped"
        assert ">= 4" in row["detail"]
        assert report["status"] == "ok"  # the other gates still ran

    def test_pool_scaling_gated_on_four_cores(self, tmp_path):
        def serve(scaling, cpus):
            return {**_serve_doc(), "pool": {
                "cpu_count": cpus, "throughput_scaling": scaling,
                "failed_requests": 0}}

        baselines = _write(tmp_path / "baselines", serve=serve(2.5, 1))
        current = _write(tmp_path / "current", serve=serve(1.0, 4))
        report = compare_bench.run_compare(baselines, current)
        [row] = [row for row in report["rows"]
                 if row["metric"] == "pool_throughput_scaling"]
        assert row["status"] == "fail"

    def test_missing_baseline_is_skipped(self, tmp_path):
        baselines = _write(tmp_path / "baselines")  # empty
        current = _write(tmp_path / "current", serve=_serve_doc())
        report = compare_bench.run_compare(baselines, current)
        assert report["status"] == "ok"
        assert all(row["status"] == "skipped" for row in report["rows"])


class TestProvenance:
    def test_written_bench_files_are_stamped(self, tmp_path):
        path = tmp_path / "BENCH_stream.json"
        bench_conftest.write_bench_json(path, _stream_doc())
        doc = json.loads(path.read_text(encoding="utf-8"))
        stamp = doc.pop("provenance")
        assert doc == _stream_doc()
        assert stamp["cpu_count"] == os.cpu_count()
        assert stamp["python"] == platform.python_version()
        assert stamp["numpy"] == np.__version__
        threads = stamp["blas_threads"]
        assert threads is None or (isinstance(threads, int) and threads >= 1)
        sha = stamp["git_sha"]
        assert sha is None or (len(sha) == 40
                               and set(sha) <= set("0123456789abcdef"))

    def test_report_copies_the_fresh_runs_provenance(self, baseline_dir,
                                                     tmp_path):
        stamp = {"cpu_count": 2, "python": "3.11.7", "numpy": "2.4.6",
                 "blas_threads": None, "git_sha": None}
        current = _write(
            tmp_path / "current",
            serve={**_serve_doc(), "provenance": stamp},
            figure4={"rows": _figure4_doc(), "provenance": stamp})
        report = compare_bench.run_compare(baseline_dir, current)
        # The row-list baseline and the stamped fresh file still compare.
        assert report["status"] == "ok"
        assert {row["file"] for row in report["rows"]
                if row["status"] == "ok"} == {
                    "BENCH_serve.json", "BENCH_figure4_scalability.json"}
        assert report["provenance"] == {
            "BENCH_serve.json": stamp,
            "BENCH_figure4_scalability.json": stamp}


class TestMainCli:
    def test_exit_codes_and_report_file(self, baseline_dir, tmp_path, capsys):
        current = _write(tmp_path / "current", serve=_serve_doc(speedup=1.0),
                         stream=_stream_doc(), figure4=_figure4_doc())
        report_path = tmp_path / "report.json"
        code = compare_bench.main([
            "--baseline-dir", str(baseline_dir),
            "--current-dir", str(current),
            "--report", str(report_path)])
        assert code == 1
        assert json.loads(report_path.read_text())["status"] == "fail"
        assert "FAIL" in capsys.readouterr().out

        good = _write(tmp_path / "good", serve=_serve_doc(),
                      stream=_stream_doc(), figure4=_figure4_doc())
        assert compare_bench.main(["--baseline-dir", str(baseline_dir),
                                   "--current-dir", str(good)]) == 0

    def test_ivfpq_qps_gated_against_committed_baseline(self, tmp_path):
        baselines = Path(__file__).parent.parent / "benchmarks" / "baselines"
        doc = json.loads((baselines / "BENCH_index.json").read_text(
            encoding="utf-8"))
        assert compare_bench._metrics_index(doc)["ivfpq_qps@1M"] == (
            174.5, "higher")
        for qps, status in ((100.0, "fail"), (500.0, "ok")):
            current = tmp_path / f"qps{qps:g}"
            current.mkdir()
            slowed = {**doc, "ivfpq": {**doc["ivfpq"], "qps": qps}}
            (current / "BENCH_index.json").write_text(json.dumps(slowed))
            report = compare_bench.run_compare(baselines, current)
            row, = [row for row in report["rows"]
                    if row["metric"] == "ivfpq_qps@1M"]
            assert row["status"] == status

    def test_committed_baselines_are_valid(self):
        """The real committed baselines parse and yield every gated metric."""
        baselines = Path(__file__).parent.parent / "benchmarks" / "baselines"
        for name, extractor in compare_bench.EXTRACTORS.items():
            path = baselines / name
            assert path.exists(), f"missing committed baseline {name}"
            metrics = extractor(json.loads(path.read_text(encoding="utf-8")))
            assert metrics, f"baseline {name} produced no gated metrics"
            for value, kind in metrics.values():
                assert kind in ("higher", "lower", "zero", "floor")
                assert value >= 0
