"""Perf-regression gate: diff fresh ``BENCH_*.json`` against committed baselines.

The benches under ``benchmarks/`` measure throughput, latency and memory
into ``BENCH_*.json`` files; until now those were uploaded as artifacts but
never *compared*, so a regression shipped silently.  This script closes the
loop: ``benchmarks/baselines/`` holds one committed baseline per bench
file, and the ``scalability-bench`` CI job fails when a fresh measurement
regresses past the thresholds:

* **throughput-class** metrics (higher is better: speedups) fail on a
  drop of more than 30% against the baseline;
* **latency-class** metrics (lower is better: p99 ratios, memory ratios)
  fail on growth of more than 2x;
* **zero-class** metrics (failure counts) fail on any non-zero value;
* **floor-class** metrics (quality guarantees: recalls the benches are
  seeded to reproduce exactly) fail on *any* drop below the baseline —
  zero tolerance, because a recall regression is a correctness bug, not
  noise.

Most gated metrics are *same-machine ratios* (micro-batched vs
per-request p99, incremental-update vs refit wall time, sparse vs dense
peak memory), so their committed baselines transfer across hardware
generations — a slower CI runner scales both sides of each ratio.  The
exceptions are the million-vector tier's ``ivfpq_qps@1M`` and
``ivfpq_p99_ms@1M``: absolute QPS and latency, which track the coded
scan's speed on the machine that recorded them and do not transfer (a
slower runner can fail them with no regression).  A ratio the fresh run's
machine cannot measure (pool scaling on fewer cores than the pool has
workers) is reported ``skipped``, with the reason, instead of passing.
The report also carries each fresh file's ``provenance`` (core count,
Python/numpy versions, BLAS threads, git sha), so a reader can tell
where the numbers came from.

Usage::

    python benchmarks/compare_bench.py [--baseline-dir benchmarks/baselines]
        [--current-dir .] [--report bench-comparison.json] [--strict]

Exit status 0 when nothing regressed, 1 otherwise.  ``--strict`` also
fails when a baseline exists but the fresh measurement file is missing
(a bench that silently stopped writing must not pass the gate vacuously).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: Maximum allowed drop of a higher-is-better (throughput-class) metric.
THROUGHPUT_DROP = 0.30
#: Maximum allowed growth factor of a lower-is-better (latency-class) metric.
LATENCY_GROWTH = 2.0
#: Fewest cores on which the 4-worker pool scaling ratio means anything;
#: below it the workers share cores and the ratio measures contention.
POOL_SCALING_MIN_CPUS = 4


def _metrics_serve(doc: dict) -> dict[str, tuple[float, str]]:
    """Gated metrics of ``BENCH_serve.json``: ``{name: (value, kind)}``."""
    per_request = doc["per_request"]
    micro = doc["micro_batched"]
    metrics = {
        "throughput_speedup": (float(doc["throughput_speedup"]), "higher"),
        "p99_ratio_micro_vs_per_request": (
            float(micro["p99_ms"]) / float(per_request["p99_ms"]), "lower"),
    }
    pool = doc.get("pool")
    if pool is not None:
        # Same-machine ratio (workers=4 vs workers=1 through the same
        # router), so it transfers across runners; gated only on runs
        # with enough cores (see _unmeasurable_serve).
        metrics["pool_throughput_scaling"] = (
            float(pool["throughput_scaling"]), "higher")
        metrics["pool_failed_requests"] = (
            float(pool["failed_requests"]), "zero")
    obs = doc.get("obs")
    if obs is not None:
        # Same-machine ratio (uninstrumented vs instrumented predict
        # throughput through one batcher); 1.0 means metrics + tracing
        # are free, the bench itself asserts < 1.05.
        metrics["obs_overhead"] = (float(obs["overhead_ratio"]), "lower")
    return metrics


def _unmeasurable_serve(doc: dict) -> dict[str, str]:
    """Gated metrics this ``BENCH_serve.json`` run could not measure."""
    pool = doc.get("pool")
    if pool is None:
        return {}
    cpus = pool.get("cpu_count")
    if cpus is None or cpus < POOL_SCALING_MIN_CPUS:
        return {"pool_throughput_scaling":
                f"measured on {cpus or 'an unrecorded number of'} core(s); "
                f"4-worker scaling needs >= {POOL_SCALING_MIN_CPUS}"}
    return {}


def _metrics_stream(doc: dict) -> dict[str, tuple[float, str]]:
    """Gated metrics of ``BENCH_stream.json``."""
    metrics: dict[str, tuple[float, str]] = {}
    update = doc.get("update")
    if update is not None:
        metrics["min_update_speedup_vs_refit"] = (
            float(update["min_speedup_vs_refit"]), "higher")
    hot_reload = doc.get("hot_reload")
    if hot_reload is not None:
        metrics["hot_reload_failed_predicts"] = (
            float(hot_reload["failed_predicts"]), "zero")
    wal = doc.get("wal")
    if wal is not None:
        metrics["wal_ingest_overhead"] = (
            float(wal["wal_ingest_overhead"]), "lower")
    return metrics


def _metrics_figure4(doc: dict | list) -> dict[str, tuple[float, str]]:
    """Gated metrics of ``BENCH_figure4_scalability.json``.

    Its rows sit under ``"rows"``; files written before provenance was
    stamped are the bare row list.
    """
    rows = doc["rows"] if isinstance(doc, dict) else doc
    rows = {(row["graph"], row["n_instances"]): row for row in rows}
    dense_sizes = sorted(n for graph, n in rows if graph == "dense")
    sparse_sizes = sorted(n for graph, n in rows if graph == "sparse")
    if not dense_sizes or not sparse_sizes:
        return {}
    common = max(set(dense_sizes) & set(sparse_sizes))
    dense_max, sparse_max = dense_sizes[-1], sparse_sizes[-1]
    # Dense memory extrapolated quadratically to the largest sparse size;
    # the sparse path must stay well below it (< 1.0, gated at 2x growth).
    growth = (sparse_max / dense_max) ** 2
    mem_ratio = (rows[("sparse", sparse_max)]["peak_mem_mb"]
                 / (rows[("dense", dense_max)]["peak_mem_mb"] * growth))
    runtime_ratio = (rows[("sparse", common)]["runtime_s"]
                     / rows[("dense", common)]["runtime_s"])
    return {
        "sparse_peak_mem_vs_dense_extrapolated": (mem_ratio, "lower"),
        f"sparse_vs_dense_runtime_ratio@{common}": (runtime_ratio, "lower"),
    }


def _metrics_index(doc: dict) -> dict[str, tuple[float, str]]:
    """Gated metrics of ``BENCH_index.json``.

    The QPS and build speedups are same-machine ratios and the recalls
    hardware-independent absolutes; both transfer across runners.  The
    1M tier's ``ivfpq_qps`` and ``ivfpq_p99_ms`` are absolute and do not.
    """
    metrics: dict[str, tuple[float, str]] = {}
    top = doc.get("sizes", {}).get("100000", {}).get("ivf")
    if top is not None:
        metrics["ivf_qps_speedup_vs_flat@100k"] = (
            float(top["qps_speedup_vs_flat"]), "higher")
        metrics["ivf_recall_at_10@100k"] = (float(top["recall_at_10"]),
                                            "higher")
    graph = doc.get("knn_graph")
    if graph is not None:
        metrics["knn_graph_build_speedup@3200"] = (
            float(graph["build_speedup"]), "higher")
        metrics["knn_graph_edge_recall@3200"] = (float(graph["edge_recall"]),
                                                 "higher")
    ivfpq = doc.get("ivfpq")
    if ivfpq is not None:
        # The quantized tier's quality guarantee is zero-tolerance: the
        # bench is fully seeded, so any recall drop is a real regression
        # in the quantizers or the rerank pipeline, not machine noise.
        metrics["ivfpq_recall_at_10@1M"] = (
            float(ivfpq["ivfpq_recall_at_10"]), "floor")
        metrics["ivfpq_p99_ms@1M"] = (float(ivfpq["ivfpq_p99_ms"]), "lower")
        # Absolute single-row QPS, like the p99 above: it tracks the
        # coded scan's speed rather than transferring across machines.
        metrics["ivfpq_qps@1M"] = (float(ivfpq["qps"]), "higher")
        metrics["ivfpq_memory_reduction_vs_flat64@1M"] = (
            float(ivfpq["memory_reduction_vs_flat64"]), "higher")
    return metrics


#: Bench file name -> metric extractor.
EXTRACTORS = {
    "BENCH_serve.json": _metrics_serve,
    "BENCH_stream.json": _metrics_stream,
    "BENCH_figure4_scalability.json": _metrics_figure4,
    "BENCH_index.json": _metrics_index,
}
#: Per bench file: the gated metrics a fresh run could not measure, with
#: the reason (reported ``skipped``, never passed by default).
UNMEASURABLE = {
    "BENCH_serve.json": _unmeasurable_serve,
}


def _judge(name: str, kind: str, baseline: float,
           current: float) -> tuple[str, str]:
    """Return (status, explanation) for one metric comparison."""
    if kind == "zero":
        if current > 0:
            return "fail", f"{name}: {current:g} must be 0"
        return "ok", f"{name}: 0 as required"
    if kind == "floor":
        if current < baseline:
            return ("fail",
                    f"{name}: {current:g} fell below the zero-tolerance "
                    f"floor {baseline:g}")
        return "ok", f"{name}: {current:g} vs floor {baseline:g}"
    if kind == "higher":
        floor = baseline * (1.0 - THROUGHPUT_DROP)
        if current < floor:
            return ("fail",
                    f"{name}: {current:g} dropped more than "
                    f"{THROUGHPUT_DROP:.0%} below baseline {baseline:g}")
        return "ok", f"{name}: {current:g} vs baseline {baseline:g}"
    if kind == "lower":
        ceiling = baseline * LATENCY_GROWTH
        if current > ceiling:
            return ("fail",
                    f"{name}: {current:g} grew more than "
                    f"{LATENCY_GROWTH:g}x over baseline {baseline:g}")
        return "ok", f"{name}: {current:g} vs baseline {baseline:g}"
    raise ValueError(f"unknown metric kind {kind!r}")


def compare_file(name: str, baseline_path: Path,
                 current_doc: dict | list) -> list[dict]:
    """Compare one fresh bench document; return one row per gated metric."""
    extractor = EXTRACTORS[name]
    baseline = extractor(
        json.loads(baseline_path.read_text(encoding="utf-8")))
    current = extractor(current_doc)
    unmeasurable = UNMEASURABLE.get(name, lambda doc: {})(current_doc)
    rows = []
    for metric, (baseline_value, kind) in sorted(baseline.items()):
        if metric in unmeasurable:
            rows.append({"file": name, "metric": metric, "status": "skipped",
                         "detail": f"{metric}: skipped, "
                                   f"{unmeasurable[metric]}"})
            continue
        if metric not in current:
            rows.append({"file": name, "metric": metric, "status": "fail",
                         "detail": f"{metric} missing from fresh measurement"})
            continue
        current_value, _ = current[metric]
        status, detail = _judge(metric, kind, baseline_value, current_value)
        rows.append({"file": name, "metric": metric, "kind": kind,
                     "baseline": round(baseline_value, 4),
                     "current": round(current_value, 4),
                     "status": status, "detail": detail})
    return rows


def run_compare(baseline_dir: Path, current_dir: Path, *,
                strict: bool = False,
                files: list[str] | None = None) -> dict:
    """Compare the known bench files; return the full report document.

    ``files`` restricts the comparison to a subset of bench file names —
    what ``repro bench <name>`` uses to gate a single fresh measurement.
    """
    rows: list[dict] = []
    provenance: dict[str, dict | None] = {}
    names = sorted(EXTRACTORS) if files is None else list(files)
    unknown = [name for name in names if name not in EXTRACTORS]
    if unknown:
        raise SystemExit(f"unknown bench file(s) {unknown}; known: "
                         f"{sorted(EXTRACTORS)}")
    for name in names:
        baseline_path = baseline_dir / name
        current_path = current_dir / name
        if not baseline_path.exists():
            rows.append({"file": name, "metric": "-", "status": "skipped",
                         "detail": f"no baseline at {baseline_path}"})
            continue
        if not current_path.exists():
            status = "fail" if strict else "skipped"
            rows.append({"file": name, "metric": "-", "status": status,
                         "detail": f"bench did not write {current_path}"})
            continue
        current_doc = json.loads(current_path.read_text(encoding="utf-8"))
        rows.extend(compare_file(name, baseline_path, current_doc))
        provenance[name] = (current_doc.get("provenance")
                            if isinstance(current_doc, dict) else None)
    failed = [row for row in rows if row["status"] == "fail"]
    return {
        "baseline_dir": str(baseline_dir),
        "current_dir": str(current_dir),
        "thresholds": {"throughput_drop": THROUGHPUT_DROP,
                       "latency_growth": LATENCY_GROWTH},
        "rows": rows,
        "provenance": provenance,
        "failures": len(failed),
        "status": "fail" if failed else "ok",
    }


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        description="Fail on benchmark regressions against committed "
                    "baselines.")
    parser.add_argument("--baseline-dir", type=Path,
                        default=Path("benchmarks/baselines"))
    parser.add_argument("--current-dir", type=Path, default=Path("."))
    parser.add_argument("--report", type=Path, default=None,
                        help="also write the comparison report as JSON here")
    parser.add_argument("--strict", action="store_true",
                        help="fail when a baselined bench file was not "
                             "produced by the current run")
    parser.add_argument("--files", nargs="+", default=None, metavar="NAME",
                        help="restrict the comparison to these bench file "
                             "names (default: all known files)")
    args = parser.parse_args(argv)

    report = run_compare(args.baseline_dir, args.current_dir,
                         strict=args.strict, files=args.files)
    for row in report["rows"]:
        marker = {"ok": " ok ", "fail": "FAIL", "skipped": "skip"}[row["status"]]
        print(f"[{marker}] {row['file']}: {row['detail']}")
    for name, stamp in report["provenance"].items():
        print(f"[prov] {name}: {json.dumps(stamp)}")
    print(f"=> {report['status']} "
          f"({report['failures']} regression(s) across "
          f"{len(report['rows'])} check(s))")
    if args.report is not None:
        args.report.write_text(json.dumps(report, indent=2),
                               encoding="utf-8")
        print(f"report written to {args.report}")
    return 1 if report["status"] == "fail" else 0


if __name__ == "__main__":
    sys.exit(main())
