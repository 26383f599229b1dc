"""Benchmark the continuous-learning path: incremental update vs full refit,
and predict availability across a checkpoint hot-swap.

Two claims make streaming ingestion worth shipping, and this bench measures
both into ``BENCH_stream.json`` (uploaded as a CI artifact and gated by
``benchmarks/compare_bench.py``):

* **incremental updates are far cheaper than refitting** — absorbing an
  arrival batch via ``partial_fit`` (KMeans) or warm-start fine-tuning
  (AE baseline) must be at least **5x** faster than refitting the model on
  the concatenated data, without losing assignment parity;
* **hot reload never drops a request** — a serving process whose checkpoint
  is rotated mid-traffic must answer every in-flight and subsequent predict
  with HTTP 200 (the registry swaps generations off the request path);
* **durability is affordable** — journaling every batch to the fsync'd
  write-ahead log (``repro stream --wal-dir``) must cost **< 10%** over
  the identical WAL-off ingest loop (the size-thresholded segment policy
  keeps it at one fsync per append in steady state).

The gated metrics are *same-machine ratios* (speedups, failure counts), so
the committed baselines transfer across hardware generations.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.request
from pathlib import Path

import numpy as np

from conftest import write_bench_json

from repro.clustering import KMeans
from repro.config import DeepClusteringConfig
from repro.dc import AutoencoderClustering
from repro.metrics import adjusted_rand_index
from repro.serialize import rotate_checkpoint, save_checkpoint
from repro.serve import create_server
from repro.stream import incremental_update

#: Where the streaming measurements land (repo root in CI).
_BENCH_JSON = Path("BENCH_stream.json")


def _merge_into_bench_json(section: str, payload: dict) -> dict:
    """Read-modify-write one section of the shared bench JSON."""
    document = {}
    if _BENCH_JSON.exists():
        document = json.loads(_BENCH_JSON.read_text(encoding="utf-8"))
    document[section] = payload
    write_bench_json(_BENCH_JSON, document)
    return document


def _blobs(n: int, *, dim: int = 64, k: int = 20, seed: int = 0) -> np.ndarray:
    """Well-separated Gaussian blobs; the centres are shared across seeds
    (only the noise draw varies), so an arrival batch comes from the same
    mixture as the initial fit."""
    centers = np.random.default_rng(99).normal(size=(k, dim)) * 4.0
    rng = np.random.default_rng(seed)
    per = n // k
    return np.vstack([c + rng.normal(size=(per, dim)) * 0.4 for c in centers])


def _timed(fn) -> tuple[object, float]:
    started = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - started


def test_incremental_update_beats_full_refit(benchmark):
    """partial_fit / warm-start must be >= 5x faster than refitting."""

    def run() -> dict:
        results = {}

        # KMeans at a benchmark-ish size: 4000 initial rows, 200 arrive.
        initial, batch = _blobs(4000, seed=1), _blobs(200, seed=2)
        stacked = np.vstack([initial, batch])
        model = KMeans(20, seed=0).fit(initial)
        refit, refit_s = _timed(lambda: KMeans(20, seed=0).fit(stacked))
        report, update_s = _timed(lambda: incremental_update(model, batch))
        update_s = max(update_s, 1e-9)
        parity = adjusted_rand_index(model.predict(stacked),
                                     refit.predict(stacked))
        results["kmeans"] = {
            "n_initial": int(initial.shape[0]),
            "n_batch": int(batch.shape[0]),
            "strategy": report.strategy,
            "refit_seconds": round(refit_s, 4),
            "update_seconds": round(update_s, 6),
            "speedup_vs_refit": round(refit_s / update_s, 2),
            "parity_ari_vs_refit": round(parity, 4),
        }

        # AE baseline: warm-start fine-tuning vs full re-(pre)training.
        config = DeepClusteringConfig(pretrain_epochs=10, train_epochs=0,
                                      layer_size=128, latent_dim=32, seed=0)
        ae_initial, ae_batch = _blobs(800, seed=3), _blobs(80, seed=4)
        ae_stacked = np.vstack([ae_initial, ae_batch])
        ae = AutoencoderClustering(20, clusterer="kmeans", config=config)
        ae.fit(ae_initial)
        _, ae_refit_s = _timed(
            lambda: AutoencoderClustering(20, clusterer="kmeans",
                                          config=config).fit(ae_stacked))
        ae_report, ae_update_s = _timed(
            lambda: incremental_update(ae, ae_batch, epochs=2))
        ae_update_s = max(ae_update_s, 1e-9)
        results["ae_kmeans"] = {
            "n_initial": int(ae_initial.shape[0]),
            "n_batch": int(ae_batch.shape[0]),
            "strategy": ae_report.strategy,
            "refit_seconds": round(ae_refit_s, 4),
            "update_seconds": round(ae_update_s, 4),
            "speedup_vs_refit": round(ae_refit_s / ae_update_s, 2),
        }

        results["min_speedup_vs_refit"] = min(
            entry["speedup_vs_refit"]
            for entry in results.values() if isinstance(entry, dict))
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    print("\nIncremental update vs full refit")
    print(json.dumps(results, indent=2))
    _merge_into_bench_json("update", results)

    assert results["min_speedup_vs_refit"] >= 5.0, results
    assert results["kmeans"]["parity_ari_vs_refit"] > 0.95, results


def test_hot_reload_keeps_predicts_available(benchmark, tmp_path):
    """Zero failed predicts while checkpoint generations swap under load."""
    dim, n_swaps, n_clients = 16, 5, 4
    X = _blobs(800, dim=dim, k=8, seed=5)
    path = tmp_path / "live.npz"
    save_checkpoint(path, KMeans(8, seed=0).fit(X),
                    metadata={"n_features": dim})

    def run() -> dict:
        server = create_server(tmp_path, port=0, reload_interval=0.02)
        host, port = server.server_address[:2]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        url = f"http://{host}:{port}/models/live/predict"
        stop = threading.Event()
        latencies: list[list[float]] = [[] for _ in range(n_clients)]
        failures: list[int] = [0] * n_clients
        counts: list[int] = [0] * n_clients

        def client(worker: int) -> None:
            body = json.dumps(
                {"vectors": [list(map(float, X[worker]))]}).encode()
            while not stop.is_set():
                request = urllib.request.Request(
                    url, data=body,
                    headers={"Content-Type": "application/json"})
                started = time.perf_counter()
                try:
                    with urllib.request.urlopen(request, timeout=10) as response:
                        ok = response.status == 200
                        json.loads(response.read())
                except Exception:
                    ok = False
                latencies[worker].append(time.perf_counter() - started)
                counts[worker] += 1
                if not ok:
                    failures[worker] += 1

        workers = [threading.Thread(target=client, args=(w,))
                   for w in range(n_clients)]
        for worker in workers:
            worker.start()
        try:
            for swap in range(n_swaps):
                time.sleep(0.15)
                rotate_checkpoint(
                    path, KMeans(8, seed=swap + 1).fit(X),
                    metadata={"n_features": dim})
            # Leave time for the watcher to pick up the last generation.
            time.sleep(0.15)
        finally:
            stop.set()
            for worker in workers:
                worker.join()
            generation = server.service.registry.get("live").generation
            server.shutdown()
            server.server_close()
            thread.join()

        flat = np.asarray([v for series in latencies for v in series]) * 1000.0
        return {
            "swaps": n_swaps,
            "clients": n_clients,
            "requests": int(sum(counts)),
            "failed_predicts": int(sum(failures)),
            "final_generation": int(generation),
            "p50_ms": round(float(np.percentile(flat, 50)), 3),
            "p99_ms": round(float(np.percentile(flat, 99)), 3),
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    print("\nPredict availability across checkpoint hot-swaps")
    print(json.dumps(results, indent=2))
    _merge_into_bench_json("hot_reload", results)

    assert results["failed_predicts"] == 0, results
    assert results["requests"] >= 100, results
    # The server really did serve several generations, not one.
    assert results["final_generation"] >= 1, results


def test_wal_ingest_overhead(benchmark, tmp_path):
    """Durable (WAL-on) ingest must stay within 10% of WAL-off ingest."""
    from repro.experiments.streaming import run_stream_scenario

    n_batches, trials = 6, 5

    def ingest(label: str, trial: int, use_wal: bool) -> float:
        workdir = tmp_path / f"{label}-{trial}"
        workdir.mkdir()
        kwargs = {"wal_dir": workdir / "wal"} if use_wal else {}
        started = time.perf_counter()
        run_stream_scenario("domain_discovery", dataset="camera",
                            embedding="sbert", algorithm="kmeans",
                            n_batches=n_batches, seed=0,
                            save_path=workdir / "m.npz", **kwargs)
        return time.perf_counter() - started

    def run() -> dict:
        ingest("warm", 0, use_wal=False)  # warm the embedding caches
        off = [ingest("off", trial, use_wal=False) for trial in range(trials)]
        on = [ingest("on", trial, use_wal=True) for trial in range(trials)]
        off_s = float(np.median(off))
        on_s = float(np.median(on))
        return {
            "n_batches": n_batches,
            "trials": trials,
            "wal_off_seconds": round(off_s, 4),
            "wal_on_seconds": round(on_s, 4),
            "wal_ingest_overhead": round(on_s / off_s, 4),
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    print("\nWAL-on vs WAL-off ingest overhead")
    print(json.dumps(results, indent=2))
    _merge_into_bench_json("wal", results)

    assert results["wal_ingest_overhead"] < 1.10, results
