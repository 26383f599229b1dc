"""Chaos/load tests for the sharded worker pool behind its router.

The three pool guarantees from the serving roadmap, proven from the
*client's* point of view with the load harness (``tests/loadharness.py``):

* zero failed predicts across a pool-wide checkpoint hot-reload;
* graceful 429s (with ``Retry-After``) when driven past capacity — no
  5xx, no connection resets;
* a SIGKILLed worker is respawned and its shard keeps answering through
  sibling failover in the meantime — no lost shard.

``REPRO_POOL_WORKERS`` sets the pool width (default 2; CI also runs 4).
``REPRO_POOL_REPORT`` names a JSON file to write the harness latency
reports into (the CI artifact).
"""

from __future__ import annotations

import json
import os
import sys
import time

import numpy as np
import pytest

from repro.clustering import KMeans
from repro.serialize import rotate_checkpoint, save_checkpoint
from repro.serve import shard_for
from loadharness import ChaosEvent, json_request, run_load

WORKERS = int(os.environ.get("REPRO_POOL_WORKERS", "2"))
MODEL_NAMES = ("alpha", "beta", "gamma", "delta")

#: Collected harness reports, written to $REPRO_POOL_REPORT at exit.
_REPORTS: dict[str, dict] = {}


@pytest.fixture(scope="session", autouse=True)
def _export_reports():
    yield
    target = os.environ.get("REPRO_POOL_REPORT")
    if target and _REPORTS:
        with open(target, "w", encoding="utf-8") as handle:
            json.dump({"workers": WORKERS, "reports": _REPORTS}, handle,
                      indent=2)


def _fitted(seed=0, dim=8, n=80, k=4):
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(k, dim)) * 6.0
    X = np.vstack([c + rng.normal(size=(n // k, dim)) for c in centers])
    return KMeans(k, seed=0).fit(X), X


@pytest.fixture()
def model_dir(tmp_path):
    for i, name in enumerate(MODEL_NAMES):
        model, _ = _fitted(seed=i)
        save_checkpoint(tmp_path / f"{name}.npz", model,
                        metadata={"n_features": 8})
    return tmp_path


def _post(port, path, payload):
    import urllib.request

    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=30) as response:
        return json.loads(response.read())


def _get(port, path):
    import urllib.request

    with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}",
                                timeout=30) as response:
        return json.loads(response.read())


def _predict_request(X):
    rows = X[:2].tolist()

    def make(i):
        name = MODEL_NAMES[i % len(MODEL_NAMES)]
        return json_request("POST", f"/models/{name}/predict",
                            {"vectors": rows})
    return make


# ----------------------------------------------------------------------
class TestPoolBasics:
    def test_shard_for_is_stable_and_total(self):
        # Stable across calls/processes (CRC32, not salted hash) and maps
        # every name to a valid worker.
        for n in (1, 2, 4, 7):
            for name in MODEL_NAMES:
                assert shard_for(name, n) == shard_for(name, n)
                assert 0 <= shard_for(name, n) < n
        # The documented mapping: CRC32 mod n, nothing process-dependent.
        import zlib
        assert shard_for("alpha", 4) == zlib.crc32(b"alpha") % 4

    def test_pool_serves_all_models_and_reports_workers(self, model_dir,
                                                        pool_server):
        _model, X = _fitted()
        router, port = pool_server(model_dir, workers=WORKERS)
        report = run_load(
            "127.0.0.1", port, clients=4, n_requests=24,
            make_request=_predict_request(X))
        assert report.n_failed == 0
        assert report.n_ok == 24
        # Health aggregates every worker with identity rows.
        health = run_load("127.0.0.1", port, clients=1, n_requests=1)
        assert health.n_failed == 0
        assert len(router.pool.describe()) == WORKERS
        assert all(row["alive"] for row in router.pool.describe())
        _REPORTS["basics"] = report.as_dict()


# ----------------------------------------------------------------------
class TestPoolHotReload:
    def test_zero_failed_predicts_across_pool_hot_reload(self, model_dir,
                                                         pool_server):
        """Rotate a checkpoint under full pool load: no client ever fails."""
        _model, X = _fitted()
        router, port = pool_server(model_dir, workers=WORKERS,
                                   reload_interval=0.05)
        target = model_dir / "alpha.npz"

        def rotate():
            rotate_checkpoint(target, KMeans(4, seed=99).fit(X),
                              metadata={"n_features": 8})
            return "rotated"

        report = run_load(
            "127.0.0.1", port, clients=8, duration=1.5,
            make_request=_predict_request(X),
            chaos=[ChaosEvent(name="rotate-alpha", at=0.5, action=rotate)])
        assert report.chaos[0].result == "rotated"
        assert report.n_failed == 0, report.as_dict()
        assert report.n_ok == report.n_requests  # no 429s at this load
        assert report.n_ok > 50

        # The shard owner really swapped the new generation in: its served
        # labels converge on what the rotated checkpoint predicts.
        from repro.serialize import load_checkpoint

        expected = [int(v) for v in load_checkpoint(target).predict(X[:8])]
        deadline = time.monotonic() + 10.0
        served = None
        while time.monotonic() < deadline:
            served = _post(port, "/models/alpha/predict",
                           {"vectors": X[:8].tolist()})["labels"]
            if served == expected:
                break
            time.sleep(0.05)
        assert served == expected
        _REPORTS["hot_reload"] = report.as_dict()


# ----------------------------------------------------------------------
class TestPoolBackpressure:
    def test_graceful_429s_at_twice_capacity(self, model_dir, pool_server):
        """Past admission capacity: 429 + Retry-After, never 5xx/resets."""
        import http.client
        import threading

        _model, X = _fitted()
        # max_inflight=1 and a long micro-batch linger make "full" easy to
        # hit deterministically: one in-flight request occupies a worker's
        # only slot for ~400ms.
        router, port = pool_server(model_dir, workers=WORKERS,
                                   max_inflight=1, max_delay=0.4)
        name = MODEL_NAMES[0]

        # Deterministic single collision first, to inspect the headers.
        holder_done = threading.Event()

        def holder():
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
            body = json.dumps({"vectors": X[:1].tolist()}).encode()
            conn.request("POST", f"/models/{name}/predict", body=body,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            response.read()
            assert response.status == 200
            conn.close()
            holder_done.set()

        thread = threading.Thread(target=holder, daemon=True)
        thread.start()
        time.sleep(0.1)  # the holder is now lingering in the micro-batch
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        body = json.dumps({"vectors": X[:1].tolist()}).encode()
        conn.request("POST", f"/models/{name}/predict", body=body,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        payload = response.read()
        assert response.status == 429, payload
        assert response.getheader("Retry-After") is not None
        assert b"capacity" in payload
        conn.close()
        assert holder_done.wait(30)

        # Now the load-shaped version: 2x capacity of concurrent clients.
        report = run_load(
            "127.0.0.1", port, clients=4 * WORKERS, duration=1.2,
            make_request=_predict_request(X))
        assert report.n_failed == 0, report.as_dict()
        assert report.n_rejected > 0  # backpressure engaged...
        assert report.n_ok > 0        # ...while real work still flowed
        assert report.transport_errors == 0
        _REPORTS["backpressure"] = report.as_dict()
        router.server_close()


# ----------------------------------------------------------------------
class TestPoolWorkerDeath:
    def test_sigkill_respawn_with_no_lost_shard(self, model_dir,
                                                pool_server):
        """SIGKILL a worker mid-load: siblings answer its shard, the
        supervisor respawns it, and no client sees a failure."""
        _model, X = _fitted()
        router, port = pool_server(model_dir, workers=WORKERS,
                                   max_inflight=64)
        pool = router.pool
        victim = shard_for(MODEL_NAMES[0], WORKERS)

        report = run_load(
            "127.0.0.1", port, clients=8, duration=2.0,
            make_request=_predict_request(X),
            chaos=[ChaosEvent(name="sigkill-worker", at=0.5,
                              action=lambda: pool.kill_worker(victim))])
        assert isinstance(report.chaos[0].result, int)  # a real pid died
        assert report.n_failed == 0, report.as_dict()
        assert report.n_ok > 50

        # The worker was respawned (no lost shard, no permanent hole).
        assert pool.wait_all_ready(30.0)
        assert pool.restarts[victim] >= 1
        # Every model -- including the dead worker's shard -- still serves.
        check = run_load("127.0.0.1", port, clients=2,
                         n_requests=2 * len(MODEL_NAMES),
                         make_request=_predict_request(X))
        assert check.n_failed == 0
        assert check.n_ok == 2 * len(MODEL_NAMES)
        # The outage was absorbed inside the router: with the victim's
        # shard under constant load, death shows up as retries/failover
        # counters, not as client-visible errors.
        stats = router.stats_snapshot()
        assert stats["retries"] + stats["failover"] > 0
        _REPORTS["worker_death"] = report.as_dict()


# ----------------------------------------------------------------------
def _mapped_inodes(pid: int) -> set[int]:
    """Inodes of the files mapped into process ``pid``."""
    with open(f"/proc/{pid}/maps", encoding="utf-8") as handle:
        return {int(fields[4]) for fields in map(str.split, handle)
                if len(fields) >= 6}


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads /proc/<pid>/maps, which only Linux has")
class TestPoolSharesCheckpointPages:
    def test_workers_map_the_live_checkpoint_across_rotation(
            self, model_dir, pool_server):
        """Every worker serves the checkpoint from the file's mapping —
        one page-cache copy for the pool — and maps the new generation
        after a hot rotation, instead of falling back to a private copy."""
        _model, X = _fitted()
        router, port = pool_server(model_dir, workers=WORKERS,
                                   reload_interval=0.05)
        target = model_dir / "alpha.npz"
        workers = _get(port, "/healthz")["workers"]
        assert len(workers) == WORKERS
        for row in workers:  # every worker loads alpha, not just its owner
            _post(row["port"], "/models/alpha/predict",
                  {"vectors": X[:2].tolist()})
        live = target.stat().st_ino
        for row in workers:
            assert live in _mapped_inodes(row["pid"]), row

        rotate_checkpoint(target, KMeans(4, seed=99).fit(X),
                          metadata={"n_features": 8})
        rotated = target.stat().st_ino
        assert rotated != live
        deadline = time.monotonic() + 10.0
        pending = [row["pid"] for row in workers]
        while pending and time.monotonic() < deadline:
            pending = [pid for pid in pending
                       if rotated not in _mapped_inodes(pid)]
            time.sleep(0.05)
        assert pending == [], "workers never mapped the rotated checkpoint"
