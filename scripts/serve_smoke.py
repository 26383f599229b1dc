"""Deterministic serving smoke test: train -> serve -> predict -> shutdown.

Replaces the CI shell loop of ``sleep``/``curl`` retries: this script
trains a small checkpoint, starts ``repro serve`` as a subprocess on an
ephemeral port (parsed from the server's startup line, so there are no
port collisions and no guessing), polls ``/healthz`` with a hard deadline,
asserts the shape of a real predict response, and **always** terminates
the server — including on assertion failure or timeout, so CI never leaks
an orphaned process holding the job open.

Both serving shapes are exercised: the single-process server (predict,
two searches with different ``k`` and tunables that must share the
index's one micro-batcher, ``/metrics``) and the ``--workers 2`` sharded
pool behind its router (predict, aggregated ``/metrics``).  In each, the Prometheus text
is validated line by line and the predict counter is asserted to have
actually incremented.  Each shape also runs an async job end to end
(``POST /v1/jobs`` -> poll -> ``result?format=csv`` -> dedup resubmit)
and asserts that legacy unversioned paths still answer — stamped with
the ``Deprecation``/``Link`` successor headers.

Usage::

    PYTHONPATH=src python scripts/serve_smoke.py [--timeout 60]

Exit status 0 on success; any failure prints the reason and exits 1.
"""

from __future__ import annotations

import argparse
import json
import queue
import re
import subprocess
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

_ADDRESS = re.compile(r"on http://([0-9.]+):(\d+)")


def _get_json(url: str, timeout: float = 5.0):
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.status, json.loads(response.read())


def _post_json(url: str, payload: dict, timeout: float = 10.0):
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.status, json.loads(response.read())


def _wait_for_address(server: subprocess.Popen,
                      deadline: float) -> tuple[str, int]:
    """Parse host/port from the server's startup line on stderr.

    The pipe is drained by a daemon thread so the deadline holds even when
    the server hangs *before* printing anything — a bare ``readline()``
    here would block past any timeout and leak the process in CI.
    """
    lines: queue.Queue[str | None] = queue.Queue()

    def drain() -> None:
        for line in server.stderr:
            lines.put(line)
        lines.put(None)  # EOF

    threading.Thread(target=drain, daemon=True).start()
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError("server never printed its listen address")
        try:
            line = lines.get(timeout=min(remaining, 0.5))
        except queue.Empty:
            if server.poll() is not None:
                raise RuntimeError(
                    f"server exited early with code {server.returncode}")
            continue
        if line is None:
            raise RuntimeError(
                f"server closed stderr without printing its address "
                f"(exit code {server.poll()})")
        print(f"[serve] {line.rstrip()}")
        match = _ADDRESS.search(line)
        if match:
            return match.group(1), int(match.group(2))


def _get_text(url: str, timeout: float = 5.0):
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.status, response.read().decode("utf-8")


def _check_metrics(base: str, label: str) -> None:
    """Scrape ``/metrics``: valid Prometheus text + an incremented counter."""
    from repro.obs.metrics import validate_prometheus_text

    status, text = _get_text(f"{base}/metrics")
    assert status == 200, f"{label}: /metrics answered {status}"
    samples = validate_prometheus_text(text)
    assert samples > 0, f"{label}: /metrics exposed no samples"

    status, snapshot = _get_json(f"{base}/metrics?format=json")
    assert status == 200, snapshot
    family = snapshot.get("repro_predict_requests_total", {})
    total = sum(series.get("value", 0) for series in family.get("series", []))
    assert total >= 1, \
        f"{label}: predict counter never incremented: {family}"
    print(f"metrics ok ({label}): {samples} samples, "
          f"predict_requests_total={int(total)}")


def _get_with_headers(url: str, timeout: float = 5.0):
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.status, dict(response.headers), response.read()


def _check_deprecation(base: str, label: str) -> None:
    """Legacy unprefixed paths still answer, stamped as deprecated."""
    status, headers, _ = _get_with_headers(f"{base}/healthz")
    assert status == 200, f"{label}: legacy /healthz answered {status}"
    assert headers.get("Deprecation") == "true", headers
    assert headers.get("Link") == \
        '</v1/healthz>; rel="successor-version"', headers
    print(f"deprecation headers ok ({label}): legacy /healthz points "
          f"at /v1/healthz")


#: One cell of table2 at test scale: real experiment, seconds of work.
_JOB_SPEC = {"experiment_id": "table2", "scale": "test",
             "datasets": ["webtables"], "embeddings": ["sbert"],
             "algorithms": ["kmeans"], "epochs": 2, "seed": 0}


def _check_jobs(base: str, label: str, deadline: float,
                seed: int = 0) -> None:
    """Submit a job, poll to completion, export CSV, assert dedup.

    ``seed`` varies the content-addressed job id between serving shapes —
    both share the model directory (and therefore the persisted job
    store), so reusing one spec would dedup against the earlier shape's
    completed job instead of executing.
    """
    spec = {**_JOB_SPEC, "seed": seed}
    status, job = _post_json(f"{base}/v1/jobs", spec)
    assert status in (200, 201), job
    job_id = job["id"]
    while True:
        if time.monotonic() >= deadline:
            raise TimeoutError(f"{label}: job {job_id} never completed")
        status, body = _get_json(f"{base}/v1/jobs/{job_id}")
        assert status == 200, body
        if body["status"] == "completed":
            break
        assert body["status"] in ("queued", "running"), body
        time.sleep(0.2)
    status, again = _post_json(f"{base}/v1/jobs", spec)
    assert status == 200 and again["id"] == job_id, \
        f"{label}: resubmission did not dedup: {again}"
    status, headers, payload = _get_with_headers(
        f"{base}/v1/jobs/{job_id}/result?format=csv")
    assert status == 200, f"{label}: result export answered {status}"
    assert headers.get("Content-Type", "").startswith("text/csv"), headers
    header_line = payload.decode("utf-8").splitlines()[0]
    assert header_line.startswith("Dataset,"), header_line
    print(f"jobs ok ({label}): {job_id} completed, deduped, "
          f"csv columns {header_line!r}")


def _wait_healthy(base: str, deadline: float) -> dict:
    last_error: Exception | None = None
    while time.monotonic() < deadline:
        try:
            status, body = _get_json(f"{base}/healthz", timeout=2.0)
            if status == 200 and body.get("status") == "ok":
                return body
        except (urllib.error.URLError, OSError, ValueError) as exc:
            last_error = exc
        time.sleep(0.1)
    raise TimeoutError(f"server never became healthy: {last_error}")


def main(argv: list[str] | None = None) -> int:
    """Run the smoke test; returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--timeout", type=float, default=90.0,
                        help="overall deadline in seconds (default: 90)")
    parser.add_argument("--model-dir", type=Path, default=None,
                        help="directory for the trained checkpoint "
                             "(default: a fresh temporary directory)")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + args.timeout

    model_dir = args.model_dir or Path(tempfile.mkdtemp(prefix="serve-smoke-"))
    model_dir.mkdir(parents=True, exist_ok=True)
    checkpoint = model_dir / "webtables.npz"

    train = subprocess.run(
        [sys.executable, "-m", "repro", "train", "schema_inference",
         "--dataset", "webtables", "--scale", "test", "--embedding", "sbert",
         "--algorithm", "kmeans", "--save", str(checkpoint),
         "--with-index", "ivf", "--format", "json"],
        capture_output=True, text=True, timeout=args.timeout)
    if train.returncode != 0:
        print(train.stdout)
        print(train.stderr, file=sys.stderr)
        print("FAIL: training the smoke checkpoint failed", file=sys.stderr)
        return 1
    print(f"trained {checkpoint}")

    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--model-dir", str(model_dir), "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        host, port = _wait_for_address(server, deadline)
        base = f"http://{host}:{port}"
        health = _wait_healthy(base, deadline)
        assert health["models"] >= 1, f"no models served: {health}"

        status, models = _get_json(f"{base}/models")
        assert status == 200 and any(
            entry.get("name") == "webtables" for entry in models), models

        status, body = _post_json(
            f"{base}/models/webtables/predict",
            {"items": [{"headers": ["name", "population", "country"]}]})
        assert status == 200, body
        assert body["n_items"] == 1 and len(body["labels"]) == 1, body
        assert all(isinstance(label, int) for label in body["labels"]), body
        print(f"predict ok: {body}")

        # Similarity search against the index trained alongside the model
        # (the directory serves exactly one index, so no name is needed).
        status, body = _post_json(
            f"{base}/search",
            {"items": [{"headers": ["name", "population", "country"]}],
             "k": 3})
        assert status == 200, body
        assert body["index"] == "webtables.index", body
        assert body["n_items"] == 1 and len(body["ids"][0]) == 3, body
        distances = body["distances"][0]
        assert distances == sorted(distances), body
        print(f"search ok: {body}")

        # Another k and a tunable join the index's one batcher as a
        # request key; they start no batcher of their own.
        status, body = _post_json(
            f"{base}/v1/search",
            {"items": [{"headers": ["name", "country"]}], "k": 5,
             "nprobe": 2})
        assert status == 200, body
        assert len(body["ids"][0]) == 5, body
        assert body["tunables"] == {"nprobe": 2}, body
        status, stats = _get_json(f"{base}/v1/stats")
        assert status == 200, stats
        index_batchers = {name: counters
                          for name, counters in stats["batchers"].items()
                          if name.startswith("webtables.index")}
        assert list(index_batchers) == ["webtables.index"], stats
        assert index_batchers["webtables.index"]["requests"] == 2, stats
        print(f"one index batcher ok: {index_batchers}")
        _check_metrics(base, "single server")
        _check_deprecation(base, "single server")
        _check_jobs(base, "single server", deadline)
    except Exception as exc:
        print(f"FAIL: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        server.terminate()
        try:
            server.wait(timeout=10)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()

    # Same checkpoint through the sharded pool: router /metrics must be
    # the workers' registries merged with the router's own.
    pool = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--model-dir", str(model_dir), "--port", "0", "--workers", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        host, port = _wait_for_address(pool, deadline)
        base = f"http://{host}:{port}"
        _wait_healthy(base, deadline)

        status, body = _post_json(
            f"{base}/models/webtables/predict",
            {"items": [{"headers": ["name", "population", "country"]}]})
        assert status == 200, body
        assert body["n_items"] == 1 and len(body["labels"]) == 1, body
        print(f"pool predict ok: {body}")
        _check_metrics(base, "2-worker pool")
        _check_deprecation(base, "2-worker pool")
        _check_jobs(base, "2-worker pool", deadline, seed=1)
        print("serve smoke test passed")
        return 0
    except Exception as exc:
        print(f"FAIL: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        pool.terminate()
        try:
            pool.wait(timeout=10)
        except subprocess.TimeoutExpired:
            pool.kill()
            pool.wait()


if __name__ == "__main__":
    sys.exit(main())
