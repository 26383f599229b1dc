"""Load from one process: keep-alive HTTP clients and a ``repro serve`` child.

Two phases drive the server over ``CONNECTIONS`` keep-alive connections,
one thread each (never more than the machine's two cores):

* closed loop — each connection sends its next request as soon as the
  previous answer arrived; gives the throughput;
* open loop — requests are due on a fixed schedule regardless of answers;
  latency is timed from each request's due time, so a stall also charges
  the requests queued behind it, and the lateness of each send is kept as
  the generator's own health figure.

Request bodies are encoded before a phase starts, so the client spends its
CPU on sockets, not on JSON.
"""

from __future__ import annotations

import http.client
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

CONNECTIONS = 2

_PORT_LINE = re.compile(rb"on http://127\.0\.0\.1:(\d+)")


class Sample:
    """One request: index, due/sent/done clock readings, status, body."""

    __slots__ = ("index", "due", "sent", "done", "status", "body")

    def __init__(self, index: int, due: float, sent: float, done: float,
                 status: int, body: bytes) -> None:
        self.index, self.due, self.sent, self.done = index, due, sent, done
        self.status, self.body = status, body

    @property
    def latency(self) -> float:
        return self.done - self.due


class Client:
    """One keep-alive connection; reconnects after a transport error."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.conn: http.client.HTTPConnection | None = None

    def request(self, method: str, path: str, body: bytes | None = None,
                trace_id: str | None = None) -> tuple[int, bytes]:
        headers = {"Content-Type": "application/json"}
        if trace_id is not None:
            headers["X-Repro-Trace"] = trace_id
        if self.conn is None:
            self.conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                                   timeout=30)
        try:
            self.conn.request(method, path, body=body, headers=headers)
            response = self.conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            return 0, b""

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


def _run_threads(port: int, worker) -> None:
    clients = [Client(port) for _ in range(CONNECTIONS)]
    threads = [threading.Thread(target=worker, args=(client,))
               for client in clients]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        for client in clients:
            client.close()


def closed_loop(port: int, path: str, bodies, first: int,
                seconds: float) -> list[Sample]:
    """Back-to-back requests on every connection for ``seconds``.

    ``bodies(i)`` is the encoded body of request ``i``; indices continue
    from ``first`` so consecutive phases walk one request sequence.
    """
    samples: list[Sample] = []
    lock = threading.Lock()
    counter = [first]
    stop_at = time.perf_counter() + seconds

    def worker(client: Client) -> None:
        while True:
            with lock:
                index = counter[0]
                counter[0] += 1
            sent = time.perf_counter()
            if sent >= stop_at:
                return
            status, body = client.request("POST", path, bodies(index),
                                          trace_id=f"pb-{index}")
            done = time.perf_counter()
            with lock:
                samples.append(Sample(index, sent, sent, done, status, body))

    _run_threads(port, worker)
    samples.sort(key=lambda sample: sample.index)
    return samples


def open_loop(port: int, path: str, bodies, first: int, rate: float,
              seconds: float) -> list[Sample]:
    """Requests due every ``1/rate`` seconds, sent by whichever connection
    is free; latency counts from the due time."""
    samples: list[Sample] = []
    lock = threading.Lock()
    n_requests = int(rate * seconds)
    counter = [0]
    start = time.perf_counter() + 0.05

    def worker(client: Client) -> None:
        while True:
            with lock:
                slot = counter[0]
                counter[0] += 1
            if slot >= n_requests:
                return
            due = start + slot / rate
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            index = first + slot
            sent = time.perf_counter()
            status, body = client.request("POST", path, bodies(index),
                                          trace_id=f"pb-{index}")
            done = time.perf_counter()
            with lock:
                samples.append(Sample(index, due, sent, done, status, body))

    _run_threads(port, worker)
    samples.sort(key=lambda sample: sample.index)
    return samples


# ----------------------------------------------------------------------
class Server:
    """A ``repro serve`` child process on an ephemeral port.

    ``launcher`` replaces ``-m repro`` (the traced run starts the server
    through ``serve_traced.py``).  Output goes to a log file, never a pipe,
    so a chatty server cannot block on a full pipe.
    """

    def __init__(self, root: Path, model_dir: Path, log_path: Path,
                 launcher: list[str] | None = None) -> None:
        self.root = root
        self.model_dir = model_dir
        self.log_path = log_path
        self.launcher = launcher or ["-m", "repro"]
        self.proc: subprocess.Popen | None = None
        self.port: int | None = None

    def start(self) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        command = [sys.executable, *self.launcher, "serve", "--model-dir",
                   str(self.model_dir), "--host", "127.0.0.1", "--port", "0"]
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(command, cwd=self.root, env=env,
                                         stdout=log, stderr=log)

    def wait_port(self, timeout: float = 60.0) -> int:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            found = _PORT_LINE.search(self.log_path.read_bytes())
            if found:
                self.port = int(found.group(1))
                return self.port
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        raise RuntimeError(f"server did not start; log:\n"
                           f"{self.log_path.read_text(errors='replace')}")

    def rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        kb = int(re.search(r"VmRSS:\s+(\d+)", status).group(1))
        return kb / 1024.0

    def stop(self) -> None:
        """SIGTERM (the server's clean shutdown), then wait; kill if stuck."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc = None
