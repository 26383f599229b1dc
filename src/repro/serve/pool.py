"""Pre-fork worker pool: N serving processes behind one router.

One :class:`~repro.serve.http.ReproHTTPServer` runs every request thread
under a single GIL, so its micro-batched throughput is one core's.  The
pool escapes that ceiling the way SafarDB shards state across replicated
executors: N worker processes each run the full single-process serving
stack (registry, micro-batchers, hot reload) on an ephemeral port, and the
front router (:mod:`repro.serve.router`) forwards each request to the
worker that owns its model's shard.

Design points:

* **Sharding is a routing policy, not a partition.**  ``shard_for(name,
  n)`` maps a model name to its *primary* worker, so in steady state each
  worker's LRU holds only its shard's models.  But every worker can load
  every checkpoint (the model directory is shared), which is what lets the
  router fail a read over to a sibling when the primary dies — no shard is
  ever lost with the primary.
* **Checkpoints are shared, not copied.**  A worker's registry loads a
  checkpoint as read-only views into the file's memory mapping
  (:func:`repro.serialize.load_checkpoint`), so the kernel page cache
  holds one copy of the weights for N workers — and keeps sharing after
  a hot reload, since every worker maps the same new generation.
* **Recovery runs once, before fork.**  ``wal_dir`` triggers
  :func:`repro.wal.recover_model_dir` in the parent; workers are started
  with recovery already done, so N processes never race to replay the
  same journal.
* **Workers are supervised.**  A daemon thread respawns any worker whose
  process died (SIGKILL chaos included); the router retries idempotent
  reads on siblings while the respawn is in flight.

Workers are started with the ``forkserver`` method when available (the
supervisor respawns from a threaded parent, where raw ``fork`` can
deadlock) and ``spawn`` otherwise; ``REPRO_POOL_START_METHOD`` overrides.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
import zlib
from dataclasses import dataclass
from pathlib import Path

from ..exceptions import ServingError
from ..obs.logging import get_logger, set_log_context
from ..obs.metrics import get_registry

__all__ = ["WorkerConfig", "WorkerPool", "shard_for"]

#: How long a worker may take to bind its port and report ready.
_READY_TIMEOUT = 30.0
#: Supervisor poll cadence for dead-worker detection.
_SUPERVISE_INTERVAL = 0.1

_LOG = get_logger("pool")


def shard_for(name: str, n_workers: int) -> int:
    """Primary worker index for a model/index name.

    CRC32 is stable across processes and Python versions (unlike
    ``hash``, which is salted per process) — the router and any future
    external client agree on the mapping.
    """
    if n_workers < 1:
        raise ServingError("n_workers must be >= 1")
    return zlib.crc32(name.encode("utf-8")) % n_workers


@dataclass
class WorkerConfig:
    """Everything a worker process needs to build its serving stack.

    Picklable: travels to the child under fork, forkserver *and* spawn.
    """

    model_dir: str
    index: int
    host: str = "127.0.0.1"
    max_loaded: int = 4
    max_batch_rows: int = 256
    max_delay: float = 0.002
    reload_interval: float | None = None


def _worker_main(config: WorkerConfig, conn) -> None:
    """Worker process entry point: serve until SIGTERM.

    Reports ``("ready", port)`` or ``("error", message)`` over ``conn``
    exactly once, then serves forever.  SIGTERM triggers a graceful
    shutdown (in-flight requests finish); SIGINT is ignored so a ^C at
    the parent's terminal doesn't kill workers before the pool's own
    orderly stop does.
    """
    from .http import create_server

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # Stamp worker identity onto every structured log record this
    # process emits, so pool-wide stderr is attributable per worker.
    set_log_context(worker=config.index)
    try:
        server = create_server(
            config.model_dir, host=config.host, port=0,
            max_loaded=config.max_loaded,
            max_batch_rows=config.max_batch_rows,
            max_delay=config.max_delay,
            reload_interval=config.reload_interval,
            identity={"worker": config.index, "pid": os.getpid()},
            # The router owns the pool's single JobManager: jobs handled
            # per-shard would fragment the content-addressed dedup.
            jobs=False)
    except Exception as exc:
        conn.send(("error", f"{type(exc).__name__}: {exc}"))
        conn.close()
        return

    def _terminate(signum, frame):
        # shutdown() blocks until serve_forever exits; calling it from
        # the signal frame (inside serve_forever) would deadlock.
        threading.Thread(target=server.shutdown, daemon=True).start()

    signal.signal(signal.SIGTERM, _terminate)
    conn.send(("ready", server.server_address[1]))
    conn.close()
    try:
        server.serve_forever(poll_interval=0.05)
    finally:
        server.server_close()


@dataclass
class _WorkerSlot:
    """Parent-side view of one worker process."""

    index: int
    process: object = None
    port: int | None = None
    restarts: int = 0


class WorkerPool:
    """Start, supervise and stop N serving worker processes.

    The pool owns the boot-order invariant (WAL recovery before fork)
    and the respawn loop; request routing lives in
    :class:`repro.serve.router.PoolRouter`, which reads worker addresses
    through :meth:`address_of`.

    ``kill_worker`` is the chaos hook the load harness uses: SIGKILL one
    worker and let the supervisor prove the respawn path.
    """

    def __init__(self, model_dir: str | Path, *, n_workers: int,
                 host: str = "127.0.0.1", max_loaded: int = 4,
                 max_batch_rows: int = 256, max_delay: float = 0.002,
                 reload_interval: float | None = None,
                 wal_dir: str | Path | None = None,
                 start_method: str | None = None) -> None:
        if n_workers < 1:
            raise ServingError("n_workers must be >= 1")
        self.model_dir = Path(model_dir)
        if not self.model_dir.is_dir():
            raise ServingError(f"model directory not found: {self.model_dir}")
        self.n_workers = int(n_workers)
        self.host = host
        self.wal_dir = wal_dir
        self._config_kwargs = dict(
            max_loaded=max_loaded, max_batch_rows=max_batch_rows,
            max_delay=max_delay, reload_interval=reload_interval)
        self._context = multiprocessing.get_context(
            _resolve_start_method(start_method))
        self._slots = [_WorkerSlot(index=i) for i in range(self.n_workers)]
        self._lock = threading.Lock()
        self._stopping = threading.Event()
        self._supervisor: threading.Thread | None = None
        self._started = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Recover, fork, and wait for every worker to bind."""
        if self._started:
            raise ServingError("pool already started")
        # Boot-order invariant: WAL recovery happens exactly once, in
        # the parent, before any worker exists — N workers must never
        # race to replay the same journal.
        if self.wal_dir is not None:
            from ..wal import recover_model_dir

            recover_model_dir(self.model_dir, self.wal_dir)
        self._started = True
        try:
            for slot in self._slots:
                self._spawn(slot)
        except Exception:
            self.stop()
            raise
        self._supervisor = threading.Thread(
            target=self._supervise, name="repro-pool-supervisor", daemon=True)
        self._supervisor.start()

    def _spawn(self, slot: _WorkerSlot) -> None:
        """Start (or restart) the worker in ``slot``; block until ready."""
        config = WorkerConfig(
            model_dir=str(self.model_dir), index=slot.index, host=self.host,
            **self._config_kwargs)
        parent_conn, child_conn = self._context.Pipe(duplex=False)
        process = self._context.Process(
            target=_worker_main, args=(config, child_conn),
            name=f"repro-pool-worker-{slot.index}", daemon=True)
        process.start()
        child_conn.close()
        try:
            if not parent_conn.poll(_READY_TIMEOUT):
                raise ServingError(
                    f"worker {slot.index} did not report ready within "
                    f"{_READY_TIMEOUT}s")
            status, value = parent_conn.recv()
        except (EOFError, OSError) as exc:
            process.terminate()
            raise ServingError(
                f"worker {slot.index} died during startup") from exc
        finally:
            parent_conn.close()
        if status != "ready":
            process.join(timeout=5.0)
            _LOG.error("worker_start_failed", worker=slot.index,
                       reason=str(value))
            raise ServingError(f"worker {slot.index} failed to start: {value}")
        with self._lock:
            slot.process = process
            slot.port = int(value)
        _LOG.info("worker_started", worker=slot.index, pid=process.pid,
                  port=int(value), restarts=slot.restarts)

    def _supervise(self) -> None:
        """Respawn any worker whose process died, until the pool stops."""
        respawns = get_registry().counter(
            "repro_pool_respawns_total",
            "Worker processes respawned by the supervisor", ("worker",))
        while not self._stopping.wait(_SUPERVISE_INTERVAL):
            for slot in self._slots:
                with self._lock:
                    process = slot.process
                if process is None or process.is_alive():
                    continue
                if self._stopping.is_set():
                    return
                with self._lock:
                    slot.port = None
                    slot.restarts += 1
                _LOG.warning("worker_died", worker=slot.index,
                             pid=process.pid, exitcode=process.exitcode,
                             restarts=slot.restarts)
                respawns.inc(worker=slot.index)
                try:
                    self._spawn(slot)
                except ServingError as exc:  # pragma: no cover - next tick
                    _LOG.error("worker_respawn_failed", worker=slot.index,
                               reason=str(exc))
                    continue

    # ------------------------------------------------------------------
    def address_of(self, index: int) -> tuple[str, int] | None:
        """``(host, port)`` of a live worker, or ``None`` while it is down."""
        slot = self._slots[index]
        with self._lock:
            process, port = slot.process, slot.port
        if process is None or port is None or not process.is_alive():
            return None
        return (self.host, port)

    def note_dead(self, index: int) -> None:
        """Router hint: drop the cached port so callers stop targeting it.

        The supervisor notices the dead process on its own within one
        poll interval; this just shortens the window in which other
        request threads keep dialling a dead port.
        """
        slot = self._slots[index]
        with self._lock:
            process = slot.process
            if process is not None and not process.is_alive():
                slot.port = None

    def kill_worker(self, index: int) -> int | None:
        """SIGKILL one worker (chaos hook); returns the killed pid."""
        slot = self._slots[index]
        with self._lock:
            process = slot.process
        if process is None or not process.is_alive():
            return None
        pid = process.pid
        os.kill(pid, signal.SIGKILL)
        return pid

    def wait_all_ready(self, timeout: float = 30.0) -> bool:
        """Block until every worker has a live port (after chaos)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if all(self.address_of(i) is not None
                   for i in range(self.n_workers)):
                return True
            time.sleep(0.02)
        return False

    @property
    def restarts(self) -> list[int]:
        """Per-worker respawn counts (chaos/test observability)."""
        with self._lock:
            return [slot.restarts for slot in self._slots]

    def describe(self) -> list[dict]:
        """One status row per worker for the router's health payload."""
        rows = []
        for slot in self._slots:
            with self._lock:
                process, port = slot.process, slot.port
            alive = process is not None and process.is_alive()
            rows.append({"worker": slot.index, "alive": alive,
                         "port": port if alive else None,
                         "pid": process.pid if alive else None,
                         "restarts": slot.restarts})
        return rows

    # ------------------------------------------------------------------
    def stop(self) -> None:
        """Terminate every worker."""
        self._stopping.set()
        supervisor = self._supervisor
        self._supervisor = None
        if supervisor is not None:
            supervisor.join(timeout=5.0)
        for slot in self._slots:
            with self._lock:
                process = slot.process
                slot.process = None
                slot.port = None
            if process is None:
                continue
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)
            if process.is_alive():  # pragma: no cover - stuck worker
                process.kill()
                process.join(timeout=5.0)

    def __enter__(self) -> "WorkerPool":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def _resolve_start_method(requested: str | None) -> str:
    """Pick the multiprocessing start method for pool workers.

    ``forkserver`` by default: workers are respawned from the parent's
    supervisor *thread*, where raw ``fork`` can deadlock on locks held by
    other threads at fork time.  ``spawn`` is the portable fallback;
    ``REPRO_POOL_START_METHOD`` (or the ``start_method`` argument)
    overrides for debugging.
    """
    choice = requested or os.environ.get("REPRO_POOL_START_METHOD")
    available = multiprocessing.get_all_start_methods()
    if choice:
        if choice not in available:
            raise ServingError(
                f"start method {choice!r} not available (have: {available})")
        return choice
    return "forkserver" if "forkserver" in available else "spawn"
