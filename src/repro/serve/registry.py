"""Directory-backed model registry with lazy loading, LRU bound, hot reload.

A model directory is simply a folder of ``<name>.npz`` checkpoints written
by :func:`repro.serialize.save_checkpoint` (e.g. by ``repro train --save``
or ``repro run --save-dir``).  The registry lists models by reading only the
cheap checkpoint headers, deserialises a model's weights the first time a
request needs it, and keeps at most ``max_loaded`` models in memory,
evicting the least recently used — so a directory of many large models can
be served from a bounded footprint.  A loaded model's arrays are read-only
views into its checkpoint file's mapping
(:func:`repro.serialize.load_checkpoint`), so every process serving the
directory — the worker pool's included — shares one page-cache copy.

Checkpoints are also *live*: the continuous-learning loop rotates new
generations into the same file (:func:`repro.serialize.rotate_checkpoint`),
and :meth:`ModelRegistry.reload_stale` — polled by the background watcher
started with :meth:`ModelRegistry.start_hot_reload` — notices the newer
mtime, deserialises the new generation **off the request path**, and swaps
it in atomically.  Requests racing the swap keep using the old entry (whose
weights stay valid) or pick up the new one; the retired entry flows through
``on_evict`` so the serving layer shuts its micro-batcher down, and any
``model/<name>/...`` artifacts memoised in :mod:`repro.cache` are
invalidated.  The predict route never 5xxes during an update.
"""

from __future__ import annotations

import re
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from ..cache import get_cache
from ..exceptions import SerializationError, ServingError
from ..obs.logging import get_logger
from ..obs.metrics import get_registry
from ..serialize import load_checkpoint, read_checkpoint_header

__all__ = ["LoadedModel", "ModelRegistry", "servable_names"]

_LOG = get_logger("registry")

#: Model names the registry (and the HTTP predict route) accept: the stem
#: of the checkpoint file, no path separators, no leading dot.
_VALID_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


def servable_names(model_dir: str | Path) -> list[str]:
    """Sorted servable checkpoint names in ``model_dir``.

    The one definition of "what counts as a served model" — shared by the
    registry and by the worker-pool router, which must agree on the name
    set to shard it consistently.  Dot-prefixed sidecars (archived
    generations, AppleDouble files) are skipped.
    """
    return sorted(path.stem for path in Path(model_dir).glob("*.npz")
                  if _VALID_NAME.match(path.stem))


@dataclass(eq=False)
class LoadedModel:
    """A deserialised checkpoint: the model plus its header context.

    Compared (and hashed) by identity: every load produces a distinct
    entry, which is what lets the serving layer key per-load state (the
    micro-batcher) without ever confusing two loads of the same name.
    """

    name: str
    model: object
    header: dict
    path: Path
    #: File mtime at load time; the hot-reload watcher compares against the
    #: current file to detect a rotated-in newer generation.
    mtime_ns: int = 0

    @property
    def metadata(self) -> dict:
        """User metadata stored at save time (task, embedding, dataset...)."""
        return self.header.get("metadata", {})

    @property
    def generation(self) -> int:
        """Checkpoint generation stamped by ``rotate_checkpoint`` (0 if never)."""
        return int(self.metadata.get("generation", 0))

    @property
    def wal_applied(self) -> dict[str, int]:
        """Per-stream WAL watermark stamped by the durable ingestion path.

        Empty for checkpoints that never streamed through a write-ahead
        log; otherwise maps stream name to the last applied batch id.
        """
        stamped = self.metadata.get("wal_applied") or {}
        return {str(stream): int(batch_id)
                for stream, batch_id in stamped.items()}


class ModelRegistry:
    """Named checkpoints in a directory, loaded lazily, LRU-bounded.

    Thread-safe: the stdlib threading HTTP server calls :meth:`get` from
    many request threads; loads of the *same* model serialise while loads of
    different models proceed concurrently.  A loaded model stays resident
    (ignoring later changes to its file) until it falls out of the LRU or is
    explicitly evicted; ``on_evict`` is called with each entry leaving
    memory, which is how the serving layer retires the evicted model's
    micro-batcher instead of pinning the stale object forever.
    """

    def __init__(self, model_dir: str | Path, *, max_loaded: int = 4,
                 on_evict: Callable[[LoadedModel], None] | None = None
                 ) -> None:
        if max_loaded < 1:
            raise ServingError("max_loaded must be >= 1")
        self.model_dir = Path(model_dir)
        if not self.model_dir.is_dir():
            raise ServingError(f"model directory not found: {self.model_dir}")
        self.max_loaded = int(max_loaded)
        self.on_evict = on_evict
        self._loaded: OrderedDict[str, LoadedModel] = OrderedDict()
        self._lock = threading.Lock()
        self._load_locks: dict[str, threading.Lock] = {}
        self._watcher: threading.Thread | None = None
        self._watcher_stop = threading.Event()
        registry_obs = get_registry()
        self._m_load = registry_obs.histogram(
            "repro_checkpoint_load_seconds",
            "Checkpoint deserialisation time", ("model",))
        self._m_reloads = registry_obs.counter(
            "repro_reload_total", "Hot-reload generation swaps", ("model",))
        self._m_generation = registry_obs.gauge(
            "repro_reload_generation",
            "Generation of the resident checkpoint", ("model",))

    # ------------------------------------------------------------------
    def names(self) -> list[str]:
        """Sorted names of every servable checkpoint in the directory.

        Files whose stem is not a valid model name (dot-prefixed sidecar
        files, for example) are skipped rather than breaking the listing.
        """
        return servable_names(self.model_dir)

    def __contains__(self, name: str) -> bool:
        return self._path_for(name).exists()

    def __len__(self) -> int:
        return len(self.names())

    @property
    def loaded_names(self) -> list[str]:
        """Models currently resident in memory (LRU order, oldest first)."""
        with self._lock:
            return list(self._loaded)

    def describe(self) -> list[dict]:
        """One summary dict per model, from the headers only (cheap).

        A corrupt or foreign checkpoint yields an ``error`` row instead of
        failing the whole listing — one bad file must not hide the
        servable models.
        """
        rows = []
        with self._lock:
            resident = set(self._loaded)
        for name in self.names():
            try:
                header = read_checkpoint_header(self._path_for(name))
            except SerializationError as exc:
                rows.append({"name": name, "error": str(exc)})
                continue
            # Registry-computed keys come last so checkpoint metadata can
            # never shadow the name the predict route needs (or the class).
            rows.append({
                **header.get("metadata", {}),
                "name": name,
                "class": header.get("class"),
                "library_version": header.get("library_version"),
                "loaded": name in resident,
            })
        return rows

    def get(self, name: str) -> LoadedModel:
        """Return the loaded model for ``name``, deserialising on first use."""
        with self._lock:
            entry = self._loaded.get(name)
            if entry is not None:
                self._loaded.move_to_end(name)
                return entry
            load_lock = self._load_locks.setdefault(name, threading.Lock())
        try:
            with load_lock:
                with self._lock:
                    entry = self._loaded.get(name)
                    if entry is not None:
                        self._loaded.move_to_end(name)
                        return entry
                path = self._path_for(name)
                if not path.exists():
                    raise ServingError(
                        f"no model named {name!r} in {self.model_dir} "
                        f"(available: {self.names()})")
                # Stat before reading: if the file is replaced mid-load the
                # recorded mtime is older than the winner and the watcher
                # simply reloads once more.
                mtime_ns = path.stat().st_mtime_ns
                load_started = time.perf_counter()
                model = load_checkpoint(path)
                entry = LoadedModel(name=name, model=model,
                                    header=model.checkpoint_header_,
                                    path=path, mtime_ns=mtime_ns)
                self._m_load.observe(time.perf_counter() - load_started,
                                     model=name)
                self._m_generation.set(entry.generation, model=name)
                evicted: list[LoadedModel] = []
                with self._lock:
                    # Under eviction churn two loads of one name can race
                    # (the per-name lock is dropped between loads); treat a
                    # displaced earlier entry as evicted so its per-load
                    # state (the serving batcher) is retired, not leaked.
                    displaced = self._loaded.get(name)
                    if displaced is not None and displaced is not entry:
                        evicted.append(displaced)
                    self._loaded[name] = entry
                    self._loaded.move_to_end(name)
                    while len(self._loaded) > self.max_loaded:
                        evicted.append(self._loaded.popitem(last=False)[1])
                self._notify_evicted(evicted)
                return entry
        finally:
            with self._lock:
                self._load_locks.pop(name, None)

    def is_current(self, entry: LoadedModel) -> bool:
        """Is ``entry`` still the resident load for its name?"""
        with self._lock:
            return self._loaded.get(entry.name) is entry

    def evict(self, name: str) -> bool:
        """Drop ``name`` from memory (the checkpoint file stays); was it loaded?"""
        with self._lock:
            entry = self._loaded.pop(name, None)
        if entry is not None:
            self._notify_evicted([entry])
        return entry is not None

    # ------------------------------------------------------------------
    # hot reload
    # ------------------------------------------------------------------
    def reload_stale(self) -> list[str]:
        """Swap in newer checkpoint generations; return the reloaded names.

        For every resident model whose file mtime changed since it was
        loaded, the new generation is deserialised *without holding the
        registry lock* (requests keep resolving the old entry meanwhile)
        and then swapped in atomically; the replaced entry is retired
        through ``on_evict`` exactly like an LRU eviction, and the model's
        ``model/<name>/`` cache namespace is invalidated.  A model whose
        file disappeared is evicted; a corrupt replacement file leaves the
        old (valid) weights serving.
        """
        with self._lock:
            snapshot = list(self._loaded.values())
        reloaded: list[str] = []
        for entry in snapshot:
            try:
                mtime_ns = entry.path.stat().st_mtime_ns
            except OSError:
                # Checkpoint removed: stop serving it from memory.
                _LOG.info("checkpoint_removed", model=entry.name)
                self.evict(entry.name)
                continue
            if mtime_ns == entry.mtime_ns:
                continue
            try:
                model = load_checkpoint(entry.path)
            except SerializationError as exc:
                # Never replace valid weights with a broken file; leave the
                # stale mtime unrecorded so the next poll retries.
                _LOG.warning("reload_skipped_corrupt", model=entry.name,
                             reason=str(exc))
                continue
            fresh = LoadedModel(name=entry.name, model=model,
                                header=model.checkpoint_header_,
                                path=entry.path, mtime_ns=mtime_ns)
            with self._lock:
                swapped = self._loaded.get(entry.name) is entry
                if swapped:
                    self._loaded[entry.name] = fresh
                # else: the entry was evicted or replaced while we loaded;
                # discard our load rather than fight the winner.
            if swapped:
                self._notify_evicted([entry])
                get_cache().invalidate_prefix(f"model/{entry.name}/")
                reloaded.append(entry.name)
                self._m_reloads.inc(model=entry.name)
                self._m_generation.set(fresh.generation, model=entry.name)
                _LOG.info("checkpoint_reloaded", model=entry.name,
                          generation=fresh.generation,
                          previous_generation=entry.generation)
        return reloaded

    def start_hot_reload(self, interval: float = 1.0) -> None:
        """Poll for newer checkpoint generations every ``interval`` seconds.

        The watcher is a daemon thread calling :meth:`reload_stale`, so
        deserialisation cost is paid off the request path.  Idempotent;
        :meth:`stop_hot_reload` stops it.
        """
        if interval <= 0:
            raise ServingError("hot-reload interval must be positive")
        with self._lock:
            if self._watcher is not None:
                return
            self._watcher_stop.clear()
            self._watcher = threading.Thread(
                target=self._watch, args=(float(interval),),
                name="repro-hot-reload", daemon=True)
            self._watcher.start()

    def stop_hot_reload(self) -> None:
        """Stop the hot-reload watcher thread (no-op when not running)."""
        with self._lock:
            watcher = self._watcher
            self._watcher = None
        if watcher is not None:
            self._watcher_stop.set()
            watcher.join()

    def _watch(self, interval: float) -> None:
        while not self._watcher_stop.wait(interval):
            try:
                self.reload_stale()
            except Exception:  # pragma: no cover - watchdog must survive
                pass

    # ------------------------------------------------------------------
    def _notify_evicted(self, entries: list[LoadedModel]) -> None:
        """Run the eviction hook outside the registry lock."""
        if self.on_evict is None:
            return
        for entry in entries:
            self.on_evict(entry)

    def _path_for(self, name: str) -> Path:
        if not _VALID_NAME.match(name):
            raise ServingError(f"invalid model name {name!r}")
        return self.model_dir / f"{name}.npz"
