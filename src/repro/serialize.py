"""Versioned NPZ checkpoints for trained clustering models.

A checkpoint is a single ``.npz`` file with two kinds of entries:

* ``__header__`` — a JSON document (stored as a zero-dimensional string
  array) carrying the format magic, the format version, the model class
  name, the library version, the model's JSON-able constructor/fitted
  parameters and free-form user metadata (task, dataset, embedding method,
  metrics, ...);
* ``array.<name>`` — one entry per numpy array of fitted state (centroids,
  auto-encoder weights, subspace bases, core samples, labels).

Arrays round-trip bit-identically (NPZ stores the raw little-endian buffer),
so a model reloaded in a fresh process reproduces ``predict`` exactly.
Writes are atomic *and durable*: the temp file is fsync'd before the
``os.replace`` and the containing directory is fsync'd after it, so a
serving process scanning a model directory never observes a partial
checkpoint — and a completed ``save_checkpoint`` survives power loss, not
just process death (the discipline the :mod:`repro.wal` journal builds on).

Models participate through three hooks — ``checkpoint_params()`` (JSON-able
dict), ``checkpoint_arrays()`` (name -> ndarray) and the classmethod
``from_checkpoint(params, arrays)`` — and are resolved by class name through
:func:`checkpointable_classes`.  Anything malformed (truncated file, foreign
NPZ, unknown class, future format version) raises
:class:`~repro.exceptions.SerializationError`.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

import numpy as np

from ._version import __version__
from .exceptions import RetiredCheckpointError, SerializationError

__all__ = [
    "CHECKPOINT_MAGIC",
    "CHECKPOINT_VERSION",
    "SharedCheckpointStore",
    "attach_shared_checkpoint",
    "checkpoint_generations",
    "checkpointable_classes",
    "fsync_directory",
    "load_checkpoint",
    "read_checkpoint_header",
    "rotate_checkpoint",
    "save_checkpoint",
]

#: Identifies a file as a repro checkpoint (vs an arbitrary NPZ).
CHECKPOINT_MAGIC = "repro-checkpoint"
#: Current checkpoint format version; readers reject anything newer.
CHECKPOINT_VERSION = 1

_ARRAY_PREFIX = "array."


def checkpointable_classes() -> dict[str, type]:
    """Mapping of checkpointable class names to their classes.

    Imported lazily so that :mod:`repro.serialize` itself stays import-light
    and the model modules never need to import this one (no cycles).
    Besides the clustering models this covers the :mod:`repro.index`
    vector indexes, so similarity-search indexes persist, hot-reload and
    rotate through exactly the same machinery as model checkpoints.
    """
    from .clustering import DBSCAN, Birch, KMeans
    from .dc import EDESC, SDCN, SHGP, Autoencoder, AutoencoderClustering
    from .index import FlatIndex, IVFIndex

    classes = {cls.__name__: cls
               for cls in (KMeans, Birch, DBSCAN, Autoencoder,
                           AutoencoderClustering, SDCN, EDESC, SHGP,
                           FlatIndex, IVFIndex)}
    # Headers written before the IVF variants merged into one class.
    classes.update(IVFFlatIndex=IVFIndex, IVFPQIndex=IVFIndex)
    return classes


def _lazy_member_prefix(cls) -> str | None:
    """NPZ member prefix of a class's lazily loaded arrays (or None).

    Classes that store data meant to be memory-mapped in place (the
    IVF inverted lists) declare ``lazy_array_prefix``; loaders skip
    those ``array.<prefix>*`` members and call ``model.attach_store(path)``
    after reconstruction instead of materialising them.
    """
    prefix = getattr(cls, "lazy_array_prefix", None) if cls else None
    return f"{_ARRAY_PREFIX}{prefix}" if prefix else None


def fsync_directory(path: str | Path) -> None:
    """Flush a directory's entry table to stable storage.

    ``os.replace`` makes a rename atomic but not durable: after a power
    loss the directory may still hold the old entry unless the directory
    itself is fsync'd.  Filesystems that refuse ``fsync`` on a directory
    handle (some network/overlay mounts) are tolerated silently — they
    offer no stronger primitive to fall back to.
    """
    try:
        fd = os.open(os.fspath(path), os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir-open
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - fs without dir-fsync
        pass
    finally:
        os.close(fd)


def _json_default(value):
    """Coerce numpy scalars hiding in params/metadata to JSON natives."""
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    raise TypeError(
        f"checkpoint params/metadata must be JSON-able, got {type(value).__name__}")


def save_checkpoint(path: str | Path, model, *,
                    metadata: dict | None = None) -> Path:
    """Write ``model`` (a fitted clusterer) to ``path`` as an NPZ checkpoint.

    ``metadata`` is free-form JSON-able context stored in the header —
    the serving layer reads ``task`` and ``embedding`` from it to embed raw
    items before prediction.  Returns the destination path.
    """
    classes = checkpointable_classes()
    cls_name = type(model).__name__
    if classes.get(cls_name) is not type(model):
        raise SerializationError(
            f"cannot checkpoint object of type {cls_name!r}; expected one of "
            f"{sorted(classes)}")
    try:
        params = model.checkpoint_params()
        arrays = model.checkpoint_arrays()
    except AttributeError as exc:  # pragma: no cover - registry guards this
        raise SerializationError(
            f"{cls_name} does not implement the checkpoint protocol") from exc

    header = {
        "magic": CHECKPOINT_MAGIC,
        "version": CHECKPOINT_VERSION,
        "class": cls_name,
        "library_version": __version__,
        "params": params,
        "metadata": dict(metadata or {}),
    }
    try:
        header_json = json.dumps(header, sort_keys=True, default=_json_default)
    except TypeError as exc:
        raise SerializationError(str(exc)) from exc

    payload: dict[str, np.ndarray] = {}
    for name, value in arrays.items():
        array = np.asarray(value)
        if array.dtype == object:
            raise SerializationError(
                f"array {name!r} of {cls_name} has dtype=object; checkpoints "
                "store numeric arrays only")
        payload[f"{_ARRAY_PREFIX}{name}"] = array

    destination = Path(path)
    destination.parent.mkdir(parents=True, exist_ok=True)
    # Atomic write so concurrent readers (the model registry) never see a
    # partially written checkpoint; fsync file-then-directory so a completed
    # save is durable across power loss, not merely process death.
    # Members are stored, never deflated: a stored zip member is a
    # contiguous byte run the OS can page straight from the file (see
    # repro.index.storage), and skipping zlib makes a rotation over 10x
    # cheaper for ~5-8% more bytes.
    handle, tmp_name = tempfile.mkstemp(dir=destination.parent, suffix=".tmp")
    try:
        with os.fdopen(handle, "wb") as tmp:
            np.savez(tmp, __header__=np.asarray(header_json), **payload)
            tmp.flush()
            os.fsync(tmp.fileno())
        os.replace(tmp_name, destination)
        fsync_directory(destination.parent)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise
    return destination


def _generation_glob(path: Path) -> str:
    """Glob pattern matching the archived generations of ``path``.

    Archives are dot-prefixed (``.{stem}.gen000123.npz``) so the serving
    registry's ``*.npz`` listing — which rejects dot-prefixed stems — never
    mistakes an old generation for a servable model.
    """
    return f".{path.stem}.gen*{path.suffix}"


def checkpoint_generations(path: str | Path) -> list[Path]:
    """Archived generations of checkpoint ``path``, oldest first.

    The live checkpoint itself (``path``) is not included; an empty list
    means the checkpoint has never been rotated (or does not exist).
    """
    source = Path(path)
    return sorted(source.parent.glob(_generation_glob(source)))


def rotate_checkpoint(path: str | Path, model, *, metadata: dict | None = None,
                      keep: int = 3) -> Path:
    """Write ``model`` as the next *generation* of checkpoint ``path``.

    The continuous-learning write path: the current file (if any) is first
    preserved as a dot-prefixed archive via a hard link (falling back to a
    copy across filesystems), then the new generation atomically replaces
    ``path`` — a reader polling the file (the hot-reload watcher) sees
    either the old complete checkpoint or the new complete checkpoint,
    never a gap and never a partial file.  ``metadata["generation"]`` is
    stamped automatically (one past the current file's generation).  At
    most ``keep`` archived generations are retained, oldest pruned first;
    ``keep=0`` archives nothing.  Returns the destination path.
    """
    if keep < 0:
        raise SerializationError("keep must be >= 0")
    destination = Path(path)
    generation = 0
    if destination.exists():
        try:
            header = read_checkpoint_header(destination)
            generation = int(header.get("metadata", {}).get("generation", 0)) + 1
        except SerializationError:
            # A foreign/corrupt file at the destination: replace it, but
            # do not archive garbage.
            generation = 1
        else:
            if keep > 0:
                archive = destination.parent / \
                    f".{destination.stem}.gen{generation - 1:06d}{destination.suffix}"
                try:
                    os.link(destination, archive)
                except OSError:
                    import shutil
                    shutil.copy2(destination, archive)
    stamped = dict(metadata or {})
    stamped["generation"] = generation
    save_checkpoint(destination, model, metadata=stamped)
    archives = checkpoint_generations(destination)
    for stale in archives[:max(0, len(archives) - keep)]:
        try:
            stale.unlink()
        except OSError:  # pragma: no cover - concurrent prune
            pass
    return destination


def _load_header(payload, path: Path) -> dict:
    if "__header__" not in payload:
        raise SerializationError(
            f"{path} is not a repro checkpoint (missing header entry)")
    try:
        header = json.loads(str(payload["__header__"][()]))
    except (json.JSONDecodeError, ValueError) as exc:
        raise SerializationError(f"{path} has a corrupt header: {exc}") from exc
    if not isinstance(header, dict) or header.get("magic") != CHECKPOINT_MAGIC:
        raise SerializationError(
            f"{path} is not a repro checkpoint (bad magic)")
    version = header.get("version")
    if version != CHECKPOINT_VERSION:
        raise SerializationError(
            f"{path} uses checkpoint format version {version!r}; this build "
            f"reads version {CHECKPOINT_VERSION} — re-save the model with "
            "a matching repro release")
    if "class" not in header or "params" not in header:
        raise SerializationError(f"{path} has an incomplete header")
    return header


def read_checkpoint_header(path: str | Path) -> dict:
    """Read and validate only the header of a checkpoint (cheap).

    The model registry uses this to list models without deserialising their
    weights.  Raises :class:`SerializationError` for anything that is not a
    valid checkpoint of the current format version.
    """
    source = Path(path)
    if not source.exists():
        raise SerializationError(f"checkpoint not found: {source}")
    try:
        with np.load(source, allow_pickle=False) as payload:
            return _load_header(payload, source)
    except SerializationError:
        raise
    except Exception as exc:  # zipfile.BadZipFile, OSError, KeyError, ...
        raise SerializationError(
            f"cannot read checkpoint {source}: {exc}") from exc


def load_checkpoint(path: str | Path):
    """Reconstruct the fitted model stored at ``path``.

    Returns the model instance; its header (including user metadata) is
    attached as ``model.checkpoint_header_`` for callers that need the
    training context (the serving layer reads task/embedding from it).
    """
    source = Path(path)
    if not source.exists():
        raise SerializationError(f"checkpoint not found: {source}")
    classes = checkpointable_classes()
    try:
        with np.load(source, allow_pickle=False) as payload:
            header = _load_header(payload, source)
            # Resolve the class *before* touching arrays so its lazy
            # members (mmap-served inverted lists) are never materialised.
            skip = _lazy_member_prefix(classes.get(header["class"]))
            arrays = {name[len(_ARRAY_PREFIX):]: payload[name]
                      for name in payload.files
                      if name.startswith(_ARRAY_PREFIX)
                      and not (skip and name.startswith(skip))}
    except SerializationError:
        raise
    except Exception as exc:
        raise SerializationError(
            f"cannot read checkpoint {source}: {exc}") from exc

    if header["class"] == "HNSWIndex":
        raise RetiredCheckpointError(
            f"{source} stores an 'HNSWIndex': the HNSW index backend was "
            "removed; rebuild the index with backend 'ivf'")
    cls = classes.get(header["class"])
    if cls is None:
        raise SerializationError(
            f"{source} stores a {header['class']!r} model, which this build "
            f"does not know how to load (expected one of {sorted(classes)})")
    try:
        model = cls.from_checkpoint(header["params"], arrays)
        if skip is not None:
            model.attach_store(source)
    except SerializationError:
        raise
    except Exception as exc:
        raise SerializationError(
            f"checkpoint {source} is inconsistent for class "
            f"{header['class']}: {exc}") from exc
    model.checkpoint_header_ = header
    return model


# ---------------------------------------------------------------------------
# Shared-memory-backed checkpoint loading (the pre-fork serving pool).
#
# A pool of N worker processes serving one model directory would otherwise
# hold N private copies of every checkpoint's arrays.  The parent instead
# loads each checkpoint's arrays once into ``multiprocessing.shared_memory``
# segments *before* forking and hands the workers a JSON-able manifest
# (path -> mtime + per-array segment name/dtype/shape); a worker's registry
# attaches the segments and rebuilds the model on zero-copy, read-only
# views.  A checkpoint rotated after boot no longer matches its manifest
# mtime and silently falls back to an ordinary disk load, so hot reload
# keeps working — shared memory is a boot-time dedup, not a cache layer.


class _MappedSegment:
    """Read-only ``mmap`` of a POSIX shared-memory segment.

    Duck-types the one attribute attachment needs (``buf``) without going
    through :class:`multiprocessing.shared_memory.SharedMemory`, whose
    attach path registers the segment with the *shared* resource-tracker
    process — N workers attaching the same name dedupe in the tracker's
    set, so their balanced unregisters race into KeyError noise (and on
    Python < 3.13 a worker exit could even unlink the parent's segment).
    A plain mapping of ``/dev/shm/<name>`` has no lifetime side effects
    at all: the parent alone owns creation and unlinking.
    """

    def __init__(self, path) -> None:
        import mmap

        with open(path, "rb") as handle:
            self._map = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        self.buf = memoryview(self._map)


def _attach_segment(name: str):
    """Attach an existing shared-memory segment without owning its lifetime."""
    shm_path = Path("/dev/shm") / name
    if shm_path.exists():
        return _MappedSegment(shm_path)
    # Non-Linux fallback: the stdlib attach.  3.13+ has track=False for
    # exactly this use; older versions need the unregister dance (which
    # can still produce harmless tracker noise across many workers).
    from multiprocessing import shared_memory

    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # pragma: no cover - Python < 3.13, non-Linux
        segment = shared_memory.SharedMemory(name=name)
        try:
            from multiprocessing import resource_tracker
            resource_tracker.unregister(segment._name, "shared_memory")
        except Exception:
            pass
        return segment


class SharedCheckpointStore:
    """Parent-side owner of shared-memory copies of checkpoint arrays.

    ``share(path)`` loads one checkpoint's arrays into fresh segments;
    ``share_directory(model_dir)`` sweeps every servable checkpoint.  The
    resulting :attr:`manifest` is picklable and travels to the workers
    (fork, forkserver or spawn — workers attach by segment name either
    way).  The store must outlive the workers; ``close()`` unlinks every
    segment.  Checkpoints that cannot be shared (unreadable, empty) are
    skipped rather than failing the boot — sharing is an optimisation,
    never a correctness requirement.
    """

    def __init__(self, prefix: str = "repro-ckpt") -> None:
        self.prefix = prefix
        self.manifest: dict[str, dict] = {}
        self._segments: list = []
        self._counter = 0

    def share(self, path: str | Path) -> bool:
        """Load ``path``'s arrays into shared memory; was it shared?"""
        from multiprocessing import shared_memory

        source = Path(path).resolve()
        try:
            with np.load(source, allow_pickle=False) as payload:
                header = _load_header(payload, source)
                # Lazy members stay on disk: every worker mmaps the same
                # file, so the page cache already dedups them — copying
                # them into /dev/shm would *add* a resident copy.
                skip = _lazy_member_prefix(
                    checkpointable_classes().get(header.get("class")))
                arrays = {name[len(_ARRAY_PREFIX):]: payload[name]
                          for name in payload.files
                          if name.startswith(_ARRAY_PREFIX)
                          and not (skip and name.startswith(skip))}
            mtime_ns = source.stat().st_mtime_ns
        except Exception:  # corrupt/foreign/unreadable: worker loads privately
            return False
        entries: dict[str, dict] = {}
        created: list = []
        try:
            for name, array in arrays.items():
                array = np.ascontiguousarray(array)
                spec = {"dtype": array.dtype.str,
                        "shape": [int(dim) for dim in array.shape]}
                if array.nbytes == 0:
                    # A zero-byte segment is invalid; the shape+dtype alone
                    # reconstruct an empty array exactly.
                    spec["empty"] = True
                else:
                    self._counter += 1
                    segment = shared_memory.SharedMemory(
                        create=True, size=array.nbytes,
                        name=f"{self.prefix}-{os.getpid()}-{self._counter}")
                    created.append(segment)
                    view = np.ndarray(array.shape, dtype=array.dtype,
                                      buffer=segment.buf)
                    view[...] = array
                    spec["segment"] = segment.name
                entries[name] = spec
        except OSError:
            # /dev/shm full or unavailable: roll back this checkpoint's
            # segments and serve it from per-worker private copies instead.
            for segment in created:
                segment.close()
                try:
                    segment.unlink()
                except OSError:  # pragma: no cover - already gone
                    pass
            return False
        self._segments.extend(created)
        self.manifest[str(source)] = {"mtime_ns": mtime_ns,
                                      "header": header, "arrays": entries}
        return True

    def share_directory(self, model_dir: str | Path) -> list[str]:
        """Share every servable ``*.npz`` checkpoint in ``model_dir``."""
        shared = []
        for path in sorted(Path(model_dir).glob("*.npz")):
            if path.stem.startswith("."):
                continue
            if self.share(path):
                shared.append(path.stem)
        return shared

    @property
    def nbytes(self) -> int:
        """Total bytes resident in shared segments."""
        return sum(segment.size for segment in self._segments)

    def close(self, *, unlink: bool = True) -> None:
        """Detach (and by default destroy) every owned segment."""
        segments, self._segments = self._segments, []
        self.manifest.clear()
        for segment in segments:
            try:
                segment.close()
                if unlink:
                    segment.unlink()
            except OSError:  # pragma: no cover - concurrent shutdown
                pass

    def __enter__(self) -> "SharedCheckpointStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


#: Worker-side attachments, keyed by segment name.  The arrays handed to
#: ``from_checkpoint`` are views into these buffers, so the SharedMemory
#: objects must stay referenced for as long as any model might.
_ATTACHED_SEGMENTS: dict[str, object] = {}


def attach_shared_checkpoint(path: str | Path, manifest: dict):
    """Rebuild the model at ``path`` from a shared-memory manifest.

    Returns the model (its arrays zero-copy, read-only views into the
    parent's segments) or ``None`` when the checkpoint is not in the
    manifest, was rotated since the manifest was built (mtime mismatch),
    or cannot be attached — callers fall back to :func:`load_checkpoint`.
    A model whose ``from_checkpoint`` insists on writable arrays gets
    private copies of just those arrays rather than failing.
    """
    source = Path(path).resolve()
    entry = manifest.get(str(source))
    if entry is None:
        return None
    try:
        if source.stat().st_mtime_ns != entry["mtime_ns"]:
            return None
    except OSError:
        return None
    header = entry["header"]
    cls = checkpointable_classes().get(header.get("class"))
    if cls is None:
        return None
    arrays: dict[str, np.ndarray] = {}
    try:
        for name, spec in entry["arrays"].items():
            dtype = np.dtype(spec["dtype"])
            shape = tuple(spec["shape"])
            if spec.get("empty"):
                arrays[name] = np.empty(shape, dtype=dtype)
                continue
            segment = _ATTACHED_SEGMENTS.get(spec["segment"])
            if segment is None:
                segment = _attach_segment(spec["segment"])
                _ATTACHED_SEGMENTS[spec["segment"]] = segment
            view = np.ndarray(shape, dtype=dtype, buffer=segment.buf)
            view.flags.writeable = False
            arrays[name] = view
    except (OSError, ValueError, FileNotFoundError):
        return None
    try:
        model = cls.from_checkpoint(header["params"], arrays)
    except ValueError:
        # from_checkpoint mutates its arrays (read-only views reject the
        # write): hand it private copies — correctness over sharing.
        try:
            model = cls.from_checkpoint(
                header["params"],
                {name: np.array(array) for name, array in arrays.items()})
        except Exception:
            return None
    except Exception:
        return None
    if _lazy_member_prefix(cls) is not None:
        # The shared segments cover only the eager arrays; lazy members
        # (mmap-served cells) attach from the checkpoint file itself.
        try:
            model.attach_store(source)
        except Exception:
            return None
    model.checkpoint_header_ = header
    return model
