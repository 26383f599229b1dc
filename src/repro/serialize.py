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
Every member is written *stored* with its array data 64-byte aligned, and
:func:`load_checkpoint` reads it back through one file mapping
(:class:`repro.index.storage.MappedArrays`): ``from_checkpoint`` receives
zero-copy read-only views, so processes serving the same file share one
page-cache copy of its weights.  Deflated files written by earlier
releases are read by :func:`numpy.load` instead.
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
from .exceptions import (
    RetiredCheckpointError,
    SerializationError,
    VectorIndexError,
)

__all__ = [
    "CHECKPOINT_MAGIC",
    "CHECKPOINT_VERSION",
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

    from .index.storage import write_aligned_npz

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
            write_aligned_npz(
                tmp, {"__header__": np.asarray(header_json), **payload})
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


def _open_members(source: Path):
    """The validated header and the members of the checkpoint at ``source``.

    A stored file — every file this release writes — is mapped
    (:class:`repro.index.storage.MappedArrays`).  A file with deflated
    members, written before checkpoints were stored, is opened with
    :func:`numpy.load`, its only reader.  Either way ``members`` is a
    lazy mapping from member name to array, with a ``close()``.
    """
    from .index.storage import MappedArrays

    if not source.exists():
        raise SerializationError(f"checkpoint not found: {source}")
    try:
        try:
            members = MappedArrays(source)
        except VectorIndexError:  # a deflated member: cannot be mapped
            members = np.load(source, allow_pickle=False)
        try:
            return _load_header(members, source), members
        except BaseException:
            members.close()
            raise
    except SerializationError:
        raise
    except Exception as exc:  # zipfile.BadZipFile, OSError, KeyError, ...
        raise SerializationError(
            f"cannot read checkpoint {source}: {exc}") from exc


def read_checkpoint_header(path: str | Path) -> dict:
    """Read and validate only the header of a checkpoint (cheap).

    The model registry uses this to list models without deserialising their
    weights.  Raises :class:`SerializationError` for anything that is not a
    valid checkpoint of the current format version.
    """
    header, members = _open_members(Path(path))
    members.close()
    return header


def load_checkpoint(path: str | Path):
    """Reconstruct the fitted model stored at ``path``.

    Returns the model instance; its header (including user metadata) is
    attached as ``model.checkpoint_header_`` for callers that need the
    training context (the serving layer reads task/embedding from it).

    The model's arrays are read-only views into the file's mapping, so a
    model that updates its state must replace arrays, not write into
    them.  Every member read while building the model is checked against
    its zip CRC-32; members a model maps lazily (IVF lists) are paged in
    at query time instead.
    """
    from .index.storage import MappedArrays

    source = Path(path)
    header, members = _open_members(source)
    mapped = isinstance(members, MappedArrays)
    classes = checkpointable_classes()
    try:
        if header["class"] == "HNSWIndex":
            raise RetiredCheckpointError(
                f"{source} stores an 'HNSWIndex': the HNSW index backend "
                "was removed; rebuild the index with backend 'ivf'")
        cls = classes.get(header["class"])
        if cls is None:
            raise SerializationError(
                f"{source} stores a {header['class']!r} model, which this "
                "build does not know how to load (expected one of "
                f"{sorted(classes)})")
        if mapped:
            arrays = members.subset(_ARRAY_PREFIX)
        else:
            arrays = {name[len(_ARRAY_PREFIX):]: members[name]
                      for name in members.files
                      if name.startswith(_ARRAY_PREFIX)}
        model = cls.from_checkpoint(header["params"], arrays)
    except SerializationError:
        members.close()
        raise
    except Exception as exc:
        members.close()
        raise SerializationError(
            f"checkpoint {source} is inconsistent for class "
            f"{header['class']}: {exc}") from exc
    if mapped:
        members.verify_crc = False
    else:
        members.close()
    model.checkpoint_header_ = header
    return model
