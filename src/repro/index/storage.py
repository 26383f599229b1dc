"""Memory-mapped access to arrays inside an uncompressed checkpoint.

A repro checkpoint is an NPZ file — a zip archive of ``.npy`` members.
:func:`repro.serialize.save_checkpoint` writes every archive *stored*,
never deflated: each member's array data sits as a contiguous byte run
inside the file, so the kernel's page cache can serve it directly —
map the whole file once, expose each member as a zero-copy
:func:`numpy.frombuffer` view, and touch pages only when a query actually
reads them.  The single stored encoding costs ~5-8% more bytes than
deflate on trained models and indexes, and makes a checkpoint rotation
over 10x cheaper (~72-87 ms -> ~5 ms in the stream-ingest benchmark on a
2-core x86 box).  Deflated checkpoints written by earlier releases still
load through :func:`numpy.load`; only this mapping rejects them.

:class:`MappedArrays` is that map.  :class:`repro.index.IVFPQIndex` uses
it for its inverted lists — a million-vector corpus attaches in
milliseconds and only the probed cells' pages are ever faulted in, so
corpora larger than RAM serve fine.  The ``touched`` set records which
members have been materialised; the lazy-loading tests assert unprobed
cells never appear in it.

The member offsets come from the zip's own metadata (central directory
for the member list, each local file header for the exact data start) and
the array geometry from the standard ``.npy`` header, so any
numpy-written uncompressed NPZ works — no private format.
"""

from __future__ import annotations

import mmap
import struct
import zipfile
from pathlib import Path

import numpy as np
from numpy.lib import format as npy_format

from ..exceptions import VectorIndexError

__all__ = ["MappedArrays"]

#: Fixed portion of a zip local file header; the variable-length name and
#: extra field follow it, then the member's data.
_LOCAL_HEADER_SIZE = 30


class MappedArrays:
    """Read-only, lazily materialised views of an uncompressed NPZ's arrays.

    Opening parses only the zip directory and each member's ``.npy``
    header — no array data is read.  ``arrays[name]`` returns a cached
    zero-copy view backed by one shared file mapping; the OS pages data
    in on first access and may drop it again under memory pressure.

    The mapping holds an open file descriptor, so views stay valid even
    after the path is atomically replaced by a newer checkpoint
    generation (the descriptor pins the old inode) — exactly the
    guarantee hot rotation relies on.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        #: Member names whose views have been materialised (test hook for
        #: the lazy-loading guarantee).
        self.touched: set[str] = set()
        self._views: dict[str, np.ndarray] = {}
        self._members: dict[str, tuple[int, np.dtype, tuple[int, ...]]] = {}
        self._file = open(self.path, "rb")
        try:
            self._index_members()
            self._mmap = mmap.mmap(self._file.fileno(), 0,
                                   access=mmap.ACCESS_READ)
        except Exception:
            self._file.close()
            raise

    def _index_members(self) -> None:
        """Record ``(data_offset, dtype, shape)`` for every stored member."""
        with zipfile.ZipFile(self._file) as archive:
            for info in archive.infolist():
                if info.compress_type != zipfile.ZIP_STORED:
                    raise VectorIndexError(
                        f"{self.path.name}: member {info.filename!r} is "
                        "compressed; mmap-backed indexes need an "
                        "uncompressed checkpoint")
                # The central directory does not give the data offset
                # directly: skip the member's local header, whose
                # name/extra lengths can differ from the central copy.
                self._file.seek(info.header_offset)
                local = self._file.read(_LOCAL_HEADER_SIZE)
                name_len, extra_len = struct.unpack("<HH", local[26:30])
                data_start = (info.header_offset + _LOCAL_HEADER_SIZE
                              + name_len + extra_len)
                self._file.seek(data_start)
                version = npy_format.read_magic(self._file)
                if version == (1, 0):
                    shape, fortran, dtype = \
                        npy_format.read_array_header_1_0(self._file)
                else:
                    shape, fortran, dtype = \
                        npy_format.read_array_header_2_0(self._file)
                if fortran:
                    raise VectorIndexError(
                        f"{self.path.name}: member {info.filename!r} is "
                        "Fortran-ordered; checkpoints are C-ordered")
                name = info.filename
                if name.endswith(".npy"):
                    name = name[:-4]
                self._members[name] = (self._file.tell(), dtype, shape)

    def __contains__(self, name: str) -> bool:
        return name in self._members

    def names(self) -> list[str]:
        return list(self._members)

    def __getitem__(self, name: str) -> np.ndarray:
        view = self._views.get(name)
        if view is None:
            try:
                offset, dtype, shape = self._members[name]
            except KeyError:
                raise VectorIndexError(
                    f"{self.path.name} has no array {name!r}") from None
            count = int(np.prod(shape, dtype=np.int64))
            view = np.frombuffer(self._mmap, dtype=dtype, count=count,
                                 offset=offset).reshape(shape)
            self._views[name] = view
            self.touched.add(name)
        return view

    def close(self) -> None:
        """Release the mapping once no views reference it.

        If views handed out earlier are still alive the mapping cannot be
        torn down (``mmap`` refuses while buffers are exported); the file
        descriptor is released regardless and the mapping itself falls to
        garbage collection with the last view.
        """
        self._views.clear()
        if getattr(self, "_mmap", None) is not None:
            try:
                self._mmap.close()
            except BufferError:
                pass
            self._mmap = None
        if getattr(self, "_file", None) is not None:
            self._file.close()
            self._file = None

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass
