"""Memory-mapped access to the arrays inside a stored checkpoint.

A repro checkpoint is an NPZ file — a zip archive of ``.npy`` members.
:func:`repro.serialize.save_checkpoint` writes it with
:func:`write_aligned_npz`: every member *stored*, never deflated, with
its array data 64-byte aligned in the file, so each member is a
contiguous byte run the kernel's page cache can serve directly.  Map the
whole file once, expose each member as a zero-copy read-only
:func:`numpy.frombuffer` view, and touch pages only when a reader
actually reads them.

:class:`MappedArrays` is that map, and the one way stored checkpoints are
read: :func:`repro.serialize.load_checkpoint` hands the views straight to
a model's ``from_checkpoint``.  N serving processes that load the same
file therefore share one page-cache copy of its weights, and keep sharing
across hot rotations (each generation is a new file, mapped afresh).
:class:`repro.index.IVFIndex` keeps the mapping after load for its
inverted lists — a million-vector corpus attaches in milliseconds and
only the pages holding probed cells' rows are ever faulted in, so
corpora larger than RAM serve fine.  The ``touched`` set records which
members have been materialised; the lazy-loading tests assert that a
load materialises no list member and a query only the lists.

Corruption is caught where ``zipfile`` would catch it: opening checks
that every member's bytes lie inside the file (a truncated file fails
at load, not on a later query), and while :attr:`MappedArrays.verify_crc`
is set each member is checked against its zip CRC-32 on first read.

Stored files written before members were aligned place them at
arbitrary byte offsets.  numpy hands only aligned operands to BLAS, so
for such a member a read returns an aligned private copy (read-only like
a view, and not cached, so it is freed with its reader).
Deflated checkpoints written by earlier releases cannot be mapped; this
class rejects them and :func:`numpy.load` reads them instead.

Checkpoint files are never modified in place — every write is a new file
atomically renamed over the old one — which is what makes mapping them
safe: a mapped file that shrank underneath its reader would fault.

The member offsets come from the zip's own metadata (central directory
for the member list, each local file header for the exact data start) and
the array geometry from the standard ``.npy`` header, so any
numpy-written uncompressed NPZ works — no private format.
"""

from __future__ import annotations

import io
import mmap
import struct
import zipfile
import zlib
from collections.abc import Iterator, Mapping
from pathlib import Path

import numpy as np
from numpy.lib import format as npy_format

from ..exceptions import SerializationError, VectorIndexError

__all__ = ["MappedArrays", "write_aligned_npz"]

#: Fixed portion of a zip local file header; the variable-length name and
#: extra field follow it, then the member's data.
_LOCAL_HEADER_SIZE = 30
_LOCAL_HEADER_MAGIC = b"PK\x03\x04"
#: The ZIP64 extra record ``force_zip64`` appends to a local header.
_ZIP64_RECORD_SIZE = 20
#: Byte boundary every member's array data starts on.  numpy hands only
#: aligned operands to BLAS, and 64 covers every dtype and SIMD width.
_MEMBER_ALIGN = 64
#: Extra-field id of the padding record (the one Android's zipalign
#: uses); zip readers skip extra records they do not know.
_PAD_RECORD_ID = 0xD935


def write_aligned_npz(file, members: dict[str, np.ndarray]) -> None:
    """Write ``members`` to ``file`` as a stored NPZ with aligned data.

    Each member's local header carries a padding record in its extra
    field, zipalign-style, so the member's ``.npy`` bytes start on a
    64-byte boundary; numpy pads the ``.npy`` header itself to a multiple
    of 64, so the array data that follows is aligned too.  Members are
    written the way :func:`numpy.savez` writes them (stored, ZIP64
    headers), so any zip reader, ``np.load`` included, reads the file.
    """
    with zipfile.ZipFile(file, "w", zipfile.ZIP_STORED,
                         allowZip64=True) as archive:
        for name, array in members.items():
            info = zipfile.ZipInfo(f"{name}.npy")
            data_start = (file.tell() + _LOCAL_HEADER_SIZE
                          + len(info.filename.encode("utf-8"))
                          + _ZIP64_RECORD_SIZE)
            pad = -data_start % _MEMBER_ALIGN
            if pad:
                if pad < 4:  # a record needs its 4-byte id + length
                    pad += _MEMBER_ALIGN
                info.extra = (struct.pack("<HH", _PAD_RECORD_ID, pad - 4)
                              + bytes(pad - 4))
            with archive.open(info, "w", force_zip64=True) as member:
                npy_format.write_array(member, array, allow_pickle=False)


class MappedArrays(Mapping):
    """Read-only, lazily materialised views of a stored NPZ's arrays.

    A mapping from member name (``.npy`` suffix dropped) to array.
    Opening parses only the zip directory and each member's local header
    — no array data is read.  ``arrays[name]`` parses the member's
    ``.npy`` header and returns a cached zero-copy view backed by one
    shared file mapping; the OS pages data in on first access and may
    drop it again under memory pressure.

    The mapping pins the file's inode, so views stay valid after the path
    is atomically replaced by a newer checkpoint generation — exactly the
    guarantee hot rotation relies on — and outlive this object: a view
    keeps the mapping alive for as long as it is referenced.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        #: Member names whose arrays have been materialised (test hook for
        #: the lazy-loading guarantee).
        self.touched: set[str] = set()
        #: Check each member's CRC-32 on first read.  The loader clears
        #: it once the model is built, so lazily paged members (IVF
        #: lists) are not read whole at query time.
        self.verify_crc = True
        self._views: dict[str, np.ndarray] = {}
        #: name -> (member data start, member size, CRC-32)
        self._members: dict[str, tuple[int, int, int]] = {}
        with open(self.path, "rb") as handle:
            with zipfile.ZipFile(handle) as archive:
                infos = archive.infolist()
            for info in infos:
                if info.compress_type != zipfile.ZIP_STORED:
                    raise VectorIndexError(
                        f"{self.path.name}: member {info.filename!r} is "
                        "compressed; only stored checkpoints can be mapped")
            self._mmap = mmap.mmap(handle.fileno(), 0,
                                   access=mmap.ACCESS_READ)
        try:
            for info in infos:
                self._index_member(info)
        except Exception:
            self.close()
            raise

    def _index_member(self, info: zipfile.ZipInfo) -> None:
        """Record where ``info``'s bytes start, and check they fit."""
        # The central directory does not give the data offset directly:
        # skip the member's local header, whose extra field (alignment
        # padding) differs from the central copy.
        offset, size = info.header_offset, len(self._mmap)
        fixed_end = offset + _LOCAL_HEADER_SIZE
        if fixed_end > size or \
                self._mmap[offset:offset + 4] != _LOCAL_HEADER_MAGIC:
            raise SerializationError(
                f"{self.path}: member {info.filename!r} has no local "
                "header (truncated or corrupt file)")
        name_len, extra_len = struct.unpack_from("<HH", self._mmap,
                                                 offset + 26)
        start = fixed_end + name_len + extra_len
        if start + info.file_size > size:
            raise SerializationError(
                f"{self.path}: member {info.filename!r} ends past the end "
                f"of the file ({start + info.file_size} > {size} bytes); "
                "the file is truncated")
        name = info.filename
        if name.endswith(".npy"):
            name = name[:-4]
        self._members[name] = (start, info.file_size, info.CRC)

    # ------------------------------------------------------------------
    # Mapping protocol (membership never materialises a member)
    def __contains__(self, name: object) -> bool:
        return name in self._members

    def __iter__(self) -> Iterator[str]:
        return iter(self._members)

    def __len__(self) -> int:
        return len(self._members)

    def __getitem__(self, name: str) -> np.ndarray:
        view = self._views.get(name)
        if view is not None:
            return view
        start, size, crc = self._members[name]
        if self.verify_crc and zlib.crc32(
                np.frombuffer(self._mmap, np.uint8, size, start)) != crc:
            raise SerializationError(
                f"{self.path}: Bad CRC-32 for member {name!r}; the file "
                "is corrupt")
        offset, dtype, shape, fortran = self._layout(name, start, size)
        count = int(np.prod(shape, dtype=np.int64))
        view = np.frombuffer(self._mmap, dtype=dtype, count=count,
                             offset=offset).reshape(
                                 shape, order="F" if fortran else "C")
        self.touched.add(name)
        if not view.flags.aligned:
            # Written before members were aligned: hand out a private
            # aligned copy, uncached so it is freed with its reader.
            view = view.copy(order="K")
            view.flags.writeable = False
            return view
        self._views[name] = view
        return view

    def _layout(self, name: str, start: int, size: int):
        """``(data offset, dtype, shape, fortran)`` from the .npy header."""
        try:
            major = self._mmap[start + 6]
            header_len = struct.unpack_from(
                "<H" if major == 1 else "<I", self._mmap, start + 8)[0]
            prefix = 10 if major == 1 else 12
            header = io.BytesIO(self._mmap[start:start + prefix + header_len])
            version = npy_format.read_magic(header)
            if version == (1, 0):
                shape, fortran, dtype = \
                    npy_format.read_array_header_1_0(header)
            else:
                shape, fortran, dtype = \
                    npy_format.read_array_header_2_0(header)
        except (ValueError, struct.error, IndexError) as exc:
            raise SerializationError(
                f"{self.path}: member {name!r} has a corrupt .npy header: "
                f"{exc}") from exc
        offset = start + prefix + header_len
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        if offset + nbytes > start + size:
            raise SerializationError(
                f"{self.path}: member {name!r} holds fewer bytes than its "
                "shape needs")
        return offset, dtype, shape, fortran

    def subset(self, prefix: str) -> "MappedSubset":
        """The members under ``prefix``, keyed with the prefix removed."""
        return MappedSubset(self, prefix)

    def close(self) -> None:
        """Release the mapping once no views reference it.

        If views handed out earlier are still alive the mapping cannot be
        torn down (``mmap`` refuses while buffers are exported); it then
        falls to garbage collection with the last view.
        """
        self._views.clear()
        if getattr(self, "_mmap", None) is not None:
            try:
                self._mmap.close()
            except BufferError:
                pass
            self._mmap = None

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass


class MappedSubset(Mapping):
    """The members of a :class:`MappedArrays` under one name prefix.

    What a model's ``from_checkpoint`` receives: the checkpoint's
    ``array.*`` members keyed by array name, each read lazily through the
    parent mapping.
    """

    def __init__(self, store: MappedArrays, prefix: str) -> None:
        self.store = store
        self.prefix = prefix

    def __getitem__(self, name: str) -> np.ndarray:
        return self.store[self.prefix + name]

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and self.prefix + name in self.store

    def __iter__(self) -> Iterator[str]:
        cut = len(self.prefix)
        return (name[cut:] for name in self.store
                if name.startswith(self.prefix))

    def __len__(self) -> int:
        return sum(1 for _ in self)
