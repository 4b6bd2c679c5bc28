"""On-disk columnar relation storage for out-of-core partitioning.

A :class:`RelationStore` is a directory holding one relation as a
sequence of fixed-width <key, payload> chunks plus a JSON manifest:

.. code-block:: text

    store/
      MANIFEST.json          # layout, dtype, per-chunk checksums, sketch
      chunk-000000.bin       # uint32[2][n]: row 0 keys, row 1 payloads
      chunk-000001.bin
      ...

Chunks are raw little-endian buffers read and written through
``numpy.memmap``, so reading a chunk touches no more physical memory
than the pages actually scanned — the property the whole spill path is
built on.  The manifest is rewritten **atomically** (temp file +
``os.replace``) after every appended chunk, so a killed ingest leaves
a consistent prefix: every chunk named by the manifest is fully on
disk with a matching CRC-32, and any trailing partial chunk file is
simply not referenced (and is removed on the next open).

Payloads default to the tuple's *global* position in the relation —
exactly the virtual record ids VRID mode would append — so a chunked
scan reproduces the in-memory partitioner's payload column bit for
bit regardless of chunk boundaries.

The ingest pass also feeds a :class:`~repro.analysis.sketch.StreamSketch`
(HyperLogLog cardinality + Misra–Gries heavy hitters) recorded in the
manifest; the spill partitioner reads it back to warn when a heavy key
makes balanced partitioning impossible.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
import zlib
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.analysis.sketch import StreamSketch
from repro.errors import ConfigurationError, ReproError
from repro.workloads.relations import Relation

__all__ = [
    "ChunkMeta",
    "RelationStore",
    "StorageError",
    "fsync_dir",
    "write_json_atomic",
]

MANIFEST_NAME = "MANIFEST.json"
MANIFEST_VERSION = 1

#: default ingest granularity — 1 Mi tuples = 8 MiB per chunk
DEFAULT_CHUNK_TUPLES = 1 << 20


class StorageError(ReproError):
    """A storage-engine invariant failed (corruption, bad manifest)."""


def write_json_atomic(path: pathlib.Path, payload: dict) -> None:
    """Write ``payload`` as JSON via temp file + ``os.replace``.

    ``os.replace`` is atomic on POSIX, so readers (and crash recovery)
    see either the old manifest or the new one, never a torn write.
    The temp file is fsynced before the rename so the rename cannot be
    durably ordered ahead of the data it names.
    """
    path = pathlib.Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w") as handle:
        json.dump(payload, handle, indent=1)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def fsync_dir(path) -> None:
    """fsync a directory, making the entries created in or renamed
    into it durable — a file's own ``fsync`` does not cover its name,
    so a commit that names a new file needs this before it."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


@dataclasses.dataclass(frozen=True)
class ChunkMeta:
    """Manifest entry for one stored chunk (or one spill run file)."""

    file: str
    tuples: int
    crc32: int

    def to_dict(self) -> dict:
        """JSON-native manifest form."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ChunkMeta":
        return cls(
            file=str(data["file"]),
            tuples=int(data["tuples"]),
            crc32=int(data["crc32"]),
        )


class RelationStore:
    """A chunked, memory-mapped columnar relation on disk.

    Build one with :meth:`create` + :meth:`append_chunk` (streaming
    ingest), or in one call with :meth:`ingest`; reopen an existing
    directory with :meth:`open`.  Chunk reads come back as read-only
    ``numpy.memmap`` views.

    Args are internal — use the classmethods.
    """

    def __init__(
        self,
        path: pathlib.Path,
        chunk_tuples: int,
        tuple_bytes: int,
        chunks: List[ChunkMeta],
        sketch: Optional[StreamSketch],
        meta: dict,
        writable: bool,
    ):
        self.path = pathlib.Path(path)
        self.chunk_tuples = chunk_tuples
        self.tuple_bytes = tuple_bytes
        self.chunks = chunks
        self.sketch = sketch
        #: free-form manifest metadata (e.g. the radix/partitioner
        #: config this relation is staged for)
        self.meta = meta
        self._writable = writable

    # -- construction ---------------------------------------------------

    @classmethod
    def create(
        cls,
        path,
        chunk_tuples: int = DEFAULT_CHUNK_TUPLES,
        tuple_bytes: int = 8,
        sketch: bool = True,
        sketch_precision: int = 12,
        meta: Optional[dict] = None,
    ) -> "RelationStore":
        """Create an empty store directory (must not already hold one)."""
        if chunk_tuples < 1:
            raise ConfigurationError(
                f"chunk_tuples must be >= 1, got {chunk_tuples}"
            )
        path = pathlib.Path(path)
        path.mkdir(parents=True, exist_ok=True)
        if (path / MANIFEST_NAME).exists():
            raise StorageError(f"{path} already holds a relation store")
        store = cls(
            path=path,
            chunk_tuples=int(chunk_tuples),
            tuple_bytes=int(tuple_bytes),
            chunks=[],
            sketch=(
                StreamSketch(precision=sketch_precision) if sketch else None
            ),
            meta=dict(meta or {}),
            writable=True,
        )
        store._write_manifest()
        return store

    @classmethod
    def ingest(
        cls,
        relation: "Relation | np.ndarray",
        path,
        payloads: Optional[np.ndarray] = None,
        chunk_tuples: int = DEFAULT_CHUNK_TUPLES,
        **create_kwargs,
    ) -> "RelationStore":
        """Write a whole relation into a new store, chunk by chunk."""
        if isinstance(relation, Relation):
            keys, payloads = relation.keys, relation.payloads
            create_kwargs.setdefault("tuple_bytes", relation.tuple_bytes)
        else:
            keys = np.ascontiguousarray(relation, dtype=np.uint32)
        store = cls.create(path, chunk_tuples=chunk_tuples, **create_kwargs)
        n = int(keys.shape[0])
        for lo in range(0, n, chunk_tuples):
            hi = min(n, lo + chunk_tuples)
            store.append_chunk(
                keys[lo:hi],
                payloads[lo:hi] if payloads is not None else None,
            )
        return store

    @classmethod
    def open(cls, path) -> "RelationStore":
        """Open an existing store read-only; drops unreferenced chunk
        files left behind by a killed ingest."""
        path = pathlib.Path(path)
        manifest_path = path / MANIFEST_NAME
        if not manifest_path.exists():
            raise StorageError(f"no {MANIFEST_NAME} in {path}")
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        if manifest.get("version") != MANIFEST_VERSION:
            raise StorageError(
                f"unsupported manifest version {manifest.get('version')!r}"
            )
        chunks = [ChunkMeta.from_dict(c) for c in manifest["chunks"]]
        referenced = {chunk.file for chunk in chunks}
        for stray in sorted(path.glob("chunk-*.bin")):
            if stray.name not in referenced:
                stray.unlink()
        return cls(
            path=path,
            chunk_tuples=int(manifest["chunk_tuples"]),
            tuple_bytes=int(manifest["tuple_bytes"]),
            chunks=chunks,
            sketch=StreamSketch.from_dict(manifest.get("sketch")),
            meta=dict(manifest.get("meta", {})),
            writable=False,
        )

    # -- writing --------------------------------------------------------

    def append_chunk(
        self, keys: np.ndarray, payloads: Optional[np.ndarray] = None
    ) -> ChunkMeta:
        """Append one chunk; commits it to the manifest atomically.

        ``payloads=None`` assigns global positions (the VRID payload
        column).  Returns the committed :class:`ChunkMeta`.
        """
        if not self._writable:
            raise StorageError("store was opened read-only")
        keys = np.ascontiguousarray(keys, dtype=np.uint32)
        n = int(keys.shape[0])
        if n == 0:
            raise ConfigurationError("cannot append an empty chunk")
        if payloads is None:
            offset = self.num_tuples
            payloads = np.arange(
                offset, offset + n, dtype=np.uint32
            )
        else:
            payloads = np.ascontiguousarray(payloads, dtype=np.uint32)
            if payloads.shape != keys.shape:
                raise ConfigurationError("keys and payloads must align")
        name = f"chunk-{len(self.chunks):06d}.bin"
        file_path = self.path / name
        mm = np.memmap(
            file_path, dtype=np.uint32, mode="w+", shape=(2, n)
        )
        mm[0] = keys
        mm[1] = payloads
        mm.flush()
        crc = zlib.crc32(mm.tobytes())
        del mm
        if self.sketch is not None:
            self.sketch.add(keys)
        meta = ChunkMeta(file=name, tuples=n, crc32=crc)
        self.chunks.append(meta)
        self._write_manifest()
        return meta

    def _write_manifest(self) -> None:
        write_json_atomic(
            self.path / MANIFEST_NAME,
            {
                "version": MANIFEST_VERSION,
                "chunk_tuples": self.chunk_tuples,
                "tuple_bytes": self.tuple_bytes,
                "dtype": "uint32",
                "num_tuples": self.num_tuples,
                "chunks": [chunk.to_dict() for chunk in self.chunks],
                "sketch": (
                    self.sketch.to_dict() if self.sketch is not None else None
                ),
                "meta": self.meta,
            },
        )

    def seal(self, **meta) -> "RelationStore":
        """Attach final metadata (e.g. the radix config) and freeze."""
        if meta:
            self.meta.update(meta)
            self._write_manifest()
        self._writable = False
        return self

    # -- reading --------------------------------------------------------

    @property
    def num_chunks(self) -> int:
        return len(self.chunks)

    @property
    def num_tuples(self) -> int:
        return sum(chunk.tuples for chunk in self.chunks)

    @property
    def total_bytes(self) -> int:
        """Bytes of stored key+payload columns (excludes the manifest)."""
        return self.num_tuples * 8

    def chunk(self, index: int) -> Tuple[np.ndarray, np.ndarray]:
        """(keys, payloads) of one chunk as read-only memmap views."""
        meta = self.chunks[index]
        mm = np.memmap(
            self.path / meta.file,
            dtype=np.uint32,
            mode="r",
            shape=(2, meta.tuples),
        )
        return mm[0], mm[1]

    def chunk_offset(self, index: int) -> int:
        """Global tuple offset of chunk ``index``'s first tuple."""
        return sum(chunk.tuples for chunk in self.chunks[:index])

    def iter_chunks(
        self,
    ) -> Iterator[Tuple[int, int, np.ndarray, np.ndarray]]:
        """Yield ``(index, global_offset, keys, payloads)`` per chunk."""
        offset = 0
        for index, meta in enumerate(self.chunks):
            keys, payloads = self.chunk(index)
            yield index, offset, keys, payloads
            offset += meta.tuples

    def verify(self) -> None:
        """Recompute every chunk CRC-32; raises :class:`StorageError`
        on any mismatch (bit rot, torn write, wrong-length file)."""
        for index, meta in enumerate(self.chunks):
            file_path = self.path / meta.file
            expected_bytes = 2 * meta.tuples * 4
            actual = file_path.stat().st_size if file_path.exists() else -1
            if actual != expected_bytes:
                raise StorageError(
                    f"chunk {index} ({meta.file}): expected "
                    f"{expected_bytes} bytes, found {actual}"
                )
            crc = zlib.crc32(file_path.read_bytes())
            if crc != meta.crc32:
                raise StorageError(
                    f"chunk {index} ({meta.file}): CRC-32 mismatch "
                    f"(manifest {meta.crc32:#010x}, disk {crc:#010x})"
                )

    def delete(self) -> None:
        """Remove the store directory and everything under it."""
        import shutil

        shutil.rmtree(self.path, ignore_errors=True)
