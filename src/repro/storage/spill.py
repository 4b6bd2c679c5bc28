"""Spill-to-disk partitioning: stream chunks, spill runs, merge, resume.

:class:`SpillPartitioner` partitions a stored relation far larger than
memory by streaming it chunk by chunk through one of the existing
in-memory backends (:class:`~repro.core.partitioner.FpgaPartitioner`
or :class:`~repro.cpu.partitioner.CpuPartitioner`, optionally on the
morsel engine) and appending each chunk's per-partition output to
per-partition **run files** on disk.  Because a stable partition sort
keeps tuples of one partition in input order, appending chunk outputs
in chunk order reproduces the in-memory result *byte for byte* — the
run files, once merged into the final contiguous partition files, hold
exactly what one giant in-memory ``partition()`` call would have
produced (pinned by ``tests/test_storage.py``).

Memory is bounded by ``max_bytes_in_memory``: chunk outputs buffer in
RAM and are flushed to the run files whenever the buffered bytes reach
the budget, so peak usage is ~one chunk plus the budget, independent
of relation size.

**Crash recovery.**  Every flush is a checkpoint: run-file appends are
fsynced, then the accumulated per-(partition, lane) histogram is
written to a fresh side file, then the run manifest is atomically
replaced to name both.  A killed run therefore leaves (a) a manifest
describing the last completed checkpoint and (b) possibly some bytes
appended past it; :meth:`SpillPartitioner.resume` truncates the run
files back to the committed offsets and redoes only the chunks after
``next_chunk``.  Fault injection reuses
:class:`~repro.service.degradation.FaultInjector` — a checkpointed
``check()`` before each chunk and before each commit lets tests kill a
run at any point, including *between* the data append and the manifest
commit (the torn-write case).

The accounting (counts, cache-line layout, byte traffic, padding) and
the PAD overflow policy come from the shared
:class:`~repro.core.pieces.Accounting` over the lane-exact global
histogram, so a spilled :class:`PartitionSpill` reports the same
numbers as the in-memory partitioner — overflow is detected at merge
time and handled per ``"raise"`` or ``"hist"`` (``"cpu"`` is
meaningless here since the spill path already runs in software).
"""

from __future__ import annotations

import json
import os
import pathlib
import zlib
from concurrent.futures import ThreadPoolExecutor
from typing import List, Optional, Tuple

import numpy as np

from repro.core.modes import PartitionerConfig
from repro.core.partitioner import PartitionedOutput
from repro.core.pieces import Accounting, Layout, PieceColumn, piece_config
from repro.errors import ConfigurationError
from repro.obs.tracing import resolve_tracer
from repro.storage.store import (
    RelationStore,
    StorageError,
    write_json_atomic,
)

__all__ = ["PartitionSpill", "SpillPartitioner"]

SPILL_MANIFEST_NAME = "SPILL_MANIFEST.json"
SPILL_MANIFEST_VERSION = 1

#: default in-memory buffering budget for chunk outputs (64 MiB)
DEFAULT_MAX_BYTES_IN_MEMORY = 64 << 20

_RUNS_DIR = "runs"
_PARTITIONS_DIR = "partitions"


class PartitionSpill:
    """Handle over a completed spill run's final partition files.

    Everything is lazy: constructing the handle reads only the
    manifest; :meth:`partition` memory-maps one partition's key and
    payload files on first touch.  :meth:`to_output` adapts the spill
    into a regular :class:`~repro.core.partitioner.PartitionedOutput`
    so joins (and anything else written against the in-memory shape)
    can build+probe directly from disk.
    """

    def __init__(self, path, manifest: dict):
        self.path = pathlib.Path(path)
        self._manifest = manifest
        layout = self.layout = Layout.from_dict(manifest)
        self.config = layout.config
        self.requested_config = layout.requested_config
        self.counts = layout.counts
        self.lines_per_partition = layout.lines_per_partition
        self.base_lines = layout.base_lines
        self.bytes_read = layout.bytes_read
        self.bytes_written = layout.bytes_written
        self.dummy_slots = layout.dummy_slots
        self.num_chunks = int(manifest["next_chunk"])

    @classmethod
    def open(cls, path) -> "PartitionSpill":
        """Open a completed run directory; refuses unfinished runs."""
        path = pathlib.Path(path)
        manifest = _read_manifest(path)
        if manifest["state"] != "complete":
            raise StorageError(
                f"spill run at {path} is {manifest['state']!r}, not "
                "complete; use SpillPartitioner.resume() to finish it"
            )
        return cls(path, manifest)

    # -- reading --------------------------------------------------------

    @property
    def num_partitions(self) -> int:
        return len(self.counts)

    @property
    def num_tuples(self) -> int:
        return int(self.counts.sum())

    @property
    def partitions_dir(self) -> pathlib.Path:
        return self.path / _PARTITIONS_DIR

    def _column(self, suffix: str) -> PieceColumn:
        """Lazy column memory-mapping one final partition file per
        access — touching one partition of a spilled terabyte costs one
        ``mmap``, not a read of the whole output."""

        def read(p: int) -> Optional[np.ndarray]:
            count = int(self.counts[p])
            if count == 0:
                return None
            return np.memmap(
                self.partitions_dir / f"partition-{p:06d}.{suffix}",
                dtype=np.uint32,
                mode="r",
                shape=(count,),
            )

        return PieceColumn(self.num_partitions, read)

    @property
    def partition_keys(self) -> PieceColumn:
        return self._column("keys")

    @property
    def partition_payloads(self) -> PieceColumn:
        return self._column("pay")

    def partition(self, index: int) -> Tuple[np.ndarray, np.ndarray]:
        """(keys, payloads) of one partition, memory-mapped."""
        return self.partition_keys[index], self.partition_payloads[index]

    def to_output(self) -> PartitionedOutput:
        """Adapt into the in-memory result shape (lazy columns)."""
        return PartitionedOutput.from_layout(
            self.layout,
            self.partition_keys,
            self.partition_payloads,
            produced_by=f"spill@{self.path}",
        )

    def verify(self) -> None:
        """Check every final partition file's length and CRC-32."""
        crcs = self._manifest["partition_crc32"]
        for index, count in enumerate(self.counts.tolist()):
            if count == 0:
                continue
            for suffix in ("keys", "pay"):
                file_path = (
                    self.partitions_dir / f"partition-{index:06d}.{suffix}"
                )
                expected = count * 4
                actual = (
                    file_path.stat().st_size if file_path.exists() else -1
                )
                if actual != expected:
                    raise StorageError(
                        f"partition {index} ({suffix}): expected "
                        f"{expected} bytes, found {actual}"
                    )
                crc = zlib.crc32(file_path.read_bytes())
                if crc != int(crcs[f"{index}:{suffix}"]):
                    raise StorageError(
                        f"partition {index} ({suffix}): CRC-32 mismatch"
                    )

    def cleanup(self) -> None:
        """Remove the run directory and everything under it."""
        import shutil

        shutil.rmtree(self.path, ignore_errors=True)


class _ChunkPrefetcher:
    """Double-buffered chunk read-ahead for the spill drive loop.

    While the partitioning kernels chew on chunk ``k``, one background
    thread opens chunk ``k + 1`` and faults its pages into the page
    cache (touching one element per page), so the next iteration's
    reads hit warm memory — I/O overlaps compute, and the chunk data is
    still served as the store's zero-copy memmap views, never copied.
    """

    #: uint32 elements per 4 KiB page
    _PAGE_STRIDE = 1024

    def __init__(self, store: RelationStore, start: int, stop: int):
        self._store = store
        self._stop = stop
        self._pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-spill-prefetch"
        )
        self._pending = {}
        self._submit(start)

    def _submit(self, index: int) -> None:
        if index < self._stop and index not in self._pending:
            self._pending[index] = self._pool.submit(self._load, index)

    def _load(self, index: int):
        keys, payloads = self._store.chunk(index)
        # touch one element per page so the fault cost lands here
        for column in (keys, payloads):
            if column.shape[0]:
                int(np.asarray(column[:: self._PAGE_STRIDE]).sum())
        return keys, payloads

    def take(self, index: int):
        """The (keys, payloads) views of ``index``; schedules
        ``index + 1`` before blocking on the pending read."""
        future = self._pending.pop(index, None)
        self._submit(index + 1)
        if future is None:
            return self._store.chunk(index)
        return future.result()

    def close(self) -> None:
        self._pool.shutdown(wait=False, cancel_futures=True)


def _read_manifest(path: pathlib.Path) -> dict:
    manifest_path = path / SPILL_MANIFEST_NAME
    if not manifest_path.exists():
        raise StorageError(f"no {SPILL_MANIFEST_NAME} in {path}")
    with open(manifest_path) as handle:
        manifest = json.load(handle)
    if manifest.get("version") != SPILL_MANIFEST_VERSION:
        raise StorageError(
            f"unsupported spill manifest version {manifest.get('version')!r}"
        )
    return manifest


class SpillPartitioner:
    """Out-of-core partitioner: chunked streaming with disk spill.

    Args:
        config: the *requested* partitioner configuration; accounting
            (line layout, traffic, PAD capacity) follows it exactly.
            Chunk kernels run its :func:`~repro.core.pieces.piece_config`
            (the store supplies global positions as payloads).
        backend: ``"fpga"`` (default), ``"cpu"``, or a ready
            partitioner instance exposing ``partition(keys, payloads)``.
        engine / threads: forwarded to a string-spec backend.
        max_bytes_in_memory: flush buffered chunk outputs to the run
            files once they reach this many bytes.
        tracer: optional tracer; the run emits ``spill`` /
            ``spill_chunk`` / ``spill_flush`` / ``spill_merge`` /
            ``resume`` spans with tuple and byte attributes.
        fault_injector: optional
            :class:`~repro.service.degradation.FaultInjector`; its
            ``check()`` runs before every chunk and before every
            checkpoint commit, so tests can kill the run at either
            side of the torn-write window.
        skew_warn_factor: warn (``warnings.warn``) when the store's
            ingest sketch predicts the largest partition exceeds this
            many fair shares.
        prefetch: double-buffered chunk read-ahead (default on) — a
            background thread faults the next chunk's pages into the
            page cache while the kernels partition the current one, so
            disk I/O overlaps compute.  Purely a read-side overlap:
            checkpoints, fault injection and the output bytes are
            unaffected.
    """

    def __init__(
        self,
        config: Optional[PartitionerConfig] = None,
        backend="fpga",
        engine=None,
        threads: Optional[int] = None,
        max_bytes_in_memory: int = DEFAULT_MAX_BYTES_IN_MEMORY,
        tracer=None,
        fault_injector=None,
        skew_warn_factor: float = 2.0,
        prefetch: bool = True,
    ):
        if max_bytes_in_memory < 1:
            raise ConfigurationError(
                f"max_bytes_in_memory must be >= 1, got {max_bytes_in_memory}"
            )
        self.config = config or PartitionerConfig()
        self.max_bytes_in_memory = int(max_bytes_in_memory)
        self.tracer = resolve_tracer(tracer)
        self.fault_injector = fault_injector
        self.skew_warn_factor = skew_warn_factor
        self.prefetch = prefetch
        self._backend_spec = backend
        self._engine = engine
        self._threads = threads
        #: HIST/RID clone driving the per-chunk kernels (see class doc)
        self.backend_config = piece_config(self.config)
        self.backend = self._resolve_backend(backend)

    def _resolve_backend(self, backend):
        if backend == "fpga":
            from repro.core.partitioner import FpgaPartitioner

            return FpgaPartitioner(
                self.backend_config,
                engine=self._engine,
                threads=self._threads,
                tracer=self.tracer if self.tracer.enabled else None,
            )
        if backend == "cpu":
            from repro.cpu.partitioner import CpuPartitioner

            return CpuPartitioner.matching(
                self.backend_config,
                threads=self._threads or 1,
                engine=self._engine,
            )
        if hasattr(backend, "partition"):
            return backend
        raise ConfigurationError(
            f"unknown spill backend {backend!r}; expected 'fpga', 'cpu' "
            "or a partitioner instance"
        )

    def close(self) -> None:
        """Release backend resources (worker pools); idempotent.

        Only backends this spiller built from a string spec are
        closed; a caller-supplied instance stays the caller's to close
        (same ownership rule as the in-memory partitioners).
        """
        if isinstance(self._backend_spec, str):
            close = getattr(self.backend, "close", None)
            if close is not None:
                close()

    def __enter__(self) -> "SpillPartitioner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- checkpointed fault injection -----------------------------------

    def _checkpoint(self) -> None:
        if self.fault_injector is not None:
            self.fault_injector.check()

    # -- public API -----------------------------------------------------

    def run(
        self,
        store: RelationStore,
        run_dir,
        on_overflow: str = "raise",
    ) -> PartitionSpill:
        """Partition ``store`` into ``run_dir``; returns the handle.

        ``on_overflow`` is the PAD-mode policy: ``"raise"`` or
        ``"hist"`` (``"cpu"`` is rejected — the spill path *is* the
        software path).
        """
        if on_overflow not in ("raise", "hist"):
            raise ConfigurationError(
                f"spill on_overflow must be 'raise' or 'hist', got "
                f"{on_overflow!r} (the spill path already runs in "
                "software, so a 'cpu' fallback is meaningless)"
            )
        run_dir = pathlib.Path(run_dir)
        if (run_dir / SPILL_MANIFEST_NAME).exists():
            raise StorageError(
                f"{run_dir} already holds a spill run; use resume()"
            )
        state = _RunState.fresh(
            run_dir, store, self.config, on_overflow,
            self.max_bytes_in_memory,
        )
        self._warn_on_skew(store)
        return self._drive(store, state)

    def resume(self, run_dir) -> PartitionSpill:
        """Finish an interrupted run: roll back past the last
        checkpoint, redo the remaining chunks, merge."""
        run_dir = pathlib.Path(run_dir)
        manifest = _read_manifest(run_dir)
        if manifest["state"] == "complete":
            return PartitionSpill(run_dir, manifest)
        store = RelationStore.open(manifest["store_path"])
        config = PartitionerConfig.from_dict(manifest["config"])
        if config != self.config:
            raise ConfigurationError(
                "spill manifest was written with a different partitioner "
                "configuration; build the SpillPartitioner with the "
                "manifest's config"
            )
        state = _RunState.from_manifest(run_dir, manifest)
        with self.tracer.span(
            "resume",
            next_chunk=state.next_chunk,
            committed_tuples=int(state.committed_counts().sum()),
        ):
            state.rollback_to_checkpoint()
        return self._drive(store, state)

    # -- the drive loop -------------------------------------------------

    def _drive(
        self, store: RelationStore, state: "_RunState"
    ) -> PartitionSpill:
        cfg = self.config
        with self.tracer.span(
            "spill",
            tuples=store.num_tuples,
            partitions=cfg.num_partitions,
            chunks=store.num_chunks,
            next_chunk=state.next_chunk,
        ):
            prefetcher = (
                _ChunkPrefetcher(store, state.next_chunk, store.num_chunks)
                if self.prefetch
                else None
            )
            try:
                for index in range(state.next_chunk, store.num_chunks):
                    keys, payloads = (
                        prefetcher.take(index)
                        if prefetcher is not None
                        else store.chunk(index)
                    )
                    n = int(keys.shape[0])
                    self._checkpoint()
                    with self.tracer.span(
                        "spill_chunk", chunk=index, tuples=n, bytes=n * 8
                    ):
                        output = self.backend.partition(keys, payloads)
                        state.accounting.observe(keys)
                        state.buffer_output(output)
                    if state.buffered_bytes >= self.max_bytes_in_memory:
                        self._flush(state, next_chunk=index + 1)
            finally:
                if prefetcher is not None:
                    prefetcher.close()
            if state.buffered_bytes or state.next_chunk < store.num_chunks:
                self._flush(state, next_chunk=store.num_chunks)
            return self._merge(state)

    def _flush(self, state: "_RunState", next_chunk: int) -> None:
        """Append buffered outputs to the run files and checkpoint."""
        with self.tracer.span(
            "spill_flush",
            next_chunk=next_chunk,
            bytes=state.buffered_bytes,
        ):
            state.append_buffers()
            self._checkpoint()  # the torn-write window: data > manifest
            state.commit(next_chunk)

    def _warn_on_skew(self, store: RelationStore) -> None:
        if store.sketch is None:
            return
        plan = store.sketch.partition_plan(
            self.config.num_partitions, skew_factor=self.skew_warn_factor
        )
        if plan.skewed:
            import warnings

            warnings.warn(
                f"ingest sketch predicts heavy-hitter skew: one key "
                f"holds {100 * plan.max_key_share:.1f}% of the input, "
                f"so the largest partition will reach at least "
                f"{plan.expected_tuples_per_partition} tuples "
                f"(fair share "
                f"{plan.num_tuples // self.config.num_partitions})",
                stacklevel=3,
            )

    # -- merge ----------------------------------------------------------

    def _merge(self, state: "_RunState") -> PartitionSpill:
        """Seal run files into final contiguous partition files and
        write the complete manifest (idempotent — resume re-enters).

        The data is already HIST-identical on disk, so a ``"hist"``
        overflow fallback only switches the accounting.
        """
        layout = state.accounting.finalize(state.on_overflow)
        total_bytes = int(layout.counts.sum()) * 8
        with self.tracer.span("spill_merge", bytes=total_bytes):
            crcs = state.finalize_partitions(layout.counts)
            state.complete(layout, crcs)
        return PartitionSpill(state.run_dir, _read_manifest(state.run_dir))


class _RunState:
    """On-disk state machine of one spill run (manifest + run files)."""

    def __init__(
        self,
        run_dir: pathlib.Path,
        store_path: str,
        config: PartitionerConfig,
        on_overflow: str,
        max_bytes_in_memory: int,
        next_chunk: int,
        lane_counts: Optional[np.ndarray],
        lane_file: Optional[str],
        presize_tuples: int,
    ):
        self.run_dir = run_dir
        self.store_path = store_path
        self.config = config
        self.on_overflow = on_overflow
        self.max_bytes_in_memory = max_bytes_in_memory
        self.next_chunk = next_chunk
        #: global accounting: the (partition, lane) histogram over
        #: committed + buffered chunks (``None`` starts a fresh run)
        self.accounting = Accounting(config, lane_counts)
        self._lane_file = lane_file
        #: per-partition tuple counts already durably committed
        self._committed = self.accounting.lane_counts.sum(axis=1)
        self.presize_tuples = presize_tuples
        self.buffered_bytes = 0
        self._buffers_keys: List[List[np.ndarray]] = [
            [] for _ in range(config.num_partitions)
        ]
        self._buffers_pays: List[List[np.ndarray]] = [
            [] for _ in range(config.num_partitions)
        ]
        (run_dir / _RUNS_DIR).mkdir(parents=True, exist_ok=True)

    # -- construction ---------------------------------------------------

    @classmethod
    def fresh(
        cls,
        run_dir: pathlib.Path,
        store: RelationStore,
        config: PartitionerConfig,
        on_overflow: str,
        max_bytes_in_memory: int,
    ) -> "_RunState":
        run_dir.mkdir(parents=True, exist_ok=True)
        presize = 0
        if store.sketch is not None:
            presize = store.sketch.partition_plan(
                config.num_partitions
            ).expected_tuples_per_partition
        state = cls(
            run_dir=run_dir,
            store_path=str(pathlib.Path(store.path).resolve()),
            config=config,
            on_overflow=on_overflow,
            max_bytes_in_memory=max_bytes_in_memory,
            next_chunk=0,
            lane_counts=None,
            lane_file=None,
            presize_tuples=presize,
        )
        state.commit(0)
        return state

    @classmethod
    def from_manifest(
        cls, run_dir: pathlib.Path, manifest: dict
    ) -> "_RunState":
        config = PartitionerConfig.from_dict(manifest["config"])
        lane_file = manifest["lane_file"]
        lane_path = run_dir / lane_file
        if not lane_path.exists():
            raise StorageError(f"missing lane histogram file {lane_file}")
        raw = lane_path.read_bytes()
        if zlib.crc32(raw) != int(manifest["lane_crc32"]):
            raise StorageError(
                "lane histogram CRC-32 mismatch; the spill run directory "
                "is corrupt beyond chunk-level recovery"
            )
        lane_counts = np.frombuffer(raw, dtype=np.int64).reshape(
            config.num_partitions, config.num_lanes
        ).copy()
        return cls(
            run_dir=run_dir,
            store_path=manifest["store_path"],
            config=config,
            on_overflow=manifest["on_overflow"],
            max_bytes_in_memory=int(manifest["max_bytes_in_memory"]),
            next_chunk=int(manifest["next_chunk"]),
            lane_counts=lane_counts,
            lane_file=lane_file,
            presize_tuples=int(manifest.get("presize_tuples", 0)),
        )

    # -- paths ----------------------------------------------------------

    def _run_file(self, partition: int, suffix: str) -> pathlib.Path:
        return self.run_dir / _RUNS_DIR / f"p{partition:06d}.{suffix}"

    def _final_file(self, partition: int, suffix: str) -> pathlib.Path:
        return (
            self.run_dir
            / _PARTITIONS_DIR
            / f"partition-{partition:06d}.{suffix}"
        )

    # -- buffering ------------------------------------------------------

    def buffer_output(self, output: PartitionedOutput) -> None:
        """Stash one chunk's per-partition slices in memory."""
        for p in range(self.config.num_partitions):
            keys = output.partition_keys[p]
            if keys.shape[0] == 0:
                continue
            self._buffers_keys[p].append(keys)
            self._buffers_pays[p].append(output.partition_payloads[p])
            self.buffered_bytes += int(keys.shape[0]) * 8

    def committed_counts(self) -> np.ndarray:
        return self._committed

    def append_buffers(self) -> None:
        """Append buffered slices to the run files at the committed
        offsets; fsync so the following manifest commit orders after
        the data."""
        pending = self._committed.copy()
        for p in range(self.config.num_partitions):
            if not self._buffers_keys[p]:
                continue
            for suffix, buffers in (
                ("keys", self._buffers_keys[p]),
                ("pay", self._buffers_pays[p]),
            ):
                path = self._run_file(p, suffix)
                exists = path.exists()
                with open(path, "r+b" if exists else "w+b") as handle:
                    if not exists and self.presize_tuples:
                        handle.truncate(self.presize_tuples * 4)
                    handle.seek(int(pending[p]) * 4)
                    for chunk in buffers:
                        # memoryview write: the partition slice goes to
                        # the file straight from the kernel's output
                        # buffer, no intermediate bytes copy
                        handle.write(np.ascontiguousarray(chunk).data)
                    handle.flush()
                    os.fsync(handle.fileno())
            self._buffers_keys[p] = []
            self._buffers_pays[p] = []
        self.buffered_bytes = 0

    def commit(self, next_chunk: int) -> None:
        """Checkpoint: lane histogram side file, then atomic manifest."""
        lane_file = f"lane_counts-{next_chunk:06d}.bin"
        raw = np.ascontiguousarray(self.accounting.lane_counts).tobytes()
        lane_tmp = self.run_dir / (lane_file + ".tmp")
        with open(lane_tmp, "wb") as handle:
            handle.write(raw)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(lane_tmp, self.run_dir / lane_file)
        previous = self._lane_file
        self._lane_file = lane_file
        self.next_chunk = next_chunk
        self._committed = self.accounting.lane_counts.sum(axis=1)
        self._write_manifest(state="running", lane_crc32=zlib.crc32(raw))
        if previous and previous != lane_file:
            (self.run_dir / previous).unlink(missing_ok=True)

    def rollback_to_checkpoint(self) -> None:
        """Drop bytes appended past the last committed checkpoint."""
        for p in range(self.config.num_partitions):
            committed_bytes = int(self._committed[p]) * 4
            for suffix in ("keys", "pay"):
                path = self._run_file(p, suffix)
                if not path.exists():
                    if committed_bytes:
                        raise StorageError(
                            f"run file for partition {p} vanished with "
                            f"{committed_bytes} committed bytes"
                        )
                    continue
                # presized files legitimately extend past the committed
                # offset; truncating to max(committed, 0) is still safe
                # because finalize truncates to the exact count later
                if path.stat().st_size > committed_bytes:
                    with open(path, "r+b") as handle:
                        handle.truncate(committed_bytes)

    # -- finalisation ---------------------------------------------------

    def finalize_partitions(self, counts: np.ndarray) -> dict:
        """Truncate run files to exact sizes and move them into
        ``partitions/``; idempotent across crashes.  Returns CRCs."""
        final_dir = self.run_dir / _PARTITIONS_DIR
        final_dir.mkdir(exist_ok=True)
        crcs = {}
        for p, count in enumerate(counts.tolist()):
            if count == 0:
                continue
            for suffix in ("keys", "pay"):
                final_path = self._final_file(p, suffix)
                if not final_path.exists():
                    run_path = self._run_file(p, suffix)
                    if not run_path.exists():
                        raise StorageError(
                            f"partition {p} has {count} tuples but no "
                            f"run file ({suffix})"
                        )
                    with open(run_path, "r+b") as handle:
                        handle.truncate(count * 4)
                        handle.flush()
                        os.fsync(handle.fileno())
                    os.replace(run_path, final_path)
                crcs[f"{p}:{suffix}"] = zlib.crc32(final_path.read_bytes())
        return crcs

    def complete(self, layout: Layout, partition_crc32: dict) -> None:
        """Write the final manifest and drop intermediate state."""
        self._write_manifest(
            state="complete",
            lane_crc32=zlib.crc32(
                np.ascontiguousarray(self.accounting.lane_counts).tobytes()
            ),
            partition_crc32=partition_crc32,
            **layout.to_dict(),
        )
        if self._lane_file:
            (self.run_dir / self._lane_file).unlink(missing_ok=True)
            self._lane_file = None
        runs_dir = self.run_dir / _RUNS_DIR
        if runs_dir.exists():
            for stray in runs_dir.iterdir():
                stray.unlink()
            runs_dir.rmdir()

    def _write_manifest(self, state: str, lane_crc32: int, **extra) -> None:
        payload = {
            "version": SPILL_MANIFEST_VERSION,
            "state": state,
            "store_path": self.store_path,
            "config": self.config.to_dict(),
            "on_overflow": self.on_overflow,
            "max_bytes_in_memory": self.max_bytes_in_memory,
            "presize_tuples": self.presize_tuples,
            "next_chunk": self.next_chunk,
            "lane_file": self._lane_file,
            "lane_crc32": lane_crc32,
        }
        payload.update(extra)
        write_json_atomic(self.run_dir / SPILL_MANIFEST_NAME, payload)
