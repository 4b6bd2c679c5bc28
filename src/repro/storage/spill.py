"""Spill-to-disk partitioning: stream chunks, spill sorted runs, resume.

:class:`SpillPartitioner` partitions a stored relation far larger than
memory by streaming it chunk by chunk and spilling **sorted runs**.
Each chunk gets exactly one hash + histogram pass — the same pass folds
the chunk into the run's lane-exact accounting
(:meth:`~repro.core.pieces.Accounting.observe_parts`) — and stays
buffered as the store's views plus its partition indices.  A flush
scatters every buffered chunk into one partition-major run body with
:func:`~repro.core.pieces.partition_major` and writes it as one run
file (per-partition counts, then keys, then payloads) in two writes —
on disk what the paper's write combiner does per cache line (Section
4.2).  The scatter is stable, so every run's slice ``p`` concatenated
in run order is *byte for byte* partition ``p`` of one giant in-memory
``partition()`` call (pinned by ``tests/test_storage.py``); the runs
are the final output.

**Write behind the hash.**  Like the circuit's write-back module,
which drains full lines behind a FIFO so the hash stage never stalls
on the memory link (Sections 4.2–4.3), one run-writer thread
(``repro-spill-writer``, alive exactly as long as one
:meth:`~SpillPartitioner.run` or :meth:`~SpillPartitioner.resume`)
writes, CRCs and fsyncs run ``k`` while the calling thread hashes and
scatters the chunks of run ``k + 1``.  Every checkpoint and fault
check stays on the calling thread; see *Crash recovery*.

Memory is bounded by ``max_bytes_in_memory``: a buffered chunk counts
8 B per tuple, and the buffer is flushed into a run whenever it reaches
the budget, so a run body is ~the budget plus one chunk, independent
of relation size.  At most two bodies are alive at once — the one the
writer is writing and the one the caller is filling — so a run's peak
is two bodies plus the buffered chunks' partition indices.

**Crash recovery.**  Every flush is a checkpoint: the run file is
written and fsynced, then the per-(partition, lane) histogram as of
that run is written to a fresh side file, then the run manifest is
atomically replaced to name both.  The commit of run ``k`` is
deferred: at the next flush (or at the end) the caller waits for the
write of run ``k``, runs the torn-window fault check, and only then
hands the commit to the writer, which runs it before it starts writing
run ``k + 1``.  A killed run therefore leaves (a) a manifest
describing the last completed checkpoint and (b) possibly one run file
it does not name; :meth:`SpillPartitioner.resume` unlinks that file
and redoes only the chunks after ``next_chunk``.  Fault injection
reuses :class:`~repro.service.degradation.FaultInjector` — a
checkpointed ``check()`` before each chunk and before each commit lets
tests kill a run at any point, including *between* the run write and
the manifest commit (the torn-write case).

The accounting (counts, cache-line layout, byte traffic, padding) and
the PAD overflow policy come from the shared
:class:`~repro.core.pieces.Accounting` over the lane-exact global
histogram, so a spilled :class:`PartitionSpill` reports the same
numbers as the in-memory partitioner — overflow is detected at merge
time and handled per ``"raise"`` or ``"hist"`` (``"cpu"`` is
meaningless here since the spill path already runs in software).
"""

from __future__ import annotations

import dataclasses
import io
import json
import os
import pathlib
import zlib
from concurrent.futures import Future, ThreadPoolExecutor
from typing import List, Optional, Tuple

import numpy as np

from repro.core.modes import PartitionerConfig
from repro.core.partitioner import PartitionedOutput
from repro.core.pieces import Accounting, Layout, PieceColumn, partition_major
from repro.errors import ConfigurationError
from repro.obs.tracing import resolve_tracer
from repro.storage.store import (
    ChunkMeta,
    RelationStore,
    StorageError,
    fsync_dir,
    write_json_atomic,
)

__all__ = ["PartitionSpill", "SpillPartitioner"]

SPILL_MANIFEST_NAME = "SPILL_MANIFEST.json"
SPILL_MANIFEST_VERSION = 2

#: default in-memory buffering budget for chunk outputs (64 MiB)
DEFAULT_MAX_BYTES_IN_MEMORY = 64 << 20

_RUNS_DIR = "runs"


def _check_run_size(path: pathlib.Path, fanout: int, tuples: int) -> None:
    """A run file is exactly its ``int64[P]`` header + keys + payloads."""
    expected = 8 * fanout + 8 * tuples
    actual = path.stat().st_size if path.exists() else -1
    if actual != expected:
        raise StorageError(
            f"run {path.name}: expected {expected} bytes, found {actual}"
        )


class PartitionSpill:
    """Handle over a completed spill run's sorted run files.

    Everything is lazy: constructing the handle reads only the
    manifest; :meth:`partition` gathers one partition's slice out of
    each run with positional reads on first touch.  :meth:`to_output`
    adapts the spill into a regular
    :class:`~repro.core.partitioner.PartitionedOutput` so joins (and
    anything else written against the in-memory shape) can build+probe
    directly from disk.
    """

    def __init__(self, path, manifest: dict):
        self.path = pathlib.Path(path)
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
        self.runs = [ChunkMeta.from_dict(run) for run in manifest["runs"]]
        self._run_paths = [self.runs_dir / run.file for run in self.runs]
        self._slices: Optional[Tuple[np.ndarray, np.ndarray]] = None

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
    def runs_dir(self) -> pathlib.Path:
        return self.path / _RUNS_DIR

    def _run_slices(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(counts, starts)``, both ``int64[runs][P]``: how many tuples
        of partition ``p`` run ``r`` holds and at which tuple index of
        its keys section they start (prefix sums of the run headers).
        Read once per handle; every run must have its exact size and
        the headers must add up to the manifest."""
        if self._slices is None:
            fanout = self.num_partitions
            counts = np.empty((len(self.runs), fanout), dtype=np.int64)
            for row, file, run in zip(counts, self._run_paths, self.runs):
                _check_run_size(file, fanout, run.tuples)
                row[:] = np.fromfile(file, dtype="<i8", count=fanout)
            if counts.sum(axis=1).tolist() != [
                run.tuples for run in self.runs
            ] or not np.array_equal(counts.sum(axis=0), self.counts):
                raise StorageError(
                    f"run headers under {self.runs_dir} disagree with the "
                    "manifest's tuple counts"
                )
            self._slices = counts, np.cumsum(counts, axis=1) - counts
        return self._slices

    def _column(self, section: int) -> PieceColumn:
        """Lazy column over section 0 (keys) or 1 (payloads) of every
        run: touching one partition of a spilled terabyte costs one
        positional read per run, not a read of the whole output, and no
        file stays open or mapped once the read returns."""
        header_bytes = 8 * self.num_partitions

        def read(p: int) -> Optional[np.ndarray]:
            total = int(self.counts[p])
            if total == 0:
                return None
            counts, starts = self._run_slices()
            out = np.empty(total, dtype=np.uint32)
            view = memoryview(out).cast("B")
            filled = 0
            for file, run, count, start in zip(
                self._run_paths,
                self.runs,
                counts[:, p].tolist(),
                starts[:, p].tolist(),
            ):
                if count == 0:
                    continue
                fd = os.open(file, os.O_RDONLY)
                try:
                    got = os.preadv(
                        fd,
                        [view[filled : filled + 4 * count]],
                        header_bytes + 4 * (section * run.tuples + start),
                    )
                finally:
                    os.close(fd)
                if got != 4 * count:
                    raise StorageError(
                        f"run {run.file}: short read of partition {p} "
                        f"({got} of {4 * count} bytes)"
                    )
                filled += got
            return out

        return PieceColumn(self.num_partitions, read)

    @property
    def partition_keys(self) -> PieceColumn:
        return self._column(0)

    @property
    def partition_payloads(self) -> PieceColumn:
        return self._column(1)

    def partition(self, index: int) -> Tuple[np.ndarray, np.ndarray]:
        """(keys, payloads) of one partition, read out of the runs."""
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
        """Check every run file's length, header and CRC-32."""
        self._slices = None
        self._run_slices()
        for file, run in zip(self._run_paths, self.runs):
            if zlib.crc32(file.read_bytes()) != run.crc32:
                raise StorageError(f"run {run.file}: CRC-32 mismatch")

    def cleanup(self) -> None:
        """Remove the run directory and everything under it."""
        import shutil

        shutil.rmtree(self.path, ignore_errors=True)


class _ChunkPrefetcher:
    """Double-buffered chunk read-ahead for the spill drive loop.

    While the histogram kernel chews on chunk ``k``, one background
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
        self._pool.shutdown(wait=True, cancel_futures=True)


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
            (line layout, traffic, PAD capacity) follows it exactly, and
            chunks are hashed under its fan-out and hash (the store
            supplies global positions as payloads, so every mode writes
            the HIST/RID contents of the offline call).
        max_bytes_in_memory: flush the buffered chunks into a run file
            once they reach this many bytes (8 per tuple).
        tracer: optional tracer; the run emits ``spill`` /
            ``spill_chunk`` / ``spill_flush`` / ``spill_merge`` /
            ``resume`` spans with tuple and byte attributes.
        fault_injector: optional
            :class:`~repro.service.degradation.FaultInjector`; its
            ``check()`` runs on the calling thread before every chunk
            and before every checkpoint commit, so tests can kill the
            run at either side of the torn-write window.
        skew_warn_factor: warn (``warnings.warn``) when the store's
            ingest sketch predicts the largest partition exceeds this
            many fair shares.

    Chunks are read ahead double-buffered (:class:`_ChunkPrefetcher`),
    so disk I/O overlaps the histogram pass, and runs are written behind
    it by one writer thread; both threads end with the run.
    """

    def __init__(
        self,
        config: Optional[PartitionerConfig] = None,
        max_bytes_in_memory: int = DEFAULT_MAX_BYTES_IN_MEMORY,
        tracer=None,
        fault_injector=None,
        skew_warn_factor: float = 2.0,
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

    def __enter__(self) -> "SpillPartitioner":
        return self

    def __exit__(self, *exc) -> None:
        """Nothing to release: each run owns its read-ahead and writer
        threads."""

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
        state = _RunState(
            run_dir,
            str(pathlib.Path(store.path).resolve()),
            self.config,
            on_overflow,
            self.max_bytes_in_memory,
        )
        state.commit()
        self._warn_on_skew(store)
        return self._drive(store, state)

    def resume(self, run_dir) -> PartitionSpill:
        """Finish an interrupted run: drop the run file the last
        checkpoint does not name, redo the remaining chunks, merge."""
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
            committed_tuples=state.accounting.tuples,
        ):
            state.drop_uncommitted_runs()
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
            prefetcher = _ChunkPrefetcher(
                store, state.next_chunk, store.num_chunks
            )
            writer = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-spill-writer"
            )
            # the run whose write is handed off and whose commit is not
            written: Optional[_Run] = None
            try:
                for index in range(state.next_chunk, store.num_chunks):
                    keys, payloads = prefetcher.take(index)
                    n = int(keys.shape[0])
                    self._checkpoint()
                    with self.tracer.span(
                        "spill_chunk", chunk=index, tuples=n, bytes=n * 8
                    ):
                        state.buffer(keys, payloads)
                    if state.buffered_bytes >= self.max_bytes_in_memory:
                        written = self._flush(
                            state, writer, written, next_chunk=index + 1
                        )
                if state.buffered_bytes:
                    written = self._flush(
                        state, writer, written, next_chunk=store.num_chunks
                    )
                self._await_write(written)
                last, written = written, None
                writer.submit(state.commit_then_write, last, None).result()
            except BaseException as exc:
                if written is not None:
                    _end_span(written.span, exc)
                raise
            finally:
                prefetcher.close()
                # whatever was handed off finishes, even on failure
                writer.shutdown(wait=True)
            return self._merge(state)

    def _flush(
        self,
        state: "_RunState",
        writer: ThreadPoolExecutor,
        written: Optional["_Run"],
        next_chunk: int,
    ) -> "_Run":
        """Scatter the buffered chunks into the next run's body, then
        hand the writer thread one task: commit the run written before
        it, then write this one."""
        run = state.stage(
            next_chunk,
            self.tracer.start_span(
                "spill_flush",
                next_chunk=next_chunk,
                bytes=state.buffered_bytes,
            ),
        )
        try:
            self._await_write(written)
        except BaseException as exc:
            _end_span(run.span, exc)
            raise
        run.write = writer.submit(state.commit_then_write, written, run)
        return run

    def _await_write(self, run: Optional["_Run"]) -> None:
        """Wait for ``run``'s writer task (its write, and the commit of
        the run before it), then run the torn-window check."""
        if run is not None:
            run.write.result()
            self._checkpoint()  # the torn-write window: data > manifest

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
        """Finalize the layout and flip the manifest to ``complete``
        (idempotent — resume re-enters).  No data moves: the runs are
        HIST-identical on disk, so a ``"hist"`` overflow fallback only
        switches the accounting."""
        layout = state.accounting.finalize(state.on_overflow)
        total_bytes = int(layout.counts.sum()) * 8
        with self.tracer.span(
            "spill_merge", bytes=total_bytes, runs=len(state.runs)
        ):
            state.complete(layout)
        return PartitionSpill(state.run_dir, _read_manifest(state.run_dir))


class _CrcFile(io.FileIO):
    """Unbuffered file that writes all of ``data`` (looping over short
    writes) and folds exactly the bytes written into a CRC-32."""

    crc32 = 0

    def write(self, data) -> int:
        view = memoryview(data).cast("B")
        done = 0
        while done < len(view):
            written = super().write(view[done:])
            self.crc32 = zlib.crc32(view[done : done + written], self.crc32)
            done += written
        return done


def _end_span(span, exc: BaseException) -> None:
    span.set_attribute("error", type(exc).__name__).end()


@dataclasses.dataclass
class _Run:
    """One flush in flight: staged (scattered) on the calling thread,
    written and committed on the run-writer thread."""

    file: str
    next_chunk: int
    header: np.ndarray
    #: dropped once the run is on disk
    body: Optional[np.ndarray]
    #: the lane histogram as of the run's last chunk
    lane_bytes: bytes
    span: object
    #: the writer task that writes this run (after committing the run
    #: before it)
    write: Optional[Future] = None
    #: the state's fsync count when the write started
    fsyncs: int = 0
    #: the written file's entry, set by ``write_run``
    meta: Optional[ChunkMeta] = None


class _RunState:
    """On-disk state machine of one spill run (manifest + run files)."""

    def __init__(
        self,
        run_dir: pathlib.Path,
        store_path: str,
        config: PartitionerConfig,
        on_overflow: str,
        max_bytes_in_memory: int,
        next_chunk: int = 0,
        lane_counts: Optional[np.ndarray] = None,
        lane_file: Optional[str] = None,
        runs: Tuple[ChunkMeta, ...] = (),
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
        #: the lane histogram the last commit wrote to ``_lane_file``
        self._committed_lanes = self._lane_bytes()
        #: the committed run files, in flush order
        self.runs = list(runs)
        #: runs staged so far, committed or not (names the next one)
        self._staged = len(self.runs)
        #: fsync calls issued so far (``spill_flush`` reports its share)
        self.fsyncs = 0
        self.buffered_bytes = 0
        #: (keys, payloads, parts) per buffered chunk: the store's views
        #: and the chunk's partition indices
        self._buffered: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        #: the buffered chunks' per-partition counts, one row each
        self._counts: List[np.ndarray] = []
        self.runs_dir = run_dir / _RUNS_DIR
        self.runs_dir.mkdir(parents=True, exist_ok=True)

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
            runs=[ChunkMeta.from_dict(run) for run in manifest["runs"]],
        )

    # -- buffering ------------------------------------------------------

    def buffer(self, keys: np.ndarray, payloads: np.ndarray) -> None:
        """Hash the next chunk once — folding it into the accounting —
        and keep its views and partition indices for the next flush."""
        parts, counts = self.accounting.observe_parts(keys)
        self._buffered.append((keys, payloads, parts))
        self._counts.append(counts)
        self.buffered_bytes += int(keys.shape[0]) * 8

    def stage(self, next_chunk: int, span) -> "_Run":
        """Scatter everything buffered into the next run's body: the
        header, then keys and payloads, each partition's tuples in
        chunk order (:func:`~repro.core.pieces.partition_major`).  The
        run keeps the lane histogram as of its last chunk, so its
        commit does not read the accounting the next run folds into."""
        counts = np.stack(self._counts)
        tuples = int(counts.sum())
        body = np.empty(2 * tuples, dtype=np.uint32)
        partition_major(self._buffered, counts, body[:tuples], body[tuples:])
        run = _Run(
            file=f"run-{self._staged:06d}.bin",
            next_chunk=next_chunk,
            header=counts.sum(axis=0).astype("<i8"),
            body=body,
            lane_bytes=self._lane_bytes(),
            span=span,
        )
        self._staged += 1
        self._buffered = []
        self._counts = []
        self.buffered_bytes = 0
        return run

    def write_run(self, run: "_Run") -> None:
        """Write a staged run as its file; fsync it and its directory
        entry so the following manifest commit orders after the data.
        The body is dropped once it is on disk."""
        run.fsyncs = self.fsyncs
        tuples = run.body.shape[0] // 2
        with _CrcFile(self.runs_dir / run.file, "w") as handle:
            handle.write(run.header)
            handle.write(run.body)
            os.fsync(handle.fileno())
        run.body = None
        fsync_dir(self.runs_dir)
        self.fsyncs += 2
        run.meta = ChunkMeta(file=run.file, tuples=tuples, crc32=handle.crc32)

    def commit_then_write(
        self, written: Optional["_Run"], staged: Optional["_Run"]
    ) -> None:
        """The writer thread's task per flush: commit the run written
        last (ending its ``spill_flush`` span), then write the staged
        one.  A failed commit fails the task, so no later run is
        written or committed after it."""
        if written is not None:
            try:
                self.commit(written)
            except BaseException as exc:
                _end_span(written.span, exc)
                raise
            written.span.set_attributes(
                run_file=written.file, fsyncs=self.fsyncs - written.fsyncs
            )
            written.span.end()
        if staged is not None:
            self.write_run(staged)

    def commit(self, run: Optional["_Run"] = None) -> None:
        """Checkpoint: lane histogram side file, then atomic manifest
        naming it, ``next_chunk`` and (if given) the run just written —
        with the histogram and ``next_chunk`` as of that run (without
        one: as of now, the start of a run)."""
        if run is None:
            next_chunk, lane_bytes = self.next_chunk, self._lane_bytes()
        else:
            next_chunk, lane_bytes = run.next_chunk, run.lane_bytes
        lane_file = f"lane_counts-{next_chunk:06d}.bin"
        lane_tmp = self.run_dir / (lane_file + ".tmp")
        with open(lane_tmp, "wb") as handle:
            handle.write(lane_bytes)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(lane_tmp, self.run_dir / lane_file)
        self.fsyncs += 1
        previous = self._lane_file
        self._lane_file = lane_file
        self._committed_lanes = lane_bytes
        self.next_chunk = next_chunk
        if run is not None:
            self.runs.append(run.meta)
        self._write_manifest(state="running")
        if previous and previous != lane_file:
            (self.run_dir / previous).unlink(missing_ok=True)

    def drop_uncommitted_runs(self) -> None:
        """Unlink whatever ``runs/`` holds that the manifest does not
        name (the run of a flush killed before its commit); a committed
        run that is missing or not its exact size is beyond recovery."""
        named = {run.file for run in self.runs}
        for path in self.runs_dir.iterdir():
            if path.name not in named:
                path.unlink()
        for run in self.runs:
            _check_run_size(
                self.runs_dir / run.file, self.config.num_partitions, run.tuples
            )

    def _lane_bytes(self) -> bytes:
        return np.ascontiguousarray(self.accounting.lane_counts).tobytes()

    # -- finalisation ---------------------------------------------------

    def complete(self, layout: Layout) -> None:
        """Write the final manifest and drop the lane side file."""
        self._write_manifest(state="complete", **layout.to_dict())
        if self._lane_file:
            (self.run_dir / self._lane_file).unlink(missing_ok=True)
            self._lane_file = None

    def _write_manifest(self, state: str, **extra) -> None:
        payload = {
            "version": SPILL_MANIFEST_VERSION,
            "state": state,
            "store_path": self.store_path,
            "config": self.config.to_dict(),
            "on_overflow": self.on_overflow,
            "max_bytes_in_memory": self.max_bytes_in_memory,
            "next_chunk": self.next_chunk,
            "lane_file": self._lane_file,
            "lane_crc32": zlib.crc32(self._committed_lanes),
            "runs": [run.to_dict() for run in self.runs],
        }
        payload.update(extra)
        write_json_atomic(self.run_dir / SPILL_MANIFEST_NAME, payload)
        # the rename above is only durable once the directory is
        fsync_dir(self.run_dir)
        self.fsyncs += 2
