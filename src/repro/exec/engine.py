"""The execution engine: serial / thread-pool / process-pool backends.

:class:`ExecutionEngine` runs the morsel kernels of
:mod:`repro.exec.morsels` on one of three backends:

* ``serial`` — the kernels in a plain loop.  Still chunked: the
  small-dtype per-morsel sorts beat one monolithic sort even on one
  core.
* ``thread`` — a ``concurrent.futures.ThreadPoolExecutor``.  NumPy
  releases the GIL in the hot kernels (sort, bincount, fancy
  indexing), so threads overlap on multi-core hosts with zero
  serialisation cost; this is also the fallback for small inputs,
  where process dispatch would dominate.
* ``process`` — a ``ProcessPoolExecutor`` over ``fork`` with
  **shared-memory ndarrays** (``multiprocessing.shared_memory``) for
  the input columns, the partition-index column and the output
  buffers.  Workers attach to the blocks by name and write their
  morsel's disjoint destination ranges directly; only the small
  per-morsel histograms travel over the result pipe.

The backend only changes *where* the kernels run.  The destination
arithmetic (two-level prefix sum in :func:`merge_histograms`) is
identical everywhere, so every backend produces byte-identical output
— the equivalence suite in ``tests/test_exec_engine.py`` pins this.

Partitioning runs in two steps (histogram, then scatter) through a
:class:`PartitionTask`, so callers can inspect the merged histogram —
e.g. to detect PAD-mode overflow — *before* paying for the scatter,
exactly like the hardware's HIST pass.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import kernels
from repro.errors import ConfigurationError
from repro.obs.tracing import resolve_tracer
from repro.exec.morsels import (
    MorselStats,
    default_morsel_tuples,
    merge_histograms,
    morsel_histogram,
    morsel_scatter,
    parts_dtype,
    plan_morsels,
)

_BACKENDS = ("auto", "serial", "thread", "process")

#: below this input size the process backend falls back to threads —
#: fork/attach/copy overhead would exceed the kernel time.
SMALL_INPUT_TUPLES = 1 << 16


def _attach_block(name: str):
    """Attach to a shared-memory block created by the parent process.

    Works around bpo-39959: on this Python, *attaching* also registers
    the block with the resource tracker.  Under ``fork`` the tracker is
    shared with the parent, so a worker-side unregister would strip the
    parent's own registration; under ``spawn`` the worker's tracker
    would try to unlink a block it does not own when the worker exits.
    Suppressing registration for the duration of the attach avoids both
    failure modes — the parent alone owns the block's lifecycle.
    """
    from multiprocessing import resource_tracker, shared_memory

    original_register = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original_register


def _shm_histogram_task(args):
    """Process-pool phase 1: hash one morsel, store indices, count."""
    (names, parts_dt, n, lo, hi, num_partitions, use_hash, lanes) = args
    keys_block = _attach_block(names["keys"])
    parts_block = _attach_block(names["parts"])
    try:
        keys = np.ndarray(n, dtype=np.uint32, buffer=keys_block.buf)
        parts = np.ndarray(n, dtype=np.dtype(parts_dt), buffer=parts_block.buf)
        _, hist, lane_hist = morsel_histogram(
            keys[lo:hi],
            num_partitions,
            use_hash,
            lanes=lanes,
            global_offset=lo,
            parts_out=parts[lo:hi],
        )
        return hist, lane_hist
    finally:
        del keys, parts
        keys_block.close()
        parts_block.close()


def _shm_scatter_task(args):
    """Process-pool phase 2: scatter one morsel into the output blocks."""
    (names, parts_dt, n, lo, hi, num_partitions, dest_base_row) = args
    blocks = {key: _attach_block(name) for key, name in names.items()}
    try:
        keys = np.ndarray(n, dtype=np.uint32, buffer=blocks["keys"].buf)
        payloads = np.ndarray(
            n, dtype=np.uint32, buffer=blocks["payloads"].buf
        )
        parts = np.ndarray(
            n, dtype=np.dtype(parts_dt), buffer=blocks["parts"].buf
        )
        out_keys = np.ndarray(
            n, dtype=np.uint32, buffer=blocks["out_keys"].buf
        )
        out_payloads = np.ndarray(
            n, dtype=np.uint32, buffer=blocks["out_payloads"].buf
        )
        morsel_scatter(
            keys[lo:hi],
            payloads[lo:hi],
            parts[lo:hi],
            dest_base_row,
            num_partitions,
            out_keys,
            out_payloads,
        )
        return None
    finally:
        del keys, payloads, parts, out_keys, out_payloads
        for block in blocks.values():
            block.close()


class PartitionTask:
    """One in-flight chunked partitioning run.

    Produced by :meth:`ExecutionEngine.begin_partition` after the
    histogram phase; exposes the merged counts so the caller can abort
    (e.g. PAD overflow) before :meth:`scatter` materialises the output.
    Always :meth:`close` the task (it may own shared-memory blocks).
    """

    def __init__(
        self,
        engine: "ExecutionEngine",
        backend: str,
        chunks: List[Tuple[int, int]],
        counts: np.ndarray,
        lane_counts: Optional[np.ndarray],
        chunk_hists: np.ndarray,
        dest_base: np.ndarray,
        state: dict,
    ):
        self._engine = engine
        self._backend = backend
        self._chunks = chunks
        self._state = state
        self._closed = False
        self._scattered = False
        #: global per-partition tuple counts (int64)
        self.counts = counts
        #: per-(partition, lane) counts, or None when lanes were not requested
        self.lane_counts = lane_counts
        #: per-(morsel, partition) histogram matrix
        self.chunk_hists = chunk_hists
        self._dest_base = dest_base
        #: accounting for benchmarks/tests
        self.stats = MorselStats(
            num_morsels=len(chunks),
            morsel_tuples=max((hi - lo) for lo, hi in chunks),
            backend=backend,
            workers=engine.workers if backend != "serial" else 1,
        )

    def scatter(self) -> Tuple[np.ndarray, np.ndarray]:
        """Run the scatter phase; returns ``(out_keys, out_payloads)``.

        The returned arrays are plain (non-shared) ``uint32`` arrays
        laid out partition-major, morsel-order within each partition —
        byte-identical to a stable sort by partition index.
        """
        if self._closed:
            raise ConfigurationError("partition task already closed")
        if self._scattered:
            raise ConfigurationError("partition task already scattered")
        self._scattered = True
        if self._backend == "process":
            return self._engine._scatter_process(self)
        return self._engine._scatter_local(self)

    def close(self) -> None:
        """Release any shared-memory blocks; idempotent."""
        if self._closed:
            return
        self._closed = True
        blocks = self._state.pop("blocks", None)
        if blocks:
            views = self._state.pop("views", None)
            if views is not None:
                views.clear()
            for block in blocks.values():
                try:
                    block.close()
                    block.unlink()
                except FileNotFoundError:  # pragma: no cover
                    pass

    def __enter__(self) -> "PartitionTask":
        """Context-manager entry: the task itself."""
        return self

    def __exit__(self, *exc) -> None:
        """Context-manager exit: release shared memory."""
        self.close()


class ExecutionEngine:
    """Worker-pool executor for the morsel-driven data plane.

    Args:
        workers: pool width; defaults to ``os.cpu_count()``.
        kind: ``"auto"`` (process for large inputs on multi-core
            hosts, threads otherwise), or force ``"serial"``,
            ``"thread"``, ``"process"``.
        morsel_tuples: target morsel size (tuples).
        small_input_tuples: below this size the process backend falls
            back to the thread pool.
        tracer: optional :class:`~repro.obs.tracing.Tracer`.  The
            serial and thread backends record one span per morsel
            kernel (with the worker thread's name); the process backend
            records one span per pool fan-out — worker processes cannot
            reach the parent's ring buffer.

    The engine owns its pools: they are created lazily on first use
    and live until :meth:`close` (the engine is also a context
    manager).  One engine can be shared by many operators — the
    partitioners, the joins and the benchmarks all accept an engine
    instance so a query plan pays pool start-up once.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        kind: str = "auto",
        morsel_tuples: Optional[int] = None,
        small_input_tuples: int = SMALL_INPUT_TUPLES,
        tracer=None,
    ):
        if kind not in _BACKENDS:
            raise ConfigurationError(
                f"engine kind must be one of {_BACKENDS}, got {kind!r}"
            )
        if workers is not None and workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        self.workers = int(workers or os.cpu_count() or 1)
        self.kind = kind
        # None → backend-tuned default: the compiled kernels take
        # larger morsels (no per-morsel sort working set to keep cache
        # resident), the NumPy path keeps the original size.
        self.morsel_tuples = int(morsel_tuples or default_morsel_tuples())
        self.small_input_tuples = int(small_input_tuples)
        self.tracer = resolve_tracer(tracer)
        self._thread_pool: Optional[ThreadPoolExecutor] = None
        self._process_pool: Optional[ProcessPoolExecutor] = None

    # ------------------------------------------------------------------
    # Partitioning
    # ------------------------------------------------------------------

    def begin_partition(
        self,
        keys: np.ndarray,
        payloads: np.ndarray,
        num_partitions: int,
        use_hash: bool,
        lanes: Optional[int] = None,
        chunks: Optional[Sequence[Tuple[int, int]]] = None,
    ) -> PartitionTask:
        """Run the histogram phase; returns a :class:`PartitionTask`.

        Args:
            keys / payloads: aligned ``uint32`` columns.
            num_partitions: power-of-two fan-out.
            use_hash: murmur-then-radix or raw radix bits.
            lanes: also build the per-(partition, lane) histogram the
                FPGA line accounting needs.
            chunks: explicit morsel ranges (e.g. the SWWC partitioner's
                per-thread chunks, which define its output layout);
                default: :func:`plan_morsels`.
        """
        keys = np.ascontiguousarray(keys, dtype=np.uint32)
        payloads = np.ascontiguousarray(payloads, dtype=np.uint32)
        if keys.shape != payloads.shape:
            raise ConfigurationError("keys and payloads must align")
        n = int(keys.shape[0])
        backend = self._backend_for(n)
        if chunks is None:
            # one thread gains nothing from "a morsel per worker": the
            # serial backend splits only to bound the morsel size
            chunks = plan_morsels(
                n, 1 if backend == "serial" else self.workers,
                self.morsel_tuples,
            )
        chunks = list(chunks)
        if backend == "process":
            return self._begin_process(
                keys, payloads, n, num_partitions, use_hash, lanes, chunks
            )
        return self._begin_local(
            backend, keys, payloads, n, num_partitions, use_hash, lanes, chunks
        )

    def _backend_for(self, n: int) -> str:
        if self.kind == "serial" or self.workers == 1:
            return "serial"
        if self.kind == "thread":
            return "thread"
        if self.kind == "process":
            return "thread" if n < self.small_input_tuples else "process"
        # auto: with the native kernels loaded, threads are strictly
        # better — the kernels release the GIL, so threads parallelise
        # as well as processes without the fork + shared-memory copy-in
        # (this is what made 1→2 worker scaling *negative* before).
        if kernels.backend_name() == "native":
            return "thread"
        # numpy kernels hold the GIL for part of each morsel; processes
        # pay for themselves only on large inputs and real multi-core
        if (
            n >= self.small_input_tuples
            and (os.cpu_count() or 1) > 1
            and "fork" in _start_methods()
        ):
            return "process"
        return "thread"

    # -- serial / thread ------------------------------------------------

    def _begin_local(
        self, backend, keys, payloads, n, num_partitions, use_hash, lanes, chunks
    ) -> PartitionTask:
        parts = np.empty(n, dtype=parts_dtype(num_partitions))

        def phase_a(chunk):
            lo, hi = chunk
            _, hist, lane_hist = morsel_histogram(
                keys[lo:hi],
                num_partitions,
                use_hash,
                lanes=lanes,
                global_offset=lo,
                parts_out=parts[lo:hi],
            )
            return hist, lane_hist

        results = list(
            self._run(backend, phase_a, chunks, label="morsel.histogram")
        )
        counts, _, dest_base = merge_histograms([h for h, _ in results])
        lane_counts = None
        if lanes is not None:
            lane_counts = np.sum([lh for _, lh in results], axis=0)
        state = {
            "keys": keys,
            "payloads": payloads,
            "parts": parts,
            "num_partitions": num_partitions,
        }
        return PartitionTask(
            self,
            backend,
            chunks,
            counts,
            lane_counts,
            np.asarray([h for h, _ in results], dtype=np.int64),
            dest_base,
            state,
        )

    def _scatter_local(self, task: PartitionTask):
        state = task._state
        keys, payloads = state["keys"], state["payloads"]
        parts = state["parts"]
        num_partitions = state["num_partitions"]
        n = keys.shape[0]
        out_keys = np.empty(n, dtype=np.uint32)
        out_payloads = np.empty(n, dtype=np.uint32)

        def phase_b(indexed_chunk):
            c, (lo, hi) = indexed_chunk
            morsel_scatter(
                keys[lo:hi],
                payloads[lo:hi],
                parts[lo:hi],
                task._dest_base[c],
                num_partitions,
                out_keys,
                out_payloads,
            )

        list(
            self._run(
                task._backend,
                phase_b,
                list(enumerate(task._chunks)),
                label="morsel.scatter",
            )
        )
        return out_keys, out_payloads

    def _run(self, backend: str, fn, items, label: str = "morsel"):
        tracer = self.tracer
        if tracer.enabled:
            kernel = fn

            def fn(item):
                # evaluated inside the worker, so the span carries the
                # thread that actually ran this morsel
                with tracer.span(
                    label,
                    backend=backend,
                    worker=threading.current_thread().name,
                ):
                    return kernel(item)

        if backend == "serial" or len(items) == 1:
            return [fn(item) for item in items]
        return list(self._threads().map(fn, items))

    # -- process + shared memory ---------------------------------------

    def _begin_process(
        self, keys, payloads, n, num_partitions, use_hash, lanes, chunks
    ) -> PartitionTask:
        from multiprocessing import shared_memory

        pdt = parts_dtype(num_partitions)
        spec = {
            "keys": (np.uint32, 4),
            "payloads": (np.uint32, 4),
            "parts": (pdt, pdt.itemsize),
            "out_keys": (np.uint32, 4),
            "out_payloads": (np.uint32, 4),
        }
        blocks, views = {}, {}
        try:
            for name, (dtype, itemsize) in spec.items():
                block = shared_memory.SharedMemory(
                    create=True, size=max(1, n * itemsize)
                )
                blocks[name] = block
                views[name] = np.ndarray(n, dtype=dtype, buffer=block.buf)
            views["keys"][:] = keys
            views["payloads"][:] = payloads
            names = {k: b.name for k, b in blocks.items()}
            tasks = [
                (names, pdt.str, n, lo, hi, num_partitions, use_hash, lanes)
                for lo, hi in chunks
            ]
            with self.tracer.span(
                "morsel.histogram", backend="process", morsels=len(tasks)
            ):
                results = list(
                    self._processes().map(_shm_histogram_task, tasks)
                )
        except BaseException:
            _release_blocks(blocks, views)
            raise
        counts, _, dest_base = merge_histograms([h for h, _ in results])
        lane_counts = None
        if lanes is not None:
            lane_counts = np.sum([lh for _, lh in results], axis=0)
        state = {
            "blocks": blocks,
            "views": views,
            "names": names,
            "parts_dt": pdt.str,
            "n": n,
            "num_partitions": num_partitions,
        }
        return PartitionTask(
            self,
            "process",
            chunks,
            counts,
            lane_counts,
            np.asarray([h for h, _ in results], dtype=np.int64),
            dest_base,
            state,
        )

    def _scatter_process(self, task: PartitionTask):
        state = task._state
        names, pdt, n = state["names"], state["parts_dt"], state["n"]
        num_partitions = state["num_partitions"]
        tasks = [
            (names, pdt, n, lo, hi, num_partitions, task._dest_base[c])
            for c, (lo, hi) in enumerate(task._chunks)
        ]
        with self.tracer.span(
            "morsel.scatter", backend="process", morsels=len(tasks)
        ):
            list(self._processes().map(_shm_scatter_task, tasks))
        # Zero-copy hand-off: ownership of the two output blocks moves
        # from the task (which would unlink them on close) to the
        # returned arrays — downstream PartitionSlices/tickets then
        # serve views of the very memory the workers scattered into.
        views, blocks = state["views"], state["blocks"]
        out = []
        for name in ("out_keys", "out_payloads"):
            views.pop(name, None)
            out.append(_adopt_shm_array(blocks.pop(name), n, np.uint32))
        return out[0], out[1]

    # ------------------------------------------------------------------
    # Generic ordered fan-out (joins, benchmarks)
    # ------------------------------------------------------------------

    def map_tasks(self, fn: Callable, items: Iterable) -> List:
        """Apply ``fn`` over ``items``, preserving order.

        Runs serially on a serial engine and on the shared thread pool
        otherwise (including for process engines: generic tasks close
        over live Python objects, which the shared-memory data plane
        does not require but a process pool could not pickle).
        """
        items = list(items)
        if self.kind == "serial" or self.workers == 1 or len(items) <= 1:
            return [fn(item) for item in items]
        return list(self._threads().map(fn, items))

    def submit(self, fn: Callable, *args, **kwargs):
        """Submit one task; returns a ``concurrent.futures.Future``.

        The asynchronous sibling of :meth:`map_tasks`, used by the
        service layer to overlap an oversized request's morsel run with
        queue draining.  On a serial engine the task runs inline and
        the returned future is already resolved (or carries the
        exception).
        """
        if self.kind == "serial" or self.workers == 1:
            from concurrent.futures import Future

            future: "Future" = Future()
            try:
                future.set_result(fn(*args, **kwargs))
            except BaseException as error:  # noqa: BLE001 — future carries it
                future.set_exception(error)
            return future
        return self._threads().submit(fn, *args, **kwargs)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def _threads(self) -> ThreadPoolExecutor:
        if self._thread_pool is None:
            self._thread_pool = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="repro-exec"
            )
        return self._thread_pool

    def _processes(self) -> ProcessPoolExecutor:
        if self._process_pool is None:
            import multiprocessing

            context = (
                multiprocessing.get_context("fork")
                if "fork" in _start_methods()
                else None
            )
            self._process_pool = ProcessPoolExecutor(
                max_workers=self.workers, mp_context=context
            )
        return self._process_pool

    def close(self) -> None:
        """Shut down the worker pools; the engine can be re-created."""
        if self._thread_pool is not None:
            self._thread_pool.shutdown(wait=True)
            self._thread_pool = None
        if self._process_pool is not None:
            self._process_pool.shutdown(wait=True)
            self._process_pool = None

    def __enter__(self) -> "ExecutionEngine":
        """Context-manager entry: the engine itself."""
        return self

    def __exit__(self, *exc) -> None:
        """Context-manager exit: shut the pools down."""
        self.close()


def _start_methods():
    import multiprocessing

    return multiprocessing.get_all_start_methods()


def _release_blocks(blocks, views) -> None:
    views.clear()
    for block in blocks.values():
        try:
            block.close()
            block.unlink()
        except FileNotFoundError:  # pragma: no cover
            pass


def _release_adopted_block(block) -> None:
    try:
        block.close()
        block.unlink()
    except (FileNotFoundError, BufferError):  # pragma: no cover
        pass


def _adopt_shm_array(block, n: int, dtype) -> np.ndarray:
    """An ndarray view over a shared-memory block that owns the block.

    The block is closed and unlinked when the array is collected, so
    callers can hand the view around (engine merge → PartitionSlices →
    service response) without a copy and without leaking ``/dev/shm``
    segments.
    """
    import weakref

    array = np.ndarray(n, dtype=dtype, buffer=block.buf)
    weakref.finalize(array, _release_adopted_block, block)
    return array


EngineSpec = Union[None, str, ExecutionEngine]


def resolve_engine(
    engine: EngineSpec, threads: Optional[int] = None, tracer=None
) -> Optional[ExecutionEngine]:
    """Turn an ``engine=`` knob value into an engine instance.

    Accepts ``None`` (no engine — callers keep their sequential
    reference path), an :class:`ExecutionEngine` (shared pools), or a
    string: ``"serial"``, ``"parallel"`` (auto backend), ``"thread"``,
    ``"process"``.  ``threads`` sets the worker count for string specs;
    ``tracer`` is attached to engines built here (a caller-supplied
    instance keeps whatever tracer it was built with).
    """
    if engine is None:
        return None
    if isinstance(engine, ExecutionEngine):
        return engine
    if engine == "parallel":
        return ExecutionEngine(workers=threads, kind="auto", tracer=tracer)
    if engine in ("serial", "thread", "process"):
        return ExecutionEngine(workers=threads, kind=engine, tracer=tracer)
    raise ConfigurationError(
        f"unknown engine spec {engine!r}; expected None, 'serial', "
        "'parallel', 'thread', 'process' or an ExecutionEngine"
    )
