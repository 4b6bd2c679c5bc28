"""The FPGA partitioner's public API.

:class:`FpgaPartitioner` computes exactly what the hardware would write
to memory — per-partition tuple sets, region layout, cache-line and
dummy-padding accounting — using vectorised NumPy, so experiments can
run on millions of tuples.  It is bit-equivalent (same partition
contents, same per-partition line counts, same byte traffic) to the
cycle-level :class:`~repro.core.circuit.PartitionerCircuit`, which it
can also drive via :meth:`simulate` for cycle-accurate runs; the
equivalence is enforced by property tests.

All four operating modes of Section 4.5 are supported (HIST/PAD x
RID/VRID), including PAD-mode overflow semantics: on overflow the run
aborts and, per the paper, falls back — to a CPU partitioner, to HIST
mode, or to an exception, as the caller chooses.
"""

from __future__ import annotations

import collections.abc
import dataclasses
from typing import List, Literal, Optional, Sequence, Tuple

import numpy as np

from repro import kernels
from repro.core.circuit import CircuitResult, PartitionerCircuit
from repro.core.modes import LayoutMode, PartitionerConfig
from repro.core.pieces import (
    Accounting,
    Layout,
    batch_layouts,
    extract_columns,
    normalize_columns,
)
from repro.errors import ConfigurationError
from repro.platform.machine import XeonFpgaPlatform
from repro.platform.coherence import Socket
from repro.workloads.relations import Relation

OverflowPolicy = Literal["raise", "hist", "cpu"]


class PartitionSlices(collections.abc.Sequence):
    """Lazy per-partition views over one contiguous sorted column.

    Behaves like the ``List[np.ndarray]`` it replaces (indexing,
    item assignment, iteration, ``len``, ``np.concatenate`` all work),
    but holds only the sorted column and its partition boundaries; each
    view is built on access.  Constructing the eager list costs
    ~2 * fan-out ndarray view allocations per request — at service
    request rates that was a measurable share of the whole partitioning
    call.  Assigned entries are kept in a sparse override map so the
    backing column stays shared.
    """

    __slots__ = ("_column", "_boundaries", "_overrides")

    def __init__(self, column: np.ndarray, boundaries: np.ndarray):
        self._column = column
        self._boundaries = boundaries
        self._overrides: Optional[dict] = None

    def __len__(self) -> int:
        return len(self._boundaries) - 1

    def _normalize(self, index: int) -> int:
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError(index)
        return index

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        index = self._normalize(index)
        if self._overrides is not None and index in self._overrides:
            return self._overrides[index]
        return self._column[self._boundaries[index]:self._boundaries[index + 1]]

    def __setitem__(self, index: int, value: np.ndarray) -> None:
        index = self._normalize(index)
        if self._overrides is None:
            self._overrides = {}
        self._overrides[index] = value

    def contiguous(self) -> Optional[np.ndarray]:
        """The backing column while it is still exactly the
        concatenation of every partition slice (no overrides applied),
        else ``None``.  Lets bulk consumers (the gateway's CHUNK frame
        encoder) copy one contiguous array instead of materialising and
        re-concatenating fan-out slice views."""
        if self._overrides:
            return None
        return self._column[self._boundaries[0]:self._boundaries[-1]]


@dataclasses.dataclass
class PartitionedOutput:
    """Result of a partitioning run.

    The per-partition arrays hold real tuples only (dummy padding is
    accounted in the counters, not materialised).  ``base_lines`` and
    ``lines_per_partition`` describe the memory layout the hardware
    produced, in 64 B cache-line units.
    """

    config: PartitionerConfig
    partition_keys: List[np.ndarray]
    partition_payloads: List[np.ndarray]
    counts: np.ndarray
    lines_per_partition: np.ndarray
    base_lines: np.ndarray
    bytes_read: int
    bytes_written: int
    dummy_slots: int
    produced_by: str = "fpga-functional"
    fell_back_to_cpu: bool = False
    #: regions carved out of the PAD grid for sketch-detected heavy
    #: hitters (see :func:`repro.optimize.isolation.partition_isolated`)
    isolated_partitions: int = 0
    #: a piece request's own ``(partition, lane)`` histogram, lanes
    #: counted from its global offset — what the caller folds into its
    #: :class:`~repro.core.pieces.Accounting` instead of hashing the
    #: piece again (see :func:`~repro.core.pieces.run_piece`); ``None``
    #: on every other output
    lane_counts: Optional[np.ndarray] = None

    @classmethod
    def from_layout(
        cls,
        layout: Layout,
        partition_keys: Sequence[np.ndarray],
        partition_payloads: Sequence[np.ndarray],
        produced_by: str,
        fell_back_to_cpu: bool = False,
    ) -> "PartitionedOutput":
        """The output of a run whose accounting is ``layout`` and whose
        partition contents the two columns serve."""
        return cls(
            config=layout.config,
            partition_keys=partition_keys,
            partition_payloads=partition_payloads,
            counts=layout.counts,
            lines_per_partition=layout.lines_per_partition,
            base_lines=layout.base_lines,
            bytes_read=layout.bytes_read,
            bytes_written=layout.bytes_written,
            dummy_slots=layout.dummy_slots,
            produced_by=produced_by,
            fell_back_to_cpu=fell_back_to_cpu,
            isolated_partitions=layout.isolated_partitions,
        )

    @property
    def num_partitions(self) -> int:
        return len(self.partition_keys)

    @property
    def num_tuples(self) -> int:
        return int(self.counts.sum())

    @property
    def total_bytes(self) -> int:
        return self.bytes_read + self.bytes_written

    @property
    def padding_fraction(self) -> float:
        """Share of written tuple slots that are dummy padding."""
        slots = self.num_tuples + self.dummy_slots
        return self.dummy_slots / slots if slots else 0.0

    @property
    def read_write_ratio(self) -> float:
        """Realised byte ratio r = reads / writes."""
        return self.bytes_read / self.bytes_written if self.bytes_written else 0.0

    def partition(self, index: int) -> Tuple[np.ndarray, np.ndarray]:
        """(keys, payloads) of one partition."""
        return self.partition_keys[index], self.partition_payloads[index]

    def max_partition_tuples(self) -> int:
        """Tuples in the largest partition (the skew headline)."""
        return int(self.counts.max()) if self.counts.size else 0


class FpgaPartitioner:
    """Functional model of the FPGA partitioner (Sections 4.1-4.5).

    Args:
        config: modes, fan-out, tuple width.
        platform: optional platform; when given, partitioning accounts
            its traffic on the QPI end-point and marks the output
            regions FPGA-written in the coherence directory (which is
            what slows down the hybrid join's build+probe, Section 2.2).
        engine: execution-engine knob.  ``None`` keeps the sequential
            reference path; ``"parallel"`` (or ``"serial"``/
            ``"thread"``/``"process"``, or an
            :class:`~repro.exec.engine.ExecutionEngine` instance to
            share pools) routes the histogram + scatter through the
            morsel-driven engine.  The output is byte-identical either
            way — the engine only changes where the kernels run.
        threads: worker count for a string ``engine`` spec (defaults
            to the machine's CPU count).
        tracer: optional :class:`~repro.obs.tracing.Tracer`.  Each
            kernel invocation records a span (``fpga.partition`` /
            ``fpga.partition_many``) carrying tuple counts and traffic
            accounting; :meth:`simulate` forwards the tracer to the
            circuit, whose span carries the cycle/stall counters.  The
            tracer also reaches an engine built from a string spec, so
            per-morsel spans nest under the kernel span.
        max_bytes_in_flight: cap on the key+payload bytes one
            :meth:`partition_many` kernel pass may materialise.  A
            pass writes its whole group into one shared pair of output
            columns (and the NumPy twin concatenates the inputs
            first), so its peak memory scales with the *batch* size
            rather than the largest request; the cap splits oversized
            batches into several kernel passes (each still one call,
            still byte-identical per request).  ``None`` (default)
            leaves a batch in one pass.
    """

    def __init__(
        self,
        config: PartitionerConfig | None = None,
        platform: Optional[XeonFpgaPlatform] = None,
        engine=None,
        threads: Optional[int] = None,
        tracer=None,
        max_bytes_in_flight: Optional[int] = None,
    ):
        from repro.exec.engine import ExecutionEngine, resolve_engine
        from repro.obs.tracing import resolve_tracer

        if max_bytes_in_flight is not None and max_bytes_in_flight < 1:
            raise ConfigurationError(
                f"max_bytes_in_flight must be >= 1, got "
                f"{max_bytes_in_flight}"
            )
        self.config = config or PartitionerConfig()
        self.platform = platform
        self.max_bytes_in_flight = max_bytes_in_flight
        self.tracer = resolve_tracer(tracer)
        self.engine = resolve_engine(engine, threads, tracer=tracer)
        # A string spec made resolve_engine build pools just for us; a
        # caller-supplied ExecutionEngine stays the caller's to close.
        self._owns_engine = self.engine is not None and not isinstance(
            engine, ExecutionEngine
        )

    def close(self) -> None:
        """Shut down an engine this partitioner created; idempotent.

        Long-lived callers (e.g. the service layer) construct
        partitioners per configuration; without this, each string
        ``engine=`` spec would leak a worker pool.
        """
        if self._owns_engine and self.engine is not None:
            self.engine.close()
        self.engine = None
        self._owns_engine = False

    def __enter__(self) -> "FpgaPartitioner":
        """Context-manager entry: the partitioner itself."""
        return self

    def __exit__(self, *exc) -> None:
        """Context-manager exit: close an owned engine."""
        self.close()

    # ------------------------------------------------------------------
    # Functional partitioning
    # ------------------------------------------------------------------

    def partition(
        self,
        relation: Relation | np.ndarray,
        payloads: Optional[np.ndarray] = None,
        on_overflow: OverflowPolicy = "raise",
        region_name: Optional[str] = None,
    ) -> PartitionedOutput:
        """Partition a relation.

        Args:
            relation: a :class:`Relation`, or a uint32 key array (then
                ``payloads`` supplies the payload column in RID mode).
            payloads: payload column when ``relation`` is a bare array.
                Ignored in VRID mode (virtual record ids are generated).
            on_overflow: PAD-mode overflow policy — ``"raise"`` (default,
                :class:`PartitionOverflowError`), ``"hist"`` (finish the
                run in HIST mode, the robust two-pass fallback, charged
                the aborted PAD scan), or ``"cpu"`` (fall back to the
                software partitioner, as the paper describes).
            region_name: label for coherence tracking when a platform is
                attached (defaults to an internal counter).

        Returns:
            A :class:`PartitionedOutput`.
        """
        keys, payloads = extract_columns(self.config, relation, payloads)
        with self.tracer.span(
            "fpga.partition",
            tuples=int(keys.shape[0]),
            partitions=self.config.num_partitions,
            mode=self.config.mode_label,
        ) as span:
            output = self._partition_traced(
                keys, payloads, on_overflow, region_name
            )
            span.set_attributes(
                bytes_read=output.bytes_read,
                bytes_written=output.bytes_written,
                dummy_slots=output.dummy_slots,
                fell_back_to_cpu=output.fell_back_to_cpu,
            )
            return output

    def _partition_traced(
        self,
        keys: np.ndarray,
        payloads: np.ndarray,
        on_overflow: OverflowPolicy,
        region_name: Optional[str],
        hot: Sequence[int] = (),
    ) -> PartitionedOutput:
        """The :meth:`partition` kernel body (span-wrapped by caller).

        One histogram pass, the layout and overflow policy *before* any
        data moves — mirroring the hardware's HIST pass, which aborts
        without scattering — then one stable scatter.  The HIST fallback
        keeps the histogram: contents do not depend on the output mode,
        so it is the same scatter under the HIST layout.  ``hot`` are
        the partitions :func:`~repro.optimize.isolation.partition_isolated`
        carves out of the PAD grid.
        """
        cfg = self.config
        if self.engine is not None:
            task = self.engine.begin_partition(
                keys,
                payloads,
                cfg.num_partitions,
                cfg.uses_hash,
                lanes=cfg.num_lanes,
            )
            try:
                layout = Accounting(cfg, task.lane_counts).finalize(
                    on_overflow, hot
                )
                if layout.overflow is not None:
                    return self._cpu_fallback(keys, payloads)
                sorted_keys, sorted_payloads = task.scatter()
            finally:
                task.close()
        else:
            # Engine-less reference path, on the compiled primitives:
            # one fused hash+histogram pass (with the per-lane counts
            # the line accounting needs), then one stable scatter
            # straight into the output columns.
            parts, counts, lane_counts = kernels.hash_histogram(
                keys,
                cfg.num_partitions,
                cfg.uses_hash,
                lanes=cfg.num_lanes,
            )
            layout = Accounting(cfg, lane_counts).finalize(on_overflow, hot)
            if layout.overflow is not None:
                return self._cpu_fallback(keys, payloads)
            n = int(keys.shape[0])
            partition_base = np.zeros(cfg.num_partitions, dtype=np.int64)
            np.cumsum(counts[:-1], out=partition_base[1:])
            sorted_keys = np.empty(n, dtype=np.uint32)
            sorted_payloads = np.empty(n, dtype=np.uint32)
            kernels.stable_scatter(
                keys, payloads, parts, partition_base,
                cfg.num_partitions, sorted_keys, sorted_payloads,
            )
        return self._output(layout, sorted_keys, sorted_payloads, region_name)

    def partition_many(
        self,
        relations: Sequence[Relation | np.ndarray],
        payloads: Optional[Sequence[Optional[np.ndarray]]] = None,
        on_overflow: OverflowPolicy = "raise",
        offsets: Optional[Sequence[Optional[int]]] = None,
    ) -> List[PartitionedOutput]:
        """Partition a batch of relations in one kernel call.

        This is the data plane of the service layer's batching
        scheduler: the whole batch goes through
        :func:`repro.kernels.partition_batch`, which hashes, counts
        and scatters every request straight from its own columns into
        its slice of one shared pair of output columns — one foreign
        call (one GIL release) per batch, no input concatenation, and
        the record ids of bare key arrays and VRID requests written by
        the kernel.  The layouts follow in one
        :func:`~repro.core.pieces.batch_layouts` pass.
        Without compiled kernels the byte-identical NumPy twin packs
        the request index with the partition index and radix-sorts the
        batch once.  Either way the per-call fixed costs are paid per
        batch, not per request; the execution engine is not involved
        (requests large enough to want morsels take :meth:`partition`).

        Every output is **byte-identical** to what
        :meth:`partition` returns for that relation alone (same counts,
        same line accounting, same partition contents in the same
        order) — pinned by ``tests/test_service.py`` and
        ``tests/test_kernels.py``.

        Args:
            relations: the batch; each entry follows the
                :meth:`partition` contract.
            payloads: optional per-entry payload columns (aligned with
                ``relations``; ``None`` entries mean positional ids).
            on_overflow: PAD-overflow policy applied *per request* —
                an overflowing request falls back individually, the
                rest of the batch is unaffected.
            offsets: optional per-entry global offsets; an entry with
                one is a *piece request* (see
                :func:`~repro.core.pieces.run_piece`): its generated
                record ids are ``offset + i``, and its output carries
                ``lane_counts``, its lane row from the kernel, with
                lanes counted from ``offset``.  ``None`` entries
                are whole runs, and their outputs carry no lane row.

        Returns:
            One :class:`PartitionedOutput` per input relation, in order.
        """
        cfg = self.config
        if payloads is None:
            payloads = [None] * len(relations)
        if offsets is None:
            offsets = [None] * len(relations)
        if not len(payloads) == len(offsets) == len(relations):
            raise ConfigurationError(
                "payloads and offsets must align with relations when given"
            )
        # generated record ids stay ``None``: the batch kernel writes them
        columns = [
            normalize_columns(cfg, rel, pay, offset)
            for rel, pay, offset in zip(relations, payloads, offsets)
        ]
        # A max_bytes_in_flight cap closes a group before its columns
        # would exceed the budget, so peak memory tracks the cap (plus
        # one request) rather than the whole batch.
        outputs: List[PartitionedOutput] = []
        start = 0
        while start < len(columns):
            stop = len(columns)
            if self.max_bytes_in_flight is not None:
                group_bytes = 0
                for i in range(start, stop):
                    group_bytes += 2 * columns[i][0].nbytes
                    if i > start and group_bytes > self.max_bytes_in_flight:
                        stop = i
                        break
            outputs.extend(
                self._partition_group(
                    columns[start:stop], offsets[start:stop], on_overflow
                )
            )
            start = stop
        return outputs

    def _partition_group(
        self,
        columns: List[Tuple[np.ndarray, Optional[np.ndarray]]],
        offsets: Sequence[Optional[int]],
        on_overflow: OverflowPolicy,
    ) -> List[PartitionedOutput]:
        """One kernel pass over a non-empty group of requests (see
        :meth:`partition_many` for the contract): one batch kernel call,
        one layout pass and one boundary prefix sum for the group; what
        remains per request is wrapping its output."""
        cfg = self.config
        with self.tracer.span(
            "fpga.partition_many",
            requests=len(columns),
            tuples=sum(keys.shape[0] for keys, _ in columns),
            partitions=cfg.num_partitions,
            mode=cfg.mode_label,
        ):
            sorted_keys, sorted_payloads, counts, lines, lane_rows = (
                kernels.partition_batch(
                    columns, cfg.num_partitions, cfg.uses_hash,
                    cfg.num_lanes, offsets,
                )
            )
            # An overflowing request falls back individually: under
            # ``hist`` its slice of the batch scatter already holds the
            # contents.
            layouts = batch_layouts(cfg, counts, lines, on_overflow)
            boundaries = np.zeros(
                (len(layouts), cfg.num_partitions + 1), dtype=np.int64
            )
            np.cumsum(counts, axis=1, out=boundaries[:, 1:])
            pieces = iter(lane_rows)
            outputs: List[PartitionedOutput] = []
            low = 0
            for (keys, payloads), offset, layout, bounds in zip(
                columns, offsets, layouts, boundaries
            ):
                high = low + keys.shape[0]
                if layout.overflow is not None:
                    if payloads is None:
                        first = offset or 0
                        payloads = np.arange(
                            first, first + keys.shape[0], dtype=np.uint32
                        )
                    output = self._cpu_fallback(keys, payloads)
                else:
                    output = self._output(
                        layout,
                        sorted_keys[low:high],
                        sorted_payloads[low:high],
                        None,
                        bounds,
                    )
                if offset is not None:
                    # a copy: a view would keep the lane buffer alive
                    output.lane_counts = next(pieces).copy()
                outputs.append(output)
                low = high
            return outputs

    # ------------------------------------------------------------------
    # Cycle-level simulation
    # ------------------------------------------------------------------

    def simulate(
        self,
        relation: Relation | np.ndarray,
        payloads: Optional[np.ndarray] = None,
        qpi_bandwidth_gbs: Optional[float] = None,
        enable_forwarding: bool = True,
        fast_forward: bool = False,
    ) -> CircuitResult:
        """Run the cycle-level circuit on (small) real data.

        When ``qpi_bandwidth_gbs`` is omitted and a platform is
        attached, the platform's Figure 2 bandwidth at this mode's
        read/write ratio is used; pass a value explicitly to explore
        hypothetical links (e.g. the 25.6 GB/s of Section 4.7).
        ``fast_forward=True`` uses the event-driven fast path of
        :mod:`repro.exec.fast_forward` where applicable — identical
        results and stats, much faster wall clock.
        """
        keys, payloads = extract_columns(self.config, relation, payloads)
        if qpi_bandwidth_gbs is None and self.platform is not None:
            qpi_bandwidth_gbs = self.platform.fpga_bandwidth_gbs(
                self.config.read_write_ratio()
            )
        circuit = PartitionerCircuit(
            self.config,
            qpi_bandwidth_gbs=qpi_bandwidth_gbs,
            enable_forwarding=enable_forwarding,
            tracer=self.tracer,
        )
        if self.config.layout_mode is LayoutMode.VRID:
            return circuit.run(keys, None, fast_forward=fast_forward)
        return circuit.run(keys, payloads, fast_forward=fast_forward)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _output(
        self,
        layout: Layout,
        sorted_keys: np.ndarray,
        sorted_payloads: np.ndarray,
        region_name: Optional[str],
        boundaries: Optional[np.ndarray] = None,
    ) -> PartitionedOutput:
        """Wrap one run's sorted columns and layout, and account it on
        the attached platform: QPI traffic, and the output region marked
        FPGA-written in the coherence directory.  ``boundaries`` are the
        ``P + 1`` partition offsets when the caller already has them."""
        if boundaries is None:
            boundaries = np.zeros(
                self.config.num_partitions + 1, dtype=np.int64
            )
            np.cumsum(layout.counts, out=boundaries[1:])
        output = PartitionedOutput.from_layout(
            layout,
            PartitionSlices(sorted_keys, boundaries),
            PartitionSlices(sorted_payloads, boundaries),
            produced_by=(
                "fpga-isolated"
                if layout.isolated_partitions
                else "fpga-functional"
            ),
        )
        if self.platform is not None:
            name = region_name or f"fpga-partitions-{id(output):x}"
            # the link carried the run that completed; an aborted PAD
            # scan is charged to the output's byte count only
            self.platform.qpi.bytes_read += (
                layout.bytes_read - layout.aborted_scan_bytes
            )
            self.platform.qpi.bytes_written += layout.bytes_written
            self.platform.coherence.record_region_write(name, Socket.FPGA)
            output.produced_by = f"fpga-functional@{name}"
        return output

    def _cpu_fallback(
        self, keys: np.ndarray, payloads: np.ndarray
    ) -> PartitionedOutput:
        """The paper's software fallback for an overflowed PAD run."""
        from repro.cpu.partitioner import CpuPartitioner

        cpu_out = CpuPartitioner.matching(self.config).partition(
            keys, payloads
        )
        cpu_out.fell_back_to_cpu = True
        return cpu_out
