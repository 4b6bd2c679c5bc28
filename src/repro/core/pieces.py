"""Partitioning in pieces: the one statement of the output contract.

Every path in this repo — :class:`~repro.core.partitioner.FpgaPartitioner`
itself, ``partition_many``, the cluster router, the streaming gateway,
the spill partitioner, the fused plan executor, heavy-hitter isolation —
must reproduce the bytes of one offline ``partition()`` call, and all of
them get there the same way:

1. normalise the input once (:func:`normalize_columns`, or
   :func:`extract_columns` with generated ids materialised), so every
   piece carries the payload column the offline call would have used —
   *global* input positions for bare key arrays and in VRID mode;
2. partition each piece (a sub-range of the input, or the tuples of a
   subset of partitions) under :func:`piece_config`, the HIST/RID clone:
   same fan-out, width and hash, so piece partition ``p`` *is* global
   partition ``p``, and because the scatter is stable, concatenating
   pieces in input order gives the offline partition contents;
3. fold each piece's lane-exact ``(partition, lane)`` histogram into an
   :class:`Accounting` — a tuple's lane is its *global* input index mod
   ``num_lanes``, so misaligned pieces account like one big run.  A
   piece submitted with its global ``offset`` (a *piece request*, see
   :func:`run_piece`) gets that histogram back from whoever partitions
   it, so the folding side never hashes the piece again;
4. :meth:`Accounting.finalize` — the one-run case of
   :func:`batch_layouts` — replays the offline layout exactly once:
   per-lane dummy padding from the write-combiner flush (Section 4.2),
   the PAD capacity check and its ``raise``/``hist`` policy with the
   aborted-scan surcharge (Section 5.4), the region layout of the four
   modes (Section 4.5), and the traffic counters;
5. serve the result lazily through :class:`PieceColumn`, or write the
   pieces into one partition-major pair of columns with
   :func:`partition_major` (the spill's run files, the gateway's
   stitched stream).

:class:`Layout` is what step 4 returns; its :meth:`~Layout.to_dict` /
:meth:`~Layout.from_dict` pair is the one (de)serialiser behind the
spill manifest and the gateway MANIFEST frame.
"""

from __future__ import annotations

import collections.abc
import dataclasses
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro import kernels
from repro.core.modes import LayoutMode, OutputMode, PartitionerConfig
from repro.core.tuples import DUMMY_PAYLOAD, check_payloads_valid
from repro.errors import ConfigurationError, PartitionOverflowError
from repro.kernels.numpy_impl import lane_lines
from repro.workloads.relations import Relation

__all__ = [
    "Accounting",
    "Layout",
    "PieceColumn",
    "batch_layouts",
    "extract_columns",
    "normalize_columns",
    "partition_major",
    "piece_config",
    "piece_lanes",
    "run_piece",
]

_EMPTY = np.empty(0, dtype=np.uint32)
_NO_HOT = np.empty(0, dtype=np.int64)


def normalize_columns(
    config: PartitionerConfig,
    relation: "Relation | np.ndarray",
    payloads: Optional[np.ndarray] = None,
    offset: Optional[int] = None,
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """The ``(keys, payloads)`` columns one partitioning run consumes.

    ``relation`` is a :class:`Relation` or a uint32 key array (then
    ``payloads`` supplies the payload column in RID mode).  Bare key
    arrays get positional ids, and VRID mode always does: it is
    column-store input where only keys exist and the virtual record ids
    — the positions — are appended on the FPGA (Section 4.5).  Such ids
    are ``None`` here, left to whoever writes the output; they reach the
    reserved dummy payload only at ``2**32`` tuples, so only
    caller-supplied payloads are scanned for it.

    ``offset`` makes the input a *piece* of a longer run whose first
    tuple sits at that global position: generated ids are then the
    global positions ``offset + i``, bounded by the same length check
    (``offset + n`` must not pass the dummy value).  Such ids are real
    payloads of a RID layout — the piece's :func:`piece_config` — so a
    VRID piece is refused.
    """
    first = 0
    if offset is not None:
        first = int(offset)
        if first < 0:
            raise ConfigurationError(f"offset must be >= 0, got {offset}")
        if config.layout_mode is LayoutMode.VRID:
            raise ConfigurationError(
                "a piece carries global record ids: partition it under "
                "a RID layout (piece_config), not VRID"
            )
    if isinstance(relation, Relation):
        keys = relation.keys
        payloads = relation.payloads
    else:
        keys = np.ascontiguousarray(relation, dtype=np.uint32)
    if config.layout_mode is LayoutMode.VRID:
        payloads = None
    elif payloads is not None and not isinstance(relation, Relation):
        payloads = np.ascontiguousarray(payloads, dtype=np.uint32)
    if keys.ndim != 1 or (
        payloads is not None and keys.shape != payloads.shape
    ):
        raise ConfigurationError("keys and payloads must align")
    if keys.size == 0:
        raise ConfigurationError("cannot partition an empty relation")
    if payloads is not None:
        check_payloads_valid(payloads)
    elif first + keys.shape[0] > DUMMY_PAYLOAD:
        raise ConfigurationError(
            f"{keys.shape[0]} tuples from position {first}: generated "
            f"record ids would reach the reserved dummy value "
            f"0x{DUMMY_PAYLOAD:08X}"
        )
    return keys, payloads


def extract_columns(
    config: PartitionerConfig,
    relation: "Relation | np.ndarray",
    payloads: Optional[np.ndarray] = None,
    offset: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`normalize_columns` with the generated record ids
    materialised, for callers that need a payload column in hand."""
    keys, payloads = normalize_columns(config, relation, payloads, offset)
    if payloads is None:
        first = offset or 0
        payloads = np.arange(first, first + keys.shape[0], dtype=np.uint32)
    return keys, payloads


def run_piece(
    config: PartitionerConfig,
    relation: "Relation | np.ndarray",
    payloads: Optional[np.ndarray],
    offset: Optional[int],
    run: Callable[..., "PartitionedOutput"],
) -> "PartitionedOutput":
    """One request through ``run(relation, payloads)`` — any executor
    with the :meth:`~repro.core.partitioner.FpgaPartitioner.partition`
    contract — honouring the piece contract when ``offset`` is set.

    A piece's generated record ids are its global positions ``offset +
    i`` (materialised here, checked by :func:`normalize_columns`), and
    its output carries :attr:`~repro.core.partitioner.PartitionedOutput.lane_counts`,
    the ``(partition, lane)`` histogram with lanes counted from
    ``offset`` — one :func:`~repro.kernels.hash_histogram` pass.  This
    is how the executors without the batch kernel (split, CPU,
    isolated, spill) answer a piece request; ``partition_many`` gets
    both from its one kernel call.  Without ``offset`` this is
    ``run(relation, payloads)``.
    """
    if offset is None:
        return run(relation, payloads)
    keys, payloads = extract_columns(config, relation, payloads, offset)
    output = run(keys, payloads)
    _, _, output.lane_counts = kernels.hash_histogram(
        keys,
        config.num_partitions,
        config.uses_hash,
        lanes=config.num_lanes,
        global_offset=offset,
    )
    return output


def piece_lanes(lane_counts: np.ndarray, offset: int) -> np.ndarray:
    """A piece's ``(partition, lane)`` histogram with lanes counted from
    ``offset``, given the one counted from ``0``: lane ``(offset + i) %
    lanes`` relabels every lane by the same cyclic shift."""
    return np.roll(lane_counts, offset % lane_counts.shape[1], axis=1)


def piece_config(config: PartitionerConfig) -> PartitionerConfig:
    """The HIST/RID clone a piece is partitioned under.

    Same fan-out, tuple width and hash — so piece partition ``p`` is
    global partition ``p`` — but HIST output (PAD capacity is a property
    of the whole run, checked by :meth:`Accounting.finalize`) and RID
    layout (piece-local virtual record ids would be wrong; the caller
    supplies global positions as payloads).
    """
    return dataclasses.replace(
        config, output_mode=OutputMode.HIST, layout_mode=LayoutMode.RID
    )


@dataclasses.dataclass
class Layout:
    """The memory layout and traffic of one finished run.

    ``config`` is the *effective* configuration (HIST after a PAD
    overflow under the ``hist`` policy), ``requested_config`` the one
    the caller asked for.  ``overflow`` is set only when the ``cpu``
    policy left a PAD overflow for the caller to resolve — ``(partition,
    capacity in tuples)`` of the first partition over capacity; it is
    then the only meaningful field, the caller reruns on a CPU
    partitioner.  ``aborted_scan_bytes`` is the share of ``bytes_read``
    charged for the PAD scan a ``hist`` fallback abandoned.
    """

    requested_config: PartitionerConfig
    config: PartitionerConfig
    counts: np.ndarray
    lines_per_partition: np.ndarray
    base_lines: np.ndarray
    bytes_read: int
    bytes_written: int
    dummy_slots: int
    isolated_partitions: int = 0
    overflow: Optional[Tuple[int, int]] = None
    aborted_scan_bytes: int = 0

    def to_dict(self) -> dict:
        """JSON-native form (spill manifest / gateway MANIFEST keys)."""
        return {
            "counts": self.counts.tolist(),
            "lines_per_partition": self.lines_per_partition.tolist(),
            "base_lines": self.base_lines.tolist(),
            "bytes_read": int(self.bytes_read),
            "bytes_written": int(self.bytes_written),
            "dummy_slots": int(self.dummy_slots),
            "config": self.requested_config.to_dict(),
            "effective_config": self.config.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Layout":
        """Inverse of :meth:`to_dict`."""
        return cls(
            requested_config=PartitionerConfig.from_dict(data["config"]),
            config=PartitionerConfig.from_dict(data["effective_config"]),
            counts=np.asarray(data["counts"], dtype=np.int64),
            lines_per_partition=np.asarray(
                data["lines_per_partition"], dtype=np.int64
            ),
            base_lines=np.asarray(data["base_lines"], dtype=np.int64),
            bytes_read=int(data["bytes_read"]),
            bytes_written=int(data["bytes_written"]),
            dummy_slots=int(data["dummy_slots"]),
        )


class Accounting:
    """Lane-exact global accounting of one run, folded piece by piece.

    Args:
        config: the *requested* configuration of the whole run.
        lane_counts: a ready ``(partition, lane)`` histogram of the
            whole input, for callers that already ran the histogram
            pass (they need the partition indices for their scatter).
    """

    def __init__(
        self,
        config: PartitionerConfig,
        lane_counts: Optional[np.ndarray] = None,
    ):
        self.config = config
        if lane_counts is None:
            lane_counts = np.zeros(
                (config.num_partitions, config.num_lanes), dtype=np.int64
            )
        self.lane_counts = lane_counts
        #: tuples folded in so far — the next piece's global offset
        self.tuples = int(lane_counts.sum())

    def observe(self, keys: np.ndarray) -> int:
        """Fold the next piece (in input order) in; returns the global
        input offset of its first tuple."""
        offset = self.tuples
        self.observe_parts(keys)
        return offset

    def observe_parts(self, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`observe`, returning what its one histogram pass
        computed: the piece's partition indices and per-partition
        counts — all a caller needs to scatter the piece."""
        parts, counts, lane_hist = kernels.hash_histogram(
            np.asarray(keys),
            self.config.num_partitions,
            self.config.uses_hash,
            lanes=self.config.num_lanes,
            global_offset=self.reserve(int(keys.shape[0])),
        )
        self.fold(lane_hist)
        return parts, counts

    def reserve(self, tuples: int) -> int:
        """Claim the next ``tuples`` global positions without hashing;
        returns the first.  The piece's histogram, counted from that
        position, is :meth:`fold`-ed in once someone computed it."""
        offset = self.tuples
        self.tuples += tuples
        return offset

    def fold(self, lane_counts: np.ndarray) -> None:
        """Add a reserved piece's ``(partition, lane)`` histogram."""
        self.lane_counts += lane_counts

    def finalize(
        self, on_overflow: str = "raise", hot: Sequence[int] = ()
    ) -> Layout:
        """Replay the offline layout, overflow policy and traffic math:
        the one-row case of :func:`batch_layouts`, whose arguments it
        takes."""
        counts, lines = lane_lines(
            self.lane_counts, self.config.tuples_per_line
        )
        return batch_layouts(
            self.config, counts[None], lines[None], on_overflow, hot
        )[0]


def batch_layouts(
    config: PartitionerConfig,
    counts: np.ndarray,
    lines: np.ndarray,
    on_overflow: str = "raise",
    hot: Sequence[int] = (),
) -> List[Layout]:
    """One :class:`Layout` per row of the ``(runs, P)`` tuple counts and
    lines of a batch of runs — the layout math of the four modes stated
    once, as ``(runs, P)`` array operations, so a batch pays it once.

    Args:
        config: the *requested* configuration of every run.
        counts, lines: each run's tuples and write-combiner lines per
            partition (what :func:`~repro.kernels.partition_batch`
            returns).
        on_overflow: PAD overflow policy, applied to each run on its
            own.  ``"raise"`` raises :class:`PartitionOverflowError` for
            the first overflowing run (the hardware aborts before
            scattering); ``"hist"`` relabels that run HIST and charges
            the aborted PAD scan in full, the worst case of Section 5.4
            ("this might happen at the very end"); ``"cpu"`` only
            reports it, as :attr:`Layout.overflow`.
        hot: partition ids carved out of the PAD grid into exact-fit
            regions appended after it (heavy-hitter isolation); they
            are exempt from the capacity check.  Ignored for a run whose
            effective mode is HIST, which has no grid.
    """
    per_line = config.tuples_per_line
    num_partitions = config.num_partitions
    runs = counts.shape[0]
    tuples = counts.sum(axis=1)
    total_lines = lines.sum(axis=1)
    hot = np.asarray(hot, dtype=np.int64) if len(hot) else _NO_HOT
    # the traffic of every run that keeps the requested config; a run
    # the ``hist`` policy relabels is recounted below
    traffic = config.traffic_bytes(tuples, total_lines)
    bytes_read, bytes_written = (column.tolist() for column in traffic)
    dummy_slots = (total_lines * per_line - tuples).tolist()

    effective = [config] * runs
    surcharge = [0] * runs
    overflow: List[Optional[Tuple[int, int]]] = [None] * runs
    base_lines = np.zeros((runs, num_partitions), dtype=np.int64)
    np.cumsum(lines[:, :-1], axis=1, out=base_lines[:, 1:])
    if config.output_mode is OutputMode.PAD:
        capacity_lines = np.array(
            [config.partition_capacity(n) for n in tuples.tolist()],
            dtype=np.int64,
        ) // per_line
        over = lines > capacity_lines[:, None]
        if hot.size:
            over[:, hot] = False
        grid = np.ones(runs, dtype=bool)  # runs still on the PAD grid
        for run in np.flatnonzero(over.any(axis=1)).tolist():
            n = int(tuples[run])
            first = (
                int(over[run].argmax()), int(capacity_lines[run]) * per_line
            )
            if on_overflow == "raise":
                raise PartitionOverflowError(
                    partition=first[0], capacity=first[1], tuples_seen=n
                )
            if on_overflow == "hist":
                effective[run] = dataclasses.replace(
                    config, output_mode=OutputMode.HIST
                )
                surcharge[run] = config.traffic_bytes(n, 0)[0]
                bytes_read[run], bytes_written[run] = (
                    effective[run].traffic_bytes(n, int(total_lines[run]))
                )
                bytes_read[run] += surcharge[run]
                grid[run] = False
            elif on_overflow == "cpu":
                overflow[run] = first
            else:
                raise ConfigurationError(
                    f"unknown overflow policy {on_overflow!r}; "
                    "expected 'raise', 'hist' or 'cpu'"
                )
        base_lines[grid] = (
            np.arange(num_partitions, dtype=np.int64)
            * capacity_lines[grid, None]
        )
        if hot.size:
            hot_lines = lines[grid][:, hot]
            base_lines[np.ix_(grid, hot)] = (
                num_partitions * capacity_lines[grid, None]
                + np.cumsum(hot_lines, axis=1)
                - hot_lines
            )

    return [
        Layout(
            requested_config=config,
            config=effective[run],
            counts=counts[run],
            lines_per_partition=lines[run],
            base_lines=base_lines[run],
            bytes_read=bytes_read[run],
            bytes_written=bytes_written[run],
            dummy_slots=dummy_slots[run],
            isolated_partitions=int(hot.size) * (
                effective[run].output_mode is OutputMode.PAD
            ),
            overflow=overflow[run],
            aborted_scan_bytes=surcharge[run],
        )
        for run in range(runs)
    ]


def partition_major(
    pieces: Iterable[Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]],
    counts: np.ndarray,
    out_keys: np.ndarray,
    out_payloads: np.ndarray,
) -> np.ndarray:
    """Write pieces, in order, as one partition-major pair of columns.

    ``pieces`` yields ``(keys, payloads, parts)`` and ``counts`` is
    their ``int64[pieces, P]`` histogram.  Partition ``p`` starts at the
    exclusive prefix of the column totals, and within it each piece's
    tuples start after those of the pieces before it, so a partition's
    tuples land in piece order — the offline partition contents.  A
    piece with partition indices is one
    :func:`~repro.kernels.stable_scatter`; one whose ``parts`` is
    ``None`` is already partition-ordered — its counts row gives its
    runs (a partitioned chunk) — and every such piece is copied run by
    run in one :func:`~repro.kernels.copy_runs` call.  Returns the
    ``int64[P + 1]`` partition boundaries.
    """
    counts = np.asarray(counts, dtype=np.int64)
    num_partitions = counts.shape[1]
    bounds = np.zeros(num_partitions + 1, dtype=np.int64)
    np.cumsum(counts.sum(axis=0), out=bounds[1:])
    # where each piece's run of each partition starts
    dest = np.cumsum(counts, axis=0)
    dest -= counts
    dest += bounds[:-1]
    ordered: List[int] = []
    columns = []
    for index, (keys, payloads, parts) in enumerate(pieces):
        if parts is None:
            ordered.append(index)
            columns.append((keys, payloads))
        else:
            kernels.stable_scatter(
                keys, payloads, parts, dest[index], num_partitions,
                out_keys, out_payloads,
            )
    if ordered:
        kernels.copy_runs(
            columns, counts[ordered], dest[ordered], out_keys, out_payloads
        )
    return bounds


class PieceColumn(collections.abc.Sequence):
    """Lazy per-partition column over whatever serves each partition.

    Entry ``p`` is ``read(p)``, evaluated on access — a slice of an
    array, entry ``p`` of another column (a shard's output), a
    partition's slices gathered from the spill run files; ``None``
    stands for an empty partition — so assembling an output copies
    nothing and touching one partition of a spilled terabyte reads
    only that partition.  Behaves like the ``List[np.ndarray]`` it
    stands in for; assigned entries are kept in a sparse override map.
    :class:`~repro.core.partitioner.PartitionSlices` remains the fast
    path for one contiguous sorted buffer.
    """

    __slots__ = ("_length", "_read", "_overrides")

    def __init__(
        self,
        num_partitions: int,
        read: Callable[[int], Optional[np.ndarray]],
    ):
        self._length = num_partitions
        self._read = read
        self._overrides: Optional[dict] = None

    def __len__(self) -> int:
        return self._length

    def _normalize(self, index: int) -> int:
        if index < 0:
            index += self._length
        if not 0 <= index < self._length:
            raise IndexError(index)
        return index

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(self._length))]
        index = self._normalize(index)
        if self._overrides is not None and index in self._overrides:
            return self._overrides[index]
        value = self._read(index)
        return _EMPTY if value is None else value

    def __setitem__(self, index: int, value: np.ndarray) -> None:
        index = self._normalize(index)
        if self._overrides is None:
            self._overrides = {}
        self._overrides[index] = value
