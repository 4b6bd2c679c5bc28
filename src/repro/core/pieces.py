"""Partitioning in pieces: the one statement of the output contract.

Every path in this repo — :class:`~repro.core.partitioner.FpgaPartitioner`
itself, ``partition_many``, the cluster router, the streaming gateway,
the spill partitioner, the fused plan executor, heavy-hitter isolation —
must reproduce the bytes of one offline ``partition()`` call, and all of
them get there the same way:

1. normalise the input once (:func:`extract_columns`), so every piece
   carries the payload column the offline call would have used —
   *global* input positions for bare key arrays and in VRID mode;
2. partition each piece (a sub-range of the input, or the tuples of a
   subset of partitions) under :func:`piece_config`, the HIST/RID clone:
   same fan-out, width and hash, so piece partition ``p`` *is* global
   partition ``p``, and because the scatter is stable, concatenating
   pieces in input order gives the offline partition contents;
3. fold each piece's lane-exact ``(partition, lane)`` histogram into an
   :class:`Accounting` — a tuple's lane is its *global* input index mod
   ``num_lanes``, so misaligned pieces account like one big run;
4. :meth:`Accounting.finalize` replays the offline layout exactly once:
   per-lane dummy padding from the write-combiner flush (Section 4.2),
   the PAD capacity check and its ``raise``/``hist`` policy with the
   aborted-scan surcharge (Section 5.4), the region layout of the four
   modes (Section 4.5), and the traffic counters;
5. serve the result lazily through :class:`PieceColumn`.

:class:`Layout` is what step 4 returns; its :meth:`~Layout.to_dict` /
:meth:`~Layout.from_dict` pair is the one (de)serialiser behind the
spill manifest and the gateway MANIFEST frame.
"""

from __future__ import annotations

import collections.abc
import dataclasses
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from repro import kernels
from repro.core.modes import LayoutMode, OutputMode, PartitionerConfig
from repro.core.tuples import check_payloads_valid
from repro.errors import ConfigurationError, PartitionOverflowError
from repro.workloads.relations import Relation

__all__ = [
    "Accounting",
    "Layout",
    "PieceColumn",
    "extract_columns",
    "piece_config",
]

_EMPTY = np.empty(0, dtype=np.uint32)
_NO_HOT = np.empty(0, dtype=np.int64)


def extract_columns(
    config: PartitionerConfig,
    relation: "Relation | np.ndarray",
    payloads: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """The ``(keys, payloads)`` columns one partitioning run consumes.

    ``relation`` is a :class:`Relation` or a uint32 key array (then
    ``payloads`` supplies the payload column in RID mode).  Bare key
    arrays get positional ids, and VRID mode always does: it is
    column-store input where only keys exist and the virtual record ids
    — the positions — are appended on the FPGA.
    """
    if isinstance(relation, Relation):
        keys = relation.keys
        payloads = relation.payloads
    else:
        keys = np.ascontiguousarray(relation, dtype=np.uint32)
    if config.layout_mode is LayoutMode.VRID or payloads is None:
        payloads = np.arange(keys.shape[0], dtype=np.uint32)
    elif not isinstance(relation, Relation):
        payloads = np.ascontiguousarray(payloads, dtype=np.uint32)
    if keys.shape != payloads.shape:
        raise ConfigurationError("keys and payloads must align")
    if keys.size == 0:
        raise ConfigurationError("cannot partition an empty relation")
    check_payloads_valid(payloads)
    return keys, payloads


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
        _, _, lane_hist = kernels.hash_histogram(
            np.asarray(keys),
            self.config.num_partitions,
            self.config.uses_hash,
            lanes=self.config.num_lanes,
            global_offset=offset,
        )
        self.lane_counts += lane_hist
        self.tuples += int(keys.shape[0])
        return offset

    def finalize(
        self, on_overflow: str = "raise", hot: Sequence[int] = ()
    ) -> Layout:
        """Replay the offline layout, overflow policy and traffic math.

        Args:
            on_overflow: PAD overflow policy.  ``"raise"`` raises
                :class:`PartitionOverflowError` (the hardware aborts
                before scattering); ``"hist"`` relabels the run HIST and
                charges the aborted PAD scan in full, the worst case of
                Section 5.4 ("this might happen at the very end");
                ``"cpu"`` only reports it, as :attr:`Layout.overflow`.
            hot: partition ids carved out of the PAD grid into exact-fit
                regions appended after it (heavy-hitter isolation); they
                are exempt from the capacity check.  Ignored when the
                effective mode is HIST, which has no grid.
        """
        cfg = self.config
        n = self.tuples
        per_line = cfg.tuples_per_line
        num_partitions = cfg.num_partitions
        # (row sums via einsum: numpy's axis=1 reduction over a handful
        # of lanes is several times slower, and this runs per request)
        counts = np.einsum("pl->p", self.lane_counts)
        # each lane's write combiner flushes its own partial line per
        # partition, dummy-padded: lines are rounded up per lane
        lines = np.einsum("pl->p", -(-self.lane_counts // per_line))
        total_lines = int(lines.sum())
        hot = np.asarray(hot, dtype=np.int64) if len(hot) else _NO_HOT

        effective = cfg
        surcharge = 0
        overflow = None
        if cfg.output_mode is OutputMode.PAD:
            capacity_lines = cfg.partition_capacity(n) // per_line
            over = lines > capacity_lines
            if hot.size:
                over[hot] = False
            if over.any():
                first = (int(over.argmax()), capacity_lines * per_line)
                if on_overflow == "raise":
                    raise PartitionOverflowError(
                        partition=first[0], capacity=first[1], tuples_seen=n
                    )
                if on_overflow == "hist":
                    effective = dataclasses.replace(
                        cfg, output_mode=OutputMode.HIST
                    )
                    surcharge = cfg.traffic_bytes(n, 0)[0]
                elif on_overflow == "cpu":
                    overflow = first
                else:
                    raise ConfigurationError(
                        f"unknown overflow policy {on_overflow!r}; "
                        "expected 'raise', 'hist' or 'cpu'"
                    )

        if effective.output_mode is OutputMode.PAD:
            base_lines = (
                np.arange(num_partitions, dtype=np.int64) * capacity_lines
            )
            if hot.size:
                hot_lines = lines[hot]
                base_lines[hot] = (
                    num_partitions * capacity_lines
                    + np.cumsum(hot_lines)
                    - hot_lines
                )
        else:
            hot = _NO_HOT
            base_lines = np.zeros(num_partitions, dtype=np.int64)
            np.cumsum(lines[:-1], out=base_lines[1:])

        bytes_read, bytes_written = effective.traffic_bytes(n, total_lines)
        return Layout(
            requested_config=cfg,
            config=effective,
            counts=counts,
            lines_per_partition=lines,
            base_lines=base_lines,
            bytes_read=bytes_read + surcharge,
            bytes_written=bytes_written,
            dummy_slots=total_lines * per_line - n,
            isolated_partitions=int(hot.size),
            overflow=overflow,
            aborted_scan_bytes=surcharge,
        )


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
