"""Partitioner configuration: modes of operation (Section 4.5).

The partitioner has two binary configuration parameters, giving four
modes of operation:

* Output format — :class:`OutputMode`:

  - ``HIST`` (histogram building): a first pass over the relation
    builds a per-partition histogram in BRAM; a second pass writes
    tuples to exact prefix-sum destinations.  Two scans, minimal
    intermediate memory, robust against any skew.
  - ``PAD`` (padding): every partition is preassigned a fixed region of
    ``n / fanout + padding`` tuples and written in a single pass.  If a
    partition overflows, the run aborts and falls back to a CPU
    partitioner (Section 5.4: realistic paddings fail above Zipf 0.25).

* Input layout — :class:`LayoutMode`:

  - ``RID`` (record id): tuples are materialised <key, payload> rows.
  - ``VRID`` (virtual record id): column-store mode.  Only the key
    column is read; the FPGA appends a 4 B virtual record id (the
    tuple's position) on the fly, halving the bytes read over QPI.

Plus the hash selection of Section 4.1 — :class:`HashKind` (murmur or
radix) — which is performance-neutral on the FPGA.
"""

from __future__ import annotations

import dataclasses
import enum

from repro.constants import CACHE_LINE_BYTES, SUPPORTED_TUPLE_WIDTHS
from repro.core.hashing import fanout_bits
from repro.errors import ConfigurationError


class OutputMode(str, enum.Enum):
    """HIST (two-pass, histogram) or PAD (one-pass, padded regions)."""

    HIST = "HIST"
    PAD = "PAD"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class LayoutMode(str, enum.Enum):
    """RID (row layout) or VRID (column-store key-only input)."""

    RID = "RID"
    VRID = "VRID"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class HashKind(str, enum.Enum):
    """Partition-index function: robust murmur hash or raw radix bits."""

    MURMUR = "murmur"
    RADIX = "radix"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclasses.dataclass(frozen=True)
class PartitionerConfig:
    """Full configuration of one partitioner instantiation.

    Attributes:
        num_partitions: fan-out; must be a power of two (the hardware
            indexes BRAMs with the partition bits).  The paper evaluates
            256..8192.
        tuple_bytes: 8, 16, 32 or 64 (Section 4.4).
        output_mode: HIST or PAD.
        layout_mode: RID or VRID.
        hash_kind: murmur or radix.
        pad_tuples: PAD mode only — extra per-partition slack in tuples
            on top of the fair share ``n / num_partitions``.  If None, a
            default of 50% of the fair share is used (chosen so uniform
            workloads never overflow while Zipf > 0.25 does, matching
            Section 5.4).
    """

    num_partitions: int = 8192
    tuple_bytes: int = 8
    output_mode: OutputMode = OutputMode.HIST
    layout_mode: LayoutMode = LayoutMode.RID
    hash_kind: HashKind = HashKind.MURMUR
    pad_tuples: int | None = None

    def __post_init__(self) -> None:
        fanout_bits(self.num_partitions)  # validates power of two
        if self.tuple_bytes not in SUPPORTED_TUPLE_WIDTHS:
            raise ConfigurationError(
                f"tuple_bytes must be one of {SUPPORTED_TUPLE_WIDTHS}, "
                f"got {self.tuple_bytes}"
            )
        if self.pad_tuples is not None and self.pad_tuples < 0:
            raise ConfigurationError(
                f"pad_tuples must be >= 0, got {self.pad_tuples}"
            )
        if (
            self.layout_mode is LayoutMode.VRID
            and self.tuple_bytes != 8
        ):
            raise ConfigurationError(
                "VRID mode reads a 4 B key column and appends a 4 B "
                "virtual record id, producing 8 B tuples; configure "
                "tuple_bytes=8"
            )

    @property
    def partition_bits(self) -> int:
        """Number of hash bits used as the partition index."""
        return fanout_bits(self.num_partitions)

    @property
    def tuples_per_line(self) -> int:
        """Tuples packed into one 64 B cache line (8 for 8 B tuples)."""
        return CACHE_LINE_BYTES // self.tuple_bytes

    @property
    def num_lanes(self) -> int:
        """Parallel hash-module / write-combiner lanes in the circuit.

        One lane per tuple slot of the input cache line (Figure 5 shows
        8 lanes for 8 B tuples; Figure 7 shows fewer for wider tuples).
        """
        return self.tuples_per_line

    @property
    def uses_hash(self) -> bool:
        return self.hash_kind is HashKind.MURMUR

    @property
    def mode_factor(self) -> int:
        """``f_mode`` of the analytical model: 2 for HIST, 1 for PAD."""
        return 2 if self.output_mode is OutputMode.HIST else 1

    @property
    def mode_label(self) -> str:
        """Label like ``"PAD/VRID"`` as used in Figure 9."""
        return f"{self.output_mode.value}/{self.layout_mode.value}"

    def default_pad_tuples(self, num_tuples: int) -> int:
        """Effective per-partition padding for ``num_tuples`` inputs."""
        if self.pad_tuples is not None:
            return self.pad_tuples
        fair_share = max(1, num_tuples // self.num_partitions)
        return max(self.tuples_per_line, fair_share // 2)

    def partition_capacity(self, num_tuples: int) -> int:
        """PAD-mode fixed capacity per partition, in tuples.

        ``#Tuples/#Partitions + Padding`` (Section 4.5), rounded up to
        whole cache lines because the write-back module addresses
        partitions in cache-line units — plus one line of slack per
        lane, since each of the ``num_lanes`` write combiners can leave
        a dummy-padded partial line in every partition at flush time.
        """
        fair_share = -(-num_tuples // self.num_partitions)  # ceil
        capacity = fair_share + self.default_pad_tuples(num_tuples)
        per_line = self.tuples_per_line
        whole_lines = -(-capacity // per_line)
        return (whole_lines + self.num_lanes) * per_line

    def traffic_bytes(
        self, n_tuples: int, lines_written: int
    ) -> tuple:
        """(bytes_read, bytes_written) for one partitioning pass.

        HIST scans the input twice, PAD once; VRID reads only the 4 B
        key column.  Writes are whatever the write-back emitted, in
        64 B cache-line units.  This is the accounting both the
        in-memory partitioner and the out-of-core spill path use, so
        their reported traffic stays byte-identical.
        """
        passes = 2 if self.output_mode is OutputMode.HIST else 1
        if self.layout_mode is LayoutMode.VRID:
            keys_per_line = CACHE_LINE_BYTES // 4
            lines_read = -(-n_tuples // keys_per_line)
        else:
            lines_read = -(-n_tuples // self.tuples_per_line)
        bytes_read = passes * lines_read * CACHE_LINE_BYTES
        bytes_written = lines_written * CACHE_LINE_BYTES
        return bytes_read, bytes_written

    def to_dict(self) -> dict:
        """JSON-native form: the ``config`` entry of the spill manifest
        and of the gateway's HELLO / HELLO_OK / MANIFEST frames."""
        return {
            "num_partitions": self.num_partitions,
            "tuple_bytes": self.tuple_bytes,
            "output_mode": self.output_mode.value,
            "layout_mode": self.layout_mode.value,
            "hash_kind": self.hash_kind.value,
            "pad_tuples": self.pad_tuples,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PartitionerConfig":
        """Inverse of :meth:`to_dict`.

        The input may come off the network (a HELLO frame), so anything
        malformed — not a mapping, a missing key, a value of the wrong
        type, an unknown mode — raises :class:`ConfigurationError`.
        """
        try:
            pad_tuples = data["pad_tuples"]
            return cls(
                num_partitions=int(data["num_partitions"]),
                tuple_bytes=int(data["tuple_bytes"]),
                output_mode=OutputMode(data["output_mode"]),
                layout_mode=LayoutMode(data["layout_mode"]),
                hash_kind=HashKind(data["hash_kind"]),
                pad_tuples=None if pad_tuples is None else int(pad_tuples),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"malformed partitioner config {data!r}: {exc!r}"
            ) from exc

    def read_write_ratio(self) -> float:
        """``r`` — sequential-read to random-write byte ratio (Table 3).

        HIST/RID reads the data twice and writes once (r = 2);
        HIST/VRID reads the 4 B key column twice (= one tuple-width
        read) and writes full tuples (r = 1); PAD/RID reads and writes
        once (r = 1); PAD/VRID reads half a tuple and writes a full one
        (r = 0.5).  Only defined for the 8 B <4 B key, 4 B payload>
        scheme in VRID mode.
        """
        reads = 2.0 if self.output_mode is OutputMode.HIST else 1.0
        if self.layout_mode is LayoutMode.VRID:
            reads *= 0.5
        return reads
