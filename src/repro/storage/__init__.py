"""Out-of-core storage engine: stored relations + spill partitioning.

Two layers:

* :mod:`repro.storage.store` — :class:`RelationStore`, a chunked,
  memory-mapped columnar relation on disk with an atomically-updated
  JSON manifest (per-chunk CRC-32, ingest-time cardinality/skew
  sketch).
* :mod:`repro.storage.spill` — :class:`SpillPartitioner`, which
  streams a stored relation chunk by chunk through an in-memory
  backend under a bounded memory budget, spills one partition-major
  sorted run file per flush — together **byte-identical** to the
  in-memory result — and can :meth:`~SpillPartitioner.resume` a
  killed run from its last checkpoint.  :class:`PartitionSpill` is the
  lazy handle that gathers a partition out of the finished runs.

See ``docs/STORAGE.md`` for the on-disk formats and the recovery
protocol.
"""

from repro.storage.spill import PartitionSpill, SpillPartitioner
from repro.storage.store import (
    ChunkMeta,
    RelationStore,
    StorageError,
    write_json_atomic,
)

__all__ = [
    "ChunkMeta",
    "PartitionSpill",
    "RelationStore",
    "SpillPartitioner",
    "StorageError",
    "write_json_atomic",
]
