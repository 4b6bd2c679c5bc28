"""Partitioned group-by aggregation (Section 6, following [1]).

The same trick that makes the radix join fast makes aggregation fast:
hash-partition the input so each partition's group set fits in cache,
then aggregate each partition independently (every key lives in exactly
one partition, so no cross-partition merge is needed).

Supported aggregates: sum, count, min, max, mean — all computed
vectorised per partition.  :func:`partitioned_groupby` builds a
group-by plan and runs it through the plan layer's per-partition
driver (:mod:`repro.plan.executor`), the same one the join+aggregate
chain uses; this module keeps the per-partition kernels it calls.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Optional

import numpy as np

from repro.core.modes import PartitionerConfig
from repro.workloads.relations import Relation

_AGGREGATES: Dict[str, Callable] = {
    "sum": np.add.reduceat,
    "count": None,
    "min": np.minimum.reduceat,
    "max": np.maximum.reduceat,
    "mean": None,
}


@dataclasses.dataclass
class GroupByResult:
    """Aggregation output: one row per distinct key."""

    keys: np.ndarray
    values: np.ndarray
    aggregate: str
    num_partitions_used: int

    @property
    def num_groups(self) -> int:
        return int(self.keys.shape[0])

    def as_dict(self) -> Dict[int, float]:
        """Small-result convenience (tests, examples)."""
        return {int(k): v for k, v in zip(self.keys, self.values)}


def partitioned_groupby(
    keys: np.ndarray | Relation,
    values: Optional[np.ndarray] = None,
    aggregate: str = "sum",
    num_partitions: int = 256,
    config: Optional[PartitionerConfig] = None,
    engine=None,
    threads: Optional[int] = None,
) -> GroupByResult:
    """Group-by aggregation via hash partitioning.

    Runs as a group-by plan (:func:`repro.plan.execute_plan`): the
    input is partitioned ``<key, row-id>`` and each partition's values
    are gathered and aggregated on its own.

    Args:
        keys: uint32 group keys, or a :class:`Relation` whose payloads
            are the values.
        values: the column to aggregate (defaults to the relation's
            payloads, or all-ones for ``count``).
        aggregate: one of ``sum``, ``count``, ``min``, ``max``, ``mean``.
        num_partitions: partitioning fan-out (power of two).
        config: partitioner configuration to split with; defaults to
            HIST mode with murmur hashing at ``num_partitions``-way
            (the robust choice — grouped keys are exactly the
            structured inputs radix bits mishandle).
        engine: execution-engine spec, as the joins accept it — ``None``
            (sequential), ``"serial"``/``"parallel"``/``"thread"``/
            ``"process"``, or a shared
            :class:`~repro.exec.engine.ExecutionEngine`.  Drives both
            the partitioning and the per-partition aggregation fan-out.
        threads: worker count for string engine specs.

    Returns:
        A :class:`GroupByResult` with one entry per distinct key,
        sorted by key.
    """
    from repro.plan import execute_plan, groupby_query

    result = execute_plan(
        groupby_query(
            keys,
            values=values,
            aggregate=aggregate,
            config=config or PartitionerConfig(num_partitions=num_partitions),
        ),
        engine=engine,
        threads=threads,
    )
    return GroupByResult(
        keys=result.group_keys,
        values=result.group_values,
        aggregate=aggregate,
        num_partitions_used=result.num_partitions,
    )


def _group_starts(p_keys: np.ndarray, p_values: np.ndarray):
    """Sort one partition by key and find the run boundaries."""
    order = np.argsort(p_keys, kind="stable")
    sorted_keys = p_keys[order]
    sorted_values = p_values[order]
    boundaries = np.empty(sorted_keys.shape[0], dtype=bool)
    boundaries[0] = True
    boundaries[1:] = sorted_keys[1:] != sorted_keys[:-1]
    starts = np.nonzero(boundaries)[0]
    return sorted_keys[starts], {"values": sorted_values, "bounds": starts}


def _aggregate_runs(aggregate: str, values: np.ndarray, starts: np.ndarray):
    if aggregate == "count":
        ends = np.append(starts[1:], values.shape[0])
        return (ends - starts).astype(np.int64)
    if aggregate == "mean":
        sums = np.add.reduceat(values.astype(np.float64), starts)
        ends = np.append(starts[1:], values.shape[0])
        return sums / (ends - starts)
    if aggregate == "sum":
        return np.add.reduceat(values.astype(np.int64), starts)
    reducer = _AGGREGATES[aggregate]
    return reducer(values, starts)
