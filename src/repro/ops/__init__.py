"""Operators built on top of the partitioner (Section 6).

The paper's discussion section points out that the partitioner is not
join-specific: "the partitioning we have described can also be used for
a hardware conscious group by aggregation [1] and in other operators
involving partitioning [27]".  This package provides one such consumer,
:func:`partitioned_groupby` — cache-conscious group-by aggregation
driven by the FPGA (or CPU) partitioner.
"""

from repro.ops.groupby import GroupByResult, partitioned_groupby

__all__ = ["partitioned_groupby", "GroupByResult"]
