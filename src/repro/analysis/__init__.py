"""Partition-quality analysis (Figure 3, Section 3.2).

Tools to quantify how balanced a partitioning came out: cumulative
distribution functions over partition sizes (the Figure 3 plots),
scalar balance metrics used by tests and benchmarks, and the one-pass
streaming sketches (:mod:`repro.analysis.sketch`) the out-of-core
storage engine computes at ingest time.
"""

from repro.analysis.histogram import (
    partition_cdf,
    partition_histogram,
    partition_histogram_streamed,
)
from repro.analysis.balance import BalanceReport, balance_report
from repro.analysis.sketch import (
    HeavyHitterSketch,
    HyperLogLogSketch,
    PartitionPlan,
    StreamSketch,
)
from repro.analysis.verify import (
    VerificationReport,
    outputs_identical,
    verify_join_pairs,
    verify_partitioning,
)

__all__ = [
    "partition_cdf",
    "partition_histogram",
    "partition_histogram_streamed",
    "BalanceReport",
    "balance_report",
    "HeavyHitterSketch",
    "HyperLogLogSketch",
    "PartitionPlan",
    "StreamSketch",
    "VerificationReport",
    "outputs_identical",
    "verify_partitioning",
    "verify_join_pairs",
]
