"""Reproduction of "FPGA-based Data Partitioning" (SIGMOD 2017).

Kara, Giceva and Alonso built a fully pipelined FPGA data partitioner
for the Intel Xeon+FPGA platform and used it as the partitioning phase
of a hybrid radix hash join.  This library reproduces the whole system
in Python: a cycle-level simulation of the circuit, a model of the
platform (QPI bandwidth, shared memory, coherence), the CPU
state-of-the-art baseline, the joins, and a benchmark for every table
and figure of the paper's evaluation.

Quickstart::

    import repro
    from repro import PartitionerConfig, FpgaPartitioner, make_workload

    wl = repro.make_workload("A", scale=1000)
    out = FpgaPartitioner(PartitionerConfig(num_partitions=1024)).partition(wl.r)
    print(out.counts.max(), out.padding_fraction)

See ``examples/`` for complete programs and ``benchmarks/`` for the
per-figure reproductions.
"""

from repro.core import (
    FpgaCostModel,
    FpgaPartitioner,
    HashKind,
    LayoutMode,
    ModelPrediction,
    OutputMode,
    PartitionedOutput,
    PartitionerConfig,
    ResourceUsage,
    estimate_resources,
    murmur3_finalizer,
    partition_of,
    radix_bits,
)
from repro.core.afu import PartitionerAfu
from repro.core.materialize import materialize_vrid
from repro.cpu import CpuCostModel, CpuPartitioner
from repro.join import (
    BucketChainingHashTable,
    BuildProbeCostModel,
    JoinResult,
    JoinTiming,
    cpu_radix_join,
    hybrid_join,
)
from repro.join.no_partition_join import no_partition_join
from repro.ops import partitioned_groupby
from repro.platform import (
    Agent,
    BandwidthModel,
    CoherenceDirectory,
    XeonFpgaPlatform,
)
from repro.workloads import (
    KeyDistribution,
    Relation,
    Workload,
    generate_keys,
    make_relation,
    make_workload,
)
from repro.analysis import (
    balance_report,
    partition_cdf,
    partition_histogram,
    verify_join_pairs,
    verify_partitioning,
)
from repro.errors import (
    ConfigurationError,
    PartitionOverflowError,
    ReproError,
    SimulationError,
)
from repro.exec import ExecutionEngine, resolve_engine

__version__ = "1.0.0"

__all__ = [
    # core
    "FpgaPartitioner",
    "PartitionerConfig",
    "PartitionedOutput",
    "OutputMode",
    "LayoutMode",
    "HashKind",
    "FpgaCostModel",
    "ModelPrediction",
    "ResourceUsage",
    "estimate_resources",
    "murmur3_finalizer",
    "radix_bits",
    "partition_of",
    "PartitionerAfu",
    "materialize_vrid",
    # cpu
    "CpuPartitioner",
    "CpuCostModel",
    # join
    "BucketChainingHashTable",
    "BuildProbeCostModel",
    "cpu_radix_join",
    "hybrid_join",
    "no_partition_join",
    "JoinResult",
    "JoinTiming",
    # ops
    "partitioned_groupby",
    # platform
    "XeonFpgaPlatform",
    "BandwidthModel",
    "Agent",
    "CoherenceDirectory",
    # workloads
    "Relation",
    "Workload",
    "KeyDistribution",
    "generate_keys",
    "make_relation",
    "make_workload",
    # analysis
    "partition_histogram",
    "partition_cdf",
    "balance_report",
    "verify_partitioning",
    "verify_join_pairs",
    # exec
    "ExecutionEngine",
    "resolve_engine",
    # errors
    "ReproError",
    "ConfigurationError",
    "PartitionOverflowError",
    "SimulationError",
    "__version__",
]
