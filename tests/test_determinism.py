"""Determinism tests: identical inputs must give identical outputs.

Reproducibility is the point of a reproduction; every stochastic
component is seeded and every pipeline is deterministic, so repeated
runs must agree bit for bit.
"""

import numpy as np

from repro.core.circuit import PartitionerCircuit
from repro.core.modes import OutputMode, PartitionerConfig
from repro.core.partitioner import FpgaPartitioner
from repro.cpu.swwc_buffers import swwc_partition
from repro.join.radix_join import cpu_radix_join
from repro.ops import partitioned_groupby
from repro.workloads.distributions import random_keys, zipf_keys
from repro.workloads.relations import make_workload


class TestGenerators:
    def test_random_keys_reproducible(self):
        assert np.array_equal(
            random_keys(1000, seed=42), random_keys(1000, seed=42)
        )

    def test_zipf_reproducible(self):
        assert np.array_equal(
            zipf_keys(1000, 1.0, seed=3), zipf_keys(1000, 1.0, seed=3)
        )

    def test_workloads_reproducible(self):
        a = make_workload("C", scale=100000, seed=5)
        b = make_workload("C", scale=100000, seed=5)
        assert np.array_equal(a.r.keys, b.r.keys)
        assert np.array_equal(a.s.keys, b.s.keys)


class TestPartitioners:
    def test_functional_partitioner_bitwise_stable(self, small_keys, small_payloads):
        config = PartitionerConfig(num_partitions=32, output_mode=OutputMode.HIST)
        a = FpgaPartitioner(config).partition(small_keys, small_payloads)
        b = FpgaPartitioner(config).partition(small_keys, small_payloads)
        for p in range(32):
            assert np.array_equal(a.partition_keys[p], b.partition_keys[p])
            assert np.array_equal(
                a.partition_payloads[p], b.partition_payloads[p]
            )

    def test_circuit_bitwise_stable(self, small_keys, small_payloads):
        config = PartitionerConfig(
            num_partitions=16, output_mode=OutputMode.PAD, pad_tuples=512
        )
        a = PartitionerCircuit(config).run(small_keys, small_payloads)
        b = PartitionerCircuit(config).run(small_keys, small_payloads)
        assert a.stats.cycles == b.stats.cycles
        for p in range(16):
            assert np.array_equal(a.partitions_keys[p], b.partitions_keys[p])

    def test_swwc_stable_across_runs(self, small_keys, small_payloads):
        a = swwc_partition(small_keys, small_payloads, 16, threads=4)
        b = swwc_partition(small_keys, small_payloads, 16, threads=4)
        for pa, pb in zip(a[0], b[0]):
            assert np.array_equal(pa, pb)


class TestPipelines:
    def test_join_matches_stable(self):
        wl = make_workload("C", scale=200000, seed=2)
        a = cpu_radix_join(wl, 64, threads=3)
        b = cpu_radix_join(wl, 64, threads=3)
        assert a.matches == b.matches
        assert a.timing.total_seconds == b.timing.total_seconds

    def test_groupby_stable(self):
        keys = random_keys(2000, seed=4) % np.uint32(64)
        values = np.ones(2000, dtype=np.uint32)
        a = partitioned_groupby(keys.astype(np.uint32), values)
        b = partitioned_groupby(keys.astype(np.uint32), values)
        assert np.array_equal(a.keys, b.keys)
        assert np.array_equal(a.values, b.values)
