"""Tests for the distributed partition-and-exchange extension."""

import numpy as np
import pytest

from repro.core.modes import PartitionerConfig
from repro.core.partitioner import FpgaPartitioner
from repro.errors import ConfigurationError
from repro.ops.distributed import DistributedPartitioner
from repro.workloads.relations import make_relation


@pytest.fixture
def cluster():
    return DistributedPartitioner(
        nodes=4, config=PartitionerConfig(num_partitions=64)
    )


@pytest.fixture
def relation():
    return make_relation(8000, "random", seed=21)


class TestSplitting:
    def test_split_covers_everything(self, cluster, relation):
        chunks = cluster.split_relation(relation)
        assert len(chunks) == 4
        assert sum(len(c) for c in chunks) == len(relation)
        collected = np.concatenate([c.keys for c in chunks])
        assert np.array_equal(collected, relation.keys)

    def test_ownership_round_robin(self, cluster):
        assert cluster.owner_of(0) == 0
        assert cluster.owner_of(5) == 1
        assert cluster.owner_of(63) == 3


class TestPlan:
    def test_matrix_accounts_every_byte(self, cluster, relation):
        chunks = cluster.split_relation(relation)
        plan = cluster.plan(chunks)
        assert plan.bytes_matrix.sum() == relation.total_bytes

    def test_balanced_exchange_for_hashed_keys(self, cluster, relation):
        chunks = cluster.split_relation(relation)
        plan = cluster.plan(chunks)
        assert plan.receive_imbalance < 1.3

    def test_exchange_time_scales_with_bandwidth(self, cluster, relation):
        chunks = cluster.split_relation(relation)
        plan = cluster.plan(chunks)
        assert plan.exchange_seconds(9.0) == pytest.approx(
            plan.exchange_seconds(4.5) / 2
        )
        with pytest.raises(ConfigurationError):
            plan.exchange_seconds(0)

    def test_wrong_chunk_count_rejected(self, cluster, relation):
        with pytest.raises(ConfigurationError):
            cluster.plan(cluster.split_relation(relation)[:2])

    def test_partition_counts_exposed(self, cluster, relation):
        """The plan carries the global per-partition histogram, which
        the cluster router's placement policy consumes as a skew
        signal."""
        chunks = cluster.split_relation(relation)
        plan = cluster.plan(chunks)
        assert plan.partition_counts is not None
        assert plan.partition_counts.shape == (64,)
        assert int(plan.partition_counts.sum()) == len(relation)
        single = FpgaPartitioner(cluster.config).partition(relation)
        assert np.array_equal(plan.partition_counts, single.counts)

    def test_all_local_plan_reports_flat_imbalance(self):
        """Regression: an all-local exchange (zero off-diagonal bytes)
        used to divide by a zero mean; it must report exactly 1.0 even
        under a strict numpy error state."""
        from repro.ops.distributed import ExchangePlan

        plan = ExchangePlan(
            nodes=3,
            bytes_matrix=np.diag([100, 200, 300]).astype(np.int64),
            partition_owner=np.arange(12, dtype=np.int64) % 3,
        )
        with np.errstate(all="raise"):
            assert plan.receive_imbalance == 1.0

    def test_feeds_router_placement(self, cluster, relation):
        """ExchangePlan skew metrics flow into ShardRouter placement."""
        from repro.cluster import ShardRouter

        plan = cluster.plan(cluster.split_relation(relation))
        router = ShardRouter(3, seed=0)
        router.observe_plan(plan)
        assert router.placement is not None
        assert 64 in router.placement._plan_counts
        assert router.placement._observed_imbalance == pytest.approx(
            plan.receive_imbalance
        )
        router.stop()  # releases the storage root the router created


class TestExecution:
    def test_exchange_equals_single_node_partitioning(self, cluster, relation):
        """The distributed result, reassembled, must equal partitioning
        the whole relation on one machine."""
        result = cluster.execute(cluster.split_relation(relation))
        single = FpgaPartitioner(cluster.config).partition(relation)
        for p in range(64):
            owner = cluster.owner_of(p)
            got = result.node_partition_keys[owner].get(
                p, np.empty(0, dtype=np.uint32)
            )
            assert sorted(map(int, got)) == sorted(
                map(int, single.partition_keys[p])
            ), f"partition {p}"

    def test_nodes_hold_disjoint_partitions(self, cluster, relation):
        result = cluster.execute(cluster.split_relation(relation))
        seen = set()
        for per_node in result.node_partition_keys:
            for p in per_node:
                assert p not in seen
                seen.add(p)

    def test_total_preserved(self, cluster, relation):
        result = cluster.execute(cluster.split_relation(relation))
        assert sum(
            result.node_tuples(n) for n in range(4)
        ) == len(relation)


class TestTiming:
    def test_partitioning_keeps_pace_with_the_link(self, cluster):
        """The paper's NIC-partitioner pitch: the FPGA partitions at
        the same order as the RDMA line rate (~3-4 GB/s vs 4.5 GB/s),
        so partition-while-sending overlaps cleanly rather than one
        side starving the other."""
        partition_s, exchange_s = cluster.estimate_seconds(128 * 10**6)
        assert partition_s < 3 * exchange_s
        assert exchange_s < 3 * partition_s

    def test_exchange_shrinks_with_cluster_share(self):
        two = DistributedPartitioner(
            2, PartitionerConfig(num_partitions=64)
        ).estimate_seconds(10**6)[1]
        eight = DistributedPartitioner(
            8, PartitionerConfig(num_partitions=64)
        ).estimate_seconds(10**6)[1]
        # a bigger cluster ships a larger fraction of its data
        assert eight > two


class TestValidation:
    def test_bad_cluster_sizes(self):
        with pytest.raises(ConfigurationError):
            DistributedPartitioner(0)
        with pytest.raises(ConfigurationError):
            DistributedPartitioner(
                128, PartitionerConfig(num_partitions=64)
            )

    def test_non_integer_nodes_rejected_up_front(self):
        # a float used to survive construction and die later inside
        # plan() with an opaque numpy TypeError
        with pytest.raises(ConfigurationError, match="integer"):
            DistributedPartitioner(2.5)
        with pytest.raises(ConfigurationError, match="integer"):
            DistributedPartitioner(True)

    def test_numpy_integer_nodes_accepted(self):
        cluster = DistributedPartitioner(
            np.int64(4), PartitionerConfig(num_partitions=64)
        )
        assert cluster.nodes == 4 and type(cluster.nodes) is int

    def test_bad_link_bandwidth_rejected_up_front(self):
        for bad in (0, -1.5):
            with pytest.raises(ConfigurationError, match="bandwidth"):
                DistributedPartitioner(
                    2, PartitionerConfig(num_partitions=64), link_gbs=bad
                )

    def test_chunk_count_mismatch(self, cluster, relation):
        chunks = cluster.split_relation(relation)
        with pytest.raises(ConfigurationError, match="chunks"):
            cluster.plan(chunks[:-1])
