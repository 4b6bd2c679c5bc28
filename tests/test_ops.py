"""Tests for the Section 6 operator extensions (repro.ops)."""

import numpy as np
import pytest

from repro.core.modes import HashKind, PartitionerConfig
from repro.errors import ConfigurationError
from repro.ops import RangePartitioner, partitioned_groupby
from repro.workloads.distributions import random_keys, reverse_grid_keys
from repro.workloads.relations import make_relation
from tests.conftest import reference_groupby


class TestGroupBy:
    @pytest.fixture
    def data(self, rng):
        keys = rng.integers(0, 50, size=2000, dtype=np.uint64).astype(
            np.uint32
        )
        values = rng.integers(1, 100, size=2000, dtype=np.uint64).astype(
            np.uint32
        )
        return keys, values

    @pytest.mark.parametrize(
        "aggregate", ["sum", "count", "min", "max", "mean"]
    )
    def test_matches_reference(self, data, aggregate):
        keys, values = data
        result = partitioned_groupby(
            keys, values, aggregate=aggregate, num_partitions=16
        )
        expected = reference_groupby(keys, values, aggregate)
        assert result.num_groups == len(expected)
        for k, v in result.as_dict().items():
            assert v == pytest.approx(expected[k])

    def test_keys_sorted(self, data):
        keys, values = data
        result = partitioned_groupby(keys, values, num_partitions=16)
        assert np.all(np.diff(result.keys.astype(np.int64)) > 0)

    def test_count_defaults_values(self, data):
        keys, _ = data
        result = partitioned_groupby(
            keys, aggregate="count", num_partitions=16
        )
        assert int(result.values.sum()) == keys.shape[0]

    def test_relation_input(self):
        rel = make_relation(1000, "random", seed=1)
        result = partitioned_groupby(rel, aggregate="count",
                                     num_partitions=16)
        assert int(result.values.sum()) == 1000

    def test_custom_partitioner(self, data):
        keys, values = data
        result = partitioned_groupby(
            keys,
            values,
            config=PartitionerConfig(
                num_partitions=64, hash_kind=HashKind.RADIX
            ),
        )
        assert result.num_partitions_used == 64
        expected = reference_groupby(keys, values, "sum")
        assert result.as_dict() == expected

    def test_unknown_aggregate(self, data):
        keys, values = data
        with pytest.raises(ConfigurationError):
            partitioned_groupby(keys, values, aggregate="median")

    def test_mismatched_values(self, data):
        keys, _ = data
        with pytest.raises(ConfigurationError):
            partitioned_groupby(keys, np.zeros(3, dtype=np.uint32))

    def test_sum_preserved_globally(self, data):
        keys, values = data
        result = partitioned_groupby(keys, values, num_partitions=32)
        assert int(result.values.sum()) == int(values.sum(dtype=np.int64))


class TestRangePartitioner:
    def test_partitions_are_key_ordered(self):
        keys = random_keys(20000, seed=2)
        out = RangePartitioner(num_partitions=16).partition(keys)
        previous_max = -1
        for p in range(16):
            p_keys = out.partition_keys[p]
            if p_keys.size == 0:
                continue
            assert int(p_keys.min()) >= previous_max
            previous_max = int(p_keys.max())

    def test_nothing_lost(self):
        keys = random_keys(5000, seed=3)
        out = RangePartitioner(num_partitions=8).partition(keys)
        assert out.counts.sum() == 5000
        collected = np.concatenate(out.partition_keys)
        assert sorted(map(int, collected)) == sorted(map(int, keys))

    def test_balanced_on_adversarial_keys(self):
        """The equi-depth splitters tame even reverse-grid keys —
        the distribution radix bits cannot handle."""
        keys = reverse_grid_keys(50000)
        out = RangePartitioner(num_partitions=64).partition(keys)
        fair = 50000 / 64
        assert out.counts.max() < 3 * fair
        assert (out.counts == 0).sum() < 8

    def test_payloads_follow_keys(self, rng):
        keys = random_keys(1000, seed=4)
        payloads = np.arange(1000, dtype=np.uint32)
        out = RangePartitioner(num_partitions=8).partition(keys, payloads)
        for p_keys, p_payloads in zip(
            out.partition_keys, out.partition_payloads
        ):
            for k, v in zip(p_keys, p_payloads):
                assert keys[int(v)] == k

    def test_splitters_sorted(self):
        keys = random_keys(10000, seed=5)
        partitioner = RangePartitioner(num_partitions=32)
        splitters = partitioner.choose_splitters(keys)
        assert splitters.shape == (31,)
        assert np.all(np.diff(splitters.astype(np.int64)) >= 0)

    def test_relation_input(self):
        rel = make_relation(2000, "linear")
        out = RangePartitioner(num_partitions=8).partition(rel)
        assert out.counts.sum() == 2000

    def test_small_input_uses_all_keys_as_sample(self):
        keys = np.arange(100, dtype=np.uint32)
        out = RangePartitioner(num_partitions=4, sample_size=1000).partition(
            keys
        )
        assert out.counts.sum() == 100
        assert out.counts.max() <= 35  # roughly equi-depth

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RangePartitioner(num_partitions=3)
        with pytest.raises(ConfigurationError):
            RangePartitioner(num_partitions=256, sample_size=10)
        with pytest.raises(ConfigurationError):
            RangePartitioner(num_partitions=4).partition(
                np.empty(0, dtype=np.uint32)
            )
